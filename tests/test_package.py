"""The package's public surface."""

import ast
import builtins
import importlib
from pathlib import Path

import pytest

import srmlab

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "srmlab"
SPANS = ROOT / "bench" / "spans.py"
README = ROOT / "README.md"
HELPERS = ROOT / "tests" / "helpers.py"

# changing the public surface means changing this list on purpose
EXPORTED = [
    "ChannelStats",
    "ConvergenceFailure",
    "DomainError",
    "DoublePpmClosedForm",
    "GramFileError",
    "GramSingular",
    "GusEnsemble",
    "InputError",
    "InvalidPrior",
    "NotBlockDiagonal",
    "NumericalError",
    "OptimalityVerdict",
    "PpmClosedForm",
    "SrmLabError",
    "SrmResult",
    "SweepPoint",
    "TOL_COND",
    "TOL_PSD",
    "block_diagonalize",
    "certify_srm",
    "channel_stats",
    "check_theorem3",
    "coherent_inner",
    "double_bpsk_block_traces",
    "double_ppm_closed_form",
    "evaluate_scheme",
    "fast_srm",
    "make_double_bpsk",
    "make_double_ppm",
    "make_ppm",
    "make_psk",
    "mutual_info_double_ppm",
    "mutual_info_ppm",
    "optimize_prior_4pam",
    "pam4_overlaps",
    "pc_double_bpsk_equal_amp",
    "ppm_closed_form",
]


def test_every_exported_name_resolves_once():
    names = srmlab.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(srmlab, name)] == []


def test_exported_names_are_pinned():
    assert sorted(srmlab.__all__) == EXPORTED


def private_definitions(tree: ast.Module) -> list[str]:
    """Names ``_x`` that a module binds at its top level by ``def``, ``class`` or assignment."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [target.id for target in node.targets if isinstance(target, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def imported_names(tree: ast.Module) -> list[str]:
    """Names that a module binds by ``import`` or ``from ... import``, ``__future__`` aside."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [alias.asname or alias.name for alias in node.names]
    return names


def loaded_names(tree: ast.AST) -> set[str]:
    """Names read in a tree, as a bare name or as an attribute."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        or isinstance(node, ast.Attribute)
    }


def test_every_private_name_is_read_in_the_package():
    # a private helper that nothing in src/srmlab reads is dead code, such
    # as a fold of one function into another can leave behind; an import
    # alone is not a read
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))]
    defined = [name for tree in trees for name in private_definitions(tree)]
    read = set().union(*map(loaded_names, trees))
    assert "_root_rows" in defined
    assert sorted(set(defined) - read) == []
    # and a module that imports a name reads it: only __init__ imports to
    # re-export, so a name moved out of a module leaves no import behind
    unused = {
        path.name: sorted(set(imported_names(tree)) - loaded_names(tree))
        for path, tree in zip(sorted(SRC.glob("*.py")), trees)
        if path.name != "__init__.py"
    }
    assert {name: names for name, names in unused.items() if names} == {}


def test_every_tolerance_is_read_where_it_is_defined():
    # a tolerance lives beside the test that reads it: a module-level TOL_*
    # or *_TOL constant that its own module never reads is kept only for
    # others to import, and the threshold and its test drift apart
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}
    unread = {}
    for name, tree in trees.items():
        constants = {
            target.id
            for node in tree.body
            if isinstance(node, (ast.Assign, ast.AnnAssign))
            for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
            if isinstance(target, ast.Name)
            and (target.id.startswith("TOL_") or target.id.endswith("_TOL"))
        }
        if constants - loaded_names(tree):
            unread[name] = sorted(constants - loaded_names(tree))
    assert "TOL_PSD" in loaded_names(trees["gus.py"])
    assert unread == {}

    # and only the layers that root or mirror import the kernel's module
    def imports_linalg(tree):
        modules = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules |= {alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom):
                module = ".".join(filter(None, ["srmlab" * bool(node.level), node.module]))
                modules |= {module} | {f"{module}.{alias.name}" for alias in node.names}
        return "srmlab.linalg" in modules

    importers = sorted(name for name, tree in trees.items() if imports_linalg(tree))
    assert importers == ["constellations.py", "gus.py", "srm.py"]


def test_no_dense_gram_in_the_package():
    # the library roots coupling stacks; the dense weighted Gram matrix and
    # the block-circulant gather are test references in tests/helpers.py,
    # which builds them without any private srmlab name
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")]
    defined = {
        node.name for tree in trees for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
    }
    assert {"weighted_gram", "_circulant_blocks"} & defined == set()
    helpers = ast.parse(HELPERS.read_text(encoding="utf-8"))
    imported = [
        alias.name
        for node in ast.walk(helpers)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "srmlab"
        for alias in node.names
    ]
    assert "TOL_PSD" in imported
    assert [name for name in imported if name.startswith("_")] == []
    assert not any(
        isinstance(node, ast.Import) and any(a.name.startswith("srmlab") for a in node.names)
        for node in ast.walk(helpers)
    )


def test_check_report_text_lives_in_the_cli():
    # srmlab check prints its theorem2 and theorem1_oracle lines from the one
    # certify_srm verdict, so the report's wording has one owner, cli.py
    sources = {path.name: path.read_text(encoding="utf-8") for path in SRC.glob("*.py")}
    defined = {
        node.name
        for text in sources.values()
        for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.FunctionDef)
    }
    assert "certify_srm" in defined and "_check_verdicts" not in defined
    words = ("theorem2", "theorem1_oracle", "inside the zero band", "Y is not Hermitian")
    owners = {word: sorted(name for name, text in sources.items() if word in text) for word in words}
    assert owners == {word: ["cli.py"] for word in words}


def test_every_error_is_raised_in_the_package():
    # an error class that nothing in src/srmlab raises is dead code, such as
    # a guard that cannot fire leaves behind; the three base classes need
    # not be raised
    def raised(tree):
        names = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                names.add(exc.id if isinstance(exc, ast.Name) else getattr(exc, "attr", None))
        return names

    errors = ast.parse((SRC / "errors.py").read_text(encoding="utf-8"))
    declared = {node.name for node in errors.body if isinstance(node, ast.ClassDef)}
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")]
    used = set().union(*map(raised, trees))
    bases = {"SrmLabError", "InputError", "NumericalError"}
    assert bases <= declared
    assert sorted(declared - bases - used) == []


def test_every_raise_names_an_srmlab_error():
    # every error the package makes is one of its own classes, so a caller
    # tells an input fault from a numerical one by class alone; re-raising a
    # caught error by name makes no new one
    errors = ast.parse((SRC / "errors.py").read_text(encoding="utf-8"))
    declared = {node.name for node in errors.body if isinstance(node, ast.ClassDef)}
    made = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                call = isinstance(node.exc, ast.Call)
                name = ast.unparse(node.exc.func if call else node.exc)
                if call or isinstance(getattr(builtins, name, None), type):
                    made.append((path.name, node.lineno, name))
    assert len(made) > 50
    assert [site for site in made if site[2] not in declared] == []


def test_each_scheme_parameter_is_refused_in_one_function():
    # the cyclic order m, the pulse amplitude and the two-pair prior are
    # each refused by one function in constellations, which every builder,
    # closed form and sweep that reads the parameter calls
    owners = {
        "must be an integer >= 2": "_cyclic_order",
        "amplitude must be positive": "_pulse_amplitude",
        "p must lie strictly between": "_pair_prior",
    }
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}
    raisers = {
        phrase: sorted(
            (name, function.name)
            for name, tree in trees.items()
            for function in ast.walk(tree)
            if isinstance(function, ast.FunctionDef)
            for node in ast.walk(function)
            if isinstance(node, ast.Raise) and phrase in ast.unparse(node)
        )
        for phrase in owners
    }
    assert raisers == {phrase: [("constellations.py", owner)] for phrase, owner in owners.items()}


def test_gram_line_faults_are_raised_in_one_function():
    # cli._read_line says what a Gram-file line means: every GramFileError
    # that names a line is raised there, and the bulk step that converts the
    # inner lines raises nothing and holds no loop, so that a faulty file
    # is always read again through _read_line
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}

    def names_a_line(message):
        # a fault of the whole file reads "{path}: ...", one of a line "{path}:{lineno}: ..."
        head = message.values[:2] if isinstance(message, ast.JoinedStr) else []
        return not (
            len(head) == 2
            and isinstance(head[0], ast.FormattedValue)
            and ast.unparse(head[0].value) == "path"
            and isinstance(head[1], ast.Constant)
            and head[1].value.startswith(": ")
        )

    sites = [
        name
        for name, function in functions.items()
        for node in ast.walk(function)
        if isinstance(node, ast.Raise)
        and isinstance(node.exc, ast.Call)
        and ast.unparse(node.exc.func) == "GramFileError"
        and names_a_line(node.exc.args[0])
    ]
    assert len(sites) > 10 and set(sites) == {"_read_line"}
    bulk = list(ast.walk(functions["_inner_columns"]))
    assert [node for node in bulk if isinstance(node, ast.Raise)] == []
    assert [node for node in bulk if isinstance(node, (ast.For, ast.While, ast.comprehension))] == []


def test_one_eigendecomposition_kernel():
    # np.linalg.eigh is written once in src/srmlab, inside linalg._root_rows:
    # every square root, batched or per block, goes through that kernel
    def eigh_sites(tree):
        return [
            node
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "eigh"
            or isinstance(node, ast.alias) and node.name.split(".")[-1] == "eigh"
        ]

    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}
    sites = {name: eigh_sites(tree) for name, tree in trees.items()}
    assert {name: len(nodes) for name, nodes in sites.items() if nodes} == {"linalg.py": 1}
    (kernel,) = [
        node
        for node in trees["linalg.py"].body
        if isinstance(node, ast.FunctionDef) and node.name == "_root_rows"
    ]
    assert [ast.unparse(node) for node in eigh_sites(kernel)] == ["np.linalg.eigh"]


def test_one_singularity_test():
    # the kernel takes the stacks alone and raises no GramSingular: it hands
    # back its least eigenvalues, and one function in gus, which fast_srm
    # and fig1's cross-check call, refuses a singular Gram matrix
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}
    (kernel,) = [
        node
        for node in trees["linalg.py"].body
        if isinstance(node, ast.FunctionDef) and node.name == "_root_rows"
    ]
    assert ast.unparse(kernel.args) == "stacks: np.ndarray"
    raisers = sorted(
        (name, function.name, "Gram matrix is singular" in ast.unparse(node.exc))
        for name, tree in trees.items()
        for function in ast.walk(tree)
        if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
        if isinstance(node, ast.Raise)
        and isinstance(node.exc, ast.Call)
        and ast.unparse(node.exc.func) == "GramSingular"
    )
    assert [site for site in raisers if site[2]] == [("gus.py", "_refuse_singular", True)]
    assert "linalg.py" not in {name for name, *_ in raisers}


def test_every_traced_layer_is_a_module():
    # the traced benchmark imports srmlab.<layer> for each of these
    tree = ast.parse(SPANS.read_text(encoding="utf-8"))
    (layers,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["LAYERS"]
    ]
    assert len(layers) == 6
    for layer in layers:
        assert importlib.import_module(f"srmlab.{layer}").__name__ == f"srmlab.{layer}"


def test_readme_quick_start_prints_what_its_comments_say(capsys):
    # every print line of the quick start ends in a comment that starts with
    # what it prints; the text after a comma explains it
    section = README.read_text(encoding="utf-8").split("## Quick start (library)", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    prints = [line for line in code.splitlines() if line.startswith("print(")]
    assert prints and all("#" in line for line in prints)
    expected = [line.split("#", 1)[1].split(",")[0].split() for line in prints]
    exec(compile(code, str(README), "exec"), {})
    printed = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert [len(tokens) for tokens in printed] == [len(tokens) for tokens in expected]
    for got, want in zip(sum(printed, []), sum(expected, [])):
        if want in ("True", "False"):
            assert got == want
        else:
            assert float(got) == pytest.approx(float(want), rel=1e-12)
