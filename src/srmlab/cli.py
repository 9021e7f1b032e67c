"""Command-line front end.

Every ``fig*`` subcommand reproduces one published-style dataset as CSV or
JSON with a fixed row order and fixed 12-significant-digit float
formatting, so repeated runs are byte identical. ``check`` reads a Gram
description file and reports the measurement performance together with
the optimality verdicts; ``sweep`` evaluates any named scheme over an
energy grid through the generic pipeline.

Exit codes: 0 on success, 2 for configuration or input-file errors, 3 for
numerical failures such as a singular Gram matrix.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import re
import sys
import warnings

import numpy as np

from . import analysis
from .constellations import RULE_TOL, GusEnsemble, make_double_bpsk
from .errors import GramFileError, InputError, NotBlockDiagonal, NumericalError
from .gus import TOL_PSD, _fast_srms, _refuse_singular, fast_srm
from .srm import TOL_COND, certify_srm, check_theorem3

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

DEFAULT_GRID = "0.1:10:100"
DEFAULT_DELTAS = "0,pi/8,pi/4,3pi/8,pi/2"
DEFAULT_MS = "2,16"

# An optimal square-root measurement's downdate Y - x_r x_r† has a zero r-th
# column, so the smallest eigenvalue over the downdates is exactly zero.
STRUCTURAL_ZERO = "boundary: min eigenvalue over Y - W_r is 0.000000e+00, inside the zero band"

_ANGLE_RE = re.compile(r"^\s*([+-]?)([0-9.]*)\s*pi\s*(?:/\s*([0-9.]+))?\s*$")
_COMMENT_RE = re.compile(r"#[^\n]*")
# the five tokens of an ``inner i j re im`` line, as ``_inner_columns`` reads them
_INNER_FIELDS = np.dtype(
    [("word", "U5"), ("i", np.int64), ("j", np.int64), ("re", float), ("im", float)]
)


def fmt(value) -> str:
    """Deterministic 12-significant-digit rendering for dataset cells."""
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".12g")


def parse_grid(text: str) -> np.ndarray:
    """Parse a ``start:stop:count`` grid of mean photon numbers."""
    parts = text.split(":")
    if len(parts) != 3:
        raise InputError(f"grid must look like start:stop:count, got {text!r}")
    try:
        start, stop = float(parts[0]), float(parts[1])
        count = int(parts[2])
    except ValueError as exc:
        raise InputError(f"bad grid {text!r}: {exc}") from None
    if count < 1:
        raise InputError(f"grid count must be at least 1, got {count}")
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise InputError(f"bad grid {text!r}: endpoints must be finite")
    if start < 0 or stop < 0:
        raise InputError("mean photon numbers must be nonnegative")
    if count == 1:
        return np.array([start])
    return np.linspace(start, stop, count)


def parse_angle(token: str) -> float:
    """Parse one finite angle: a plain float or a signed multiple of pi like ``-3pi/8``."""
    match = _ANGLE_RE.match(token)
    try:
        if match:
            sign, coef, div = match.groups()
            coef, div = float(sign + (coef or "1")), float(div or "1")
        else:
            coef, div = float(token), None
    except ValueError:
        raise InputError(f"bad angle {token!r}") from None
    if div == 0:
        raise InputError(f"bad angle {token!r}: division by zero")
    angle = coef if div is None else coef * math.pi / div
    if not math.isfinite(angle):
        raise InputError(f"bad angle {token!r}")
    return angle


def parse_angle_list(text: str) -> list[float]:
    tokens = [tok for tok in text.split(",") if tok.strip()]
    if not tokens:
        raise InputError("empty angle list")
    return [parse_angle(tok) for tok in tokens]


def parse_int_list(text: str) -> list[int]:
    tokens = [tok for tok in text.split(",") if tok.strip()]
    if not tokens:
        raise InputError("empty integer list")
    try:
        return [int(tok) for tok in tokens]
    except ValueError as exc:
        raise InputError(f"bad integer list {text!r}: {exc}") from None


def render_csv(columns: list[str], rows: list[dict]) -> str:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(fmt(row[col]) for col in columns))
    return "\n".join(lines) + "\n"


def _jsonable(value):
    if value is None or isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    v = float(value)
    if math.isnan(v):
        return None
    return float(format(v, ".12g"))


def render_json(columns: list[str], rows: list[dict]) -> str:
    records = [{col: _jsonable(row[col]) for col in columns} for row in rows]
    return json.dumps(records, indent=2) + "\n"


def emit(text: str, out: str | None) -> None:
    if out:
        try:
            with open(out, "w", encoding="utf-8", newline="\n") as handle:
                handle.write(text)
        except OSError as exc:
            raise InputError(f"{out}: cannot write file: {exc}") from exc
    else:
        sys.stdout.write(text)


def write_dataset(columns: list[str], rows: list[dict], args) -> int:
    renderer = render_json if args.format == "json" else render_csv
    emit(renderer(columns, rows), args.out)
    return EXIT_OK


def rows_fig1(grid, deltas, tol_psd: float) -> list[dict]:
    """Closed-form rows; every positive offset is cross-checked in one batched fast-path call.

    A point whose closed form or ensemble fails is reported only after every
    earlier point is rooted and compared, so errors keep grid order.
    """
    rows = []
    checks = []
    degenerate = False
    try:
        for photon_number in grid:
            alpha = math.sqrt(photon_number)
            for delta in deltas:
                pc = analysis.pc_double_bpsk_equal_amp(alpha, delta)
                if delta > 0.0:
                    beta = alpha * cmath.exp(1j * delta)
                    ensemble = make_double_bpsk(alpha, beta, 0.25)
                    checks.append((photon_number, delta, pc, ensemble))
                else:
                    degenerate = True
                rows.append({"alpha_sq": photon_number, "delta": delta, "pc": pc, "pe": 1.0 - pc})
    finally:
        # also on the way out of a failed point: an earlier point's failure,
        # raised here, takes the place of that point's own error
        if checks:
            _cross_check_fig1(checks, tol_psd)
    if degenerate:
        print(
            "note: delta=0 rows describe coincident constellations (singular ensemble); "
            "values come from the closed form only",
            file=sys.stderr,
        )
    return rows


# how far fig1's closed form and pipeline may differ in pc
TOL_RECON = 1e-8


def _cross_check_fig1(checks, tol_psd: float) -> None:
    """Root every (photon_number, delta, pc, ensemble) check at once, then test each in grid order.

    Each point is first refused if its ensemble is singular, then its pc
    is compared with the closed form, so the first failing point is the
    error raised.
    """
    results = _fast_srms([ensemble for *_, ensemble in checks])
    for (photon_number, delta, pc, _), (result, lowest) in zip(checks, results):
        _refuse_singular(lowest, tol_psd)
        if abs(result.pc - pc) > TOL_RECON:
            raise NumericalError(
                f"closed form and pipeline disagree at |alpha|^2={photon_number}, "
                f"delta={delta}: {pc!r} vs {result.pc!r}"
            )


def rows_fig23(grid, tol_psd: float) -> list[dict]:
    rows = []
    for photon_number in grid:
        alpha = math.sqrt(photon_number)
        p_star = analysis.optimize_prior_4pam(alpha)
        result = fast_srm(make_double_bpsk(alpha, 3.0 * alpha, p_star), tol_psd=tol_psd)
        verdict = certify_srm(result)
        if not verdict.optimal:
            h, k, r = verdict.at
            raise NumericalError(
                "optimized prior failed the optimality certificate: Y is not Hermitian at "
                f"constellations ({h}, {k}), shift {r}: residual {verdict.residual:.6e}"
            )
        pe = 1.0 - result.pc
        rows.append({"alpha_sq": photon_number, "p_star": p_star, "pc": result.pc, "pe": pe})
    return rows


def rows_fig45(grid, ms) -> list[dict]:
    schemes = (
        ("ppm", analysis.ppm_closed_form, analysis.mutual_info_ppm),
        ("double_ppm", analysis.double_ppm_closed_form, analysis.mutual_info_double_ppm),
    )
    rows = []
    for photon_number in grid:
        alpha = math.sqrt(photon_number)
        for m in ms:
            for scheme, closed_form, mutual_info in schemes:
                rows.append(
                    {
                        "alpha_sq": photon_number,
                        "m": m,
                        "scheme": scheme,
                        "pe": 1.0 - closed_form(m, alpha).pc,
                        "mutual_info_bits": mutual_info(m, alpha),
                    }
                )
    return rows


def cmd_fig1(args) -> int:
    grid = parse_grid(args.grid)
    deltas = parse_angle_list(args.delta)
    rows = rows_fig1(grid, deltas, args.tol_psd)
    return write_dataset(["alpha_sq", "delta", "pc", "pe"], rows, args)


def cmd_fig23(args) -> int:
    grid = parse_grid(args.grid)
    rows = rows_fig23(grid, args.tol_psd)
    return write_dataset(["alpha_sq", "p_star", "pc", "pe"], rows, args)


def cmd_fig45(args) -> int:
    grid = parse_grid(args.grid)
    ms = parse_int_list(args.m)
    rows = rows_fig45(grid, ms)
    return write_dataset(["alpha_sq", "m", "scheme", "pe", "mutual_info_bits"], rows, args)


def cmd_sweep(args) -> int:
    grid = parse_grid(args.grid)
    fields = analysis.SCHEME_FIELDS[args.scheme]
    values = {"m": parse_int_list(args.m), "delta": parse_angle_list(args.delta)}[fields[0]]
    rows = []
    for photon_number in grid:
        for value in values:
            point = analysis.evaluate_scheme(
                args.scheme,
                photon_number,
                prior=args.p,
                tol_psd=args.tol_psd,
                **{fields[0]: value},
            )
            rows.append(
                {
                    "alpha_sq": photon_number,
                    "scheme": args.scheme,
                    **{field: getattr(point, field) for field in fields},
                    "pc": point.pc,
                    "pe": point.pe,
                    "mutual_info_bits": point.mutual_info,
                }
            )
    columns = ["alpha_sq", "scheme", *fields, "pc", "pe", "mutual_info_bits"]
    return write_dataset(columns, rows, args)


def load_gram_file(path: str) -> tuple[GusEnsemble, list[tuple[int, ...]] | None]:
    """Parse a Gram description file into a one-bin ensemble and optional blocks.

    Line-oriented format: ``n <count>``, ``priors <q0> ... <q_{n-1}>``,
    then one ``inner i j re im`` per pair with i < j (unlisted pairs are
    orthogonal; diagonal and conjugates are implied). An optional
    ``blocks`` line lists comma-joined index groups separated by spaces.
    Each of ``n``, ``priors`` and ``blocks`` appears at most once, and
    ``n`` comes before ``priors`` and every ``inner`` line.

    Only ``\\n`` breaks lines (``\\r\\n`` and ``\\r`` read as ``\\n``); ``#``
    starts a comment anywhere on a line; tokens are separated by any
    whitespace ``str.split`` knows; numbers read as Python's ``int`` and
    ``float`` read them. Blank lines are ignored.

    ``_read_line`` alone says what a line means. The first reading sends
    every line but the ``inner`` ones through it and converts the ``inner``
    lines in bulk with numpy's C text reader, whose float conversion is
    the correctly rounded routine of Python's ``float``; a token that
    reader refuses, or any other fault there, sends the file to a second
    reading from the top, every line through ``_read_line`` (``_reread``),
    which raises what a line-by-line reading meets first: faults in line
    order, then a missing ``n`` or ``priors``, then a repeated pair, then
    an invalid constellation. Every error names the file and, where there
    is one, the line. The n states are the ``GusEnsemble`` of n
    constellations of one state each: its (n, n, 1) first rows are the
    overlap matrix.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise GramFileError(f"{path}: cannot read file: {exc}") from exc
    if "#" in text:
        text = _COMMENT_RE.sub("", text)
    lines = text.split("\n")
    del text

    header: dict = {}
    inner: list[str] = []
    try:
        for lineno, line in enumerate(lines, start=1):
            # the prefix test is a shortcut for the common case of the split test
            if (line.startswith("inner ") or line.split()[:1] == ["inner"]) and "n" in header:
                inner.append(line)
            elif parts := line.split():
                _read_line(path, lineno, parts, header)
        columns = _inner_columns(header["n"][1], inner) if "priors" in header else None
    except GramFileError:
        columns = None
    if columns is None:
        header, columns = _reread(path, lines)

    i, j, values = columns
    overlaps = np.eye(header["n"][1], dtype=complex)
    overlaps[i, j] = values
    overlaps[j, i] = values.conj()
    priors = np.array(header["priors"][1])
    try:
        ensemble = GusEnsemble(rows=overlaps[:, :, None], constellation_priors=priors)
    except InputError as exc:
        raise GramFileError(f"{path}: invalid constellation: {exc}") from exc
    return ensemble, header["blocks"][1] if "blocks" in header else None


def _read_line(path: str, lineno: int, parts: list[str], header: dict, pairs: dict | None = None):
    """Read one non-blank line, split into ``parts``: the one place that raises a line's fault.

    ``n``, ``priors`` and ``blocks`` go into ``header`` as (line number,
    value); an ``inner`` line is checked and, given ``pairs``, goes there
    as (line number, value) under its (i, j), where a repeat is a fault.
    """
    key, where = parts[0], f"{path}:{lineno}"
    n = header["n"][1] if "n" in header else None

    def numbers(convert, tokens, fault):
        try:
            return [convert(tok) for tok in tokens]
        except ValueError:
            raise GramFileError(f"{where}: {fault}") from None

    if key not in ("n", "priors", "blocks", "inner"):
        raise GramFileError(f"{where}: unknown directive {key!r}")
    if key in header:
        raise GramFileError(f"{where}: duplicate {key!r} line, first given on line {header[key][0]}")
    if key in ("priors", "inner") and n is None:
        raise GramFileError(f"{where}: 'n' must come before {key!r}")
    if key == "n":
        if len(parts) != 2:
            raise GramFileError(f"{where}: expected 'n <count>'")
        (value,) = numbers(int, parts[1:], "state count must be an integer")
        if value < 1:
            raise GramFileError(f"{where}: state count must be positive")
    elif key == "priors":
        if len(parts) != n + 1:
            raise GramFileError(f"{where}: expected {n} priors, got {len(parts) - 1}")
        value = numbers(float, parts[1:], "priors must be numbers")
    elif key == "blocks":
        if len(parts) < 2:
            raise GramFileError(f"{where}: expected at least one index group")
        fault = "block indices must be integers"
        value = [tuple(numbers(int, filter(None, group.split(",")), fault)) for group in parts[1:]]
    else:
        if len(parts) != 5:
            raise GramFileError(f"{where}: expected 'inner i j re im'")
        i, j = numbers(int, parts[1:3], "bad 'inner' line")
        value = complex(*numbers(float, parts[3:], "bad 'inner' line"))
        if not (0 <= i < j < n):
            raise GramFileError(f"{where}: need 0 <= i < j < {n}, got i={i}, j={j}")
        modulus = float(np.abs(value))
        if cmath.isfinite(value) and modulus > 1.0 + RULE_TOL:
            raise GramFileError(f"{where}: overlap of states {i} and {j} has modulus {modulus!r} > 1")
        if pairs is not None:
            if (i, j) in pairs:
                raise GramFileError(
                    f"{where}: duplicate inner product for pair ({i}, {j}), "
                    f"first given on line {pairs[i, j][0]}"
                )
            pairs[i, j] = lineno, value
        return
    header[key] = lineno, value


def _inner_columns(n: int, lines: list[str]):
    """The index and value columns of ``inner`` lines, converted in bulk; ``None`` if any line fails.

    One ``np.loadtxt`` call splits every line at the whitespace
    ``str.split`` knows and converts it in C into the fields of
    ``_INNER_FIELDS``, so a line of four or six tokens is refused. Its
    floats come from the correctly rounded routine Python's ``float`` uses
    and its integers are optionally signed ASCII digits, so every token it
    accepts reads as ``int`` and ``float`` read it; a token it refuses
    (``1_0``, ``1.0`` as an index, non-ASCII digits) makes the file read
    again line by line. Older numpy reads an index like ``1.0`` through a
    float with a ``DeprecationWarning``, which is taken as a refusal. The
    columns pass if every index is in range, every finite overlap has
    modulus at most 1 (to ``RULE_TOL``), as for unit states, and no pair
    repeats. Nothing is raised here.
    """
    if not lines:  # loadtxt warns on an empty input
        table = np.zeros(0, _INNER_FIELDS)
    else:
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error", DeprecationWarning)
                table = np.loadtxt(lines, _INNER_FIELDS, comments=None, ndmin=1)
        except (ValueError, DeprecationWarning):
            return None
    i, j = table["i"], table["j"]
    values = np.empty(len(lines), dtype=complex)
    values.real, values.imag = table["re"], table["im"]
    # sorted pair keys differ pairwise unless a pair repeats (numpy 2's
    # np.unique hashes instead, some 20 times slower on these mostly sorted keys)
    well_formed = (
        ((i >= 0) & (i < j) & (j < n)).all()
        and not (np.isfinite(values) & (np.abs(values) > 1.0 + RULE_TOL)).any()
        and np.diff(np.sort(i * n + j)).all()
    )
    return (i, j, values) if well_formed else None


def _reread(path: str, lines: list[str]):
    """The second reading: every line through ``_read_line`` in order; the header and columns.

    Only the second sweep enters the pairs, so a repeated pair is raised
    after every line fault and after a missing ``n`` or ``priors``.
    """
    for pairs in (None, {}):
        header: dict = {}
        for lineno, line in enumerate(lines, start=1):
            if parts := line.split():
                _read_line(path, lineno, parts, header, pairs)
        for key in ("n", "priors"):
            if key not in header:
                raise GramFileError(f"{path}: missing {key!r} line")
    index = np.array(list(pairs), dtype=np.int64).reshape(-1, 2)
    values = np.array([value for _, value in pairs.values()], dtype=complex)
    return header, (index[:, 0], index[:, 1], values)


def _condition_i(verdict) -> str:
    """Where a suboptimal residual verdict fails condition (i), at its state pair."""
    i, j = verdict.at[:2]
    return f"condition (i) fails at state pair ({i}, {j}): residual {verdict.residual:.6e}"


def cmd_check(args) -> int:
    ensemble, blocks = load_gram_file(args.gramfile)
    result = fast_srm(ensemble, tol_psd=args.tol_psd)

    lines = [
        f"states {ensemble.s}",
        f"pc {fmt(result.pc)}",
        f"pe {fmt(1.0 - result.pc)}",
    ]
    for i, correct in enumerate(result.per_state_correct):
        lines.append(f"correct {i} state{i} {fmt(correct)}")
    if blocks is not None:
        try:
            verdict3 = check_theorem3(ensemble, blocks, result, tol_cond=args.tol_cond)
        except (NotBlockDiagonal, InputError) as exc:
            lines.append(f"theorem3 error ({exc})")
        else:
            word = "optimal" if verdict3.optimal else f"suboptimal ({_condition_i(verdict3)})"
            lines.append(f"theorem3 {word}")
    # on the root, Theorems 1 and 2 both reduce to certify_srm's one residual
    verdict = certify_srm(result, tol_cond=args.tol_cond)
    if verdict.optimal:
        lines += ["theorem2 optimal", f"theorem1_oracle optimal ({STRUCTURAL_ZERO})"]
    else:
        lines += [
            f"theorem2 suboptimal ({_condition_i(verdict)})",
            "theorem1_oracle suboptimal "
            f"(Y is not Hermitian: max asymmetry {verdict.residual:.6e})",
        ]
    emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ``srmlab`` parser; given a ``command``, only that subcommand gets its arguments.

    Every subcommand keeps its name and help either way, so the top-level
    usage, help and errors read the same. ``main`` passes the subcommand it
    is about to run, so a run builds the arguments of that one only: the
    others can only be listed, never parse.
    """
    parser = argparse.ArgumentParser(
        prog="srmlab",
        description=(
            "Square-root-measurement discrimination of pure-state ensembles: "
            "figure datasets, scheme sweeps, and optimality checks."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    grid_help = f"mean photon number grid start:stop:count (default {DEFAULT_GRID})"
    grid = ("--grid", dict(default=DEFAULT_GRID, help=grid_help))
    out = ("--out", dict(help="output path (default: stdout)"))
    output = [out, ("--format", dict(choices=("csv", "json"), default="csv"))]
    tol_psd = ("--tol-psd", dict(dest="tol_psd", type=float, default=TOL_PSD))
    fig23 = [grid, *output, tol_psd]
    fig45 = [grid, ("--m", dict(default=DEFAULT_MS, help="comma list of slot counts")), *output]
    # name: (help, function, arguments in help order, each a (flag, keywords)
    # pair for add_argument); made on each call, so each cmd_* is read then
    subcommands = {
        "fig1": ("two equal-amplitude binary pairs: pc over energy and phase offset", cmd_fig1, [
            grid,
            ("--delta", dict(default=DEFAULT_DELTAS, help="comma list of phase offsets")),
            *output, tol_psd,
        ]),
        "fig2": ("4-level amplitude keying: optimized prior over energy", cmd_fig23, fig23),
        "fig3": (
            "4-level amplitude keying: error probability at the optimized prior", cmd_fig23, fig23
        ),
        "fig4": (
            "pulse position keying, plain and phase-doubled: error probability", cmd_fig45, fig45
        ),
        "fig5": (
            "pulse position keying, plain and phase-doubled: mutual information", cmd_fig45, fig45
        ),
        "sweep": ("evaluate one scheme over an energy grid", cmd_sweep, [
            ("--scheme", dict(required=True, choices=analysis.SCHEMES)),
            grid,
            ("--m", dict(default=DEFAULT_MS, help="comma list of sizes m")),
            ("--delta", dict(default="pi/2", help="comma list of phase offsets delta")),
            ("--p", dict(type=float, default=None, help="per-state prior of the first pair")),
            *output, tol_psd,
        ]),
        "check": ("report measurement performance for a Gram file", cmd_check, [
            ("gramfile", dict(help="path to a Gram description file")),
            out, tol_psd,
            ("--tol-cond", dict(dest="tol_cond", type=float, default=TOL_COND)),
        ]),
    }
    for name, (help_text, func, arguments) in subcommands.items():
        # a subcommand that will not run is only listed: no arguments, no -h
        runs = command is None or command == name
        p = sub.add_parser(name, help=help_text, add_help=runs)
        if runs:
            for flag, kwargs in arguments:
                p.add_argument(flag, **kwargs)
            p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # the top-level parser takes no option values, so its first non-option
    # token is the subcommand (or an invalid choice, which it reports)
    command = next((arg for arg in argv if not arg.startswith("-")), None)
    args = build_parser(command).parse_args(argv)
    tolerances = (getattr(args, "tol_psd", TOL_PSD), getattr(args, "tol_cond", TOL_COND))
    if not all(math.isfinite(tol) and tol > 0 for tol in tolerances):
        print("error: tolerance overrides must be positive", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return args.func(args)
    except (InputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:  # an input too large to hold
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericalError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC

