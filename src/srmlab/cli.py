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

import numpy as np

from . import analysis
from .constellations import RULE_TOL, GusEnsemble, make_double_bpsk
from .errors import (
    GramFileError,
    GramSingular,
    InputError,
    InvalidPrior,
    NotBlockDiagonal,
    NumericalError,
    ReducibleBlock,
)
from .gus import _fast_srms, fast_srm
from .linalg import TOL_PSD, TOL_RECON
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

_ANGLE_RE = re.compile(r"^\s*([0-9.]*)\s*pi\s*(?:/\s*([0-9.]+))?\s*$")
_COMMENT_RE = re.compile(r"#[^\n]*")


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
        raise ValueError(f"grid must look like start:stop:count, got {text!r}")
    try:
        start, stop = float(parts[0]), float(parts[1])
        count = int(parts[2])
    except ValueError as exc:
        raise ValueError(f"bad grid {text!r}: {exc}") from None
    if count < 1:
        raise ValueError(f"grid count must be at least 1, got {count}")
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ValueError(f"bad grid {text!r}: endpoints must be finite")
    if start < 0 or stop < 0:
        raise ValueError("mean photon numbers must be nonnegative")
    if count == 1:
        return np.array([start])
    return np.linspace(start, stop, count)


def parse_angle(token: str) -> float:
    """Parse one finite angle: a plain float or a multiple of pi like ``3pi/8``."""
    match = _ANGLE_RE.match(token)
    try:
        if match:
            coef, div = (float(group) if group else 1.0 for group in match.groups())
        else:
            coef, div = float(token), None
    except ValueError:
        raise ValueError(f"bad angle {token!r}") from None
    if div == 0:
        raise ValueError(f"bad angle {token!r}: division by zero")
    angle = coef if div is None else coef * math.pi / div
    if not math.isfinite(angle):
        raise ValueError(f"bad angle {token!r}")
    return angle


def parse_angle_list(text: str) -> list[float]:
    tokens = [tok for tok in text.split(",") if tok.strip()]
    if not tokens:
        raise ValueError("empty angle list")
    return [parse_angle(tok) for tok in tokens]


def parse_int_list(text: str) -> list[int]:
    tokens = [tok for tok in text.split(",") if tok.strip()]
    if not tokens:
        raise ValueError("empty integer list")
    try:
        return [int(tok) for tok in tokens]
    except ValueError as exc:
        raise ValueError(f"bad integer list {text!r}: {exc}") from None


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


def _cross_check_fig1(checks, tol_psd: float) -> None:
    """Root every (photon_number, delta, pc, ensemble) check at once and compare each pc.

    A singular batch is rooted again one ensemble at a time, so that a
    mismatch before the singular point is still the error raised.
    """
    ensembles = [ensemble for *_, ensemble in checks]
    try:
        results = _fast_srms(ensembles, tol_psd)
    except GramSingular:
        results = (fast_srm(ensemble, tol_psd=tol_psd) for ensemble in ensembles)
    for (photon_number, delta, pc, _), result in zip(checks, results):
        if abs(result.pc - pc) > TOL_RECON:
            raise ArithmeticError(
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
            raise NumericalError(
                f"optimized prior failed the optimality certificate: {verdict.witness}"
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
    if args.p is not None and "prior" not in fields:
        raise ValueError(f"--p does not apply to scheme {args.scheme!r}")
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
    whitespace ``str.split`` knows; numbers are read by Python's ``int``
    and ``float``. Blank lines are ignored.

    The file is read in one pass that only sorts lines by directive; the
    ``inner`` tokens are then converted and checked column by column.
    Every error names the file and, where there is one, the line, and a
    file with several faults reports the one a line-by-line reading meets
    first: faults in line order, then a missing ``n`` or ``priors``, then
    a repeated pair, then an invalid constellation. The n states are the
    ``GusEnsemble`` of n constellations of one state each: its (n, n, 1)
    first rows are the overlap matrix.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise GramFileError(f"{path}: cannot read file: {exc}") from exc
    lines = _COMMENT_RE.sub("", text).split("\n")
    del text

    n = None
    priors = None
    blocks = None
    inner: list[str] = []
    inner_lines: list[int] = []
    first_line: dict[str, int] = {}

    def once(key: str, lineno: int) -> None:
        if key in first_line:
            raise GramFileError(
                f"{path}:{lineno}: duplicate {key!r} line, first given on line {first_line[key]}"
            )
        first_line[key] = lineno

    fault = None
    try:
        for lineno, line in enumerate(lines, start=1):
            # the prefix test is a shortcut for the common case of the split test
            if line.startswith("inner ") or line.split()[:1] == ["inner"]:
                if n is None:
                    raise GramFileError(f"{path}:{lineno}: 'n' must come before 'inner'")
                inner.append(line)
                inner_lines.append(lineno)
                continue
            parts = line.split()
            if not parts:
                continue
            key = parts[0]
            where = f"{path}:{lineno}"
            if key == "n":
                once(key, lineno)
                if len(parts) != 2:
                    raise GramFileError(f"{where}: expected 'n <count>'")
                try:
                    n = int(parts[1])
                except ValueError:
                    raise GramFileError(f"{where}: state count must be an integer") from None
                if n < 1:
                    raise GramFileError(f"{where}: state count must be positive")
            elif key == "priors":
                once(key, lineno)
                if n is None:
                    raise GramFileError(f"{where}: 'n' must come before 'priors'")
                if len(parts) != n + 1:
                    raise GramFileError(f"{where}: expected {n} priors, got {len(parts) - 1}")
                try:
                    priors = [float(tok) for tok in parts[1:]]
                except ValueError:
                    raise GramFileError(f"{where}: priors must be numbers") from None
            elif key == "blocks":
                once(key, lineno)
                if len(parts) < 2:
                    raise GramFileError(f"{where}: expected at least one index group")
                try:
                    blocks = [
                        tuple(int(tok) for tok in group.split(",") if tok)
                        for group in parts[1:]
                    ]
                except ValueError:
                    raise GramFileError(f"{where}: block indices must be integers") from None
            else:
                raise GramFileError(f"{where}: unknown directive {key!r}")
    except GramFileError as exc:
        fault = exc
    del lines

    # the 'inner' lines collected before a fault precede it, so their faults win
    columns = _inner_columns(path, n, inner, inner_lines)
    del inner
    if fault is not None:
        raise fault
    if n is None:
        raise GramFileError(f"{path}: missing 'n' line")
    if priors is None:
        raise GramFileError(f"{path}: missing 'priors' line")

    i, j, values = columns
    keys = i * n + j
    unique, first = np.unique(keys, return_index=True)
    if unique.size < keys.size:
        firsts = first[np.searchsorted(unique, keys)]
        at = np.flatnonzero(firsts != np.arange(keys.size))[0]
        raise GramFileError(
            f"{path}:{inner_lines[at]}: duplicate inner product for pair ({i[at]}, {j[at]}), "
            f"first given on line {inner_lines[firsts[at]]}"
        )

    overlaps = np.eye(n, dtype=complex)
    overlaps[i, j] = values
    overlaps[j, i] = values.conj()

    try:
        ensemble = GusEnsemble(rows=overlaps[:, :, None], constellation_priors=np.array(priors))
    except (InvalidPrior, ValueError) as exc:
        raise GramFileError(f"{path}: invalid constellation: {exc}") from exc
    return ensemble, blocks


def _inner_columns(path: str, n, lines: list[str], linenos: list[int]):
    """Convert ``inner`` lines, each starting with that word, to index and value arrays.

    The lines are split as one text, and every fifth token from the second
    to the fifth on forms the ``i``, ``j``, ``re`` and ``im`` column; the
    columns are converted and checked in bulk: indices in range and, as
    for unit states, every finite overlap of modulus at most 1 (to
    ``RULE_TOL``). This keeps the lines apart: no column accepts the word
    "inner" that starts every line, so when there are five tokens a line and
    the columns convert, each line holds exactly five. Only if a bulk step
    fails are the lines checked one by one, to raise the error of the first
    faulty line. That check finds no fault only when an index does not fit
    in int64, which needs ``n`` not to either; ``None`` is returned then,
    and the ``priors`` check refuses the file.
    """
    count = len(lines)
    tokens = " ".join(lines).split()
    try:
        if len(tokens) == 5 * count:
            i = np.fromiter(map(int, tokens[1::5]), dtype=np.int64, count=count)
            j = np.fromiter(map(int, tokens[2::5]), dtype=np.int64, count=count)
            if ((i >= 0) & (i < j) & (j < n)).all():
                values = np.empty(count, dtype=complex)
                values.real = np.fromiter(map(float, tokens[3::5]), dtype=float, count=count)
                values.imag = np.fromiter(map(float, tokens[4::5]), dtype=float, count=count)
                if not (np.isfinite(values) & (np.abs(values) > 1.0 + RULE_TOL)).any():
                    return i, j, values
    except (ValueError, OverflowError):
        pass
    for line, lineno in zip(lines, linenos):
        where = f"{path}:{lineno}"
        parts = line.split()
        if len(parts) != 5:
            raise GramFileError(f"{where}: expected 'inner i j re im'")
        try:
            i, j = int(parts[1]), int(parts[2])
            value = complex(float(parts[3]), float(parts[4]))
        except ValueError:
            raise GramFileError(f"{where}: bad 'inner' line") from None
        if not (0 <= i < j < n):
            raise GramFileError(f"{where}: need 0 <= i < j < {n}, got i={i}, j={j}")
        modulus = float(np.abs(value))
        if cmath.isfinite(value) and modulus > 1.0 + RULE_TOL:
            raise GramFileError(f"{where}: overlap of states {i} and {j} has modulus {modulus!r} > 1")
    return None


def _verdict_line(verdict) -> str:
    word = "optimal" if verdict.optimal else "suboptimal"
    if verdict.witness:
        return f"{verdict.method} {word} ({verdict.witness})"
    return f"{verdict.method} {word}"


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
            lines.append(_verdict_line(verdict3))
        except (NotBlockDiagonal, ReducibleBlock, ValueError) as exc:
            lines.append(f"theorem3 error ({exc})")
    # on the root, Theorems 1 and 2 both reduce to certify_srm's one residual
    verdict = certify_srm(result, tol_cond=args.tol_cond)
    if verdict.optimal:
        lines += ["theorem2 optimal", f"theorem1_oracle optimal ({STRUCTURAL_ZERO})"]
    else:
        i, j = verdict.at[:2]
        lines += [
            f"theorem2 suboptimal (condition (i) fails at state pair ({i}, {j}): "
            f"residual {verdict.residual:.6e})",
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

    def add_output(p):
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    def add_tol_psd(p):
        p.add_argument("--tol-psd", dest="tol_psd", type=float, default=TOL_PSD)

    def add_grid(p):
        p.add_argument(
            "--grid",
            default=DEFAULT_GRID,
            help="mean photon number grid start:stop:count "
            f"(default {DEFAULT_GRID})",
        )

    def subcommand(name, help_text):
        # a subcommand that will not run is only listed: no arguments, no -h
        runs = command is None or command == name
        p = sub.add_parser(name, help=help_text, add_help=runs)
        return p if runs else None

    p1 = subcommand("fig1", "two equal-amplitude binary pairs: pc over energy and phase offset")
    if p1:
        add_grid(p1)
        p1.add_argument("--delta", default=DEFAULT_DELTAS, help="comma list of phase offsets")
        add_output(p1)
        add_tol_psd(p1)
        p1.set_defaults(func=cmd_fig1)

    for name, help_text in (
        ("fig2", "4-level amplitude keying: optimized prior over energy"),
        ("fig3", "4-level amplitude keying: error probability at the optimized prior"),
    ):
        p = subcommand(name, help_text)
        if p:
            add_grid(p)
            add_output(p)
            add_tol_psd(p)
            p.set_defaults(func=cmd_fig23)

    for name, help_text in (
        ("fig4", "pulse position keying, plain and phase-doubled: error probability"),
        ("fig5", "pulse position keying, plain and phase-doubled: mutual information"),
    ):
        p = subcommand(name, help_text)
        if p:
            add_grid(p)
            p.add_argument("--m", default=DEFAULT_MS, help="comma list of slot counts")
            add_output(p)
            p.set_defaults(func=cmd_fig45)

    ps = subcommand("sweep", "evaluate one scheme over an energy grid")
    if ps:
        ps.add_argument("--scheme", required=True, choices=analysis.SCHEMES)
        add_grid(ps)
        ps.add_argument("--m", default=DEFAULT_MS, help="comma list of sizes m")
        ps.add_argument("--delta", default="pi/2", help="comma list of phase offsets delta")
        ps.add_argument("--p", type=float, default=None, help="per-state prior of the first pair")
        add_output(ps)
        add_tol_psd(ps)
        ps.set_defaults(func=cmd_sweep)

    pc = subcommand("check", "report measurement performance for a Gram file")
    if pc:
        pc.add_argument("gramfile", help="path to a Gram description file")
        pc.add_argument("--out", help="output path (default: stdout)")
        add_tol_psd(pc)
        pc.add_argument("--tol-cond", dest="tol_cond", type=float, default=TOL_COND)
        pc.set_defaults(func=cmd_check)

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
    except (NumericalError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC

