"""The benchmark's three workloads, their ops and their independent references.

A workload is built once per run from its seed: inputs and reference values
are made before any timing starts. It then hands out cycles, each a list of
ops that covers the workload's whole input mix once, so every completed
cycle has exactly the same mix of op classes. An op is one call into
srmlab's public API; ``collect`` turns its return value into the output
that ``check`` compares with the reference, outside every timed interval.

References never come from the code path under test:

* ``fig1``, ``fig4``/``fig5`` and the ``ppm``, ``double_ppm`` and
  equal-amplitude ``double_bpsk`` sweep rows use the closed forms of
  ``srmlab.analysis``;
* ``fig2``/``fig3`` rows are checked for g1 = g2 balance at the returned
  ``p_star`` on a Gram root the benchmark takes with its own ``numpy.eigh``;
* ``psk`` rows use the analytic bin spectrum
  lambda_k = m e^-N sum_{n = k mod m} N^n / n!, with Pc = (sum_k sqrt
  lambda_k)^2 / m^2 and the channel from the inverse DFT of the root
  spectrum;
* ``certify`` reports carry verdicts known from how each file was built,
  and Pc from the benchmark's own ``numpy.eigh`` of the file's Gram matrix.
"""

from __future__ import annotations

import cmath
import math
import os
import random
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

import srmlab.analysis as analysis
import srmlab.cli as cli

# absolute tolerance for pipeline numbers against a reference; the closed
# forms agree with the pipeline to about 1e-12 at the sizes used here
TOL = 1e-9
# a rendered cell carries 12 significant digits
CELL_TOL = 1e-11


@dataclass
class Op:
    """One call into srmlab.

    ``call(*prepare())`` is what gets timed; ``prepare`` builds arguments
    that depend on earlier ops of the cycle, outside the timed interval.
    ``kind`` is the op class that failures and latencies are grouped by.
    """

    key: tuple
    kind: str
    call: Callable[..., Any]
    prepare: Callable[[], tuple] | None = None


def dense_root(amplitudes, priors) -> np.ndarray:
    """Gram square root of weighted coherent states, by the benchmark's own eigh."""
    a = np.asarray(amplitudes, dtype=complex)
    norms = np.abs(a) ** 2
    overlaps = np.exp(-(norms[:, None] + norms[None, :]) / 2.0 + np.conj(a)[:, None] * a[None, :])
    return gram_root(overlaps, priors)


def gram_root(overlaps, priors) -> np.ndarray:
    w = np.sqrt(np.asarray(priors, dtype=float))
    gram = np.outer(w, w) * overlaps
    values, vectors = np.linalg.eigh(gram)
    return (vectors * np.sqrt(np.clip(values, 0.0, None))) @ vectors.conj().T


def channel_information(joint: np.ndarray) -> float:
    """Mutual information in bits of a joint probability matrix."""
    product = np.outer(joint.sum(axis=1), joint.sum(axis=0))
    mask = joint > 0.0
    return max(float((joint[mask] * np.log2(joint[mask] / product[mask])).sum()), 0.0)


def psk_reference(m: int, photon_number: float) -> tuple[float, float]:
    """Pc and mutual information of m-ary coherent PSK from the bin spectrum.

    Every term of the Poisson series is positive, so the spectrum carries no
    cancellation even where the Gram matrix is numerically singular.
    """
    spectrum = np.zeros(m)
    term = math.exp(-photon_number)
    last = int(photon_number + 40.0 * math.sqrt(photon_number) + 60.0)
    for n in range(last + 1):
        spectrum[n % m] += term
        term *= photon_number / (n + 1)
    spectrum *= m
    pc = float(np.sqrt(spectrum).sum() ** 2 / m**2)
    # the root is circulant; its first row is the inverse DFT of sqrt(lambda / m)
    row = np.fft.ifft(np.sqrt(spectrum / m))
    shift = (np.arange(m)[None, :] - np.arange(m)[:, None]) % m
    joint = np.abs(row[shift]) ** 2
    return pc, channel_information(joint)


def _close(value, reference, tol=TOL) -> bool:
    return abs(float(value) - float(reference)) <= tol


def _render(columns, rows) -> str:
    return cli.render_csv(columns, rows)


def check_csv(text: str, columns: list[str], rows: list[dict]) -> str | None:
    """Compare a rendered dataset with the rows it was rendered from."""
    lines = text.split("\n")
    if lines[-1] != "" or lines[0] != ",".join(columns):
        return "bad header or missing final newline"
    body = lines[1:-1]
    if len(body) != len(rows):
        return f"{len(body)} data lines for {len(rows)} rows"
    for line, row in zip(body, rows):
        cells = line.split(",")
        for cell, col in zip(cells, columns):
            value = row[col]
            if isinstance(value, str) or value is None:
                ok = cell == (value or "")
            elif isinstance(value, int):
                ok = cell == str(value)
            elif math.isnan(value):
                ok = cell == "nan"
            else:
                ok = abs(float(cell) - value) <= CELL_TOL * max(1.0, abs(value))
            if not ok:
                return f"cell {col}={cell!r} does not render {value!r}"
    return None


@dataclass
class Dataset:
    name: str
    columns: list[str]
    slots: int
    rows: list = field(default_factory=list)

    def clear(self) -> None:
        self.rows = [None] * self.slots

    def ordered_rows(self) -> tuple:
        return (self.columns, [row for block in self.rows if block for row in block])


class Defaults:
    """Every dataset the CLI writes at its default arguments.

    One op is one grid point of one command: ``rows_fig1``, ``rows_fig23`` or
    ``rows_fig45`` on a one-point grid, or one ``evaluate_scheme`` call of a
    sweep. After the grid points of a cycle, every dataset is rendered with
    ``render_csv`` as one more op each. Ensembles hold 32 states or fewer,
    so the cost is per-call Python overhead, the fig2/3 bisection and the 4x4
    Theorem-1 oracle. ``psk`` at its default sizes raises ``GramSingular`` on
    some points; those ops count as failed.
    """

    name = "defaults"

    def __init__(self, seed: int, workdir: str):
        self.rng = random.Random(seed)
        parser = cli.build_parser()
        fig1 = parser.parse_args(["fig1"])
        fig23 = parser.parse_args(["fig2"])
        fig45 = parser.parse_args(["fig4"])
        self.tol_psd = fig1.tol_psd
        self.deltas = cli.parse_angle_list(fig1.delta)
        self.fig1_grid = cli.parse_grid(fig1.grid)
        self.fig23_grid = cli.parse_grid(fig23.grid)
        self.fig45_grid = cli.parse_grid(fig45.grid)
        self.fig45_ms = cli.parse_int_list(fig45.m)
        self.sweeps = {
            scheme: parser.parse_args(["sweep", "--scheme", scheme]) for scheme in analysis.SCHEMES
        }
        self.datasets: dict[str, Dataset] = {}
        self.ops: list[Op] = []
        self.references: dict[tuple, Any] = {}
        self._build()

    def _dataset(self, name, columns, slots):
        self.datasets[name] = Dataset(name, columns, slots)

    def _build(self) -> None:
        fig1_cols = ["alpha_sq", "delta", "pc", "pe"]
        fig23_cols = ["alpha_sq", "p_star", "pc", "pe"]
        fig45_cols = ["alpha_sq", "m", "scheme", "pe", "mutual_info_bits"]
        sized_cols = ["alpha_sq", "scheme", "m", "pc", "pe", "mutual_info_bits"]
        angled_cols = ["alpha_sq", "scheme", "delta", "prior", "pc", "pe", "mutual_info_bits"]

        self._dataset("fig1", fig1_cols, len(self.fig1_grid))
        for i, x in enumerate(self.fig1_grid):
            key = ("fig1", i)
            self.ops.append(Op(key, "fig1", self._fig1(x)))
            alpha = math.sqrt(x)
            self.references[key] = [
                (d, analysis.pc_double_bpsk_equal_amp(alpha, d)) for d in self.deltas
            ]
        for name in ("fig2", "fig3"):
            self._dataset(name, fig23_cols, len(self.fig23_grid))
            for i, x in enumerate(self.fig23_grid):
                self.ops.append(Op((name, i), name, self._fig23(x)))
        for name in ("fig4", "fig5"):
            self._dataset(name, fig45_cols, len(self.fig45_grid))
            for i, x in enumerate(self.fig45_grid):
                key = (name, i)
                self.ops.append(Op(key, name, self._fig45(x)))
                alpha = math.sqrt(x)
                self.references[key] = [
                    (
                        m,
                        analysis.ppm_closed_form(m, alpha).pc,
                        analysis.mutual_info_ppm(m, alpha),
                        analysis.double_ppm_closed_form(m, alpha).pc,
                        analysis.mutual_info_double_ppm(m, alpha),
                    )
                    for m in self.fig45_ms
                ]
        for scheme, args in self.sweeps.items():
            grid = cli.parse_grid(args.grid)
            name = f"sweep.{scheme}"
            if scheme == "double_bpsk":
                params = cli.parse_angle_list(args.delta)
                self._dataset(name, angled_cols, len(grid) * len(params))
            else:
                params = cli.parse_int_list(args.m)
                self._dataset(name, sized_cols, len(grid) * len(params))
            for i, x in enumerate(grid):
                for j, param in enumerate(params):
                    key = (name, i * len(params) + j)
                    if scheme == "double_bpsk":
                        kind = name
                    else:
                        kind = f"{name}.m{param}"
                    self.ops.append(Op(key, kind, self._sweep(scheme, x, param, args)))
                    self.references[key] = self._sweep_reference(scheme, x, param)

    def _fig1(self, x):
        return lambda: cli.rows_fig1([x], self.deltas, self.tol_psd)

    def _fig23(self, x):
        return lambda: cli.rows_fig23([x], self.tol_psd)

    def _fig45(self, x):
        return lambda: cli.rows_fig45([x], self.fig45_ms)

    def _sweep(self, scheme, x, param, args):
        if scheme == "double_bpsk":
            return lambda: analysis.evaluate_scheme(
                scheme, x, delta=param, prior=args.p, tol_psd=args.tol_psd
            )
        return lambda: analysis.evaluate_scheme(scheme, x, m=param, tol_psd=args.tol_psd)

    @staticmethod
    def _sweep_reference(scheme, x, param):
        alpha = math.sqrt(x)
        if scheme == "psk":
            return psk_reference(param, x)
        if scheme == "ppm":
            return analysis.ppm_closed_form(param, alpha).pc, analysis.mutual_info_ppm(param, alpha)
        if scheme == "double_ppm":
            return (
                analysis.double_ppm_closed_form(param, alpha).pc,
                analysis.mutual_info_double_ppm(param, alpha),
            )
        # without --p the pairs are equiprobable, as the closed form needs
        beta = alpha * cmath.exp(1j * param)
        root = dense_root([alpha, -alpha, beta, -beta], [0.25] * 4)
        return analysis.pc_double_bpsk_equal_amp(alpha, param), channel_information(np.abs(root) ** 2)

    def cycle(self) -> list[Op]:
        for dataset in self.datasets.values():
            dataset.clear()
        ops = list(self.ops)
        self.rng.shuffle(ops)
        for dataset in self.datasets.values():
            ops.append(
                Op(("render", dataset.name), "render", _render, dataset.ordered_rows)
            )
        return ops

    def collect(self, op: Op, result):
        name = op.key[0]
        if name == "render":
            return result
        if name.startswith("sweep."):
            scheme = name.split(".", 1)[1]
            row = {"alpha_sq": result.photon_number, "scheme": scheme}
            if scheme == "double_bpsk":
                row.update(delta=result.delta, prior=result.prior)
            else:
                row["m"] = result.m
            row.update(pc=result.pc, pe=result.pe, mutual_info_bits=result.mutual_info)
            rows = [row]
        else:
            rows = result
        self.datasets[name].rows[op.key[1]] = rows
        return rows

    def check(self, op: Op, output) -> str | None:
        name, index = op.key
        if name == "render":
            return check_csv(output, *self.datasets[index].ordered_rows())
        reference = self.references.get(op.key)
        if name == "fig1":
            if len(output) != len(reference):
                return "wrong row count"
            for row, (delta, pc) in zip(output, reference):
                if row["delta"] != delta or not _close(row["pc"], pc) or not _close(row["pe"], 1 - pc):
                    return f"delta={delta}: pc {row['pc']!r} vs closed form {pc!r}"
            return None
        if name in ("fig2", "fig3"):
            (row,) = output
            p, x = row["p_star"], row["alpha_sq"]
            if not 0.0 < p < 0.5:
                return f"p_star {p!r} outside (0, 1/2)"
            alpha = math.sqrt(x)
            root = dense_root([alpha, -alpha, 3 * alpha, -3 * alpha], [p, p, 0.5 - p, 0.5 - p])
            diag = np.diagonal(root).real
            if not _close(diag[0], diag[2]):
                return f"g1 - g2 = {diag[0] - diag[2]:.3e} at p_star"
            pc = float((diag**2).sum())
            if not _close(row["pc"], pc) or not _close(row["pe"], 1 - pc):
                return f"pc {row['pc']!r} vs {pc!r}"
            return None
        if name in ("fig4", "fig5"):
            if len(output) != 2 * len(reference):
                return "wrong row count"
            for (single, double), (m, pc1, mi1, pc2, mi2) in zip(
                zip(output[0::2], output[1::2]), reference
            ):
                if single["m"] != m or double["m"] != m:
                    return "rows out of order"
                if not (
                    _close(single["pe"], 1 - pc1)
                    and _close(single["mutual_info_bits"], mi1)
                    and _close(double["pe"], 1 - pc2)
                    and _close(double["mutual_info_bits"], mi2)
                ):
                    return f"m={m}: closed forms disagree"
            return None
        (row,) = output
        pc, info = reference
        if not (_close(row["pc"], pc) and _close(row["pe"], 1 - pc) and _close(row["mutual_info_bits"], info)):
            return f"pc {row['pc']!r} / info {row['mutual_info_bits']!r} vs {pc!r} / {info!r}"
        return None


# energies per sweep_large run: 3 x 12 = 36 ops per cycle, enough for ten
# ops beyond the tail percentile, few enough for several repeats of each
SWEEP_ENERGIES = 12


class SweepLarge:
    """``evaluate_scheme`` rows at large sizes over the default energy range.

    Classes, in equal counts: ``ppm`` at m=256 (dense ``srm``, n=256) and
    ``double_ppm`` at m=256 and m=512 (block-circulant fast path, n=512 and
    n=1024), each at the same seeded sample of energies from the default
    grid. Ensemble build, the direct DFT, the per-bin ``eigh``, dense
    assembly and ``channel_stats`` dominate.
    """

    name = "sweep_large"
    classes = (("ppm", 256), ("double_ppm", 256), ("double_ppm", 512))

    def __init__(self, seed: int, workdir: str):
        self.rng = random.Random(seed)
        parser = cli.build_parser()
        args = parser.parse_args(["sweep", "--scheme", "ppm"])
        self.tol_psd = args.tol_psd
        grid = [float(x) for x in cli.parse_grid(args.grid)]
        self.energies = sorted(self.rng.sample(grid, SWEEP_ENERGIES))
        self.references = {}
        for x in self.energies:
            alpha = math.sqrt(x)
            for scheme, m in self.classes:
                if scheme == "ppm":
                    ref = analysis.ppm_closed_form(m, alpha).pc, analysis.mutual_info_ppm(m, alpha)
                else:
                    ref = (
                        analysis.double_ppm_closed_form(m, alpha).pc,
                        analysis.mutual_info_double_ppm(m, alpha),
                    )
                self.references[(scheme, m, x)] = ref

    def cycle(self) -> list[Op]:
        ops = [
            Op((scheme, m, x), f"{scheme}.m{m}", self._evaluate(scheme, m, x))
            for x in self.energies
            for scheme, m in self.classes
        ]
        self.rng.shuffle(ops)
        return ops

    def _evaluate(self, scheme, m, x):
        return lambda: analysis.evaluate_scheme(scheme, x, m=m, tol_psd=self.tol_psd)

    def collect(self, op: Op, result):
        return result

    def check(self, op: Op, point) -> str | None:
        scheme, m, x = op.key
        pc, info = self.references[op.key]
        if point.m != m or point.photon_number != x:
            return "wrong grid point"
        if not (_close(point.pc, pc) and _close(point.pe, 1 - pc) and _close(point.mutual_info, info)):
            return f"pc {point.pc!r} / info {point.mutual_info!r} vs {pc!r} / {info!r}"
        return None


# (n, optimal, files). Sorted by cost the classes run n=16, n=32
# suboptimal, n=32 optimal, n=64 suboptimal, {n=64 optimal, n=128
# suboptimal}, n=128 optimal; these counts put the median in the middle of
# the n=32 optimal class and the op ten from the top in the middle of the
# {n=64 optimal, n=128 suboptimal} group, never on a step between classes
CERTIFY_PLAN = (
    (16, True, 6),
    (16, False, 6),
    (32, True, 6),
    (32, False, 6),
    (64, True, 3),
    (64, False, 3),
    (128, True, 6),
    (128, False, 6),
)


@dataclass
class GramCase:
    path: str
    out: str
    n: int
    optimal: bool
    blocks: bool
    pc: float
    correct: np.ndarray


class Certify:
    """``srmlab check`` on seeded Gram files, in process through ``cli.main``.

    Optimal files are geometrically uniform (circulant) blocks with equal
    priors; those with a ``blocks`` line hold two such blocks, so Theorem 3
    runs. Suboptimal files use the same structure with skewed priors, which
    gives the root a non-flat diagonal inside a connected block: every
    certificate must then say suboptimal, and the oracle leaves its loop at
    the first failing state.
    """

    name = "certify"

    def __init__(self, seed: int, workdir: str):
        self.rng = random.Random(seed)
        gen = np.random.default_rng(seed)
        os.makedirs(workdir, exist_ok=True)
        self.cases: list[GramCase] = []
        for n, optimal, files in CERTIFY_PLAN:
            for copy in range(files):
                blocks = (copy + int(optimal)) % 2 == 1
                index = len(self.cases)
                path = os.path.join(workdir, f"case{index:02d}_n{n}.gram")
                out = os.path.join(workdir, f"case{index:02d}.report")
                self.cases.append(_write_case(gen, path, out, n, optimal, blocks))

    def cycle(self) -> list[Op]:
        ops = [
            Op(
                (i,),
                f"check.n{case.n}.{'optimal' if case.optimal else 'suboptimal'}",
                self._check(case),
            )
            for i, case in enumerate(self.cases)
        ]
        self.rng.shuffle(ops)
        return ops

    @staticmethod
    def _check(case):
        return lambda: cli.main(["check", case.path, "--out", case.out])

    def collect(self, op: Op, code):
        with open(self.cases[op.key[0]].out, encoding="utf-8") as handle:
            return code, handle.read()

    def check(self, op: Op, output) -> str | None:
        case = self.cases[op.key[0]]
        code, text = output
        if code != 0:
            return f"exit code {code}"
        fields = {}
        verdicts = {}
        for line in text.splitlines():
            parts = line.split()
            if parts[0].startswith("theorem"):
                verdicts[parts[0]] = parts[1]
            elif parts[0] == "correct":
                fields[("correct", int(parts[1]))] = float(parts[3])
            else:
                fields[parts[0]] = parts[1]
        if int(fields.get("states", -1)) != case.n:
            return "wrong state count"
        if not _close(float(fields["pc"]), case.pc, CELL_TOL):
            return f"pc {fields['pc']} vs {case.pc!r}"
        for i, value in enumerate(case.correct):
            if not _close(fields[("correct", i)], value, CELL_TOL):
                return f"state {i}: correct {fields[('correct', i)]!r} vs {value!r}"
        expected = "optimal" if case.optimal else "suboptimal"
        names = ["theorem2", "theorem1_oracle"] + (["theorem3"] if case.blocks else [])
        if sorted(verdicts) != sorted(names):
            return f"verdict lines {sorted(verdicts)}"
        wrong = [name for name in names if verdicts[name] != expected]
        if wrong:
            return f"{', '.join(wrong)} not {expected}"
        return None


def _circulant(gen, size) -> np.ndarray:
    # a Hermitian circulant with positive spectrum of mean one: a
    # geometrically uniform set of unit-norm states
    spectrum = gen.uniform(0.2, 1.8, size)
    row = np.fft.ifft(spectrum / spectrum.mean())
    return row[(np.arange(size)[None, :] - np.arange(size)[:, None]) % size]


def _write_case(gen, path, out, n, optimal, blocks) -> GramCase:
    parts = 2 if blocks else 1
    size = n // parts
    overlaps = np.zeros((n, n), dtype=complex)
    for b in range(parts):
        overlaps[b * size : (b + 1) * size, b * size : (b + 1) * size] = _circulant(gen, size)
    if optimal:
        priors = np.full(n, 1.0 / n)
    else:
        priors = gen.uniform(0.5, 1.5, n)
        priors /= priors.sum()
    lines = [f"n {n}", "priors " + " ".join(repr(float(p)) for p in priors)]
    for i in range(n):
        for j in range(i + 1, n):
            if overlaps[i, j] != 0:
                v = overlaps[i, j]
                lines.append(f"inner {i} {j} {float(v.real)!r} {float(v.imag)!r}")
    if blocks:
        groups = (",".join(str(i) for i in range(b * size, (b + 1) * size)) for b in range(parts))
        lines.append("blocks " + " ".join(groups))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")

    # the file holds the upper triangle; rebuild the matrix the parser sees
    upper = np.triu(overlaps, 1)
    parsed = np.eye(n, dtype=complex) + upper + upper.conj().T
    root = gram_root(parsed, priors)
    diag = np.diagonal(root).real
    spread = max(float(np.ptp(diag[b * size : (b + 1) * size])) for b in range(parts))
    if (spread > 1e-12) if optimal else (spread < 1e-6):
        raise RuntimeError(f"{path}: root diagonal spread {spread:.3e} contradicts the construction")
    return GramCase(path, out, n, optimal, blocks, float((diag**2).sum()), diag**2)


WORKLOADS = {cls.name: cls for cls in (Defaults, SweepLarge, Certify)}
