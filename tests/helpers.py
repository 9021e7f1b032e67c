"""Deterministic generators and independent oracles shared by the test suite.

Also the test references that the library does not need: the unitary
Fourier matrix, dense circulants from a first row or a spectrum, the
dense block-circulant gather and the dense weighted Gram matrix, a PSD
test, the Hermiticity defect of a matrix and the ``hermitian_part``
check with its ``TOL_HERM`` and ``NotHermitian`` error, the least
eigenvalue of a Hermitian part, the eigendecomposition record, the
principal square root of a dense matrix, the dense factor X of an
``SrmResult``, the marginals and mutual information of the dense root's
channel, the spectral square root and the dense assembly of a
coupling stack, the certificate references with their
``ReferenceVerdict`` record, the ``as_matrix`` coercion and the
``InvalidFactorization`` error they raise on a factor that does not
match its Gram matrix, the line-by-line Gram-file
parser, and the documented ``check`` reports of the files in
``gramfiles/``. The library decides every verdict from one residual of
the square-root measurement; the references decide on any factor X of
the Gram matrix by the theorems' own conditions: the O(n⁴) Theorem-1
oracle that runs one eigensolve per downdate, Theorem 2 with its own
eigensolve and SVD, and the trace criterion that demands equal g_h,
which is wrong for reducible coupling. The Theorem-3 reference reads the
residual on its own roots, one per block of the block-zeroed Gram matrix. A node-by-node search of a
graph's components is the reference of the kernel's group search.
The library holds no dense Gram matrix and no dense gather: it roots the
per-bin coupling stacks of the weighted first rows. The dense route here
is its own. ``block_circulant`` gathers first rows by ``np.roll`` shifts,
as ``CirculantSpec.matrix`` does; ``weighted_gram`` weights that gather
with the per-state priors; the eigendecomposition and both roots call
``np.linalg.eigh`` after their own Hermitian check and clamp their own
eigenvalues; and the dense circulants from a spectrum multiply by the
Fourier matrix, without the library's inverse FFT. So ``dense_route``,
``dense_factor`` and ``one_bin`` share no code with the path they check,
and nothing here imports a private ``srmlab`` name.
``counted_factorizations`` logs the LAPACK factorizations a call makes,
and ``counted_transforms`` counts its FFTs and ``np.linalg`` calls.
"""

import cmath
import collections
from dataclasses import dataclass

import numpy as np

from srmlab import TOL_PSD
from srmlab.cli import TOL_RECON
from srmlab.constellations import RULE_TOL, GusEnsemble
from srmlab.errors import (
    GramFileError,
    InputError,
    InvalidPrior,
    NotBlockDiagonal,
    NumericalError,
)
from srmlab.srm import TOL_COND, SrmResult

TOL_HERM = 1e-10


@dataclass(frozen=True)
class ReferenceVerdict:
    """Verdict of a reference certificate, with the text of the condition it names.

    ``method`` names the reference. ``witness`` describes the failed
    condition, or the boundary of an optimal one. The Theorem-3 reference
    also gives its ``residual`` and the pair ``at`` where it lies, as
    ``srm.OptimalityVerdict`` does.
    """

    optimal: bool
    method: str
    witness: str | None = None
    residual: float | None = None
    at: tuple[int, int, int] | None = None


class NotHermitian(NumericalError):
    """A matrix required to be Hermitian is not, beyond ``TOL_HERM``."""


# the full `srmlab check` report of each documented file in gramfiles/
GRAMFILE_REPORTS = {
    "binary_equal": (
        "states 2\n"
        "pc 0.933012701892\n"
        "pe 0.0669872981078\n"
        "correct 0 state0 0.466506350946\n"
        "correct 1 state1 0.466506350946\n"
        "theorem3 optimal\n"
        "theorem2 optimal\n"
        "theorem1_oracle optimal (boundary: min eigenvalue over Y - W_r is 0.000000e+00, "
        "inside the zero band)\n"
    ),
    "binary_biased": (
        "states 2\n"
        "pc 0.941462611618\n"
        "pe 0.0585373883823\n"
        "correct 0 state0 0.270731305809\n"
        "correct 1 state1 0.670731305809\n"
        "theorem2 suboptimal (condition (i) fails at state pair (0, 1): residual 5.109562e-02)\n"
        "theorem1_oracle suboptimal (Y is not Hermitian: max asymmetry 5.109562e-02)\n"
    ),
    "identity3": (
        "states 3\n"
        "pc 1\n"
        "pe 0\n"
        "correct 0 state0 0.333333333333\n"
        "correct 1 state1 0.333333333333\n"
        "correct 2 state2 0.333333333333\n"
        "theorem2 optimal\n"
        "theorem1_oracle optimal (boundary: min eigenvalue over Y - W_r is 0.000000e+00, "
        "inside the zero band)\n"
    ),
}


def fourier_matrix(m: int) -> np.ndarray:
    """Unitary Fourier matrix with entries exp(+2i*pi*k*h/m)/sqrt(m)."""
    if m < 1:
        raise ValueError("dimension must be at least 1")
    idx = np.arange(m)
    return np.exp(2j * np.pi * np.outer(idx, idx) / m) / np.sqrt(m)


@dataclass(frozen=True)
class CirculantSpec:
    """A circulant matrix ``G[i, j] = first_row[(j - i) mod m]``, stored as its first row."""

    first_row: np.ndarray

    def __post_init__(self):
        row = np.array(self.first_row, dtype=complex).reshape(-1)
        if len(row) == 0 or not np.all(np.isfinite(row)):
            raise ValueError("first row must be non-empty and finite")
        object.__setattr__(self, "first_row", row)

    def matrix(self) -> np.ndarray:
        # row i is the first row shifted right by i places
        return np.array([np.roll(self.first_row, i) for i in range(len(self.first_row))])


def circulant_from_eigenvalues(eigenvalues) -> CirculantSpec:
    """Inverse DFT: recover the first row ``fft(lam) / m`` from circulant eigenvalues."""
    lam = np.asarray(eigenvalues, dtype=complex).reshape(-1)
    if len(lam) == 0:
        raise ValueError("eigenvalue list must be non-empty")
    return CirculantSpec(np.fft.fft(lam, norm="forward"))


@dataclass(frozen=True)
class HermitianEig:
    """Eigenvalues (ascending) and matching orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T


def hermiticity_defect(mat: np.ndarray) -> float:
    """Max-norm distance from a matrix, or a stack of them, to its conjugate transpose."""
    return float(np.abs(mat - np.swapaxes(mat.conj(), -1, -2)).max())


def hermitian_part(mat) -> np.ndarray:
    """``(A + A†) / 2`` of a finite square matrix, or of a stack of them, checked against ``TOL_HERM``.

    Raises ``ValueError`` for an empty, non-square or non-finite input and
    ``NotHermitian`` when ``hermiticity_defect`` exceeds ``TOL_HERM``.
    """
    a = np.array(mat, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or a.size == 0:
        raise ValueError(f"expected a non-empty square matrix or stack, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    defect = hermiticity_defect(a)
    if defect > TOL_HERM:
        raise NotHermitian(f"matrix is not Hermitian: max asymmetry {defect:.3e}")
    return (a + a.conj().swapaxes(-1, -2)) / 2.0


def hermitian_eig(mat) -> HermitianEig:
    """Eigendecomposition of a Hermitian matrix by ``np.linalg.eigh``, eigenvalues ascending."""
    return HermitianEig(*np.linalg.eigh(hermitian_part(mat)))


def is_psd(mat, tol: float) -> tuple[bool, float]:
    """``(verdict, min_eigenvalue)``; the verdict is true iff the minimum is at least ``-tol``."""
    lowest = float(hermitian_eig(mat).eigenvalues[0])
    return lowest >= -tol, lowest


def clamped_root(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Symmetrised ``V diag(sqrt(max(w, 0))) V†`` of eigenpairs, batched over leading axes."""
    adjoint = v.conj().swapaxes(-1, -2)
    root = (v * np.sqrt(np.clip(w, 0.0, None))[..., None, :]) @ adjoint
    return (root + root.conj().swapaxes(-1, -2)) / 2.0


def principal_sqrt(mat, *, tol_psd: float = TOL_PSD) -> np.ndarray:
    """Principal square root of a Hermitian positive semidefinite matrix.

    Eigenvalues in ``[-tol_psd, 0)`` are treated as roundoff and clamped
    to zero before the square root; anything lower raises ``NumericalError``.
    """
    w, v = np.linalg.eigh(hermitian_part(mat))
    if w[0] < -tol_psd:
        raise NumericalError(f"min eigenvalue {w[0]:.3e} is below -{tol_psd:g}")
    return clamped_root(w, v)


def block_circulant(rows) -> np.ndarray:
    """Dense (s m) x (s m) matrix whose (h, k) block is the circulant of first row ``rows[h, k]``.

    Row i of every block is its first row shifted right by i places, by
    ``np.roll`` as in ``CirculantSpec.matrix``: entry (i, j) of block
    (h, k) is ``rows[h, k, (j - i) mod m]``.
    """
    rows = np.asarray(rows)
    s, _, m = rows.shape
    shifted = np.stack([np.roll(rows, i, axis=-1) for i in range(m)], axis=2)
    return shifted.transpose(0, 2, 1, 3).reshape(s * m, s * m)


def weighted_gram(ensemble: GusEnsemble) -> np.ndarray:
    """Dense weighted Gram matrix G[i, j] = sqrt(p_i) sqrt(p_j) <i|j> of all s m states.

    ``p`` are the per-state priors, each constellation's prior repeated m
    times. The weight ``sqrt(p_i) sqrt(p_j)`` is formed first and then
    multiplies the overlap, the library's order, so G is bit for bit the
    matrix whose coupling stack ``fast_srm`` roots. Hermitian with unit
    trace; positive semidefinite whenever the overlaps describe states.
    """
    w = np.sqrt(np.repeat(ensemble.constellation_priors, ensemble.m))
    return np.outer(w, w) * block_circulant(ensemble.rows)


def dense_factor(result: SrmResult) -> np.ndarray:
    """The dense (s m) x (s m) root X that a result's first rows describe.

    ``abs(dense_factor(result)) ** 2`` is the joint probability of sending
    i and deciding j.
    """
    return block_circulant(result.rows)


def dense_route(ensemble: GusEnsemble) -> SrmResult:
    """The square-root measurement by ``principal_sqrt`` of the dense weighted Gram matrix.

    Held as a one-bin result (s = n, m = 1), so its ``pc``, ``dense_factor``
    and ``channel_stats`` read as those of ``fast_srm``.
    """
    return SrmResult(principal_sqrt(weighted_gram(ensemble))[:, :, None])


def dense_channel(ensemble: GusEnsemble) -> tuple[np.ndarray, np.ndarray, float]:
    """Input and output marginals and mutual information in bits of ``dense_route``'s channel.

    Read from the dense joint probabilities ``abs(X) ** 2`` of all s m
    states, summing only the positive ones into the information.
    """
    joint = np.abs(dense_route(ensemble).rows[:, :, 0]) ** 2
    sent, decided = joint.sum(axis=1), joint.sum(axis=0)
    positive = joint > 0.0
    p = joint[positive]
    return sent, decided, float((p * np.log2(p / np.outer(sent, decided)[positive])).sum())


def block_sqrt(spectrum: np.ndarray) -> np.ndarray:
    """Principal root of every coupling matrix of an (m, s, s) stack, small negatives clamped."""
    return clamped_root(*np.linalg.eigh(hermitian_part(spectrum)))


def trace_criterion(sqrt_spectrum: np.ndarray) -> tuple[np.ndarray, bool]:
    """Per-constellation diagonal values of the Gram square root, and whether all agree.

    Returns ``(g, optimal)`` where ``g[h]`` is the mean over bins of
    ``sqrt_spectrum[:, h, h]``, and ``optimal`` says the g values agree
    within ``TOL_COND``. That flag is the optimality condition only when
    the root couples every pair of constellations; ``srm.certify_srm``
    needs g_h = g_k only for the pairs it couples.
    """
    # contiguous along the bins, so numpy sums them pairwise (error O(log m))
    g = np.ascontiguousarray(sqrt_spectrum.diagonal(axis1=1, axis2=2).real.T).mean(axis=1)
    optimal = bool(g.max() - g.min() <= TOL_COND)
    return g, optimal


def spectrum_to_matrix(spectrum: np.ndarray) -> np.ndarray:
    """Dense matrix whose (h, k) block is F diag(spectrum[:, h, k]) F†, F the ``fourier_matrix``."""
    m, s, _ = spectrum.shape
    f = fourier_matrix(m)
    dense = np.empty((s * m, s * m), dtype=complex)
    for h in range(s):
        for k in range(s):
            dense[h * m : (h + 1) * m, k * m : (k + 1) * m] = (f * spectrum[:, h, k]) @ f.conj().T
    return dense


def random_unit_trace_gram(rng: np.random.Generator, n: int, min_eig: float = 1e-6) -> np.ndarray:
    """Random Hermitian positive definite matrix with unit trace."""
    while True:
        b = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        g = b @ b.conj().T
        g = g / np.trace(g).real
        if np.linalg.eigvalsh(g)[0] > min_eig:
            return g


def dense_ensemble(priors, overlaps) -> GusEnsemble:
    """The one-bin ensemble of n states: n constellations of one state each."""
    return GusEnsemble(rows=np.asarray(overlaps)[:, :, None], constellation_priors=priors)


def one_bin(ensemble: GusEnsemble) -> GusEnsemble:
    """The same s m states as a one-bin ensemble, whose root ``fast_srm`` takes densely.

    Its weighted Gram matrix is bit for bit that of ``ensemble``.
    """
    priors = np.repeat(ensemble.constellation_priors, ensemble.m)
    return dense_ensemble(priors, block_circulant(ensemble.rows))


def gram_ensemble(gram) -> GusEnsemble:
    """The one-bin ensemble whose weighted Gram matrix is ``gram``, to rounding.

    The priors are the diagonal of the unit-trace, positive definite
    ``gram``, and the overlaps are its entries divided by sqrt(p_i p_j).
    """
    g = np.asarray(gram, dtype=complex)
    scale = np.sqrt(np.diagonal(g).real)
    return dense_ensemble(scale**2, g / np.outer(scale, scale))


def random_circulant_gram(rng: np.random.Generator, m: int) -> np.ndarray:
    """Random positive definite circulant matrix with unit trace."""
    lam = rng.uniform(0.2, 1.0, size=m)
    lam = lam / lam.sum()
    return circulant_from_eigenvalues(lam).matrix()


def random_gus_ensemble(
    rng: np.random.Generator, s: int, m: int, min_eig: float = 1e-6
) -> GusEnsemble:
    """Random valid ensemble of s constellations sharing one cyclic symmetry.

    Builds an order-m unitary symmetry explicitly (random eigenbasis with
    m-th roots of unity as eigenvalues, each root on s basis vectors plus
    two random extras, so every phase class can hold the s seeds) and s
    random unit seed vectors, then reads off the base inner products.
    Resamples until the weighted Gram matrix is comfortably positive
    definite.
    """
    dim = s * m + 2
    while True:
        z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        basis, _ = np.linalg.qr(z)
        classes = np.concatenate([np.repeat(np.arange(m), s), rng.integers(0, m, size=2)])
        phases = np.exp(2j * np.pi * classes / m)
        seeds = rng.normal(size=(s, dim)) + 1j * rng.normal(size=(s, dim))
        seeds = seeds / np.linalg.norm(seeds, axis=1, keepdims=True)
        coords = seeds @ basis.conj()

        rows = [
            [[np.sum(np.conj(coords[h]) * phases**r * coords[k]) for r in range(m)] for k in range(s)]
            for h in range(s)
        ]
        raw = rng.uniform(0.2, 1.0, size=s)
        priors = raw / raw.sum() / m
        ensemble = GusEnsemble(rows=rows, constellation_priors=priors)
        gram = weighted_gram(ensemble)
        if np.linalg.eigvalsh((gram + gram.conj().T) / 2)[0] > min_eig:
            return ensemble


def reducible_gus(rng, m: int) -> GusEnsemble:
    """A random s = 3 ensemble whose constellation 2 is orthogonal to constellations 0 and 1."""
    pair, single = random_gus_ensemble(rng, 2, m), random_gus_ensemble(rng, 1, m)
    rows = np.zeros((3, 3, m), dtype=complex)
    rows[:2, :2] = pair.rows
    rows[2, 2] = single.rows[0, 0]
    priors = np.concatenate([0.6 * pair.constellation_priors, 0.4 * single.constellation_priors])
    return GusEnsemble(rows=rows, constellation_priors=priors)


def single_gus_pc(first_row) -> float:
    """Correct-decision probability of one circulant Gram from its spectrum.

    Independent of the dense square-root route and of the library's
    transforms: DFT the first row with ``np.fft`` and evaluate (sum of root
    eigenvalues)^2 / m.
    """
    lam = np.fft.ifft(np.asarray(first_row, dtype=complex), norm="forward")
    assert np.abs(lam.imag).max() < 1e-12
    values = np.clip(lam.real, 0.0, None)
    return float(np.sqrt(values).sum() ** 2 / len(values))


def circulant_from_row(first_row) -> np.ndarray:
    return CirculantSpec(np.asarray(first_row)).matrix()


def gram_file_lines(priors, overlaps, blocks=None) -> list[str]:
    """The lines of a Gram file of the given priors and overlap matrix.

    One ``inner`` line per nonzero overlap above the diagonal, and a
    ``blocks`` line when ``blocks``, a list of index groups, is given.
    """
    n = len(priors)
    lines = [f"n {n}", "priors " + " ".join(repr(float(p)) for p in priors)]
    for i, j in zip(*np.triu_indices(n, 1)):
        if overlaps[i, j] != 0:
            value = overlaps[i, j]
            lines.append(f"inner {i} {j} {float(value.real)!r} {float(value.imag)!r}")
    if blocks is not None:
        lines.append("blocks " + " ".join(",".join(map(str, block)) for block in blocks))
    return lines


def gram_lines(rng, n, blocks) -> list[str]:
    """A certify-style Gram file: one or two circulant blocks, skewed or equal priors."""
    parts = 2 if blocks else 1
    size = n // parts
    overlaps = np.zeros((n, n), dtype=complex)
    for b in range(parts):
        overlaps[b * size : (b + 1) * size, b * size : (b + 1) * size] = (
            size * random_circulant_gram(rng, size)
        )
    priors = rng.uniform(0.5, 1.5, n) if rng.integers(2) else np.ones(n)
    priors /= priors.sum()
    groups = [range(b * size, (b + 1) * size) for b in range(parts)]
    return gram_file_lines(priors, overlaps, groups if blocks else None)


def counted_factorizations(monkeypatch) -> dict:
    """Log the shape of every ``eigh``, ``eigvalsh``, ``svd``, ``cholesky`` and ``solve`` argument.

    One log per solver; ``solve`` logs its first argument, the matrix.
    """
    calls = {"eigh": [], "eigvalsh": [], "svd": [], "cholesky": [], "solve": []}
    for name, log in calls.items():
        solver = getattr(np.linalg, name)

        def counted(mat, *args, _solver=solver, _log=log, **kwargs):
            _log.append(np.shape(mat))
            return _solver(mat, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def counted_transforms(monkeypatch) -> collections.Counter:
    """Count the calls of ``np.fft.fft``, ``np.fft.ifft`` and every ``np.linalg`` function, by name.

    Every LAPACK call that numpy makes goes through ``np.linalg``, so a
    count with no ``np.linalg`` name in it is a call that made none.
    """
    calls = collections.Counter()
    functions = [name for name in np.linalg.__all__ if not isinstance(getattr(np.linalg, name), type)]
    for module, name in ((np.fft, "fft"), (np.fft, "ifft"), *((np.linalg, f) for f in functions)):

        def counted(*args, _call=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _call(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


def _min_eig(hermitian: np.ndarray) -> float:
    """The least eigenvalue of the Hermitian part of a matrix, by ``eigvalsh``."""
    sym = (hermitian + hermitian.conj().T) / 2.0
    return float(np.linalg.eigvalsh(sym)[0])


class InvalidFactorization(NumericalError):
    """A candidate factor given to a reference does not match the Gram matrix."""


def as_matrix(values) -> np.ndarray:
    """Coerce a reference's input to a finite, non-empty, square complex matrix."""
    mat = np.array(values, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    if mat.shape[0] == 0:
        raise ValueError("matrix must be non-empty")
    if not np.all(np.isfinite(mat)):
        raise ValueError("matrix entries must be finite")
    return mat


def verify_theorem1_reference(
    gram,
    factor,
    *,
    tol_cond: float = TOL_COND,
    tol_psd: float = TOL_PSD,
) -> ReferenceVerdict:
    """Theorem-1 oracle by one eigensolve of ``Y - W_r`` per state r, in O(n⁴).

    Takes any factor X with X†X = G. Y is Hermitian within ``tol_cond`` and
    every downdate ``Y - x_r x_r†`` of its Hermitian part is PSD within
    ``tol_psd``; a failed downdate is the witness before a failed
    Hermiticity test. Its optimal boundary note prints the minimum over all
    r as the eigensolver returns it, where ``srmlab check`` prints the
    structural zero of a square-root measurement.
    """
    g = as_matrix(gram)
    x = as_matrix(factor)
    if x.shape != g.shape:
        raise InvalidFactorization(f"factor shape {x.shape} does not match Gram {g.shape}")
    residual = float(np.abs(x.conj().T @ x - g).max())
    if residual > TOL_RECON:
        raise InvalidFactorization(
            f"X†X differs from the Gram matrix by {residual:.3e} (tolerance {TOL_RECON:g})"
        )

    diag = np.diagonal(x)
    y = x * diag.conj()[None, :]
    defect = hermiticity_defect(y)
    y = (y + y.conj().T) / 2.0

    lowest = np.inf
    for r in range(len(x)):
        column = x[:, r]
        gap = y - np.outer(column, column.conj())
        low = _min_eig(gap)
        if low < -tol_psd:
            return ReferenceVerdict(
                optimal=False,
                method="theorem1_oracle",
                witness=f"Y - W_{r} has min eigenvalue {low:.6e}",
            )
        lowest = min(lowest, low)
    if defect > tol_cond:
        return ReferenceVerdict(
            optimal=False,
            method="theorem1_oracle",
            witness=f"Y is not Hermitian: max asymmetry {defect:.6e}",
        )
    if lowest <= tol_psd:
        return ReferenceVerdict(
            optimal=True,
            method="theorem1_oracle",
            witness=f"boundary: min eigenvalue over Y - W_r is {lowest:.6e}, inside the zero band",
        )
    return ReferenceVerdict(optimal=True, method="theorem1_oracle")


def check_theorem2_reference(
    factor, *, tol_cond: float = TOL_COND, tol_psd: float = TOL_PSD
) -> ReferenceVerdict:
    """Theorem 2 on any factor X of the Gram, by its own ``eigvalsh`` of Y and an SVD of X.

    Condition (i) demands ``X[i,i] conj(X[j,i]) == X[i,j] conj(X[j,j])``
    for every pair, which is exactly Hermiticity of Y = X X_d† with
    X_d = diag(X); condition (ii) demands Y positive definite. A minimum
    eigenvalue of Y inside ``[-tol_psd, tol_psd]`` is reported as optimal
    with a boundary note, since the strict/non-strict distinction is not
    resolvable numerically.
    """
    x = as_matrix(factor)
    diag = np.diagonal(x)
    weakest = float(np.abs(diag).min())
    if weakest <= TOL_COND:
        raise NumericalError(
            f"factor has a vanishing diagonal entry (min |X[i,i]| = {weakest:.3e}); "
            "optimal factors have nonzero diagonals"
        )
    smallest_sv = float(np.linalg.svd(x, compute_uv=False)[-1])
    if smallest_sv <= tol_psd:
        raise NumericalError(f"factor is singular (min singular value {smallest_sv:.3e})")

    y = x * diag.conj()[None, :]
    balance = np.abs(y - y.conj().T)
    worst = float(balance.max())
    if worst > tol_cond:
        i, j = np.unravel_index(int(balance.argmax()), balance.shape)
        return ReferenceVerdict(
            optimal=False,
            method="theorem2",
            witness=f"condition (i) fails at state pair ({i}, {j}): residual {worst:.6e}",
        )

    lowest = _min_eig(y)
    if lowest < -tol_psd:
        return ReferenceVerdict(
            optimal=False,
            method="theorem2",
            witness=f"condition (ii) fails: min eigenvalue of Y is {lowest:.6e}",
        )
    if lowest <= tol_psd:
        return ReferenceVerdict(
            optimal=True,
            method="theorem2",
            witness=f"boundary: min eigenvalue of Y is {lowest:.6e}, inside the zero band",
        )
    return ReferenceVerdict(optimal=True, method="theorem2")


def components_reference(adjacency) -> list[list[int]]:
    """The node lists reached by depth-first searches along the rows of ``adjacency``.

    Each search starts from the least node not yet reached, and lists its
    nodes in increasing order.
    """
    n = len(adjacency)
    seen = np.zeros(n, dtype=bool)
    components = []
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        stack, component = [start], [start]
        while stack:
            node = stack.pop()
            for other in np.flatnonzero(adjacency[node]):
                if not seen[other]:
                    seen[other] = True
                    stack.append(int(other))
                    component.append(int(other))
        components.append(sorted(component))
    return components


def check_theorem3_reference(
    gram,
    blocks,
    *,
    tol_cond: float = TOL_COND,
    tol_psd: float = TOL_PSD,
) -> ReferenceVerdict:
    """Theorem 3 by one principal root per block: ``srm.check_theorem3``'s reference.

    Optimality test for a Gram matrix that is block diagonal.

    ``blocks`` partitions the state indices. Entries coupling different
    blocks must vanish within ``tol_cond`` (else ``NotBlockDiagonal``).
    They are set to zero, and each block of that Gram matrix gets its own
    principal root, which together make the block-diagonal root X. The
    measurement is optimal iff the largest |X_ij| |d_j - d_i|, d = diag(X),
    over the pairs i, j inside a block is at most ``tol_cond``. That is the
    ``residual``, and ``at`` is its pair (i, j, 0), the first in C order.
    """
    g = as_matrix(gram)
    n = len(g)
    partition = [tuple(int(i) for i in block) for block in blocks]
    indices = sorted(i for block in partition for i in block)
    if indices != list(range(n)):
        raise InputError("blocks must partition the state indices exactly once each")
    if not all(partition):
        raise InputError("every block must hold at least one state index")

    inside = np.zeros((n, n), dtype=bool)
    for block in partition:
        inside[np.ix_(block, block)] = True
    if not inside.all():
        leak = float(np.abs(g[~inside]).max())
        if leak > tol_cond:
            raise NotBlockDiagonal(
                f"cross-block entry magnitude {leak:.3e} exceeds {tol_cond:g}"
            )

    zeroed = np.where(inside, g, 0.0)
    root = np.zeros_like(zeroed)
    for block in partition:
        index = np.ix_(block, block)
        root[index] = principal_sqrt(zeroed[index], tol_psd=tol_psd)
    diag = np.diagonal(root).real
    balance = np.where(inside, np.abs(root) * np.abs(diag[None, :] - diag[:, None]), 0.0)
    i, j = np.unravel_index(int(balance.argmax()), balance.shape)
    worst = float(balance[i, j])
    at = (int(i), int(j), 0)
    if worst > tol_cond:
        witness = f"condition (i) fails at state pair ({i}, {j}): residual {worst:.6e}"
        return ReferenceVerdict(False, "theorem3", witness, worst, at)
    return ReferenceVerdict(True, "theorem3", None, worst, at)


def load_gram_file_reference(path: str) -> tuple[GusEnsemble, list[tuple[int, ...]] | None]:
    """Parse a Gram description file one line at a time: ``cli.load_gram_file``'s reference.

    Line-oriented format: ``n <count>``, ``priors <q0> ... <q_{n-1}>``,
    then one ``inner i j re im`` per pair with i < j (unlisted pairs are
    orthogonal; diagonal and conjugates are implied). An optional
    ``blocks`` line lists comma-joined index groups separated by spaces.
    Each of ``n``, ``priors`` and ``blocks`` appears at most once. Blank
    lines and ``#`` comments are ignored.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw_lines = handle.readlines()
    except OSError as exc:
        raise GramFileError(f"{path}: cannot read file: {exc}") from exc

    n = None
    priors = None
    entries: list[tuple[int, int, complex, int]] = []
    blocks = None
    first_line: dict[str, int] = {}

    def once(key: str, lineno: int) -> None:
        if key in first_line:
            raise GramFileError(
                f"{path}:{lineno}: duplicate {key!r} line, first given on line {first_line[key]}"
            )
        first_line[key] = lineno

    for lineno, raw in enumerate(raw_lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
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
        elif key == "inner":
            if n is None:
                raise GramFileError(f"{where}: 'n' must come before 'inner'")
            if len(parts) != 5:
                raise GramFileError(f"{where}: expected 'inner i j re im'")
            try:
                i, j = int(parts[1]), int(parts[2])
                value = complex(float(parts[3]), float(parts[4]))
            except ValueError:
                raise GramFileError(f"{where}: bad 'inner' line") from None
            if not (0 <= i < j < n):
                raise GramFileError(
                    f"{where}: need 0 <= i < j < {n}, got i={i}, j={j}"
                )
            modulus = float(np.abs(value))
            if cmath.isfinite(value) and modulus > 1.0 + RULE_TOL:
                raise GramFileError(
                    f"{where}: overlap of states {i} and {j} has modulus {modulus!r} > 1"
                )
            entries.append((i, j, value, lineno))
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

    if n is None:
        raise GramFileError(f"{path}: missing 'n' line")
    if priors is None:
        raise GramFileError(f"{path}: missing 'priors' line")

    overlaps = np.eye(n, dtype=complex)
    seen = {}
    for i, j, value, lineno in entries:
        if (i, j) in seen:
            raise GramFileError(
                f"{path}:{lineno}: duplicate inner product for pair ({i}, {j}), "
                f"first given on line {seen[(i, j)]}"
            )
        seen[(i, j)] = lineno
        overlaps[i, j] = value
        overlaps[j, i] = value.conjugate()

    try:
        ensemble = dense_ensemble(np.array(priors), overlaps)
    except (InvalidPrior, ValueError) as exc:
        raise GramFileError(f"{path}: invalid constellation: {exc}") from exc
    return ensemble, blocks
