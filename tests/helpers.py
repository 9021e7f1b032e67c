"""Deterministic generators and independent oracles shared by the test suite.

Also the test references that the library does not need: the unitary
Fourier matrix, dense circulants from a first row or a spectrum, a PSD
test, the eigendecomposition record, the spectral square root and the
dense assembly of a coupling stack, and the O(n⁴) Theorem-1 oracle that
runs one eigensolve per downdate.
"""

from dataclasses import dataclass

import numpy as np

from srmlab.constellations import GusEnsemble, weighted_gram
from srmlab.errors import InvalidFactorization
from srmlab.linalg import (
    TOL_PSD,
    TOL_RECON,
    _circulant_blocks,
    _eigh,
    _first_rows,
    as_matrix,
    circulant_eigenvalues,
    hermiticity_defect,
)
from srmlab.srm import TOL_COND, OptimalityVerdict, _min_eig


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
        return _circulant_blocks(self.first_row[None, None, :])


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


def hermitian_eig(mat) -> HermitianEig:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending."""
    return HermitianEig(*_eigh(as_matrix(mat)))


def is_psd(mat, tol: float) -> tuple[bool, float]:
    """``(verdict, min_eigenvalue)``; the verdict is true iff the minimum is at least ``-tol``."""
    lowest = float(hermitian_eig(mat).eigenvalues[0])
    return lowest >= -tol, lowest


def block_sqrt(spectrum: np.ndarray) -> np.ndarray:
    """Principal root of every coupling matrix of an (m, s, s) stack, small negatives clamped."""
    w, v = _eigh(spectrum)
    adjoint = v.conj().swapaxes(-1, -2)
    root = (v * np.sqrt(np.clip(w, 0.0, None))[:, None, :]) @ adjoint
    return (root + root.conj().swapaxes(-1, -2)) / 2.0


def spectrum_to_matrix(spectrum: np.ndarray) -> np.ndarray:
    """Dense matrix whose (h, k) block is F diag(spectrum[:, h, k]) F†."""
    return _circulant_blocks(_first_rows(spectrum))


def random_unit_trace_gram(rng: np.random.Generator, n: int, min_eig: float = 1e-6) -> np.ndarray:
    """Random Hermitian positive definite matrix with unit trace."""
    while True:
        b = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        g = b @ b.conj().T
        g = g / np.trace(g).real
        if np.linalg.eigvalsh(g)[0] > min_eig:
            return g


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
        gram = weighted_gram(ensemble.base)
        if np.linalg.eigvalsh((gram + gram.conj().T) / 2)[0] > min_eig:
            return ensemble


def single_gus_pc(first_row) -> float:
    """Correct-decision probability of one circulant Gram from its spectrum.

    Independent of the dense square-root route: DFT the first row and
    evaluate (sum of root eigenvalues)^2 / m.
    """
    lam = circulant_eigenvalues(np.asarray(first_row))
    assert np.abs(lam.imag).max() < 1e-12
    values = np.clip(lam.real, 0.0, None)
    return float(np.sqrt(values).sum() ** 2 / len(values))


def circulant_from_row(first_row) -> np.ndarray:
    return CirculantSpec(np.asarray(first_row)).matrix()


def verify_theorem1_reference(
    gram,
    factor,
    *,
    tol_cond: float = TOL_COND,
    tol_psd: float = TOL_PSD,
) -> OptimalityVerdict:
    """Theorem-1 oracle by one eigensolve of ``Y - W_r`` per state r, in O(n⁴).

    Same inputs, errors and verdicts as ``srm.verify_theorem1``. Its
    optimal boundary note prints the minimum over all r as the eigensolver
    returns it, where the library prints the structural zero.
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
            return OptimalityVerdict(
                optimal=False,
                method="theorem1_oracle",
                witness=f"Y - W_{r} has min eigenvalue {low:.6e}",
            )
        lowest = min(lowest, low)
    if defect > tol_cond:
        return OptimalityVerdict(
            optimal=False,
            method="theorem1_oracle",
            witness=f"Y is not Hermitian: max asymmetry {defect:.6e}",
        )
    if lowest <= tol_psd:
        return OptimalityVerdict(
            optimal=True,
            method="theorem1_oracle",
            witness=f"boundary: min eigenvalue over Y - W_r is {lowest:.6e}, inside the zero band",
        )
    return OptimalityVerdict(optimal=True, method="theorem1_oracle")
