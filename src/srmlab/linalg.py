"""Dense complex linear algebra for Gram-matrix pipelines.

Hermitian eigendecomposition, principal square roots of positive
semidefinite matrices, semidefiniteness certification, and circulant
matrix utilities built on the discrete Fourier transform. Matrices are
square numpy arrays of complex128, indexed (row, column) from 0. All
functions are pure and never mutate their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure, NotHermitian, NotPSD

TOL_HERM = 1e-10
TOL_PSD = 1e-10
TOL_RECON = 1e-8


def as_matrix(values) -> np.ndarray:
    """Coerce input to a finite, non-empty, square complex matrix."""
    mat = np.array(values, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    if mat.shape[0] == 0:
        raise ValueError("matrix must be non-empty")
    if not np.all(np.isfinite(mat)):
        raise ValueError("matrix entries must be finite")
    return mat


def hermiticity_defect(mat: np.ndarray) -> float:
    """Max-norm distance from a matrix, or a stack of them, to its conjugate transpose."""
    return float(np.abs(mat - _adjoint(mat)).max())


def _adjoint(mat: np.ndarray) -> np.ndarray:
    return np.swapaxes(mat.conj(), -1, -2)


def _eigh(mat: np.ndarray, tol_herm: float) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of a Hermitian matrix, or of a stack of them in one ``eigh`` call."""
    defect = hermiticity_defect(mat)
    if defect > tol_herm:
        raise NotHermitian(
            f"matrix is not Hermitian: max asymmetry {defect:.3e} exceeds {tol_herm:g}"
        )
    try:
        return np.linalg.eigh((mat + _adjoint(mat)) / 2.0)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigensolver did not converge: {exc}") from exc


@dataclass(frozen=True)
class HermitianEig:
    """Spectral decomposition of a Hermitian matrix.

    ``eigenvalues`` are real and ascending; the columns of
    ``eigenvectors`` are the matching orthonormal eigenvectors, so
    ``V @ diag(w) @ V†`` reconstructs the input.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.eigenvalues)

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T


def hermitian_eig(mat, *, tol_herm: float = TOL_HERM) -> HermitianEig:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending."""
    w, v = _eigh(as_matrix(mat), tol_herm)
    return HermitianEig(eigenvalues=w, eigenvectors=v)


def is_psd(mat, tol: float = TOL_PSD, *, tol_herm: float = TOL_HERM) -> tuple[bool, float]:
    """Certify positive semidefiniteness of a Hermitian matrix.

    Returns ``(verdict, min_eigenvalue)`` where the verdict is true iff
    the smallest eigenvalue is at least ``-tol``.
    """
    eig = hermitian_eig(mat, tol_herm=tol_herm)
    lowest = float(eig.eigenvalues[0])
    return lowest >= -tol, lowest


def principal_sqrt(mat, *, tol_psd: float = TOL_PSD, tol_herm: float = TOL_HERM) -> np.ndarray:
    """Principal square root of a Hermitian positive semidefinite matrix.

    Eigenvalues in ``[-tol_psd, 0)`` are treated as roundoff and clamped
    to zero before the square root; anything lower raises ``NotPSD``.
    """
    eig = hermitian_eig(mat, tol_herm=tol_herm)
    w = eig.eigenvalues
    if w[0] < -tol_psd:
        raise NotPSD(f"min eigenvalue {w[0]:.3e} is below -{tol_psd:g}")
    return _sqrt_from_eig(w, eig.eigenvectors)


def _sqrt_from_eig(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Symmetrised ``V diag(sqrt(max(w, 0))) V†``, batched over leading axes.

    ``w[..., i]`` and ``v[..., :, i]`` are matching eigenpairs, as
    ``np.linalg.eigh`` returns them.
    """
    root = (v * np.sqrt(np.clip(w, 0.0, None))[..., None, :]) @ _adjoint(v)
    return (root + _adjoint(root)) / 2.0


def fourier_matrix(m: int) -> np.ndarray:
    """Unitary Fourier matrix with entries exp(+2i*pi*k*h/m)/sqrt(m)."""
    if m < 1:
        raise ValueError("dimension must be at least 1")
    idx = np.arange(m)
    return np.exp(2j * np.pi * np.outer(idx, idx) / m) / np.sqrt(m)


@dataclass(frozen=True)
class CirculantSpec:
    """A circulant matrix, stored as its first row ``c``.

    The dense matrix has entries ``G[i, j] = c[(j - i) mod m]``, so every
    row is the previous one shifted one place to the right.
    """

    first_row: np.ndarray

    def __post_init__(self):
        row = np.array(self.first_row, dtype=complex).reshape(-1)
        if len(row) == 0:
            raise ValueError("first row must be non-empty")
        if not np.all(np.isfinite(row)):
            raise ValueError("first row entries must be finite")
        row.setflags(write=False)
        object.__setattr__(self, "first_row", row)

    @property
    def dim(self) -> int:
        return len(self.first_row)

    def matrix(self) -> np.ndarray:
        return _circulant_blocks(self.first_row[None, None, :])


def _mirror(rows: np.ndarray) -> np.ndarray:
    """First rows of the adjoint block-circulant matrix: ``conj(rows[k, h, -r mod m])`` at (h, k, r)."""
    return rows.transpose(1, 0, 2)[:, :, -np.arange(rows.shape[2]) % rows.shape[2]].conj()


def _circulant_blocks(rows: np.ndarray) -> np.ndarray:
    """Dense (s*m, s*m) matrix whose (h, k) block is circulant with first row ``rows[h, k]``.

    ``rows`` has shape (s, s, m); entry (i, j) of block (h, k) is
    ``rows[h, k, (j - i) mod m]``.
    """
    s, _, m = rows.shape
    shift = (np.arange(m)[None, :] - np.arange(m)[:, None]) % m
    return rows[:, :, shift].transpose(0, 2, 1, 3).reshape(s * m, s * m)


def circulant_eigenvalues(spec) -> np.ndarray:
    """Eigenvalues of a circulant matrix: the DFT of its first row.

    Bin ``k`` carries ``sum_r c[r] exp(+2i*pi*k*r/m)``, i.e. ``m * ifft(c)``;
    the phase sign matches ``fourier_matrix``, so ``F @ diag(lam) @ F†``
    rebuilds the matrix. Accepts a ``CirculantSpec`` or an array of first
    rows and transforms along its last axis, so a stack of rows gives the
    stacked spectra in one FFT.
    """
    c = spec.first_row if isinstance(spec, CirculantSpec) else np.asarray(spec, dtype=complex)
    if c.size == 0 or not np.all(np.isfinite(c)):
        raise ValueError("first rows must be non-empty and finite")
    return np.fft.ifft(c, norm="forward")


def circulant_from_eigenvalues(eigenvalues) -> CirculantSpec:
    """Inverse DFT: recover the first row ``fft(lam) / m`` from circulant eigenvalues."""
    lam = np.asarray(eigenvalues, dtype=complex).reshape(-1)
    if len(lam) == 0:
        raise ValueError("eigenvalue list must be non-empty")
    return CirculantSpec(np.fft.fft(lam, norm="forward"))
