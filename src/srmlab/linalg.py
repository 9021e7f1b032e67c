"""Dense complex linear algebra for Gram-matrix pipelines.

Hermitian eigendecomposition of a matrix or of a stack of them, the one
square-root kernel on its eigenpairs, and the circulant transforms: first
rows to spectra and back (``np.fft`` along the last axis), their mirror
and, when a caller asks for it, the dense block-circulant matrix. The
kernel, the transforms and the mirror act on leading batch axes, so the
(..., s, s, m) first rows of several ensembles of one shape go through
each in one call; every matrix and row is still transformed on its own.
The transforms are private and take rows that ``GusEnsemble`` has already
checked. Matrices are square complex128 arrays, indexed (row, column)
from 0. All functions are pure and never mutate their inputs.
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceFailure, NotHermitian

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


def _adjoint(mat: np.ndarray) -> np.ndarray:
    return np.swapaxes(mat.conj(), -1, -2)


def _eigh(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of a Hermitian matrix, or of a stack of them in one ``eigh`` call.

    Eigenvalues come back ascending along the last axis; ``NotHermitian``
    when the input is asymmetric beyond ``TOL_HERM``.
    """
    adjoint = _adjoint(mat)
    defect = float(np.abs(mat - adjoint).max())
    if defect > TOL_HERM:
        raise NotHermitian(
            f"matrix is not Hermitian: max asymmetry {defect:.3e} exceeds {TOL_HERM:g}"
        )
    try:
        return np.linalg.eigh((mat + adjoint) / 2.0)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigensolver did not converge: {exc}") from exc


def _sqrt_from_eig(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Symmetrised ``V diag(sqrt(max(w, 0))) V†``, batched over leading axes.

    ``w[..., i]`` and ``v[..., :, i]`` are matching eigenpairs, as
    ``eigh`` returns them.
    """
    root = (v * np.sqrt(np.clip(w, 0.0, None))[..., None, :]) @ _adjoint(v)
    return (root + _adjoint(root)) / 2.0


def _mirror(rows: np.ndarray) -> np.ndarray:
    """First rows of the adjoint block-circulant matrix, for (..., s, s, m) ``rows``.

    Entry (..., h, k, r) is ``conj(rows[..., k, h, -r mod m])``.
    """
    # the conjugated transpose keeps the input's memory layout
    mirror = rows.swapaxes(-3, -2).conj()
    mirror[..., 1:] = mirror[..., :0:-1]
    return mirror


def _first_rows(spectrum: np.ndarray) -> np.ndarray:
    """(..., s, s, m) first rows of block-circulant matrices with (..., m, s, s) coupling stacks.

    The inverse of ``_bins``, taken for all blocks of every stack in one FFT.
    """
    # (..., m, h, k) -> (..., k, h, m) -> (..., h, k, m)
    return np.fft.fft(spectrum.swapaxes(-3, -1).swapaxes(-3, -2), norm="forward")


def _circulant_blocks(rows: np.ndarray) -> np.ndarray:
    """Dense (s*m, s*m) matrix whose (h, k) block is circulant with first row ``rows[h, k]``.

    ``rows`` has shape (s, s, m); entry (i, j) of block (h, k) is
    ``rows[h, k, (j - i) mod m]``.
    """
    s, _, m = rows.shape
    shift = (np.arange(m)[None, :] - np.arange(m)[:, None]) % m
    return rows[:, :, shift].transpose(0, 2, 1, 3).reshape(s * m, s * m)


def _bins(rows: np.ndarray) -> np.ndarray:
    """Eigenvalues of circulant matrices: the DFT of each first row along the last axis.

    Bin ``k`` carries ``sum_r c[r] exp(+2i*pi*k*r/m)``, i.e. ``m * ifft(c)``,
    so ``F @ diag(lam) @ F†`` rebuilds the matrix for the unitary Fourier
    matrix ``F[k, h] = exp(+2i*pi*k*h/m)/sqrt(m)``. Takes complex rows
    already checked; ``_first_rows`` is the inverse.
    """
    return np.fft.ifft(rows, norm="forward")
