"""Fast discrimination path for ensembles with circulant Gram blocks.

The Gram matrix of a multi-constellation ensemble sharing one cyclic
symmetry splits into s x s circulant blocks of order m, so it is fully
described by the ensemble's (s, s, m) first rows. One FFT along the last
axis diagonalizes all blocks at once, leaving m independent s x s Hermitian
coupling matrices, one per frequency bin, held as an (m, s, s) stack: the
layout a batched ``eigh`` takes. One eigendecomposition of that stack
yields both the singularity test and the square roots, and one inverse FFT
turns those into the first rows of the full Gram root; the dense
(s m) x (s m) factor is formed only if a caller reads it.
The per-constellation diagonal value g_h of the root is the mean over bins
of the (h, h) entry of its spectral stack; the measurement is optimal
exactly when all g_h agree, in which case the correct-decision probability
is m * s * g^2.
"""

from __future__ import annotations

import numpy as np

from .constellations import GusEnsemble
from .errors import NotPSD
from .linalg import TOL_HERM, TOL_PSD, _circulant_blocks, _eigh, _mirror, _sqrt_from_eig, circulant_eigenvalues
from .srm import TOL_COND, SrmResult, _check_independent


def block_diagonalize(ensemble: GusEnsemble) -> np.ndarray:
    """The (m, s, s) coupling stack: entry [j, h, k] is DFT coefficient j of weighted block (h, k).

    Computed from the first rows; every coupling matrix is Hermitian, and
    positive definite when the weighted Gram matrix is.
    """
    w = np.sqrt(ensemble.constellation_priors)
    weighted = np.outer(w, w)[:, :, None] * ensemble.rows
    return circulant_eigenvalues(weighted).transpose(2, 0, 1)


def _coupling_root(spectrum: np.ndarray) -> tuple[float, np.ndarray]:
    """Smallest coupling eigenvalue and the spectral root, from one batched ``eigh``."""
    w, v = _eigh(spectrum, TOL_HERM)
    return float(w[:, 0].min()), _sqrt_from_eig(w, v)


def _first_rows(spectrum: np.ndarray) -> np.ndarray:
    """(s, s, m) first rows of the block-circulant matrix with coupling stack ``spectrum``."""
    return np.fft.fft(spectrum.transpose(1, 2, 0), norm="forward")


def block_sqrt(spectrum: np.ndarray, *, tol_psd: float = TOL_PSD) -> np.ndarray:
    """Square root in the spectral domain: the principal root of every coupling matrix.

    Eigenvalues in ``[-tol_psd, 0)`` are clamped to zero; anything lower
    raises ``NotPSD``.
    """
    lowest, root = _coupling_root(spectrum)
    if lowest < -tol_psd:
        raise NotPSD(f"min eigenvalue {lowest:.3e} is below -{tol_psd:g}")
    return root


def spectrum_to_matrix(spectrum: np.ndarray) -> np.ndarray:
    """Assemble the dense matrix whose (h, k) block is F diag(spectrum[:, h, k]) F†.

    Each block is circulant; its first row is the inverse DFT of its
    spectrum (``circulant_from_eigenvalues``), taken for all blocks at once.
    """
    return _circulant_blocks(_first_rows(spectrum))


def trace_criterion(
    sqrt_spectrum: np.ndarray, *, tol_cond: float = TOL_COND
) -> tuple[np.ndarray, bool]:
    """Per-constellation diagonal values of the Gram square root.

    Returns ``(g, optimal)`` where ``g[h]`` is the mean over bins of
    ``sqrt_spectrum[:, h, h]``. The measurement is optimal exactly when the
    g values agree within ``tol_cond``; the correct decision probability is
    then m * s * g^2.
    """
    # contiguous along the bins, so numpy sums them pairwise (error O(log m))
    g = np.ascontiguousarray(sqrt_spectrum.diagonal(axis1=1, axis2=2).real.T).mean(axis=1)
    optimal = bool(g.max() - g.min() <= tol_cond)
    return g, optimal


def fast_srm(
    ensemble: GusEnsemble, *, tol_psd: float = TOL_PSD
) -> tuple[SrmResult, np.ndarray]:
    """Square-root measurement through the block-circulant fast path.

    Returns the same measurement as dense ``srm`` on the assembled Gram matrix,
    held as the root's first rows, plus the per-constellation diagonal values
    g_h; the states of constellation h are each detected correctly with probability g_h^2.
    """
    lowest, root = _coupling_root(block_diagonalize(ensemble))
    _check_independent(lowest, tol_psd)
    rows = _first_rows(root)
    g, _ = trace_criterion(root)
    return SrmResult((rows + _mirror(rows)) / 2.0), g
