"""Fast discrimination path for ensembles with circulant Gram blocks.

The Gram matrix of a multi-constellation ensemble sharing one cyclic
symmetry splits into s x s circulant blocks of order m, so it is fully
described by the ensemble's (s, s, m) first rows. One FFT along the last
axis diagonalizes all blocks at once, leaving m independent s x s Hermitian
coupling matrices, one per frequency bin, held as an (m, s, s) stack: the
layout a batched ``eigh`` takes. ``fast_srm`` hands that stack to the same
root kernel as the dense ``srm`` (whose Gram is the one-bin stack): one
eigendecomposition yields both the singularity test and the square roots,
and one inverse FFT turns those into the first rows of the full Gram root;
the dense (s m) x (s m) factor is formed only if a caller reads it.
The per-constellation diagonal value g_h of the root is the mean over bins
of the (h, h) entry of its spectral stack; the measurement is optimal
exactly when all g_h agree, in which case the correct-decision probability
is m * s * g^2.
"""

from __future__ import annotations

import numpy as np

from .constellations import GusEnsemble
from .linalg import TOL_PSD, _eigh, circulant_eigenvalues
from .srm import TOL_COND, SrmResult, _srm_from_eig


def block_diagonalize(ensemble: GusEnsemble) -> np.ndarray:
    """The (m, s, s) coupling stack: entry [j, h, k] is DFT coefficient j of weighted block (h, k).

    Computed from the first rows; every coupling matrix is Hermitian, and
    positive definite when the weighted Gram matrix is.
    """
    w = np.sqrt(ensemble.constellation_priors)
    weighted = np.outer(w, w)[:, :, None] * ensemble.rows
    return circulant_eigenvalues(weighted).transpose(2, 0, 1)


def trace_criterion(sqrt_spectrum: np.ndarray) -> tuple[np.ndarray, bool]:
    """Per-constellation diagonal values of the Gram square root.

    Returns ``(g, optimal)`` where ``g[h]`` is the mean over bins of
    ``sqrt_spectrum[:, h, h]``. The measurement is optimal exactly when the
    g values agree within ``TOL_COND``; the correct decision probability is
    then m * s * g^2.
    """
    # contiguous along the bins, so numpy sums them pairwise (error O(log m))
    g = np.ascontiguousarray(sqrt_spectrum.diagonal(axis1=1, axis2=2).real.T).mean(axis=1)
    optimal = bool(g.max() - g.min() <= TOL_COND)
    return g, optimal


def fast_srm(
    ensemble: GusEnsemble, *, tol_psd: float = TOL_PSD
) -> tuple[SrmResult, np.ndarray]:
    """Square-root measurement through the block-circulant fast path.

    Returns the same measurement as dense ``srm`` on the assembled Gram matrix,
    held as the root's first rows, plus the per-constellation diagonal values
    g_h; the states of constellation h are each detected correctly with probability g_h^2.
    """
    result, root = _srm_from_eig(*_eigh(block_diagonalize(ensemble)), tol_psd)
    g, _ = trace_criterion(root)
    return result, g
