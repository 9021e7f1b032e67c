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
The root's diagonal is flat on each constellation: its value g_h on
constellation h is the seed ``rows[h, h, 0]``, and the correct-decision
probability is m * sum_h g_h^2. ``srm.certify_srm`` decides optimality from
the same rows: the measurement is optimal exactly when g_h = g_k for every
pair of constellations (h, k) that the root couples, so mutually orthogonal
constellations may carry different g_h.
"""

from __future__ import annotations

import numpy as np

from .constellations import GusEnsemble, _weighted_rows
from .linalg import TOL_PSD, _bins, _eigh
from .srm import SrmResult, _srm_from_eig


def block_diagonalize(ensemble: GusEnsemble) -> np.ndarray:
    """The (m, s, s) coupling stack: entry [j, h, k] is DFT coefficient j of weighted block (h, k).

    Computed from the first rows; every coupling matrix is Hermitian, and
    positive definite when the weighted Gram matrix is.
    """
    return _bins(_weighted_rows(ensemble)).transpose(2, 0, 1)


def fast_srm(ensemble: GusEnsemble, *, tol_psd: float = TOL_PSD) -> SrmResult:
    """Square-root measurement through the block-circulant fast path.

    Returns the same measurement as dense ``srm`` on the assembled Gram matrix,
    held as the root's first rows. The seed ``rows[h, h, 0]`` is the diagonal
    value g_h of constellation h: each of its states is detected correctly
    with probability g_h^2.
    """
    return _srm_from_eig(*_eigh(block_diagonalize(ensemble)), tol_psd)
