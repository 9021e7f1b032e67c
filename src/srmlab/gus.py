"""The square-root measurement of an ensemble, through its circulant Gram blocks.

The Gram matrix of a multi-constellation ensemble sharing one cyclic
symmetry splits into s x s circulant blocks of order m, so it is fully
described by the ensemble's (s, s, m) first rows. One FFT along the last
axis diagonalizes all blocks at once, leaving m independent s x s Hermitian
coupling matrices, one per frequency bin, held as an (m, s, s) stack:
``block_diagonalize`` returns it, and it is the root path's one forward
transform. ``fast_srm`` is the one root entry point, and a dense set of n
states is its one-bin stack (s = n, m = 1). It hands the coupling stack to
``linalg._root_rows``, the one square-root kernel: one eigendecomposition
yields both the singularity test and the square roots, and one inverse FFT
turns those into the first rows of the full Gram root; no dense
(s m) x (s m) matrix is formed. ``_fast_srms`` roots several ensembles of
one (s, m) through the same kernel together, their weighted first rows
stacked over a leading axis and transformed in one FFT, and each root
equals the one ``fast_srm`` takes alone bit for bit.
The root's diagonal is flat on each constellation: its value g_h on
constellation h is the seed ``rows[h, h, 0]``, and the correct-decision
probability is m * sum_h g_h^2. ``srm.certify_srm`` decides optimality from
the same rows: the measurement is optimal exactly when g_h = g_k for every
pair of constellations (h, k) that the root couples, so mutually orthogonal
constellations may carry different g_h. Its residual, |rows[h, k, r]| times
|g_k - g_h|, is the one that every verdict of ``srmlab check`` reads on a
dense root (m = 1).
"""

from __future__ import annotations

import numpy as np

from .constellations import GusEnsemble, _weighted_rows
from .linalg import TOL_PSD, _coupling_stacks, _root_rows
from .srm import SrmResult


def block_diagonalize(ensemble: GusEnsemble) -> np.ndarray:
    """The (m, s, s) coupling stack: entry [j, h, k] is DFT coefficient j of weighted block (h, k).

    Computed from the first rows; every coupling matrix is Hermitian, and
    positive definite when the weighted Gram matrix is.
    """
    return _coupling_stacks(_weighted_rows(ensemble))


def _fast_srms(ensembles: list[GusEnsemble], tol_psd: float) -> list[SrmResult]:
    """``fast_srm`` of each of several ensembles of one (s, m), rooted together.

    Raises ``ValueError`` unless the ensembles share one (s, m), and
    ``GramSingular`` for the first singular ensemble in the order given.
    """
    shapes = {ensemble.rows.shape for ensemble in ensembles}
    if len(shapes) != 1:
        raise ValueError(
            f"ensembles rooted together must share one (s, s, m), got {sorted(shapes)}"
        )
    rows = np.array([_weighted_rows(ensemble) for ensemble in ensembles])
    return [SrmResult(root) for root in _root_rows(_coupling_stacks(rows), tol_psd)]


def fast_srm(ensemble: GusEnsemble, *, tol_psd: float = TOL_PSD) -> SrmResult:
    """Square-root measurement through the block-circulant fast path.

    Returns the principal root of the weighted Gram matrix, held as its
    first rows; a one-bin ensemble (m = 1) is a dense Gram matrix. The seed
    ``rows[h, h, 0]`` is the diagonal value g_h of constellation h: each of
    its states is detected correctly with probability g_h^2.
    """
    return SrmResult(_root_rows(block_diagonalize(ensemble), tol_psd))
