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
Several ensembles of one (s, m) go through the same kernel together,
batched over a leading axis: their k stacks make one (k m, s, s) ``eigh``,
one root product and one FFT pair, and each root equals the one
``fast_srm`` takes alone bit for bit.
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
from .linalg import TOL_PSD, _bins, _eigh
from .srm import SrmResult, _srm_from_eig


def _coupling_stacks(weighted_rows: np.ndarray) -> np.ndarray:
    """(..., m, s, s) coupling stacks of (..., s, s, m) weighted first rows, in one transform."""
    # (..., h, k, m) -> (..., m, k, h) -> (..., m, h, k)
    return _bins(weighted_rows).swapaxes(-1, -3).swapaxes(-1, -2)


def block_diagonalize(ensemble: GusEnsemble) -> np.ndarray:
    """The (m, s, s) coupling stack: entry [j, h, k] is DFT coefficient j of weighted block (h, k).

    Computed from the first rows; every coupling matrix is Hermitian, and
    positive definite when the weighted Gram matrix is.
    """
    return _coupling_stacks(_weighted_rows(ensemble))


def _root_rows(weighted_rows: np.ndarray, tol_psd: float) -> np.ndarray:
    """The root's (..., s, s, m) first rows from (..., s, s, m) weighted first rows.

    Each (s, s, m) block of rows along the leading axes is one ensemble; all
    their bins go to one ``eigh``.
    """
    stacks = _coupling_stacks(weighted_rows)
    *batch, m, s, _ = stacks.shape
    w, v = _eigh(stacks.reshape(-1, s, s))
    return _srm_from_eig(w.reshape(*batch, m, s), v.reshape(*batch, m, s, s), tol_psd)


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
    rows = _root_rows(np.array([_weighted_rows(ensemble) for ensemble in ensembles]), tol_psd)
    return [SrmResult(root) for root in rows]


def fast_srm(ensemble: GusEnsemble, *, tol_psd: float = TOL_PSD) -> SrmResult:
    """Square-root measurement through the block-circulant fast path.

    Returns the same measurement as dense ``srm`` on the assembled Gram matrix,
    held as the root's first rows. The seed ``rows[h, h, 0]`` is the diagonal
    value g_h of constellation h: each of its states is detected correctly
    with probability g_h^2.
    """
    return SrmResult(_root_rows(_weighted_rows(ensemble), tol_psd))
