"""The square-root measurement of an ensemble, through its circulant Gram blocks.

The Gram matrix of a multi-constellation ensemble sharing one cyclic
symmetry splits into s x s circulant blocks of order m, so it is fully
described by the ensemble's (s, s, m) first rows. One FFT along the last
axis diagonalizes all blocks at once, leaving m independent s x s Hermitian
coupling matrices, one per frequency bin, held as an (m, s, s) stack:
``block_diagonalize`` returns it, and it is the root path's one forward
transform. ``fast_srm`` is the one root entry point, and a dense set of n
states is its one-bin stack (s = n, m = 1). It hands the coupling stack to
``linalg._root_rows``, the one square-root kernel, which yields both the
square roots and each bin's least eigenvalue: in closed form for s <= 2,
every builder ensemble, and from one eigendecomposition for s >= 3. One
inverse FFT turns the roots into the first rows of the full Gram root; no
dense (s m) x (s m) matrix is formed. The singularity test on those
eigenvalues is made here, in ``_refuse_singular``, and only here:
``fast_srm`` makes it on the least eigenvalue over all bins, against
``TOL_PSD`` unless its caller passes another threshold. For s >= 3,
constellations that no coupling entry joins are rooted apart, one
eigendecomposition per group size, and the root holds exact zeros
between them; a dense Gram of two orthogonal halves costs two (n/2)^3
decompositions, not one n^3. ``_fast_srms`` roots several ensembles of
one (s, m) through the same kernel together, their weighted first rows
stacked over a leading axis and transformed in one FFT, and each root
equals the one ``fast_srm`` takes alone bit for bit; it hands back each
ensemble's least eigenvalue untested, so a caller such as ``fig1`` tests
every ensemble in its own order.
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
from .errors import GramSingular
from .linalg import _coupling_stacks, _root_rows
from .srm import SrmResult


def block_diagonalize(ensemble: GusEnsemble) -> np.ndarray:
    """The (m, s, s) coupling stack: entry [j, h, k] is DFT coefficient j of weighted block (h, k).

    Computed from the first rows; every coupling matrix is Hermitian, and
    positive definite when the weighted Gram matrix is.
    """
    return _coupling_stacks(_weighted_rows(ensemble))


# the least eigenvalue a Gram matrix may have and still be rooted
TOL_PSD = 1e-10


def _refuse_singular(lowest: float, tol_psd: float) -> None:
    """Refuse an ensemble, with ``GramSingular``, whose least eigenvalue is below ``tol_psd``."""
    if lowest < tol_psd:
        raise GramSingular(
            f"Gram matrix is singular (min eigenvalue {lowest:.3e} < {tol_psd:g}); "
            "the weighted states are not linearly independent"
        )


def _fast_srms(ensembles: list[GusEnsemble]) -> list[tuple[SrmResult, float]]:
    """The root and least eigenvalue of each of several ensembles of one (s, m), rooted together.

    Each root is the one ``fast_srm`` takes alone; no ensemble is tested
    for singularity, which is the caller's to do with ``_refuse_singular``
    on each least eigenvalue. Raises ``ValueError`` unless the ensembles
    share one (s, m).
    """
    shapes = {ensemble.rows.shape for ensemble in ensembles}
    if len(shapes) != 1:
        raise ValueError(
            f"ensembles rooted together must share one (s, s, m), got {sorted(shapes)}"
        )
    rows = np.array([_weighted_rows(ensemble) for ensemble in ensembles])
    roots, lowest = _root_rows(_coupling_stacks(rows))
    return [(SrmResult(root), float(low)) for root, low in zip(roots, lowest.min(axis=-1))]


def fast_srm(ensemble: GusEnsemble, *, tol_psd: float = TOL_PSD) -> SrmResult:
    """Square-root measurement through the block-circulant fast path.

    Returns the principal root of the weighted Gram matrix, held as its
    first rows; a one-bin ensemble (m = 1) is a dense Gram matrix. The seed
    ``rows[h, h, 0]`` is the diagonal value g_h of constellation h: each of
    its states is detected correctly with probability g_h^2. Raises
    ``GramSingular`` when the least eigenvalue over all its coupling
    matrices falls below ``tol_psd``.
    """
    rows, lowest = _root_rows(block_diagonalize(ensemble))
    _refuse_singular(lowest.min(), tol_psd)
    return SrmResult(rows)
