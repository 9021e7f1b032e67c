"""The square-root measurement of an ensemble, through its circulant Gram blocks.

The Gram matrix of a multi-constellation ensemble sharing one cyclic
symmetry splits into s x s circulant blocks of order m, so it is fully
described by the ensemble's (s, s, m) first rows. One FFT along the last
axis diagonalizes all blocks at once, leaving m independent s x s Hermitian
coupling matrices, one per frequency bin, held as an (m, s, s) stack: the
layout a batched ``eigh`` takes. ``fast_srm`` is the one root entry point,
and a dense set of n states is its one-bin stack (s = n, m = 1). One
private function takes the whole root: one eigendecomposition yields both
the singularity test and the square roots, and one inverse FFT turns those
into the first rows of the full Gram root; the dense (s m) x (s m) factor
is formed only if a caller reads it.
Several ensembles of one (s, m) go through the same kernel together,
batched over a leading axis: their k stacks make one (k m, s, s) ``eigh``,
one root product and one FFT pair, and each root equals the one
``fast_srm`` takes alone bit for bit. Once that stack has s >= 2 and at
least ``_DISTINCT_FLOOR`` bins, only its bitwise-distinct coupling
matrices go to the ``eigh`` and the root product: PPM-like constellations
repeat one matrix in every bin but bin 0, so double PPM at m = 512 takes
a handful of 2 x 2 decompositions instead of 512, with the same bits.
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
from .linalg import TOL_PSD, _bins, _eigh, _first_rows, _mirror, _sqrt_from_eig
from .srm import SrmResult


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


# Stacks of s >= 2 with at least this many bins go to ``eigh`` once per
# bitwise-distinct coupling matrix; on smaller stacks, and at s = 1, the
# sort costs more than the repeated eigendecompositions it saves.
_DISTINCT_FLOOR = 64


def _distinct(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The bitwise-distinct matrices of an (n, s, s) stack, and the index that gathers them back.

    Matrices are sorted by their bits, so entries that compare equal as
    numbers but differ in their bits, such as +0.0 and -0.0, stay apart.
    """
    keys = np.ascontiguousarray(stack).reshape(len(stack), -1).view(np.uint64)
    order = np.lexsort(keys.T)
    ranked = keys[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    inverse = np.empty(len(order), dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return stack[order[new]], inverse


def _root_rows(weighted_rows: np.ndarray, tol_psd: float) -> np.ndarray:
    """The root's (..., s, s, m) first rows from (..., s, s, m) weighted first rows.

    Each (s, s, m) block of rows along the leading axes is one ensemble;
    their bins go to one ``eigh``. A stack of s >= 2 with at least
    ``_DISTINCT_FLOOR`` bins sends only its bitwise-distinct coupling
    matrices, whose eigenvalues and roots are gathered back to every bin;
    ``eigh`` and the root treat each matrix on its own, so the roots are
    the same bits either way. Raises ``GramSingular`` for the first
    ensemble, in C order, whose smallest eigenvalue over its bins falls
    below ``tol_psd``, naming that value. The first rows are averaged with
    their mirror, so the factor they describe is exactly Hermitian.
    """
    stacks = _coupling_stacks(weighted_rows)
    *batch, m, s, _ = stacks.shape
    stack = stacks.reshape(-1, s, s)
    inverse = slice(None)
    if s > 1 and len(stack) >= _DISTINCT_FLOOR:
        stack, inverse = _distinct(stack)
    w, v = _eigh(stack)
    if w[:, 0].min() < tol_psd:
        lowest = w[inverse, 0].reshape(-1, m).min(axis=-1)
        first = lowest[np.argmax(lowest < tol_psd)]
        raise GramSingular(
            f"Gram matrix is singular (min eigenvalue {first:.3e} < {tol_psd:g}); "
            "the weighted states are not linearly independent"
        )
    rows = _first_rows(_sqrt_from_eig(w, v)[inverse].reshape(*batch, m, s, s))
    return (rows + _mirror(rows)) / 2.0


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

    Returns the principal root of the weighted Gram matrix, held as its
    first rows; a one-bin ensemble (m = 1) is a dense Gram matrix. The seed
    ``rows[h, h, 0]`` is the diagonal value g_h of constellation h: each of
    its states is detected correctly with probability g_h^2.
    """
    return SrmResult(_root_rows(_weighted_rows(ensemble), tol_psd))
