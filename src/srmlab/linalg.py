"""Complex linear algebra on the coupling stacks of Gram-matrix pipelines.

The one square-root kernel and the circulant transforms around it: first
rows to coupling stacks and back (``np.fft`` along the last axis) and
their mirror. No function here assembles a dense block-circulant matrix.
``_root_rows`` is the only place that takes a square root. It takes the
(..., m, s, s) coupling stacks of one or several ensembles of one shape,
however the caller got them: ``_coupling_stacks`` turns weighted first
rows into them in one FFT, and a dense n x n matrix is its own one-bin
stack (s = n, m = 1), with no transform. When the stacks split into
groups of constellations that no entry couples, which ``_components``
finds by breadth-first search, each group is rooted on its own: one
``eigh`` per group size, so groups of sizes b_i cost sum b_i^3, not s^3,
per bin. A stack of one group, which every builder ensemble is, goes to
one ``eigh`` whole (only its bitwise-distinct matrices once an ensemble
has ``_DISTINCT_FLOOR`` bins), and the clamped root of every matrix goes
back through one inverse FFT to the root's first rows. Every matrix and
row is still transformed on its own. The transforms are private and take
rows that ``GusEnsemble`` has already checked. Matrices are square
complex128 arrays, indexed (row, column) from 0. All functions are pure
and never mutate their inputs.
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceFailure, GramSingular

TOL_PSD = 1e-10
TOL_RECON = 1e-8


def _adjoint(mat: np.ndarray) -> np.ndarray:
    return np.swapaxes(mat.conj(), -1, -2)


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

    The inverse of ``_coupling_stacks``, taken for all blocks of every stack in one FFT.
    """
    # (..., m, h, k) -> (..., k, h, m) -> (..., h, k, m)
    return np.fft.fft(spectrum.swapaxes(-3, -1).swapaxes(-3, -2), norm="forward")


def _bins(rows: np.ndarray) -> np.ndarray:
    """Eigenvalues of circulant matrices: the DFT of each first row along the last axis.

    Bin ``k`` carries ``sum_r c[r] exp(+2i*pi*k*r/m)``, i.e. ``m * ifft(c)``,
    so ``F @ diag(lam) @ F†`` rebuilds the matrix for the unitary Fourier
    matrix ``F[k, h] = exp(+2i*pi*k*h/m)/sqrt(m)``. Takes complex rows
    already checked; ``_first_rows`` is the inverse.
    """
    return np.fft.ifft(rows, norm="forward")


def _coupling_stacks(weighted_rows: np.ndarray) -> np.ndarray:
    """(..., m, s, s) coupling stacks of (..., s, s, m) weighted first rows, in one transform."""
    # (..., h, k, m) -> (..., m, k, h) -> (..., m, h, k)
    return _bins(weighted_rows).swapaxes(-1, -3).swapaxes(-1, -2)


# Ensembles of s >= 2 with at least this many bins go to ``eigh`` once per
# bitwise-distinct coupling matrix; on smaller ensembles, and at s = 1, the
# sort costs more than the repeated eigendecompositions it saves. The floor
# reads each ensemble's own bin count, not that of a stacked batch: bins
# repeat within an ensemble (PPM-like constellations share one matrix in
# every bin but bin 0), not across the ensembles of a grid.
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


def _components(adjacency: np.ndarray) -> list[np.ndarray]:
    """The connected components of a graph given by its symmetric boolean adjacency matrix.

    Each component is the sorted array of its nodes, and the components come
    in the order of their least node. Each search takes one NumPy step per
    breadth-first level.
    """
    components = []
    unseen = np.ones(len(adjacency), dtype=bool)
    while unseen.any():
        seen = np.zeros_like(unseen)
        seen[unseen.argmax()] = True
        frontier = seen.copy()
        while frontier.any():
            reached = adjacency[frontier].any(axis=0)
            frontier = reached & ~seen
            seen |= reached
        components.append(np.flatnonzero(seen))
        unseen &= ~seen
    return components


def _root_rows(stacks: np.ndarray, tol_psd: float) -> np.ndarray:
    """The principal root's (..., s, s, m) first rows from (..., m, s, s) coupling stacks.

    Each (m, s, s) stack along the leading axes is one ensemble. Its
    constellations split into groups that no entry couples, an entry
    coupling h and k when it is not exactly zero in some bin of some
    ensemble, and the root of a matrix that splits so is the direct sum of
    its groups' roots. So the matrices of each group size go to one
    ``eigh``, and every root entry between two groups is exactly zero; a
    stack of one group goes to ``eigh`` whole. Groups of b >= 2
    constellations and ensembles of at least ``_DISTINCT_FLOOR`` bins send
    only their bitwise-distinct matrices, whose eigenvalues and roots are
    gathered back to every bin; ``eigh`` and the root treat each matrix on
    its own, so the roots are the same bits either way. Each matrix is
    taken as its Hermitian part. Raises ``ConvergenceFailure`` when the
    eigensolver fails, and ``GramSingular`` for the first ensemble, in C
    order, whose smallest eigenvalue over its bins and groups falls below
    ``tol_psd``, naming that value; ``tol_psd = -inf`` never raises it.
    Eigenvalues below zero are clamped to zero before the square root.
    Each root is symmetrised, and the first rows are averaged with their
    mirror, so the factor they describe is exactly Hermitian.
    """
    *batch, m, s, _ = stacks.shape
    stack = stacks.reshape(-1, s, s)
    # the (g, b) node index of the g groups of each size b; none for one
    # group, as when s = 1 or the first matrix has no zero entry
    index = []
    if s > 1 and np.count_nonzero(stack[0]) < s * s:
        coupled = (stack != 0).any(axis=0)
        groups = _components(coupled | coupled.T)
        if len(groups) > 1:
            sizes = sorted({len(group) for group in groups})
            index = [np.array([group for group in groups if len(group) == b]) for b in sizes]
    parts = [
        stack[:, at[:, :, None], at[:, None, :]].reshape(-1, at.shape[1], at.shape[1]) for at in index
    ]
    decompositions = []
    for part in parts or [stack]:
        inverse = slice(None)
        if part.shape[-1] > 1 and m >= _DISTINCT_FLOOR:
            part, inverse = _distinct(part)
        try:
            w, v = np.linalg.eigh((part + _adjoint(part)) / 2.0)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceFailure(f"eigensolver did not converge: {exc}") from exc
        decompositions.append((w, v, inverse))
    if min([w[:, 0].min() for w, _, _ in decompositions]) < tol_psd:
        ensembles = len(stack) // m
        lowest = np.min(
            [w[inverse, 0].reshape(ensembles, -1).min(axis=-1) for w, _, inverse in decompositions],
            axis=0,
        )
        first = lowest[np.argmax(lowest < tol_psd)]
        raise GramSingular(
            f"Gram matrix is singular (min eigenvalue {first:.3e} < {tol_psd:g}); "
            "the weighted states are not linearly independent"
        )
    roots = []
    for w, v, inverse in decompositions:
        root = (v * np.sqrt(np.clip(w, 0.0, None))[..., None, :]) @ _adjoint(v)
        roots.append(((root + _adjoint(root)) / 2.0)[inverse])
    root = roots[0]
    if index:
        root = np.zeros_like(stack)
        for at, part_root in zip(index, roots):
            root[:, at[:, :, None], at[:, None, :]] = part_root.reshape(len(stack), *at.shape, -1)
    rows = _first_rows(root.reshape(*batch, m, s, s))
    return (rows + _mirror(rows)) / 2.0
