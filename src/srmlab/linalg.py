"""Complex linear algebra on the coupling stacks of Gram-matrix pipelines.

The one square-root kernel and the circulant transforms around it: first
rows to coupling stacks and back (``np.fft`` along the last axis) and
their mirror. No function here assembles a dense block-circulant matrix.
``_root_rows`` is the only place that takes a square root. It takes the
(..., m, s, s) coupling stacks of one or several ensembles of one shape,
however the caller got them: ``_coupling_stacks`` turns weighted first
rows into them in one FFT, and a dense n x n matrix is its own one-bin
stack (s = n, m = 1), with no transform. Each matrix is read from its
lower triangle. Stacks of s <= 2, which every builder ensemble and every
Gram file of one or two states give, are rooted in closed form with no
LAPACK call, so their bits depend on no BLAS kernel. Stacks of s >= 3 go
to one ``eigh`` per size of their groups of coupled constellations (one
group, unless ``_components`` finds more by breadth-first search), so
groups of sizes b_i cost sum b_i^3, not s^3, per bin. The root of every
matrix goes back through one inverse FFT to the root's first rows, whose
average with their mirror is the one Hermitian projection, and with them
comes the least eigenvalue of every bin, untested. The transforms are
private and take rows that ``GusEnsemble`` has already checked. Matrices
are square complex128 arrays, indexed (row, column) from 0. All
functions are pure and never mutate their inputs.
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceFailure


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


def _coupling_stacks(weighted_rows: np.ndarray) -> np.ndarray:
    """(..., m, s, s) coupling stacks of (..., s, s, m) weighted first rows, in one transform.

    Bin ``k`` of block (h, k) carries ``sum_r c[r] exp(+2i*pi*k*r/m)``, the
    eigenvalue of the circulant block with first row ``c``, i.e.
    ``m * ifft(c)``, so ``F @ diag(lam) @ F†`` rebuilds the block for the
    unitary Fourier matrix ``F[k, h] = exp(+2i*pi*k*h/m)/sqrt(m)``. Takes
    complex rows already checked; ``_first_rows`` is the inverse.
    """
    # (..., h, k, m) -> (..., m, k, h) -> (..., m, h, k)
    return np.fft.ifft(weighted_rows, norm="forward").swapaxes(-1, -3).swapaxes(-1, -2)


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


def _root_rows(stacks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The root's (..., s, s, m) first rows and each bin's least eigenvalue, from coupling stacks.

    Each (m, s, s) stack along the leading axes is one ensemble, and each
    matrix is the Hermitian matrix that its lower triangle describes.
    Stacks of s <= 2 are rooted in closed form, each bin on its own with
    basic floating-point operations, so its bits are the same in any
    stack: s = 1 as sqrt(max(a, 0)), and s = 2, from the triangle (a, b, d),
    as (A + sqrt(det) I) / sqrt(a + d + 2 sqrt(det)), det = a d - |b|^2,
    whose least eigenvalue is det / lam_max, lam_max = (a + d)/2 +
    sqrt(((a - d)/2)^2 + |b|^2). A bin that is not positive semidefinite
    takes the ``eigh`` route's clamp, sqrt(lam_max) (A - lam_min I) /
    (lam_max - lam_min), or 0 when lam_max <= 0; where its half trace is
    not positive, lam_min is the half trace minus that square root, free of
    cancellation. Stacks of s >= 3 go to ``eigh``, which clamps eigenvalues
    below zero to zero. Their constellations split into groups that no
    entry couples (an entry couples h and k when it is not exactly zero in
    some bin of some ensemble), and the root of a matrix that splits so is
    the direct sum of its groups' roots: the matrices of each group size
    go to one ``eigh``, every root entry between two groups is exactly
    zero, and a stack whose first matrix has no zero entry is one group.
    Raises ``ConvergenceFailure`` when the eigensolver fails. The (..., m)
    least eigenvalues, each the minimum over the bin's groups, are returned
    as computed. The first rows are averaged with their mirror, the one
    Hermitian projection, so the factor they describe is exactly Hermitian.
    """
    *batch, m, s, _ = stacks.shape
    stack = stacks.reshape(-1, s, s)
    if s == 1:
        lowest = stack[:, 0, 0].real.copy()
        root = np.sqrt(np.maximum(lowest, 0.0)).astype(complex).reshape(-1, 1, 1)
    elif s == 2:
        a, d, b = stack[:, 0, 0].real, stack[:, 1, 1].real, stack[:, 1, 0]
        gap, square = (a - d) / 2.0, b.real * b.real + b.imag * b.imag
        half, radius = (a + d) / 2.0, np.sqrt(gap * gap + square)
        det, high = a * d - square, half + radius
        if det.min() >= 0.0 and half.min() > 0.0:
            lowest, shift = det / high, np.sqrt(det)
            scale = np.sqrt(a + d + 2.0 * shift)
        else:
            # the root (A + shift I) / scale is the clamp where det < 0, and an
            # infinite scale gives the zero root of a bin with lam_max <= 0
            with np.errstate(divide="ignore", invalid="ignore"):
                lowest = np.where(half > 0.0, det / high, half - radius)
                high = np.where(half < 0.0, det / lowest, high)
                shift = np.where(det < 0.0, -lowest, np.sqrt(det))
                clamp = (high - lowest) / np.sqrt(high)
                scale = np.where(det < 0.0, clamp, np.sqrt(a + d + 2.0 * shift))
            scale[high <= 0.0] = np.inf
        root = np.empty_like(stack)
        root[:, 0, 0], root[:, 1, 1] = (a + shift) / scale, (d + shift) / scale
        root[:, 1, 0] = b / scale
        root[:, 0, 1] = root[:, 1, 0].conj()
    else:
        # one group of all s nodes unless the first matrix has a zero entry;
        # ``at`` is the (g, b) node index of the g groups of each size b
        groups = [np.arange(s)]
        if np.count_nonzero(stack[0]) < s * s:
            coupled = (stack != 0).any(axis=0)
            groups = _components(coupled | coupled.T)
        root, lowest = np.zeros_like(stack), np.full(len(stack), np.inf)
        for b in sorted({len(group) for group in groups}):
            at = np.array([group for group in groups if len(group) == b])
            part = stack[:, at[:, :, None], at[:, None, :]].reshape(-1, b, b)
            try:
                w, v = np.linalg.eigh(part)
            except np.linalg.LinAlgError as exc:
                raise ConvergenceFailure(f"eigensolver did not converge: {exc}") from exc
            lowest = np.minimum(lowest, w[:, 0].reshape(len(stack), -1).min(axis=-1))
            part_root = (v * np.sqrt(np.clip(w, 0.0, None))[..., None, :]) @ v.conj().swapaxes(-1, -2)
            root[:, at[:, :, None], at[:, None, :]] = part_root.reshape(len(stack), *at.shape, b)
    rows = _first_rows(root.reshape(*batch, m, s, s))
    return (rows + _mirror(rows)) / 2.0, lowest.reshape(*batch, m)
