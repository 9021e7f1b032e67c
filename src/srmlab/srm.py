"""The square-root measurement's result, its optimality and its channel.

The measurement itself is the principal square root X of the Gram matrix:
``X[k, i]`` is the cross inner product between measurement vector k and
weighted state i, so ``|X[i, j]|^2`` is the joint probability of sending i
and deciding j (the factor is Hermitian, so either index may play either
role), and the correct-decision probability is the sum of squared diagonal
entries. ``gus.fast_srm`` takes the root of every ensemble, a dense set of
n states being the one-bin case (s = n, m = 1), and returns it as an
``SrmResult``, the root's first rows.

Theorem 1, the ground truth, calls a measurement optimal when Y = X X_d†
(X_d = diag(X)) is Hermitian and every downdate Y - W_r is positive
semidefinite, W_r the weighted state projector in the measurement basis;
Theorem 2 when Y is Hermitian and positive definite. On the square-root
measurement both follow from Y Hermitian, so every verdict here reads one
residual, max |X_ij| |d_j - d_i| with d = diag(X), with no eigensolve:
``certify_srm`` from the root's first rows (the paper's condition: the
root's diagonal values g_h agree across every pair of constellations that
the root couples), and ``check_theorem3`` on the pairs inside each block
of a one-bin ensemble whose Gram matrix is block diagonal, reading the
blocks' roots off its ``SrmResult``. ``certify_srm``'s verdict carries that
residual and the entry where it lies, from which ``srmlab check`` writes
its Theorem-2 and Theorem-1 lines on the dense root. Where a tolerated
cross-block leak calls for each block's own root, ``check_theorem3`` takes
it with ``linalg._root_rows``, the kernel behind ``fast_srm``, as a one-bin
coupling stack that needs no transform.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .constellations import GusEnsemble, _weighted_rows
from .errors import NotBlockDiagonal, ReducibleBlock
from .linalg import _root_rows

TOL_COND = 1e-9


@dataclass(frozen=True)
class SrmResult:
    """Outcome of discriminating an ensemble with the square-root measurement.

    ``rows`` are the (s, s, m) first rows of the Gram square root X: block
    (h, k) of X is the circulant with first row ``rows[h, k]`` (a dense root
    has s = n, m = 1). ``per_state_correct`` and ``pc`` come from the seeds
    ``rows[h, h, 0]``, ``pc`` clamped to 1 against rounding; ``abs(rows) ** 2``
    holds the joint probabilities of sending i and deciding j, each entry
    counted m times.
    """

    rows: np.ndarray

    @cached_property
    def per_state_correct(self) -> np.ndarray:
        seeds = self.rows[:, :, 0].diagonal()
        per_state = (seeds * seeds.conj()).real.repeat(self.rows.shape[2])
        per_state.setflags(write=False)
        return per_state

    @cached_property
    def pc(self) -> float:
        return min(float(self.per_state_correct.sum()), 1.0)


@dataclass(frozen=True)
class OptimalityVerdict:
    """Verdict of one optimality certificate.

    ``method`` names the certificate. ``witness`` describes the failed
    condition when not optimal. ``certify_srm`` also gives its ``residual``,
    the largest |X_ij| |d_j - d_i|, and ``at``, the (h, k, r) entry of the
    first rows where it lies; other certificates leave both ``None``.
    """

    optimal: bool
    method: str
    witness: str | None = None
    residual: float | None = None
    at: tuple[int, int, int] | None = None


@dataclass(frozen=True)
class ChannelStats:
    """Input-output law of the classical channel induced by a measurement."""

    input_marginals: np.ndarray
    output_marginals: np.ndarray
    mutual_information: float


def _connected(adjacency: np.ndarray) -> bool:
    """Whether every node is reached from node 0, one breadth-first level per step."""
    seen = np.zeros(len(adjacency), dtype=bool)
    seen[0] = True
    frontier = seen.copy()
    while frontier.any():
        reached = adjacency[frontier].any(axis=0)
        frontier = reached & ~seen
        seen |= reached
    return bool(seen.all())


def _asymmetry(rows: np.ndarray) -> np.ndarray:
    """``|Y - Y†|`` of a square-root measurement, per entry of its (s, s, m) first rows.

    X is Hermitian with the real value g_h = ``rows[h, h, 0]`` on the
    diagonal of constellation h, so entry (h, k, r) of Y - Y† = X D - D X is
    ``rows[h, k, r] (g_k - g_h)``.
    """
    g = rows[:, :, 0].diagonal().real
    return np.abs(rows) * np.abs(g[None, :] - g[:, None])[:, :, None]


def check_theorem3(
    ensemble: GusEnsemble, blocks, result: SrmResult, *, tol_cond: float = TOL_COND
) -> OptimalityVerdict:
    """Optimality test for a one-bin ensemble whose weighted Gram matrix is block diagonal.

    ``ensemble`` is a dense set of n states (m = 1) and ``result`` its
    square-root measurement, as ``fast_srm`` takes it; ``ValueError``
    unless both hold n states of one bin. ``blocks`` partitions the state
    indices. Entries coupling different blocks must vanish within
    ``tol_cond`` (else ``NotBlockDiagonal``),
    and each block's support graph, its entries above the fixed
    ``TOL_COND``, must be connected (else ``ReducibleBlock``; refine the
    partition and retry). The measurement is optimal iff every block's
    root has a flat diagonal. An irreducible block has an irreducible root
    (were the root reducible, so would be its square), so that is Y
    Hermitian on every block: the verdict fails when the residual of a pair
    inside a block exceeds ``tol_cond``, and the witness names, among the
    blocks where it does, the one whose root diagonal spreads the most,
    with that spread.

    A block-diagonal matrix has a block-diagonal principal root, so each
    block's root is read off ``result`` and no block is factored again. A
    tolerated cross-block entry of size ε moves that root by O(ε²): to
    first order the root changes off the blocks alone. Only when
    ``tol_cond`` lets an entry above ``TOL_COND`` through is each block
    rooted on its own instead, by the same kernel as ``fast_srm``.
    """
    if ensemble.m != 1:
        raise ValueError(f"check_theorem3 takes a one-bin ensemble, got m = {ensemble.m}")
    if result.rows.shape != ensemble.rows.shape:
        raise ValueError(
            f"result rows {result.rows.shape} do not match the ensemble's {ensemble.rows.shape}"
        )
    g = _weighted_rows(ensemble)[:, :, 0]
    x = result.rows[:, :, 0]
    n = len(g)
    partition = [tuple(int(i) for i in block) for block in blocks]
    indices = sorted(i for block in partition for i in block)
    if indices != list(range(n)):
        raise ValueError("blocks must partition the state indices exactly once each")
    if not all(partition):
        raise ValueError("every block must hold at least one state index")

    inside = np.zeros((n, n), dtype=bool)
    for block in partition:
        inside[np.ix_(block, block)] = True
    leak = 0.0
    if not inside.all():
        leak = float(np.abs(g[~inside]).max())
        if leak > tol_cond:
            raise NotBlockDiagonal(
                f"cross-block entry magnitude {leak:.3e} exceeds {tol_cond:g}"
            )

    for b, block in enumerate(partition):
        support = np.abs(g[np.ix_(block, block)]) > TOL_COND
        if not _connected(support):
            raise ReducibleBlock(f"block {b} {block} is reducible; refine the partition")

    if leak > TOL_COND:
        x = np.zeros_like(g)
        for block in partition:
            index = np.ix_(block, block)
            # the full G passed tol_psd, and each block's eigenvalues interlace above it
            x[index] = _root_rows(g[index][None], -np.inf)[:, :, 0]
    diag = np.diagonal(x).real
    residual = _asymmetry(x[:, :, None])[:, :, 0]
    spreads = {
        b: float(np.ptp(diag[list(block)]))
        for b, block in enumerate(partition)
        if residual[np.ix_(block, block)].max() > tol_cond
    }
    if spreads:
        b = max(spreads, key=spreads.get)
        witness = f"block {b}: square-root diagonal entries spread by {spreads[b]:.6e}"
        return OptimalityVerdict(False, "theorem3", witness)
    return OptimalityVerdict(True, "theorem3")


def certify_srm(result: SrmResult, *, tol_cond: float = TOL_COND) -> OptimalityVerdict:
    """Theorem-1 verdict on a square-root measurement, read from its first rows in O(s² m).

    X = G^{1/2} is positive definite, so D = diag(X) > 0. If Y = X D is
    Hermitian, X commutes with D, so Y = D^{1/2} X D^{1/2} is positive definite
    and x_r† Y⁻¹ x_r = X_rr / D_rr = 1: every downdate Y - x_r x_r† is PSD.

    So only condition (i) can fail: the measurement is optimal iff the
    largest entry of ``_asymmetry`` is at most ``tol_cond``. That entry is
    the verdict's ``residual``, and ``at`` is its constellation pair (h, k)
    and shift r, which the witness names when the verdict fails. A dense
    root is the case m = 1, where h and k are states.
    """
    residual = _asymmetry(result.rows)
    flat = int(residual.argmax())
    worst = float(residual.flat[flat])
    s, _, m = residual.shape
    h, kr = divmod(flat, s * m)
    at = (h, *divmod(kr, m))
    if worst > tol_cond:
        witness = "Y is not Hermitian at constellations ({}, {}), shift {}: ".format(*at)
        return OptimalityVerdict(False, "theorem1_srm", f"{witness}residual {worst:.6e}", worst, at)
    return OptimalityVerdict(True, "theorem1_srm", None, worst, at)


def channel_stats(result: SrmResult) -> ChannelStats:
    """Marginals and mutual information of the induced classical channel.

    Read from the root's first rows, each entry of ``|rows|^2`` counting m
    times. Mutual information is in bits, with the usual convention that
    terms with zero joint probability contribute nothing.
    """
    m = result.rows.shape[2]
    joint = (result.rows * result.rows.conj()).real
    sent, decided = joint.sum(axis=(1, 2)), joint.sum(axis=(0, 2))
    h, k, r = np.nonzero(joint > 0.0)
    p = joint[h, k, r]
    info = m * float((p * np.log2(p / (sent[h] * decided[k]))).sum())
    return ChannelStats(sent.repeat(m), decided.repeat(m), max(info, 0.0))
