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
Theorem 2 when Y is Hermitian and positive definite; Theorem 3, for a
block-diagonal Gram matrix, when the root of each irreducible block has a
flat diagonal. On the square-root measurement all three follow from Y
Hermitian, so every verdict here is ``certify_srm``'s: one residual,
max |X_ij| |d_j - d_i| with d = diag(X), read from the root's first rows
with no eigensolve (the paper's condition: the root's diagonal values g_h
agree across every pair of constellations that the root couples). Its
verdict is that residual, the entry where it lies and whether it passes,
with no text: ``srmlab check`` writes its Theorem-3, Theorem-2 and
Theorem-1 lines from it, and ``fig2``/``fig3`` the error of a failed
certificate. ``check_theorem3`` checks the declared blocks of a one-bin
ensemble and reads that residual on the block-diagonal root: the
``SrmResult`` it is given when the blocks are exactly orthogonal, or else
the root of the Gram matrix with its cross-block entries set to zero,
from one call of ``linalg._root_rows``, the kernel behind ``fast_srm``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .constellations import GusEnsemble, _weighted_rows
from .errors import InputError, NotBlockDiagonal
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
    """Verdict of the optimality certificate.

    ``residual`` is the largest |X_ij| |d_j - d_i| of the root that the
    verdict reads, and ``at`` the (h, k, r) entry of its first rows where it
    lies.
    """

    optimal: bool
    residual: float
    at: tuple[int, int, int]


@dataclass(frozen=True)
class ChannelStats:
    """Input-output law of the classical channel induced by a measurement."""

    input_marginals: np.ndarray
    output_marginals: np.ndarray
    mutual_information: float


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
    """Theorem-3 verdict for a one-bin ensemble whose weighted Gram matrix is block diagonal.

    ``ensemble`` is a dense set of n states (m = 1) and ``result`` its
    square-root measurement, as ``fast_srm`` takes it; ``InputError``
    unless both hold n states of one bin. ``blocks`` partitions the state
    indices. Entries coupling different blocks must vanish within
    ``tol_cond`` (else ``NotBlockDiagonal``). The measurement is optimal
    iff Y is Hermitian on the block-diagonal root, which on an irreducible
    block says that the block's root has a flat diagonal, and on a block
    that splits says so of each part: so the verdict is ``certify_srm``'s
    on that root.

    When no entry couples two blocks, that root is ``result``, whose kernel
    has already rooted the blocks apart, and nothing is factored. Under a
    tolerated leak it is the root of G with its cross-block entries set to
    zero, taken in one call of the kernel behind ``fast_srm``, which splits
    the blocks by itself. Each block's eigenvalues interlace above the
    smallest of G, which ``result`` already passed, so the kernel's least
    eigenvalues are not read.
    """
    if ensemble.m != 1:
        raise InputError(f"check_theorem3 takes a one-bin ensemble, got m = {ensemble.m}")
    if result.rows.shape != ensemble.rows.shape:
        raise InputError(
            f"result rows {result.rows.shape} do not match the ensemble's {ensemble.rows.shape}"
        )
    g = _weighted_rows(ensemble)[:, :, 0]
    n = len(g)
    partition = [tuple(int(i) for i in block) for block in blocks]
    indices = sorted(i for block in partition for i in block)
    if indices != list(range(n)):
        raise InputError("blocks must partition the state indices exactly once each")
    if not all(partition):
        raise InputError("every block must hold at least one state index")

    inside = np.zeros((n, n), dtype=bool)
    for block in partition:
        inside[np.ix_(block, block)] = True
    leak = float(np.abs(g[~inside]).max(initial=0.0))
    if leak > tol_cond:
        raise NotBlockDiagonal(f"cross-block entry magnitude {leak:.3e} exceeds {tol_cond:g}")
    if leak > 0.0:
        result = SrmResult(_root_rows(np.where(inside, g, 0.0)[None])[0])
    return certify_srm(result, tol_cond=tol_cond)


def certify_srm(result: SrmResult, *, tol_cond: float = TOL_COND) -> OptimalityVerdict:
    """Theorem-1 verdict on a square-root measurement, read from its first rows in O(s² m).

    X = G^{1/2} is positive definite, so D = diag(X) > 0. If Y = X D is
    Hermitian, X commutes with D, so Y = D^{1/2} X D^{1/2} is positive definite
    and x_r† Y⁻¹ x_r = X_rr / D_rr = 1: every downdate Y - x_r x_r† is PSD.

    So only condition (i) can fail: the measurement is optimal iff the
    largest entry of ``_asymmetry`` is at most ``tol_cond``. That entry is
    the verdict's ``residual``, and ``at`` is its constellation pair (h, k)
    and shift r. A dense root is the case m = 1, where h and k are states.
    """
    residual = _asymmetry(result.rows)
    flat = int(residual.argmax())
    worst = float(residual.flat[flat])
    s, _, m = residual.shape
    h, kr = divmod(flat, s * m)
    return OptimalityVerdict(worst <= tol_cond, worst, (h, *divmod(kr, m)))


def channel_stats(result: SrmResult) -> ChannelStats:
    """Marginals and mutual information of the induced classical channel.

    Read from the root's first rows, each entry of ``|rows|^2`` counting m
    times. Mutual information is in bits, with the usual convention that
    terms with zero joint probability contribute nothing.

    All sums read one C-ordered copy of ``|rows|^2``, along the bins, so the
    result does not depend on the layout of ``rows`` (``fast_srm`` returns
    them bin-major). Where the joint law is zero the ratio inside the
    logarithm is set to 1, so that term is an exact zero.
    """
    m = result.rows.shape[2]
    joint = np.ascontiguousarray((result.rows * result.rows.conj()).real)
    sent, decided = joint.sum(axis=(1, 2)), joint.sum(axis=(0, 2))
    independent = sent[:, None] * decided
    # a row or column of the joint law that is all zero leaves no 0/0
    independent[independent == 0.0] = 1.0
    ratio = joint / independent[:, :, None]
    ratio[joint == 0.0] = 1.0
    info = m * float((joint * np.log2(ratio)).sum())
    return ChannelStats(sent.repeat(m), decided.repeat(m), max(info, 0.0))
