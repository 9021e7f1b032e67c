"""Square-root measurement of a weighted Gram matrix and its optimality.

The measurement itself is the principal square root X of the Gram matrix:
``X[k, i]`` is the cross inner product between measurement vector k and
weighted state i, so ``|X[i, j]|^2`` is the joint probability of sending i
and deciding j (the factor is Hermitian, so either index may play either
role), and the correct-decision probability is the sum of squared diagonal
entries. ``srm`` treats a dense Gram matrix, such as
``weighted_gram`` of a one-bin ``GusEnsemble``, as the one-bin case (s = n,
m = 1) of the block-circulant path: it and ``gus.fast_srm`` hand the
eigenpairs of an (m, s, s) coupling stack to one private tail, which tests
for singularity, takes the clamped root and returns its first rows.
Certificates decide whether a measurement is globally optimal for the
given ensemble:

* Theorem 1, the ground truth: in the measurement basis Y - W_r must be
  positive semidefinite for every weighted state projector W_r, with
  Y = X X_d† and X_d = diag(X).
* Theorem 2, its specialisation to the factor: a diagonal-balance identity
  per state pair (Y Hermitian) plus positive definiteness of Y. ``certify``
  returns the verdicts of both on any factor with no eigendecomposition of
  Y: Cholesky factorizations of Y ± tol_psd·I test its positivity, and the
  Theorem-1 screen reads x_r† (Y + tol_psd·I)⁻¹ x_r as the column norms of
  L⁻¹X; ``srmlab check`` runs it on the root ``srm`` holds.
* ``certify_srm``: on the square-root measurement itself Theorem 1 reduces
  to Y Hermitian, which reads the root's first rows with no eigensolve.
  This is the paper's condition: the root's diagonal values g_h must agree
  across every pair of constellations that the root couples.
* ``check_theorem3``: for block-diagonal Gram matrices, optimality is
  equivalent to each block's square root having a flat diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    GramSingular,
    InvalidFactorization,
    NotBlockDiagonal,
    ReducibleBlock,
    SingularFactor,
)
from .linalg import (
    TOL_PSD,
    TOL_RECON,
    _circulant_blocks,
    _eigh,
    _first_rows,
    _mirror,
    _sqrt_from_eig,
    as_matrix,
)

TOL_COND = 1e-9
TRACE_TOL = 1e-10


@dataclass(frozen=True)
class SrmResult:
    """Outcome of discriminating an ensemble with the square-root measurement.

    ``rows`` are the (s, s, m) first rows of the Gram square root X: block
    (h, k) of X is the circulant with first row ``rows[h, k]`` (a dense root
    has s = n, m = 1). ``per_state_correct`` and ``pc`` come from the seeds
    ``rows[h, h, 0]``; the dense ``factor`` is built when read, and
    ``abs(factor) ** 2`` is the joint probability of sending i and deciding j.
    """

    rows: np.ndarray

    @cached_property
    def factor(self) -> np.ndarray:
        return _circulant_blocks(self.rows)

    @cached_property
    def per_state_correct(self) -> np.ndarray:
        seeds = self.rows[:, :, 0].diagonal()
        per_state = (seeds * seeds.conj()).real.repeat(self.rows.shape[2])
        per_state.setflags(write=False)
        return per_state

    @cached_property
    def pc(self) -> float:
        return float(self.per_state_correct.sum())


@dataclass(frozen=True)
class OptimalityVerdict:
    """Verdict of one optimality certificate.

    ``method`` names the certificate. ``witness`` describes the failed
    condition when not optimal, or flags a boundary case (an eigenvalue
    inside the numerical zero band) when optimal.
    """

    optimal: bool
    method: str
    witness: str | None = None


@dataclass(frozen=True)
class ChannelStats:
    """Input-output law of the classical channel induced by a measurement."""

    input_marginals: np.ndarray
    output_marginals: np.ndarray
    mutual_information: float


def _srm_from_eig(w: np.ndarray, v: np.ndarray, tol_psd: float) -> SrmResult:
    """The measurement from the eigenpairs of an (m, s, s) coupling stack.

    Raises ``GramSingular`` when the smallest eigenvalue over all bins falls
    below ``tol_psd``. The root's first rows are averaged with their mirror,
    so the factor they describe is exactly Hermitian.
    """
    lowest = float(w[:, 0].min())
    if lowest < tol_psd:
        raise GramSingular(
            f"Gram matrix is singular (min eigenvalue {lowest:.3e} < {tol_psd:g}); "
            "the weighted states are not linearly independent"
        )
    rows = _first_rows(_sqrt_from_eig(w, v))
    return SrmResult((rows + _mirror(rows)) / 2.0)


def srm(gram, *, tol_psd: float = TOL_PSD) -> SrmResult:
    """Square-root measurement of a unit-trace, positive definite Gram matrix.

    The Gram matrix is the one-bin case of the block-circulant path (s = n,
    m = 1), so it takes the same root kernel as ``fast_srm``. Raises
    ``GramSingular`` when the smallest eigenvalue falls below ``tol_psd``,
    which is how linearly dependent state sets surface here.
    """
    g = as_matrix(gram)
    w, v = _eigh(g[None])
    trace = float(np.trace(g).real)
    if abs(trace - 1.0) > TRACE_TOL:
        raise ValueError(f"weighted Gram matrix must have unit trace, got {trace!r}")
    return _srm_from_eig(w, v, tol_psd)


def _min_eig(hermitian: np.ndarray) -> float:
    sym = (hermitian + hermitian.conj().T) / 2.0
    return float(np.linalg.eigvalsh(sym)[0])


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


def check_theorem3(gram, blocks, factor, *, tol_cond: float = TOL_COND) -> OptimalityVerdict:
    """Optimality test for a Gram matrix that is block diagonal.

    ``blocks`` partitions the state indices. Entries coupling different
    blocks must vanish within ``tol_cond`` (else ``NotBlockDiagonal``),
    and each block's support graph, its entries above the fixed
    ``TOL_COND``, must be connected (else ``ReducibleBlock``; refine the
    partition and retry). The measurement is optimal iff the square root
    of every block has equal diagonal entries within ``tol_cond``.

    ``factor`` is the principal square root of ``gram``, as ``srm`` takes
    it. A block-diagonal matrix has a block-diagonal principal root, so
    each block's root diagonal is read off ``factor``'s diagonal and no
    block is factored again. A tolerated cross-block entry of size ε moves
    that diagonal by O(ε²): to first order the root changes off the blocks
    alone. Only when ``tol_cond`` lets an entry above ``TOL_COND`` through
    is each block rooted on its own instead.
    """
    g = as_matrix(gram)
    x = _factor_of(g, factor)
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

    diag = np.diagonal(x).real
    if leak > TOL_COND:
        diagonals = [_sqrt_from_eig(*_eigh(g[np.ix_(b, b)])).diagonal().real for b in partition]
    else:
        diagonals = [diag[list(block)] for block in partition]
    spreads = [float(np.ptp(values)) for values in diagonals]
    worst_block = int(np.argmax(spreads))
    worst_spread = spreads[worst_block]
    if worst_spread > tol_cond:
        return OptimalityVerdict(
            optimal=False,
            method="theorem3",
            witness=(
                f"block {worst_block}: square-root diagonal entries spread by "
                f"{worst_spread:.6e}"
            ),
        )
    return OptimalityVerdict(optimal=True, method="theorem3")


def _factor_of(gram: np.ndarray, factor) -> np.ndarray:
    x = as_matrix(factor)
    if x.shape != gram.shape:
        raise InvalidFactorization(f"factor shape {x.shape} does not match Gram {gram.shape}")
    return x


def certify(
    gram,
    factor,
    *,
    tol_cond: float = TOL_COND,
    tol_psd: float = TOL_PSD,
) -> tuple[OptimalityVerdict, OptimalityVerdict]:
    """Theorem-2 and Theorem-1 verdicts on any factorization X of the Gram, by Cholesky tests of Y.

    Requires ``X† X`` to reproduce the Gram matrix within ``TOL_RECON``
    (else ``InvalidFactorization``) and every ``|X[i, i]|`` to exceed
    ``TOL_COND`` (else ``SingularFactor``); ``tol_cond`` sets only the
    Hermiticity residual. Both verdicts read ``Y[j, k] = X[j, k]
    conj(X[k, k])``, symmetrised. A Cholesky factorization succeeds exactly
    when its matrix is positive definite up to backward error, so no
    eigenvectors of Y are needed.

    Theorem 2, returned first: condition (i), Y Hermitian, fails at the
    state pair of the largest ``|Y - Y†|`` beyond ``tol_cond``. Only then is
    condition (ii), Y positive definite, tested: a Cholesky of
    ``Y - tol_psd I`` that succeeds means optimal. If it fails, one
    ``eigvalsh`` reads λ_1: below ``-tol_psd`` condition (ii) fails, and a
    λ_1 inside ``[-tol_psd, tol_psd]`` is optimal with a boundary note,
    since the strict/non-strict distinction is not resolvable numerically.
    A singular factor is not refused: its Y is singular too, so Theorem 2
    reports a failed condition or the boundary note with λ_1 in the zero band.

    Theorem 1, the ground truth: Y Hermitian and ``Y - x_r x_r†`` PSD for
    every column x_r. That downdate dips below ``-tol_psd`` iff
    ``Y + tol_psd I`` is not positive definite or
    ``x_r† (Y + tol_psd I)⁻¹ x_r > 1``. With ``Y + tol_psd I = L L†`` the
    second is the squared norm of column r of ``L⁻¹ X``, which screens every
    r in O(n³); if the Cholesky fails, every r is a candidate. Candidates
    are confirmed by an exact eigensolve in increasing order; the first is
    the witness. Otherwise each downdate's r-th column vanishes, and the
    optimal verdict's boundary note reports that structural zero.
    """
    g = as_matrix(gram)
    x = _factor_of(g, factor)
    residual = float(np.abs(x.conj().T @ x - g).max())
    if residual > TOL_RECON:
        raise InvalidFactorization(
            f"X†X differs from the Gram matrix by {residual:.3e} (tolerance {TOL_RECON:g})"
        )
    diag = np.diagonal(x)
    weakest = float(np.abs(diag).min())
    if weakest <= TOL_COND:
        raise SingularFactor(
            f"factor has a vanishing diagonal entry (min |X[i,i]| = {weakest:.3e}); "
            "optimal factors have nonzero diagonals"
        )

    y = x * diag.conj()[None, :]
    balance = np.abs(y - y.conj().T)
    asymmetry = float(balance.max())
    y = (y + y.conj().T) / 2.0

    if asymmetry > tol_cond:
        i, j = np.unravel_index(int(balance.argmax()), balance.shape)
        optimal2, witness2 = False, (
            f"condition (i) fails at state pair ({i}, {j}): residual {asymmetry:.6e}"
        )
        optimal1, witness1 = False, f"Y is not Hermitian: max asymmetry {asymmetry:.6e}"
    else:
        optimal2, witness2 = _positivity(y, tol_psd)
        optimal1, witness1 = True, (
            "boundary: min eigenvalue over Y - W_r is 0.000000e+00, inside the zero band"
        )
    try:
        lower = np.linalg.cholesky(y + tol_psd * np.eye(len(y)))
    except np.linalg.LinAlgError:
        candidates = range(len(x))
    else:
        # the 1e-12 slack keeps a downdate within rounding of the threshold a candidate
        weights = (np.abs(np.linalg.solve(lower, x)) ** 2).sum(axis=0)
        candidates = np.flatnonzero(weights > 1.0 - 1e-12)
    for r in candidates:
        low = _min_eig(y - np.outer(x[:, r], x[:, r].conj()))
        if low < -tol_psd:
            optimal1, witness1 = False, f"Y - W_{r} has min eigenvalue {low:.6e}"
            break
    return (
        OptimalityVerdict(optimal2, "theorem2", witness2),
        OptimalityVerdict(optimal1, "theorem1_oracle", witness1),
    )


def _positivity(y: np.ndarray, tol_psd: float) -> tuple[bool, str | None]:
    """Condition (ii) on a Hermitian Y: a Cholesky of ``Y - tol_psd I``, then λ_1 only if it fails."""
    try:
        np.linalg.cholesky(y - tol_psd * np.eye(len(y)))
        return True, None
    except np.linalg.LinAlgError:
        pass
    lowest = _min_eig(y)
    if lowest < -tol_psd:
        return False, f"condition (ii) fails: min eigenvalue of Y is {lowest:.6e}"
    if lowest <= tol_psd:
        return True, f"boundary: min eigenvalue of Y is {lowest:.6e}, inside the zero band"
    return True, None


def certify_srm(result: SrmResult) -> OptimalityVerdict:
    """Theorem-1 verdict on a square-root measurement, read from its first rows in O(s² m).

    X = G^{1/2} is positive definite, so D = diag(X) > 0. If Y = X D is
    Hermitian, X commutes with D, so Y = D^{1/2} X D^{1/2} is positive definite
    and x_r† Y⁻¹ x_r = X_rr / D_rr = 1: every downdate Y - x_r x_r† is PSD.

    So only condition (i) can fail. X is Hermitian and D holds g_h =
    ``rows[h, h, 0]`` on constellation h, so at (h, k, r) the entry of
    Y - Y† is ``rows[h, k, r] (g_k - g_h)``; the measurement is optimal iff
    its largest magnitude is at most ``TOL_COND``. The witness names the
    worst constellation pair (h, k), the shift r and that residual. A dense
    root is the case m = 1, where h and k are states.
    """
    g = result.rows[:, :, 0].diagonal().real
    residual = np.abs(result.rows) * np.abs(g[None, :] - g[:, None])[:, :, None]
    worst = float(residual.max())
    if worst > TOL_COND:
        h, k, r = np.unravel_index(int(residual.argmax()), residual.shape)
        return OptimalityVerdict(
            optimal=False,
            method="theorem1_srm",
            witness=(
                f"Y is not Hermitian at constellations ({h}, {k}), shift {r}: "
                f"residual {worst:.6e}"
            ),
        )
    return OptimalityVerdict(optimal=True, method="theorem1_srm")


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
