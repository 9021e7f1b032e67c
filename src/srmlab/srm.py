"""Square-root measurement of a weighted Gram matrix and its optimality.

The measurement itself is the principal square root X of the Gram matrix:
``X[k, i]`` is the cross inner product between measurement vector k and
weighted state i, so ``|X[i, j]|^2`` is the joint probability of sending i
and deciding j (the factor is Hermitian, so either index may play either
role), and the correct-decision probability is the sum of squared diagonal
entries. ``srm`` treats a dense Gram matrix as the one-bin case (s = n,
m = 1) of the block-circulant path: it and ``gus.fast_srm`` hand the
eigenpairs of an (m, s, s) coupling stack to one private tail, which tests
for singularity, takes the clamped root and returns its first rows. Three
certificates decide whether this measurement is globally optimal for the
given ensemble:

* ``check_theorem2``: necessary and sufficient conditions on any candidate
  factor X, a diagonal-balance identity per state pair plus positive
  definiteness of Y = X X_d†.
* ``check_theorem3``: for block-diagonal Gram matrices, optimality is
  equivalent to each block's square root having a flat diagonal.
* ``verify_theorem1``: the ground-truth certificate. In the measurement
  basis it builds Y and the weighted state projectors W_r and demands
  Y - W_r be positive semidefinite for every r, all r from one
  eigendecomposition of Y. The other two checks specialize it.
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
    hermiticity_defect,
    principal_sqrt,
)

TOL_COND = 1e-9
TRACE_TOL = 1e-10


@dataclass(frozen=True)
class SrmResult:
    """Outcome of discriminating an ensemble with the square-root measurement.

    ``rows`` are the (s, s, m) first rows of the Gram square root X: block
    (h, k) of X is the circulant with first row ``rows[h, k]`` (a dense root
    has s = n, m = 1). ``per_state_correct`` and ``pc`` come from the seeds
    ``rows[h, h, 0]``; ``factor`` and ``joint[i, j] = |X[i, j]|^2`` are built when read.
    """

    rows: np.ndarray

    @cached_property
    def factor(self) -> np.ndarray:
        return _circulant_blocks(self.rows)

    @cached_property
    def joint(self) -> np.ndarray:
        return (self.factor * self.factor.conj()).real

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


def _srm_from_eig(w: np.ndarray, v: np.ndarray, tol_psd: float) -> tuple[SrmResult, np.ndarray]:
    """The measurement from the eigenpairs of an (m, s, s) coupling stack, and the stack's root.

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
    root = _sqrt_from_eig(w, v)
    rows = _first_rows(root)
    return SrmResult((rows + _mirror(rows)) / 2.0), root


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
    return _srm_from_eig(w, v, tol_psd)[0]


def _min_eig(hermitian: np.ndarray) -> float:
    sym = (hermitian + hermitian.conj().T) / 2.0
    return float(np.linalg.eigvalsh(sym)[0])


def check_theorem2(factor, *, tol_cond: float = TOL_COND, tol_psd: float = TOL_PSD) -> OptimalityVerdict:
    """Decide optimality of a candidate factor X of the Gram matrix.

    Condition (i) demands ``X[i,i] conj(X[j,i]) == X[i,j] conj(X[j,j])``
    for every pair, which is exactly Hermiticity of Y = X X_d† with
    X_d = diag(X); condition (ii) demands Y positive definite. A minimum
    eigenvalue of Y inside ``[-tol_psd, tol_psd]`` is reported as optimal
    with a boundary note, since the strict/non-strict distinction is not
    resolvable numerically.
    """
    x = as_matrix(factor)
    diag = np.diagonal(x)
    weakest = float(np.abs(diag).min())
    if weakest <= tol_cond:
        raise SingularFactor(
            f"factor has a vanishing diagonal entry (min |X[i,i]| = {weakest:.3e}); "
            "optimal factors have nonzero diagonals"
        )
    smallest_sv = float(np.linalg.svd(x, compute_uv=False)[-1])
    if smallest_sv <= tol_psd:
        raise SingularFactor(f"factor is singular (min singular value {smallest_sv:.3e})")

    y = x * diag.conj()[None, :]
    balance = np.abs(y - y.conj().T)
    worst = float(balance.max())
    if worst > tol_cond:
        i, j = np.unravel_index(int(balance.argmax()), balance.shape)
        return OptimalityVerdict(
            optimal=False,
            method="theorem2",
            witness=f"condition (i) fails at state pair ({i}, {j}): residual {worst:.6e}",
        )

    lowest = _min_eig(y)
    if lowest < -tol_psd:
        return OptimalityVerdict(
            optimal=False,
            method="theorem2",
            witness=f"condition (ii) fails: min eigenvalue of Y is {lowest:.6e}",
        )
    if lowest <= tol_psd:
        return OptimalityVerdict(
            optimal=True,
            method="theorem2",
            witness=f"boundary: min eigenvalue of Y is {lowest:.6e}, inside the zero band",
        )
    return OptimalityVerdict(optimal=True, method="theorem2")


def _connected(adjacency: np.ndarray) -> bool:
    n = len(adjacency)
    seen = np.zeros(n, dtype=bool)
    stack = [0]
    seen[0] = True
    while stack:
        node = stack.pop()
        for other in np.flatnonzero(adjacency[node]):
            if not seen[other]:
                seen[other] = True
                stack.append(int(other))
    return bool(seen.all())


def check_theorem3(
    gram,
    blocks,
    *,
    tol_cond: float = TOL_COND,
    tol_psd: float = TOL_PSD,
) -> OptimalityVerdict:
    """Optimality test for a Gram matrix that is block diagonal.

    ``blocks`` partitions the state indices. Entries coupling different
    blocks must vanish within ``tol_cond`` (else ``NotBlockDiagonal``),
    and each block's support graph must be connected (else
    ``ReducibleBlock``; refine the partition and retry). The measurement
    is optimal iff the square root of every block has equal diagonal
    entries within ``tol_cond``.
    """
    g = as_matrix(gram)
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
    if not inside.all():
        leak = float(np.abs(g[~inside]).max())
        if leak > tol_cond:
            raise NotBlockDiagonal(
                f"cross-block entry magnitude {leak:.3e} exceeds {tol_cond:g}"
            )

    submatrices = []
    for b, block in enumerate(partition):
        sub = g[np.ix_(block, block)]
        support = np.abs(sub) > tol_cond
        if not _connected(support):
            raise ReducibleBlock(f"block {b} {block} is reducible; refine the partition")
        submatrices.append(sub)

    worst_spread = -1.0
    worst_block = -1
    for b, sub in enumerate(submatrices):
        root = principal_sqrt(sub, tol_psd=tol_psd)
        diag = np.diagonal(root).real
        spread = float(diag.max() - diag.min())
        if spread > worst_spread:
            worst_spread = spread
            worst_block = b
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


def verify_theorem1(
    gram,
    factor,
    *,
    tol_cond: float = TOL_COND,
    tol_psd: float = TOL_PSD,
) -> OptimalityVerdict:
    """Ground-truth optimality certificate for any factorization of the Gram.

    Requires ``X† X`` to reproduce the Gram matrix within ``TOL_RECON``
    (else ``InvalidFactorization``). Forms ``Y[j, k] = X[j, k] conj(X[k, k])``
    and demands Y Hermitian and ``Y - x_r x_r†`` PSD for every column x_r.
    One ``eigh`` of the symmetrised Y = U Λ U† decides every r in O(n³): the
    downdate dips below ``-tol_psd`` iff ``λ_1 + tol_psd <= 0`` or
    ``Σ_i |(U† X)[i, r]|² / (λ_i + tol_psd) > 1``. Such r are confirmed by an
    exact eigensolve in increasing order; the first is the witness. Otherwise
    each downdate's r-th column vanishes, and the optimal verdict's boundary
    note reports that structural zero.
    """
    g = as_matrix(gram)
    x = as_matrix(factor)
    if x.shape != g.shape:
        raise InvalidFactorization(f"factor shape {x.shape} does not match Gram {g.shape}")
    residual = float(np.abs(x.conj().T @ x - g).max())
    if residual > TOL_RECON:
        raise InvalidFactorization(
            f"X†X differs from the Gram matrix by {residual:.3e} (tolerance {TOL_RECON:g})"
        )

    y = x * np.diagonal(x).conj()[None, :]
    defect = hermiticity_defect(y)
    y = (y + y.conj().T) / 2.0

    w, u = _eigh(y)
    candidates = range(len(x))
    if w[0] + tol_psd > 0.0:
        # the 1e-12 slack keeps a downdate within rounding of the threshold a candidate
        weights = (np.abs(u.conj().T @ x) ** 2 / (w + tol_psd)[:, None]).sum(axis=0)
        candidates = np.flatnonzero(weights > 1.0 - 1e-12)
    for r in candidates:
        low = _min_eig(y - np.outer(x[:, r], x[:, r].conj()))
        if low < -tol_psd:
            return OptimalityVerdict(
                optimal=False,
                method="theorem1_oracle",
                witness=f"Y - W_{r} has min eigenvalue {low:.6e}",
            )
    if defect > tol_cond:
        return OptimalityVerdict(
            optimal=False,
            method="theorem1_oracle",
            witness=f"Y is not Hermitian: max asymmetry {defect:.6e}",
        )
    return OptimalityVerdict(
        optimal=True,
        method="theorem1_oracle",
        witness="boundary: min eigenvalue over Y - W_r is 0.000000e+00, inside the zero band",
    )


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
