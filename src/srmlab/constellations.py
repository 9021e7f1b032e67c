"""Weighted pure-state constellations described by priors and inner products.

States are never stored as amplitude vectors. A constellation records the
prior probability of each state and the full matrix of pairwise inner
products; the weighted Gram matrix assembled from those two ingredients is
the complete input to everything downstream. Builders cover coherent-state
binary phase keying in two constellations, pulse position modulation and
its two-phase variant, plus a general constructor for any family of
constellations sharing one cyclic symmetry.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import InvalidPrior
from .linalg import _circulant_blocks

PRIOR_TOL = 1e-12
RULE_TOL = 1e-10


@dataclass(frozen=True)
class Constellation:
    """A family of weighted pure states.

    ``priors`` are the positive state probabilities (summing to one) and
    ``overlaps[i, j]`` is the inner product of unit-norm states i and j,
    so the matrix is Hermitian with unit diagonal. ``labels`` are display
    names used in reports.
    """

    priors: np.ndarray
    overlaps: np.ndarray
    labels: tuple[str, ...] = field(default=())

    def __post_init__(self):
        priors = np.array(self.priors, dtype=float).reshape(-1)
        n = len(priors)
        if n == 0:
            raise InvalidPrior("a constellation needs at least one state")
        if np.any(priors <= 0):
            raise InvalidPrior("priors must be strictly positive")
        if abs(priors.sum() - 1.0) > PRIOR_TOL:
            raise InvalidPrior(f"priors must sum to 1, got {priors.sum()!r}")

        overlaps = np.array(self.overlaps, dtype=complex)
        if overlaps.shape != (n, n):
            raise ValueError(f"overlaps must be {n}x{n}, got {overlaps.shape}")
        if not np.all(np.isfinite(overlaps)):
            raise ValueError("overlaps must be finite")
        diag_err = np.abs(np.diagonal(overlaps) - 1.0).max()
        if diag_err > PRIOR_TOL:
            raise ValueError(f"states must be unit norm: diagonal deviates by {diag_err:.3e}")
        herm_err = np.abs(overlaps - overlaps.conj().T).max()
        if herm_err > RULE_TOL:
            raise ValueError(f"overlaps must be Hermitian: asymmetry {herm_err:.3e}")
        overlaps = (overlaps + overlaps.conj().T) / 2.0
        np.fill_diagonal(overlaps, 1.0)

        labels = tuple(self.labels) or tuple(f"state{i}" for i in range(n))
        if len(labels) != n:
            raise ValueError(f"expected {n} labels, got {len(labels)}")

        priors.setflags(write=False)
        overlaps.setflags(write=False)
        object.__setattr__(self, "priors", priors)
        object.__setattr__(self, "overlaps", overlaps)
        object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return len(self.priors)

    def inner(self, i: int, j: int) -> complex:
        return complex(self.overlaps[i, j])


@dataclass(frozen=True)
class GusEnsemble:
    """``s`` constellations of ``m`` states sharing one cyclic symmetry.

    The ensemble is its (s, s, m) first rows: ``rows[h, k, r]`` is the
    inner product between the seed state of constellation h and the r-step
    shift of the seed state of constellation k, and block (h, k) of the
    overlap matrix is the circulant with that first row. States are
    ordered constellation-major; every state of constellation k carries
    the prior ``constellation_priors[k]``.

    Construction checks, in O(s^2 m), finite entries, the Hermitian mirror
    ``rows[k, h, (m - r) % m] == conj(rows[h, k, r])`` and unit seeds. It
    keeps the upper blocks as supplied, derives the lower ones from them,
    symmetrises the diagonal rows and sets their seed entry to one. The
    dense ``base`` constellation is assembled only when read.
    """

    rows: np.ndarray
    constellation_priors: np.ndarray
    labels: tuple[str, ...] = field(default=())

    def __post_init__(self):
        rows = np.array(self.rows, dtype=complex)
        if rows.ndim != 3 or rows.shape[0] != rows.shape[1] or 0 in rows.shape:
            raise ValueError(f"rows must have shape (s, s, m) with s, m >= 1, got {rows.shape}")
        s, _, m = rows.shape
        if not np.all(np.isfinite(rows)):
            raise ValueError("rows must be finite")
        q = np.array(self.constellation_priors, dtype=float).reshape(-1)
        if len(q) != s:
            raise InvalidPrior(f"expected {s} constellation priors, got {len(q)}")
        if np.any(q <= 0):
            raise InvalidPrior("constellation priors must be strictly positive")
        if abs(m * q.sum() - 1.0) > PRIOR_TOL:
            raise InvalidPrior(
                f"per-state priors must satisfy m * sum(q) = 1, got {m * q.sum()!r}"
            )

        mirror = rows.transpose(1, 0, 2)[:, :, (m - np.arange(m)) % m].conj()
        defect = np.abs(rows - mirror).max(axis=2)
        if defect.max() > RULE_TOL:
            h, k = np.unravel_index(int(defect.argmax()), defect.shape)
            raise ValueError(
                f"rows are not Hermitian-consistent on blocks ({h}, {k}) / ({k}, {h}): "
                f"defect {defect[h, k]:.3e}"
            )
        diag = np.arange(s)
        seed_err = np.abs(rows[diag, diag, 0] - 1.0)
        if seed_err.max() > RULE_TOL:
            h = int(seed_err.argmax())
            raise ValueError(f"seed state {h} is not unit norm: <0|0> = {rows[h, h, 0]}")
        lower = np.tril(np.ones((s, s), dtype=bool), -1)[:, :, None]
        rows = np.where(lower, mirror, rows)
        rows[diag, diag] = (rows[diag, diag] + mirror[diag, diag]) / 2.0
        rows[diag, diag, 0] = 1.0

        labels = tuple(self.labels) or tuple(f"c{h}s{i}" for h in range(s) for i in range(m))
        if len(labels) != s * m:
            raise ValueError(f"expected {s * m} labels, got {len(labels)}")

        rows.setflags(write=False)
        q.setflags(write=False)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "constellation_priors", q)
        object.__setattr__(self, "labels", labels)

    @property
    def s(self) -> int:
        return self.rows.shape[0]

    @property
    def m(self) -> int:
        return self.rows.shape[2]

    @cached_property
    def base(self) -> Constellation:
        """The dense constellation of all s * m states, built on first read."""
        return Constellation(
            priors=np.repeat(self.constellation_priors, self.m),
            overlaps=_circulant_blocks(self.rows),
            labels=self.labels,
        )


def coherent_inner(alpha, beta) -> complex:
    """Overlap of two coherent states with complex amplitudes alpha, beta.

    Equals exp(-(|a|^2 + |b|^2)/2 + conj(a) b); always has modulus <= 1
    and is 1 exactly when the amplitudes coincide.
    """
    a = complex(alpha)
    b = complex(beta)
    return cmath.exp(-(abs(a) ** 2 + abs(b) ** 2) / 2.0 + a.conjugate() * b)


def weighted_gram(constellation: Constellation) -> np.ndarray:
    """Weighted Gram matrix G[i, j] = sqrt(q_i q_j) <i|j>.

    Hermitian with unit trace; positive semidefinite whenever the overlap
    matrix describes actual states.
    """
    w = np.sqrt(constellation.priors)
    return np.outer(w, w) * constellation.overlaps


def make_gus_from_base(s: int, m: int, base_inners, priors, *, labels=None) -> GusEnsemble:
    """General constructor for multi-constellation ensembles with one symmetry.

    ``base_inners(h, k, r)`` must return the inner product between the
    seed state of constellation h and the r-step shift of the seed state
    of constellation k, for shifts r = 0..m-1. The rule must be
    Hermitian-consistent, i.e. ``base_inners(k, h, (m - r) % m)`` equal to
    the conjugate of ``base_inners(h, k, r)``, and unit-norm on the
    diagonal (``base_inners(h, h, 0) == 1``). ``priors`` gives one
    per-state prior per constellation, with m * sum(priors) = 1.
    """
    if s < 1 or m < 1:
        raise ValueError("need s >= 1 constellations of m >= 1 states")
    rows = [[[complex(base_inners(h, k, r)) for r in range(m)] for k in range(s)] for h in range(s)]
    labels = () if labels is None else labels
    return GusEnsemble(rows=rows, constellation_priors=priors, labels=labels)


def make_double_bpsk(alpha, beta, p: float) -> GusEnsemble:
    """Two binary phase-keyed constellations: states +/-alpha and +/-beta.

    The +/-alpha pair carries per-state prior p and the +/-beta pair
    carries q = 1/2 - p, so the four priors sum to one. The shared
    symmetry is the half-turn phase rotation.
    """
    if not 0.0 < p < 0.5:
        raise InvalidPrior(f"p must lie strictly between 0 and 1/2, got {p}")
    seeds = (complex(alpha), complex(beta))

    def rule(h: int, k: int, r: int) -> complex:
        return coherent_inner(seeds[h], seeds[k] * (-1) ** r)

    labels = ("alpha+", "alpha-", "beta+", "beta-")
    return make_gus_from_base(2, 2, rule, (p, 0.5 - p), labels=labels)


def make_psk(m: int, alpha) -> GusEnsemble:
    """Single equiprobable constellation of m phase-rotated coherent states."""
    if m < 2:
        raise ValueError("need at least two phases")
    seed = complex(alpha)

    def rule(h: int, k: int, r: int) -> complex:
        return coherent_inner(seed, seed * cmath.exp(2j * cmath.pi * r / m))

    labels = tuple(f"phase{i}" for i in range(m))
    return make_gus_from_base(1, m, rule, (1.0 / m,), labels=labels)


def make_ppm(m: int, alpha: float) -> GusEnsemble:
    """Pulse position modulation: one pulse of amplitude alpha in m slots.

    The m equiprobable positions are cyclic shifts of one seed, so they form
    a single constellation with first row [1, chi, ..., chi]: distinct
    positions overlap through the vacuum component only, with chi =
    exp(-alpha^2).
    """
    if m < 2:
        raise ValueError("need at least two slots")
    a = float(alpha)
    if a <= 0:
        raise ValueError("amplitude must be positive")
    chi = math.exp(-a * a)

    def rule(h: int, k: int, r: int) -> complex:
        return 1.0 if r == 0 else chi

    labels = tuple(f"slot{i}" for i in range(m))
    return make_gus_from_base(1, m, rule, (1.0 / m,), labels=labels)


def make_double_ppm(m: int, alpha: float) -> GusEnsemble:
    """Pulse position modulation doubled by pulse phase.

    Constellation 0 places a pulse of amplitude +alpha in one of m slots,
    constellation 1 a pulse of amplitude -alpha; all 2m states are
    equiprobable. Same-slot opposite-phase states overlap with chi^2,
    everything else with chi = exp(-alpha^2).
    """
    if m < 2:
        raise ValueError("need at least two slots")
    a = float(alpha)
    if a <= 0:
        raise ValueError("amplitude must be positive")
    chi = math.exp(-a * a)

    def rule(h: int, k: int, r: int) -> complex:
        if r != 0:
            return chi
        return 1.0 if h == k else chi * chi

    labels = tuple(f"slot{i}+" for i in range(m)) + tuple(f"slot{i}-" for i in range(m))
    return make_gus_from_base(2, m, rule, (0.5 / m, 0.5 / m), labels=labels)
