"""Weighted pure-state constellations described by priors and inner products.

States are never stored as amplitude vectors. A constellation records the
prior probability of each state and the full matrix of pairwise inner
products; the weighted Gram matrix assembled from those two ingredients is
the complete input to everything downstream. Builders cover coherent-state
binary phase keying in two constellations, m-ary phase keying, pulse
position modulation and its two-phase variant; each writes the first rows
of its Gram blocks as an array and hands them to ``GusEnsemble``, the
general constructor for any family of constellations sharing one cyclic
symmetry.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidPrior
from .linalg import _circulant_blocks, _mirror

PRIOR_TOL = 1e-12
RULE_TOL = 1e-10


@dataclass(frozen=True)
class Constellation:
    """A family of weighted pure states.

    ``priors`` are the positive state probabilities (summing to one) and
    ``overlaps[i, j]`` is the inner product of unit-norm states i and j,
    so the matrix is Hermitian with unit diagonal.
    """

    priors: np.ndarray
    overlaps: np.ndarray

    def __post_init__(self):
        priors = np.array(self.priors, dtype=float).reshape(-1)
        n = len(priors)
        if n == 0:
            raise InvalidPrior("a constellation needs at least one state")
        if not np.all(priors > 0):
            raise InvalidPrior("priors must be strictly positive")
        total = float(priors.sum())
        if abs(total - 1.0) > PRIOR_TOL:
            raise InvalidPrior(f"priors must sum to 1, got {total!r}")

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

        priors.setflags(write=False)
        overlaps.setflags(write=False)
        object.__setattr__(self, "priors", priors)
        object.__setattr__(self, "overlaps", overlaps)

    @property
    def n(self) -> int:
        return len(self.priors)


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
        if not np.all(q > 0):
            raise InvalidPrior("constellation priors must be strictly positive")
        total = float(m * q.sum())
        if abs(total - 1.0) > PRIOR_TOL:
            raise InvalidPrior(f"per-state priors must satisfy m * sum(q) = 1, got {total!r}")

        mirror = _mirror(rows)
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

        rows.setflags(write=False)
        q.setflags(write=False)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "constellation_priors", q)

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


def _cyclic_order(m, what: str) -> int:
    """The number m of cyclic shifts, as an int; ``ValueError`` unless it is an integer >= 2."""
    if m < 2:
        raise ValueError(f"need at least two {what}")
    if not float(m).is_integer():
        raise ValueError(f"the number of {what} must be an integer, got {m}")
    return int(m)


def _amplitude_chi(alpha: float) -> float:
    """Vacuum overlap chi = exp(-alpha^2) of a pulse with positive amplitude alpha."""
    a = float(alpha)
    if a <= 0:
        raise ValueError("amplitude must be positive")
    return math.exp(-a * a)


def make_double_bpsk(alpha, beta, p: float) -> GusEnsemble:
    """Two binary phase-keyed constellations: states +/-alpha and +/-beta.

    The +/-alpha pair carries per-state prior p and the +/-beta pair
    carries q = 1/2 - p, so the four priors sum to one. The shared
    symmetry is the half-turn phase rotation.
    """
    if not 0.0 < p < 0.5:
        raise InvalidPrior(f"p must lie strictly between 0 and 1/2, got {p}")
    seeds = (complex(alpha), complex(beta))
    rows = [[[coherent_inner(a, b * (-1) ** r) for r in range(2)] for b in seeds] for a in seeds]
    return GusEnsemble(rows=rows, constellation_priors=(p, 0.5 - p))


def make_psk(m: int, alpha) -> GusEnsemble:
    """Single equiprobable constellation of m phase-rotated coherent states."""
    m = _cyclic_order(m, "phases")
    seed = complex(alpha)
    row = [coherent_inner(seed, seed * cmath.exp(2j * cmath.pi * r / m)) for r in range(m)]
    return GusEnsemble(rows=[[row]], constellation_priors=(1.0 / m,))


def make_ppm(m: int, alpha: float) -> GusEnsemble:
    """Pulse position modulation: one pulse of amplitude alpha in m slots.

    The m equiprobable positions are cyclic shifts of one seed, so they form
    a single constellation with first row [1, chi, ..., chi]: distinct
    positions overlap through the vacuum component only, with chi =
    exp(-alpha^2).
    """
    m = _cyclic_order(m, "slots")
    rows = np.full((1, 1, m), _amplitude_chi(alpha), dtype=complex)
    rows[0, 0, 0] = 1.0
    return GusEnsemble(rows=rows, constellation_priors=(1.0 / m,))


def make_double_ppm(m: int, alpha: float) -> GusEnsemble:
    """Pulse position modulation doubled by pulse phase.

    Constellation 0 places a pulse of amplitude +alpha in one of m slots,
    constellation 1 a pulse of amplitude -alpha; all 2m states are
    equiprobable. Same-slot opposite-phase states overlap with chi^2,
    everything else with chi = exp(-alpha^2).
    """
    m = _cyclic_order(m, "slots")
    chi = _amplitude_chi(alpha)
    rows = np.full((2, 2, m), chi, dtype=complex)
    rows[:, :, 0] = [[1.0, chi * chi], [chi * chi, 1.0]]
    return GusEnsemble(rows=rows, constellation_priors=(0.5 / m, 0.5 / m))
