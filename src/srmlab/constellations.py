"""Weighted pure-state ensembles described by priors and inner products.

States are never stored as amplitude vectors. An ensemble is s
constellations of m states sharing one cyclic symmetry, held as the first
rows of its Gram blocks and one prior per constellation; the weighted Gram
matrix assembled from those two ingredients is the complete input to
everything downstream. Any set of n pure states is the one-bin case: n
constellations of one state each, whose (n, n, 1) first rows are the
overlap matrix. Builders cover coherent-state binary phase keying in two
constellations, m-ary phase keying, pulse position modulation and its
two-phase variant; each writes its first rows as an array and hands them
to ``GusEnsemble``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidPrior
from .linalg import _circulant_blocks, _mirror

PRIOR_TOL = 1e-12
RULE_TOL = 1e-10


@dataclass(frozen=True)
class GusEnsemble:
    """``s`` constellations of ``m`` states sharing one cyclic symmetry.

    The ensemble is its (s, s, m) first rows: ``rows[h, k, r]`` is the
    inner product between the seed state of constellation h and the r-step
    shift of the seed state of constellation k, and block (h, k) of the
    overlap matrix is the circulant with that first row. States are
    ordered constellation-major; every state of constellation k carries
    the prior ``constellation_priors[k]``. A dense overlap matrix O of n
    states is the ensemble with ``rows = O[:, :, None]``.

    Construction checks, in O(s^2 m), positive priors whose s * m per-state
    copies sum to one, finite entries, the Hermitian mirror
    ``rows[k, h, (m - r) % m] == conj(rows[h, k, r])`` and unit seeds, each
    to ``RULE_TOL``. It then averages every block with its mirror, so the
    rows are exactly Hermitian-consistent, and sets the seeds to one. Rows
    that already are mirror-consistent come back equal, up to the sign of
    a zero imaginary part.
    """

    rows: np.ndarray
    constellation_priors: np.ndarray

    def __post_init__(self):
        rows = np.array(self.rows, dtype=complex, order="C")
        if rows.ndim != 3 or rows.shape[0] != rows.shape[1] or 0 in rows.shape:
            raise ValueError(f"rows must have shape (s, s, m) with s, m >= 1, got {rows.shape}")
        s, _, m = rows.shape
        q = np.array(self.constellation_priors, dtype=float).reshape(-1)
        if len(q) != s:
            raise InvalidPrior(f"expected {s} constellation priors, got {len(q)}")
        if not np.all(q > 0):
            raise InvalidPrior("priors must be strictly positive")
        total = float(m * q.sum())
        if abs(total - 1.0) > PRIOR_TOL:
            raise InvalidPrior(f"priors must sum to 1, got {total!r}")
        if not np.isfinite(rows).all():
            raise ValueError("overlaps must be finite")

        mirror = _mirror(rows)
        defect = np.abs(rows - mirror)
        if defect.max() > RULE_TOL:
            # the first worst entry lies in the first worst block
            h, k, _ = np.unravel_index(int(defect.argmax()), defect.shape)
            raise ValueError(
                f"rows are not Hermitian-consistent on blocks ({h}, {k}) / ({k}, {h}): "
                f"defect {defect.max():.3e}"
            )
        # rows is a C-contiguous copy, so this view holds the seeds rows[h, h, 0]
        seeds = rows.reshape(-1)[:: (s + 1) * m]
        seed_err = np.abs(seeds - 1.0)
        if seed_err.max() > RULE_TOL:
            h = int(seed_err.argmax())
            raise ValueError(f"seed state {h} is not unit norm: <0|0> = {rows[h, h, 0]}")
        rows += mirror
        rows /= 2.0
        seeds[:] = 1.0

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


def coherent_inner(alpha, beta) -> complex:
    """Overlap of two coherent states with complex amplitudes alpha, beta.

    Equals exp(-(|a|^2 + |b|^2)/2 + conj(a) b); always has modulus <= 1
    and is 1 exactly when the amplitudes coincide.
    """
    a = complex(alpha)
    b = complex(beta)
    return cmath.exp(-(abs(a) ** 2 + abs(b) ** 2) / 2.0 + a.conjugate() * b)


def _weighted_rows(ensemble: GusEnsemble) -> np.ndarray:
    """First rows of the weighted Gram blocks: ``sqrt(q_h q_k) rows[h, k]``."""
    w = np.sqrt(ensemble.constellation_priors)
    return np.outer(w, w)[:, :, None] * ensemble.rows


def weighted_gram(ensemble: GusEnsemble) -> np.ndarray:
    """Dense (s m) x (s m) weighted Gram matrix G[i, j] = sqrt(q_i q_j) <i|j>.

    Hermitian with unit trace; positive semidefinite whenever the overlap
    matrix describes actual states.
    """
    return _circulant_blocks(_weighted_rows(ensemble))


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

    The first constellation places a pulse of amplitude +alpha in one of m
    slots, the second a pulse of amplitude -alpha; all 2m states are
    equiprobable. Same-slot opposite-phase states overlap with chi^2,
    everything else with chi = exp(-alpha^2).
    """
    m = _cyclic_order(m, "slots")
    chi = _amplitude_chi(alpha)
    rows = np.full((2, 2, m), chi, dtype=complex)
    rows[:, :, 0] = [[1.0, chi * chi], [chi * chi, 1.0]]
    return GusEnsemble(rows=rows, constellation_priors=(0.5 / m, 0.5 / m))
