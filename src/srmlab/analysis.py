"""Closed-form performance results for the coherent-state case studies.

Every function here evaluates, in closed form, a quantity the generic
Gram-matrix pipeline also computes numerically, so each route serves as an
independent check on the other. Covered: the two-constellation binary
phase-keyed family (equal amplitudes at a phase offset, and the
4-amplitude-level case with its prior optimization), pulse position
modulation with and without phase doubling, and the mutual informations of
the channels those schemes induce.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple

from .constellations import _cyclic_order, _pair_prior, _pulse_amplitude
from .constellations import make_double_bpsk, make_double_ppm, make_ppm, make_psk
from .errors import DomainError, GramSingular, InputError
from .gus import TOL_PSD, fast_srm
from .srm import channel_stats

TOL_ROOT = 1e-12
_BRACKET_MARGIN = 1e-6


def _sqrt0(value: float) -> float:
    """Square root with tiny negative roundoff clamped to zero."""
    return math.sqrt(value) if value > 0.0 else 0.0


def double_bpsk_block_traces(p: float, eta_a: float, eta_b: float, chi, xi) -> tuple[float, float]:
    """Per-constellation diagonal values g_1, g_2 of the Gram square root.

    Closed form for two binary phase-keyed constellations with per-state
    priors p and q = 1/2 - p, self overlaps eta_a, eta_b and cross
    overlaps chi (aligned) and xi (anti-aligned). Derived from the square
    roots of the two 2x2 frequency-bin coupling matrices, whose
    determinants are d_plus and d_minus below. The measurement is optimal
    exactly when g_1 = g_2. A vanished coupling matrix, as when the
    overlaps round to 1, is a singular Gram matrix: ``GramSingular``.
    """
    _pair_prior(p)
    q = 0.5 - p
    d_plus = p * q * ((1.0 + eta_a) * (1.0 + eta_b) - abs(chi + xi) ** 2)
    d_minus = p * q * ((1.0 - eta_a) * (1.0 - eta_b) - abs(chi - xi) ** 2)
    root_plus = _sqrt0(d_plus)
    root_minus = _sqrt0(d_minus)
    den_plus = _sqrt0(p * (1.0 + eta_a) + q * (1.0 + eta_b) + 2.0 * root_plus)
    den_minus = _sqrt0(p * (1.0 - eta_a) + q * (1.0 - eta_b) + 2.0 * root_minus)
    if den_plus == 0.0 or den_minus == 0.0:
        raise GramSingular("degenerate ensemble: a coupling matrix vanished")
    g1 = 0.5 * (
        (p * (1.0 + eta_a) + root_plus) / den_plus
        + (p * (1.0 - eta_a) + root_minus) / den_minus
    )
    g2 = 0.5 * (
        (q * (1.0 + eta_b) + root_plus) / den_plus
        + (q * (1.0 - eta_b) + root_minus) / den_minus
    )
    return g1, g2


def _equal_amp_overlaps(alpha: float, delta: float) -> tuple[float, complex, complex]:
    eta = math.exp(-2.0 * alpha * alpha)
    chi = cmath.exp(-alpha * alpha * (1.0 - cmath.exp(1j * delta)))
    xi = cmath.exp(-alpha * alpha * (1.0 + cmath.exp(1j * delta)))
    return eta, chi, xi


def pc_double_bpsk_equal_amp(alpha: float, delta: float) -> float:
    """Correct-decision probability for two equal-amplitude binary pairs.

    The pairs are +/-alpha and +/-alpha e^(i delta) with equal priors 1/4,
    for which the measurement is optimal. At delta = 0 the constellations
    coincide and the pipeline rejects the ensemble as singular, while this
    closed form still evaluates (to the value of the degenerate limit).
    """
    a = _pulse_amplitude(alpha)
    d = float(delta)
    if not 0.0 <= d <= math.pi / 2.0 + 1e-12:
        raise DomainError(f"phase offset must lie in [0, pi/2], got {delta}")
    eta, chi, xi = _equal_amp_overlaps(a, d)
    gap = -math.expm1(-2.0 * a * a)  # 1 - eta without cancellation
    plus = abs(chi + xi)
    minus = abs(chi - xi)
    total = (
        _sqrt0(1.0 + eta + plus)
        + _sqrt0(1.0 + eta - plus)
        + _sqrt0(gap + minus)
        + _sqrt0(gap - minus)
    )
    return total * total / 16.0


def pam4_overlaps(alpha: float) -> tuple[float, float, float, float]:
    """Overlaps (eta_a, eta_b, chi, xi) of the 4-level amplitude scheme.

    Amplitudes +/-alpha and +/-3 alpha give eta_a = exp(-2 alpha^2) and the
    power relations eta_b = eta_a^9, chi = eta_a, xi = eta_a^4.
    """
    eta = math.exp(-2.0 * alpha * alpha)
    return eta, eta**9, eta, eta**4


def optimize_prior_4pam(alpha: float) -> float:
    """Prior p making the square-root measurement optimal for 4-level PAM.

    Solves g_1(p) = g_2(p) by bisection of the gap on (0, 1/2); there is
    no closed form. The margins always bracket a root: g_h -> 0 as
    constellation h's prior -> 0, so the gap is near -1/2 at one end and
    near +1/2 at the other. The prior is not certified here: the caller
    takes the measurement at p*, whose singularity test depends on its own
    ``tol_psd``, and certifies that with ``srm.certify_srm``.
    """
    overlaps = pam4_overlaps(_pulse_amplitude(alpha))

    def gap(p: float) -> float:
        g1, g2 = double_bpsk_block_traces(p, *overlaps)
        return g1 - g2

    lo, hi = _BRACKET_MARGIN, 0.5 - _BRACKET_MARGIN
    gap_lo = gap(lo)
    while hi - lo > TOL_ROOT:
        mid = 0.5 * (lo + hi)
        gap_mid = gap(mid)
        if gap_mid == 0.0:
            lo = hi = mid
            break
        if math.copysign(1.0, gap_mid) == math.copysign(1.0, gap_lo):
            lo, gap_lo = mid, gap_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class PpmClosedForm(NamedTuple):
    """First-row amplitudes of the Gram square root for pulse position keying.

    ``correct`` is the common diagonal entry, ``cross`` the common
    off-diagonal entry, ``pc`` the correct-decision probability
    m * correct^2.
    """

    correct: float
    cross: float
    pc: float


def ppm_closed_form(m: int, alpha: float) -> PpmClosedForm:
    """Closed-form square root and performance of pulse position keying.

    With overlap chi = exp(-alpha^2) the Gram eigenvalues are
    1 + (m-1) chi once and 1 - chi (m-1 times), so
    Pc = (sqrt(1 + (m-1) chi) + (m-1) sqrt(1 - chi))^2 / m^2. As the
    states merge (chi -> 1) Pc approaches 1/m from above only like
    sqrt(1 - chi):
    Pc = 1/m + 2 (m-1) sqrt(1 - chi) / m^(3/2) + O(1 - chi).
    """
    m = _cyclic_order(m, "slots")
    a = _pulse_amplitude(alpha)
    chi = math.exp(-a ** 2)
    head = math.sqrt(1.0 + (m - 1) * chi)
    tail = math.sqrt(-math.expm1(-a ** 2))
    scale = m * math.sqrt(m)
    correct = (head + (m - 1) * tail) / scale
    cross = (head - tail) / scale
    return PpmClosedForm(correct=correct, cross=cross, pc=m * correct * correct)


class DoublePpmClosedForm(NamedTuple):
    """Closed-form spectral and matrix amplitudes for phase-doubled PPM.

    The first four fields are the distinct diagonal entries of the two
    spectral blocks of the Gram-root (head bin, then the m-1 repeated
    bins). ``correct`` is the diagonal entry of the Gram root itself,
    ``flip`` the entry pairing a slot with its opposite-phase twin,
    ``cross`` the common value of every remaining entry, and ``pc`` the
    correct-decision probability 2 m correct^2.
    """

    same_head: float
    same_rest: float
    flip_head: float
    flip_rest: float
    correct: float
    flip: float
    cross: float
    pc: float


def double_ppm_closed_form(m: int, alpha: float) -> DoublePpmClosedForm:
    """Closed-form square root and performance of phase-doubled PPM."""
    m = _cyclic_order(m, "slots")
    a2 = _pulse_amplitude(alpha) ** 2
    chi = math.exp(-a2)
    gap = -math.expm1(-a2)  # 1 - chi without cancellation
    big = math.sqrt(1.0 + chi * chi + 2.0 * (m - 1) * chi)
    ortho = math.sqrt(-math.expm1(-2.0 * a2))
    spectral_scale = math.sqrt(8.0 * m)
    same_head = (big + ortho) / spectral_scale
    same_rest = (gap + ortho) / spectral_scale
    flip_head = (big - ortho) / spectral_scale
    flip_rest = (gap - ortho) / spectral_scale
    row_scale = 2.0 * m * math.sqrt(2.0 * m)
    correct = (big + (m - 1) * gap + m * ortho) / row_scale
    flip = (big + (m - 1) * gap - m * ortho) / row_scale
    cross = (big - gap) / row_scale
    return DoublePpmClosedForm(
        same_head=same_head,
        same_rest=same_rest,
        flip_head=flip_head,
        flip_rest=flip_rest,
        correct=correct,
        flip=flip,
        cross=cross,
        pc=2.0 * m * correct * correct,
    )


def _xlog2x(value: float) -> float:
    return value * math.log2(value) if value > 0.0 else 0.0


def mutual_info_ppm(m: int, alpha: float) -> float:
    """Mutual information in bits of the channel induced by m-slot PPM.

    The channel is symmetric with uniform marginals: every diagonal joint
    probability equals correct^2 and every off-diagonal one cross^2, so
    the information is 2 log2(m) plus the two entropy-like sums. Tends to
    log2(m) as the pulse grows bright.
    """
    form = ppm_closed_form(m, alpha)
    info = (
        2.0 * math.log2(m)
        + m * _xlog2x(form.correct**2)
        + m * (m - 1) * _xlog2x(form.cross**2)
    )
    return max(info, 0.0)


def mutual_info_double_ppm(m: int, alpha: float) -> float:
    """Mutual information in bits of the channel induced by phase-doubled PPM.

    Tends to log2(2m) as the pulse grows bright, one bit beyond plain PPM
    with the same slot count.
    """
    form = double_ppm_closed_form(m, alpha)
    info = (
        2.0 * math.log2(2 * m)
        + 2.0 * m * _xlog2x(form.correct**2)
        + 2.0 * m * _xlog2x(form.flip**2)
        + 4.0 * m * (m - 1) * _xlog2x(form.cross**2)
    )
    return max(info, 0.0)


def _double_bpsk_route(alpha, m, delta, prior):
    p = 0.25 if prior is None else float(prior)
    beta = alpha * cmath.exp(1j * float(delta))
    return make_double_bpsk(alpha, beta, p), {"delta": float(delta), "prior": p}


def _with_m(ensemble):
    """A cyclic scheme's ensemble and its SweepPoint m: the built ensemble's, an int."""
    return ensemble, {"m": ensemble.m}


# scheme -> (its SweepPoint parameter fields, the required one first; that
# parameter's description; builder). A builder maps (alpha, m, delta, prior)
# to the scheme's GusEnsemble and its SweepPoint parameter values.
_SCHEME_TABLE = {
    "psk": (("m",), "a phase count m", lambda a, m, d, p: _with_m(make_psk(m, a))),
    "ppm": (("m",), "a slot count m", lambda a, m, d, p: _with_m(make_ppm(m, a))),
    "double_ppm": (("m",), "a slot count m", lambda a, m, d, p: _with_m(make_double_ppm(m, a))),
    "double_bpsk": (("delta", "prior"), "a phase offset delta", _double_bpsk_route),
}
SCHEMES = tuple(_SCHEME_TABLE)
SCHEME_FIELDS = {scheme: row[0] for scheme, row in _SCHEME_TABLE.items()}


@dataclass(frozen=True)
class SweepPoint:
    """One evaluated grid point of a scheme sweep.

    ``photon_number`` is the mean photon number |alpha|^2 of the pulse.
    Scheme parameters that do not apply are left as None.
    """

    photon_number: float
    pc: float
    pe: float
    mutual_info: float | None = None
    m: int | None = None
    delta: float | None = None
    prior: float | None = None

    def __post_init__(self):
        if not -1e-12 <= self.pc <= 1.0 + 1e-12:
            raise InputError(f"pc out of range: {self.pc}")
        if abs(self.pc + self.pe - 1.0) > 1e-12:
            raise InputError("pe must complement pc")


def evaluate_scheme(
    scheme: str,
    photon_number: float,
    *,
    m: int | None = None,
    delta: float | None = None,
    prior: float | None = None,
    tol_psd: float = TOL_PSD,
) -> SweepPoint:
    """Run the discrimination pipeline for one named scheme at one energy.

    Every scheme is geometrically uniform and takes the block-circulant
    fast path; mutual information comes from the induced channel of the
    computed measurement. A parameter the scheme does not take is a
    ``DomainError``; the builder checks m, the amplitude and the prior.
    """
    if not (math.isfinite(photon_number) and photon_number > 0.0):
        raise DomainError(f"mean photon number must be positive and finite, got {photon_number}")
    if scheme not in _SCHEME_TABLE:
        raise DomainError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    fields, what, build = _SCHEME_TABLE[scheme]
    given = {"m": m, "delta": delta, "prior": prior}
    for name, value in given.items():
        if value is not None and name not in fields:
            raise DomainError(f"scheme {scheme!r} takes no {name}, got {name}={value!r}")
    if given[fields[0]] is None:
        raise DomainError(f"scheme {scheme!r} needs {what}")
    if fields[0] == "delta" and not math.isfinite(delta):
        raise DomainError(f"scheme {scheme!r} needs a finite phase offset delta, got {delta}")

    ensemble, params = build(math.sqrt(photon_number), m, delta, prior)
    result = fast_srm(ensemble, tol_psd=tol_psd)
    info = channel_stats(result).mutual_information
    return SweepPoint(photon_number, result.pc, 1.0 - result.pc, info, **params)
