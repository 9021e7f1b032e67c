"""Discrimination of pure quantum states with the square-root measurement.

Everything is computed in Gram coordinates: an ensemble is its priors plus
pairwise inner products, the measurement is the principal square root of
the weighted Gram matrix, and optimality is decided by matrix certificates.
``GusEnsemble`` holds s constellations of m states sharing one cyclic
symmetry as the first rows of their Gram blocks; any set of n states is the
case m = 1. ``fast_srm`` roots every ensemble through its block-circulant
coupling stack, of which a dense Gram matrix is the one-bin case.
"""

from .analysis import (
    DoublePpmClosedForm,
    PpmClosedForm,
    SweepPoint,
    double_bpsk_block_traces,
    double_ppm_closed_form,
    evaluate_scheme,
    mutual_info_double_ppm,
    mutual_info_ppm,
    optimize_prior_4pam,
    pam4_overlaps,
    pc_double_bpsk_equal_amp,
    ppm_closed_form,
)
from .constellations import (
    GusEnsemble,
    coherent_inner,
    make_double_bpsk,
    make_double_ppm,
    make_ppm,
    make_psk,
)
from .errors import (
    ConvergenceFailure,
    DomainError,
    GramFileError,
    GramSingular,
    InputError,
    InvalidPrior,
    NotBlockDiagonal,
    NumericalError,
    SrmLabError,
)
from .gus import TOL_PSD, block_diagonalize, fast_srm
from .srm import (
    TOL_COND,
    ChannelStats,
    OptimalityVerdict,
    SrmResult,
    certify_srm,
    channel_stats,
    check_theorem3,
)

__version__ = "0.1.0"

__all__ = [
    "ChannelStats",
    "ConvergenceFailure",
    "DomainError",
    "DoublePpmClosedForm",
    "GramFileError",
    "GramSingular",
    "GusEnsemble",
    "InputError",
    "InvalidPrior",
    "NotBlockDiagonal",
    "NumericalError",
    "OptimalityVerdict",
    "PpmClosedForm",
    "SrmLabError",
    "SrmResult",
    "SweepPoint",
    "TOL_COND",
    "TOL_PSD",
    "block_diagonalize",
    "certify_srm",
    "channel_stats",
    "check_theorem3",
    "coherent_inner",
    "double_bpsk_block_traces",
    "double_ppm_closed_form",
    "evaluate_scheme",
    "fast_srm",
    "make_double_bpsk",
    "make_double_ppm",
    "make_ppm",
    "make_psk",
    "mutual_info_double_ppm",
    "mutual_info_ppm",
    "optimize_prior_4pam",
    "pam4_overlaps",
    "pc_double_bpsk_equal_amp",
    "ppm_closed_form",
]
