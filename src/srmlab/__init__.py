"""Discrimination of pure quantum states with the square-root measurement.

Everything is computed in Gram coordinates: a constellation is its priors
plus pairwise inner products, the measurement is the principal square root
of the weighted Gram matrix, and optimality is decided by matrix
certificates. Ensembles built from several constellations sharing one
cyclic symmetry additionally get a block-circulant fast path.
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
    pam4_block_traces,
    pam4_overlaps,
    pc_double_bpsk_equal_amp,
    ppm_closed_form,
)
from .constellations import (
    Constellation,
    GusEnsemble,
    coherent_inner,
    make_double_bpsk,
    make_double_ppm,
    make_ppm,
    make_psk,
    weighted_gram,
)
from .errors import (
    ConvergenceFailure,
    DomainError,
    GramFileError,
    GramSingular,
    InputError,
    InvalidFactorization,
    InvalidPrior,
    NotBlockDiagonal,
    NotHermitian,
    NumericalError,
    ReducibleBlock,
    SingularFactor,
    SrmLabError,
)
from .gus import block_diagonalize, fast_srm
from .linalg import TOL_HERM, TOL_PSD, TOL_RECON, circulant_eigenvalues
from .srm import (
    TOL_COND,
    ChannelStats,
    OptimalityVerdict,
    SrmResult,
    certify,
    certify_srm,
    channel_stats,
    check_theorem3,
    srm,
)

__version__ = "0.1.0"

__all__ = [
    "ChannelStats",
    "Constellation",
    "ConvergenceFailure",
    "DomainError",
    "DoublePpmClosedForm",
    "GramFileError",
    "GramSingular",
    "GusEnsemble",
    "InputError",
    "InvalidFactorization",
    "InvalidPrior",
    "NotBlockDiagonal",
    "NotHermitian",
    "NumericalError",
    "OptimalityVerdict",
    "PpmClosedForm",
    "ReducibleBlock",
    "SingularFactor",
    "SrmLabError",
    "SrmResult",
    "SweepPoint",
    "TOL_COND",
    "TOL_HERM",
    "TOL_PSD",
    "TOL_RECON",
    "block_diagonalize",
    "certify",
    "certify_srm",
    "channel_stats",
    "check_theorem3",
    "circulant_eigenvalues",
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
    "pam4_block_traces",
    "pam4_overlaps",
    "pc_double_bpsk_equal_amp",
    "ppm_closed_form",
    "srm",
    "weighted_gram",
]
