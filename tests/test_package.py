"""The package's public surface."""

import ast
import importlib
from pathlib import Path

import srmlab

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"

# changing the public surface means changing this list on purpose
EXPORTED = [
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


def test_every_exported_name_resolves_once():
    names = srmlab.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(srmlab, name)] == []


def test_exported_names_are_pinned():
    assert sorted(srmlab.__all__) == EXPORTED


def test_every_traced_layer_is_a_module():
    # the traced benchmark imports srmlab.<layer> for each of these
    tree = ast.parse(SPANS.read_text(encoding="utf-8"))
    (layers,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["LAYERS"]
    ]
    assert len(layers) == 6
    for layer in layers:
        assert importlib.import_module(f"srmlab.{layer}").__name__ == f"srmlab.{layer}"
