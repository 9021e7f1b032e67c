"""Acceptance suite.

One test per acceptance criterion, each printing a PASS/FAIL line with the
measured worst-case deviation; run ``pytest tests/test_acceptance.py -v -s``
to see the lines. The file is meant to run as a whole: criterion 10 audits
every measurement result produced by the earlier criteria.

Criterion 7 is split in two. Its indistinguishable-state limit checks that
Pc approaches 1/m from above at the exact rate: at chi = 1 - 1e-8 the
closed-form Pc must match 1/m + 2(m-1)sqrt(1-chi)/m^(3/2) to 1e-6. A bare
|Pc - 1/m| <= 1e-6 cannot hold there. The Gram eigenvalues 1 + (m-1)chi
and 1 - chi give Pc = (sqrt(1 + (m-1)chi) + (m-1)sqrt(1-chi))^2 / m^2
exactly, so the gap is 4.7e-5 to 7.7e-5, and PPM states are geometrically
uniform, so this square-root value is also the optimum.
"""

import cmath
import math
from pathlib import Path

import numpy as np

from helpers import (
    GRAMFILE_REPORTS,
    block_sqrt,
    check_theorem2_reference,
    check_theorem3_reference,
    dense_ensemble,
    dense_factor,
    dense_route,
    gram_ensemble,
    one_bin,
    principal_sqrt,
    random_gus_ensemble,
    random_unit_trace_gram,
    single_gus_pc,
    trace_criterion,
    verify_theorem1_reference,
    weighted_gram,
)
from srmlab import analysis
from srmlab.cli import main
from srmlab.constellations import (
    make_double_bpsk,
    make_double_ppm,
    make_ppm,
    make_psk,
)
from srmlab.gus import block_diagonalize, fast_srm
from srmlab.srm import certify_srm, channel_stats, check_theorem3

GRAMFILES = Path(__file__).resolve().parent.parent / "gramfiles"

_RESULTS: list[tuple[np.ndarray, np.ndarray]] = []


def _record(result, gram) -> None:
    """Remember (joint matrix, priors) for the normalization audit."""
    joint = np.abs(dense_factor(result)) ** 2
    _RESULTS.append((joint, np.diagonal(np.asarray(gram)).real.copy()))


def _report(number: int, name: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number:02d} {name}: {status}{suffix}")
    return ok


def _binary_pair(chi: float):
    return dense_ensemble([0.5, 0.5], [[1.0, chi], [chi, 1.0]])


def test_criterion_01_two_state_bound():
    worst = 0.0
    for chi in [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, math.exp(-2)]:
        pair = _binary_pair(chi)
        gram = weighted_gram(pair)
        result = fast_srm(pair)
        _record(result, gram)
        bound = (1.0 + math.sqrt(1.0 - chi * chi)) / 2.0
        worst = max(worst, abs(result.pc - bound))
    ok = worst <= 1e-10
    assert _report(1, "two-state bound", ok, f"worst |pc - bound| = {worst:.3e}")


def test_criterion_02_four_phase_optimality():
    worst = 0.0
    all_optimal = True
    for photon_number in (0.5, 1.0, 2.0):
        ensemble = make_psk(4, math.sqrt(photon_number))
        gram = weighted_gram(ensemble)
        result = fast_srm(one_bin(ensemble))
        _record(result, gram)
        verdict = certify_srm(result)
        all_optimal = all_optimal and verdict.optimal
        worst = max(worst, abs(result.pc - single_gus_pc(gram[0])))
    ok = all_optimal and worst <= 1e-10
    assert _report(
        2, "four-phase optimality", ok, f"worst |pc - spectral formula| = {worst:.3e}"
    )


def test_criterion_03_path_equivalence():
    rng = np.random.default_rng(101)
    worst_pc = 0.0
    worst_joint = 0.0
    for _ in range(50):
        s = int(rng.integers(1, 4))
        m = int(rng.integers(2, 9))
        ensemble = random_gus_ensemble(rng, s, m)
        gram = weighted_gram(ensemble)
        fast_result = fast_srm(ensemble)
        dense_result = dense_route(ensemble)
        _record(fast_result, gram)
        _record(dense_result, gram)
        worst_pc = max(worst_pc, abs(fast_result.pc - dense_result.pc))
        joint_gap = (
            np.abs(dense_factor(fast_result)) ** 2 - np.abs(dense_factor(dense_result)) ** 2
        )
        worst_joint = max(worst_joint, float(np.abs(joint_gap).max()))
    ok = worst_pc <= 1e-8 and worst_joint <= 1e-8
    assert _report(
        3,
        "path equivalence",
        ok,
        f"worst pc gap {worst_pc:.3e}, worst joint gap {worst_joint:.3e}",
    )


def test_criterion_04_verdict_concordance():
    # every verdict line of ``srmlab check`` reads the one residual of the
    # SRM, so each is held to an independent reference on an independent root:
    # Theorem 2 with its own eigensolve and SVD, the O(n^4) Theorem-1 oracle
    # and per-block roots; on the GUS half, ``certify_srm`` on the fast
    # path's rows is held to the oracle too
    rng = np.random.default_rng(103)
    disagreements = 0
    compared = 0
    theorem3_compared = 0
    srm_compared = 0
    for index in range(100):
        n = int(rng.integers(2, 9))
        if index % 2 == 0:
            dense = gram_ensemble(random_unit_trace_gram(rng, n))
        else:
            ensemble = random_gus_ensemble(rng, 1, n)
            dense = one_bin(ensemble)
        gram = weighted_gram(dense)
        result = fast_srm(dense)
        root = principal_sqrt(gram)
        # the one verdict behind the theorem2 and theorem1_oracle lines
        verdict = certify_srm(result)
        compared += 1
        if verdict.optimal != check_theorem2_reference(root).optimal:
            disagreements += 1
        if verdict.optimal != verify_theorem1_reference(gram, root).optimal:
            disagreements += 1
        if index % 2 == 1:
            srm_compared += 1
            if certify_srm(fast_srm(ensemble)).optimal != verdict.optimal:
                disagreements += 1
        blockwise = check_theorem3(dense, [range(n)], result)
        theorem3_compared += 1
        if blockwise.optimal != verdict.optimal:
            disagreements += 1
        if blockwise.optimal != check_theorem3_reference(gram, [range(n)]).optimal:
            disagreements += 1
    ok = disagreements == 0 and theorem3_compared == 100
    assert _report(
        4,
        "verdict concordance",
        ok,
        f"{compared} theorem2 and theorem1_oracle and {theorem3_compared} theorem3 "
        f"comparisons, each against its reference, {srm_compared} theorem1_srm against "
        f"the oracle, {disagreements} disagreements",
    )


def test_criterion_05_equal_amplitude_pairs():
    worst_gap = 0.0
    worst_match = 0.0
    for photon_number in (0.5, 1.0, 2.0, 5.0):
        alpha = math.sqrt(photon_number)
        for delta in (math.pi / 8, math.pi / 4, 3 * math.pi / 8, math.pi / 2):
            ensemble = make_double_bpsk(alpha, alpha * cmath.exp(1j * delta), 0.25)
            g, _ = trace_criterion(block_sqrt(block_diagonalize(ensemble)))
            worst_gap = max(worst_gap, abs(float(g[0] - g[1])))
            result = fast_srm(ensemble)
            _record(result, weighted_gram(ensemble))
            closed = analysis.pc_double_bpsk_equal_amp(alpha, delta)
            worst_match = max(worst_match, abs(closed - result.pc))
    deltas = [0.0, math.pi / 8, math.pi / 4, 3 * math.pi / 8, math.pi / 2]
    monotone = True
    for photon_number in np.linspace(0.1, 10, 100):
        values = [
            analysis.pc_double_bpsk_equal_amp(math.sqrt(photon_number), d) for d in deltas
        ]
        monotone = monotone and all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
    ok = worst_gap <= 1e-10 and worst_match <= 1e-8 and monotone
    assert _report(
        5,
        "equal-amplitude pairs",
        ok,
        f"worst trace gap {worst_gap:.3e}, worst closed-vs-pipeline {worst_match:.3e}, "
        f"offset-monotone {monotone}",
    )


def test_criterion_06_optimized_prior():
    worst_balance = 0.0
    all_certified = True
    for photon_number in (0.5, 1.0, 2.0, 10.0):
        alpha = math.sqrt(photon_number)
        p_star = analysis.optimize_prior_4pam(alpha)
        g1, g2 = analysis.double_bpsk_block_traces(p_star, *analysis.pam4_overlaps(alpha))
        worst_balance = max(worst_balance, abs(g1 - g2))
        ensemble = make_double_bpsk(alpha, 3 * alpha, p_star)
        gram = weighted_gram(ensemble)
        result = fast_srm(ensemble)
        _record(result, gram)
        all_certified = (
            all_certified and verify_theorem1_reference(gram, dense_factor(result)).optimal
        )
    bright = analysis.optimize_prior_4pam(math.sqrt(10.0))
    bright_ok = abs(bright - 0.25) < 0.01
    alpha = 1.0
    p_bisect = analysis.optimize_prior_4pam(alpha)
    grid = np.arange(1e-4, 0.5, 1e-4)
    overlaps = analysis.pam4_overlaps(alpha)
    gaps = np.array(
        [abs(np.subtract(*analysis.double_bpsk_block_traces(p, *overlaps))) for p in grid]
    )
    p_scan = float(grid[gaps.argmin()])
    scan_ok = abs(p_bisect - p_scan) <= 2e-4
    ok = worst_balance <= 1e-10 and all_certified and bright_ok and scan_ok
    assert _report(
        6,
        "optimized prior",
        ok,
        f"worst |g1-g2| = {worst_balance:.3e}, certified {all_certified}, "
        f"p*(10) = {bright:.4f}, |bisect - scan| = {abs(p_bisect - p_scan):.2e}",
    )


def test_criterion_07_ppm_closed_forms():
    worst = 0.0
    for m in (2, 3, 8, 16):
        for photon_number in (0.5, 1.0, 2.0, 5.0):
            alpha = math.sqrt(photon_number)
            form = analysis.ppm_closed_form(m, alpha)
            ensemble = make_ppm(m, alpha)
            gram = weighted_gram(ensemble)
            result = fast_srm(one_bin(ensemble))
            _record(result, gram)
            worst = max(
                worst,
                abs(result.pc - form.pc),
                abs(dense_factor(result)[0, 0].real - form.correct),
                abs(dense_factor(result)[0, 1].real - form.cross),
            )
    alpha_orthogonal = math.sqrt(-math.log(1e-8))
    orthogonal_gap = max(
        abs(analysis.ppm_closed_form(m, alpha_orthogonal).pc - 1.0) for m in (2, 3, 8, 16)
    )
    ok = worst <= 1e-10 and orthogonal_gap <= 1e-6
    assert _report(
        7,
        "ppm closed forms",
        ok,
        f"worst closed-vs-dense {worst:.3e}, orthogonal-limit gap {orthogonal_gap:.3e}",
    )


def test_criterion_07_ppm_indistinguishable_limit():
    # at chi = 1 - 1e-8 the exact Pc sits 2(m-1)sqrt(1-chi)/m^1.5 (~5e-5 to
    # 8e-5) above 1/m, and PPM is geometrically uniform, so no measurement
    # gets closer; hold Pc to the limit plus that leading term, to 1e-6
    one_minus_chi = 1e-8
    alpha = math.sqrt(-math.log1p(-one_minus_chi))
    worst_gap = 0.0
    worst_residual = 0.0
    from_above = True
    for m in (2, 3, 8, 16):
        gap = analysis.ppm_closed_form(m, alpha).pc - 1.0 / m
        leading = 2.0 * (m - 1) * math.sqrt(one_minus_chi) / m**1.5
        from_above = from_above and gap > 0.0
        worst_gap = max(worst_gap, abs(gap))
        worst_residual = max(worst_residual, abs(gap - leading))
    ok = from_above and worst_residual <= 1e-6
    assert _report(
        7,
        "ppm indistinguishable limit",
        ok,
        f"at chi=1-1e-8 worst |pc - 1/m| {worst_gap:.3e}, "
        f"worst |pc - 1/m - 2(m-1)sqrt(1-chi)/m^1.5| {worst_residual:.3e} vs 1e-6, "
        f"from above {from_above}",
    )


def test_criterion_08_double_ppm():
    worst_amp = 0.0
    worst_pc = 0.0
    all_optimal = True
    for m in (2, 16):
        for photon_number in (0.5, 1.0, 2.0, 5.0):
            alpha = math.sqrt(photon_number)
            ensemble = make_double_ppm(m, alpha)
            gram = weighted_gram(ensemble)
            root_spectrum = block_sqrt(block_diagonalize(ensemble))
            _, balanced = trace_criterion(root_spectrum)
            result = fast_srm(ensemble)
            _record(result, gram)
            verdict = verify_theorem1_reference(gram, dense_factor(result))
            all_optimal = all_optimal and balanced and verdict.optimal
            form = analysis.double_ppm_closed_form(m, alpha)
            factor = dense_factor(result)
            worst_amp = max(
                worst_amp,
                abs(factor[0, 0].real - form.correct),
                abs(factor[0, m].real - form.flip),
                abs(factor[0, 1].real - form.cross),
            )
            worst_pc = max(worst_pc, abs(result.pc - 2 * m * form.correct**2))
    ok = all_optimal and worst_amp <= 1e-8 and worst_pc <= 1e-10
    assert _report(
        8,
        "double ppm",
        ok,
        f"optimal {all_optimal}, worst amplitude gap {worst_amp:.3e}, "
        f"worst pc gap {worst_pc:.3e}",
    )


def test_criterion_09_mutual_information():
    worst = 0.0
    for m in (2, 16):
        for photon_number in (0.5, 2.0, 20.0):
            alpha = math.sqrt(photon_number)
            single_ensemble = make_ppm(m, alpha)
            single_gram = weighted_gram(single_ensemble)
            single_result = fast_srm(one_bin(single_ensemble))
            _record(single_result, single_gram)
            worst = max(
                worst,
                abs(
                    analysis.mutual_info_ppm(m, alpha)
                    - channel_stats(single_result).mutual_information
                ),
            )
            double_ensemble = make_double_ppm(m, alpha)
            double_result = fast_srm(double_ensemble)
            _record(double_result, weighted_gram(double_ensemble))
            worst = max(
                worst,
                abs(
                    analysis.mutual_info_double_ppm(m, alpha)
                    - channel_stats(double_result).mutual_information
                ),
            )
    asymptote = 0.0
    for m in (2, 16):
        alpha = math.sqrt(20.0)
        asymptote = max(
            asymptote,
            abs(analysis.mutual_info_ppm(m, alpha) - math.log2(m)),
            abs(analysis.mutual_info_double_ppm(m, alpha) - math.log2(2 * m)),
        )
    ok = worst <= 1e-8 and asymptote < 1e-3
    assert _report(
        9,
        "mutual information",
        ok,
        f"worst closed-vs-channel {worst:.3e}, asymptote gap {asymptote:.3e}",
    )


def test_criterion_10_probability_normalization():
    if not _RESULTS:  # allow running this test on its own
        test_criterion_01_two_state_bound()
    worst_total = 0.0
    worst_marginal = 0.0
    for joint, priors in _RESULTS:
        worst_total = max(worst_total, abs(float(joint.sum()) - 1.0))
        worst_marginal = max(
            worst_marginal, float(np.abs(joint.sum(axis=1) - priors).max())
        )
    ok = worst_total <= 1e-10 and worst_marginal <= 1e-10
    assert _report(
        10,
        "probability normalization",
        ok,
        f"{len(_RESULTS)} results, worst total gap {worst_total:.3e}, "
        f"worst marginal gap {worst_marginal:.3e}",
    )


def test_criterion_11_cli_determinism(tmp_path, capsys):
    identical = True
    for index, (name, extra) in enumerate((
        ("fig1", []),
        ("fig2", ["--grid", "0.5:5:10"]),
        ("fig3", ["--grid", "0.5:5:10"]),
        ("fig4", []),
        ("fig5", []),
        ("sweep", ["--scheme", "ppm"]),
        ("sweep", ["--scheme", "double_ppm"]),
        ("sweep", ["--scheme", "double_bpsk"]),
    )):
        first = tmp_path / f"{index}_{name}_a.csv"
        second = tmp_path / f"{index}_{name}_b.csv"
        assert main([name, *extra, "--out", str(first)]) == 0
        assert main([name, *extra, "--out", str(second)]) == 0
        identical = identical and first.read_bytes() == second.read_bytes()

    documented = True
    for stem, report in GRAMFILE_REPORTS.items():
        out = tmp_path / f"{stem}.txt"
        assert main(["check", str(GRAMFILES / f"{stem}.gram"), "--out", str(out)]) == 0
        documented = documented and out.read_text() == report
    ok = identical and documented
    capsys.readouterr()  # swallow dataset notes so the verdict line stands out
    assert _report(
        11,
        "cli determinism and documented checks",
        ok,
        f"byte-identical {identical}, documented reports {documented}",
    )
