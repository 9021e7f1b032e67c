"""Tests for the closed-form evaluators against the generic pipeline."""

import cmath
import math

import numpy as np
import pytest

from helpers import (
    block_sqrt,
    dense_factor,
    dense_route,
    principal_sqrt,
    single_gus_pc,
    trace_criterion,
    verify_theorem1_reference,
    weighted_gram,
)
from srmlab import analysis
from srmlab.analysis import (
    SweepPoint,
    double_ppm_closed_form,
    evaluate_scheme,
    mutual_info_double_ppm,
    mutual_info_ppm,
    optimize_prior_4pam,
    pam4_block_traces,
    pc_double_bpsk_equal_amp,
    ppm_closed_form,
)
from srmlab.constellations import (
    make_double_bpsk,
    make_double_ppm,
    make_ppm,
    make_psk,
)
from srmlab.errors import DomainError, GramSingular
from srmlab.gus import block_diagonalize, fast_srm
from srmlab.srm import certify_srm, channel_stats

PHOTON_GRID = (0.1, 0.5, 1.0, 2.0, 5.0, 10.0)
DELTA_GRID = (math.pi / 8, math.pi / 4, 3 * math.pi / 8, math.pi / 2)


class TestEqualAmplitudePairs:
    def test_matches_four_phase_constellation_at_quarter_turn(self):
        pc = pc_double_bpsk_equal_amp(1.0, math.pi / 2)
        expected = single_gus_pc(weighted_gram(make_psk(4, 1.0))[0])
        assert pc == pytest.approx(expected, abs=1e-12)

    def test_matches_pipeline_on_grid(self):
        for photon_number in PHOTON_GRID:
            alpha = math.sqrt(photon_number)
            for delta in DELTA_GRID:
                closed = pc_double_bpsk_equal_amp(alpha, delta)
                result = fast_srm(
                    make_double_bpsk(alpha, alpha * cmath.exp(1j * delta), 0.25)
                )
                assert closed == pytest.approx(result.pc, abs=1e-10)

    def test_zero_offset_evaluates_but_pipeline_rejects(self):
        # coincident pairs: chi = 1 and xi = eta, so the closed form
        # collapses to half the two-state bound
        value = pc_double_bpsk_equal_amp(1.0, 0.0)
        eta = math.exp(-2)
        expected = (1 + math.sqrt(1 - eta**2)) / 4
        assert value == pytest.approx(expected, abs=1e-12)
        with pytest.raises(GramSingular):
            fast_srm(make_double_bpsk(1.0, 1.0, 0.25))

    def test_monotone_in_offset_and_energy(self):
        deltas = [0.0, math.pi / 8, math.pi / 4, 3 * math.pi / 8, math.pi / 2]
        grid = np.linspace(0.1, 10, 25)
        for photon_number in grid:
            values = [pc_double_bpsk_equal_amp(math.sqrt(photon_number), d) for d in deltas]
            assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
        for delta in deltas[1:]:
            values = [pc_double_bpsk_equal_amp(math.sqrt(pn), delta) for pn in grid]
            assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_domain_errors(self):
        for alpha in (0.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                pc_double_bpsk_equal_amp(alpha, math.pi / 2)
        with pytest.raises(DomainError):
            pc_double_bpsk_equal_amp(math.nan, 0.3)
        with pytest.raises(DomainError):
            pc_double_bpsk_equal_amp(1.0, 2.0)


class TestPriorOptimization:
    def test_bright_limit_approaches_one_quarter(self):
        p_star = optimize_prior_4pam(math.sqrt(10.0))
        assert abs(p_star - 0.25) < 0.01

    def test_dim_pulses_need_skewed_priors(self):
        p_star = optimize_prior_4pam(math.sqrt(0.1))
        assert abs(p_star - 0.25) > 0.01

    def test_block_traces_balance_at_root(self):
        for photon_number in (0.5, 1.0, 2.0, 10.0):
            alpha = math.sqrt(photon_number)
            p_star = optimize_prior_4pam(alpha)
            g1, g2 = pam4_block_traces(alpha, p_star)
            assert abs(g1 - g2) <= 1e-10

    def test_matches_grid_scan_oracle(self):
        alpha = 1.0
        p_star = optimize_prior_4pam(alpha)
        grid = np.arange(1e-4, 0.5, 1e-4)
        gaps = np.array([abs(np.subtract(*pam4_block_traces(alpha, p))) for p in grid])
        p_grid = float(grid[gaps.argmin()])
        assert abs(p_star - p_grid) <= 2e-4
        # frozen from the grid-scan oracle above
        assert p_star == pytest.approx(0.2505815662113804, abs=1e-9)

    def test_certified_by_pipeline(self):
        alpha = 1.0
        p_star = optimize_prior_4pam(alpha)
        ens = make_double_bpsk(alpha, 3 * alpha, p_star)
        _, balanced = trace_criterion(block_sqrt(block_diagonalize(ens)))
        assert balanced
        gram = weighted_gram(ens)
        assert verify_theorem1_reference(gram, principal_sqrt(gram)).optimal
        assert certify_srm(fast_srm(ens)).optimal

    def test_closed_form_traces_match_pipeline(self):
        alpha, p = 1.0, 0.3
        g1, g2 = pam4_block_traces(alpha, p)
        ens = make_double_bpsk(alpha, 3 * alpha, p)
        g, _ = trace_criterion(block_sqrt(block_diagonalize(ens)))
        assert g1 == pytest.approx(g[0], abs=1e-12)
        assert g2 == pytest.approx(g[1], abs=1e-12)

    def test_domain_error(self):
        for alpha in (0.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                optimize_prior_4pam(alpha)


class TestPpmClosedForm:
    def test_matches_pipeline(self):
        for m in (2, 3, 8, 16):
            for photon_number in (0.5, 1.0, 2.0, 5.0):
                alpha = math.sqrt(photon_number)
                form = ppm_closed_form(m, alpha)
                ens = make_ppm(m, alpha)
                result = fast_srm(ens)
                dense = dense_route(ens)
                assert form.pc == pytest.approx(result.pc, abs=1e-10)
                assert form.pc == pytest.approx(dense.pc, abs=1e-10)
                for root in (dense_factor(result), dense_factor(dense)):
                    assert form.correct == pytest.approx(root[0, 0].real, abs=1e-10)
                    assert form.cross == pytest.approx(root[0, 1].real, abs=1e-10)

    def test_two_slots_hit_the_binary_bound(self):
        chi = math.exp(-1)
        form = ppm_closed_form(2, 1.0)
        assert form.pc == pytest.approx((1 + math.sqrt(1 - chi**2)) / 2, abs=1e-12)

    def test_orthogonal_limit(self):
        alpha = math.sqrt(-math.log(1e-8))
        assert ppm_closed_form(4, alpha).pc == pytest.approx(1.0, abs=1e-6)

    def test_indistinguishable_limit_scale(self):
        # Pc approaches 1/m like sqrt(1 - chi): at chi = 1 - 1e-8 the gap
        # is about 7e-5 for m = 2
        alpha = math.sqrt(-math.log1p(-1e-8))
        gap = ppm_closed_form(2, alpha).pc - 0.5
        assert 0 < gap < 1e-4

    @pytest.mark.parametrize("photon_number", [1e-12, 1e-8])
    @pytest.mark.parametrize("m", [2, 3, 16, 64])
    def test_low_energy_excess_has_no_cancellation(self, m, photon_number):
        # Pc - 1/m = (m-1) t (2h + (m-2) t) / m^2 with t = sqrt(1 - chi) from
        # its series and h = sqrt(m - (m-1) t^2); no term cancels
        n = photon_number
        t = math.sqrt(n - n * n / 2 + n**3 / 6)
        h = math.sqrt(m - (m - 1) * t * t)
        reference = (m - 1) * t * (2 * h + (m - 2) * t) / m**2
        excess = ppm_closed_form(m, math.sqrt(n)).pc - 1 / m
        assert abs(excess - reference) <= 1e-8 * reference

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            ppm_closed_form(1, 1.0)
        with pytest.raises(DomainError):
            ppm_closed_form(4, 0.0)
        for m, alpha in ((math.inf, 1.0), (math.nan, 1.0), (2, math.nan), (2, math.inf)):
            for evaluator in (ppm_closed_form, double_ppm_closed_form, mutual_info_ppm, mutual_info_double_ppm):
                with pytest.raises(DomainError):
                    evaluator(m, alpha)


class TestDoublePpmClosedForm:
    def test_matches_pipeline(self):
        for m in (2, 3, 16):
            for photon_number in (0.5, 1.0, 2.0):
                alpha = math.sqrt(photon_number)
                form = double_ppm_closed_form(m, alpha)
                result = fast_srm(make_double_ppm(m, alpha))
                assert form.pc == pytest.approx(result.pc, abs=1e-10)
                factor = dense_factor(result)
                assert form.correct == pytest.approx(factor[0, 0].real, abs=1e-10)
                assert form.flip == pytest.approx(factor[0, m].real, abs=1e-10)
                assert form.cross == pytest.approx(factor[0, 1].real, abs=1e-10)
                assert form.cross == pytest.approx(factor[0, m + 1].real, abs=1e-10)

    def test_frozen_two_slot_value(self):
        # frozen from the dense pipeline
        form = double_ppm_closed_form(2, 1.0)
        assert form.pc == pytest.approx(0.9311029267069436, abs=1e-12)

    def test_spectral_identities(self):
        for m in (2, 5):
            alpha = 1.0
            chi = math.exp(-1)
            form = double_ppm_closed_form(m, alpha)
            spectrum = block_diagonalize(make_double_ppm(m, alpha))
            lam0 = spectrum[:, 0, 0].real
            lam1 = spectrum[:, 0, 1].real
            # head bin
            assert form.same_head**2 + form.flip_head**2 == pytest.approx(lam0[0], abs=1e-12)
            assert 2 * form.same_head * form.flip_head == pytest.approx(lam1[0], abs=1e-12)
            assert 2 * form.same_head * form.flip_head == pytest.approx(
                (chi * chi + (m - 1) * chi) / (2 * m), abs=1e-12
            )
            # repeated bins
            if m > 1:
                assert form.same_rest**2 + form.flip_rest**2 == pytest.approx(lam0[1], abs=1e-12)
                assert 2 * form.same_rest * form.flip_rest == pytest.approx(lam1[1], abs=1e-12)

    def test_pc_equals_2m_correct_squared(self):
        form = double_ppm_closed_form(6, 1.3)
        assert form.pc == pytest.approx(2 * 6 * form.correct**2, abs=1e-14)

    def test_orthogonal_limit(self):
        m = 4
        alpha = math.sqrt(-math.log(1e-10))
        form = double_ppm_closed_form(m, alpha)
        assert form.correct == pytest.approx(1 / math.sqrt(2 * m), abs=1e-8)
        assert form.flip == pytest.approx(0.0, abs=1e-8)
        assert form.pc == pytest.approx(1.0, abs=1e-8)


class TestMutualInformation:
    @pytest.mark.parametrize("m", [2, 3, 16])
    @pytest.mark.parametrize("photon_number", [0.5, 2.0, 20.0])
    def test_matches_channel_stats(self, m, photon_number):
        alpha = math.sqrt(photon_number)
        single = channel_stats(dense_route(make_ppm(m, alpha)))
        assert mutual_info_ppm(m, alpha) == pytest.approx(
            single.mutual_information, abs=1e-8
        )
        double_result = fast_srm(make_double_ppm(m, alpha))
        double = channel_stats(double_result)
        assert mutual_info_double_ppm(m, alpha) == pytest.approx(
            double.mutual_information, abs=1e-8
        )

    @pytest.mark.parametrize("m", [2, 16])
    def test_bright_pulse_asymptotics(self, m):
        alpha = math.sqrt(20.0)
        assert abs(mutual_info_ppm(m, alpha) - math.log2(m)) < 1e-3
        assert abs(mutual_info_double_ppm(m, alpha) - math.log2(2 * m)) < 1e-3

    def test_dim_pulse_carries_nothing(self):
        alpha = math.sqrt(1e-9)
        assert mutual_info_ppm(4, alpha) == pytest.approx(0.0, abs=1e-6)
        assert mutual_info_double_ppm(4, alpha) == pytest.approx(0.0, abs=1e-6)

    def test_phase_doubling_gains_about_one_bit(self):
        for m in (2, 4, 16):
            for photon_number in (2.0, 5.0, 10.0):
                alpha = math.sqrt(photon_number)
                assert mutual_info_double_ppm(m, alpha) > mutual_info_ppm(m, alpha)

    @pytest.mark.parametrize(
        "scheme, m",
        [("double_ppm", 256), ("double_ppm", 512), ("ppm", 16), ("ppm", 64), ("ppm", 256), ("ppm", 512)],
    )
    def test_fast_path_information_agrees_with_the_closed_form(self, scheme, m):
        # channel_stats sums the joint law along the bins, which holds the
        # error to a few ulps; a sum across constellations first does not
        closed_form = {"ppm": mutual_info_ppm, "double_ppm": mutual_info_double_ppm}[scheme]
        for photon_number in (0.5, 1.0, 2.0, 3.0, 5.0, 8.0, 10.0):
            expected = closed_form(m, math.sqrt(photon_number))
            got = evaluate_scheme(scheme, photon_number, m=m).mutual_info
            assert abs(got - expected) <= 5e-15 * expected, (photon_number, got, expected)


class TestEvaluateScheme:
    def test_ppm_point(self):
        point = evaluate_scheme("ppm", 1.0, m=3)
        assert point.pc == pytest.approx(dense_route(make_ppm(3, 1.0)).pc)
        assert point.pe == pytest.approx(1 - point.pc)
        assert point.mutual_info == pytest.approx(mutual_info_ppm(3, 1.0), abs=1e-10)
        # an integral float slot count is the same point, held as an int
        assert evaluate_scheme("ppm", 1.0, m=3.0) == point
        assert type(evaluate_scheme("ppm", 1.0, m=3.0).m) is int

    def test_double_bpsk_point_matches_closed_form(self):
        point = evaluate_scheme("double_bpsk", 1.0, delta=math.pi / 2)
        assert point.prior == 0.25
        assert point.pc == pytest.approx(pc_double_bpsk_equal_amp(1.0, math.pi / 2), abs=1e-10)

    def test_psk_point(self):
        point = evaluate_scheme("psk", 1.0, m=4)
        assert point.pc == pytest.approx(
            single_gus_pc(weighted_gram(make_psk(4, 1.0))[0]), abs=1e-12
        )

    def test_rejects_unknown_scheme(self):
        with pytest.raises(DomainError):
            evaluate_scheme("qam", 1.0, m=4)

    def test_rejects_missing_parameters(self):
        with pytest.raises(DomainError):
            evaluate_scheme("ppm", 1.0)
        with pytest.raises(DomainError):
            evaluate_scheme("double_bpsk", 1.0)
        for scheme in ("psk", "ppm", "double_ppm"):
            for m in (2.5, 3.5, math.nan, math.inf):
                with pytest.raises(DomainError, match="integer m"):
                    evaluate_scheme(scheme, 1.0, m=m)
        for delta in (math.inf, -math.inf, math.nan):
            with pytest.raises(DomainError, match="phase offset"):
                evaluate_scheme("double_bpsk", 1.0, delta=delta)

    @pytest.mark.parametrize("scheme", ["psk", "ppm", "double_ppm"])
    def test_rejects_a_prior_the_scheme_does_not_take(self, scheme):
        with pytest.raises(DomainError, match=f"scheme '{scheme}' takes no prior"):
            evaluate_scheme(scheme, 1.0, m=4, prior=0.2)

    @pytest.mark.parametrize("scheme", ["psk", "ppm", "double_ppm"])
    def test_rejects_a_delta_the_scheme_does_not_take(self, scheme):
        # a zero offset is a given value too
        for delta in (0.3, 0.0):
            with pytest.raises(DomainError, match=f"scheme '{scheme}' takes no delta"):
                evaluate_scheme(scheme, 1.0, m=4, delta=delta)

    def test_double_bpsk_rejects_a_slot_count(self):
        with pytest.raises(DomainError, match="scheme 'double_bpsk' takes no m"):
            evaluate_scheme("double_bpsk", 1.0, m=4, delta=math.pi / 2)

    def test_rejects_bad_photon_number(self):
        for photon_number in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(DomainError, match="photon number"):
                evaluate_scheme("ppm", photon_number, m=2)

    def test_sweep_point_validates(self):
        with pytest.raises(ValueError):
            SweepPoint(photon_number=1.0, pc=0.7, pe=0.2)


class TestAnalysisExtras:
    def test_pam4_overlap_identities(self):
        eta_a, eta_b, chi, xi = analysis.pam4_overlaps(1.0)
        assert eta_a == pytest.approx(math.exp(-2), abs=1e-15)
        assert chi == pytest.approx(eta_a)
        assert eta_b == pytest.approx(eta_a**9)
        assert xi == pytest.approx(eta_a**4)

    def test_block_traces_reject_bad_prior(self):
        with pytest.raises(DomainError):
            analysis.double_bpsk_block_traces(0.6, 0.1, 0.1, 0.1, 0.1)
