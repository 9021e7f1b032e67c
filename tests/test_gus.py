"""Tests for the block-circulant fast path."""

import math
import re
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    GRAMFILE_REPORTS,
    block_sqrt,
    counted_factorizations,
    counted_transforms,
    dense_ensemble,
    dense_factor,
    dense_route,
    gram_lines,
    principal_sqrt,
    random_gus_ensemble,
    reducible_gus,
    single_gus_pc,
    spectrum_to_matrix,
    trace_criterion,
    verify_theorem1_reference,
    weighted_gram,
)
from srmlab.analysis import (
    double_ppm_closed_form,
    evaluate_scheme,
    mutual_info_double_ppm,
    mutual_info_ppm,
    optimize_prior_4pam,
    pc_double_bpsk_equal_amp,
    ppm_closed_form,
)
from srmlab import linalg
from srmlab.cli import EXIT_NUMERIC, EXIT_OK, main
from srmlab.constellations import (
    GusEnsemble,
    coherent_inner,
    make_double_bpsk,
    make_double_ppm,
    make_ppm,
    make_psk,
)
from srmlab.errors import GramSingular
from srmlab.gus import _fast_srms, block_diagonalize, fast_srm
from srmlab.linalg import TOL_PSD, TOL_RECON, _bins
from srmlab.srm import SrmResult, certify_srm, channel_stats
from test_datasets import DATA, DEFAULT_DATASETS

GRAMFILES = Path(__file__).resolve().parent.parent / "gramfiles"


class TestBlockDiagonalize:
    def test_single_constellation_reduces_to_circulant_transform(self):
        ens = make_psk(5, 0.9)
        spectrum = block_diagonalize(ens)
        gram = weighted_gram(ens)
        np.testing.assert_allclose(
            spectrum[:, 0, 0], _bins(gram[0]), atol=1e-14
        )

    def test_double_bpsk_diagonal_block_spectrum(self):
        p = 0.25
        ens = make_double_bpsk(1.0, 1j, p)
        spectrum = block_diagonalize(ens)
        eta = math.exp(-2)
        np.testing.assert_allclose(
            spectrum[:, 0, 0], [p * (1 + eta), p * (1 - eta)], atol=1e-14
        )

    def test_double_bpsk_cross_block_spectrum(self):
        p = 0.3
        q = 0.5 - p
        ens = make_double_bpsk(1.0, 1j, p)
        spectrum = block_diagonalize(ens)
        chi = coherent_inner(1.0, 1j)
        xi = coherent_inner(1.0, -1j)
        scale = math.sqrt(p * q)
        np.testing.assert_allclose(
            spectrum[:, 0, 1], [scale * (chi + xi), scale * (chi - xi)], atol=1e-14
        )

    def test_double_ppm_cross_block_head(self):
        m, alpha = 5, 0.8
        chi = math.exp(-(alpha**2))
        spectrum = block_diagonalize(make_double_ppm(m, alpha))
        expected = (chi * chi + (m - 1) * chi) / (2 * m)
        assert spectrum[0, 0, 1].real == pytest.approx(expected, abs=1e-14)

    def test_reconstruction(self):
        rng = np.random.default_rng(53)
        ens = random_gus_ensemble(rng, 3, 4)
        spectrum = block_diagonalize(ens)
        rebuilt = spectrum_to_matrix(spectrum)
        np.testing.assert_allclose(rebuilt, weighted_gram(ens), atol=TOL_RECON)

    def test_coupling_matrices_are_hermitian_psd(self):
        rng = np.random.default_rng(59)
        ens = random_gus_ensemble(rng, 2, 6)
        spectrum = block_diagonalize(ens)
        for j in range(ens.m):
            d = spectrum[j]
            assert np.abs(d - d.conj().T).max() <= 1e-12
            assert np.linalg.eigvalsh((d + d.conj().T) / 2)[0] >= -1e-12


class TestBlockSqrt:
    def test_single_constellation_is_entrywise_root(self):
        ens = make_psk(4, 1.0)
        spectrum = block_diagonalize(ens)
        root = block_sqrt(spectrum)
        np.testing.assert_allclose(
            root[:, 0, 0], np.sqrt(spectrum[:, 0, 0].real), atol=1e-13
        )

    def test_double_bpsk_head_coupling_matches_closed_form(self):
        alpha, beta, p = 1.0, 1j, 0.3
        q = 0.5 - p
        ens = make_double_bpsk(alpha, beta, p)
        root = block_sqrt(block_diagonalize(ens))
        eta_a = coherent_inner(alpha, -alpha).real
        eta_b = coherent_inner(beta, -beta).real
        chi = coherent_inner(alpha, beta)
        xi = coherent_inner(alpha, -beta)
        plus = math.sqrt(p * q) * (chi + xi)
        delta_plus = p * q * ((1 + eta_a) * (1 + eta_b) - abs(chi + xi) ** 2)
        denom = math.sqrt(p * (1 + eta_a) + q * (1 + eta_b) + 2 * math.sqrt(delta_plus))
        expected = (
            np.array(
                [
                    [p * (1 + eta_a) + math.sqrt(delta_plus), plus],
                    [np.conj(plus), q * (1 + eta_b) + math.sqrt(delta_plus)],
                ]
            )
            / denom
        )
        head = np.array([[root[0, 0, 0], root[0, 0, 1]],
                         [root[0, 1, 0], root[0, 1, 1]]])
        np.testing.assert_allclose(head, expected, atol=1e-12)

    def test_double_ppm_spectral_identities(self):
        spectrum = block_diagonalize(make_double_ppm(4, 1.0))
        root = block_sqrt(spectrum)
        s0 = root[:, 0, 0]
        s1 = root[:, 0, 1]
        np.testing.assert_allclose(s0**2 + s1**2, spectrum[:, 0, 0], atol=1e-13)
        np.testing.assert_allclose(2 * s0 * s1, spectrum[:, 0, 1], atol=1e-13)

    def test_assembled_root_squares_to_gram(self):
        rng = np.random.default_rng(61)
        ens = random_gus_ensemble(rng, 3, 3)
        factor = spectrum_to_matrix(block_sqrt(block_diagonalize(ens)))
        np.testing.assert_allclose(
            factor @ factor, weighted_gram(ens), atol=TOL_RECON
        )


class TestTraceCriterion:
    def test_equal_amplitude_pairs_balanced_at_quarter_prior(self):
        for delta in (math.pi / 8, math.pi / 2):
            ens = make_double_bpsk(1.0, 1.0 * np.exp(1j * delta), 0.25)
            g, optimal = trace_criterion(block_sqrt(block_diagonalize(ens)))
            assert optimal
            assert abs(g[0] - g[1]) <= 1e-12

    def test_double_ppm_always_balanced(self):
        for m in (2, 7):
            g, optimal = trace_criterion(block_sqrt(block_diagonalize(make_double_ppm(m, 1.0))))
            assert optimal
            assert g[0] == pytest.approx(g[1], abs=1e-14)

    def test_pam_unbalanced_at_equal_priors(self):
        ens = make_double_bpsk(1.0, 3.0, 0.25)
        g, optimal = trace_criterion(block_sqrt(block_diagonalize(ens)))
        assert not optimal
        gram = weighted_gram(ens)
        assert not verify_theorem1_reference(gram, principal_sqrt(gram)).optimal


class TestFastSrm:
    def test_single_constellation_matches_spectral_formula(self):
        ens = make_psk(6, 1.2)
        result = fast_srm(ens)
        expected = single_gus_pc(weighted_gram(ens)[0])
        assert result.pc == pytest.approx(expected, abs=1e-12)
        assert result.rows.shape == (1, 1, 6)

    def test_matches_dense_route_on_named_ensembles(self):
        cases = [
            make_double_bpsk(1.0, 1j, 0.25),
            make_double_bpsk(0.7, 2.1, 0.4),
            make_double_ppm(4, 0.9),
            make_psk(8, 0.6),
        ]
        for ens in cases:
            fast_result = fast_srm(ens)
            dense_result = dense_route(ens)
            assert fast_result.pc == pytest.approx(dense_result.pc, abs=TOL_RECON)
            np.testing.assert_allclose(
                np.abs(dense_factor(fast_result)) ** 2,
                np.abs(dense_factor(dense_result)) ** 2,
                atol=TOL_RECON,
            )

    def test_matches_dense_route_on_random_ensembles(self):
        rng = np.random.default_rng(67)
        for _ in range(10):
            s = int(rng.integers(1, 4))
            m = int(rng.integers(2, 9))
            ens = random_gus_ensemble(rng, s, m)
            fast_result = fast_srm(ens)
            dense_result = dense_route(ens)
            assert fast_result.pc == pytest.approx(dense_result.pc, abs=TOL_RECON)
            np.testing.assert_allclose(
                np.abs(dense_factor(fast_result)) ** 2,
                np.abs(dense_factor(dense_result)) ** 2,
                atol=TOL_RECON,
            )
            assert fast_result.rows.shape == (s, s, m)

    def test_per_state_correct_probability_is_g_squared(self):
        rng = np.random.default_rng(71)
        ens = random_gus_ensemble(rng, 2, 5)
        result = fast_srm(ens)
        g, _ = trace_criterion(block_sqrt(block_diagonalize(ens)))
        for h in range(2):
            block = result.per_state_correct[h * 5 : (h + 1) * 5]
            np.testing.assert_allclose(block, np.full(5, g[h] ** 2), atol=1e-12)

    def test_root_diagonal_blocks_are_flat(self):
        rng = np.random.default_rng(73)
        ens = random_gus_ensemble(rng, 3, 4)
        result = fast_srm(ens)
        g, _ = trace_criterion(block_sqrt(block_diagonalize(ens)))
        for h in range(3):
            diag = np.diagonal(dense_factor(result))[h * 4 : (h + 1) * 4].real
            assert diag.max() - diag.min() <= TOL_RECON
            assert diag[0] == pytest.approx(g[h], abs=1e-12)

    def test_quarter_turn_pair_matches_four_phase_value(self):
        result = fast_srm(make_double_bpsk(1.0, 1j, 0.25))
        expected = single_gus_pc(weighted_gram(make_psk(4, 1.0))[0])
        assert result.pc == pytest.approx(expected, abs=1e-12)
        assert result.pc == pytest.approx(pc_double_bpsk_equal_amp(1.0, math.pi / 2), abs=1e-12)

    def test_double_ppm_pc_from_diagonal_amplitude(self):
        m = 2
        result = fast_srm(make_double_ppm(m, 1.0))
        g = result.rows[0, 0, 0].real
        assert result.pc == pytest.approx(2 * m * g**2, abs=1e-12)
        assert g == pytest.approx(double_ppm_closed_form(m, 1.0).correct, abs=1e-12)

    def test_double_ppm_at_two_to_the_sixteen_matches_closed_form(self):
        # 2^17 double PPM and 2^16 PPM states: the dense Gram matrices would
        # need 256 GiB and 64 GiB, so this runs only because the path works
        # on first rows
        m = 2**16
        for alpha in (0.5, 1.5):
            spectrum = block_diagonalize(make_double_ppm(m, alpha))
            g, optimal = trace_criterion(block_sqrt(spectrum))
            assert optimal
            expected = double_ppm_closed_form(m, alpha).pc
            assert abs(2 * m * g[0] ** 2 - expected) <= 1e-12

            g, optimal = trace_criterion(block_sqrt(block_diagonalize(make_ppm(m, alpha))))
            assert optimal
            assert abs(m * g[0] ** 2 - ppm_closed_form(m, alpha).pc) <= 1e-12

            # the whole sweep point, Pc and MI read from the root's first rows
            for scheme, form, info in (
                ("ppm", ppm_closed_form, mutual_info_ppm),
                ("double_ppm", double_ppm_closed_form, mutual_info_double_ppm),
            ):
                point = evaluate_scheme(scheme, alpha * alpha, m=m)
                assert abs(point.pc - form(m, alpha).pc) <= 1e-12
                assert abs(point.mutual_info - info(m, alpha)) <= 1e-10

    def test_one_eigendecomposition_and_no_dense_base(self, monkeypatch):
        calls = []
        eigh = np.linalg.eigh

        def counted(mat, *args, **kwargs):
            calls.append(np.shape(mat))
            return eigh(mat, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        # every bin of a small or s = 1 stack goes to eigh; a large double
        # PPM stack sends only its few bitwise-distinct coupling matrices
        cases = [
            (make_double_ppm(8, 1.0), (8, 2, 2)),
            (make_ppm(8, 1.0), (8, 1, 1)),
            (make_ppm(256, 1.0), (256, 1, 1)),
        ]
        for m in (256, 512):
            ens = make_double_ppm(m, 1.0)
            distinct = len({matrix.tobytes() for matrix in block_diagonalize(ens)})
            assert distinct < m // 16
            cases.append((ens, (distinct, 2, 2)))
        for ens, shape in cases:
            calls.clear()
            fast_srm(ens)
            assert calls == [shape]

    def test_large_double_ppm_allocates_no_dense_matrix(self):
        # the build, root, channel, certificate and sweep of 2 * 4096 states
        # stay in first rows and coupling stacks: a dense Gram matrix or root
        # alone would take 8192^2 * 16 B = 1.07 GB, the path peaks near 2 MB
        tracemalloc.start()
        try:
            result = fast_srm(make_double_ppm(4096, 1.0))
            stats = channel_stats(result)
            verdict = certify_srm(result)
            point = evaluate_scheme("double_ppm", 1.0, m=4096)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6
        assert verdict.optimal
        assert point.pc == result.pc
        assert point.mutual_info == stats.mutual_information
        assert abs(result.pc - double_ppm_closed_form(4096, 1.0).pc) <= 1e-12

    @pytest.mark.parametrize(
        "build",
        [
            lambda: make_psk(8, 1.5),
            lambda: make_ppm(2, 1.0),
            lambda: make_double_ppm(16, 1.0),
            lambda: make_double_bpsk(1.0, 1j, 0.3),
            lambda: random_gus_ensemble(np.random.default_rng(5), 3, 5),
            lambda: dense_ensemble([0.5, 0.5], [[1.0, 0.3j], [-0.3j, 1.0]]),
        ],
        ids=["psk", "ppm", "double_ppm", "double_bpsk", "random_s3", "one_bin"],
    )
    def test_call_budget(self, build, monkeypatch):
        # building validates without a transform or an eigensolve, and the
        # root takes one transform each way and one batched eigh
        calls = counted_transforms(monkeypatch)
        ensemble = build()
        calls.clear()
        ensemble = GusEnsemble(ensemble.rows, ensemble.constellation_priors)
        assert calls == {}
        fast_srm(ensemble)
        assert calls == {"fft": 1, "ifft": 1, "eigh": 1}

    def test_rejects_coincident_constellations(self):
        with pytest.raises(GramSingular):
            fast_srm(make_double_bpsk(1.0, 1.0, 0.25))


def pam4_at_p_star(photon_number: float) -> GusEnsemble:
    alpha = math.sqrt(photon_number)
    return make_double_bpsk(alpha, 3.0 * alpha, optimize_prior_4pam(alpha))


BATCHES = {
    "psk8": [make_psk(8, a) for a in (0.6, 1.0, 1.5, 2.0)],
    "ppm8": [make_ppm(8, a) for a in (0.3, 1.0, 2.5)],
    "double_ppm16": [make_double_ppm(16, a) for a in (0.5, 1.0, 1.7)],
    "double_bpsk": [
        make_double_bpsk(a, a * np.exp(1j * d), p)
        for a, d, p in ((0.4, 0.3, 0.25), (1.0, math.pi / 2, 0.1), (2.0, 1.2, 0.4), (1.0, 3.0, 0.2))
    ],
    "pam4_p_star": [pam4_at_p_star(x) for x in (0.1, 1.0, 4.0)],
    "random_s3_m5": [random_gus_ensemble(np.random.default_rng(seed), 3, 5) for seed in range(3)],
}


class TestBatchedRoot:
    """Several ensembles of one shape, rooted together, give each one's own root."""

    @pytest.mark.parametrize("k", [1, 3, 400])
    def test_call_budget(self, k, monkeypatch):
        # the stacked weighted rows of the whole batch take one forward
        # transform, one eigh and one inverse transform, whatever k is;
        # the default fig1 grid roots 400 ensembles in one call
        ensembles = [
            make_double_bpsk(a, a * np.exp(1j * d), 0.25)
            for a, d in zip(np.linspace(0.3, 3.0, k), np.linspace(0.1, 1.5, k))
        ]
        calls = counted_transforms(monkeypatch)
        assert len(_fast_srms(ensembles, TOL_PSD)) == k
        assert calls == {"fft": 1, "ifft": 1, "eigh": 1}

    @pytest.mark.parametrize("name", sorted(BATCHES))
    def test_each_root_is_bitwise_the_single_one(self, name):
        ensembles = BATCHES[name]
        results = _fast_srms(ensembles, TOL_PSD)
        assert len(results) == len(ensembles) >= 3
        for ensemble, result in zip(ensembles, results):
            alone = fast_srm(ensemble)
            assert result.rows.shape == alone.rows.shape
            assert result.rows.tobytes() == alone.rows.tobytes()

    def test_singular_ensemble_is_named_by_its_own_eigenvalue(self):
        # the 2e-7 pair dips lower than the 1e-12 one, but the 1e-12 pair
        # comes first, so its own smallest eigenvalue is the one reported
        good = make_double_bpsk(1.0, 1j, 0.25)
        first, lower = (
            make_double_bpsk(math.sqrt(x), math.sqrt(x) * np.exp(1j * math.pi / 8), 0.25)
            for x in (1e-12, 2e-7)
        )
        messages = []
        for ensemble in (first, lower):
            with pytest.raises(GramSingular) as alone:
                fast_srm(ensemble)
            messages.append(str(alone.value))
        assert messages == [
            f"Gram matrix is singular (min eigenvalue {value} < 1e-10); "
            "the weighted states are not linearly independent"
            for value in ("-7.623e-18", "-9.995e-18")
        ]
        with pytest.raises(GramSingular) as batched:
            _fast_srms([good, first, lower], TOL_PSD)
        assert str(batched.value) == messages[0]

    @pytest.mark.parametrize(
        "ensembles",
        [
            [make_psk(8, 1.0), make_ppm(4, 1.0), make_psk(8, 2.0)],
            [make_double_ppm(2, 1.0), make_double_bpsk(1.0, 1j, 0.25), make_double_ppm(4, 1.0)],
            [make_psk(4, 1.0), make_double_ppm(4, 1.0)],
            [],
        ],
        ids=["m", "m_after_a_match", "s", "none"],
    )
    def test_refuses_ensembles_of_different_shapes(self, ensembles):
        with pytest.raises(ValueError, match="must share one"):
            _fast_srms(ensembles, TOL_PSD)


def exact_double_ppm_stack(m: int, alpha: float) -> np.ndarray:
    """Double PPM's weighted (m, 2, 2) coupling stack, written per bin without an FFT.

    Bin 0 sums the first rows, [1, chi, ..., chi] and [chi^2, chi, ..., chi];
    every other bin cancels their common chi in closed form, through
    expm1(-|alpha|^2) = chi - 1.
    """
    chi = math.exp(-alpha * alpha)
    drop = math.expm1(-alpha * alpha)
    same, cross = 1.0 + (m - 1) * chi, chi * chi + (m - 1) * chi
    stack = np.empty((m, 2, 2), dtype=complex)
    stack[0] = [[same, cross], [cross, same]]
    stack[1:] = [[-drop, chi * drop], [chi * drop, -drop]]
    return stack / (2 * m)


class TestGivenSpectrum:
    """The kernel roots a coupling stack however its caller obtained it."""

    @pytest.mark.parametrize("m", [2, 16, 256])
    @pytest.mark.parametrize("alpha", [0.1, 0.5, 1.0, 2.0])
    def test_exact_double_ppm_spectrum_gives_the_fast_root(self, m, alpha):
        exact = SrmResult(linalg._root_rows(exact_double_ppm_stack(m, alpha), TOL_PSD))
        result = fast_srm(make_double_ppm(m, alpha))
        assert exact.rows.shape == result.rows.shape == (2, 2, m)
        assert np.abs(exact.rows - result.rows).max() <= 1e-14
        assert exact.pc == pytest.approx(result.pc, abs=1e-14)


DISTINCT_CASES = {
    "double_ppm64": lambda: [make_double_ppm(64, 1.0)],
    "double_ppm256": lambda: [make_double_ppm(256, 0.6)],
    "double_ppm512": lambda: [make_double_ppm(512, 1.7)],
    "random_s3_m64": lambda: [random_gus_ensemble(np.random.default_rng(11), 3, 64)],
    "double_ppm64_batch": lambda: [make_double_ppm(64, a) for a in (0.3, 1.0, 1.7)],
    "double_ppm256_batch": lambda: [make_double_ppm(256, a) for a in (0.6, 2.5)],
}

# batches of ensembles below the floor whose stacked bins reach it
BELOW_FLOOR_BATCHES = {
    "pam4_p_star_batch": lambda: [pam4_at_p_star(x) for x in np.linspace(0.1, 10.0, 32)],
    "double_ppm16_batch": lambda: [make_double_ppm(16, a) for a in (0.3, 0.6, 1.0, 1.7, 2.5)],
}


def refuse_sort(stack):
    raise AssertionError(f"sorted a stack of {len(stack)} bins")


class TestDistinctBins:
    """An ensemble of many bins decomposes each bitwise-distinct coupling matrix once, to the same bits."""

    @pytest.mark.parametrize("name", sorted(DISTINCT_CASES))
    def test_roots_are_bitwise_those_of_every_bin(self, name, monkeypatch):
        ensembles = DISTINCT_CASES[name]()
        assert ensembles[0].m >= linalg._DISTINCT_FLOOR
        sorts = []
        distinct = linalg._distinct

        def counted(stack):
            sorts.append(len(stack))
            return distinct(stack)

        def roots():
            return [result.rows.tobytes() for result in _fast_srms(ensembles, TOL_PSD)]

        monkeypatch.setattr(linalg, "_distinct", counted)
        with_sort = roots()
        # a batch is sorted once, over the bins of all its ensembles
        assert sorts == [sum(ensemble.m for ensemble in ensembles)]
        for ensemble, root in zip(ensembles, with_sort):
            assert fast_srm(ensemble).rows.tobytes() == root
        monkeypatch.setattr(linalg, "_DISTINCT_FLOOR", sys.maxsize)
        sorts.clear()
        assert roots() == with_sort
        assert sorts == []

    @pytest.mark.parametrize("name", sorted(BELOW_FLOOR_BATCHES))
    def test_a_batch_below_the_floor_never_sorts(self, name, monkeypatch):
        # the floor reads each ensemble's own bins, not the stacked batch's
        ensembles = BELOW_FLOOR_BATCHES[name]()
        assert ensembles[0].m < linalg._DISTINCT_FLOOR <= len(ensembles) * ensembles[0].m
        alone = [fast_srm(ensemble).rows.tobytes() for ensemble in ensembles]
        monkeypatch.setattr(linalg, "_distinct", refuse_sort)
        assert [result.rows.tobytes() for result in _fast_srms(ensembles, TOL_PSD)] == alone

    def test_singular_sweep_reports_the_same_line(self, monkeypatch, capsys):
        argv = ["sweep", "--scheme", "double_ppm", "--m", "256", "--grid", "2e-7:2e-7:1"]
        outcomes = []
        for floor in (linalg._DISTINCT_FLOOR, sys.maxsize):
            monkeypatch.setattr(linalg, "_DISTINCT_FLOOR", floor)
            code = main(argv)
            outcomes.append((code, capsys.readouterr().err))
        assert outcomes[0] == outcomes[1] == (
            EXIT_NUMERIC,
            "error: Gram matrix is singular (min eigenvalue 5.551e-17 < 1e-10); "
            "the weighted states are not linearly independent\n",
        )

    def test_signed_zeros_stay_apart(self):
        # bins that are equal as numbers but not as bits are decomposed apart
        a = np.eye(2, dtype=complex)
        negative_real, negative_imag = a.copy(), a.copy()
        negative_real[0, 1] = complex(-0.0, 0.0)
        negative_imag[1, 0] = complex(0.0, -0.0)
        stack = np.array([a, negative_real, negative_imag, a, negative_real])
        assert (stack == a).all()
        distinct, inverse = linalg._distinct(stack)
        assert len(distinct) == 3
        assert len({inverse[0], inverse[1], inverse[2]}) == 3
        assert (inverse[3], inverse[4]) == (inverse[0], inverse[1])
        assert distinct[inverse].tobytes() == stack.tobytes()

    def test_default_datasets_and_checks_never_sort(self, monkeypatch, tmp_path):
        # every root that the default datasets and `check` take stays below
        # the floor: at most 16 bins per ensemble, or one bin of a dense
        # Gram; fig1 batches its whole default grid, 400 double-BPSK
        # ensembles of two bins each, and still does not sort
        out = tmp_path / "report.txt"
        reports = {GRAMFILES / f"{stem}.gram": report for stem, report in GRAMFILE_REPORTS.items()}
        for n in (16, 32, 64, 128):
            for blocks in (False, True):
                path = tmp_path / f"case{n}_{blocks:d}.gram"
                path.write_text("\n".join(gram_lines(np.random.default_rng(n + blocks), n, blocks)) + "\n")
                assert main(["check", str(path), "--out", str(out)]) == EXIT_OK
                reports[path] = out.read_text()

        monkeypatch.setattr(linalg, "_distinct", refuse_sort)
        for path, report in reports.items():
            assert main(["check", str(path), "--out", str(out)]) == EXIT_OK
            assert out.read_text() == report
        for name, argv in DEFAULT_DATASETS.items():
            assert main([*argv, "--out", str(out)]) == EXIT_OK
            assert out.read_text() == (DATA / f"{name}.csv").read_text()


def refuse_split(adjacency):
    raise AssertionError(f"split the {len(adjacency)} constellations of a stack into groups")


class TestCoupledGroups:
    """Constellations that no coupling entry joins are rooted apart, each group of a size in one ``eigh``."""

    @pytest.mark.parametrize("m", [8, 64])
    def test_orthogonal_constellation_is_rooted_apart(self, m, monkeypatch):
        # at m = 64 the coupled pair's bins go through the distinct-bin sort
        ensemble = reducible_gus(np.random.default_rng(m), m)
        stack = block_diagonalize(ensemble)
        sorts = []
        distinct = linalg._distinct

        def counted(part):
            sorts.append(part.shape)
            return distinct(part)

        monkeypatch.setattr(linalg, "_distinct", counted)
        calls = counted_factorizations(monkeypatch)
        rows = fast_srm(ensemble).rows
        assert sorted(calls["eigh"]) == [(m, 1, 1), (m, 2, 2)]
        assert sorts == ([(m, 2, 2)] if m >= linalg._DISTINCT_FLOOR else [])
        assert (rows[:2, 2] == 0).all() and (rows[2, :2] == 0).all()
        for group in (slice(0, 2), slice(2, 3)):
            alone = linalg._root_rows(stack[:, group, group], TOL_PSD)
            assert rows[group, group].tobytes() == alone.tobytes()
        np.testing.assert_allclose(
            dense_factor(SrmResult(rows)), dense_route(ensemble).rows[:, :, 0], rtol=0, atol=1e-14
        )

    def test_singular_ensemble_of_a_batch_is_named_over_all_its_groups(self):
        # each ensemble is a pair of shift-orthogonal constellations with
        # overlap c, whose weighted eigenvalues are 0.0375 (1 +- c) in every
        # bin, beside a regular constellation 2. The pair of the second
        # ensemble dips to 7.5e-11 and that of the third lower, to 5e-11; the
        # second is the first singular ensemble, so its value is named
        m = 8
        third = random_gus_ensemble(np.random.default_rng(3), 1, m)

        def pair_beside_third(c):
            rows = np.zeros((3, 3, m), dtype=complex)
            rows[0, 0, 0] = rows[1, 1, 0] = 1.0
            rows[0, 1, 0] = rows[1, 0, 0] = c
            rows[2, 2] = third.rows[0, 0]
            return GusEnsemble(rows=rows, constellation_priors=np.array([0.3, 0.3, 0.4]) / m)

        batch = [pair_beside_third(c) for c in (0.5, 1 - 2e-9, 1 - 4e-9 / 3)]
        lowest = [np.linalg.eigvalsh(weighted_gram(ensemble))[0] for ensemble in batch]
        assert lowest[2] < lowest[1] < TOL_PSD < lowest[0]
        with pytest.raises(GramSingular) as raised:
            _fast_srms(batch, TOL_PSD)
        named = re.search(r"min eigenvalue (\S+) <", str(raised.value)).group(1)
        assert float(named) == pytest.approx(lowest[1], rel=1e-3)

    def test_default_datasets_and_irreducible_checks_never_split(self, monkeypatch, tmp_path):
        # every coupling stack that the default datasets, the default and
        # large sweeps and `check` on a one-block file root couples all its
        # constellations, so none of them looks for groups
        out = tmp_path / "report.txt"
        stems = ("binary_equal", "binary_biased")
        reports = {GRAMFILES / f"{stem}.gram": GRAMFILE_REPORTS[stem] for stem in stems}
        for n in (16, 32, 64, 128):
            path = tmp_path / f"case{n}.gram"
            path.write_text("\n".join(gram_lines(np.random.default_rng(n), n, False)) + "\n")
            assert main(["check", str(path), "--out", str(out)]) == EXIT_OK
            reports[path] = out.read_text()
        large = (
            ["sweep", "--scheme", "ppm", "--m", "256"],
            ["sweep", "--scheme", "double_ppm", "--m", "256,512"],
        )
        sweeps = {}
        for argv in large:
            assert main([*argv, "--out", str(out)]) == EXIT_OK
            sweeps[tuple(argv)] = out.read_text()
        psk = ["sweep", "--scheme", "psk"]
        failed = main([*psk, "--out", str(out)])
        assert failed == EXIT_NUMERIC

        monkeypatch.setattr(linalg, "_components", refuse_split)
        for path, report in reports.items():
            assert main(["check", str(path), "--out", str(out)]) == EXIT_OK
            assert out.read_text() == report
        for name, argv in DEFAULT_DATASETS.items():
            assert main([*argv, "--out", str(out)]) == EXIT_OK
            assert out.read_text() == (DATA / f"{name}.csv").read_text()
        for argv, rows in sweeps.items():
            assert main([*argv, "--out", str(out)]) == EXIT_OK
            assert out.read_text() == rows
        assert main([*psk, "--out", str(out)]) == failed

    def test_a_pair_coupled_in_one_bin_only_is_one_group(self, monkeypatch):
        # two constellations of shift-orthogonal states whose cross row
        # (0.2, -0.2, 0.2, -0.2) transforms to zero in every bin but bin 2:
        # the first matrix has zero entries, yet the pair is one group
        rows = np.zeros((2, 2, 4), dtype=complex)
        rows[0, 0, 0] = rows[1, 1, 0] = 1.0
        rows[0, 1] = rows[1, 0] = [0.2, -0.2, 0.2, -0.2]
        ensemble = GusEnsemble(rows=rows, constellation_priors=(0.125, 0.125))
        stack = block_diagonalize(ensemble)
        assert (stack[:, 0, 1] != 0).tolist() == [False, False, True, False]
        calls = counted_factorizations(monkeypatch)
        result = fast_srm(ensemble)
        assert calls["eigh"] == [(4, 2, 2)]
        np.testing.assert_allclose(
            dense_factor(result), dense_route(ensemble).rows[:, :, 0], rtol=0, atol=1e-14
        )

    def test_a_one_block_file_with_zero_overlaps_is_one_group(self, monkeypatch, tmp_path):
        # states 0 and 2 are orthogonal but both coupled to 1: one group,
        # rooted whole as the (1, 3, 3) stack
        path = tmp_path / "path.gram"
        path.write_text("n 3\npriors 0.3 0.3 0.4\ninner 0 1 0.2 0\ninner 1 2 0.1 0.1\n")
        calls = counted_factorizations(monkeypatch)
        assert main(["check", str(path), "--out", str(tmp_path / "report.txt")]) == EXIT_OK
        assert calls["eigh"] == [(1, 3, 3)]


class TestSpectralRegrouping:
    def test_permutation_between_layouts_is_an_exact_identity(self):
        # interleaving states (constellation-major -> shift-major) turns the
        # block-of-diagonals layout into a direct sum of the per-bin
        # coupling matrices, and back
        rng = np.random.default_rng(79)
        s, m = 3, 4
        ens = random_gus_ensemble(rng, s, m)
        spectrum = block_diagonalize(ens)
        sm = s * m
        lam = np.zeros((sm, sm), dtype=complex)
        for h in range(s):
            for k in range(s):
                for j in range(m):
                    lam[h * m + j, k * m + j] = spectrum[j, h, k]
        perm = np.zeros((sm, sm))
        for k in range(s):
            for i in range(m):
                perm[i * s + k, k * m + i] = 1.0
        d = perm @ lam @ perm.T
        for j in range(m):
            np.testing.assert_array_equal(
                d[j * s : (j + 1) * s, j * s : (j + 1) * s], spectrum[j]
            )
        off = d.copy()
        for j in range(m):
            off[j * s : (j + 1) * s, j * s : (j + 1) * s] = 0
        assert np.abs(off).max() == 0.0
        np.testing.assert_array_equal(perm.T @ d @ perm, lam)
