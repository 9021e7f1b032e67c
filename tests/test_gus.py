"""Tests for the block-circulant fast path."""

import functools
import math
import tracemalloc
import warnings
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
    hermitian_eig,
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
from srmlab import TOL_PSD, linalg
from srmlab.cli import EXIT_NUMERIC, EXIT_OK, TOL_RECON, load_gram_file, main
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
from srmlab.srm import SrmResult, certify_srm, channel_stats
from test_datasets import DATA, DEFAULT_DATASETS

GRAMFILES = Path(__file__).resolve().parent.parent / "gramfiles"


class TestBlockDiagonalize:
    def test_single_constellation_reduces_to_circulant_transform(self):
        ens = make_psk(5, 0.9)
        spectrum = block_diagonalize(ens)
        gram = weighted_gram(ens)
        np.testing.assert_allclose(
            spectrum[:, 0, 0], np.fft.ifft(gram[0], norm="forward"), atol=1e-14
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
        "build, lapack",
        [
            (lambda: make_psk(8, 1.5), {}),
            (lambda: make_ppm(2, 1.0), {}),
            (lambda: make_ppm(256, 1.0), {}),
            (lambda: make_double_ppm(16, 1.0), {}),
            (lambda: make_double_ppm(512, 1.0), {}),
            (lambda: make_double_bpsk(1.0, 1j, 0.3), {}),
            (lambda: random_gus_ensemble(np.random.default_rng(5), 3, 5), {"eigh": 1}),
            (lambda: dense_ensemble([0.5, 0.5], [[1.0, 0.3j], [-0.3j, 1.0]]), {}),
        ],
        ids=["psk", "ppm", "ppm256", "double_ppm", "double_ppm512", "double_bpsk", "random_s3", "one_bin"],
    )
    def test_call_budget(self, build, lapack, monkeypatch):
        # building validates without a transform or a np.linalg call; the
        # root takes one transform each way, and a stack of s >= 3 one
        # batched eigh besides, while s <= 2 is rooted in closed form with
        # no np.linalg call, at any m
        calls = counted_transforms(monkeypatch)
        ensemble = build()
        calls.clear()
        ensemble = GusEnsemble(ensemble.rows, ensemble.constellation_priors)
        assert calls == {}
        fast_srm(ensemble)
        assert calls == {"fft": 1, "ifft": 1, **lapack}

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
        # transform and one inverse transform, whatever k is, and its 2 x 2
        # bins no np.linalg call; the default fig1 grid roots 400 ensembles
        # in one call. A batch of s = 3 takes one eigh of all its bins
        ensembles = [
            make_double_bpsk(a, a * np.exp(1j * d), 0.25)
            for a, d in zip(np.linspace(0.3, 3.0, k), np.linspace(0.1, 1.5, k))
        ]
        triples = [random_gus_ensemble(np.random.default_rng(seed), 3, 5) for seed in range(k)]
        calls = counted_transforms(monkeypatch)
        assert len(_fast_srms(ensembles)) == k
        assert calls == {"fft": 1, "ifft": 1}
        calls.clear()
        assert len(_fast_srms(triples)) == k
        assert calls == {"fft": 1, "ifft": 1, "eigh": 1}

    @pytest.mark.parametrize("name", sorted(BATCHES))
    def test_each_root_is_bitwise_the_single_one(self, name):
        ensembles = BATCHES[name]
        results = _fast_srms(ensembles)
        assert len(results) == len(ensembles) >= 3
        for ensemble, (result, _) in zip(ensembles, results):
            alone = fast_srm(ensemble)
            assert result.rows.shape == alone.rows.shape
            assert result.rows.tobytes() == alone.rows.tobytes()

    def test_each_ensemble_gets_its_own_least_eigenvalue(self):
        # the 2e-7 pair dips lower than the 1e-12 one; the batch tests no
        # ensemble, and hands back the value that each refuses itself with
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
        lowest = [low for _, low in _fast_srms([good, first, lower])]
        assert lowest[0] > TOL_PSD
        assert [f"{low:.3e}" for low in lowest[1:]] == ["-7.623e-18", "-9.995e-18"]

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
            _fast_srms(ensembles)


PROJECTED = {
    **{f"ppm{m}": functools.partial(make_ppm, m, 1.0) for m in (2, 16, 512)},
    **{f"double_ppm{m}": functools.partial(make_double_ppm, m, 1.0) for m in (2, 16, 512)},
    "double_bpsk": lambda: make_double_bpsk(0.8, 1.1 * np.exp(0.7j), 0.3),
    "split_groups": lambda: reducible_gus(np.random.default_rng(16), 16),
    "dense_check_file": lambda: load_gram_file(str(GRAMFILES / "binary_biased.gram"))[0],
}


def assert_exactly_hermitian(rows):
    # the mirror average is the kernel's one Hermitian projection: the rows
    # equal their mirror exactly (the conjugation may flip the sign of a
    # zero imaginary part, which compares equal), and every seed is real
    np.testing.assert_array_equal(rows, linalg._mirror(rows))
    s = len(rows)
    assert (rows[np.arange(s), np.arange(s), 0].imag == 0.0).all()


class TestOneProjection:
    """The root's first rows describe an exactly Hermitian factor, as ``certify_srm`` assumes."""

    @pytest.mark.parametrize("name", sorted(PROJECTED))
    def test_fast_root_is_its_own_mirror(self, name):
        assert_exactly_hermitian(fast_srm(PROJECTED[name]()).rows)

    @pytest.mark.parametrize("name", sorted(BATCHES))
    def test_every_batched_root_is_its_own_mirror(self, name):
        for result, _ in _fast_srms(BATCHES[name]):
            assert_exactly_hermitian(result.rows)


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
        exact = SrmResult(linalg._root_rows(exact_double_ppm_stack(m, alpha))[0])
        result = fast_srm(make_double_ppm(m, alpha))
        assert exact.rows.shape == result.rows.shape == (2, 2, m)
        assert np.abs(exact.rows - result.rows).max() <= 1e-14
        assert exact.pc == pytest.approx(result.pc, abs=1e-14)


def hermitian_stack(rng, eigenvalues) -> np.ndarray:
    """Hermitian 2 x 2 matrices V diag(w) V† of random unitaries V, written from their lower triangles."""
    w = np.asarray(eigenvalues, dtype=float)
    theta, phi = rng.uniform(0.0, math.pi, (2, len(w)))
    v = np.empty((len(w), 2, 2), dtype=complex)
    v[:, 0, 0], v[:, 1, 1] = np.cos(theta), np.cos(theta)
    v[:, 1, 0], v[:, 0, 1] = np.exp(1j * phi) * np.sin(theta), -np.exp(-1j * phi) * np.sin(theta)
    stack = (v * w[:, None, :]) @ v.conj().swapaxes(-1, -2)
    stack[:, 0, 1] = stack[:, 1, 0].conj()
    stack[:, 0, 0], stack[:, 1, 1] = stack[:, 0, 0].real, stack[:, 1, 1].real
    return stack


def closed_form_cases() -> dict[str, np.ndarray]:
    rng = np.random.default_rng(31)
    top = rng.uniform(1e-3, 1.0, 40)
    ratios = 10.0 ** -np.linspace(0.0, 12.0, 40)
    diagonal = np.zeros((4, 2, 2), dtype=complex)
    diagonal[:, 0, 0], diagonal[:, 1, 1] = [0.3, 1e-12, 0.0, -0.2], [0.3, 0.7, 0.5, 0.4]
    return {
        "psd": hermitian_stack(rng, np.stack([top, top * ratios], axis=-1)),
        "indefinite": hermitian_stack(rng, np.stack([top, -top * 10.0 ** rng.uniform(-3, 3, 40)], -1)),
        "negative_definite": hermitian_stack(rng, -np.stack([top, top * ratios], axis=-1)),
        "negative_semidefinite": hermitian_stack(rng, np.stack([np.zeros(40), -top], axis=-1)),
        "diagonal": diagonal,
        "zero": np.zeros((1, 2, 2), dtype=complex),
    }


class TestClosedFormRoot:
    """Stacks of s <= 2 are rooted in closed form, as the ``eigh`` route of ``tests/helpers.py`` roots them."""

    @pytest.mark.parametrize("name", sorted(closed_form_cases()))
    def test_agrees_with_the_eigh_route(self, name):
        # each matrix goes in as its own one-bin ensemble, whose first rows
        # are its root; the root agrees to 1e-14 times its own condition
        # number sqrt(|lam|max / |lam|min), relative to its norm
        # sqrt(|lam|max), and the least eigenvalue to 1e-15 |lam|max
        stack = closed_form_cases()[name]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows, lowest = linalg._root_rows(stack[:, None])
        root, reference = rows[..., 0], block_sqrt(stack)
        eigenvalues = hermitian_eig(stack).eigenvalues
        size = np.abs(eigenvalues).max(axis=-1)
        assert (np.abs(lowest[:, 0] - eigenvalues[:, 0]) <= 1e-15 * size).all()
        least = np.maximum(np.abs(eigenvalues).min(axis=-1), np.finfo(float).tiny)
        bound = 1e-14 * np.sqrt(size) * np.sqrt(size / least)
        assert (np.abs(root - reference).max(axis=(-2, -1)) <= bound).all()
        # no eigenvalue above rounding, a zero root; a zero coupling, zero root entries
        assert (root[eigenvalues[:, 1] < -1e-14 * size] == 0.0).all()
        uncoupled = stack[:, 1, 0] == 0.0
        assert (root[uncoupled, 1, 0] == 0.0).all() and (root[uncoupled, 0, 1] == 0.0).all()

    def test_each_bin_is_rooted_on_its_own(self):
        # a stack that holds a matrix with a negative eigenvalue takes the
        # clamp there, and every other bin keeps the bits it has alone
        cases = closed_form_cases()
        stack = np.concatenate([cases["psd"], cases["indefinite"][:3], cases["zero"]])
        _, lowest = linalg._root_rows(stack)
        batched = linalg._root_rows(stack[:, None])
        for k, matrix in enumerate(stack):
            alone_rows, alone_lowest = linalg._root_rows(matrix[None])
            assert batched[0][k].tobytes() == alone_rows.tobytes()
            assert batched[1][k].tobytes() == alone_lowest.tobytes() == lowest[k : k + 1].tobytes()

    def test_default_datasets_and_two_state_checks_make_no_lapack_call(self, monkeypatch, tmp_path):
        # every root that the default datasets and `check` on files of one or
        # two states take has s <= 2: no np.linalg call at all. A check run
        # makes one ifft and one fft, and a second fft for Theorem 3's
        # block-zeroed root under a tolerated leak
        single = tmp_path / "single.gram"
        single.write_text("n 1\npriors 1\n")
        leaky = tmp_path / "leaky.gram"
        leaky.write_text("n 2\npriors 0.4 0.6\ninner 0 1 1e-4 0\nblocks 0 1\n")
        checks = [(GRAMFILES / f"{stem}.gram", (), 1) for stem in ("binary_equal", "binary_biased")]
        checks += [(single, (), 1), (leaky, ("--tol-cond", "1e-3"), 2)]
        out = tmp_path / "report.txt"
        reports = []
        calls = counted_transforms(monkeypatch)
        for path, flags, ffts in checks:
            calls.clear()
            assert main(["check", str(path), *flags, "--out", str(out)]) == EXIT_OK
            assert calls == {"ifft": 1, "fft": ffts}
            reports.append(out.read_text())
        for name, argv in DEFAULT_DATASETS.items():
            calls.clear()
            assert main([*argv, "--out", str(out)]) == EXIT_OK
            assert out.read_text() == (DATA / f"{name}.csv").read_text()
            assert set(calls) <= {"fft", "ifft"}
        assert reports[:2] == [GRAMFILE_REPORTS["binary_equal"], GRAMFILE_REPORTS["binary_biased"]]
        assert reports[2].splitlines()[:2] == ["states 1", "pc 1"]
        assert reports[3].splitlines()[-3] == "theorem3 optimal"


def refuse_split(adjacency):
    raise AssertionError(f"split the {len(adjacency)} constellations of a stack into groups")


class TestCoupledGroups:
    """Constellations that no coupling entry joins are rooted apart, each group of a size in one ``eigh``."""

    @pytest.mark.parametrize("m", [8, 64])
    def test_orthogonal_constellation_is_rooted_apart(self, m, monkeypatch):
        # a stack of s = 3 goes to eigh, one call per group size, and each
        # group's root keeps its bits when the group beside it is replaced
        ensemble = reducible_gus(np.random.default_rng(m), m)
        other = reducible_gus(np.random.default_rng(m + 1), m)
        calls = counted_factorizations(monkeypatch)
        rows = fast_srm(ensemble).rows
        assert sorted(calls["eigh"]) == [(m, 1, 1), (m, 2, 2)]
        assert (rows[:2, 2] == 0).all() and (rows[2, :2] == 0).all()
        for group, beside in ((slice(0, 2), slice(2, 3)), (slice(2, 3), slice(0, 2))):
            mixed = ensemble.rows.copy()
            mixed[beside, beside] = other.rows[beside, beside]
            neighbour = GusEnsemble(rows=mixed, constellation_priors=ensemble.constellation_priors)
            assert fast_srm(neighbour).rows[group, group].tobytes() == rows[group, group].tobytes()
        np.testing.assert_allclose(
            dense_factor(SrmResult(rows)), dense_route(ensemble).rows[:, :, 0], rtol=0, atol=1e-14
        )

    def test_least_eigenvalue_of_each_ensemble_is_taken_over_all_its_groups(self):
        # each ensemble is a pair of shift-orthogonal constellations with
        # overlap c, whose weighted eigenvalues are 0.0375 (1 +- c) in every
        # bin, beside a regular constellation 2. The pair of the second
        # ensemble dips to 7.5e-11 and that of the third lower, to 5e-11:
        # each ensemble's least eigenvalue is its pair's, not constellation 2's
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
        batched = [low for _, low in _fast_srms(batch)]
        np.testing.assert_allclose(batched, lowest, rtol=1e-3)

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
        # (0.2, -0.2, 0.2, -0.2) transforms to zero in every bin but bin 2,
        # beside a third orthogonal to both: the first matrix has zero
        # entries, yet the pair is one group and the third another
        rows = np.zeros((3, 3, 4), dtype=complex)
        rows[0, 0, 0] = rows[1, 1, 0] = rows[2, 2, 0] = 1.0
        rows[0, 1] = rows[1, 0] = [0.2, -0.2, 0.2, -0.2]
        ensemble = GusEnsemble(rows=rows, constellation_priors=(0.1, 0.1, 0.05))
        stack = block_diagonalize(ensemble)
        assert (stack[:, 0, 1] != 0).tolist() == [False, False, True, False]
        calls = counted_factorizations(monkeypatch)
        result = fast_srm(ensemble)
        assert sorted(calls["eigh"]) == [(4, 1, 1), (4, 2, 2)]
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


def dense_least_eigenvalues(stacks: np.ndarray) -> np.ndarray:
    """The least eigenvalue of each bin's Hermitian part, by one ``eigvalsh`` of each whole matrix."""
    s = stacks.shape[-1]
    least = [np.linalg.eigvalsh((a + a.conj().T) / 2.0)[0] for a in stacks.reshape(-1, s, s)]
    return np.array(least).reshape(stacks.shape[:-2])


LEAST_EIGENVALUE_CASES = {
    "split_groups8": lambda: block_diagonalize(reducible_gus(np.random.default_rng(8), 8)),
    "split_groups64": lambda: block_diagonalize(reducible_gus(np.random.default_rng(64), 64)),
    "double_ppm256": lambda: block_diagonalize(make_double_ppm(256, 0.6)),
    "double_ppm256_batch": lambda: np.array(
        [block_diagonalize(make_double_ppm(256, a)) for a in (0.6, 2.5)]
    ),
    "double_bpsk_batch": lambda: np.array(
        [block_diagonalize(make_double_bpsk(a, 1j * a, 0.3)) for a in (0.3, 1.0, 2.0)]
    ),
}


class TestLeastEigenvalues:
    """The kernel hands back the least eigenvalue of every bin, for its caller's singularity test."""

    @pytest.mark.parametrize("name", sorted(LEAST_EIGENVALUE_CASES))
    def test_each_bin_is_its_dense_least_eigenvalue(self, name):
        # whether the bin was rooted in closed form, whole or by groups, its
        # value is the whole matrix's least eigenvalue
        stacks = LEAST_EIGENVALUE_CASES[name]()
        _, lowest = linalg._root_rows(stacks)
        assert lowest.shape == stacks.shape[:-2]
        np.testing.assert_allclose(lowest, dense_least_eigenvalues(stacks), rtol=1e-12, atol=0)

    def test_fast_srm_refuses_on_the_least_of_its_bins(self):
        ensemble = make_double_ppm(256, 0.6)
        least = float(linalg._root_rows(block_diagonalize(ensemble))[1].min())
        assert fast_srm(ensemble, tol_psd=least).rows.shape == (2, 2, 256)
        with pytest.raises(GramSingular) as raised:
            fast_srm(ensemble, tol_psd=np.nextafter(least, 1.0))
        assert str(raised.value).startswith(f"Gram matrix is singular (min eigenvalue {least:.3e} < ")


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
