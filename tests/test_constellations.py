"""Tests for constellation builders and weighted Gram assembly."""

import cmath
import math

import numpy as np
import pytest

from helpers import random_gus_ensemble
from srmlab.constellations import (
    Constellation,
    GusEnsemble,
    coherent_inner,
    make_double_bpsk,
    make_double_ppm,
    make_ppm,
    make_psk,
    weighted_gram,
)
from srmlab.errors import InvalidPrior


class TestCoherentInner:
    def test_vacuum_overlap(self):
        assert coherent_inner(0, 0) == pytest.approx(1.0)

    def test_opposite_amplitudes(self):
        assert coherent_inner(1, -1) == pytest.approx(math.exp(-2), abs=1e-15)

    def test_quarter_turn(self):
        expected = cmath.exp(-(1 - 1j))
        assert coherent_inner(1, 1j) == pytest.approx(expected, abs=1e-15)

    def test_self_overlap_is_one(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            a = complex(rng.normal(), rng.normal())
            assert coherent_inner(a, a) == pytest.approx(1.0, abs=1e-12)

    def test_modulus_bounded(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a = complex(rng.normal(), rng.normal())
            b = complex(rng.normal(), rng.normal())
            assert abs(coherent_inner(a, b)) <= 1.0 + 1e-12


class TestConstellation:
    def test_rejects_bad_prior_sum(self):
        with pytest.raises(InvalidPrior):
            Constellation(priors=np.array([0.5, 0.4]), overlaps=np.eye(2))

    def test_prior_sum_error_prints_a_plain_float(self):
        with pytest.raises(InvalidPrior) as caught:
            Constellation(priors=np.array([1.0, 1.0]), overlaps=np.eye(2))
        assert str(caught.value) == "priors must sum to 1, got 2.0"

    def test_rejects_nonpositive_prior(self):
        for priors in ([1.0, 0.0], [np.nan, 0.5], [0.5, np.nan]):
            with pytest.raises(InvalidPrior):
                Constellation(priors=np.array(priors), overlaps=np.eye(2))

    def test_rejects_non_unit_diagonal(self):
        overlaps = np.array([[1.0, 0.0], [0.0, 0.9]])
        with pytest.raises(ValueError):
            Constellation(priors=np.array([0.5, 0.5]), overlaps=overlaps)

    def test_rejects_non_hermitian_overlaps(self):
        overlaps = np.array([[1.0, 0.5], [0.2, 1.0]])
        with pytest.raises(ValueError):
            Constellation(priors=np.array([0.5, 0.5]), overlaps=overlaps)


class TestWeightedGram:
    def test_binary_equiprobable(self):
        chi = 0.5
        c = Constellation(
            priors=np.array([0.5, 0.5]),
            overlaps=np.array([[1, chi], [chi, 1]], dtype=complex),
        )
        np.testing.assert_allclose(
            weighted_gram(c), 0.5 * np.array([[1, chi], [chi, 1]]), atol=1e-15
        )

    def test_single_state(self):
        c = Constellation(priors=np.array([1.0]), overlaps=np.eye(1))
        np.testing.assert_allclose(weighted_gram(c), [[1.0]])

    def test_orthogonal_states(self):
        c = Constellation(priors=np.full(4, 0.25), overlaps=np.eye(4))
        np.testing.assert_allclose(weighted_gram(c), np.eye(4) / 4)

    @pytest.mark.parametrize(
        "constellation",
        [
            make_ppm(3, 1.0).base,
            make_double_bpsk(1.0, 1j, 0.25).base,
            make_double_bpsk(0.8, 2.4, 0.31).base,
            make_double_ppm(4, 0.9).base,
            make_psk(5, 1.1).base,
        ],
    )
    def test_unit_trace_and_psd(self, constellation):
        g = weighted_gram(constellation)
        assert abs(np.trace(g).real - 1.0) <= 1e-12
        assert np.abs(g - g.conj().T).max() == 0.0
        assert np.linalg.eigvalsh(g)[0] >= -1e-10


class TestDoubleBpsk:
    def test_cross_block_entries(self):
        ens = make_double_bpsk(1.0, 1j, 0.25)
        chi = coherent_inner(1.0, 1j)
        xi = coherent_inner(1.0, -1j)
        block = ens.base.overlaps[0:2, 2:4]
        np.testing.assert_allclose(block, [[chi, xi], [xi, chi]], atol=1e-15)
        assert chi == pytest.approx(cmath.exp(-(1 - 1j)), abs=1e-15)
        assert xi == pytest.approx(cmath.exp(-(1 + 1j)), abs=1e-15)

    def test_full_gram_matches_block_layout(self):
        alpha, beta, p = 0.9, 0.6j, 0.3
        q = 0.5 - p
        ens = make_double_bpsk(alpha, beta, p)
        eta_a = coherent_inner(alpha, -alpha).real
        eta_b = coherent_inner(beta, -beta).real
        chi = coherent_inner(alpha, beta)
        xi = coherent_inner(alpha, -beta)
        g11 = p * np.array([[1, eta_a], [eta_a, 1]])
        g22 = q * np.array([[1, eta_b], [eta_b, 1]])
        g12 = math.sqrt(p * q) * np.array([[chi, xi], [xi, chi]])
        expected = np.block([[g11, g12], [g12.conj().T, g22]])
        np.testing.assert_allclose(weighted_gram(ens.base), expected, atol=1e-14)

    def test_coincident_constellations(self):
        ens = make_double_bpsk(1.0, 1.0, 0.25)
        eta = math.exp(-2)
        pair = np.array([[1, eta], [eta, 1]])
        o = ens.base.overlaps
        for h in range(2):
            for k in range(2):
                np.testing.assert_allclose(o[2 * h : 2 * h + 2, 2 * k : 2 * k + 2], pair, atol=1e-14)

    def test_pam_overlap_powers(self):
        # beta = 3 alpha gives chi = eta_a, eta_b = eta_a^9, xi = eta_a^4
        alpha = 1.0
        ens = make_double_bpsk(alpha, 3 * alpha, 0.25)
        eta = math.exp(-2)
        o = ens.base.overlaps
        assert o[0, 2] == pytest.approx(eta, abs=1e-14)
        assert o[2, 3] == pytest.approx(eta**9, abs=1e-14)
        assert o[0, 3] == pytest.approx(eta**4, abs=1e-14)

    @pytest.mark.parametrize("p", [0.0, 0.5, -0.1, 0.7])
    def test_rejects_out_of_range_prior(self, p):
        with pytest.raises(InvalidPrior):
            make_double_bpsk(1.0, 1j, p)


class TestPpm:
    def test_gram_is_uniform_circulant(self):
        c = make_ppm(3, 1.0).base
        chi = math.exp(-1)
        expected = np.array([[1, chi, chi], [chi, 1, chi], [chi, chi, 1]]) / 3
        np.testing.assert_allclose(weighted_gram(c), expected, atol=1e-15)

    def test_two_slot_off_diagonal(self):
        g = weighted_gram(make_ppm(2, 1.0).base)
        assert g[0, 1].real == pytest.approx(math.exp(-1) / 2, abs=1e-15)

    def test_bright_pulse_limit(self):
        g = weighted_gram(make_ppm(3, 30.0).base)
        np.testing.assert_allclose(g, np.eye(3) / 3, atol=1e-12)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            make_ppm(1, 1.0)
        with pytest.raises(ValueError):
            make_ppm(3, 0.0)
        # a non-integral number of slots or phases is a ValueError, not a TypeError
        for build in (make_psk, make_ppm, make_double_ppm):
            for m in (1, 2.5, math.nan, math.inf):
                with pytest.raises(ValueError):
                    build(m, 1.0)


class TestDoublePpm:
    def test_block_structure(self):
        m, alpha = 3, 1.0
        chi = math.exp(-1)
        ens = make_double_ppm(m, alpha)
        h_block = np.full((m, m), chi)
        np.fill_diagonal(h_block, 1.0)
        k_block = np.full((m, m), chi)
        np.fill_diagonal(k_block, chi * chi)
        g = weighted_gram(ens.base)
        np.testing.assert_allclose(g[:m, :m], h_block / (2 * m), atol=1e-15)
        np.testing.assert_allclose(g[:m, m:], k_block / (2 * m), atol=1e-15)
        np.testing.assert_allclose(g[m:, :m], k_block / (2 * m), atol=1e-15)
        np.testing.assert_allclose(g[m:, m:], h_block / (2 * m), atol=1e-15)

    def test_same_slot_opposite_phase_overlap(self):
        g = weighted_gram(make_double_ppm(2, 1.0).base)
        assert g[0, 2].real == pytest.approx(math.exp(-2) / 4, abs=1e-15)

    def test_h_minus_k_first_row(self):
        m, alpha = 4, 0.8
        chi = math.exp(-(alpha**2))
        g = weighted_gram(make_double_ppm(m, alpha).base)
        diff = g[:m, :m] - g[:m, m:]
        expected = np.zeros(m)
        expected[0] = (1 - chi * chi) / (2 * m)
        np.testing.assert_allclose(diff[0], expected, atol=1e-15)

    def test_bright_pulse_limit(self):
        g = weighted_gram(make_double_ppm(2, 30.0).base)
        np.testing.assert_allclose(g, np.eye(4) / 4, atol=1e-12)


class TestGusFromBase:
    # every builder is pinned bitwise to first rows written out here, entry
    # by entry, from coherent_inner and chi

    @staticmethod
    def assert_builds(rows, priors, named):
        built = GusEnsemble(rows=rows, constellation_priors=priors)
        np.testing.assert_array_equal(built.rows, named.rows)
        np.testing.assert_array_equal(built.constellation_priors, named.constellation_priors)
        return built

    @staticmethod
    def bpsk_rows(alpha, beta):
        seeds = (complex(alpha), complex(beta))
        return [
            [[coherent_inner(seeds[h], seeds[k] * (-1) ** r) for r in range(2)] for k in range(2)]
            for h in range(2)
        ]

    def test_single_constellation_is_circulant(self):
        ens = make_psk(4, 1.0)
        assert ens.s == 1 and ens.m == 4
        row = ens.base.overlaps[0]
        expected = [coherent_inner(1.0, cmath.exp(2j * cmath.pi * r / 4)) for r in range(4)]
        np.testing.assert_allclose(row, expected, atol=1e-14)

        for m, alpha in ((2, 0.6), (5, 1.0 + 0.4j), (12, 1.7)):
            seed = complex(alpha)
            row = [coherent_inner(seed, seed * cmath.exp(2j * cmath.pi * r / m)) for r in range(m)]
            self.assert_builds([[row]], (1.0 / m,), make_psk(m, alpha))
            chi = math.exp(-(abs(alpha) ** 2))
            row = [1.0 if r == 0 else chi for r in range(m)]
            self.assert_builds([[row]], (1.0 / m,), make_ppm(m, abs(alpha)))

    def test_reproduces_double_bpsk(self):
        alpha, beta, p = 1.0, 1j, 0.25
        named = make_double_bpsk(alpha, beta, p)
        built = self.assert_builds(self.bpsk_rows(alpha, beta), (p, 0.5 - p), named)
        np.testing.assert_array_equal(built.base.overlaps, named.base.overlaps)
        np.testing.assert_array_equal(built.base.priors, named.base.priors)

        for alpha, beta, p in ((0.7, 2.1, 0.4), (1.0, 3.0, 0.1), (0.5, 0.3 - 0.8j, 0.3), (1.2, -0.4, 0.2)):
            named = make_double_bpsk(alpha, beta, p)
            self.assert_builds(self.bpsk_rows(alpha, beta), (p, 0.5 - p), named)

    def test_reproduces_double_ppm(self):
        for m, alpha in ((3, 0.9), (2, 0.1), (16, 1.5)):
            chi = math.exp(-(alpha**2))
            seeds = [[1.0, chi * chi], [chi * chi, 1.0]]
            rows = [[[seeds[h][k] if r == 0 else chi for r in range(m)] for k in range(2)] for h in range(2)]
            named = make_double_ppm(m, alpha)
            built = self.assert_builds(rows, (0.5 / m, 0.5 / m), named)
            np.testing.assert_array_equal(built.base.overlaps, named.base.overlaps)

    def test_blocks_are_exactly_circulant(self):
        rng = np.random.default_rng(23)
        ens = random_gus_ensemble(rng, 3, 4)
        o = ens.base.overlaps
        m = ens.m
        for h in range(ens.s):
            for k in range(ens.s):
                block = o[h * m : (h + 1) * m, k * m : (k + 1) * m]
                shifted = np.roll(np.roll(block, 1, axis=0), 1, axis=1)
                assert np.array_equal(block, shifted)

    def test_quarter_turn_pair_matches_four_phase_set(self):
        # two binary pairs a quarter turn apart are the four-phase
        # constellation, up to reordering the states
        alpha = 1.0
        double = make_double_bpsk(alpha, alpha * 1j, 0.25)
        single = make_psk(4, alpha)
        perm = [0, 2, 1, 3]
        g_double = weighted_gram(double.base)
        g_single = weighted_gram(single.base)
        np.testing.assert_allclose(
            g_single, g_double[np.ix_(perm, perm)], atol=1e-14
        )

    def test_rejects_bad_prior_normalization(self):
        rows = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
        with pytest.raises(InvalidPrior):
            GusEnsemble(rows=rows, constellation_priors=(0.25, 0.35))
        for priors in ((np.nan, 0.25), (0.25, np.nan)):
            with pytest.raises(InvalidPrior):
                GusEnsemble(rows=rows, constellation_priors=priors)

    def test_prior_normalization_error_prints_a_plain_float(self):
        with pytest.raises(InvalidPrior) as caught:
            GusEnsemble(rows=[[[1, 0.5, 0.5]]], constellation_priors=(0.5,))
        assert str(caught.value) == "per-state priors must satisfy m * sum(q) = 1, got 1.5"

    def test_rejects_inconsistent_rule(self):
        # the (1, 0) row is not the conjugate mirror of the (0, 1) row
        rows = [[[1.0, 0.1], [0.2, 0.2]], [[0.9, 0.9], [1.0, 0.1]]]
        with pytest.raises(ValueError):
            GusEnsemble(rows=rows, constellation_priors=(0.25, 0.25))

    def test_rejects_non_unit_seed(self):
        with pytest.raises(ValueError):
            GusEnsemble(rows=[[[0.9, 0.0]]], constellation_priors=(0.5,))


class TestGusEnsembleInvariants:
    def test_rejects_wrong_base_size(self):
        # first rows of an s-constellation ensemble are (s, s, m); two
        # constellations cannot couple to three
        rows = np.zeros((2, 3, 4), dtype=complex)
        with pytest.raises(ValueError):
            GusEnsemble(rows=rows, constellation_priors=np.array([1 / 8, 1 / 8]))

    def test_rejects_non_circulant_blocks(self):
        # blocks built from first rows are circulant by construction; what
        # can still break the block structure is a (1, 0) row that is not
        # the conjugate mirror of the (0, 1) row
        rows = np.zeros((2, 2, 2), dtype=complex)
        rows[0, 0, 0] = rows[1, 1, 0] = 1.0
        rows[0, 1] = [0.2, 0.3]
        rows[1, 0] = [0.2, 0.9]
        with pytest.raises(ValueError):
            GusEnsemble(rows=rows, constellation_priors=np.array([0.25, 0.25]))

    def test_identical_rules_give_identical_grams(self):
        a = weighted_gram(make_double_ppm(3, 1.1).base)
        b = weighted_gram(make_double_ppm(3, 1.1).base)
        np.testing.assert_array_equal(a, b)
