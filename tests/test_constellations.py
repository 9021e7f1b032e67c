"""Tests for constellation builders and weighted Gram assembly."""

import cmath
import math

import numpy as np
import pytest

from helpers import block_circulant, dense_ensemble, random_gus_ensemble, weighted_gram
from srmlab import analysis, constellations
from srmlab.constellations import (
    RULE_TOL,
    GusEnsemble,
    coherent_inner,
    make_double_bpsk,
    make_double_ppm,
    make_ppm,
    make_psk,
)
from srmlab.errors import DomainError, InvalidPrior
from srmlab.gus import fast_srm
from srmlab.linalg import _mirror

# two orthogonal states as the one-bin ensemble: rows[h, k, 0] = <h|k>
ONE_BIN = np.eye(2)[:, :, None]


def overlaps(ens: GusEnsemble) -> np.ndarray:
    """The dense overlap matrix of all s * m states."""
    return block_circulant(ens.rows)


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

    @pytest.mark.parametrize("a", [9.5e153, 1e154])
    def test_self_overlap_is_one_where_the_moduli_sum_overflows(self, a):
        assert coherent_inner(a, a) == 1

    def test_distant_pair_is_orthogonal_where_a_squared_modulus_overflows(self):
        assert coherent_inner(1e154, 3e154) == 0

    def test_modulus_bounded(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a = complex(rng.normal(), rng.normal())
            b = complex(rng.normal(), rng.normal())
            assert abs(coherent_inner(a, b)) <= 1.0 + 1e-12


class TestWeightedGram:
    def test_binary_equiprobable(self):
        chi = 0.5
        ens = dense_ensemble([0.5, 0.5], [[1, chi], [chi, 1]])
        np.testing.assert_allclose(
            weighted_gram(ens), 0.5 * np.array([[1, chi], [chi, 1]]), atol=1e-15
        )

    def test_single_state(self):
        np.testing.assert_allclose(weighted_gram(dense_ensemble([1.0], np.eye(1))), [[1.0]])

    def test_orthogonal_states(self):
        ens = dense_ensemble(np.full(4, 0.25), np.eye(4))
        np.testing.assert_allclose(weighted_gram(ens), np.eye(4) / 4)

    def test_weights_every_state_by_its_own_prior(self):
        # the reference's sqrt(p_i) sqrt(p_j) <i|j> over the s * m per-state
        # priors is bit for bit the gather of the first rows the library
        # weights per constellation, so one_bin and dense_route see its input
        rng = np.random.default_rng(29)
        for ens in (
            make_double_bpsk(0.8, 2.4, 0.31),
            make_psk(5, 1.1 + 0.4j),
            random_gus_ensemble(rng, 3, 4),
            dense_ensemble([0.2, 0.3, 0.5], [[1, 0.3, 0.1j], [0.3, 1, 0.2], [-0.1j, 0.2, 1]]),
        ):
            expected = block_circulant(constellations._weighted_rows(ens))
            np.testing.assert_array_equal(weighted_gram(ens), expected)

    @pytest.mark.parametrize(
        "ensemble",
        [
            make_ppm(3, 1.0),
            make_double_bpsk(1.0, 1j, 0.25),
            make_double_bpsk(0.8, 2.4, 0.31),
            make_double_ppm(4, 0.9),
            make_psk(5, 1.1),
        ],
    )
    def test_unit_trace_and_psd(self, ensemble):
        g = weighted_gram(ensemble)
        assert abs(np.trace(g).real - 1.0) <= 1e-12
        assert np.abs(g - g.conj().T).max() == 0.0
        assert np.linalg.eigvalsh(g)[0] >= -1e-10


class TestDoubleBpsk:
    def test_cross_block_entries(self):
        ens = make_double_bpsk(1.0, 1j, 0.25)
        chi = coherent_inner(1.0, 1j)
        xi = coherent_inner(1.0, -1j)
        block = overlaps(ens)[0:2, 2:4]
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
        np.testing.assert_allclose(weighted_gram(ens), expected, atol=1e-14)

    def test_coincident_constellations(self):
        ens = make_double_bpsk(1.0, 1.0, 0.25)
        eta = math.exp(-2)
        pair = np.array([[1, eta], [eta, 1]])
        o = overlaps(ens)
        for h in range(2):
            for k in range(2):
                np.testing.assert_allclose(o[2 * h : 2 * h + 2, 2 * k : 2 * k + 2], pair, atol=1e-14)

    def test_pam_overlap_powers(self):
        # beta = 3 alpha gives chi = eta_a, eta_b = eta_a^9, xi = eta_a^4
        alpha = 1.0
        ens = make_double_bpsk(alpha, 3 * alpha, 0.25)
        eta = math.exp(-2)
        o = overlaps(ens)
        assert o[0, 2] == pytest.approx(eta, abs=1e-14)
        assert o[2, 3] == pytest.approx(eta**9, abs=1e-14)
        assert o[0, 3] == pytest.approx(eta**4, abs=1e-14)

    @pytest.mark.parametrize("p", [0.0, 0.5, -0.1, 0.7])
    def test_rejects_out_of_range_prior(self, p):
        with pytest.raises(InvalidPrior):
            make_double_bpsk(1.0, 1j, p)


class TestBrightSeeds:
    # computed, the seed <a|a> = exp(-|a|^2 + conj(a) a) misses 1 by about
    # 1.9e-9 at |a|^2 = 1e7, beyond RULE_TOL, and overflows at 1e300; the
    # builders write it as 1, so bright ensembles build and root
    @pytest.mark.parametrize("photon_number", [1e7, 1e300])
    @pytest.mark.parametrize("phase", [0.0, 0.3])
    def test_bright_coherent_ensembles_build(self, photon_number, phase):
        alpha = cmath.rect(math.sqrt(photon_number), phase)
        beta = alpha * cmath.exp(1j * math.pi / 8)
        for ensemble in (make_psk(8, alpha), make_double_bpsk(alpha, beta, 0.25)):
            s = ensemble.s
            np.testing.assert_array_equal(ensemble.rows[range(s), range(s), 0], np.ones(s))
            assert fast_srm(ensemble).pc == pytest.approx(1.0, abs=1e-12)


class TestPpm:
    def test_gram_is_uniform_circulant(self):
        chi = math.exp(-1)
        expected = np.array([[1, chi, chi], [chi, 1, chi], [chi, chi, 1]]) / 3
        np.testing.assert_allclose(weighted_gram(make_ppm(3, 1.0)), expected, atol=1e-15)

    def test_two_slot_off_diagonal(self):
        g = weighted_gram(make_ppm(2, 1.0))
        assert g[0, 1].real == pytest.approx(math.exp(-1) / 2, abs=1e-15)

    def test_bright_pulse_limit(self):
        g = weighted_gram(make_ppm(3, 30.0))
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
        g = weighted_gram(ens)
        np.testing.assert_allclose(g[:m, :m], h_block / (2 * m), atol=1e-15)
        np.testing.assert_allclose(g[:m, m:], k_block / (2 * m), atol=1e-15)
        np.testing.assert_allclose(g[m:, :m], k_block / (2 * m), atol=1e-15)
        np.testing.assert_allclose(g[m:, m:], h_block / (2 * m), atol=1e-15)

    def test_same_slot_opposite_phase_overlap(self):
        g = weighted_gram(make_double_ppm(2, 1.0))
        assert g[0, 2].real == pytest.approx(math.exp(-2) / 4, abs=1e-15)

    def test_h_minus_k_first_row(self):
        m, alpha = 4, 0.8
        chi = math.exp(-(alpha**2))
        g = weighted_gram(make_double_ppm(m, alpha))
        diff = g[:m, :m] - g[:m, m:]
        expected = np.zeros(m)
        expected[0] = (1 - chi * chi) / (2 * m)
        np.testing.assert_allclose(diff[0], expected, atol=1e-15)

    def test_bright_pulse_limit(self):
        g = weighted_gram(make_double_ppm(2, 30.0))
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
        row = overlaps(ens)[0]
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
        np.testing.assert_array_equal(overlaps(built), overlaps(named))

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
            np.testing.assert_array_equal(overlaps(built), overlaps(named))

    def test_blocks_are_exactly_circulant(self):
        rng = np.random.default_rng(23)
        ens = random_gus_ensemble(rng, 3, 4)
        o = overlaps(ens)
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
        g_double = weighted_gram(double)
        g_single = weighted_gram(single)
        np.testing.assert_allclose(
            g_single, g_double[np.ix_(perm, perm)], atol=1e-14
        )

    @pytest.mark.parametrize(
        "rows, total",
        [([[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]], 0.5), (ONE_BIN, 1.0)],
        ids=["m2", "m1"],
    )
    def test_rejects_bad_prior_normalization(self, rows, total):
        # the s * m per-state priors are total / 2 each and must sum to one
        with pytest.raises(InvalidPrior):
            GusEnsemble(rows=rows, constellation_priors=(0.5 * total, 0.7 * total))
        for priors in ((np.nan, 0.5 * total), (0.5 * total, np.nan), (total, 0.0)):
            with pytest.raises(InvalidPrior) as caught:
                GusEnsemble(rows=rows, constellation_priors=priors)
            assert str(caught.value) == "priors must be strictly positive"

    def test_rejects_a_prior_count_other_than_s(self):
        with pytest.raises(InvalidPrior) as caught:
            GusEnsemble(rows=[[[1.0]]], constellation_priors=(0.5, 0.5))
        assert str(caught.value) == "expected 1 constellation priors, got 2"

    @pytest.mark.parametrize(
        "rows, priors, total",
        [([[[1, 0.5, 0.5]]], (0.5,), "1.5"), (ONE_BIN, (1.0, 1.0), "2.0")],
        ids=["m3", "m1"],
    )
    def test_prior_normalization_error_prints_a_plain_float(self, rows, priors, total):
        with pytest.raises(InvalidPrior) as caught:
            GusEnsemble(rows=rows, constellation_priors=priors)
        assert str(caught.value) == f"priors must sum to 1, got {total}"

    @pytest.mark.parametrize(
        "rows",
        [
            # the (1, 0) row is not the conjugate mirror of the (0, 1) row
            [[[1.0, 0.1], [0.2, 0.2]], [[0.9, 0.9], [1.0, 0.1]]],
            # a dense overlap matrix that is not Hermitian
            np.array([[1.0, 0.5], [0.2, 1.0]])[:, :, None],
        ],
        ids=["m2", "m1"],
    )
    def test_rejects_inconsistent_rule(self, rows):
        with pytest.raises(ValueError, match="not Hermitian-consistent"):
            GusEnsemble(rows=rows, constellation_priors=np.full(2, 0.5 / np.shape(rows)[2]))

    @pytest.mark.parametrize(
        "rows, priors",
        [([[[0.9, 0.0]]], (0.5,)), (np.array([[1.0, 0.0], [0.0, 0.9]])[:, :, None], (0.5, 0.5))],
        ids=["m2", "m1"],
    )
    def test_rejects_non_unit_seed(self, rows, priors):
        with pytest.raises(ValueError, match="is not unit norm"):
            GusEnsemble(rows=rows, constellation_priors=priors)

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_rejects_non_finite_overlaps(self, bad):
        one_bin = np.array([[1.0, bad], [bad, 1.0]])[:, :, None]
        for rows, priors in (([[[1.0, bad]]], (0.5,)), (one_bin, (0.5, 0.5))):
            with pytest.raises(ValueError) as caught:
                GusEnsemble(rows=rows, constellation_priors=priors)
            assert str(caught.value) == "overlaps must be finite"

    @pytest.mark.parametrize("big", [3.0, 1e308, -1e308j, 1.5e308 + 1.5e308j])
    def test_rejects_an_overlap_above_one(self, big):
        # unit states overlap by at most 1; near the float maximum the
        # mirror average would overflow, so the entry is refused before it,
        # and a finite entry whose modulus overflows is named as such
        rows = np.zeros((2, 2, 3), dtype=complex)
        rows[0, 0, 0] = rows[1, 1, 0] = 1.0
        rows[1, 0, 2] = big
        rows[0, 1, 1] = np.conj(big)
        with pytest.raises(ValueError) as caught:
            GusEnsemble(rows=rows, constellation_priors=(1 / 6, 1 / 6))
        assert str(caught.value) == f"overlap modulus {float(np.abs(big))!r} > 1 in block (0, 1)"

    def test_accepts_a_unit_overlap_within_tolerance(self):
        rows = np.array([[1.0, 1.0 + 0.5 * RULE_TOL], [1.0 + 0.5 * RULE_TOL, 1.0]])[:, :, None]
        ensemble = GusEnsemble(rows=rows, constellation_priors=(0.5, 0.5))
        assert ensemble.rows[0, 1, 0] == 1.0 + 0.5 * RULE_TOL


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
        a = weighted_gram(make_double_ppm(3, 1.1))
        b = weighted_gram(make_double_ppm(3, 1.1))
        np.testing.assert_array_equal(a, b)


# builders whose rows are exactly mirror-consistent as written
EXACT_BUILDERS = [
    *[(make_ppm, m) for m in (2, 3, 16)],
    *[(make_double_ppm, m) for m in (2, 3, 16)],
]


class TestValidatorContract:
    """The validator returns exactly mirror-consistent rows, and names the worst fault."""

    @staticmethod
    def supplied_rows(monkeypatch, build):
        """The rows a builder hands to ``GusEnsemble``, and the ensemble it returns."""
        supplied = []

        def recording(rows, constellation_priors):
            supplied.append(np.array(rows, dtype=complex))
            return GusEnsemble(rows, constellation_priors)

        monkeypatch.setattr(constellations, "GusEnsemble", recording)
        ensemble = build()
        (rows,) = supplied
        return rows, ensemble

    @pytest.mark.parametrize("energy", [1e-3, 0.1, 1.0, 25.0])
    @pytest.mark.parametrize(
        "builder, m", EXACT_BUILDERS, ids=lambda v: getattr(v, "__name__", v)
    )
    def test_builder_rows_pass_unchanged(self, builder, m, energy, monkeypatch):
        rows, ensemble = self.supplied_rows(monkeypatch, lambda: builder(m, math.sqrt(energy)))
        assert np.array_equal(ensemble.rows, rows)

    @pytest.mark.parametrize("energy", [1e-3, 0.1, 1.0, 25.0])
    @pytest.mark.parametrize("m", [2, 3, 16])
    def test_psk_rows_are_averaged_with_their_mirror(self, m, energy, monkeypatch):
        # exp(2i pi r / m) and conj(exp(2i pi (m - r) / m)) differ in the last
        # bits, so the PSK row is symmetrised, moving by rounding only
        rows, ensemble = self.supplied_rows(monkeypatch, lambda: make_psk(m, math.sqrt(energy)))
        expected = (rows + _mirror(rows)) / 2.0
        expected[0, 0, 0] = 1.0
        assert np.array_equal(ensemble.rows, expected)
        assert np.abs(ensemble.rows - rows).max() <= 1e-14

    @pytest.mark.parametrize("p", [0.1, 0.25, 0.4])
    @pytest.mark.parametrize("delta", [0.3, math.pi / 2])
    def test_double_bpsk_rows_pass_unchanged(self, p, delta, monkeypatch):
        beta = cmath.rect(0.8, delta)
        rows, ensemble = self.supplied_rows(monkeypatch, lambda: make_double_bpsk(0.8, beta, p))
        assert np.array_equal(ensemble.rows, rows)

    @pytest.mark.parametrize("s, m", [(1, 5), (2, 4), (3, 3), (4, 1)])
    def test_rows_within_tolerance_come_out_consistent(self, s, m):
        rng = np.random.default_rng(10 * s + m)
        exact = random_gus_ensemble(rng, s, m)
        noise = rng.uniform(-1, 1, size=(2, s, s, m)) * (0.2 * RULE_TOL)
        rows = exact.rows + noise[0] + 1j * noise[1]
        ensemble = GusEnsemble(rows=rows, constellation_priors=exact.constellation_priors)
        assert np.array_equal(ensemble.rows, _mirror(ensemble.rows))
        seeds = ensemble.rows[:, :, 0].diagonal()
        assert np.array_equal(seeds, np.ones(s)) and not seeds.imag.any()
        assert np.abs(ensemble.rows - exact.rows).max() <= 0.2 * RULE_TOL

    @staticmethod
    def three_constellations():
        ensemble = random_gus_ensemble(np.random.default_rng(33), 3, 4)
        return np.array(ensemble.rows), ensemble.constellation_priors

    def test_mirror_error_names_the_worst_block(self):
        rows, priors = self.three_constellations()
        rows[0, 1, 1] += 2e-10
        rows[2, 1, 3] += 5e-10j
        with pytest.raises(ValueError) as caught:
            GusEnsemble(rows=rows, constellation_priors=priors)
        assert str(caught.value) == (
            "rows are not Hermitian-consistent on blocks (1, 2) / (2, 1): defect 5.000e-10"
        )

    def test_seed_error_names_the_worst_seed(self):
        rows, priors = self.three_constellations()
        rows[0, 0, 0] = 1.0 + 2e-10
        rows[2, 2, 0] = 1.0 - 7e-10
        with pytest.raises(ValueError) as caught:
            GusEnsemble(rows=rows, constellation_priors=priors)
        assert str(caught.value) == f"seed state 2 is not unit norm: <0|0> = {rows[2, 2, 0]}"


# every path to a scheme parameter, with the word its m check names: one
# function in constellations refuses each parameter, so each fault has one
# class and one text whichever builder, closed form or sweep meets it
M_PATHS = {
    "make_psk": ("phases", lambda m: make_psk(m, 1.0)),
    "make_ppm": ("slots", lambda m: make_ppm(m, 1.0)),
    "make_double_ppm": ("slots", lambda m: make_double_ppm(m, 1.0)),
    "ppm_closed_form": ("slots", lambda m: analysis.ppm_closed_form(m, 1.0)),
    "double_ppm_closed_form": ("slots", lambda m: analysis.double_ppm_closed_form(m, 1.0)),
    "mutual_info_ppm": ("slots", lambda m: analysis.mutual_info_ppm(m, 1.0)),
    "mutual_info_double_ppm": ("slots", lambda m: analysis.mutual_info_double_ppm(m, 1.0)),
    "evaluate_scheme[psk]": ("phases", lambda m: analysis.evaluate_scheme("psk", 1.0, m=m)),
    "evaluate_scheme[ppm]": ("slots", lambda m: analysis.evaluate_scheme("ppm", 1.0, m=m)),
    "evaluate_scheme[double_ppm]": (
        "slots",
        lambda m: analysis.evaluate_scheme("double_ppm", 1.0, m=m),
    ),
}
AMPLITUDE_PATHS = {
    "make_ppm": lambda a: make_ppm(4, a),
    "make_double_ppm": lambda a: make_double_ppm(4, a),
    "ppm_closed_form": lambda a: analysis.ppm_closed_form(4, a),
    "double_ppm_closed_form": lambda a: analysis.double_ppm_closed_form(4, a),
    "mutual_info_ppm": lambda a: analysis.mutual_info_ppm(4, a),
    "mutual_info_double_ppm": lambda a: analysis.mutual_info_double_ppm(4, a),
    "pc_double_bpsk_equal_amp": lambda a: analysis.pc_double_bpsk_equal_amp(a, math.pi / 2),
    "optimize_prior_4pam": analysis.optimize_prior_4pam,
}
PRIOR_PATHS = {
    "make_double_bpsk": lambda p: make_double_bpsk(1.0, 1j, p),
    "double_bpsk_block_traces": lambda p: analysis.double_bpsk_block_traces(
        p, *analysis.pam4_overlaps(1.0)
    ),
    "evaluate_scheme[double_bpsk]": lambda p: analysis.evaluate_scheme(
        "double_bpsk", 1.0, delta=math.pi / 2, prior=p
    ),
}


def refusal_cases():
    # ints beyond float range; those too long to turn into decimal are shown by their size
    huge = {
        10**400: ("10**400", 10**400),
        10**5000: ("10**5000", "an int of 16610 bits"),
        -(10**5000): ("-10**5000", "a negative int of 16610 bits"),
    }
    for m in (1, 2.5, math.nan, math.inf, *huge):
        shown, got = huge.get(m, (m, m))
        for name, (what, build) in M_PATHS.items():
            text = f"the number of {what} must be an integer >= 2, got {got}"
            yield pytest.param(build, m, DomainError, text, id=f"{name}(m={shown})")
    for a in (0, -1, math.nan, math.inf):
        for name, build in AMPLITUDE_PATHS.items():
            text = f"amplitude must be positive and finite, got {float(a)}"
            yield pytest.param(build, a, DomainError, text, id=f"{name}(alpha={a})")
    for p in (0, 0.5, 0.6):
        for name, build in PRIOR_PATHS.items():
            text = f"p must lie strictly between 0 and 1/2, got {float(p)}"
            yield pytest.param(build, p, InvalidPrior, text, id=f"{name}(p={p})")


@pytest.mark.parametrize("build, value, cls, text", refusal_cases())
def test_one_refusal_per_fault(build, value, cls, text):
    with pytest.raises(Exception) as info:
        build(value)
    assert (type(info.value), str(info.value)) == (cls, text)
    # an InputError is a ValueError, so a caller that catches that still does
    assert isinstance(info.value, ValueError)
