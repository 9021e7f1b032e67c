"""Tests for the square-root measurement and the optimality certificates."""

import math

import numpy as np
import pytest

from helpers import random_circulant_gram, random_unit_trace_gram
from srmlab.constellations import Constellation, make_ppm, make_psk, weighted_gram
from srmlab.errors import (
    GramSingular,
    InvalidFactorization,
    NotBlockDiagonal,
    ReducibleBlock,
    SingularFactor,
)
from srmlab.linalg import principal_sqrt
from srmlab.srm import (
    channel_stats,
    check_theorem2,
    check_theorem3,
    srm,
    verify_theorem1,
)


def binary_gram(p0: float, chi: float) -> np.ndarray:
    c = Constellation(
        priors=np.array([p0, 1 - p0]),
        overlaps=np.array([[1, chi], [chi, 1]], dtype=complex),
    )
    return weighted_gram(c)


class TestSrm:
    def test_matches_two_state_bound(self):
        # equiprobable binary ensembles achieve (1 + sqrt(1 - chi^2)) / 2
        chi = math.exp(-2)
        result = srm(binary_gram(0.5, chi))
        assert result.pc == pytest.approx((1 + math.sqrt(1 - chi**2)) / 2, abs=1e-12)

    def test_orthogonal_states_are_perfectly_distinguished(self):
        result = srm(np.eye(4) / 4)
        assert result.pc == pytest.approx(1.0, abs=1e-12)

    def test_three_slot_ppm_value(self):
        # frozen from the closed form and confirmed by this dense route
        result = srm(weighted_gram(make_ppm(3, 1.0).base))
        chi = math.exp(-1)
        formula = (math.sqrt(1 + 2 * chi) + 2 * math.sqrt(1 - chi)) ** 2 / 9
        assert result.pc == pytest.approx(formula, abs=1e-12)
        assert result.pc == pytest.approx(0.93935007362710, abs=1e-12)

    def test_factor_squares_to_gram(self):
        rng = np.random.default_rng(31)
        g = random_unit_trace_gram(rng, 6)
        result = srm(g)
        assert np.abs(result.factor @ result.factor - g).max() <= 1e-12

    def test_joint_normalization_and_marginals(self):
        rng = np.random.default_rng(37)
        for n in (2, 3, 6, 8):
            g = random_unit_trace_gram(rng, n)
            result = srm(g)
            assert abs(result.joint.sum() - 1.0) <= 1e-10
            np.testing.assert_allclose(
                result.joint.sum(axis=1), np.diagonal(g).real, atol=1e-10
            )
            assert result.pc == pytest.approx(result.per_state_correct.sum())

    def test_joint_symmetric_for_real_gram(self):
        g = binary_gram(0.3, 0.5)
        result = srm(g)
        np.testing.assert_allclose(result.joint, result.joint.T, atol=1e-14)

    def test_rejects_singular_gram(self):
        with pytest.raises(GramSingular):
            srm(0.5 * np.array([[1.0, 1.0], [1.0, 1.0]]))

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError):
            srm(np.eye(2))

    def test_one_eigendecomposition_of_the_one_bin_stack(self, monkeypatch):
        calls = []
        eigh = np.linalg.eigh

        def counted(mat, *args, **kwargs):
            calls.append(np.shape(mat))
            return eigh(mat, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        for n in (1, 3, 6):
            calls.clear()
            srm(random_unit_trace_gram(np.random.default_rng(n), n))
            assert calls == [(1, n, n)]


class TestCheckTheorem2:
    def test_circulant_root_is_optimal(self):
        g = weighted_gram(make_psk(4, 1.0).base)
        verdict = check_theorem2(principal_sqrt(g))
        assert verdict.optimal
        assert verdict.method == "theorem2"

    def test_identity_factor_is_optimal(self):
        verdict = check_theorem2(np.eye(3) / math.sqrt(3))
        assert verdict.optimal

    def test_biased_binary_root_fails_balance_condition(self):
        result = srm(binary_gram(0.3, 0.5))
        verdict = check_theorem2(result.factor)
        assert not verdict.optimal
        assert "condition (i)" in verdict.witness
        # ground truth agrees
        oracle = verify_theorem1(binary_gram(0.3, 0.5), result.factor)
        assert not oracle.optimal

    def test_boundary_positivity_reports_optimal_with_note(self):
        # Y = diag(1, 1e-12) sits inside the numerical zero band
        verdict = check_theorem2(np.diag([1.0, 1e-6]))
        assert verdict.optimal
        assert "boundary" in verdict.witness

    def test_rejects_zero_diagonal(self):
        with pytest.raises(SingularFactor):
            check_theorem2(np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_rejects_singular_factor(self):
        with pytest.raises(SingularFactor):
            check_theorem2(np.array([[1.0, 1.0], [1.0, 1.0]]))


class TestCheckTheorem3:
    def test_single_gus_block(self):
        g = weighted_gram(make_psk(4, 1.0).base)
        verdict = check_theorem3(g, [range(4)])
        assert verdict.optimal

    def test_binary_equiprobable_common_diagonal(self):
        chi = 0.5
        g = binary_gram(0.5, chi)
        verdict = check_theorem3(g, [(0, 1)])
        assert verdict.optimal
        # the common diagonal value is a / sqrt(2)
        a = math.sqrt((1 + math.sqrt(1 - chi**2)) / 2)
        root = principal_sqrt(g)
        assert root[0, 0].real == pytest.approx(a / math.sqrt(2), abs=1e-12)
        assert root[1, 1].real == pytest.approx(a / math.sqrt(2), abs=1e-12)

    def test_singleton_blocks(self):
        verdict = check_theorem3(np.diag([0.4, 0.6]), [(0,), (1,)])
        assert verdict.optimal

    def test_unbalanced_block_is_suboptimal(self):
        g = binary_gram(0.3, 0.5)
        verdict = check_theorem3(g, [(0, 1)])
        assert not verdict.optimal
        assert "spread" in verdict.witness

    def test_rejects_false_partition(self):
        g = binary_gram(0.5, 0.5)
        with pytest.raises(NotBlockDiagonal):
            check_theorem3(g, [(0,), (1,)])

    def test_rejects_reducible_block(self):
        with pytest.raises(ReducibleBlock):
            check_theorem3(np.diag([0.4, 0.6]), [(0, 1)])

    def test_rejects_non_partition(self):
        with pytest.raises(ValueError):
            check_theorem3(np.eye(2) / 2, [(0,)])
        with pytest.raises(ValueError, match="at least one state"):
            check_theorem3(np.eye(3) / 3, [(0, 1), (), (2,)])


class TestVerifyTheorem1:
    def test_four_phase_root_is_optimal(self):
        g = weighted_gram(make_psk(4, 1.0).base)
        verdict = verify_theorem1(g, principal_sqrt(g))
        assert verdict.optimal
        assert verdict.method == "theorem1_oracle"

    def test_identity(self):
        g = np.eye(3) / 3
        verdict = verify_theorem1(g, principal_sqrt(g))
        assert verdict.optimal

    def test_biased_binary_root_is_suboptimal(self):
        g = binary_gram(0.3, 0.5)
        verdict = verify_theorem1(g, principal_sqrt(g))
        assert not verdict.optimal
        assert "min eigenvalue" in verdict.witness

    def test_rejects_invalid_factorization(self):
        g = binary_gram(0.5, 0.5)
        with pytest.raises(InvalidFactorization):
            verify_theorem1(g, np.eye(2))

    def test_accepts_any_valid_factor(self):
        # a unitary rotation of the root is still a factorization; the
        # oracle must accept the input and judge it on its own merits
        rng = np.random.default_rng(41)
        g = random_unit_trace_gram(rng, 4)
        root = principal_sqrt(g)
        z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        u, _ = np.linalg.qr(z)
        verdict = verify_theorem1(g, u @ root)
        assert verdict.method == "theorem1_oracle"

    def test_agrees_with_theorem2_on_random_grams(self):
        rng = np.random.default_rng(43)
        for _ in range(25):
            n = int(rng.integers(2, 8))
            g = random_unit_trace_gram(rng, n)
            root = principal_sqrt(g)
            assert check_theorem2(root).optimal == verify_theorem1(g, root).optimal

    def test_agrees_with_theorem2_on_circulant_grams(self):
        rng = np.random.default_rng(47)
        for _ in range(25):
            m = int(rng.integers(2, 9))
            g = random_circulant_gram(rng, m)
            root = principal_sqrt(g)
            v2 = check_theorem2(root)
            v1 = verify_theorem1(g, root)
            assert v2.optimal and v1.optimal


class TestChannelStats:
    def test_noiseless_channel(self):
        stats = channel_stats(srm(np.eye(8) / 8))
        assert stats.mutual_information == pytest.approx(3.0, abs=1e-12)

    def test_single_state_carries_nothing(self):
        stats = channel_stats(srm(np.eye(1)))
        assert stats.mutual_information == 0.0

    def test_binary_information_is_below_one_bit(self):
        chi = math.exp(-2)
        stats = channel_stats(srm(binary_gram(0.5, chi)))
        assert 0.0 < stats.mutual_information <= 1.0

    def test_marginals(self):
        g = binary_gram(0.3, 0.5)
        stats = channel_stats(srm(g))
        np.testing.assert_allclose(stats.input_marginals, [0.3, 0.7], atol=1e-10)
        assert stats.output_marginals.sum() == pytest.approx(1.0, abs=1e-10)
