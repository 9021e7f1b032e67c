"""Tests for the square-root measurement and the optimality certificates."""

import math
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    random_circulant_gram,
    random_gus_ensemble,
    random_unit_trace_gram,
    verify_theorem1_reference,
)
from srmlab.cli import load_gram_file
from srmlab.constellations import Constellation, make_ppm, make_psk, weighted_gram
from srmlab.errors import (
    GramSingular,
    InvalidFactorization,
    NotBlockDiagonal,
    ReducibleBlock,
    SingularFactor,
)
from srmlab.linalg import TOL_PSD, principal_sqrt
from srmlab.srm import (
    channel_stats,
    check_theorem2,
    check_theorem3,
    srm,
    verify_theorem1,
)

GRAMFILES = Path(__file__).resolve().parent.parent / "gramfiles"
STRUCTURAL_ZERO = "boundary: min eigenvalue over Y - W_r is 0.000000e+00, inside the zero band"


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
        with pytest.raises(InvalidFactorization, match="factor shape"):
            verify_theorem1(g, np.eye(3))

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


def assert_matches_reference(gram, factor) -> bool:
    """Same verdict as the O(n⁴) reference, and for suboptimal factors the same witness."""
    fast = verify_theorem1(gram, factor)
    slow = verify_theorem1_reference(gram, factor)
    assert fast.optimal == slow.optimal
    if fast.optimal:
        assert fast.witness == STRUCTURAL_ZERO
        assert slow.witness.startswith("boundary: ")
    else:
        assert fast.witness == slow.witness
    return fast.optimal


def counted_eigensolvers(monkeypatch) -> dict:
    calls = {"eigh": [], "eigvalsh": []}
    for name, log in calls.items():
        solver = getattr(np.linalg, name)

        def counted(mat, *args, _solver=solver, _log=log, **kwargs):
            _log.append(np.shape(mat))
            return _solver(mat, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def certify_gram(rng, n: int, skewed: bool) -> np.ndarray:
    """A geometrically uniform circulant Gram, with equal or with skewed priors."""
    spectrum = rng.uniform(0.2, 1.8, n)
    row = np.fft.ifft(spectrum / spectrum.mean())
    overlaps = row[(np.arange(n)[None, :] - np.arange(n)[:, None]) % n]
    priors = rng.uniform(0.5, 1.5, n) if skewed else np.ones(n)
    return weighted_gram(Constellation(priors=priors / priors.sum(), overlaps=overlaps))


class TestTheorem1Reduction:
    """The one-eigendecomposition oracle against the per-state reference loop."""

    def test_matches_reference_on_random_ensembles(self):
        rng = np.random.default_rng(107)
        verdicts = set()
        for index in range(60):
            n = int(rng.integers(2, 9))
            if index % 4 == 0:
                gram = random_unit_trace_gram(rng, n)
            else:
                gram = weighted_gram(random_gus_ensemble(rng, index % 4, n).base)
            root = principal_sqrt(gram)
            verdicts.add(assert_matches_reference(gram, root))
            u, _ = np.linalg.qr(rng.normal(size=gram.shape) + 1j * rng.normal(size=gram.shape))
            verdicts.add(assert_matches_reference(gram, u @ root))
        assert verdicts == {True, False}

    @pytest.mark.parametrize("n", [16, 64, 128])
    def test_matches_reference_on_circulant_grams(self, n):
        rng = np.random.default_rng(n)
        for skewed in (False, True):
            gram = certify_gram(rng, n, skewed)
            assert assert_matches_reference(gram, srm(gram).factor) == (not skewed)

    @pytest.mark.parametrize("stem", ["binary_equal", "binary_biased", "identity3"])
    def test_matches_reference_on_gram_files(self, stem):
        constellation, _ = load_gram_file(str(GRAMFILES / f"{stem}.gram"))
        gram = weighted_gram(constellation)
        assert assert_matches_reference(gram, srm(gram).factor) == (stem != "binary_biased")

    def test_non_hermitian_y_matches_reference(self):
        # rotating the root by exp(i eps H) keeps X†X = G but breaks condition (i)
        gram = weighted_gram(make_psk(4, 1.0).base)
        rng = np.random.default_rng(5)
        z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        w, v = np.linalg.eigh((z + z.conj().T) / 2.0)
        factor = (v * np.exp(1e-7j * w)) @ v.conj().T @ principal_sqrt(gram)
        assert not assert_matches_reference(gram, factor)
        assert verify_theorem1(gram, factor).witness == "Y is not Hermitian: max asymmetry 3.099467e-08"

    def test_indefinite_hermitian_y_fails_at_the_first_state(self):
        # X[j, k] = Y[j, k] / sqrt(Y[k, k]) gives back exactly this Y, so
        # condition (i) holds and condition (ii) fails; by interlacing the
        # first downdate already dips below Y's lowest eigenvalue
        y = np.array([[1.0, 2.0j, 0.5], [-2.0j, 1.0, 0.3], [0.5, 0.3, 2.0]])
        lowest = np.linalg.eigvalsh(y)[0]
        assert lowest < -TOL_PSD
        x = y / np.sqrt(np.diagonal(y).real)[None, :]
        gram = x.conj().T @ x
        assert check_theorem2(x).witness.startswith("condition (ii) fails")
        fast = verify_theorem1(gram, x)
        slow = verify_theorem1_reference(gram, x)
        assert not fast.optimal
        assert fast.witness == slow.witness
        assert fast.witness.startswith("Y - W_0 has min eigenvalue ")
        assert float(fast.witness.rsplit(" ", 1)[1]) <= lowest

    def test_one_eigendecomposition_of_an_optimal_factor(self, monkeypatch):
        gram = weighted_gram(make_ppm(64, 1.0).base)
        factor = srm(gram).factor
        calls = counted_eigensolvers(monkeypatch)
        assert verify_theorem1(gram, factor).optimal
        assert calls == {"eigh": [(64, 64)], "eigvalsh": []}

    def test_one_confirming_eigensolve_of_a_suboptimal_factor(self, monkeypatch):
        constellation, _ = load_gram_file(str(GRAMFILES / "binary_biased.gram"))
        gram = weighted_gram(constellation)
        factor = srm(gram).factor
        calls = counted_eigensolvers(monkeypatch)
        assert verify_theorem1(gram, factor).witness == "Y - W_0 has min eigenvalue -1.015895e-03"
        assert calls == {"eigh": [(2, 2)], "eigvalsh": [(2, 2)]}


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
