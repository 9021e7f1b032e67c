"""Tests for the square-root measurement and the optimality certificates."""

import cmath
import collections
import math
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    InvalidFactorization,
    block_sqrt,
    check_theorem2_reference,
    check_theorem3_reference,
    counted_factorizations,
    counted_transforms,
    dense_channel,
    dense_ensemble,
    dense_factor,
    gram_ensemble,
    gram_file_lines,
    gram_lines,
    one_bin,
    principal_sqrt,
    random_circulant_gram,
    random_gus_ensemble,
    random_unit_trace_gram,
    reducible_gus,
    trace_criterion,
    verify_theorem1_reference,
    weighted_gram,
)
from srmlab import TOL_PSD, analysis, srm
from srmlab.analysis import optimize_prior_4pam
from srmlab.cli import (
    DEFAULT_DELTAS,
    load_gram_file,
    parse_angle_list,
    rows_fig1,
    rows_fig23,
)
from srmlab.constellations import (
    GusEnsemble,
    make_double_bpsk,
    make_double_ppm,
    make_ppm,
    make_psk,
)
from srmlab.errors import (
    GramSingular,
    NotBlockDiagonal,
    NumericalError,
)
from srmlab.gus import block_diagonalize, fast_srm
from srmlab.srm import (
    TOL_COND,
    OptimalityVerdict,
    SrmResult,
    _asymmetry,
    certify_srm,
    channel_stats,
    check_theorem3,
)

GRAMFILES = Path(__file__).resolve().parent.parent / "gramfiles"


def binary_pair(p0: float, chi: float) -> GusEnsemble:
    return dense_ensemble([p0, 1 - p0], [[1, chi], [chi, 1]])


def binary_gram(p0: float, chi: float) -> np.ndarray:
    return weighted_gram(binary_pair(p0, chi))


class TestSrm:
    def test_matches_two_state_bound(self):
        # equiprobable binary ensembles achieve (1 + sqrt(1 - chi^2)) / 2
        chi = math.exp(-2)
        result = fast_srm(binary_pair(0.5, chi))
        assert result.pc == pytest.approx((1 + math.sqrt(1 - chi**2)) / 2, abs=1e-12)

    def test_orthogonal_states_are_perfectly_distinguished(self):
        result = fast_srm(dense_ensemble(np.full(4, 0.25), np.eye(4)))
        assert result.pc == pytest.approx(1.0, abs=1e-12)

    def test_three_slot_ppm_value(self):
        # frozen from the closed form and confirmed on the dense, one-bin ensemble
        result = fast_srm(one_bin(make_ppm(3, 1.0)))
        chi = math.exp(-1)
        formula = (math.sqrt(1 + 2 * chi) + 2 * math.sqrt(1 - chi)) ** 2 / 9
        assert result.pc == pytest.approx(formula, abs=1e-12)
        assert result.pc == pytest.approx(0.93935007362710, abs=1e-12)

    def test_factor_squares_to_gram(self):
        rng = np.random.default_rng(31)
        g = random_unit_trace_gram(rng, 6)
        factor = dense_factor(fast_srm(gram_ensemble(g)))
        assert np.abs(factor @ factor - g).max() <= 1e-12

    def test_joint_normalization_and_marginals(self):
        rng = np.random.default_rng(37)
        for n in (2, 3, 6, 8):
            g = random_unit_trace_gram(rng, n)
            result = fast_srm(gram_ensemble(g))
            joint = np.abs(dense_factor(result)) ** 2
            assert abs(joint.sum() - 1.0) <= 1e-10
            np.testing.assert_allclose(joint.sum(axis=1), np.diagonal(g).real, atol=1e-10)
            assert result.pc == pytest.approx(result.per_state_correct.sum())

    def test_joint_symmetric_for_real_gram(self):
        result = fast_srm(binary_pair(0.3, 0.5))
        joint = np.abs(dense_factor(result)) ** 2
        np.testing.assert_allclose(joint, joint.T, atol=1e-14)

    @pytest.mark.parametrize(
        "ensemble",
        [make_psk(8, 10.0), make_ppm(8, math.sqrt(50))],
        ids=["psk8", "ppm8"],
    )
    def test_pc_never_exceeds_one(self, ensemble):
        # nearly orthogonal states whose squared root diagonal sums to a few
        # ulps above 1
        result = fast_srm(ensemble)
        assert result.per_state_correct.sum() > 1.0
        assert result.pc == 1.0
        assert 1.0 - result.pc == 0.0

    def test_rejects_singular_gram(self):
        with pytest.raises(GramSingular):
            fast_srm(dense_ensemble([0.5, 0.5], np.ones((2, 2))))

    def test_one_eigendecomposition_of_the_one_bin_stack(self, monkeypatch):
        # a dense Gram of n >= 3 states is one (1, n, n) eigh; n <= 2 is
        # rooted in closed form, with no factorization
        ensembles = {
            n: gram_ensemble(random_unit_trace_gram(np.random.default_rng(n), n)) for n in (1, 2, 3, 6)
        }
        calls = counted_factorizations(monkeypatch)
        for n, ensemble in ensembles.items():
            for log in calls.values():
                log.clear()
            fast_srm(ensemble)
            expected = {"eigh": [(1, n, n)]} if n >= 3 else {}
            assert {name: log for name, log in calls.items() if log} == expected


def residual(result) -> float:
    """The one residual of a square-root measurement, max |X_ij| |d_j - d_i|."""
    return float(_asymmetry(result.rows).max())


class TestCheckVerdicts:
    """``certify_srm`` on a dense root (m = 1), the one verdict behind ``srmlab check``."""

    def test_circulant_root_is_optimal(self):
        result = fast_srm(one_bin(make_psk(4, 1.0)))
        verdict = certify_srm(result)
        assert verdict.optimal
        assert verdict.residual == residual(result) <= TOL_COND
        assert dense_asymmetry(dense_factor(result)) <= TOL_COND

    def test_orthogonal_states_are_optimal(self):
        verdict = certify_srm(fast_srm(dense_ensemble(np.full(3, 1 / 3), np.eye(3))))
        assert verdict == OptimalityVerdict(True, 0.0, (0, 0, 0))

    def test_biased_binary_root_fails_both_at_the_one_residual(self):
        result = fast_srm(binary_pair(0.3, 0.5))
        verdict = certify_srm(result)
        assert not verdict.optimal
        assert verdict.residual == pytest.approx(5.109562e-02, abs=5e-9)  # the 7 printed digits
        assert verdict.at == (0, 1, 0)
        # the independent references agree, Theorem 2 at the same pair and residual
        factor = dense_factor(result)
        assert verdict.residual == pytest.approx(dense_asymmetry(factor), rel=1e-12)
        assert check_theorem2_reference(factor).witness == (
            f"condition (i) fails at state pair (0, 1): residual {verdict.residual:.6e}"
        )
        assert not verify_theorem1_reference(binary_gram(0.3, 0.5), factor).optimal

    def test_tolerance_bounds_the_one_residual(self):
        # the residual of the biased pair is 5.109562e-02: the verdict flips
        # as tol_cond crosses it, and the residual and its entry stay put
        result = fast_srm(binary_pair(0.3, 0.5))
        worst = certify_srm(result).residual
        for tol_cond, optimal in ((0.9 * worst, False), (worst, True), (0.06, True)):
            verdict = certify_srm(result, tol_cond=tol_cond)
            assert (verdict.optimal, verdict.residual, verdict.at) == (optimal, worst, (0, 1, 0))


class TestCheckTheorem3:
    def test_single_gus_block(self):
        ensemble = one_bin(make_psk(4, 1.0))
        verdict = check_theorem3(ensemble, [range(4)], fast_srm(ensemble))
        assert verdict.optimal

    def test_binary_equiprobable_common_diagonal(self):
        chi = 0.5
        pair = binary_pair(0.5, chi)
        result = fast_srm(pair)
        verdict = check_theorem3(pair, [(0, 1)], result)
        assert verdict.optimal
        # the common diagonal value is a / sqrt(2)
        a = math.sqrt((1 + math.sqrt(1 - chi**2)) / 2)
        root = result.rows[:, :, 0]
        assert root[0, 0].real == pytest.approx(a / math.sqrt(2), abs=1e-12)
        assert root[1, 1].real == pytest.approx(a / math.sqrt(2), abs=1e-12)

    def test_singleton_blocks(self):
        ensemble = gram_ensemble(np.diag([0.4, 0.6]))
        verdict = check_theorem3(ensemble, [(0,), (1,)], fast_srm(ensemble))
        assert verdict.optimal

    def test_unbalanced_block_is_suboptimal(self):
        # the one block is the whole pair, so the verdict is certify_srm's
        # on the root it is given, and the reference's pair and residual
        pair = binary_pair(0.3, 0.5)
        result = fast_srm(pair)
        verdict = check_theorem3(pair, [(0, 1)], result)
        assert verdict == certify_srm(result)
        assert not verdict.optimal
        assert_matches_theorem3_reference(
            verdict, check_theorem3_reference(binary_gram(0.3, 0.5), [(0, 1)])
        )
        assert verdict.at == (0, 1, 0)

    def test_rejects_false_partition(self):
        pair = binary_pair(0.5, 0.5)
        with pytest.raises(NotBlockDiagonal):
            check_theorem3(pair, [(0,), (1,)], fast_srm(pair))

    def test_reducible_block_gets_a_verdict(self):
        # no entry couples the two states of the one block, so Y is
        # Hermitian though the root's diagonal (sqrt 0.4, sqrt 0.6) is not flat
        gram = np.diag([0.4, 0.6])
        ensemble = gram_ensemble(gram)
        verdict = check_theorem3(ensemble, [(0, 1)], fast_srm(ensemble))
        assert verdict == OptimalityVerdict(True, 0.0, (0, 0, 0))
        reference = check_theorem3_reference(gram, [(0, 1)])
        assert (reference.optimal, reference.residual, reference.at) == (True, 0.0, (0, 0, 0))

    def test_rejects_non_partition(self):
        pair, triple = (dense_ensemble(np.full(n, 1 / n), np.eye(n)) for n in (2, 3))
        with pytest.raises(ValueError):
            check_theorem3(pair, [(0,)], fast_srm(pair))
        with pytest.raises(ValueError, match="at least one state"):
            check_theorem3(triple, [(0, 1), (), (2,)], fast_srm(triple))

    def test_rejects_several_bins_and_a_result_of_another_shape(self):
        # the blocks are read off a one-bin ensemble and its own root only
        psk = make_psk(4, 1.0)
        with pytest.raises(ValueError, match="one-bin ensemble, got m = 4"):
            check_theorem3(psk, [range(4)], fast_srm(psk))
        pair, triple = (dense_ensemble(np.full(n, 1 / n), np.eye(n)) for n in (2, 3))
        with pytest.raises(ValueError, match=r"result rows \(3, 3, 1\) do not match"):
            check_theorem3(pair, [(0, 1)], fast_srm(triple))
        with pytest.raises(ValueError, match=r"result rows \(1, 1, 4\) do not match"):
            check_theorem3(one_bin(psk), [range(4)], fast_srm(make_ppm(4, 1.0)))

    def test_circulant_block_is_optimal_at_every_tolerance(self):
        # PSK(4) at priors 1/4 has a circulant Gram, whose root has a flat
        # diagonal: the residual is rounding, below every tol_cond
        ensemble = one_bin(make_psk(4, 1.0))
        g = weighted_gram(ensemble)
        result = fast_srm(ensemble)
        for tol_cond in (1e-12, TOL_COND, 1e-4, 0.5):
            assert check_theorem3(ensemble, [range(4)], result, tol_cond=tol_cond).optimal
            assert check_theorem3_reference(g, [range(4)], tol_cond=tol_cond).optimal

    def test_tolerated_leak_roots_the_block_zeroed_gram_in_one_call(self, monkeypatch):
        # a weighted cross-block entry of 0.0045 moves the full root's
        # residual at O(0.0045^2); with tol_cond above it, the verdict reads
        # the root of G with that entry set to zero, as the reference does,
        # taken in one call of the kernel that fast_srm runs, which roots
        # both 2 x 2 blocks in one stacked eigh
        ensemble = dense_ensemble([0.2, 0.3, 0.25, 0.25], [
            [1.0, 0.4, 0.02, 0.0],
            [0.4, 1.0, 0.0, 0.0],
            [0.02, 0.0, 1.0, 0.3],
            [0.0, 0.0, 0.3, 1.0],
        ])
        g = weighted_gram(ensemble)
        blocks = [(0, 1), (2, 3)]
        result = fast_srm(ensemble)
        calls = counted_factorizations(monkeypatch)
        verdict = check_theorem3(ensemble, blocks, result, tol_cond=0.005)
        assert calls["eigh"] == [(2, 2, 2)]
        assert_matches_theorem3_reference(
            verdict, check_theorem3_reference(g, blocks, tol_cond=0.005)
        )
        assert (verdict.optimal, verdict.at) == (False, (0, 1, 0))
        assert abs(verdict.residual - residual(result)) > 1e-6

    def test_reads_the_root_it_is_given(self, monkeypatch):
        # the residual comes from the result: no block is factored again,
        # and a root with a flat diagonal per block passes
        pair = binary_pair(0.3, 0.5)
        flat = SrmResult(np.diag([0.6, 0.6]).astype(complex)[:, :, None])
        calls = counted_factorizations(monkeypatch)
        verdict = check_theorem3(pair, [(0, 1)], flat)
        assert verdict.optimal
        assert not any(calls.values())

    def test_verdict_names_the_pair_of_largest_residual(self):
        # block 0 spreads more (0.316 against 0.024), but its residual is
        # 6.7e-4 against block 1's 6.3e-3: the verdict names block 1's pair
        # (2, 3) with its residual, at tol_cond 1e-3, where only block 1
        # fails, and at the default, where both do, as the reference does
        ensemble = dense_ensemble([0.1, 0.4, 0.24, 0.26], [
            [1.0, 0.01, 0.0, 0.0],
            [0.01, 1.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.9],
            [0.0, 0.0, 0.9, 1.0],
        ])
        g = weighted_gram(ensemble)
        blocks = [(0, 1), (2, 3)]
        result = fast_srm(ensemble)
        roots = [principal_sqrt(g[np.ix_(block, block)]) for block in blocks]
        residuals = [dense_asymmetry(block_root) for block_root in roots]
        spreads = [float(np.ptp(np.diagonal(block_root).real)) for block_root in roots]
        assert residuals[0] < 1e-3 < residuals[1] and spreads[0] > spreads[1]
        for tol_cond in (TOL_COND, 1e-3):
            verdict = check_theorem3(ensemble, blocks, result, tol_cond=tol_cond)
            assert_matches_theorem3_reference(
                verdict, check_theorem3_reference(g, blocks, tol_cond=tol_cond)
            )
            assert (verdict.optimal, verdict.at) == (False, (2, 3, 0))
            assert verdict.residual == pytest.approx(residuals[1], rel=1e-12)
        tols = {"tol_cond": 1e-3, "tol_psd": TOL_PSD}
        assert assert_certificates_match_references(ensemble, blocks, **tols) is False
        assert check_theorem3(ensemble, blocks, result, tol_cond=1e-2).optimal

    def test_tolerance_bounds_the_residual_not_the_spread(self):
        # the biased pair's root diagonal spreads by 0.30, and its residual
        # is |X_01| = 0.17 times that: the verdict flips as tol_cond crosses
        # the residual, with Theorem 2 and the reference
        pair = binary_pair(0.3, 0.5)
        g = weighted_gram(pair)
        result = fast_srm(pair)
        spread = float(np.ptp(result.rows[:, :, 0].diagonal().real))
        worst = residual(result)
        assert 2 * worst < spread
        for tol_cond, optimal in ((0.9 * worst, False), (2 * worst, True)):
            verdict = check_theorem3(pair, [(0, 1)], result, tol_cond=tol_cond)
            assert (verdict.optimal, verdict.residual, verdict.at) == (optimal, worst, (0, 1, 0))
            assert certify_srm(result, tol_cond=tol_cond).optimal == optimal
            reference = check_theorem3_reference(g, [(0, 1)], tol_cond=tol_cond)
            assert_matches_theorem3_reference(verdict, reference)


def assert_matches_reference(ensemble) -> bool:
    """The residual verdict on a one-bin ensemble's root against the O(n⁴) reference on it.

    A suboptimal verdict's residual is the Hermiticity defect of Y up to
    rounding, and lies at its entry ``at``; the reference may name a failed
    downdate instead.
    """
    result = fast_srm(ensemble)
    fast = certify_srm(result)
    factor = dense_factor(result)
    slow = verify_theorem1_reference(weighted_gram(ensemble), factor)
    assert fast.optimal == slow.optimal
    if fast.optimal:
        assert slow.witness.startswith("boundary: ")
    else:
        defect = dense_asymmetries(factor)
        assert fast.residual == pytest.approx(defect.max(), rel=1e-6)
        assert defect[fast.at[:2]] == pytest.approx(fast.residual, rel=1e-6)
    return fast.optimal


def certify_ensemble(rng, n: int, skewed: bool) -> GusEnsemble:
    """A geometrically uniform circulant set of n states, with equal or with skewed priors."""
    spectrum = rng.uniform(0.2, 1.8, n)
    row = np.fft.ifft(spectrum / spectrum.mean())
    overlaps = row[(np.arange(n)[None, :] - np.arange(n)[:, None]) % n]
    priors = rng.uniform(0.5, 1.5, n) if skewed else np.ones(n)
    return dense_ensemble(priors / priors.sum(), overlaps)


class TestTheorem1Reduction:
    """On the square-root measurement, Y Hermitian decides Theorem 1: the per-state loop agrees."""

    def test_matches_reference_on_random_ensembles(self):
        rng = np.random.default_rng(107)
        verdicts = set()
        for index in range(60):
            n = int(rng.integers(2, 9))
            if index % 4 == 0:
                ensemble = gram_ensemble(random_unit_trace_gram(rng, n))
            else:
                ensemble = one_bin(random_gus_ensemble(rng, index % 4, n))
            verdicts.add(assert_matches_reference(ensemble))
        assert verdicts == {True, False}

    @pytest.mark.parametrize("n", [16, 64, 128])
    def test_matches_reference_on_circulant_grams(self, n):
        rng = np.random.default_rng(n)
        for skewed in (False, True):
            assert assert_matches_reference(certify_ensemble(rng, n, skewed)) == (not skewed)

    @pytest.mark.parametrize("stem", ["binary_equal", "binary_biased", "identity3"])
    def test_matches_reference_on_gram_files(self, stem):
        constellation, _ = load_gram_file(str(GRAMFILES / f"{stem}.gram"))
        assert assert_matches_reference(constellation) == (stem != "binary_biased")

    def test_no_factorization_after_the_root(self, monkeypatch):
        optimal = fast_srm(one_bin(make_ppm(64, 1.0)))
        biased = fast_srm(load_gram_file(str(GRAMFILES / "binary_biased.gram"))[0])
        calls = counted_factorizations(monkeypatch)
        assert certify_srm(optimal).optimal
        verdict = certify_srm(biased)
        assert verdict.residual == pytest.approx(5.109562e-02, abs=5e-9)  # the 7 printed digits
        assert (verdict.optimal, verdict.at) == (False, (0, 1, 0))
        assert not any(calls.values())


def factor_gram(x) -> np.ndarray:
    """The Gram matrix X†X that a candidate factor X factorizes."""
    x = np.asarray(x, dtype=complex)
    return x.conj().T @ x


def rotated_factor() -> tuple[np.ndarray, np.ndarray]:
    """A four-phase root rotated by exp(i eps H): X†X = G still holds, but Y is not Hermitian."""
    gram = weighted_gram(make_psk(4, 1.0))
    rng = np.random.default_rng(5)
    z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    w, v = np.linalg.eigh((z + z.conj().T) / 2.0)
    return gram, (v * np.exp(1e-7j * w)) @ v.conj().T @ principal_sqrt(gram)


def factor_of_y(y) -> tuple[np.ndarray, np.ndarray]:
    """The factor X[j, k] = Y[j, k] / sqrt(Y[k, k]), whose Y is exactly ``y``, and its Gram."""
    x = np.asarray(y, dtype=complex) / np.sqrt(np.diagonal(y).real)[None, :]
    return factor_gram(x), x


INDEFINITE_Y = np.array([[1.0, 2.0j, 0.5], [-2.0j, 1.0, 0.3], [0.5, 0.3, 2.0]])


class TestTheorem2Reference:
    """Theorem 2 on factors other than the root, which only the reference judges."""

    def test_circulant_root_is_optimal(self):
        g = weighted_gram(make_psk(4, 1.0))
        verdict = check_theorem2_reference(principal_sqrt(g))
        assert verdict.optimal
        assert verdict.method == "theorem2"

    def test_identity_factor_is_optimal(self):
        assert check_theorem2_reference(np.eye(3) / math.sqrt(3)).optimal

    def test_biased_binary_root_fails_balance_condition(self):
        # the same pair and residual as the library's one-residual verdict
        result = fast_srm(binary_pair(0.3, 0.5))
        verdict = check_theorem2_reference(dense_factor(result))
        assert not verdict.optimal
        library = certify_srm(result)
        assert verdict.witness == (
            "condition (i) fails at state pair ({}, {}): residual ".format(*library.at[:2])
            + f"{library.residual:.6e}"
        )

    def test_rotated_root_fails_condition_i(self):
        _, factor = rotated_factor()
        verdict = check_theorem2_reference(factor)
        assert verdict.witness.startswith("condition (i) fails at state pair")
        assert verdict.witness.endswith(f"residual {dense_asymmetry(factor):.6e}")

    def test_boundary_positivity_reports_optimal_with_note(self):
        # Y = diag(1, 1e-12) sits inside the numerical zero band
        verdict = check_theorem2_reference(np.diag([1.0, 1e-6]))
        assert verdict.optimal
        assert verdict.witness.startswith("boundary: min eigenvalue of Y is ")

    def test_indefinite_hermitian_y_fails_condition_ii(self):
        lowest = np.linalg.eigvalsh(INDEFINITE_Y)[0]
        _, x = factor_of_y(INDEFINITE_Y)
        assert check_theorem2_reference(x).witness == (
            f"condition (ii) fails: min eigenvalue of Y is {lowest:.6e}"
        )

    def test_rejects_zero_diagonal(self):
        with pytest.raises(NumericalError, match="vanishing diagonal"):
            check_theorem2_reference(np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_rejects_a_singular_factor(self):
        with pytest.raises(NumericalError, match="min singular value"):
            check_theorem2_reference(np.array([[1.0, 1.0], [1.0, 1.0]]))


class TestTheorem1Reference:
    """The O(n⁴) Theorem-1 oracle on factors other than the root, which only it judges."""

    def test_four_phase_root_is_optimal(self):
        g = weighted_gram(make_psk(4, 1.0))
        verdict = verify_theorem1_reference(g, principal_sqrt(g))
        assert verdict.optimal
        assert verdict.method == "theorem1_oracle"

    def test_identity(self):
        g = np.eye(3) / 3
        assert verify_theorem1_reference(g, principal_sqrt(g)).optimal

    def test_biased_binary_root_is_suboptimal(self):
        # the downdate eigenvalue that `srmlab check` printed before it
        # decided by the one residual
        g = binary_gram(0.3, 0.5)
        verdict = verify_theorem1_reference(g, principal_sqrt(g))
        assert verdict.witness == "Y - W_0 has min eigenvalue -1.015895e-03"

    def test_rejects_invalid_factorization(self):
        g = binary_gram(0.5, 0.5)
        with pytest.raises(InvalidFactorization, match="differs from the Gram matrix"):
            verify_theorem1_reference(g, np.eye(2))
        with pytest.raises(InvalidFactorization, match="factor shape"):
            verify_theorem1_reference(g, np.eye(3))

    def test_accepts_any_valid_factor(self):
        # a unitary rotation of the root is still a factorization; the
        # oracle must accept the input and judge it on its own merits
        rng = np.random.default_rng(41)
        g = random_unit_trace_gram(rng, 4)
        root = principal_sqrt(g)
        z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        u, _ = np.linalg.qr(z)
        verdict = verify_theorem1_reference(g, u @ root)
        assert verdict.method == "theorem1_oracle"
        assert verdict.optimal == (dense_asymmetry(u @ root) <= TOL_COND)

    def test_singular_factor_is_on_the_boundary(self):
        # Theorem 2's reference refuses this factor; the downdates of its
        # singular Y sit at zero
        x = np.array([[1.0, 1.0], [1.0, 1.0]])
        verdict = verify_theorem1_reference(factor_gram(x), x)
        assert verdict.optimal
        assert verdict.witness.startswith("boundary: min eigenvalue over Y - W_r is ")

    def test_agrees_with_theorem2_on_random_grams(self):
        rng = np.random.default_rng(43)
        for _ in range(25):
            n = int(rng.integers(2, 8))
            g = random_unit_trace_gram(rng, n)
            root = principal_sqrt(g)
            oracle = verify_theorem1_reference(g, root)
            assert check_theorem2_reference(root).optimal == oracle.optimal

    def test_agrees_with_theorem2_on_circulant_grams(self):
        rng = np.random.default_rng(47)
        for _ in range(25):
            g = random_circulant_gram(rng, int(rng.integers(2, 9)))
            root = principal_sqrt(g)
            assert check_theorem2_reference(root).optimal
            assert verify_theorem1_reference(g, root).optimal

    def test_non_hermitian_y_fails_without_a_failed_downdate(self):
        gram, factor = rotated_factor()
        verdict = verify_theorem1_reference(gram, factor)
        assert verdict.witness == "Y is not Hermitian: max asymmetry 3.099467e-08"

    def test_indefinite_hermitian_y_fails_at_the_first_state(self):
        # X[j, k] = Y[j, k] / sqrt(Y[k, k]) gives back exactly this Y, so
        # condition (i) holds and condition (ii) fails; by interlacing the
        # first downdate already dips below Y's lowest eigenvalue
        lowest = np.linalg.eigvalsh(INDEFINITE_Y)[0]
        assert lowest < -TOL_PSD
        gram, x = factor_of_y(INDEFINITE_Y)
        verdict = verify_theorem1_reference(gram, x)
        assert verdict.witness.startswith("Y - W_0 has min eigenvalue ")
        assert float(verdict.witness.rsplit(" ", 1)[1]) <= lowest


def outcome(certificate, *args, **kwargs):
    """What a certificate returns, or the type and text of the error it raises."""
    try:
        return certificate(*args, **kwargs)
    except (NotBlockDiagonal, InvalidFactorization, ValueError) as exc:
        return type(exc).__name__, str(exc)


def assert_certificates_match_references(ensemble, blocks, *, tol_cond, tol_psd) -> bool | None:
    """The residual verdicts on the SRM root against the independent references.

    A residual above ``tol_cond`` fails every verdict, the reference's
    Theorem-2 witness naming the residual and the state pair of the verdict's
    ``at``. Below it every verdict passes, and a reference may fail only if
    the residual exceeds the default ``TOL_COND``: the tolerance then
    accepted a Y that is not Hermitian, on which the references' further
    tests (Y positive definite, every downdate PSD) can fail. The Theorem-3
    verdict raises the reference's errors, or else matches the reference's
    verdict, residual and pair. Returns the Theorem-1 verdict, or None when
    ``fast_srm`` refuses the one-bin ensemble, as ``srmlab check`` would.
    """
    try:
        result = fast_srm(ensemble, tol_psd=tol_psd)
    except GramSingular:
        return None
    gram = weighted_gram(ensemble)
    factor = dense_factor(result)
    tols = {"tol_cond": tol_cond, "tol_psd": tol_psd}
    verdict = certify_srm(result, tol_cond=tol_cond)
    worst = verdict.residual
    theorem2 = check_theorem2_reference(factor, **tols)
    if blocks is not None:
        blockwise = outcome(check_theorem3, ensemble, blocks, result, tol_cond=tol_cond)
        reference = outcome(check_theorem3_reference, gram, blocks, **tols)
        if isinstance(blockwise, tuple):  # an error's name and text
            assert blockwise == reference
        else:
            assert_matches_theorem3_reference(blockwise, reference)
    assert verdict.optimal == (worst <= tol_cond)
    for reference in (theorem2, verify_theorem1_reference(gram, factor, **tols)):
        if not verdict.optimal:
            assert not reference.optimal
        elif not reference.optimal:
            assert worst > TOL_COND
    if not verdict.optimal:
        assert theorem2.witness == (
            "condition (i) fails at state pair ({}, {}): residual ".format(*verdict.at[:2])
            + f"{worst:.6e}"
        )
    return verdict.optimal


def assert_matches_theorem3_reference(verdict, reference) -> None:
    """A Theorem-3 verdict gives its reference's verdict, and its residual to 1e-12.

    The verdict's pair ``at`` is the reference's wherever the residual
    exceeds that 1e-12: below it, the residual is rounding and so is its pair.
    """
    assert verdict.optimal == reference.optimal
    assert verdict.residual == pytest.approx(reference.residual, rel=0, abs=1e-12)
    if reference.residual > 1e-12:
        assert verdict.at == reference.at


def read_gram(lines, tmp_path):
    path = tmp_path / "case.gram"
    path.write_text("\n".join(lines) + "\n")
    return load_gram_file(str(path))


def leak_lines(rng, n, leak) -> list[str]:
    """A two-block certify-style file with one cross-block entry of magnitude ``leak``."""
    lines = gram_lines(rng, n, True)
    i, j = int(rng.integers(n // 2)), n // 2 + int(rng.integers(n // 2))
    value = leak * np.exp(2j * np.pi * rng.uniform())
    return lines[:-1] + [f"inner {i} {j} {float(value.real)!r} {float(value.imag)!r}", lines[-1]]


def dense_states(rng, n) -> GusEnsemble:
    """Random unit-norm states with skewed priors (squared uniforms on [0.05, 1.5])."""
    b = rng.normal(size=(n, n + 2)) + 1j * rng.normal(size=(n, n + 2))
    states = b / np.linalg.norm(b, axis=1, keepdims=True)
    priors = rng.uniform(0.05, 1.5, n) ** 2
    return dense_ensemble(priors / priors.sum(), states.conj() @ states.T)


TOLERANCES = [(TOL_PSD, TOL_COND)] + [
    (tol_psd, tol_cond) for tol_psd in (1e-12, 1e-3, 0.25) for tol_cond in (1e-15, 1e-3, 0.5)
]
LEAKS = (0.0, 1e-12, 1e-10, 5e-10, 9e-10)


class TestCertificatesMatchReferences:
    """The one-pass certificates give the verdicts and witnesses of the separate references."""

    @pytest.mark.parametrize("tol_psd, tol_cond", TOLERANCES)
    def test_gram_files_leaks_and_dense_grams(self, tol_psd, tol_cond, tmp_path):
        tols = {"tol_cond": tol_cond, "tol_psd": tol_psd}
        verdicts = []
        for stem in ("binary_equal", "binary_biased", "identity3"):
            constellation, blocks = load_gram_file(str(GRAMFILES / f"{stem}.gram"))
            verdicts.append(
                assert_certificates_match_references(constellation, blocks, **tols)
            )
        rng = np.random.default_rng(211)
        for leak in LEAKS:
            for n in (8, 16):
                ensemble, blocks = read_gram(leak_lines(rng, n, leak), tmp_path)
                verdicts.append(assert_certificates_match_references(ensemble, blocks, **tols))
        for index in range(24):
            n = 1 + index % 12
            partition = [range(n)] if index % 2 else [range(n // 2), range(n // 2, n)]
            ensemble = dense_states(rng, n)
            verdicts.append(assert_certificates_match_references(ensemble, partition, **tols))
        # the large tolerances refuse most Grams or pass every factor
        assert True in verdicts
        if tol_psd < 0.25 and tol_cond < 0.5:
            assert False in verdicts

    @pytest.mark.parametrize("tol_psd, tol_cond", [(TOL_PSD, TOL_COND), (1e-12, 1e-3), (1e-3, 0.5)])
    @pytest.mark.parametrize("n", [16, 64, 128])
    @pytest.mark.parametrize("blocks", [False, True])
    def test_certify_style_files(self, n, blocks, tol_psd, tol_cond, tmp_path):
        for seed in range(2):
            rng = np.random.default_rng(4 * n + 2 * blocks + seed)
            ensemble, partition = read_gram(gram_lines(rng, n, blocks), tmp_path)
            verdict = assert_certificates_match_references(
                ensemble, partition, tol_cond=tol_cond, tol_psd=tol_psd
            )
            assert verdict is not None


def block_lines(rng, leak) -> list[str]:
    """A Gram file of 2-3 blocks of 2-8 states, shuffled, with one cross-block overlap of modulus ``leak``.

    Each block holds random unit states, with equal or skewed priors, and
    about half of them split into two parts that are exactly orthogonal.
    """
    sizes = rng.integers(2, 9, size=int(rng.integers(2, 4)))
    n = int(sizes.sum())
    blocks = [np.sort(block) for block in np.split(rng.permutation(n), np.cumsum(sizes)[:-1])]
    overlaps = np.zeros((n, n), dtype=complex)
    priors = np.empty(n)
    for block in blocks:
        parts = np.split(block, [int(rng.integers(1, len(block)))]) if rng.integers(2) else [block]
        for part in parts:
            b = rng.normal(size=(len(part), len(part) + 4))
            b = b + 1j * rng.normal(size=b.shape)
            states = b / np.linalg.norm(b, axis=1, keepdims=True)
            overlaps[np.ix_(part, part)] = states.conj() @ states.T
        skew = rng.uniform(0.2, 1.8, len(block)) if rng.integers(2) else 1.0
        priors[block] = rng.uniform(0.5, 1.5) * skew
    i, j = int(rng.choice(blocks[0])), int(rng.choice(blocks[1]))
    overlaps[i, j] = leak * np.exp(2j * np.pi * rng.uniform())
    overlaps[j, i] = np.conj(overlaps[i, j])
    return gram_file_lines(priors / priors.sum(), overlaps, blocks)


class TestTheorem3Concordance:
    def test_verdicts_match_the_block_zeroed_reference(self, monkeypatch, tmp_path):
        # the leak, weighted by priors near 1/n, lands below, near or above
        # each tol_cond; at leak 0 the verdict is certify_srm's on the root
        # it is given, with no factorization, and otherwise the block-zeroed
        # Gram takes one kernel call
        rng = np.random.default_rng(127)
        calls = counted_factorizations(monkeypatch)
        roots = []
        kernel = srm._root_rows
        monkeypatch.setattr(srm, "_root_rows", lambda *args: roots.append(args) or kernel(*args))
        outcomes = collections.Counter()
        for leak in (0.0, 1e-12, 1e-6, 1e-3, 1e-2):
            for _ in range(8):
                ensemble, blocks = read_gram(block_lines(rng, leak), tmp_path)
                result = fast_srm(ensemble)
                gram = weighted_gram(ensemble)
                for tol_cond in (1e-9, 1e-4, 0.5):
                    reference = outcome(check_theorem3_reference, gram, blocks, tol_cond=tol_cond)
                    calls["eigh"].clear()
                    roots.clear()
                    verdict = outcome(check_theorem3, ensemble, blocks, result, tol_cond=tol_cond)
                    if isinstance(reference, tuple):
                        assert verdict[0] == reference[0] == "NotBlockDiagonal"
                        outcomes["NotBlockDiagonal"] += 1
                        continue
                    assert_matches_theorem3_reference(verdict, reference)
                    outcomes[verdict.optimal] += 1
                    if leak == 0.0:
                        assert (calls["eigh"], roots) == ([], [])
                        certified = certify_srm(result, tol_cond=tol_cond)
                        assert verdict == certified
                    else:
                        assert len(roots) == 1
        assert set(outcomes) == {"NotBlockDiagonal", True, False}


def orthogonal_pair(m: int) -> GusEnsemble:
    """Two PSK constellations on orthogonal modes, with unequal priors: reducible coupling."""
    rows = np.zeros((2, 2, m), dtype=complex)
    rows[0, 0] = make_psk(m, 0.8).rows[0, 0]
    rows[1, 1] = make_psk(m, 1.3).rows[0, 0]
    return GusEnsemble(rows, np.array([0.3, 0.7]) / m)


def certify_srm_ensembles() -> list[GusEnsemble]:
    """Double BPSK, 4-PAM, PSK, PPM, double PPM, random and reducible ensembles."""
    priors = (0.05, 0.1, 0.2, 0.25, 0.3, 0.45)
    ensembles = [
        make_double_bpsk(1.0, cmath.exp(1j * delta), p)
        for delta in (math.pi / 3, math.pi / 2)
        for p in priors
    ]
    ensembles += [make_double_bpsk(1.0, 3.0, p) for p in priors]
    for photon_number in (0.5, 1.0, 2.0, 10.0):
        alpha = math.sqrt(photon_number)
        ensembles.append(make_double_bpsk(alpha, 3.0 * alpha, optimize_prior_4pam(alpha)))
    for build in (make_psk, make_ppm, make_double_ppm):
        for m in (2, 8, 32):
            ensemble = build(m, 1.0)
            try:
                fast_srm(ensemble)
            except GramSingular:
                continue
            ensembles.append(ensemble)
    rng = np.random.default_rng(107)
    ensembles += [random_gus_ensemble(rng, 2 + i % 2, 2 + (i // 2) % 3) for i in range(60)]
    return ensembles + [orthogonal_pair(2), orthogonal_pair(4)]


def dense_asymmetries(factor) -> np.ndarray:
    """|Y - Y†| of a dense factor X, with Y = X diag(X)†."""
    y = factor * np.diagonal(factor).conj()[None, :]
    return np.abs(y - y.conj().T)


def dense_asymmetry(factor) -> float:
    return float(dense_asymmetries(factor).max())


class TestCertifySrm:
    def test_verdicts_match_the_dense_certificates(self):
        ensembles = certify_srm_ensembles()
        optimal = 0
        for ensemble in ensembles:
            result = fast_srm(ensemble)
            gram = weighted_gram(ensemble)
            verdict = certify_srm(result)
            reference = verify_theorem1_reference(gram, dense_factor(result))
            assert verdict.optimal == reference.optimal
            # a dense root is the case m = 1, which `srmlab check` reads
            dense = certify_srm(fast_srm(one_bin(ensemble)))
            assert dense.optimal == verdict.optimal
            asymmetry = dense_asymmetry(dense_factor(result))
            if verdict.optimal:
                assert asymmetry <= TOL_COND
            else:
                assert verdict.residual == pytest.approx(asymmetry, rel=1e-6)
                assert dense.residual == pytest.approx(verdict.residual, rel=1e-6)
            optimal += verdict.optimal
        # PSK at m = 32 is singular at unit amplitude
        assert (len(ensembles), optimal) == (92, 16)

    @pytest.mark.parametrize("m", [2, 4])
    def test_reducible_coupling_with_unequal_priors_is_optimal(self, m):
        ensemble = orthogonal_pair(m)
        result = fast_srm(ensemble)
        assert certify_srm(result).optimal
        assert verify_theorem1_reference(weighted_gram(ensemble), dense_factor(result)).optimal
        g, equal = trace_criterion(block_sqrt(block_diagonalize(ensemble)))
        assert not equal and abs(g[0] - g[1]) > 0.1

    def test_verdict_names_the_pair_and_the_shift(self, monkeypatch):
        # fig2/fig3 write the failed verdict's pair, shift and residual
        result = fast_srm(make_double_bpsk(1.0, 3.0, 0.25))
        verdict = certify_srm(result)
        assert not verdict.optimal
        assert verdict.at[:2] == (0, 1)
        assert verdict.residual == float(_asymmetry(result.rows)[verdict.at]) == residual(result)
        monkeypatch.setattr(analysis, "optimize_prior_4pam", lambda alpha: 0.25)
        with pytest.raises(NumericalError) as raised:
            rows_fig23([1.0], TOL_PSD)
        assert str(raised.value) == (
            "optimized prior failed the optimality certificate: "
            f"Y is not Hermitian at constellations (0, 1), shift {verdict.at[2]}: "
            f"residual {verdict.residual:.6e}"
        )

    def test_fig23_point_takes_one_closed_form_root(self, monkeypatch):
        # the (s, m) = (2, 2) ensemble at p* is rooted in closed form: one
        # transform each way and no np.linalg call
        calls = counted_transforms(monkeypatch)
        (row,) = rows_fig23([1.0], TOL_PSD)
        assert calls == {"ifft": 1, "fft": 1}
        assert row["p_star"] == optimize_prior_4pam(1.0)

    def test_fig1_call_takes_one_batched_root(self, monkeypatch):
        # the four positive default offsets are four (s, m) = (2, 2)
        # ensembles per energy, all rooted together: one transform each way
        # for the whole grid, and no np.linalg call
        deltas = parse_angle_list(DEFAULT_DELTAS)
        calls = counted_transforms(monkeypatch)
        rows = rows_fig1([1.0], deltas, TOL_PSD)
        assert calls == {"ifft": 1, "fft": 1}
        assert len(rows) == 5
        calls.clear()
        rows = rows_fig1([0.5, 1.0, 2.0], deltas, TOL_PSD)
        assert calls == {"ifft": 1, "fft": 1}
        assert len(rows) == 15


class TestChannelStats:
    def test_noiseless_channel(self):
        stats = channel_stats(fast_srm(dense_ensemble(np.full(8, 1 / 8), np.eye(8))))
        assert stats.mutual_information == pytest.approx(3.0, abs=1e-12)

    def test_single_state_carries_nothing(self):
        stats = channel_stats(fast_srm(dense_ensemble([1.0], np.eye(1))))
        assert stats.mutual_information == 0.0

    def test_binary_information_is_below_one_bit(self):
        chi = math.exp(-2)
        stats = channel_stats(fast_srm(binary_pair(0.5, chi)))
        assert 0.0 < stats.mutual_information <= 1.0

    def test_marginals(self):
        stats = channel_stats(fast_srm(binary_pair(0.3, 0.5)))
        np.testing.assert_allclose(stats.input_marginals, [0.3, 0.7], atol=1e-10)
        assert stats.output_marginals.sum() == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: make_double_ppm(4, 1.3),
            lambda: make_double_ppm(64, 1.3),
            lambda: make_double_ppm(512, 1.3),
            lambda: random_gus_ensemble(np.random.default_rng(97), 3, 8),
        ],
        ids=["double_ppm4", "double_ppm64", "double_ppm512", "random_s3"],
    )
    def test_the_layout_of_the_rows_changes_no_bit(self, build):
        # the same rows held C-ordered, Fortran-ordered and bin-major, each
        # layout a view that the others are not, give the same bits
        rows = np.ascontiguousarray(fast_srm(build()).rows)
        bin_major = np.ascontiguousarray(rows.transpose(2, 0, 1)).transpose(1, 2, 0)
        layouts = (rows, np.asfortranarray(rows), bin_major)
        assert [copy.flags.c_contiguous for copy in layouts] == [True, False, False]
        assert not bin_major.flags.f_contiguous
        stats = [channel_stats(SrmResult(copy)) for copy in layouts]
        for other in stats[1:]:
            assert other.mutual_information == stats[0].mutual_information
            assert other.input_marginals.tobytes() == stats[0].input_marginals.tobytes()
            assert other.output_marginals.tobytes() == stats[0].output_marginals.tobytes()

    @pytest.mark.parametrize("m", [8, 64])
    def test_a_root_with_zero_entries_matches_the_dense_channel(self, m):
        # an orthogonal constellation is rooted apart, so its cross entries
        # are exact zeros, which contribute nothing to the information
        ensemble = reducible_gus(np.random.default_rng(m), m)
        result = fast_srm(ensemble)
        assert (result.rows == 0).any()
        self.assert_matches_dense_channel(channel_stats(result), ensemble)

    def test_the_identity_file_matches_the_dense_channel(self):
        ensemble, _ = load_gram_file(str(GRAMFILES / "identity3.gram"))
        result = fast_srm(ensemble)
        assert (result.rows == 0).sum() == 6
        stats = channel_stats(result)
        self.assert_matches_dense_channel(stats, ensemble)
        assert stats.mutual_information == pytest.approx(math.log2(3), abs=1e-14)

    def test_a_state_never_sent_carries_nothing(self):
        # a root with an all-zero row and column: its terms are exact zeros,
        # with no 0/0 (the suite fails on a RuntimeWarning)
        rows = np.zeros((2, 2, 1), dtype=complex)
        rows[0, 0, 0] = 1.0
        stats = channel_stats(SrmResult(rows))
        assert stats.mutual_information == 0.0
        assert stats.input_marginals.tolist() == stats.output_marginals.tolist() == [1.0, 0.0]

    @staticmethod
    def assert_matches_dense_channel(stats, ensemble):
        sent, decided, info = dense_channel(ensemble)
        np.testing.assert_allclose(stats.input_marginals, sent, rtol=0, atol=1e-14)
        np.testing.assert_allclose(stats.output_marginals, decided, rtol=0, atol=1e-14)
        assert abs(stats.mutual_information - info) <= 1e-14
