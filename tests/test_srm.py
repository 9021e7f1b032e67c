"""Tests for the square-root measurement and the optimality certificates."""

import cmath
import math
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    InvalidFactorization,
    block_sqrt,
    check_theorem2_reference,
    check_theorem3_reference,
    components_reference,
    counted_factorizations,
    dense_channel,
    dense_ensemble,
    dense_factor,
    gram_ensemble,
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
from srmlab import srm
from srmlab.analysis import optimize_prior_4pam
from srmlab.cli import (
    DEFAULT_DELTAS,
    EXIT_OK,
    load_gram_file,
    main,
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
    ReducibleBlock,
)
from srmlab.linalg import TOL_PSD, _components
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
from test_datasets import DATA, DEFAULT_DATASETS

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
        calls = []
        eigh = np.linalg.eigh

        def counted(mat, *args, **kwargs):
            calls.append(np.shape(mat))
            return eigh(mat, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        for n in (1, 3, 6):
            calls.clear()
            fast_srm(gram_ensemble(random_unit_trace_gram(np.random.default_rng(n), n)))
            assert calls == [(1, n, n)]


def residual(result) -> float:
    """The one residual of a square-root measurement, max |X_ij| |d_j - d_i|."""
    return float(_asymmetry(result.rows).max())


class TestCheckVerdicts:
    """``certify_srm`` on a dense root (m = 1), the one verdict behind ``srmlab check``."""

    def test_circulant_root_is_optimal(self):
        result = fast_srm(one_bin(make_psk(4, 1.0)))
        verdict = certify_srm(result)
        assert verdict.optimal and verdict.witness is None
        assert verdict.residual == residual(result) <= TOL_COND
        assert dense_asymmetry(dense_factor(result)) <= TOL_COND

    def test_orthogonal_states_are_optimal(self):
        verdict = certify_srm(fast_srm(dense_ensemble(np.full(3, 1 / 3), np.eye(3))))
        assert verdict == OptimalityVerdict(True, "theorem1_srm", None, 0.0, (0, 0, 0))

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
        pair = binary_pair(0.3, 0.5)
        verdict = check_theorem3(pair, [(0, 1)], fast_srm(pair))
        assert not verdict.optimal
        assert "spread" in verdict.witness
        assert (verdict.residual, verdict.at) == (None, None)

    def test_rejects_false_partition(self):
        pair = binary_pair(0.5, 0.5)
        with pytest.raises(NotBlockDiagonal):
            check_theorem3(pair, [(0,), (1,)], fast_srm(pair))

    def test_support_graph_search_matches_a_node_by_node_search(self):
        # random graphs from nearly empty to complete, paths (the longest
        # search) and two disjoint cliques
        rng = np.random.default_rng(11)
        graphs = []
        for n in (1, 2, 5, 17, 40):
            for density in (0.0, 0.05, 0.2, 1.0):
                upper = np.triu(rng.uniform(size=(n, n)) < density, 1)
                graphs.append(upper | upper.T)
            path = np.eye(n, k=1, dtype=bool)
            graphs.append(path | path.T)
            order = rng.permutation(n)
            graphs.append((path | path.T)[np.ix_(order, order)])
            halves = np.zeros((n, n), dtype=bool)
            halves[: n // 2, : n // 2] = halves[n // 2 :, n // 2 :] = True
            graphs.append(halves)
        answers = [[component.tolist() for component in _components(graph)] for graph in graphs]
        assert answers == [components_reference(graph) for graph in graphs]
        assert {len(components) == 1 for components in answers} == {True, False}

    def test_rejects_reducible_block(self):
        ensemble = gram_ensemble(np.diag([0.4, 0.6]))
        with pytest.raises(ReducibleBlock):
            check_theorem3(ensemble, [(0, 1)], fast_srm(ensemble))

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

    def test_support_graph_is_cut_at_the_fixed_scale(self):
        # every weighted off-diagonal entry of PSK(4) at priors 1/4 lies
        # between TOL_COND and 0.5: the block stays connected at any tol_cond
        ensemble = one_bin(make_psk(4, 1.0))
        g = weighted_gram(ensemble)
        assert TOL_COND < np.abs(g - np.diag(np.diag(g))).max() < 0.5
        result = fast_srm(ensemble)
        for tol_cond in (1e-12, TOL_COND, 1e-4, 0.5):
            assert check_theorem3(ensemble, [range(4)], result, tol_cond=tol_cond).optimal
            assert check_theorem3_reference(g, [range(4)], tol_cond=tol_cond).optimal

    def test_tolerated_leak_roots_each_block_on_its_own(self, monkeypatch):
        # a weighted cross-block entry of 0.0045 moves the full root's
        # diagonal by O(0.0045^2); with tol_cond above it, the residual and
        # the spreads come from the blocks' own roots, as in the reference,
        # and not from the full root; each block is a one-bin stack of the
        # kernel that fast_srm runs
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
        assert calls["eigh"] == [(1, 2, 2), (1, 2, 2)]
        assert verdict == check_theorem3_reference(g, blocks, tol_cond=0.005)
        spread = np.ptp(np.diagonal(principal_sqrt(g[:2, :2])).real)
        assert verdict.witness == f"block 0: square-root diagonal entries spread by {spread:.6e}"
        assert abs(spread - np.ptp(np.diagonal(result.rows[:, :, 0])[:2].real)) > 1e-5

    def test_reads_the_root_it_is_given(self, monkeypatch):
        # the residual comes from the result: no block is factored again,
        # and a root with a flat diagonal per block passes
        pair = binary_pair(0.3, 0.5)
        flat = SrmResult(np.diag([0.6, 0.6]).astype(complex)[:, :, None])
        calls = counted_factorizations(monkeypatch)
        verdict = check_theorem3(pair, [(0, 1)], flat)
        assert verdict.optimal
        assert not any(calls.values())

    def test_witness_names_a_block_whose_residual_fails(self):
        # block 0 spreads more (0.316 against 0.024), but its residual is
        # 6.7e-4 against block 1's 6.3e-3: at tol_cond 1e-3 only block 1
        # fails, so the witness names it, where the reference names block 0
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
        verdict = check_theorem3(ensemble, blocks, result, tol_cond=1e-3)
        assert verdict == OptimalityVerdict(
            False, "theorem3", "block 1: square-root diagonal entries spread by 2.360680e-02"
        )
        assert check_theorem3_reference(g, blocks, tol_cond=1e-3).witness == (
            "block 0: square-root diagonal entries spread by 3.162313e-01"
        )
        tols = {"tol_cond": 1e-3, "tol_psd": TOL_PSD}
        assert assert_certificates_match_references(ensemble, blocks, **tols) is False
        # at the default tolerance both blocks fail, and the wider one is named
        assert check_theorem3(ensemble, blocks, result).witness == (
            "block 0: square-root diagonal entries spread by 3.162313e-01"
        )
        assert check_theorem3(ensemble, blocks, result, tol_cond=1e-2).optimal

    def test_tolerance_bounds_the_residual_not_the_spread(self):
        # the biased pair's root diagonal spreads by 0.30, and its residual
        # is |X_01| = 0.17 times that: a tol_cond between the two passes
        # Theorem 3 with Theorem 2, where the reference still fails the spread
        pair = binary_pair(0.3, 0.5)
        g = weighted_gram(pair)
        result = fast_srm(pair)
        spread = float(np.ptp(result.rows[:, :, 0].diagonal().real))
        worst = residual(result)
        assert 2 * worst < spread
        assert check_theorem3(pair, [(0, 1)], result, tol_cond=0.9 * worst).witness == (
            f"block 0: square-root diagonal entries spread by {spread:.6e}"
        )
        assert check_theorem3(pair, [(0, 1)], result, tol_cond=2 * worst).optimal
        assert certify_srm(result, tol_cond=2 * worst).optimal
        assert not check_theorem3_reference(g, [(0, 1)], tol_cond=2 * worst).optimal


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
    except (NotBlockDiagonal, ReducibleBlock, InvalidFactorization, ValueError) as exc:
        return type(exc).__name__, str(exc)


def assert_certificates_match_references(ensemble, blocks, *, tol_cond, tol_psd) -> bool | None:
    """The residual verdicts on the SRM root against the independent references.

    A residual above ``tol_cond`` fails every verdict, the reference's
    Theorem-2 witness naming the residual and the state pair of the verdict's
    ``at``, and the Theorem-3 witness the reference's block. Below it every
    verdict passes, and a
    reference may fail only if the residual exceeds the default ``TOL_COND``:
    the tolerance then accepted a Y that is not Hermitian, on which the
    references' further tests (Y positive definite, every downdate PSD, a
    flat diagonal per block) can fail. ``check_theorem3`` raises the
    reference's errors. Returns the Theorem-1 verdict, or None when
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
    verdicts = [(verdict, theorem2), (verdict, verify_theorem1_reference(gram, factor, **tols))]
    if blocks is not None:
        blockwise = outcome(check_theorem3, ensemble, blocks, result, tol_cond=tol_cond)
        reference = outcome(check_theorem3_reference, gram, blocks, **tols)
        if isinstance(blockwise, tuple):  # an error's name and text
            assert blockwise == reference
        else:
            verdicts.append((blockwise, reference))
    assert verdict.optimal == (worst <= tol_cond)
    for certificate, reference in verdicts:
        if not certificate.optimal:
            assert not reference.optimal
            if certificate.method == "theorem3":
                assert_theorem3_witness(certificate, reference, gram, blocks, tol_psd, tol_cond)
        elif not reference.optimal:
            assert worst > TOL_COND
    if not verdict.optimal:
        assert theorem2.witness == (
            "condition (i) fails at state pair ({}, {}): residual ".format(*verdict.at[:2])
            + f"{worst:.6e}"
        )
    return verdict.optimal


def assert_theorem3_witness(verdict, reference, gram, blocks, tol_psd, tol_cond) -> None:
    """A failed Theorem-3 verdict names a block whose own residual exceeds ``tol_cond``.

    That is the reference's block, of largest spread, whenever that block
    fails; otherwise the named block fails, and the witness gives its spread.
    Each block's residual and spread are read from its own principal root.
    """
    partition = [tuple(block) for block in blocks]
    roots = [principal_sqrt(gram[np.ix_(block, block)], tol_psd=tol_psd) for block in partition]

    def named(witness: str) -> int:
        return int(witness.split(":", 1)[0].removeprefix("block "))

    if dense_asymmetry(roots[named(reference.witness)]) > tol_cond:
        assert verdict == reference
    else:
        b = named(verdict.witness)
        assert dense_asymmetry(roots[b]) > tol_cond
        spread = float(np.ptp(np.diagonal(roots[b]).real))
        assert verdict.witness == f"block {b}: square-root diagonal entries spread by {spread:.6e}"


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
                assert verdict.witness is None
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

    def test_witness_names_the_pair_and_the_shift(self):
        result = fast_srm(make_double_bpsk(1.0, 3.0, 0.25))
        verdict = certify_srm(result)
        assert not verdict.optimal
        assert verdict.method == "theorem1_srm"
        assert verdict.at[:2] == (0, 1)
        assert verdict.residual == float(_asymmetry(result.rows)[verdict.at]) == residual(result)
        assert verdict.witness == (
            f"Y is not Hermitian at constellations (0, 1), shift {verdict.at[2]}: "
            f"residual {verdict.residual:.6e}"
        )

    def test_fig23_point_takes_one_batched_eigh(self, monkeypatch):
        calls = counted_factorizations(monkeypatch)
        (row,) = rows_fig23([1.0], TOL_PSD)
        assert {name: log for name, log in calls.items() if log} == {"eigh": [(2, 2, 2)]}
        assert row["p_star"] == optimize_prior_4pam(1.0)

    def test_fig1_call_takes_one_batched_eigh(self, monkeypatch):
        # the four positive default offsets are four (s, m) = (2, 2)
        # ensembles per energy, all rooted by one eigh of their stacked bins
        deltas = parse_angle_list(DEFAULT_DELTAS)
        calls = counted_factorizations(monkeypatch)
        rows = rows_fig1([1.0], deltas, TOL_PSD)
        assert {name: log for name, log in calls.items() if log} == {"eigh": [(8, 2, 2)]}
        assert len(rows) == 5
        calls["eigh"].clear()
        rows = rows_fig1([0.5, 1.0, 2.0], deltas, TOL_PSD)
        assert {name: log for name, log in calls.items() if log} == {"eigh": [(24, 2, 2)]}
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
        # fast_srm returns the rows bin-major; their C- and Fortran-ordered
        # copies are the same numbers, and give the same bits
        rows = fast_srm(build()).rows
        assert not rows.flags.c_contiguous
        layouts = (rows, np.ascontiguousarray(rows), np.asfortranarray(rows))
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

    @staticmethod
    def assert_matches_dense_channel(stats, ensemble):
        sent, decided, info = dense_channel(ensemble)
        np.testing.assert_allclose(stats.input_marginals, sent, rtol=0, atol=1e-14)
        np.testing.assert_allclose(stats.output_marginals, decided, rtol=0, atol=1e-14)
        assert abs(stats.mutual_information - info) <= 1e-14

    def test_default_and_large_sweeps_gather_nothing(self, monkeypatch, tmp_path):
        # no root that the default sweeps or the large ones (ppm at m = 256,
        # double PPM at m = 256 and 512, over the default grid) take has a
        # zero entry, so their information is summed over the whole array
        def refuse_gather(joint, sent, decided):
            raise AssertionError(f"gathered the positive entries of a {joint.shape} joint law")

        monkeypatch.setattr(srm, "_nonzero_terms", refuse_gather)
        out = tmp_path / "sweep.csv"
        for name, argv in DEFAULT_DATASETS.items():
            if argv[0] == "sweep":
                assert main([*argv, "--out", str(out)]) == EXIT_OK
                assert out.read_text() == (DATA / f"{name}.csv").read_text()
        for argv in (["--scheme", "ppm", "--m", "256"], ["--scheme", "double_ppm", "--m", "256,512"]):
            assert main(["sweep", *argv, "--out", str(out)]) == EXIT_OK
