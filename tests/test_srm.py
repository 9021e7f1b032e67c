"""Tests for the square-root measurement and the optimality certificates."""

import cmath
import math
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    block_sqrt,
    certify_eigh_reference,
    check_theorem2_reference,
    check_theorem3_reference,
    connected_reference,
    counted_factorizations,
    dense_ensemble,
    gram_lines,
    principal_sqrt,
    random_circulant_gram,
    random_gus_ensemble,
    random_unit_trace_gram,
    trace_criterion,
    verify_theorem1_reference,
)
from srmlab.analysis import optimize_prior_4pam
from srmlab.cli import load_gram_file, rows_fig23
from srmlab.constellations import (
    GusEnsemble,
    make_double_bpsk,
    make_double_ppm,
    make_ppm,
    make_psk,
    weighted_gram,
)
from srmlab.errors import (
    GramSingular,
    InvalidFactorization,
    NotBlockDiagonal,
    ReducibleBlock,
    SingularFactor,
)
from srmlab.linalg import TOL_PSD
from srmlab.gus import block_diagonalize, fast_srm
from srmlab.srm import (
    TOL_COND,
    _connected,
    certify,
    certify_srm,
    channel_stats,
    check_theorem3,
    srm,
)

GRAMFILES = Path(__file__).resolve().parent.parent / "gramfiles"
STRUCTURAL_ZERO = "boundary: min eigenvalue over Y - W_r is 0.000000e+00, inside the zero band"


def binary_gram(p0: float, chi: float) -> np.ndarray:
    return weighted_gram(dense_ensemble([p0, 1 - p0], [[1, chi], [chi, 1]]))


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
        result = srm(weighted_gram(make_ppm(3, 1.0)))
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
            joint = np.abs(result.factor) ** 2
            assert abs(joint.sum() - 1.0) <= 1e-10
            np.testing.assert_allclose(joint.sum(axis=1), np.diagonal(g).real, atol=1e-10)
            assert result.pc == pytest.approx(result.per_state_correct.sum())

    def test_joint_symmetric_for_real_gram(self):
        g = binary_gram(0.3, 0.5)
        result = srm(g)
        joint = np.abs(result.factor) ** 2
        np.testing.assert_allclose(joint, joint.T, atol=1e-14)

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


def factor_gram(x) -> np.ndarray:
    """The Gram matrix X†X that a candidate factor X factorizes."""
    x = np.asarray(x, dtype=complex)
    return x.conj().T @ x


class TestCertifyTheorem2:
    def test_circulant_root_is_optimal(self):
        g = weighted_gram(make_psk(4, 1.0))
        verdict, _ = certify(g, principal_sqrt(g))
        assert verdict.optimal
        assert verdict.method == "theorem2"

    def test_identity_factor_is_optimal(self):
        x = np.eye(3) / math.sqrt(3)
        verdict, _ = certify(factor_gram(x), x)
        assert verdict.optimal

    def test_biased_binary_root_fails_balance_condition(self):
        result = srm(binary_gram(0.3, 0.5))
        verdict, oracle = certify(binary_gram(0.3, 0.5), result.factor)
        assert not verdict.optimal
        assert "condition (i)" in verdict.witness
        # ground truth agrees
        assert not oracle.optimal

    def test_boundary_positivity_reports_optimal_with_note(self):
        # Y = diag(1, 1e-12) sits inside the numerical zero band
        x = np.diag([1.0, 1e-6])
        verdict, _ = certify(factor_gram(x), x)
        assert verdict.optimal
        assert "boundary" in verdict.witness

    def test_rejects_zero_diagonal(self):
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(SingularFactor, match="vanishing diagonal"):
            certify(factor_gram(x), x)

    def test_singular_factor_reports_the_boundary(self):
        # no SVD refuses a singular factor; its Y = X X_d† is singular too,
        # so Theorem 2 reports lambda_min(Y) inside the zero band
        x = np.array([[1.0, 1.0], [1.0, 1.0]])
        verdict, oracle = certify(factor_gram(x), x)
        assert verdict.optimal
        lowest = float(verdict.witness.split()[6].rstrip(","))
        assert verdict.witness == (
            f"boundary: min eigenvalue of Y is {lowest:.6e}, inside the zero band"
        )
        assert abs(lowest) <= TOL_PSD
        assert oracle.optimal
        with pytest.raises(SingularFactor, match="min singular value"):
            check_theorem2_reference(x)


class TestCheckTheorem3:
    def test_single_gus_block(self):
        g = weighted_gram(make_psk(4, 1.0))
        verdict = check_theorem3(g, [range(4)], principal_sqrt(g))
        assert verdict.optimal

    def test_binary_equiprobable_common_diagonal(self):
        chi = 0.5
        g = binary_gram(0.5, chi)
        root = principal_sqrt(g)
        verdict = check_theorem3(g, [(0, 1)], root)
        assert verdict.optimal
        # the common diagonal value is a / sqrt(2)
        a = math.sqrt((1 + math.sqrt(1 - chi**2)) / 2)
        assert root[0, 0].real == pytest.approx(a / math.sqrt(2), abs=1e-12)
        assert root[1, 1].real == pytest.approx(a / math.sqrt(2), abs=1e-12)

    def test_singleton_blocks(self):
        g = np.diag([0.4, 0.6])
        verdict = check_theorem3(g, [(0,), (1,)], principal_sqrt(g))
        assert verdict.optimal

    def test_unbalanced_block_is_suboptimal(self):
        g = binary_gram(0.3, 0.5)
        verdict = check_theorem3(g, [(0, 1)], principal_sqrt(g))
        assert not verdict.optimal
        assert "spread" in verdict.witness

    def test_rejects_false_partition(self):
        g = binary_gram(0.5, 0.5)
        with pytest.raises(NotBlockDiagonal):
            check_theorem3(g, [(0,), (1,)], principal_sqrt(g))

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
        answers = [_connected(graph) for graph in graphs]
        assert answers == [connected_reference(graph) for graph in graphs]
        assert set(answers) == {True, False}

    def test_rejects_reducible_block(self):
        g = np.diag([0.4, 0.6])
        with pytest.raises(ReducibleBlock):
            check_theorem3(g, [(0, 1)], principal_sqrt(g))

    def test_rejects_non_partition(self):
        with pytest.raises(ValueError):
            check_theorem3(np.eye(2) / 2, [(0,)], np.eye(2) / math.sqrt(2))
        with pytest.raises(ValueError, match="at least one state"):
            check_theorem3(np.eye(3) / 3, [(0, 1), (), (2,)], np.eye(3) / math.sqrt(3))

    def test_rejects_a_factor_of_another_size(self):
        with pytest.raises(InvalidFactorization, match="factor shape"):
            check_theorem3(np.eye(2) / 2, [(0, 1)], np.eye(3))

    def test_support_graph_is_cut_at_the_fixed_scale(self):
        # every weighted off-diagonal entry of PSK(4) at priors 1/4 lies
        # between TOL_COND and 0.5: the block stays connected at any tol_cond
        g = weighted_gram(make_psk(4, 1.0))
        assert TOL_COND < np.abs(g - np.diag(np.diag(g))).max() < 0.5
        for tol_cond in (1e-12, TOL_COND, 1e-4, 0.5):
            assert check_theorem3(g, [range(4)], principal_sqrt(g), tol_cond=tol_cond).optimal
            assert check_theorem3_reference(g, [range(4)], tol_cond=tol_cond).optimal

    def test_tolerated_leak_roots_each_block_on_its_own(self, monkeypatch):
        # a weighted cross-block entry of 0.022 moves the full root's diagonal
        # by O(0.022^2); with tol_cond above it, the spreads come from the
        # blocks' own roots, as in the reference, and not from the factor
        g = weighted_gram(dense_ensemble([0.2, 0.3, 0.25, 0.25], [
            [1.0, 0.4, 0.1, 0.0],
            [0.4, 1.0, 0.0, 0.0],
            [0.1, 0.0, 1.0, 0.3],
            [0.0, 0.0, 0.3, 1.0],
        ]))
        blocks = [(0, 1), (2, 3)]
        factor = principal_sqrt(g)
        calls = counted_factorizations(monkeypatch)
        verdict = check_theorem3(g, blocks, factor, tol_cond=0.05)
        assert calls["eigh"] == [(2, 2), (2, 2)]
        assert verdict == check_theorem3_reference(g, blocks, tol_cond=0.05)
        spread = np.ptp(np.diagonal(principal_sqrt(g[:2, :2])).real)
        assert verdict.witness == f"block 0: square-root diagonal entries spread by {spread:.6e}"
        assert abs(spread - np.ptp(np.diagonal(factor)[:2].real)) > 1e-6

    def test_reads_the_root_it_is_given(self, monkeypatch):
        # the per-block spreads come from the factor's diagonal: no block is
        # factored again, and a factor with a flat diagonal per block passes
        g = binary_gram(0.3, 0.5)
        calls = counted_factorizations(monkeypatch)
        verdict = check_theorem3(g, [(0, 1)], np.diag([0.6, 0.6]))
        assert verdict.optimal
        assert calls == {"eigh": [], "eigvalsh": [], "svd": [], "cholesky": []}


class TestCertifyTheorem1:
    def test_four_phase_root_is_optimal(self):
        g = weighted_gram(make_psk(4, 1.0))
        _, verdict = certify(g, principal_sqrt(g))
        assert verdict.optimal
        assert verdict.method == "theorem1_oracle"

    def test_identity(self):
        g = np.eye(3) / 3
        _, verdict = certify(g, principal_sqrt(g))
        assert verdict.optimal

    def test_biased_binary_root_is_suboptimal(self):
        g = binary_gram(0.3, 0.5)
        _, verdict = certify(g, principal_sqrt(g))
        assert not verdict.optimal
        assert "min eigenvalue" in verdict.witness

    def test_rejects_invalid_factorization(self):
        g = binary_gram(0.5, 0.5)
        with pytest.raises(InvalidFactorization):
            certify(g, np.eye(2))
        with pytest.raises(InvalidFactorization, match="factor shape"):
            certify(g, np.eye(3))

    def test_accepts_any_valid_factor(self):
        # a unitary rotation of the root is still a factorization; the
        # oracle must accept the input and judge it on its own merits
        rng = np.random.default_rng(41)
        g = random_unit_trace_gram(rng, 4)
        root = principal_sqrt(g)
        z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        u, _ = np.linalg.qr(z)
        _, verdict = certify(g, u @ root)
        assert verdict.method == "theorem1_oracle"

    def test_agrees_with_theorem2_on_random_grams(self):
        rng = np.random.default_rng(43)
        for _ in range(25):
            n = int(rng.integers(2, 8))
            g = random_unit_trace_gram(rng, n)
            pairwise, oracle = certify(g, principal_sqrt(g))
            assert pairwise.optimal == oracle.optimal

    def test_agrees_with_theorem2_on_circulant_grams(self):
        rng = np.random.default_rng(47)
        for _ in range(25):
            m = int(rng.integers(2, 9))
            g = random_circulant_gram(rng, m)
            pairwise, oracle = certify(g, principal_sqrt(g))
            assert pairwise.optimal and oracle.optimal


def assert_matches_reference(gram, factor) -> bool:
    """Same verdict as the O(n⁴) reference, and for suboptimal factors the same witness."""
    _, fast = certify(gram, factor)
    slow = verify_theorem1_reference(gram, factor)
    assert fast.optimal == slow.optimal
    if fast.optimal:
        assert fast.witness == STRUCTURAL_ZERO
        assert slow.witness.startswith("boundary: ")
    else:
        assert fast.witness == slow.witness
    return fast.optimal


def certify_gram(rng, n: int, skewed: bool) -> np.ndarray:
    """A geometrically uniform circulant Gram, with equal or with skewed priors."""
    spectrum = rng.uniform(0.2, 1.8, n)
    row = np.fft.ifft(spectrum / spectrum.mean())
    overlaps = row[(np.arange(n)[None, :] - np.arange(n)[:, None]) % n]
    priors = rng.uniform(0.5, 1.5, n) if skewed else np.ones(n)
    return weighted_gram(dense_ensemble(priors / priors.sum(), overlaps))


EIGH_TOLERANCES = [
    {},
    {"tol_psd": 1e-6},
    {"tol_cond": 1e-4},
    {"tol_psd": 1e-14, "tol_cond": 1e-12},
]


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


class TestTheorem1Reduction:
    """The O(n³) Theorem-1 oracle of ``certify`` against the per-state reference loop."""

    def test_matches_reference_on_random_ensembles(self):
        rng = np.random.default_rng(107)
        verdicts = set()
        for index in range(60):
            n = int(rng.integers(2, 9))
            if index % 4 == 0:
                gram = random_unit_trace_gram(rng, n)
            else:
                gram = weighted_gram(random_gus_ensemble(rng, index % 4, n))
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
        gram, factor = rotated_factor()
        assert not assert_matches_reference(gram, factor)
        assert certify(gram, factor)[1].witness == "Y is not Hermitian: max asymmetry 3.099467e-08"

    def test_indefinite_hermitian_y_fails_at_the_first_state(self):
        # X[j, k] = Y[j, k] / sqrt(Y[k, k]) gives back exactly this Y, so
        # condition (i) holds and condition (ii) fails; by interlacing the
        # first downdate already dips below Y's lowest eigenvalue
        lowest = np.linalg.eigvalsh(INDEFINITE_Y)[0]
        assert lowest < -TOL_PSD
        gram, x = factor_of_y(INDEFINITE_Y)
        pairwise, fast = certify(gram, x)
        assert pairwise.witness.startswith("condition (ii) fails")
        slow = verify_theorem1_reference(gram, x)
        assert not fast.optimal
        assert fast.witness == slow.witness
        assert fast.witness.startswith("Y - W_0 has min eigenvalue ")
        assert float(fast.witness.rsplit(" ", 1)[1]) <= lowest

    def test_two_choleskys_and_no_eigensolve_of_an_optimal_factor(self, monkeypatch):
        gram = weighted_gram(make_ppm(64, 1.0))
        factor = srm(gram).factor
        calls = counted_factorizations(monkeypatch)
        assert all(verdict.optimal for verdict in certify(gram, factor))
        assert calls == {"eigh": [], "eigvalsh": [], "svd": [], "cholesky": [(64, 64), (64, 64)]}

    def test_one_confirming_eigensolve_of_a_suboptimal_factor(self, monkeypatch):
        constellation, _ = load_gram_file(str(GRAMFILES / "binary_biased.gram"))
        gram = weighted_gram(constellation)
        factor = srm(gram).factor
        calls = counted_factorizations(monkeypatch)
        assert certify(gram, factor)[1].witness == "Y - W_0 has min eigenvalue -1.015895e-03"
        assert calls == {"eigh": [], "eigvalsh": [(2, 2)], "svd": [], "cholesky": [(2, 2)]}


class TestCertifyMatchesEighReference:
    """The Cholesky tests of ``certify`` give the verdicts and witnesses of one ``eigh`` of Y."""

    @staticmethod
    def assert_same(gram, factor, tols):
        verdicts = certify(gram, factor, **tols)
        assert verdicts == certify_eigh_reference(gram, factor, **tols)
        return verdicts

    @pytest.mark.parametrize("tols", EIGH_TOLERANCES)
    def test_criterion_04_generators(self, tols):
        rng = np.random.default_rng(103)
        verdicts = set()
        for index in range(100):
            n = int(rng.integers(2, 9))
            if index % 2 == 0:
                gram = random_unit_trace_gram(rng, n)
            else:
                gram = weighted_gram(random_gus_ensemble(rng, 1, n))
            verdicts.add(self.assert_same(gram, principal_sqrt(gram), tols)[1].optimal)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("tols", EIGH_TOLERANCES)
    @pytest.mark.parametrize("n", [16, 64, 128])
    def test_circulant_grams(self, n, tols):
        rng = np.random.default_rng(n)
        for skewed in (False, True):
            gram = certify_gram(rng, n, skewed)
            verdicts = self.assert_same(gram, srm(gram).factor, tols)
            assert [verdict.optimal for verdict in verdicts] == [not skewed] * 2

    @pytest.mark.parametrize("tols", EIGH_TOLERANCES)
    def test_gram_files_and_special_factors(self, tols):
        for stem in ("binary_equal", "binary_biased", "identity3"):
            constellation, _ = load_gram_file(str(GRAMFILES / f"{stem}.gram"))
            gram = weighted_gram(constellation)
            self.assert_same(gram, srm(gram).factor, tols)
        witnesses = [self.assert_same(*rotated_factor(), tols)[0].witness]
        for x in (np.array([[1.0, 1.0], [1.0, 1.0]]), np.diag([1.0, 1e-6])):
            witnesses.append(self.assert_same(factor_gram(x), x, tols)[0].witness)
        if not tols:
            assert witnesses[0].startswith("condition (i) fails")
            assert all(witness.startswith("boundary: ") for witness in witnesses[1:])

    @pytest.mark.parametrize("tols", EIGH_TOLERANCES)
    def test_every_state_is_a_candidate_when_y_plus_tol_is_indefinite(self, tols):
        # the screen's Cholesky fails, so every r is confirmed in order
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(INDEFINITE_Y + tols.get("tol_psd", TOL_PSD) * np.eye(3))
        pairwise, oracle = self.assert_same(*factor_of_y(INDEFINITE_Y), tols)
        assert pairwise.witness.startswith("condition (ii) fails")
        assert oracle.witness.startswith("Y - W_0 has min eigenvalue ")

    def test_rank_deficient_y_prints_its_rounding_noise(self):
        # a singular PSD Y has lambda_1 at rounding level, and eigvalsh and
        # eigh return different noise there: the boundary notes agree in
        # every word but that value, which both keep inside the zero band
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            a = rng.normal(size=(n, n - 1)) + 1j * rng.normal(size=(n, n - 1))
            gram, x = factor_of_y(a @ a.conj().T)
            pairwise, oracle = certify(gram, x)
            pairwise_ref, oracle_ref = certify_eigh_reference(gram, x)
            assert oracle == oracle_ref
            for verdict in (pairwise, pairwise_ref):
                assert verdict.optimal
                lowest = float(verdict.witness.split()[6].rstrip(","))
                assert verdict.witness == (
                    f"boundary: min eigenvalue of Y is {lowest:.6e}, inside the zero band"
                )
                assert abs(lowest) <= TOL_PSD

    @pytest.mark.parametrize("n, tol_psd", [(16, TOL_PSD), (128, 1e-14)])
    @pytest.mark.parametrize("edge", [1.0, -1.0])
    def test_lambda_1_at_the_band_edge_differs_only_by_rounding(self, n, tol_psd, edge):
        # with lambda_1 of Y placed on +tol_psd or -tol_psd, the Cholesky of
        # Y - tol_psd I and eigvalsh answer on either side of that edge as
        # rounding falls, and eigh may answer on the other: a missing or
        # extra boundary note at +tol_psd, optimal against a condition (ii)
        # failure at -tol_psd. Elsewhere the verdicts and notes agree, and a
        # printed lambda_1 differs from eigh's by rounding only
        rng = np.random.default_rng(n)
        q = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
        noise = 8 * n * np.finfo(float).eps * 1.5
        for lam in (edge * tol_psd, edge * tol_psd + 4 * noise, edge * tol_psd - 4 * noise):
            spectrum = np.concatenate([[lam], rng.uniform(0.5, 1.5, n - 1)])
            y = (q * spectrum) @ q.conj().T
            gram, x = factor_of_y((y + y.conj().T) / 2.0)
            pairwise = certify(gram, x, tol_psd=tol_psd)[0]
            reference = certify_eigh_reference(gram, x, tol_psd=tol_psd)[0]
            if lam != edge * tol_psd:
                assert pairwise.optimal == reference.optimal
                assert (pairwise.witness is None) == (reference.witness is None)
            for verdict in (pairwise, reference):
                if verdict.witness:
                    printed = float(verdict.witness.split(" is ")[1].split(",")[0])
                    assert abs(printed - lam) <= noise


def outcome(certificate, *args, **kwargs):
    """What a certificate returns, or the type and text of the error it raises."""
    try:
        return certificate(*args, **kwargs)
    except (NotBlockDiagonal, ReducibleBlock, SingularFactor, InvalidFactorization, ValueError) as exc:
        return type(exc).__name__, str(exc)


def assert_certificates_match_references(gram, blocks, *, tol_cond, tol_psd) -> bool | None:
    """``certify`` and ``check_theorem3`` on the SRM root against the independent references.

    Verdicts, witness texts and errors must be equal; an optimal Theorem-1
    verdict prints the structural zero where the reference prints its
    eigensolver's minimum. Returns the Theorem-1 verdict, or None when
    ``srm`` refuses the Gram matrix, as ``srmlab check`` would.
    """
    try:
        factor = srm(gram, tol_psd=tol_psd).factor
    except GramSingular:
        return None
    tols = {"tol_cond": tol_cond, "tol_psd": tol_psd}
    if blocks is not None:
        assert outcome(check_theorem3, gram, blocks, factor, tol_cond=tol_cond) == outcome(
            check_theorem3_reference, gram, blocks, **tols
        )
    verdicts = outcome(certify, gram, factor, **tols)
    pairwise = outcome(check_theorem2_reference, factor, **tols)
    if isinstance(verdicts[0], str):  # an error's name and text
        assert verdicts == pairwise
        return None
    assert verdicts[0] == pairwise
    fast, slow = verdicts[1], verify_theorem1_reference(gram, factor, **tols)
    assert fast.optimal == slow.optimal
    if fast.optimal:
        assert fast.witness == STRUCTURAL_ZERO
        assert slow.witness.startswith("boundary: ")
    else:
        assert fast.witness == slow.witness
    return fast.optimal


def read_gram(lines, tmp_path):
    path = tmp_path / "case.gram"
    path.write_text("\n".join(lines) + "\n")
    constellation, blocks = load_gram_file(str(path))
    return weighted_gram(constellation), blocks


def leak_lines(rng, n, leak) -> list[str]:
    """A two-block certify-style file with one cross-block entry of magnitude ``leak``."""
    lines = gram_lines(rng, n, True)
    i, j = int(rng.integers(n // 2)), n // 2 + int(rng.integers(n // 2))
    value = leak * np.exp(2j * np.pi * rng.uniform())
    return lines[:-1] + [f"inner {i} {j} {float(value.real)!r} {float(value.imag)!r}", lines[-1]]


def dense_gram(rng, n) -> np.ndarray:
    """Random unit-norm states with skewed priors (squared uniforms on [0.05, 1.5])."""
    b = rng.normal(size=(n, n + 2)) + 1j * rng.normal(size=(n, n + 2))
    states = b / np.linalg.norm(b, axis=1, keepdims=True)
    priors = rng.uniform(0.05, 1.5, n) ** 2
    return weighted_gram(dense_ensemble(priors / priors.sum(), states.conj() @ states.T))


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
                assert_certificates_match_references(weighted_gram(constellation), blocks, **tols)
            )
        rng = np.random.default_rng(211)
        for leak in LEAKS:
            for n in (8, 16):
                gram, blocks = read_gram(leak_lines(rng, n, leak), tmp_path)
                verdicts.append(assert_certificates_match_references(gram, blocks, **tols))
        for index in range(24):
            n = 1 + index % 12
            partition = [range(n)] if index % 2 else [range(n // 2), range(n // 2, n)]
            gram = dense_gram(rng, n)
            verdicts.append(assert_certificates_match_references(gram, partition, **tols))
        # the large tolerances refuse most Grams or pass every factor
        assert True in verdicts
        if tol_psd < 0.25 and tol_cond < 0.5:
            assert False in verdicts

    @pytest.mark.parametrize("n", [16, 64, 128])
    @pytest.mark.parametrize("blocks", [False, True])
    def test_certify_style_files(self, n, blocks, tmp_path):
        for seed in range(2):
            rng = np.random.default_rng(4 * n + 2 * blocks + seed)
            gram, partition = read_gram(gram_lines(rng, n, blocks), tmp_path)
            verdict = assert_certificates_match_references(
                gram, partition, tol_cond=TOL_COND, tol_psd=TOL_PSD
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


def dense_asymmetry(factor) -> float:
    y = factor * np.diagonal(factor).conj()[None, :]
    return float(np.abs(y - y.conj().T).max())


class TestCertifySrm:
    def test_verdicts_match_the_dense_certificates(self):
        ensembles = certify_srm_ensembles()
        optimal = 0
        for ensemble in ensembles:
            result = fast_srm(ensemble)
            gram = weighted_gram(ensemble)
            verdict = certify_srm(result)
            assert verdict.optimal == certify(gram, result.factor)[1].optimal
            assert verdict.optimal == verify_theorem1_reference(gram, result.factor).optimal
            # a dense root is the case m = 1
            assert certify_srm(srm(gram)).optimal == verdict.optimal
            asymmetry = dense_asymmetry(result.factor)
            if verdict.optimal:
                assert verdict.witness is None
                assert asymmetry <= TOL_COND
            else:
                residual = float(verdict.witness.rsplit("residual ", 1)[1])
                assert residual == pytest.approx(asymmetry, rel=1e-6)
            optimal += verdict.optimal
        # PSK at m = 32 is singular at unit amplitude
        assert (len(ensembles), optimal) == (92, 16)

    @pytest.mark.parametrize("m", [2, 4])
    def test_reducible_coupling_with_unequal_priors_is_optimal(self, m):
        ensemble = orthogonal_pair(m)
        result = fast_srm(ensemble)
        assert certify_srm(result).optimal
        assert certify(weighted_gram(ensemble), result.factor)[1].optimal
        g, equal = trace_criterion(block_sqrt(block_diagonalize(ensemble)))
        assert not equal and abs(g[0] - g[1]) > 0.1

    def test_witness_names_the_pair_and_the_shift(self):
        verdict = certify_srm(fast_srm(make_double_bpsk(1.0, 3.0, 0.25)))
        assert not verdict.optimal
        assert verdict.method == "theorem1_srm"
        assert verdict.witness.startswith("Y is not Hermitian at constellations (0, 1), shift ")

    def test_fig23_point_takes_one_batched_eigh(self, monkeypatch):
        calls = counted_factorizations(monkeypatch)
        (row,) = rows_fig23([1.0], TOL_PSD)
        assert calls == {"eigh": [(2, 2, 2)], "eigvalsh": [], "svd": [], "cholesky": []}
        assert row["p_star"] == optimize_prior_4pam(1.0)


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
