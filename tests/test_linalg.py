"""Tests for the dense linear algebra layer."""

import numpy as np
import pytest

from helpers import (
    CirculantSpec,
    NotHermitian,
    block_circulant,
    circulant_from_eigenvalues,
    circulant_from_row,
    components_reference,
    fourier_matrix,
    hermitian_eig,
    is_psd,
    principal_sqrt,
    random_circulant_gram,
)
from srmlab.errors import NumericalError
from srmlab.cli import TOL_RECON
from srmlab.linalg import _components


def random_hermitian(rng, n):
    b = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (b + b.conj().T) / 2


class TestHermitianEig:
    def test_identity(self):
        eig = hermitian_eig(np.eye(3))
        np.testing.assert_allclose(eig.eigenvalues, np.ones(3), atol=1e-12)

    def test_diagonal(self):
        eig = hermitian_eig(np.diag([5.0, 2.0]))
        np.testing.assert_allclose(eig.eigenvalues, [2.0, 5.0], atol=1e-12)

    def test_binary_gram_eigenvalues(self):
        # (1 +/- chi)/2 for the half-weighted two-state matrix
        chi = 0.5
        eig = hermitian_eig(0.5 * np.array([[1, chi], [chi, 1]]))
        np.testing.assert_allclose(eig.eigenvalues, [0.25, 0.75], atol=1e-12)

    def test_eigenvalues_ascending(self):
        rng = np.random.default_rng(7)
        eig = hermitian_eig(random_hermitian(rng, 9))
        assert np.all(np.diff(eig.eigenvalues) >= 0)

    def test_reconstruction_and_unitarity(self):
        rng = np.random.default_rng(11)
        for n in (2, 5, 16, 64):
            m = random_hermitian(rng, n)
            eig = hermitian_eig(m)
            assert np.abs(eig.reconstruct() - m).max() <= TOL_RECON
            v = eig.eigenvectors
            assert np.abs(v.conj().T @ v - np.eye(n)).max() <= TOL_RECON

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            hermitian_eig(np.ones((2, 3)))


class TestPrincipalSqrt:
    def test_identity(self):
        np.testing.assert_allclose(principal_sqrt(np.eye(4)), np.eye(4), atol=1e-12)

    def test_diagonal(self):
        np.testing.assert_allclose(
            principal_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-12
        )

    def test_binary_gram_root_relations(self):
        # root of (1/2)[[1, chi], [chi, 1]] is (1/sqrt 2)[[a, b], [b, a]]
        # with a^2 + b^2 = 1 and 2ab = chi
        chi = 0.5
        root = principal_sqrt(0.5 * np.array([[1, chi], [chi, 1]]))
        a = root[0, 0] * np.sqrt(2)
        b = root[0, 1] * np.sqrt(2)
        assert root[1, 1] == pytest.approx(root[0, 0])
        assert a**2 + abs(b) ** 2 == pytest.approx(1.0, abs=1e-12)
        assert 2 * a * b == pytest.approx(chi, abs=1e-12)

    def test_squares_back_random_psd(self):
        rng = np.random.default_rng(3)
        for n in (2, 7, 33, 64):
            b = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            m = b @ b.conj().T
            root = principal_sqrt(m)
            assert np.abs(root @ root - m).max() <= TOL_RECON * max(1.0, np.abs(m).max())

    def test_root_of_circulant_is_circulant(self):
        rng = np.random.default_rng(5)
        for m in (2, 3, 8):
            gram = random_circulant_gram(rng, m)
            dense_root = principal_sqrt(gram)
            lam = np.fft.ifft(gram[0], norm="forward")
            spectral_root = circulant_from_eigenvalues(
                np.sqrt(np.clip(lam.real, 0, None))
            ).matrix()
            assert np.abs(dense_root - spectral_root).max() <= TOL_RECON

    def test_clamps_tiny_negative_eigenvalues(self):
        root = principal_sqrt(np.diag([1.0, -5e-11]))
        np.testing.assert_allclose(root, np.diag([1.0, 0.0]), atol=1e-12)

    def test_rejects_indefinite(self):
        with pytest.raises(NumericalError, match="below"):
            principal_sqrt(np.diag([1.0, -1.0]))


class TestIsPsd:
    def test_identity(self):
        assert is_psd(np.eye(2), 1e-10) == (True, 1.0)

    def test_indefinite_diagonal(self):
        verdict, lowest = is_psd(np.diag([1.0, -0.5]), 1e-10)
        assert not verdict
        assert lowest == pytest.approx(-0.5)

    def test_symmetric_indefinite(self):
        verdict, lowest = is_psd(np.array([[1.0, 2.0], [2.0, 1.0]]), 1e-10)
        assert not verdict
        assert lowest == pytest.approx(-1.0)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            is_psd(np.array([[1.0, 1.0], [0.0, 1.0]]), 1e-10)


class TestFourierMatrix:
    def test_dimension_one(self):
        np.testing.assert_allclose(fourier_matrix(1), [[1.0]], atol=1e-15)

    def test_dimension_two(self):
        expected = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        np.testing.assert_allclose(fourier_matrix(2), expected, atol=1e-15)

    def test_unitary(self):
        f = fourier_matrix(5)
        np.testing.assert_allclose(f @ f.conj().T, np.eye(5), atol=1e-14)


class TestCirculant:
    def test_identity_row(self):
        np.testing.assert_allclose(
            np.fft.ifft([1.0, 0.0, 0.0], norm="forward"), np.ones(3), atol=1e-15
        )

    def test_uniform_coupling_row(self):
        lam = np.fft.ifft([1.0, 0.2, 0.2], norm="forward")
        np.testing.assert_allclose(lam, [1.4, 0.8, 0.8], atol=1e-14)

    def test_two_point_transform(self):
        c0, c1 = 0.7, 0.2 + 0.1j
        lam = np.fft.ifft([c0, c1], norm="forward")
        np.testing.assert_allclose(lam, [c0 + c1, c0 - c1], atol=1e-15)

    def test_inverse_examples(self):
        np.testing.assert_allclose(
            circulant_from_eigenvalues([1.0, 1.0, 1.0]).first_row, [1, 0, 0], atol=1e-15
        )
        np.testing.assert_allclose(
            circulant_from_eigenvalues([1.4, 0.8, 0.8]).first_row,
            [1.0, 0.2, 0.2],
            atol=1e-14,
        )
        np.testing.assert_allclose(
            circulant_from_eigenvalues([0.3, 0.3]).first_row, [0.3, 0.0], atol=1e-15
        )

    def test_round_trip_random(self):
        rng = np.random.default_rng(13)
        for m in (1, 2, 5, 12):
            row = rng.normal(size=m) + 1j * rng.normal(size=m)
            back = circulant_from_eigenvalues(np.fft.ifft(row, norm="forward")).first_row
            assert np.abs(back - row).max() <= TOL_RECON
            lam = rng.normal(size=m) + 1j * rng.normal(size=m)
            again = np.fft.ifft(circulant_from_eigenvalues(lam).first_row, norm="forward")
            assert np.abs(again - lam).max() <= TOL_RECON

    def test_matrix_layout(self):
        spec = CirculantSpec([0.0, 1.0, 2.0])
        expected = np.array([[0, 1, 2], [2, 0, 1], [1, 2, 0]], dtype=complex)
        np.testing.assert_allclose(spec.matrix(), expected)

    def test_block_layout(self):
        # block (h, k) of the reference gather is the circulant of rows[h, k]
        rows = np.array([[[0, 1, 2], [10, 11, 12]], [[20, 21, 22], [30, 31, 32]]], dtype=complex)
        expected = np.array(
            [
                [0, 1, 2, 10, 11, 12],
                [2, 0, 1, 12, 10, 11],
                [1, 2, 0, 11, 12, 10],
                [20, 21, 22, 30, 31, 32],
                [22, 20, 21, 32, 30, 31],
                [21, 22, 20, 31, 32, 30],
            ],
            dtype=complex,
        )
        np.testing.assert_array_equal(block_circulant(rows), expected)

    def test_blocks_are_the_circulants_of_their_rows(self):
        # every block of the gather is bit for bit circulant_from_row of its
        # first row, at every shape the suite uses, the one-bin case included
        rng = np.random.default_rng(23)
        for s, m in ((1, 1), (1, 6), (2, 5), (3, 4), (5, 1)):
            rows = rng.normal(size=(s, s, m)) + 1j * rng.normal(size=(s, s, m))
            dense = block_circulant(rows)
            assert dense.shape == (s * m, s * m)
            for h in range(s):
                for k in range(s):
                    block = dense[h * m : (h + 1) * m, k * m : (k + 1) * m]
                    np.testing.assert_array_equal(block, circulant_from_row(rows[h, k]))

    def test_spectral_decomposition_convention(self):
        # the DFT sign must make F diag(lam) F† rebuild the matrix
        rng = np.random.default_rng(17)
        row = rng.normal(size=6) + 1j * rng.normal(size=6)
        spec = CirculantSpec(row)
        lam = np.fft.ifft(spec.first_row, norm="forward")
        f = fourier_matrix(6)
        rebuilt = (f * lam[None, :]) @ f.conj().T
        assert np.abs(rebuilt - spec.matrix()).max() <= 1e-13

    def test_eigenvalues_match_dense_spectrum(self):
        rng = np.random.default_rng(19)
        gram = random_circulant_gram(rng, 7)
        lam = np.sort(np.fft.ifft(gram[0], norm="forward").real)
        dense = np.linalg.eigvalsh(gram)
        np.testing.assert_allclose(lam, dense, atol=1e-12)


class TestComponents:
    def test_group_search_matches_a_node_by_node_search(self):
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
