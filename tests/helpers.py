"""Deterministic generators and independent oracles shared by the test suite."""

import numpy as np

from srmlab.constellations import GusEnsemble, weighted_gram
from srmlab.linalg import CirculantSpec, circulant_eigenvalues, circulant_from_eigenvalues


def random_unit_trace_gram(rng: np.random.Generator, n: int, min_eig: float = 1e-6) -> np.ndarray:
    """Random Hermitian positive definite matrix with unit trace."""
    while True:
        b = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        g = b @ b.conj().T
        g = g / np.trace(g).real
        if np.linalg.eigvalsh(g)[0] > min_eig:
            return g


def random_circulant_gram(rng: np.random.Generator, m: int) -> np.ndarray:
    """Random positive definite circulant matrix with unit trace."""
    lam = rng.uniform(0.2, 1.0, size=m)
    lam = lam / lam.sum()
    return circulant_from_eigenvalues(lam).matrix()


def random_gus_ensemble(
    rng: np.random.Generator, s: int, m: int, min_eig: float = 1e-6
) -> GusEnsemble:
    """Random valid ensemble of s constellations sharing one cyclic symmetry.

    Builds an order-m unitary symmetry explicitly (random eigenbasis with
    m-th roots of unity as eigenvalues) and s random unit seed vectors,
    then reads off the base inner products. Resamples until the weighted
    Gram matrix is comfortably positive definite.
    """
    dim = s * m + 2
    while True:
        z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        basis, _ = np.linalg.qr(z)
        phases = np.exp(2j * np.pi * rng.integers(0, m, size=dim) / m)
        seeds = rng.normal(size=(s, dim)) + 1j * rng.normal(size=(s, dim))
        seeds = seeds / np.linalg.norm(seeds, axis=1, keepdims=True)
        coords = seeds @ basis.conj()

        rows = [
            [[np.sum(np.conj(coords[h]) * phases**r * coords[k]) for r in range(m)] for k in range(s)]
            for h in range(s)
        ]
        raw = rng.uniform(0.2, 1.0, size=s)
        priors = raw / raw.sum() / m
        ensemble = GusEnsemble(rows=rows, constellation_priors=priors)
        gram = weighted_gram(ensemble.base)
        if np.linalg.eigvalsh((gram + gram.conj().T) / 2)[0] > min_eig:
            return ensemble


def single_gus_pc(first_row) -> float:
    """Correct-decision probability of one circulant Gram from its spectrum.

    Independent of the dense square-root route: DFT the first row and
    evaluate (sum of root eigenvalues)^2 / m.
    """
    lam = circulant_eigenvalues(np.asarray(first_row))
    assert np.abs(lam.imag).max() < 1e-12
    values = np.clip(lam.real, 0.0, None)
    return float(np.sqrt(values).sum() ** 2 / len(values))


def circulant_from_row(first_row) -> np.ndarray:
    return CirculantSpec(np.asarray(first_row)).matrix()
