"""Fast discrimination path for ensembles with circulant Gram blocks.

The Gram matrix of a multi-constellation ensemble sharing one cyclic
symmetry splits into s x s circulant blocks of order m, so it is fully
described by the ensemble's (s, s, m) first rows. One FFT along the last
axis diagonalizes all blocks at once, leaving m independent s x s Hermitian
coupling matrices (one per frequency bin). One batched eigendecomposition
of that stack yields both the singularity test and the square roots, and
one inverse FFT turns those into the first rows of the full Gram root; the
dense (s m) x (s m) factor is formed only if a caller reads it.
The per-constellation diagonal value g_h of the root is the mean of the
(h, h) spectral diagonal; the measurement is optimal exactly when all g_h
agree, in which case the correct-decision probability is m * s * g^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constellations import GusEnsemble
from .errors import NotPSD
from .linalg import TOL_HERM, TOL_PSD, _circulant_blocks, _eigh, _mirror, _sqrt_from_eig, circulant_eigenvalues
from .srm import TOL_COND, SrmResult, _check_independent


@dataclass(frozen=True)
class BlockSpectrum:
    """Spectral form of a block-circulant matrix.

    ``blocks[h, k]`` holds the m DFT coefficients of the (h, k) circulant
    block, i.e. the diagonal of that block after conjugation by the
    Fourier matrix. Slicing across bins, ``coupling(j)`` is the Hermitian
    s x s matrix gathering coefficient j of every block; for a positive
    definite source matrix every coupling matrix is positive definite.
    """

    s: int
    m: int
    blocks: np.ndarray

    def __post_init__(self):
        blocks = np.array(self.blocks, dtype=complex)
        if blocks.shape != (self.s, self.s, self.m):
            raise ValueError(
                f"expected spectral blocks of shape {(self.s, self.s, self.m)}, "
                f"got {blocks.shape}"
            )
        blocks.setflags(write=False)
        object.__setattr__(self, "blocks", blocks)

    def coupling(self, j: int) -> np.ndarray:
        """Cross-constellation coupling matrix at frequency bin j."""
        return self.blocks[:, :, j].copy()

    def diagonal_means(self) -> np.ndarray:
        """Per-constellation mean of the diagonal spectral coefficients."""
        diag = self.blocks[np.arange(self.s), np.arange(self.s), :]
        return diag.real.mean(axis=1)


def block_diagonalize(ensemble: GusEnsemble) -> BlockSpectrum:
    """DFT every circulant block of the weighted Gram matrix, from the first rows."""
    w = np.sqrt(ensemble.constellation_priors)
    weighted = np.outer(w, w)[:, :, None] * ensemble.rows
    return BlockSpectrum(s=ensemble.s, m=ensemble.m, blocks=circulant_eigenvalues(weighted))


def _coupling_root(spectrum: BlockSpectrum) -> tuple[float, BlockSpectrum]:
    """Smallest coupling eigenvalue and the spectral root, from one batched ``eigh``."""
    w, v = _eigh(np.moveaxis(spectrum.blocks, -1, 0), TOL_HERM)
    root = np.moveaxis(_sqrt_from_eig(w, v), 0, -1)
    return float(w[:, 0].min()), BlockSpectrum(s=spectrum.s, m=spectrum.m, blocks=root)


def block_sqrt(spectrum: BlockSpectrum, *, tol_psd: float = TOL_PSD) -> BlockSpectrum:
    """Square root in the spectral domain: the principal root of every coupling matrix.

    Eigenvalues in ``[-tol_psd, 0)`` are clamped to zero; anything lower
    raises ``NotPSD``.
    """
    lowest, root = _coupling_root(spectrum)
    if lowest < -tol_psd:
        raise NotPSD(f"min eigenvalue {lowest:.3e} is below -{tol_psd:g}")
    return root


def spectrum_to_matrix(spectrum: BlockSpectrum) -> np.ndarray:
    """Assemble the dense matrix whose (h, k) block is F diag(blocks[h,k]) F†.

    Each block is circulant; its first row is the inverse DFT of its
    spectrum (``circulant_from_eigenvalues``), taken for all blocks at once.
    """
    return _circulant_blocks(np.fft.fft(spectrum.blocks, norm="forward"))


def trace_criterion(
    sqrt_spectrum: BlockSpectrum, *, tol_cond: float = TOL_COND
) -> tuple[np.ndarray, bool]:
    """Per-constellation diagonal values of the Gram square root.

    Returns ``(g, optimal)`` where ``g[h]`` is the mean of the (h, h)
    spectral diagonal of the square root. The measurement is optimal
    exactly when the g values agree within ``tol_cond``; the correct
    decision probability is then m * s * g^2.
    """
    g = sqrt_spectrum.diagonal_means()
    optimal = bool(g.max() - g.min() <= tol_cond)
    return g, optimal


def fast_srm(
    ensemble: GusEnsemble, *, tol_psd: float = TOL_PSD
) -> tuple[SrmResult, np.ndarray]:
    """Square-root measurement through the block-circulant fast path.

    Returns the same measurement as dense ``srm`` on the assembled Gram matrix,
    held as the root's first rows, plus the per-constellation diagonal values
    g_h; the states of constellation h are each detected correctly with probability g_h^2.
    """
    spectrum = block_diagonalize(ensemble)
    lowest, root_spectrum = _coupling_root(spectrum)
    _check_independent(lowest, tol_psd)
    rows = np.fft.fft(root_spectrum.blocks, norm="forward")
    return SrmResult((rows + _mirror(rows)) / 2.0), root_spectrum.diagonal_means()
