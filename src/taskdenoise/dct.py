"""8x8 block DCT frequency analysis.

An image is split into non-overlapping 8x8 blocks and each block is
projected onto the orthonormal type-II DCT basis. The per-component
standard deviation across blocks is an energy fingerprint of the image;
the frequency-gradient map weights each block's coefficients by the
magnitude of the model's pixel gradients in that block, measuring how much
each frequency component contributes to the model's output.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Callable

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor
from .errors import InvalidShapeError
from .tensorio import write_csv, write_pgm

BLOCK = 8


def _basis_matrix() -> np.ndarray:
    """Orthonormal DCT-II matrix: row u is the frequency-u basis vector."""
    mat = np.zeros((BLOCK, BLOCK), dtype=np.float64)
    for u in range(BLOCK):
        scale = math.sqrt(1.0 / BLOCK) if u == 0 else math.sqrt(2.0 / BLOCK)
        for x in range(BLOCK):
            mat[u, x] = scale * math.cos(math.pi * (2 * x + 1) * u / (2 * BLOCK))
    return mat


_DCT = _basis_matrix()


def _to_2d(image) -> np.ndarray:
    arr = image.data if isinstance(image, Tensor) else np.asarray(image)
    arr = np.asarray(arr, dtype=np.float64)
    if arr.ndim == 3 and arr.shape[0] == 1:
        arr = arr[0]
    if arr.ndim != 2:
        raise InvalidShapeError(f"expected a 2-d image, got shape {arr.shape}")
    return arr


def _pad_to_blocks(img: np.ndarray) -> np.ndarray:
    m, n = img.shape
    pm = (-m) % BLOCK
    pn = (-n) % BLOCK
    if pm or pn:
        img = np.pad(img, ((0, pm), (0, pn)), mode="edge")
    return img


def block_coefficients(image) -> np.ndarray:
    """DCT coefficients of every non-overlapping 8x8 block: [nblocks, 8, 8]."""
    img = _pad_to_blocks(_to_2d(image))
    m, n = img.shape
    blocks = img.reshape(m // BLOCK, BLOCK, n // BLOCK, BLOCK).transpose(0, 2, 1, 3).reshape(-1, BLOCK, BLOCK)
    return np.einsum("ux,bxy,vy->buv", _DCT, blocks, _DCT, optimize=True)


def spectrum_sd(image) -> np.ndarray:
    """Standard deviation of each frequency component across blocks: [8, 8]."""
    coeffs = block_coefficients(image)
    mean = coeffs.mean(axis=0)
    return np.sqrt(((coeffs - mean) ** 2).mean(axis=0))


def frequency_gradient(loss_head: Callable[[Tensor], Tensor], image) -> np.ndarray:
    """8x8 importance grid: mean over pixels of |pixel gradient * block coefficient|.

    ``loss_head`` maps an image tensor [1, m, n] to a scalar; its input
    gradient is obtained with one backward pass and combined with each
    block's DCT coefficients.
    """
    img = _to_2d(image)
    m, n = img.shape
    if m % BLOCK or n % BLOCK:
        raise InvalidShapeError(f"image extents {m}x{n} must be multiples of {BLOCK} for gradient analysis")
    x = Tensor(img[None].astype(np.float32), requires_grad=True)
    with Tape() as tape:
        out = loss_head(x)
        grads = ad.backward(out, tape)
    g = np.abs(grads[x].astype(np.float64)[0])
    coeffs = block_coefficients(img)
    # mean |gradient| per block, times |coefficient| per component, averaged over blocks
    gm = g.reshape(m // BLOCK, BLOCK, n // BLOCK, BLOCK).transpose(0, 2, 1, 3).reshape(-1, BLOCK * BLOCK)
    block_gmean = gm.mean(axis=1)
    return (np.abs(coeffs) * block_gmean[:, None, None]).mean(axis=0)


def sum_head(model, train: bool = False) -> Callable[[Tensor], Tensor]:
    """Scalar head: sum of all model outputs (gradient analysis default)."""

    def head(x: Tensor) -> Tensor:
        return ad.tsum(model.forward(x, train))

    return head


def export_heatmap(grid: np.ndarray, path_base) -> tuple[Path, Path]:
    """Write an 8x8 grid as a 64-value CSV (row-major (i, j)) and a PGM
    scaled so its peak is white."""
    grid = np.asarray(grid, dtype=np.float64)
    if grid.shape != (BLOCK, BLOCK):
        raise InvalidShapeError(f"expected an 8x8 grid, got {grid.shape}")
    base = Path(path_base)
    csv_path = base.parent / (base.name + ".csv")
    pgm_path = base.parent / (base.name + ".pgm")
    write_csv(csv_path, ["i", "j", "value"], ((i, j, grid[i, j]) for i in range(BLOCK) for j in range(BLOCK)))
    write_pgm(pgm_path, grid)
    return csv_path, pgm_path
