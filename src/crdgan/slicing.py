"""Splitting generated images into column strips, row strips and patches.

Each granularity covers every pixel exactly once, so summing all items and
differentiating gives an all-ones gradient on the source image.  Item order
is deterministic: columns left-to-right, rows top-to-bottom, patches in
raster order.  Vectors are flattened channel-major, then spatial raster.
A [b,c,h,w] batch is split in one pass into one item-major stack: every
image's item 0, then every image's item 1, and so on.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .autodiff import Tensor, permute, reshape

COLUMN = "column"
ROW = "row"
PATCH = "patch"
GRANULARITIES = (COLUMN, ROW, PATCH)


@dataclass
class ContentSet:
    """An ordered stack of flattened content vectors from one image or batch.

    ``items`` is a rank-2 tensor, one row per content vector; gradients flow
    through it back to the source.  A ``(b,c,h,w)`` source shape marks a
    batch of ``count`` items per image; row ``i * b + k`` is image k's item i.
    """

    granularity: str
    items: Tensor
    source_shape: Tuple[int, ...]
    patch_dims: Optional[Tuple[int, int]] = None

    def __len__(self) -> int:
        return self.items.shape[0]

    @property
    def batch(self) -> int:
        return self.source_shape[0] if len(self.source_shape) == 4 else 1

    @property
    def count(self) -> int:
        return len(self) // self.batch

    @property
    def item_length(self) -> int:
        return self.items.shape[1]

    def item(self, i: int) -> np.ndarray:
        return self.items.data[i]


def _dims(shape: tuple) -> Tuple[int, int, int, int]:
    """(b, c, h, w), with b = 1 for a lone image."""
    if len(shape) not in (3, 4):
        raise ValueError(f"expected a [c,h,w] image or a [b,c,h,w] batch, got shape {shape}")
    return (1,) * (4 - len(shape)) + tuple(shape)


@functools.lru_cache(maxsize=64)
def layout(shape: tuple, granularity: str,
           patch_dims: Optional[Tuple[int, int]] = None) -> Tuple[tuple, tuple, tuple]:
    """How a source of this shape splits: (grid, axes, items).

    Reshaping the source to ``grid``, permuting by ``axes`` and reshaping to
    ``items`` = [count*b, d] gives the item-major stack: :func:`cut` on plain
    arrays, :func:`split` as autodiff ops.
    """
    b, c, h, w = _dims(shape)
    if granularity == COLUMN:
        if w < 2:
            raise ValueError(f"split_columns needs width >= 2, got {w} (no pairs possible)")
        return (b, c, h, w), (3, 0, 1, 2), (w * b, c * h)
    if granularity == ROW:
        if h < 2:
            raise ValueError(f"split_rows needs height >= 2, got {h} (no pairs possible)")
        return (b, c, h, w), (2, 0, 1, 3), (h * b, c * w)
    if granularity != PATCH:
        raise ValueError(f"unknown granularity {granularity!r}")
    if patch_dims is None:
        raise ValueError("patch granularity needs patch dims (n, m)")
    n, m = patch_dims
    if n <= 0 or m <= 0:
        raise ValueError(f"patch dims must be positive, got {n}x{m}")
    if h % n != 0:
        raise ValueError(f"split_patches: height {h} not divisible by patch height {n}")
    if w % m != 0:
        raise ValueError(f"split_patches: width {w} not divisible by patch width {m}")
    count = (h * w) // (n * m)
    if count < 2:
        raise ValueError(f"split_patches needs >= 2 patches, got {count}")
    return (b, c, h // n, n, w // m, m), (2, 4, 0, 1, 3, 5), (count * b, c * n * m)


def cut(x: np.ndarray, layout: tuple, shape: Optional[tuple] = None) -> np.ndarray:
    """A source array's item-major stack [count*b, d] by its :func:`layout`, as
    :func:`split`; with ``shape``, the same values in that shape (the relation
    pass's [count, b*d], each item's images side by side)."""
    grid, axes, items = layout
    return np.ascontiguousarray(x.reshape(grid).transpose(axes)).reshape(shape or items)


def uncut(items: np.ndarray, layout: tuple) -> np.ndarray:
    """The inverse of :func:`cut`: from an item stack of any shape, the source's
    values laid out as ``layout``'s grid, which reshapes to the source's shape."""
    grid, axes, _ = layout
    undo = [axes.index(a) for a in range(len(axes))]        # the inverse permutation
    return np.ascontiguousarray(items.reshape([grid[a] for a in axes]).transpose(undo))


def split(img: Tensor, granularity: str, patch_dims: Optional[Tuple[int, int]] = None) -> ContentSet:
    dims = tuple(patch_dims) if granularity == PATCH and patch_dims is not None else None
    grid, axes, stack = layout(img.shape, granularity, dims)
    items = reshape(permute(reshape(img, grid), axes), stack)
    return ContentSet(granularity, items, img.shape, dims)


def split_columns(img: Tensor) -> ContentSet:
    """w items per image, each the flattened [c,h] column slab."""
    return split(img, COLUMN)


def split_rows(img: Tensor) -> ContentSet:
    """h items per image, each the flattened [c,w] row slab."""
    return split(img, ROW)


def split_patches(img: Tensor, n: int, m: int) -> ContentSet:
    """(h*w)/(n*m) non-overlapping [c,n,m] patches per image in raster order."""
    return split(img, PATCH, (n, m))


def reassemble(cset: ContentSet) -> np.ndarray:
    """Exact inverse of the corresponding split (values only, no gradient)."""
    shape = cset.source_shape
    lay = layout(shape, cset.granularity, cset.patch_dims)
    if cset.items.shape != lay[2]:
        raise ValueError(f"{cset.granularity} items of shape {cset.items.shape} do not match "
                         f"source {shape}")
    return uncut(cset.items.data, lay).reshape(shape)
