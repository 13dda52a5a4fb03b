"""Synthetic desk-scale image translation tasks.

Three tasks stand in for the full-size benchmark datasets:

  * ``invert``      paired; the target is exactly the negated input
  * ``blur2sharp``  paired; the input is a box-blurred copy of the target
  * ``shapes``      unpaired; a pool of circle images vs a pool of squares

Images are [3, s, s] float32 in [-1, 1], deterministic from the task seed
(each image draws its parameters from its own counter-derived substream).
A pool is drawn image by image and then painted as one [n, 3, s, s] stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TASK_KINDS = ("invert", "blur2sharp", "shapes")


@dataclass(frozen=True)
class SyntheticTask:
    kind: str
    image_size: int = 32
    train_count: int = 100
    val_count: int = 8
    seed: int = 0

    def __post_init__(self):
        if self.kind not in TASK_KINDS:
            raise ValueError(f"unknown task kind {self.kind!r}, expected one of {TASK_KINDS}")
        if self.image_size < 1:
            raise ValueError(f"image_size must be >= 1, got {self.image_size}")
        if self.train_count < 1 or self.val_count < 1:
            raise ValueError("train/val counts must be >= 1")


@dataclass
class PairedDataset:
    task: SyntheticTask
    train_inputs: np.ndarray
    train_targets: np.ndarray
    val_inputs: np.ndarray
    val_targets: np.ndarray

    paired = True

    def __len__(self) -> int:
        return self.train_inputs.shape[0]


@dataclass
class UnpairedDataset:
    task: SyntheticTask
    train_a: np.ndarray          # input domain
    train_b: np.ndarray          # target domain
    val_a: np.ndarray
    val_b: np.ndarray

    paired = False

    def __len__(self) -> int:
        return self.train_a.shape[0]


def _image_rng(seed: int, stream: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, stream, index]))


# A pool is drawn image by image (each image's parameters from its own
# substream) and then painted _CHUNK images at a time over [n,3,s,s] arrays.
# The painting repeats the per-image arithmetic element for element, so the
# bytes do not depend on the chunking; the chunk bounds the float64 work
# arrays to a fraction of one stacked pool.
_CHUNK = 32


# A texture's 27 values in draw order, with the bounds each is drawn between:
# per channel a ramp (gx, gy, offset), then per blob (cy, cx, radius, three
# colour weights).
_TEXTURE_LOW, _TEXTURE_HIGH = np.array(
    [(-1, 1), (-1, 1), (-0.2, 0.2)] * 3
    + [(-0.8, 0.8), (-0.8, 0.8), (0.15, 0.5), (-0.9, 0.9), (-0.9, 0.9), (-0.9, 0.9)] * 3).T
_RADII = (11, 17, 23)     # after the 9 ramp values, the third of each blob's 6


def _texture_params(rng: np.random.Generator) -> list:
    """27 values from one uniform draw over per-value bounds: per channel a
    ramp (gx, gy, offset), then per blob (cy, cx, 2*radius**2, three colour
    weights).  Each value is numpy's ``low + (high - low) * u`` for the next
    u of the stream, as the per-value calls gave it, and each radius becomes
    ``2 * radius ** 2`` as a Python float."""
    params = rng.uniform(_TEXTURE_LOW, _TEXTURE_HIGH).tolist()
    for i in _RADII:
        params[i] = 2 * params[i] ** 2
    return params


def _paint_textures(out: np.ndarray, params: np.ndarray, lin: np.ndarray) -> None:
    """Random oriented ramps plus soft blobs; content-rich but smooth."""
    ramps = params[:, :9].reshape(-1, 3, 3, 1, 1)      # [image, channel, (gx, gy, offset)]
    blobs = params[:, 9:].reshape(-1, 3, 6)            # [image, blob, (cy, cx, 2r^2, colour)]
    img = ramps[:, :, 0] * lin + ramps[:, :, 1] * lin[:, None]
    img *= 0.4
    img += ramps[:, :, 2]
    term = np.empty_like(img)
    for b in range(3):
        cy, cx, denom = blobs[:, b, :3].T
        blob = np.square(lin - cy[:, None])[:, :, None] + np.square(lin - cx[:, None])[:, None]
        np.negative(blob, out=blob)
        blob /= denom[:, None, None]
        np.exp(blob, out=blob)
        np.multiply(blobs[:, b, 3:, None, None], blob[:, None], out=term)
        img += term
    np.clip(img, -1.0, 1.0, out=img)
    out[...] = img


def _circle_params(rng: np.random.Generator) -> list:
    """9 draws: background, foreground, centre (cy, cx) and squared radius."""
    bg = rng.uniform(-1.0, -0.5, 3)
    fg = rng.uniform(0.3, 1.0, 3)
    cy, cx = rng.uniform(-0.4, 0.4, 2)
    r = rng.uniform(0.25, 0.55)
    return [*bg, *fg, cy, cx, r * r]


def _square_params(rng: np.random.Generator) -> list:
    """9 draws: background, foreground, centre (cy, cx) and half side."""
    bg = rng.uniform(0.4, 1.0, 3)
    fg = rng.uniform(-1.0, -0.3, 3)
    cy, cx = rng.uniform(-0.4, 0.4, 2)
    return [*bg, *fg, cy, cx, rng.uniform(0.2, 0.5)]


def _paint_circles(out: np.ndarray, params: np.ndarray, lin: np.ndarray) -> None:
    dist2 = np.square(lin - params[:, 6, None])[:, :, None] \
        + np.square(lin - params[:, 7, None])[:, None]
    _paint_mask(out, params, dist2 <= params[:, 8, None, None])


def _paint_squares(out: np.ndarray, params: np.ndarray, lin: np.ndarray) -> None:
    half = params[:, 8, None]
    _paint_mask(out, params, (np.abs(lin - params[:, 6, None]) <= half)[:, :, None]
                & (np.abs(lin - params[:, 7, None]) <= half)[:, None])


def _paint_mask(out: np.ndarray, params: np.ndarray, mask: np.ndarray) -> None:
    """Foreground colour inside each [s,s] mask, background outside."""
    out[...] = params[:, :3, None, None]
    np.copyto(out, params[:, 3:6, None, None], where=mask[:, None])


_TEXTURES = (_texture_params, _paint_textures)
_CIRCLES = (_circle_params, _paint_circles)
_SQUARES = (_square_params, _paint_squares)


def _pool(family, count: int, seed: int, stream: int, lin: np.ndarray) -> np.ndarray:
    """count [3,s,s] float32 images of one family, image i drawn from substream i."""
    draw, paint = family
    params = np.array([draw(_image_rng(seed, stream, i)) for i in range(count)])
    out = np.empty((count, 3, len(lin), len(lin)), dtype=np.float32)
    for i in range(0, count, _CHUNK):
        paint(out[i:i + _CHUNK], params[i:i + _CHUNK], lin)
    return out


def _box_blur(stack: np.ndarray) -> np.ndarray:
    """3x3 box blur with edge padding of a [n,c,h,w] stack; keeps values inside [-1, 1]."""
    h, w = stack.shape[2:]
    out = np.zeros_like(stack)
    for i in range(0, len(stack), _CHUNK):
        padded = np.pad(stack[i:i + _CHUNK], ((0, 0), (0, 0), (1, 1), (1, 1)), mode="edge")
        acc = out[i:i + _CHUNK]
        for dy in range(3):
            for dx in range(3):
                acc += padded[:, :, dy:dy + h, dx:dx + w]
        acc /= 9.0
    return out


def generate_dataset(task: SyntheticTask):
    """Build the full train/val arrays for a task, deterministic from its seed."""
    lin = np.linspace(-1, 1, task.image_size)          # both axes of the coordinate grid

    def pool(family, count: int, stream: int) -> np.ndarray:
        return _pool(family, count, task.seed, stream, lin)

    if task.kind == "invert":
        train_in = pool(_TEXTURES, task.train_count, 0)
        val_in = pool(_TEXTURES, task.val_count, 1)
        return PairedDataset(task, train_in, -train_in, val_in, -val_in)
    if task.kind == "blur2sharp":
        train_t = pool(_TEXTURES, task.train_count, 0)
        val_t = pool(_TEXTURES, task.val_count, 1)
        return PairedDataset(task, _box_blur(train_t), train_t, _box_blur(val_t), val_t)
    # shapes: independent pools, circles (input domain) vs squares (target)
    return UnpairedDataset(task, pool(_CIRCLES, task.train_count, 0),
                           pool(_SQUARES, task.train_count, 2),
                           pool(_CIRCLES, task.val_count, 1), pool(_SQUARES, task.val_count, 3))
