"""Synthetic desk-scale image translation tasks.

Three tasks stand in for the full-size benchmark datasets:

  * ``invert``      paired; the target is exactly the negated input
  * ``blur2sharp``  paired; the input is a box-blurred copy of the target
  * ``shapes``      unpaired; a pool of circle images vs a pool of squares

Images are [3, s, s] float32 in [-1, 1], deterministic from the task seed
(each image gets its own counter-derived substream).
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
        if self.train_count < 1 or self.val_count < 1:
            raise ValueError("train/val counts must be >= 1")

    @property
    def paired(self) -> bool:
        return self.kind in ("invert", "blur2sharp")


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


def _coords(s: int):
    ys, xs = np.meshgrid(np.linspace(-1, 1, s), np.linspace(-1, 1, s), indexing="ij")
    return ys, xs


def _textured_image(rng: np.random.Generator, s: int) -> np.ndarray:
    """Random oriented ramps plus soft blobs; content-rich but smooth."""
    ys, xs = _coords(s)
    img = np.empty((3, s, s), dtype=np.float64)
    for c in range(3):
        gx, gy = rng.uniform(-1, 1, 2)
        img[c] = 0.4 * (gx * xs + gy * ys) + rng.uniform(-0.2, 0.2)
    for _ in range(3):
        cy, cx = rng.uniform(-0.8, 0.8, 2)
        radius = rng.uniform(0.15, 0.5)
        blob = np.exp(-((ys - cy) ** 2 + (xs - cx) ** 2) / (2 * radius ** 2))
        color = rng.uniform(-0.9, 0.9, 3)
        img += color[:, None, None] * blob
    return np.clip(img, -1.0, 1.0)


def _box_blur(img: np.ndarray) -> np.ndarray:
    """3x3 box blur with edge padding; keeps values inside [-1, 1]."""
    padded = np.pad(img, ((0, 0), (1, 1), (1, 1)), mode="edge")
    out = np.zeros_like(img)
    for dy in range(3):
        for dx in range(3):
            out += padded[:, dy:dy + img.shape[1], dx:dx + img.shape[2]]
    return out / 9.0


def _shape_image(rng: np.random.Generator, s: int, shape: str) -> np.ndarray:
    ys, xs = _coords(s)
    img = np.empty((3, s, s), dtype=np.float64)
    if shape == "circle":
        bg = rng.uniform(-1.0, -0.5, 3)
        fg = rng.uniform(0.3, 1.0, 3)
        cy, cx = rng.uniform(-0.4, 0.4, 2)
        r = rng.uniform(0.25, 0.55)
        mask = ((ys - cy) ** 2 + (xs - cx) ** 2) <= r * r
    else:
        bg = rng.uniform(0.4, 1.0, 3)
        fg = rng.uniform(-1.0, -0.3, 3)
        cy, cx = rng.uniform(-0.4, 0.4, 2)
        half = rng.uniform(0.2, 0.5)
        mask = (np.abs(ys - cy) <= half) & (np.abs(xs - cx) <= half)
    for c in range(3):
        img[c] = np.where(mask, fg[c], bg[c])
    return img


def _stack(fn, count, seed, stream, s) -> np.ndarray:
    return np.stack([fn(_image_rng(seed, stream, i), s) for i in range(count)]) \
        .astype(np.float32)


def generate_dataset(task: SyntheticTask):
    """Build the full train/val arrays for a task, deterministic from its seed."""
    s = task.image_size
    if task.kind == "invert":
        train_in = _stack(_textured_image, task.train_count, task.seed, 0, s)
        val_in = _stack(_textured_image, task.val_count, task.seed, 1, s)
        return PairedDataset(task, train_in, -train_in, val_in, -val_in)
    if task.kind == "blur2sharp":
        train_t = _stack(_textured_image, task.train_count, task.seed, 0, s)
        val_t = _stack(_textured_image, task.val_count, task.seed, 1, s)
        train_in = np.stack([_box_blur(t) for t in train_t]).astype(np.float32)
        val_in = np.stack([_box_blur(t) for t in val_t]).astype(np.float32)
        return PairedDataset(task, train_in, train_t, val_in, val_t)
    # shapes: independent pools, circles (input domain) vs squares (target)
    train_a = _stack(lambda r, n: _shape_image(r, n, "circle"), task.train_count, task.seed, 0, s)
    train_b = _stack(lambda r, n: _shape_image(r, n, "square"), task.train_count, task.seed, 2, s)
    val_a = _stack(lambda r, n: _shape_image(r, n, "circle"), task.val_count, task.seed, 1, s)
    val_b = _stack(lambda r, n: _shape_image(r, n, "square"), task.val_count, task.seed, 3, s)
    return UnpairedDataset(task, train_a, train_b, val_a, val_b)

