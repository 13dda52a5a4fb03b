"""Content slicing: counts, ordering, round trips and gradient flow."""

import numpy as np
import pytest

from crdgan.autodiff import Tensor, backward, tsum
from crdgan.slicing import (
    ContentSet, cut, layout, reassemble, split, split_columns, split_patches, split_rows, uncut,
)


class TestCounts:
    def test_full_scale_columns_and_rows(self):
        img = Tensor(np.zeros((3, 256, 256), dtype=np.float32))
        cols = split_columns(img)
        rows = split_rows(img)
        assert len(cols) == 256 and cols.item_length == 3 * 256
        assert len(rows) == 256 and rows.item_length == 3 * 256

    def test_full_scale_patch_counts(self):
        img = Tensor(np.zeros((3, 256, 256), dtype=np.float32))
        assert len(split_patches(img, 32, 32)) == 64
        assert len(split_patches(img, 16, 16)) == 256
        assert len(split_patches(img, 64, 64)) == 16

    def test_item_lengths_closed_form(self):
        rng = np.random.default_rng(0)
        for c, h, w, n, m in [(1, 4, 6, 2, 3), (3, 8, 8, 4, 2), (2, 6, 4, 3, 4)]:
            img = Tensor(rng.normal(size=(c, h, w)))
            assert split_columns(img).item_length == c * h
            assert split_rows(img).item_length == c * w
            patches = split_patches(img, n, m)
            assert len(patches) == (h * w) // (n * m)
            assert patches.item_length == c * n * m


class TestOrdering:
    def test_tiny_columns(self):
        img = Tensor(np.array([[[1.0, 2.0], [3.0, 4.0]]]))
        cols = split_columns(img)
        np.testing.assert_array_equal(cols.item(0), [1.0, 3.0])
        np.testing.assert_array_equal(cols.item(1), [2.0, 4.0])

    def test_tiny_rows(self):
        img = Tensor(np.array([[[1.0, 2.0], [3.0, 4.0]]]))
        rows = split_rows(img)
        np.testing.assert_array_equal(rows.item(0), [1.0, 2.0])
        np.testing.assert_array_equal(rows.item(1), [3.0, 4.0])

    def test_ramp_patches_raster_order(self):
        img = Tensor(np.arange(16.0).reshape(1, 4, 4))
        patches = split_patches(img, 2, 2)
        assert len(patches) == 4
        np.testing.assert_array_equal(patches.item(0), [0.0, 1.0, 4.0, 5.0])
        np.testing.assert_array_equal(patches.item(1), [2.0, 3.0, 6.0, 7.0])
        np.testing.assert_array_equal(patches.item(2), [8.0, 9.0, 12.0, 13.0])
        np.testing.assert_array_equal(patches.item(3), [10.0, 11.0, 14.0, 15.0])

    def test_rows_of_transpose_equal_columns(self):
        rng = np.random.default_rng(1)
        img = rng.normal(size=(3, 5, 7))
        cols = split_columns(Tensor(img))
        rows_t = split_rows(Tensor(img.transpose(0, 2, 1)))
        np.testing.assert_array_equal(cols.items.data, rows_t.items.data)


class TestRoundTrip:
    def test_exact_for_all_granularities(self):
        rng = np.random.default_rng(2)
        img = Tensor(rng.normal(size=(3, 8, 8)))
        for g, pd in [("column", None), ("row", None), ("patch", (2, 4))]:
            back = reassemble(split(img, g, pd))
            assert np.array_equal(back, img.data)

    def test_random_shapes(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            c = int(rng.integers(1, 4))
            n, m = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            h = n * int(rng.integers(2, 5))
            w = m * int(rng.integers(2, 5))
            img = Tensor(rng.normal(size=(c, h, w)))
            for g, pd in [("column", None), ("row", None), ("patch", (n, m))]:
                if g == "patch" and (h * w) // (n * m) < 2:
                    continue
                assert np.array_equal(reassemble(split(img, g, pd)), img.data)

    @pytest.mark.parametrize("g, pd", [("column", None), ("row", None), ("patch", (4, 4))])
    def test_cut_is_split_and_uncut_inverts_it(self, g, pd):
        # non-square: 12 columns, 8 rows and 6 patches per image
        img = np.random.default_rng(5).normal(size=(2, 3, 8, 12)).astype(np.float32)
        lay = layout(img.shape, g, pd)
        items = cut(img, lay)
        assert items.dtype == np.float32
        assert items.tobytes() == split(Tensor(img), g, pd).items.data.tobytes()
        back = uncut(items, lay)
        assert back.flags.c_contiguous and back.reshape(img.shape).tobytes() == img.tobytes()
        # the relation pass's [count, b*d] view of the stack un-cuts the same
        count = items.shape[0] // 2
        assert uncut(items.reshape(count, -1), lay).tobytes() == img.tobytes()
        # a lone image
        lone = layout(img.shape[1:], g, pd)
        assert uncut(cut(img[1], lone), lone).tobytes() == img[1].tobytes()

    def test_permuted_patches_change_the_image(self):
        rng = np.random.default_rng(4)
        img = Tensor(rng.normal(size=(1, 4, 4)))
        patches = split_patches(img, 2, 2)
        swapped = ContentSet("patch", Tensor(patches.items.data[[1, 0, 2, 3]]),
                             patches.source_shape, patches.patch_dims)
        assert not np.array_equal(reassemble(swapped), img.data)


class TestBatch:
    def test_batch_interleaves_per_image_items(self):
        rng = np.random.default_rng(6)
        imgs = rng.normal(size=(3, 2, 4, 6))
        for g, pd in [("column", None), ("row", None), ("patch", (2, 3))]:
            batched = split(Tensor(imgs), g, pd)
            singles = [split(Tensor(img), g, pd) for img in imgs]
            assert batched.batch == 3 and batched.count == len(singles[0])
            for k, single in enumerate(singles):      # item-major: row i*b + k
                np.testing.assert_array_equal(batched.items.data[k::3], single.items.data)
            assert np.array_equal(reassemble(batched), imgs)

    def test_rank_two_rejected(self):
        with pytest.raises(ValueError, match=r"\[b,c,h,w\]"):
            split_columns(Tensor(np.zeros((4, 4))))


class TestGradientFlow:
    def test_each_pixel_in_exactly_one_item(self):
        rng = np.random.default_rng(5)
        for g, pd in [("column", None), ("row", None), ("patch", (2, 2))]:
            for shape in ((3, 4, 4), (2, 3, 4, 4)):
                img = Tensor(rng.normal(size=shape), requires_grad=True)
                backward(tsum(split(img, g, pd).items))
                np.testing.assert_array_equal(img.grad, np.ones(shape))


class TestErrors:
    def test_width_too_small(self):
        with pytest.raises(ValueError, match="width"):
            split_columns(Tensor(np.zeros((1, 3, 1))))

    def test_height_too_small(self):
        with pytest.raises(ValueError, match="height"):
            split_rows(Tensor(np.zeros((1, 1, 3))))

    def test_non_divisible_names_dimension(self):
        img = Tensor(np.zeros((1, 6, 8)))
        with pytest.raises(ValueError, match="height 6"):
            split_patches(img, 4, 4)
        with pytest.raises(ValueError, match="width 8"):
            split_patches(img, 3, 3)

    def test_single_patch_rejected(self):
        with pytest.raises(ValueError, match=">= 2"):
            split_patches(Tensor(np.zeros((1, 4, 4))), 4, 4)
