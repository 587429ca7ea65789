"""PointBlock: columnar batches with stable ids, legacy round-trips."""

import dataclasses

import numpy as np
import pytest

from repro.core.blocks import PointBlock, concat_blocks


def _rows(n=6, d=3, seed=0):
    return np.random.default_rng(seed).random((n, d))


class TestConstruction:
    def test_from_rows_defaults_ids_to_range(self):
        block = PointBlock.from_rows(_rows())
        assert np.array_equal(block.ids, np.arange(6))
        assert block.ids.dtype == np.intp
        assert len(block) == 6
        assert block.dims == 3

    def test_explicit_ids_travel_with_rows(self):
        rows = _rows(4)
        block = PointBlock.from_rows(rows, ids=[9, 7, 5, 3])
        assert np.array_equal(block.ids, [9, 7, 5, 3])
        assert np.array_equal(block.rows, rows)

    def test_mismatched_id_count_rejected(self):
        with pytest.raises(ValueError, match="ids has 2 entries for 4 rows"):
            PointBlock.from_rows(_rows(4), ids=[1, 2])

    def test_nan_rows_rejected(self):
        rows = _rows(3)
        rows[1, 0] = np.nan
        with pytest.raises(ValueError):
            PointBlock.from_rows(rows)

    def test_one_dimensional_input_promoted_to_single_row(self):
        block = PointBlock.from_rows(np.array([1.0, 2.0, 3.0]))
        assert len(block) == 1 and block.dims == 3
        with pytest.raises(ValueError):
            PointBlock.from_rows(np.zeros((2, 2, 2)))

    @pytest.mark.parametrize("build", [
        lambda rows: PointBlock(ids=np.arange(len(rows)), rows=rows),
        lambda rows: PointBlock.from_rows(rows),
        lambda rows: PointBlock.from_tuple((np.arange(len(rows)), rows)),
    ], ids=["constructor", "from_rows", "from_tuple"])
    def test_every_public_constructor_rejects_nan(self, build):
        rows = _rows(4)
        rows[2, 1] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            build(rows)

    def test_rows_coerced_contiguous_float64(self):
        rows = np.asfortranarray(_rows(5, 4).astype(np.float32))
        block = PointBlock.from_rows(rows)
        assert block.rows.dtype == np.float64
        assert block.rows.flags["C_CONTIGUOUS"]

    def test_immutable(self):
        block = PointBlock.from_rows(_rows())
        with pytest.raises(dataclasses.FrozenInstanceError):
            block.ids = np.arange(6)

    def test_empty(self):
        block = PointBlock.empty(5)
        assert len(block) == 0
        assert block.dims == 5
        with pytest.raises(ValueError):
            PointBlock.empty(0)


class TestLegacyRoundTrip:
    def test_tuple_round_trip_is_exact(self):
        rows = _rows(7, 2)
        ids = np.array([3, 1, 4, 1, 5, 9, 2])
        block = PointBlock.from_tuple((ids, rows))
        out_ids, out_rows = block.to_tuple()
        assert np.array_equal(out_ids, ids)
        assert np.array_equal(out_rows, rows)
        again = PointBlock.from_tuple(block.to_tuple())
        assert np.array_equal(again.ids, block.ids)
        assert np.array_equal(again.rows, block.rows)


class TestColumnarOps:
    def test_take_mask_keeps_ids_aligned(self):
        rows = _rows(6)
        block = PointBlock.from_rows(rows, ids=[10, 11, 12, 13, 14, 15])
        picked = block.take(np.array([True, False, True, False, False, True]))
        assert np.array_equal(picked.ids, [10, 12, 15])
        assert np.array_equal(picked.rows, rows[[0, 2, 5]])

    def test_take_index_array(self):
        block = PointBlock.from_rows(_rows(5), ids=[4, 3, 2, 1, 0])
        picked = block.take(np.array([4, 0]))
        assert np.array_equal(picked.ids, [0, 4])

    def test_take_wrong_mask_shape_rejected(self):
        block = PointBlock.from_rows(_rows(5))
        with pytest.raises(ValueError, match="mask has shape"):
            block.take(np.array([True, False]))

    def test_slice_and_chunks_cover_every_row(self):
        block = PointBlock.from_rows(_rows(10))
        mid = block.slice(3, 7)
        assert np.array_equal(mid.ids, np.arange(3, 7))
        pieces = list(block.chunks(4))
        assert [len(p) for p in pieces] == [4, 4, 2]
        assert np.array_equal(
            np.concatenate([p.ids for p in pieces]), block.ids
        )
        with pytest.raises(ValueError):
            list(block.chunks(0))

    def test_sort_by_and_ids_ascending(self):
        rows = _rows(4)
        block = PointBlock.from_rows(rows, ids=[30, 10, 20, 0])
        canonical = block.with_ids_ascending()
        assert np.array_equal(canonical.ids, [0, 10, 20, 30])
        assert np.array_equal(canonical.rows, rows[[3, 1, 2, 0]])


def _derived_blocks(block):
    """Every way to derive a block from a validated one."""
    n = len(block)
    yield "take-mask", block.take(np.arange(n) % 3 != 1)
    yield "take-index", block.take(np.array([n - 1, 0, 2, 2]))
    yield "take-scalar", block.take(3)
    yield "slice", block.slice(2, 7)
    yield "chunk", list(block.chunks(4))[1]
    yield "sort_by", block.sort_by(np.arange(n)[::-1])
    yield "ids-ascending", block.with_ids_ascending()
    yield "concat", concat_blocks([block.slice(0, 3), block.take(block.ids % 2 == 0)])


class TestDerivedBlocks:
    @pytest.mark.parametrize("layout", ["C", "F", "strided", "float32"])
    def test_stay_contiguous_float64_with_ids_aligned(self, layout):
        rows = _rows(9, 4)
        source = {
            "C": rows,
            "F": np.asfortranarray(rows),
            "strided": np.repeat(rows, 2, axis=1)[:, ::2],
            "float32": rows.astype(np.float32),
        }[layout]
        ids = np.arange(100, 109)
        block = PointBlock(ids=ids, rows=source)
        by_id = {int(i): block.rows[k] for k, i in enumerate(block.ids)}
        for name, derived in _derived_blocks(block):
            assert derived.rows.dtype == np.float64, name
            assert derived.rows.ndim == 2 and derived.rows.shape[1] == 4, name
            assert derived.rows.flags["C_CONTIGUOUS"], name
            assert derived.ids.dtype == np.intp, name
            assert derived.ids.shape == (len(derived),), name
            for i, row in zip(derived.ids, derived.rows):
                assert np.array_equal(row, by_id[int(i)]), name

    def test_derived_blocks_are_still_immutable(self):
        taken = PointBlock.from_rows(_rows()).take(np.array([0, 1]))
        with pytest.raises(dataclasses.FrozenInstanceError):
            taken.rows = _rows(2)

    def test_multi_dimensional_selector_rejected(self):
        block = PointBlock.from_rows(_rows(4))
        with pytest.raises(ValueError, match="1-D"):
            block.take(np.array([[0, 1], [2, 3]]))


class TestConcat:
    def test_concat_preserves_ids_and_order(self):
        a = PointBlock.from_rows(_rows(3, 2, seed=1), ids=[0, 1, 2])
        b = PointBlock.from_rows(_rows(2, 2, seed=2), ids=[7, 8])
        merged = concat_blocks([a, b])
        assert np.array_equal(merged.ids, [0, 1, 2, 7, 8])
        assert np.array_equal(merged.rows[:3], a.rows)
        assert np.array_equal(merged.rows[3:], b.rows)

    def test_single_block_passthrough(self):
        a = PointBlock.from_rows(_rows(3))
        assert concat_blocks([a]) is a

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError, match="at least one block"):
            concat_blocks([])

    def test_dim_mismatch_rejected(self):
        a = PointBlock.from_rows(_rows(3, 2))
        b = PointBlock.from_rows(_rows(3, 4))
        with pytest.raises(ValueError, match="disagree on dimensionality"):
            concat_blocks([a, b])
