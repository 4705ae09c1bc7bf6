"""The code module: the DFS start and its inverse, and the one row builder of a LeafTable."""

import pathlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mnscodec.code import MAX_PIXELS, PHASE1, PHASE2, SEARCH, LeafTable, leaf_rows, morton_origin, morton_start

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "mnscodec"


def deinterleave(start, w):
    """The reader's de-interleave before morton_origin, kept as it was: the root, then the TL/TR/BL/BR
    digits of sides 8, 4 and 2."""
    root, m = np.divmod(start, 64)
    x, y = root % (w // 16) * 16, root // (w // 16) * 16
    for shift in (4, 2, 0):
        digit, side = (m >> shift) & 3, 2 << shift // 2
        x, y = x + (digit & 1) * side, y + (digit >> 1) * side
    return x, y


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
@pytest.mark.parametrize("w, h", [(16, 48), (48, 32), (80, 144), (512, 272)])
def test_morton_origin_undoes_morton_start_at_every_cell(w, h, dtype):
    y, x = (a.ravel().astype(dtype) for a in np.mgrid[0:h:2, 0:w:2])  # every 2x2 cell's origin
    start = morton_start(x, y, w)
    assert np.array_equal(np.sort(start), np.arange(w * h // 4))  # one start per cell, and no gap
    got_x, got_y = morton_origin(start, w)
    assert got_x.tolist() == x.tolist() and got_y.tolist() == y.tolist()
    old_x, old_y = deinterleave(start, w)
    assert got_x.tolist() == old_x.tolist() and got_y.tolist() == old_y.tolist()


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4095), st.data())
def test_morton_origin_equals_the_old_deinterleave_on_any_raster(roots_wide, data):
    w = 16 * roots_wide
    cells = MAX_PIXELS // 4  # every start a raster of at most MAX_PIXELS pixels holds
    start = np.array(data.draw(st.lists(st.integers(0, cells - 1), min_size=1, max_size=50)), np.int64)
    x, y = morton_origin(start, w)
    assert (x.tolist(), y.tolist()) == tuple(a.tolist() for a in deinterleave(start, w))
    assert morton_start(x, y, w).tolist() == start.tolist()


def test_leaf_rows_fill_the_named_columns():
    x, y = np.array([0, 16, 32]), np.array([8, 0, 48])
    phase1 = LeafTable(leaf_rows(2, PHASE1, x, y, np.array([7, 8, 9]), np.array([1, 2, 3])))
    assert phase1.level.tolist() == [2] * 3 and phase1.size.tolist() == [8] * 3
    assert phase1.xy.tolist() == [[0, 8], [16, 0], [32, 48]] and phase1.s_code.tolist() == [1, 2, 3]
    assert not phase1.deltas.any() and not phase1.s_bits.any() and not phase1.domain.any()
    deltas, bits = np.array([[1, -2, 3]] * 3), np.array([[0, 1, 1, 0]] * 3)
    phase2 = LeafTable(leaf_rows(np.array([1, 2, 3]), PHASE2, x, y, 5, 0, deltas, bits))
    assert phase2.size.tolist() == [16, 8, 4] and phase2.o_byte.tolist() == [5] * 3
    assert phase2.deltas.tolist() == deltas.tolist() and phase2.s_bits.tolist() == bits.tolist()
    search = LeafTable(leaf_rows(3, SEARCH, x, y, 1, 4, domain=(np.array([2, 4, 6]), np.array([1, 3, 5]))))
    assert search.domain.tolist() == [[2, 1, 8], [4, 3, 8], [6, 5, 8]] and search.kind.tolist() == [SEARCH] * 3


@pytest.mark.parametrize("path", sorted(set(PACKAGE.glob("*.py")) - {PACKAGE / "code.py"}), ids=lambda p: p.name)
def test_only_the_code_module_knows_the_column_layout(path):
    # a LeafTable's width, or its rows indexed by column (rows[:, ...] or rows.T[...]), are code.py's alone
    assert re.findall(r"LeafTable\.WIDTH|\.rows\[:|\.rows\.T\[", path.read_text()) == []
