"""The scalar oracle helpers against the spec and against the array kernels they stand in for."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mnscodec import code
from mnscodec.image import BlockRect
from mnscodec.transform import CONTRAST_VALUES
from mnscodec.transform import dequantize_contrast as kernel_dequantize
from mnscodec.transform import quantize_contrast as kernel_quantize

from scalar_oracle import dequantize_contrast, exact_sse, quadrants, quantize_contrast, round_to_int

EDGES = np.arange(-12, 13) / 8  # bin edges and centers, in and outside [-1, 1]


def test_quantizer_follows_the_bins():
    assert [quantize_contrast(-1.0 + c / 4) for c in range(8)] == list(range(8))  # an edge opens its bin
    assert [quantize_contrast(np.nextafter(-1.0 + c / 4, -np.inf)) for c in range(1, 8)] == list(range(7))
    assert quantize_contrast(1.0) == 7 and quantize_contrast(np.inf) == 7 and quantize_contrast(-np.inf) == 0


def test_quantizers_agree_on_edges_and_centers():
    s = np.concatenate([EDGES, [-np.inf, np.inf]])
    assert [quantize_contrast(x) for x in s.tolist()] == kernel_quantize(s).tolist()


@settings(max_examples=300, deadline=None)
@given(st.integers(-(2**31), 2**31), st.integers(1, 2**31))
def test_quantizers_agree_on_quotients(cross, norm):
    # the kernels quantize cross / norm, both exact sums; a quotient of integers below 2**31 lies
    # at least 2**-33 from any edge it is not on, far more than the kernel's rounding of (s + 1) * 4
    s = cross / norm
    assert quantize_contrast(s) == kernel_quantize(s)


def test_quantizers_agree_just_below_the_edges():
    s = np.nextafter(EDGES, -np.inf)
    assert [quantize_contrast(x) for x in s.tolist()] == kernel_quantize(s).tolist()


def test_dequantizers_agree():
    assert [dequantize_contrast(c) for c in range(8)] == list(CONTRAST_VALUES) == kernel_dequantize(np.arange(8)).tolist()
    for bad in (-1, 8):
        with pytest.raises(ValueError, match="outside"):
            dequantize_contrast(bad)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from((1, 2, 4, 8)), st.fractions(-1, 1, max_denominator=20),
       st.integers(-300, 300))
def test_exact_sse_is_the_sum_in_fractions(seed, k, s, o):
    rng = np.random.default_rng(seed)
    r, d = rng.integers(0, 256, (k, k)), rng.integers(0, 1021, (k, k)) / 4
    rs, ds = [Fraction(int(v)) for v in r.ravel()], [Fraction(v) for v in d.ravel().tolist()]
    mean = sum(ds) / len(ds)
    assert exact_sse(r, d, s, o) == sum((ri - o - s * (di - mean)) ** 2 for ri, di in zip(rs, ds))
    with pytest.raises(ValueError, match="quarters"):
        exact_sse(r, d + 1 / 8, s, o)


def test_round_to_int_sends_halves_up():
    assert [round_to_int(v) for v in (2.5, -2.5, 0.49999, -0.5, 254.5)] == [3, -2, 0, 0, 255]


def test_quadrants_match_the_encoders():
    assert quadrants(BlockRect(16, 32, 8)) == (BlockRect(16, 32, 4), BlockRect(20, 32, 4),
                                               BlockRect(16, 36, 4), BlockRect(20, 36, 4))
    rects = [BlockRect(x, y, size) for size in (16, 8, 4, 2) for x, y in ((0, 0), (48, 16), (6, 10))]
    expected = [(q.x, q.y) for rect in rects for q in quadrants(rect)]
    xy = np.array([(r.x, r.y) for r in rects])
    assert code.quadrants(xy, np.array([r.size for r in rects])).tolist() == [list(q) for q in expected]
    for size in (16, 8, 4, 2):  # one side for every block, as the encoder passes it
        same = [r for r in rects if r.size == size]
        got = code.quadrants(np.array([(r.x, r.y) for r in same]), size)
        assert got.tolist() == [[q.x, q.y] for r in same for q in quadrants(r)]
