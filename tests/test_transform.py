import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mnscodec import transform
from mnscodec.transform import (
    CONTRAST_VALUES,
    apply_map,
    dequantize_contrast,
    fit_affine,
    quantize_contrast,
    rms_error,
)


def grid_min_rms(r, d, s_step=0.01, o_step=1.0):
    """Best RMS over a dense (s, o) grid, evaluated from the expanded
    objective; serves as an oracle independent of the closed-form fit."""
    s_grid = np.arange(-1.0, 1.0 + 1e-12, s_step)
    o_grid = np.arange(0.0, 255.0 + 1e-12, o_step)
    rf = np.asarray(r, float).ravel()
    d0 = np.asarray(d, float).ravel()
    d0 = d0 - d0.mean()
    a = float(rf @ rf)
    b = float(d0 @ rf)
    c = float(d0 @ d0)
    total = float(rf.sum())
    n = rf.size
    sse = (a - 2.0 * s_grid * b + s_grid**2 * c)[:, None] + (
        -2.0 * o_grid * total + n * o_grid**2
    )[None, :]
    return math.sqrt(max(float(sse.min()), 0.0) / n)


class TestFitAffine:
    def test_identity_domain(self):
        r = np.array([[0.0, 10.0], [20.0, 30.0]])
        s, o = fit_affine(r, r)
        assert s == pytest.approx(1.0)
        assert o == pytest.approx(15.0)

    def test_constant_domain_degenerates(self):
        r = np.array([[5.0, 9.0], [1.0, 13.0]])
        d = np.full((2, 2), 77.0)
        assert fit_affine(r, d) == (0.0, 7.0)

    def test_half_contrast_example(self):
        d = np.array([[0.0, 2.0], [4.0, 6.0]])
        r = 0.5 * (d - 3.0) + 100.0
        s, o = fit_affine(r, d)
        assert s == pytest.approx(0.5)
        assert o == pytest.approx(100.0)
        # brute-force confirmation that nothing on the grid beats it
        assert rms_error(r, d, s, o) <= grid_min_rms(r, d) + 1e-9

    def test_mismatched_shapes(self):
        with pytest.raises(ValueError, match="shapes differ"):
            fit_affine(np.zeros((2, 2)), np.zeros((4,)))

    def test_scaling_covariance(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            r = rng.uniform(0, 100, (4, 4))
            d = rng.uniform(0, 255, (4, 4))
            s, o = fit_affine(r, d)
            a, b = 1.5, 20.0
            s2, o2 = fit_affine(a * r + b, d)
            assert s2 == pytest.approx(a * s, abs=1e-9)
            assert o2 == pytest.approx(a * o + b, abs=1e-9)

    def test_least_squares_beats_grid(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            r = rng.integers(0, 256, (4, 4)).astype(float)
            d = rng.integers(0, 256, (4, 4)).astype(float)
            fit = fit_affine(r, d)
            assert rms_error(r, d, fit.s, fit.o) <= grid_min_rms(r, d) + 1e-9


class TestContrastQuantizer:
    def test_bin_center(self):
        assert quantize_contrast(0.125) == 4

    def test_clamp_below(self):
        assert quantize_contrast(-2.0) == 0

    def test_zero_goes_up(self):
        # half-open bins, boundary belongs to the upper bin
        assert quantize_contrast(0.0) == 4

    def test_extremes(self):
        assert quantize_contrast(1.0) == 7
        assert quantize_contrast(-1.0) == 0

    def test_array_codes_match_clamp_then_floor(self):
        edges = np.arange(-12, 13) / 8  # bin edges and centers, in and outside [-1, 1]
        s = np.concatenate([edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf), [-np.inf, np.inf]])
        # floor(4s) + 4 is exact; floor((s + 1) * 4) would put the values just below an inner edge one bin up
        expected = [min(math.floor(min(1.0, max(-1.0, x)) * 4.0) + 4, 7) for x in s.tolist()]
        codes = quantize_contrast(s)
        assert codes.dtype.kind == "i" and codes.tolist() == expected
        assert [quantize_contrast(x) for x in s.tolist()] == expected
        assert isinstance(quantize_contrast(0.3), np.integer)  # one numpy path: a float gives a numpy scalar

    def test_nan_and_infinities(self):
        # the clamp takes NaN to the lowest bin, as the scalar max(-1.0, s) does, and -inf and inf to the end bins
        assert [quantize_contrast(s) for s in (math.nan, -math.inf, math.inf)] == [0, 0, 7]
        s = np.array([np.nan, -np.inf, np.inf, 0.3], dtype=np.float32)
        assert quantize_contrast(s).tolist() == [0, 0, 7, 5]
        assert np.isnan(s[0]) and s[1:].tolist() == [-np.inf, np.inf, np.float32(0.3)]  # the input is not written

    def test_dequantize_formula(self):
        assert dequantize_contrast(0) == -0.875
        assert dequantize_contrast(7) == 0.875
        assert CONTRAST_VALUES == tuple(-0.875 + 0.25 * k for k in range(8))

    def test_code_round_trip(self):
        for code in range(8):
            assert quantize_contrast(dequantize_contrast(code)) == code

    def test_dequantize_rejects_bad_code(self):
        with pytest.raises(ValueError):
            dequantize_contrast(8)
        with pytest.raises(ValueError):
            dequantize_contrast(-1)

    def test_dequantize_reads_one_read_only_table(self, monkeypatch):
        # the centers are one module array, not the tuple converted on every call
        table = transform._CONTRASTS
        assert not table.flags.writeable and table.tolist() == list(CONTRAST_VALUES)
        monkeypatch.setattr(transform, "CONTRAST_VALUES", None)
        codes = np.arange(8)
        centers = dequantize_contrast(codes)
        assert centers.tolist() == list(table) and centers.flags.writeable and not np.shares_memory(centers, table)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(-3, 3, allow_nan=False))
    def test_quantized_value_near_input(self, s):
        code = quantize_contrast(s)
        clamped = min(1.0, max(-1.0, s))
        assert abs(dequantize_contrast(code) - clamped) <= 0.125 + 1e-12


class TestApplyMap:
    def test_zero_contrast_is_flat(self):
        d = np.array([[0.0, 50.0], [100.0, 200.0]])
        assert np.array_equal(apply_map(d, 0.0, 99.0), np.full((2, 2), 99.0))

    def test_identity(self):
        d = np.array([[10.0, 20.0], [30.0, 40.0]])
        assert np.allclose(apply_map(d, 1.0, d.mean()), d)

    def test_worked_example(self):
        d = np.array([[0.0, 2.0], [4.0, 6.0]])
        assert apply_map(d, 0.5, 100.0).tolist() == [[98.5, 99.5], [100.5, 101.5]]

    def test_clamps_to_byte_range(self):
        d = np.array([[0.0, 255.0]])
        out = apply_map(d, 1.0, 250.0)
        assert out.tolist() == [[122.5, 255.0]]

    @pytest.mark.parametrize("k", (1, 2, 4, 8, 16))
    def test_stack_matches_per_block_calls(self, k):
        rng = np.random.default_rng(k)
        stack = rng.uniform(-300.0, 600.0, (40, k, k))
        before = stack.copy()
        s = rng.choice(CONTRAST_VALUES + (0.2, 0.5, 0.65, 0.9), 40)
        o = rng.integers(-40, 300, 40).astype(np.float64)
        out = apply_map(stack, s[:, None, None], o[:, None, None])
        assert np.array_equal(out, [apply_map(b, float(si), float(oi)) for b, si, oi in zip(stack, s, o)])
        # and each block as the plain formula gives it, with the whole-block mean
        assert np.array_equal(out, [np.clip(si * (b - b.mean()) + oi, 0.0, 255.0) for b, si, oi in zip(stack, s, o)])
        assert np.array_equal(stack, before)  # the input is never written
        # written in place, the same bytes come out
        assert apply_map(stack, s[:, None, None], o[:, None, None], stack) is stack
        assert stack.tobytes() == out.tobytes()

    @pytest.mark.parametrize("dtype", (np.float32, np.float64))
    @pytest.mark.parametrize("k", (2, 3, 4, 8, 16))
    def test_mean_is_np_means_bit_for_bit(self, dtype, k):
        # apply_map takes np.mean's sum and division itself. With s = 1 and o = 127.5, a block whose
        # pixels lie within 120 of its mean maps to D - mean(D) + 127.5 with no clamp, so any other
        # mean shows in its pixels; the blocks sit anywhere in [-800, 2000] at mixed spreads
        rng = np.random.default_rng(k)
        spread = 10.0 ** rng.uniform(-4.0, np.log10(60.0), (500, 1, 1))
        stack = (rng.uniform(-800.0, 2000.0, (500, 1, 1)) + spread * rng.uniform(-1.0, 1.0, (500, k, k))).astype(dtype)
        s, o = np.ones((500, 1, 1), dtype), np.full((500, 1, 1), 127.5, dtype)
        out = apply_map(stack, s, o)
        expected = (stack - stack.mean(axis=(-2, -1), keepdims=True)) + o
        assert out.dtype == dtype and expected.min() > 0.0 and expected.max() < 255.0
        assert out.tobytes() == expected.tobytes()
        for block, mapped in zip(stack[::25], out[::25]):
            assert mapped.tobytes() == ((block - np.mean(block)) + dtype(127.5)).astype(dtype).tobytes()

    def test_float32_stack_maps_in_float32_and_other_blocks_in_float64(self):
        rng = np.random.default_rng(3)
        stack = rng.uniform(-300.0, 600.0, (10, 4, 4)).astype(np.float32)
        s = rng.choice(CONTRAST_VALUES, 10).astype(np.float32)[:, None, None]
        o = rng.integers(0, 256, 10).astype(np.float32)[:, None, None]
        out = apply_map(stack, s, o)
        assert out.dtype == np.float32
        assert apply_map(stack, s, o, stack) is stack and stack.tobytes() == out.tobytes()
        for block in (np.arange(16).reshape(4, 4), np.arange(16.0).reshape(4, 4)):
            assert apply_map(block, 0.5, 100.0).dtype == np.float64


class TestRmsError:
    def test_perfect_match(self):
        d = np.array([[0.0, 2.0], [4.0, 6.0]])
        r = 0.5 * (d - 3.0) + 100.0
        assert rms_error(r, d, 0.5, 100.0) == 0.0

    def test_flat_target(self):
        d = np.array([[9.0, 130.0], [7.0, 255.0]])
        assert rms_error(np.full((2, 2), 10.0), d, 0.0, 10.0) == 0.0

    def test_hand_evaluated(self):
        r = np.array([0.0, 10.0])
        d = np.array([3.0, 3.0])
        assert rms_error(r, d, 0.0, 5.0) == 5.0

    def test_unclamped_measurement(self):
        # residual must be measured before any byte clamping
        r = np.array([[255.0]])
        d = np.array([[0.0]])
        assert rms_error(r, d, 0.5, 300.0) == pytest.approx(45.0)

    def test_mismatched_shapes(self):
        with pytest.raises(ValueError, match="shapes differ"):
            rms_error(np.zeros((2, 2)), np.zeros((2, 3)), 0.0, 0.0)
