import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mnscodec.code import co_domain_origins
from mnscodec.image import (
    BlockRect,
    GrayImage,
    PgmFormatError,
    box_sums,
    downsample_mean2,
    flat_windows,
    load_pgm,
    pad_to_multiple,
    parity_sums,
    save_pgm,
)

from scalar_oracle import block_mean, co_domain_rect, domain_means


class TestPgm:
    def test_load_basic(self):
        img = load_pgm(b"P5 2 2 255\n" + bytes([0, 64, 128, 255]))
        assert (img.width, img.height) == (2, 2)
        assert img.pixels.tolist() == [[0, 64], [128, 255]]

    def test_load_with_comment(self):
        plain = load_pgm(b"P5 2 2 255\n" + bytes([1, 2, 3, 4]))
        commented = load_pgm(b"P5\n# a comment line\n2 2\n# another\n255\n" + bytes([1, 2, 3, 4]))
        assert commented == plain

    def test_load_rejects_wide_maxval(self):
        with pytest.raises(PgmFormatError, match="unsupported maxval"):
            load_pgm(b"P5 2 2 65535\n" + bytes(8))

    def test_load_rejects_bad_magic(self):
        with pytest.raises(PgmFormatError, match="magic"):
            load_pgm(b"P6 2 2 255\n" + bytes(12))

    def test_load_rejects_truncated_payload(self):
        with pytest.raises(PgmFormatError, match="truncated payload"):
            load_pgm(b"P5 4 4 255\n" + bytes(15))

    def test_load_rejects_bad_width(self):
        with pytest.raises(PgmFormatError, match="width"):
            load_pgm(b"P5 -2 2 255\n" + bytes(8))

    @pytest.mark.parametrize("data, pixels", (
        (b"P512 1 255\n" + bytes(range(12)), [list(range(12))]),  # no separator after the magic
        (b"P5 2# a comment right after a token\n1 255\n\x01\x02", [[1, 2]]),
        (b"P5\r2\r1\r255\r\x01\x02", [[1, 2]]),  # CR alone separates, and ends a comment
        (b"P5 #c\r2 1 255\r\x01\x02", [[1, 2]]),
        (b"P5\x0b2\x0c1\x0b255\x0c\x01\x02", [[1, 2]]),  # vertical tab and form feed
        (b"P5 2 1 255 #\n\x01\x02", [[35, 10]]),  # one whitespace byte ends the header: '#' is a pixel
    ))
    def test_tricky_headers(self, data, pixels):
        assert load_pgm(data).pixels.tolist() == pixels

    @pytest.mark.parametrize("data, message", (
        (b"P5 2 1 # a comment that runs to the end of the data", "invalid maxval: b''"),
        (b"P5 # a comment that runs to the end of the data", "invalid width: b''"),
        (b"P5 2 1", "invalid maxval: b''"),  # an empty final token
        (b"P5 2 1 \t\n", "invalid maxval: b''"),
        (b"P5 2", "invalid height: b''"),
        (b"P5 2 x# 255\n\x01\x02", "invalid height: b'x'"),
        (b"P5 2 1 255#\n\x01\x02", "missing whitespace between maxval and payload"),  # '#' is no whitespace
    ))
    def test_tricky_headers_that_raise(self, data, message):
        with pytest.raises(PgmFormatError) as info:
            load_pgm(data)
        assert str(info.value) == message

    @pytest.mark.parametrize("separators", (b" #" * (1 << 19), b" " * (1 << 19) + b"#" * (1 << 19)),
                             ids=("alternating", "spaces-then-hashes"))
    def test_a_megabyte_header_of_separators_fails_fast(self, separators):
        # spaces and '#' with no line end: a header with no tokens, whose scan must not take seconds
        start = time.perf_counter()
        with pytest.raises(PgmFormatError, match="^invalid width: b''$"):
            load_pgm(b"P5" + separators)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("field", ("width", "height", "maxval"))
    def test_a_token_past_int_digit_limit_is_a_format_error(self, field):
        # int() refuses more than sys.get_int_max_str_digits() digits (4300 by default) with a plain ValueError
        tokens = {"width": b"1", "height": b"1", "maxval": b"255", field: b"9" * 5000}
        with pytest.raises(PgmFormatError, match=f"^invalid {field}: 5000 digits$"):
            load_pgm(b"P5 " + b" ".join(tokens.values()) + b"\n")

    def test_save_single_pixel(self):
        assert save_pgm(GrayImage([[7]])) == b"P5 1 1 255\n\x07"

    def test_save_header_dimension_order(self):
        data = save_pgm(GrayImage(np.zeros((3, 2), dtype=np.uint8)))
        assert data.startswith(b"P5 2 3 255\n")

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 24), st.integers(1, 24), st.integers(0, 2**32 - 1))
    def test_round_trip_random(self, w, h, seed):
        rng = np.random.default_rng(seed)
        img = GrayImage(rng.integers(0, 256, (h, w), dtype=np.uint8))
        assert load_pgm(save_pgm(img)) == img

    # A header as load_pgm reads it: separators are whitespace or '#' comments up to a line end,
    # and each field a maximal run of digits (possessive, so a field is never split in two).
    SEPARATORS = rb"(?:[ \t\n\r\x0b\x0c]|#[^\r\n]*)*+"
    HEADER = re.compile(rb"P5" + (SEPARATORS + rb"(\d++)") * 3 + rb"[ \t\n\r\x0b\x0c]")

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 5), st.data())
    def test_mutated_pgm_raises_only_format_errors(self, w, h, data):
        # byte flips, truncations and insertions of header bytes: load_pgm either raises
        # PgmFormatError, never another exception, or returns the payload bytes that follow
        # the header, as an image of the size that header gives
        blob = bytearray(save_pgm(GrayImage(np.frombuffer(data.draw(st.binary(min_size=w * h, max_size=w * h)),
                                                          dtype=np.uint8).reshape(h, w))))
        for _ in range(data.draw(st.integers(1, 4))):
            kind, pos = data.draw(st.sampled_from(("flip", "cut", "insert"))), data.draw(st.integers(0, len(blob)))
            if kind == "flip" and pos < len(blob):
                blob[pos] ^= 1 << data.draw(st.integers(0, 7))
            elif kind == "cut":
                del blob[pos:]
            elif kind == "insert":
                blob.insert(pos, data.draw(st.sampled_from(b" #\n9P50")))
        try:
            img = load_pgm(bytes(blob))
        except PgmFormatError:
            return
        header = self.HEADER.match(blob)
        width, height, maxval = (int(field) for field in header.groups())
        assert maxval == 255 and (img.width, img.height) == (width, height)
        assert img.pixels.tobytes() == blob[header.end() : header.end() + width * height]


class TestPad:
    def test_noop_when_already_multiple(self):
        img = GrayImage(np.arange(32 * 32, dtype=np.int64).reshape(32, 32) % 256)
        assert pad_to_multiple(img, 16) is img

    def test_edge_replication(self):
        rows = np.arange(10, dtype=np.uint8)[:, None] * np.ones(10, dtype=np.uint8)
        img = pad_to_multiple(GrayImage(rows), 16)
        assert (img.width, img.height) == (16, 16)
        for y in range(10, 16):
            assert np.array_equal(img.pixels[y], img.pixels[9])
        assert np.array_equal(img.pixels[:10, :10], rows)

    def test_ceiling_dimensions(self):
        img = pad_to_multiple(GrayImage(np.zeros((16, 17), dtype=np.uint8)), 16)
        assert (img.width, img.height) == (32, 16)

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        img = GrayImage(rng.integers(0, 256, (13, 21), dtype=np.uint8))
        once = pad_to_multiple(img, 16)
        assert pad_to_multiple(once, 16) == once


class TestBlockOps:
    def test_block_mean_constant(self):
        img = GrayImage(np.full((8, 8), 42, dtype=np.uint8))
        assert block_mean(img, BlockRect(2, 2, 4)) == 42.0

    def test_block_mean_small(self):
        img = GrayImage(np.array([[1, 2], [3, 4]], dtype=np.uint8))
        assert block_mean(img, BlockRect(0, 0, 2)) == 2.5

    def test_block_mean_counting(self):
        img = GrayImage(np.arange(16, dtype=np.uint8).reshape(4, 4))
        assert block_mean(img, BlockRect(0, 0, 4)) == 7.5

    def test_block_mean_out_of_bounds(self):
        img = GrayImage(np.zeros((4, 4), dtype=np.uint8))
        with pytest.raises(ValueError, match="out of bounds"):
            block_mean(img, BlockRect(2, 2, 4))

    def test_downsample_constant(self):
        img = GrayImage(np.full((8, 8), 42, dtype=np.uint8))
        assert np.array_equal(downsample_mean2(img, BlockRect(0, 0, 8)), np.full((4, 4), 42.0))

    def test_downsample_2x2(self):
        img = GrayImage(np.array([[1, 2], [3, 4]], dtype=np.uint8))
        assert downsample_mean2(img, BlockRect(0, 0, 2)).tolist() == [[2.5]]

    def test_downsample_quadrants(self):
        q = np.block([[np.full((2, 2), 10), np.full((2, 2), 20)],
                      [np.full((2, 2), 30), np.full((2, 2), 40)]]).astype(np.uint8)
        out = downsample_mean2(GrayImage(q), BlockRect(0, 0, 4))
        assert out.tolist() == [[10.0, 20.0], [30.0, 40.0]]

    def test_downsample_rejects_odd_size(self):
        img = GrayImage(np.zeros((8, 8), dtype=np.uint8))
        with pytest.raises(ValueError, match="even"):
            downsample_mean2(img, BlockRect(0, 0, 3))

    def test_downsample_preserves_mean_exactly(self):
        # quarter-integer sums stay exact in float64, so this is equality
        rng = np.random.default_rng(1)
        img = GrayImage(rng.integers(0, 256, (32, 32), dtype=np.uint8))
        for rect in (BlockRect(0, 0, 32), BlockRect(4, 8, 16), BlockRect(17, 3, 8)):
            assert float(downsample_mean2(img, rect).mean()) == block_mean(img, rect)

    def test_box_sums_quartered_equal_downsample(self):
        # the decoder gathers its domains from box sums, so this must hold bit for bit on real rasters
        raster = np.random.default_rng(2).uniform(-100.0, 400.0, (24, 20))
        sums = box_sums(raster)
        assert sums.shape == (23, 19)
        for rect in (BlockRect(0, 0, 20), BlockRect(3, 5, 16), BlockRect(11, 7, 8), BlockRect(18, 22, 2)):
            quarter = sums[rect.y : rect.y + rect.size : 2, rect.x : rect.x + rect.size : 2] * 0.25
            assert np.array_equal(quarter, downsample_mean2(raster, rect))

    def test_box_sums_of_image(self):
        img = GrayImage(np.array([[1, 2, 3], [4, 5, 6]], dtype=np.uint8))
        assert box_sums(img).tolist() == [[12.0, 16.0]]

    def test_uint16_box_sums_are_exact(self):
        # the encoder keeps its band sums in uint16; four 255s must not wrap
        pixels = np.random.default_rng(4).integers(0, 256, (20, 24), dtype=np.uint8)
        pixels[:2, :2] = 255
        sums = box_sums(GrayImage(pixels), np.uint16)
        assert sums.dtype == np.uint16 and sums[0, 0] == 1020
        assert np.array_equal(sums, box_sums(GrayImage(pixels)))

    @pytest.mark.parametrize("h, w, k", ((1, 1, 1), (5, 7, 1), (5, 7, 3), (5, 7, 5), (9, 4, 4), (16, 16, 15),
                                         (3, 11, 3)))
    @pytest.mark.parametrize("dtype", (np.uint8, np.uint16, np.float32))
    def test_flat_windows_index_each_window_by_its_flat_origin(self, h, w, k, dtype):
        # every gather and scatter in the codec goes through this view, the last row and column too
        a = np.random.default_rng(7).integers(0, 256, (h, w)).astype(dtype)
        view = flat_windows(a, k)
        assert view.shape == ((h - k) * w + w - k + 1, k, k)
        for y, x in np.ndindex(h - k + 1, w - k + 1):
            assert np.array_equal(view[y * w + x], a[y : y + k, x : x + k])
        expected = a.copy()
        expected[h - k :, w - k :] = 0
        view[(h - k) * w + w - k] = 0  # a scatter writes the raster: the last window, its bottom-right corner
        assert np.array_equal(a, expected)

    @pytest.mark.parametrize("dtype", (np.uint16, np.float64))
    def test_domain_means_equal_downsample(self, dtype):
        # the oracles' domain gather, from uint16 box sums as the encoder's and float64 ones as the decoder's
        raster = np.random.default_rng(5).integers(0, 256, (24, 20), dtype=np.uint8)
        sums = box_sums(raster, dtype)
        x, y = np.array([[0, 3, 12], [4, 4, 0]]), np.array([[0, 8, 1], [16, 15, 0]])  # any index shape
        means = domain_means(sums, x, y, 4)
        assert means.shape == (2, 3, 4, 4) and means.dtype == np.float64
        for i, j in np.ndindex(x.shape):
            assert np.array_equal(means[i, j], downsample_mean2(raster, BlockRect(x[i, j], y[i, j], 8)))

    @pytest.mark.parametrize("shape", ((24, 20), (23, 19), (2, 3)))
    def test_parity_sums_are_box_sums_at_one_parity(self, shape):
        # the decoder gathers its domains from these, so they must equal box_sums bit for bit
        raster = np.random.default_rng(6).uniform(-100.0, 400.0, shape)
        for py in (0, 1):
            for px in (0, 1):
                half = parity_sums(raster, py, px)
                assert half.shape == ((shape[0] - py) // 2, (shape[1] - px) // 2)
                assert half.tobytes() == box_sums(raster)[py::2, px::2][: half.shape[0], : half.shape[1]].tobytes()
                # a stack of rasters, as the decoder passes the domains it gathers, gives each raster's sums
                flipped = raster[::-1]
                expected = np.stack([half, parity_sums(flipped, py, px)])
                assert parity_sums(np.stack([raster, flipped]), py, px).tobytes() == expected.tobytes()


class TestCoDomain:
    def test_centered_interior(self):
        assert co_domain_rect(BlockRect(24, 24, 16), 512, 512) == BlockRect(16, 16, 32)

    def test_clamped_at_origin(self):
        assert co_domain_rect(BlockRect(0, 0, 16), 512, 512) == BlockRect(0, 0, 32)

    def test_clamped_at_far_edge(self):
        assert co_domain_rect(BlockRect(496, 0, 16), 512, 512) == BlockRect(480, 0, 32)

    def test_too_small_image(self):
        with pytest.raises(ValueError, match="domain"):
            co_domain_rect(BlockRect(0, 0, 16), 16, 16)

    def test_always_in_bounds_and_centered_when_interior(self):
        rng = np.random.default_rng(2)
        w, h = 64, 48
        for _ in range(200):
            size = int(rng.choice([2, 4, 8, 16]))
            x = int(rng.integers(0, w - size + 1))
            y = int(rng.integers(0, h - size + 1))
            dom = co_domain_rect(BlockRect(x, y, size), w, h)
            assert dom.size == 2 * size
            assert 0 <= dom.x and dom.x + dom.size <= w
            assert 0 <= dom.y and dom.y + dom.size <= h
            # at least size/2 away from each border: centers coincide exactly
            half = size // 2
            if half <= x <= w - size - half and half <= y <= h - size - half:
                assert dom.x + size == x + half
                assert dom.y + size == y + half

    @pytest.mark.parametrize("w, h", ((48, 30), (30, 48)))
    def test_array_form_matches_scalar_form(self, w, h):
        # every side 2..16 at every origin, so domains clamp at each edge; odd sides, and the
        # 32x32 domain that no 30-pixel side holds, raise the same error in both forms
        fitting = []
        for k in range(2, 17):
            y, x = np.mgrid[: h - k + 1, : w - k + 1].reshape(2, -1)
            try:
                expected = [co_domain_rect(BlockRect(a, b, k), w, h) for a, b in zip(x.tolist(), y.tolist())]
            except ValueError as err:
                with pytest.raises(ValueError, match=re.escape(str(err))):
                    co_domain_origins(x, y, k, w, h)
                with pytest.raises(ValueError, match=re.escape(str(err))):
                    co_domain_origins(x, y, np.full(len(x), k), w, h)
                continue
            dx, dy = co_domain_origins(x, y, k, w, h)
            assert [BlockRect(a, b, 2 * k) for a, b in zip(dx.tolist(), dy.tolist())] == expected
            fitting.append((x, y, np.full(len(x), k), dx, dy))
        # one call over every fitting side at once, as a decoder makes it
        x, y, k, dx, dy = (np.concatenate(col) for col in zip(*fitting))
        got_x, got_y = co_domain_origins(x, y, k, w, h)
        assert np.array_equal(got_x, dx) and np.array_equal(got_y, dy)
