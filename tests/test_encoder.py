import math
import tracemalloc

import numpy as np
import pytest

import mnscodec.encoder as enc
from mnscodec.encoder import (
    CONTRAST_SETS,
    PHASE1,
    EncoderConfig,
    encode_full_search,
    encode_local_search,
    encode_quadtree,
    try_phase1,
    try_phase2,
)
from mnscodec.image import BlockRect, GrayImage, downsample_mean2, pad_to_multiple
from mnscodec.transform import rms_error

from records import Phase1Payload, records
from scalar_oracle import block_pixels, co_domain_rect, dequantize_contrast, quadrants
from util import natural_image, noise_image, scene_image


def traced_peak(f, *args):
    """Peak of tracemalloc-traced memory during f(*args), in bytes."""
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def quantized_grid_best_rms(image, rect):
    """Best achievable phase-1 RMS over every (s_code, o_byte) pair."""
    d = downsample_mean2(image, co_domain_rect(rect, image.width, image.height))
    r = block_pixels(image, rect)
    return min(
        rms_error(r, d, dequantize_contrast(code), float(o))
        for code in range(8)
        for o in range(256)
    )


def quadrant_image(values, size=16):
    """Constant-quadrant block of the given TL, TR, BL, BR values."""
    h = size // 2
    arr = np.zeros((size, size), dtype=np.uint8)
    arr[:h, :h] = values[0]
    arr[:h, h:] = values[1]
    arr[h:, :h] = values[2]
    arr[h:, h:] = values[3]
    return GrayImage(arr)


def one_block(phase, image, rect, level, config):
    """A kernel call on a batch of one: whether it accepts the block, its payload row and its rms."""
    accepted, payload, rms = phase(enc._band(image, 0, image.height), np.array([[rect.x, rect.y]]), level, config)
    return bool(accepted[0]), payload[0].tolist(), float(rms[0])


class TestPhase1:
    def test_constant_block_accepted_exactly(self, constant_64):
        accepted, payload, rms = one_block(try_phase1, constant_64, BlockRect(16, 16, 16), 1, EncoderConfig())
        assert rms == 0.0
        assert accepted and payload == [42, 4]  # o_byte, then s_code: an s fit of 0 lands in bin 4

    def test_level4_always_accepts(self, noise_64):
        config = EncoderConfig(e1=0.001, e2=0.001, e3=0.001)
        accepted, _, rms = one_block(try_phase1, noise_64, BlockRect(8, 8, 2), 4, config)
        assert accepted
        assert rms > 0.001

    def test_checkerboard_rejected_at_tight_threshold(self):
        board = np.indices((64, 64)).sum(axis=0) % 2 * 255
        img = GrayImage(board.astype(np.uint8))
        config = EncoderConfig(e1=1.0, e2=1.0, e3=1.0)
        rect = BlockRect(16, 16, 16)
        accepted, _, _ = one_block(try_phase1, img, rect, 1, config)
        assert not accepted
        # no quantized parameter pair can cover it either
        assert quantized_grid_best_rms(img, rect) > 1.0


class TestPhase2:
    def test_constant_block(self, constant_64):
        accepted, payload, rms = one_block(try_phase2, constant_64, BlockRect(0, 0, 16), 1, EncoderConfig())
        assert accepted and rms == 0.0
        assert payload[1:4] == [0, 0, 0]  # deltas
        assert payload[4:] == [0, 0, 0, 0]  # s_bits: equal-error ties pick bit 0

    def test_mean_gate_rejects(self):
        img = quadrant_image((178, 100, 100, 100))  # TL is far above the block mean
        config = EncoderConfig(mean_tol=16.0)
        accepted, _, rms = one_block(try_phase2, img, BlockRect(0, 0, 16), 1, config)
        assert not accepted and rms == math.inf

    def test_worked_quartet_means(self):
        img = quadrant_image((100, 104, 96, 100))
        accepted, payload, _ = one_block(try_phase2, img, BlockRect(0, 0, 16), 1, EncoderConfig())
        assert accepted
        o_byte, deltas = payload[0], payload[1:4]
        assert o_byte == 100
        assert deltas == [0, 4, -4]
        # implied fourth mean folds back to the block mean
        assert o_byte - sum(deltas) == 100

    def test_delta_width_rejects_at_level1(self):
        # gate passes (|16| <= 16) but a delta of 16 needs 5 magnitude bits
        img = quadrant_image((116, 100, 100, 84))
        accepted, _, _ = one_block(try_phase2, img, BlockRect(0, 0, 16), 1, EncoderConfig(mean_tol=16.0))
        assert not accepted

    def test_implied_mean_out_of_range_rejects(self):
        img = quadrant_image((3, 3, 3, 0))
        accepted, _, _ = one_block(try_phase2, img, BlockRect(0, 0, 16), 1, EncoderConfig())
        assert not accepted  # implied fourth mean would be -1

    def test_level4_is_invalid(self, constant_64):
        with pytest.raises(ValueError, match="levels 1..3"):
            one_block(try_phase2, constant_64, BlockRect(0, 0, 2), 4, EncoderConfig())


class TestQuadtree:
    def test_constant_image_one_leaf_per_root(self):
        img = GrayImage(np.full((512, 512), 200, dtype=np.uint8))
        code = encode_quadtree(img, EncoderConfig(mode="no_search"))
        assert len(code.leaves) == 1024
        assert code.level_counts() == (1024, 0, 0, 0)
        assert (code.leaves.kind == PHASE1).all()

    def test_infinite_thresholds_accept_all_roots(self, noise_64):
        config = EncoderConfig(e1=math.inf, e2=math.inf, e3=math.inf, mode="no_search")
        code = encode_quadtree(noise_64, config)
        assert code.level_counts() == (16, 0, 0, 0)

    def test_noise_at_tight_threshold_goes_to_level4(self, noise_64):
        config = EncoderConfig(e1=0.5, e2=0.5, e3=0.5, mode="mns")
        code = encode_quadtree(noise_64, config)
        assert code.level_counts() == (0, 0, 0, 1024)
        # spot-check with the quantized-parameter oracle that upper levels
        # really cannot reach rms 0.5
        for rect in (BlockRect(0, 0, 16), BlockRect(16, 16, 8), BlockRect(4, 4, 4)):
            assert quantized_grid_best_rms(noise_64, rect) > 0.5

    def test_phase1_wins_over_phase2(self, constant_64):
        code = encode_quadtree(constant_64, EncoderConfig(mode="mns"))
        assert (code.leaves.kind == PHASE1).all()

    def test_tiling_partition(self, natural_128):
        for mode in ("no_search", "mns"):
            code = encode_quadtree(natural_128, EncoderConfig(e1=5, e2=5, e3=5, mode=mode))
            seen = np.zeros((code.padded_h, code.padded_w), dtype=np.int32)
            for x, y, size in code.leaves.rows[:, 2:5].tolist():
                seen[y : y + size, x : x + size] += 1
            assert seen.min() == 1 and seen.max() == 1

    def test_accepted_leaves_meet_threshold(self, natural_128):
        config = EncoderConfig(e1=6, e2=6, e3=6, mode="mns")
        code = encode_quadtree(natural_128, config)
        padded = pad_to_multiple(natural_128, 16)
        checked = 0
        for leaf in records(code.leaves):
            if leaf.level == 4:
                continue
            tol = config.threshold(leaf.level)
            if isinstance(leaf.payload, Phase1Payload):
                d = downsample_mean2(padded, co_domain_rect(leaf.rect, padded.width, padded.height))
                r = block_pixels(padded, leaf.rect)
                rms = rms_error(r, d, dequantize_contrast(leaf.payload.s_code), float(leaf.payload.o_byte))
                assert rms <= tol + 1e-9
            else:
                p = leaf.payload
                targets = (p.o_byte + p.deltas[0], p.o_byte + p.deltas[1], p.o_byte + p.deltas[2],
                           p.o_byte - sum(p.deltas))
                pair = CONTRAST_SETS[leaf.level]
                for quad, target, bit in zip(quadrants(leaf.rect), targets, p.s_bits):
                    d = downsample_mean2(padded, co_domain_rect(quad, padded.width, padded.height))
                    r = block_pixels(padded, quad)
                    assert rms_error(r, d, pair[bit], float(target)) <= tol + 1e-9
            checked += 1
        assert checked > 0

    def test_threshold_monotonicity(self, natural_128):
        tight = encode_quadtree(natural_128, EncoderConfig(e1=4, e2=5, e3=6, mode="mns"))
        loose = encode_quadtree(natural_128, EncoderConfig(e1=6, e2=7, e3=9, mode="mns"))
        assert len(loose.leaves) <= len(tight.leaves)

    def test_mode_dominance(self, natural_128):
        for e in (4.0, 8.0):
            ns = encode_quadtree(natural_128, EncoderConfig(e1=e, e2=e, e3=e, mode="no_search"))
            mns = encode_quadtree(natural_128, EncoderConfig(e1=e, e2=e, e3=e, mode="mns"))
            assert len(mns.leaves) <= len(ns.leaves)

    def test_determinism(self, natural_128):
        config = EncoderConfig(mode="mns")
        assert encode_quadtree(natural_128, config) == encode_quadtree(natural_128, config)

    def test_tiny_image_skips_level1(self):
        # a 16x16 raster has no room for a 32x32 domain, so roots must split
        img = noise_image(16, 16, seed=5)
        code = encode_quadtree(img, EncoderConfig(mode="mns"))
        assert code.level_counts()[0] == 0
        assert sum(code.level_counts()) == len(code.leaves) > 0

    def test_oversize_image_fails_before_any_fit(self, monkeypatch):
        def never(*args):
            raise AssertionError("phase 1 ran on an image the stream header cannot hold")

        monkeypatch.setattr(enc, "try_phase1", never)
        img = GrayImage(np.zeros((1, 65521), dtype=np.uint8))  # pads to 65536 columns
        with pytest.raises(ValueError, match="16-bit"):
            encode_quadtree(img, EncoderConfig())

    def test_kernel_calls_are_sized_by_pixels(self, monkeypatch):
        # a 512x512 raster is one band, and a call takes up to WORK_PIXELS range pixels of a
        # level's live blocks: a quarter of level 1 per call, not one call per band of root rows
        calls = []
        for name in ("try_phase1", "try_phase2"):
            kernel = getattr(enc, name)
            monkeypatch.setattr(enc, name, lambda band, xy, level, config, kernel=kernel:
                                calls.append(len(xy) * enc.LEVEL_SIZES[level] ** 2) or kernel(band, xy, level, config))
        encode_quadtree(natural_image(512, 512), EncoderConfig())
        assert len(calls) <= 16
        assert max(calls) == enc.WORK_PIXELS  # range pixels in a call

    def test_traced_peak_stays_below_a_whole_image_copy(self):
        # a float64 copy of this raster alone is 8 MB; a band holds at most 8 * WORK_PIXELS
        # pixels (here 32 root rows) and a call WORK_PIXELS range pixels, so the peak is one
        # band's uint16 box sums, one call's float64 ranges and domains, and the returned leaves
        assert traced_peak(encode_quadtree, natural_image(1024, 1024, seed=7), EncoderConfig()) < 4_000_000

    def test_rejects_baseline_modes(self, constant_64):
        # a baseline mode is no EncoderConfig mode, so it cannot reach encode_quadtree
        with pytest.raises(ValueError, match="unknown mode"):
            encode_quadtree(constant_64, EncoderConfig(mode="full_search"))


class TestFullSearch:
    def test_constant_image_ties_to_origin(self, constant_64):
        code, samples = encode_full_search(constant_64, 8, EncoderConfig())
        assert (code.leaves.domain == [0, 0, 16]).all()
        assert len(samples) == 64

    def test_constructed_exact_match_wins(self):
        rng = np.random.default_rng(9)
        arr = rng.integers(0, 256, (48, 48), dtype=np.uint8)
        # pattern with values 128 +/- 8 so that s = 0.875 maps it exactly
        pattern = np.where(np.indices((8, 8)).sum(axis=0) % 2 == 0, 136, 120)
        arr[8:24, 24:40] = np.kron(pattern, np.ones((2, 2), dtype=int)).astype(np.uint8)
        arr[0:8, 0:8] = (0.875 * (pattern - 128) + 128).astype(np.uint8)
        img = GrayImage(arr)
        code, _ = encode_full_search(img, 8, EncoderConfig())
        leaf = records(code.leaves)[0]
        assert leaf.rect == BlockRect(0, 0, 8)
        assert leaf.payload.domain == BlockRect(24, 8, 16)
        assert leaf.payload.s_code == 7
        d = downsample_mean2(img, leaf.payload.domain)
        r = block_pixels(img, leaf.rect)
        assert rms_error(r, d, 0.875, float(leaf.payload.o_byte)) == 0.0

    def test_rejects_too_small_image(self):
        img = GrayImage(np.zeros((12, 12), dtype=np.uint8))
        with pytest.raises(ValueError, match="too small"):
            encode_full_search(img, 8, EncoderConfig())

    @pytest.mark.parametrize("step", (1, 3))
    @pytest.mark.parametrize("range_size", (4, 8))
    def test_call_size_does_not_change_the_code(self, range_size, step, monkeypatch):
        img, config = natural_image(64, 64), EncoderConfig(full_search_step=step)
        code, samples = encode_full_search(img, range_size, config)
        monkeypatch.setattr(enc, "WORK_PIXELS", 1)  # one range per call
        assert encode_full_search(img, range_size, config) == (code, samples)

    def test_traced_peak_stays_small(self):
        # the 2,401-domain pool of 8x8 means is 1.2 MB of float64; each call's score matrices stay small
        peak = traced_peak(encode_full_search, natural_image(64, 64), 8, EncoderConfig())
        assert peak < 2_000_000

    def test_offsets_are_center_differences(self, constant_64):
        _, samples = encode_full_search(constant_64, 8, EncoderConfig())
        # winning domain is always (0, 0, 16); range centers walk the grid
        expected = [(8 - (rx + 4), 8 - (ry + 4)) for ry in range(0, 64, 8) for rx in range(0, 64, 8)]
        assert samples == expected


class TestLocalSearch:
    def test_exactly_81_candidates_per_range(self, monkeypatch):
        img = noise_image(32, 32, seed=6)
        calls = []
        real = enc._fit

        def counting(r, d, norms):
            calls.append((len(r), d.shape[:2], norms.shape))
            return real(r, d, norms)

        monkeypatch.setattr(enc, "_fit", counting)
        encode_local_search(img, EncoderConfig())
        assert calls and all(d_shape == norms_shape == (n, 81) for n, d_shape, norms_shape in calls)
        assert sum(n for n, _, _ in calls) == 16  # every range of the 32x32 image, each scored once

    def test_call_size_does_not_change_the_code(self, monkeypatch):
        img, config = scene_image(128, 128), EncoderConfig()
        code = encode_local_search(img, config)
        monkeypatch.setattr(enc, "WORK_PIXELS", 1)  # one range per call
        assert encode_local_search(img, config) == code

    def test_traced_peak_stays_small(self):
        # a call gathers at most WORK_PIXELS candidate pixels: 12 ranges' 81 candidates, 0.5 MB of float64
        assert traced_peak(encode_local_search, scene_image(128, 128), EncoderConfig()) < 2_000_000

    def test_never_beats_full_search(self):
        img = noise_image(32, 32, seed=8)
        config = EncoderConfig()
        local = encode_local_search(img, config)
        full, _ = encode_full_search(img, 8, EncoderConfig(full_search_step=1))
        by_rect = {leaf.rect: leaf for leaf in records(full.leaves)}
        for leaf in records(local.leaves):
            ref = by_rect[leaf.rect]
            r = block_pixels(img, leaf.rect)
            local_rms = rms_error(r, downsample_mean2(img, leaf.payload.domain),
                                  dequantize_contrast(leaf.payload.s_code), float(leaf.payload.o_byte))
            full_rms = rms_error(r, downsample_mean2(img, ref.payload.domain),
                                 dequantize_contrast(ref.payload.s_code), float(ref.payload.o_byte))
            assert full_rms <= local_rms + 1e-12

    def test_constant_image_keeps_first_candidate(self, constant_64):
        # every candidate ties at rms 0, so the (dy, dx) = (-4, -4) translate
        # of the co-centered domain wins by scan order
        code = encode_local_search(constant_64, EncoderConfig())
        for leaf in records(code.leaves):
            base = co_domain_rect(leaf.rect, 64, 64)
            expected = BlockRect(min(max(base.x - 4, 0), 64 - 16), min(max(base.y - 4, 0), 64 - 16), 16)
            assert leaf.payload.domain == expected

    def test_rejects_too_small_image(self):
        with pytest.raises(ValueError, match="16x16"):
            encode_local_search(GrayImage(np.zeros((8, 20), dtype=np.uint8)), EncoderConfig())


class TestConfig:
    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown mode"):
            EncoderConfig(mode="turbo")

    def test_rejects_local_search_mode(self):
        # the search baselines read no mode (TestQuadtree::test_rejects_baseline_modes tries full_search)
        with pytest.raises(ValueError, match="unknown mode"):
            EncoderConfig(mode="local_search")

    def test_rejects_nonpositive_threshold(self):
        with pytest.raises(ValueError, match="thresholds"):
            EncoderConfig(e2=0.0)

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError, match="full_search_step"):
            EncoderConfig(full_search_step=0)

    @pytest.mark.parametrize("field", ("e1", "e2", "e3", "mean_tol"))
    def test_rejects_nan(self, field):
        # every ordered comparison with NaN is false, so NaN would slip past the sign checks
        with pytest.raises(ValueError, match="NaN"):
            EncoderConfig(**{field: math.nan})
