import dataclasses
import math
import random

import numpy as np
import pytest

from mnscodec.decoder import DecodeConfig, decode, decode_step
from mnscodec.encoder import EncoderConfig, encode_full_search, encode_local_search, encode_quadtree
from mnscodec.image import GrayImage


class TestDecodeStep:
    def test_constant_code_settles_from_any_flat_start(self, constant_64):
        code = encode_quadtree(constant_64, EncoderConfig(mode="mns"))
        for start in (0.0, 77.0, 255.0):
            raster = np.full((code.padded_h, code.padded_w), start)
            out = decode_step(code, raster)
            assert np.array_equal(out, np.full_like(raster, 42.0))

    def test_second_step_is_fixed_for_constant_code(self, constant_64):
        code = encode_quadtree(constant_64, EncoderConfig(mode="no_search"))
        raster = np.full((code.padded_h, code.padded_w), 128.0)
        first = decode_step(code, raster)
        second = decode_step(code, first)
        assert np.array_equal(first, second)

    def test_leaf_order_does_not_matter(self, natural_128):
        code = encode_quadtree(natural_128, EncoderConfig(e1=5, e2=5, e3=5, mode="mns"))
        rng = random.Random(13)
        shuffled_leaves = list(code.leaves)
        rng.shuffle(shuffled_leaves)
        shuffled = dataclasses.replace(code, leaves=tuple(shuffled_leaves))
        raster = np.random.default_rng(0).uniform(0, 255, (code.padded_h, code.padded_w))
        assert np.array_equal(decode_step(code, raster), decode_step(shuffled, raster))

    def test_rejects_wrong_raster_shape(self, constant_64):
        code = encode_quadtree(constant_64, EncoderConfig())
        with pytest.raises(ValueError, match="shape"):
            decode_step(code, np.zeros((8, 8)))

    def test_successive_deltas_shrink(self, natural_128):
        code = encode_quadtree(natural_128, EncoderConfig(mode="mns"))
        cur = np.full((code.padded_h, code.padded_w), 128.0)
        deltas = []
        for _ in range(10):
            nxt = decode_step(code, cur)
            deltas.append(float(np.max(np.abs(nxt - cur))))
            cur = nxt
        for earlier, later in zip(deltas[1:], deltas[2:]):
            assert later <= earlier + 1e-9


class TestDecode:
    def test_constant_round_trip_single_iteration(self, constant_64):
        code = encode_quadtree(constant_64, EncoderConfig(mode="mns"))
        out = decode(code, DecodeConfig(max_iters=1))
        assert out == constant_64

    def test_initial_condition_washout(self, natural_128, noise_64, gradient_64):
        for img in (natural_128, noise_64, gradient_64):
            for mode in ("no_search", "mns"):
                code = encode_quadtree(img, EncoderConfig(mode=mode))
                lo = decode(code, DecodeConfig(max_iters=10, stop_delta=0.0, initial_value=0.0))
                hi = decode(code, DecodeConfig(max_iters=10, stop_delta=0.0, initial_value=255.0))
                diff = np.abs(lo.pixels.astype(int) - hi.pixels.astype(int))
                assert diff.max() <= 1

    def test_crop_to_original_dimensions(self):
        rng = np.random.default_rng(17)
        img = GrayImage(rng.integers(0, 256, (34, 50), dtype=np.uint8))
        code = encode_quadtree(img, EncoderConfig(mode="mns"))
        out = decode(code)
        assert (out.width, out.height) == (50, 34)

    def test_deterministic(self, natural_128):
        code = encode_quadtree(natural_128, EncoderConfig(mode="mns"))
        cfg = DecodeConfig()
        assert decode(code, cfg) == decode(code, cfg)

    def test_quality_tracks_threshold(self, natural_128):
        from mnscodec.metrics import psnr

        tight = encode_quadtree(natural_128, EncoderConfig(e1=3, e2=3, e3=3, mode="mns"))
        loose = encode_quadtree(natural_128, EncoderConfig(e1=12, e2=12, e3=12, mode="mns"))
        assert psnr(natural_128, decode(tight)) > psnr(natural_128, decode(loose))

    def test_decodes_baseline_codes(self, noise_64):
        # search baselines carry explicit domains; the decoder follows them
        full, _ = encode_full_search(noise_64, 8, EncoderConfig(mode="full_search"))
        local = encode_local_search(noise_64, EncoderConfig(mode="local_search"))
        for code in (full, local):
            out = decode(code)
            assert (out.width, out.height) == (64, 64)

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError, match="max_iters"):
            DecodeConfig(max_iters=0)

    @pytest.mark.parametrize("field, value", (
        ("stop_delta", math.nan),
        ("initial_value", math.nan),
        ("initial_value", math.inf),
        ("initial_value", -math.inf),
    ))
    def test_rejects_nan_and_infinite_settings(self, field, value):
        with pytest.raises(ValueError, match=field):
            DecodeConfig(**{field: value})
