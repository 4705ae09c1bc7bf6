import dataclasses
import math
import random
import tracemalloc

import numpy as np
import pytest

from mnscodec import decoder
from mnscodec.decoder import START_VALUE, DecodeConfig, _plan, decode, decode_step
from mnscodec.encoder import (
    EncoderConfig,
    LeafTable,
    QuadtreeCode,
    encode_full_search,
    encode_local_search,
    encode_quadtree,
)
from mnscodec.image import BlockRect, GrayImage

from records import BaselinePayload, LeafRecord, Phase1Payload, table_of
from test_decoder_oracle import IMAGES, _rasters
from util import natural_image, random_code, scene_image


class TestDecodeStep:
    def test_constant_code_settles_from_any_flat_start(self, constant_64):
        code = encode_quadtree(constant_64, EncoderConfig(mode="mns"))
        for start in (0.0, 77.0, 255.0):
            raster = np.full((code.padded_h, code.padded_w), start)
            out = decode_step(_plan(code), raster)
            assert np.array_equal(out, np.full_like(raster, 42.0))

    def test_second_step_is_fixed_for_constant_code(self, constant_64):
        code = encode_quadtree(constant_64, EncoderConfig(mode="no_search"))
        raster = np.full((code.padded_h, code.padded_w), 128.0)
        plan = _plan(code)
        first = decode_step(plan, raster)
        second = decode_step(plan, first)
        assert np.array_equal(first, second)

    def test_leaf_order_does_not_matter(self, natural_128):
        code = encode_quadtree(natural_128, EncoderConfig(e1=5, e2=5, e3=5, mode="mns"))
        rng = random.Random(13)
        order = list(range(len(code.leaves)))
        rng.shuffle(order)
        shuffled = dataclasses.replace(code, leaves=LeafTable(code.leaves.rows[order]))
        raster = np.random.default_rng(0).uniform(0, 255, (code.padded_h, code.padded_w))
        assert np.array_equal(decode_step(_plan(code), raster), decode_step(_plan(shuffled), raster))

    def test_rejects_wrong_raster_shape(self, constant_64):
        code = encode_quadtree(constant_64, EncoderConfig())
        with pytest.raises(ValueError, match="shape"):
            decode_step(_plan(code), np.zeros((8, 8)))

    def test_successive_deltas_shrink(self, natural_128):
        code = encode_quadtree(natural_128, EncoderConfig(mode="mns"))
        plan, cur = _plan(code), np.full((code.padded_h, code.padded_w), 128.0)
        deltas = []
        for _ in range(10):
            nxt = decode_step(plan, cur)
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
        # decode always starts from START_VALUE; ten sweeps from flat 0 and flat 255, rounded as
        # decode rounds, land within one gray level of each other
        for img in (natural_128, noise_64, gradient_64):
            for mode in ("no_search", "mns"):
                plan, rounded = _plan(encode_quadtree(img, EncoderConfig(mode=mode))), []
                for start in (0.0, 255.0):
                    current = np.full(plan.shape, start)
                    for _ in range(10):
                        current = decode_step(plan, current)
                    rounded.append(np.clip(np.floor(current + 0.5), 0.0, 255.0))
                assert np.abs(rounded[0] - rounded[1]).max() <= 1

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
        full, _ = encode_full_search(noise_64, 8, EncoderConfig())
        local = encode_local_search(noise_64, EncoderConfig())
        for code in (full, local):
            out = decode(code)
            assert (out.width, out.height) == (64, 64)

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError, match="max_iters"):
            DecodeConfig(max_iters=0)

    def test_start_value_is_not_a_setting(self):
        assert [field.name for field in dataclasses.fields(DecodeConfig)] == ["max_iters", "stop_delta"]
        with pytest.raises(TypeError):
            DecodeConfig(initial_value=0.0)

    @pytest.mark.parametrize("field, value", (("stop_delta", math.nan),))
    def test_rejects_nan_and_infinite_settings(self, field, value):
        with pytest.raises(ValueError, match=field):
            DecodeConfig(**{field: value})


def _oracle_codes():
    """The codes test_decoder_oracle checks: quadtree, search and random codes."""
    for image in IMAGES.values():
        for mode in ("mns", "no_search"):
            for e in (2.0, 8.0, 20.0):
                yield encode_quadtree(image, EncoderConfig(e1=e, e2=e, e3=e, mode=mode))
    search_image = scene_image(48, 40, seed=4)
    yield encode_local_search(search_image, EncoderConfig())
    for range_size in (4, 8):
        yield encode_full_search(search_image, range_size, EncoderConfig(full_search_step=3))[0]
    rng = np.random.default_rng(21)
    for mode in ("mns", "no_search"):
        for technique2 in (True, False):
            for _ in range(10):
                yield random_code(rng, mode=mode, technique2=technique2)


def _misfit_codes():
    """A level-1 leaf with no room for its domain, a search domain past the right edge, and an
    empty search block whose empty domain is twice its side."""
    cocentered = [LeafRecord(BlockRect(x, 0, 16), 1, Phase1Payload(100, 3)) for x in (0, 16, 32)]
    searched = [LeafRecord(BlockRect(x, y, 8), 2, BaselinePayload(BlockRect(0, 0, 16), 90, 5))
                for y in range(0, 32, 8) for x in range(0, 32, 8)]
    past_edge, empty = list(searched), list(searched)
    past_edge[5] = LeafRecord(searched[5].rect, 2, BaselinePayload(BlockRect(20, 0, 16), 90, 5))
    empty[5] = LeafRecord(BlockRect(8, 8, 0), 2, BaselinePayload(BlockRect(0, 0, 0), 90, 5))
    return (QuadtreeCode(table_of(cocentered), 48, 16, 48, 16, "no_search", False),
            *(QuadtreeCode(table_of(leaves), 32, 32, 32, 32, "local_search", False) for leaves in (past_edge, empty)))


class TestPlanOnce:
    def test_decode_plans_once_for_all_sweeps(self, natural_128, monkeypatch):
        code = encode_quadtree(natural_128, EncoderConfig(mode="mns"))
        planned, sweeps = [], []
        plan, step = decoder._plan, decoder.decode_step
        monkeypatch.setattr(decoder, "_plan", lambda c: planned.append(c) or plan(c))
        monkeypatch.setattr(decoder, "decode_step", lambda p, r: sweeps.append(p) or step(p, r))
        decode(code, DecodeConfig(max_iters=9, stop_delta=0.0))
        assert len(sweeps) == 9
        assert planned == [code]

    def test_each_sweep_reads_the_previous_raster_and_leaves_it_unchanged(self, natural_128, monkeypatch):
        code = encode_quadtree(natural_128, EncoderConfig(mode="mns"))
        calls = []  # (raster passed, its copy before the sweep, the sweep's result)
        step = decoder.decode_step

        def traced(plan, current):
            before = current.copy()
            out = step(plan, current)
            calls.append((current, before, out))
            return out

        monkeypatch.setattr(decoder, "decode_step", traced)
        decode(code, DecodeConfig(max_iters=9, stop_delta=0.0))
        assert len(calls) == 9
        assert START_VALUE == 128.0 and np.all(calls[0][0] == START_VALUE)
        for (_, _, previous), (current, _, _) in zip(calls, calls[1:]):
            assert current is previous
        for current, before, _ in calls:
            assert np.array_equal(current, before)

    def test_planned_sweep_matches_a_sweep_of_the_code(self):
        # decode reuses one plan for every sweep: no sweep may change it
        for n, code in enumerate(_oracle_codes()):
            plan = decoder._plan(code)
            for raster in _rasters(code, n):
                assert decode_step(plan, raster).tobytes() == decode_step(decoder._plan(code), raster).tobytes()

    @pytest.mark.parametrize("code", _misfit_codes())
    def test_misfit_code_raises_before_any_sweep(self, code, monkeypatch):
        sweeps = []
        monkeypatch.setattr(decoder, "decode_step", lambda *args: sweeps.append(args))
        with pytest.raises(ValueError):
            decode(code)
        assert sweeps == []


def test_decode_peak_memory_stays_under_five_rasters():
    # the plan keeps block and domain origins, not per-pixel indices, and no sweep holds the
    # previous sweep's difference raster
    code = encode_quadtree(natural_image(512, 512), EncoderConfig())
    tracemalloc.start()
    try:
        decode(code)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 512 * 512 * 8
