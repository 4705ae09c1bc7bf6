import dataclasses
import hashlib
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mnscodec import decoder
from mnscodec.bitstream import read_stream, write_stream
from mnscodec.code import MAX_PIXELS, MODES, PHASE1, PHASE2, LeafTable, QuadtreeCode, check_code
from mnscodec.decoder import START_VALUE, STOP_SAMPLE_ROWS, DecodeConfig, _plan, decode, decode_step
from mnscodec.encoder import EncoderConfig, encode_full_search, encode_local_search, encode_quadtree
from mnscodec.image import BlockRect, GrayImage
from mnscodec.transform import apply_map

from records import BaselinePayload, LeafRecord, Phase1Payload, table_of
from test_bitstream_oracle import traced_peak
from test_decoder_oracle import IMAGES, _rasters, oracle_step
from test_workload_digests import WORKLOADS
from util import natural_image, noise_image, random_code, reference_decode, scene_image, sweep


class TestDecodeStep:
    def test_constant_code_settles_from_any_flat_start(self, constant_64):
        code = encode_quadtree(constant_64, EncoderConfig(mode="mns"))
        for start in (0.0, 77.0, 255.0):
            raster = np.full((code.padded_h, code.padded_w), start)
            out = sweep(_plan(code), raster)
            assert np.array_equal(out, np.full_like(raster, 42.0))

    def test_second_step_is_fixed_for_constant_code(self, constant_64):
        code = encode_quadtree(constant_64, EncoderConfig(mode="no_search"))
        raster = np.full((code.padded_h, code.padded_w), 128.0)
        plan = _plan(code)
        first = sweep(plan, raster)
        second = sweep(plan, first)
        assert np.array_equal(first, second)

    def test_leaf_order_does_not_matter(self, natural_128):
        code = encode_quadtree(natural_128, EncoderConfig(e1=5, e2=5, e3=5, mode="mns"))
        rng = random.Random(13)
        order = list(range(len(code.leaves)))
        rng.shuffle(order)
        shuffled = dataclasses.replace(code, leaves=LeafTable(code.leaves.rows[order]))
        raster = np.random.default_rng(0).uniform(0, 255, (code.padded_h, code.padded_w))
        assert np.array_equal(sweep(_plan(code), raster), sweep(_plan(shuffled), raster))

    def test_rejects_wrong_raster_shape(self, constant_64):
        code = encode_quadtree(constant_64, EncoderConfig())
        with pytest.raises(ValueError, match="shape"):
            decode_step(_plan(code), np.zeros((8, 8)), np.empty((code.padded_h, code.padded_w), np.float32))

    def test_rejects_an_out_raster_it_cannot_write(self, constant_64):
        code = encode_quadtree(constant_64, EncoderConfig())
        plan, raster = _plan(code), np.zeros((code.padded_h, code.padded_w), np.float32)
        for out in (np.zeros((8, 8), np.float32), np.zeros(raster.shape), np.zeros(raster.shape, np.float32).T):
            with pytest.raises(ValueError, match="C-contiguous float32"):
                decode_step(plan, raster, out)
        with pytest.raises(ValueError, match="overlap"):
            decode_step(plan, raster, raster)
        assert np.all(raster == 0.0)

    def test_successive_deltas_shrink(self, natural_128):
        code = encode_quadtree(natural_128, EncoderConfig(mode="mns"))
        plan, cur = _plan(code), np.full((code.padded_h, code.padded_w), 128.0)
        deltas = []
        for _ in range(10):
            nxt = sweep(plan, cur)
            deltas.append(float(np.max(np.abs(nxt - cur))))
            cur = nxt
        for earlier, later in zip(deltas[1:], deltas[2:]):
            assert later <= earlier + 1e-9

    def test_plane_mean_adds_in_np_means_order(self):
        # apply_map of an (n, 2, 2) view of four pixel planes, p.T.reshape(n, 2, 2), gives the pixels it
        # gives for the contiguous stack while numpy adds the view's four terms in a contiguous block's
        # order, ((a + b) + c) + d. decode_step maps no such view: a run that sweeps as pixel planes
        # sums its rows in numpy's order itself, which test_plane_sums_add_in_np_add_reduces_order
        # checks at every side
        blocks, s, o = _plane_test_blocks(2)
        expected = apply_map(blocks, s, o)
        p = np.ascontiguousarray(blocks.reshape(-1, 4).T)  # the TL, TR, BL and BR planes
        view = p.T.reshape(-1, 2, 2)
        assert np.shares_memory(view, p) and not view.flags.c_contiguous
        assert apply_map(view, s, o, view) is view and np.ascontiguousarray(view).tobytes() == expected.tobytes()
        # the other orders differ on a fifth of these sums or more, and their maps on a tenth of these
        # blocks or more (measured 18% and 13%), so the data tell orders apart
        a, b, c, d = blocks.reshape(-1, 4).T
        for other in (a + ((b + c) + d), (a + b) + (c + d)):
            assert np.count_nonzero(other != ((a + b) + c) + d) > 0.2 * len(blocks)
            mapped = np.clip((blocks - (other * np.float32(0.25))[:, None, None]) * s + o, 0.0, 255.0)
            assert np.count_nonzero((mapped != expected).any(axis=(1, 2))) > 0.1 * len(blocks)

    @pytest.mark.parametrize("k", (2, 4, 8, 16))
    def test_plane_sums_add_in_np_add_reduces_order(self, k):
        # a run that sweeps as pixel planes sums each block over its k * k plane rows in the order
        # np.add.reduce adds a contiguous k x k float32 block, which apply_map's mean uses: numpy's
        # pairwise sum, so a numpy whose order differs fails here first, not only in the digests
        blocks, s, o = _plane_test_blocks(k, n=80_000 // (k * k))  # 240,000 values
        planes = np.ascontiguousarray(blocks.reshape(-1, k * k).T)
        expected = np.add.reduce(blocks, axis=(-2, -1))
        assert decoder._reduce_order(planes).tobytes() == expected.tobytes()
        mapped = decoder._map_planes(planes.copy(), s.ravel(), o.ravel())  # in place
        assert mapped.T.tobytes() == apply_map(blocks, s, o).tobytes()
        # the kernel's order on the rows rolled by one, halves added recursively, or, from k = 4, one by one
        # differs on a fifth of these sums or more (measured 24% or more), so the data tell orders apart;
        # at k = 2 numpy adds one by one
        one_by_one = np.cumsum(planes, axis=0, dtype=np.float32)[-1]
        assert (one_by_one.tobytes() == expected.tobytes()) == (k == 2)
        others = (decoder._reduce_order(np.roll(planes, 1, axis=0)), _halves(planes)) + ((one_by_one,) if k > 2 else ())
        for other in others:
            assert np.count_nonzero(other != expected) > 0.2 * len(expected)


def _plane_test_blocks(k, n=100_000):
    """3n float32 k x k blocks, n of each family, with quartered contrasts and offsets as _plan stores them."""
    rng = np.random.default_rng(16)
    blocks = np.concatenate([
        rng.uniform(0.0, 1020.0, (n, k, k)),  # sums of four in-range pixels
        rng.uniform(-800.0, 2000.0, (n, k, k)),  # sums an early sweep of any start may hold
        rng.choice((-1.0, 1.0), (n, k, k)) * 10.0 ** rng.uniform(-4.0, 6.0, (n, k, k)),  # mixed magnitudes
    ]).astype(np.float32)
    s = rng.uniform(-0.25, 0.25, (len(blocks), 1, 1)).astype(np.float32)  # quartered, as _plan stores s
    o = rng.uniform(0.0, 255.0, (len(blocks), 1, 1)).astype(np.float32)
    return blocks, s, o


def _halves(rows):
    """The sum of the rows, each half added recursively and then the two halves."""
    return rows[0] if len(rows) == 1 else _halves(rows[: len(rows) // 2]) + _halves(rows[len(rows) // 2 :])


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
                        current = sweep(plan, current)
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

    def test_rejects_a_max_iters_that_is_not_an_integer(self):
        # it fails on construction, before any decode plans or paints; numpy integers still pass
        for value in (2.5, 3.0, "3", None, True, False, np.True_):  # a bool is an int, but no count
            with pytest.raises(ValueError, match="max_iters must be an integer >= 1"):
                DecodeConfig(max_iters=value)
        assert DecodeConfig(max_iters=np.int64(3)).max_iters == 3
        assert DecodeConfig(max_iters=np.int32(3)).max_iters == 3

    def test_rejects_a_stop_delta_that_is_not_a_real_number(self):
        # it fails on construction with ValueError, where math.isnan raised TypeError; numpy numbers still pass
        for value in ("0.5", None, 0.5j, True, False, np.False_):
            with pytest.raises(ValueError, match="stop_delta must be a real number"):
                DecodeConfig(stop_delta=value)
        assert DecodeConfig(stop_delta=np.float32(0.5)).stop_delta == 0.5
        assert DecodeConfig(stop_delta=np.int64(1)).stop_delta == 1

    def test_start_value_is_not_a_setting(self):
        assert [field.name for field in dataclasses.fields(DecodeConfig)] == ["max_iters", "stop_delta"]
        with pytest.raises(TypeError):
            DecodeConfig(initial_value=0.0)

    def test_rejects_a_code_over_the_pixel_limit_before_any_sweep(self, monkeypatch):
        # 8192 x 8208 pixels, one root row over MAX_PIXELS; no leaves are needed to reach the check
        calls = []
        monkeypatch.setattr(decoder, "_plan", lambda *args: calls.append(args))
        monkeypatch.setattr(decoder, "decode_step", lambda *args: calls.append(args))
        code = QuadtreeCode(LeafTable(np.zeros((0, LeafTable.WIDTH))), 8192, 8208, 8192, 8208, "mns", True)
        assert MAX_PIXELS == 8192 * 8192 < code.padded_w * code.padded_h
        with pytest.raises(ValueError, match="pixel limit"):
            decode(code)
        assert calls == []

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


def _tiling_mutations(code):
    """`code` with a leaf dropped (an under-fill), a leaf duplicated (an excess), its largest leaf
    shifted right by 2 pixels (misaligned, unless its side is 2), a smallest leaf moved by its own
    side onto its neighbour (aligned, so only the overlap test sees it), and a smallest leaf shifted
    right by 1 pixel, which keeps its start, so only the alignment test (or the right edge) sees it."""
    rows, k, middle = code.leaves.rows, code.leaves.size, len(code.leaves) // 2
    shifted, moved, nudged, small = rows.copy(), rows.copy(), rows.copy(), int(k.argmin())
    shifted[k.argmax(), 2] += 2
    moved[small, 2] += k[small] if rows[small, 2] + 2 * k[small] <= code.padded_w else -k[small]
    nudged[small, 2] += 1
    tables = (np.delete(rows, middle, axis=0), np.insert(rows, middle, rows[middle], axis=0), shifted, moved, nudged)
    return [dataclasses.replace(code, leaves=LeafTable(t)) for t in tables]


def _misfit_codes():
    """A level-1 leaf with no room for its domain, a search domain past the right edge, an empty
    search block whose empty domain is twice its side, a block origin and a search domain origin
    2^32 past a fitting one, which int32 columns would wrap back to it, then the five
    _tiling_mutations of a natural 64x64 code."""
    cocentered = [LeafRecord(BlockRect(x, 0, 16), 1, Phase1Payload(100, 3)) for x in (0, 16, 32)]
    searched = [LeafRecord(BlockRect(x, y, 8), 2, BaselinePayload(BlockRect(0, 0, 16), 90, 5))
                for y in range(0, 32, 8) for x in range(0, 32, 8)]
    past_edge, empty = list(searched), list(searched)
    past_edge[5] = LeafRecord(searched[5].rect, 2, BaselinePayload(BlockRect(20, 0, 16), 90, 5))
    empty[5] = LeafRecord(BlockRect(8, 8, 0), 2, BaselinePayload(BlockRect(0, 0, 0), 90, 5))
    wrapped = [table_of(searched).rows.copy() for _ in range(2)]
    wrapped[0][5, 2] += 1 << 32
    wrapped[1][5, 14] += 1 << 32
    return (QuadtreeCode(table_of(cocentered), 48, 16, 48, 16, "no_search", False),
            *(QuadtreeCode(table_of(leaves), 32, 32, 32, 32, "local_search", False) for leaves in (past_edge, empty)),
            *(QuadtreeCode(LeafTable(rows), 32, 32, 32, 32, "local_search", False) for rows in wrapped),
            *_tiling_mutations(encode_quadtree(natural_image(64, 64), EncoderConfig(mode="mns"))))


def _full_search_codes(side):
    sizes = ((64, 64), (62, 58)) if side == 2 else ((64, 64),)  # 62x58: sides that are no multiple of 16
    return [encode_full_search(scene_image(w, h, seed=5), side, EncoderConfig())[0] for w, h in sizes]


# codes of every encoder, each of whose _tiling_mutations decode and write_stream must reject
TILING_CODES = {
    "mns": lambda: [encode_quadtree(natural_image(80, 48, seed=3), EncoderConfig(mode="mns"))],
    "no_search": lambda: [encode_quadtree(scene_image(64, 64), EncoderConfig(mode="no_search"))],
    "local_search": lambda: [encode_local_search(scene_image(96, 80, seed=4), EncoderConfig())],
    "full_search_2": lambda: _full_search_codes(2),
    "full_search_4": lambda: _full_search_codes(4),
    "full_search_8": lambda: _full_search_codes(8),
    "full_search_16": lambda: _full_search_codes(16),
    "random": lambda: [random_code(np.random.default_rng(seed), "mns" if seed % 2 else "no_search", seed % 4 < 2)
                       for seed in range(12)],
}


@pytest.mark.parametrize("name", TILING_CODES)
def test_every_encoders_codes_tile_and_each_mutation_is_rejected(name, monkeypatch):
    sweeps = []
    monkeypatch.setattr(decoder, "decode_step", lambda *args: sweeps.append(args))
    for code in TILING_CODES[name]():
        _, starts = check_code(code)
        assert code.mode not in MODES or (np.diff(starts) > 0).all()  # quadtree codes are in DFS order
        for bad in _tiling_mutations(code):
            with pytest.raises(ValueError, match="tile|under-fills|excess"):  # check_code's tiling verdicts
                decode(bad)
            if code.mode in MODES:
                with pytest.raises(ValueError, match="tile|under-fills|excess"):
                    write_stream(bad)
    assert sweeps == []


def _field_mutations():
    """(rule, code) pairs: a natural 64x64 mns code with one field of one leaf set out of its range, and a local
    search code with one stored domain past the raster's right edge; the rule is what check_code's message says."""
    code = encode_quadtree(natural_image(64, 64), EncoderConfig(mode="mns"))
    rows, kind = code.leaves.rows, code.leaves.kind
    p1 = int(np.flatnonzero(kind == PHASE1)[0])
    p2 = int(next(i for i in np.flatnonzero(kind == PHASE2) if rows[i, 7:10].sum()))  # deltas that move the 4th mean
    total = int(rows[p2, 7:10].sum())
    unused, level = "a field its kind does not use", "level outside 1..4 or not matching"
    for i, column, value, rule in (
        (p1, 1, 5, "unknown leaf kind"), (p1, 1, -1, "unknown leaf kind"),
        (p1, 8, 1, unused), (p1, 12, 1, unused), (p1, 14, 4, unused), (p2, 6, 9, unused),  # delta, s bit, domain x, s
        (p1, 5, 300, "luminance"), (p1, 5, -5, "luminance"), (p1, 0, 7, level), (p1, 0, rows[p1, 0] % 4 + 1, level),
        (p2, 7, 100, "delta exceeds"), (p2, 5, total - 1 if total > 0 else 256 + total, "implied fourth quadrant mean"),
        (p1, 5, 2**32 + 100, "int32 range"),  # an int32 copy would read a byte, 100
        *((p1, 4, size, level) for size in (0, 3, 32, -2)),  # the level rule, not the tiling, rejects a size
    ):
        bad = rows.copy()
        bad[i, column] = value
        yield rule, dataclasses.replace(code, leaves=LeafTable(bad))
    search = encode_local_search(scene_image(32, 32), EncoderConfig())
    bad = search.leaves.rows.copy()
    bad[5, 14] = 24  # a 16x16 domain at x = 24 of a 32-wide raster
    yield "stored domain", dataclasses.replace(search, leaves=LeafTable(bad))


@pytest.mark.parametrize("rule, code", list(_field_mutations()))
def test_each_malformed_field_is_rejected_before_any_plan_or_sweep(rule, code, monkeypatch):
    calls = []
    monkeypatch.setattr(decoder, "_plan", lambda *args: calls.append(args))
    monkeypatch.setattr(decoder, "decode_step", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match=rule):
        check_code(code)
    with pytest.raises(ValueError, match=rule):
        decode(code)
    if code.mode in MODES:
        with pytest.raises(ValueError, match=rule):
            write_stream(code)
    assert calls == []


@pytest.mark.parametrize("field, value", [("technique2", v) for v in (2, "yes", 0.5, None, [1], 0, 1)]
                         + [("mode", "bogus"), ("mode", "MNS")])
def test_a_malformed_header_flag_is_rejected_before_any_plan(field, value, monkeypatch):
    # such a technique2 would be written as a flag bit that reads back as a bool, so the stream would not round trip
    code = dataclasses.replace(encode_quadtree(natural_image(64, 64), EncoderConfig()), **{field: value})
    calls = []
    monkeypatch.setattr(decoder, "_plan", lambda *args: calls.append(args))
    for f in (check_code, write_stream, decode):
        with pytest.raises(ValueError, match="technique2 must be a bool" if field == "technique2" else "bogus|MNS"):
            f(code)
    assert calls == []


@pytest.mark.parametrize("make, size, seed", [(natural_image, 512, 1), (noise_image, 128, 11), (natural_image, 1024, 7)])
def test_check_code_peak_stays_under_97_bytes_a_leaf(make, size, seed):
    # 2,008, 4,096 (all level 4) and 7,045 leaves. The (17, n) int32 copy is 68 bytes a leaf; int32 starts and
    # level tables keep each pass int32 (~95 bytes a leaf), where an int64 table met by an int32 column buffered an
    # int64 cast (~101)
    code = encode_quadtree(make(size, size, seed=seed), EncoderConfig())
    assert [a.dtype for a in check_code(code)] == [np.int32, np.int32]  # the columns, then the starts
    assert traced_peak(check_code, code) <= 97 * len(code.leaves)


def test_a_numpy_bool_technique2_is_a_valid_flag():
    code = encode_quadtree(natural_image(64, 64), EncoderConfig(technique2=np.True_))
    assert read_stream(write_stream(code)) == code
    assert decode(code).pixels.shape == (64, 64)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 2**16), st.integers(0, LeafTable.WIDTH - 1),
       st.integers(-300, 300) | st.sampled_from((-(2**40), -(2**31) - 1, 2**31, 2**32 + 5, 2**63 - 1)))
def test_every_field_mutation_the_writer_accepts_reads_back_and_decodes(seed, leaf, column, value):
    code = random_code(np.random.default_rng(seed), "mns" if seed % 2 else "no_search", seed % 4 < 2)
    rows = code.leaves.rows.copy()
    rows[leaf % len(rows), column] = value
    bad = dataclasses.replace(code, leaves=LeafTable(rows))
    try:
        blob = write_stream(bad)
    except ValueError:
        return
    assert read_stream(blob) == bad
    assert decode(bad).pixels.shape == (code.orig_h, code.orig_w)


def test_decode_rejects_an_original_size_outside_the_padded_raster(monkeypatch):
    code = encode_quadtree(natural_image(48, 48), EncoderConfig())
    planned = []
    monkeypatch.setattr(decoder, "_plan", lambda c: planned.append(c))
    for w, h in ((100, 100), (49, 48), (48, 49), (0, 48), (48, 0)):
        with pytest.raises(ValueError, match="original dimensions"):
            decode(dataclasses.replace(code, orig_w=w, orig_h=h))
    for w, h in ((60.0, 48), (48, 48.0), (True, 48), (48, np.True_), ("48", 48)):  # a bool is an int, but no size
        with pytest.raises(ValueError, match="original dimensions and padded ones must be integers"):
            decode(dataclasses.replace(code, orig_w=w, orig_h=h))
    assert planned == []


class TestPlanOnce:
    def test_decode_plans_once_for_all_sweeps(self, natural_128, monkeypatch):
        code = encode_quadtree(natural_128, EncoderConfig(mode="mns"))
        planned, sweeps = [], []
        plan, step = decoder._plan, decoder.decode_step
        monkeypatch.setattr(decoder, "_plan", lambda c, columns: planned.append(c) or plan(c, columns))
        monkeypatch.setattr(decoder, "decode_step", lambda p, *args: sweeps.append(p) or step(p, *args))
        decode(code, DecodeConfig(max_iters=9, stop_delta=0.0))
        assert len(sweeps) == 9 - 1  # sweep 1 is the DC paint
        assert planned == [code]

    def test_each_sweep_reads_the_previous_raster_and_leaves_it_unchanged(self, natural_128, monkeypatch):
        # decode reuses its rasters, so each sweep is checked right after it returns
        code = encode_quadtree(natural_128, EncoderConfig(mode="mns"))
        calls = []  # (raster read, raster written, a copy of each right after the sweep)
        step = decoder.decode_step

        def traced(plan, current, *out):
            before = current.copy()
            result = step(plan, current, *out)
            assert np.array_equal(current, before)  # the sweep did not write its input
            if calls:  # it read the previous sweep's output, as that sweep left it
                assert current is calls[-1][1] and np.array_equal(current, calls[-1][3])
            calls.append((current, result, before, result.copy()))
            return result

        monkeypatch.setattr(decoder, "decode_step", traced)
        decode(code, DecodeConfig(max_iters=9, stop_delta=0.0))
        assert len(calls) == 9 - 1  # sweep 1 is the DC paint, which the first call reads
        flat = np.full((code.padded_h, code.padded_w), START_VALUE, np.float32)
        assert START_VALUE == 128.0 and calls[0][2].tobytes() == sweep(_plan(code), flat).tobytes()
        # two rasters in turn: each sweep writes the raster the sweep before it read
        assert len({id(raster) for current, result, *_ in calls for raster in (current, result)}) == 2
        assert all(result is previous for (previous, *_), (_, result, *_) in zip(calls, calls[1:]))
        # rounding leaves the last sweep's input and output as they were, for callers that keep both
        current, result, before, after = calls[-1]
        assert np.array_equal(current, before) and np.array_equal(result, after)

    def test_planned_sweep_matches_a_sweep_of_the_code(self):
        # decode reuses one plan for every sweep: no sweep may change it; nor does sweeping into a
        # reused raster, whatever it held, change a pixel
        for n, code in enumerate(_oracle_codes()):
            plan, out = decoder._plan(code), np.full((code.padded_h, code.padded_w), np.nan, np.float32)
            for raster in _rasters(code, n):
                fresh = sweep(plan, raster).tobytes()
                assert fresh == sweep(decoder._plan(code), raster).tobytes()
                assert decode_step(plan, raster, out) is out and out.tobytes() == fresh

    @pytest.mark.parametrize("code", _misfit_codes())
    def test_misfit_code_raises_before_any_sweep(self, code, monkeypatch):
        sweeps = []
        monkeypatch.setattr(decoder, "decode_step", lambda *args: sweeps.append(args))
        with pytest.raises(ValueError):
            decode(code)
        assert sweeps == []


def test_decode_peak_memory_stays_under_five_rasters():
    # the plan keeps block and domain origins, not per-pixel indices, and no sweep holds the
    # previous sweep's difference raster; the traced peak is about 4.3 float32 rasters (4.31 measured)
    code = encode_quadtree(natural_image(512, 512), EncoderConfig())
    tracemalloc.start()
    try:
        decode(code)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 512 * 512 * 4


def test_decode_peak_stays_linear_in_the_padded_pixels():
    # a = 28 bytes per padded pixel and b = 64 KiB, from measurement: over these 40 codes (768 to
    # 36,864 padded pixels) the traced peak reached 0.75 of the bound. Random codes are mostly
    # small blocks, so the plan's per-block int32 columns weigh beside decode's three float32 rasters
    rng = np.random.default_rng(7)
    for _ in range(40):
        code = random_code(rng, max_roots=12, split_p=rng.uniform(0.1, 0.9))
        decode(code)  # warm
        assert traced_peak(decode, code) <= 28 * code.padded_w * code.padded_h + 65536


# the sha256 of each code's decoded pixels, pinned when sweeps took full box sums (scene256_no_search
# when sweeps moved to float32 rasters, which moved one of its pixels), so a sweep rewrite that moves
# one pixel fails here; with each, the number of pixels where it differs from a float64 decode
PINNED_DECODES = {
    "natural512_mns": (lambda: encode_quadtree(natural_image(512, 512), EncoderConfig(mode="mns")),
                       "05e4157d2414ec17a3285b37523b57df97617a29726ed4095324c78f4a90f51f", 0),
    "scene256_no_search": (lambda: encode_quadtree(scene_image(256, 256), EncoderConfig(mode="no_search")),
                           "57cc0d2c3fd28054a5ff238cc29e757536bbc83fed06074dcfb77bef5141b2a9", 1),
    "noise128_mns": (lambda: encode_quadtree(noise_image(128, 128), EncoderConfig(mode="mns")),
                     "f1117561a9da023d80ce2ba2d08681b1e033efcda5f356827d25099684e0818b", 0),
    "scene96x80_local_search": (lambda: encode_local_search(scene_image(96, 80, seed=4), EncoderConfig()),
                                "ac4321f21e54337d1184946fe2b6446cad5f5d9983d31d17e7c0d5e46448684f", 0),
    "scene64_full_search_8_step3": (
        lambda: encode_full_search(scene_image(64, 64, seed=5), 8, EncoderConfig(full_search_step=3))[0],
        "c139baf20b581df19f6d78ebf6cbbef42a0034d654113372c49765cd1a84281c", 0),
}


@pytest.mark.parametrize("name", PINNED_DECODES)
def test_decoded_pixels_match_pinned_digests(name):
    encode, digest, _ = PINNED_DECODES[name]
    assert hashlib.sha256(decode(encode()).pixels.tobytes()).hexdigest() == digest


def _run_kinds(code):
    """(side, where the run gathers its domains' sums, how it sweeps) of each run of the code's plan."""
    return {(k, "raster" if source is None else "sums", "planes" if decoder._as_planes(k, len(t)) else "windows")
            for k, source, t, *_ in _plan(code).runs}


def test_noise128_digest_covers_the_pixel_plane_path():
    # a pinned digest covers every kind of run the sweeps take: noise128's code here, and roundtrip_texture's
    # seed-1 codes in tests/test_workload_digests.py, whose natural256_a code has a 919-block side-4 run
    items = WORKLOADS["roundtrip_texture"].setup(1)
    texture = [encode_quadtree(GrayImage(item.original), item.config) for item in items]
    kinds = set().union(_run_kinds(PINNED_DECODES["noise128_mns"][0]()), *map(_run_kinds, texture))
    assert {(2, "sums", "planes"), (4, "sums", "planes"), (2, "raster", "planes"), (2, "raster", "windows"),
            (4, "sums", "windows"), (8, "sums", "windows"), (16, "sums", "windows")} <= kinds


@pytest.mark.parametrize("name", PINNED_DECODES)
def test_float32_decode_stays_within_one_gray_of_a_float64_decode(name, monkeypatch):
    # the float64 oracle, iterated with decode's stop rule and rounded as decode rounds, is the
    # reference; float32 rasters move a pixel by one gray at most, in as many sweeps, the DC paint
    # counted as the first
    encode, _, differing = PINNED_DECODES[name]
    code, cfg = encode(), DecodeConfig()
    current = np.full((code.padded_h, code.padded_w), START_VALUE)
    for sweeps in range(1, cfg.max_iters + 1):
        nxt = oracle_step(code, current, np.float64)
        delta, current = np.abs(nxt - current).max(), nxt
        if delta < cfg.stop_delta:
            break
    reference = np.clip(np.floor(current + 0.5), 0.0, 255.0)[: code.orig_h, : code.orig_w]
    calls, step = [], decoder.decode_step
    monkeypatch.setattr(decoder, "decode_step", lambda *args: calls.append(1) or step(*args))
    diff = np.abs(decode(code, cfg).pixels - reference)
    assert diff.max() <= 1 and np.count_nonzero(diff) == differing
    assert len(calls) == sweeps - 1  # sweep 1 is the DC paint


def _reference_codes():
    """Seeded random codes, a noise encode that runs out of sweeps, a local- and a full-search code,
    and a code whose every o is 128, which decode settles in its DC paint."""
    rng = np.random.default_rng(15)
    codes = {f"random{n}": random_code(rng, max_roots=4, split_p=rng.uniform(0.1, 0.9)) for n in range(8)}
    search_image = scene_image(48, 40, seed=4)
    codes["noise48_mns"] = encode_quadtree(noise_image(48, 48), EncoderConfig())
    codes["local_search"] = encode_local_search(search_image, EncoderConfig())
    codes["full_search"] = encode_full_search(search_image, 8, EncoderConfig(full_search_step=3))[0]
    codes["flat128"] = encode_quadtree(GrayImage(np.full((40, 48), 128, np.uint8)), EncoderConfig())
    return codes


REFERENCE_CODES = _reference_codes()


@pytest.mark.parametrize("name", REFERENCE_CODES)
def test_decode_matches_the_reference_loop(name, monkeypatch):
    # sweep 1 is a DC paint and the stop test looks at a row sample first; neither may move a pixel,
    # a stop decision or a sweep count. Each sweep's exact change, and the floats either side of it,
    # are the stop_deltas where a wrong comparison would show
    code = REFERENCE_CODES[name]
    _, changes = reference_decode(code, DecodeConfig(max_iters=10, stop_delta=-1.0))
    calls, moved = [], []
    step, measure = decoder.decode_step, decoder._moved
    monkeypatch.setattr(decoder, "decode_step", lambda *args: calls.append(1) or step(*args))
    monkeypatch.setattr(decoder, "_moved", lambda *args: moved.append((args[3], measure(*args))) or moved[-1][1])
    for max_iters in (1, 2, 10):
        near = np.array(changes[:max_iters])
        for stop in {0.0, 0.5, -1.0, math.inf, *near, *np.nextafter(near, -math.inf), *np.nextafter(near, math.inf)}:
            cfg = DecodeConfig(max_iters=max_iters, stop_delta=float(stop))
            expected, deltas = reference_decode(code, cfg)
            calls.clear(), moved.clear()
            assert decode(code, cfg) == expected
            assert len(calls) == len(deltas) - 1
            # every sweep looks at its sample; only a sample under stop_delta takes the whole change,
            # which is the reference's change of that sweep
            samples = [value for rows, value in moved if rows == STOP_SAMPLE_ROWS]
            assert len(samples) == len(deltas) and all(a <= b for a, b in zip(samples, deltas))
            taken = [(STOP_SAMPLE_ROWS, 1) if a < stop else (STOP_SAMPLE_ROWS,) for a in samples]
            assert [rows for rows, _ in moved] == [rows for sweep_rows in taken for rows in sweep_rows]
            assert [value for rows, value in moved if rows == 1] == [b for a, b in zip(samples, deltas) if a < stop]


def test_a_code_whose_every_o_is_128_stops_after_the_dc_paint(monkeypatch):
    code = REFERENCE_CODES["flat128"]
    assert np.all(code.leaves.o_byte == 128) and not code.leaves.deltas.any()
    calls = []
    monkeypatch.setattr(decoder, "decode_step", lambda *args: calls.append(args))
    assert decode(code) == GrayImage(np.full((40, 48), 128, np.uint8))
    assert calls == []


def _ulps(x, toward, count=64):
    """The float32 values x and the count float32 values after each toward `toward`, flattened."""
    steps = [np.float32(x)]
    for _ in range(count):
        steps.append(np.nextafter(steps[-1], np.float32(toward)))
    return np.concatenate(steps, axis=None)


def test_rounding_is_floor_of_x_plus_a_half_clipped_to_a_byte(monkeypatch):
    # decode rounds with (x + 0.5).astype(uint8), which equals clip(floor(x + 0.5), 0, 255) on [0, 255],
    # every pixel's range: checked on every float32 within 64 ulps of each k + 0.5, and at 0 and 255
    halves = np.arange(255) + 0.5
    values = np.concatenate([_ulps(halves, np.inf), _ulps(halves, -np.inf), _ulps([0.0, -0.0], 1.0), _ulps(255.0, 0.0)])
    assert values.min() == 0.0 and values.max() == 255.0 and len(np.unique(values)) == 255 * 129 + 65 + 65
    code = encode_quadtree(GrayImage(np.zeros((256, 256), np.uint8)), EncoderConfig())
    raster = np.resize(values, (256, 256))  # the last sweep leaves these values

    def last_sweep(plan, current, out):
        out[...] = raster
        return out

    monkeypatch.setattr(decoder, "decode_step", last_sweep)
    expected = np.clip(np.floor(raster + np.float32(0.5)), 0.0, 255.0).astype(np.uint8)
    assert np.array_equal(decode(code, DecodeConfig(max_iters=2, stop_delta=-1.0)).pixels, expected)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.floats(0.1, 0.95), st.sampled_from(MODES), st.booleans())
def test_every_painted_and_swept_pixel_lies_in_a_byte(seed, roots, split_p, mode, technique2):
    # the premise of decode's rounding, which does not clip: the DC paint and every sweep write [0, 255],
    # whatever the code and whatever finite raster a sweep reads
    rng = np.random.default_rng(seed)
    code = random_code(rng, mode=mode, technique2=technique2, max_roots=roots, split_p=split_p)
    written = []
    step = decoder.decode_step

    def traced(plan, current, out):
        written.append(current.copy())  # the first sweep reads the DC paint
        return step(plan, current, out)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(decoder, "decode_step", traced)
        decode(code, DecodeConfig(max_iters=4, stop_delta=-1.0))
    plan = _plan(code)
    for scale in (255.0, 1e4):
        written.append(sweep(plan, rng.uniform(-scale, 2 * scale, plan.shape)))
    for raster in written:
        assert raster.min() >= 0.0 and raster.max() <= 255.0
