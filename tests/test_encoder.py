import math
from fractions import Fraction

import numpy as np
import pytest

import mnscodec.encoder as enc
import mnscodec.transform as transform
from mnscodec.code import CONTRAST_SETS, PHASE1, PHASE2
from mnscodec.encoder import (
    EncoderConfig,
    encode_full_search,
    encode_local_search,
    encode_quadtree,
    try_phase1,
    try_phase2,
)
from mnscodec.image import BlockRect, GrayImage, box_sums, downsample_mean2, pad_to_multiple
from mnscodec.transform import rms_error

from records import Phase1Payload, records
from scalar_oracle import (block_mean, block_pixels, co_domain_rect, dequantize_contrast, domain_means, exact_sse,
                           mean_removed_norms, quadrants, round_to_int)
from util import natural_image, noise_image, run_phase, scene_image, traced_peak


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


def passes_phase2_gates(image, rect, level, config):
    """Whether phase 2's mean gate, delta width and implied-mean gates admit the block, from scalar means."""
    o_mean = block_mean(image, rect)
    means = [block_mean(image, quad) for quad in quadrants(rect)]
    deltas = [round_to_int(m - o_mean) for m in means[:3]]
    return (max(abs(m - o_mean) for m in means) <= config.mean_tol and max(map(abs, deltas)) <= enc.delta_limit(level)
            and 0 <= round_to_int(o_mean) - sum(deltas) <= 255)


def gathered_blocks(monkeypatch):
    """A list that collects (x, y, level) of every block whose range and co-centered domain the encoder gathers,
    through _block_moments; a gather while phase 2 runs fails the test."""
    blocks, in_phase2, gather, phase2 = [], [], enc._block_moments, enc.try_phase2

    def spy(band, xy, k):
        assert not in_phase2, "phase 2 gathered pixels"
        blocks.extend((x, y, enc.SIZE_LEVELS[k]) for x, y in xy.tolist())
        return gather(band, xy, k)

    def watched(*args, **kwargs):
        in_phase2.append(True)
        try:
            return phase2(*args, **kwargs)
        finally:
            in_phase2.pop()

    monkeypatch.setattr(enc, "_block_moments", spy)
    monkeypatch.setattr(enc, "try_phase2", watched)
    return blocks


def visited_blocks(code):
    """(x, y, level) of every block an encode of `code` must score: each level's blocks that lie in no phase-1 leaf
    of a lower level and in no phase-2 leaf above their parent's level, whose quadrants phase 2 scored, as the leaf
    over a block's first pixel tells; a raster with a 16-pixel side has no level 1."""
    w, h, reach = code.padded_w, code.padded_h, np.zeros((code.padded_h, code.padded_w), int)
    for level, kind, x, y, size in code.leaves.rows[:, :5].tolist():
        reach[y : y + size, x : x + size] = level + (kind == PHASE2)  # the deepest level scored there
    return sorted((x, y, level) for level, size in enc.LEVEL_SIZES.items() if level > 1 or min(w, h) >= 32
                  for y in range(0, h, size) for x in range(0, w, size) if reach[y, x] >= level)


def one_block(phase, image, rect, level, config):
    """A kernel call on a batch of one: whether it accepts the block, its payload row and its rms."""
    accepted, payload, rms = run_phase(phase, enc._band(image, 0, image.height), np.array([[rect.x, rect.y]]),
                                       level, config)
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

    @pytest.mark.parametrize("values", ((178, 100, 100, 100), (116, 100, 100, 84), (3, 3, 3, 0)))
    def test_an_infinite_threshold_keeps_the_gates(self, values):
        config = EncoderConfig(e1=math.inf, mean_tol=16.0)
        accepted, _, rms = one_block(try_phase2, quadrant_image(values), BlockRect(0, 0, 16), 1, config)
        assert not accepted and rms == math.inf

    def test_implied_mean_out_of_range_rejects(self):
        img = quadrant_image((3, 3, 3, 0))
        accepted, _, _ = one_block(try_phase2, img, BlockRect(0, 0, 16), 1, EncoderConfig())
        assert not accepted  # implied fourth mean would be -1

    @pytest.mark.parametrize("values, payload", [
        ((42, 42, 42, 42), [42, 0, 0, 0, 0, 0, 0, 0]),  # constant
        ((100, 104, 96, 100), [100, 0, 4, -4, 0, 0, 0, 0]),  # the worked quartet
        ((178, 100, 100, 100), None),  # mean gate
        ((116, 100, 100, 84), None),  # delta width
        ((3, 3, 3, 0), None),  # implied mean
    ])
    def test_gathers_domains_only_when_the_gates_pass(self, values, payload, monkeypatch):
        # phase 2 reads its quadrants' moments, gathered once before it runs, and gathers nothing itself, whether
        # or not the gates pass
        gathered = gathered_blocks(monkeypatch)
        accepted, got, rms = one_block(enc.try_phase2, quadrant_image(values), BlockRect(0, 0, 16), 1,
                                       EncoderConfig())
        assert gathered == [(0, 0, 2), (8, 0, 2), (0, 8, 2), (8, 8, 2)]  # each quadrant once, TL, TR, BL, BR
        assert accepted == (payload is not None)
        assert (got == payload) if payload else (rms == math.inf)

    @pytest.mark.parametrize("level", (1, 2, 3))
    @pytest.mark.parametrize("mean_tol", (0.0, 8.0, 40.0))
    def test_gathers_domains_for_gated_blocks_of_a_batch(self, level, mean_tol, noise_64, monkeypatch):
        # with no threshold, phase 2 accepts a level's blocks exactly where the scalar gates pass. A whole encode
        # gathers the range and domain of every block it visits exactly once, and phase 2 none: it scores the
        # children whose moments the next level's phase 1 reads. The level's threshold is tightened there, so each
        # parameter walks its own tree
        image, size = natural_image(96, 64, seed=3), enc.LEVEL_SIZES[level]
        config = EncoderConfig(e1=math.inf, e2=math.inf, e3=math.inf, mean_tol=mean_tol)
        rects = [BlockRect(x, y, size) for y in range(0, 64, size) for x in range(0, 96, size)]
        xy = np.array([(r.x, r.y) for r in rects])
        accepted, payload, rms = run_phase(try_phase2, enc._band(image, 0, 64), xy, level, config)
        assert accepted.tolist() == [passes_phase2_gates(image, rect, level, config) for rect in rects]
        assert (rms[~accepted] == math.inf).all() and not payload[~accepted, 4:].any()
        config = EncoderConfig(mean_tol=mean_tol, **{f"e{level}": 3.0})
        for image in (image, noise_64):
            gathered = gathered_blocks(monkeypatch)
            code = encode_quadtree(image, config)
            monkeypatch.undo()
            assert sorted(gathered) == visited_blocks(code)

    def test_level4_is_invalid(self):
        with pytest.raises(ValueError, match="levels 1..3"):
            try_phase2(np.zeros((5, 4)), level=4, config=EncoderConfig())

    def test_an_exact_tie_goes_to_the_lower_contrast(self):
        # the TL quadrant of this level-2 block scores 622/5 at both of level 2's contrasts; an RMS taken in
        # floats for each contrast rounds the two apart, and picked 0.65
        image, rect = pad_to_multiple(natural_image(500, 375, seed=2), 16), BlockRect(336, 216, 8)
        accepted, payload, _ = one_block(try_phase2, image, rect, 2, EncoderConfig(e1=2, e2=3, e3=5, mean_tol=40))
        assert accepted and payload == [170, -5, -2, 5, 0, 0, 0, 1]
        quad = quadrants(rect)[0]
        r, d = block_pixels(image, quad), downsample_mean2(image, co_domain_rect(quad, image.width, image.height))
        sse = [exact_sse(r, d, Fraction(round(20 * s), 20), 165) for s in CONTRAST_SETS[2]]  # TL's target is 170 - 5
        assert sse == [Fraction(622, 5)] * 2


class TestKernelLayout:
    @pytest.mark.parametrize("dtype", (np.uint8, np.uint16, np.float64))
    @pytest.mark.parametrize("step", (1, 2))
    @pytest.mark.parametrize("k", (2, 4, 8, 16))
    def test_plane_and_window_gathers_agree(self, k, step, dtype):
        # _gather takes planes up to k = 4 and windows from 8 on (image's tests check both helpers at every k):
        # k x k ranges on all four edges of a 96 x 80 raster in its top band (lo = 0) and its bottom one (lo = 48);
        # at step 2, their co-centered domains, clamped at each edge, from the band's box sums
        image = natural_image(96, 80, seed=4)
        for y0 in (0, 64):
            band = enc._band(image, y0, y0 + 16)
            xy = np.array([(x, y) for x in (0, 48, 96 - k) for y in (y0, y0 + 16 - k)])
            x, y = xy.T if step == 1 else enc.co_domain_origins(xy[:, 0], xy[:, 1], k, 96, 80)
            a, y, span = (band.pixels if step == 1 else band.sums).astype(dtype), y - band.lo, step * (k - 1) + 1
            expected = np.stack([a[j : j + span : step, i : i + span : step].ravel() for i, j in zip(x, y)], axis=1)
            got = enc._gather(a, x, y, k, step)
            assert got.dtype == dtype and np.array_equal(got, expected), y0

    @pytest.mark.parametrize("k", (2, 4, 8, 16))
    def test_block_moments_equal_the_float64_oracle_bit_for_bit(self, k):
        # the int32 sums at their bound: an all-255 band's sum(S^2) at k = 16 is 256 * 1020^2 = 266,342,400 < 2^31.
        # Rows 512..544 of a 1024-wide raster are its second band (lo > 0), whose domains clamp at the bottom edge
        rng = np.random.default_rng(k)
        cases = {
            "random": (rng.integers(0, 256, (64, 64)), 0),
            "all 255": (np.full((64, 64), 255), 0),
            "checkerboard": (np.indices((64, 64)).sum(axis=0) % 2 * 255, 0),
            "second band": (rng.integers(0, 256, (544, 1024)), 512),
        }
        for name, (pixels, y0) in cases.items():
            image = GrayImage(pixels.astype(np.uint8))
            band = enc._band(image, y0, image.height)
            assert band.lo == (504 if y0 else 0)
            ys, xs = np.mgrid[y0 : image.height : k, 0 : image.width : k].reshape(2, -1)
            dx, dy = enc.co_domain_origins(xs, ys, k, image.width, image.height)
            r = np.stack([image.pixels[y : y + k, x : x + k].ravel() for x, y in zip(xs, ys)]).astype(np.float64)
            d = domain_means(box_sums(image), dx, dy, k).reshape(len(xs), k * k)
            expected = np.stack([np.einsum("nk,nk->n", d, r), *mean_removed_norms(d), r.sum(axis=1),
                                 np.einsum("nk,nk->n", r, r)])
            got = enc._block_moments(band, np.stack([xs, ys], axis=1), k)
            assert got.dtype == np.float64 and got.tobytes() == expected.tobytes(), name

    @pytest.mark.parametrize("k", (8, 16))
    def test_a_gather_call_holds_int32_ranges_and_domains(self, k):
        # one call of WORK_PIXELS range pixels holds its two int32 gathers, their uint8 and uint16 sources and the
        # (5, n) float64 rows; float64 gathers alone would take 2 * 8 * WORK_PIXELS bytes (~1.25 MB traced)
        band, n = enc._band(natural_image(512, 512), 0, 512), enc.WORK_PIXELS // (k * k)
        ys, xs = np.mgrid[0:512:k, 0:512:k].reshape(2, -1)[:, :n]
        bound = 2 * 4 * enc.WORK_PIXELS + (1 + 2) * enc.WORK_PIXELS + 5 * 8 * n
        assert traced_peak(enc._block_moments, band, np.stack([xs, ys], axis=1), k) < bound

    @pytest.mark.parametrize("level", (1, 2, 3, 4))
    def test_empty_and_all_gated_out_batches(self, level):
        # 0/255 cells of a quadrant's side: every block's quadrants are 0, 255, 255, 0, far past any mean gate.
        # A batch of no blocks, and one that phase 2 gates out whole, keep a full batch's shapes and dtypes
        half = enc.LEVEL_SIZES[level] // 2
        image = GrayImage((np.indices((64, 64)) // half).sum(axis=0) % 2 * 255)
        ys, xs = np.mgrid[0:64 : 2 * half, 0:64 : 2 * half].reshape(2, -1)
        xy, band, config = np.stack([xs, ys], axis=1), enc._band(image, 0, 64), EncoderConfig()
        for phase, width in ((try_phase1, 2), (try_phase2, 8))[: 1 if level == 4 else 2]:
            for batch in (xy[:0], xy):
                accepted, payload, rms = run_phase(phase, band, batch, level, config)
                assert (accepted.dtype, payload.dtype, rms.dtype) == (np.bool_, np.intp, np.float64)
                assert accepted.shape == rms.shape == (len(batch),) and payload.shape == (len(batch), width)
                if phase is try_phase2:
                    assert not accepted.any() and (rms == math.inf).all() and not payload[:, 4:].any()

    def test_small_blocks_never_gather_through_windows(self, monkeypatch):
        # ranges and domains of sides up to 4 gather as pixel planes; windows are for sides 8 and 16, whose ranges
        # take every sample of their windows and whose domains every second one
        sides, real = [], enc.flat_windows
        monkeypatch.setattr(enc, "flat_windows", lambda a, k, step=1: sides.append((k, step)) or real(a, k, step))
        code = encode_quadtree(noise_image(64, 64, seed=3), EncoderConfig())
        assert code.level_counts()[3] > 0  # blocks reached level 4
        assert set(sides) == {(8, 1), (8, 2), (16, 1), (16, 2)}


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
        def never(*args, **kwargs):
            raise AssertionError("a block was gathered or fitted on an image the stream header cannot hold")

        monkeypatch.setattr(enc, "_block_moments", never)
        monkeypatch.setattr(enc, "try_phase1", never)
        img = GrayImage(np.zeros((1, 65521), dtype=np.uint8))  # pads to 65536 columns
        with pytest.raises(ValueError, match="16-bit"):
            encode_quadtree(img, EncoderConfig())

    def test_kernel_calls_are_sized_by_pixels(self, monkeypatch):
        # a 512x512 raster is one band, and a gather takes up to WORK_PIXELS range pixels of a
        # level's blocks: a quarter of level 1 per call, not one call per band of root rows
        calls, gather = [], enc._block_moments
        monkeypatch.setattr(enc, "_block_moments",
                            lambda band, xy, k: calls.append(len(xy) * k * k) or gather(band, xy, k))
        encode_quadtree(natural_image(512, 512), EncoderConfig())
        assert len(calls) <= 16
        assert max(calls) == enc.WORK_PIXELS  # range pixels in a call

    def test_traced_peak_stays_below_a_whole_image_copy(self):
        # a float64 copy of this raster alone is 8 MB; a band holds at most 8 * WORK_PIXELS
        # pixels (here 32 root rows) and a call WORK_PIXELS range pixels, so the peak is one
        # band's uint16 box sums, one call's int32 ranges and domains, and the returned leaves (3.08 MB)
        assert traced_peak(encode_quadtree, natural_image(1024, 1024, seed=7), EncoderConfig()) < 3_500_000

    def test_transposed_pixels_encode_as_their_copy(self, monkeypatch):
        # GrayImage keeps its pixels in C order, so a band of rows is one block of memory for the
        # window views even when the image came from a column-major (transposed) array
        monkeypatch.setattr(enc, "WORK_PIXELS", 1)  # one root row per band
        pixels = natural_image(64, 48, seed=2).pixels.T
        assert GrayImage(pixels).pixels.flags.c_contiguous
        expected = encode_quadtree(GrayImage(np.ascontiguousarray(pixels)), EncoderConfig())
        assert encode_quadtree(GrayImage(pixels), EncoderConfig()) == expected

    def test_rejects_baseline_modes(self, constant_64):
        # a baseline mode is no EncoderConfig mode, so it cannot reach encode_quadtree
        with pytest.raises(ValueError, match="unknown mode"):
            encode_quadtree(constant_64, EncoderConfig(mode="full_search"))


@pytest.mark.parametrize("mode", ("no_search", "mns", "full_search", "local_search"))
def test_no_encoder_mode_calls_rms_error(mode, monkeypatch):
    def refuse(*args):
        raise AssertionError("rms_error called")

    monkeypatch.setattr(enc, "rms_error", refuse)
    monkeypatch.setattr(transform, "rms_error", refuse)
    image = natural_image(64, 48, seed=4)
    if mode == "full_search":
        code, _ = encode_full_search(image, 8, EncoderConfig(full_search_step=4))
    elif mode == "local_search":
        code = encode_local_search(image, EncoderConfig())
    else:
        code = encode_quadtree(image, EncoderConfig(e1=6, e2=6, e3=6, mean_tol=24, mode=mode))
    assert code.mode == mode and len(code.leaves)
    if mode == "mns":
        assert code.phase2_count()  # phase 2 ran and kept leaves


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

    @pytest.mark.parametrize("range_size", (3, 32, 8.0, np.float64(8), True))
    def test_rejects_a_range_size_before_padding_or_any_search(self, range_size, monkeypatch):
        calls = []
        for spy in ("pad_to_multiple", "box_sums", "_search"):
            monkeypatch.setattr(enc, spy, lambda *args, spy=spy: calls.append(spy))
        with pytest.raises(ValueError, match=r"range size must be one of \[2, 4, 8, 16\]"):
            encode_full_search(natural_image(64, 64), range_size, EncoderConfig())
        assert calls == []

    @pytest.mark.parametrize("step", (1, 3))
    @pytest.mark.parametrize("range_size", (4, 8))
    def test_call_size_does_not_change_the_code(self, range_size, step, monkeypatch):
        img, config = natural_image(64, 64), EncoderConfig(full_search_step=step)
        code, samples = encode_full_search(img, range_size, config)
        for work_pixels in (1, 1 << 40):  # one range per call, then one call for every range
            monkeypatch.setattr(enc, "WORK_PIXELS", work_pixels)
            assert encode_full_search(img, range_size, config) == (code, samples)

    def test_traced_peak_stays_small(self):
        # the 2,401-domain pool of raw 2x2 sums is 0.6 MB of float32; a call's 8 ranges score in two
        # (8, 2401) float64 arrays: 1.25 MB in all, where 13-range calls to a _fit with five such arrays took 1.76 MB
        peak = traced_peak(encode_full_search, natural_image(64, 64), 8, EncoderConfig())
        assert peak < 2_000_000

    def test_fit_scores_in_two_arrays(self):
        # a 13-range full-search call against 2,401 shared candidates, sum(d r) in float32 as the
        # pool product gives it. _fit may hold two (n, c) float64 arrays and 5 bytes a candidate more:
        # the int8 codes, the (c,) norm temporaries and numpy's broadcast buffers (0.61 MB in all; a _fit
        # that kept intp codes and float64 contrasts beside its score peaked at 0.87 MB)
        rng, (n, c) = np.random.default_rng(5), (13, 2401)
        pool = rng.integers(0, 1021, (c, 64)).astype(np.float32)
        r = rng.integers(0, 256, (n, 64)).astype(np.float64)
        norms, sd = mean_removed_norms(pool * 0.25)
        dr = (r * np.float32(0.25)).astype(np.float32) @ pool.T
        args = (64, r.sum(axis=1), np.einsum("nk,nk->n", r, r), dr, norms, sd)  # each range's sum(r) and sum(r^2)
        enc._fit(*args)  # numpy's first-call set-up is not the kernel's
        assert traced_peak(enc._fit, *args) <= 2 * 8 * n * c + 5 * n * c

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

        def counting(kk, total, sq, dr, norms, sd):  # range sums; sum(d r), the norm and sum(d) of every candidate
            calls.append((len(total), [m.shape for m in (dr, norms, sd)]))
            return real(kk, total, sq, dr, norms, sd)

        monkeypatch.setattr(enc, "_fit", counting)
        encode_local_search(img, EncoderConfig())
        assert calls and all(shapes == [(n, 81)] * 3 for n, shapes in calls)
        assert sum(n for n, _ in calls) == 16  # every range of the 32x32 image, each scored once

    def test_call_size_does_not_change_the_code(self, monkeypatch):
        img, config = scene_image(128, 128), EncoderConfig()
        code = encode_local_search(img, config)
        for work_pixels in (1, 1 << 40):  # one range per call, then one call for every range
            monkeypatch.setattr(enc, "WORK_PIXELS", work_pixels)
            assert encode_local_search(img, config) == code

    def test_traced_peak_stays_small(self):
        # a call's (23, 9, 8) products stay within WORK_PIXELS entries: 39 ranges' 23 x 23 windows of float32
        # box sums and their products take 0.34 MB, next to the 256 ranges' (256, 81) candidate origins and flat
        # table indices (0.25 MB of int32) and grid cells (0.17 MB of int64) and the per-origin norm and sum(d)
        # tables (0.2 MB of float64): 1.17 MB in all
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

    def test_rejects_a_step_that_is_not_an_integer(self):
        # it fails on construction, before any encoder pads; numpy integers still pass
        for value in (2.5, 3.0, "3", None, True, False, np.True_):  # a bool is an int, but no step
            with pytest.raises(ValueError, match="full_search_step must be an integer >= 1"):
                EncoderConfig(full_search_step=value)
        assert EncoderConfig(full_search_step=np.int64(3)).full_search_step == 3
        assert EncoderConfig(full_search_step=np.int32(3)).full_search_step == 3

    @pytest.mark.parametrize("field", ("e1", "e2", "e3", "mean_tol"))
    def test_rejects_a_limit_that_is_not_a_real_number(self, field):
        # it fails on construction with ValueError, where math.isnan raised TypeError; numpy numbers still pass
        for value in ("8", None, 8j, [8.0], True, False, np.True_):
            with pytest.raises(ValueError, match="error thresholds and mean_tol must be real numbers"):
                EncoderConfig(**{field: value})
        for value in (np.float32(8), np.int64(8), 8):
            assert getattr(EncoderConfig(**{field: value}), field) == 8

    def test_rejects_a_technique2_that_is_not_a_bool(self):
        # a truthy string such as "no" would otherwise be written as technique 2 on
        for value in ("no", "", 1, 0, None, np.int64(1)):
            with pytest.raises(ValueError, match="technique2 must be a bool"):
                EncoderConfig(technique2=value)
        assert EncoderConfig(technique2=np.True_).technique2 and not EncoderConfig(technique2=False).technique2

    @pytest.mark.parametrize("field", ("e1", "e2", "e3", "mean_tol"))
    def test_rejects_nan(self, field):
        # every ordered comparison with NaN is false, so NaN would slip past the sign checks
        with pytest.raises(ValueError, match="NaN"):
            EncoderConfig(**{field: math.nan})


# each encoder with the multiple it pads to
ENCODERS = {
    "quadtree": (lambda img: encode_quadtree(img, EncoderConfig()), 16),
    "full_search": (lambda img: encode_full_search(img, 8, EncoderConfig(full_search_step=4))[0], 8),
    "local_search": (lambda img: encode_local_search(img, EncoderConfig()), 8),
}


class TestMaxPixels:
    # MAX_PIXELS is patched down to this 40x36 image's padded size, 48x48 for the quadtree and 40x40
    # for the search baselines, so no 2^26-pixel image is needed; the unpadded 1,440 pixels fit both

    @pytest.mark.parametrize("name", ENCODERS)
    def test_oversize_padded_raster_fails_before_padding_or_any_fit(self, name, monkeypatch):
        encode, multiple = ENCODERS[name]
        img, calls = scene_image(40, 36, seed=1), []
        monkeypatch.setattr(enc, "MAX_PIXELS", (-(-40 // multiple) * multiple) * (-(-36 // multiple) * multiple) - 1)
        for spy in ("pad_to_multiple", "_block_moments", "try_phase1", "_search"):
            monkeypatch.setattr(enc, spy, lambda *args, spy=spy, **kwargs: calls.append(spy))
        with pytest.raises(ValueError, match="MAX_PIXELS"):
            encode(img)
        assert calls == []

    @pytest.mark.parametrize("name", ENCODERS)
    def test_padded_raster_of_max_pixels_encodes(self, name, monkeypatch):
        encode, multiple = ENCODERS[name]
        monkeypatch.setattr(enc, "MAX_PIXELS", (-(-40 // multiple) * multiple) * (-(-36 // multiple) * multiple))
        code = encode(scene_image(40, 36, seed=1))
        assert code.padded_w * code.padded_h == enc.MAX_PIXELS


@pytest.mark.parametrize("shape", [(1, 65520), (65520, 1), (1, 65521), (65521, 1)])
def test_quadtree_rejects_a_side_past_the_header_before_padding(shape, monkeypatch):
    # a side pads to a multiple of 16, which passes the header's u16 (65,535) exactly when the side passes 65,520
    class Padded(Exception):
        pass

    def pad(*args):
        raise Padded

    monkeypatch.setattr(enc, "pad_to_multiple", pad)
    error, match = (ValueError, "16-bit header") if max(shape) > 65520 else (Padded, None)
    with pytest.raises(error, match=match):
        encode_quadtree(GrayImage(np.zeros(shape, np.uint8)), EncoderConfig())
