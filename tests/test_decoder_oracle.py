"""decode_step against a scalar per-block painter, bit for bit.

The oracle paints one block at a time: co_domain_rect or the stored domain,
then the domain's 2x2 means, then apply_map. It paints in float32, as
decode_step does, or in float64 as a reference for what float32 costs.
Rasters are random and reach outside 0..255, as early sweeps from an
arbitrary start may.
"""

import numpy as np
import pytest

from mnscodec.code import CONTRAST_SETS, QuadtreeCode, check_code, phase2_targets
from mnscodec.decoder import _as_planes, _plan, decode
from mnscodec.encoder import EncoderConfig, encode_full_search, encode_local_search, encode_quadtree
from mnscodec.image import BlockRect, downsample_mean2
from mnscodec.transform import apply_map

from records import BaselinePayload, LeafRecord, Phase1Payload, Phase2Payload, records, table_of
from scalar_oracle import co_domain_rect, dequantize_contrast, mean2_float32, quadrants
from util import gradient_image, natural_image, noise_image, random_code, scene_image, sweep


def oracle_step(code, current, dtype=np.float32):
    """One sweep painted one block at a time in `dtype`, float32 or float64; pixels that no block
    covers stay NaN."""
    w, h = code.padded_w, code.padded_h
    out = np.full((h, w), np.nan, dtype)
    mean2 = mean2_float32 if dtype == np.float32 else downsample_mean2

    def paint(rect, domain, s, o):
        d = mean2(current, domain)
        out[rect.y : rect.y + rect.size, rect.x : rect.x + rect.size] = apply_map(d, s, o)

    for leaf in records(code.leaves):
        p = leaf.payload
        if isinstance(p, Phase1Payload):
            paint(leaf.rect, co_domain_rect(leaf.rect, w, h), dequantize_contrast(p.s_code), float(p.o_byte))
        elif isinstance(p, Phase2Payload):
            pair = CONTRAST_SETS[leaf.level]
            for quad, target, bit in zip(quadrants(leaf.rect), phase2_targets(p.o_byte, p.deltas), p.s_bits):
                paint(quad, co_domain_rect(quad, w, h), pair[bit], float(target))
        else:
            paint(leaf.rect, p.domain, dequantize_contrast(p.s_code), float(p.o_byte))
    return out


def _rasters(code, seed):
    """Three float32 rasters of the code's padded shape, the second reaching outside 0..255."""
    rng = np.random.default_rng(seed)
    shape = (code.padded_h, code.padded_w)
    rasters = [rng.uniform(0.0, 255.0, shape), rng.uniform(-200.0, 500.0, shape), rng.integers(0, 256, shape) * 1.0]
    return [raster.astype(np.float32) for raster in rasters]


def _assert_matches(code, seed=0):
    plan = _plan(code)
    # one run per side and source, sorted by side, then by source (None, the raster itself, last)
    keys = [(k, (2, 0) if source is None else source) for k, source, *_ in plan.runs]
    assert keys == sorted(set(keys))
    for raster in _rasters(code, seed):
        expected = oracle_step(code, raster)
        assert not np.isnan(expected).any()
        assert np.array_equal(sweep(plan, raster), expected)


IMAGES = {
    "natural": natural_image(80, 48, seed=5),
    "scene": scene_image(64, 64, seed=2),
    "noise": noise_image(50, 34, seed=3),
    "gradient": gradient_image(40, 72),
}


@pytest.mark.parametrize("mode", ("mns", "no_search"))
@pytest.mark.parametrize("name", IMAGES)
def test_quadtree_codes_match_oracle(name, mode):
    for e in (2.0, 8.0, 20.0):
        code = encode_quadtree(IMAGES[name], EncoderConfig(e1=e, e2=e, e3=e, mode=mode))
        _assert_matches(code)


@pytest.mark.parametrize("technique2", (True, False))
@pytest.mark.parametrize("mode", ("mns", "no_search"))
def test_random_codes_match_oracle(mode, technique2):
    rng = np.random.default_rng(21)
    direct = 0  # codes with a parity of too few blocks for half-size sums, gathered from the raster
    for checked in range(25):
        code = random_code(rng, mode=mode, technique2=technique2)
        direct += any(source is None for _, source, *_ in _plan(code).runs)
        _assert_matches(code, seed=checked)
    assert direct > 0


def test_search_codes_match_oracle():
    img = scene_image(48, 40, seed=4)
    codes = [encode_local_search(img, EncoderConfig())]
    for range_size in (2, 4, 8):
        codes.append(encode_full_search(img, range_size, EncoderConfig(full_search_step=3))[0])
    # between them the codes gather from half-size sums of every (dy % 2, dx % 2), and the 2x2 code,
    # whose runs are long enough for decode_step to sweep them as pixel planes, from each of the four
    assert set().union(*(_plan(code).parities for code in codes)) == {(0, 0), (0, 1), (1, 0), (1, 1)}
    assert {source for k, source, *_ in _plan(codes[1]).runs if k == 2} == {(0, 0), (0, 1), (1, 0), (1, 1)}
    assert all(_as_planes(k, len(t)) for k, _, t, *_ in _plan(codes[1]).runs)
    for code in codes:
        _assert_matches(code)


@pytest.mark.parametrize("w, h", ((16, 48), (48, 16)))
def test_misfit_cocentered_domain_raises_value_error(w, h):
    # level-1 leaves need a 32x32 domain, which a 16-pixel side cannot hold
    leaves = [LeafRecord(BlockRect(x, y, 16), 1, Phase1Payload(100, 3))
              for y in range(0, h, 16) for x in range(0, w, 16)]
    code = QuadtreeCode(table_of(leaves), w, h, w, h, "no_search", False)
    with pytest.raises(ValueError, match="no 32x32 domain"):  # _plan takes only codes that check_code accepts
        check_code(code)
    with pytest.raises(ValueError):
        decode(code)


@pytest.mark.parametrize("domain", (
    BlockRect(20, 0, 16),  # passes the right edge
    BlockRect(0, 17, 16),  # passes the bottom edge
    BlockRect(-4, 0, 16),  # would wrap in from the right edge
    BlockRect(0, -2, 16),  # would wrap in from the bottom edge
    BlockRect(0, 0, 8),  # not twice the range size
))
def test_misfit_search_domain_raises_value_error(domain):
    leaves = [LeafRecord(BlockRect(x, y, 8), 2, BaselinePayload(BlockRect(0, 0, 16), 90, 5))
              for y in range(0, 32, 8) for x in range(0, 32, 8)]
    leaves[5] = LeafRecord(leaves[5].rect, 2, BaselinePayload(domain, 90, 5))
    code = QuadtreeCode(table_of(leaves), 32, 32, 32, 32, "local_search", False)
    with pytest.raises(ValueError, match="stored domain"):  # _plan takes only codes that check_code accepts
        check_code(code)
    with pytest.raises(ValueError):
        decode(code)
