"""decode_step against a scalar per-block painter, bit for bit.

The oracle paints one block at a time: co_domain_rect or the stored domain,
then downsample_mean2, then apply_map. Rasters are random and reach outside
0..255, as early sweeps from an arbitrary start may.
"""

import numpy as np
import pytest

from mnscodec.decoder import _plan, decode, decode_step
from mnscodec.encoder import (
    CONTRAST_SETS,
    EncoderConfig,
    QuadtreeCode,
    encode_full_search,
    encode_local_search,
    encode_quadtree,
    phase2_targets,
)
from mnscodec.image import BlockRect, downsample_mean2
from mnscodec.transform import apply_map

from records import BaselinePayload, LeafRecord, Phase1Payload, Phase2Payload, records, table_of
from scalar_oracle import co_domain_rect, dequantize_contrast, quadrants
from util import gradient_image, natural_image, noise_image, random_code, scene_image


def oracle_step(code, current):
    """One sweep painted one block at a time; pixels that no block covers stay NaN."""
    w, h = code.padded_w, code.padded_h
    out = np.full((h, w), np.nan)

    def paint(rect, domain, s, o):
        d = downsample_mean2(current, domain)
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
    rng = np.random.default_rng(seed)
    shape = (code.padded_h, code.padded_w)
    return [rng.uniform(0.0, 255.0, shape), rng.uniform(-200.0, 500.0, shape), rng.integers(0, 256, shape) * 1.0]


def _assert_matches(code, seed=0):
    plan = _plan(code)
    for raster in _rasters(code, seed):
        expected = oracle_step(code, raster)
        assert not np.isnan(expected).any()
        assert np.array_equal(decode_step(plan, raster), expected)


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
    for checked in range(25):
        _assert_matches(random_code(rng, mode=mode, technique2=technique2), seed=checked)


def test_search_codes_match_oracle():
    img = scene_image(48, 40, seed=4)
    codes = [encode_local_search(img, EncoderConfig())]
    for range_size in (4, 8):
        codes.append(encode_full_search(img, range_size, EncoderConfig(full_search_step=3))[0])
    for code in codes:
        _assert_matches(code)


@pytest.mark.parametrize("w, h", ((16, 48), (48, 16)))
def test_misfit_cocentered_domain_raises_value_error(w, h):
    # level-1 leaves need a 32x32 domain, which a 16-pixel side cannot hold
    leaves = [LeafRecord(BlockRect(x, y, 16), 1, Phase1Payload(100, 3))
              for y in range(0, h, 16) for x in range(0, w, 16)]
    code = QuadtreeCode(table_of(leaves), w, h, w, h, "no_search", False)
    with pytest.raises(ValueError):
        decode_step(_plan(code), np.zeros((h, w)))
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
    with pytest.raises(ValueError):
        decode_step(_plan(code), np.zeros((32, 32)))
    with pytest.raises(ValueError):
        decode(code)
