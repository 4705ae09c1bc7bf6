"""Both search baselines against a scalar oracle, leaf for leaf.

The oracle scores every candidate domain with fit_affine -> the scalar
quantize_contrast of scalar_oracle -> rms_error and keeps the first strict
minimum, so it fixes the tie order as well as the winner. The images are full of exact ties: flat areas,
repeated 2x2 groups, a few gray levels, diagonal stripes.
"""

import numpy as np
import pytest

import mnscodec.encoder as encoder
from mnscodec.encoder import SIZE_LEVELS, EncoderConfig, encode_full_search, encode_local_search
from mnscodec.image import BlockRect, GrayImage, downsample_mean2, pad_to_multiple
from mnscodec.transform import fit_affine, rms_error

from records import BaselinePayload, LeafRecord, table_of
from scalar_oracle import block_pixels, co_domain_rect, dequantize_contrast, quantize_contrast, round_to_int
from util import gradient_image, noise_image

W, H = 28, 20  # neither side a multiple of 8, so local search and 8-pixel ranges pad


def _images():
    rng = np.random.default_rng(4)
    return {
        "constant": GrayImage(np.full((H, W), 42, dtype=np.uint8)),
        "gradient": gradient_image(W, H),
        "four_level": GrayImage((rng.integers(0, 4, (H, W)) * 85).astype(np.uint8)),
        "replicated_2x2": GrayImage(np.kron(rng.integers(0, 256, (H // 2, W // 2)), np.ones((2, 2), dtype=int))),
        "noise": noise_image(W, H, seed=13),
        # candidates the same distance along an anti-diagonal tie, so this one pins the (dy, dx) scan order
        "diagonal": GrayImage((np.add.outer(np.arange(H), np.arange(W)) % 6 * 40).astype(np.uint8)),
    }


IMAGES = _images()


def oracle_leaf(padded, rect, domains):
    """First candidate domain with the strictly lowest quantized-fit RMS."""
    r = block_pixels(padded, rect)
    best = None
    for domain in domains:
        d = downsample_mean2(padded, domain)
        params = fit_affine(r, d)
        s_code = quantize_contrast(params.s)
        o_byte = round_to_int(params.o)
        rms = rms_error(r, d, dequantize_contrast(s_code), float(o_byte))
        if best is None or rms < best[0]:
            best = (rms, BaselinePayload(domain, o_byte, s_code))
    return LeafRecord(rect, SIZE_LEVELS[rect.size], best[1])


@pytest.mark.parametrize("name", IMAGES)
def test_local_search_matches_oracle(name, monkeypatch):
    code = encode_local_search(IMAGES[name], EncoderConfig())
    padded = pad_to_multiple(IMAGES[name], 8)
    w, h = padded.width, padded.height
    expected = []
    for ry in range(0, h, 8):
        for rx in range(0, w, 8):
            rect = BlockRect(rx, ry, 8)
            base = co_domain_rect(rect, w, h)
            domains = [
                BlockRect(min(max(base.x + dx, 0), w - 16), min(max(base.y + dy, 0), h - 16), 16)
                for dy in range(-4, 5)
                for dx in range(-4, 5)
            ]
            expected.append(oracle_leaf(padded, rect, domains))
    assert code.leaves == table_of(expected)
    monkeypatch.setattr(encoder, "WORK_PIXELS", 1)  # one range per call
    assert encode_local_search(IMAGES[name], EncoderConfig()).leaves == table_of(expected)


@pytest.mark.parametrize("step", (1, 3))
@pytest.mark.parametrize("range_size", (4, 8))
@pytest.mark.parametrize("name", IMAGES)
def test_full_search_matches_oracle(name, range_size, step, monkeypatch):
    config = EncoderConfig(full_search_step=step)
    code, samples = encode_full_search(IMAGES[name], range_size, config)
    padded = pad_to_multiple(IMAGES[name], range_size)
    w, h = padded.width, padded.height
    dsize = 2 * range_size
    domains = [BlockRect(x, y, dsize) for y in range(0, h - dsize + 1, step) for x in range(0, w - dsize + 1, step)]
    expected = [
        oracle_leaf(padded, BlockRect(rx, ry, range_size), domains)
        for ry in range(0, h, range_size)
        for rx in range(0, w, range_size)
    ]
    assert code.leaves == table_of(expected)
    with monkeypatch.context() as m:
        m.setattr(encoder, "WORK_PIXELS", 1)  # one range per call
        assert encode_full_search(IMAGES[name], range_size, config)[0].leaves == table_of(expected)
    half = range_size // 2
    assert samples == [
        (leaf.payload.domain.x + range_size - (leaf.rect.x + half), leaf.payload.domain.y + range_size - (leaf.rect.y + half))
        for leaf in expected
    ]
