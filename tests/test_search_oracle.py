"""Both search baselines against a scalar oracle, leaf for leaf.

The oracle scores every candidate domain with fit_affine -> the scalar
quantize_contrast of scalar_oracle -> rms_error and keeps the first strict
minimum, so it fixes the tie order as well as the winner. The images are full of exact ties: flat areas,
repeated 2x2 groups, a few gray levels, diagonal stripes.
"""

import numpy as np
import pytest

import mnscodec.encoder as encoder
from mnscodec.code import SIZE_LEVELS
from mnscodec.encoder import EncoderConfig, encode_full_search, encode_local_search
from mnscodec.image import BlockRect, GrayImage, box_sums, downsample_mean2, pad_to_multiple
from mnscodec.transform import fit_affine, rms_error

from records import BaselinePayload, LeafRecord, table_of
from scalar_oracle import (block_pixels, co_domain_rect, dequantize_contrast, domain_means, mean_removed_norms,
                           quantize_contrast, round_to_int)
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
# 16x16 ranges need room for 32x32 domains, and float32 would round their sums on bright images: each
# image doubled in scale, cut to 40x36 (padded to 48x48) and mapped into [192, 255]. Scored in float32,
# the gradient's would code differently at step 1.
BRIGHT = {
    name: GrayImage(255 - np.kron(img.pixels, np.ones((2, 2), np.uint8))[:36, :40] // 4) for name, img in IMAGES.items()
}


# padded sides of 16 leave no room for a 23-pixel window of box sums around the 9 x 9 translates
SIDE_16 = {
    "noise_16x16": noise_image(16, 16, seed=14),
    "diagonal_16x44": GrayImage((np.add.outer(np.arange(44), np.arange(16)) % 6 * 40).astype(np.uint8)),
    "four_level_44x16": GrayImage((np.random.default_rng(5).integers(0, 4, (16, 44)) * 85).astype(np.uint8)),
}
# sum(d r) at its bound: every 2x2 sum 1020 against every pixel 255; and bright noise
ALL_255, BRIGHT_NOISE = np.full((32, 32), 255), 255 - noise_image(48, 48, seed=5).pixels // 8


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


@pytest.mark.parametrize("name", [*IMAGES, *SIDE_16])
def test_local_search_matches_oracle(name, monkeypatch):
    image = {**IMAGES, **SIDE_16}[name]
    code = encode_local_search(image, EncoderConfig())
    padded = pad_to_multiple(image, 8)
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
    assert encode_local_search(image, EncoderConfig()).leaves == table_of(expected)


@pytest.mark.parametrize("step", (1, 3))
@pytest.mark.parametrize("range_size", (2, 4, 8, 16))
@pytest.mark.parametrize("name", IMAGES)
def test_full_search_matches_oracle(name, range_size, step, monkeypatch):
    config, image = EncoderConfig(full_search_step=step), (BRIGHT if range_size == 16 else IMAGES)[name]
    code, samples = encode_full_search(image, range_size, config)
    padded = pad_to_multiple(image, range_size)
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
        assert encode_full_search(image, range_size, config)[0].leaves == table_of(expected)
    half = range_size // 2
    assert samples == [
        (leaf.payload.domain.x + range_size - (leaf.rect.x + half), leaf.payload.domain.y + range_size - (leaf.rect.y + half))
        for leaf in expected
    ]


@pytest.mark.parametrize("pixels, range_size", [
    (ALL_255, 8),  # every sum(d r) is 64 * 255 * 255, the largest the float32 rule admits
    (BRIGHT_NOISE, 8),
    (BRIGHT_NOISE, 16),  # past the rule: float32 would round these sums
], ids=["all_255-8", "bright_noise-8", "bright_noise-16"])
def test_full_search_scores_equal_the_float64_product(pixels, range_size, monkeypatch):
    image, dsize = GrayImage(pixels.astype(np.uint8)), 2 * range_size
    ys, xs = np.mgrid[0 : image.height - dsize + 1, 0 : image.width - dsize + 1].reshape(2, -1)
    pool = domain_means(box_sums(image), xs, ys, range_size).reshape(len(xs), -1)  # float64 2x2 means
    scored, fit = [], encoder._fit
    monkeypatch.setattr(encoder, "_fit", lambda *args: scored.append(args[1:4]) or fit(*args))
    encode_full_search(image, range_size, EncoderConfig())
    rects = [BlockRect(x, y, range_size) for y in range(0, image.height, range_size)
             for x in range(0, image.width, range_size)]
    assert_range_sums_and_cross_moments(image, rects, scored, lambda i, row: pool @ row)


def assert_range_sums_and_cross_moments(image, rects, scored, cross):
    """The (sum(r), sum(r^2), sum(d r)) that each _fit call scored, joined over the calls: one row per range of
    `rects`, in order, with its pixels' sums and the float64 products cross(i, pixels) of range i."""
    total, sq, dr = (np.concatenate(column) for column in zip(*scored))
    ranges = [block_pixels(image, rect).ravel() for rect in rects]
    assert len(total) == len(rects)
    assert total.tolist() == [r.sum() for r in ranges] and sq.tolist() == [(r * r).sum() for r in ranges]
    assert all(np.array_equal(dr[i], cross(i, r)) for i, r in enumerate(ranges))


@pytest.mark.parametrize("pixels", [ALL_255, BRIGHT_NOISE], ids=["all_255", "bright_noise"])
def test_local_search_scores_equal_the_float64_product(pixels, monkeypatch):
    # every call's sum(d r), against the float64 2x2 means of each range's 81 clamped translates
    image, scored, fit = GrayImage(pixels.astype(np.uint8)), [], encoder._fit
    monkeypatch.setattr(encoder, "_fit", lambda *args: scored.append(args[1:4]) or fit(*args))
    encode_local_search(image, EncoderConfig())
    w, h, sums = image.width, image.height, box_sums(image)
    rects = [BlockRect(rx, ry, 8) for ry in range(0, h, 8) for rx in range(0, w, 8)]
    dy, dx = np.indices((9, 9)).reshape(2, 81) - 4  # (dy, dx) scan order

    def cross(i, row):
        base = co_domain_rect(rects[i], w, h)
        xs, ys = np.clip(base.x + dx, 0, w - 16), np.clip(base.y + dy, 0, h - 16)
        return domain_means(sums, xs, ys, 8).reshape(81, 64) @ row

    assert_range_sums_and_cross_moments(image, rects, scored, cross)


@pytest.mark.parametrize("k", (2, 4, 8, 16))
@pytest.mark.parametrize("pixels", [ALL_255, BRIGHT_NOISE], ids=["all_255", "bright_noise"])
def test_norm_table_equals_the_norms_of_gathered_means(pixels, k):
    image = GrayImage(pixels.astype(np.uint8))
    ys, xs = np.mgrid[0 : image.height - 2 * k + 1, 0 : image.width - 2 * k + 1]
    expected = mean_removed_norms(domain_means(box_sums(image), xs, ys, k).reshape(*xs.shape, k * k))
    got = encoder._norm_table(box_sums(image, np.uint16), k)
    assert all(a.dtype == np.float64 and np.array_equal(a, b) for a, b in zip(got, expected))
