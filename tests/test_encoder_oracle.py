"""encode_quadtree against the scalar per-block recursion it replaced, code for code.

The oracle fits one block at a time (co_domain_rect, downsample_mean2,
fit_affine, the scalar quantize_contrast of scalar_oracle, rms_error for
phase 1, and exact_sse's rationals for phase 2's picks) and recurses depth
first, so it fixes the leaf order, the tie rules and every RMS value that
the level-at-a-time encoder must reproduce.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mnscodec import encoder, transform
from mnscodec.code import CONTRAST_SETS, LEVEL_SIZES, ROOT_SIZE, LeafTable, QuadtreeCode, delta_limit, phase2_targets
from mnscodec.encoder import EncoderConfig, RowBand, encode_quadtree, try_phase1, try_phase2
from mnscodec.image import BlockRect, GrayImage, box_sums, downsample_mean2, pad_to_multiple
from mnscodec.transform import fit_affine, rms_error

from records import LeafRecord, Phase1Payload, Phase2Payload, records, table_of
from scalar_oracle import (block_mean, block_pixels, co_domain_rect, dequantize_contrast, exact_sse,
                           mean_removed_norms, quadrants, quantize_contrast, round_to_int)
from util import gradient_image, natural_image, noise_image, run_phase, scene_image


def oracle_phase1(image, rect, level, config):
    domain = co_domain_rect(rect, image.width, image.height)
    d = downsample_mean2(image, domain)
    r = block_pixels(image, rect)
    s_fit, o_fit = fit_affine(r, d)
    s_code = quantize_contrast(s_fit)
    o_byte = round_to_int(o_fit)
    rms = rms_error(r, d, dequantize_contrast(s_code), float(o_byte))
    if level == 4 or rms <= config.threshold(level):
        return LeafRecord(rect, level, Phase1Payload(o_byte, s_code)), rms
    return None, rms


def oracle_phase2(image, rect, level, config):
    rejected = (None, math.inf)
    o_mean = block_mean(image, rect)
    quads = quadrants(rect)
    quad_means = [block_mean(image, q) for q in quads]
    if max(abs(m - o_mean) for m in quad_means) > config.mean_tol:
        return rejected
    o_byte = round_to_int(o_mean)
    deltas = tuple(round_to_int(m - o_mean) for m in quad_means[:3])
    targets = phase2_targets(o_byte, deltas)
    if max(abs(d) for d in deltas) > delta_limit(level) or not 0 <= targets[3] <= 255:
        return rejected
    s_lo, s_hi = (Fraction(round(20 * s), 20) for s in CONTRAST_SETS[level])
    tol = config.threshold(level)
    bits = []
    worst = 0.0
    for quad, target in zip(quads, targets):
        d = downsample_mean2(image, co_domain_rect(quad, image.width, image.height))
        r = block_pixels(image, quad)
        sse_lo, sse_hi = exact_sse(r, d, s_lo, target), exact_sse(r, d, s_hi, target)
        bit, sse = (0, sse_lo) if sse_lo <= sse_hi else (1, sse_hi)
        rms = math.sqrt(float(sse / r.size))
        if rms > tol:
            return rejected
        bits.append(bit)
        worst = max(worst, rms)
    return LeafRecord(rect, level, Phase2Payload(o_byte, deltas, tuple(bits))), worst


def oracle_encode(image, config):
    padded = pad_to_multiple(image, ROOT_SIZE)
    min_dim = min(padded.width, padded.height)
    leaves = []

    def visit(rect, level):
        record = None
        if 2 * rect.size <= min_dim:
            record, _ = oracle_phase1(padded, rect, level, config)
            if record is None and config.mode == "mns":
                record, _ = oracle_phase2(padded, rect, level, config)
        if record is not None:
            leaves.append(record)
            return
        for quad in quadrants(rect):
            visit(quad, level + 1)

    for y in range(0, padded.height, ROOT_SIZE):
        for x in range(0, padded.width, ROOT_SIZE):
            visit(BlockRect(x, y, ROOT_SIZE), 1)
    return QuadtreeCode(table_of(leaves), padded.width, padded.height, image.width, image.height,
                        config.mode, config.technique2)


def checkerboard(width, height):
    return GrayImage((np.indices((height, width)).sum(axis=0) % 2 * 255).astype(np.uint8))


IMAGES = {
    "natural": natural_image(96, 96, seed=5),
    "scene": scene_image(64, 80, seed=2),
    "noise": noise_image(48, 48, seed=3),
    "gradient": gradient_image(64, 48),
    "constant": GrayImage(np.full((48, 64), 42, dtype=np.uint8)),
    "checkerboard": checkerboard(48, 48),
    "odd_natural": natural_image(75, 53, seed=8),  # pads on both axes
    "odd_scene": scene_image(33, 97, seed=9),
    "strip_16xN": natural_image(16, 80, seed=4),  # level 1 skipped: no room for a 32x32 domain
    "strip_Nx16": scene_image(80, 16, seed=6),
    "tall": natural_image(32, 144, seed=10),  # one root per row: one band a row at the smallest WORK_PIXELS
}
CONFIGS = [
    EncoderConfig(e1=e, e2=e, e3=e, mean_tol=tol, mode=mode, technique2=t2)
    for mode in ("no_search", "mns")
    for t2 in (True, False)
    for e in (0.5, 4.0, 8.0, 30.0)
    for tol in (0.0, 16.0, 40.0)
    if mode == "mns" or tol == 16.0  # mean_tol only matters to phase 2
]


# WORK_PIXELS = 1 puts one block in each kernel call and one root row in each band, so every
# root row's domains reach across a band edge into its halo; technique 2 does not change the walk
ONE_BLOCK_CONFIGS = [c for c in CONFIGS if c.technique2 and c.e1 >= 4.0 and c.mean_tol > 0.0]


@pytest.mark.parametrize("name", IMAGES)
def test_encode_matches_scalar_oracle(name, monkeypatch):
    image = IMAGES[name]
    for config in CONFIGS:
        expected = oracle_encode(image, config)
        assert encode_quadtree(image, config) == expected, config
        if config in ONE_BLOCK_CONFIGS:
            with monkeypatch.context() as m:
                m.setattr(encoder, "WORK_PIXELS", 1)
                assert encode_quadtree(image, config) == expected, config


def test_two_band_strip_matches_scalar_oracle(monkeypatch):
    # at the default WORK_PIXELS a 32-wide band holds 1,024 root rows, so this strip's last
    # root row is a band of its own, whose level-1 domains clamp at the bottom edge
    image = natural_image(32, 16400, seed=11)
    bands, band = [], encoder._band
    monkeypatch.setattr(encoder, "_band", lambda image, y0, y1: bands.append((y0, y1)) or band(image, y0, y1))
    for config in (EncoderConfig(), EncoderConfig(mode="no_search"), EncoderConfig(e1=4.0, e2=4.0, e3=4.0, mean_tol=40.0)):
        assert encode_quadtree(image, config) == oracle_encode(image, config), config
    assert bands == [(0, 16384), (16384, 16400)] * 3


def test_mixed_thresholds_match_scalar_oracle():
    image = IMAGES["natural"]
    for e1, e2, e3 in ((2.0, 6.0, 12.0), (12.0, 6.0, 2.0), (math.inf, 1.0, 1.0)):
        config = EncoderConfig(e1=e1, e2=e2, e3=e3, mode="mns")
        assert encode_quadtree(image, config) == oracle_encode(image, config)


@given(
    st.integers(1, 70), st.integers(1, 70), st.integers(0, 2**32 - 1),
    st.sampled_from(("smooth", "noise", "steps")),
    st.floats(0.25, 40.0), st.floats(0.0, 48.0), st.sampled_from(("no_search", "mns")),
)
@settings(max_examples=60, deadline=None)
def test_random_images_match_scalar_oracle(w, h, seed, kind, e, tol, mode):
    rng = np.random.default_rng(seed)
    if kind == "smooth":
        image = natural_image(w, h, seed=seed % 1000)
    elif kind == "noise":
        image = GrayImage(rng.integers(0, 256, (h, w), dtype=np.uint8))
    else:  # few levels, so means and RMS values tie often
        image = GrayImage((rng.integers(0, 3, (h, w)) * 100).astype(np.uint8))
    config = EncoderConfig(e1=e, e2=e * 1.5, e3=e * 2, mean_tol=tol, mode=mode)
    assert encode_quadtree(image, config) == oracle_encode(image, config)


def test_contrast_set_values_are_twentieths():
    # phase 2 scores 400 sse(s) from 20s as an integer; a set value off the 1/20 grid would be rounded onto it
    values = [s for pair in CONTRAST_SETS.values() for s in pair]
    assert all(abs(20 * s - round(20 * s)) < 1e-12 for s in values)


PALETTES = {"zeros": [0], "full": [255], "extremes": [0, 255], "dark": [0, 1, 2, 3, 9],
            "bright": [246, 252, 254, 255], "any": list(range(256))}


@given(st.sampled_from((1, 2, 3)), st.sampled_from((1, 2, 4, 8, 16)), st.sampled_from(sorted(PALETTES)),
       st.integers(0, 2**32 - 1))
@example(1, 1, "extremes", 0).via("0/255 noise")
@example(2, 8, "zeros", 0).via("flat domains, all-0 ranges, targets 0")
@example(3, 16, "full", 0).via("flat domains, all-255 ranges, targets 255")
@settings(max_examples=60, deadline=None)
def test_phase2_scores_match_rationals_at_the_extremes(level, cell, palette, seed):
    # 3x3 blocks of constant cells: all-0 and all-255 ranges, flat domains, targets 0 and 255, and 0/255 pixels,
    # whose sums reach README's bound; with no mean gate or threshold, every block whose deltas and implied mean fit
    # is scored, and each quadrant's pick and the worst quadrant's RMS must be the rationals' to the last bit
    size, rng = LEVEL_SIZES[level], np.random.default_rng(seed)
    values = rng.choice(PALETTES[palette], (-(-3 * size // cell),) * 2).astype(np.uint8)
    image = GrayImage(np.kron(values, np.ones((cell, cell), np.uint8))[: 3 * size, : 3 * size])
    config = EncoderConfig(e1=math.inf, e2=math.inf, e3=math.inf, mean_tol=255.0)
    rects = [BlockRect(x, y, size) for y in range(0, 3 * size, size) for x in range(0, 3 * size, size)]
    xy, band = np.array([(rect.x, rect.y) for rect in rects]), encoder._band(image, 0, image.height)
    accepted, payload, rms = run_phase(try_phase2, band, xy, level, config)
    expected = [oracle_phase2(image, rect, level, config) for rect in rects]
    assert rms.tolist() == [value for _, value in expected]
    got = records(LeafTable(encoder._rows(xy[accepted], level, payload[accepted])))
    assert got == [record for record, _ in expected if record]


def oracle_fit(r, pool):
    """_fit for one range against its candidate domains, from the scalar pieces: per candidate the
    scalar quantizer's code of fit_affine's s, the range mean rounded half up, and the explicit sum of
    squared residuals; the first candidate of least error wins."""
    o_byte = round_to_int(float(r.mean()))
    scored = []
    for d in pool:
        s_code = quantize_contrast(fit_affine(r, d).s)
        res = r - dequantize_contrast(s_code) * (d - d.mean()) - o_byte
        scored.append((float(np.sum(res * res)), s_code))
    best = min(range(len(pool)), key=lambda i: scored[i][0])
    return best, scored[best][1], float(o_byte), scored[best][0]


@given(st.sampled_from((2, 4, 8, 16)), st.integers(1, 6), st.integers(1, 5), st.integers(0, 2**32 - 1),
       st.sampled_from(("noise", "mapped", "steps")))
@settings(max_examples=150, deadline=None)
def test_fit_matches_scalar_oracle(k, n, c, seed, kind):
    # domains are 2x2 means, quarters of sums of four bytes; some are flat (norm 0, so s = 0) and
    # some ranges are all 0 or all 255; "mapped" ranges follow their first candidate, so s codes
    # spread, and "steps" takes few values, so candidates tie
    rng = np.random.default_rng(seed)
    d = rng.integers(0, 1021, (n, c, k * k)) / 4.0
    if kind == "steps":
        d = rng.integers(0, 3, (n, c, k * k)) * 100.0
    d[rng.random((n, c)) < 0.25] = rng.integers(0, 1021) / 4.0
    r = rng.integers(0, 256, (n, k * k)).astype(np.float64)
    if kind == "mapped":
        s = rng.uniform(-1.2, 1.2, (n, 1))
        r = np.clip(np.rint(s * (d[:, 0] - d[:, 0].mean(axis=1, keepdims=True)) + rng.uniform(0, 255, (n, 1))
                            + rng.normal(0.0, 3.0, r.shape)), 0, 255)
    elif kind == "steps":
        r = rng.integers(0, 3, r.shape) * 100.0
    r[rng.random(n) < 0.2], r[rng.random(n) < 0.2] = 0.0, 255.0
    pool = d[0]  # also shared by every range, as full search shares its pool
    inputs = {  # moments as the callers form them: phase 1 and local search per range, full search shared
        "per range": (np.einsum("nk,nck->nc", r, d), *mean_removed_norms(d)),
        "shared": (r @ pool.T, *mean_removed_norms(pool)),
    }
    for name, moments in inputs.items():
        pools = [pool] * n if name == "shared" else list(d)
        expected = [oracle_fit(r[i], pools[i]) for i in range(n)]
        args = (k * k, r.sum(axis=1), np.einsum("nk,nk->n", r, r), *moments)  # each range's sum(r) and sum(r^2)
        kept = [np.copy(a) for a in args]
        got = encoder._fit(*args)
        assert all(np.array_equal(a, b) for a, b in zip(args, kept)), name  # nothing written
        assert [tuple(column[i].item() for column in got) for i in range(n)] == expected, name


@given(st.lists(st.tuples(st.integers(-2**31 + 1, 2**31 - 1), st.integers(1, 2**31 - 1)), min_size=1, max_size=16))
@settings(max_examples=200, deadline=None)
def test_fit_bins_equal_quantize_contrast(pairs):
    # _fit bins u = x / (norm / 4) where quantize_contrast bins s = x / norm. With sum(d) = 0 the cross term x is
    # sum(d r) itself, so each range of one candidate takes the code of x / norm: x over integers, and
    # x = edge * norm at every bin edge, -1 and 1 included
    x, norm = np.array(pairs, dtype=np.float64).T
    x = np.concatenate([x, np.multiply.outer(np.arange(-4, 5) / 4, norm).ravel()])
    norm = np.tile(norm, 10)
    zeros = np.zeros(len(x))
    _, codes, _, _ = encoder._fit(1, zeros, zeros, x[:, None], norm[:, None], zeros[:, None])
    assert codes.tolist() == transform.quantize_contrast(x / norm).tolist()
    assert codes.tolist() == [quantize_contrast(s) for s in (x / norm).tolist()]


def kernel_alone(kernel, image, rect, level, config):
    """A kernel call on `rect` alone, in the oracle's terms: (record, or None on rejection, and rms)."""
    xy = np.array([(rect.x, rect.y)])
    accepted, payload, rms = run_phase(kernel, encoder._band(image, 0, image.height), xy, level, config)
    return (records(LeafTable(encoder._rows(xy, level, payload)))[0] if accepted[0] else None), float(rms[0])


@pytest.mark.parametrize("level", (1, 2, 3, 4))
@pytest.mark.parametrize("name", ("odd_natural", "noise"))
def test_kernels_match_scalar_oracle_block_by_block(name, level):
    # every block of a level in one batch, and each block alone in a batch of one, against the
    # oracle's record and RMS value: an RMS reduced in another order differs in its last bits
    image = pad_to_multiple(IMAGES[name], ROOT_SIZE)
    band = RowBand(image.pixels, box_sums(image.pixels), 0, image.width, image.height)
    size = LEVEL_SIZES[level]
    config = EncoderConfig(e1=6.0, e2=6.0, e3=6.0, mean_tol=24.0)
    rects = [BlockRect(x, y, size) for y in range(0, image.height, size) for x in range(0, image.width, size)]
    xy = np.array([(rect.x, rect.y) for rect in rects])
    phases = ((try_phase1, oracle_phase1), (try_phase2, oracle_phase2))
    for kernel, oracle in phases[: 2 if level < 4 else 1]:
        expected = [oracle(image, rect, level, config) for rect in rects]
        accepted, _, rms = run_phase(kernel, band, xy, level, config)
        assert accepted.tolist() == [record is not None for record, _ in expected]
        assert rms.tolist() == [value for _, value in expected]
        assert [kernel_alone(kernel, image, rect, level, config) for rect in rects] == expected
