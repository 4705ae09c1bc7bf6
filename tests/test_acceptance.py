"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import dataclasses
import math

import numpy as np

from mnscodec.bitstream import (
    HEADER_BYTES,
    _field_widths,
    level_id_bit_count,
    read_stream,
    stream_bit_count,
    write_stream,
)
from mnscodec.code import PHASE2, QuadtreeCode
from mnscodec.decoder import _plan, decode
from mnscodec.encoder import EncoderConfig, encode_full_search, encode_quadtree
from mnscodec.image import BlockRect
from mnscodec.metrics import psnr
from mnscodec.transform import fit_affine, rms_error

from records import LeafRecord, Phase1Payload, table_of
from scalar_oracle import quadrants, round_to_int
from test_transform import grid_min_rms
from util import random_code, sweep

SWEEP_THRESHOLDS = (3.0, 4.0, 6.0, 8.0)


def report(name, ok, detail=""):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{name} failed: {detail}"


def code_with_level4_leaves(count4):
    """Valid single-row tiling whose level-4 leaf count is exactly count4."""
    assert count4 % 4 == 0
    full_roots = count4 // 64
    rem_quartets = (count4 % 64) // 4
    total_roots = full_roots + (1 if rem_quartets else 0)
    leaves = []

    def full_split(rect, level):
        if level == 4:
            leaves.append(LeafRecord(rect, 4, Phase1Payload(0, 0)))
            return
        for quad in quadrants(rect):
            full_split(quad, level + 1)

    for i in range(full_roots):
        full_split(BlockRect(16 * i, 0, 16), 1)
    if rem_quartets:
        budget = rem_quartets
        root = BlockRect(16 * full_roots, 0, 16)
        for l2 in quadrants(root):
            if budget >= 4:
                full_split(l2, 2)
                budget -= 4
            elif budget > 0:
                for l3 in quadrants(l2):
                    if budget > 0:
                        full_split(l3, 3)
                        budget -= 1
                    else:
                        leaves.append(LeafRecord(l3, 3, Phase1Payload(0, 0)))
            else:
                leaves.append(LeafRecord(l2, 2, Phase1Payload(0, 0)))
    width = 16 * total_roots
    return QuadtreeCode(table_of(leaves), width, 16, width, 16, "no_search", False)


def test_c01_phase1_leaf_bit_budget():
    table = _field_widths(1, False, mns=True).sum()
    # four roots: no level-1 leaf fits a raster with a 16-pixel side
    leaves = [LeafRecord(BlockRect(x, y, 16), 1, Phase1Payload(130, 5)) for y in (0, 16) for x in (0, 16)]
    code = QuadtreeCode(table_of(leaves), 32, 32, 32, 32, "mns", True)
    measured = (stream_bit_count(code) - HEADER_BYTES * 8) / 4
    written = (8 * len(write_stream(code)) - HEADER_BYTES * 8) / 4  # 56 bits: no padding
    report(
        "C1 level-1 phase-1 leaf is 14 bits",
        table == 14 and measured == 14 and written == 14,
        f"(width table {table}, accounting {measured}, writer {written})",
    )


def test_c02_technique2_level_id_arithmetic():
    results = []
    for count4, naive_bits, shared_bits in ((4000, 8000, 2000), (25000, 50000, 12500)):
        code = code_with_level4_leaves(count4)
        others = int((code.leaves.level != 4).sum())
        got_naive = level_id_bit_count(code, technique2=False) - 2 * others
        got_shared = level_id_bit_count(code, technique2=True) - 2 * others
        results.append(got_naive == naive_bits and got_shared == shared_bits)
    kb_naive = 50000 / 8 / 1000
    kib_shared = 12500 / 8 / 1024
    results.append(kb_naive == 6.25)
    results.append(abs(kib_shared - 1.53) < 0.01 and round(kib_shared, 1) == 1.5)
    report(
        "C2 technique-2 id bits 8000->2000 and 50000->12500",
        all(results),
        f"(25000-leaf case: {kb_naive} kB naive vs {kib_shared:.3f} KiB shared)",
    )


def test_c03_implied_fourth_mean_closure():
    rng = np.random.default_rng(42)
    quartets = rng.uniform(0.0, 255.0, size=(10_000, 4))
    worst = 0.0
    for q in quartets:
        o_mean = q.mean()
        o_byte = round_to_int(o_mean)
        deltas = [round_to_int(q[k] - o_mean) for k in range(3)]
        implied = o_byte - sum(deltas)
        true_fourth = 4.0 * o_mean - q[0] - q[1] - q[2]
        worst = max(worst, abs(implied - true_fourth))
    report("C3 implied fourth mean within 2.0 of truth", worst <= 2.0 + 1e-9, f"(worst {worst:.4f})")


def test_c04_least_squares_beats_dense_grid():
    rng = np.random.default_rng(5)
    worst_excess = -math.inf
    for _ in range(1000):
        r = rng.integers(0, 256, (4, 4)).astype(float)
        d = rng.integers(0, 256, (4, 4)).astype(float)
        fit = fit_affine(r, d)
        excess = rms_error(r, d, fit.s, fit.o) - grid_min_rms(r, d)
        worst_excess = max(worst_excess, excess)
    report("C4 closed-form fit never above the grid optimum", worst_excess <= 1e-9,
           f"(worst fit-minus-grid {worst_excess:.3g})")


def test_c05_round_trip_1000_random_codes():
    seen_levels = set()
    seen_phases = set()
    seen_modes = set()
    seen_t2 = set()
    ok = True
    for i in range(1000):
        rng = np.random.default_rng(10_000 + i)
        mode = "mns" if i % 2 else "no_search"
        technique2 = i % 4 < 2
        code = random_code(rng, mode=mode, technique2=technique2)
        blob = write_stream(code)
        back = read_stream(blob)
        ok = ok and back == code and write_stream(back) == blob
        seen_levels.update(code.leaves.level.tolist())
        seen_phases.update((code.leaves.kind == PHASE2).tolist())
        seen_modes.add(mode)
        seen_t2.add(technique2)
    covered = (
        seen_levels == {1, 2, 3, 4}
        and seen_phases == {False, True}
        and seen_modes == {"no_search", "mns"}
        and seen_t2 == {False, True}
    )
    report("C5 1000-code byte-exact round-trip", ok and covered,
           f"(levels {sorted(seen_levels)}, phases {len(seen_phases)}, modes {len(seen_modes)})")


def test_c06_full_search_locality(scene_crop_64):
    from mnscodec.bench import offset_histogram

    config = EncoderConfig(full_search_step=1)
    _, samples = encode_full_search(scene_crop_64, 8, config)
    hist = offset_histogram(samples)
    mx, my = hist.mode_x(), hist.mode_y()
    report("C6 offset histogram modes within |offset| <= 8",
           abs(mx) <= 8 and abs(my) <= 8, f"(mode_x {mx}, mode_y {my}, {hist.total} ranges)")


def test_c07_mns_rate_dominance(natural_256):
    points = {}
    for mode in ("no_search", "mns"):
        for e in SWEEP_THRESHOLDS:
            config = EncoderConfig(e1=e, e2=e, e3=e, mode=mode)
            code = encode_quadtree(natural_256, config)
            decoded = decode(read_stream(write_stream(code)))
            points[(mode, e)] = (stream_bit_count(code), psnr(natural_256, decoded), code.phase2_count())
    dominance = True
    strict_applied = 0
    for e in SWEEP_THRESHOLDS:
        ns_bits, _, _ = points[("no_search", e)]
        mns_bits, _, p2 = points[("mns", e)]
        if p2 > 0:
            dominance = dominance and mns_bits < ns_bits
            strict_applied += 1
        else:
            dominance = dominance and mns_bits <= ns_bits
    matched_ok = True
    pixels = natural_256.width * natural_256.height
    for e_ns in SWEEP_THRESHOLDS:
        for e_mns in SWEEP_THRESHOLDS:
            ns_bits, ns_q, _ = points[("no_search", e_ns)]
            mns_bits, mns_q, _ = points[("mns", e_mns)]
            if abs(ns_q - mns_q) <= 0.5:
                matched_ok = matched_ok and (mns_bits / pixels) <= (ns_bits / pixels)
    detail = ", ".join(
        f"E={e:g}: mns {points[('mns', e)][0]}b vs ns {points[('no_search', e)][0]}b (p2={points[('mns', e)][2]})"
        for e in SWEEP_THRESHOLDS
    )
    report("C7 mns rate dominance across the sweep",
           dominance and matched_ok and strict_applied > 0, f"({detail})")


def test_c08_decoder_convergence(natural_128, noise_64, gradient_64, constant_64):
    corpus = {
        "natural128": natural_128,
        "noise64": noise_64,
        "gradient64": gradient_64,
        "constant64": constant_64,
    }
    washout_ok = True
    monotone_ok = True
    worst_gap = 0
    for name, image in corpus.items():
        for mode in ("no_search", "mns"):
            code = encode_quadtree(image, EncoderConfig(mode=mode))
            plan = _plan(code)
            finals = []
            for start in (0.0, 255.0):
                current = np.full((code.padded_h, code.padded_w), start)
                deltas = []
                for _ in range(10):
                    nxt = sweep(plan, current)
                    deltas.append(float(np.max(np.abs(nxt - current))))
                    current = nxt
                finals.append(current)
                monotone_ok = monotone_ok and all(
                    deltas[i + 1] <= deltas[i] + 1e-9 for i in range(1, len(deltas) - 1)
                )
            gap = float(np.max(np.abs(finals[0] - finals[1])))
            worst_gap = max(worst_gap, gap)
            washout_ok = washout_ok and gap <= 1.0
    report("C8 flat-0/flat-255 initials agree within 1 gray level",
           washout_ok and monotone_ok, f"(worst gap {worst_gap:g}, deltas non-increasing: {monotone_ok})")


def test_c09_threshold_and_mode_monotonicity(natural_128):
    pairs = (((3, 3, 3), (5, 5, 5)), ((4, 5, 6), (6, 7, 9)), ((5, 5, 5), (12, 12, 12)))
    threshold_ok = True
    for tight, loose in pairs:
        for mode in ("no_search", "mns"):
            tight_code = encode_quadtree(natural_128, EncoderConfig(*tight, mode=mode))
            loose_code = encode_quadtree(natural_128, EncoderConfig(*loose, mode=mode))
            threshold_ok = threshold_ok and len(loose_code.leaves) <= len(tight_code.leaves)
    mode_ok = True
    for e in (3.0, 5.0, 8.0):
        ns = encode_quadtree(natural_128, EncoderConfig(e1=e, e2=e, e3=e, mode="no_search"))
        mns = encode_quadtree(natural_128, EncoderConfig(e1=e, e2=e, e3=e, mode="mns"))
        mode_ok = mode_ok and len(mns.leaves) <= len(ns.leaves)
    report("C9 looser thresholds and mns never add leaves", threshold_ok and mode_ok)


def test_c10_level4_quartets_and_exact_savings(natural_128, noise_64):
    structure_ok = True
    savings_ok = True
    quartet_total = 0
    for image in (natural_128, noise_64):
        for mode in ("no_search", "mns"):
            config = EncoderConfig(e1=3, e2=3, e3=3, mode=mode, technique2=True)
            code = encode_quadtree(image, config)
            count4 = int((code.leaves.level == 4).sum())
            structure_ok = structure_ok and count4 % 4 == 0
            quartets = count4 // 4
            quartet_total += quartets
            without = dataclasses.replace(code, technique2=False)
            savings_ok = savings_ok and (
                stream_bit_count(without) - stream_bit_count(code) == 6 * quartets
                and all(len(write_stream(c)) == (stream_bit_count(c) + 7) // 8 for c in (code, without))
            )
    report("C10 level-4 quartets and 6-bit-per-quartet savings",
           structure_ok and savings_ok and quartet_total > 0, f"({quartet_total} quartets checked)")
