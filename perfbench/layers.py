"""Per-layer metrics derived from a traced run, and what each should move.

Layers are the codec's modules: image, transform, encoder, bitstream,
decoder. Times and counts are per traced op unless the name says otherwise.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from mnscodec import bitstream

from .spans import OP_SPAN, SpanTable, self_times

LAYERS = ("image", "transform", "encoder", "bitstream", "decoder")
ENCODE_SIDE = "throughput_mpix_s and op_ms_* on encode_photo and roundtrip_texture"
DECODE_SIDE = "throughput_mpix_s and op_ms_* on decode_photo and roundtrip_texture"
ENCODER = "throughput_mpix_s on encode_photo, roundtrip_texture and search_baseline; nothing on decode_photo"
DECODER = "throughput_mpix_s and peak_rss_mb on decode_photo and roundtrip_texture; nothing on encode_photo"
BITS = "bpp on every workload that writes or reads streams"
BITSTREAM = "op_ms_* mostly on roundtrip_texture, a few percent on the photo workloads"

# (name, unit, better, the end-to-end metrics and workloads it should move)
PER_LAYER = (
    ("image.load_pgm_ms", "ms", "lower", ENCODE_SIDE),
    ("image.save_pgm_ms", "ms", "lower", DECODE_SIDE),
    ("image.pad_ms", "ms", "lower", ENCODE_SIDE),
    ("image.downsample_calls.encoder", "count", "lower", ENCODE_SIDE),
    ("image.downsample_calls.decoder", "count", "lower", DECODE_SIDE),
    ("image.downsample_ms.encoder", "ms", "lower", ENCODE_SIDE),
    ("image.downsample_ms.decoder", "ms", "lower", DECODE_SIDE),
    ("transform.fit_calls", "count", "lower", "encode throughput, mostly on search_baseline and encode_photo"),
    ("transform.fit_ms", "ms", "lower", "encode throughput, mostly on search_baseline and encode_photo"),
    ("transform.rms_calls", "count", "lower", "encode throughput, mostly on search_baseline and encode_photo"),
    ("transform.rms_ms", "ms", "lower", "encode throughput, mostly on search_baseline and encode_photo"),
    ("transform.apply_calls", "count", "lower", "throughput_mpix_s on decode_photo"),
    ("transform.apply_ms", "ms", "lower", "throughput_mpix_s on decode_photo"),
    ("encoder.encode_ms", "ms", "lower", ENCODER),
    ("encoder.self_ms", "ms", "lower", ENCODER),
    *((f"encoder.phase1_attempts.L{k}", "count", "lower", ENCODER) for k in (1, 2, 3, 4)),
    *((f"encoder.phase1_accepts.L{k}", "count", "higher", ENCODER) for k in (1, 2, 3)),
    *((f"encoder.phase1_ms.L{k}", "ms", "lower", ENCODER) for k in (1, 2, 3, 4)),
    *((f"encoder.phase2_attempts.L{k}", "count", "lower", ENCODER) for k in (1, 2, 3)),
    *((f"encoder.phase2_accepts.L{k}", "count", "higher", ENCODER) for k in (1, 2, 3)),
    *((f"encoder.phase2_ms.L{k}", "ms", "lower", ENCODER) for k in (1, 2, 3)),
    *((f"encoder.accept_ratio.L{k}", "ratio", "higher", ENCODER) for k in (1, 2, 3)),
    ("encoder.search_ms", "ms", "lower", "throughput_mpix_s on search_baseline"),
    ("encoder.local_search_ms", "ms", "lower", "throughput_mpix_s on search_baseline"),
    ("encoder.full_search_ms", "ms", "lower", "throughput_mpix_s on search_baseline"),
    ("encoder.search_fits_per_range", "count", "lower", "throughput_mpix_s on search_baseline"),
    ("bitstream.write_ms", "ms", "lower", BITSTREAM),
    ("bitstream.read_ms", "ms", "lower", BITSTREAM),
    ("bitstream.write_us_per_leaf", "us", "lower", BITSTREAM),
    ("bitstream.read_us_per_leaf", "us", "lower", BITSTREAM),
    ("bitstream.leaves", "count", "lower", BITS),
    ("bitstream.bits", "bit", "lower", BITS),
    ("bitstream.level_id_bits", "bit", "lower", BITS),
    ("bitstream.t2_saved_bits", "bit", "higher", BITS),
    ("decoder.decode_ms", "ms", "lower", DECODER),
    ("decoder.self_ms", "ms", "lower", DECODER),
    ("decoder.sweeps", "count", "lower", DECODER),
    ("decoder.sweep_ms", "ms", "lower", DECODER),
    ("decoder.paint_calls", "count", "lower", DECODER),
    ("decoder.final_delta", "gray", "lower", "psnr_db on decode_photo and roundtrip_texture"),
    ("decoder.max_iters_share", "share", "lower", DECODER),
    *((f"{layer}.errors", "count", "lower", "error_rate on every workload") for layer in LAYERS),
    *((f"{layer}.op_share", "share", "lower", "the share of op time the layer's top-level calls take")
      for layer in ("image", "encoder", "bitstream", "decoder")),
    ("trace.throughput_ratio", "ratio", "higher", "nothing; traced over untraced throughput, the cost of tracing"),
    ("unscaled.throughput_mpix_s", "MP/s", "higher", "throughput_mpix_s; the untraced ops as measured, not scaled"),
    ("unscaled.op_ms_p50", "ms", "lower", "op_ms_p50; the untraced ops as measured, not scaled"),
)
CALLER_SET = ("trace.throughput_ratio", "unscaled.throughput_mpix_s", "unscaled.op_ms_p50")
PER_LAYER_UNITS = {name: unit for name, unit, _, _ in PER_LAYER}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(table: SpanTable, traced: list, final_deltas: dict[int, float],
                      errors: Counter, max_iters: int, stop_delta: float) -> dict[str, float]:
    """Per-layer metrics from the spans of the traced ops.

    `traced` lists (op id, item, output) for every traced op that completed;
    stream sizes and leaf counts come from those outputs, off the clock.
    Leaves the CALLER_SET metrics to the caller, which timed the ops.
    """
    n = max(len(traced), 1)
    duration = table.duration
    own = self_times(table.start, table.end, table.parent)
    level = table.tag // 2
    accepted = table.tag % 2 == 1

    def count(name: str, where=True) -> int:
        return int(np.count_nonzero(table.mask(name) & where))

    def ms(name: str, where=True, times=duration) -> float:
        return 1e3 * float(times[table.mask(name) & where].sum()) / n

    m: dict[str, float] = {
        "image.load_pgm_ms": ms("image.load_pgm"),
        "image.save_pgm_ms": ms("image.save_pgm"),
        "image.pad_ms": ms("encoder.pad_to_multiple"),
    }
    for side in ("encoder", "decoder"):
        m[f"image.downsample_calls.{side}"] = count(f"{side}.downsample_mean2") / n
        m[f"image.downsample_ms.{side}"] = ms(f"{side}.downsample_mean2")
    for short, name in (("fit", "encoder.fit_affine"), ("rms", "encoder.rms_error"), ("apply", "decoder.apply_map")):
        m[f"transform.{short}_calls"] = count(name) / n
        m[f"transform.{short}_ms"] = ms(name)

    m["encoder.encode_ms"] = ms("encoder.encode_quadtree")
    m["encoder.self_ms"] = ms("encoder.encode_quadtree", times=own)
    for phase, levels in ((1, (1, 2, 3, 4)), (2, (1, 2, 3))):
        name = f"encoder.try_phase{phase}"
        for k in levels:
            m[f"encoder.phase{phase}_attempts.L{k}"] = count(name, level == k) / n
            if k < 4:
                m[f"encoder.phase{phase}_accepts.L{k}"] = count(name, (level == k) & accepted) / n
            m[f"encoder.phase{phase}_ms.L{k}"] = ms(name, level == k)
    for k in (1, 2, 3):  # useful fits over attempted fits, both phases
        fits = m[f"encoder.phase1_attempts.L{k}"] + m[f"encoder.phase2_attempts.L{k}"]
        accepts = m[f"encoder.phase1_accepts.L{k}"] + m[f"encoder.phase2_accepts.L{k}"]
        m[f"encoder.accept_ratio.L{k}"] = _ratio(accepts, fits)
    m["encoder.local_search_ms"] = ms("encoder.encode_local_search")
    m["encoder.full_search_ms"] = ms("encoder.encode_full_search")
    m["encoder.search_ms"] = m["encoder.local_search_ms"] + m["encoder.full_search_ms"]
    local_id = table.names.index("encoder.encode_local_search")
    fit = table.mask("encoder.fit_affine")
    local_fits = int(np.count_nonzero(table.name[table.parent[fit]] == local_id))
    local_ranges = sum(len(out.code.leaves) for _, item, out in traced if item.search == "local")
    m["encoder.search_fits_per_range"] = _ratio(local_fits, local_ranges)

    leaves_by_op = {op_id: len(out.code.leaves) for op_id, _, out in traced}
    for kind, name in (("write", "bitstream.write_stream"), ("read", "bitstream.read_stream")):
        ops_with = set(table.op[table.mask(name)].tolist())
        leaves = sum(leaves_by_op.get(op_id, 0) for op_id in ops_with)
        m[f"bitstream.{kind}_ms"] = ms(name)
        m[f"bitstream.{kind}_us_per_leaf"] = _ratio(1e6 * float(duration[table.mask(name)].sum()), leaves)
    streams = [out.code for _, _, out in traced if out.stream is not None]
    m["bitstream.leaves"] = sum(len(code.leaves) for code in streams) / n
    m["bitstream.bits"] = sum(bitstream.stream_bit_count(code) for code in streams) / n
    m["bitstream.level_id_bits"] = sum(bitstream.level_id_bit_count(code, code.technique2) for code in streams) / n
    m["bitstream.t2_saved_bits"] = sum(
        bitstream.level_id_bit_count(code, False) - bitstream.level_id_bit_count(code, True)
        for code in streams if code.technique2
    ) / n

    sweep = table.mask("decoder.decode_step")
    decode_ops = set(table.op[table.mask("decoder.decode")].tolist())
    sweeps_by_op = Counter(table.op[sweep].tolist())
    m["decoder.decode_ms"] = ms("decoder.decode")
    m["decoder.self_ms"] = ms("decoder.decode", times=own)
    m["decoder.sweeps"] = int(np.count_nonzero(sweep)) / n
    m["decoder.sweep_ms"] = _ratio(1e3 * float(duration[sweep].sum()), int(np.count_nonzero(sweep)))
    m["decoder.paint_calls"] = count("decoder.apply_map") / n
    deltas = [final_deltas[op_id] for op_id in decode_ops if op_id in final_deltas]
    m["decoder.final_delta"] = _ratio(sum(deltas), len(deltas))
    ran_out = sum(1 for op_id in decode_ops
                  if sweeps_by_op[op_id] >= max_iters and final_deltas.get(op_id, 0.0) >= stop_delta)
    m["decoder.max_iters_share"] = _ratio(ran_out, len(decode_ops))

    for layer in LAYERS:
        m[f"{layer}.errors"] = float(errors.get(layer, 0))
    op_mask = table.mask(OP_SPAN)
    top = np.zeros(len(table.name), dtype=bool)
    has_parent = table.parent >= 0
    top[has_parent] = op_mask[table.parent[has_parent]]
    op_time = float(duration[op_mask].sum())
    for layer in ("image", "encoder", "bitstream", "decoder"):
        ids = [i for i, name in enumerate(table.names) if name.startswith(layer + ".")]
        m[f"{layer}.op_share"] = _ratio(float(duration[top & np.isin(table.name, ids)].sum()), op_time)
    return m
