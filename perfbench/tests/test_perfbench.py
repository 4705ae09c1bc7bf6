"""Tests of the benchmark itself: corpus seeding, statistics, tracing hygiene.

    python -m pytest perfbench/tests
"""

import json
import pathlib
from collections import Counter

import numpy as np
import pytest

import mnscodec.bitstream
import mnscodec.image
from perfbench import corpus, layers, run, spans, speed, workloads

ROOT = pathlib.Path(__file__).resolve().parents[2]
CORPORA = (corpus.photo_images, corpus.texture_images, corpus.search_images)


@pytest.mark.parametrize("make", CORPORA)
def test_corpus_repeats_for_a_seed_and_differs_across_seeds(make):
    first, again, other = make(3), make(3), make(4)
    assert [name for name, _ in first] == [name for name, _ in other]
    for (_, a), (_, b), (_, c) in zip(first, again, other):
        assert a.dtype == np.uint8 and a.flags.c_contiguous
        assert np.array_equal(a, b)
        assert a.shape == c.shape
    assert any(not np.array_equal(a, c) for (_, a), (_, c) in zip(first, other))


def test_seed_turns_a_fixed_texture():
    base = corpus.natural_image(64, 64, 9)
    turned = {corpus._turned(base, seed).tobytes() for seed in range(40)}
    turns = [np.rot90(base, k) for k in range(4)]
    symmetries = {np.ascontiguousarray(m).tobytes() for t in turns for m in (t, t[:, ::-1])}
    assert turned == symmetries
    wide = corpus.natural_image(64, 32, 9)
    assert all(corpus._turned(wide, seed).shape == (32, 64) for seed in range(20))


def test_pgm_bytes_parse_back_to_the_pixels():
    pixels = corpus.natural_image(37, 21, 5)
    assert np.array_equal(mnscodec.image.load_pgm(corpus.pgm_bytes(pixels)).pixels, pixels)


def test_percentile_interpolates_between_order_statistics():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert run.percentile(values, 50) == 3.0
    assert run.percentile(values, 90) == pytest.approx(4.6)
    assert run.percentile(values, 0) == 1.0
    assert run.percentile(values, 100) == 5.0
    assert run.percentile([7.0], 90) == 7.0
    assert run.percentile(range(101), 90) == 90


def test_self_times_subtract_direct_children_only():
    # op [0, 10] > a [1, 6] > b [2, 4]; op > c [7, 9]
    start = np.array([0.0, 1.0, 2.0, 7.0])
    end = np.array([10.0, 6.0, 4.0, 9.0])
    parent = np.array([-1, 0, 1, 0])
    assert spans.self_times(start, end, parent).tolist() == [3.0, 3.0, 2.0, 2.0]


def _synthetic_table():
    names = [f"{module}.{attr}" for module, attr in spans.WRAPPED] + [spans.OP_SPAN]
    rows = [  # name, start, end, parent, op, tag
        (spans.OP_SPAN, 0.0, 1.0, -1, 1, 0),
        ("encoder.encode_quadtree", 0.1, 0.9, 0, 1, 0),
        ("encoder.try_phase1", 0.2, 0.3, 1, 1, 2 * 1 + 0),
        ("encoder.try_phase2", 0.3, 0.5, 1, 1, 2 * 1 + 1),
        ("encoder.try_phase1", 0.5, 0.6, 1, 1, 2 * 2 + 1),
        ("encoder.fit_affine", 0.52, 0.55, 4, 1, 0),
    ]
    col = list(zip(*rows))
    return spans.SpanTable(names, np.array([names.index(n) for n in col[0]]), np.array(col[1]),
                           np.array(col[2]), np.array(col[3]), np.array(col[4]), np.array(col[5]))


def test_layer_metrics_from_synthetic_spans():
    table = _synthetic_table()
    m = layers.per_layer_metrics(table, [], {}, Counter({"encoder": 2}), max_iters=10, stop_delta=0.5)
    assert m["encoder.encode_ms"] == pytest.approx(800.0)
    assert m["encoder.self_ms"] == pytest.approx(400.0)
    assert m["encoder.phase1_attempts.L1"] == 1 and m["encoder.phase1_accepts.L1"] == 0
    assert m["encoder.phase2_accepts.L1"] == 1
    assert m["encoder.accept_ratio.L1"] == pytest.approx(0.5)
    assert m["encoder.phase1_ms.L2"] == pytest.approx(100.0)
    assert m["transform.fit_calls"] == 1 and m["transform.fit_ms"] == pytest.approx(30.0)
    assert m["encoder.op_share"] == pytest.approx(0.8)
    assert m["decoder.op_share"] == 0.0
    assert m["encoder.errors"] == 2 and m["decoder.errors"] == 0


def _attrs():
    return {(module, attr): getattr(spans.MODULES[module], attr) for module, attr in spans.WRAPPED}


def _tiny_items():
    pixels = corpus.natural_image(48, 40, 1)
    return [workloads.Item("tiny", pixels, corpus.pgm_bytes(pixels), workloads.TEXTURE_CONFIGS[0])]


def test_traced_run_restores_every_wrapped_attribute():
    before = _attrs()
    traced = run.Run(workloads.WORKLOADS["roundtrip_texture"], _tiny_items(), speed.SpeedGauge(), spans.Tracer())
    traced.loop(0.0)
    assert _attrs() == before
    assert all(not hasattr(fn, "__wrapped__") for fn in before.values())
    assert traced.attempted == 2 and sum(traced.failed_by_layer.values()) == 0
    table = traced.tracer.table()
    recorded = {table.names[i] for i in np.unique(table.name)}
    assert {"encoder.try_phase1", "decoder.apply_map", "bitstream.read_stream", "image.save_pgm"} <= recorded
    assert set(table.op.tolist()) == {2}  # only the second, traced, op left spans
    m = layers.per_layer_metrics(table.scaled(traced.op_scale), traced.traced, traced.tracer.final_deltas,
                                 traced.failed_by_layer, 10, 0.5)
    assert set(m) == {name for name, *_ in layers.PER_LAYER} - set(layers.CALLER_SET)
    assert m["decoder.sweeps"] >= 1 and m["bitstream.leaves"] > 0


def test_setup_prepares_every_item_and_times_each_build(monkeypatch):
    fake = workloads.Workload("fake", "", lambda seed: _tiny_items() * 2, workloads.decode_op, workloads._with_stream)
    monkeypatch.setitem(workloads.WORKLOADS, "fake", fake)
    monkeypatch.setattr(run, "SETUP_MIN_S", 0.0)
    monkeypatch.setattr(run, "keep_freed_memory", lambda: None)  # leave the test process's heap alone
    items, times = run.timed_setup("fake", 1)
    assert len(times) == run.SETUP_MIN_REPEATS and all(t > 0 for t in times)
    assert [it.stream for it in items] == [workloads.encode_op(it).stream for it in _tiny_items() * 2]


def test_wrappers_are_restored_when_the_op_raises():
    before = _attrs()
    tracer = spans.Tracer()
    with pytest.raises(mnscodec.bitstream.StreamFormatError):
        with tracer.traced_op(1):
            mnscodec.bitstream.read_stream(b"MNS1")
    assert _attrs() == before
    table = tracer.table()
    assert (table.end >= table.start).all()


def test_failing_layer_names_the_module_that_raised():
    try:
        mnscodec.bitstream.read_stream(b"XXXX" + bytes(9))
    except mnscodec.bitstream.StreamFormatError as exc:
        assert run.failing_layer(exc) == "bitstream"
    assert run.failing_layer(ValueError("not from the codec")) == "bench"


def test_benchmark_json_matches_the_definitions():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [(w.name, w.why) for w in workloads.WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [p[:3] for p in layers.PER_LAYER]
