"""Span tracing of the codec's layer calls, installed from outside the codec.

A Tracer replaces module attributes that the codec's callers look up at call
time (for instance `mnscodec.encoder.try_phase1`, which `encode_quadtree`
calls through its module globals) with wrappers that record one span per
call: name, start, end, parent span and op id. The wrappers are installed
only for the duration of one traced op and restored afterwards, so untimed
and untraced code never sees them. Spans stay in memory as flat arrays until
the run ends.
"""

from __future__ import annotations

import contextlib
import dataclasses
import time
from array import array
from dataclasses import dataclass

import numpy as np

import mnscodec.bitstream
import mnscodec.decoder
import mnscodec.encoder
import mnscodec.image

# (module, attribute) pairs that get a span per call. The image/transform
# helpers are wrapped where the encoder and decoder look them up, so their
# spans say which caller they served.
WRAPPED = (
    ("image", "load_pgm"),
    ("image", "save_pgm"),
    ("encoder", "encode_quadtree"),
    ("encoder", "encode_local_search"),
    ("encoder", "encode_full_search"),
    ("encoder", "try_phase1"),
    ("encoder", "try_phase2"),
    ("encoder", "pad_to_multiple"),
    ("encoder", "downsample_mean2"),
    ("encoder", "fit_affine"),
    ("encoder", "rms_error"),
    ("bitstream", "write_stream"),
    ("bitstream", "read_stream"),
    ("decoder", "decode"),
    ("decoder", "decode_step"),
    ("decoder", "downsample_mean2"),
    ("decoder", "apply_map"),
)
MODULES = {
    "image": mnscodec.image,
    "encoder": mnscodec.encoder,
    "bitstream": mnscodec.bitstream,
    "decoder": mnscodec.decoder,
}
OP_SPAN = "op"


@dataclass
class SpanTable:
    """Recorded spans as parallel numpy arrays; `parent` is -1 for op spans."""

    names: list[str]  # span name by name id
    name: np.ndarray
    start: np.ndarray
    end: np.ndarray
    parent: np.ndarray
    op: np.ndarray
    tag: np.ndarray  # level * 2 + accepted for try_phase1/try_phase2 spans, else 0

    @property
    def duration(self) -> np.ndarray:
        return self.end - self.start

    def scaled(self, op_scale: dict[int, float]) -> "SpanTable":
        """Copy with each span's times multiplied by its op's speed scale."""
        factor = np.array([op_scale[op] for op in self.op.tolist()], dtype=np.float64)
        return dataclasses.replace(self, start=self.start * factor, end=self.end * factor)

    def mask(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(len(self.name), dtype=bool)
        return self.name == self.names.index(name)


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the time its direct children cover.

    Children of one parent never overlap (the codec is single-threaded), so
    summing their durations gives the covered part of the parent's interval.
    """
    duration = end - start
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=len(duration))
    return duration - covered


def _phase_tag(args, kwargs, result) -> int:
    level = args[2] if len(args) > 2 else kwargs["level"]
    return 2 * level + (result[0] is not None)


class Tracer:
    """Records spans for the ops run inside `traced_op()`."""

    def __init__(self) -> None:
        self.names = [f"{module}.{attr}" for module, attr in WRAPPED] + [OP_SPAN]
        self._name = array("i")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("i")
        self._op = array("i")
        self._tag = array("i")
        self._stack = [-1]
        self._op_id = -1
        self._last_sweep = None
        self.final_deltas: dict[int, float] = {}  # op id -> last decode sweep's max pixel change

    def _open(self, name_id: int) -> int:
        idx = len(self._name)
        self._name.append(name_id)
        self._parent.append(self._stack[-1])
        self._op.append(self._op_id)
        self._tag.append(0)
        self._end.append(0.0)
        self._stack.append(idx)
        self._start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self._end[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name_id: int, fn, attr: str):
        open_span, close_span, tags = self._open, self._close, self._tag
        tagged = attr in ("try_phase1", "try_phase2")
        keeps_sweep = attr == "decode_step"

        def traced(*args, **kwargs):
            idx = open_span(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                close_span(idx)
            if tagged:
                tags[idx] = _phase_tag(args, kwargs, result)
            elif keeps_sweep:  # decode_step returns a fresh raster; keep references only
                self._last_sweep = (args[1], result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def traced_op(self, op_id: int):
        """Install every wrapper, open an op span, and restore it all on exit."""
        originals = [(MODULES[module], attr, getattr(MODULES[module], attr)) for module, attr in WRAPPED]
        self._op_id = op_id
        self._last_sweep = None
        idx = self._open(self.names.index(OP_SPAN))
        try:
            for name_id, (module, attr, fn) in enumerate(originals):
                setattr(module, attr, self._wrap(name_id, fn, attr))
            yield
        finally:
            for module, attr, fn in originals:
                setattr(module, attr, fn)
            self._close(idx)
            self._op_id = -1
        if self._last_sweep is not None:
            before, after = self._last_sweep
            self.final_deltas[op_id] = float(np.max(np.abs(after - before)))
            self._last_sweep = None

    def table(self) -> SpanTable:
        return SpanTable(
            self.names,
            np.array(self._name, dtype=np.int64),
            np.array(self._start, dtype=np.float64),
            np.array(self._end, dtype=np.float64),
            np.array(self._parent, dtype=np.int64),
            np.array(self._op, dtype=np.int64),
            np.array(self._tag, dtype=np.int64),
        )


def save_spans(table: SpanTable, op_scale: dict[int, float], path) -> None:
    """Write every span, as measured, to an .npz file: names (by name id), name,
    start, end, parent, op and tag per span, plus each op's speed scale."""
    ops = sorted(op_scale)
    np.savez(path, names=np.array(table.names), name=table.name, start=table.start, end=table.end,
             parent=table.parent, op=table.op, tag=table.tag,
             scale_op=np.array(ops, dtype=np.int64), scale=np.array([op_scale[op] for op in ops]))
