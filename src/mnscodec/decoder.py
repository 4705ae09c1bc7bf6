"""Iterative fixed-point reconstruction of an image from a quadtree code.

A sweep maps a change dD of a block's domain to s * (dD - mean(dD)), which can
reach 2 * |s| * max|dD|, so nothing bounds in advance how fast, or whether,
sweeps settle; decode stops at its stop test or after max_iters sweeps, and a
128x128 noise image's code reaches the cap. Sweeps are Jacobi style: each block
reads only the previous raster and writes its own disjoint region of the next,
which keeps the result independent of leaf order. Sweep 1 is painted as each
block's o, and the stop test samples rows first. Rasters, contrasts and offsets
are float32, which halves the bytes each memory-bound sweep moves; the pinned
test codes decode within one gray of a float64 decode. Blocks are addressed by
flat origins. Every run of blocks is mapped by one apply_map call and written
by _paint, which writes a 2x2 run as four flat pixel planes, since fancy
indexing costs ~50 ns per block on a window view, more than a 2x2 block's map.
decode first checks each code with code.check_code, as the writer does.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .code import CONTRAST_SETS, PHASE2, SEARCH, QuadtreeCode, check_code, co_domain_origins, phase2_targets, quadrants
from .image import GrayImage, flat_windows, parity_sums
from .image import downsample_mean2  # noqa: F401 (traced by perfbench)
from .transform import apply_map, dequantize_contrast

START_VALUE = 128.0  # every pixel of the raster the first sweep reads
STOP_SAMPLE_ROWS = 8  # the stop test looks at every 8th row before it takes the whole change


@dataclass(frozen=True)
class DecodeConfig:
    max_iters: int = 10
    stop_delta: float = 0.5  # stop once no pixel moves by this much per sweep

    def __post_init__(self) -> None:
        if not isinstance(self.max_iters, (int, np.integer)) or isinstance(self.max_iters, bool) or self.max_iters < 1:
            raise ValueError(f"max_iters must be an integer >= 1, not {self.max_iters!r}")
        if not isinstance(delta := self.stop_delta, numbers.Real) or isinstance(delta, bool) or math.isnan(delta):
            raise ValueError(f"stop_delta must be a real number other than a bool or NaN, not {delta!r}")


class _Plan(NamedTuple):
    """What every sweep of one code paints, as runs of blocks that share a side and a domain source.
    A run is (k, source, t, f, s, o): the side, the source, the (n,) flat block origins y * w + x on
    the raster, the (n,) flat origins to gather the domains' 2x2 sums at, and s / 4 and o as (n,)
    float32. The source is a parity (dy % 2, dx % 2), for a run gathered from that parity's half-size
    sums at the halved domain origins (dy // 2, dx // 2), or None, for one gathered from the raster
    itself at the domain origins (dy, dx). Runs are sorted by side, then by source."""

    shape: tuple[int, int]  # padded (h, w)
    parities: list[tuple[int, int]]  # the parities that get half-size sums
    runs: list[tuple]


def _plan(code: QuadtreeCode) -> _Plan:
    """Plan every painted block, one per phase-1 or search leaf and four per phase-2 leaf, of a code that
    code.check_code accepts, as decode checks it."""
    w, h, t = code.padded_w, code.padded_h, code.leaves
    p2 = t.kind == PHASE2
    pairs = np.array([CONTRAST_SETS[level] for level in (1, 2, 3)])
    xy, k, domain = (a.astype(np.int32) for a in (t.xy, t.size, t.domain[:, :2]))  # a valid code's values fit
    qx, qy = quadrants(xy[p2], k[p2]).T
    x, y = np.concatenate([xy[~p2, 0], qx], dtype=np.int32), np.concatenate([xy[~p2, 1], qy], dtype=np.int32)
    k = np.concatenate([k[~p2], (k[p2] // 2).repeat(4)])
    s = np.concatenate([dequantize_contrast(t.s_code[~p2]), pairs[t.level[p2, None] - 1, t.s_bits[p2]].ravel()])
    o = np.concatenate([t.o_byte[~p2], np.stack(phase2_targets(t.o_byte[p2], t.deltas[p2].T), axis=1).ravel()])
    dx, dy = np.concatenate([domain[~p2], np.zeros((len(qx), 2), np.int32)]).T
    co = np.concatenate([t.kind[~p2] != SEARCH, np.full(len(qx), True)])  # co-centered domains
    dx[co], dy[co] = co_domain_origins(x[co], y[co], k[co], w, h)
    # s is quartered, which commutes with every rounding in the map, so sweeps map 2x2 sums as means
    s, o = (s * 0.25).astype(np.float32), o.astype(np.float32)
    # a parity whose blocks cover under 1/16 of the raster gets no half-size sums: gathering their
    # domains from the raster itself (run 4) costs less than building them
    parity = 2 * (dy % 2) + dx % 2
    run = np.where(np.bincount(parity, weights=k * k, minlength=4)[parity] * 16 >= h * w, parity, 4)
    halve = run < 4  # a parity's runs gather at the halved domain origins, in a (w - dx % 2) // 2 wide raster
    t = y.astype(np.intp) * w + x
    f = (dy >> halve) * np.where(halve, (w - dx % 2) // 2, w).astype(np.intp) + (dx >> halve)
    order = np.lexsort((run, k))
    k, run, t, f, s, o = (a[order] for a in (k, run, t, f, s, o))
    cuts = np.flatnonzero((np.diff(k) != 0) | (np.diff(run) != 0)) + 1
    runs = [(int(side[0]), None if g[0] == 4 else divmod(int(g[0]), 2), *rest)
            for side, g, *rest in zip(*(np.split(a, cuts) for a in (k, run, t, f, s, o)))]
    return _Plan((h, w), [divmod(g, 2) for g in range(4) if (run == g).any()], runs)


def decode_step(plan: _Plan, current: np.ndarray, out: np.ndarray) -> np.ndarray:
    """One Jacobi sweep of the padded-size raster `current`, read as float32, into `out`, a C-contiguous
    float32 raster of the same shape that shares no memory with `current`; returns `out`. `current` is
    never written. `plan` is _plan(code), as decode builds it.

    Each domain-origin parity the plan names gets one half-size raster of the 2x2 sums of `current`
    (image.parity_sums). Per run, the domains' sums are gathered into a fresh (n, k, k) array: windows
    of the parity's raster, or the windows' sums on `current` for a run with none. One apply_map call
    maps it in place, with s quartered so that sums act as 2x2 means, and _paint writes it into `out`.
    A 2x2 run with a parity skips the windows, whose fancy indexing costs ~50 ns a block: it takes its
    four sums as the four flat planes of a (4, n) array and maps its (n, 2, 2) view. The view's 2x2
    axes fold into one strided axis of four, so apply_map adds the four sums in a contiguous block's
    order, and the pixels are the same bit for bit."""
    cur = np.ascontiguousarray(current, dtype=np.float32)
    if cur.shape != plan.shape:
        raise ValueError(f"raster shape {cur.shape} does not match padded {plan.shape[0]}x{plan.shape[1]}")
    if (out.shape, out.dtype) != (plan.shape, np.float32) or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous float32 raster of shape {plan.shape}")
    if np.may_share_memory(cur, out):
        raise ValueError("out must not overlap the raster the sweep reads")
    sums = {parity: parity_sums(cur, *parity) for parity in plan.parities}
    for k, source, t, f, s, o in plan.runs:
        if source is None:
            d = parity_sums(flat_windows(cur, 2 * k)[f], 0, 0)
        elif k == 2:
            p = np.empty((4, len(f)), np.float32)
            for plane, row in zip(_planes(sums[source]), p):
                plane.take(f, out=row)
            d = p.T.reshape(-1, 2, 2)
        else:
            d = flat_windows(sums[source], k)[f]
        _paint(out, k, t, apply_map(d, s[:, None, None], o[:, None, None], d))
    return out


def _paint(out: np.ndarray, k: int, t: np.ndarray, v: np.ndarray) -> None:
    """Write the k x k blocks v, an (n, k, k) stack or an (n, 1, 1) one of flat blocks, at the flat origins
    t of the C-contiguous raster `out`: a 2x2 run as four flat pixel planes, any other through windows."""
    if k != 2:
        flat_windows(out, k)[t] = v
        return
    rows = v.reshape(len(t), -1).T  # the four planes, or one that every plane takes
    for i, plane in enumerate(_planes(out)):
        plane[t] = rows[i % len(rows)]


def _planes(a: np.ndarray) -> tuple[np.ndarray, ...]:
    """The flattened C-contiguous 2-D array `a` from each pixel of a 2x2 block on: TL, TR, BL, BR, so
    that a block's flat origin picks that pixel in each."""
    flat, w = a.ravel(), a.shape[1]
    return flat, flat[1:], flat[w:], flat[w + 1 :]


def _moved(a: np.ndarray, b: np.ndarray, diff: np.ndarray, step: int) -> float:
    """max |a - b| over every step-th row, taken into the same rows of `diff`."""
    change = np.subtract(a[::step], b[::step], out=diff[::step])
    return float(max(change.max(), -change.min()))  # skips the pass that np.abs would write


def decode(code: QuadtreeCode, config: DecodeConfig | None = None) -> GrayImage:
    """Iterate decode_step from a flat raster of START_VALUE, then round once and crop.

    Sweep 1 is a DC paint, which counts toward max_iters: the mean-removed maps take a flat raster
    to each block's o, clamped into [0, 255], so painting that is decode_step's sweep bit for bit.
    The sweeps alternate between two float32 rasters, and one more buffer takes each sweep's change and then
    the rounding, so the last sweep's input and output are left as they were. Only a sweep whose change on
    every STOP_SAMPLE_ROWS-th row is under stop_delta takes the whole change. A code that code.check_code
    rejects raises its ValueError first, before the plan or any raster."""
    cfg = config if config is not None else DecodeConfig()
    check_code(code)
    plan = _plan(code)
    current = np.full(plan.shape, START_VALUE, np.float32)
    nxt, diff = current.copy(), np.empty_like(current)
    for k, _, t, _, _, o in plan.runs:  # sweep 1, the DC paint: a flat raster maps every domain to 0 * s + o
        _paint(nxt, k, t, np.clip(o, 0.0, 255.0)[:, None, None])
    for sweep in range(cfg.max_iters):
        if sweep:
            decode_step(plan, current, nxt)
        current, nxt = nxt, current
        if all(_moved(current, nxt, diff, rows) < cfg.stop_delta for rows in (STOP_SAMPLE_ROWS, 1)):
            break
    rounded = np.floor(np.add(current, 0.5, out=diff), out=diff)[: code.orig_h, : code.orig_w]
    return GrayImage(np.clip(rounded, 0.0, 255.0, out=rounded).astype(np.uint8))
