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
flat origins. A run of blocks of side 4 or less holding at least PLANE_RUN
blocks per pixel of a block sweeps as pixel planes, the block axis last: a take
(image.gather_planes), a map over (n,) rows and a write per pixel of a block,
since fancy indexing costs ~50 ns per block on a window view, more than a small
block's map. Any other run is gathered, mapped by one apply_map call and written
through windows (image.flat_windows). decode first checks each code with
code.check_code, as the writer does.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .code import CONTRAST_SETS, PHASE2, SEARCH, QuadtreeCode, check_code, co_domain_origins, phase2_targets, quadrants
from .image import GrayImage, flat_windows, gather_planes, parity_sums, pixel_planes
from .image import downsample_mean2  # noqa: F401 (traced by perfbench)
from .transform import apply_map, dequantize_contrast

START_VALUE = 128.0  # every pixel of the raster the first sweep reads
STOP_SAMPLE_ROWS = 8  # the stop test looks at every 8th row before it takes the whole change
# a run of side k <= PLANE_SIDE sweeps as pixel planes from PLANE_RUN * k * k blocks on, near where planes measured as
# fast as windows: ~40 blocks of side 2 gathered from half-size sums, ~120 from the raster, and ~230 of side 4
PLANE_SIDE, PLANE_RUN = 4, 16


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


def _plan(code: QuadtreeCode, columns: np.ndarray | None = None) -> _Plan:
    """Plan every painted block, one per phase-1 or search leaf and four per phase-2 leaf, of a valid code from its
    int32 columns as code.check_code returns them (decode's own check; without them, _plan checks the code)."""
    w, h = code.padded_w, code.padded_h
    (level, kind, x, y, k, o_byte, s_code), deltas, s_bits, (dx, dy, _) = np.split(
        check_code(code)[0] if columns is None else columns, [7, 10, 14])
    s, o, co = dequantize_contrast(s_code), o_byte, kind != SEARCH  # co: co-centered domains
    if (p2 := kind == PHASE2).any():  # a phase-2 leaf paints its four quadrants, each co-centered
        q, pairs = ~p2, np.array([CONTRAST_SETS[i] for i in (1, 2, 3)])
        qx, qy = quadrants(np.stack([x[p2], y[p2]], axis=1), k[p2]).T
        none = np.zeros(len(qx), np.int32)  # the quadrants store no domain
        x, y, dx, dy = (np.concatenate([a[q], b], dtype=np.int32) for a, b in zip((x, y, dx, dy), (qx, qy, none, none)))
        k = np.concatenate([k[q], (k[p2] // 2).repeat(4)])
        s = np.concatenate([s[q], pairs[level[p2, None] - 1, s_bits[:, p2].T].ravel()])
        o = np.concatenate([o[q], np.stack(phase2_targets(o_byte[p2], deltas[:, p2]), axis=1).ravel()])
        co = np.concatenate([co[q], np.ones(len(qx), bool)])
    dx, dy = (np.where(co, c, stored) for c, stored in zip(co_domain_origins(x, y, k, w, h), (dx, dy)))
    # s is quartered, which commutes with every rounding in the map, so sweeps map 2x2 sums as means
    s, o = (s * 0.25).astype(np.float32), o.astype(np.float32)
    # a parity whose blocks cover under 1/16 of the raster gets no half-size sums: gathering their
    # domains from the raster itself (source 4) costs less than building them
    parity = 2 * (dy % 2) + dx % 2
    source = np.where(np.bincount(parity, weights=k * k, minlength=4)[parity] * 16 >= h * w, parity, 4)
    halve = source < 4  # a parity's runs gather at the halved domain origins, in a (w - dx % 2) // 2 wide raster
    t = y.astype(np.intp) * w + x
    f = (dy >> halve) * np.where(halve, (w - dx % 2) // 2, w).astype(np.intp) + (dx >> halve)
    # one sort on side, then source, and each run a slice of its key's count; k is 2, 4, 8 or 16 in a valid
    # code, so the key fits a byte, which argsort sorts by radix
    key = (5 * k + source).astype(np.uint8)
    order = np.argsort(key, kind="stable")
    t, f, s, o = t[order], f[order], s[order], o[order]
    runs, end = [], 0
    for g, n in enumerate(np.bincount(key).tolist()):
        if n:
            run = slice(end, end := end + n)
            runs.append((g // 5, None if g % 5 == 4 else divmod(g % 5, 2), t[run], f[run], s[run], o[run]))
    return _Plan((h, w), sorted({run[1] for run in runs} - {None}), runs)


def _as_planes(k: int, n: int) -> bool:
    """Whether a run of n blocks of side k sweeps as k * k pixel planes rather than through windows."""
    return k <= PLANE_SIDE and n >= PLANE_RUN * k * k


def decode_step(plan: _Plan, current: np.ndarray, out: np.ndarray) -> np.ndarray:
    """One Jacobi sweep of the padded-size raster `current`, read as float32, into `out`, a C-contiguous
    float32 raster of the same shape that shares no memory with `current`; returns `out`. `current` is
    never written. `plan` is _plan(code), as decode builds it.

    Each domain-origin parity the plan names gets one half-size raster of the 2x2 sums of `current`
    (image.parity_sums). A run that _as_planes names sweeps as pixel planes, the block axis last: its
    domains' sums are k * k rows of n, image.gather_planes at f on the parity's raster (or the windows'
    sums on `current`, transposed, for a run with no parity), mapped by _map_planes and written back by
    _paint a row per pixel. Any other run gathers its domains' sums into a fresh (n, k, k) array, as
    windows of the parity's raster or the windows' sums on `current`, maps it in place with one apply_map
    call and is written by _paint through windows. s is quartered, so that sums act as 2x2 means, and
    both ways give the same pixels bit for bit."""
    cur = np.ascontiguousarray(current, dtype=np.float32)
    if cur.shape != plan.shape:
        raise ValueError(f"raster shape {cur.shape} does not match padded {plan.shape[0]}x{plan.shape[1]}")
    if (out.shape, out.dtype) != (plan.shape, np.float32) or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous float32 raster of shape {plan.shape}")
    if np.may_share_memory(cur, out):
        raise ValueError("out must not overlap the raster the sweep reads")
    sums = {parity: parity_sums(cur, *parity) for parity in plan.parities}
    for k, source, t, f, s, o in plan.runs:
        planes = _as_planes(k, len(t))
        if source is None:
            d = parity_sums(flat_windows(cur, 2 * k)[f], 0, 0)
            d = d.reshape(len(f), -1).T if planes else d
        elif planes:
            d = gather_planes(sums[source], f, k)
        else:
            d = flat_windows(sums[source], k)[f]
        _paint(out, k, t, _map_planes(d, s, o) if planes else apply_map(d, s[:, None, None], o[:, None, None], d))
    return out


def _map_planes(d: np.ndarray, s: np.ndarray, o: np.ndarray) -> np.ndarray:
    """apply_map, in place, of the blocks whose k * k pixel planes are the rows of d, with s and o as (n,) rows. Each
    block's sum adds the rows in the order np.add.reduce adds a contiguous k x k block (_reduce_order), so the
    pixels are apply_map's bit for bit."""
    mean = _reduce_order(d)
    mean /= len(d)
    np.subtract(d, mean, out=d)
    d *= s
    d += o
    return np.clip(d, 0.0, 255.0, out=d)


def _reduce_order(d: np.ndarray) -> np.ndarray:
    """The sum of the rows of d, added as numpy's pairwise sum adds a contiguous run of len(d) terms, which is how
    np.add.reduce sums each block of a contiguous (n, k, k) float32 stack: one by one below 8 terms; from 8, into
    eight accumulators in turn, then ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), then the leftover terms;
    over 128 terms, as the sum of its two halves, the first cut to a multiple of 8."""
    n = len(d)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _reduce_order(d[:half]) + _reduce_order(d[half:])
    if n < 8:
        total = d[0].copy()
        for row in d[1:]:
            total += row
        return total
    r = d[:8].copy()
    for i in range(8, n - n % 8, 8):
        r += d[i : i + 8]
    r = r[0::2] + r[1::2]  # r0 + r1, r2 + r3, r4 + r5 and r6 + r7
    total = (r[0] + r[1]) + (r[2] + r[3])
    for row in d[n - n % 8 :]:
        total += row
    return total


def _paint(out: np.ndarray, k: int, t: np.ndarray, v: np.ndarray) -> None:
    """Write n k x k blocks at the flat origins t of the C-contiguous raster `out`: v is the run's mapped pixels,
    as (k * k, n) pixel planes for a run that _as_planes names, written a plane at a time, and as an (n, k, k)
    stack for any other, written through windows; or an (n,) row of one value per block, as the DC paint writes."""
    planes = _as_planes(k, len(t))
    if v.ndim == 1:
        v = v[None] if planes else v[:, None, None]
    if not planes:
        flat_windows(out, k)[t] = v
        return
    for i, plane in enumerate(pixel_planes(out, k)):
        plane[t] = v[i % len(v)]


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
    plan = _plan(code, check_code(code)[0])
    current = np.full(plan.shape, START_VALUE, np.float32)
    nxt, diff = current.copy(), np.empty_like(current)
    for k, _, t, _, _, o in plan.runs:  # sweep 1, the DC paint: a flat raster maps every domain to 0 * s + o
        _paint(nxt, k, t, np.clip(o, 0.0, 255.0))
    for sweep in range(cfg.max_iters):
        if sweep:
            decode_step(plan, current, nxt)
        current, nxt = nxt, current
        if all(_moved(current, nxt, diff, rows) < cfg.stop_delta for rows in (STOP_SAMPLE_ROWS, 1)):
            break
    # the DC paint and apply_map clip every pixel into [0, 255], so the cast's truncation is floor(x + 0.5) <= 255
    return GrayImage(np.add(current, 0.5, out=diff)[: code.orig_h, : code.orig_w].astype(np.uint8))
