"""Rate-distortion sweep harness and domain-offset locality histograms."""

from __future__ import annotations

import csv
import io
import math
import time
from collections import Counter
from dataclasses import dataclass

from . import bitstream
from .bitstream import read_stream
from .decoder import DecodeConfig, decode
from .encoder import EncoderConfig, encode_quadtree
from .image import GrayImage
from .metrics import psnr

RD_CSV_COLUMNS = (
    "mode", "E1", "E2", "E3", "t2", "bits", "bpp", "psnr", "encode_s",
    "leaves_l1", "leaves_l2", "leaves_l3", "leaves_l4", "phase2", "write_s", "read_s", "decode_s",
)


@dataclass(frozen=True)
class RdPoint:
    """One sweep row: config plus measured rate, quality, time, leaf tallies."""

    mode: str
    thresholds: tuple[float, float, float]
    technique2: bool
    bits: int
    bpp: float
    psnr: float
    encode_seconds: float
    leaf_counts: tuple[int, int, int, int]
    phase2_count: int
    write_seconds: float
    read_seconds: float
    decode_seconds: float


def rd_sweep(image: GrayImage, modes, threshold_grid, technique2_options=(True,), *,
             mean_tol: float = 16.0, decode_config: DecodeConfig | None = None) -> list[RdPoint]:
    """Encode, serialize, decode, and measure every config combination.

    threshold_grid entries are either one RMS value applied to all three
    splittable levels or an (E1, E2, E3) triple. Rows come out in grid order
    (modes outer, thresholds, then technique-2 options) and, timing aside,
    are a pure function of the inputs. Each layer has its own timer: encode_quadtree,
    serialization, read_stream and decode.
    PSNR is taken against the original image, so padding pixels never count.
    """
    if not modes or not threshold_grid:
        raise ValueError("rd_sweep needs at least one mode and one threshold entry")
    points: list[RdPoint] = []
    dec_cfg = decode_config if decode_config is not None else DecodeConfig()
    for mode in modes:
        for entry in threshold_grid:
            e1, e2, e3 = (entry, entry, entry) if isinstance(entry, (int, float)) else entry
            for t2 in technique2_options:
                config = EncoderConfig(e1=e1, e2=e2, e3=e3, mean_tol=mean_tol, mode=mode, technique2=t2)
                try:
                    clock = [time.perf_counter()]  # after each layer: encode, write, read, decode
                    code = encode_quadtree(image, config)
                    clock.append(time.perf_counter())
                    blob, bits = bitstream._serialize(code)  # one pass: the stream bytes and their exact bit count
                    clock.append(time.perf_counter())
                    back = read_stream(blob)
                    clock.append(time.perf_counter())
                    decoded = decode(back, dec_cfg)
                    clock.append(time.perf_counter())
                except Exception as exc:
                    raise RuntimeError(
                        f"sweep point failed (mode={mode}, E=({e1:g},{e2:g},{e3:g}), t2={t2}): {exc}"
                    ) from exc
                points.append(RdPoint(
                    mode=mode,
                    thresholds=(float(e1), float(e2), float(e3)),
                    technique2=t2,
                    bits=bits,
                    bpp=bits / (image.width * image.height),
                    psnr=psnr(image, decoded),
                    encode_seconds=clock[1] - clock[0],
                    leaf_counts=code.level_counts(),
                    phase2_count=code.phase2_count(),
                    write_seconds=clock[2] - clock[1],
                    read_seconds=clock[3] - clock[2],
                    decode_seconds=clock[4] - clock[3],
                ))
    return points


def rd_csv(points) -> str:
    """Fixed-column CSV for the sweep rows."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(RD_CSV_COLUMNS)
    for p in points:
        writer.writerow([
            p.mode,
            f"{p.thresholds[0]:g}", f"{p.thresholds[1]:g}", f"{p.thresholds[2]:g}",
            1 if p.technique2 else 0,
            p.bits,
            f"{p.bpp:.6f}",
            "inf" if math.isinf(p.psnr) else f"{p.psnr:.4f}",
            f"{p.encode_seconds:.4f}",
            p.leaf_counts[0], p.leaf_counts[1], p.leaf_counts[2], p.leaf_counts[3],
            p.phase2_count,
            f"{p.write_seconds:.4f}", f"{p.read_seconds:.4f}", f"{p.decode_seconds:.4f}",
        ])
    return buf.getvalue()


@dataclass(frozen=True)
class OffsetHistogram:
    """Joint and per-axis counts of domain-minus-range center offsets."""

    joint: dict
    marginal_x: dict
    marginal_y: dict
    total: int

    def mode_x(self) -> int:
        """x offset with the highest count; ties go to the smaller offset."""
        return min(self.marginal_x, key=lambda k: (-self.marginal_x[k], k))

    def mode_y(self) -> int:
        return min(self.marginal_y, key=lambda k: (-self.marginal_y[k], k))


def offset_histogram(samples) -> OffsetHistogram:
    """Tally the (dx, dy) samples produced by the exhaustive-search encoder."""
    samples = list(samples)
    if not samples:
        raise ValueError("no offset samples")
    joint = Counter(samples)
    marginal_x = Counter(dx for dx, _ in samples)
    marginal_y = Counter(dy for _, dy in samples)
    return OffsetHistogram(dict(joint), dict(marginal_x), dict(marginal_y), len(samples))


def histogram_csv(hist: OffsetHistogram) -> str:
    """Marginal and joint tables in one CSV: section,dx,dy,count."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("section", "dx", "dy", "count"))
    for dx in sorted(hist.marginal_x):
        writer.writerow(("x", dx, "", hist.marginal_x[dx]))
    for dy in sorted(hist.marginal_y):
        writer.writerow(("y", "", dy, hist.marginal_y[dy]))
    for dx, dy in sorted(hist.joint):
        writer.writerow(("joint", dx, dy, hist.joint[(dx, dy)]))
    return buf.getvalue()
