"""Command-line front end: encode, decode, metrics, bench rd, analyze offsets.

Exit codes: 0 success, 1 data/file errors, 2 usage errors (argparse).
Output files are written to a temp file and renamed, so a failing run never
leaves a partial file behind.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import tempfile

from .bench import histogram_csv, offset_histogram, rd_csv, rd_sweep
from .bitstream import StreamFormatError, read_stream, write_stream
from .decoder import DecodeConfig, decode
from .encoder import EncoderConfig, encode_full_search, encode_quadtree
from .image import PgmFormatError, load_pgm, save_pgm
from .metrics import mse, psnr

_MODE_NAMES = {"ns": "no_search", "mns": "mns"}


def _read_pgm_file(path: str):
    with open(path, "rb") as fh:
        return load_pgm(fh.read())


def _write_atomic(path: str, data: bytes) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".mnscodec-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)  # mkstemp defaults to 0600
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _cmd_encode(args) -> int:
    image = _read_pgm_file(args.in_path)
    config = EncoderConfig(
        e1=args.e1, e2=args.e2, e3=args.e3, mean_tol=args.tmean,
        mode=_MODE_NAMES[args.mode], technique2=args.technique2 == "on",
    )
    blob = write_stream(encode_quadtree(image, config))
    _write_atomic(args.out_path, blob)
    print(f"wrote {len(blob)} bytes to {args.out_path}")
    return 0


def _cmd_decode(args) -> int:
    with open(args.in_path, "rb") as fh:
        code = read_stream(fh.read())
    image = decode(code, DecodeConfig(max_iters=args.iters, stop_delta=args.stop_delta))
    _write_atomic(args.out_path, save_pgm(image))
    print(f"wrote {image.width}x{image.height} image to {args.out_path}")
    return 0


def _cmd_metrics(args) -> int:
    a = _read_pgm_file(args.a)
    b = _read_pgm_file(args.b)
    quality = psnr(a, b)
    print(f"MSE {mse(a, b):.6g}")
    print(f"PSNR {'inf' if math.isinf(quality) else f'{quality:.4f}'} dB")
    return 0


def _cmd_bench_rd(args) -> int:
    image = _read_pgm_file(args.in_path)
    modes = []
    for name in args.modes.split(","):
        name = name.strip()
        if name not in _MODE_NAMES:
            raise ValueError(f"unknown mode {name!r} (expected ns or mns)")
        modes.append(_MODE_NAMES[name])
    try:
        grid = [float(tok) for tok in args.e_grid.split(",")]
    except ValueError:
        raise ValueError(f"invalid --e-grid {args.e_grid!r} (expected comma-separated numbers)")
    t2_options = {"on": (True,), "off": (False,), "both": (True, False)}[args.technique2]
    points = rd_sweep(image, modes, grid, t2_options, mean_tol=args.tmean)
    _write_atomic(args.csv, rd_csv(points).encode())
    print(f"wrote {len(points)} sweep rows to {args.csv}")
    return 0


def _cmd_analyze_offsets(args) -> int:
    image = _read_pgm_file(args.in_path)
    config = EncoderConfig(full_search_step=args.stride)
    _, samples = encode_full_search(image, args.range_size, config)
    _write_atomic(args.csv, histogram_csv(offset_histogram(samples)).encode())
    print(f"wrote offset histogram of {len(samples)} ranges to {args.csv}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mnscodec",
        description="Grayscale fractal codec with no-search and modified no-search quadtree encoding.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    enc = sub.add_parser("encode", help="compress a PGM image into a .mns stream")
    enc.add_argument("--in", dest="in_path", required=True, metavar="X.pgm")
    enc.add_argument("--out", dest="out_path", required=True, metavar="X.mns")
    enc.add_argument("--mode", choices=("ns", "mns"), default="mns")
    enc.add_argument("--e1", type=float, default=8.0, help="level-1 RMS tolerance")
    enc.add_argument("--e2", type=float, default=8.0, help="level-2 RMS tolerance")
    enc.add_argument("--e3", type=float, default=8.0, help="level-3 RMS tolerance")
    enc.add_argument("--tmean", type=float, default=16.0, help="phase-2 quadrant-mean gate")
    enc.add_argument("--technique2", choices=("on", "off"), default="on",
                     help="share level ids across level-4 quartets")
    enc.set_defaults(func=_cmd_encode)

    dec = sub.add_parser("decode", help="reconstruct a PGM image from a .mns stream")
    dec.add_argument("--in", dest="in_path", required=True, metavar="X.mns")
    dec.add_argument("--out", dest="out_path", required=True, metavar="Y.pgm")
    dec.add_argument("--iters", type=int, default=10)
    dec.add_argument("--stop-delta", type=float, default=0.5)
    dec.set_defaults(func=_cmd_decode)

    met = sub.add_parser("metrics", help="print MSE and PSNR between two PGM images")
    met.add_argument("--a", required=True, metavar="A.pgm")
    met.add_argument("--b", required=True, metavar="B.pgm")
    met.set_defaults(func=_cmd_metrics)

    bench = sub.add_parser("bench", help="benchmark harnesses")
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)
    rd = bench_sub.add_parser("rd", help="rate-distortion sweep to CSV")
    rd.add_argument("--in", dest="in_path", required=True, metavar="X.pgm")
    rd.add_argument("--modes", default="ns,mns", help="comma-separated: ns,mns")
    rd.add_argument("--e-grid", dest="e_grid", default="4,6,8,12",
                    help="comma-separated RMS thresholds, applied to all levels")
    rd.add_argument("--csv", required=True, metavar="out.csv")
    rd.add_argument("--technique2", choices=("on", "off", "both"), default="on")
    rd.add_argument("--tmean", type=float, default=16.0)
    rd.set_defaults(func=_cmd_bench_rd)

    analyze = sub.add_parser("analyze", help="analysis utilities")
    analyze_sub = analyze.add_subparsers(dest="analyze_command", required=True)
    offsets = analyze_sub.add_parser("offsets", help="full-search offset histogram to CSV")
    offsets.add_argument("--in", dest="in_path", required=True, metavar="X.pgm")
    offsets.add_argument("--range-size", dest="range_size", type=int, default=8)
    offsets.add_argument("--stride", type=int, default=1)
    offsets.add_argument("--csv", required=True, metavar="hist.csv")
    offsets.set_defaults(func=_cmd_analyze_offsets)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (PgmFormatError, StreamFormatError, ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
