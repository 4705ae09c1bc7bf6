"""The four workloads: seeded set-up, the timed op, and the off-the-clock checks.

Ops call the codec through module attributes (`image.load_pgm`, ...), looked
up at call time, so the tracer in spans.py can wrap them from outside.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from mnscodec import bitstream, decoder, encoder, image, metrics
from mnscodec.decoder import DecodeConfig
from mnscodec.encoder import EncoderConfig, QuadtreeCode
from mnscodec.image import GrayImage

from . import corpus

DECODE_CONFIG = DecodeConfig()
PHOTO_CONFIG = EncoderConfig(e1=8, e2=8, e3=8, mean_tol=16, mode="mns", technique2=True)
TEXTURE_CONFIGS = (
    EncoderConfig(e1=4, e2=4, e3=4, mode="mns", technique2=True),
    EncoderConfig(e1=8, e2=8, e3=8, mode="no_search", technique2=False),
    EncoderConfig(),
)
SEARCH_CONFIG = EncoderConfig(full_search_step=1)
FULL_SEARCH_RANGE = 8
LOCAL_SEARCH_RANGE = 8  # encode_local_search codes 8x8 ranges
LOCAL_SEARCH_CANDIDATES = 81


@dataclass(frozen=True)
class Item:
    """One corpus image with the settings its op uses."""

    name: str
    original: np.ndarray  # uint8 pixels the generator made
    pgm: bytes
    config: EncoderConfig
    search: str = ""  # "local" or "full" on search_baseline
    stream: bytes = b""  # .mns input of decode_photo, encoded during set-up

    @property
    def pixels(self) -> int:
        return self.original.size


@dataclass(frozen=True)
class Output:
    code: QuadtreeCode
    stream: Optional[bytes] = None  # .mns bytes the op wrote or read
    pgm: Optional[bytes] = None  # decoded image as PGM bytes

    def digests(self) -> tuple[bytes, bytes]:
        """(code digest, decoded-image digest); repeats of one item must agree."""
        code_bytes = self.stream if self.stream is not None else repr(self.code.leaves).encode()
        return hashlib.sha256(code_bytes).digest(), hashlib.sha256(self.pgm or b"").digest()


@dataclass
class Evaluation:
    failures: list[tuple[str, str]]  # (layer, what failed)
    bits: int = 0
    psnr_db: float = math.nan
    digest: bytes = b""  # code bytes plus decoded pixels, for the workload digest


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup: Callable[[int], list[Item]]  # builds the corpus from the seed
    op: Callable[[Item], Output]
    prepare: Optional[Callable[[Item], Item]] = None  # codec calls set-up makes on each corpus item


def _items(images, configs) -> list[Item]:
    return [Item(name, px, corpus.pgm_bytes(px), cfg) for (name, px), cfg in zip(images, configs)]


def _photo_setup(seed: int) -> list[Item]:
    images = corpus.photo_images(seed)
    return _items(images, [PHOTO_CONFIG] * len(images))


def _with_stream(item: Item) -> Item:
    return dataclasses.replace(item, stream=encode_op(item).stream)


def _texture_setup(seed: int) -> list[Item]:
    return _items(corpus.texture_images(seed), TEXTURE_CONFIGS)


def _search_setup(seed: int) -> list[Item]:
    # One local search, then two full searches: with two of every three ops
    # in the fast cluster, the median op sits inside a cluster instead of in
    # the gap between a ~20 ms and a ~1.2 s op.
    local, *full = _items(corpus.search_images(seed), [SEARCH_CONFIG] * 3)
    return [dataclasses.replace(local, search="local")] + [dataclasses.replace(it, search="full") for it in full]


def encode_op(item: Item) -> Output:
    code = encoder.encode_quadtree(image.load_pgm(item.pgm), item.config)
    return Output(code, stream=bitstream.write_stream(code))


def decode_op(item: Item) -> Output:
    code = bitstream.read_stream(item.stream)
    return Output(code, stream=item.stream, pgm=image.save_pgm(decoder.decode(code, DECODE_CONFIG)))


def roundtrip_op(item: Item) -> Output:
    code = encoder.encode_quadtree(image.load_pgm(item.pgm), item.config)
    blob = bitstream.write_stream(code)
    decoded = decoder.decode(bitstream.read_stream(blob), DECODE_CONFIG)
    return Output(code, stream=blob, pgm=image.save_pgm(decoded))


def search_op(item: Item) -> Output:
    img = image.load_pgm(item.pgm)
    if item.search == "local":
        return Output(encoder.encode_local_search(img, item.config))
    code, _ = encoder.encode_full_search(img, FULL_SEARCH_RANGE, item.config)
    return Output(code)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "encode_photo",
            "default mns encode of photo-like 512x512 and padded 500x375 images: the encoder does ~93% of the op, "
            "the decoder nothing",
            _photo_setup,
            encode_op,
        ),
        Workload(
            "decode_photo",
            "read and decode the encode_photo streams: the decoder does ~97% of the op over ~9 sweeps, the encoder "
            "nothing",
            _photo_setup,
            decode_op,
            _with_stream,
        ),
        Workload(
            "roundtrip_texture",
            "full round trip on small images with ~0.25 leaves per pixel, so per-leaf costs in every layer dominate",
            _texture_setup,
            roundtrip_op,
        ),
        Workload(
            "search_baseline",
            "81-candidate local search on a 128x128 scene and dense full search on 64x64 crops: code paths no other "
            "workload runs",
            _search_setup,
            search_op,
        ),
    )
}


def _nominal_search_bits(item: Item, code: QuadtreeCode) -> int:
    """Size of a search code stored with a fixed-width domain index per range.

    Search codes have no .mns encoding; this charges each range its 8+3
    payload bits plus log2 of the candidate count, on top of the header.
    """
    if item.search == "local":
        candidates = LOCAL_SEARCH_CANDIDATES
    else:
        side = 2 * FULL_SEARCH_RANGE
        candidates = (code.padded_w - side + 1) * (code.padded_h - side + 1)
    index_bits = math.ceil(math.log2(candidates))
    return 8 * bitstream.HEADER_BYTES + len(code.leaves) * (11 + index_bits)


def evaluate(item: Item, out: Output) -> Evaluation:
    """Check one op's output and measure its rate and quality, off the clock."""
    failures: list[tuple[str, str]] = []

    def check(layer: str, ok: bool, what: str) -> None:
        if not ok:
            failures.append((layer, what))

    code = out.code
    h, w = item.original.shape
    check("image", np.array_equal(image.load_pgm(item.pgm).pixels, item.original), "load_pgm changed the pixels")
    check("encoder", (code.orig_w, code.orig_h) == (w, h), "code size differs from the image size")
    if out.stream is not None:
        check("bitstream", bitstream.read_stream(bitstream.write_stream(code)) == code, "read(write(code)) != code")
        check("bitstream", bitstream.write_stream(bitstream.read_stream(out.stream)) == out.stream,
              "write(read(stream)) != stream")
        slack = 8 * len(out.stream) - bitstream.stream_bit_count(code)
        check("bitstream", 0 <= slack <= 7, f"stream has {slack} bits beyond stream_bit_count")
        bits = 8 * len(out.stream)
    else:
        side = FULL_SEARCH_RANGE if item.search == "full" else LOCAL_SEARCH_RANGE
        check("encoder", len(code.leaves) == (code.padded_w // side) * (code.padded_h // side),
              "search code does not tile the image")
        bits = _nominal_search_bits(item, code)
    if out.pgm is not None:
        decoded = image.load_pgm(out.pgm)
    else:
        decoded = decoder.decode(code, DECODE_CONFIG)
    same_size = (decoded.width, decoded.height) == (w, h)
    check("decoder", same_size, f"decoded {decoded.width}x{decoded.height}, original {w}x{h}")
    quality = metrics.psnr(GrayImage(item.original), decoded) if same_size else math.nan
    code_digest, _ = out.digests()
    return Evaluation(failures, bits, quality, code_digest + decoded.pixels.tobytes())
