"""The columnar writer and reader against the scalar stream walk in bitstream_oracle.py,
plus fuzzing of the reader and bounds on the memory either side takes."""

import dataclasses
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bitstream_oracle as oracle
from mnscodec.bitstream import HEADER_BYTES, MAGIC, StreamFormatError, read_stream, stream_bit_count, write_stream
from mnscodec.decoder import decode
from mnscodec.encoder import EncoderConfig, encode_quadtree
from mnscodec.image import BlockRect

from records import LeafRecord, records, table_of
from util import gradient_image, natural_image, noise_image, random_code, scene_image


def assert_matches_oracle(code):
    blob = write_stream(code)
    assert blob == oracle.write_stream(code)
    assert stream_bit_count(code) == oracle.serialize(code).bit_count
    back = read_stream(blob)
    assert back == oracle.read_stream(blob) == code
    assert repr(back.leaves) == repr(oracle.read_stream(blob).leaves)


def read_either(reader, blob):
    try:
        return reader(blob)
    except StreamFormatError:
        return None


def assert_same_verdict(blob):
    """Both readers reject the bytes with StreamFormatError, or both return the same code."""
    assert read_either(read_stream, blob) == read_either(oracle.read_stream, blob)


def noise_code(technique2=True):
    """All level 4: no smaller threshold than this is met by a noise block."""
    config = EncoderConfig(e1=1e-9, e2=1e-9, e3=1e-9, mode="no_search", technique2=technique2)
    return encode_quadtree(noise_image(128, 128, seed=5), config)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans(), st.booleans())
def test_random_codes_match_oracle(seed, mns, t2):
    code = random_code(np.random.default_rng(seed), mode="mns" if mns else "no_search", technique2=t2)
    assert_matches_oracle(code)


IMAGES = {
    "natural": natural_image(96, 80, seed=2),
    "scene": scene_image(64, 64, seed=4),
    "noise": noise_image(48, 48, seed=6),
    "gradient": gradient_image(64, 48),
    "odd": natural_image(37, 53, seed=8),
    "strip_16x80": natural_image(16, 80, seed=9),
    "strip_80x16": natural_image(80, 16, seed=10),
}


@pytest.mark.parametrize("name", IMAGES)
@pytest.mark.parametrize("mode", ("no_search", "mns"))
@pytest.mark.parametrize("t2", (False, True))
def test_encoder_codes_match_oracle(name, mode, t2):
    assert_matches_oracle(encode_quadtree(IMAGES[name], EncoderConfig(e1=5, e2=6, e3=7, mode=mode, technique2=t2)))


@pytest.mark.parametrize("t2", (False, True))
def test_all_level4_noise_code_matches_oracle(t2):
    code = noise_code(t2)
    assert code.level_counts() == (0, 0, 0, 4096)
    assert_matches_oracle(code)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans(), st.booleans(), st.lists(st.integers(0, 2**20), min_size=1, max_size=4))
def test_flipped_bits_get_the_oracles_verdict(seed, mns, t2, flips):
    blob = bytearray(write_stream(random_code(np.random.default_rng(seed), "mns" if mns else "no_search", t2)))
    for flip in flips:
        bit = 8 * HEADER_BYTES + flip % (8 * (len(blob) - HEADER_BYTES))
        blob[bit // 8] ^= 0x80 >> bit % 8
    assert_same_verdict(bytes(blob))


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("phase2_p", (0.4, 1.0))
def test_truncations_get_the_oracles_verdict(seed, phase2_p):
    # with phase2_p=1 and no splits every leaf is a 30-bit level-1 phase-2 leaf, so some cuts
    # leave more bits than the narrowest leaf needs but fewer than the last leaf does
    split_p = 0.55 if phase2_p < 1 else 0.0
    mode = "mns" if seed % 2 or phase2_p == 1 else "no_search"
    code = random_code(np.random.default_rng(seed), mode, seed % 3 == 0, split_p=split_p, phase2_p=phase2_p)
    blob = write_stream(code)
    for n in range(len(blob) + 1):
        assert_same_verdict(blob[:n])
        assert_same_verdict(blob[:n] + b"\x00")


def moved(leaf, field):
    rect = leaf.rect
    if field == "level":
        return LeafRecord(rect, leaf.level % 4 + 1, leaf.payload)
    x, y, size = rect.x + 2 * (field == "x"), rect.y + 2 * (field == "y"), rect.size * (1 + (field == "size"))
    return LeafRecord(BlockRect(x, y, size), leaf.level, leaf.payload)


@pytest.mark.parametrize("field", ("x", "y", "size", "level"))
def test_writer_rejects_what_the_oracle_rejects(field):
    for seed in range(8):
        code = random_code(np.random.default_rng(seed), "mns" if seed % 2 else "no_search", seed % 4 < 2)
        for i in sorted({0, len(code.leaves) // 2, len(code.leaves) - 1}):
            leaves = records(code.leaves)
            leaves[i] = moved(leaves[i], field)
            bad = dataclasses.replace(code, leaves=table_of(leaves))
            with pytest.raises(ValueError):
                oracle.write_stream(bad)
            with pytest.raises(ValueError):
                write_stream(bad)


def assert_rejects_or_round_trips(blob):
    """The reader raises StreamFormatError, or returns a code that writes back to the same bytes and decodes."""
    try:
        code = read_stream(blob)
    except StreamFormatError:
        return
    assert write_stream(code) == blob
    assert decode(code).pixels.shape == (code.orig_h, code.orig_w)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans(), st.booleans(),
       st.lists(st.integers(0, 2**20), max_size=6), st.integers(0, 2**20))
def test_fuzzed_streams_raise_only_format_errors(seed, mns, t2, flips, cut):
    # bit flips anywhere, header included, then a cut at any byte: the reader either raises
    # StreamFormatError, never IndexError, OverflowError or a bare ValueError, or returns a code
    # that writes back to the same bytes
    blob = bytearray(write_stream(random_code(np.random.default_rng(seed), "mns" if mns else "no_search", t2)))
    for flip in flips:
        bit = flip % (8 * len(blob))
        blob[bit // 8] ^= 0x80 >> bit % 8
    assert_rejects_or_round_trips(bytes(blob))
    assert_rejects_or_round_trips(bytes(blob[: cut % (len(blob) + 1)]))


@pytest.mark.parametrize("field", range(4))
@pytest.mark.parametrize("value", (0, 1, 15, 16, 17, 32, 48, 4096, 65520, 65535))
def test_header_edits_raise_only_format_errors(field, value):
    for seed in range(3):
        blob = bytearray(write_stream(random_code(np.random.default_rng(seed), "mns", seed == 1)))
        blob[5 + 2 * field : 7 + 2 * field] = value.to_bytes(2, "big")
        assert_rejects_or_round_trips(bytes(blob))
        assert_same_verdict(bytes(blob))


def test_flag_edits_raise_only_format_errors():
    blob = bytearray(write_stream(random_code(np.random.default_rng(3), "mns", True)))
    for flags in range(256):
        blob[4] = flags
        assert_rejects_or_round_trips(bytes(blob))
        assert_same_verdict(bytes(blob))


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_huge_header_with_short_body_fails_fast_and_small():
    # zero bits parse as level-1 phase-1 leaves, 57 of them before the body runs out
    blob = MAGIC + bytes([0x03]) + struct.pack(">4H", 65520, 65520, 65520, 65520) + bytes(100)

    def read():
        with pytest.raises(StreamFormatError, match="truncated"):
            read_stream(blob)

    assert traced_peak(read) < 1_000_000


def test_writer_peak_on_all_level4_code():
    code = noise_code()
    write_stream(code)  # warm
    assert traced_peak(write_stream, code) < 2_000_000


def test_reader_peak_on_all_level4_stream():
    # 4,096 leaves in 5,901 bytes: the returned table alone is 0.56 MB, and the gather adds
    # one int64 offset and a few narrow bytes per field
    blob = write_stream(noise_code())
    assert len(blob) == 5901
    read_stream(blob)  # warm
    assert traced_peak(read_stream, blob) < 1_500_000


def test_random_codes_write_read_and_decode():
    # a root of a raster with a 16-pixel side always splits, so every random code decodes
    rng = np.random.default_rng(0)
    narrow = 0
    for _ in range(300):
        code = read_stream(write_stream(random_code(rng)))
        narrow += min(code.padded_w, code.padded_h) == 16
        assert decode(code).pixels.shape == (code.orig_h, code.orig_w)
    assert narrow > 0
