import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mnscodec.bitstream import (
    FLAG_MNS,
    HEADER_BYTES,
    MAGIC,
    StreamFormatError,
    _serialize,
    leaf_bit_width,
    level_id_bit_count,
    payload_bit_width,
    read_stream,
    stream_bit_count,
    write_stream,
)
from mnscodec.decoder import decode
from mnscodec.encoder import EncoderConfig, QuadtreeCode, encode_quadtree
from mnscodec.image import BlockRect

import bitstream_oracle as oracle
from bitstream_oracle import BitReader, BitWriter
from records import BaselinePayload, LeafRecord, Phase1Payload, Phase2Payload, records, table_of
from scalar_oracle import quadrants
from util import random_code


def level1_code(mode="mns", technique2=True, first=Phase1Payload(130, 5)):
    """A 32x32 raster of four level-1 leaves, the smallest that holds any: `first`, then three phase-1 leaves."""
    rects = [BlockRect(x, y, 16) for y in (0, 16) for x in (0, 16)]
    leaves = [LeafRecord(rects[0], 1, first)] + [LeafRecord(r, 1, Phase1Payload(130, 5)) for r in rects[1:]]
    return QuadtreeCode(table_of(leaves), 32, 32, 32, 32, mode, technique2)


def quartet_code(mode="no_search", technique2=True):
    """One root split fully so it ends in sixteen level-4 quartets."""
    leaves = []
    for rect2 in quadrants(BlockRect(0, 0, 16)):
        for rect3 in quadrants(rect2):
            for rect4 in quadrants(rect3):
                leaves.append(LeafRecord(rect4, 4, Phase1Payload(10, 1)))
    return QuadtreeCode(table_of(leaves), 16, 16, 16, 16, mode, technique2)


class TestWidthTable:
    def test_level1_phase1_mns_is_14_bits(self):
        assert leaf_bit_width(1, phase2=False, mode="mns") == 14

    def test_level4_quartet_widths(self):
        assert leaf_bit_width(4, phase2=False, mode="no_search") == 13
        assert leaf_bit_width(4, phase2=False, mode="no_search", id_elided=True) == 11
        # the phase bit never applies at level 4
        assert leaf_bit_width(4, phase2=False, mode="mns") == 13

    def test_level2_phase2_is_33_bits(self):
        assert leaf_bit_width(2, phase2=True, mode="mns") == 2 + 1 + 8 + 3 * 6 + 4

    def test_level1_phase2_is_30_bits(self):
        assert leaf_bit_width(1, phase2=True, mode="mns") == 2 + 1 + 8 + 3 * 5 + 4

    def test_payload_widths(self):
        assert payload_bit_width(1, False) == 11
        assert payload_bit_width(1, True) == 27
        assert payload_bit_width(3, True) == 30

    def test_level1_leaves_measure_14_bits_each(self):
        code = level1_code()
        assert stream_bit_count(code) - HEADER_BYTES * 8 == 4 * 14
        blob = write_stream(code)
        assert len(blob) == HEADER_BYTES + 7  # 56 payload bits fill 7 bytes
        no_search = write_stream(level1_code("no_search"))
        assert len(no_search) == HEADER_BYTES + 7  # 4 x 13 = 52 payload bits round up to 7 bytes


class TestBitIO:
    def test_msb_first_packing(self):
        w = BitWriter()
        w.write(0b1, 1)
        w.write(0b0101, 4)
        w.write(0b101, 3)
        assert w.getvalue() == bytes([0b10101101])
        r = BitReader(w.getvalue())
        assert r.read(1) == 1
        assert r.read(4) == 0b0101
        assert r.read(3) == 0b101

    def test_writer_rejects_overflow(self):
        w = BitWriter()
        with pytest.raises(ValueError):
            w.write(4, 2)

    def test_reader_end_of_stream(self):
        r = BitReader(b"\xff")
        r.read(8)
        with pytest.raises(StreamFormatError, match="truncated"):
            r.read(1)

    @pytest.mark.parametrize("start", range(8))
    def test_reader_matches_bit_by_bit_reference(self, start):
        # fields of every width 1..16 from every bit offset, on random bytes cut after each byte,
        # so a field is cut at each of its bit positions; the reference reads one bit at a time
        data = np.random.default_rng(start).integers(0, 256, 5, dtype=np.uint8).tobytes()
        for n in range(len(data) + 1):
            bits = "".join(f"{byte:08b}" for byte in data[:n])
            for width in range(1, 17):
                r = BitReader(data[:n])
                if start > len(bits):
                    with pytest.raises(StreamFormatError, match="truncated"):
                        r.read(start)
                    continue
                assert r.read(start) == (int(bits[:start], 2) if start else 0)
                pos = start
                while pos + width <= len(bits):
                    assert r.read(width) == int(bits[pos : pos + width], 2)
                    pos += width
                with pytest.raises(StreamFormatError, match="truncated"):
                    r.read(width)
                assert r.bits_left() == len(bits) - pos  # a truncated read consumes nothing


class TestRoundTrip:
    def test_spec_base_case_level1_leaves(self):
        code = level1_code()
        assert read_stream(write_stream(code)) == code

    def test_encoder_output_round_trips(self, natural_128):
        for mode in ("no_search", "mns"):
            for t2 in (False, True):
                code = encode_quadtree(natural_128, EncoderConfig(e1=5, e2=5, e3=5, mode=mode, technique2=t2))
                blob = write_stream(code)
                back = read_stream(blob)
                assert back == code
                assert write_stream(back) == blob

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.booleans(), st.booleans())
    def test_random_codes_round_trip(self, seed, mns, t2):
        rng = np.random.default_rng(seed)
        code = random_code(rng, mode="mns" if mns else "no_search", technique2=t2)
        blob = write_stream(code)
        back = read_stream(blob)
        assert back == code
        assert write_stream(back) == blob

    def test_writer_and_accounting_agree(self):
        for seed in range(40):
            rng = np.random.default_rng(seed)
            code = random_code(rng, mode="mns" if seed % 2 else "no_search", technique2=seed % 4 < 2)
            data, bit_count = _serialize(code)
            assert bit_count == stream_bit_count(code)
            assert len(data) == HEADER_BYTES + (bit_count - 8 * HEADER_BYTES + 7) // 8
            assert data == write_stream(code)


class TestTechnique2:
    def test_exact_savings_per_quartet(self):
        for seed in range(20):
            rng = np.random.default_rng(100 + seed)
            code = random_code(rng, mode="mns", technique2=True, split_p=0.7)
            off = dataclasses.replace(code, technique2=False)
            quartets = int((code.leaves.level == 4).sum()) // 4
            assert stream_bit_count(off) - stream_bit_count(code) == 6 * quartets

    def test_quartet_stream_widths(self):
        on = quartet_code(technique2=True)
        off = quartet_code(technique2=False)
        # 16 quartets: first member 13 bits, siblings 11 each when shared
        assert stream_bit_count(on) - HEADER_BYTES * 8 == 16 * (13 + 3 * 11)
        assert stream_bit_count(off) - HEADER_BYTES * 8 == 64 * 13

    def test_level_id_accounting_examples(self):
        code = quartet_code()
        assert level_id_bit_count(code, technique2=False) == 2 * 64
        assert level_id_bit_count(code, technique2=True) == 2 * 16

    def test_level_id_accounting_all_level1(self):
        leaves = [
            LeafRecord(BlockRect(x, y, 16), 1, Phase1Payload(0, 0))
            for y in range(0, 32, 16) for x in range(0, 32, 16)
        ]
        code = QuadtreeCode(table_of(leaves), 32, 32, 32, 32, "no_search", False)
        assert level_id_bit_count(code, False) == 8
        assert level_id_bit_count(code, True) == 8

    def test_level_id_accounting_rejects_partial_quartets(self):
        leaf4 = LeafRecord(BlockRect(0, 0, 2), 4, Phase1Payload(0, 0))
        code = QuadtreeCode(table_of([leaf4]), 16, 16, 16, 16, "no_search", False)
        with pytest.raises(ValueError, match="quartet"):
            level_id_bit_count(code, technique2=True)


class TestReadErrors:
    def test_bad_magic(self):
        blob = bytearray(write_stream(level1_code()))
        blob[0:4] = b"JUNK"
        with pytest.raises(StreamFormatError, match="magic"):
            read_stream(bytes(blob))

    def test_unknown_flags(self):
        blob = bytearray(write_stream(level1_code()))
        blob[4] |= 0x80
        with pytest.raises(StreamFormatError, match="flag"):
            read_stream(bytes(blob))

    def test_truncated_header(self):
        with pytest.raises(StreamFormatError, match="truncated header"):
            read_stream(MAGIC + b"\x00")

    def test_truncated_payload(self):
        blob = write_stream(level1_code())
        with pytest.raises(StreamFormatError, match="truncated"):
            read_stream(blob[:-1])

    def test_inconsistent_padded_dims(self):
        blob = bytearray(write_stream(level1_code()))
        blob[9:11] = (17).to_bytes(2, "big")  # padded_w not a multiple of 16
        with pytest.raises(StreamFormatError, match="padded"):
            read_stream(bytes(blob))

    def test_depth_sequence_overfill(self):
        # a level-2 leaf followed by a level-1 id inside the same root
        w = BitWriter()
        for b in MAGIC:
            w.write(b, 8)
        w.write(0, 8)  # no_search, no technique2
        for v in (16, 16, 16, 16):
            w.write(v, 16)
        w.write(1, 2)   # level-2 leaf in the TL child
        w.write(0, 8)
        w.write(0, 3)
        w.write(0, 2)   # claims a level-1 leaf while inside the root's children
        w.write(0, 8)
        w.write(0, 3)
        with pytest.raises(StreamFormatError, match="cannot appear inside"):
            read_stream(w.getvalue())

    def test_negative_zero_delta(self):
        code = level1_code("mns", False, Phase2Payload(100, (0, 0, 0), (0, 0, 0, 0)))
        blob = bytearray(write_stream(code))
        # header is byte aligned; leaf bits: id(2) phase(1) o(8) then deltas.
        # the first delta's sign bit is bit 11 of the payload, i.e. bit 3 of
        # byte 14 counted from the stream start
        blob[HEADER_BYTES + 1] |= 0b00010000
        with pytest.raises(StreamFormatError, match="negative-zero"):
            read_stream(bytes(blob))

    def test_trailing_bytes(self):
        blob = write_stream(level1_code())
        with pytest.raises(StreamFormatError, match="trailing"):
            read_stream(blob + b"\x00")

    def test_nonzero_padding(self):
        blob = bytearray(write_stream(level1_code("no_search")))
        blob[-1] |= 0x01  # flips a pad bit after the 52 leaf bits
        with pytest.raises(StreamFormatError, match="padding"):
            read_stream(bytes(blob))


class TestWriteErrors:
    def test_baseline_records_do_not_serialize(self):
        code = level1_code("no_search", False, BaselinePayload(BlockRect(0, 0, 32), 10, 0))
        with pytest.raises(ValueError, match="baseline"):
            write_stream(code)

    def test_rejects_baseline_mode(self):
        code = dataclasses.replace(level1_code(), mode="full_search")
        with pytest.raises(ValueError, match="serialize"):
            write_stream(code)

    def test_rejects_delta_overflow(self):
        code = level1_code("mns", True, Phase2Payload(100, (16, 0, 0), (0, 0, 0, 0)))
        with pytest.raises(ValueError, match="delta"):
            write_stream(code)

    def test_rejects_phase2_in_no_search(self):
        code = level1_code("no_search", True, Phase2Payload(100, (0, 0, 0), (0, 0, 0, 0)))
        with pytest.raises(ValueError, match="phase-2"):
            write_stream(code)

    def test_rejects_bad_luminance(self):
        code = level1_code("no_search", False, Phase1Payload(256, 0))
        with pytest.raises(ValueError, match="luminance"):
            write_stream(code)

    def test_rejects_mistiled_leaves(self):
        leaf = LeafRecord(BlockRect(8, 0, 16), 1, Phase1Payload(1, 1))
        code = QuadtreeCode(table_of([leaf]), 16, 16, 16, 16, "no_search", False)
        with pytest.raises(ValueError, match="tile"):
            write_stream(code)

    def test_rejects_underfull_leaf_list(self):
        code = QuadtreeCode(table_of([]), 16, 16, 16, 16, "no_search", False)
        with pytest.raises(ValueError, match="under-fills"):
            write_stream(code)

    def test_rejects_excess_leaves(self):
        code = level1_code("no_search", False)
        code = dataclasses.replace(code, leaves=table_of(records(code.leaves) * 2))
        with pytest.raises(ValueError, match="excess"):
            write_stream(code)


def level1_stream(w, h, phase2):
    """An mns stream of w // 16 * h // 16 level-1 leaves written field by field, whatever the raster."""
    writer = BitWriter()
    for value, nbits in [(b, 8) for b in MAGIC] + [(FLAG_MNS, 8)] + [(v, 16) for v in (w, h, w, h)]:
        writer.write(value, nbits)
    for _ in range(w // 16 * (h // 16)):
        writer.write(int(phase2), 3)  # level id 0, then the phase bit
        writer.write(100, 8)
        writer.write(0, 19 if phase2 else 3)  # zero deltas and contrast picks, or a contrast code
    return writer.getvalue()


class TestLevel1Fit:
    """No 32x32 domain fits a raster with a 16-pixel side, so neither side takes a level-1 leaf there."""

    @pytest.mark.parametrize("phase2", (False, True))
    @pytest.mark.parametrize("size", ((16, 16), (32, 16), (16, 48)))
    def test_writers_reject_a_level1_leaf(self, phase2, size):
        w, h = size
        payload = Phase2Payload(100, (0, 0, 0), (0, 0, 0, 0)) if phase2 else Phase1Payload(100, 0)
        leaves = [LeafRecord(BlockRect(x, y, 16), 1, payload) for y in range(0, h, 16) for x in range(0, w, 16)]
        code = QuadtreeCode(table_of(leaves), w, h, w, h, "mns", False)
        with pytest.raises(ValueError, match="no 32x32 domain"):
            write_stream(code)
        with pytest.raises(ValueError, match="no 32x32 domain"):
            oracle.write_stream(code)

    @pytest.mark.parametrize("phase2", (False, True))
    @pytest.mark.parametrize("size", ((16, 16), (32, 16), (16, 48)))
    def test_readers_reject_a_level1_leaf(self, phase2, size):
        blob = level1_stream(*size, phase2)
        with pytest.raises(StreamFormatError, match="no 32x32 domain"):
            read_stream(blob)
        with pytest.raises(StreamFormatError, match="no 32x32 domain"):
            oracle.read_stream(blob)

    @pytest.mark.parametrize("phase2", (False, True))
    def test_level1_leaves_of_a_32_pixel_raster_read_and_decode(self, phase2):
        blob = level1_stream(32, 48, phase2)
        code = read_stream(blob)
        assert code.level_counts() == (6, 0, 0, 0) and write_stream(code) == blob
        assert decode(code).pixels.shape == (48, 32)


def phase2_first_stream(o_byte, deltas):
    """level1_code's stream in mns mode without technique 2, its first leaf phase 2 with o_byte, deltas
    and contrast picks (0, 1, 0, 1), written field by field, whatever its implied fourth mean."""
    writer = BitWriter()
    for value, nbits in [(b, 8) for b in MAGIC] + [(FLAG_MNS, 8)] + [(32, 16)] * 4:
        writer.write(value, nbits)
    writer.write(1, 3)  # level id 0, then phase bit 1
    writer.write(o_byte, 8)
    for delta in deltas:
        writer.write(int(delta < 0), 1)
        writer.write(abs(delta), 4)
    writer.write(0b0101, 4)
    for _ in range(3):
        writer.write(0, 3)  # level id 0, then phase bit 0
        writer.write(130, 8)
        writer.write(5, 3)
    return writer.getvalue()


class TestImpliedMean:
    """A phase-2 leaf codes its fourth quadrant mean as o_byte minus the deltas, which must be a byte."""

    @pytest.mark.parametrize("o_byte, deltas", ((0, (15, 15, 15)), (44, (15, 15, 15)), (255, (-15, -15, -15))))
    def test_writers_and_readers_reject_a_mean_off_the_byte_range(self, o_byte, deltas):
        code = level1_code(technique2=False, first=Phase2Payload(o_byte, deltas, (0, 1, 0, 1)))
        for write in (write_stream, oracle.write_stream):
            with pytest.raises(ValueError, match="implied fourth quadrant mean"):
                write(code)
        blob = phase2_first_stream(o_byte, deltas)
        for read in (read_stream, oracle.read_stream):
            with pytest.raises(StreamFormatError, match="implied fourth quadrant mean"):
                read(blob)

    @pytest.mark.parametrize("o_byte, deltas", ((45, (15, 15, 15)), (210, (-15, -15, -15))))
    def test_means_of_exactly_0_and_255_round_trip(self, o_byte, deltas):
        code = level1_code(technique2=False, first=Phase2Payload(o_byte, deltas, (0, 1, 0, 1)))
        blob = write_stream(code)
        assert blob == oracle.write_stream(code) == phase2_first_stream(o_byte, deltas)
        assert read_stream(blob) == oracle.read_stream(blob) == code
        assert decode(code).pixels.shape == (32, 32)
