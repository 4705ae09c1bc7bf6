import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mnscodec.bitstream import (
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
from mnscodec.encoder import (
    BaselinePayload,
    EncoderConfig,
    LeafRecord,
    Phase1Payload,
    Phase2Payload,
    QuadtreeCode,
    encode_quadtree,
)
from mnscodec.image import BlockRect

from bitstream_oracle import BitReader, BitWriter
from util import random_code


def single_leaf_code(mode="mns", technique2=True):
    leaf = LeafRecord(BlockRect(0, 0, 16), 1, Phase1Payload(130, 5))
    return QuadtreeCode((leaf,), 16, 16, 16, 16, mode, technique2)


def quartet_code(mode="no_search", technique2=True):
    """One root split fully so it ends in sixteen level-4 quartets."""
    leaves = []
    for rect2 in BlockRect(0, 0, 16).quadrants():
        for rect3 in rect2.quadrants():
            for rect4 in rect3.quadrants():
                leaves.append(LeafRecord(rect4, 4, Phase1Payload(10, 1)))
    return QuadtreeCode(tuple(leaves), 16, 16, 16, 16, mode, technique2)


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

    def test_single_leaf_stream_measures_14_bits(self):
        code = single_leaf_code()
        assert stream_bit_count(code) - HEADER_BYTES * 8 == 14
        blob = write_stream(code)
        assert len(blob) == HEADER_BYTES + 2  # 14 payload bits round up to 2 bytes


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
    def test_spec_base_case_single_level1_leaf(self):
        code = single_leaf_code()
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
            writer = _serialize(code)
            assert writer.bit_count == stream_bit_count(code)
            assert len(writer.getvalue()) == (writer.bit_count + 7) // 8


class TestTechnique2:
    def test_exact_savings_per_quartet(self):
        for seed in range(20):
            rng = np.random.default_rng(100 + seed)
            code = random_code(rng, mode="mns", technique2=True, split_p=0.7)
            off = dataclasses.replace(code, technique2=False)
            quartets = sum(1 for leaf in code.leaves if leaf.level == 4) // 4
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
        leaves = tuple(
            LeafRecord(BlockRect(x, y, 16), 1, Phase1Payload(0, 0))
            for y in range(0, 32, 16) for x in range(0, 32, 16)
        )
        code = QuadtreeCode(leaves, 32, 32, 32, 32, "no_search", False)
        assert level_id_bit_count(code, False) == 8
        assert level_id_bit_count(code, True) == 8

    def test_level_id_accounting_rejects_partial_quartets(self):
        leaf4 = LeafRecord(BlockRect(0, 0, 2), 4, Phase1Payload(0, 0))
        code = QuadtreeCode((leaf4,), 16, 16, 16, 16, "no_search", False)
        with pytest.raises(ValueError, match="quartet"):
            level_id_bit_count(code, technique2=True)


class TestReadErrors:
    def test_bad_magic(self):
        blob = bytearray(write_stream(single_leaf_code()))
        blob[0:4] = b"JUNK"
        with pytest.raises(StreamFormatError, match="magic"):
            read_stream(bytes(blob))

    def test_unknown_flags(self):
        blob = bytearray(write_stream(single_leaf_code()))
        blob[4] |= 0x80
        with pytest.raises(StreamFormatError, match="flag"):
            read_stream(bytes(blob))

    def test_truncated_header(self):
        with pytest.raises(StreamFormatError, match="truncated header"):
            read_stream(MAGIC + b"\x00")

    def test_truncated_payload(self):
        blob = write_stream(single_leaf_code())
        with pytest.raises(StreamFormatError, match="truncated"):
            read_stream(blob[:-1])

    def test_inconsistent_padded_dims(self):
        blob = bytearray(write_stream(single_leaf_code()))
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
        leaf = LeafRecord(BlockRect(0, 0, 16), 1, Phase2Payload(100, (0, 0, 0), (0, 0, 0, 0)))
        code = QuadtreeCode((leaf,), 16, 16, 16, 16, "mns", False)
        blob = bytearray(write_stream(code))
        # header is byte aligned; leaf bits: id(2) phase(1) o(8) then deltas.
        # the first delta's sign bit is bit 11 of the payload, i.e. bit 3 of
        # byte 14 counted from the stream start
        blob[HEADER_BYTES + 1] |= 0b00010000
        with pytest.raises(StreamFormatError, match="negative-zero"):
            read_stream(bytes(blob))

    def test_trailing_bytes(self):
        blob = write_stream(single_leaf_code())
        with pytest.raises(StreamFormatError, match="trailing"):
            read_stream(blob + b"\x00")

    def test_nonzero_padding(self):
        blob = bytearray(write_stream(single_leaf_code()))
        blob[-1] |= 0x01  # flips a pad bit after the 14 leaf bits
        with pytest.raises(StreamFormatError, match="padding"):
            read_stream(bytes(blob))


class TestWriteErrors:
    def test_baseline_records_do_not_serialize(self):
        leaf = LeafRecord(BlockRect(0, 0, 16), 1, BaselinePayload(BlockRect(0, 0, 32), 10, 0))
        code = QuadtreeCode((leaf,), 16, 16, 16, 16, "no_search", False)
        with pytest.raises(ValueError, match="baseline"):
            write_stream(code)

    def test_rejects_baseline_mode(self):
        code = dataclasses.replace(single_leaf_code(), mode="full_search")
        with pytest.raises(ValueError, match="serialize"):
            write_stream(code)

    def test_rejects_delta_overflow(self):
        leaf = LeafRecord(BlockRect(0, 0, 16), 1, Phase2Payload(100, (16, 0, 0), (0, 0, 0, 0)))
        code = QuadtreeCode((leaf,), 16, 16, 16, 16, "mns", True)
        with pytest.raises(ValueError, match="delta"):
            write_stream(code)

    def test_rejects_phase2_in_no_search(self):
        leaf = LeafRecord(BlockRect(0, 0, 16), 1, Phase2Payload(100, (0, 0, 0), (0, 0, 0, 0)))
        code = QuadtreeCode((leaf,), 16, 16, 16, 16, "no_search", True)
        with pytest.raises(ValueError, match="phase-2"):
            write_stream(code)

    def test_rejects_bad_luminance(self):
        leaf = LeafRecord(BlockRect(0, 0, 16), 1, Phase1Payload(256, 0))
        code = QuadtreeCode((leaf,), 16, 16, 16, 16, "no_search", False)
        with pytest.raises(ValueError, match="luminance"):
            write_stream(code)

    def test_rejects_mistiled_leaves(self):
        leaf = LeafRecord(BlockRect(8, 0, 16), 1, Phase1Payload(1, 1))
        code = QuadtreeCode((leaf,), 16, 16, 16, 16, "no_search", False)
        with pytest.raises(ValueError, match="tile"):
            write_stream(code)

    def test_rejects_underfull_leaf_list(self):
        code = QuadtreeCode((), 16, 16, 16, 16, "no_search", False)
        with pytest.raises(ValueError, match="under-fills"):
            write_stream(code)

    def test_rejects_excess_leaves(self):
        leaf = LeafRecord(BlockRect(0, 0, 16), 1, Phase1Payload(1, 1))
        code = QuadtreeCode((leaf, leaf), 16, 16, 16, 16, "no_search", False)
        with pytest.raises(ValueError, match="excess"):
            write_stream(code)
