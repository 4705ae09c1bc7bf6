"""QuadtreeCode.leaves as a LeafTable: columns in, LeafRecords out, and the accounting on them."""

import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest

from mnscodec import bench, bitstream
from mnscodec.bench import RD_CSV_COLUMNS, rd_csv, rd_sweep
from mnscodec.decoder import decode
from mnscodec.encoder import (
    PHASE1,
    PHASE2,
    SEARCH,
    BaselinePayload,
    EncoderConfig,
    LeafRecord,
    LeafTable,
    Phase1Payload,
    Phase2Payload,
    QuadtreeCode,
    encode_full_search,
    encode_local_search,
    encode_quadtree,
)
from mnscodec.image import BlockRect

from util import natural_image, random_code, scene_image

ODD_RECORDS = (
    LeafRecord(BlockRect(0, 0, 16), 1, Phase1Payload(130, 5)),
    LeafRecord(BlockRect(16, 0, 8), 2, Phase2Payload(100, (-3, 0, 15), (1, 0, 0, 1))),
    LeafRecord(BlockRect(24, 0, 8), 2, BaselinePayload(BlockRect(4, 6, 16), 90, 7)),
    # out-of-range values survive, so that the writer and the planner can reject them
    LeafRecord(BlockRect(-8, 99, 0), 7, Phase1Payload(256, -1)),
    LeafRecord(BlockRect(0, 0, 2), 4, Phase2Payload(-5, (40, -40, 2), (2, 0, 0, 0))),
)


def test_records_round_trip_through_columns():
    table = LeafTable.of(ODD_RECORDS)
    assert len(table) == len(ODD_RECORDS)
    assert tuple(table) == ODD_RECORDS
    assert [table[i] for i in range(-len(table), len(table))] == list(ODD_RECORDS) * 2
    assert table[1:4] == ODD_RECORDS[1:4]
    assert repr(table) == repr(ODD_RECORDS)
    assert ODD_RECORDS[2] in table and table.index(ODD_RECORDS[3]) == 3
    assert table.kind.tolist() == [PHASE1, PHASE2, SEARCH, PHASE1, PHASE2]
    assert table.domain[2].tolist() == [4, 6, 16]
    with pytest.raises(ValueError):
        table.rows[0, 0] = 2  # read-only


def test_code_converts_any_record_sequence_once():
    code = QuadtreeCode(list(ODD_RECORDS), 32, 16, 30, 16, "mns", True)
    assert isinstance(code.leaves, LeafTable)
    assert code == QuadtreeCode(ODD_RECORDS, 32, 16, 30, 16, "mns", True)
    assert code == QuadtreeCode(code.leaves, 32, 16, 30, 16, "mns", True)
    assert hash(code) == hash(QuadtreeCode(ODD_RECORDS, 32, 16, 30, 16, "mns", True))
    assert code != dataclasses.replace(code, technique2=False)
    assert code != dataclasses.replace(code, leaves=ODD_RECORDS[:-1])
    assert dataclasses.replace(code, leaves=ODD_RECORDS[::-1]).leaves[0] == ODD_RECORDS[-1]
    assert len(QuadtreeCode((), 16, 16, 16, 16, "no_search", False).leaves) == 0


@pytest.mark.parametrize("seed", range(12))
def test_accounting_matches_a_record_walk(seed):
    code = random_code(np.random.default_rng(seed), "mns" if seed % 2 else "no_search", seed % 3 == 0, split_p=0.7)
    leaves = list(code.leaves)
    assert code.level_counts() == tuple(sum(leaf.level == k for leaf in leaves) for k in (1, 2, 3, 4))
    assert code.phase2_count() == sum(isinstance(leaf.payload, Phase2Payload) for leaf in leaves)
    count4 = code.level_counts()[3]
    assert bitstream.level_id_bit_count(code, False) == 2 * len(leaves)
    assert bitstream.level_id_bit_count(code, True) == 2 * (len(leaves) - count4 + count4 // 4)


def test_encoders_build_their_tables_from_columns():
    image = natural_image(48, 40, seed=3)
    code = encode_quadtree(image, EncoderConfig(e1=4, e2=4, e3=4))
    assert QuadtreeCode(tuple(code.leaves), code.padded_w, code.padded_h, 48, 40, "mns", True) == code
    scene = scene_image(32, 32, seed=2)
    for search in (encode_local_search(scene, EncoderConfig(mode="local_search")),
                   encode_full_search(scene, 8, EncoderConfig(mode="full_search"))[0]):
        assert (search.leaves.kind == SEARCH).all() and (search.leaves.domain[:, 2] == 16).all()
        assert QuadtreeCode(tuple(search.leaves), 32, 32, 32, 32, search.mode, False) == search


@pytest.mark.parametrize("level, size, s_bits", ((0, 16, (0, 0, 0, 0)), (4, 2, (0, 0, 0, 0)),
                                                  (1, 16, (0, 2, 0, 0)), (2, 8, (-1, 0, 0, 0))))
def test_decoder_rejects_phase2_leaves_it_cannot_map(level, size, s_bits):
    leaf = LeafRecord(BlockRect(0, 0, size), level, Phase2Payload(100, (0, 0, 0), s_bits))
    with pytest.raises(ValueError, match="phase-2"):
        decode(QuadtreeCode((leaf,), 16, 16, 16, 16, "mns", False))


def test_rd_sweep_times_each_layer(monkeypatch):
    ticks = iter((0.0, 1.0, 3.0, 6.0, 10.0))  # encode 1 s, write 2 s, read 3 s, decode 4 s
    monkeypatch.setattr(bench, "time", SimpleNamespace(perf_counter=lambda: next(ticks)))
    points = rd_sweep(natural_image(64, 64, seed=5), ["mns"], [6.0])
    p = points[0]
    assert p.technique2 is True
    assert (p.encode_seconds, p.write_seconds, p.read_seconds, p.decode_seconds) == (1.0, 2.0, 3.0, 4.0)
    assert RD_CSV_COLUMNS[-3:] == ("write_s", "read_s", "decode_s")
    row = rd_csv(points).strip().split("\n")[1].split(",")
    assert len(row) == len(RD_CSV_COLUMNS)
    layers = (p.write_seconds, p.read_seconds, p.decode_seconds)
    assert [float(v) for v in row[-3:]] == [float(f"{v:.4f}") for v in layers]
    assert math.isfinite(p.psnr)
