"""QuadtreeCode.leaves as a LeafTable: its columns, its repr, and the accounting on them."""

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
    EncoderConfig,
    LeafTable,
    QuadtreeCode,
    encode_full_search,
    encode_local_search,
    encode_quadtree,
)
from mnscodec.image import BlockRect

from records import BaselinePayload, LeafRecord, Phase1Payload, Phase2Payload, records, table_of
from util import natural_image, noise_image, random_code, scene_image

ODD_RECORDS = (
    LeafRecord(BlockRect(0, 0, 16), 1, Phase1Payload(130, 5)),
    LeafRecord(BlockRect(16, 0, 8), 2, Phase2Payload(100, (-3, 0, 15), (1, 0, 0, 1))),
    LeafRecord(BlockRect(24, 0, 8), 2, BaselinePayload(BlockRect(4, 6, 16), 90, 7)),
    # out-of-range values survive, so that the writer and the planner can reject them
    LeafRecord(BlockRect(-8, 99, 0), 7, Phase1Payload(256, -1)),
    LeafRecord(BlockRect(0, 0, 2), 4, Phase2Payload(-5, (40, -40, 2), (2, 0, 0, 0))),
)


def test_records_round_trip_through_columns():
    table = table_of(ODD_RECORDS)
    assert len(table) == len(ODD_RECORDS)
    assert tuple(records(table)) == ODD_RECORDS
    assert repr(table) == f"LeafTable({table.rows.tolist()})"
    assert table.kind.tolist() == [PHASE1, PHASE2, SEARCH, PHASE1, PHASE2]
    assert table.domain[2].tolist() == [4, 6, 16]
    with pytest.raises(ValueError):
        table.rows[0, 0] = 2  # read-only


def test_code_takes_only_a_leaf_table():
    code = QuadtreeCode(table_of(ODD_RECORDS), 32, 16, 30, 16, "mns", True)
    for leaves in (list(ODD_RECORDS), ODD_RECORDS, code.leaves.rows, None):
        with pytest.raises(TypeError, match="LeafTable"):
            QuadtreeCode(leaves, 32, 16, 30, 16, "mns", True)
    assert code == QuadtreeCode(LeafTable(code.leaves.rows.copy()), 32, 16, 30, 16, "mns", True)
    assert hash(code) == hash(QuadtreeCode(table_of(ODD_RECORDS), 32, 16, 30, 16, "mns", True))
    assert code != dataclasses.replace(code, technique2=False)
    assert code != dataclasses.replace(code, leaves=table_of(ODD_RECORDS[:-1]))
    assert records(dataclasses.replace(code, leaves=table_of(ODD_RECORDS[::-1])).leaves)[0] == ODD_RECORDS[-1]
    assert len(QuadtreeCode(table_of(()), 16, 16, 16, 16, "no_search", False).leaves) == 0


def test_repr_lists_every_field_of_a_large_table():
    # the search_baseline digest in perfbench hashes repr(code.leaves), so a change to any field
    # of any row, the last row of a 4,096-leaf table included, must change the repr
    config = EncoderConfig(e1=1e-9, e2=1e-9, e3=1e-9, mode="no_search")
    table = encode_quadtree(noise_image(128, 128, seed=5), config).leaves
    assert len(table) == 4096
    text = repr(table)
    assert "..." not in text
    for field in range(LeafTable.WIDTH):
        rows = table.rows.copy()
        rows[-1, field] += 1
        assert repr(LeafTable(rows)) != text


@pytest.mark.parametrize("seed", range(12))
def test_accounting_matches_a_record_walk(seed):
    code = random_code(np.random.default_rng(seed), "mns" if seed % 2 else "no_search", seed % 3 == 0, split_p=0.7)
    leaves = records(code.leaves)
    assert code.level_counts() == tuple(sum(leaf.level == k for leaf in leaves) for k in (1, 2, 3, 4))
    assert code.phase2_count() == sum(isinstance(leaf.payload, Phase2Payload) for leaf in leaves)
    count4 = code.level_counts()[3]
    assert bitstream.level_id_bit_count(code, False) == 2 * len(leaves)
    assert bitstream.level_id_bit_count(code, True) == 2 * (len(leaves) - count4 + count4 // 4)


def test_encoders_build_their_tables_from_columns():
    image = natural_image(48, 40, seed=3)
    code = encode_quadtree(image, EncoderConfig(e1=4, e2=4, e3=4))
    assert QuadtreeCode(table_of(records(code.leaves)), code.padded_w, code.padded_h, 48, 40, "mns", True) == code
    scene = scene_image(32, 32, seed=2)
    for search in (encode_local_search(scene, EncoderConfig()),
                   encode_full_search(scene, 8, EncoderConfig())[0]):
        assert (search.leaves.kind == SEARCH).all() and (search.leaves.domain[:, 2] == 16).all()
        assert QuadtreeCode(table_of(records(search.leaves)), 32, 32, 32, 32, search.mode, False) == search


@pytest.mark.parametrize("level, size, s_bits", ((0, 16, (0, 0, 0, 0)), (4, 2, (0, 0, 0, 0)),
                                                  (1, 16, (0, 2, 0, 0)), (2, 8, (-1, 0, 0, 0))))
def test_decoder_rejects_phase2_leaves_it_cannot_map(level, size, s_bits):
    leaf = LeafRecord(BlockRect(0, 0, size), level, Phase2Payload(100, (0, 0, 0), s_bits))
    with pytest.raises(ValueError, match="phase-2"):
        decode(QuadtreeCode(table_of([leaf]), 16, 16, 16, 16, "mns", False))


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
