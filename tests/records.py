"""Leaf records: one Python object per leaf, for the scalar oracles and hand-built fixtures.

mnscodec keeps a code's leaves only as LeafTable columns. These records are
the per-leaf view the oracles walk and the fixtures are written in:
`table_of` turns any records, out-of-range values included, into a table,
and `records` reads a table back as records.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from mnscodec.encoder import PHASE1, PHASE2, SEARCH, LeafTable
from mnscodec.image import BlockRect


@dataclass(frozen=True)
class Phase1Payload:
    """Plain co-centered fit: 8-bit block mean plus 3-bit contrast code."""

    o_byte: int
    s_code: int


@dataclass(frozen=True)
class Phase2Payload:
    """Sub-block-mean fit: parent mean, three quadrant mean offsets, 1-bit contrast picks.

    deltas covers quadrants TL, TR, BL; the BR mean is implied by the parent
    mean. s_bits selects the lower (0) or higher (1) value of the level's
    contrast set, one bit per quadrant in TL, TR, BL, BR order.
    """

    o_byte: int
    deltas: tuple[int, int, int]
    s_bits: tuple[int, int, int, int]


@dataclass(frozen=True)
class BaselinePayload:
    """Search-mode fit carrying an explicit domain position."""

    domain: BlockRect
    o_byte: int
    s_code: int


Payload = Union[Phase1Payload, Phase2Payload, BaselinePayload]


@dataclass(frozen=True)
class LeafRecord:
    rect: BlockRect
    level: int
    payload: Payload


def record(row: list[int]) -> LeafRecord:
    """The record of one LeafTable row, given as a list."""
    level, kind, x, y, size, o_byte, s_code, d0, d1, d2, b0, b1, b2, b3, dx, dy, dsize = row
    payload = (Phase2Payload(o_byte, (d0, d1, d2), (b0, b1, b2, b3)) if kind == PHASE2
               else BaselinePayload(BlockRect(dx, dy, dsize), o_byte, s_code) if kind == SEARCH
               else Phase1Payload(o_byte, s_code))
    return LeafRecord(BlockRect(x, y, size), level, payload)


def records(table: LeafTable) -> list[LeafRecord]:
    """Every row of the table as a record, in table order."""
    return [record(row) for row in table.rows.tolist()]


def table_of(leaves) -> LeafTable:
    """The table of any sequence of LeafRecord, out-of-range values included."""
    rows = []
    for leaf in leaves:
        r, p, dom = leaf.rect, leaf.payload, getattr(leaf.payload, "domain", BlockRect(0, 0, 0))
        p2 = isinstance(p, Phase2Payload)
        kind = PHASE2 if p2 else SEARCH if isinstance(p, BaselinePayload) else PHASE1
        rows.append([leaf.level, kind, r.x, r.y, r.size, p.o_byte, 0 if p2 else p.s_code,
                     *(p.deltas if p2 else (0, 0, 0)), *(p.s_bits if p2 else (0, 0, 0, 0)), dom.x, dom.y, dom.size])
    return LeafTable(np.array(rows, dtype=np.int64).reshape(len(rows), LeafTable.WIDTH))
