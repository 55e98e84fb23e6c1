"""Codec between a triple set and a relation-specific boundary-tag grid.

A triple (head = hb..he, relation k, tail = tb..te) is stored as up to three
cells of an L x K x L grid: the three corners of the rectangle spanned by
the head rows and tail columns:

    (hb, k, tb) -> HB_TB    head-begin row, tail-begin column
    (hb, k, te) -> HB_TE    head-begin row, tail-end column
    (he, k, te) -> HE_TE    head-end row, tail-end column

Every other cell is NONE. The grid is one dense int8 array, tags[i, k, j].
Decoding walks the HB_TE anchors: the head end is the nearest HE_TE at or
below the anchor row in the same column, the tail begin the nearest HB_TB at
or left of the anchor column in the same row; a missing neighbour means a
single-token head or tail. Both lookups are binary searches over the sorted
integer keys (k, col, row) of the HE_TE cells and (k, row, col) of the HB_TB
cells. Decoded triples are (n, 5) int64 rows (k, hb, he, tb, te), the layout
triple_rows gives a Triple set, and stay rows through evaluation.

Single-token heads or tails make two of the three corner assignments land
on the same cell; that collapse is resolved by the fixed tag priority
HB_TE > HE_TE > HB_TB and is lossless by construction. Cross-triple
assignments that overwrite an existing, different tag are recorded in the
collision report and may lose information.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

from .corpus import AnnotatedSentence, Triple


class Tag(IntEnum):
    """Cell classes; integer values are the canonical classifier indices."""

    NONE = 0
    HB_TB = 1
    HB_TE = 2
    HE_TE = 3


NUM_TAGS = len(Tag)
_TAGS = tuple(Tag)  # int8 value -> Tag
_HB_TB, _HB_TE, _HE_TE = (int(tag) for tag in _TAGS[1:])

# Losing HB_TE destroys a whole triple (it anchors decoding), while HE_TE
# and HB_TB can be reconstructed via the single-token collapse rules, so
# HB_TE wins every cell conflict and HB_TB loses every one.
TAG_PRIORITY = {Tag.HB_TE: 3, Tag.HE_TE: 2, Tag.HB_TB: 1}

TAG_GLYPHS = {Tag.NONE: "-", Tag.HB_TB: "HB-TB", Tag.HB_TE: "HB-TE", Tag.HE_TE: "HE-TE"}
TAG_NAMES = {Tag.NONE: "NONE", Tag.HB_TB: "HB-TB", Tag.HB_TE: "HB-TE", Tag.HE_TE: "HE-TE"}


@dataclass(frozen=True)
class Collision:
    """A cross-triple overwrite at one cell; `kept` won on priority."""

    cell: tuple[int, int, int]
    kept: Tag
    dropped: Tag


def _corner_assignments(t: Triple) -> dict[tuple[int, int, int], Tag]:
    """The (up to three) cells of one triple, collapse already resolved."""
    hb, he = t.head.begin, t.head.end
    tb, te = t.tail.begin, t.tail.end
    cells: dict[tuple[int, int, int], Tag] = {}
    for cell, tag in (
        ((hb, t.relation, tb), Tag.HB_TB),
        ((hb, t.relation, te), Tag.HB_TE),
        ((he, t.relation, te), Tag.HE_TE),
    ):
        old = cells.get(cell)
        if old is None or TAG_PRIORITY[tag] > TAG_PRIORITY[old]:
            cells[cell] = tag
    return cells


def encode(s: AnnotatedSentence, num_relations: int) -> tuple[np.ndarray, list[Collision]]:
    """Write every triple's corner cells into a fresh (L, K, L) int8 grid.

    Cross-triple overwrites resolve by TAG_PRIORITY and are returned as the
    collision report; an empty report means no tag was destroyed by another
    triple. Within-triple single-token collapses are silent (lossless).
    """
    length = len(s.sentence)
    tags = np.zeros((length, num_relations, length), dtype=np.int8)
    collisions: list[Collision] = []
    for t in s.sorted_triples():
        if not 0 <= t.relation < num_relations:
            raise ValueError(
                f"relation index {t.relation} outside [0, {num_relations})"
            )
        for cell, tag in sorted(_corner_assignments(t).items()):
            old = _TAGS[tags[cell]]
            if old == Tag.NONE or old == tag:
                tags[cell] = tag
                continue
            if TAG_PRIORITY[tag] > TAG_PRIORITY[old]:
                tags[cell] = tag
                collisions.append(Collision(cell=cell, kept=tag, dropped=old))
            else:
                collisions.append(Collision(cell=cell, kept=old, dropped=tag))
    return tags, collisions


def decode(tags: np.ndarray) -> np.ndarray:
    """Recover the triples of an (L, K, L) tag grid as an (n, 5) int64 array of rows
    (k, hb, he, tb, te) in anchor-key (k, hb, te) order; total, never raises.

    Per relation, each HB_TE cell (hb, te) anchors one triple: the head end
    is the smallest HE_TE row >= hb in column te (hb itself if none), the
    tail begin the largest HB_TB column <= te in row hb (te itself if none).
    """
    n = tags.shape[0]
    # In these C-order (k, row, col) and (k, col, row) copies, the position
    # of a cell is its integer sort key. Tags compare as plain ints: an
    # IntEnum operand sends NumPy down a much slower path.
    by_row = tags.transpose(1, 0, 2).ravel()
    anchors = (by_row == _HB_TE).nonzero()[0].astype(np.int64, copy=False)
    if anchors.size == 0:
        return np.empty((0, 5), dtype=np.int64)
    by_col = tags.transpose(1, 2, 0).ravel()
    # sentinels: one key past every HE_TE key, one before every HB_TB key
    he_keys = np.concatenate([(by_col == _HE_TE).nonzero()[0], [by_col.size]])
    tb_keys = np.concatenate([[-1], (by_row == _HB_TB).nonzero()[0]])

    k, cell = np.divmod(anchors, n * n)
    hb, te = np.divmod(cell, n)
    # head end: the first HE_TE key >= (k, te, hb); past row n-1 means none
    column_start = (k * n + te) * n
    he = he_keys[he_keys.searchsorted(column_start + hb)] - column_start
    he = np.where(he < n, he, hb)
    # tail begin: the last HB_TB key <= (k, hb, te); before column 0 means none
    row_start = anchors - te
    tb = tb_keys[tb_keys.searchsorted(anchors, side="right") - 1] - row_start
    tb = np.where(tb >= 0, tb, te)
    return np.column_stack([k, hb, he, tb, te])


def triple_rows(triples: Iterable[Triple]) -> np.ndarray:
    """(n, 5) int64 rows (k, hb, he, tb, te) of a Triple set, decode's layout."""
    rows = [(t.relation, t.head.begin, t.head.end, t.tail.begin, t.tail.end) for t in triples]
    return np.array(rows, dtype=np.int64).reshape(-1, 5)


@dataclass(frozen=True)
class RoundtripResult:
    """Outcome of decode(encode(s)) compared against the gold triples, as
    row tuples (k, hb, he, tb, te), with the grid encode made."""

    exact: bool
    tags: np.ndarray = field(compare=False, repr=False)
    decoded: frozenset[tuple[int, ...]]
    missing: frozenset[tuple[int, ...]]
    spurious: frozenset[tuple[int, ...]]
    collisions: tuple[Collision, ...]

    def __str__(self) -> str:
        if self.exact:
            return "exact"
        return f"lossy (missing {len(self.missing)}, spurious {len(self.spurious)})"


def roundtrip_check(s: AnnotatedSentence, num_relations: int) -> RoundtripResult:
    """Encode then decode and report the symmetric difference to the gold set."""
    tags, collisions = encode(s, num_relations)
    decoded = frozenset(map(tuple, decode(tags).tolist()))
    gold = frozenset(map(tuple, triple_rows(s.triples).tolist()))
    return RoundtripResult(
        exact=decoded == gold,
        tags=tags,
        decoded=decoded,
        missing=gold - decoded,
        spurious=decoded - gold,
        collisions=tuple(collisions),
    )


def render_relation_grid(
    tags: np.ndarray, relation: int, tokens: tuple[str, ...], cell_width: int = 7
) -> str:
    """Fixed-width text rendering of one relation's sub-grid.

    Rows are head tokens, columns tail tokens; cells show HB-TB / HB-TE /
    HE-TE, and "-" for untagged cells. Tokens longer than the cell width are
    truncated.
    """
    width = max(cell_width, 5)

    def clip(text: str) -> str:
        return text[:width].ljust(width)

    header = clip("") + " " + " ".join(clip(tok) for tok in tokens)
    lines = [header]
    for tok, row_tags in zip(tokens, tags[:, relation, :].tolist()):
        row = [clip(tok)] + [clip(TAG_GLYPHS[_TAGS[tag]]) for tag in row_tags]
        lines.append(" ".join(row))
    return "\n".join(lines)
