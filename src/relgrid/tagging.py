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
of a sentence's gold Sentence.triples, and stay rows through evaluation.

Single-token heads or tails make two of the three corner assignments land
on the same cell; that collapse is resolved by the fixed tag priority
HB_TE > HE_TE > HB_TB and is lossless by construction. Cross-triple
assignments that overwrite an existing, different tag are recorded in the
collision report, a list of (cell, kept, dropped) tuples, and may lose
information. roundtrip_check reports the decoded, missing and spurious
triples as canonical_rows arrays, like a sentence's gold rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

from .corpus import Sentence, canonical_rows


class Tag(IntEnum):
    """Cell classes; integer values are the canonical classifier indices."""

    NONE = 0
    HB_TB = 1
    HB_TE = 2
    HE_TE = 3


NUM_TAGS = len(Tag)
_HB_TB, _HB_TE, _HE_TE = (int(tag) for tag in tuple(Tag)[1:])

# By tag value. Losing HB_TE destroys a whole triple (it anchors decoding),
# while HE_TE and HB_TB can be reconstructed via the single-token collapse
# rules, so HB_TE wins every cell conflict and HB_TB loses every one.
_PRIORITY = (0, 1, 3, 2)

TAG_NAMES = ("NONE", "HB-TB", "HB-TE", "HE-TE")  # by tag value
_CELL_WIDTH = 7  # of render_relation_grid's columns; the widest name takes 5

_Collision = tuple[tuple[int, int, int], Tag, Tag]  # (cell, kept, dropped)


def encode(s: Sentence, num_relations: int) -> tuple[np.ndarray, list[_Collision]]:
    """Write every triple's corner cells into a fresh (L, K, L) int8 grid.

    Cross-triple overwrites resolve by tag priority and are returned as the
    collision report of (cell, kept, dropped) tuples; an empty report means
    no tag was destroyed by another triple. Within-triple single-token
    collapses are silent (lossless).
    """
    length = len(s)
    tags = np.zeros((length, num_relations, length), dtype=np.int8)
    collisions: list[_Collision] = []
    for k, hb, he, tb, te in s.triples.tolist():
        if not 0 <= k < num_relations:
            raise ValueError(f"relation index {k} outside [0, {num_relations})")
        # the corners in cell order, as begin <= end; a single-token tail
        # folds HB_TB, and a single-token head HE_TE, into the HB_TE cell
        corners = [((hb, k, tb), _HB_TB)] if tb != te else []
        corners.append(((hb, k, te), _HB_TE))
        if he != hb:
            corners.append(((he, k, te), _HE_TE))
        for cell, tag in corners:
            old = tags.item(cell)
            if old and old != tag:  # another triple's tag: the one of higher priority stays
                kept, dropped = (tag, old) if _PRIORITY[tag] > _PRIORITY[old] else (old, tag)
                collisions.append((cell, Tag(kept), Tag(dropped)))
                tag = kept
            tags[cell] = tag
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
    rows = np.empty((anchors.size, 5), dtype=np.int64)
    k, hb, he, tb, te = rows.T  # written in place; he and tb hold scratch at first
    np.divmod(anchors, n * n, out=(k, he))  # he: the cell hb * n + te
    np.divmod(he, n, out=(hb, te))
    # head end: the first HE_TE key >= (k, te, hb) less its column's first, held in tb
    np.multiply(k * n + te, n, out=tb)
    np.take(he_keys, he_keys.searchsorted(tb + hb), out=he, mode="clip")
    he -= tb
    np.copyto(he, hb, where=he >= n)  # past row n-1: none
    # tail begin: the last HB_TB key <= (k, hb, te) less its row's first, anchors - te
    np.take(tb_keys, tb_keys.searchsorted(anchors, side="right") - 1, out=tb, mode="clip")
    tb -= anchors - te
    np.copyto(tb, te, where=tb < 0)  # before column 0: none
    return rows


@dataclass(frozen=True, eq=False)  # array fields have no one truth value: compare by identity
class RoundtripResult:
    """decode(encode(s)) against the gold triples: encode's grid and collision
    report, then the decoded, missing and spurious triples as canonical_rows."""

    tags: np.ndarray = field(repr=False)
    collisions: tuple[_Collision, ...]
    decoded: np.ndarray
    missing: np.ndarray
    spurious: np.ndarray

    @property
    def exact(self) -> bool:
        return len(self.missing) == 0 and len(self.spurious) == 0


def roundtrip_check(s: Sentence, num_relations: int) -> RoundtripResult:
    """Encode then decode and report the symmetric difference to the gold set."""
    tags, collisions = encode(s, num_relations)
    decoded = set(map(tuple, decode(tags).tolist()))
    gold = set(map(tuple, s.triples.tolist()))
    diffs = (decoded, gold - decoded, decoded - gold)
    return RoundtripResult(tags, tuple(collisions), *map(canonical_rows, diffs))


def render_relation_grid(tags: np.ndarray, relation: int, tokens: tuple[str, ...]) -> str:
    """Fixed-width text rendering of one relation's sub-grid.

    Rows are head tokens, columns tail tokens; cells show HB-TB / HB-TE /
    HE-TE, and "-" for untagged cells. Tokens longer than the cell width are
    truncated.
    """

    def clip(text: str) -> str:
        return text[:_CELL_WIDTH].ljust(_CELL_WIDTH)

    header = clip("") + " " + " ".join(clip(tok) for tok in tokens)
    lines = [header]
    for tok, row_tags in zip(tokens, tags[:, relation, :].tolist()):
        row = [clip(tok)] + [clip(TAG_NAMES[tag] if tag else "-") for tag in row_tags]
        lines.append(" ".join(row))
    return "\n".join(lines)
