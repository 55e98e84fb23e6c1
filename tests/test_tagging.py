from bisect import bisect_left, bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from relgrid.corpus import Span, Triple
from relgrid.synthetic import SynthConfig, generate_corpus
from relgrid.tagging import Tag, decode, encode, render_relation_grid, roundtrip_check

from conftest import as_triples, make_sentence, random_triples, tag_cells


# --- reference oracle: the dict + bisect decoder ---------------------------

def reference_decode(tags):
    """Per-cell decoder over {(i, k, j): Tag}: group the tags per relation,
    sort, then bisect for each HB_TE anchor's nearest HE_TE and HB_TB."""
    anchors, he_rows, tb_cols = {}, {}, {}
    for (i, k, j), tag in tag_cells(tags).items():
        if tag == Tag.HB_TE:
            anchors.setdefault(k, []).append((i, j))
        elif tag == Tag.HE_TE:
            he_rows.setdefault((k, j), []).append(i)
        elif tag == Tag.HB_TB:
            tb_cols.setdefault((k, i), []).append(j)
    for lists in (he_rows, tb_cols):
        for values in lists.values():
            values.sort()
    triples = set()
    for k, cells in anchors.items():
        for hb, te in cells:
            rows = he_rows.get((k, te), ())
            pos = bisect_left(rows, hb)
            he = rows[pos] if pos < len(rows) else hb
            cols = tb_cols.get((k, hb), ())
            pos = bisect_right(cols, te)
            tb = cols[pos - 1] if pos > 0 else te
            if hb <= he and tb <= te:
                triples.add(Triple(Span(hb, he), k, Span(tb, te)))
    return frozenset(triples)


@st.composite
def tag_grids(draw):
    """Random grids from empty to full, with planted nested-head chains:
    heads nested inside one another that share a relation and a tail-end
    column, so their HE_TE rows interleave below the anchors."""
    length = draw(st.integers(1, 10))
    num_rel = draw(st.integers(1, 3))
    shape = (length, num_rel, length)
    tags = draw(arrays(np.int8, shape, elements=st.integers(0, 3)))
    if draw(st.booleans()):  # thin the grid out to a sparse one
        tags[draw(arrays(np.bool_, shape))] = 0
    for _ in range(draw(st.integers(0, 3 if length > 1 else 0))):
        k = draw(st.integers(0, num_rel - 1))
        te = draw(st.integers(0, length - 1))
        rows = sorted(draw(st.lists(st.integers(0, length - 1), min_size=2, max_size=5, unique=True)))
        for hb, he in zip(rows, reversed(rows)):
            if hb >= he:
                break
            tags[hb, k, te] = Tag.HB_TE
            tags[he, k, te] = Tag.HE_TE
    return tags


class TestEncode:
    def test_three_corner_cells(self, fig2_sentence):
        tags, collisions = encode(fig2_sentence["single"], 1)
        assert collisions == []
        assert tag_cells(tags) == {
            (0, 0, 6): Tag.HB_TB,
            (0, 0, 8): Tag.HB_TE,
            (2, 0, 8): Tag.HE_TE,
        }

    def test_empty_triple_set(self):
        tags, collisions = encode(make_sentence(5, []), 3)
        assert tags.shape == (5, 3, 5) and tags.dtype == np.int8
        assert tag_cells(tags) == {}
        assert collisions == []

    def test_single_token_head_collapse_is_silent(self):
        s = make_sentence(8, [Triple(Span(3, 3), 0, Span(5, 6))])
        tags, collisions = encode(s, 1)
        # HE_TE lands on (3, 6) and loses to HB_TE per priority
        assert tag_cells(tags) == {(3, 0, 5): Tag.HB_TB, (3, 0, 6): Tag.HB_TE}
        assert collisions == []

    def test_single_token_tail_collapse_is_silent(self):
        s = make_sentence(8, [Triple(Span(0, 1), 0, Span(3, 3))])
        tags, collisions = encode(s, 1)
        assert tag_cells(tags) == {(0, 0, 3): Tag.HB_TE, (1, 0, 3): Tag.HE_TE}
        assert collisions == []

    def test_single_token_head_and_tail(self):
        s = make_sentence(8, [Triple(Span(2, 2), 0, Span(5, 5))])
        tags, collisions = encode(s, 1)
        assert tag_cells(tags) == {(2, 0, 5): Tag.HB_TE}
        assert collisions == []

    def test_relation_out_of_range(self):
        s = make_sentence(6, [Triple(Span(0, 1), 2, Span(3, 4))])
        with pytest.raises(ValueError, match="relation index 2"):
            encode(s, 2)

    def test_negative_relation_rejected(self):
        s = make_sentence(6, [Triple(Span(0, 1), -1, Span(3, 4))])
        with pytest.raises(ValueError, match="relation index -1"):
            encode(s, 2)

    def test_cross_triple_collision_recorded_with_priority(self):
        # t1's HB_TE cell (0, 0, 2) is also t2's HB_TB cell
        t1 = Triple(Span(0, 0), 0, Span(2, 2))
        t2 = Triple(Span(0, 3), 0, Span(2, 4))
        tags, collisions = encode(make_sentence(6, [t1, t2]), 1)
        assert tag_cells(tags)[(0, 0, 2)] == Tag.HB_TE
        assert len(collisions) == 1
        assert collisions[0].cell == (0, 0, 2)
        assert collisions[0].kept == Tag.HB_TE
        assert collisions[0].dropped == Tag.HB_TB

    def test_same_tag_rewrite_is_benign(self):
        # two triples sharing head begin and tail begin write the same HB_TB
        t1 = Triple(Span(0, 1), 0, Span(3, 4))
        t2 = Triple(Span(0, 2), 0, Span(3, 5))
        _, collisions = encode(make_sentence(7, [t1, t2]), 1)
        assert collisions == []

    def test_cell_count_bounds(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            triples = random_triples(rng, 12, 3)
            tags, collisions = encode(make_sentence(12, triples), 3)
            if collisions:
                continue
            assert 1 <= len(tag_cells(tags)) <= 3 * len(triples)

    def test_exactly_3n_cells_without_sharing_or_collapse(self):
        triples = [
            Triple(Span(0, 1), 0, Span(3, 4)),
            Triple(Span(6, 7), 1, Span(9, 10)),
        ]
        tags, collisions = encode(make_sentence(12, triples), 2)
        assert collisions == []
        assert len(tag_cells(tags)) == 6


def grid(length, num_relations, cells=()):
    """An (L, K, L) int8 grid holding the given {(i, k, j): Tag} cells."""
    tags = np.zeros((length, num_relations, length), dtype=np.int8)
    for cell, tag in dict(cells).items():
        tags[cell] = tag
    return tags


class TestDecode:
    def test_fig2a_cells(self, fig2_sentence):
        tags = grid(9, 1, {(0, 0, 6): Tag.HB_TB, (0, 0, 8): Tag.HB_TE, (2, 0, 8): Tag.HE_TE})
        assert decode(tags).tolist() == [[0, 0, 2, 6, 8]]

    def test_empty_matrix(self):
        assert as_triples(decode(grid(5, 2))) == frozenset()

    def test_hto_near_diagonal_cells(self):
        # head "New York City" (0..2), tail "New York" (0..1)
        tags = grid(3, 1, {(0, 0, 0): Tag.HB_TB, (0, 0, 1): Tag.HB_TE, (2, 0, 1): Tag.HE_TE})
        assert as_triples(decode(tags)) == frozenset({Triple(Span(0, 2), 0, Span(0, 1))})

    def test_unanchored_cells_emit_nothing(self):
        tags = grid(6, 1, {(0, 0, 2): Tag.HB_TB, (3, 0, 4): Tag.HE_TE})
        assert as_triples(decode(tags)) == frozenset()

    def test_totality_on_random_matrices(self):
        rng = np.random.default_rng(17)
        kinds = [Tag.HB_TB, Tag.HB_TE, Tag.HE_TE]
        for _ in range(300):
            length = int(rng.integers(1, 15))
            tags = grid(length, 3)
            for _ in range(rng.integers(0, 12)):
                cell = (
                    int(rng.integers(0, length)),
                    int(rng.integers(0, 3)),
                    int(rng.integers(0, length)),
                )
                tags[cell] = kinds[rng.integers(0, 3)]
            for k, hb, he, tb, te in decode(tags).tolist():
                assert 0 <= hb <= he < length
                assert 0 <= tb <= te < length
                assert 0 <= k < 3

    def test_relation_isolation(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            triples = random_triples(rng, 10, 4)
            tags, _ = encode(make_sentence(10, triples), 4)
            full = as_triples(decode(tags))
            for k in range(4):
                only_k = grid(10, 4)
                only_k[:, k] = tags[:, k]
                assert as_triples(decode(only_k)) == frozenset(
                    t for t in full if t.relation == k
                )


    @settings(max_examples=400, deadline=None)
    @given(tag_grids())
    def test_matches_reference_decoder(self, tags):
        assert as_triples(decode(tags)) == reference_decode(tags)

    @settings(max_examples=400, deadline=None)
    @given(tag_grids())
    def test_array_rows_match_reference_decoder_in_anchor_order(self, tags):
        rows = decode(tags)
        assert rows.dtype == np.int64 and rows.shape[1:] == (5,)
        expected = sorted(
            (t.relation, t.head.begin, t.head.end, t.tail.begin, t.tail.end)
            for t in reference_decode(tags)
        )
        # anchor-key order is (k, hb, te); one anchor per row, so no ties
        expected.sort(key=lambda row: (row[0], row[1], row[4]))
        assert rows.tolist() == [list(row) for row in expected]

    def test_empty_grid_gives_no_rows(self):
        rows = decode(grid(5, 2))
        assert rows.shape == (0, 5) and rows.dtype == np.int64

    def test_nested_heads_sharing_tail_end_column(self):
        # three nested heads on relation 1, all ending their tail at column 6
        tags = grid(8, 2, {(1, 1, 5): Tag.HB_TB})
        for hb, he in ((0, 5), (1, 4), (2, 3)):
            tags[hb, 1, 6] = Tag.HB_TE
            tags[he, 1, 6] = Tag.HE_TE
        decoded = as_triples(decode(tags))
        assert decoded == reference_decode(tags)
        assert decoded == frozenset(
            {
                Triple(Span(0, 3), 1, Span(6, 6)),
                Triple(Span(1, 3), 1, Span(5, 6)),
                Triple(Span(2, 3), 1, Span(6, 6)),
            }
        )


class TestRoundtrip:
    def test_fig2_epo_pair_across_two_relations(self, fig2_sentence):
        s = fig2_sentence["epo_pair"]
        tags, collisions = encode(s, 2)
        assert collisions == []
        # each relation's sub-grid carries its own entity pair
        assert tag_cells(tags) == {
            (0, 0, 6): Tag.HB_TB,
            (0, 0, 8): Tag.HB_TE,
            (2, 0, 8): Tag.HE_TE,
            (6, 1, 0): Tag.HB_TB,
            (6, 1, 2): Tag.HB_TE,
            (8, 1, 2): Tag.HE_TE,
        }
        assert roundtrip_check(s, 2).exact

    def test_empty_set_is_exact(self):
        assert roundtrip_check(make_sentence(4, []), 2).exact

    def test_hto_roundtrip(self):
        s = make_sentence(3, [Triple(Span(0, 2), 0, Span(0, 1))])
        assert roundtrip_check(s, 1).exact

    def test_collision_free_generated_sentences_roundtrip(self):
        config = SynthConfig(
            sentences=1000, num_relations=6, min_len=6, max_len=30, seed=301
        )
        corpus, _, _ = generate_corpus(config)
        for s in corpus:
            result = roundtrip_check(s, 6)
            assert result.collisions == ()
            assert result.exact, (s.sentence.id, result)

    def test_lossy_case_reports_diff(self):
        # two triples colliding on the anchor cell destroy one of them
        t1 = Triple(Span(0, 0), 0, Span(2, 2))  # HB_TE at (0, 0, 2)
        t2 = Triple(Span(0, 3), 0, Span(2, 4))  # HB_TB at (0, 0, 2)
        result = roundtrip_check(make_sentence(6, [t1, t2]), 1)
        assert result.collisions
        assert not result.exact
        assert result.missing or result.spurious

    def test_splice_interference_is_lossy_without_collisions(self):
        # Known limitation: nested heads sharing relation and tail column
        # interleave HE_TE rows, so decoding splices the wrong head end even
        # though no cell was overwritten. The empty collision report does
        # not cover this; roundtrip_check is the authoritative verdict.
        t1 = Triple(Span(0, 5), 0, Span(8, 9))
        t2 = Triple(Span(2, 3), 0, Span(8, 9))
        result = roundtrip_check(make_sentence(10, [t1, t2]), 1)
        assert result.collisions == ()
        assert not result.exact
        assert result.spurious == {(0, 0, 3, 8, 9)} and result.missing == {(0, 0, 5, 8, 9)}


class TestRenderGrid:
    def test_glyphs_at_documented_cells(self, fig2_sentence):
        tags, _ = encode(fig2_sentence["single"], 1)
        text = render_relation_grid(tags, 0, fig2_sentence["tokens"])
        lines = text.splitlines()
        assert len(lines) == 10  # header + 9 token rows
        assert "HB-TB" in lines[1] and "HB-TE" in lines[1]
        assert "HE-TE" in lines[3]
        assert "HB-TB" not in lines[2]

    def test_other_relation_grid_is_blank(self, fig2_sentence):
        tags, _ = encode(fig2_sentence["single"], 2)
        text = render_relation_grid(tags, 1, fig2_sentence["tokens"])
        assert "HB" not in text and "HE" not in text
