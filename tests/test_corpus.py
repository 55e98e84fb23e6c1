import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relgrid.corpus import (
    EPO,
    HTO,
    NORMAL,
    SEO,
    CorpusError,
    RelationVocab,
    Sentence,
    build_sentence,
    canonical_rows,
    classify_pattern,
    corpus_stats,
    load_native,
    load_public,
    native_sentence,
    pattern_pools,
    resolve_entity,
    save_native,
)

from relgrid.synthetic import SynthConfig, generate_corpus

from conftest import corpus_items, make_sentence, random_triples, triple


# --- independent oracle: pairwise pattern flags by definition -------------

def brute_force_flags(triples):
    """Flags of a set of row tuples (k, hb, he, tb, te), by definition."""
    pairs = [((hb, he), (tb, te)) for _, hb, he, tb, te in triples]
    flags = set()
    for head, tail in pairs:
        if not (head[1] < tail[0] or tail[1] < head[0]):
            flags.add(HTO)
    for x in range(len(pairs)):
        for y in range(x + 1, len(pairs)):
            pair_x = sorted(pairs[x])
            pair_y = sorted(pairs[y])
            if pair_x == pair_y:
                flags.add(EPO)
            else:
                shared, rest = 0, list(pair_y)
                for span in pair_x:
                    if span in rest:
                        rest.remove(span)
                        shared += 1
                if shared == 1:
                    flags.add(SEO)
    if pairs and not flags:
        flags.add(NORMAL)
    return flags


def parse(tokens, *spans):
    """native_sentence of a record holding one r0 triple per (head, tail) pair."""
    triples = [{"head": head, "relation": "r0", "tail": tail} for head, tail in spans]
    record = {"id": "s", "tokens": [f"w{i}" for i in range(tokens)], "triples": triples}
    return native_sentence(record, {"r0": 0}, False, "here")


class TestTypes:
    def test_span_rejects_inverted(self):
        with pytest.raises(CorpusError, match=r"^here: invalid span \(3, 2\)$"):
            parse(5, ([3, 2], [4, 4]))
        with pytest.raises(CorpusError, match=r"^here: invalid span \(-1, 0\)$"):
            parse(5, ([0, 0], [-1, 0]))

    def test_sentence_rejects_empty(self):
        with pytest.raises(ValueError):
            Sentence(tokens=())
        with pytest.raises(ValueError):
            Sentence(tokens=("a", ""))

    def test_span_containment_enforced_at_construction(self):
        with pytest.raises(CorpusError, match=r"^here: sentence 's': span \(5, 12\) exceeds length 10$"):
            parse(10, ([0, 0], [5, 12]))

    def test_build_sentence_truncates_then_checks_tokens_then_spans(self):
        # an empty token and a span past the cut are cut away, not rejected
        warnings = []
        s = build_sentence("s", ["a", "b", "", "c"], [(0, 0, 0, 1, 1), (0, 0, 0, 3, 5)], 2, warnings)
        assert s.tokens == ("a", "b") and s.triples.tolist() == [[0, 0, 0, 1, 1]]
        assert warnings == ["sentence 's': triple (0..0, 0, 3..5) dropped by truncation to 2 tokens",
                            "sentence 's': truncated to 2 tokens"]
        with pytest.raises(ValueError, match=r"^sentence 's' contains an empty token$"):
            build_sentence("s", ["a", ""], [(0, 0, 9, 1, 1)])
        # the first bad span in the given order, not in row order, head before tail
        with pytest.raises(ValueError, match=r"^sentence 's': span \(5, 6\) exceeds length 2$"):
            build_sentence("s", ["a", "b"], [(0, 1, 1, 5, 6), (0, 0, 7, 1, 1)])
        with pytest.raises(ValueError, match=r"^sentence 's': span \(0, 8\) exceeds length 2$"):
            build_sentence("s", ["a", "b"], [(0, 0, 8, 0, 9)])

    def test_canonical_rows_are_distinct_sorted_and_read_only(self):
        rows = canonical_rows([(1, 2, 2, 0, 0), (0, 2, 2, 0, 0), (3, 0, 1, 5, 5), (1, 2, 2, 0, 0)])
        assert rows.tolist() == [[3, 0, 1, 5, 5], [0, 2, 2, 0, 0], [1, 2, 2, 0, 0]]
        assert rows.dtype == np.int64 and not rows.flags.writeable
        empty = canonical_rows([])
        assert empty.shape == (0, 5) and empty.dtype == np.int64 and not empty.flags.writeable

    def test_relation_vocab_unique(self):
        with pytest.raises(ValueError):
            RelationVocab(names=("a", "a"))


class TestClassifyPattern:
    def test_epo_reversed_entity_pair(self, fig2_sentence):
        s = fig2_sentence["epo_pair"]
        assert set(classify_pattern(s)) == {EPO}
        assert corpus_stats([s]).bucket_counts == {"2": 1}

    def test_single_disjoint_triple_is_normal(self):
        s = make_sentence(6, [triple((0, 1), 0, (3, 4))])
        assert classify_pattern(s) == classify_pattern(s)
        assert set(classify_pattern(s)) == {NORMAL}
        assert corpus_stats([s]).bucket_counts == {"1": 1}

    def test_nested_head_tail_is_hto(self):
        s = make_sentence(5, [triple((0, 2), 0, (0, 1))])
        assert set(classify_pattern(s)) == {HTO}

    def test_identical_head_tail_is_hto(self):
        s = make_sentence(5, [triple((1, 2), 0, (1, 2))])
        assert set(classify_pattern(s)) == {HTO}

    def test_same_pair_same_direction_is_epo(self):
        s = make_sentence(
            6, [triple((0, 1), 0, (3, 4)), triple((0, 1), 1, (3, 4))]
        )
        assert set(classify_pattern(s)) == {EPO}

    def test_shared_single_entity_is_seo(self):
        s = make_sentence(
            8, [triple((0, 1), 0, (3, 4)), triple((0, 1), 0, (6, 7))]
        )
        assert set(classify_pattern(s)) == {SEO}

    def test_no_triples_marker(self):
        s = make_sentence(4, [])
        assert set(classify_pattern(s)) == set()
        stats = corpus_stats([s])
        assert (stats.bucket_counts, stats.no_triple_sentences) == ({}, 1)

    def test_bucket_caps_at_five_plus(self):
        triples = [triple((i, i), 0, (i + 6, i + 6)) for i in range(6)]
        assert corpus_stats([make_sentence(12, triples)]).bucket_counts == {"5+": 1}

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_brute_force_on_random_sets(self, data):
        length = data.draw(st.integers(4, 12))
        n = data.draw(st.integers(1, 4))
        triples = set()
        for _ in range(n):
            b1 = data.draw(st.integers(0, length - 1))
            e1 = data.draw(st.integers(b1, min(b1 + 2, length - 1)))
            b2 = data.draw(st.integers(0, length - 1))
            e2 = data.draw(st.integers(b2, min(b2 + 2, length - 1)))
            rel = data.draw(st.integers(0, 2))
            triples.add(triple((b1, e1), rel, (b2, e2)))
        s = make_sentence(length, triples)
        assert set(classify_pattern(s)) == brute_force_flags(triples)

    def test_invariant_under_triple_reordering(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            triples = random_triples(rng, 10, 3)
            s = make_sentence(10, triples)
            # a set is already order-free; re-check via list rotations
            expected = classify_pattern(s)
            rotated = list(triples)[::-1]
            assert classify_pattern(make_sentence(10, rotated)) == expected


class TestPatternPools:
    def test_sums_each_flag_and_bucket_a_sentence_joins(self):
        flags = [frozenset({EPO, SEO}), frozenset(), frozenset({NORMAL}), frozenset({HTO})]
        triples = np.array([3, 0, 7, 1])
        values = np.array([[1, 10], [2, 20], [4, 40], [8, 80]], dtype=np.int64)
        per_flag, per_bucket = pattern_pools(flags, triples, values)
        # the two-flag sentence joins both pools; the one without triples joins none
        assert list(per_flag.items()) == [(NORMAL, [4, 40]), (EPO, [1, 10]), (SEO, [1, 10]), (HTO, [8, 80])]
        assert list(per_bucket.items()) == [("1", [8, 80]), ("3", [1, 10]), ("5+", [4, 40])]
        assert {type(n) for pool in (per_flag, per_bucket) for sums in pool.values() for n in sums} == {int}

    def test_no_sentences_no_pools(self):
        assert pattern_pools([], np.array([], dtype=np.int64), np.zeros((0, 3), dtype=np.int64)) == ({}, {})


class TestNativeFormat:
    def test_parse_identity(self, tmp_path):
        record = {
            "id": "s1",
            "tokens": [f"w{i}" for i in range(10)],
            "triples": [{"head": [0, 1], "relation": "r0", "tail": [4, 6]}],
        }
        path = tmp_path / "one.jsonl"
        path.write_text(json.dumps(record) + "\n")
        corpus, vocab, warnings = load_native(path)
        assert len(corpus) == 1
        assert vocab.names == ("r0",)
        assert warnings == []
        assert corpus[0].triples.tolist() == [[0, 0, 1, 4, 6]]

    def test_loaded_sentences_share_one_object_per_token(self, tmp_path):
        path = tmp_path / "two.jsonl"
        records = [{"id": sid, "tokens": ["Paris", sid], "triples": []} for sid in ("a", "b")]
        path.write_text("".join(json.dumps(record) + "\n" for record in records))
        (first, second), _, _ = load_native(path, vocab=RelationVocab(names=("r0",)))
        assert first.tokens[0] == "Paris" and first.tokens[0] is second.tokens[0]

    def test_out_of_range_span_names_sentence(self, tmp_path):
        record = {
            "id": "bad-sent",
            "tokens": [f"w{i}" for i in range(10)],
            "triples": [{"head": [0, 1], "relation": "r0", "tail": [4, 12]}],
        }
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(CorpusError, match="bad-sent"):
            load_native(path)

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "broken.jsonl"
        good = json.dumps(
            {"id": "a", "tokens": ["x"], "triples": []}
        )
        path.write_text(good + "\n{not json\n")
        with pytest.raises(CorpusError, match=":2"):
            load_native(path)

    def test_missing_file(self):
        with pytest.raises(CorpusError, match="no such file"):
            load_native("/nonexistent/corpus.jsonl")

    def test_unknown_relation_with_fixed_vocab(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(
            json.dumps(
                {"id": "a", "tokens": ["x", "y"],
                 "triples": [{"head": [0, 0], "relation": "zzz", "tail": [1, 1]}]}
            )
            + "\n"
        )
        with pytest.raises(CorpusError, match="zzz"):
            load_native(path, vocab=RelationVocab(names=("r0",)))

    def test_save_load_roundtrip_on_generated_corpus(self, tmp_path, small_synth):
        corpus, relations, _ = small_synth
        path = tmp_path / "round.jsonl"
        save_native(corpus, relations, path)
        reloaded, vocab2, _ = load_native(path, vocab=relations)
        assert vocab2.names == relations.names
        assert len(reloaded) == len(corpus)
        for a, b in zip(corpus, reloaded):
            assert a.tokens == b.tokens
            assert a.id == b.id
            assert np.array_equal(a.triples, b.triples)

    def test_truncation_drops_overflowing_triples(self, tmp_path):
        record = {
            "id": "long",
            "tokens": [f"w{i}" for i in range(12)],
            "triples": [
                {"head": [0, 1], "relation": "r0", "tail": [3, 4]},
                {"head": [0, 1], "relation": "r0", "tail": [9, 11]},
            ],
        }
        path = tmp_path / "t.jsonl"
        path.write_text(json.dumps(record) + "\n")
        corpus, _, warnings = load_native(path, max_seq_len=8)
        assert len(corpus[0]) == 8
        assert len(corpus[0].triples) == 1
        assert any("dropped by truncation" in w for w in warnings)

    def test_truncation_comes_before_the_span_bounds_check(self, tmp_path):
        # a triple past the sentence end is also past the cut: dropped, not rejected
        record = {
            "id": "long",
            "tokens": [f"w{i}" for i in range(12)],
            "triples": [
                {"head": [0, 1], "relation": "r0", "tail": [3, 4]},
                {"head": [0, 1], "relation": "r0", "tail": [9, 15]},
            ],
        }
        path = tmp_path / "t.jsonl"
        path.write_text(json.dumps(record) + "\n")
        corpus, _, warnings = load_native(path, max_seq_len=8)
        assert corpus[0].triples.tolist() == [list(triple((0, 1), 0, (3, 4)))]
        assert any("dropped by truncation" in w for w in warnings)
        with pytest.raises(CorpusError, match="exceeds length 12"):
            load_native(path)


def save_public(corpus, relations, path):
    """Write annotated sentences as public-format JSONL: the text, and each
    triple as its head words, relation name and tail words."""

    def words(tokens, begin, end):
        return " ".join(tokens[begin : end + 1])

    lines = []
    for s in corpus:
        tokens = s.tokens
        triple_list = [
            [words(tokens, hb, he), relations.names[k], words(tokens, tb, te)]
            for k, hb, he, tb, te in s.triples.tolist()
        ]
        lines.append(json.dumps({"id": s.id, "text": " ".join(tokens), "triple_list": triple_list}))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestPublicFormat:
    def vocab(self):
        return RelationVocab(names=("r0", "r1"))

    @pytest.fixture(scope="class")
    def synth(self):
        corpus, relations, _ = generate_corpus(SynthConfig(sentences=120, num_relations=3, seed=31))
        return corpus, relations

    def test_synthetic_corpus_resolves_to_its_own_spans(self, tmp_path, synth):
        # generated sentences never repeat a token, so every entity's words
        # occur once, at its own span
        corpus, relations = synth
        path = tmp_path / "public.jsonl"
        save_public(corpus, relations, path)
        loaded, warnings = load_public(path, relations)
        assert warnings == []
        assert corpus_items(loaded) == corpus_items(corpus)

    def test_entity_words_occurring_earlier_resolve_to_the_leftmost_match(self, tmp_path, synth):
        # each sentence led by a copy of its first head's words: an entity
        # whose words occur in the copy resolves there, and every other span
        # moves with the text
        corpus, relations = synth
        moved, expected, earlier = [], [], 0
        for s in corpus:
            _, first_begin, first_end, _, _ = s.triples[0].tolist()  # rows sort by head first
            tokens = s.tokens[first_begin : first_end + 1] + s.tokens
            offset = first_end - first_begin + 1

            def leftmost(begin, end):
                words, width = tokens[begin : end + 1], end - begin + 1
                begin = next(i for i in range(len(tokens)) if tokens[i : i + width] == words)
                return begin, begin + width - 1

            triples = [(k, *(v + offset for v in ends)) for k, *ends in s.triples.tolist()]
            resolved = [(k, *leftmost(hb, he), *leftmost(tb, te)) for k, hb, he, tb, te in triples]
            earlier += sum(t != r for t, r in zip(triples, resolved))
            moved.append(build_sentence(s.id, tokens, triples))
            expected.append(build_sentence(s.id, tokens, resolved))
        path = tmp_path / "public.jsonl"
        save_public(moved, relations, path)
        loaded, warnings = load_public(path, relations)
        assert warnings == []
        assert corpus_items(loaded) == corpus_items(expected)
        assert earlier >= len(corpus)  # each copied head resolves to its copy

    def test_unique_substring_match(self, tmp_path):
        path = tmp_path / "p.jsonl"
        path.write_text(json.dumps({"text": "a b c", "triple_list": [["b c", "r0", "a"]]}) + "\n")
        corpus, warnings = load_public(path, self.vocab())
        assert warnings == []
        assert corpus[0].triples.tolist() == [list(triple((1, 2), 0, (0, 0)))]

    def test_absent_entity_warns_and_skips(self, tmp_path):
        path = tmp_path / "p.jsonl"
        path.write_text(
            json.dumps({"text": "a b c", "triple_list": [["zz", "r0", "a"], ["b", "r0", "c"]]}) + "\n"
        )
        corpus, warnings = load_public(path, self.vocab())
        assert len(corpus[0].triples) == 1
        assert len(warnings) == 1 and "zz" in warnings[0]

    def test_truncation_cuts_and_warns_as_the_native_loader_does(self, tmp_path):
        tokens = [f"w{i}" for i in range(12)]
        public, native = tmp_path / "p.jsonl", tmp_path / "n.jsonl"
        public.write_text(json.dumps({
            "id": "long", "text": " ".join(tokens),
            "triple_list": [["w0 w1", "r0", "w3 w4"], ["w0 w1", "r1", "w9 w10 w11"]],
        }) + "\n")
        native.write_text(json.dumps({
            "id": "long", "tokens": tokens,
            "triples": [{"head": [0, 1], "relation": "r0", "tail": [3, 4]},
                        {"head": [0, 1], "relation": "r1", "tail": [9, 11]}],
        }) + "\n")
        corpus, warnings = load_public(public, self.vocab(), max_seq_len=8)
        assert corpus[0].tokens == tuple(tokens[:8])
        assert corpus[0].triples.tolist() == [list(triple((0, 1), 0, (3, 4)))]
        assert warnings == [
            "sentence 'long': triple (0..1, 1, 9..11) dropped by truncation to 8 tokens",
            "sentence 'long': truncated to 8 tokens",
        ]
        native_corpus, _, native_warnings = load_native(native, self.vocab(), max_seq_len=8)
        assert native_warnings == warnings
        assert corpus_items(native_corpus) == corpus_items(corpus)

    def test_unknown_relation_is_error(self, tmp_path):
        path = tmp_path / "p.jsonl"
        path.write_text(json.dumps({"text": "a b", "triple_list": [["a", "nope", "b"]]}) + "\n")
        with pytest.raises(CorpusError, match="nope"):
            load_public(path, self.vocab())

    def test_empty_text_is_error(self, tmp_path):
        path = tmp_path / "p.jsonl"
        path.write_text(json.dumps({"text": "   ", "triple_list": []}) + "\n")
        with pytest.raises(CorpusError, match="empty text"):
            load_public(path, self.vocab())

    def test_last_token_mode_yields_single_token_spans(self, tmp_path):
        path = tmp_path / "p.jsonl"
        path.write_text(
            json.dumps({"text": "new york is big", "triple_list": [["new york", "r0", "big"]]}) + "\n"
        )
        corpus, _ = load_public(path, self.vocab(), match_mode="last-token")
        # leftmost "york"
        assert corpus[0].triples.tolist() == [list(triple((1, 1), 0, (3, 3)))]

    def test_leftmost_match_wins(self):
        tokens = tuple("x a b x a b".split())
        assert resolve_entity(tokens, "a b", "whole-span") == (1, 2)
        assert resolve_entity(tokens, "b", "last-token") == (2, 2)

    def test_determinism(self, tmp_path):
        path = tmp_path / "p.jsonl"
        rows = [
            {"text": "a b c d", "triple_list": [["a b", "r0", "d"], ["c", "r1", "a"]]},
            {"text": "q w e", "triple_list": [["q", "r0", "e"]]},
        ]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        first, _ = load_public(path, self.vocab())
        second, _ = load_public(path, self.vocab())
        assert corpus_items(first) == corpus_items(second)

    def test_resolved_corpus_survives_native_roundtrip(self, tmp_path):
        path = tmp_path / "p.jsonl"
        rows = [
            {"text": "a b c d", "triple_list": [["a b", "r0", "d"], ["c", "r1", "a"]]},
            {"text": "q w e", "triple_list": [["q", "r0", "e"]]},
        ]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        vocab = self.vocab()
        corpus, _ = load_public(path, vocab)
        native = tmp_path / "n.jsonl"
        save_native(corpus, vocab, native)
        reloaded, _, _ = load_native(native, vocab=vocab)
        assert corpus_items(reloaded) == corpus_items(corpus)


class TestCorpusStats:
    def test_single_normal_sentence(self):
        s = make_sentence(6, [triple((0, 1), 0, (3, 4))])
        stats = corpus_stats([s])
        assert stats.pattern_counts == {NORMAL: 1}
        assert stats.bucket_counts == {"1": 1}
        assert stats.triples == 1

    def test_counts_match_generator_bookkeeping(self, small_synth):
        corpus, _, counts = small_synth
        stats = corpus_stats(corpus)
        # generator emits pure-pattern sentences, so stats equal bookkeeping
        assert stats.pattern_counts == counts
        assert stats.sentences == sum(counts.values())

    def test_empty_corpus_is_error(self):
        with pytest.raises(CorpusError):
            corpus_stats([])

    def test_pattern_counts_can_exceed_sentences(self):
        # one sentence that is EPO and SEO and HTO at once
        a, b, c = (0, 1), (3, 4), (6, 7)
        triples = [
            triple(a, 0, b),
            triple(b, 1, a),   # reversed pair -> epo
            triple(a, 1, c),   # shares exactly a -> seo
            triple(c, 0, (6, 6)),  # nested -> hto
        ]
        stats = corpus_stats([make_sentence(9, triples)])
        assert stats.pattern_counts == {EPO: 1, SEO: 1, HTO: 1}
        assert stats.sentences == 1
