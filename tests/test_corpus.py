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
    Span,
    Triple,
    classify_pattern,
    corpus_stats,
    load_native,
    load_public,
    resolve_entity,
    save_native,
)

from conftest import make_sentence, random_triples


# --- independent oracle: pairwise pattern flags by definition -------------

def brute_force_flags(triples):
    triples = list(triples)
    flags = set()
    for t in triples:
        if not (t.head.end < t.tail.begin or t.tail.end < t.head.begin):
            flags.add(HTO)
    for x in range(len(triples)):
        for y in range(x + 1, len(triples)):
            pair_x = sorted([triples[x].head, triples[x].tail])
            pair_y = sorted([triples[y].head, triples[y].tail])
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
    if triples and not flags:
        flags.add(NORMAL)
    return flags


class TestTypes:
    def test_span_rejects_inverted(self):
        with pytest.raises(ValueError):
            Span(3, 2)
        with pytest.raises(ValueError):
            Span(-1, 0)

    def test_sentence_rejects_empty(self):
        with pytest.raises(ValueError):
            Sentence(tokens=())
        with pytest.raises(ValueError):
            Sentence(tokens=("a", ""))

    def test_span_containment_enforced_at_construction(self):
        with pytest.raises(ValueError, match="exceeds length"):
            make_sentence(10, [Triple(Span(0, 0), 0, Span(5, 12))])

    def test_relation_vocab_unique(self):
        with pytest.raises(ValueError):
            RelationVocab(names=("a", "a"))
        with pytest.raises(CorpusError):
            RelationVocab(names=("a", "b")).index("c")


class TestClassifyPattern:
    def test_epo_reversed_entity_pair(self, fig2_sentence):
        label = classify_pattern(fig2_sentence["epo_pair"])
        assert EPO in label.flags
        assert label.flags == {EPO}
        assert label.bucket == "2"

    def test_single_disjoint_triple_is_normal(self):
        s = make_sentence(6, [Triple(Span(0, 1), 0, Span(3, 4))])
        assert classify_pattern(s) == classify_pattern(s)
        label = classify_pattern(s)
        assert label.flags == {NORMAL}
        assert label.bucket == "1"

    def test_nested_head_tail_is_hto(self):
        s = make_sentence(5, [Triple(Span(0, 2), 0, Span(0, 1))])
        assert classify_pattern(s).flags == {HTO}

    def test_identical_head_tail_is_hto(self):
        s = make_sentence(5, [Triple(Span(1, 2), 0, Span(1, 2))])
        assert classify_pattern(s).flags == {HTO}

    def test_same_pair_same_direction_is_epo(self):
        s = make_sentence(
            6, [Triple(Span(0, 1), 0, Span(3, 4)), Triple(Span(0, 1), 1, Span(3, 4))]
        )
        assert classify_pattern(s).flags == {EPO}

    def test_shared_single_entity_is_seo(self):
        s = make_sentence(
            8, [Triple(Span(0, 1), 0, Span(3, 4)), Triple(Span(0, 1), 0, Span(6, 7))]
        )
        assert classify_pattern(s).flags == {SEO}

    def test_no_triples_marker(self):
        label = classify_pattern(make_sentence(4, []))
        assert label.flags == frozenset()
        assert label.bucket is None

    def test_bucket_caps_at_five_plus(self):
        triples = [Triple(Span(i, i), 0, Span(i + 6, i + 6)) for i in range(6)]
        assert classify_pattern(make_sentence(12, triples)).bucket == "5+"

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
            triples.add(Triple(Span(b1, e1), rel, Span(b2, e2)))
        s = make_sentence(length, triples)
        assert classify_pattern(s).flags == brute_force_flags(triples)

    def test_invariant_under_triple_reordering(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            triples = random_triples(rng, 10, 3)
            s = make_sentence(10, triples)
            # frozenset input already order-free; re-check via list rotations
            expected = classify_pattern(s)
            rotated = list(triples)[::-1]
            assert classify_pattern(make_sentence(10, rotated)) == expected


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
        (triple,) = corpus[0].triples
        assert triple == Triple(Span(0, 1), 0, Span(4, 6))

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
            assert a.sentence.tokens == b.sentence.tokens
            assert a.sentence.id == b.sentence.id
            assert a.triples == b.triples

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
        assert len(corpus[0].sentence) == 8
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
        assert corpus[0].triples == {Triple(Span(0, 1), 0, Span(3, 4))}
        assert any("dropped by truncation" in w for w in warnings)
        with pytest.raises(CorpusError, match="exceeds length 12"):
            load_native(path)


class TestPublicFormat:
    def vocab(self):
        return RelationVocab(names=("r0", "r1"))

    def test_unique_substring_match(self, tmp_path):
        path = tmp_path / "p.jsonl"
        path.write_text(json.dumps({"text": "a b c", "triple_list": [["b c", "r0", "a"]]}) + "\n")
        corpus, warnings = load_public(path, self.vocab())
        assert warnings == []
        (triple,) = corpus[0].triples
        assert triple.head == Span(1, 2)
        assert triple.tail == Span(0, 0)

    def test_absent_entity_warns_and_skips(self, tmp_path):
        path = tmp_path / "p.jsonl"
        path.write_text(
            json.dumps({"text": "a b c", "triple_list": [["zz", "r0", "a"], ["b", "r0", "c"]]}) + "\n"
        )
        corpus, warnings = load_public(path, self.vocab())
        assert len(corpus[0].triples) == 1
        assert len(warnings) == 1 and "zz" in warnings[0]

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
        (triple,) = corpus[0].triples
        assert triple.head == Span(1, 1)  # leftmost "york"
        assert triple.tail == Span(3, 3)

    def test_leftmost_match_wins(self):
        tokens = tuple("x a b x a b".split())
        assert resolve_entity(tokens, "a b", "whole-span") == Span(1, 2)
        assert resolve_entity(tokens, "b", "last-token") == Span(2, 2)

    def test_determinism(self, tmp_path):
        path = tmp_path / "p.jsonl"
        rows = [
            {"text": "a b c d", "triple_list": [["a b", "r0", "d"], ["c", "r1", "a"]]},
            {"text": "q w e", "triple_list": [["q", "r0", "e"]]},
        ]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        first, _ = load_public(path, self.vocab())
        second, _ = load_public(path, self.vocab())
        assert [s.triples for s in first] == [s.triples for s in second]

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
        assert [s.triples for s in reloaded] == [s.triples for s in corpus]


class TestCorpusStats:
    def test_single_normal_sentence(self):
        s = make_sentence(6, [Triple(Span(0, 1), 0, Span(3, 4))])
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
        a, b, c = Span(0, 1), Span(3, 4), Span(6, 7)
        triples = [
            Triple(a, 0, b),
            Triple(b, 1, a),   # reversed pair -> epo
            Triple(a, 1, c),   # shares exactly a -> seo
            Triple(c, 0, Span(6, 6)),  # nested -> hto
        ]
        stats = corpus_stats([make_sentence(9, triples)])
        assert stats.pattern_counts == {EPO: 1, SEO: 1, HTO: 1}
        assert stats.sentences == 1
