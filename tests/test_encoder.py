import numpy as np
import pytest

from relgrid.corpus import Sentence
from relgrid.encoder import (
    PAD_INDEX,
    UNK_INDEX,
    EmbeddingTable,
    Vocab,
    build_vocab,
    encode_tokens,
    init_embedding_table,
)

from conftest import make_sentence


def corpus_of(*texts):
    return [make_sentence_from(t, i) for i, t in enumerate(texts)]


def make_sentence_from(text, i):
    from relgrid.corpus import AnnotatedSentence, Sentence

    return AnnotatedSentence(
        sentence=Sentence(tokens=tuple(text.split()), id=str(i)), triples=frozenset()
    )


class TestBuildVocab:
    def test_frequency_then_first_occurrence(self):
        vocab = build_vocab(corpus_of("a b a"), min_count=1)
        assert vocab.token_to_index == {"<pad>": 0, "<unk>": 1, "a": 2, "b": 3}

    def test_min_count_filters(self):
        vocab = build_vocab(corpus_of("a b a"), min_count=2)
        assert vocab.index("b") == UNK_INDEX
        assert vocab.index("a") == 2

    def test_size_matches_independent_count(self):
        texts = ["q w e r", "w e r t", "e r t y"]
        corpus = corpus_of(*texts)
        for min_count in (1, 2, 3):
            counts = {}
            for t in texts:
                for tok in t.split():
                    counts[tok] = counts.get(tok, 0) + 1
            qualifying = sum(1 for c in counts.values() if c >= min_count)
            assert len(build_vocab(corpus, min_count)) == 2 + qualifying

    def test_bad_args(self):
        with pytest.raises(ValueError):
            build_vocab([], 1)
        with pytest.raises(ValueError):
            build_vocab(corpus_of("a"), 0)


class TestVocabJson:
    def test_roundtrip(self):
        vocab = build_vocab(corpus_of("a b a c"))
        assert Vocab.from_json(vocab.to_json()) == vocab

    @pytest.mark.parametrize(
        "data",
        [
            [1],
            "vocab",
            {"a": 5},
            {},
            {"<pad>": 0, "<unk>": 1, "a": 1},
            {"<pad>": 0, "<unk>": 1, "a": 3},
            {"<pad>": 0, "<unk>": 1, "a": "2"},
            {"<pad>": 0, "<unk>": 1, "a": 2.0},
            {"<pad>": 0, "<unk>": True},
            {"<pad>": 1, "<unk>": 0},
            {"<unk>": 1, "a": 0},
        ],
        ids=[
            "list",
            "string",
            "no-pad-unk",
            "empty",
            "duplicate-index",
            "index-gap",
            "string-index",
            "float-index",
            "bool-index",
            "pad-unk-swapped",
            "no-pad",
        ],
    )
    def test_rejects_anything_but_dense_index_map(self, data):
        with pytest.raises(ValueError, match="vocab"):
            Vocab.from_json(data)


class TestEncodeTokens:
    def test_zero_table_gives_zero_output(self):
        vocab = build_vocab(corpus_of("a b"))
        table = EmbeddingTable(tokens=np.zeros((4, 3)), positional=np.zeros((10, 3)))
        out = encode_tokens(Sentence(tokens=("a", "b")), table, vocab)
        assert out.shape == (2, 3)
        assert np.all(out == 0.0)

    def test_lookup_identity_without_positionals(self):
        vocab = build_vocab(corpus_of("a b"))
        table = init_embedding_table(4, 5, max_seq_len=None, seed=0)
        out = encode_tokens(Sentence(tokens=("b",)), table, vocab, use_positional=False)
        np.testing.assert_array_equal(out[0], table.tokens[vocab.index("b")])

    def test_positional_addition_elementwise(self):
        vocab = build_vocab(corpus_of("a b c"))
        table = init_embedding_table(5, 4, max_seq_len=8, seed=1)
        sentence = Sentence(tokens=("c", "a"))
        out = encode_tokens(sentence, table, vocab, use_positional=True)
        for i, tok in enumerate(sentence.tokens):
            expected = table.tokens[vocab.index(tok)] + table.positional[i]
            np.testing.assert_array_equal(out[i], expected)

    def test_unknown_token_uses_unk_row(self):
        vocab = build_vocab(corpus_of("a"))
        table = init_embedding_table(3, 4, max_seq_len=None, seed=2)
        out = encode_tokens(
            Sentence(tokens=("never-seen",)), table, vocab, use_positional=False
        )
        np.testing.assert_array_equal(out[0], table.tokens[UNK_INDEX])

    def test_deterministic(self):
        vocab = build_vocab(corpus_of("a b c d"))
        table = init_embedding_table(len(vocab), 6, max_seq_len=10, seed=3)
        s = Sentence(tokens=("a", "d", "q"))
        np.testing.assert_array_equal(
            encode_tokens(s, table, vocab), encode_tokens(s, table, vocab)
        )

    def test_init_bounds_and_seeding(self):
        t1 = init_embedding_table(10, 8, max_seq_len=5, seed=7)
        t2 = init_embedding_table(10, 8, max_seq_len=5, seed=7)
        np.testing.assert_array_equal(t1.tokens, t2.tokens)
        assert np.all(np.abs(t1.tokens) <= 0.1)
        assert np.all(np.abs(t1.positional) <= 0.1)
