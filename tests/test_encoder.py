import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relgrid.corpus import RelationVocab
from relgrid.encoder import UNK_INDEX, Vocab, build_vocab, encode_indices
from relgrid.trainer import TrainConfig, init_model


def corpus_of(*texts):
    return [make_sentence_from(t, i) for i, t in enumerate(texts)]


def make_sentence_from(text, i):
    from relgrid.corpus import build_sentence

    return build_sentence(str(i), text.split(), [])


def reference_vocab(sentences, min_count):
    """build_vocab's mapping counted by hand, as (token, index) pairs in order:
    the reserved rows, then tokens seen at least min_count times, most frequent
    first and ties in first-occurrence order; a corpus <pad> or <unk> keeps its row."""
    counts, first_seen = {}, {}
    for position, tok in enumerate(tok for tokens in sentences for tok in tokens):
        counts[tok] = counts.get(tok, 0) + 1
        first_seen.setdefault(tok, position)
    qualified = sorted(
        (tok for tok, c in counts.items() if c >= min_count),
        key=lambda tok: (-counts[tok], first_seen[tok]),
    )
    mapping = {"<pad>": 0, "<unk>": 1}
    for tok in qualified:
        mapping.setdefault(tok, len(mapping))
    return list(mapping.items())


class TestBuildVocab:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.lists(st.sampled_from(["a", "b", "c", "d", "e", "<pad>", "<unk>"]), min_size=1, max_size=8),
                 min_size=1, max_size=6),
        st.integers(1, 3),
    )
    def test_matches_a_hand_count(self, sentences, min_count):
        corpus = [make_sentence_from(" ".join(tokens), i) for i, tokens in enumerate(sentences)]
        vocab = build_vocab(corpus, min_count)
        assert list(vocab.token_to_index.items()) == reference_vocab(sentences, min_count)

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

    def test_corpus_tokens_spelled_pad_or_unk_keep_their_reserved_rows(self):
        vocab = build_vocab(corpus_of("a <pad> b", "<unk> c b"))
        assert vocab.token_to_index == {"<pad>": 0, "<unk>": 1, "b": 2, "a": 3, "c": 4}
        assert Vocab.from_json(vocab.to_json()) == vocab

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


def tables(vocab, dim, max_seq_len, seed):
    """The token and positional tables of a freshly initialised model over `vocab`."""
    config = TrainConfig(emb_dim=dim, max_seq_len=max_seq_len, seed=seed)
    model = init_model(RelationVocab(names=("r",)), vocab, config)
    return model.arrays["token_table"], model.arrays["positional_table"]


class TestEncodeTokens:
    def test_zero_table_gives_zero_output(self):
        vocab = build_vocab(corpus_of("a b"))
        out = encode_indices(vocab.indices(["a", "b"]), np.zeros((4, 3)), np.zeros((10, 3)))
        assert out.shape == (2, 3)
        assert np.all(out == 0.0)

    def test_positional_addition_elementwise(self):
        vocab = build_vocab(corpus_of("a b c"))
        tokens, positional = tables(vocab, 4, max_seq_len=8, seed=1)
        words = ["c", "a"]
        out = encode_indices(vocab.indices(words), tokens, positional)
        for i, tok in enumerate(words):
            expected = tokens[vocab.index(tok)] + positional[i]
            np.testing.assert_array_equal(out[i], expected)

    def test_unknown_token_uses_unk_row(self):
        vocab = build_vocab(corpus_of("a"))
        tokens, positional = tables(vocab, 4, max_seq_len=3, seed=2)
        out = encode_indices(vocab.indices(["never-seen"]), tokens, positional)
        np.testing.assert_array_equal(out[0], tokens[UNK_INDEX] + positional[0])

    def test_deterministic(self):
        vocab = build_vocab(corpus_of("a b c d"))
        tokens, positional = tables(vocab, 6, max_seq_len=10, seed=3)
        ids = vocab.indices(["a", "d", "q"])
        np.testing.assert_array_equal(
            encode_indices(ids, tokens, positional), encode_indices(ids, tokens, positional)
        )

    def test_init_bounds_and_seeding(self):
        vocab = build_vocab(corpus_of("a b c d e f g h"))
        t1, p1 = tables(vocab, 8, max_seq_len=5, seed=7)
        t2, p2 = tables(vocab, 8, max_seq_len=5, seed=7)
        np.testing.assert_array_equal(t1, t2)
        np.testing.assert_array_equal(p1, p2)
        assert t1.shape == (10, 8) and p1.shape == (5, 8)
        assert np.all(np.abs(t1) <= 0.1)
        assert np.all(np.abs(p1) <= 0.1)
