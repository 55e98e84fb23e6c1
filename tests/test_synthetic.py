import math

import pytest

from relgrid.corpus import classify_pattern, corpus_stats, save_native
from relgrid.synthetic import (
    GenerationError,
    SynthConfig,
    generate_corpus,
    pattern_counts,
)
from relgrid.tagging import roundtrip_check


class TestPatternCounts:
    def test_exact_quarters(self):
        config = SynthConfig(sentences=100)
        assert pattern_counts(config) == {
            "normal": 25,
            "epo": 25,
            "seo": 25,
            "hto": 25,
        }

    def test_largest_remainder_sums_to_total(self):
        config = SynthConfig(
            sentences=10, mix={"normal": 0.5, "epo": 0.3, "seo": 0.2}
        )
        counts = pattern_counts(config)
        assert sum(counts.values()) == 10
        assert counts["normal"] == 5

    def test_unknown_pattern_rejected(self):
        with pytest.raises(GenerationError, match="unknown pattern"):
            pattern_counts(SynthConfig(mix={"weird": 1.0}))

    def test_negative_proportion_rejected(self):
        with pytest.raises(GenerationError):
            pattern_counts(SynthConfig(mix={"normal": -0.5, "epo": 1.5}))

    @pytest.mark.parametrize(
        "sentences, mix",
        [
            (4, {"normal": math.nan}),
            (4, {"normal": math.inf, "epo": 1.0}),
            (4, {"normal": 1e999}),
            (10, {"normal": 1e308}),
            (2, {"normal": 1e308, "epo": 1e308}),
        ],
        ids=["nan", "inf", "1e999", "share-times-count-overflows", "sum-overflows"],
    )
    def test_non_finite_mix_rejected(self, sentences, mix):
        with pytest.raises(GenerationError, match="must be finite"):
            pattern_counts(SynthConfig(sentences=sentences, mix=mix))

    def test_huge_finite_share_keeps_its_counts(self):
        # one sentence of 1e308 stays finite: the same counts as a mix of 1
        assert pattern_counts(SynthConfig(sentences=1, mix={"normal": 1e308})) == {"normal": 1}


class TestGenerateCorpus:
    def test_mix_is_respected_exactly(self, small_synth):
        corpus, _, counts = small_synth
        stats = corpus_stats(corpus)
        for pattern, want in counts.items():
            assert abs(stats.pattern_counts.get(pattern, 0) - want) <= 0
        assert stats.sentences == len(corpus)

    def test_each_sentence_classifies_as_its_id_pattern(self, small_synth):
        corpus, _, _ = small_synth
        for s in corpus:
            intended = s.id.rsplit("-", 1)[1]
            assert classify_pattern(s) == {intended}

    def test_every_sentence_roundtrips_exactly(self, small_synth):
        corpus, relations, _ = small_synth
        for s in corpus:
            result = roundtrip_check(s, len(relations))
            assert result.exact and not result.collisions

    def test_every_sentence_has_triples_within_bounds(self, small_synth):
        corpus, _, _ = small_synth
        for s in corpus:
            assert len(s.triples) >= 1
            assert 6 <= len(s) <= 14

    def test_fixed_seed_gives_identical_bytes(self, tmp_path):
        config = SynthConfig(sentences=30, num_relations=3, seed=17)
        paths = []
        for name in ("a.jsonl", "b.jsonl"):
            corpus, relations, _ = generate_corpus(config)
            path = tmp_path / name
            save_native(corpus, relations, path)
            paths.append(path.read_bytes())
        assert paths[0] == paths[1]

    def test_different_seeds_differ(self):
        c1, _, _ = generate_corpus(SynthConfig(sentences=5, seed=1))
        c2, _, _ = generate_corpus(SynthConfig(sentences=5, seed=2))
        assert [s.tokens for s in c1] != [s.tokens for s in c2]

    def test_epo_with_one_relation_is_infeasible(self):
        config = SynthConfig(sentences=4, num_relations=1, mix={"epo": 1.0})
        with pytest.raises(GenerationError, match="at least 2 relations"):
            generate_corpus(config)

    def test_negative_seed_is_refused_naming_the_seed(self):
        with pytest.raises(GenerationError, match="seed must be >= 0, got -1"):
            generate_corpus(SynthConfig(sentences=4, seed=-1))

    def test_single_pattern_mix(self):
        corpus, _, counts = generate_corpus(
            SynthConfig(sentences=8, mix={"hto": 1.0}, seed=3)
        )
        assert counts == {"hto": 8}
        for s in corpus:
            assert classify_pattern(s) == {"hto"}
