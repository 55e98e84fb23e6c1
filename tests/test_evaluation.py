from collections import Counter
from operator import itemgetter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relgrid.cli import main
from relgrid.corpus import (
    RelationVocab,
    build_sentence,
    classify_pattern,
    corpus_stats,
    save_native,
)
from relgrid.encoder import build_vocab
from relgrid.evaluation import (
    EXACT,
    MATCH_MODES,
    PARTIAL,
    MetricsReport,
    breakdown,
    export_relation_embeddings,
    micro_prf,
    stack_rows,
)
from relgrid.synthetic import SynthConfig, generate_corpus
from relgrid.tagging import NUM_TAGS
from relgrid.trainer import TrainConfig, init_model, predict, save_checkpoint

from conftest import as_triples, glorot_arrays, make_sentence, random_triples, triple


def rows_of(triples):
    """(n, 5) int64 rows of row tuples (k, hb, he, tb, te), repeats kept."""
    return np.array(list(triples), dtype=np.int64).reshape(-1, 5)


def breakdown_of(corpus, predictions, match_mode):
    """breakdown in one match mode of each sentence's predicted row tuples."""
    pred = stack_rows(map(rows_of, predictions))
    gold = stack_rows(s.triples for s in corpus)
    return breakdown(pred, gold, [classify_pattern(s) for s in corpus], [match_mode])[0]


def correct_count(pred, gold, match_mode):
    """breakdown's one-to-one correct count of one sentence's predicted and
    gold triples. Partial: relation and both end tokens agree; exact:
    relation and both full spans agree."""
    rows = [stack_rows([rows_of(triples)]) for triples in (pred, gold)]
    return breakdown(*rows, [frozenset()], [match_mode])[0].counts[0]


# --- reference: per-triple counters over row tuples (k, hb, he, tb, te) ----

REFERENCE_MATCH_KEYS = {
    PARTIAL: itemgetter(0, 2, 4),  # relation, head end, tail end
    EXACT: itemgetter(0, 1, 2, 3, 4),
}
REFERENCE_PAIR_KEYS = {
    PARTIAL: itemgetter(2, 4),
    EXACT: itemgetter(1, 2, 3, 4),
}


def gold_of(s):
    """A sentence's gold triples as row tuples."""
    return list(map(tuple, s.triples.tolist()))


def reference_correct_count(pred, gold, match_mode):
    key = REFERENCE_MATCH_KEYS[match_mode]
    gold_counts = Counter(map(key, gold))
    matched = Counter(filter(gold_counts.__contains__, map(key, pred)))
    return sum((gold_counts & matched).values())


def add(pools, name, counts):
    """Add one sentence's (correct, predicted, gold) to the pool `name`, started at zero."""
    pools[name] = tuple(a + b for a, b in zip(pools.get(name, (0, 0, 0)), counts))


def reference_subtask_metrics(corpus, predictions, match_mode):
    pools = {}
    for s, pred in zip(corpus, predictions):
        for name, key in (("pair", REFERENCE_PAIR_KEYS[match_mode]), ("relation", itemgetter(0))):
            pred_keys = set(map(key, pred))
            gold_keys = set(map(key, gold_of(s)))
            add(pools, name, (len(pred_keys & gold_keys), len(pred_keys), len(gold_keys)))
    return tuple(pools.get(name, (0, 0, 0)) for name in ("pair", "relation"))


def reference_breakdown(corpus, predictions, match_mode):
    pools, pattern_pools, bucket_pools = {}, {}, {}
    for s, pred in zip(corpus, predictions):
        counts = (reference_correct_count(pred, gold_of(s), match_mode), len(pred), len(s.triples))
        add(pools, "overall", counts)
        for flag in classify_pattern(s):
            add(pattern_pools, flag, counts)
        if len(s.triples):
            add(bucket_pools, str(len(s.triples)) if len(s.triples) < 5 else "5+", counts)
    entity_pair, relation = reference_subtask_metrics(corpus, predictions, match_mode)
    return MetricsReport(
        match_mode=match_mode,
        counts=pools.get("overall", (0, 0, 0)),
        per_pattern=pattern_pools,
        per_bucket=bucket_pools,
        entity_pair=entity_pair,
        relation=relation,
    )


def assert_matches_reference(corpus, predictions):
    for mode in MATCH_MODES:
        for s, pred in zip(corpus, predictions):
            assert correct_count(pred, gold_of(s), mode) == reference_correct_count(pred, gold_of(s), mode)
        report = breakdown_of(corpus, predictions, mode)
        assert (report.entity_pair, report.relation) == reference_subtask_metrics(
            corpus, predictions, mode
        )
        assert report == reference_breakdown(corpus, predictions, mode)
        pools = [report.counts, *report.per_pattern.values(), *report.per_bucket.values()]
        pools += [report.entity_pair, report.relation]
        assert {type(pool) for pool in pools} == {tuple} and {type(n) for pool in pools for n in pool} == {int}
        assert report.to_kv() == reference_breakdown(corpus, predictions, mode).to_kv()
        if corpus:  # both group the corpus into the same pools
            stats = corpus_stats(corpus)
            assert stats.pattern_counts.keys() == report.per_pattern.keys()
            assert stats.bucket_counts.keys() == report.per_bucket.keys()


@st.composite
def corpora(draw):
    """Random (corpus, predictions) with empty, sparse and crowded sets.
    Spans come from a few tokens, so distinct triples often share their
    partial key (relation and both end tokens)."""
    length = draw(st.integers(1, 6))
    num_rel = draw(st.integers(1, 3))
    ends = st.tuples(st.integers(0, length - 1), st.integers(0, length - 1))
    span = ends.map(lambda e: (min(e), max(e)))
    triples = st.frozensets(st.builds(triple, span, st.integers(0, num_rel - 1), span), max_size=10)
    pairs = draw(st.lists(st.tuples(triples, triples), max_size=6))
    corpus = [make_sentence(length, gold, sid=str(i)) for i, (gold, _) in enumerate(pairs)]
    return corpus, [pred for _, pred in pairs]


# --- independent oracle: maximum bipartite matching ------------------------

def max_bipartite_matching(pred, gold, compatible):
    """Augmenting-path maximum matching; O(V*E), fine at test sizes."""
    pred, gold = list(pred), list(gold)
    match_of_gold = {}

    def try_assign(p_idx, visited):
        for g_idx in range(len(gold)):
            if g_idx in visited or not compatible(pred[p_idx], gold[g_idx]):
                continue
            visited.add(g_idx)
            if g_idx not in match_of_gold or try_assign(match_of_gold[g_idx], visited):
                match_of_gold[g_idx] = p_idx
                return True
        return False

    count = 0
    for p_idx in range(len(pred)):
        if try_assign(p_idx, set()):
            count += 1
    return count


def partial_compatible(p, g):
    return REFERENCE_MATCH_KEYS[PARTIAL](p) == REFERENCE_MATCH_KEYS[PARTIAL](g)


def exact_compatible(p, g):
    return p == g


def perturb(rng, triples, length, num_rel):
    """Random mix of kept, span-jittered, and fresh triples."""
    out = set()
    for t in triples:
        roll = rng.random()
        if roll < 0.4:
            out.add(t)
        elif roll < 0.7:
            k, hb, he, tb, te = t
            out.add((k, max(hb - 1, 0), he, tb, te))
        # else dropped
    out |= random_triples(rng, length, num_rel, max_triples=2)
    return frozenset(out)


class TestMatching:
    def test_identical_sets(self):
        rng = np.random.default_rng(1)
        gold = frozenset(random_triples(rng, 10, 3))
        assert correct_count(gold, gold, PARTIAL) == len(gold)
        assert correct_count(gold, gold, EXACT) == len(gold)

    def test_partial_accepts_matching_end_tokens(self):
        gold = frozenset({triple((1, 2), 0, (5, 6))})
        pred = frozenset({triple((0, 2), 0, (5, 6))})
        assert correct_count(pred, gold, PARTIAL) == 1
        assert correct_count(pred, gold, EXACT) == 0

    def test_each_gold_matched_at_most_once(self):
        gold = frozenset({triple((0, 2), 0, (5, 6))})
        pred = frozenset(
            {triple((0, 2), 0, (5, 6)), triple((1, 2), 0, (4, 6))}
        )
        # both predictions hit the same gold under partial match
        assert correct_count(pred, gold, PARTIAL) == 1

    def test_agrees_with_bipartite_oracle(self):
        rng = np.random.default_rng(88)
        for _ in range(400):
            length = int(rng.integers(5, 12))
            gold = frozenset(random_triples(rng, length, 3))
            pred = perturb(rng, gold, length, 3)
            assert correct_count(pred, gold, PARTIAL) == max_bipartite_matching(
                pred, gold, partial_compatible
            )
            assert correct_count(pred, gold, EXACT) == max_bipartite_matching(
                pred, gold, exact_compatible
            )

    def test_duplicates_in_a_multiset_match_one_to_one(self):
        t = triple((0, 1), 0, (3, 3))
        for mode in MATCH_MODES:
            assert correct_count([t, t], [t], mode) == 1
            assert correct_count([t, t], [t, t], mode) == 2
            assert correct_count([], [t], mode) == 0
            assert correct_count([t], [], mode) == 0

    def test_negative_relation_index_does_not_alias(self):
        # Packed without a shift, (s=1, k=-1) and (s=0, k=0) would share a
        # key, and sentence 1's prediction would match sentence 0's gold.
        t = triple((0, 0), 0, (2, 2))
        corpus = [make_sentence(4, [t], sid="a"), make_sentence(4, [], sid="b")]
        predictions = [frozenset(), frozenset({(-1, *t[1:])})]
        assert_matches_reference(corpus, predictions)
        assert breakdown_of(corpus, predictions, EXACT).counts == (0, 1, 1)

    def test_unknown_match_mode_rejected(self):
        t = triple((0, 0), 0, (1, 1))
        with pytest.raises(ValueError, match="unknown match mode"):
            correct_count([t], [t], "fuzzy")

    def test_exact_never_exceeds_partial(self):
        rng = np.random.default_rng(89)
        for _ in range(300):
            length = int(rng.integers(5, 12))
            gold = frozenset(random_triples(rng, length, 3))
            pred = perturb(rng, gold, length, 3)
            assert correct_count(pred, gold, EXACT) <= correct_count(pred, gold, PARTIAL)


class TestMicroPrf:
    def test_half_recall(self):
        p, r, f1 = micro_prf(1, 1, 2)
        assert (p, r) == (1.0, 0.5)
        assert f1 == pytest.approx(2 / 3, abs=1e-4)

    def test_empty_prediction(self):
        assert micro_prf(0, 0, 5) == (0.0, 0.0, 0.0)

    def test_bad_counts_rejected(self):
        with pytest.raises(ValueError):
            micro_prf(3, 2, 5)
        with pytest.raises(ValueError):
            micro_prf(1, 0, 5)

    def test_pooled_not_averaged(self):
        # sentence A: 1/1 correct; sentence B: 0/3 correct, 1 gold
        # pooled P = 1/4; per-sentence average would be 1/2
        corpus = [
            make_sentence(6, [triple((0, 0), 0, (2, 2))], sid="a"),
            make_sentence(6, [triple((1, 1), 0, (3, 3))], sid="b"),
        ]
        predictions = [
            frozenset({triple((0, 0), 0, (2, 2))}),
            frozenset(
                {
                    triple((0, 0), 0, (4, 4)),
                    triple((1, 1), 0, (5, 5)),
                    triple((2, 2), 0, (5, 5)),
                }
            ),
        ]
        report = breakdown_of(corpus, predictions, "exact")
        assert report.counts == (1, 4, 2)
        assert micro_prf(*report.counts)[:2] == (0.25, 0.5)


class TestBreakdown:
    def test_perfect_normal_sentence(self):
        s = make_sentence(6, [triple((0, 1), 0, (3, 4))])
        report = breakdown_of([s], [gold_of(s)], "exact")
        assert report.f1 == 1.0
        assert report.per_pattern == {"normal": (1, 1, 1)}
        assert report.per_bucket == {"1": (1, 1, 1)}
        assert report.entity_pair == (1, 1, 1)
        assert report.relation == (1, 1, 1)

    def test_multi_flag_sentence_feeds_every_pool(self):
        a, b, c = (0, 0), (2, 2), (4, 4)
        triples = [triple(a, 0, b), triple(b, 1, a), triple(a, 1, c)]
        s = make_sentence(6, triples)  # epo (a,b reversed) + seo (shares a)
        report = breakdown_of([s], [frozenset(triples)], "exact")
        assert report.per_pattern == {"epo": (3, 3, 3), "seo": (3, 3, 3)}

    def test_bucket_follows_gold_count(self):
        s = make_sentence(8, [triple((0, 0), 0, (2, 2))])
        many_predictions = frozenset(
            {triple((i, i), 0, (i + 4, i + 4)) for i in range(3)}
        )
        report = breakdown_of([s], [many_predictions], "exact")
        assert report.per_bucket == {"1": (0, 3, 1)}


class TestSubtasks:
    def test_wrong_relation_right_pair(self):
        gold = [triple((0, 0), 0, (2, 2))]
        pred = frozenset({triple((0, 0), 1, (2, 2))})
        s = make_sentence(4, gold)
        report = breakdown_of([s], [pred], "exact")
        assert report.entity_pair == (1, 1, 1)
        assert report.relation == (0, 1, 1)

    def test_projection_dedup_matches_set_oracle(self):
        rng = np.random.default_rng(91)
        for _ in range(200):
            length = int(rng.integers(5, 12))
            gold = random_triples(rng, length, 3)
            pred = perturb(rng, gold, length, 3)
            s = make_sentence(length, gold)
            report = breakdown_of([s], [pred], "exact")
            pair, relation = report.entity_pair, report.relation

            gold_pairs = {t[1:] for t in gold}
            pred_pairs = {t[1:] for t in pred}
            correct = len(gold_pairs & pred_pairs)
            assert pair == (correct, len(pred_pairs), len(gold_pairs))

            gold_rels = {t[0] for t in gold}
            pred_rels = {t[0] for t in pred}
            correct_r = len(gold_rels & pred_rels)
            assert relation == (correct_r, len(pred_rels), len(gold_rels))

    def test_subtask_f1_at_least_triple_f1_when_projection_is_injective(self):
        # With at most one gold and one predicted triple per sentence no
        # dedup merging can happen, so a correct triple stays correct after
        # projection and the sub-task scores dominate the triple score.
        rng = np.random.default_rng(92)
        for mode in ("partial", "exact"):
            for _ in range(150):
                length = int(rng.integers(5, 12))
                corpus, predictions = [], []
                for _ in range(int(rng.integers(1, 5))):
                    gold = random_triples(rng, length, 3, max_triples=1)
                    corpus.append(make_sentence(length, gold))
                    pred = sorted(perturb(rng, gold, length, 3))[:1]
                    predictions.append(frozenset(pred))
                report = breakdown_of(corpus, predictions, mode)
                assert micro_prf(*report.entity_pair)[2] >= report.f1 - 1e-12
                assert micro_prf(*report.relation)[2] >= report.f1 - 1e-12

    def test_projection_merging_can_break_subtask_dominance(self):
        # Dedup merges the two correct relation-0 triples into one correct
        # relation while the wrong prediction keeps full weight, so the
        # relation sub-task can score BELOW the full-triple score. Sub-task
        # dominance is a tendency of real data, not a theorem.
        gold = [
            triple((0, 0), 0, (2, 2)),
            triple((4, 4), 0, (6, 6)),
            triple((1, 1), 1, (3, 3)),
        ]
        pred = frozenset(
            {
                triple((0, 0), 0, (2, 2)),
                triple((4, 4), 0, (6, 6)),
                triple((1, 1), 2, (3, 3)),
            }
        )
        report = breakdown_of([make_sentence(8, gold)], [pred], "exact")
        assert report.counts == (2, 3, 3)
        assert report.relation == (1, 2, 2)
        assert report.f1 == pytest.approx(2 / 3)
        assert micro_prf(*report.relation)[2] == pytest.approx(0.5)


class TestArrayCore:
    @settings(max_examples=300, deadline=None)
    @given(corpora())
    def test_counts_equal_the_triple_reference(self, data):
        assert_matches_reference(*data)

    def test_empty_predictions_and_empty_gold(self):
        t = triple((0, 1), 1, (2, 2))
        corpus = [make_sentence(4, [t], sid="a"), make_sentence(4, [], sid="b")]
        assert_matches_reference(corpus, [frozenset(), frozenset()])
        assert_matches_reference(corpus, [frozenset(), frozenset({t})])
        assert_matches_reference([], [])

    def test_keys_past_2_to_the_62_stay_exact(self):
        # Relations and span ends near 10**6: the exact key's radix product
        # is about 10**30, so the packed key must fall back to dense ranks.
        big = 10**6
        rng = np.random.default_rng(62)
        tokens = ("w",) * (big + 8)

        def span():
            begin = big + int(rng.integers(0, 4))
            return begin, begin + int(rng.integers(0, 4))

        corpus, predictions = [], []
        for i in range(8):
            gold = {triple(span(), big + int(rng.integers(0, 3)), span()) for _ in range(i % 4 + 1)}
            pred = {t for t in gold if rng.random() < 0.6}
            pred |= {triple(span(), big + int(rng.integers(0, 3)), span()) for _ in range(3)}
            corpus.append(build_sentence(str(i), tokens, list(gold)))
            predictions.append(frozenset(pred))
        assert (big + 1) ** 5 > 2**62
        assert_matches_reference(corpus, predictions)

    def test_eval_report_matches_reference_on_near_random_model(self, tmp_path, capsys):
        corpus, relations, _ = generate_corpus(
            SynthConfig(sentences=6, num_relations=50, min_len=8, max_len=12, seed=41)
        )
        model = init_model(relations, build_vocab(corpus), TrainConfig(seed=4))
        data, checkpoint, out = tmp_path / "c.jsonl", tmp_path / "m.npz", tmp_path / "report.txt"
        save_native(corpus, relations, data)
        save_checkpoint(checkpoint, model)
        code = main(["eval", "--data", str(data), "--checkpoint", str(checkpoint), "--out", str(out)])
        capsys.readouterr()
        assert code == 0

        predictions = [as_triples(predict(s, model)) for s in corpus]
        # near random: thousands of predicted triples against a handful of gold
        assert sum(map(len, predictions)) > 1000
        expected = "\n".join(reference_breakdown(corpus, predictions, m).to_kv() for m in MATCH_MODES)
        assert out.read_bytes() == (expected + "\n").encode("utf-8")


class TestCountingCore:
    @pytest.mark.parametrize(
        "lengths",
        [[3, 0, 2, 0, 5], [0, 4], [2, 0], [0, 0], [4], []],
        ids=["ragged", "empty-first", "empty-last", "all-empty", "one", "none"],
    )
    def test_stack_rows_equals_column_stack(self, lengths):
        rng = np.random.default_rng(len(lengths))
        per_sentence = [rng.integers(-3, 50, size=(n, 5)) for n in lengths]
        sentence = np.array([s for s, n in enumerate(lengths) for _ in range(n)], dtype=np.int64)
        reference = np.column_stack([sentence, np.concatenate([np.empty((0, 5), np.int64), *per_sentence])])
        stacked = stack_rows(iter(per_sentence))
        assert stacked.shape == reference.shape == (sum(lengths), 6)
        assert stacked.dtype == reference.dtype == np.int64
        np.testing.assert_array_equal(stacked, reference)
        assert stacked.flags.f_contiguous

    @pytest.mark.parametrize("side", ["pred", "gold"])
    def test_rows_past_the_labels_are_rejected(self, side):
        # rows of three sentences, labels of two: the third sentence's rows
        # would be left out of the pools but counted by the sub-tasks
        t = triple((0, 0), 0, (1, 1))
        corpus = [make_sentence(3, [t], sid=str(i)) for i in range(3)]
        rows = stack_rows(s.triples for s in corpus)
        other = stack_rows(s.triples for s in corpus[:2])
        pred, gold = (rows, other) if side == "pred" else (other, rows)
        flags = [classify_pattern(s) for s in corpus]
        with pytest.raises(ValueError, match="sentence index 2 but only 2 pattern labels"):
            breakdown(pred, gold, flags[:2], MATCH_MODES)
        report = breakdown(pred, gold, flags, [EXACT])[0]
        assert report.counts == ((2, 3, 2) if side == "pred" else (2, 2, 3))


    def test_wrapped_keys_would_collide_without_dense_ranks(self):
        # Relation radix 2**32 + 1 and tail-end radix 2**32: packed in plain
        # int64, relation 2**32 with tail end 0 wraps to the key of relation
        # 0 with tail end 0.
        span = (0, 0)
        pred = [triple(span, 2**32, span)]
        gold = [triple(span, 0, span), triple(span, 0, (2**32 - 1, 2**32 - 1))]
        for mode in MATCH_MODES:
            assert correct_count(pred, gold, mode) == reference_correct_count(pred, gold, mode) == 0

    @pytest.mark.parametrize("pred_relation, gold_relation", [(-1, -2), (-2, -1)])
    def test_negative_relations_with_zero_spans_match_nothing(self, pred_relation, gold_relation):
        # every other column is 0, so unshifted relations -1 and -2 would pack
        # to the keys -1 and -2, and -1 is the key lookup's mark for a miss
        span = (0, 0)
        pred, gold = [triple(span, pred_relation, span)], [triple(span, gold_relation, span)]
        for mode in MATCH_MODES:
            assert correct_count(pred, gold, mode) == 0
        assert_matches_reference([make_sentence(1, gold)], [frozenset(pred)])


class TestExport:
    def test_row_count_and_bit_exact_values(self, tmp_path):
        relations = RelationVocab(names=("born_in", "works_for"))
        rel_tag_emb = glorot_arrays(emb_dim=4, num_relations=2, seed=6)["rel_tag_emb"]
        path = tmp_path / "relations.tsv"
        export_relation_embeddings(rel_tag_emb, relations, path)

        lines = path.read_text().splitlines()
        assert len(lines) == 8  # 4 tag columns per relation
        labels = [line.split("\t")[0] for line in lines]
        assert labels[0] == "born_in/NONE"
        assert labels[5] == "works_for/HB-TB"

        for row, line in enumerate(lines):
            parts = line.split("\t")[1:]
            k, tag = divmod(row, NUM_TAGS)
            expected = rel_tag_emb[:, NUM_TAGS * k + tag]
            parsed = np.array([float(v) for v in parts])
            np.testing.assert_array_equal(parsed, expected)
