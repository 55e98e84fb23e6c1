"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL
line (bypassing capture) so the verdicts are visible in any pytest mode.

Run with: pytest tests/test_acceptance.py -v
"""

import json
import os
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from relgrid.cli import main as cli_main
from relgrid.corpus import (
    RelationVocab,
    Span,
    Triple,
    classify_pattern,
    corpus_stats,
    load_public,
    save_native,
)
from relgrid.encoder import build_vocab, encode_indices
from relgrid.evaluation import EXACT, PARTIAL, breakdown, micro_prf, stack_rows
from relgrid.scorer import ScorerParams, train_grads
from relgrid.synthetic import SynthConfig, generate_corpus
from relgrid.tagging import Tag, encode, roundtrip_check, triple_rows
from relgrid.trainer import (
    TrainConfig,
    init_model,
    predict,
    train,
)

from conftest import make_sentence, random_triples, tag_cells
from test_evaluation import (
    correct_count,
    exact_compatible,
    max_bipartite_matching,
    partial_compatible,
    perturb,
)
from test_scorer import (
    concat_reference,
    gradcheck,
    min_preactivation,
    pad_cells,
    random_instance,
)


@pytest.fixture
def report(capsys):
    """One PASS/FAIL line per criterion, printed past pytest's capture."""

    def _report(criterion: int, ok: bool, detail: str) -> None:
        line = f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}  {detail}"
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line

    return _report


def test_criterion_1_codec_roundtrip_at_scale(report):
    corpora = []
    for cfg in (
        SynthConfig(sentences=8000, num_relations=10, min_len=6, max_len=40,
                    max_extra_triples=3, seed=1001),
        SynthConfig(sentences=2000, num_relations=10, min_len=40, max_len=100,
                    max_span_width=5, max_extra_triples=3, lexicon_size=800, seed=1002),
    ):
        corpus, _, _ = generate_corpus(cfg)
        corpora.append(corpus)
    sentences = [s for corpus in corpora for s in corpus]
    assert len(sentences) >= 10_000

    flags = set()
    for s in sentences:
        flags |= classify_pattern(s).flags

    started = time.perf_counter()
    exact = 0
    clean = 0
    for s in sentences:
        result = roundtrip_check(s, 10)
        exact += result.exact
        clean += not result.collisions
    elapsed = time.perf_counter() - started

    ok = (
        exact == len(sentences)
        and clean == len(sentences)
        and elapsed < 10.0
        and flags == {"normal", "epo", "seo", "hto"}
    )
    report(
        1,
        ok,
        f"codec roundtrip {exact}/{len(sentences)} exact, "
        f"{clean} empty collision reports, codec {elapsed:.2f}s (< 10s)",
    )


def test_criterion_2_documented_tagging_scenarios(fig2_sentence, report):
    failures = []

    # scenario (a): one located-in triple -> the three documented corners
    tags, collisions = encode(fig2_sentence["single"], 1)
    want_a = {(0, 0, 6): Tag.HB_TB, (0, 0, 8): Tag.HB_TE, (2, 0, 8): Tag.HE_TE}
    if tag_cells(tags) != want_a or collisions:
        failures.append("single-triple cells")
    if not roundtrip_check(fig2_sentence["single"], 1).exact:
        failures.append("single-triple roundtrip")

    # scenario (a)+(b): the entity-pair-overlap pair lands in two sub-grids
    tags, collisions = encode(fig2_sentence["epo_pair"], 2)
    want_ab = dict(want_a)
    want_ab.update(
        {(6, 1, 0): Tag.HB_TB, (6, 1, 2): Tag.HB_TE, (8, 1, 2): Tag.HE_TE}
    )
    if tag_cells(tags) != want_ab or collisions:
        failures.append("epo-pair cells")
    if not roundtrip_check(fig2_sentence["epo_pair"], 2).exact:
        failures.append("epo-pair roundtrip")

    # scenario (c): overlapping head/tail sits by the diagonal and decodes
    hto = make_sentence(3, [Triple(Span(0, 2), 0, Span(0, 1))], sid="fig2c")
    tags, collisions = encode(hto, 1)
    want_c = {(0, 0, 0): Tag.HB_TB, (0, 0, 1): Tag.HB_TE, (2, 0, 1): Tag.HE_TE}
    if tag_cells(tags) != want_c or collisions:
        failures.append("hto cells")
    if not roundtrip_check(hto, 1).exact:
        failures.append("hto roundtrip")

    report(
        2,
        not failures,
        "three documented tagging scenarios encode to the stated cells and "
        "decode back exactly" + (f" (failed: {failures})" if failures else ""),
    )


def test_criterion_3_gradients_match_finite_differences(report):
    checked = 0
    seed = 0
    worst = 0.0
    while checked < 20:
        seed += 1
        emb, params, _ = random_instance(seed)
        if min_preactivation(emb, params) < 1e-3:
            continue  # finite differences would cross the rectifier kink
        worst = max(worst, gradcheck(seed, tol=1e-4))
        checked += 1
    ok = worst <= 1e-4
    report(
        3,
        ok,
        f"gradients on {checked} seeded instances (L=3, K=2, d=4, dropout off): "
        f"worst relative error {worst:.2e} (<= 1e-4)",
    )


def test_criterion_4_uniform_loss_anchor(report):
    rng = np.random.default_rng(42)
    worst = 0.0
    cases = 0
    for length, num_rel, emb_dim in ((1, 1, 2), (3, 2, 4), (7, 5, 6), (20, 3, 8)):
        params = ScorerParams(
            pair_proj=np.zeros((3 * emb_dim, 2 * emb_dim)),
            pair_bias=np.zeros(3 * emb_dim),
            rel_tag_emb=np.zeros((3 * emb_dim, 4 * num_rel)),
            dropout_rate=0.0,
        )
        for _ in range(3):
            emb = rng.normal(size=(length, emb_dim))
            s = make_sentence(length, random_triples(rng, length, num_rel))
            gold, _ = encode(s, num_rel)
            value = train_grads(emb, gold, params, 0).loss
            worst = max(worst, abs(value - np.log(4.0)))
            cases += 1
    ok = worst <= 1e-9
    report(
        4,
        ok,
        f"zero-parameter loss equals ln 4 on {cases} inputs, "
        f"max deviation {worst:.2e} (<= 1e-9)",
    )


def test_criterion_5_overfit_to_perfect_exact_f1(report, tmp_path, capsys):
    corpus_cfg = SynthConfig(
        sentences=50,
        num_relations=4,
        mix={"normal": 0.40, "epo": 0.24, "seo": 0.24, "hto": 0.12},
        min_len=6,
        max_len=12,
        lexicon_size=600,
        seed=20240811,
    )
    corpus, relations, counts = generate_corpus(corpus_cfg)
    stats = corpus_stats(corpus)
    assert len(corpus) == 50 and len(relations) == 4
    assert all(len(s.triples) >= 1 for s in corpus)
    assert stats.pattern_counts["epo"] >= 5
    assert stats.pattern_counts["seo"] >= 5
    assert stats.pattern_counts["hto"] >= 2

    # desk-scale acceptance overrides: lr raised to 1e-3, batch size 4;
    # dropout stays at the 0.1 default
    train_cfg = TrainConfig(epochs=200, batch_size=4, learning_rate=1e-3, seed=3)
    started = time.perf_counter()
    reached: list[int] = []

    gold = stack_rows(triple_rows(s.triples) for s in corpus)
    labels = [classify_pattern(s) for s in corpus]

    def exact_f1(model):
        predictions = stack_rows(predict(s.sentence, model) for s in corpus)
        return breakdown(predictions, gold, labels, [EXACT])[0].f1

    def stop_when_fit(epoch, model, mean_loss):
        if epoch % 5:
            return False
        if exact_f1(model) == 1.0:
            reached.append(epoch)
            return True
        return False

    checkpoint = tmp_path / "overfit.npz"
    model, log = train(
        corpus, relations, train_cfg, checkpoint_path=checkpoint, on_epoch=stop_when_fit
    )
    elapsed = time.perf_counter() - started

    final_f1 = exact_f1(model)

    # the checkpoint evaluated on its own training corpus via the CLI
    # reports the same perfect score
    data = tmp_path / "overfit.jsonl"
    save_native(corpus, relations, data)
    code = cli_main(
        ["eval", "--data", str(data), "--checkpoint", str(checkpoint), "--match", "exact"]
    )
    cli_out = capsys.readouterr().out
    cli_perfect = code == 0 and "exact.f1=1.0" in cli_out

    ok = (
        bool(reached)
        and reached[0] <= 200
        and final_f1 == 1.0
        and elapsed < 300.0
        and cli_perfect
    )
    report(
        5,
        ok,
        f"overfit run reached exact-match F1 {final_f1:.3f} at epoch "
        f"{reached[0] if reached else '>200'} (<= 200), {elapsed:.0f}s (< 300s); "
        f"CLI eval on the checkpoint prints exact F1 1.0",
    )


def test_criterion_6_padding_inertia(report):
    # the true-length loss the program trains on, against the loss over
    # the same sentence padded with token 0 and its padded cells masked out
    config = SynthConfig(sentences=12, num_relations=3, seed=606)
    corpus, relations, _ = generate_corpus(config)
    vocab = build_vocab(corpus)
    model = init_model(relations, vocab, TrainConfig(seed=8))
    params = replace(model.params, dropout_rate=0.0)
    num_rel = len(relations)
    tables = model.arrays["token_table"], model.arrays["positional_table"]

    worst = 0.0
    for s in corpus:
        n = len(s.sentence)
        gold, _ = encode(s, num_rel)
        ids = np.zeros(n + 17, dtype=np.int64)
        ids[:n] = vocab.indices(s.sentence.tokens)
        emb = encode_indices(ids[:n], *tables)
        values = [train_grads(emb, gold, params, 0).loss]
        for pad in (n + 1, n + 9, n + 17):
            emb = encode_indices(ids[:pad], *tables)
            values.append(concat_reference(emb, params, *pad_cells(gold, pad))[1])
        worst = max(worst, max(values) - min(values))
    ok = worst <= 1e-12
    report(
        6,
        ok,
        f"true-length loss and masked losses at three padding lengths on "
        f"{len(corpus)} sentences differ by at most {worst:.2e} (<= 1e-12)",
    )


def test_criterion_7_metrics_against_brute_force_oracles(report):
    rng = np.random.default_rng(777)
    pairs = 0
    mismatches = 0
    ordering_violations = 0
    while pairs < 1000:
        length = int(rng.integers(4, 14))
        gold = frozenset(random_triples(rng, length, 4))
        pred = perturb(rng, gold, length, 4)
        pairs += 1

        partial = correct_count(pred, gold, PARTIAL)
        exact = correct_count(pred, gold, EXACT)
        if partial != max_bipartite_matching(pred, gold, partial_compatible):
            mismatches += 1
        if exact != max_bipartite_matching(pred, gold, exact_compatible):
            mismatches += 1
        if exact > partial:
            ordering_violations += 1

        p, r, f1 = micro_prf(exact, len(pred), len(gold))
        want_p = exact / len(pred) if pred else 0.0
        want_r = exact / len(gold) if gold else 0.0
        want_f = 2 * want_p * want_r / (want_p + want_r) if want_p + want_r else 0.0
        if (p, r, f1) != (want_p, want_r, want_f):
            mismatches += 1

    ok = mismatches == 0 and ordering_violations == 0
    report(
        7,
        ok,
        f"match/micro metrics on {pairs} random (pred, gold) pairs agree with "
        f"brute-force oracles exactly; exact <= partial held in all cases",
    )


NYT_STAR_ENV = "RELGRID_NYT_STAR_TEST"


def test_criterion_8_public_test_set_statistics(report, capsys):
    path = os.environ.get(NYT_STAR_ENV) or str(
        Path(__file__).resolve().parent.parent / "data" / "nyt_star_test.jsonl"
    )
    if not Path(path).exists():
        with capsys.disabled():
            print(
                f"[criterion 8] SKIP  optional data-dependent check: public "
                f"test file not present (set {NYT_STAR_ENV} to run)",
                flush=True,
            )
        pytest.skip("public NYT* test file not available")

    names: list[str] = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        for _, rel, _ in json.loads(line).get("triple_list", []):
            if rel not in names:
                names.append(rel)
    vocab = RelationVocab(names=tuple(names))
    corpus, warnings = load_public(path, vocab, match_mode="last-token", max_seq_len=None)
    stats = corpus_stats(corpus)

    expected = {"normal": 3266, "seo": 1297, "epo": 978, "hto": 45}
    ok = (
        all(stats.pattern_counts.get(k, 0) == v for k, v in expected.items())
        and stats.triples == 8110
    )
    report(
        8,
        ok,
        f"public test-set stats {stats.pattern_counts}, triples {stats.triples} "
        f"vs expected {expected}, triples 8110 ({len(warnings)} resolution warnings)",
    )
