"""Evaluation harness: partial/exact micro P/R/F1, overlap-pattern and
triple-count breakdowns, and entity-pair / relation sub-task scores.

Matching is one-to-one: each gold triple can satisfy at most one prediction,
so duplicate-looking predictions cannot inflate recall. Under partial match
a triple is correct when the relation and the end tokens of both entities
match; exact match requires full span equality.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from operator import attrgetter
from pathlib import Path
from typing import Iterable

from .corpus import AnnotatedSentence, BUCKETS, PATTERN_FLAGS, RelationVocab, Triple, classify_pattern
from .scorer import ScorerParams
from .tagging import NUM_TAGS, Tag, TAG_NAMES

PARTIAL = "partial"
EXACT = "exact"
MATCH_MODES = (PARTIAL, EXACT)


# Match keys are plain int tuples, so hashing them never reaches Triple/Span.
_MATCH_KEYS = {
    PARTIAL: attrgetter("relation", "head.end", "tail.end"),
    EXACT: attrgetter("relation", "head.begin", "head.end", "tail.begin", "tail.end"),
}
# The entity-pair sub-task drops the relation from the match key.
_PAIR_KEYS = {
    PARTIAL: attrgetter("head.end", "tail.end"),
    EXACT: attrgetter("head.begin", "head.end", "tail.begin", "tail.end"),
}
_RELATION = attrgetter("relation")


def _key(keys: dict, match_mode: str) -> attrgetter:
    if match_mode not in keys:
        raise ValueError(f"unknown match mode {match_mode!r}")
    return keys[match_mode]


def match_count(pred: Iterable[Triple], gold: Iterable[Triple], match_mode: str) -> int:
    """One-to-one correct count. Partial: relation and both end tokens
    agree; exact: relation and both full spans agree."""
    key = _key(_MATCH_KEYS, match_mode)
    gold_counts = Counter(map(key, gold))
    # only predicted keys that some gold triple has can match; & keeps the smaller count
    matched = Counter(filter(gold_counts.__contains__, map(key, pred)))
    return sum((gold_counts & matched).values())


def micro_prf(correct: int, predicted: int, gold: int) -> tuple[float, float, float]:
    """Pooled-count precision, recall and F1 (harmonic mean, 0 when P+R=0)."""
    if min(correct, predicted, gold) < 0 or correct > predicted or correct > gold:
        raise ValueError("need 0 <= correct <= min(predicted, gold)")
    precision = correct / predicted if predicted else 0.0
    recall = correct / gold if gold else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


@dataclass
class PooledCounts:
    correct: int = 0
    predicted: int = 0
    gold: int = 0

    def add(self, correct: int, predicted: int, gold: int) -> None:
        self.correct += correct
        self.predicted += predicted
        self.gold += gold

    def prf(self) -> tuple[float, float, float]:
        return micro_prf(self.correct, self.predicted, self.gold)


@dataclass
class MetricsReport:
    match_mode: str
    precision: float
    recall: float
    f1: float
    counts: PooledCounts
    per_pattern: dict[str, tuple[float, float, float]] = field(default_factory=dict)
    per_bucket: dict[str, tuple[float, float, float]] = field(default_factory=dict)
    entity_pair: tuple[float, float, float] = (0.0, 0.0, 0.0)
    relation: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def to_text(self) -> str:
        lines = [
            f"match mode: {self.match_mode}",
            f"  overall     P {self.precision:.4f}  R {self.recall:.4f}  F1 {self.f1:.4f}"
            f"  (correct {self.counts.correct} / pred {self.counts.predicted}"
            f" / gold {self.counts.gold})",
        ]
        for flag in PATTERN_FLAGS:
            if flag in self.per_pattern:
                p, r, f1 = self.per_pattern[flag]
                lines.append(f"  {flag:<11} P {p:.4f}  R {r:.4f}  F1 {f1:.4f}")
        for bucket in BUCKETS:
            if bucket in self.per_bucket:
                p, r, f1 = self.per_bucket[bucket]
                lines.append(f"  N={bucket:<9} P {p:.4f}  R {r:.4f}  F1 {f1:.4f}")
        ep, rel = self.entity_pair, self.relation
        lines.append(f"  entity-pair P {ep[0]:.4f}  R {ep[1]:.4f}  F1 {ep[2]:.4f}")
        lines.append(f"  relation    P {rel[0]:.4f}  R {rel[1]:.4f}  F1 {rel[2]:.4f}")
        return "\n".join(lines)

    def to_kv(self) -> str:
        """Stable key=value lines for machine diffing."""
        rows = {
            f"{self.match_mode}.precision": self.precision,
            f"{self.match_mode}.recall": self.recall,
            f"{self.match_mode}.f1": self.f1,
            f"{self.match_mode}.correct": self.counts.correct,
            f"{self.match_mode}.predicted": self.counts.predicted,
            f"{self.match_mode}.gold": self.counts.gold,
        }
        for flag, (p, r, f1) in self.per_pattern.items():
            rows[f"{self.match_mode}.pattern.{flag}.f1"] = f1
        for bucket, (p, r, f1) in self.per_bucket.items():
            rows[f"{self.match_mode}.bucket.{bucket}.f1"] = f1
        rows[f"{self.match_mode}.entity_pair.f1"] = self.entity_pair[2]
        rows[f"{self.match_mode}.relation.f1"] = self.relation[2]
        return "\n".join(f"{k}={rows[k]}" for k in sorted(rows))


def subtask_metrics(
    corpus: list[AnnotatedSentence],
    predictions: list[frozenset[Triple]],
    match_mode: str,
) -> tuple[tuple[float, float, float], tuple[float, float, float]]:
    """Entity-pair and relation sub-task P/R/F1.

    Triples are projected per sentence to (head, tail) pairs or to bare
    relations, de-duplicated per sentence, then pooled corpus-wide. The
    entity-pair granularity follows match_mode; relations compare equal.
    """
    if len(corpus) != len(predictions):
        raise ValueError("one prediction set per sentence required")
    pair_key = _key(_PAIR_KEYS, match_mode)
    pair_pool = PooledCounts()
    rel_pool = PooledCounts()
    for s, pred in zip(corpus, predictions):
        for key, pool in ((pair_key, pair_pool), (_RELATION, rel_pool)):
            pred_keys = set(map(key, pred))
            gold_keys = set(map(key, s.triples))
            pool.add(len(pred_keys & gold_keys), len(pred_keys), len(gold_keys))
    return pair_pool.prf(), rel_pool.prf()


def breakdown(
    corpus: list[AnnotatedSentence],
    predictions: list[frozenset[Triple]],
    match_mode: str,
) -> MetricsReport:
    """Overall metrics plus per-pattern, per-bucket and sub-task scores.

    Pattern pools are non-exclusive: a sentence carrying several flags
    contributes its counts to each. Buckets follow the gold triple count.
    """
    if len(corpus) != len(predictions):
        raise ValueError("one prediction set per sentence required")
    overall = PooledCounts()
    pattern_pools: dict[str, PooledCounts] = {}
    bucket_pools: dict[str, PooledCounts] = {}
    for s, pred in zip(corpus, predictions):
        correct = match_count(pred, s.triples, match_mode)
        counts = (correct, len(pred), len(s.triples))
        overall.add(*counts)
        label = classify_pattern(s)
        for flag in label.flags:
            pattern_pools.setdefault(flag, PooledCounts()).add(*counts)
        if label.bucket is not None:
            bucket_pools.setdefault(label.bucket, PooledCounts()).add(*counts)

    precision, recall, f1 = overall.prf()
    entity_pair, relation = subtask_metrics(corpus, predictions, match_mode)
    return MetricsReport(
        match_mode=match_mode,
        precision=precision,
        recall=recall,
        f1=f1,
        counts=overall,
        per_pattern={flag: pool.prf() for flag, pool in pattern_pools.items()},
        per_bucket={bucket: pool.prf() for bucket, pool in bucket_pools.items()},
        entity_pair=entity_pair,
        relation=relation,
    )


def export_relation_embeddings(
    params: ScorerParams, relations: RelationVocab, path: str | Path
) -> None:
    """Tab-separated dump of rel_tag_emb, one row per (relation, tag) column.

    Row label is `relation_name/tag_name`; values round-trip float64 exactly
    (shortest-repr formatting).
    """
    lines = []
    for k, name in enumerate(relations.names):
        for tag in Tag:
            column = params.rel_tag_emb[:, NUM_TAGS * k + int(tag)]
            label = f"{name}/{TAG_NAMES[tag]}"
            lines.append("\t".join([label] + [repr(float(v)) for v in column]))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
