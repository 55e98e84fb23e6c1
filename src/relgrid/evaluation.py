"""Evaluation harness: partial/exact micro P/R/F1, overlap-pattern and
triple-count breakdowns, and entity-pair / relation sub-task scores.

Matching is one-to-one: each gold triple can satisfy at most one prediction,
so duplicate-looking predictions cannot inflate recall. Under partial match
a triple is correct when the relation and the end tokens of both entities
match; exact match requires full span equality.

All counting is one array core over a corpus's stacked int64 rows
(s, k, hb, he, tb, te), s the sentence index. A match key packs columns into
one exact int64: partial (s, k, he, te), exact all six, the entity pair
either without k, the relation (s, k). A one-to-one count takes the smaller
multiplicity of each shared key; a sub-task counts distinct shared keys.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

import numpy as np

from .corpus import AnnotatedSentence, BUCKETS, PATTERN_FLAGS, PatternLabel, RelationVocab, Triple
from .corpus import classify_pattern
from .scorer import ScorerParams
from .tagging import NUM_TAGS, Tag, TAG_NAMES

PARTIAL = "partial"
EXACT = "exact"
MATCH_MODES = (PARTIAL, EXACT)

# columns of a stacked row; per match mode the triple key and the entity-pair key
_S, _K, _HB, _HE, _TB, _TE = range(6)
_MATCH_COLUMNS = {
    PARTIAL: ((_S, _K, _HE, _TE), (_S, _HE, _TE)),
    EXACT: ((_S, _K, _HB, _HE, _TB, _TE), (_S, _HB, _HE, _TB, _TE)),
}


def triple_rows(triples: Iterable[Triple]) -> np.ndarray:
    """(n, 5) int64 rows (k, hb, he, tb, te), the layout of tagging.decode_array."""
    rows = [(t.relation, t.head.begin, t.head.end, t.tail.begin, t.tail.end) for t in triples]
    return np.array(rows, dtype=np.int64).reshape(-1, 5)


def stack_rows(per_sentence: Iterable[np.ndarray]) -> np.ndarray:
    """One (n, 6) int64 array: each sentence's rows behind its index, in order."""
    per_sentence = [np.empty((0, 5), dtype=np.int64), *per_sentence]
    sentence = np.repeat(np.arange(len(per_sentence) - 1), [len(r) for r in per_sentence[1:]])
    return np.column_stack([sentence, np.concatenate(per_sentence)])


def _keys(pred: np.ndarray, gold: np.ndarray, columns) -> tuple[np.ndarray, np.ndarray]:
    """Exact int64 keys of the chosen columns for each side, ordered like the column tuples."""
    table = np.concatenate([pred, gold])[:, columns]
    key = table[:, 0]
    for column in table.T[1:]:
        column = column - column.min(initial=0)  # a negative relation index from a caller
        radix = int(column.max(initial=0)) + 1
        if (int(key.max(initial=0)) + 1) * radix > 2**62:
            key = np.unique(key, return_inverse=True)[1]  # dense rank: same order, small
        key = key * radix + column
    return key[: len(pred)], key[len(pred) :]


def _shared(pred: np.ndarray, gold: np.ndarray, columns):
    """Count the keys of the chosen columns: for every key on both sides its
    sentence and one-to-one matched count, then the distinct-key counts."""
    pred_keys, gold_keys = _keys(pred, gold, columns)
    pred_keys, pred_counts = np.unique(pred_keys, return_counts=True)
    gold_keys, first, gold_counts = np.unique(gold_keys, return_index=True, return_counts=True)
    _, p, g = np.intersect1d(pred_keys, gold_keys, assume_unique=True, return_indices=True)
    distinct = PooledCounts(len(p), len(pred_keys), len(gold_keys))
    return gold[first[g], _S], np.minimum(pred_counts[p], gold_counts[g]), distinct


def _correct(pred: np.ndarray, gold: np.ndarray, match_mode: str, sentences: int) -> np.ndarray:
    """One-to-one correct count of each sentence."""
    if match_mode not in _MATCH_COLUMNS:
        raise ValueError(f"unknown match mode {match_mode!r}")
    sentence, matched, _ = _shared(pred, gold, _MATCH_COLUMNS[match_mode][0])
    return np.bincount(sentence, weights=matched, minlength=sentences).astype(np.int64)


def match_count(pred: Iterable[Triple], gold: Iterable[Triple], match_mode: str) -> int:
    """One-to-one correct count. Partial: relation and both end tokens
    agree; exact: relation and both full spans agree."""
    rows = [stack_rows([triple_rows(triples)]) for triples in (pred, gold)]
    return int(_correct(*rows, match_mode, 1).sum())


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
    report = breakdown(corpus, predictions, match_mode)
    return report.entity_pair, report.relation


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
    pred = stack_rows(map(triple_rows, predictions))
    gold = stack_rows(triple_rows(s.triples) for s in corpus)
    return breakdown_rows(pred, gold, [classify_pattern(s) for s in corpus], match_mode)


def breakdown_rows(
    pred: np.ndarray, gold: np.ndarray, labels: list[PatternLabel], match_mode: str
) -> MetricsReport:
    """breakdown on stacked predicted and gold rows (see stack_rows), given
    each sentence's classify_pattern label."""
    sentences = len(labels)
    per_sentence = zip(
        _correct(pred, gold, match_mode, sentences).tolist(),
        np.bincount(pred[:, _S], minlength=sentences).tolist(),
        np.bincount(gold[:, _S], minlength=sentences).tolist(),
    )
    overall = PooledCounts()
    pattern_pools: dict[str, PooledCounts] = {}
    bucket_pools: dict[str, PooledCounts] = {}
    for label, counts in zip(labels, per_sentence):
        overall.add(*counts)
        for flag in label.flags:
            pattern_pools.setdefault(flag, PooledCounts()).add(*counts)
        if label.bucket is not None:
            bucket_pools.setdefault(label.bucket, PooledCounts()).add(*counts)

    precision, recall, f1 = overall.prf()
    subtask_keys = (_MATCH_COLUMNS[match_mode][1], (_S, _K))  # entity pair, relation
    entity_pair, relation = (_shared(pred, gold, columns)[2].prf() for columns in subtask_keys)
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
