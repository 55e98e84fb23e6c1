"""Evaluation harness: partial/exact micro P/R/F1, overlap-pattern and
triple-count breakdowns, and entity-pair / relation sub-task scores.

Matching is one-to-one: each gold triple can satisfy at most one prediction,
so duplicate-looking predictions cannot inflate recall. Under partial match
a triple is correct when the relation and the end tokens of both entities
match; exact match requires full span equality.

All counting is one array core over a corpus's stacked column-major int64
rows (s, k, hb, he, tb, te): each sentence's tagging.decode or triple_rows
rows behind its index s. A match key packs columns, one at a time, into one
exact int64: partial (s, k, he, te), exact all six, the entity pair either
without k, the relation (s, k). A one-to-one count looks each predicted key
up among the sorted distinct gold keys, so no predicted triple key is
sorted; only the sub-task keys are, to count the distinct predicted keys by
an adjacent compare.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

import numpy as np

from .corpus import BUCKETS, PATTERN_FLAGS, PatternLabel, RelationVocab
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


def stack_rows(per_sentence: Iterable[np.ndarray]) -> np.ndarray:
    """One column-major (n, 6) int64 array: each sentence's rows behind its index, in order."""
    per_sentence = [np.empty((0, 5), dtype=np.int64), *per_sentence]
    lengths = [len(r) for r in per_sentence[1:]]
    stacked = np.empty((sum(lengths), 6), dtype=np.int64, order="F")
    stacked[:, _S] = np.repeat(np.arange(len(lengths)), lengths)
    np.concatenate(per_sentence, out=stacked[:, 1:])
    return stacked


def _keys(pred: np.ndarray, gold: np.ndarray, columns) -> list[np.ndarray]:
    """Exact int64 keys >= 0 of the chosen columns for each side, packed one
    column at a time under the running product of the radices."""
    keys, bound = [np.zeros(len(pred), np.int64), np.zeros(len(gold), np.int64)], 1
    for c in columns:
        low = min(0, *(int(side[:, c].min(initial=0)) for side in (pred, gold)))  # a caller's negative relation
        radix = max(int(side[:, c].max(initial=0)) for side in (pred, gold)) - low + 1
        if bound * radix > 2**62:
            unique, rank = np.unique(np.concatenate(keys), return_inverse=True)  # dense rank: same order
            keys, bound = np.split(rank, [len(pred)]), len(unique)
        for key, side in zip(keys, (pred, gold)):
            key *= radix
            key += side[:, c] - low if low else side[:, c]
        bound *= radix
    return keys


def _shared(pred: np.ndarray, gold: np.ndarray, columns):
    """Look up each predicted key of the chosen columns among the distinct gold
    keys: for every gold key its sentence, gold count and predicted count."""
    pred_keys, gold_keys = _keys(pred, gold, columns)
    gold_keys, first, gold_counts = np.unique(gold_keys, return_index=True, return_counts=True)
    slot = np.searchsorted(gold_keys, pred_keys)
    hit = np.append(gold_keys, -1).take(slot) == pred_keys  # slot len(gold_keys) is a miss
    return gold[first, _S], gold_counts, np.bincount(slot[hit], minlength=len(gold_keys))


def _distinct(pred: np.ndarray, gold: np.ndarray, columns) -> PooledCounts:
    """Distinct-key counts of the chosen columns: shared, predicted, gold."""
    pred_keys, gold_keys = _keys(pred, gold, columns)
    pred_keys = np.sort(pred_keys)  # plain np.unique(keys) takes a slow hash path in NumPy 2.4
    gold_keys = np.unique(gold_keys, return_counts=True)[0]
    shared = np.append(pred_keys, -1).take(np.searchsorted(pred_keys, gold_keys)) == gold_keys
    predicted = np.count_nonzero(pred_keys[1:] != pred_keys[:-1]) + (len(pred_keys) > 0)
    return PooledCounts(int(np.count_nonzero(shared)), int(predicted), len(gold_keys))


def _correct(pred: np.ndarray, gold: np.ndarray, match_mode: str, sentences: int) -> np.ndarray:
    """One-to-one correct count of each sentence."""
    if match_mode not in _MATCH_COLUMNS:
        raise ValueError(f"unknown match mode {match_mode!r}")
    sentence, gold_counts, hits = _shared(pred, gold, _MATCH_COLUMNS[match_mode][0])
    return np.bincount(sentence, weights=np.minimum(gold_counts, hits), minlength=sentences).astype(np.int64)


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


def breakdown(
    pred: np.ndarray, gold: np.ndarray, labels: list[PatternLabel], match_modes: Iterable[str]
) -> list[MetricsReport]:
    """One report per match mode: overall metrics plus per-pattern, per-bucket
    and sub-task scores, from stacked predicted and gold rows (see stack_rows)
    and each sentence's classify_pattern label.

    Pattern pools are non-exclusive: a sentence carrying several flags
    contributes its counts to each. Buckets follow the gold triple count.
    The entity-pair and relation sub-tasks project each sentence's triples
    to distinct (head, tail) pairs, at the match mode's granularity, or to
    distinct relations, and pool those corpus-wide.
    """
    sentences = len(labels)
    predicted, gold_count = (np.bincount(rows[:, _S], minlength=sentences) for rows in (pred, gold))
    last = max(len(predicted), len(gold_count)) - 1
    if last >= sentences:
        raise ValueError(f"row of sentence index {last} but only {sentences} pattern labels")
    relation = _distinct(pred, gold, (_S, _K)).prf()  # the same in every match mode
    reports = []
    for match_mode in match_modes:
        correct = _correct(pred, gold, match_mode, sentences)
        overall = PooledCounts()
        pattern_pools: dict[str, PooledCounts] = {}
        bucket_pools: dict[str, PooledCounts] = {}
        for label, *counts in zip(labels, correct.tolist(), predicted.tolist(), gold_count.tolist()):
            overall.add(*counts)
            for flag in label.flags:
                pattern_pools.setdefault(flag, PooledCounts()).add(*counts)
            if label.bucket is not None:
                bucket_pools.setdefault(label.bucket, PooledCounts()).add(*counts)
        precision, recall, f1 = overall.prf()
        reports.append(MetricsReport(
            match_mode=match_mode,
            precision=precision,
            recall=recall,
            f1=f1,
            counts=overall,
            per_pattern={flag: pool.prf() for flag, pool in pattern_pools.items()},
            per_bucket={bucket: pool.prf() for bucket, pool in bucket_pools.items()},
            entity_pair=_distinct(pred, gold, _MATCH_COLUMNS[match_mode][1]).prf(),
            relation=relation,
        ))
    return reports


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
