"""Evaluation harness: partial/exact micro P/R/F1, overlap-pattern and
triple-count breakdowns, and entity-pair / relation sub-task scores.

Matching is one-to-one: each gold triple can satisfy at most one prediction,
so duplicate-looking predictions cannot inflate recall. Under partial match
a triple is correct when the relation and the end tokens of both entities
match; exact match requires full span equality.

All counting is one array core over a corpus's stacked column-major int64
rows (s, k, hb, he, tb, te): each sentence's tagging.decode rows or gold
Sentence.triples behind its index s. A match key packs columns, one
at a time, into one exact int64: partial (s, k, he, te), exact all six, the
entity pair either without k, the relation (s, k). A one-to-one count looks
each predicted key up among the sorted distinct gold keys, so no predicted
triple key is sorted; only the sub-task keys are, to count the distinct
predicted keys by an adjacent compare. The per-sentence counts are summed
per overlap pattern and per triple-count bucket by corpus.pattern_pools.

A MetricsReport keeps every pool as its (correct, predicted, gold) int
counts; P/R/F1 are derived from them by micro_prf only when printed; reports add.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from .corpus import BUCKETS, PATTERN_FLAGS, RelationVocab, pattern_pools, write_lines
from .tagging import NUM_TAGS, TAG_NAMES

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


def _distinct(pred: np.ndarray, gold: np.ndarray, columns) -> tuple[int, int, int]:
    """Distinct-key counts of the chosen columns: shared, predicted, gold."""
    pred_keys, gold_keys = _keys(pred, gold, columns)
    pred_keys = np.sort(pred_keys)  # plain np.unique(keys) takes a slow hash path in NumPy 2.4
    gold_keys = np.unique(gold_keys, return_counts=True)[0]
    shared = np.append(pred_keys, -1).take(np.searchsorted(pred_keys, gold_keys)) == gold_keys
    predicted = np.count_nonzero(pred_keys[1:] != pred_keys[:-1]) + (len(pred_keys) > 0)
    return int(np.count_nonzero(shared)), int(predicted), len(gold_keys)


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
class MetricsReport:
    """One match mode's pooled (correct, predicted, gold) counts: overall, per
    overlap pattern, per triple-count bucket and per sub-task. P/R/F1 are
    derived from them by micro_prf when the report is printed."""

    match_mode: str
    counts: tuple[int, int, int]
    per_pattern: dict[str, tuple[int, int, int]]
    per_bucket: dict[str, tuple[int, int, int]]
    entity_pair: tuple[int, int, int]
    relation: tuple[int, int, int]

    @property
    def f1(self) -> float:
        return micro_prf(*self.counts)[2]

    def __add__(self, other: MetricsReport) -> MetricsReport:
        """The pool-by-pool sum with the same mode's report on other sentences, exact as every
        match key carries its sentence; a pool one side lacks counts (0, 0, 0) there."""
        if other.match_mode != self.match_mode:
            raise ValueError(f"cannot add a {other.match_mode} report to a {self.match_mode} one")

        def add(a, b):  # counts, or pools of them by name in PATTERN_FLAGS and BUCKETS order
            if isinstance(a, tuple):
                return tuple(x + y for x, y in zip(a, b))
            return {n: add(a.get(n, (0,) * 3), b.get(n, (0,) * 3)) for n in PATTERN_FLAGS + BUCKETS if n in a or n in b}

        pools = ("counts", "per_pattern", "per_bucket", "entity_pair", "relation")  # the fields after match_mode
        return MetricsReport(self.match_mode, *(add(getattr(self, f), getattr(other, f)) for f in pools))

    def _pools(self) -> list[tuple[str, str, tuple[int, int, int]]]:
        """(table label, key name, counts) of each pool after the overall one, in print
        order: patterns and buckets in dict order (breakdown's: PATTERN_FLAGS, BUCKETS)."""
        return [
            *((flag, f"pattern.{flag}", counts) for flag, counts in self.per_pattern.items()),
            *((f"N={bucket}", f"bucket.{bucket}", counts) for bucket, counts in self.per_bucket.items()),
            ("entity-pair", "entity_pair", self.entity_pair),
            ("relation", "relation", self.relation),
        ]

    def to_text(self) -> str:
        def row(label, counts):
            p, r, f1 = micro_prf(*counts)
            return f"  {label:<11} P {p:.4f}  R {r:.4f}  F1 {f1:.4f}"

        correct, predicted, gold = self.counts
        lines = [
            f"match mode: {self.match_mode}",
            row("overall", self.counts) + f"  (correct {correct} / pred {predicted} / gold {gold})",
        ]
        lines += [row(label, counts) for label, _, counts in self._pools()]
        return "\n".join(lines)

    def to_kv(self) -> str:
        """Stable key=value lines for machine diffing."""
        rows = dict(zip(("precision", "recall", "f1"), micro_prf(*self.counts)))
        rows.update(zip(("correct", "predicted", "gold"), self.counts))
        rows.update((f"{key}.f1", micro_prf(*counts)[2]) for _, key, counts in self._pools())
        return "\n".join(f"{self.match_mode}.{k}={rows[k]}" for k in sorted(rows))


def breakdown(
    pred: np.ndarray, gold: np.ndarray, flags: list[frozenset[str]], match_modes: Iterable[str]
) -> list[MetricsReport]:
    """One report per match mode: the pooled counts overall, per pattern, per
    bucket and per sub-task, from stacked predicted and gold rows (see
    stack_rows) and each sentence's classify_pattern flags.

    The per-sentence (correct, predicted, gold) counts are pooled through
    corpus.pattern_pools: pattern pools are non-exclusive, so a sentence
    carrying several flags contributes its counts to each, and buckets follow
    the gold triple count, so a sentence without gold triples joins none.
    The entity-pair and relation sub-tasks project each sentence's triples
    to distinct (head, tail) pairs, at the match mode's granularity, or to
    distinct relations, and pool those corpus-wide.
    """
    sentences = len(flags)
    predicted, gold_count = (np.bincount(rows[:, _S], minlength=sentences) for rows in (pred, gold))
    last = max(len(predicted), len(gold_count)) - 1
    if last >= sentences:
        raise ValueError(f"row of sentence index {last} but only {sentences} pattern labels")
    relation = _distinct(pred, gold, (_S, _K))  # the same in every match mode
    reports = []
    for match_mode in match_modes:
        counts = np.column_stack([_correct(pred, gold, match_mode, sentences), predicted, gold_count])
        per_flag, per_bucket = pattern_pools(flags, gold_count, counts)
        reports.append(MetricsReport(
            match_mode=match_mode,
            counts=tuple(counts.sum(axis=0).tolist()),
            per_pattern={flag: tuple(pool) for flag, pool in per_flag.items()},
            per_bucket={bucket: tuple(pool) for bucket, pool in per_bucket.items()},
            entity_pair=_distinct(pred, gold, _MATCH_COLUMNS[match_mode][1]),
            relation=relation,
        ))
    return reports


def export_relation_embeddings(
    rel_tag_emb: np.ndarray, relations: RelationVocab, path: str | Path
) -> None:
    """Tab-separated dump of the hidden x 4K rel_tag_emb array, one row
    per (relation, tag) column.

    Row label is `relation_name/tag_name`; values round-trip float64 exactly
    (shortest-repr formatting).
    """
    lines = []
    for k, name in enumerate(relations.names):
        for tag, tag_name in enumerate(TAG_NAMES):
            column = rel_tag_emb[:, NUM_TAGS * k + tag]
            label = f"{name}/{tag_name}"
            lines.append("\t".join([label] + [repr(float(v)) for v in column]))
    write_lines(path, lines)
