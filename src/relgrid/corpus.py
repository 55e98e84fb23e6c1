"""Corpus data model: sentences, spans, triples, loaders and overlap statistics.

Two on-disk formats are supported:

* native: one JSON object per line with a list of non-empty token strings
  and explicit 0-based inclusive token spans, each a pair of integers::

      {"id": "s1", "tokens": ["a", "b"],
       "triples": [{"head": [0, 0], "relation": "r", "tail": [1, 1]}]}

* public: one JSON object per line with raw text and entity strings, as
  distributed with the common NYT/WebNLG releases::

      {"text": "a b c", "triple_list": [["a", "r", "b c"]]}
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

NORMAL = "normal"
EPO = "epo"
SEO = "seo"
HTO = "hto"

PATTERN_FLAGS = (NORMAL, EPO, SEO, HTO)
BUCKETS = ("1", "2", "3", "4", "5+")


class CorpusError(ValueError):
    """Malformed corpus file or record."""


@dataclass(frozen=True, order=True)
class Span:
    """Inclusive token span [begin, end], 0-based."""

    begin: int
    end: int

    def __post_init__(self):
        if not (0 <= self.begin <= self.end):
            raise ValueError(f"invalid span ({self.begin}, {self.end})")

    def overlaps(self, other: "Span") -> bool:
        return not (self.end < other.begin or other.end < self.begin)


@dataclass(frozen=True, order=True)
class Triple:
    """(head span, relation index, tail span)."""

    head: Span
    relation: int
    tail: Span


@dataclass(frozen=True)
class Sentence:
    tokens: tuple[str, ...]
    id: str = ""

    def __post_init__(self):
        if len(self.tokens) < 1:
            raise ValueError(f"sentence {self.id!r} has no tokens")
        if any(not t for t in self.tokens):
            raise ValueError(f"sentence {self.id!r} contains an empty token")

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass(frozen=True)
class RelationVocab:
    """Ordered, unique relation names; index in `names` is the relation id."""

    names: tuple[str, ...]

    def __post_init__(self):
        if len(self.names) < 1:
            raise ValueError("relation vocabulary is empty")
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate relation names")

    def __len__(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise CorpusError(f"unknown relation name {name!r}") from None


@dataclass(frozen=True)
class AnnotatedSentence:
    sentence: Sentence
    triples: frozenset[Triple]

    def __post_init__(self):
        n = len(self.sentence)
        for t in self.triples:
            for span in (t.head, t.tail):
                if span.end >= n:
                    raise ValueError(
                        f"sentence {self.sentence.id!r}: span ({span.begin}, "
                        f"{span.end}) exceeds length {n}"
                    )

    def sorted_triples(self) -> list[Triple]:
        """Canonical deterministic ordering, independent of set iteration."""
        return sorted(self.triples)


@dataclass(frozen=True)
class PatternLabel:
    """Overlap flags plus triple-count bucket.

    `bucket` is None exactly when the sentence carries no triples (the
    explicit no-triples marker); in that case `flags` is empty too.
    """

    flags: frozenset[str]
    bucket: str | None


def _shared_span_count(a: Triple, b: Triple) -> int:
    """Number of entity spans shared by two triples, with multiplicity."""
    remaining = [b.head, b.tail]
    shared = 0
    for span in (a.head, a.tail):
        if span in remaining:
            remaining.remove(span)
            shared += 1
    return shared


def classify_pattern(s: AnnotatedSentence) -> PatternLabel:
    """Assign overlap flags (normal/epo/seo/hto) and a triple-count bucket.

    epo: some pair of triples has the same unordered entity-span pair.
    seo: some pair of triples shares exactly one entity span.
    hto: some single triple's head and tail spans overlap as token ranges.
    normal: at least one triple and none of the above.
    """
    triples = s.sorted_triples()
    if not triples:
        return PatternLabel(flags=frozenset(), bucket=None)

    flags = set()
    if any(t.head.overlaps(t.tail) for t in triples):
        flags.add(HTO)
    for i in range(len(triples)):
        for j in range(i + 1, len(triples)):
            shared = _shared_span_count(triples[i], triples[j])
            if shared == 2:
                flags.add(EPO)
            elif shared == 1:
                flags.add(SEO)
    if not flags:
        flags.add(NORMAL)

    bucket = BUCKETS[min(len(triples), 5) - 1]
    return PatternLabel(flags=frozenset(flags), bucket=bucket)


@dataclass
class CorpusStats:
    sentences: int
    triples: int
    pattern_counts: dict[str, int]
    bucket_counts: dict[str, int]
    no_triple_sentences: int

    def to_text(self) -> str:
        lines = [
            f"sentences      {self.sentences}",
            f"triples        {self.triples}",
        ]
        for flag in PATTERN_FLAGS:
            lines.append(f"{flag:<14} {self.pattern_counts.get(flag, 0)}")
        for bucket in BUCKETS:
            lines.append(f"N={bucket:<12} {self.bucket_counts.get(bucket, 0)}")
        if self.no_triple_sentences:
            lines.append(f"no-triples     {self.no_triple_sentences}")
        return "\n".join(lines)


def corpus_stats(corpus: list[AnnotatedSentence]) -> CorpusStats:
    """Table-style breakdown: per-flag, per-bucket and total triple counts.

    Pattern counts may sum to more than the sentence count since flags are
    non-exclusive.
    """
    if not corpus:
        raise CorpusError("empty corpus")
    pattern_counts: Counter = Counter()
    bucket_counts: Counter = Counter()
    no_triples = 0
    total_triples = 0
    for s in corpus:
        label = classify_pattern(s)
        total_triples += len(s.triples)
        if label.bucket is None:
            no_triples += 1
            continue
        for flag in label.flags:
            pattern_counts[flag] += 1
        bucket_counts[label.bucket] += 1
    return CorpusStats(
        sentences=len(corpus),
        triples=total_triples,
        pattern_counts=dict(pattern_counts),
        bucket_counts=dict(bucket_counts),
        no_triple_sentences=no_triples,
    )


def _truncate(
    sid: str,
    tokens: list[str],
    triples: Iterable[Triple],
    max_seq_len: int | None,
    warnings: list[str],
) -> tuple[list[str], list[Triple]]:
    """Cut tokens at max_seq_len and drop triples reaching past the cut."""
    if max_seq_len is None or len(tokens) <= max_seq_len:
        return tokens, list(triples)
    kept = []
    for t in triples:
        if t.head.end < max_seq_len and t.tail.end < max_seq_len:
            kept.append(t)
        else:
            warnings.append(
                f"sentence {sid!r}: triple {t} dropped by truncation to "
                f"{max_seq_len} tokens"
            )
    warnings.append(f"sentence {sid!r}: truncated to {max_seq_len} tokens")
    return tokens[:max_seq_len], kept


def parse_record(text: str, where: str) -> dict:
    """One JSON object; errors start with `where`."""
    try:
        record = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CorpusError(f"{where}: invalid JSON ({exc})") from exc
    if not isinstance(record, dict):
        raise CorpusError(f"{where}: record must be a JSON object")
    return record


def _records(path: Path) -> Iterable[tuple[int, dict]]:
    """(line number, record) for each non-blank line of a JSONL file."""
    if not path.exists():
        raise CorpusError(f"no such file: {path}")
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        if line.strip():
            yield lineno, parse_record(line, f"{path}:{lineno}")


def native_sentence(
    record: dict,
    known: dict[str, int],
    grow: bool,
    where: str,
    max_seq_len: int | None = None,
    warnings: list[str] | None = None,
) -> AnnotatedSentence:
    """One native record as an annotated sentence; errors start with `where`.

    Relation names map to indices through `known`, which gains a new name when
    `grow` is set; otherwise a new name is an error. Truncation to
    `max_seq_len` appends its notices to `warnings`.
    """
    try:
        sid, tokens, raw_triples = record["id"], record["tokens"], record["triples"]
        if not isinstance(sid, str):
            raise ValueError("\"id\" must be a string")
        if not (type(tokens) is list and set(map(type, tokens)) <= {str}):
            raise ValueError("\"tokens\" must be a list of strings")
        if not isinstance(raw_triples, list):
            raise ValueError("\"triples\" must be a list")
        triples = []
        for n, raw in enumerate(raw_triples):
            try:
                head, tail, rel_name = raw["head"], raw["tail"], raw["relation"]
                # exactly two ints each; a JSON bool has its own type
                ok = type(rel_name) is str and list(map(type, head)) == list(map(type, tail)) == [int, int]
            except (KeyError, TypeError):
                ok = False
            if not ok:
                raise ValueError(f"malformed triple {n} in sentence {sid!r}: needs a relation string, "
                                 "head [begin, end] and tail [begin, end] with integer ends")
            if rel_name not in known:
                if not grow:
                    raise ValueError(f"sentence {sid!r}: unknown relation {rel_name!r}")
                known[rel_name] = len(known)
            triples.append(Triple(Span(*head), known[rel_name], Span(*tail)))
        # truncation drops a triple past the cut before the span-bounds check
        tokens, triples = _truncate(sid, tokens, triples, max_seq_len, warnings)
        return AnnotatedSentence(Sentence(tuple(tokens), sid), frozenset(triples))
    except KeyError as exc:
        raise CorpusError(f"{where}: missing field ({exc})") from None
    except ValueError as exc:
        raise CorpusError(f"{where}: {exc}") from None


def load_native(
    path: str | Path,
    vocab: RelationVocab | None = None,
    max_seq_len: int | None = None,
) -> tuple[list[AnnotatedSentence], RelationVocab, list[str]]:
    """Read a native-format JSONL corpus.

    When `vocab` is None the relation vocabulary is built from the file, in
    order of first appearance. Returns (corpus, vocab, warnings); warnings
    hold truncation notices when `max_seq_len` is set.
    """
    path = Path(path)
    known = {name: i for i, name in enumerate(vocab.names)} if vocab else {}
    warnings: list[str] = []
    corpus = [
        native_sentence(record, known, vocab is None, f"{path}:{lineno}", max_seq_len, warnings)
        for lineno, record in _records(path)
    ]
    if vocab is None:
        if not known:
            raise CorpusError(f"{path}: no relations found and no vocab given")
        vocab = RelationVocab(names=tuple(known))
    return corpus, vocab, warnings


def save_native(
    corpus: list[AnnotatedSentence], vocab: RelationVocab, path: str | Path
) -> None:
    """Write a corpus in the native JSONL format (triples in canonical order)."""
    lines = []
    for s in corpus:
        record = {
            "id": s.sentence.id,
            "tokens": list(s.sentence.tokens),
            "triples": [
                {
                    "head": [t.head.begin, t.head.end],
                    "relation": vocab.names[t.relation],
                    "tail": [t.tail.begin, t.tail.end],
                }
                for t in s.sorted_triples()
            ],
        }
        lines.append(json.dumps(record, ensure_ascii=False))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _find_subsequence(tokens: tuple[str, ...], needle: list[str]) -> int:
    """Leftmost index where `needle` occurs as a contiguous run, or -1."""
    n, m = len(tokens), len(needle)
    for start in range(n - m + 1):
        if list(tokens[start : start + m]) == needle:
            return start
    return -1


def resolve_entity(
    tokens: tuple[str, ...], entity: str, match_mode: str
) -> Span | None:
    """Resolve an entity string to a token span, or None when absent.

    whole-span: leftmost full-token-sequence match.
    last-token: leftmost match of the entity's last token (single-token span).
    """
    parts = entity.split()
    if not parts:
        return None
    if match_mode == "whole-span":
        start = _find_subsequence(tokens, parts)
        if start < 0:
            return None
        return Span(start, start + len(parts) - 1)
    if match_mode == "last-token":
        last = parts[-1]
        for i, tok in enumerate(tokens):
            if tok == last:
                return Span(i, i)
        return None
    raise ValueError(f"unknown match_mode {match_mode!r}")


def load_public(
    path: str | Path,
    vocab: RelationVocab,
    match_mode: str = "whole-span",
    max_seq_len: int | None = None,
) -> tuple[list[AnnotatedSentence], list[str]]:
    """Read a public-format JSONL corpus, resolving entity strings to spans.

    Text is whitespace-tokenized. Triples whose entities cannot be located
    are skipped and reported in the returned warning list, never silently
    dropped. Unknown relation names, empty text and a triple that is not a
    list of three strings are errors.
    """
    path = Path(path)
    corpus: list[AnnotatedSentence] = []
    warnings: list[str] = []
    for lineno, record in _records(path):
        text = record.get("text", "")
        if not isinstance(text, str):
            raise CorpusError(f"{path}:{lineno}: \"text\" must be a string")
        tokens = tuple(text.split())
        if not tokens:
            raise CorpusError(f"{path}:{lineno}: empty text")
        sid = record.get("id", str(lineno))
        if not isinstance(sid, str):
            raise CorpusError(f"{path}:{lineno}: \"id\" must be a string")
        raw_triples = record.get("triple_list", [])
        if not isinstance(raw_triples, list):
            raise CorpusError(f"{path}:{lineno}: \"triple_list\" must be a list")

        triples = []
        for n, raw in enumerate(raw_triples):
            if not (isinstance(raw, list) and list(map(type, raw)) == [str, str, str]):
                raise CorpusError(f"{path}:{lineno}: malformed triple {n} in sentence {sid!r}: "
                                  "needs [head, relation, tail] as three strings")
            head_str, rel_name, tail_str = raw
            if rel_name not in vocab.names:
                raise CorpusError(f"{path}:{lineno}: sentence {sid!r}: unknown relation {rel_name!r}")
            rel = vocab.index(rel_name)
            head = resolve_entity(tokens, head_str, match_mode)
            tail = resolve_entity(tokens, tail_str, match_mode)
            if head is None or tail is None:
                missing = head_str if head is None else tail_str
                warnings.append(
                    f"sentence {sid!r}: entity {missing!r} not found, triple "
                    f"({head_str!r}, {rel_name!r}, {tail_str!r}) skipped"
                )
                continue
            triples.append(Triple(head, rel, tail))

        token_list, triples = _truncate(sid, list(tokens), triples, max_seq_len, warnings)
        corpus.append(
            AnnotatedSentence(
                sentence=Sentence(tokens=tuple(token_list), id=sid),
                triples=frozenset(triples),
            )
        )
    return corpus, warnings
