"""Corpus data model: sentences, triple rows, loaders, overlap pools and the file writer.

A loaded sentence is one record, `Sentence`: its tokens, its gold triples and
its id. The triples are one read-only (n, 5) int64 array of distinct rows
(k, hb, he, tb, te): relation index, then the inclusive 0-based token spans
hb..he of the head and tb..te of the tail, sorted by (hb, he, k, tb, te).
Every sentence source (both loaders, `tag` and the synthetic generator) makes
its sentences through `build_sentence`, so truncation and every check are
the same whichever way a sentence comes in.

`classify_pattern` gives a sentence's overlap flags (normal/epo/seo/hto).
`pattern_pools` is the one place sentences are grouped by flag and by
triple-count bucket (1..4, 5+): `corpus_stats` and `evaluation.breakdown`
both sum their per-sentence counts through it.

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
import os
import sys
from dataclasses import dataclass, field
from operator import itemgetter
from pathlib import Path
from typing import BinaryIO, Callable, Iterable

import numpy as np

NORMAL = "normal"
EPO = "epo"
SEO = "seo"
HTO = "hto"

PATTERN_FLAGS = (NORMAL, EPO, SEO, HTO)
BUCKETS = ("1", "2", "3", "4", "5+")


class CorpusError(ValueError):
    """Malformed corpus file or record."""


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


Row = tuple[int, int, int, int, int]  # (k, hb, he, tb, te)

_canonical_order = itemgetter(1, 2, 0, 3, 4)  # (hb, he, k, tb, te)


def canonical_rows(triples: Iterable[Row]) -> np.ndarray:
    """The read-only (n, 5) int64 rows of the distinct triples, sorted by (hb, he, k, tb, te)."""
    rows = np.array(sorted(set(triples), key=_canonical_order), dtype=np.int64).reshape(-1, 5)
    rows.flags.writeable = False
    return rows


@dataclass(frozen=True, eq=False)  # an array field has no one truth value: compare by identity
class Sentence:
    """A sentence's tokens, its gold triples as canonical_rows and its id; made by build_sentence."""

    tokens: tuple[str, ...]
    triples: np.ndarray = field(default_factory=lambda: canonical_rows(()))
    id: str = ""

    def __post_init__(self):
        if len(self.tokens) < 1:
            raise ValueError(f"sentence {self.id!r} has no tokens")
        if any(not t for t in self.tokens):
            raise ValueError(f"sentence {self.id!r} contains an empty token")

    def __len__(self) -> int:
        return len(self.tokens)


def build_sentence(
    sid: str,
    tokens: Iterable[str],
    triples: list[Row],
    max_seq_len: int | None = None,
    warnings: list[str] | None = None,
) -> Sentence:
    """The one way to make a Sentence, checked in this order; ValueError names the sentence.

    First the tokens are cut at `max_seq_len`, and each triple reaching past
    the cut is dropped, with notices appended to `warnings` (which must then
    be given); then the token checks; then every span must end inside the
    sentence, checked in the given order, head before tail.
    """
    tokens = tuple(map(sys.intern, tokens))  # sentences share one string object per distinct word
    if max_seq_len is not None and len(tokens) > max_seq_len:
        kept = []
        for k, hb, he, tb, te in triples:
            if he < max_seq_len and te < max_seq_len:
                kept.append((k, hb, he, tb, te))
            else:
                warnings.append(
                    f"sentence {sid!r}: triple ({hb}..{he}, {k}, {tb}..{te}) dropped by "
                    f"truncation to {max_seq_len} tokens"
                )
        warnings.append(f"sentence {sid!r}: truncated to {max_seq_len} tokens")
        tokens, triples = tokens[:max_seq_len], kept
    sentence = Sentence(tokens, canonical_rows(triples), sid)
    for _, hb, he, tb, te in triples:
        for begin, end in ((hb, he), (tb, te)):
            if end >= len(tokens):
                raise ValueError(f"sentence {sid!r}: span ({begin}, {end}) exceeds length {len(tokens)}")
    return sentence


def classify_pattern(s: Sentence) -> frozenset[str]:
    """The sentence's overlap flags (normal/epo/seo/hto); empty when it has no triples.

    epo: some pair of triples has the same unordered entity-span pair.
    seo: some pair of triples shares exactly one entity span.
    hto: some single triple's head and tail spans overlap as token ranges.
    normal: at least one triple and none of the above.
    """
    pairs = [((hb, he), (tb, te)) for _, hb, he, tb, te in s.triples.tolist()]
    flags = set()
    if any(he >= tb and te >= hb for (hb, he), (tb, te) in pairs):
        flags.add(HTO)
    for i, (head, tail) in enumerate(pairs):
        for other in pairs[i + 1 :]:
            if other == (head, tail) or other == (tail, head):
                flags.add(EPO)
            elif head in other or tail in other:
                flags.add(SEO)
    if pairs and not flags:
        flags.add(NORMAL)
    return frozenset(flags)


def pattern_pools(
    flags: list[frozenset[str]], triples: np.ndarray, values: np.ndarray
) -> tuple[dict[str, list[int]], dict[str, list[int]]]:
    """Column sums of `values`, an (n, c) int64 array of per-sentence counts,
    over the sentences of each overlap flag and of each triple-count bucket,
    given each sentence's classify_pattern flags and gold triple count.

    Returns (per flag, per bucket), each naming only the pools at least one
    sentence joins, in PATTERN_FLAGS and BUCKETS order, with Python int sums.
    Flags are non-exclusive; a sentence without triples joins no bucket.
    """
    count = np.minimum(triples, len(BUCKETS))
    member = np.array(
        [[flag in f for f in flags] for flag in PATTERN_FLAGS] + [count == n for n in range(1, len(BUCKETS) + 1)],
        dtype=bool,
    )
    sums = (member.astype(np.int64) @ values).tolist()
    pools = {name: total for name, total, joined in zip(PATTERN_FLAGS + BUCKETS, sums, member.any(axis=1)) if joined}
    return {f: pools[f] for f in PATTERN_FLAGS if f in pools}, {b: pools[b] for b in BUCKETS if b in pools}


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


def corpus_stats(corpus: list[Sentence]) -> CorpusStats:
    """Table-style breakdown: per-flag, per-bucket and total triple counts.

    Pattern counts may sum to more than the sentence count since flags are
    non-exclusive.
    """
    if not corpus:
        raise CorpusError("empty corpus")
    triples = np.array([len(s.triples) for s in corpus])
    per_flag, per_bucket = pattern_pools(
        [classify_pattern(s) for s in corpus], triples, np.ones((len(corpus), 1), dtype=np.int64)
    )
    return CorpusStats(
        sentences=len(corpus),
        triples=int(triples.sum()),
        pattern_counts={flag: n for flag, (n,) in per_flag.items()},
        bucket_counts={bucket: n for bucket, (n,) in per_bucket.items()},
        no_triple_sentences=int(np.count_nonzero(triples == 0)),
    )


def write_file(path: str | Path, write: Callable[[BinaryIO], object]) -> None:
    """Replace `path` with what `write` puts into a binary handle, through a synced
    sibling file renamed over it: a crash or failed write leaves the old file intact."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            write(fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_lines(path: str | Path, lines: Iterable[str]) -> None:
    """write_file of UTF-8 text, each line ended by a newline (one newline for no lines)."""
    write_file(path, lambda fh: fh.write(("\n".join(lines) + "\n").encode("utf-8")))


class RepeatedKeyError(CorpusError):
    """A JSON object names one key twice."""


def unique_keys(pairs: list) -> dict:
    """json's object_pairs_hook for every JSON text relgrid reads: the object, or
    RepeatedKeyError for a key named twice (plain json keeps the last value)."""
    obj = dict(pairs)
    if len(obj) < len(pairs):  # name the first key to come again
        raise RepeatedKeyError(f"repeats the key {next(k for i, (k, _) in enumerate(pairs) if k in dict(pairs[:i]))!r}")
    return obj


def parse_record(text: str, where: str) -> dict:
    """One JSON object; errors start with `where`."""
    try:
        record = json.loads(text, object_pairs_hook=unique_keys)
    except json.JSONDecodeError as exc:
        raise CorpusError(f"{where}: invalid JSON ({exc})") from exc
    except RepeatedKeyError as exc:
        raise CorpusError(f"{where}: {exc}") from None
    if not isinstance(record, dict):
        raise CorpusError(f"{where}: record must be a JSON object")
    return record


def read_text(path: Path, what: str) -> str:
    """The text of a UTF-8 file; CorpusError naming the file, as a `what`
    when it does not exist, and when it does not decode."""
    if not path.exists():
        raise CorpusError(f"no such {what}: {path}")
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise CorpusError(f"{path}: not UTF-8 text ({exc})") from None


def _records(path: Path) -> Iterable[tuple[int, dict]]:
    """(line number, record) for each non-blank line of a JSONL file."""
    for lineno, line in enumerate(read_text(path, "file").splitlines(), 1):
        if line.strip():
            yield lineno, parse_record(line, f"{path}:{lineno}")


def native_sentence(
    record: dict,
    known: dict[str, int],
    grow: bool,
    where: str,
    max_seq_len: int | None = None,
    warnings: list[str] | None = None,
) -> Sentence:
    """One native record as a Sentence; errors start with `where`.

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
            for begin, end in (head, tail):
                if not 0 <= begin <= end:
                    raise ValueError(f"invalid span ({begin}, {end})")
            triples.append((known[rel_name], *head, *tail))
        return build_sentence(sid, tokens, triples, max_seq_len, warnings)
    except KeyError as exc:
        raise CorpusError(f"{where}: missing field ({exc})") from None
    except ValueError as exc:
        raise CorpusError(f"{where}: {exc}") from None


def load_native(
    path: str | Path,
    vocab: RelationVocab | None = None,
    max_seq_len: int | None = None,
) -> tuple[list[Sentence], RelationVocab, list[str]]:
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
    corpus: list[Sentence], vocab: RelationVocab, path: str | Path
) -> None:
    """Write a corpus in the native JSONL format (triples in canonical order)."""
    lines = []
    for s in corpus:
        record = {
            "id": s.id,
            "tokens": list(s.tokens),
            "triples": [
                {"head": [hb, he], "relation": vocab.names[k], "tail": [tb, te]}
                for k, hb, he, tb, te in s.triples.tolist()
            ],
        }
        lines.append(json.dumps(record, ensure_ascii=False))
    write_lines(path, lines)


def _find_subsequence(tokens: tuple[str, ...], needle: list[str]) -> int:
    """Leftmost index where `needle` occurs as a contiguous run, or -1."""
    n, m = len(tokens), len(needle)
    for start in range(n - m + 1):
        if list(tokens[start : start + m]) == needle:
            return start
    return -1


def resolve_entity(
    tokens: tuple[str, ...], entity: str, match_mode: str
) -> tuple[int, int] | None:
    """Resolve an entity string to a token span (begin, end), or None when absent.

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
        return start, start + len(parts) - 1
    if match_mode == "last-token":
        last = parts[-1]
        for i, tok in enumerate(tokens):
            if tok == last:
                return i, i
        return None
    raise ValueError(f"unknown match_mode {match_mode!r}")


def load_public(
    path: str | Path,
    vocab: RelationVocab,
    match_mode: str = "whole-span",
    max_seq_len: int | None = None,
) -> tuple[list[Sentence], list[str]]:
    """Read a public-format JSONL corpus, resolving entity strings to spans.

    Text is whitespace-tokenized. Triples whose entities cannot be located
    are skipped and reported in the returned warning list, never silently
    dropped. Unknown relation names, empty text and a triple that is not a
    list of three strings are errors.
    """
    path = Path(path)
    known = {name: i for i, name in enumerate(vocab.names)}
    corpus: list[Sentence] = []
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
            if rel_name not in known:
                raise CorpusError(f"{path}:{lineno}: sentence {sid!r}: unknown relation {rel_name!r}")
            head = resolve_entity(tokens, head_str, match_mode)
            tail = resolve_entity(tokens, tail_str, match_mode)
            if head is None or tail is None:
                missing = head_str if head is None else tail_str
                warnings.append(
                    f"sentence {sid!r}: entity {missing!r} not found, triple "
                    f"({head_str!r}, {rel_name!r}, {tail_str!r}) skipped"
                )
                continue
            triples.append((known[rel_name], *head, *tail))

        corpus.append(build_sentence(sid, tokens, triples, max_seq_len, warnings))
    return corpus, warnings
