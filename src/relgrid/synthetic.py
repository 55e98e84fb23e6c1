"""Seeded synthetic-corpus generator with a controlled overlap-pattern mix.

Each sentence is built around one intended pattern (normal / epo / seo /
hto), optionally padded with extra non-overlapping triples for triple-count
variety. Candidate sentences are rejected until they classify as exactly
the intended pattern AND encode/decode losslessly with an empty collision
report, so every emitted sentence round-trips through the tag codec. The
intended pattern is recorded in the sentence id (``synth-00042-epo``) and
in the returned bookkeeping counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import check_fields, is_int, is_real
from .corpus import (
    EPO,
    HTO,
    NORMAL,
    PATTERN_FLAGS,
    SEO,
    RelationVocab,
    Row,
    Sentence,
    build_sentence,
    classify_pattern,
)
from .tagging import roundtrip_check

_MAX_ATTEMPTS = 200  # candidates drawn per sentence before giving up


class GenerationError(RuntimeError):
    """The requested mix cannot be generated."""


def default_mix() -> dict[str, float]:
    return dict.fromkeys(PATTERN_FLAGS, 0.25)


def _any(value) -> bool:
    return True


def _is_mix(value) -> bool:
    return isinstance(value, dict) and all(
        isinstance(name, str) and is_real(share) for name, share in value.items()
    )


# types only: values out of range are GenerationErrors, raised when generating
_SYNTH_RULES = {
    "sentences": (is_int, _any, "an integer"),
    "num_relations": (is_int, _any, "an integer"),
    "mix": (_is_mix, _any, "an object mapping pattern names to numbers"),
    "min_len": (is_int, _any, "an integer"),
    "max_len": (is_int, _any, "an integer"),
    "max_span_width": (is_int, _any, "an integer"),
    "max_extra_triples": (is_int, _any, "an integer"),
    "lexicon_size": (is_int, _any, "an integer"),
    "seed": (is_int, _any, "an integer"),
}


@dataclass
class SynthConfig:
    sentences: int = 100
    num_relations: int = 4
    mix: dict[str, float] = field(default_factory=default_mix)
    min_len: int = 6
    max_len: int = 14
    max_span_width: int = 3
    max_extra_triples: int = 2
    lexicon_size: int = 400
    seed: int = 0

    def __post_init__(self):
        check_fields(self, _SYNTH_RULES)


def pattern_counts(config: SynthConfig) -> dict[str, int]:
    """Integer per-pattern sentence counts via largest-remainder rounding."""
    mix = config.mix
    unknown = set(mix) - set(PATTERN_FLAGS)
    if unknown:
        raise GenerationError(f"unknown pattern(s) in mix: {sorted(unknown)}")
    if any(v < 0 for v in mix.values()) or sum(mix.values()) <= 0:
        raise GenerationError("mix proportions must be non-negative and sum > 0")
    total = sum(mix.values())
    if not math.isfinite(config.sentences * total):
        raise GenerationError("mix proportions times the sentence count must be finite")
    shares = {p: config.sentences * v / total for p, v in mix.items() if v > 0}
    counts = {p: int(share) for p, share in shares.items()}
    remainder = config.sentences - sum(counts.values())
    by_frac = sorted(shares, key=lambda p: (counts[p] - shares[p], p))
    for p in by_frac[:remainder]:
        counts[p] += 1
    return {p: c for p, c in counts.items() if c > 0}


def _validate(config: SynthConfig, counts: dict[str, int]) -> None:
    if config.sentences < 1:
        raise GenerationError("need at least one sentence")
    if config.num_relations < 1:
        raise GenerationError("need at least one relation")
    if counts.get(EPO, 0) > 0 and config.num_relations < 2:
        raise GenerationError(
            "epo requires at least 2 relations "
            "(the same relation in both directions is disallowed)"
        )
    if config.min_len < 4 or config.max_len < config.min_len:
        raise GenerationError("need min_len >= 4 and max_len >= min_len")
    if config.lexicon_size < config.max_len:
        raise GenerationError("lexicon must cover the longest sentence")
    if config.max_span_width < 1:
        raise GenerationError("max_span_width must be >= 1")
    if config.seed < 0:
        raise GenerationError(f"seed must be >= 0, got {config.seed}")


def _carve_spans(
    rng: np.random.Generator, length: int, widths: list[tuple[int, int]]
) -> list[tuple[int, int]] | None:
    """Disjoint random (begin, end) spans with per-span (min, max) widths, or None."""
    spans: list[tuple[int, int]] = []
    for min_w, max_w in widths:
        placed = False
        for _ in range(60):
            w = int(rng.integers(min_w, max_w + 1))
            if w > length:
                break
            start = int(rng.integers(0, length - w + 1))
            end = start + w - 1
            if all(end < b or e < start for b, e in spans):
                spans.append((start, end))
                placed = True
                break
        if not placed:
            return None
    return spans


def _hto_pair(
    rng: np.random.Generator, region: tuple[int, int]
) -> tuple[tuple[int, int], tuple[int, int]]:
    """Head/tail spans overlapping inside `region`."""
    begin, end = region
    variants = ["identical", "nested_tail", "nested_head"]
    if end - begin >= 2:
        variants.append("staggered")
    variant = variants[int(rng.integers(0, len(variants)))]
    if variant == "identical":
        return region, region
    if variant == "staggered":
        mid = int(rng.integers(begin + 1, end))
        return (begin, mid), (mid, end)
    # strict nesting; the inner span drops one edge token of the region
    if rng.random() < 0.5:
        inner = (begin, end - 1)
    else:
        inner = (begin + 1, end)
    if variant == "nested_tail":
        return region, inner
    return inner, region


def _build_triples(
    rng: np.random.Generator, pattern: str, length: int, config: SynthConfig
) -> list[Row] | None:
    k = config.num_relations
    width = (1, config.max_span_width)
    extras = int(rng.integers(0, config.max_extra_triples + 1))

    def rel() -> int:
        return int(rng.integers(0, k))

    # the pattern's own spans come first; after them, each pair of spans is
    # one disjoint triple (a normal sentence is made of such pairs only)
    if pattern == NORMAL:
        own: list[tuple[int, int]] = []
        extras += 1 + int(rng.integers(0, 2))
    elif pattern == EPO:
        own = [width] * 2
    elif pattern == SEO:
        own = [width] * 3
    elif pattern == HTO:
        own = [(2, max(2, config.max_span_width))]
    else:
        raise GenerationError(f"unknown pattern {pattern!r}")
    spans = _carve_spans(rng, length, own + [width] * (2 * extras))
    if spans is None:
        return None

    if pattern == EPO:
        a, b = spans[:2]
        r1, r2 = map(int, rng.choice(k, size=2, replace=False))
        # the same pair under two relations, in the same or reversed direction
        triples = [(r1, *a, *b), (r2, *a, *b) if rng.random() < 0.5 else (r2, *b, *a)]
    elif pattern == SEO:
        a, b, c = spans[:3]
        # shared head, shared tail, or a chain (the tail of one is the head of the other)
        pairs = [[(a, b), (a, c)], [(b, a), (c, a)], [(a, b), (b, c)]][int(rng.integers(0, 3))]
        triples = [(rel(), *head, *tail) for head, tail in pairs]
    elif pattern == HTO:
        head, tail = _hto_pair(rng, spans[0])
        triples = [(rel(), *head, *tail)]
    else:
        triples = []
    rest = spans[len(own) :]
    triples += [(rel(), *head, *tail) for head, tail in zip(rest[::2], rest[1::2])]
    return triples if len(set(triples)) == len(triples) else None


def generate_sentence(
    rng: np.random.Generator,
    pattern: str,
    config: SynthConfig,
    sentence_id: str,
) -> Sentence:
    """One sentence that classifies as exactly `pattern` and round-trips."""
    for _ in range(_MAX_ATTEMPTS):
        length = int(rng.integers(config.min_len, config.max_len + 1))
        triples = _build_triples(rng, pattern, length, config)
        if triples is None:
            continue
        word_ids = rng.choice(config.lexicon_size, size=length, replace=False)
        tokens = tuple(f"w{int(i):04d}" for i in word_ids)
        candidate = build_sentence(sentence_id, tokens, triples)
        if classify_pattern(candidate) != {pattern}:
            continue
        result = roundtrip_check(candidate, config.num_relations)
        if result.exact and not result.collisions:
            return candidate
    raise GenerationError(f"could not generate a {pattern!r} sentence in {_MAX_ATTEMPTS} attempts")


def generate_corpus(
    config: SynthConfig,
) -> tuple[list[Sentence], RelationVocab, dict[str, int]]:
    """Corpus with the configured pattern mix, plus bookkeeping counts.

    Returns (corpus, relation vocab, intended-pattern counts); sentence ids
    carry the intended pattern. Deterministic under config.seed.
    """
    counts = pattern_counts(config)
    _validate(config, counts)
    rng = np.random.default_rng(config.seed)

    schedule = [p for p in PATTERN_FLAGS for _ in range(counts.get(p, 0))]
    order = rng.permutation(len(schedule))
    corpus = []
    for idx, slot in enumerate(order):
        pattern = schedule[slot]
        corpus.append(
            generate_sentence(rng, pattern, config, f"synth-{idx:05d}-{pattern}")
        )
    vocab = RelationVocab(names=tuple(f"rel{k}" for k in range(config.num_relations)))
    return corpus, vocab, counts
