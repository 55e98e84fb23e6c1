"""Token encoder: the token vocabulary and the embedding lookup (token rows
plus learned positional rows, both held by the trainer's model),
standing in for a contextual sentence encoder behind the same L x d interface.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .corpus import Sentence

PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"
PAD_INDEX = 0
UNK_INDEX = 1


@dataclass(frozen=True)
class Vocab:
    """Token -> dense index map; index 0 is padding, index 1 is unknown."""

    token_to_index: dict[str, int]

    def __len__(self) -> int:
        return len(self.token_to_index)

    def index(self, token: str) -> int:
        return self.token_to_index.get(token, UNK_INDEX)

    def indices(self, tokens) -> np.ndarray:
        return np.array([self.index(t) for t in tokens], dtype=np.int64)

    def to_json(self) -> dict[str, int]:
        return dict(self.token_to_index)

    @classmethod
    def from_json(cls, data) -> "Vocab":
        """ValueError unless `data` maps token strings to the distinct
        integers 0..n-1, with the padding and unknown tokens at 0 and 1."""
        if not isinstance(data, dict) or not all(isinstance(k, str) for k in data):
            raise ValueError("vocab must be a JSON object mapping tokens to indices")
        if sorted(v for v in data.values() if type(v) is int) != list(range(len(data))):
            raise ValueError(
                f"vocab indices must be the distinct integers 0..{len(data) - 1}"
            )
        if data.get(PAD_TOKEN) != PAD_INDEX or data.get(UNK_TOKEN) != UNK_INDEX:
            raise ValueError(
                f"vocab must map {PAD_TOKEN} to {PAD_INDEX} and {UNK_TOKEN} to {UNK_INDEX}"
            )
        return cls(token_to_index=dict(data))


def build_vocab(corpus: list[Sentence], min_count: int = 1) -> Vocab:
    """Index tokens with frequency >= min_count, most frequent first;
    ties break on first occurrence. Everything else maps to the unknown row.
    """
    if not corpus:
        raise ValueError("empty corpus")
    if min_count < 1:
        raise ValueError("min_count must be >= 1")
    counts = Counter(tok for s in corpus for tok in s.tokens)
    # Counter keeps first-occurrence order and sorted is stable: ties stay in that order
    qualified = sorted((tok for tok, c in counts.items() if c >= min_count), key=lambda tok: -counts[tok])
    mapping = {PAD_TOKEN: PAD_INDEX, UNK_TOKEN: UNK_INDEX}
    for tok in qualified:  # a corpus token spelled <pad> or <unk> keeps its reserved row
        mapping.setdefault(tok, len(mapping))
    return Vocab(token_to_index=mapping)


def encode_indices(indices: np.ndarray, tokens: np.ndarray, positional: np.ndarray) -> np.ndarray:
    """Token-table rows at precomputed token indices plus the first len(indices) positional rows."""
    n = len(indices)
    if n > positional.shape[0]:
        raise ValueError(f"sequence length {n} exceeds positional table {positional.shape[0]}")
    return tokens[indices] + positional[:n]
