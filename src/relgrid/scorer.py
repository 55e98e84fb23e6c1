"""Scoring-based tag classifier over all (token, relation, token) cells.

For every ordered token pair (i, j) a shared two-layer network produces the
scores of all relations and all four tag classes at once:

    hidden(i, j) = relu(drop(pair_proj @ [e_i; e_j] + pair_bias))
    scores(i, k, tag, j) = rel_tag_emb[:, 4k + tag] . hidden(i, j)

Concatenation order is (e_i, e_j), so scores are not symmetric in (i, j);
asymmetric relations need that. Inverted dropout comes before the rectifier,
only in training, so backward needs only its scalar scale. No [e_i; e_j] is
built: with pair_proj = [W_h | W_t] the pre-activation is the broadcast sum
of W_h e_i and W_t e_j + b, and backward sums the pair gradient over j
(resp. i) before it meets W_h (resp. W_t). All is float64.

The grid is worked in blocks of 16 head rows by shared kernels:
_hidden_block (pre-activation, dropout, rectifier), _tag_gradient (tag
softmax, NLL, softmax - onehot(gold)), _hidden_gradient (to rel_tag_emb,
d_heads, d_tails) and _tags (argmax, ties to NONE). The two drivers take
each block through them in one pass and keep no L x L grid: train_grads,
for training, from hidden layer to the loss and its gradients, and
tag_grid, for prediction, from hidden layer to int8 tags.

The blocks run on the calling thread plus one pool thread per further core
(ufuncs and BLAS release the interpreter lock). The split depends on L alone
and sums across blocks are added in block order, so no result depends on the
thread count. Each block draws its dropout units from its offset in one
rng.random((L * L, hidden_dim)) stream, so hidden activations equal an
unsplit computation bit for bit; scores may differ in the last bit (BLAS
edge tiles), loss and gradients in summation order.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass

import numpy as np

from .tagging import NUM_TAGS


@dataclass
class ScorerParams:
    """Trainable classifier parameters.

    pair_proj:   hidden_dim x 2*emb_dim projection of [e_i; e_j]
    pair_bias:   hidden_dim
    rel_tag_emb: hidden_dim x 4*num_relations; columns 4k..4k+3 hold
                 relation k's four tag representations
    """

    pair_proj: np.ndarray
    pair_bias: np.ndarray
    rel_tag_emb: np.ndarray
    dropout_rate: float = 0.1

    def __post_init__(self):
        hidden_dim = self.pair_proj.shape[0]
        if self.pair_proj.ndim != 2 or self.pair_proj.shape[1] % 2 != 0:
            raise ValueError(f"bad pair_proj shape {self.pair_proj.shape}")
        if self.pair_bias.shape != (hidden_dim,):
            raise ValueError(f"bad pair_bias shape {self.pair_bias.shape}")
        if self.rel_tag_emb.ndim != 2 or self.rel_tag_emb.shape[0] != hidden_dim:
            raise ValueError(f"bad rel_tag_emb shape {self.rel_tag_emb.shape}")
        if self.rel_tag_emb.shape[1] % NUM_TAGS != 0:
            raise ValueError("rel_tag_emb columns must be a multiple of 4")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError(f"dropout_rate {self.dropout_rate} outside [0, 1)")
        for name in ("pair_proj", "pair_bias", "rel_tag_emb"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"non-finite values in {name}")

    @property
    def emb_dim(self) -> int:
        return self.pair_proj.shape[1] // 2

    @property
    def hidden_dim(self) -> int:
        return self.pair_proj.shape[0]

    @property
    def num_relations(self) -> int:
        return self.rel_tag_emb.shape[1] // NUM_TAGS


def init_scorer_params(
    emb_dim: int,
    num_relations: int,
    seed: int,
    hidden_dim: int | None = None,
    dropout_rate: float = 0.1,
) -> ScorerParams:
    """Glorot-uniform weights, zero bias; hidden_dim defaults to 3 * emb_dim."""
    if hidden_dim is None:
        hidden_dim = 3 * emb_dim
    rng = np.random.default_rng(seed)

    def glorot(fan_in, fan_out, shape):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-bound, bound, size=shape)

    return ScorerParams(
        pair_proj=glorot(2 * emb_dim, hidden_dim, (hidden_dim, 2 * emb_dim)),
        pair_bias=np.zeros(hidden_dim),
        rel_tag_emb=glorot(
            hidden_dim, NUM_TAGS * num_relations, (hidden_dim, NUM_TAGS * num_relations)
        ),
        dropout_rate=dropout_rate,
    )


# Head rows per block. The split depends on L alone, so no result depends
# on the number of threads.
_BLOCK_ROWS = 16
# Threads that run blocks: the calling thread plus _THREADS - 1 pool threads.
_THREADS = (
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
)
_pool = None  # the _THREADS - 1 pool threads, started on the first multi-block call
_pool_lock = threading.Lock()


def _executor():
    """The shared pool, started on first need."""
    global _pool
    with _pool_lock:
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor

            _pool = ThreadPoolExecutor(_THREADS - 1, "relgrid-block")
        return _pool


def _map_blocks(fn, length: int) -> list:
    """[fn(rows) for rows in the blocks of _BLOCK_ROWS head rows], in block order.

    With W = min(_THREADS, blocks) > 1 the calling thread runs blocks
    0, W, 2W, ... and pool thread w the blocks w, W + w, ...; the caller
    takes its share because temporaries made on a pool thread come from
    that thread's malloc arena, which keeps what is freed. An exception
    from a block is re-raised unchanged once every block has finished.
    """
    if length <= _BLOCK_ROWS:
        return [fn(slice(0, length))]

    def run(own: list[slice]) -> list:
        return [fn(rows) for rows in own]

    blocks = [slice(a, min(a + _BLOCK_ROWS, length)) for a in range(0, length, _BLOCK_ROWS)]
    threads = min(_THREADS, len(blocks))
    if threads == 1:
        return run(blocks)
    from concurrent.futures import wait

    pool = _executor()
    strides = [pool.submit(run, blocks[w::threads]) for w in range(1, threads)]
    results = [None] * len(blocks)
    try:
        results[::threads] = run(blocks[::threads])
    finally:
        wait(strides)
    for w, stride in enumerate(strides, 1):
        results[w::threads] = stride.result()
    return results


def _projections(emb: np.ndarray, params: ScorerParams) -> tuple[np.ndarray, np.ndarray]:
    """The two L x hidden_dim halves of the pre-activation: W_h e_i and W_t e_j + b."""
    d = params.emb_dim
    if emb.ndim != 2 or emb.shape[1] != d:
        raise ValueError(f"embedding shape {emb.shape} incompatible with emb_dim {d}")
    return emb @ params.pair_proj[:, :d].T, emb @ params.pair_proj[:, d:].T + params.pair_bias


def _hidden_block(heads, tails, rows, params, seed=None, scale=1.0) -> np.ndarray:
    """Post-rectifier activations of the pairs (i, j), i in rows, as a
    (rows * L) x hidden_dim array; dropout is drawn when seed is not None."""
    pre = heads[rows, None, :] + tails
    if seed is not None:
        # these rows' part of one rng.random((L * L, hidden_dim)) draw
        bits = np.random.PCG64(seed).advance(rows.start * tails.size)
        pre *= np.random.Generator(bits).random(pre.shape) >= params.dropout_rate
        pre *= scale
    np.maximum(pre, 0.0, out=pre)
    return pre.reshape(-1, tails.shape[1])


def _tag_gradient(s: np.ndarray, gold: np.ndarray, count: int) -> float:
    """Turn a C-contiguous (cells..., 4) score block, in place, into the mean
    loss's gradient (softmax - onehot(gold)) / count with respect to it, for
    gold tags in s's cell order; returns the block's NLL sum."""
    p0, p1, p2, p3 = (s[..., t] for t in range(NUM_TAGS))
    s -= np.maximum(np.maximum(p0, p1), np.maximum(p2, p3))[..., None]
    flat_gold = np.arange(0, s.size, NUM_TAGS) + gold.ravel()
    gold_shifted = s.ravel()[flat_gold]
    np.exp(s, out=s)
    norm = p0 + p1
    norm += p2
    norm += p3
    s /= norm[..., None]
    nll = (np.log(norm).ravel() - gold_shifted).sum()
    s.reshape(-1)[flat_gold] -= 1.0
    s /= count
    return nll


def _hidden_gradient(d_scores, hidden, rows, params, scale, d_heads):
    """Back from a block's (rows * L) x 4K score gradient through rel_tag_emb,
    the rectifier and dropout: fills d_heads[rows], returns d_rel and d_tails."""
    d_rel = hidden.T @ d_scores
    d_hidden = d_scores @ params.rel_tag_emb.T
    d_hidden *= hidden > 0.0  # rectifier active set, dropped units included
    d_hidden *= scale
    # pre(i, j) = W_h e_i + W_t e_j + b: reduce over the partner token first
    d_pre = d_hidden.reshape(rows.stop - rows.start, -1, hidden.shape[1])
    d_heads[rows] = d_pre.sum(axis=1)  # summed over tails j
    return d_rel, d_pre.sum(axis=0)


@dataclass
class ScorerGrads:
    """Gradients of the mean loss for every trainable array, plus that loss."""

    pair_proj: np.ndarray
    pair_bias: np.ndarray
    rel_tag_emb: np.ndarray
    emb: np.ndarray
    loss: float


def _sum_grads(blocks: list, d_heads, emb, params, count: int) -> ScorerGrads:
    """Add the blocks' (NLL sum, d_rel, d_tails) in block order and go back
    through the two projections to the parameters and embeddings."""
    nll_sums, d_rels, d_tails_parts = zip(*blocks)
    d = params.emb_dim
    d_tails = sum(d_tails_parts)  # L x hidden_dim, summed over heads i
    return ScorerGrads(
        pair_proj=np.concatenate([d_heads.T @ emb, d_tails.T @ emb], axis=1),
        pair_bias=d_heads.sum(axis=0),
        rel_tag_emb=sum(d_rels),
        emb=d_heads @ params.pair_proj[:, :d] + d_tails @ params.pair_proj[:, d:],
        loss=float(sum(nll_sums) / count),
    )


# bits 0-2 set where tags 1-3 hold the top non-NONE score -> the sole such tag, else NONE
_SOLE_TAG = np.array([0, 1, 2, 0, 3, 0, 0, 0], dtype=np.int8)


def _tags(s: np.ndarray) -> np.ndarray:
    """int8 argmax over the four tag planes s[..., t] of a (cells..., 4)
    block. Exact ties give NONE: a tie carries no evidence for a boundary,
    and a spurious boundary tag fabricates triples."""
    top = np.maximum(np.maximum(s[..., 1], s[..., 2]), s[..., 3])
    hits = np.equal(s[..., 1], top).view(np.uint8)
    hits += np.equal(s[..., 2], top).view(np.uint8) << 1
    hits += np.equal(s[..., 3], top).view(np.uint8) << 2
    best = _SOLE_TAG[hits]
    best *= np.less(s[..., 0], top)  # NONE takes every tie it is part of
    return best


def train_grads(
    emb: np.ndarray, gold: np.ndarray, params: ScorerParams, rng_seed: int
) -> ScorerGrads:
    """The mean tag NLL over all L x K x L cells against (L, K, L) int gold
    tags, and its exact gradients, with dropout drawn from rng_seed when the
    rate is above 0; each block goes from hidden layer to gradients in one pass."""
    heads, tails = _projections(emb, params)
    length, num_rel = emb.shape[0], params.num_relations
    if gold.shape != (length, num_rel, length):
        raise ValueError(f"gold shape {gold.shape} != grid cells {(length, num_rel, length)}")
    rate = params.dropout_rate
    seed, scale = (rng_seed, 1.0 / (1.0 - rate)) if rate > 0.0 else (None, 1.0)
    d_heads = np.empty((length, params.hidden_dim))

    def block(rows: slice) -> tuple:
        hidden = _hidden_block(heads, tails, rows, params, seed, scale)
        d_scores = hidden @ params.rel_tag_emb  # (rows * L) x 4K: cells (i, j, k)
        cells = d_scores.reshape(len(hidden), num_rel, NUM_TAGS)
        nll = _tag_gradient(cells, gold[rows].transpose(0, 2, 1), gold.size)
        return nll, *_hidden_gradient(d_scores, hidden, rows, params, scale, d_heads)

    return _sum_grads(_map_blocks(block, length), d_heads, emb, params, gold.size)


def tag_grid(emb: np.ndarray, params: ScorerParams) -> np.ndarray:
    """The (L, K, L) int8 grid of every cell's argmax tag, exact ties to NONE,
    with no dropout; each block goes from hidden layer to tags in one pass."""
    heads, tails = _projections(emb, params)
    length, num_rel = emb.shape[0], params.num_relations
    tags = np.empty((length, num_rel, length), dtype=np.int8)

    def block(rows: slice) -> None:
        scores = _hidden_block(heads, tails, rows, params) @ params.rel_tag_emb
        tags[rows] = _tags(scores.reshape(-1, length, num_rel, NUM_TAGS)).transpose(0, 2, 1)

    _map_blocks(block, length)
    return tags
