"""Scoring-based tag classifier over all (token, relation, token) cells.

For every ordered token pair (i, j) a shared two-layer network produces the
scores of all relations and all four tag classes at once:

    hidden(i, j) = relu(drop(pair_proj @ [e_i; e_j] + pair_bias))
    scores(i, k, tag, j) = rel_tag_emb[:, 4k + tag] . hidden(i, j)

Concatenation order is (e_i, e_j), so scores are not symmetric in (i, j);
asymmetric relations need that. Dropout is applied before the rectifier,
inverted-scaled, and only when training is requested, so inference is a
plain forward pass. The keep mask is used once and discarded: a dropped
unit is zero after the rectifier, so backward needs only the scalar scale.
Training scores each sentence at its true length, never padded.
Everything is float64 and seeded for reproducibility.

The [e_i; e_j] pairs are never built. With pair_proj = [W_h | W_t] split
by columns, pair_proj @ [e_i; e_j] = W_h e_i + W_t e_j, so the
pre-activation is the broadcast sum of two L x hidden_dim matrices. That is
the same linear map; only the float summation order differs. In backward,
the pair gradient reaches e_i only through W_h and e_j only through W_t, so
it is summed over j (resp. i) before it meets the weights.

score_all, loss, tag_distribution, backward and predict_tags work on blocks
of 16 head rows i (the last block may be shorter). The blocks run on the
calling thread plus a pool of one thread per further available core,
started on first need; NumPy ufuncs and BLAS release the interpreter lock,
so the blocks run in parallel. A grid of at most 16 rows is one block and
runs inline. The split depends on L alone, each block writes only its own
rows, and the few sums across blocks (loss, rel_tag_emb and tail-side
gradients) are added in block order, so no result depends on the number of
threads. Each block draws its dropout units from its offset in the same
stream as one rng.random((L * L, hidden_dim)) draw, so hidden activations
and the tags predicted from given scores equal an unsplit computation bit
for bit. Scores can differ from an unsplit product in the last bit, because
BLAS may round the edge tiles of a product differently for another row
count; for L > 16 loss and gradients also differ in float summation order.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass

import numpy as np

from .tagging import NUM_TAGS, Tag, TagMatrix


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


@dataclass
class ScoreGrid:
    """Scores for all cells plus the activations the backward pass needs.

    scores:        L x K x 4 x L
    hidden:        L x L x hidden_dim, post-rectifier pair activations
    dropout_scale: inverted-dropout factor 1 / (1 - rate) on the kept
                   units, 1.0 when dropout was inactive
    """

    scores: np.ndarray
    hidden: np.ndarray
    dropout_scale: float

    @property
    def length(self) -> int:
        return self.scores.shape[0]

    @property
    def num_relations(self) -> int:
        return self.scores.shape[1]


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


def score_all(
    emb: np.ndarray,
    params: ScorerParams,
    training: bool = False,
    rng_seed: int = 0,
) -> ScoreGrid:
    """Score every (i, relation, tag, j) cell, one block of head rows at a time."""
    if emb.ndim != 2 or emb.shape[1] != params.emb_dim:
        raise ValueError(
            f"embedding shape {emb.shape} incompatible with emb_dim {params.emb_dim}"
        )
    length = emb.shape[0]
    num_rel = params.num_relations
    d = params.emb_dim
    hidden_dim = params.hidden_dim

    heads = emb @ params.pair_proj[:, :d].T
    tails = emb @ params.pair_proj[:, d:].T + params.pair_bias
    hidden = np.empty((length, length, hidden_dim))
    scores = np.empty((length, num_rel, NUM_TAGS, length))
    dropout = training and params.dropout_rate > 0.0
    scale = 1.0 / (1.0 - params.dropout_rate) if dropout else 1.0

    def block(rows: slice) -> None:
        pre = np.add(heads[rows, None, :], tails, out=hidden[rows])
        if dropout:
            # these rows' part of one rng.random((L * L, hidden_dim)) draw
            bits = np.random.PCG64(rng_seed).advance(rows.start * length * hidden_dim)
            pre *= np.random.Generator(bits).random(pre.shape) >= params.dropout_rate
            pre *= scale
        np.maximum(pre, 0.0, out=pre)
        flat = pre.reshape(-1, hidden_dim) @ params.rel_tag_emb  # (rows * L, 4K)
        scores[rows] = flat.reshape(-1, length, num_rel, NUM_TAGS).transpose(0, 2, 3, 1)

    _map_blocks(block, length)
    return ScoreGrid(scores=scores, hidden=hidden, dropout_scale=scale)


def _softmax(scores: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Max-subtracted tag-axis softmax of a block of score rows, in
    rows x K x L x 4 order: the scores minus each cell's max, the
    probabilities, and the log normalizers."""
    s = np.moveaxis(scores, 2, 3)
    shifted = s - s.max(axis=3, keepdims=True)
    probs = np.exp(shifted)
    norm = probs.sum(axis=3)
    probs /= norm[..., None]
    return shifted, probs, np.log(norm)


def tag_distribution(grid: ScoreGrid) -> np.ndarray:
    """L x K x L x 4 softmax over the tag axis, max-subtracted for stability."""
    probs = np.empty((grid.length, grid.num_relations, grid.length, NUM_TAGS))

    def block(rows: slice) -> None:
        probs[rows] = _softmax(grid.scores[rows])[1]

    _map_blocks(block, grid.length)
    return probs


def dense_gold(gold: TagMatrix, padded: int | None = None) -> np.ndarray:
    """Dense (n, K, n) int tags, n = padded or the true length; others NONE."""
    size = gold.length if padded is None else padded
    arr = np.zeros((size, gold.num_relations, size), dtype=np.int64)
    arr[: gold.length, :, : gold.length] = gold.tags
    return arr


def _gold_and_count(
    grid: ScoreGrid, gold: TagMatrix | np.ndarray, mask: np.ndarray | None
) -> tuple[np.ndarray, int]:
    """The dense gold tags and the number of masked-in cells."""
    gold_arr = gold if isinstance(gold, np.ndarray) else dense_gold(gold)
    cell_shape = (grid.length, grid.num_relations, grid.length)
    if gold_arr.shape != cell_shape:
        raise ValueError(f"gold shape {gold_arr.shape} != grid cells {cell_shape}")
    if mask is None:
        return gold_arr, gold_arr.size
    if mask.shape != cell_shape:
        raise ValueError(f"mask shape {mask.shape} != grid cells {cell_shape}")
    count = int(mask.sum())
    if count == 0:
        raise ValueError("no masked-in cells")
    return gold_arr, count


def _nll_sum(
    shifted: np.ndarray, log_norm: np.ndarray, gold: np.ndarray, mask: np.ndarray | None
) -> float:
    """Summed negative log-probability of the gold tag over masked-in cells."""
    nll = log_norm - np.take_along_axis(shifted, gold[..., None], axis=3).squeeze(3)
    return nll.sum() if mask is None else nll[mask].sum()


def loss(
    grid: ScoreGrid, gold: TagMatrix | np.ndarray, mask: np.ndarray | None = None
) -> float:
    """Mean negative log-probability of the gold tag over masked-in cells."""
    gold_arr, count = _gold_and_count(grid, gold, mask)

    def block(rows: slice) -> float:
        shifted, _, log_norm = _softmax(grid.scores[rows])
        return _nll_sum(shifted, log_norm, gold_arr[rows], None if mask is None else mask[rows])

    return float(sum(_map_blocks(block, grid.length)) / count)


@dataclass
class ScorerGrads:
    """Gradients of the mean loss for every trainable array, plus that loss."""

    pair_proj: np.ndarray
    pair_bias: np.ndarray
    rel_tag_emb: np.ndarray
    emb: np.ndarray
    loss: float


def backward(
    grid: ScoreGrid,
    gold: TagMatrix | np.ndarray,
    mask: np.ndarray | None,
    emb: np.ndarray,
    params: ScorerParams,
) -> ScorerGrads:
    """Exact gradients of loss() with respect to parameters and embeddings.

    Requires the grid produced by score_all on the same emb/params (the
    cached hidden activations and dropout scale are reused). The
    returned loss is loss(grid, gold, mask), from the same softmax.
    """
    length = grid.length
    num_rel = grid.num_relations
    d = params.emb_dim
    hidden_dim = params.hidden_dim
    if grid.hidden.shape != (length, length, hidden_dim):
        raise ValueError("stale cache: hidden shape mismatch")
    if emb.shape != (length, d):
        raise ValueError("stale cache: embedding shape mismatch")
    if num_rel != params.num_relations:
        raise ValueError("stale cache: relation count mismatch")
    gold_arr, count = _gold_and_count(grid, gold, mask)
    d_heads = np.empty((length, hidden_dim))

    def block(rows: slice) -> tuple[float, np.ndarray, np.ndarray]:
        """This block's NLL sum, rel_tag_emb gradient and d_tails; fills d_heads[rows]."""
        gold_rows = gold_arr[rows]
        mask_rows = None if mask is None else mask[rows]
        shifted, d_logits, log_norm = _softmax(grid.scores[rows])  # d_logits: probabilities so far
        nll = _nll_sum(shifted, log_norm, gold_rows, mask_rows)
        del shifted  # free it before the gradient temporaries are allocated
        gold_idx = gold_rows[..., None]
        np.put_along_axis(
            d_logits, gold_idx, np.take_along_axis(d_logits, gold_idx, axis=3) - 1.0, axis=3
        )
        if mask_rows is not None:
            d_logits *= mask_rows[..., None]
        d_logits /= count

        # (i, k, j, tag) -> (i, j, 4k + tag), matching rel_tag_emb's column layout
        d_flat = d_logits.transpose(0, 2, 1, 3).reshape(-1, num_rel * NUM_TAGS)
        hidden_flat = grid.hidden[rows].reshape(-1, hidden_dim)
        d_rel = hidden_flat.T @ d_flat
        d_hidden = d_flat @ params.rel_tag_emb.T
        d_hidden *= hidden_flat > 0.0  # rectifier active set, dropped units included
        d_hidden *= grid.dropout_scale

        # pre(i, j) = W_h e_i + W_t e_j + b: reduce over the partner token first
        d_pre = d_hidden.reshape(-1, length, hidden_dim)
        d_heads[rows] = d_pre.sum(axis=1)  # summed over tails j
        return nll, d_rel, d_pre.sum(axis=0)  # the last: d_tails over this block's heads

    nll_sums, d_rels, d_tails_parts = zip(*_map_blocks(block, length))
    d_rel = sum(d_rels)
    d_tails = sum(d_tails_parts)  # L x hidden_dim, summed over heads i
    d_proj = np.concatenate([d_heads.T @ emb, d_tails.T @ emb], axis=1)
    d_bias = d_heads.sum(axis=0)
    d_emb = d_heads @ params.pair_proj[:, :d] + d_tails @ params.pair_proj[:, d:]

    mean_loss = float(sum(nll_sums) / count)
    return ScorerGrads(
        pair_proj=d_proj, pair_bias=d_bias, rel_tag_emb=d_rel, emb=d_emb, loss=mean_loss
    )


def predict_tags(grid: ScoreGrid, mask: np.ndarray | None = None) -> TagMatrix:
    """Argmax tag per masked-in cell; exact ties resolve to NONE.

    NONE picks up all ties because a tie carries no evidence for a boundary
    and a spurious boundary tag fabricates triples.
    """

    def block(rows: slice) -> np.ndarray:
        s = grid.scores[rows]
        hit = s == s.max(axis=2, keepdims=True)
        best = hit.argmax(axis=2).astype(np.int8)
        best[hit.sum(axis=2) > 1] = Tag.NONE
        if mask is not None:
            best[~mask[rows]] = Tag.NONE
        return best

    best = np.concatenate(_map_blocks(block, grid.length))
    return TagMatrix(grid.length, grid.num_relations, best)
