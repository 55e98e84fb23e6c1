"""Scoring-based tag classifier over all (token, relation, token) cells.

For every ordered token pair (i, j) a shared two-layer network produces the
scores of all relations and all four tag classes at once:

    hidden(i, j) = relu(drop(pair_proj @ [e_i; e_j] + pair_bias))
    scores(i, k, tag, j) = rel_tag_emb[:, 4k + tag] . hidden(i, j)

A cell's softmax and argmax need only each tag's score minus NONE's: hidden(i, j)
meets one hidden x 3K matrix D, D[:, 3k + tag - 1] = rel_tag_emb[:, 4k + tag] -
rel_tag_emb[:, 4k], NONE scores 0, and a tag wins only as the strict maximum above 0.

Concatenation order is (e_i, e_j), so scores are not symmetric in (i, j);
asymmetric relations need that. Inverted dropout comes before the rectifier,
only in training; its scale 1 / (1 - rate) is positive, so it passes the
rectifier and sits on D, multiplied in once a batch. No [e_i; e_j] is
built: with pair_proj = [W_h | W_t] the pre-activation is the broadcast sum
of W_h e_i and W_t e_j + b, and backward sums the pair gradient over j
(resp. i) before it meets W_h (resp. W_t). All is float64. The drivers read
the three parameters, the model's named arrays, from a dict by name, and
batch_grads adds their gradients into the same names of another dict.

The grid is worked in blocks of head rows (see _map_blocks), at most 16 rows
and, but for a single row, about 2 MiB of hidden layer and scores, rows * L *
(hidden + 3K) float64 values, by shared kernels: _hidden_block (pre-activation,
dropout, rectifier), _tag_gradient (tag softmax, NLL, softmax - onehot(gold)),
_hidden_gradient (to D, d_heads, d_tails) and _tags (argmax, ties to NONE).
The two drivers take each block through them in one pass and keep no L x L
grid: batch_grads from hidden layer to the loss and its gradients, tag_grid to
int8 tags. In training one rows * L x hidden buffer per block carries
pre-activation -> hidden -> its gradient, and the block's raw dropout draws,
a quarter of its bytes, sit beside it. The blocks run on the calling thread
plus one pool thread per further core (ufuncs and BLAS release the interpreter
lock); the split depends on the grid's shape alone, and cross-block sums fold
in block order, so no result depends on the thread count. A sentence's dropout
units, in (i, j, hidden) order, are one stream of 16-bit units, unit u bits
16 (u mod 4) to 16 (u mod 4) + 15 of raw draw u // 4 of PCG64(rng_seed); a unit
is dropped below round(rate * 2^16), so with probability within 2^-17 of rate.
Each block reads its units from its offset in that stream, so hidden activations
equal an unsplit computation bit for bit; scores may differ in the last bit (BLAS
edge tiles), loss and gradients in summation order.
"""

from __future__ import annotations

import os
import signal
import threading

import numpy as np

from .tagging import NUM_TAGS


# Most head rows per block, and most bytes of hidden layer and scores per block
# (a single row may pass it). The split depends on the grid's shape alone, so no
# result depends on the number of threads.
_BLOCK_ROWS = 16
_BLOCK_BYTES = 2 << 20
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


def _map_blocks(fn, length: int, width: int, fold=lambda result: None) -> None:
    """fold(fn(rows)) for rows in the blocks of head rows, in block order: each result
    goes to fold as soon as every earlier block's has, so about one unfolded result per
    thread is held. By default the results are dropped.

    A row is L cells of `width` float64 values (hidden + 3K). A block may hold R rows,
    at most _BLOCK_ROWS and at most _BLOCK_BYTES of cells, but at least one. L <= R rows
    are one block; more make ceil(L / R), rounded up to even (at most L), near-equal
    blocks, the first ones a row taller, so two threads share the work within one row.
    With W = min(_THREADS, blocks) > 1 the calling thread runs blocks 0, W, 2W, ... and pool
    thread w the blocks w, W + w, ...; the caller takes its share because temporaries made on a
    pool thread come from that thread's malloc arena, which keeps what is freed. An exception
    from a block is re-raised unchanged once every block has finished.
    """
    most_rows = max(1, min(_BLOCK_ROWS, _BLOCK_BYTES // max(8 * length * width, 1)))
    blocks = [slice(0, length)]
    if length > most_rows:
        count = min(2 * -(-length // (2 * most_rows)), length)
        starts = [b * (length // count) + min(b, length % count) for b in range(count + 1)]
        blocks = [slice(a, b) for a, b in zip(starts, starts[1:])]
    threads = min(_THREADS, len(blocks))
    if threads == 1:
        for rows in blocks:
            fold(fn(rows))
        return
    from concurrent.futures import wait

    # results that wait for an earlier block's, and the number of blocks folded
    pending, folded, lock = {}, [0], threading.Lock()

    def deliver(b: int, result) -> None:
        with lock:
            pending[b] = result
            while folded[0] in pending:
                fold(pending.pop(folded[0]))
                folded[0] += 1

    def run(first: int) -> None:
        for b in range(first, len(blocks), threads):
            deliver(b, fn(blocks[b]))

    pool = _executor()
    # submit may start a pool thread; a handler that raised in Thread.start would leave the
    # thread unregistered, and the interpreter's exit waiting on it. So SIGINT and SIGTERM wait
    # until it is registered (the thread inherits the mask: the main thread handles them).
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, (signal.SIGINT, signal.SIGTERM))
    try:
        strides = [pool.submit(run, w) for w in range(1, threads)]
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
    try:
        run(0)
    finally:
        wait(strides)
    for stride in strides:
        stride.result()


def _projections(emb: np.ndarray, arrays: dict) -> tuple[np.ndarray, np.ndarray]:
    """The two L x hidden halves of the pre-activation: W_h e_i and W_t e_j + b."""
    pair_proj = arrays["pair_proj"]
    d = pair_proj.shape[1] // 2
    if emb.ndim != 2 or emb.shape[1] != d:
        raise ValueError(f"embedding shape {emb.shape} incompatible with emb_dim {d}")
    return emb @ pair_proj[:, :d].T, emb @ pair_proj[:, d:].T + arrays["pair_bias"]


def _hidden_block(heads, tails, rows, seed=None, rate=0.0) -> np.ndarray:
    """Post-rectifier activations of the pairs (i, j), i in rows, as a (rows * L) x hidden
    array; with dropout drawn when seed is not None, unscaled: the scale sits on D."""
    shape = (rows.stop - rows.start, *tails.shape)
    pre = np.empty(shape)
    if seed is not None:
        # these rows' units of the one stream: unit u is bits 16 (u mod 4) up of raw draw u // 4
        skip, size = rows.start * tails.size % 4, pre.size
        bits = np.random.PCG64(seed).advance(rows.start * tails.size // 4)
        units = bits.random_raw(-(-(skip + size) // 4)).astype("<u8", copy=False).view("<u2")
        keep = (units[skip : skip + size] >= round(rate * 65536)).reshape(shape)
    # heads copied in, then tails added in place: the broadcast add heads + tails
    # would allocate NumPy iteration buffers beside its result
    np.copyto(pre, heads[rows, None, :])
    pre += tails
    if seed is not None:
        pre *= keep
    np.maximum(pre, 0.0, out=pre)
    return pre.reshape(-1, tails.shape[1])


def _tag_gradient(s: np.ndarray, gold: np.ndarray, count: int) -> float:
    """Turn a C-contiguous (cells..., 3) block s of tag-minus-NONE scores, in place, into
    the mean loss's gradient (softmax(0, s) - onehot(gold)) / count with respect to it,
    for gold tags in s's cell order; returns the block's NLL sum."""
    p1, p2, p3 = (s[..., t] for t in range(NUM_TAGS - 1))
    top = np.maximum(p1, p2)  # one running max: max rounds nothing, so the order changes no value
    np.maximum(top, p3, out=top)
    np.maximum(top, 0.0, out=top)  # NONE's score
    tagged = np.flatnonzero(gold)
    flat_gold = tagged * (NUM_TAGS - 1) + (gold.ravel()[tagged] - 1)  # the gold tags' entries; NONE has none
    gold_scores = s.ravel()[flat_gold]
    s -= top[..., None]
    np.exp(s, out=s)
    norm = np.exp(-top)
    norm += p1
    norm += p2
    norm += p3
    s /= norm[..., None]
    nll = np.add(np.log(norm, out=norm), top, out=norm).ravel()  # -log softmax of NONE, a cell
    nll[tagged] -= gold_scores
    s.reshape(-1)[flat_gold] -= 1.0
    s /= count
    return nll.sum()


def _hidden_gradient(d_scores, hidden, rows, diffs, d_heads, parts):
    """Back from a block's (rows * L) x 3K score gradient through the tag differences
    `diffs` (dropout's scale included), the rectifier and dropout, in hidden's buffer:
    fills d_heads[rows] and the (d_diffs, d_tails) buffers of `parts`, and returns them."""
    d_diffs, d_tails = parts
    np.matmul(hidden.T, d_scores, out=d_diffs)
    active = hidden > 0.0  # rectifier active set, dropped units included
    d_hidden = np.matmul(d_scores, diffs.T, out=hidden)
    d_hidden *= active
    # pre(i, j) = W_h e_i + W_t e_j + b: reduce over the partner token first
    d_pre = d_hidden.reshape(rows.stop - rows.start, -1, hidden.shape[1])
    d_heads[rows] = d_pre.sum(axis=1)  # summed over tails j
    d_pre.sum(axis=0, out=d_tails)
    return d_diffs, d_tails


# bits 0-2 set where tags 1-3 hold the top non-NONE score -> the sole such tag, else NONE
_SOLE_TAG = np.array([0, 1, 2, 0, 3, 0, 0, 0], dtype=np.int8)
# D = rel_tag_emb @ [-1 -1 -1; I] per relation, so rel_tag_emb's gradient is D's @ _FOLD:
# each tag's column gets its difference's, and NONE's minus their sum
_FOLD = np.array([[-1.0, 1.0, 0.0, 0.0], [-1.0, 0.0, 1.0, 0.0], [-1.0, 0.0, 0.0, 1.0]])


def _tags(s: np.ndarray) -> np.ndarray:
    """int8 argmax over NONE's 0 and the three tag-minus-NONE planes s[..., t - 1]
    of a (cells..., 3) block. Exact ties give NONE: a tie carries no evidence
    for a boundary, and a spurious boundary tag fabricates triples."""
    top = np.maximum(s[..., 0], s[..., 1])
    np.maximum(top, s[..., 2], out=top)
    hits = np.equal(s[..., 0], top).view(np.uint8)
    hits += np.equal(s[..., 1], top).view(np.uint8) << 1
    hits += np.equal(s[..., 2], top).view(np.uint8) << 2
    best = _SOLE_TAG[hits]
    best *= np.greater(top, 0.0)  # NONE takes every tie it is part of
    return best


def _tag_differences(rel_tag_emb: np.ndarray) -> np.ndarray:
    """D: hidden x 3K, column 3k + t - 1 rel_tag_emb[:, 4k + t] - rel_tag_emb[:, 4k]."""
    per_rel = rel_tag_emb.reshape(-1, NUM_TAGS)  # a row per (hidden unit, relation)
    diffs = np.empty((len(per_rel), NUM_TAGS - 1))
    for t in range(1, NUM_TAGS):  # a column at a time: one long strided loop, not a short one a row
        np.subtract(per_rel[:, t], per_rel[:, 0], out=diffs[:, t - 1])
    return diffs.reshape(len(rel_tag_emb), -1)


def batch_grads(items, arrays: dict, dropout_rate: float, grads: dict) -> list[tuple[float, np.ndarray]]:
    """For each (emb, gold, rng_seed) of items in turn, the mean tag NLL over all L x K x L
    cells against (L, K, L) int gold tags, with dropout drawn from rng_seed when the rate is
    above 0, and its L x emb_dim embedding gradient: a list of (loss, d_emb). Each block goes
    from hidden layer to gradients in one pass. Adds the losses' gradients to the three parameter
    arrays into the same names of `grads`; D is built, and its gradient folded, once.
    Inverted dropout's scale 1 / (1 - rate) is multiplied into D, and into D's gradient, once."""
    scale = 1.0 / (1.0 - dropout_rate)  # exactly 1.0 without dropout, which changes no bit
    diffs = _tag_differences(arrays["rel_tag_emb"])
    diffs *= scale
    d_diffs = np.zeros_like(diffs)
    results = [
        _sentence_grads(emb, gold, arrays, diffs, d_diffs, dropout_rate, rng_seed, grads)
        for emb, gold, rng_seed in items
    ]
    d_diffs *= scale
    grads["rel_tag_emb"] += (d_diffs.reshape(-1, NUM_TAGS - 1) @ _FOLD).reshape(d_diffs.shape[0], -1)
    return results


def _sentence_grads(emb, gold, arrays, diffs, d_diffs, dropout_rate, rng_seed, grads):
    """batch_grads of one sentence against D, `diffs`, with D's gradient added into `d_diffs`."""
    heads, tails = _projections(emb, arrays)
    pair_proj, length, num_rel = arrays["pair_proj"], emb.shape[0], diffs.shape[1] // (NUM_TAGS - 1)
    if gold.shape != (length, num_rel, length):
        raise ValueError(f"gold shape {gold.shape} != grid cells {(length, num_rel, length)}")
    seed = rng_seed if dropout_rate > 0.0 else None
    d_heads = np.empty_like(heads)

    def block(rows: slice) -> tuple:
        hidden = _hidden_block(heads, tails, rows, seed, dropout_rate)
        d_scores = hidden @ diffs  # (rows * L) x 3K: cells (i, j, k)
        cells = d_scores.reshape(len(hidden), num_rel, NUM_TAGS - 1)
        nll = _tag_gradient(cells, gold[rows].transpose(0, 2, 1), gold.size)
        try:
            parts = spares.pop()
        except IndexError:
            parts = np.empty_like(diffs), np.empty_like(tails)
        return nll, *_hidden_gradient(d_scores, hidden, rows, diffs, d_heads, parts)

    # fold the blocks' NLL, d_diffs and d_tails (L x hidden, summed over heads i)
    # into running sums in block order, then go back through the projections;
    # each part's buffers go to a later block, which then allocates none
    sums, spares = [0.0, d_diffs, np.zeros_like(tails)], []

    def fold(part: tuple) -> None:
        for i, value in enumerate(part):
            sums[i] += value
        spares.append(part[1:])

    _map_blocks(block, length, heads.shape[1] + diffs.shape[1], fold)
    nll, _, d_tails = sums
    d = emb.shape[1]
    d_proj = np.empty_like(pair_proj)  # one contiguous add, not two into strided halves
    np.matmul(d_heads.T, emb, out=d_proj[:, :d])
    np.matmul(d_tails.T, emb, out=d_proj[:, d:])
    grads["pair_proj"] += d_proj
    grads["pair_bias"] += d_heads.sum(axis=0)
    d_emb = d_heads @ pair_proj[:, :d] + d_tails @ pair_proj[:, d:]
    return float(nll / gold.size), d_emb


def tag_grid(emb: np.ndarray, arrays: dict) -> np.ndarray:
    """The (L, K, L) int8 grid of every cell's argmax tag, exact ties to NONE,
    with no dropout; each block goes from hidden layer to tags in one pass."""
    heads, tails = _projections(emb, arrays)
    diffs = _tag_differences(arrays["rel_tag_emb"])
    length, num_rel = emb.shape[0], diffs.shape[1] // (NUM_TAGS - 1)
    tags = np.empty((length, num_rel, length), dtype=np.int8)

    def block(rows: slice) -> None:
        scores = _hidden_block(heads, tails, rows) @ diffs
        tags[rows] = _tags(scores.reshape(-1, length, num_rel, NUM_TAGS - 1)).transpose(0, 2, 1)

    _map_blocks(block, length, heads.shape[1] + diffs.shape[1])
    return tags
