import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relgrid import scorer
from relgrid.scorer import batch_grads, tag_grid
from relgrid.tagging import NUM_TAGS, Tag

from conftest import glorot_arrays, tag_cells

GRAD_NAMES = ("pair_proj", "pair_bias", "rel_tag_emb", "emb")


# --- independent oracles ---------------------------------------------------
# Each takes the scorer's three arrays by name, as batch_grads and tag_grid
# do, and a dropout rate where training needs one.

def relation_count(arrays):
    return arrays["rel_tag_emb"].shape[1] // NUM_TAGS


def scorer_grads(emb, gold, arrays, rate=0.0, rng_seed=0):
    """batch_grads of one sentence into zeroed gradient arrays: the three
    parameter gradients, "emb" and "loss", by name."""
    grads = {name: np.zeros_like(arrays[name]) for name in GRAD_NAMES[:3]}
    grads["loss"], grads["emb"] = batch_grads([(emb, gold, rng_seed)], arrays, rate, grads)[0]
    return grads


def naive_cell_score(emb, arrays, i, k, tag, j):
    """Per-cell recomputation straight from the definition, no batching."""
    pair = np.concatenate([emb[i], emb[j]])
    hidden = np.maximum(arrays["pair_proj"] @ pair + arrays["pair_bias"], 0.0)
    return float(arrays["rel_tag_emb"][:, NUM_TAGS * k + tag] @ hidden)


def naive_scores(emb, arrays):
    """L x K x 4 x L scores from naive_cell_score, one cell at a time."""
    length, num_rel = emb.shape[0], relation_count(arrays)
    scores = np.empty((length, num_rel, NUM_TAGS, length))
    for idx in np.ndindex(scores.shape):
        scores[idx] = naive_cell_score(emb, arrays, *idx)
    return scores


def scalar_loss(scores, gold_cells, length, num_rel):
    """Mean of -log softmax(gold) over all cells of L x K x 4 x L scores,
    one cell at a time."""
    total = 0.0
    for i in range(length):
        for k in range(num_rel):
            for j in range(length):
                cell = scores[i, k, :, j]
                gold = gold_cells.get((i, k, j), 0)
                e = np.exp(cell - cell.max())
                total -= np.log(e[gold] / e.sum())
    return total / (length * num_rel * length)


def keep_mask(rng_seed, rate, shape):
    """Dropout's keep mask over a sentence's whole grid of units, (i, j, hidden) in C
    order, from its definition: unit u is bits 16 (u mod 4) to 16 (u mod 4) + 15 of
    raw draw u // 4 of PCG64(rng_seed), and is kept when at least round(rate * 2^16)."""
    size = int(np.prod(shape))
    raw = np.random.PCG64(rng_seed).random_raw(-(-size // 4))
    units = (raw[:, None] >> np.array([0, 16, 32, 48], dtype=np.uint64)) & np.uint64(0xFFFF)  # [u // 4, u mod 4]
    return (units.ravel()[:size] >= round(rate * 65536)).reshape(shape)


def concat_reference(emb, arrays, gold_arr, mask=None, rate=0.0, rng_seed=0):
    """Scores, loss and gradients with the pair layer applied to an explicit
    L x L x 2d tensor of [e_i; e_j] concatenations (the unfactorized form).
    The loss is the mean over the cells where mask is set (all by default);
    dropout at `rate` is drawn from rng_seed when the rate is above 0.

    Returns (scores as L x K x 4 x L, mean loss, dict of gradients).
    """
    pair_proj, rel_tag_emb = arrays["pair_proj"], arrays["rel_tag_emb"]
    length, d = emb.shape
    num_rel = relation_count(arrays)
    if mask is None:
        mask = np.ones(gold_arr.shape, dtype=bool)
    heads = np.broadcast_to(emb[:, None, :], (length, length, d))
    tails = np.broadcast_to(emb[None, :, :], (length, length, d))
    pairs = np.concatenate([heads, tails], axis=2).reshape(length * length, 2 * d)
    pre = pairs @ pair_proj.T + arrays["pair_bias"]
    drop = np.ones_like(pre)
    if rate > 0.0:
        drop = keep_mask(rng_seed, rate, pre.shape) / (1.0 - rate)
    hidden = np.maximum(pre * drop, 0.0)
    flat_scores = hidden @ rel_tag_emb
    scores = flat_scores.reshape(length, length, num_rel, NUM_TAGS).transpose(0, 2, 3, 1)

    cell_major = np.moveaxis(scores, 2, 3)  # L x K x L x 4
    e = np.exp(cell_major - cell_major.max(axis=3, keepdims=True))
    probs = e / e.sum(axis=3, keepdims=True)
    onehot = np.eye(NUM_TAGS)[gold_arr]
    count = mask.sum()
    mean_loss = -np.log(probs[onehot == 1.0].reshape(gold_arr.shape))[mask].sum() / count
    d_logits = (probs - onehot) * mask[..., None] / count
    d_flat = d_logits.transpose(0, 2, 1, 3).reshape(length * length, -1)
    d_hidden = (d_flat @ rel_tag_emb.T) * (hidden > 0.0) * drop
    d_pairs = (d_hidden @ pair_proj).reshape(length, length, 2 * d)
    grads = {
        "pair_proj": d_hidden.T @ pairs,
        "pair_bias": d_hidden.sum(axis=0),
        "rel_tag_emb": hidden.T @ d_flat,
        "emb": d_pairs[:, :, :d].sum(axis=1) + d_pairs[:, :, d:].sum(axis=0),
    }
    return scores, mean_loss, grads


def pad_cells(gold_arr, padded):
    """(n, K, n) gold tags placed in a (padded, K, padded) grid of NONE,
    and the mask of the n x K x n true-length cells."""
    n, num_rel, _ = gold_arr.shape
    gold = np.zeros((padded, num_rel, padded), dtype=gold_arr.dtype)
    gold[:n, :, :n] = gold_arr
    mask = np.zeros(gold.shape, dtype=bool)
    mask[:n, :, :n] = True
    return gold, mask


def float_mask_reference(emb, arrays, gold_arr, rate, rng_seed):
    """Training-mode scores, loss and gradients with the dropout
    realization kept as a float L x L x hidden_dim array of 0 and
    1 / (1 - rate), multiplied into the pre-activation and again into the
    hidden gradient, over the whole grid at once.

    Returns (scores as L x K x 4 x L, hidden as L x L x H, loss, gradients).
    """
    pair_proj, rel_tag_emb = arrays["pair_proj"], arrays["rel_tag_emb"]
    length, d = emb.shape
    num_rel = relation_count(arrays)
    heads = emb @ pair_proj[:, :d].T
    tails = emb @ pair_proj[:, d:].T + arrays["pair_bias"]
    pre = (heads[:, None, :] + tails[None, :, :]).reshape(length * length, -1)
    drop_mask = keep_mask(rng_seed, rate, pre.shape) / (1.0 - rate)
    pre *= drop_mask
    hidden = np.maximum(pre, 0.0, out=pre)
    scores = (
        (hidden @ rel_tag_emb)
        .reshape(length, length, num_rel, NUM_TAGS)
        .transpose(0, 2, 3, 1)
        .copy()
    )

    cell_major = np.moveaxis(scores, 2, 3)
    shifted = cell_major - cell_major.max(axis=3, keepdims=True)
    probs = np.exp(shifted)
    norm = probs.sum(axis=3)
    probs /= norm[..., None]
    gold_idx = gold_arr[..., None]
    nll = np.log(norm) - np.take_along_axis(shifted, gold_idx, axis=3).squeeze(3)
    mean_loss = float(nll.sum() / nll.size)
    np.put_along_axis(probs, gold_idx, np.take_along_axis(probs, gold_idx, axis=3) - 1.0, axis=3)
    probs /= nll.size
    d_flat = probs.transpose(0, 2, 1, 3).reshape(length * length, num_rel * NUM_TAGS)
    d_hidden = d_flat @ rel_tag_emb.T
    d_hidden *= hidden > 0.0
    d_hidden *= drop_mask
    d_pre = d_hidden.reshape(length, length, -1)
    d_heads, d_tails = d_pre.sum(axis=1), d_pre.sum(axis=0)
    grads = {
        "pair_proj": np.concatenate([d_heads.T @ emb, d_tails.T @ emb], axis=1),
        "pair_bias": d_heads.sum(axis=0),
        "rel_tag_emb": hidden.T @ d_flat,
        "emb": d_heads @ pair_proj[:, :d] + d_tails @ pair_proj[:, d:],
    }
    return scores, hidden.reshape(length, length, -1), mean_loss, grads


def reference_predict_tags(scores):
    """{(i, k, j): Tag} from one argmax per cell of L x K x 4 x L scores;
    ties give NONE and are left out."""
    length, num_rel = scores.shape[:2]
    cells = {}
    for i, k, j in np.ndindex(length, num_rel, length):
        cell = scores[i, k, :, j]
        best = int(np.argmax(cell))
        if (cell == cell[best]).sum() > 1:
            best = 0
        if best:
            cells[(i, k, j)] = Tag(best)
    return cells


def finite_difference(f, arr, idx, step=1e-5):
    old = arr[idx]
    arr[idx] = old + step
    up = f()
    arr[idx] = old - step
    down = f()
    arr[idx] = old
    return (up - down) / (2 * step)


def random_instance(seed, length=3, num_rel=2, emb_dim=4):
    """Embeddings, the scorer's three arrays and gold tags, all seeded."""
    rng = np.random.default_rng(seed)
    emb = rng.normal(scale=0.8, size=(length, emb_dim))
    arrays = glorot_arrays(emb_dim, num_rel, seed=seed + 1)
    # lift weights off the tiny init so activations are comfortably nonzero
    arrays["pair_proj"] += rng.normal(scale=0.3, size=arrays["pair_proj"].shape)
    arrays["pair_bias"] += rng.normal(scale=0.1, size=arrays["pair_bias"].shape)
    arrays["rel_tag_emb"] += rng.normal(scale=0.3, size=arrays["rel_tag_emb"].shape)
    gold = np.zeros((length, num_rel, length), dtype=np.int8)
    for _ in range(4):
        cell = tuple(int(v) for v in (rng.integers(0, length), rng.integers(0, num_rel), rng.integers(0, length)))
        gold[cell] = rng.integers(1, 4)
    return emb, arrays, gold


def to_half_integers(emb, arrays):
    """Round the inputs, in place, to multiples of 1/2: every score is then
    exact in float64 under any summation order, and many cells tie."""
    for arr in (emb, *arrays.values()):
        arr[...] = np.round(2.0 * arr) / 2.0


def relative_errors(analytic, numeric):
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-12)
    errs = np.abs(analytic - numeric) / denom
    errs[(analytic == 0.0) & (numeric == 0.0)] = 0.0
    return errs


def min_preactivation(emb, arrays):
    length = emb.shape[0]
    worst = np.inf
    for i in range(length):
        for j in range(length):
            pre = arrays["pair_proj"] @ np.concatenate([emb[i], emb[j]]) + arrays["pair_bias"]
            worst = min(worst, np.abs(pre).min())
    return worst


def gradcheck(seed, dropout=0.0, rng_seed=0, tol=1e-4):
    """Full-coordinate central-difference check of batch_grads' loss;
    returns worst relative error. With dropout on, rng_seed fixes one
    realization for every evaluation.

    Instances with pre-activations near the rectifier kink are rejected by
    the caller (finite differences would step across the kink).
    """
    emb, arrays, gold = random_instance(seed)

    def run_loss():
        return scorer_grads(emb, gold, arrays, dropout, rng_seed)["loss"]

    grads = scorer_grads(emb, gold, arrays, dropout, rng_seed)

    inputs = {**arrays, "emb": emb}
    worst = 0.0
    for name in GRAD_NAMES:
        arr = inputs[name]
        numeric = np.zeros_like(arr)
        for idx in np.ndindex(arr.shape):
            numeric[idx] = finite_difference(run_loss, arr, idx)
        worst = max(worst, float(relative_errors(grads[name], numeric).max()))
    return worst


def no_gold(length, num_rel):
    return np.zeros((length, num_rel, length), dtype=np.int8)


class TestScoreAll:
    """The score of every cell, as batch_grads' loss and tag_grid's tags
    show it."""

    def assert_all_scores_zero(self, emb, arrays):
        length, num_rel = emb.shape[0], relation_count(arrays)
        grads = scorer_grads(emb, no_gold(length, num_rel), arrays)
        assert grads["loss"] == pytest.approx(np.log(4.0), abs=1e-15)
        for name in GRAD_NAMES:
            assert not grads[name].any(), name  # no unit is active
        assert not tag_grid(emb, arrays).any()

    def test_zero_params_zero_scores(self):
        emb = np.random.default_rng(0).normal(size=(3, 4))
        arrays = dict(
            pair_proj=np.zeros((12, 8)),
            pair_bias=np.zeros(12),
            rel_tag_emb=np.zeros((12, 8)),
        )
        self.assert_all_scores_zero(emb, arrays)

    def test_negative_bias_kills_scores(self):
        emb = np.random.default_rng(1).normal(size=(3, 4))
        arrays = dict(
            pair_proj=np.zeros((12, 8)),
            pair_bias=np.full(12, -0.5),
            rel_tag_emb=np.random.default_rng(2).normal(size=(12, 8)),
        )
        self.assert_all_scores_zero(emb, arrays)

    def test_matches_naive_per_cell_oracle(self):
        emb, arrays, gold = random_instance(7)
        scores = naive_scores(emb, arrays)
        assert scorer_grads(emb, gold, arrays)["loss"] == pytest.approx(
            scalar_loss(scores, tag_cells(gold), 3, 2), rel=1e-12
        )
        assert tag_cells(tag_grid(emb, arrays)) == reference_predict_tags(scores)

    def test_shape_mismatch_rejected(self):
        emb = np.zeros((3, 5))
        arrays = glorot_arrays(4, 2, seed=0)
        with pytest.raises(ValueError, match="incompatible"):
            tag_grid(emb, arrays)
        with pytest.raises(ValueError, match="incompatible"):
            scorer_grads(emb, no_gold(3, 2), arrays)

    def test_asymmetry_is_constructible(self):
        # projection reads only the first (head) half of the pair and only
        # tag HB-TB reads the hidden unit, so the tag follows e_i alone and
        # swapping i/j must change it
        arrays = dict(
            pair_proj=np.array([[1.0, 0.0]]),
            pair_bias=np.zeros(1),
            rel_tag_emb=np.array([[0.0, 1.0, 0.0, 0.0]]),
        )
        emb = np.array([[1.0], [-1.0]])
        tags = tag_grid(emb, arrays)
        assert tags[0, 0, 1] == Tag.HB_TB
        assert tags[1, 0, 0] == Tag.NONE

    def test_dropout_reproducible_and_scaled(self):
        emb, arrays, gold = random_instance(5)
        g1 = scorer_grads(emb, gold, arrays, 0.5, 42)
        g2 = scorer_grads(emb, gold, arrays, 0.5, 42)
        for name in GRAD_NAMES + ("loss",):
            assert np.array_equal(g1[name], g2[name]), name
        assert scorer_grads(emb, gold, arrays, 0.5, 43)["loss"] != g1["loss"]
        # inverted dropout: every unit is dropped (0) or kept and scaled by
        # exactly 1 / (1 - 0.5) = 2, so inference needs no rescaling; the
        # kernel leaves the scale to D
        heads, tails = scorer._projections(emb, arrays)
        plain = scorer._hidden_block(heads, tails, slice(0, 3))
        trained = scorer._hidden_block(heads, tails, slice(0, 3), 42, 0.5) * 2.0
        dropped = trained == 0.0
        assert np.all(dropped | (trained == 2.0 * plain))
        assert np.any(dropped & (plain > 0.0))
        assert np.any(~dropped)


class TestLoss:
    def test_uniform_scores_give_ln4(self):
        emb = np.random.default_rng(0).normal(size=(4, 4))
        arrays = dict(
            pair_proj=np.zeros((12, 8)),
            pair_bias=np.zeros(12),
            rel_tag_emb=np.zeros((12, 12)),
        )
        gold = np.zeros((4, 3, 4), dtype=np.int8)
        gold[0, 1, 2] = Tag.HB_TE
        assert scorer_grads(emb, gold, arrays)["loss"] == pytest.approx(
            np.log(4.0), abs=1e-9
        )

    def test_perfect_scores_drive_loss_to_zero(self):
        # one-hot tokens and one hidden unit per pair (a, b), active only at
        # (i, j) = (a, b); each unit gives its cells' gold tags a score of 60
        _, _, gold = random_instance(9)
        length, num_rel = gold.shape[:2]
        emb = np.eye(length)
        a, b = np.divmod(np.arange(length * length), length)
        rel_tag_emb = np.zeros((length * length, NUM_TAGS * num_rel))
        cols = NUM_TAGS * np.arange(num_rel) + gold[a, :, b]
        rel_tag_emb[np.arange(length * length)[:, None], cols] = 60.0
        arrays = dict(
            pair_proj=np.concatenate([emb[a], emb[b]], axis=1),
            pair_bias=np.full(length * length, -1.0),
            rel_tag_emb=rel_tag_emb,
        )
        grads = scorer_grads(emb, gold, arrays)
        assert grads["loss"] == pytest.approx(0.0, abs=1e-12)
        for name in GRAD_NAMES:
            assert np.max(np.abs(grads[name])) < 1e-20, name
        assert np.array_equal(tag_grid(emb, arrays), gold)

    def test_matches_scalar_reimplementation(self):
        emb, arrays, gold = random_instance(13)
        assert scorer_grads(emb, gold, arrays)["loss"] == pytest.approx(
            scalar_loss(naive_scores(emb, arrays), tag_cells(gold), 3, 2), rel=1e-12
        )


class TestBackward:
    def test_gradients_match_finite_differences(self):
        checked = 0
        seed = 0
        while checked < 3:
            seed += 1
            emb, arrays, _ = random_instance(seed)
            if min_preactivation(emb, arrays) < 1e-3:
                continue  # too close to the rectifier kink for fd
            assert gradcheck(seed) <= 1e-4
            checked += 1

    def test_gradients_with_dropout_realization_fixed(self):
        checked = 0
        seed = 100
        while checked < 2:
            seed += 1
            emb, arrays, _ = random_instance(seed)
            if min_preactivation(emb, arrays) < 1e-3:
                continue
            assert gradcheck(seed, dropout=0.3, rng_seed=7) <= 1e-4
            checked += 1


class TestFactorizedPairLayer:
    """batch_grads and tag_grid against the concatenated-pair reference at a
    size where row/column reductions matter: L=12, K=3, dropout on."""

    RTOL, ATOL = 1e-12, 1e-14

    @pytest.mark.parametrize("seed", [41, 42, 43])
    def test_matches_concat_reference(self, seed):
        emb, arrays, gold = random_instance(seed, length=12, num_rel=3, emb_dim=6)
        grads = scorer_grads(emb, gold, arrays, 0.3, seed)
        _, ref_loss, ref_grads = concat_reference(emb, arrays, gold, rate=0.3, rng_seed=seed)
        assert grads["loss"] == pytest.approx(ref_loss, rel=self.RTOL, abs=self.ATOL)
        for name, ref in ref_grads.items():
            np.testing.assert_allclose(
                grads[name], ref, rtol=self.RTOL, atol=self.ATOL, err_msg=name
            )
        to_half_integers(emb, arrays)
        ref_scores = concat_reference(emb, arrays, gold)[0]
        assert tag_cells(tag_grid(emb, arrays)) == reference_predict_tags(ref_scores)


class TestScalarDropoutScale:
    """Dropout's scale carried on D gives the float-mask formulation's hidden
    layer, once scaled, bit for bit, and its loss and all four gradients up to
    float summation order."""

    RTOL, ATOL = 1e-12, 1e-14

    @pytest.mark.parametrize("seed, dropout", [(51, 0.1), (52, 0.3), (53, 0.5)])
    def test_bit_identical_to_float_mask_reference(self, seed, dropout):
        emb, arrays, gold = random_instance(seed, length=12, num_rel=3, emb_dim=6)
        grads = scorer_grads(emb, gold, arrays, dropout, seed)
        _, ref_hidden, ref_loss, ref_grads = float_mask_reference(emb, arrays, gold, dropout, seed)
        heads, tails = scorer._projections(emb, arrays)
        hidden = scorer._hidden_block(heads, tails, slice(0, 12), seed, dropout) * (1 / (1 - dropout))
        assert np.array_equal(hidden, ref_hidden.reshape(hidden.shape))
        assert grads["loss"] == pytest.approx(ref_loss, rel=self.RTOL, abs=self.ATOL)
        for name, ref in ref_grads.items():
            np.testing.assert_allclose(
                grads[name], ref, rtol=self.RTOL, atol=self.ATOL, err_msg=name
            )


# --- the block kernels as they were when every step allocated its result ---
# Byte-for-byte references for the kernels that now write into buffers they
# already hold: the same operations on the same values in the same order.

def allocating_hidden_block(heads, tails, rows, seed=None, rate=0.0):
    pre = heads[rows, None, :] + tails
    if seed is not None:
        pre *= keep_mask(seed, rate, (len(heads), *tails.shape))[rows]
    np.maximum(pre, 0.0, out=pre)
    return pre.reshape(-1, tails.shape[1])


def allocating_tag_differences(rel_tag_emb):
    per_rel = rel_tag_emb.reshape(len(rel_tag_emb), -1, NUM_TAGS)
    return (per_rel[..., 1:] - per_rel[..., :1]).reshape(len(rel_tag_emb), -1)


def allocating_tag_gradient(s, gold, count):
    p1, p2, p3 = (s[..., t] for t in range(NUM_TAGS - 1))
    top = np.maximum(np.maximum(np.maximum(p1, p2), p3), 0.0)
    gold = gold.ravel()
    tagged = gold.nonzero()[0]
    flat_gold = (NUM_TAGS - 1) * tagged + gold[tagged] - 1
    gold_scores = s.ravel()[flat_gold]
    s -= top[..., None]
    np.exp(s, out=s)
    norm = np.exp(-top) + p1
    norm += p2
    norm += p3
    s /= norm[..., None]
    nll = np.log(norm).ravel() + top.ravel()
    nll[tagged] -= gold_scores
    s.reshape(-1)[flat_gold] -= 1.0
    s /= count
    return nll.sum()


def allocating_hidden_gradient(d_scores, hidden, rows, diffs, d_heads):
    d_diffs = hidden.T @ d_scores
    d_hidden = d_scores @ diffs.T
    d_hidden *= hidden > 0.0
    d_pre = d_hidden.reshape(rows.stop - rows.start, -1, hidden.shape[1])
    d_heads[rows] = d_pre.sum(axis=1)
    return d_diffs, d_pre.sum(axis=0)


def traced_peak(call):
    """tracemalloc's peak, in bytes, over allocations made during call()."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def same_bytes(got, ref):
    """Equal shapes and float64 bit patterns, so -0.0 differs from 0.0."""
    got, ref = np.ascontiguousarray(got, np.float64), np.ascontiguousarray(ref, np.float64)
    return got.shape == ref.shape and np.array_equal(got.view(np.int64), ref.view(np.int64))


class TestInPlaceKernels:
    """_tag_differences, _hidden_block, _tag_gradient and _hidden_gradient
    write into buffers they already hold; every block's results equal the
    allocating references bit for bit, at the benchmark's three shapes."""

    @pytest.mark.parametrize("dropout", [0.0, 0.1])
    @pytest.mark.parametrize("length, num_rel", [(14, 4), (100, 24), (40, 171)])
    def test_blocks_equal_the_allocating_kernels_byte_for_byte(self, length, num_rel, dropout):
        emb, arrays, _ = random_instance(length + num_rel, length, num_rel, emb_dim=64)
        gold = np.random.default_rng(length).integers(0, NUM_TAGS, (length, num_rel, length)).astype(np.int8)
        heads, tails = scorer._projections(emb, arrays)
        diffs = scorer._tag_differences(arrays["rel_tag_emb"])
        assert same_bytes(diffs, allocating_tag_differences(arrays["rel_tag_emb"]))
        seed = 17 if dropout else None
        d_heads, ref_d_heads = np.zeros_like(heads), np.zeros_like(heads)
        parts = np.full_like(diffs, np.nan), np.full_like(tails, np.nan)  # reused by every block
        for start in range(0, length, scorer._BLOCK_ROWS):
            rows = slice(start, min(start + scorer._BLOCK_ROWS, length))
            hidden = scorer._hidden_block(heads, tails, rows, seed, dropout)
            ref_hidden = allocating_hidden_block(heads, tails, rows, seed, dropout)
            assert same_bytes(hidden, ref_hidden)
            assert (hidden == 0.0).any() and (hidden > 0.0).any()

            d_scores, ref_d_scores = hidden @ diffs, ref_hidden @ diffs
            block_gold = gold[rows].transpose(0, 2, 1)
            cells = (len(hidden), num_rel, NUM_TAGS - 1)
            nll = scorer._tag_gradient(d_scores.reshape(cells), block_gold, gold.size)
            ref_nll = allocating_tag_gradient(ref_d_scores.reshape(cells), block_gold, gold.size)
            assert same_bytes(d_scores, ref_d_scores)
            assert same_bytes(np.float64(nll), np.float64(ref_nll))

            ref = allocating_hidden_gradient(ref_d_scores, ref_hidden, rows, diffs, ref_d_heads)
            got = scorer._hidden_gradient(d_scores, hidden, rows, diffs, d_heads, parts)
            for part, ref_part in zip(got, ref):
                assert same_bytes(part, ref_part)
            assert same_bytes(d_heads, ref_d_heads)

    def test_hidden_block_allocates_little_beside_its_result(self):
        # a broadcast add heads + tails allocates about 62 KB of NumPy
        # iteration buffers beside its 983 KB result here
        emb, arrays, _ = random_instance(40, 40, 4, emb_dim=64)
        heads, tails = scorer._projections(emb, arrays)
        rows = slice(0, 16)
        scorer._hidden_block(heads, tails, rows)
        hidden = []
        peak = traced_peak(lambda: hidden.append(scorer._hidden_block(heads, tails, rows)))
        assert peak - hidden[0].nbytes < 4096


def block_spans(length, width):
    """The (start, stop) head rows of each block of an L x L grid of `width` values a cell."""
    spans = []
    scorer._map_blocks(lambda rows: (rows.start, rows.stop), length, width, fold=spans.append)
    return spans


class TestHeadRowBlocks:
    """The pair grid is computed in blocks of head rows: at L=37 there are
    four, 10, 9, 9 and 9 rows high, or more and shorter ones when a smaller
    byte budget binds. Against a one-block run, the hidden layer, and the
    tags of an instance whose scores are exact, must be equal; loss and
    gradients may differ in float summation order (BLAS rounds the edge
    tiles of a product by its shape)."""

    RTOL, ATOL = 1e-12, 1e-14
    LENGTH, NUM_REL = 37, 5
    WIDTH = 3 * 8 + (NUM_TAGS - 1) * NUM_REL  # hidden + 3K values a cell at emb_dim 8

    def instance(self):
        return random_instance(61, length=self.LENGTH, num_rel=self.NUM_REL, emb_dim=8)

    @pytest.mark.parametrize("halves", [False, True])
    def test_matches_one_block_run(self, monkeypatch, halves):
        emb, arrays, gold = self.instance()
        if halves:
            to_half_integers(emb, arrays)

        def run(most_rows, budget):
            monkeypatch.setattr(scorer, "_BLOCK_ROWS", most_rows)
            monkeypatch.setattr(scorer, "_BLOCK_BYTES", budget)
            return scorer_grads(emb, gold, arrays, 0.3, 63), tag_grid(emb, arrays)

        # the 16-row rule's four blocks, then a budget that leaves one row a block
        cases = ((scorer._BLOCK_BYTES, 4), (1, self.LENGTH))
        whole_grads, whole_tags = run(64, 1 << 40)
        assert block_spans(self.LENGTH, self.WIDTH) == [(0, self.LENGTH)]
        for budget, blocks in cases:
            blocked_grads, blocked_tags = run(16, budget)
            assert len(block_spans(self.LENGTH, self.WIDTH)) == blocks
            for name in GRAD_NAMES + ("loss",):
                np.testing.assert_allclose(
                    blocked_grads[name],
                    whole_grads[name],
                    rtol=self.RTOL,
                    atol=self.ATOL,
                    err_msg=name,
                )
            if halves:
                assert np.array_equal(blocked_tags, whole_tags)

    def test_dropout_stream_is_one_draw_over_the_grid(self):
        emb, arrays, gold = self.instance()
        heads, tails = scorer._projections(emb, arrays)
        blocks = []
        scorer._map_blocks(
            lambda rows: scorer._hidden_block(heads, tails, rows, 63, 0.3) * (1.0 / (1.0 - 0.3)),
            self.LENGTH,
            self.WIDTH,
            fold=blocks.append,
        )
        assert [len(b) // self.LENGTH for b in blocks] == [10, 9, 9, 9]
        _, ref_hidden, _, _ = float_mask_reference(emb, arrays, gold, 0.3, 63)
        assert np.array_equal(np.concatenate(blocks), ref_hidden.reshape(-1, heads.shape[1]))

    def test_blocks_cover_rows_in_order(self, monkeypatch, block_threads):
        block_threads(3)
        assert block_spans(37, self.WIDTH) == [(0, 10), (10, 19), (19, 28), (28, 37)]
        assert block_spans(16, self.WIDTH) == [(0, 16)]
        # a budget of five rows of 37 cells: eight blocks at L=37, and two at L=16
        monkeypatch.setattr(scorer, "_BLOCK_BYTES", 5 * 37 * self.WIDTH * 8)
        assert block_spans(37, self.WIDTH) == [
            (0, 5), (5, 10), (10, 15), (15, 20), (20, 25), (25, 29), (29, 33), (33, 37)
        ]
        assert block_spans(16, self.WIDTH) == [(0, 8), (8, 16)]

    # (cell width, byte budget): the 16-row rule alone (K=5 at emb_dim 8), the
    # benchmark's K=24 and K=171 widths at the default budget, and a budget
    # that splits grids from L=3 on and takes one-row blocks from L=9 on
    SHAPES = {39: scorer._BLOCK_BYTES, 264: scorer._BLOCK_BYTES, 705: scorer._BLOCK_BYTES, 4: 256}

    def test_split_is_balanced_and_fixed_by_the_shape(self, monkeypatch, block_threads):
        def spans(length, width):
            split = []
            scorer._map_blocks(
                lambda rows: (rows.start, rows.stop, threading.get_ident()), length, width, split.append
            )
            return split

        one_thread = {}
        for threads in (1, 2, 4):
            block_threads(threads)
            for width, budget in self.SHAPES.items():
                monkeypatch.setattr(scorer, "_BLOCK_BYTES", budget)
                for length in range(1, 121):
                    split = spans(length, width)
                    cuts = [(a, b) for a, b, _ in split]
                    if threads > 1:
                        assert cuts == one_thread[width, length], (width, length, threads)
                    if threads == 2:  # each thread's share of the rows (times L pairs each)
                        rows = {}
                        for a, b, thread in split:
                            rows[thread] = rows.get(thread, 0) + b - a
                        assert len(rows) == min(2, len(cuts))
                        assert max(rows.values()) - min(rows.values()) <= 1, (width, length, rows)
                    if threads > 1:
                        continue
                    one_thread[width, length] = cuts
                    row_bytes = length * width * 8
                    heights = [b - a for a, b in cuts]
                    assert [a for a, _ in cuts] + [length] == [0] + [b for _, b in cuts]
                    assert all(0 < h <= scorer._BLOCK_ROWS for h in heights)
                    assert all(h == 1 or h * row_bytes <= budget for h in heights), (width, length)
                    # near-equal, the first ones a row taller
                    assert heights == sorted(heights, reverse=True) and heights[0] - heights[-1] <= 1
                    fits = length <= scorer._BLOCK_ROWS and length * row_bytes <= budget
                    assert (len(cuts) == 1) == (fits or length == 1), (width, length)
                    assert len(cuts) in (1, length) or len(cuts) % 2 == 0
                    if len(cuts) > 2:  # two blocks fewer would break a limit
                        tallest = -(-length // (len(cuts) - 2))
                        assert tallest > scorer._BLOCK_ROWS or tallest * row_bytes > budget

    @pytest.mark.parametrize("failing", [0, 10, 19], ids=["caller", "pool-1", "pool-2"])
    def test_block_exception_reaches_caller_unchanged(self, block_threads, failing):
        block_threads(3)
        error = RuntimeError(f"block at row {failing}")

        def fn(rows):
            if rows.start == failing:
                raise error
            return rows.start

        with pytest.raises(RuntimeError) as info:
            scorer._map_blocks(fn, 37, self.WIDTH)
        assert info.value is error


class TestDropoutStream:
    """A sentence's dropout units are one stream of 16-bit units, four to a raw
    PCG64 draw, each dropped below round(rate * 2^16), and every block reads its
    rows' units from that stream. Pre-activations held at 1 make the hidden
    layer the keep mask itself."""

    @staticmethod
    def kept(length, hidden, rows, seed, rate):
        heads, tails = np.ones((length, hidden)), np.zeros((length, hidden))
        block = scorer._hidden_block(heads, tails, rows, seed, rate)
        assert set(np.unique(block)) <= {0.0, 1.0}
        return block.reshape(rows.stop - rows.start, length, hidden) > 0.0

    @pytest.mark.parametrize("rate", [0.1, 0.3, 0.5])
    def test_kept_share_follows_the_rounded_rate(self, rate):
        keep = self.kept(100, 100, slice(0, 100), 5, rate)  # 10^6 units
        assert abs(keep.mean() - (1 - round(rate * 2**16) / 2**16)) < 0.002

    def test_half_rate_keeps_the_units_with_their_top_bit_set(self):
        keep = self.kept(40, 25, slice(0, 40), 9, 0.5)
        raw = np.random.PCG64(9).random_raw(40 * 40 * 25 // 4)
        top_bits = (raw[:, None] >> np.array([15, 31, 47, 63], dtype=np.uint64)) & np.uint64(1)
        assert np.array_equal(keep.ravel(), top_bits.ravel() == 1)  # unit >= 32768

    def test_blocks_at_any_unit_offset_read_their_slice_of_the_stream(self, monkeypatch):
        # emb_dim 3 makes 9 hidden units a pair, 333 a row of L=37: blocks start
        # at unit offsets of every residue mod 4
        length, hidden, width = 37, 9, 9 + (NUM_TAGS - 1) * 5
        monkeypatch.setattr(scorer, "_BLOCK_BYTES", 5 * length * width * 8)
        spans = block_spans(length, width)
        assert {a * length * hidden % 4 for a, _ in spans} == {0, 1, 2, 3}
        stream = keep_mask(11, 0.3, (length, length, hidden))
        for a, b in spans:
            assert np.array_equal(self.kept(length, hidden, slice(a, b), 11, 0.3), stream[a:b]), (a, b)

    def test_batch_grads_are_byte_identical_on_one_to_three_threads(self, monkeypatch, block_threads):
        monkeypatch.setattr(scorer, "_BLOCK_BYTES", 4096)  # one-row blocks, at unit offsets of every residue mod 4
        sentences = [random_instance(seed, length, 5, emb_dim=3) for seed, length in ((3, 37), (4, 23))]
        arrays = sentences[0][1]
        assert len(block_spans(23, 9 + (NUM_TAGS - 1) * 5)) == 23
        runs = []
        for threads in (1, 2, 3):
            block_threads(threads)
            grads = {name: np.zeros_like(arr) for name, arr in arrays.items()}
            items = [(emb, gold, 21 + i) for i, (emb, _, gold) in enumerate(sentences)]
            runs.append((batch_grads(items, arrays, 0.1, grads), grads))
        (ref_results, ref_grads), *others = runs
        for results, grads in others:
            for (loss, d_emb), (ref_loss, ref_d_emb) in zip(results, ref_results, strict=True):
                assert same_bytes(np.float64(loss), np.float64(ref_loss)) and same_bytes(d_emb, ref_d_emb)
            for name in ref_grads:
                assert same_bytes(grads[name], ref_grads[name]), name


def tag_differences(scores):
    """The (cells..., 3) block of tag-minus-NONE scores that _tags reads, from
    (cells..., 4) scores."""
    return scores[..., 1:] - scores[..., :1]


class TestPredictTags:
    """_tags, the argmax kernel, on hand-built (cells..., 3) blocks of
    tag-minus-NONE scores, and tag_grid against per-cell oracles."""

    def test_four_way_tie_gives_empty_matrix(self):
        emb = np.zeros((3, 4))
        arrays = dict(
            pair_proj=np.zeros((12, 8)),
            pair_bias=np.zeros(12),
            rel_tag_emb=np.zeros((12, 8)),
        )
        assert tag_cells(tag_grid(emb, arrays)) == {}

    def test_single_favoured_cell(self):
        diffs = np.zeros((9, 2, 9, NUM_TAGS - 1))  # cells (i, k, j)
        diffs[0, 1, 8, int(Tag.HB_TE) - 1] = 5.0
        assert tag_cells(scorer._tags(diffs)) == {(0, 1, 8): Tag.HB_TE}

    def test_matches_per_cell_argmax_oracle(self):
        emb, arrays, _ = random_instance(29)
        tags = tag_grid(emb, arrays)
        for i in range(3):
            for k in range(2):
                for j in range(3):
                    scores = [naive_cell_score(emb, arrays, i, k, t, j) for t in range(NUM_TAGS)]
                    best = int(np.argmax(scores))
                    if scores.count(scores[best]) > 1:
                        best = 0
                    assert tags[i, k, j] == best

    def test_two_way_non_none_tie_resolves_to_none(self):
        diffs = np.zeros((3, 2, 3, NUM_TAGS - 1))
        diffs[1, 0, 2, int(Tag.HB_TB) - 1] = 3.0
        diffs[1, 0, 2, int(Tag.HE_TE) - 1] = 3.0
        assert not scorer._tags(diffs).any()

    def test_a_tag_tied_with_none_gives_none(self):
        diffs = np.full((3, 2, 3, NUM_TAGS - 1), -1.0)
        diffs[1, 0, 2, int(Tag.HB_TE) - 1] = 0.0  # level with NONE, above the other two
        diffs[2, 1, 0, int(Tag.HB_TB) - 1] = 0.5
        assert tag_cells(scorer._tags(diffs)) == {(2, 1, 0): Tag.HB_TB}

    def test_invariant_under_constant_shift(self):
        emb, arrays, gold = random_instance(33)
        scores = np.moveaxis(concat_reference(emb, arrays, gold)[0], 2, 3)
        before = scorer._tags(tag_differences(scores))
        assert before.any()
        # the same constant for all 4 tags of every cell
        assert np.array_equal(scorer._tags(tag_differences(scores + 17.5)), before)

    @settings(max_examples=120, deadline=None)
    @given(
        length=st.integers(1, 20),
        num_rel=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_per_cell_reference_on_tied_scores(self, length, num_rel, seed):
        # scores from {-2, ..., 2}: many cells tie, some at the top only
        rng = np.random.default_rng(seed)
        scores = rng.integers(-2, 3, size=(length, num_rel, NUM_TAGS, length)).astype(float)
        tags = scorer._tags(tag_differences(np.moveaxis(scores, 2, 3)))
        assert tags.dtype == np.int8
        assert tag_cells(tags) == reference_predict_tags(scores)


class TestFusedDrivers:
    """batch_grads and tag_grid take each block of head rows from the hidden
    layer to gradients or tags without keeping a grid. They must equal the
    concatenated-pair reference: gradients and loss up to float summation
    order, tags bit for bit where every score is exact; and both bit for
    bit under any thread count."""

    RTOL, ATOL = 1e-12, 1e-14
    lengths = st.one_of(st.sampled_from([1, 16, 17, 37]), st.integers(1, 40))

    def instance(self, seed, length, num_rel, emb_dim=5):
        emb, arrays, _ = random_instance(seed, length, num_rel, emb_dim)
        gold = np.random.default_rng(seed).integers(0, NUM_TAGS, (length, num_rel, length))
        return emb, arrays, gold.astype(np.int8)

    @settings(max_examples=40, deadline=None)
    @given(
        length=lengths,
        num_rel=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
        dropout=st.sampled_from([0.0, 0.3]),
    )
    def test_train_grads_match_concat_reference(self, length, num_rel, seed, dropout):
        emb, arrays, gold = self.instance(seed, length, num_rel)
        fused = scorer_grads(emb, gold, arrays, dropout, seed)
        _, ref_loss, ref_grads = concat_reference(emb, arrays, gold, rate=dropout, rng_seed=seed)
        for name in GRAD_NAMES:
            np.testing.assert_allclose(
                fused[name], ref_grads[name], rtol=self.RTOL, atol=self.ATOL, err_msg=name
            )
        assert fused["loss"] == pytest.approx(ref_loss, rel=self.RTOL, abs=self.ATOL)

    @settings(max_examples=60, deadline=None)
    @given(length=lengths, num_rel=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    def test_tag_grid_matches_reference_predict_tags(self, length, num_rel, seed):
        emb, arrays, gold = self.instance(seed, length, num_rel)
        to_half_integers(emb, arrays)
        tags = tag_grid(emb, arrays)
        assert tags.dtype == np.int8
        assert tag_cells(tags) == reference_predict_tags(concat_reference(emb, arrays, gold)[0])

    def test_tag_grid_ties_and_all_equal_grid(self):
        emb, arrays, gold = self.instance(81, 37, 3)
        to_half_integers(emb, arrays)
        scores = concat_reference(emb, arrays, gold)[0]
        top = scores.max(axis=2, keepdims=True)
        assert ((scores == top).sum(axis=2) > 1).any()  # the instance has ties
        assert tag_cells(tag_grid(emb, arrays)) == reference_predict_tags(scores)
        arrays["rel_tag_emb"][...] = arrays["rel_tag_emb"][:, :1]  # all four tags score alike
        assert not tag_grid(emb, arrays).any()

    def test_tag_level_with_none_gives_none(self):
        # relation 1's HB-TE column equals its NONE column and the other two lie
        # below it: in every cell with an active unit HB-TE ties NONE at the top
        emb, arrays, gold = self.instance(83, 12, 3, emb_dim=6)
        rel_tag_emb = arrays["rel_tag_emb"]
        none = rel_tag_emb[:, NUM_TAGS]
        rel_tag_emb[:, NUM_TAGS + int(Tag.HB_TE)] = none
        for tag in (Tag.HB_TB, Tag.HE_TE):
            rel_tag_emb[:, NUM_TAGS + int(tag)] = none - 1.0
        assert not tag_grid(emb, arrays)[:, 1].any()
        rel_tag_emb[:, NUM_TAGS + int(Tag.HB_TE)] += 1e-3  # HB-TE now leads wherever a unit is active
        cells = concat_reference(emb, arrays, gold)[0][:, 1]  # (i, tag, j)
        active = cells[:, int(Tag.HB_TE)] > cells[:, int(Tag.NONE)]
        assert active.any()
        assert np.array_equal(tag_grid(emb, arrays)[:, 1], np.where(active, int(Tag.HB_TE), 0))

    def three_sentences(self):
        sentences = [self.instance(seed, length, 3) for seed, length in ((1, 5), (2, 17), (3, 1))]
        return sentences, sentences[0][1]

    def test_batch_grads_equal_train_grads_in_turn(self):
        # a batch of three against three one-sentence batches
        sentences, arrays = self.three_sentences()
        one = {name: np.zeros_like(arr) for name, arr in arrays.items()}
        singles = [batch_grads([(emb, gold, 7)], arrays, 0.3, one)[0] for emb, _, gold in sentences]
        batch = {name: np.zeros_like(arr) for name, arr in arrays.items()}
        together = batch_grads(((emb, gold, 7) for emb, _, gold in sentences), arrays, 0.3, batch)
        assert len(together) == len(singles)
        for (loss, d_emb), (ref_loss, ref_d_emb) in zip(together, singles):
            assert loss == ref_loss and np.array_equal(d_emb, ref_d_emb)
        for name in ("pair_proj", "pair_bias"):  # added in the same order
            assert np.array_equal(batch[name], one[name]), name
        # folded once rather than once a sentence
        np.testing.assert_allclose(batch["rel_tag_emb"], one["rel_tag_emb"], rtol=self.RTOL, atol=self.ATOL)
        assert batch["rel_tag_emb"].any()

    def test_batch_grads_need_no_draining(self):
        # one call over three sentences, its result never iterated, adds all
        # three parameter gradients, rel_tag_emb's included
        sentences, arrays = self.three_sentences()
        grads = {name: np.zeros_like(arr) for name, arr in arrays.items()}
        results = batch_grads(((emb, gold, 7) for emb, _, gold in sentences), arrays, 0.3, grads)
        for name in GRAD_NAMES[:3]:
            assert grads[name].any(), name
        assert isinstance(results, list) and len(results) == 3
        for (loss, d_emb), (emb, _, _) in zip(results, sentences):
            assert loss > 0.0 and d_emb.shape == emb.shape

    def test_train_grads_rejects_gold_of_another_shape(self):
        emb, arrays, gold = self.instance(91, 6, 2)
        for bad in (gold[:, :, :-1], gold.transpose(0, 2, 1), gold[:1, :1, :1]):
            with pytest.raises(ValueError, match="gold shape"):
                scorer_grads(emb, bad, arrays)

    def test_thread_count_changes_no_output(self, block_threads):
        emb, arrays, gold = self.instance(61, 37, 5, emb_dim=8)

        def run():
            return scorer_grads(emb, gold, arrays, 0.3, 63), tag_grid(emb, arrays)

        block_threads(1)
        one_grads, one_tags = run()
        block_threads(4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            many = [run() for _ in range(3)]
        finally:
            sys.setswitchinterval(interval)
        for grads, tags in many:
            assert np.array_equal(tags, one_tags)
            for name in GRAD_NAMES + ("loss",):
                assert np.array_equal(grads[name], one_grads[name]), name

    def test_train_grads_peak_below_three_hidden_blocks(self, block_threads):
        # one block's hidden layer and hidden gradient share a buffer, its raw dropout
        # draws a quarter of that beside it; at L=100, K=24 the 2 MiB budget makes
        # the tallest block 9 rows high
        block_threads(1)
        length = 100
        emb, arrays, gold = self.instance(71, length, 24, emb_dim=64)
        hidden_dim = arrays["pair_bias"].size
        width = hidden_dim + (NUM_TAGS - 1) * 24
        tallest = max(b - a for a, b in block_spans(length, width))
        assert tallest * length * width * 8 <= scorer._BLOCK_BYTES
        grads = {name: np.zeros_like(arr) for name, arr in arrays.items()}
        batch_grads([(emb, gold, 5)], arrays, 0.1, grads)[0]
        peak = traced_peak(lambda: batch_grads([(emb, gold, 5)], arrays, 0.1, grads)[0])
        block = tallest * length * hidden_dim * 8  # 1.38 MB
        assert peak < 3 * block  # 3.91 MB < 4.15 MB

    def test_train_grads_folds_block_parts_as_they_finish(self, block_threads):
        # At K=171 the budget cuts L=96 into 32 blocks of 3 rows, each with
        # at most 2 MiB of hidden layer and scores (1.62 MB) and a hidden x 3K
        # part of D's gradient of 0.79 MB. Holding all 32 parts until the last
        # block is done would take 25.2 MB. Folding each into the running sum
        # as it finishes holds one block, its softmax temporaries, D, the sum
        # and one part's buffers: less than two budgets and three arrays the
        # size of rel_tag_emb.
        block_threads(1)
        length = 96
        emb, arrays, gold = self.instance(71, length, 171, emb_dim=64)
        d_rel = arrays["rel_tag_emb"].nbytes
        assert d_rel == 1_050_624
        width = arrays["pair_bias"].size + (NUM_TAGS - 1) * 171
        assert len(block_spans(length, width)) == 32
        grads = {name: np.zeros_like(arr) for name, arr in arrays.items()}
        batch_grads([(emb, gold, 5)], arrays, 0.1, grads)[0]
        peak = traced_peak(lambda: batch_grads([(emb, gold, 5)], arrays, 0.1, grads)[0])
        assert peak < 2 * scorer._BLOCK_BYTES + 3 * d_rel  # 6.76 MB < 7.35 MB

    @pytest.mark.parametrize("driver", ["train_grads", "tag_grid"])
    def test_peak_memory_below_one_hidden_grid(self, block_threads, driver):
        block_threads(1)
        length = 100
        emb, arrays, gold = self.instance(71, length, 24, emb_dim=64)
        hidden_dim = arrays["pair_bias"].size
        assert hidden_dim == 192
        grads = {name: np.zeros_like(arr) for name, arr in arrays.items()}
        call = {
            "train_grads": lambda: batch_grads([(emb, gold, 5)], arrays, 0.1, grads)[0],
            "tag_grid": lambda: tag_grid(emb, arrays),
        }[driver]
        call()
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < length * length * hidden_dim * 8  # 15.36 MB
