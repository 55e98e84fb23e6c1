import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relgrid import scorer
from relgrid.scorer import ScorerParams, init_scorer_params, tag_grid, train_grads
from relgrid.tagging import NUM_TAGS, Tag

from conftest import tag_cells

GRAD_NAMES = ("pair_proj", "pair_bias", "rel_tag_emb", "emb")


# --- independent oracles ---------------------------------------------------

def naive_cell_score(emb, params, i, k, tag, j):
    """Per-cell recomputation straight from the definition, no batching."""
    pair = np.concatenate([emb[i], emb[j]])
    hidden = np.maximum(params.pair_proj @ pair + params.pair_bias, 0.0)
    return float(params.rel_tag_emb[:, NUM_TAGS * k + tag] @ hidden)


def naive_scores(emb, params):
    """L x K x 4 x L scores from naive_cell_score, one cell at a time."""
    length, num_rel = emb.shape[0], params.num_relations
    scores = np.empty((length, num_rel, NUM_TAGS, length))
    for idx in np.ndindex(scores.shape):
        scores[idx] = naive_cell_score(emb, params, *idx)
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


def concat_reference(emb, params, gold_arr, mask=None, training=False, rng_seed=0):
    """Scores, loss and gradients with the pair layer applied to an explicit
    L x L x 2d tensor of [e_i; e_j] concatenations (the unfactorized form).
    The loss is the mean over the cells where mask is set (all by default).

    Returns (scores as L x K x 4 x L, mean loss, dict of gradients).
    """
    length, d = emb.shape
    num_rel = params.num_relations
    if mask is None:
        mask = np.ones(gold_arr.shape, dtype=bool)
    heads = np.broadcast_to(emb[:, None, :], (length, length, d))
    tails = np.broadcast_to(emb[None, :, :], (length, length, d))
    pairs = np.concatenate([heads, tails], axis=2).reshape(length * length, 2 * d)
    pre = pairs @ params.pair_proj.T + params.pair_bias
    drop = np.ones_like(pre)
    if training:
        rng = np.random.default_rng(rng_seed)
        drop = (rng.random(pre.shape) >= params.dropout_rate) / (1.0 - params.dropout_rate)
    hidden = np.maximum(pre * drop, 0.0)
    flat_scores = hidden @ params.rel_tag_emb
    scores = flat_scores.reshape(length, length, num_rel, NUM_TAGS).transpose(0, 2, 3, 1)

    cell_major = np.moveaxis(scores, 2, 3)  # L x K x L x 4
    e = np.exp(cell_major - cell_major.max(axis=3, keepdims=True))
    probs = e / e.sum(axis=3, keepdims=True)
    onehot = np.eye(NUM_TAGS)[gold_arr]
    count = mask.sum()
    mean_loss = -np.log(probs[onehot == 1.0].reshape(gold_arr.shape))[mask].sum() / count
    d_logits = (probs - onehot) * mask[..., None] / count
    d_flat = d_logits.transpose(0, 2, 1, 3).reshape(length * length, -1)
    d_hidden = (d_flat @ params.rel_tag_emb.T) * (hidden > 0.0) * drop
    d_pairs = (d_hidden @ params.pair_proj).reshape(length, length, 2 * d)
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


def float_mask_reference(emb, params, gold_arr, rng_seed):
    """Training-mode scores, loss and gradients with the dropout
    realization kept as a float L x L x hidden_dim array of 0 and
    1 / (1 - rate), multiplied into the pre-activation and again into the
    hidden gradient, over the whole grid at once.

    Returns (scores as L x K x 4 x L, hidden as L x L x H, loss, gradients).
    """
    length, d = emb.shape
    num_rel = params.num_relations
    heads = emb @ params.pair_proj[:, :d].T
    tails = emb @ params.pair_proj[:, d:].T + params.pair_bias
    pre = (heads[:, None, :] + tails[None, :, :]).reshape(length * length, -1)
    rng = np.random.default_rng(rng_seed)
    drop_mask = (rng.random(pre.shape) >= params.dropout_rate) / (1.0 - params.dropout_rate)
    pre *= drop_mask
    hidden = np.maximum(pre, 0.0, out=pre)
    scores = (
        (hidden @ params.rel_tag_emb)
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
    d_hidden = d_flat @ params.rel_tag_emb.T
    d_hidden *= hidden > 0.0
    d_hidden *= drop_mask
    d_pre = d_hidden.reshape(length, length, -1)
    d_heads, d_tails = d_pre.sum(axis=1), d_pre.sum(axis=0)
    grads = {
        "pair_proj": np.concatenate([d_heads.T @ emb, d_tails.T @ emb], axis=1),
        "pair_bias": d_heads.sum(axis=0),
        "rel_tag_emb": hidden.T @ d_flat,
        "emb": d_heads @ params.pair_proj[:, :d] + d_tails @ params.pair_proj[:, d:],
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


def random_instance(seed, length=3, num_rel=2, emb_dim=4, dropout=0.0):
    rng = np.random.default_rng(seed)
    emb = rng.normal(scale=0.8, size=(length, emb_dim))
    params = init_scorer_params(
        emb_dim, num_rel, seed=seed + 1, dropout_rate=dropout
    )
    # lift weights off the tiny init so activations are comfortably nonzero
    params.pair_proj += rng.normal(scale=0.3, size=params.pair_proj.shape)
    params.pair_bias += rng.normal(scale=0.1, size=params.pair_bias.shape)
    params.rel_tag_emb += rng.normal(scale=0.3, size=params.rel_tag_emb.shape)
    gold = np.zeros((length, num_rel, length), dtype=np.int8)
    for _ in range(4):
        cell = tuple(int(v) for v in (rng.integers(0, length), rng.integers(0, num_rel), rng.integers(0, length)))
        gold[cell] = rng.integers(1, 4)
    return emb, params, gold


def to_half_integers(emb, params):
    """Round the inputs, in place, to multiples of 1/2: every score is then
    exact in float64 under any summation order, and many cells tie."""
    for arr in (emb, params.pair_proj, params.pair_bias, params.rel_tag_emb):
        arr[...] = np.round(2.0 * arr) / 2.0


def relative_errors(analytic, numeric):
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-12)
    errs = np.abs(analytic - numeric) / denom
    errs[(analytic == 0.0) & (numeric == 0.0)] = 0.0
    return errs


def min_preactivation(emb, params):
    length = emb.shape[0]
    worst = np.inf
    for i in range(length):
        for j in range(length):
            pre = params.pair_proj @ np.concatenate([emb[i], emb[j]]) + params.pair_bias
            worst = min(worst, np.abs(pre).min())
    return worst


def gradcheck(seed, dropout=0.0, rng_seed=0, tol=1e-4):
    """Full-coordinate central-difference check of train_grads' loss;
    returns worst relative error. With dropout on, rng_seed fixes one
    realization for every evaluation.

    Instances with pre-activations near the rectifier kink are rejected by
    the caller (finite differences would step across the kink).
    """
    emb, params, gold = random_instance(seed, dropout=dropout)

    def run_loss():
        return train_grads(emb, gold, params, rng_seed).loss

    grads = train_grads(emb, gold, params, rng_seed)

    worst = 0.0
    for arr, analytic in (
        (params.pair_proj, grads.pair_proj),
        (params.pair_bias, grads.pair_bias),
        (params.rel_tag_emb, grads.rel_tag_emb),
        (emb, grads.emb),
    ):
        numeric = np.zeros_like(arr)
        for idx in np.ndindex(arr.shape):
            numeric[idx] = finite_difference(run_loss, arr, idx)
        worst = max(worst, float(relative_errors(analytic, numeric).max()))
    return worst


def no_gold(length, num_rel):
    return np.zeros((length, num_rel, length), dtype=np.int8)


class TestScoreAll:
    """The score of every cell, as train_grads' loss and tag_grid's tags
    show it."""

    def assert_all_scores_zero(self, emb, params):
        length, num_rel = emb.shape[0], params.num_relations
        grads = train_grads(emb, no_gold(length, num_rel), params, 0)
        assert grads.loss == pytest.approx(np.log(4.0), abs=1e-15)
        for name in GRAD_NAMES:
            assert not getattr(grads, name).any(), name  # no unit is active
        assert not tag_grid(emb, params).any()

    def test_zero_params_zero_scores(self):
        emb = np.random.default_rng(0).normal(size=(3, 4))
        params = ScorerParams(
            pair_proj=np.zeros((12, 8)),
            pair_bias=np.zeros(12),
            rel_tag_emb=np.zeros((12, 8)),
            dropout_rate=0.0,
        )
        self.assert_all_scores_zero(emb, params)

    def test_negative_bias_kills_scores(self):
        emb = np.random.default_rng(1).normal(size=(3, 4))
        params = ScorerParams(
            pair_proj=np.zeros((12, 8)),
            pair_bias=np.full(12, -0.5),
            rel_tag_emb=np.random.default_rng(2).normal(size=(12, 8)),
            dropout_rate=0.0,
        )
        self.assert_all_scores_zero(emb, params)

    def test_matches_naive_per_cell_oracle(self):
        emb, params, gold = random_instance(7)
        scores = naive_scores(emb, params)
        assert train_grads(emb, gold, params, 0).loss == pytest.approx(
            scalar_loss(scores, tag_cells(gold), 3, 2), rel=1e-12
        )
        assert tag_cells(tag_grid(emb, params)) == reference_predict_tags(scores)

    def test_shape_mismatch_rejected(self):
        emb = np.zeros((3, 5))
        params = init_scorer_params(4, 2, seed=0)
        with pytest.raises(ValueError, match="incompatible"):
            tag_grid(emb, params)
        with pytest.raises(ValueError, match="incompatible"):
            train_grads(emb, no_gold(3, 2), params, 0)

    def test_asymmetry_is_constructible(self):
        # projection reads only the first (head) half of the pair and only
        # tag HB-TB reads the hidden unit, so the tag follows e_i alone and
        # swapping i/j must change it
        params = ScorerParams(
            pair_proj=np.array([[1.0, 0.0]]),
            pair_bias=np.zeros(1),
            rel_tag_emb=np.array([[0.0, 1.0, 0.0, 0.0]]),
            dropout_rate=0.0,
        )
        emb = np.array([[1.0], [-1.0]])
        tags = tag_grid(emb, params)
        assert tags[0, 0, 1] == Tag.HB_TB
        assert tags[1, 0, 0] == Tag.NONE

    def test_dropout_reproducible_and_scaled(self):
        emb, params, gold = random_instance(5, dropout=0.5)
        g1 = train_grads(emb, gold, params, 42)
        g2 = train_grads(emb, gold, params, 42)
        for name in GRAD_NAMES + ("loss",):
            assert np.array_equal(getattr(g1, name), getattr(g2, name)), name
        assert train_grads(emb, gold, params, 43).loss != g1.loss
        # inverted dropout: every unit is dropped (0) or kept and scaled by
        # exactly 1 / (1 - 0.5) = 2, so inference needs no rescaling
        heads, tails = scorer._projections(emb, params)
        plain = scorer._hidden_block(heads, tails, slice(0, 3), params)
        trained = scorer._hidden_block(heads, tails, slice(0, 3), params, 42, 2.0)
        dropped = trained == 0.0
        assert np.all(dropped | (trained == 2.0 * plain))
        assert np.any(dropped & (plain > 0.0))
        assert np.any(~dropped)


class TestLoss:
    def test_uniform_scores_give_ln4(self):
        emb = np.random.default_rng(0).normal(size=(4, 4))
        params = ScorerParams(
            pair_proj=np.zeros((12, 8)),
            pair_bias=np.zeros(12),
            rel_tag_emb=np.zeros((12, 12)),
            dropout_rate=0.0,
        )
        gold = np.zeros((4, 3, 4), dtype=np.int8)
        gold[0, 1, 2] = Tag.HB_TE
        assert train_grads(emb, gold, params, 0).loss == pytest.approx(
            np.log(4.0), abs=1e-9
        )

    def test_perfect_scores_drive_loss_to_zero(self):
        # one-hot tokens and one hidden unit per pair (a, b), active only at
        # (i, j) = (a, b); each unit gives its cells' gold tags a score of 60
        emb, params, gold = random_instance(9)
        length, num_rel = gold.shape[:2]
        emb = np.eye(length)
        a, b = np.divmod(np.arange(length * length), length)
        rel_tag_emb = np.zeros((length * length, NUM_TAGS * num_rel))
        cols = NUM_TAGS * np.arange(num_rel) + gold[a, :, b]
        rel_tag_emb[np.arange(length * length)[:, None], cols] = 60.0
        params = ScorerParams(
            pair_proj=np.concatenate([emb[a], emb[b]], axis=1),
            pair_bias=np.full(length * length, -1.0),
            rel_tag_emb=rel_tag_emb,
            dropout_rate=0.0,
        )
        grads = train_grads(emb, gold, params, 0)
        assert grads.loss == pytest.approx(0.0, abs=1e-12)
        for name in GRAD_NAMES:
            assert np.max(np.abs(getattr(grads, name))) < 1e-20, name
        assert np.array_equal(tag_grid(emb, params), gold)

    def test_matches_scalar_reimplementation(self):
        emb, params, gold = random_instance(13)
        assert train_grads(emb, gold, params, 0).loss == pytest.approx(
            scalar_loss(naive_scores(emb, params), tag_cells(gold), 3, 2), rel=1e-12
        )


class TestBackward:
    def test_gradients_match_finite_differences(self):
        checked = 0
        seed = 0
        while checked < 3:
            seed += 1
            emb, params, _ = random_instance(seed)
            if min_preactivation(emb, params) < 1e-3:
                continue  # too close to the rectifier kink for fd
            assert gradcheck(seed) <= 1e-4
            checked += 1

    def test_gradients_with_dropout_realization_fixed(self):
        checked = 0
        seed = 100
        while checked < 2:
            seed += 1
            emb, params, _ = random_instance(seed, dropout=0.3)
            if min_preactivation(emb, params) < 1e-3:
                continue
            assert gradcheck(seed, dropout=0.3, rng_seed=7) <= 1e-4
            checked += 1


class TestFactorizedPairLayer:
    """train_grads and tag_grid against the concatenated-pair reference at a
    size where row/column reductions matter: L=12, K=3, dropout on."""

    RTOL, ATOL = 1e-12, 1e-14

    def instance(self, seed):
        return random_instance(seed, length=12, num_rel=3, emb_dim=6, dropout=0.3)

    @pytest.mark.parametrize("seed", [41, 42, 43])
    def test_matches_concat_reference(self, seed):
        emb, params, gold = self.instance(seed)
        grads = train_grads(emb, gold, params, seed)
        _, ref_loss, ref_grads = concat_reference(emb, params, gold, training=True, rng_seed=seed)
        assert grads.loss == pytest.approx(ref_loss, rel=self.RTOL, abs=self.ATOL)
        for name, ref in ref_grads.items():
            np.testing.assert_allclose(
                getattr(grads, name), ref, rtol=self.RTOL, atol=self.ATOL, err_msg=name
            )
        to_half_integers(emb, params)
        ref_scores = concat_reference(emb, params, gold)[0]
        assert tag_cells(tag_grid(emb, params)) == reference_predict_tags(ref_scores)


class TestScalarDropoutScale:
    """The scalar dropout scale gives the float-mask formulation's hidden
    layer bit for bit, and its loss and all four gradients up to float
    summation order."""

    RTOL, ATOL = 1e-12, 1e-14

    @pytest.mark.parametrize("seed, dropout", [(51, 0.1), (52, 0.3), (53, 0.5)])
    def test_bit_identical_to_float_mask_reference(self, seed, dropout):
        emb, params, gold = random_instance(seed, length=12, num_rel=3, emb_dim=6, dropout=dropout)
        grads = train_grads(emb, gold, params, seed)
        _, ref_hidden, ref_loss, ref_grads = float_mask_reference(emb, params, gold, rng_seed=seed)
        heads, tails = scorer._projections(emb, params)
        hidden = scorer._hidden_block(heads, tails, slice(0, 12), params, seed, 1 / (1 - dropout))
        assert np.array_equal(hidden, ref_hidden.reshape(hidden.shape))
        assert grads.loss == pytest.approx(ref_loss, rel=self.RTOL, abs=self.ATOL)
        for name, ref in ref_grads.items():
            np.testing.assert_allclose(
                getattr(grads, name), ref, rtol=self.RTOL, atol=self.ATOL, err_msg=name
            )


class TestHeadRowBlocks:
    """The pair grid is computed in blocks of head rows: at L=37 there are
    three, the last one 5 rows high. Against a one-block run, the hidden
    layer, and the tags of an instance whose scores are exact, must be
    equal; loss and gradients may differ in float summation order (BLAS
    rounds the edge tiles of a product by its shape)."""

    RTOL, ATOL = 1e-12, 1e-14
    LENGTH, NUM_REL = 37, 5

    def instance(self):
        return random_instance(61, length=self.LENGTH, num_rel=self.NUM_REL, emb_dim=8, dropout=0.3)

    @pytest.mark.parametrize("halves", [False, True])
    def test_matches_one_block_run(self, monkeypatch, halves):
        emb, params, gold = self.instance()
        if halves:
            to_half_integers(emb, params)

        def run():
            return train_grads(emb, gold, params, 63), tag_grid(emb, params)

        blocked_grads, blocked_tags = run()
        monkeypatch.setattr(scorer, "_BLOCK_ROWS", 64)
        whole_grads, whole_tags = run()
        for name in GRAD_NAMES + ("loss",):
            np.testing.assert_allclose(
                getattr(blocked_grads, name),
                getattr(whole_grads, name),
                rtol=self.RTOL,
                atol=self.ATOL,
                err_msg=name,
            )
        if halves:
            assert np.array_equal(blocked_tags, whole_tags)

    def test_dropout_stream_is_one_draw_over_the_grid(self):
        emb, params, gold = self.instance()
        heads, tails = scorer._projections(emb, params)
        scale = 1.0 / (1.0 - params.dropout_rate)
        blocks = scorer._map_blocks(
            lambda rows: scorer._hidden_block(heads, tails, rows, params, 63, scale), self.LENGTH
        )
        assert len(blocks) == 3
        _, ref_hidden, _, _ = float_mask_reference(emb, params, gold, rng_seed=63)
        assert np.array_equal(np.concatenate(blocks), ref_hidden.reshape(-1, params.hidden_dim))

    def test_blocks_cover_rows_in_order(self, block_threads):
        block_threads(3)
        spans = scorer._map_blocks(lambda rows: (rows.start, rows.stop), 37)
        assert spans == [(0, 16), (16, 32), (32, 37)]
        assert scorer._map_blocks(lambda rows: (rows.start, rows.stop), 16) == [(0, 16)]

    @pytest.mark.parametrize("failing", [0, 16, 32], ids=["caller", "pool-1", "pool-2"])
    def test_block_exception_reaches_caller_unchanged(self, block_threads, failing):
        block_threads(3)
        error = RuntimeError(f"block at row {failing}")

        def fn(rows):
            if rows.start == failing:
                raise error
            return rows.start

        with pytest.raises(RuntimeError) as info:
            scorer._map_blocks(fn, 37)
        assert info.value is error


class TestPredictTags:
    """_tags, the argmax kernel, on hand-built (cells..., 4) score blocks,
    and tag_grid against per-cell oracles."""

    def test_four_way_tie_gives_empty_matrix(self):
        emb = np.zeros((3, 4))
        params = ScorerParams(
            pair_proj=np.zeros((12, 8)),
            pair_bias=np.zeros(12),
            rel_tag_emb=np.zeros((12, 8)),
            dropout_rate=0.0,
        )
        assert tag_cells(tag_grid(emb, params)) == {}

    def test_single_favoured_cell(self):
        scores = np.zeros((9, 2, 9, NUM_TAGS))  # cells (i, k, j)
        scores[0, 1, 8, int(Tag.HB_TE)] = 5.0
        assert tag_cells(scorer._tags(scores)) == {(0, 1, 8): Tag.HB_TE}

    def test_matches_per_cell_argmax_oracle(self):
        emb, params, _ = random_instance(29)
        tags = tag_grid(emb, params)
        for i in range(3):
            for k in range(2):
                for j in range(3):
                    scores = [naive_cell_score(emb, params, i, k, t, j) for t in range(NUM_TAGS)]
                    best = int(np.argmax(scores))
                    if scores.count(scores[best]) > 1:
                        best = 0
                    assert tags[i, k, j] == best

    def test_two_way_non_none_tie_resolves_to_none(self):
        scores = np.zeros((3, 2, 3, NUM_TAGS))
        scores[1, 0, 2, int(Tag.HB_TB)] = 3.0
        scores[1, 0, 2, int(Tag.HE_TE)] = 3.0
        assert not scorer._tags(scores).any()

    def test_invariant_under_constant_shift(self):
        emb, params, gold = random_instance(33)
        scores = np.moveaxis(concat_reference(emb, params, gold)[0], 2, 3)
        before = scorer._tags(scores)
        assert before.any()
        # the same constant for all 4 tags of every cell
        assert np.array_equal(scorer._tags(scores + 17.5), before)

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
        tags = scorer._tags(np.moveaxis(scores, 2, 3))
        assert tags.dtype == np.int8
        assert tag_cells(tags) == reference_predict_tags(scores)


class TestFusedDrivers:
    """train_grads and tag_grid take each block of head rows from the hidden
    layer to gradients or tags without keeping a grid. They must equal the
    concatenated-pair reference: gradients and loss up to float summation
    order, tags bit for bit where every score is exact; and both bit for
    bit under any thread count."""

    RTOL, ATOL = 1e-12, 1e-14
    lengths = st.one_of(st.sampled_from([1, 16, 17, 37]), st.integers(1, 40))

    def instance(self, seed, length, num_rel, dropout=0.0, emb_dim=5):
        emb, params, _ = random_instance(seed, length, num_rel, emb_dim, dropout)
        gold = np.random.default_rng(seed).integers(0, NUM_TAGS, (length, num_rel, length))
        return emb, params, gold.astype(np.int8)

    @settings(max_examples=40, deadline=None)
    @given(
        length=lengths,
        num_rel=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
        dropout=st.sampled_from([0.0, 0.3]),
    )
    def test_train_grads_match_concat_reference(self, length, num_rel, seed, dropout):
        emb, params, gold = self.instance(seed, length, num_rel, dropout)
        fused = train_grads(emb, gold, params, seed)
        _, ref_loss, ref_grads = concat_reference(
            emb, params, gold, training=dropout > 0.0, rng_seed=seed
        )
        for name in GRAD_NAMES:
            np.testing.assert_allclose(
                getattr(fused, name), ref_grads[name], rtol=self.RTOL, atol=self.ATOL,
                err_msg=name,
            )
        assert fused.loss == pytest.approx(ref_loss, rel=self.RTOL, abs=self.ATOL)

    @settings(max_examples=60, deadline=None)
    @given(length=lengths, num_rel=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    def test_tag_grid_matches_reference_predict_tags(self, length, num_rel, seed):
        emb, params, gold = self.instance(seed, length, num_rel)
        to_half_integers(emb, params)
        tags = tag_grid(emb, params)
        assert tags.dtype == np.int8
        assert tag_cells(tags) == reference_predict_tags(concat_reference(emb, params, gold)[0])

    def test_tag_grid_ties_and_all_equal_grid(self):
        emb, params, gold = self.instance(81, 37, 3)
        to_half_integers(emb, params)
        scores = concat_reference(emb, params, gold)[0]
        top = scores.max(axis=2, keepdims=True)
        assert ((scores == top).sum(axis=2) > 1).any()  # the instance has ties
        assert tag_cells(tag_grid(emb, params)) == reference_predict_tags(scores)
        params.rel_tag_emb[...] = params.rel_tag_emb[:, :1]  # all four tags score alike
        assert not tag_grid(emb, params).any()

    def test_train_grads_rejects_gold_of_another_shape(self):
        emb, params, gold = self.instance(91, 6, 2)
        for bad in (gold[:, :, :-1], gold.transpose(0, 2, 1), gold[:1, :1, :1]):
            with pytest.raises(ValueError, match="gold shape"):
                train_grads(emb, bad, params, 0)

    def test_thread_count_changes_no_output(self, block_threads):
        emb, params, gold = self.instance(61, 37, 5, dropout=0.3, emb_dim=8)

        def run():
            return train_grads(emb, gold, params, 63), tag_grid(emb, params)

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
            for name in ("pair_proj", "pair_bias", "rel_tag_emb", "emb", "loss"):
                assert np.array_equal(getattr(grads, name), getattr(one_grads, name)), name

    @pytest.mark.parametrize("driver", ["train_grads", "tag_grid"])
    def test_peak_memory_below_one_hidden_grid(self, block_threads, driver):
        block_threads(1)
        length = 100
        emb, params, gold = self.instance(71, length, 24, dropout=0.1, emb_dim=64)
        assert params.hidden_dim == 192
        call = {
            "train_grads": lambda: train_grads(emb, gold, params, 5),
            "tag_grid": lambda: tag_grid(emb, params),
        }[driver]
        call()
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < length * length * params.hidden_dim * 8  # 15.36 MB
