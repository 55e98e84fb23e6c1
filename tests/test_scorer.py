import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relgrid import scorer
from relgrid.scorer import (
    ScoreGrid,
    ScorerParams,
    backward,
    dense_gold,
    init_scorer_params,
    loss,
    predict_tags,
    score_all,
    tag_distribution,
    tag_grid,
    train_grads,
)
from relgrid.tagging import NUM_TAGS, Tag, TagMatrix


# --- independent oracles ---------------------------------------------------

def naive_cell_score(emb, params, i, k, tag, j):
    """Per-cell recomputation straight from the definition, no batching."""
    pair = np.concatenate([emb[i], emb[j]])
    hidden = np.maximum(params.pair_proj @ pair + params.pair_bias, 0.0)
    return float(params.rel_tag_emb[:, NUM_TAGS * k + tag] @ hidden)


def scalar_loss(grid, gold_cells, length, num_rel):
    """Sum of -log softmax(gold) over all cells, one cell at a time."""
    total = 0.0
    for i in range(length):
        for k in range(num_rel):
            for j in range(length):
                scores = grid.scores[i, k, :, j]
                gold = gold_cells.get((i, k, j), 0)
                e = np.exp(scores - scores.max())
                total -= np.log(e[gold] / e.sum())
    return total / (length * num_rel * length)


def concat_reference(emb, params, gold_arr, mask, training=False, rng_seed=0):
    """Scores, loss and gradients with the pair layer applied to an explicit
    L x L x 2d tensor of [e_i; e_j] concatenations (the unfactorized form).

    Returns (scores as L x K x 4 x L, mean loss, dict of gradients).
    """
    length, d = emb.shape
    num_rel = params.num_relations
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


def float_mask_reference(emb, params, gold_arr, rng_seed):
    """Training-mode score_all and unmasked backward with the dropout
    realization kept as a float L x L x hidden_dim array of 0 and
    1 / (1 - rate), multiplied into the pre-activation and again into the
    hidden gradient. Same operations, in the same order, as the scorer
    otherwise.

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


def reference_predict_tags(scores, mask):
    """{(i, k, j): Tag} from one argmax per cell; ties and masked-out cells
    give NONE and are left out."""
    length, num_rel = scores.shape[:2]
    cells = {}
    for i, k, j in np.ndindex(length, num_rel, length):
        cell = scores[i, k, :, j]
        best = int(np.argmax(cell))
        if (cell == cell[best]).sum() > 1 or (mask is not None and not mask[i, k, j]):
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
    gold = TagMatrix(length=length, num_relations=num_rel)
    for _ in range(4):
        cell = tuple(int(v) for v in (rng.integers(0, length), rng.integers(0, num_rel), rng.integers(0, length)))
        gold.set(*cell, Tag(int(rng.integers(1, 4))))
    return emb, params, gold


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
    """Full-coordinate central-difference check; returns worst relative error.

    Instances with pre-activations near the rectifier kink are rejected by
    the caller (finite differences would step across the kink).
    """
    emb, params, gold = random_instance(seed, dropout=dropout)
    training = dropout > 0.0

    def run_loss():
        grid = score_all(emb, params, training=training, rng_seed=rng_seed)
        return loss(grid, gold)

    grid = score_all(emb, params, training=training, rng_seed=rng_seed)
    grads = backward(grid, gold, None, emb, params)

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


class TestScoreAll:
    def test_zero_params_zero_scores(self):
        emb = np.random.default_rng(0).normal(size=(3, 4))
        params = ScorerParams(
            pair_proj=np.zeros((12, 8)),
            pair_bias=np.zeros(12),
            rel_tag_emb=np.zeros((12, 8)),
            dropout_rate=0.0,
        )
        assert np.all(score_all(emb, params).scores == 0.0)

    def test_negative_bias_kills_scores(self):
        emb = np.random.default_rng(1).normal(size=(3, 4))
        params = ScorerParams(
            pair_proj=np.zeros((12, 8)),
            pair_bias=np.full(12, -0.5),
            rel_tag_emb=np.random.default_rng(2).normal(size=(12, 8)),
            dropout_rate=0.0,
        )
        assert np.all(score_all(emb, params).scores == 0.0)

    def test_matches_naive_per_cell_oracle(self):
        emb, params, _ = random_instance(7)
        grid = score_all(emb, params)
        for i in range(3):
            for k in range(2):
                for tag in range(NUM_TAGS):
                    for j in range(3):
                        assert grid.scores[i, k, tag, j] == pytest.approx(
                            naive_cell_score(emb, params, i, k, tag, j), abs=1e-10
                        )

    def test_shape_mismatch_rejected(self):
        emb = np.zeros((3, 5))
        params = init_scorer_params(4, 2, seed=0)
        with pytest.raises(ValueError, match="incompatible"):
            score_all(emb, params)

    def test_asymmetry_is_constructible(self):
        # projection reads only the first (head) half of the pair, so the
        # score follows e_i alone and swapping i/j must change it
        params = ScorerParams(
            pair_proj=np.array([[1.0, 0.0]]),
            pair_bias=np.zeros(1),
            rel_tag_emb=np.ones((1, 4)),
            dropout_rate=0.0,
        )
        emb = np.array([[1.0], [2.0]])
        grid = score_all(emb, params)
        assert grid.scores[0, 0, 0, 1] != grid.scores[1, 0, 0, 0]

    def test_dropout_reproducible_and_scaled(self):
        emb, params, _ = random_instance(5, dropout=0.5)
        g1 = score_all(emb, params, training=True, rng_seed=42)
        g2 = score_all(emb, params, training=True, rng_seed=42)
        np.testing.assert_array_equal(g1.scores, g2.scores)
        g3 = score_all(emb, params, training=True, rng_seed=43)
        assert not np.array_equal(g1.scores, g3.scores)
        # inverted dropout: inference pass needs no rescaling
        plain = score_all(emb, params, training=False)
        assert plain.dropout_scale == 1.0 and g1.dropout_scale == 2.0
        # every training unit is dropped (0) or kept and scaled by exactly 2
        dropped = g1.hidden == 0.0
        assert np.all(dropped | (g1.hidden == 2.0 * plain.hidden))
        assert np.any(dropped & (plain.hidden > 0.0))
        assert np.any(~dropped)


class TestTagDistribution:
    def test_uniform_on_zero_scores(self):
        emb = np.zeros((2, 4))
        params = ScorerParams(
            pair_proj=np.zeros((12, 8)),
            pair_bias=np.zeros(12),
            rel_tag_emb=np.zeros((12, 4)),
            dropout_rate=0.0,
        )
        probs = tag_distribution(score_all(emb, params))
        np.testing.assert_allclose(probs, 0.25)

    def test_limit_case_saturates(self):
        emb, params, _ = random_instance(3)
        grid = score_all(emb, params)
        grid.scores[0, 0, 2, 1] = 1e4
        probs = tag_distribution(grid)
        assert probs[0, 0, 1, 2] == pytest.approx(1.0, abs=1e-12)

    def test_matches_direct_formula_and_normalizes(self):
        emb, params, _ = random_instance(11)
        grid = score_all(emb, params)
        probs = tag_distribution(grid)
        sums = probs.sum(axis=3)
        np.testing.assert_allclose(sums, 1.0, atol=1e-9)
        for i in range(3):
            for k in range(2):
                for j in range(3):
                    direct = np.exp(grid.scores[i, k, :, j])
                    direct /= direct.sum()
                    np.testing.assert_allclose(probs[i, k, j], direct, rtol=1e-12)


class TestLoss:
    def test_uniform_scores_give_ln4(self):
        emb = np.random.default_rng(0).normal(size=(4, 4))
        params = ScorerParams(
            pair_proj=np.zeros((12, 8)),
            pair_bias=np.zeros(12),
            rel_tag_emb=np.zeros((12, 12)),
            dropout_rate=0.0,
        )
        gold = TagMatrix(length=4, num_relations=3)
        gold.set(0, 1, 2, Tag.HB_TE)
        assert loss(score_all(emb, params), gold) == pytest.approx(
            np.log(4.0), abs=1e-9
        )

    def test_perfect_scores_drive_loss_to_zero(self):
        emb, params, gold = random_instance(9)
        grid = score_all(emb, params)
        arr = dense_gold(gold)
        grid.scores[:] = 0.0
        for idx in np.ndindex(arr.shape):
            i, k, j = idx
            grid.scores[i, k, arr[idx], j] = 60.0
        assert loss(grid, gold) == pytest.approx(0.0, abs=1e-12)

    def test_matches_scalar_reimplementation(self):
        emb, params, gold = random_instance(13)
        grid = score_all(emb, params)
        assert loss(grid, gold) == pytest.approx(
            scalar_loss(grid, gold.cells, 3, 2), rel=1e-12
        )

    def test_masked_normalization(self):
        emb, params, gold = random_instance(15)
        grid = score_all(emb, params)
        mask = np.zeros((3, 2, 3), dtype=bool)
        mask[0, :, :] = True
        masked = loss(grid, gold, mask)
        # recompute over the masked cells only
        total = 0.0
        for k in range(2):
            for j in range(3):
                scores = grid.scores[0, k, :, j]
                gold_tag = gold.cells.get((0, k, j), 0)
                e = np.exp(scores - scores.max())
                total -= np.log(e[gold_tag] / e.sum())
        assert masked == pytest.approx(total / mask.sum(), rel=1e-12)

    def test_empty_mask_is_error(self):
        emb, params, gold = random_instance(15)
        grid = score_all(emb, params)
        with pytest.raises(ValueError, match="masked-in"):
            loss(grid, gold, np.zeros((3, 2, 3), dtype=bool))


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

    def test_relation_isolation_under_mask(self):
        emb, params, gold = random_instance(21)
        grid = score_all(emb, params)
        mask = np.zeros((3, 2, 3), dtype=bool)
        mask[:, 0, :] = True  # only relation 0 contributes
        grads = backward(grid, gold, mask, emb, params)
        np.testing.assert_array_equal(grads.rel_tag_emb[:, NUM_TAGS:], 0.0)
        assert np.any(grads.rel_tag_emb[:, :NUM_TAGS] != 0.0)

    def test_masked_out_perfect_region_has_zero_grads(self):
        emb, params, gold = random_instance(23)
        grid = score_all(emb, params)
        mask = np.zeros((3, 2, 3), dtype=bool)
        mask[1, 1, 1] = True
        grid.scores[1, 1, :, 1] = [60.0, 0.0, 0.0, 0.0]
        gold = TagMatrix(length=3, num_relations=2)  # gold NONE at the only masked cell
        grads = backward(grid, gold, mask, emb, params)
        for arr in (grads.pair_proj, grads.pair_bias, grads.rel_tag_emb, grads.emb):
            assert np.max(np.abs(arr)) < 1e-20

    def test_stale_cache_rejected(self):
        emb, params, gold = random_instance(25)
        grid = score_all(emb, params)
        with pytest.raises(ValueError, match="stale cache"):
            backward(grid, gold, None, emb[:2], params)


class TestFactorizedPairLayer:
    """score_all/backward against the concatenated-pair reference at a size
    where row/column reductions matter: L=12 padded from 9, K=3, dropout on."""

    RTOL, ATOL = 1e-12, 1e-14

    def instance(self, seed):
        emb, params, gold = random_instance(seed, length=12, num_rel=3, emb_dim=6, dropout=0.3)
        mask = np.zeros((12, 3, 12), dtype=bool)
        mask[:9, :, :9] = True
        return emb, params, dense_gold(gold), mask

    @pytest.mark.parametrize("seed", [41, 42, 43])
    def test_matches_concat_reference(self, seed):
        emb, params, gold_arr, mask = self.instance(seed)
        grid = score_all(emb, params, training=True, rng_seed=seed)
        grads = backward(grid, gold_arr, mask, emb, params)
        ref_scores, ref_loss, ref_grads = concat_reference(
            emb, params, gold_arr, mask, training=True, rng_seed=seed
        )
        np.testing.assert_allclose(grid.scores, ref_scores, rtol=self.RTOL, atol=self.ATOL)
        assert grads.loss == pytest.approx(ref_loss, rel=self.RTOL, abs=self.ATOL)
        for name, ref in ref_grads.items():
            np.testing.assert_allclose(
                getattr(grads, name), ref, rtol=self.RTOL, atol=self.ATOL, err_msg=name
            )

    def test_backward_loss_is_loss_bit_for_bit(self):
        emb, params, gold_arr, mask = self.instance(44)
        grid = score_all(emb, params, training=True, rng_seed=44)
        assert backward(grid, gold_arr, mask, emb, params).loss == loss(grid, gold_arr, mask)
        assert backward(grid, gold_arr, None, emb, params).loss == loss(grid, gold_arr)


class TestScalarDropoutScale:
    """The scalar dropout scale reproduces the float-mask formulation bit
    for bit: the forward pass and all four gradients."""

    @pytest.mark.parametrize("seed, dropout", [(51, 0.1), (52, 0.3), (53, 0.5)])
    def test_bit_identical_to_float_mask_reference(self, seed, dropout):
        emb, params, gold = random_instance(seed, length=12, num_rel=3, emb_dim=6, dropout=dropout)
        gold_arr = gold.tags  # the int8 grid, as training passes it
        grid = score_all(emb, params, training=True, rng_seed=seed)
        grads = backward(grid, gold_arr, None, emb, params)
        ref_scores, ref_hidden, ref_loss, ref_grads = float_mask_reference(
            emb, params, gold_arr, rng_seed=seed
        )
        assert np.array_equal(grid.scores, ref_scores)
        assert np.array_equal(grid.hidden, ref_hidden)
        assert grads.loss == ref_loss
        for name, ref in ref_grads.items():
            assert np.array_equal(getattr(grads, name), ref), name


class TestHeadRowBlocks:
    """The pair grid is computed in blocks of head rows: at L=37 there are
    three, the last one 5 rows high. Against a one-block run, the hidden
    layer and the tags of a given grid must be equal; scores, loss and
    gradients may differ in float summation order (BLAS rounds the edge
    tiles of a product by its shape). Against any thread count, everything
    must be equal."""

    RTOL, ATOL = 1e-12, 1e-14
    LENGTH, NUM_REL = 37, 5

    def instance(self, masked):
        emb, params, gold = random_instance(
            61, length=self.LENGTH, num_rel=self.NUM_REL, emb_dim=8, dropout=0.3
        )
        cells = (self.LENGTH, self.NUM_REL, self.LENGTH)
        mask = np.random.default_rng(62).random(cells) < 0.7 if masked else None
        return emb, params, gold.tags, mask

    def run(self, emb, params, gold_arr, mask):
        grid = score_all(emb, params, training=True, rng_seed=63)
        return {
            "grid": grid,
            "grads": backward(grid, gold_arr, mask, emb, params),
            "loss": loss(grid, gold_arr, mask),
            "probs": tag_distribution(grid),
            "tags": predict_tags(grid, mask).tags,
        }

    @pytest.mark.parametrize("masked", [False, True])
    def test_matches_one_block_run(self, monkeypatch, masked):
        emb, params, gold_arr, mask = self.instance(masked)
        blocked = self.run(emb, params, gold_arr, mask)
        monkeypatch.setattr(scorer, "_BLOCK_ROWS", 64)
        whole = self.run(emb, params, gold_arr, mask)

        assert np.array_equal(blocked["grid"].hidden, whole["grid"].hidden)
        np.testing.assert_allclose(
            blocked["grid"].scores, whole["grid"].scores, rtol=self.RTOL, atol=self.ATOL
        )
        assert np.array_equal(predict_tags(blocked["grid"], mask).tags, blocked["tags"])
        assert np.array_equal(tag_distribution(blocked["grid"]), blocked["probs"])
        assert blocked["loss"] == pytest.approx(whole["loss"], rel=self.RTOL, abs=self.ATOL)
        for name in ("pair_proj", "pair_bias", "rel_tag_emb", "emb", "loss"):
            np.testing.assert_allclose(
                getattr(blocked["grads"], name),
                getattr(whole["grads"], name),
                rtol=self.RTOL,
                atol=self.ATOL,
                err_msg=name,
            )

    @pytest.mark.parametrize("masked", [False, True])
    def test_backward_loss_is_loss_bit_for_bit(self, masked):
        emb, params, gold_arr, mask = self.instance(masked)
        out = self.run(emb, params, gold_arr, mask)
        assert out["grads"].loss == out["loss"]

    def test_dropout_stream_is_one_draw_over_the_grid(self):
        emb, params, gold_arr, _ = self.instance(False)
        grid = score_all(emb, params, training=True, rng_seed=63)
        _, ref_hidden, _, _ = float_mask_reference(emb, params, gold_arr, rng_seed=63)
        assert np.array_equal(grid.hidden, ref_hidden)

    @pytest.mark.parametrize("masked", [False, True])
    def test_thread_count_changes_no_output(self, block_threads, masked):
        emb, params, gold_arr, mask = self.instance(masked)
        block_threads(1)
        one = self.run(emb, params, gold_arr, mask)
        # more threads than cores or blocks, switching as often as possible
        block_threads(4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            many = [self.run(emb, params, gold_arr, mask) for _ in range(3)]
        finally:
            sys.setswitchinterval(interval)
        for out in many:
            assert np.array_equal(out["grid"].scores, one["grid"].scores)
            assert np.array_equal(out["grid"].hidden, one["grid"].hidden)
            assert np.array_equal(out["probs"], one["probs"])
            assert np.array_equal(out["tags"], one["tags"])
            assert out["loss"] == one["loss"]
            for name in ("pair_proj", "pair_bias", "rel_tag_emb", "emb", "loss"):
                assert np.array_equal(getattr(out["grads"], name), getattr(one["grads"], name))

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


class TestDenseGold:
    def test_matches_cells_and_pads_with_none(self):
        gold = TagMatrix(length=3, num_relations=2)
        gold.set(0, 1, 2, Tag.HB_TE)
        gold.set(2, 0, 2, Tag.HE_TE)
        for padded in (None, 3, 5):
            arr = dense_gold(gold, padded)
            size = 3 if padded is None else padded
            assert arr.shape == (size, 2, size)
            expected = np.zeros_like(arr)
            expected[0, 1, 2] = int(Tag.HB_TE)
            expected[2, 0, 2] = int(Tag.HE_TE)
            np.testing.assert_array_equal(arr, expected)
        assert not dense_gold(TagMatrix(length=2, num_relations=1), 4).any()


class TestPredictTags:
    def test_four_way_tie_gives_empty_matrix(self):
        emb = np.zeros((3, 4))
        params = ScorerParams(
            pair_proj=np.zeros((12, 8)),
            pair_bias=np.zeros(12),
            rel_tag_emb=np.zeros((12, 8)),
            dropout_rate=0.0,
        )
        assert predict_tags(score_all(emb, params)).cells == {}

    def test_single_favoured_cell(self):
        emb, params, _ = random_instance(27, length=9)
        grid = score_all(emb, params)
        grid.scores[:] = 0.0
        grid.scores[0, 1, int(Tag.HB_TE), 8] = 5.0
        matrix = predict_tags(grid)
        assert matrix.cells == {(0, 1, 8): Tag.HB_TE}

    def test_matches_per_cell_argmax_oracle(self):
        emb, params, _ = random_instance(29)
        grid = score_all(emb, params)
        matrix = predict_tags(grid)
        for i in range(3):
            for k in range(2):
                for j in range(3):
                    scores = grid.scores[i, k, :, j]
                    best = int(np.argmax(scores))
                    if (scores == scores[best]).sum() > 1:
                        best = 0
                    assert int(matrix.get(i, k, j)) == best

    def test_two_way_non_none_tie_resolves_to_none(self):
        emb, params, _ = random_instance(31)
        grid = score_all(emb, params)
        grid.scores[:] = 0.0
        grid.scores[1, 0, int(Tag.HB_TB), 2] = 3.0
        grid.scores[1, 0, int(Tag.HE_TE), 2] = 3.0
        assert predict_tags(grid).cells == {}

    def test_invariant_under_constant_shift(self):
        emb, params, _ = random_instance(33)
        grid = score_all(emb, params)
        before = predict_tags(grid).cells
        grid.scores += 17.5  # same constant for all 4 tags of every cell
        assert predict_tags(grid).cells == before

    @settings(max_examples=120, deadline=None)
    @given(
        length=st.integers(1, 20),
        num_rel=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
        masked=st.booleans(),
    )
    def test_matches_per_cell_reference_on_tied_scores(self, length, num_rel, seed, masked):
        # scores from {-2, ..., 2}: many cells tie, some at the top only
        rng = np.random.default_rng(seed)
        scores = rng.integers(-2, 3, size=(length, num_rel, NUM_TAGS, length)).astype(float)
        mask = rng.random((length, num_rel, length)) < 0.7 if masked else None
        grid = ScoreGrid(scores=scores, hidden=np.zeros((length, length, 1)), dropout_scale=1.0)
        matrix = predict_tags(grid, mask)
        assert matrix.tags.dtype == np.int8
        assert matrix.cells == reference_predict_tags(scores, mask)

    def test_mask_excludes_cells(self):
        emb, params, _ = random_instance(35)
        grid = score_all(emb, params)
        grid.scores[:] = 0.0
        grid.scores[0, 0, int(Tag.HB_TE), 1] = 4.0
        grid.scores[2, 0, int(Tag.HB_TE), 1] = 4.0
        mask = np.ones((3, 2, 3), dtype=bool)
        mask[2, :, :] = False
        assert predict_tags(grid, mask).cells == {(0, 0, 1): Tag.HB_TE}


class TestFusedDrivers:
    """train_grads and tag_grid take each block of head rows from the hidden
    layer to gradients or tags without keeping a grid. They must equal the
    two-step drivers: gradients and loss up to float summation order, tags
    bit for bit, and both bit for bit under any thread count."""

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
    def test_train_grads_match_backward(self, length, num_rel, seed, dropout):
        emb, params, gold = self.instance(seed, length, num_rel, dropout)
        fused = train_grads(emb, gold, params, seed)
        grid = score_all(emb, params, training=True, rng_seed=seed)
        ref = backward(grid, gold, None, emb, params)
        for name in ("pair_proj", "pair_bias", "rel_tag_emb", "emb"):
            np.testing.assert_allclose(
                getattr(fused, name), getattr(ref, name), rtol=self.RTOL, atol=self.ATOL,
                err_msg=name,
            )
        assert fused.loss == pytest.approx(ref.loss, rel=self.RTOL, abs=self.ATOL)

    @settings(max_examples=60, deadline=None)
    @given(
        length=lengths,
        num_rel=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
        halves=st.booleans(),
    )
    def test_tag_grid_matches_predict_tags(self, length, num_rel, seed, halves):
        emb, params, _ = self.instance(seed, length, num_rel)
        if halves:
            # half-integer inputs give exact scores, so many cells tie
            for arr in (emb, params.pair_proj, params.pair_bias, params.rel_tag_emb):
                arr[...] = np.round(2.0 * arr) / 2.0
        tags = tag_grid(emb, params).tags
        assert tags.dtype == np.int8
        assert np.array_equal(tags, predict_tags(score_all(emb, params)).tags)

    def test_tag_grid_ties_and_all_equal_grid(self):
        emb, params, _ = self.instance(81, 37, 3)
        for arr in (emb, params.pair_proj, params.pair_bias, params.rel_tag_emb):
            arr[...] = np.round(2.0 * arr) / 2.0
        scores = score_all(emb, params).scores
        top = scores.max(axis=2, keepdims=True)
        assert ((scores == top).sum(axis=2) > 1).any()  # the instance has ties
        assert np.array_equal(tag_grid(emb, params).tags, predict_tags(score_all(emb, params)).tags)
        params.rel_tag_emb[...] = params.rel_tag_emb[:, :1]  # all four tags score alike
        assert not tag_grid(emb, params).tags.any()

    def test_train_grads_rejects_gold_of_another_shape(self):
        emb, params, gold = self.instance(91, 6, 2)
        for bad in (gold[:, :, :-1], gold.transpose(0, 2, 1), gold[:1, :1, :1]):
            with pytest.raises(ValueError, match="gold shape"):
                train_grads(emb, bad, params, 0)

    def test_thread_count_changes_no_output(self, block_threads):
        emb, params, gold = self.instance(61, 37, 5, dropout=0.3, emb_dim=8)

        def run():
            return train_grads(emb, gold, params, 63), tag_grid(emb, params).tags

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
