import numpy as np
import pytest

from relgrid.corpus import RelationVocab, Sentence, Span, Triple
from relgrid.encoder import build_vocab, encode_indices
from relgrid.scorer import ScorerParams, backward, dense_gold, loss, score_all
from relgrid.synthetic import SynthConfig, generate_corpus
from relgrid.tagging import encode
from relgrid.trainer import (
    AdamState,
    EpochRecord,
    Model,
    NumericError,
    TrainConfig,
    adam_step,
    init_model,
    load_checkpoint,
    make_batches,
    predict,
    save_checkpoint,
    train,
    train_step,
    valid_mask,
    write_loss_log,
)

from conftest import make_sentence


def padded_train_step(model, batch, dropout_seeds):
    """train_step with every row scored at the batch's longest length and the
    padded cells masked out of the loss (positional model only)."""
    size, padded = batch.token_ids.shape
    num_rel = model.params.num_relations
    grads = {
        "pair_proj": np.zeros_like(model.params.pair_proj),
        "pair_bias": np.zeros_like(model.params.pair_bias),
        "rel_tag_emb": np.zeros_like(model.params.rel_tag_emb),
        "token_table": np.zeros_like(model.table.tokens),
        "positional_table": np.zeros_like(model.table.positional),
    }
    batch_loss = 0.0
    for row in range(size):
        ids = batch.token_ids[row]
        emb = encode_indices(ids, model.table, True)
        grid = score_all(emb, model.params, training=True, rng_seed=dropout_seeds[row])
        mask = valid_mask(int(batch.lengths[row]), padded, num_rel)
        g = backward(grid, dense_gold(batch.gold[row], padded), mask, emb, model.params)
        batch_loss += g.loss
        grads["pair_proj"] += g.pair_proj
        grads["pair_bias"] += g.pair_bias
        grads["rel_tag_emb"] += g.rel_tag_emb
        np.add.at(grads["token_table"], ids, g.emb)
        grads["positional_table"][:padded] += g.emb
    for arr in grads.values():
        arr /= size
    return batch_loss / size, grads


@pytest.fixture(scope="module")
def tiny_synth():
    config = SynthConfig(sentences=10, num_relations=3, seed=44)
    corpus, relations, _ = generate_corpus(config)
    return corpus, relations


class TestBatches:
    def test_batch_sizes_keep_final_partial(self, tiny_synth):
        corpus, relations = tiny_synth
        vocab = build_vocab(corpus)
        config = TrainConfig(batch_size=4)
        batches = make_batches(corpus, vocab, len(relations), config)
        assert [b.token_ids.shape[0] for b in batches] == [4, 4, 2]

    def test_mask_admits_exactly_true_length_cells(self):
        mask = valid_mask(3, 5, 2)
        assert mask.sum() == 3 * 2 * 3
        assert mask[:3, :, :3].all()
        assert not mask[3:, :, :].any()
        assert not mask[:, :, 3:].any()

    def test_same_seed_same_order(self, tiny_synth):
        corpus, relations = tiny_synth
        vocab = build_vocab(corpus)
        config = TrainConfig(batch_size=4)
        b1 = make_batches(corpus, vocab, len(relations), config, shuffle_seed=5)
        b2 = make_batches(corpus, vocab, len(relations), config, shuffle_seed=5)
        for x, y in zip(b1, b2):
            np.testing.assert_array_equal(x.token_ids, y.token_ids)

    def test_different_seed_differs(self, tiny_synth):
        corpus, relations = tiny_synth
        vocab = build_vocab(corpus)
        config = TrainConfig(batch_size=4)
        b1 = make_batches(corpus, vocab, len(relations), config, shuffle_seed=5)
        b2 = make_batches(corpus, vocab, len(relations), config, shuffle_seed=6)
        assert any(
            not np.array_equal(x.token_ids, y.token_ids) for x, y in zip(b1, b2)
        )


class TestTrainStep:
    RTOL, ATOL = 1e-12, 1e-14

    def test_matches_padded_and_masked_reference(self, tiny_synth):
        corpus, relations = tiny_synth
        chunk = [corpus[0], corpus[3], corpus[2]]
        vocab = build_vocab(corpus)
        model = init_model(relations, vocab, TrainConfig(seed=4, dropout_rate=0.0))
        [batch] = make_batches(chunk, vocab, len(relations), TrainConfig(batch_size=3))
        assert batch.lengths.max() - batch.lengths.min() >= 5
        seeds = [11, 12, 13]
        got_loss, got = train_step(model, batch, seeds)
        ref_loss, ref = padded_train_step(model, batch, seeds)
        assert got_loss == pytest.approx(ref_loss, rel=self.RTOL, abs=self.ATOL)
        assert got.keys() == ref.keys() and len(ref) == 5
        for name in ref:
            np.testing.assert_allclose(
                got[name], ref[name], rtol=self.RTOL, atol=self.ATOL, err_msg=name
            )

    def test_dropout_ignores_batch_companions(self, tiny_synth):
        corpus, relations = tiny_synth
        s, t = corpus[3], corpus[0]
        assert len(t.sentence) > len(s.sentence)
        vocab = build_vocab(corpus)
        config = TrainConfig(seed=4, dropout_rate=0.3, batch_size=2)
        model = init_model(relations, vocab, config)
        x, y = 21, 22

        def step(sentences, seeds):
            [batch] = make_batches(sentences, vocab, len(relations), config)
            return train_step(model, batch, seeds)

        pair_loss, pair_grads = step([s, t], [x, y])
        s_loss, s_grads = step([s], [x])
        t_loss, t_grads = step([t], [y])
        assert pair_loss == pytest.approx((s_loss + t_loss) / 2, rel=1e-15, abs=0.0)
        for name in ("pair_proj", "pair_bias", "rel_tag_emb"):
            np.testing.assert_allclose(
                pair_grads[name], (s_grads[name] + t_grads[name]) / 2, rtol=1e-15, atol=0.0
            )


class TestAdam:
    def test_zero_gradient_is_inert(self):
        params = {"p": np.array([1.5, -2.0])}
        state = AdamState.init(params)
        adam_step(params, {"p": np.zeros(2)}, state, TrainConfig())
        np.testing.assert_array_equal(params["p"], [1.5, -2.0])

    def test_first_step_moves_by_learning_rate(self):
        # hand evaluation: m_hat = 1, v_hat = 1 -> step = lr / (1 + eps)
        config = TrainConfig(learning_rate=1e-5)
        params = {"p": np.array([0.0])}
        state = AdamState.init(params)
        adam_step(params, {"p": np.array([1.0])}, state, config)
        expected = -1e-5 / (1.0 + config.adam_epsilon)
        assert params["p"][0] == pytest.approx(expected, rel=1e-12)
        assert state.step == 1

    def test_quadratic_objective_decreases(self):
        config = TrainConfig(learning_rate=0.05)
        params = {"x": np.array([3.0])}
        state = AdamState.init(params)

        def objective():
            return float((params["x"][0] - 1.0) ** 2)

        losses = [objective()]
        for _ in range(200):
            grad = {"x": 2.0 * (params["x"] - 1.0)}
            adam_step(params, grad, state, config)
            losses.append(objective())
        assert losses[-1] < 1e-3 < losses[0]

    def test_non_finite_gradient_names_group(self):
        params = {"pair_bias": np.zeros(3)}
        state = AdamState.init(params)
        bad = {"pair_bias": np.array([1.0, np.nan, 0.0])}
        with pytest.raises(NumericError, match="pair_bias"):
            adam_step(params, bad, state, TrainConfig())


class TestTraining:
    def test_padding_never_changes_loss(self, tiny_synth):
        corpus, relations = tiny_synth
        vocab = build_vocab(corpus)
        model = init_model(relations, vocab, TrainConfig(seed=2))
        num_rel = len(relations)
        for s in corpus[:4]:
            gold, _ = encode(s, num_rel)
            n = len(s.sentence)
            losses = []
            for pad in (n, n + 1, n + 9):
                ids = np.zeros(pad, dtype=np.int64)
                ids[:n] = vocab.indices(s.sentence.tokens)
                emb = encode_indices(ids, model.table, True)
                grid = score_all(emb, model.params, training=False)
                losses.append(
                    loss(grid, dense_gold(gold, pad), valid_mask(n, pad, num_rel))
                )
            assert abs(losses[0] - losses[1]) <= 1e-12
            assert abs(losses[0] - losses[2]) <= 1e-12

    def test_seeded_runs_are_bit_identical(self, tiny_synth):
        corpus, relations = tiny_synth
        config = TrainConfig(epochs=3, seed=77, batch_size=4)
        _, log1 = train(corpus, relations, config)
        _, log2 = train(corpus, relations, config)
        assert [r.mean_loss for r in log1] == [r.mean_loss for r in log2]

    def test_first_epoch_loss_near_uniform(self, tiny_synth):
        corpus, relations = tiny_synth
        _, log = train(corpus, relations, TrainConfig(epochs=1, seed=5))
        assert log[0].mean_loss <= np.log(4.0) + 0.1

    def test_loss_beats_uniform_after_one_epoch(self):
        config = SynthConfig(sentences=50, num_relations=4, seed=7)
        corpus, relations, _ = generate_corpus(config)
        _, log = train(
            corpus, relations, TrainConfig(epochs=1, seed=5, learning_rate=1e-3)
        )
        assert log[0].mean_loss < np.log(4.0)

    def test_early_stop_callback(self, tiny_synth):
        corpus, relations = tiny_synth
        seen = []

        def stop_after_two(epoch, model, mean_loss):
            seen.append(epoch)
            return epoch == 2

        _, log = train(
            corpus, relations, TrainConfig(epochs=10, seed=1), on_epoch=stop_after_two
        )
        assert seen == [1, 2]
        assert len(log) == 2

    def test_thread_count_changes_no_checkpoint_or_loss(self, block_threads, tmp_path):
        # sentences of 20-40 tokens: two or three head-row blocks per grid
        corpus, relations, _ = generate_corpus(
            SynthConfig(sentences=6, num_relations=3, min_len=20, max_len=40, seed=45)
        )
        config = TrainConfig(epochs=2, batch_size=3, seed=46, dropout_rate=0.3, emb_dim=8)
        runs = []
        for threads in (1, 4):
            block_threads(threads)
            path = tmp_path / f"model{threads}.npz"
            _, log = train(corpus, relations, config, checkpoint_path=path)
            with np.load(path) as arrays:
                runs.append(({name: arrays[name] for name in arrays.files}, log))
        (arrays1, log1), (arrays4, log4) = runs
        assert [r.mean_loss for r in log1] == [r.mean_loss for r in log4]
        assert arrays1.keys() == arrays4.keys()
        for name in arrays1:
            assert np.array_equal(arrays1[name], arrays4[name]), name


class TestPredict:
    def zero_model(self, relations):
        corpus = [make_sentence(3, [], sid="z")]
        vocab = build_vocab(corpus)
        config = TrainConfig(seed=0, emb_dim=4)
        model = init_model(relations, vocab, config)
        model.params.pair_proj[:] = 0.0
        model.params.pair_bias[:] = 0.0
        model.params.rel_tag_emb[:] = 0.0
        return model

    def test_zero_params_predict_empty(self):
        relations = RelationVocab(names=("r0", "r1"))
        model = self.zero_model(relations)
        s = Sentence(tokens=("a", "b", "c"))
        assert predict(s, model) == frozenset()

    def test_deterministic_across_calls(self, tiny_synth):
        corpus, relations = tiny_synth
        model, _ = train(corpus, relations, TrainConfig(epochs=1, seed=3))
        s = corpus[0].sentence
        assert predict(s, model) == predict(s, model)

    def test_long_sentence_truncated_with_warning(self, caplog):
        relations = RelationVocab(names=("r0",))
        model = self.zero_model(relations)
        model.config.max_seq_len = 5
        long_sentence = Sentence(tokens=tuple(f"t{i}" for i in range(9)), id="long")
        with caplog.at_level("WARNING"):
            result = predict(long_sentence, model)
        assert result == frozenset()
        assert any("truncated" in rec.message for rec in caplog.records)


class TestCheckpoint:
    def test_roundtrip_preserves_everything(self, tiny_synth, tmp_path):
        corpus, relations = tiny_synth
        model, log = train(corpus, relations, TrainConfig(epochs=1, seed=11))
        path = tmp_path / "model.npz"
        save_checkpoint(path, model)
        loaded = load_checkpoint(path)

        np.testing.assert_array_equal(loaded.params.pair_proj, model.params.pair_proj)
        np.testing.assert_array_equal(loaded.params.pair_bias, model.params.pair_bias)
        np.testing.assert_array_equal(loaded.params.rel_tag_emb, model.params.rel_tag_emb)
        np.testing.assert_array_equal(loaded.table.tokens, model.table.tokens)
        np.testing.assert_array_equal(loaded.table.positional, model.table.positional)
        assert loaded.vocab.token_to_index == model.vocab.token_to_index
        assert loaded.relations.names == relations.names
        assert loaded.config == model.config

        s = corpus[0].sentence
        assert predict(s, loaded) == predict(s, model)

    def test_failed_overwrite_keeps_previous_checkpoint(
        self, tiny_synth, tmp_path, monkeypatch
    ):
        corpus, relations = tiny_synth
        model, _ = train(corpus, relations, TrainConfig(epochs=1, seed=11))
        path = tmp_path / "model.npz"
        save_checkpoint(path, model)
        before = path.read_bytes()
        saved_bias = model.params.pair_bias.copy()

        def crash_mid_write(fh, **arrays):
            fh.write(b"PK\x03\x04 partial archive")
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez", crash_mid_write)
        model.params.pair_bias += 1.0
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(path, model)
        monkeypatch.undo()

        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.npz"]
        loaded = load_checkpoint(path)
        np.testing.assert_array_equal(loaded.params.pair_bias, saved_bias)

    def test_missing_checkpoint(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_checkpoint(tmp_path / "absent.npz")

    def test_loss_log_format(self, tmp_path):
        log = [EpochRecord(1, 1.25, 0.5), EpochRecord(2, 1.0, 0.4)]
        path = tmp_path / "loss.log"
        write_loss_log(path, log)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        epoch, mean_loss, seconds = lines[0].split("\t")
        assert epoch == "1" and float(mean_loss) == 1.25 and float(seconds) == 0.5
