import numpy as np
import pytest

from relgrid import trainer
from relgrid.corpus import RelationVocab, Sentence
from relgrid.encoder import build_vocab, encode_indices
from relgrid.scorer import train_grads
from relgrid.synthetic import SynthConfig, generate_corpus
from relgrid.tagging import encode
from relgrid.trainer import (
    AdamState,
    Batch,
    EpochRecord,
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
    write_loss_log,
)

from conftest import make_sentence
from test_scorer import concat_reference, pad_cells


def encoded(corpus, vocab, num_relations):
    """(token indices, int8 gold grid) per sentence, as train builds them."""
    return [(vocab.indices(s.sentence.tokens), encode(s, num_relations)[0]) for s in corpus]


def batch_of(corpus, vocab, num_relations):
    """The sentences as one batch, in the given order."""
    ids, gold = zip(*encoded(corpus, vocab, num_relations))
    return Batch(token_ids=list(ids), gold=list(gold))


def by_group(model, flat):
    """A flat vector laid out like model.weights, split into named groups."""
    return trainer._views(flat, {name: arr.shape for name, arr in model.arrays.items()})


def embedding_tables(model):
    """The model's token and positional tables."""
    return model.arrays["token_table"], model.arrays["positional_table"]


def padded_train_step(model, batch):
    """train_step, dropout off, with every row scored by concat_reference at
    the batch's longest length and the padded cells masked out of the loss
    (positional model only); gradients come back as one array per group."""
    size = len(batch.token_ids)
    padded = max(len(ids) for ids in batch.token_ids)
    grads = {name: np.zeros_like(arr) for name, arr in model.arrays.items()}
    batch_loss = 0.0
    for row in range(size):
        n = len(batch.token_ids[row])
        ids = np.zeros(padded, dtype=np.int64)  # 0 = padding
        ids[:n] = batch.token_ids[row]
        emb = encode_indices(ids, *embedding_tables(model))
        gold, mask = pad_cells(batch.gold[row], padded)
        _, loss, g = concat_reference(emb, model.params, gold, mask)
        batch_loss += loss
        for name in ("pair_proj", "pair_bias", "rel_tag_emb"):
            grads[name] += g[name]
        np.add.at(grads["token_table"], ids, g["emb"])
        grads["positional_table"][:padded] += g["emb"]
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
        sentences = encoded(corpus, build_vocab(corpus), len(relations))
        batches = make_batches(sentences, 4, shuffle_seed=5)
        assert [len(b.token_ids) for b in batches] == [4, 4, 2]
        assert [len(b.gold) for b in batches] == [4, 4, 2]

    def test_every_sentence_once_at_true_length(self, tiny_synth):
        corpus, relations = tiny_synth
        sentences = encoded(corpus, build_vocab(corpus), len(relations))
        batches = make_batches(sentences, 4, shuffle_seed=5)
        seen = [(id(ids), id(gold)) for b in batches for ids, gold in zip(b.token_ids, b.gold)]
        assert sorted(seen) == sorted((id(ids), id(gold)) for ids, gold in sentences)
        for b in batches:
            for ids, gold in zip(b.token_ids, b.gold):
                assert gold.dtype == np.int8
                assert gold.shape == (len(ids), len(relations), len(ids))

    def test_same_seed_same_order(self, tiny_synth):
        corpus, relations = tiny_synth
        sentences = encoded(corpus, build_vocab(corpus), len(relations))
        b1 = make_batches(sentences, 4, shuffle_seed=5)
        b2 = make_batches(sentences, 4, shuffle_seed=5)
        for x, y in zip(b1, b2):
            assert [id(ids) for ids in x.token_ids] == [id(ids) for ids in y.token_ids]

    def test_different_seed_differs(self, tiny_synth):
        corpus, relations = tiny_synth
        sentences = encoded(corpus, build_vocab(corpus), len(relations))
        b1 = make_batches(sentences, 4, shuffle_seed=5)
        b2 = make_batches(sentences, 4, shuffle_seed=6)
        assert any(
            [id(ids) for ids in x.token_ids] != [id(ids) for ids in y.token_ids]
            for x, y in zip(b1, b2)
        )

    def test_train_encodes_each_sentence_once(self, tiny_synth, monkeypatch):
        corpus, relations = tiny_synth
        calls = []

        def counting_encode(sentence, num_relations):
            calls.append(sentence.sentence.id)
            return encode(sentence, num_relations)

        monkeypatch.setattr(trainer, "encode", counting_encode)
        train(corpus, relations, TrainConfig(epochs=3, batch_size=4, seed=1))
        assert sorted(calls) == sorted(s.sentence.id for s in corpus)


class TestTrainStep:
    RTOL, ATOL = 1e-12, 1e-14

    def test_matches_padded_and_masked_reference(self, tiny_synth):
        corpus, relations = tiny_synth
        chunk = [corpus[0], corpus[3], corpus[2]]
        vocab = build_vocab(corpus)
        model = init_model(relations, vocab, TrainConfig(seed=4, dropout_rate=0.0))
        batch = batch_of(chunk, vocab, len(relations))
        lengths = [len(ids) for ids in batch.token_ids]
        assert max(lengths) - min(lengths) >= 5
        seeds = [11, 12, 13]
        got_loss, flat = train_step(model, batch, seeds)
        got = by_group(model, flat)
        ref_loss, ref = padded_train_step(model, batch)
        assert got_loss == pytest.approx(ref_loss, rel=self.RTOL, abs=self.ATOL)
        assert flat.shape == model.weights.shape
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
            loss, flat = train_step(model, batch_of(sentences, vocab, len(relations)), seeds)
            return loss, by_group(model, flat)

        pair_loss, pair_grads = step([s, t], [x, y])
        s_loss, s_grads = step([s], [x])
        t_loss, t_grads = step([t], [y])
        assert pair_loss == pytest.approx((s_loss + t_loss) / 2, rel=1e-15, abs=0.0)
        for name in ("pair_proj", "pair_bias", "rel_tag_emb"):
            np.testing.assert_allclose(
                pair_grads[name], (s_grads[name] + t_grads[name]) / 2, rtol=1e-15, atol=0.0
            )


def per_group_adam_step(params, grads, moments, step, config):
    """Reference: bias-corrected Adam looping over named parameter groups,
    each with its own (m, v) moment pair; updates in place."""
    b1, b2 = config.adam_beta1, config.adam_beta2
    for name, arr in params.items():
        g = grads[name]
        m, v = moments[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1**step)
        v_hat = v / (1.0 - b2**step)
        arr -= config.learning_rate * m_hat / (np.sqrt(v_hat) + config.adam_epsilon)


# trainable group shapes of the fit-short-k4 benchmark model: emb_dim 64,
# hidden 192, 4 relations, 260 vocabulary rows, 100 positional rows
FIT_SHORT_K4_SHAPES = {
    "pair_proj": (192, 128),
    "pair_bias": (192,),
    "rel_tag_emb": (192, 16),
    "token_table": (260, 64),
    "positional_table": (100, 64),
}


class TestAdam:
    def test_zero_gradient_is_inert(self):
        weights = np.array([1.5, -2.0])
        adam_step(weights, np.zeros(2), AdamState.init(weights), TrainConfig())
        np.testing.assert_array_equal(weights, [1.5, -2.0])

    def test_first_step_moves_by_learning_rate(self):
        # hand evaluation: m_hat = 1, v_hat = 1 -> step = lr / (1 + eps)
        config = TrainConfig(learning_rate=1e-5)
        weights = np.array([0.0])
        state = AdamState.init(weights)
        adam_step(weights, np.array([1.0]), state, config)
        expected = -1e-5 / (1.0 + config.adam_epsilon)
        assert weights[0] == pytest.approx(expected, rel=1e-12)
        assert state.step == 1

    def test_quadratic_objective_decreases(self):
        config = TrainConfig(learning_rate=0.05)
        weights = np.array([3.0])
        state = AdamState.init(weights)

        def objective():
            return float((weights[0] - 1.0) ** 2)

        losses = [objective()]
        for _ in range(200):
            adam_step(weights, 2.0 * (weights - 1.0), state, config)
            losses.append(objective())
        assert losses[-1] < 1e-3 < losses[0]

    def test_flat_vector_matches_per_group_reference_bit_for_bit(self):
        config = TrainConfig(learning_rate=2e-3)
        rng = np.random.default_rng(0)
        ends = np.cumsum([np.prod(shape) for shape in FIT_SHORT_K4_SHAPES.values()])

        def split(flat):
            return {
                name: flat[end - np.prod(shape) : end].reshape(shape)
                for end, (name, shape) in zip(ends, FIT_SHORT_K4_SHAPES.items())
            }

        weights = rng.uniform(-0.1, 0.1, size=ends[-1])
        state = AdamState.init(weights)
        params = {name: arr.copy() for name, arr in split(weights).items()}
        moments = {name: (np.zeros_like(a), np.zeros_like(a)) for name, a in params.items()}
        for step in range(1, 301):
            # gradients over several magnitudes, some exactly zero
            grad = rng.normal(size=weights.size) * 10.0 ** rng.integers(-8, 3, size=weights.size)
            grad[rng.random(weights.size) < 0.05] = 0.0
            adam_step(weights, grad, state, config)
            per_group_adam_step(params, split(grad), moments, step, config)
        assert state.step == 300
        for name, arr in split(weights).items():
            assert np.array_equal(arr, params[name]), name
        for name, (m, v) in moments.items():
            assert np.array_equal(split(state.m)[name], m), name
            assert np.array_equal(split(state.v)[name], v), name

    def test_non_finite_gradient_names_group(self, tiny_synth, monkeypatch):
        corpus, relations = tiny_synth
        vocab = build_vocab(corpus)
        model = init_model(relations, vocab, TrainConfig(seed=4))
        real_train_grads = trainer.train_grads

        def poisoned_train_grads(*args):
            g = real_train_grads(*args)
            g.pair_bias[1] = np.nan
            return g

        monkeypatch.setattr(trainer, "train_grads", poisoned_train_grads)
        with pytest.raises(NumericError, match="pair_bias"):
            train_step(model, batch_of(corpus[:2], vocab, len(relations)), [1, 2])


class TestTraining:
    def test_padding_never_changes_loss(self, tiny_synth):
        # the true-length loss train_grads reports equals the masked loss
        # over the grid of the same sentence padded with token 0
        corpus, relations = tiny_synth
        vocab = build_vocab(corpus)
        model = init_model(relations, vocab, TrainConfig(seed=2, dropout_rate=0.0))
        num_rel = len(relations)
        for s in corpus[:4]:
            gold, _ = encode(s, num_rel)
            n = len(s.sentence)
            ids = np.zeros(n + 9, dtype=np.int64)
            ids[:n] = vocab.indices(s.sentence.tokens)
            emb = encode_indices(ids[:n], *embedding_tables(model))
            true_length = train_grads(emb, gold, model.params, 0).loss
            for pad in (n + 1, n + 9):
                emb = encode_indices(ids[:pad], *embedding_tables(model))
                padded = concat_reference(emb, model.params, *pad_cells(gold, pad))[1]
                assert abs(padded - true_length) <= 1e-12

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


def assert_views_of_weights(model):
    """Every trainable array is a view into model.weights, and together they
    tile it in group order."""
    groups = model.arrays
    assert model.weights.ndim == 1 and model.weights.dtype == np.float64
    assert sum(arr.size for arr in groups.values()) == model.weights.size
    offset = 0
    for name, arr in groups.items():
        assert np.shares_memory(arr, model.weights), name
        assert arr.ctypes.data == model.weights[offset:].ctypes.data, name
        offset += arr.size


class TestFlatWeights:
    @pytest.mark.parametrize("use_positional", [True, False])
    def test_init_model_arrays_share_the_flat_vector(self, tiny_synth, use_positional):
        corpus, relations = tiny_synth
        config = TrainConfig(seed=3, use_positional=use_positional)
        model = init_model(relations, build_vocab(corpus), config)
        assert_views_of_weights(model)
        assert len(model.arrays) == (5 if use_positional else 4)

    @pytest.mark.parametrize("use_positional", [True, False])
    def test_loaded_arrays_share_the_flat_vector(self, tiny_synth, tmp_path, use_positional):
        corpus, relations = tiny_synth
        config = TrainConfig(epochs=1, seed=3, use_positional=use_positional)
        model, _ = train(corpus, relations, config)
        path = tmp_path / "model.npz"
        save_checkpoint(path, model)
        loaded = load_checkpoint(path)
        assert_views_of_weights(loaded)
        np.testing.assert_array_equal(loaded.weights, model.weights)

    def test_adam_on_the_flat_vector_moves_the_model(self, tiny_synth):
        corpus, relations = tiny_synth
        model = init_model(relations, build_vocab(corpus), TrainConfig(seed=3))
        before = model.params.rel_tag_emb.copy()
        grad = np.ones_like(model.weights)
        adam_step(model.weights, grad, AdamState.init(model.weights), TrainConfig())
        assert not np.array_equal(model.params.rel_tag_emb, before)


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
        rows = predict(s, model)
        assert rows.shape == (0, 5) and rows.dtype == np.int64

    def test_deterministic_across_calls(self, tiny_synth):
        corpus, relations = tiny_synth
        model, _ = train(corpus, relations, TrainConfig(epochs=1, seed=3))
        s = corpus[0].sentence
        np.testing.assert_array_equal(predict(s, model), predict(s, model))

    def test_long_sentence_truncated_with_warning(self, caplog):
        relations = RelationVocab(names=("r0",))
        model = self.zero_model(relations)
        model.config.max_seq_len = 5
        long_sentence = Sentence(tokens=tuple(f"t{i}" for i in range(9)), id="long")
        with caplog.at_level("WARNING"):
            result = predict(long_sentence, model)
        assert result.shape == (0, 5)
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
        for name in ("token_table", "positional_table"):
            np.testing.assert_array_equal(loaded.arrays[name], model.arrays[name])
        assert loaded.vocab.token_to_index == model.vocab.token_to_index
        assert loaded.relations.names == relations.names
        assert loaded.config == model.config

        s = corpus[0].sentence
        np.testing.assert_array_equal(predict(s, loaded), predict(s, model))

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
