import logging

import numpy as np
import pytest

from relgrid import tagging, trainer
from relgrid.corpus import RelationVocab, build_sentence
from relgrid.encoder import Vocab, build_vocab, encode_indices
from relgrid.synthetic import SynthConfig, generate_corpus
from relgrid.tagging import encode
from relgrid.trainer import (
    AdamState,
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

from conftest import glorot_arrays, make_sentence, triple
from test_scorer import concat_reference, pad_cells, same_bytes, scorer_grads, traced_peak


def encoded(corpus, vocab):
    """(token indices, sentence) per sentence, as train builds them;
    in the given order, one batch as train_step takes it."""
    return [(vocab.indices(s.tokens), s) for s in corpus]


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
    size = len(batch)
    padded = max(len(ids) for ids, _ in batch)
    grads = {name: np.zeros_like(arr) for name, arr in model.arrays.items()}
    batch_loss = 0.0
    for row_ids, sentence in batch:
        n = len(row_ids)
        ids = np.zeros(padded, dtype=np.int64)  # 0 = padding
        ids[:n] = row_ids
        emb = encode_indices(ids, *embedding_tables(model))
        gold, mask = pad_cells(encode(sentence, len(model.relations))[0], padded)
        _, loss, g = concat_reference(emb, model.arrays, gold, mask)
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
        corpus, _ = tiny_synth
        sentences = encoded(corpus, build_vocab(corpus))
        batches = make_batches(sentences, 4, shuffle_seed=5)
        assert [len(b) for b in batches] == [4, 4, 2]

    def test_every_sentence_once_at_true_length(self, tiny_synth):
        corpus, _ = tiny_synth
        sentences = encoded(corpus, build_vocab(corpus))
        batches = make_batches(sentences, 4, shuffle_seed=5)
        seen = [(id(ids), id(s)) for b in batches for ids, s in b]
        assert sorted(seen) == sorted((id(ids), id(s)) for ids, s in sentences)
        for b in batches:
            for ids, s in b:
                assert ids.dtype == np.int64 and len(ids) == len(s.tokens)

    def test_same_seed_same_order(self, tiny_synth):
        corpus, _ = tiny_synth
        sentences = encoded(corpus, build_vocab(corpus))
        b1 = make_batches(sentences, 4, shuffle_seed=5)
        b2 = make_batches(sentences, 4, shuffle_seed=5)
        for x, y in zip(b1, b2):
            assert [id(ids) for ids, _ in x] == [id(ids) for ids, _ in y]

    def test_different_seed_differs(self, tiny_synth):
        corpus, _ = tiny_synth
        sentences = encoded(corpus, build_vocab(corpus))
        b1 = make_batches(sentences, 4, shuffle_seed=5)
        b2 = make_batches(sentences, 4, shuffle_seed=6)
        assert any([id(ids) for ids, _ in x] != [id(ids) for ids, _ in y] for x, y in zip(b1, b2))

    def test_train_encodes_each_sentence_once_a_pass(self, tiny_synth, monkeypatch):
        # once to count gold the grid cannot hold (roundtrip_check), then once per epoch
        corpus, relations = tiny_synth
        calls = []

        def counting_encode(sentence, num_relations):
            calls.append(sentence.id)
            return encode(sentence, num_relations)

        monkeypatch.setattr(tagging, "encode", counting_encode)
        monkeypatch.setattr(trainer, "encode", counting_encode)
        train(corpus, relations, TrainConfig(epochs=3, batch_size=4, seed=1))
        assert sorted(calls) == sorted(s.id for s in corpus for _ in range(1 + 3))


class TestGoldCells:
    """train encodes each sentence's dense gold grid from its rows only for
    that sentence's scorer call."""

    def test_lossy_gold_warns_once_with_its_count(self, caplog):
        # nested heads on one relation and tail: decoding splices the wrong head end
        lossy = make_sentence(10, [triple((0, 5), 0, (8, 9)), triple((2, 3), 0, (8, 9))], sid="lossy")
        clean = make_sentence(10, [triple((0, 1), 0, (8, 9))], sid="clean")
        with caplog.at_level(logging.WARNING):
            train([lossy, clean], RelationVocab(names=("r0",)), TrainConfig(epochs=2, emb_dim=8))
        [warning] = [r for r in caplog.records if r.levelno >= logging.WARNING]
        assert warning.name == "relgrid.trainer"
        assert warning.getMessage().startswith("1 of 2 training sentences have gold")

    def test_generator_corpus_never_warns(self, caplog):
        corpus, relations, _ = generate_corpus(SynthConfig(sentences=60, num_relations=4, seed=8))
        with caplog.at_level(logging.WARNING):
            train(corpus, relations, TrainConfig(epochs=1, emb_dim=8))
        assert not [r for r in caplog.records if r.levelno >= logging.WARNING]

    def test_training_peak_is_flat_in_the_corpus_size(self, block_threads):
        # one dense gold grid (L=60, K=24: 86 KB) is alive at a time, so four
        # times the sentences add only their token indices and batch lists to the peak
        block_threads(1)
        corpus, relations, _ = generate_corpus(
            SynthConfig(sentences=16, num_relations=24, min_len=60, max_len=60, seed=12)
        )
        vocab = build_vocab(corpus)
        config = TrainConfig(epochs=1, emb_dim=8, seed=3)

        def peak(sentences):
            return traced_peak(lambda: train(sentences, relations, config, vocab=vocab))

        peak(corpus[:4])
        small, large = peak(corpus[:4]), peak(corpus)
        assert large - small < 128 * 1024, (small, large)


class TestTrainStep:
    RTOL, ATOL = 1e-12, 1e-14

    def test_matches_padded_and_masked_reference(self, tiny_synth):
        corpus, relations = tiny_synth
        chunk = [corpus[0], corpus[3], corpus[2]]
        vocab = build_vocab(corpus)
        model = init_model(relations, vocab, TrainConfig(seed=4, dropout_rate=0.0))
        batch = encoded(chunk, vocab)
        lengths = [len(ids) for ids, _ in batch]
        assert max(lengths) - min(lengths) >= 5
        seeds = [11, 12, 13]
        flat = np.full_like(model.weights, np.nan)  # train_step zeroes it first
        got_loss = train_step(model, batch, seeds, flat)
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
        assert len(t) > len(s)
        vocab = build_vocab(corpus)
        config = TrainConfig(seed=4, dropout_rate=0.3, batch_size=2)
        model = init_model(relations, vocab, config)
        x, y = 21, 22

        def step(sentences, seeds):
            flat = np.empty_like(model.weights)
            loss = train_step(model, encoded(sentences, vocab), seeds, flat)
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
    b1, b2 = trainer.ADAM_BETA1, trainer.ADAM_BETA2
    for name, arr in params.items():
        g = grads[name]
        m, v = moments[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1**step)
        v_hat = v / (1.0 - b2**step)
        arr -= config.learning_rate * m_hat / (np.sqrt(v_hat) + trainer.ADAM_EPSILON)


def allocating_adam_step(weights, grad, m, v, step, config):
    """Reference: adam_step as it was when every step allocated its step
    and denominator vectors; the same operations in the same order."""
    b1, b2 = trainer.ADAM_BETA1, trainer.ADAM_BETA2
    update = np.multiply(grad, 1.0 - b1)
    m *= b1
    m += update
    np.multiply(grad, 1.0 - b2, out=update)
    update *= grad
    v *= b2
    v += update
    np.divide(m, 1.0 - b1**step, out=update)  # m_hat
    update *= config.learning_rate
    denom = np.divide(v, 1.0 - b2**step)  # v_hat
    np.sqrt(denom, out=denom)
    denom += trainer.ADAM_EPSILON
    update /= denom
    weights -= update


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
        expected = -1e-5 / (1.0 + trainer.ADAM_EPSILON)
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
            per_group_adam_step(params, split(grad), moments, step, config)
            adam_step(weights, grad, state, config)  # consumes grad
        assert state.step == 300
        for name, arr in split(weights).items():
            assert np.array_equal(arr, params[name]), name
        for name, (m, v) in moments.items():
            assert np.array_equal(split(state.m)[name], m), name
            assert np.array_equal(split(state.v)[name], v), name

    def test_matches_the_allocating_step_byte_for_byte(self):
        # one partial chunk, exactly one chunk, and three chunks plus a partial one
        config = TrainConfig(learning_rate=2e-3)
        rng = np.random.default_rng(1)
        subnormal = np.finfo(np.float64).smallest_subnormal
        for size in (5000, trainer.ADAM_CHUNK, 3 * trainer.ADAM_CHUNK + 17):
            weights = rng.uniform(-0.1, 0.1, size=size)
            weights[:50] = 0.0
            state = AdamState.init(weights)
            assert state.scratch.size == min(size, trainer.ADAM_CHUNK)
            ref_weights, ref_m, ref_v = weights.copy(), np.zeros(size), np.zeros(size)
            for step in range(1, 9):
                grad = rng.normal(size=size) * 10.0 ** rng.integers(-8, 3, size=size)
                grad[0::9] = 0.0
                grad[1::9] = -0.0
                grad[2::9] = subnormal * rng.integers(-2000, 2000, size=grad[2::9].size)
                grad[3::9] = -subnormal
                allocating_adam_step(ref_weights, grad.copy(), ref_m, ref_v, step, config)
                adam_step(weights, grad, state, config)
                assert same_bytes(weights, ref_weights), (size, step)
                assert same_bytes(state.m, ref_m), (size, step)
                assert same_bytes(state.v, ref_v), (size, step)
            assert state.step == 8
            subnormal_moments = state.m[2::9]
            assert (subnormal_moments != 0.0).any()
            assert (np.abs(subnormal_moments) < np.finfo(np.float64).tiny).all()

    def test_non_finite_gradient_names_group(self, tiny_synth, monkeypatch):
        corpus, relations = tiny_synth
        vocab = build_vocab(corpus)
        model = init_model(relations, vocab, TrainConfig(seed=4))
        # the last element lies in the last, partial chunk of the check
        assert model.weights.size > trainer.ADAM_CHUNK and model.weights.size % trainer.ADAM_CHUNK
        real_batch_grads = trainer.batch_grads
        for group, index in (("pair_bias", 1), ("positional_table", (-1, -1))):

            def poisoned_batch_grads(*args):
                results = real_batch_grads(*args)
                args[-1][group][index] = np.nan  # into train_step's gradient
                return results

            monkeypatch.setattr(trainer, "batch_grads", poisoned_batch_grads)
            with pytest.raises(NumericError, match=group):
                train_step(model, encoded(corpus[:2], vocab), [1, 2], np.empty_like(model.weights))


class TestStepMemory:
    """A training step writes its weight-sized work into vectors the run
    already holds: the gradient train allocates once, and Adam's moments.
    AdamState's scratch vector is one ADAM_CHUNK long, and Adam and the
    gradient's finiteness check work one chunk at a time."""

    def test_adam_step_allocates_no_weight_sized_array(self):
        rng = np.random.default_rng(2)
        weights = rng.uniform(-0.1, 0.1, size=50_000)
        state = AdamState.init(weights)
        grad = rng.normal(size=weights.size)
        assert traced_peak(lambda: adam_step(weights, grad, state, TrainConfig())) < weights.nbytes

    def test_train_step_allocates_no_weight_sized_array(self):
        # fit-short-k4's model: 4 relations, emb_dim 64, dropout 0 and the
        # distinct tokens of 24 sentences of 6-14 tokens. The batch is its
        # four shortest sentences, whose scorer temporaries stay well below
        # the weight vector, so a weight-sized array would show in the peak.
        corpus, relations, _ = generate_corpus(
            SynthConfig(sentences=24, num_relations=4, lexicon_size=1_000_000, seed=3)
        )
        vocab = build_vocab(corpus)
        model = init_model(relations, vocab, TrainConfig(seed=0, dropout_rate=0.0))
        assert model.weights.size > 45_000
        batch = sorted(encoded(corpus, vocab), key=lambda pair: len(pair[0]))[:4]
        grad = np.empty_like(model.weights)
        train_step(model, batch, [0] * 4, grad)
        peak = traced_peak(lambda: train_step(model, batch, [0] * 4, grad))
        assert peak < model.weights.nbytes

    def test_million_weight_step_allocates_no_mask_of_the_weights(self):
        # a 20,000-token vocabulary puts 1.3M weights in the model. Four
        # short sentences keep the scorer temporaries far below weights.nbytes / 8,
        # the size of one boolean mask over the gradient.
        corpus, relations, _ = generate_corpus(
            SynthConfig(sentences=8, num_relations=4, lexicon_size=1_000_000, seed=3)
        )
        tokens = list(build_vocab(corpus).token_to_index)
        tokens += [f"filler{i}" for i in range(20_000 - len(tokens))]
        vocab = Vocab(token_to_index={token: index for index, token in enumerate(tokens)})
        model = init_model(relations, vocab, TrainConfig(seed=0, dropout_rate=0.0))
        assert model.weights.size > 1_000_000
        bound = model.weights.nbytes / 8
        batch = sorted(encoded(corpus, vocab), key=lambda pair: len(pair[0]))[:4]
        grad = np.empty_like(model.weights)
        train_step(model, batch, [0] * 4, grad)
        assert traced_peak(lambda: train_step(model, batch, [0] * 4, grad)) < bound
        state = AdamState.init(model.weights)
        assert state.scratch.size == trainer.ADAM_CHUNK
        assert traced_peak(lambda: adam_step(model.weights, grad, state, TrainConfig())) < bound


class TestTraining:
    def test_padding_never_changes_loss(self, tiny_synth):
        # the true-length loss batch_grads reports equals the masked loss
        # over the grid of the same sentence padded with token 0
        corpus, relations = tiny_synth
        vocab = build_vocab(corpus)
        model = init_model(relations, vocab, TrainConfig(seed=2, dropout_rate=0.0))
        num_rel = len(relations)
        for s in corpus[:4]:
            gold, _ = encode(s, num_rel)
            n = len(s)
            ids = np.zeros(n + 9, dtype=np.int64)
            ids[:n] = vocab.indices(s.tokens)
            emb = encode_indices(ids[:n], *embedding_tables(model))
            true_length = scorer_grads(emb, gold, model.arrays)["loss"]
            for pad in (n + 1, n + 9):
                emb = encode_indices(ids[:pad], *embedding_tables(model))
                padded = concat_reference(emb, model.arrays, *pad_cells(gold, pad))[1]
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
    def test_init_model_arrays_share_the_flat_vector(self, tiny_synth):
        corpus, relations = tiny_synth
        model = init_model(relations, build_vocab(corpus), TrainConfig(seed=3))
        assert_views_of_weights(model)
        assert len(model.arrays) == 5

    @pytest.mark.parametrize("seed", [3, 8])
    def test_init_model_draws_scorer_arrays_glorot_uniform(self, tiny_synth, seed):
        corpus, relations = tiny_synth
        config = TrainConfig(seed=seed, emb_dim=8)
        model = init_model(relations, build_vocab(corpus), config)
        expected = glorot_arrays(8, len(relations), trainer._derived_seed(seed, 2))
        for name, arr in expected.items():
            assert np.array_equal(model.arrays[name], arr), name

    def test_loaded_arrays_share_the_flat_vector(self, tiny_synth, tmp_path):
        corpus, relations = tiny_synth
        config = TrainConfig(epochs=1, seed=3)
        model, _ = train(corpus, relations, config)
        path = tmp_path / "model.npz"
        save_checkpoint(path, model)
        loaded = load_checkpoint(path)
        assert_views_of_weights(loaded)
        np.testing.assert_array_equal(loaded.weights, model.weights)

    def test_adam_on_the_flat_vector_moves_the_model(self, tiny_synth):
        corpus, relations = tiny_synth
        model = init_model(relations, build_vocab(corpus), TrainConfig(seed=3))
        before = model.arrays["rel_tag_emb"].copy()
        grad = np.ones_like(model.weights)
        adam_step(model.weights, grad, AdamState.init(model.weights), TrainConfig())
        assert not np.array_equal(model.arrays["rel_tag_emb"], before)


class TestPredict:
    def zero_model(self, relations, **config):
        corpus = [make_sentence(3, [], sid="z")]
        vocab = build_vocab(corpus)
        config = TrainConfig(seed=0, emb_dim=4, **config)
        model = init_model(relations, vocab, config)
        for name in ("pair_proj", "pair_bias", "rel_tag_emb"):
            model.arrays[name][:] = 0.0
        return model

    def test_zero_params_predict_empty(self):
        relations = RelationVocab(names=("r0", "r1"))
        model = self.zero_model(relations)
        rows = predict(make_sentence(3, []), model)
        assert rows.shape == (0, 5) and rows.dtype == np.int64

    def test_deterministic_across_calls(self, tiny_synth):
        corpus, relations = tiny_synth
        model, _ = train(corpus, relations, TrainConfig(epochs=1, seed=3))
        s = corpus[0]
        np.testing.assert_array_equal(predict(s, model), predict(s, model))

    def test_long_sentence_truncated_with_warning(self):
        # predict cuts nothing: a sentence past the positional table is refused,
        # and build_sentence is the one place it is cut, with its warning
        model = self.zero_model(RelationVocab(names=("r0",)), max_seq_len=5)
        long_sentence = make_sentence(9, [], sid="long")
        with pytest.raises(ValueError, match="sequence length 9 exceeds positional table 5"):
            predict(long_sentence, model)
        warnings = []
        cut = build_sentence(long_sentence.id, long_sentence.tokens, [], max_seq_len=5, warnings=warnings)
        assert predict(cut, model).shape == (0, 5)
        assert warnings == ["sentence 'long': truncated to 5 tokens"]


class TestCheckpoint:
    def test_roundtrip_preserves_everything(self, tiny_synth, tmp_path):
        corpus, relations = tiny_synth
        model, log = train(corpus, relations, TrainConfig(epochs=1, seed=11))
        path = tmp_path / "model.npz"
        save_checkpoint(path, model)
        loaded = load_checkpoint(path)

        assert loaded.arrays.keys() == model.arrays.keys()
        for name in model.arrays:
            np.testing.assert_array_equal(loaded.arrays[name], model.arrays[name])
        assert loaded.vocab.token_to_index == model.vocab.token_to_index
        assert loaded.relations.names == relations.names
        assert loaded.config == model.config

        s = corpus[0]
        np.testing.assert_array_equal(predict(s, loaded), predict(s, model))

    def test_failed_overwrite_keeps_previous_checkpoint(
        self, tiny_synth, tmp_path, monkeypatch
    ):
        corpus, relations = tiny_synth
        model, _ = train(corpus, relations, TrainConfig(epochs=1, seed=11))
        path = tmp_path / "model.npz"
        save_checkpoint(path, model)
        before = path.read_bytes()
        saved_bias = model.arrays["pair_bias"].copy()

        def crash_mid_write(fh, **arrays):
            fh.write(b"PK\x03\x04 partial archive")
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez", crash_mid_write)
        model.arrays["pair_bias"] += 1.0
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(path, model)
        monkeypatch.undo()

        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.npz"]
        loaded = load_checkpoint(path)
        np.testing.assert_array_equal(loaded.arrays["pair_bias"], saved_bias)

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
