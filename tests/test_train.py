"""Training loops: determinism, base immutability, loss descent, logging."""

import numpy as np
import pytest

from lorabound import train
from lorabound.errors import ConfigError, InputError
from lorabound.lora import drop_above, init_adapters
from lorabound.model import PROJECTIONS, ModelConfig, init_base, next_token_logits
from lorabound.train import TrainConfig, finetune_lora, pretrain, write_train_log

from helpers import randomize_adapters, randomize_weights, rel_error
from oracles import train_step_oracle

MICRO = ModelConfig(n_layers=2, d_model=8, n_heads=2, d_ff=16,
                    vocab_size=16, max_seq=8)

FAST = TrainConfig(lr=1e-2, epochs=2, batch=4, seed=0)


def tiny_corpus(seed=0, n=24):
    # repeated short patterns a small model can memorize quickly
    rng = np.random.default_rng(seed)
    seqs = []
    for _ in range(n):
        start = int(rng.integers(4, 10))
        seqs.append([start, start + 1, start + 2, start + 3])
    return seqs


def tiny_pairs():
    # constant-target pairs: adapters only have to shift the output
    # distribution, which even attention-only factors can do
    return [([a, b], [9]) for a in range(4, 8) for b in range(4, 8)]


def snapshot(weights):
    return {k: v.copy() for k, v in weights.tensors.items()}


def assert_identical(tensors, snap):
    assert set(tensors) == set(snap)
    for k in snap:
        assert np.array_equal(tensors[k], snap[k]), f"{k} changed"


class TestTrainConfig:
    def test_defaults_validate(self):
        TrainConfig().validate()

    @pytest.mark.parametrize("bad", [
        {"lr": 0.0}, {"lr": -1e-3}, {"epochs": 0}, {"batch": 0},
        {"grad_clip": -0.5}, {"seed": -1},
    ])
    def test_invalid_fields(self, bad):
        with pytest.raises(ConfigError):
            TrainConfig(**bad).validate()


class TestPretrain:
    def test_loss_decreases(self):
        _, hist = pretrain(MICRO, TrainConfig(lr=1e-2, epochs=8, batch=8),
                           tiny_corpus())
        first = np.mean([h[2] for h in hist[:3]])
        last = np.mean([h[2] for h in hist[-3:]])
        assert last < 0.5 * first

    def test_history_shape(self):
        corpus = tiny_corpus(n=10)
        _, hist = pretrain(MICRO, TrainConfig(epochs=3, batch=4), corpus)
        steps_per_epoch = -(-len(corpus) // 4)
        assert len(hist) == 3 * steps_per_epoch
        assert hist[0][:2] == (1, 1)
        assert hist[-1][0] == 3

    def test_deterministic(self):
        w1, h1 = pretrain(MICRO, FAST, tiny_corpus())
        w2, h2 = pretrain(MICRO, FAST, tiny_corpus())
        assert h1 == h2
        for k in w1.tensors:
            assert np.array_equal(w1.tensors[k], w2.tensors[k])

    def test_seed_changes_run(self):
        _, h1 = pretrain(MICRO, FAST, tiny_corpus())
        _, h2 = pretrain(MICRO, TrainConfig(lr=1e-2, epochs=2, batch=4, seed=9),
                         tiny_corpus())
        assert h1 != h2

    def test_empty_corpus(self):
        with pytest.raises(InputError):
            pretrain(MICRO, FAST, [])

    def test_short_sequence(self):
        with pytest.raises(InputError):
            pretrain(MICRO, FAST, [[5]])

    def test_over_long_sequence(self):
        with pytest.raises(InputError):
            pretrain(MICRO, FAST, [list(range(4, 14))])


class TestFinetune:
    def test_base_weights_never_change(self):
        base, _ = pretrain(MICRO, FAST, tiny_corpus())
        snap = snapshot(base)
        finetune_lora(base, tiny_pairs(), FAST)
        assert_identical(base.tensors, snap)

    def test_loss_decreases(self):
        base, _ = pretrain(MICRO, FAST, tiny_corpus())
        # full batch keeps every history entry comparable
        _, hist = finetune_lora(base, tiny_pairs(),
                                TrainConfig(lr=1e-2, epochs=20, batch=16))
        assert hist[-1][2] < 0.85 * hist[0][2]

    def test_adapters_bound_to_base(self):
        base, _ = pretrain(MICRO, FAST, tiny_corpus())
        lset, _ = finetune_lora(base, tiny_pairs(), FAST)
        assert lset.fingerprint == base.fingerprint()

    def test_deterministic(self):
        base, _ = pretrain(MICRO, FAST, tiny_corpus())
        a, ha = finetune_lora(base, tiny_pairs(), FAST)
        b, hb = finetune_lora(base, tiny_pairs(), FAST)
        assert ha == hb
        for key in a.adapters:
            assert np.array_equal(a.adapters[key].a, b.adapters[key].a)
            assert np.array_equal(a.adapters[key].b, b.adapters[key].b)

    def test_training_changes_logits(self):
        base, _ = pretrain(MICRO, FAST, tiny_corpus())
        lset, _ = finetune_lora(base, tiny_pairs(),
                                TrainConfig(lr=3e-2, epochs=4, batch=4))
        ids = np.array([5, 6])
        plain = next_token_logits(base, None, ids)
        tuned = next_token_logits(base, lset, ids)
        assert not np.allclose(plain, tuned)

    def test_existing_adapters_are_trained_in_place(self):
        base, _ = pretrain(MICRO, FAST, tiny_corpus())
        lset = init_adapters(MICRO, seed=3)
        out, _ = finetune_lora(base, tiny_pairs(), FAST, adapters=lset)
        assert out is lset

    def test_rank_and_targets_pass_through(self):
        base, _ = pretrain(MICRO, FAST, tiny_corpus())
        lset, _ = finetune_lora(base, tiny_pairs(), FAST,
                                init_adapters(MICRO, targets=("q", "k", "v"), rank=2,
                                              alpha=4.0))
        assert lset.rank == 2 and lset.alpha == 4.0
        assert lset.targets == ("q", "k", "v")

    def test_loss_counts_only_reference_positions(self, monkeypatch):
        base, _ = pretrain(MICRO, FAST, tiny_corpus())
        masks, real = [], train.loss_and_grads

        def spy(weights, adapters, inputs, targets, mask, **kwargs):
            masks.append(mask.copy())
            return real(weights, adapters, inputs, targets, mask, **kwargs)

        monkeypatch.setattr(train, "loss_and_grads", spy)
        finetune_lora(base, [([4, 5, 6], [7, 8])] * 4, TrainConfig(epochs=1, batch=4))
        # inputs 4 5 6 7 predict 5 6 7 8: only the targets 7 and 8 count
        assert [m.tolist() for m in masks] == [[[False, False, True, True]] * 4]

    def test_empty_dataset(self):
        base, _ = pretrain(MICRO, FAST, tiny_corpus())
        with pytest.raises(InputError):
            finetune_lora(base, [], FAST)

    def test_empty_reference(self):
        base, _ = pretrain(MICRO, FAST, tiny_corpus())
        with pytest.raises(InputError):
            finetune_lora(base, [([4, 5], [])], FAST)

    def test_over_long_pair(self):
        base, _ = pretrain(MICRO, FAST, tiny_corpus())
        with pytest.raises(InputError):
            finetune_lora(base, [([4, 5, 6, 7, 8], [9, 10, 11, 12])], FAST)


class TestFinetunePartial:
    def test_upper_layers_hold_no_adapters(self):
        base, _ = pretrain(MICRO, FAST, tiny_corpus())
        lset, _ = finetune_lora(base, tiny_pairs(), FAST, drop_above(init_adapters(MICRO), 1))
        layers = {layer for layer, _ in lset.adapters}
        assert layers == {1}

    def test_matches_drop_of_fresh_init_before_training(self):
        # the partial run must start from the same factors a drop would keep
        fresh = drop_above(init_adapters(MICRO, seed=0), 1)
        base = init_base(MICRO, seed=0)
        lset, _ = finetune_lora(base, tiny_pairs(), TrainConfig(epochs=1, batch=16),
                                drop_above(init_adapters(MICRO), 1))
        for key in lset.adapters:
            assert fresh.adapters[key].a.shape == lset.adapters[key].a.shape

    def test_keep_zero_trains_nothing_useful_but_runs(self):
        base, _ = pretrain(MICRO, FAST, tiny_corpus())
        lset, _ = finetune_lora(base, tiny_pairs(), FAST, drop_above(init_adapters(MICRO), 0))
        assert lset.adapters == {}

    def test_out_of_range(self):
        base, _ = pretrain(MICRO, FAST, tiny_corpus())
        with pytest.raises(InputError):
            finetune_lora(base, tiny_pairs(), FAST, drop_above(init_adapters(MICRO), 3))
        with pytest.raises(InputError):
            finetune_lora(base, tiny_pairs(), FAST, drop_above(init_adapters(MICRO), -1))


def shape_spy(monkeypatch):
    """Record the input shape of every loss_and_grads call training makes."""
    shapes, real = [], train.loss_and_grads

    def spy(weights, adapters, inputs, *args, **kwargs):
        shapes.append(np.shape(inputs))
        return real(weights, adapters, inputs, *args, **kwargs)

    monkeypatch.setattr(train, "loss_and_grads", spy)
    return shapes


class TestChunkedStep:
    """Chunked, padded training steps against one backward per sequence."""

    LONG = ModelConfig(n_layers=2, d_model=8, n_heads=2, d_ff=16,
                       vocab_size=16, max_seq=128)

    def test_pretrain_in_one_row_chunks_is_the_oracle_bit_for_bit(self, monkeypatch):
        # packed-length sequences leave room for one row per backward
        rng = np.random.default_rng(1)
        corpus = [rng.integers(4, 16, size=int(rng.integers(100, 129))).tolist()
                  for _ in range(10)]
        tcfg = TrainConfig(lr=1e-2, epochs=2, batch=4, seed=2)
        shapes = shape_spy(monkeypatch)
        weights, history = pretrain(self.LONG, tcfg, corpus)
        assert len(shapes) == 2 * len(corpus)
        assert all(rows == 1 for rows, _ in shapes)
        monkeypatch.setattr(train, "_batched_step", train_step_oracle)
        want_weights, want_history = pretrain(self.LONG, tcfg, corpus)
        assert history == want_history
        assert_identical(weights.tensors, snapshot(want_weights))

    def test_float64_finetune_matches_the_oracle(self, monkeypatch):
        cfg = ModelConfig(n_layers=2, d_model=8, n_heads=2, d_ff=16,
                          vocab_size=16, max_seq=64)
        base = randomize_weights(init_base(cfg, seed=3).astype(np.float64),
                                 np.random.default_rng(4))
        rng = np.random.default_rng(5)
        pairs = [(rng.integers(4, 16, size=int(rng.integers(2, 50))).tolist(),
                  rng.integers(4, 16, size=int(rng.integers(1, 14))).tolist())
                 for _ in range(19)]
        tcfg = TrainConfig(lr=1e-2, epochs=2, batch=8, seed=6)

        def run():
            lset = init_adapters(cfg, targets=PROJECTIONS, rank=2, seed=7)
            randomize_adapters(lset, np.random.default_rng(8), dtype=np.float64)
            return finetune_lora(base, pairs, tcfg, adapters=lset)

        shapes = shape_spy(monkeypatch)
        got, history = run()
        # the chunks the rule gives, from the same shuffle the loop draws
        inputs = [len(p) + len(r) - 1 for p, r in pairs]
        order_rng, want_shapes = np.random.default_rng(tcfg.seed), []
        for _ in range(tcfg.epochs):
            order = order_rng.permutation(len(pairs))
            for start in range(0, len(pairs), tcfg.batch):
                lengths = [inputs[i] for i in order[start:start + tcfg.batch]]
                rows = max(1, train.TRAIN_CHUNK_POSITIONS // max(lengths))
                want_shapes += [(len(chunk), max(chunk)) for chunk in
                                (lengths[lo:lo + rows] for lo in range(0, len(lengths), rows))]
        assert shapes == want_shapes
        assert len(shapes) > len(history) and max(rows for rows, _ in shapes) > 1

        monkeypatch.setattr(train, "_batched_step", train_step_oracle)
        want, want_history = run()
        for (_, _, loss), (_, _, want_loss) in zip(history, want_history):
            assert rel_error(loss, want_loss) < 1e-6
        for key, ad in got.adapters.items():
            assert rel_error(ad.a, want.adapters[key].a) < 1e-6, key
            assert rel_error(ad.b, want.adapters[key].b) < 1e-6, key


class TestTrainLog:
    def test_tsv_round_trip(self, tmp_path):
        path = tmp_path / "log.tsv"
        hist = [(1, 1, 2.5), (1, 2, 2.25), (2, 3, 1.0 / 3.0)]
        write_train_log(path, hist)
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch\tstep\tloss"
        assert len(lines) == 4
        epoch, step, loss = lines[3].split("\t")
        assert (int(epoch), int(step), float(loss)) == hist[2]

    def test_log_path_argument(self, tmp_path):
        path = tmp_path / "pre.tsv"
        _, hist = pretrain(MICRO, TrainConfig(epochs=1, batch=8),
                           tiny_corpus(n=8), log_path=path)
        assert len(path.read_text().splitlines()) == len(hist) + 1
