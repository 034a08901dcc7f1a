"""Training loops: determinism, base immutability, loss descent, logging."""

import dataclasses
import multiprocessing
import os
import platform
import subprocess
import sys
import textwrap
import weakref
from pathlib import Path

import numpy as np
import pytest

from lorabound import train, workers
from lorabound.errors import CompatibilityError, ConfigError, InputError
from lorabound.lora import drop_above, init_adapters
from lorabound.model import PROJECTIONS, ModelConfig, init_base, next_token_logits
from lorabound.train import GRAD_CLIP, TrainConfig, finetune_lora, pretrain, write_train_log

from helpers import randomize_adapters, randomize_weights, rel_error, worker_spy
from oracles import train_step_oracle

MICRO = ModelConfig(n_layers=2, d_model=8, n_heads=2, d_ff=16,
                    vocab_size=16, max_seq=8)

FAST = TrainConfig(lr=1e-2, epochs=2, batch=4, seed=0)


def ORACLE_STEP(examples, grads, params, state):
    """The oracle step in train._batched_step's place, at the loop's one
    ceiling; a one-chunk call of the run's grads runs in this process."""
    def grad_fn(*chunk):
        out = []
        grads([chunk], lambda rows, loss, g: out.append((loss, g)))
        return out[0]

    return train_step_oracle(examples, grad_fn, params, state, GRAD_CLIP)


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


def fresh():
    """A fresh default set on every layer, as `finetune` builds it for seed 0."""
    return init_adapters(MICRO, seed=0)


def snapshot(weights):
    return {k: v.copy() for k, v in weights.tensors.items()}


def assert_identical(tensors, snap):
    assert set(tensors) == set(snap)
    for k in snap:
        assert np.array_equal(tensors[k], snap[k]), f"{k} changed"


class TestTrainConfig:
    def test_defaults_validate(self):
        TrainConfig()

    @pytest.mark.parametrize("bad", [
        {"lr": 0.0}, {"lr": -1e-3}, {"epochs": 0}, {"batch": 0}, {"seed": -1},
    ])
    def test_invalid_fields(self, bad):
        with pytest.raises(ConfigError):
            TrainConfig(**bad)


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
        finetune_lora(base, tiny_pairs(), FAST, fresh())
        assert_identical(base.tensors, snap)

    def test_loss_decreases(self):
        base, _ = pretrain(MICRO, FAST, tiny_corpus())
        # full batch keeps every history entry comparable
        _, hist = finetune_lora(base, tiny_pairs(),
                                TrainConfig(lr=1e-2, epochs=20, batch=16), fresh())
        assert hist[-1][2] < 0.85 * hist[0][2]

    def test_adapters_bound_to_base(self):
        base, _ = pretrain(MICRO, FAST, tiny_corpus())
        lset, _ = finetune_lora(base, tiny_pairs(), FAST, fresh())
        assert lset.fingerprint == base.fingerprint()

    def test_deterministic(self):
        base, _ = pretrain(MICRO, FAST, tiny_corpus())
        a, ha = finetune_lora(base, tiny_pairs(), FAST, fresh())
        b, hb = finetune_lora(base, tiny_pairs(), FAST, fresh())
        assert ha == hb
        for key in a.adapters:
            assert np.array_equal(a.adapters[key].a, b.adapters[key].a)
            assert np.array_equal(a.adapters[key].b, b.adapters[key].b)

    def test_training_changes_logits(self):
        base, _ = pretrain(MICRO, FAST, tiny_corpus())
        lset, _ = finetune_lora(base, tiny_pairs(),
                                TrainConfig(lr=3e-2, epochs=4, batch=4), fresh())
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
        lset, _ = finetune_lora(base, tiny_pairs(), FAST, dataclasses.replace(
            init_adapters(MICRO, targets=("q", "k", "v"), rank=2), alpha=4.0))
        assert lset.rank == 2 and lset.alpha == 4.0
        assert lset.targets == ("q", "k", "v")

    def test_loss_counts_only_reference_positions(self, monkeypatch):
        base, _ = pretrain(MICRO, FAST, tiny_corpus())
        masks, real = [], train.loss_and_grads

        def spy(weights, adapters, inputs, targets, mask, **kwargs):
            masks.append(mask.copy())
            return real(weights, adapters, inputs, targets, mask, **kwargs)

        monkeypatch.setattr(train, "loss_and_grads", spy)
        monkeypatch.setattr(workers, "usable_cpus", lambda: 1)   # a worker's calls go unseen
        finetune_lora(base, [([4, 5, 6], [7, 8])] * 4, TrainConfig(epochs=1, batch=4), fresh())
        # inputs 4 5 6 7 predict 5 6 7 8: only the targets 7 and 8 count
        assert [m.tolist() for m in masks] == [[[False, False, True, True]] * 4]

    def test_empty_dataset(self):
        base, _ = pretrain(MICRO, FAST, tiny_corpus())
        with pytest.raises(InputError):
            finetune_lora(base, [], FAST, fresh())

    def test_empty_reference(self):
        base, _ = pretrain(MICRO, FAST, tiny_corpus())
        with pytest.raises(InputError):
            finetune_lora(base, [([4, 5], [])], FAST, fresh())

    def test_over_long_pair(self):
        base, _ = pretrain(MICRO, FAST, tiny_corpus())
        with pytest.raises(InputError):
            finetune_lora(base, [([4, 5, 6, 7, 8], [9, 10, 11, 12])], FAST, fresh())

    @pytest.mark.parametrize("other", [
        ModelConfig(n_layers=2, d_model=16, n_heads=2, d_ff=16, vocab_size=16, max_seq=8),
        ModelConfig(n_layers=3, d_model=8, n_heads=2, d_ff=16, vocab_size=16, max_seq=8),
    ], ids=["d_model 16", "3 layers"])
    def test_a_set_for_another_model_is_rejected_before_any_compute(self, monkeypatch,
                                                                    other):
        def no_compute(*args, **kwargs):
            raise AssertionError("a set for another model reached training")

        monkeypatch.setattr(train, "loss_and_grads", no_compute)
        monkeypatch.setattr(train, "_Grads", no_compute)
        monkeypatch.setattr(workers, "usable_cpus", lambda: 2)
        lset = init_adapters(other)
        fingerprint = lset.fingerprint
        with pytest.raises(CompatibilityError):
            finetune_lora(init_base(MICRO, seed=0), tiny_pairs(), FAST, lset)
        assert lset.fingerprint == fingerprint


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

    def test_keep_zero_is_rejected_before_any_compute(self, tmp_path, monkeypatch):
        base, _ = pretrain(MICRO, FAST, tiny_corpus())

        def no_compute(*args, **kwargs):
            raise AssertionError("a set with no adapters reached a training step")

        monkeypatch.setattr(train, "loss_and_grads", no_compute)
        log = tmp_path / "log.tsv"
        with pytest.raises(InputError, match="holds no adapters"):
            finetune_lora(base, tiny_pairs(), FAST, drop_above(init_adapters(MICRO), 0),
                          log_path=log)
        assert not log.exists()

    def test_out_of_range(self):
        base, _ = pretrain(MICRO, FAST, tiny_corpus())
        with pytest.raises(InputError):
            finetune_lora(base, tiny_pairs(), FAST, drop_above(init_adapters(MICRO), 3))
        with pytest.raises(InputError):
            finetune_lora(base, tiny_pairs(), FAST, drop_above(init_adapters(MICRO), -1))


def shape_spy(monkeypatch):
    """Record the input shape of every loss_and_grads call training makes;
    training runs in this process alone, since a worker's calls go unseen."""
    shapes, real = [], train.loss_and_grads

    def spy(weights, adapters, inputs, *args, **kwargs):
        shapes.append(np.shape(inputs))
        return real(weights, adapters, inputs, *args, **kwargs)

    monkeypatch.setattr(train, "loss_and_grads", spy)
    monkeypatch.setattr(workers, "usable_cpus", lambda: 1)
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
        monkeypatch.setattr(train, "_batched_step", ORACLE_STEP)
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

        monkeypatch.setattr(train, "_batched_step", ORACLE_STEP)
        want, want_history = run()
        for (_, _, loss), (_, _, want_loss) in zip(history, want_history):
            assert rel_error(loss, want_loss) < 1e-6
        for key, ad in got.adapters.items():
            assert rel_error(ad.a, want.adapters[key].a) < 1e-6, key
            assert rel_error(ad.b, want.adapters[key].b) < 1e-6, key


class TestStepMemory:
    def test_a_chunks_gradients_are_gone_before_the_next_chunk_runs(self, monkeypatch):
        # four one-row chunks; each chunk's arrays either become the step
        # total (the first of their name) or are folded in and dropped
        cfg = TestChunkedStep.LONG
        weights = init_base(cfg, seed=1)
        rng = np.random.default_rng(2)
        examples = []
        for _ in range(4):
            ids = rng.integers(4, 16, size=int(rng.integers(100, 129)))
            examples.append((ids[:-1], ids[1:], np.ones(ids.size - 1, dtype=bool)))
        adopted, folded, checked = set(), [], []
        real = train.loss_and_grads

        def spy(*args):
            checked.append([r() is None for r in folded])
            loss, grads = real(*args)
            for name, g in grads.items():
                if name in adopted:
                    folded.append(weakref.ref(g))
                adopted.add(name)
            return loss, grads

        monkeypatch.setattr(train, "loss_and_grads", spy)
        monkeypatch.setattr(workers, "usable_cpus", lambda: 1)
        state = train.AdamState(lr=1e-3)
        grads = train._Grads(weights, None, weights.tensors)
        train._batched_step(examples, grads, weights.tensors, state)
        assert [len(c) for c in checked] == [0, 0, len(weights.tensors),
                                             2 * len(weights.tensors)]
        assert all(all(c) for c in checked)

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="sets glibc's malloc")
    def test_a_repeated_run_faults_no_pages_in(self):
        # a fresh process, so no earlier test has set its allocator; after
        # the first run the heap holds training's peak, and a run at the
        # defaults faults ~10k freed pages in again (a desk model, ~118-token rows)
        script = textwrap.dedent("""
            import resource
            from lorabound import workers
            from lorabound.model import ModelConfig
            from lorabound.tasks import gen_pretrain_corpus
            from lorabound.train import TrainConfig, pretrain
            corpus = gen_pretrain_corpus(0, n_tokens=1500, max_seq=128)
            # one process: a second run would fork its workers again
            workers.usable_cpus = lambda: 1
            def faults():
                before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                pretrain(ModelConfig(), TrainConfig(lr=1e-3, epochs=2, batch=8), corpus)
                return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
            faults()
            print(faults())
        """)
        src = str(Path(train.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              timeout=120, env={**os.environ, "PYTHONPATH": src,
                                                "OPENBLAS_NUM_THREADS": "1"})
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) < 256


def long_corpus(seed, n=10):
    """Packed-length sequences: one row per chunk, so a step has as many
    chunks as sequences."""
    rng = np.random.default_rng(seed)
    return [rng.integers(4, 16, size=int(rng.integers(100, 129))).tolist() for _ in range(n)]


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="trains in one process")
class TestWorkerProcesses:
    """A step's chunks dealt to forked workers, summed here in chunk order."""

    def test_float32_pretrain_is_the_oracle_at_1_2_and_3_processes(self, monkeypatch):
        corpus = long_corpus(11)
        tcfg = TrainConfig(lr=1e-2, epochs=2, batch=6, seed=12)
        calls, real = [], train.loss_and_grads

        def spy(*args):
            calls.append(args[2].shape)    # in this process only: a worker has its own list
            return real(*args)

        monkeypatch.setattr(train, "loss_and_grads", spy)
        runs = []
        for n in (1, 2, 3):
            monkeypatch.setattr(workers, "usable_cpus", lambda n=n: n)
            calls.clear()
            runs.append(pretrain(TestChunkedStep.LONG, tcfg, corpus))
            # six chunks a step, then four: this process runs chunks 0, n, 2n, ...
            assert len(calls) == tcfg.epochs * (-(-6 // n) + -(-4 // n))
        monkeypatch.setattr(train, "_batched_step", ORACLE_STEP)
        want_weights, want_history = pretrain(TestChunkedStep.LONG, tcfg, corpus)
        for weights, history in runs:
            assert weights.tensors["head"].dtype == np.float32
            assert history == want_history
            assert_identical(weights.tensors, snapshot(want_weights))

    def test_finetune_is_the_same_bytes_at_1_2_and_3_processes(self, monkeypatch):
        cfg = TestChunkedStep.LONG
        base = randomize_weights(init_base(cfg, seed=13).astype(np.float64),
                                 np.random.default_rng(14))
        rng = np.random.default_rng(15)
        pairs = [(rng.integers(4, 16, size=int(rng.integers(2, 50))).tolist(),
                  rng.integers(4, 16, size=int(rng.integers(1, 14))).tolist())
                 for _ in range(23)]
        tcfg = TrainConfig(lr=1e-2, epochs=2, batch=12, seed=16)

        def run():
            lset = init_adapters(cfg, targets=PROJECTIONS, rank=2, seed=17)
            randomize_adapters(lset, np.random.default_rng(18), dtype=np.float64)
            return finetune_lora(base, pairs, tcfg, adapters=lset)

        runs = []
        for n in (1, 2, 3):
            monkeypatch.setattr(workers, "usable_cpus", lambda n=n: n)
            runs.append(run())
        monkeypatch.setattr(train, "_batched_step", ORACLE_STEP)
        want, want_history = run()
        first, first_history = runs[0]
        for got, history in runs:
            assert history == first_history
            for key, ad in got.adapters.items():
                assert ad.a.tobytes() == first.adapters[key].a.tobytes(), key
                assert ad.b.tobytes() == first.adapters[key].b.tobytes(), key
                assert rel_error(ad.a, want.adapters[key].a) < 1e-6, key
                assert rel_error(ad.b, want.adapters[key].b) < 1e-6, key
            for (_, _, loss), (_, _, want_loss) in zip(history, want_history):
                assert rel_error(loss, want_loss) < 1e-6

    def test_workers_exit_when_their_run_ends(self, monkeypatch):
        mask = os.sched_getaffinity(0)
        monkeypatch.setattr(workers, "usable_cpus", lambda: 3)
        engines = worker_spy(monkeypatch)
        pretrain(MICRO, FAST, tiny_corpus())
        assert [proc.exitcode for proc in engines[0].procs] == [0, 0]
        assert os.sched_getaffinity(0) == mask      # training never touches the mask

    @pytest.mark.parametrize("guard", ["mixed dtypes", "no affinity API"])
    def test_a_guarded_run_trains_in_one_process(self, monkeypatch, guard):
        cfg = TestChunkedStep.LONG
        base = init_base(cfg, seed=23)      # float32
        rng = np.random.default_rng(24)
        pairs = [(rng.integers(4, 16, size=40).tolist(), rng.integers(4, 16, size=8).tolist())
                 for _ in range(12)]
        tcfg = TrainConfig(lr=1e-2, epochs=2, batch=12, seed=25)    # three chunks a step
        dtype = np.float64 if guard == "mixed dtypes" else np.float32
        rule, engines = workers.usable_cpus, worker_spy(monkeypatch)

        def run(cpus):
            monkeypatch.setattr(workers, "usable_cpus", cpus)
            lset = randomize_adapters(init_adapters(cfg, rank=2, seed=26),
                                      np.random.default_rng(27), dtype=dtype)
            return finetune_lora(base, pairs, tcfg, adapters=lset)

        want, want_history = run(lambda: 1)
        if guard == "no affinity API":      # the CPU rule itself counts one CPU
            monkeypatch.delattr(os, "sched_getaffinity")
            got, history = run(rule)
        else:
            got, history = run(lambda: 2)
        assert [engine.procs for engine in engines] == [[], []]
        assert history == want_history
        for key, ad in got.adapters.items():
            assert ad.a.dtype == dtype
            assert ad.a.tobytes() == want.adapters[key].a.tobytes(), key
            assert ad.b.tobytes() == want.adapters[key].b.tobytes(), key

    def test_a_workers_input_error_is_raised_here_by_name(self, monkeypatch):
        weights = init_base(TestChunkedStep.LONG, seed=19)
        rows = [np.array(seq) for seq in long_corpus(20, n=2)]
        rows[1][50] = 99        # chunk 1, a worker's
        examples = [(ids[:-1], ids[1:], np.ones(ids.size - 1, dtype=bool)) for ids in rows]
        monkeypatch.setattr(workers, "usable_cpus", lambda: 2)
        grads = train._Grads(weights, None, weights.tensors)
        try:
            with pytest.raises(InputError, match=r"token ids must lie in \[0, 16\)") as info:
                train._batched_step(examples, grads, weights.tensors,
                                    train.AdamState(lr=1e-3))
        finally:
            grads.pool.close()
        assert info.value.__notes__ == ["raised in training worker 1"]

    def test_a_workers_runtime_warning_is_raised_here_by_name(self, monkeypatch):
        parent, real = os.getpid(), train.loss_and_grads

        def warns_in_a_worker(*args):
            if os.getpid() != parent:
                np.float64(1.0) / np.float64(0.0)   # the error::RuntimeWarning filter raises
            return real(*args)

        monkeypatch.setattr(train, "loss_and_grads", warns_in_a_worker)
        monkeypatch.setattr(workers, "usable_cpus", lambda: 2)
        with pytest.raises(RuntimeWarning, match="divide by zero") as info:
            pretrain(TestChunkedStep.LONG, TrainConfig(epochs=1, batch=2), long_corpus(21))
        assert info.value.__notes__ == ["raised in training worker 1"]

    def test_a_worker_that_dies_is_named_with_its_exit_code(self, monkeypatch):
        parent, real = os.getpid(), train.loss_and_grads

        def dies_in_a_worker(*args):
            if os.getpid() != parent:
                os._exit(3)
            return real(*args)

        monkeypatch.setattr(train, "loss_and_grads", dies_in_a_worker)
        monkeypatch.setattr(workers, "usable_cpus", lambda: 2)
        with pytest.raises(ChildProcessError,
                           match=r"training worker 1 \(pid \d+\) exited with code 3"):
            pretrain(TestChunkedStep.LONG, TrainConfig(epochs=1, batch=2), long_corpus(22))

    def test_an_interrupt_in_this_processs_chunk_stops_its_workers(self, monkeypatch):
        corpus = long_corpus(28)
        tcfg = TrainConfig(lr=1e-2, epochs=1, batch=6, seed=29)
        parent, real, calls = os.getpid(), train.loss_and_grads, []

        def interrupted(*args):
            if os.getpid() == parent:
                calls.append(args[2].shape)
                if len(calls) == 2:     # chunk 2, while the worker runs chunk 3
                    raise KeyboardInterrupt
            return real(*args)

        monkeypatch.setattr(train, "loss_and_grads", interrupted)
        monkeypatch.setattr(workers, "usable_cpus", lambda: 2)
        engines = worker_spy(monkeypatch)
        with pytest.raises(KeyboardInterrupt):
            pretrain(TestChunkedStep.LONG, tcfg, corpus)
        assert multiprocessing.active_children() == []
        assert [proc.exitcode for proc in engines[0].procs] == [0]   # a broken pipe is no error
        monkeypatch.setattr(train, "loss_and_grads", real)
        weights, history = pretrain(TestChunkedStep.LONG, tcfg, corpus)
        monkeypatch.setattr(workers, "usable_cpus", lambda: 1)
        want_weights, want_history = pretrain(TestChunkedStep.LONG, tcfg, corpus)
        assert history == want_history
        assert_identical(weights.tensors, snapshot(want_weights))


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
