"""Layer readout probing: invariants, sampling, drop levels."""

import os
import signal
import time

import numpy as np
import pytest

from lorabound import model, probe, workers
from lorabound.errors import InputError
from lorabound.lora import drop_above, init_adapters
from lorabound.model import (DECODE_BATCH_ROWS, ModelConfig, decode_batch,
                             forward_collect, init_base, next_token_logits)
from lorabound.numerics import softmax_rows
from lorabound.probe import (ProbeReport, probe_ground_truth, probe_under_drop,
                             samples_hash, select_samples)

from helpers import randomize_adapters, randomize_weights, worker_spy
from oracles import probe_oracle

MICRO = ModelConfig(n_layers=2, d_model=8, n_heads=2, d_ff=16,
                    vocab_size=16, max_seq=8)


def micro_setup(seed=0):
    base = randomize_weights(init_base(MICRO, seed=seed),
                             np.random.default_rng(seed + 50), std=0.3)
    lset = randomize_adapters(init_adapters(MICRO, seed=seed),
                              np.random.default_rng(seed + 60), std=0.3)
    lset.fingerprint = base.fingerprint()
    return base, lset


def micro_samples(n=12, seed=3):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        prompt = [int(t) for t in rng.integers(4, 16, size=3)]
        ref = [int(t) for t in rng.integers(4, 16, size=3)]
        out.append((prompt, ref))
    return out


class TestSelectSamples:
    def test_returns_all_when_budget_covers(self):
        items = list(range(5))
        assert select_samples(items, 5, seed=0) == items
        assert select_samples(items, 99, seed=0) == items

    def test_subsample_is_ordered_and_deterministic(self):
        items = list(range(100))
        a = select_samples(items, 10, seed=1)
        b = select_samples(items, 10, seed=1)
        assert a == b
        assert a == sorted(a)
        assert len(set(a)) == 10

    def test_different_seeds_differ(self):
        items = list(range(100))
        assert select_samples(items, 10, seed=1) != select_samples(items, 10, seed=2)

    def test_bad_budget(self):
        with pytest.raises(InputError):
            select_samples(list(range(10)), 0, seed=0)


class TestSamplesHash:
    def test_stable_and_sensitive(self):
        s = micro_samples()
        assert samples_hash(s) == samples_hash(list(s))
        reordered = s[1:] + s[:1]
        assert samples_hash(s) != samples_hash(reordered)
        bent = [(p, r) for p, r in s]
        bent[0] = (bent[0][0], list(bent[0][1][:-1]) + [5])
        assert samples_hash(s) != samples_hash(bent)


class TestProbeGroundTruth:
    def test_curve_shapes_and_ranges(self):
        base, lset = micro_setup()
        rep = probe_ground_truth(base, lset, micro_samples(), n_tokens=3)
        assert rep.gt_curve.shape == (2, 3)
        assert rep.max_curve.shape == (2, 3)
        assert np.all(rep.gt_curve > 0) and np.all(rep.gt_curve <= 1)
        assert rep.sample_count == 12

    def test_max_curve_dominates_gt_curve(self):
        base, lset = micro_setup()
        rep = probe_ground_truth(base, lset, micro_samples(), n_tokens=3)
        assert np.all(rep.max_curve >= rep.gt_curve)

    def test_final_layer_matches_model_output(self):
        # the last row of the curve must be the model's actual distribution
        base, lset = micro_setup()
        samples = micro_samples(n=5)
        rep = probe_ground_truth(base, lset, samples, n_tokens=1)
        direct = []
        for prompt, ref in samples:
            logits = next_token_logits(base, lset, prompt)
            direct.append(softmax_rows(logits[None, :])[0][ref[0]])
        assert abs(rep.gt_curve[-1, 0] - np.mean(direct)) < 1e-6

    def test_matches_single_sample_teacher_forcing(self):
        base, lset = micro_setup()
        sample = ([4, 5, 6], [7, 8, 9])
        rep = probe_ground_truth(base, lset, [sample], n_tokens=3)
        gt, _ = probe_oracle(base, lset, [sample], 3)
        assert np.allclose(rep.gt_curve, gt, rtol=0, atol=1e-12)

    def test_untrained_model_sits_near_uniform(self):
        base = init_base(MICRO, seed=0)
        rep = probe_ground_truth(base, None, micro_samples(), n_tokens=2)
        v = MICRO.vocab_size
        assert np.all(rep.gt_curve >= 1 / (3 * v))
        assert np.all(rep.gt_curve <= 3 / v)

    def test_deterministic(self):
        base, lset = micro_setup()
        a = probe_ground_truth(base, lset, select_samples(micro_samples(30), 10, seed=4),
                               n_tokens=3)
        b = probe_ground_truth(base, lset, select_samples(micro_samples(30), 10, seed=4),
                               n_tokens=3)
        assert np.array_equal(a.gt_curve, b.gt_curve)
        assert a.config == b.config

    def test_short_references_are_skipped(self):
        base, lset = micro_setup()
        samples = micro_samples(6) + [([4, 5], [6])]
        rep = probe_ground_truth(base, lset, samples, n_tokens=3)
        assert rep.sample_count == 6

    def test_all_short_is_an_error(self):
        base, lset = micro_setup()
        with pytest.raises(InputError):
            probe_ground_truth(base, lset, [([4, 5], [6])], n_tokens=3)

    def test_empty_set_is_an_error(self):
        base, lset = micro_setup()
        with pytest.raises(InputError):
            probe_ground_truth(base, lset, [], n_tokens=2)

    def test_empty_prompt_is_an_error(self):
        # no position precedes the first reference token to read it at
        base, lset = micro_setup()
        with pytest.raises(InputError, match="sample 6 has an empty prompt"):
            probe_ground_truth(base, lset, micro_samples(6) + [([], [6, 7, 8])], n_tokens=2)

    def test_bad_n_tokens(self):
        base, lset = micro_setup()
        with pytest.raises(InputError):
            probe_ground_truth(base, lset, micro_samples(), n_tokens=0)

    def test_descriptor_lands_in_config(self):
        base, lset = micro_setup()
        rep = probe_ground_truth(base, lset, micro_samples(), n_tokens=2,
                                 descriptor={"split": "validation"})
        assert rep.config["split"] == "validation"
        assert rep.config["base"] == base.fingerprint()
        assert rep.config["adapters"] == lset.content_hash()

    def test_an_item_that_is_not_a_sample_is_named(self):
        base, _ = micro_setup()
        with pytest.raises(InputError, match="item 0 is neither"):
            probe_ground_truth(base, None, [[1, 2, 3]])

    def test_adapterless_probe(self):
        base, _ = micro_setup()
        rep = probe_ground_truth(base, None, micro_samples(), n_tokens=2)
        assert rep.config["adapters"] is None


class TestProbeUnderDrop:
    def test_probes_share_the_sample_set(self):
        base, lset = micro_setup()
        out = probe_under_drop(base, lset, select_samples(micro_samples(30), 10, seed=0),
                               keeps=[0, 1, 2], n_tokens=2)
        assert [k for k, _ in out] == [0, 1, 2]
        hashes = {rep.config["samples_hash"] for _, rep in out}
        assert len(hashes) == 1

    def test_each_level_probes_the_dropped_set(self):
        base, lset = micro_setup()
        out = probe_under_drop(base, lset, micro_samples(), keeps=[1, 2], n_tokens=2)
        for k, rep in out:
            assert rep.config["adapters"] == drop_above(lset, k).content_hash()
            assert rep.config["keep_bottom"] == k

    def test_the_base_and_samples_are_hashed_once_per_probe(self, monkeypatch):
        base, lset = micro_setup()
        calls = {"weights_hash": 0, "samples_hash": 0}

        def counted(fn, key):
            def wrapper(*args):
                calls[key] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(model.BaseWeights, "weights_hash",
                            counted(model.BaseWeights.weights_hash, "weights_hash"))
        monkeypatch.setattr(probe, "samples_hash", counted(samples_hash, "samples_hash"))
        out = probe_under_drop(base, lset, micro_samples(), keeps=[0, 1, 2], n_tokens=2)
        assert calls == {"weights_hash": 1, "samples_hash": 1}
        assert {rep.config["base"] for _, rep in out} == {base.fingerprint()}

    def test_full_keep_matches_plain_probe(self):
        base, lset = micro_setup()
        out = probe_under_drop(base, lset, micro_samples(), keeps=[2], n_tokens=2)
        plain = probe_ground_truth(base, lset, micro_samples(), n_tokens=2)
        assert np.array_equal(out[0][1].gt_curve, plain.gt_curve)
        assert np.array_equal(out[0][1].max_curve, plain.max_curve)


class TestEngineAgainstOracle:
    """The batched, level-forking engine against one forward per sample and level."""

    CFG = ModelConfig(n_layers=4, d_model=8, n_heads=2, d_ff=16,
                      vocab_size=16, max_seq=12)

    def model_and_adapters(self, seed=0, cfg=None, std=0.4):
        cfg = cfg or self.CFG
        base = randomize_weights(init_base(cfg, seed=seed),
                                 np.random.default_rng(seed + 50), std=std)
        lset = init_adapters(cfg, targets=("q", "k", "v", "o", "up", "down"),
                             rank=2, seed=seed)
        lset = randomize_adapters(lset, np.random.default_rng(seed + 60), std=0.4)
        lset.fingerprint = base.fingerprint()
        return base, lset

    def samples(self, n, seed, prompt_lengths=(1, 7), ref_lengths=(3, 5)):
        rng = np.random.default_rng(seed)
        return [(rng.integers(4, 16, size=int(rng.integers(*prompt_lengths))).tolist(),
                 rng.integers(4, 16, size=int(rng.integers(*ref_lengths))).tolist())
                for _ in range(n)]

    def assert_matches(self, base, lset, samples, keeps, n_tokens):
        out = probe_under_drop(base, lset, samples, keeps=keeps, n_tokens=n_tokens)
        assert [k for k, _ in out] == list(keeps)
        for k, rep in out:
            gt, mx = probe_oracle(base, drop_above(lset, k), samples, n_tokens)
            np.testing.assert_array_equal(rep.gt_curve, gt, err_msg=f"keep {k}")
            np.testing.assert_array_equal(rep.max_curve, mx, err_msg=f"keep {k}")
        return out

    def test_ragged_lengths_at_every_level(self):
        base, lset = self.model_and_adapters()
        samples = self.samples(20, seed=1)
        assert len({len(p) for p, _ in samples}) > 3
        out = self.assert_matches(base, lset, samples, range(5), n_tokens=3)
        # the levels must differ, or this checks nothing about the fork
        assert len({rep.gt_curve.tobytes() for _, rep in out}) == 5

    @pytest.mark.parametrize("n_tokens", [1, 2, 3, 4])
    def test_desk_width(self, n_tokens):
        # d_model 64 and 4 heads put the pruned top block's products on the
        # BLAS kernels the desk model uses; prompts of 2 to 120 tokens give
        # batches of one row (one query row per row at n_tokens 1) and of many
        cfg = ModelConfig(n_layers=2, d_model=64, n_heads=4, d_ff=256,
                          vocab_size=512, max_seq=128)
        base, lset = self.model_and_adapters(seed=20 + n_tokens, cfg=cfg, std=0.3)
        rng = np.random.default_rng(n_tokens)
        lengths = [2, 3, 9, 41, 42, 42, 42, 64, 65, 65, 97, 124 - n_tokens]
        samples = [(rng.integers(4, 512, size=n).tolist(),
                    rng.integers(4, 512, size=n_tokens).tolist()) for n in lengths]
        self.assert_matches(base, lset, samples, [0, 1, 2], n_tokens=n_tokens)

    def test_more_rows_of_one_length_than_the_batch_cap(self, monkeypatch):
        base, lset = self.model_and_adapters(seed=2)
        samples = self.samples(2 * DECODE_BATCH_ROWS + 5, seed=3,
                               prompt_lengths=(5, 6))
        batches = []

        def spy(weights, adapters, tokens):
            batches.append(np.shape(tokens))
            return forward_collect(weights, adapters, tokens)

        monkeypatch.setattr(probe, "forward_collect", spy)
        monkeypatch.setattr(workers, "usable_cpus", lambda: 1)    # ordered calls
        self.assert_matches(base, lset, samples, [0, 2, 4], n_tokens=2)
        cap = DECODE_BATCH_ROWS
        assert batches == [(cap, 7), (cap, 7), (5, 7)]

    def test_short_references_are_skipped(self):
        base, lset = self.model_and_adapters(seed=4)
        samples = self.samples(18, seed=5, ref_lengths=(1, 5))
        long_enough = sum(len(r) >= 3 for _, r in samples)
        assert 0 < long_enough < len(samples)
        out = self.assert_matches(base, lset, samples, [1, 3], n_tokens=3)
        assert all(rep.sample_count == long_enough for _, rep in out)

    def test_unsorted_and_duplicate_levels(self):
        base, lset = self.model_and_adapters(seed=6)
        samples = self.samples(12, seed=7)
        out = self.assert_matches(base, lset, samples, [4, 0, 2, 0, 1, 4], n_tokens=2)
        first, second = out[1][1], out[3][1]
        np.testing.assert_array_equal(first.gt_curve, second.gt_curve)
        np.testing.assert_array_equal(first.max_curve, second.max_curve)
        assert first.sample_count == second.sample_count
        assert first.config == second.config

    @pytest.mark.parametrize("keeps", [[0], [0, 0]])
    def test_level_zero_alone(self, keeps):
        base, lset = self.model_and_adapters(seed=12)
        self.assert_matches(base, lset, self.samples(10, seed=13), keeps, n_tokens=2)

    def test_every_level_of_a_one_layer_model(self):
        cfg = ModelConfig(n_layers=1, d_model=8, n_heads=2, d_ff=16,
                          vocab_size=16, max_seq=12)
        base, lset = self.model_and_adapters(seed=14, cfg=cfg)
        self.assert_matches(base, lset, self.samples(10, seed=15), [0, 1], n_tokens=2)

    def test_sums_run_in_sample_order(self):
        # Peaked readouts put true-token probabilities from 1e-15 to 1 in one
        # cell, where the float64 sum depends on the order of its terms.
        base, lset = self.model_and_adapters(seed=1, std=8.0)
        samples = self.samples(20, seed=2)
        top = self.CFG.n_layers
        by_length = sorted(samples, key=lambda s: len(s[0]))    # the batch order
        gt, _ = probe_oracle(base, lset, samples, 3)
        assert not np.array_equal(gt, probe_oracle(base, lset, by_length, 3)[0])
        self.assert_matches(base, lset, samples, [0, 2, top], n_tokens=3)

    def test_single_probe_matches_the_oracle(self):
        base, lset = self.model_and_adapters(seed=8)
        samples = self.samples(21, seed=9)
        for adapters in (lset, drop_above(lset, 2), None):
            rep = probe_ground_truth(base, adapters, samples, n_tokens=3)
            gt, mx = probe_oracle(base, adapters, samples, 3)
            np.testing.assert_array_equal(rep.gt_curve, gt)
            np.testing.assert_array_equal(rep.max_curve, mx)

    def test_nan_adapter_on_the_top_layer_reaches_no_lower_level(self):
        base, lset = self.model_and_adapters(seed=10)
        top = self.CFG.n_layers
        for (layer, _), ad in lset.adapters.items():
            if layer == top:
                ad.a = np.full_like(ad.a, np.nan)
        samples = self.samples(15, seed=11)
        out = probe_under_drop(base, lset, samples, keeps=range(top + 1), n_tokens=2)
        for k, rep in out[:top]:
            assert np.isfinite(rep.gt_curve).all() and np.isfinite(rep.max_curve).all()
            gt, mx = probe_oracle(base, drop_above(lset, k), samples, 2)
            np.testing.assert_array_equal(rep.gt_curve, gt)
            np.testing.assert_array_equal(rep.max_curve, mx)
        full = out[top][1].gt_curve
        assert np.isfinite(full[:-1]).all() and np.isnan(full[-1]).all()

    def test_readouts_see_only_the_probed_positions(self, monkeypatch):
        # the full pass records every position, but the lens reads out only
        # the n_tokens probed ones of each row
        base, lset = self.model_and_adapters(seed=16)
        seen = []

        def spy(weights, h):
            seen.append(h.shape[-2])
            return model.lens_logits(weights, h)

        monkeypatch.setattr(probe, "lens_logits", spy)
        samples = self.samples(10, seed=17, prompt_lengths=(3, 7))
        probe_under_drop(base, lset, samples, keeps=[0, 2, 4], n_tokens=2)
        probe_ground_truth(base, lset, samples, n_tokens=2)
        assert seen and max(seen) == 2

    def test_batches_are_the_decoders(self, monkeypatch):
        # more rows of one length than DECODE_BATCH_ROWS, among other lengths
        rng = np.random.default_rng(18)
        lengths = [4] * (DECODE_BATCH_ROWS + 5) + [2] * 3 + [5] * 7 + [3]
        rng.shuffle(lengths)
        prompts = [[4 + i % 12, 4 + i // 12] + rng.integers(4, 16, size=n - 2).tolist()
                   for i, n in enumerate(lengths)]
        index_of = {tuple(p): i for i, p in enumerate(prompts)}
        expected = []       # by length, shortest first, runs of at most DECODE_BATCH_ROWS
        for length in sorted(set(lengths)):
            group = [i for i, n in enumerate(lengths) if n == length]
            expected += [group[lo:lo + DECODE_BATCH_ROWS]
                         for lo in range(0, len(group), DECODE_BATCH_ROWS)]
        assert len(expected) > len(set(lengths))

        base, lset = self.model_and_adapters(seed=19)
        probed, decoded = [], []

        def probe_spy(weights, adapters, tokens):
            probed.append([index_of[tuple(row[:-2])] for row in tokens.tolist()])
            return forward_collect(weights, adapters, tokens)

        def decode_spy(weights, adapters, ids, *args):
            decoded.append([index_of[tuple(row)] for row in ids.tolist()])
            return decode_rows(weights, adapters, ids, *args)

        decode_rows = model._decode_rows
        monkeypatch.setattr(probe, "forward_collect", probe_spy)
        monkeypatch.setattr(model, "_decode_rows", decode_spy)
        monkeypatch.setattr(workers, "usable_cpus", lambda: 1)    # ordered calls
        samples = [(p, rng.integers(4, 16, size=2).tolist()) for p in prompts]
        probe_ground_truth(base, lset, samples, n_tokens=2)
        decode_batch(base, lset, [(p, 4) for p in prompts], 1, None)
        assert probed == expected
        assert decoded == expected

    @pytest.mark.parametrize("keeps, n_tokens", [
        ([0, 2, 99], 2), ([1, -1], 2), ([1, 1.5], 2), ([0, None], 2), ([1, 2], 0)])
    def test_bad_request_fails_before_any_forward(self, monkeypatch, keeps, n_tokens):
        base, lset = self.model_and_adapters()

        def no_compute(*args, **kwargs):
            raise AssertionError("a forward ran before validation finished")

        monkeypatch.setattr(probe, "forward_collect", no_compute)
        monkeypatch.setattr(probe, "_forward", no_compute)
        with pytest.raises(InputError):
            probe_under_drop(base, lset, self.samples(4, seed=1), keeps=keeps,
                             n_tokens=n_tokens)


class Boom(Exception):
    """A failure raised in a probe worker; defined here so that it pickles."""


class TestWorkerPool:
    """The length batches run on the worker engine; its process count never
    shows in the output."""

    engine = TestEngineAgainstOracle()

    def inputs(self, seed=30):
        """Peaked readouts (see test_sums_run_in_sample_order), so a sum in any
        order but the samples' would show, over at least four length batches."""
        base, lset = self.engine.model_and_adapters(seed=seed, std=8.0)
        samples = self.engine.samples(24, seed=seed + 1)
        batches = list(model._length_batches([len(p) for p, _ in samples]))
        assert len(batches) >= 4 and batches[0][0] != batches[1][0]
        return base, lset, samples, batches

    def run(self, base, lset, samples):
        """probe_under_drop at every level, then probe_ground_truth, as comparable tuples."""
        levels = range(self.engine.CFG.n_layers + 1)
        reports = [rep for _, rep in probe_under_drop(base, lset, samples, keeps=levels,
                                                      n_tokens=3)]
        reports.append(probe_ground_truth(base, lset, samples, n_tokens=3))
        return [(rep.gt_curve.tobytes(), rep.max_curve.tobytes(), rep.sample_count,
                 rep.config) for rep in reports]

    def test_curves_are_the_same_at_any_worker_count(self, monkeypatch):
        base, lset, samples, batches = self.inputs()
        engines = worker_spy(monkeypatch)
        outputs = {}
        for cpus in (1, 2, 3):
            monkeypatch.setattr(workers, "usable_cpus", lambda n=cpus: n)
            outputs[cpus] = self.run(base, lset, samples)
        assert [len(engine.procs) for engine in engines] == [0, 0, 1, 1, 2, 2]
        assert outputs[2] == outputs[1]
        assert outputs[3] == outputs[1]
        for k, (gt, mx, count, _) in enumerate(outputs[1][:-1]):
            want_gt, want_mx = probe_oracle(base, drop_above(lset, k), samples, 3)
            assert gt == want_gt.tobytes() and mx == want_mx.tobytes(), f"keep {k}"
            assert count == len(samples)
        assert outputs[1][-1][:2] == outputs[1][-2][:2]     # ground truth = full keep

    def test_workers_are_capped_by_the_batch_count(self, monkeypatch):
        base, lset, samples, batches = self.inputs()
        engines = worker_spy(monkeypatch)
        monkeypatch.setattr(workers, "usable_cpus", lambda: len(batches) + 3)
        probe_ground_truth(base, lset, samples, n_tokens=3)
        assert [len(engine.procs) for engine in engines] == [len(batches) - 1]

    def test_usable_cpus_is_the_affinity_mask(self, monkeypatch):
        if hasattr(os, "sched_getaffinity"):
            assert workers.usable_cpus() == len(os.sched_getaffinity(0))
            monkeypatch.delattr(os, "sched_getaffinity")
        assert workers.usable_cpus() == 1      # no affinity API: nothing forks

    def test_batches_finishing_out_of_order(self, monkeypatch, tmp_path):
        base, lset, samples, batches = self.inputs()
        monkeypatch.setattr(workers, "usable_cpus", lambda: 1)
        serial = self.run(base, lset, samples)

        first, second = batches[0][1], batches[1][1]      # this process's, the worker's
        done = tmp_path / "second batch done"
        probe_batch = probe._probe_batch

        def spy(*args):
            batch = args[6]
            if batch == first:      # held until the worker has written its rows
                deadline = time.monotonic() + 30
                while not done.exists():
                    assert time.monotonic() < deadline, "the worker's batch never ran"
                    time.sleep(0.001)
                done.unlink()
            probe_batch(*args)
            if batch == second:
                done.touch()

        monkeypatch.setattr(probe, "_probe_batch", spy)
        monkeypatch.setattr(workers, "usable_cpus", lambda: 2)
        assert self.run(base, lset, samples) == serial

    def test_a_worker_exception_reaches_the_caller(self, monkeypatch):
        base, lset, samples, batches = self.inputs()
        width = batches[1][0] + 3      # prompt length + n_tokens of worker 1's batch

        def spy(weights, adapters, tokens):
            if tokens.shape[1] == width:
                raise Boom("batch failed")
            return forward_collect(weights, adapters, tokens)

        monkeypatch.setattr(probe, "forward_collect", spy)
        monkeypatch.setattr(workers, "usable_cpus", lambda: 2)
        with pytest.raises(Boom, match="batch failed") as info:
            probe_under_drop(base, lset, samples, keeps=[0, 2, 4], n_tokens=3)
        assert info.value.__notes__ == ["raised in probe worker 1"]

    def test_a_killed_worker_is_named(self, monkeypatch):
        base, lset, samples, _ = self.inputs()
        parent, real = os.getpid(), forward_collect

        def killed_in_a_worker(*args):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return real(*args)

        monkeypatch.setattr(probe, "forward_collect", killed_in_a_worker)
        monkeypatch.setattr(workers, "usable_cpus", lambda: 2)
        with pytest.raises(ChildProcessError,
                           match=r"probe worker 1 \(pid \d+\) exited with code -9"):
            probe_under_drop(base, lset, samples, keeps=[0, 2, 4], n_tokens=3)


class TestProbeReportDict:
    def test_mean_gt_by_layer(self):
        rep = ProbeReport(n_layers=2, n_tokens=2, sample_count=1,
                          gt_curve=np.array([[0.2, 0.4], [0.6, 0.8]]),
                          max_curve=np.ones((2, 2)))
        assert np.allclose(rep.mean_gt_by_layer(), [0.3, 0.7])
