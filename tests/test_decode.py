"""The batched, KV-cached decode engine against the full-forward oracle."""

import warnings

import numpy as np
import pytest

from lorabound import model
from lorabound.errors import InputError
from lorabound.lora import LoraAdapter, drop_above, init_adapters
from lorabound.model import DECODE_BATCH_ROWS, ModelConfig, decode_batch, init_base

from helpers import randomize_adapters, randomize_weights
from oracles import greedy_oracle

MICRO = ModelConfig(n_layers=3, d_model=8, n_heads=2, d_ff=16,
                    vocab_size=16, max_seq=12)
# a first differing token is forgiven only at a near-tie of the top two logits
TIE_GAP = 1e-5


def micro_setup(seed=0):
    base = randomize_weights(init_base(MICRO, seed=seed),
                             np.random.default_rng(seed + 50), std=0.6)
    lset = randomize_adapters(init_adapters(MICRO, targets=("q", "v", "up"),
                                            rank=2, seed=seed),
                              np.random.default_rng(seed + 60), std=0.6)
    lset.fingerprint = base.fingerprint()
    return base, lset


def ragged_prompts(n, seed=1, lo=1, hi=8):
    rng = np.random.default_rng(seed)
    return [rng.integers(0, MICRO.vocab_size, size=int(rng.integers(lo, hi))).tolist()
            for _ in range(n)]


def assert_matches_oracle(base, lset, rows, outs, max_new, stop_token):
    """Every row's tokens equal the oracle's, up to a reported near-tie flip."""
    for (prompt, keep), got in zip(rows, outs):
        dropped = drop_above(lset, keep)
        want = greedy_oracle(base, dropped, prompt, max_new, stop_token)
        if got == want:
            continue
        j = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
                 min(len(got), len(want)))
        logits = np.sort(model.next_token_logits(base, dropped, prompt + want[:j]))
        gap = float(logits[-1] - logits[-2])
        assert gap < TIE_GAP, (
            f"keep {keep}, prompt {prompt}: engine {got} != oracle {want} "
            f"from step {j}, top-2 logit gap {gap:.3g}")
        warnings.warn(f"near-tie flip at step {j} (top-2 gap {gap:.3g}) "
                      f"for keep {keep}, prompt {prompt}")


class TestAgainstOracle:
    def test_ragged_prompts_at_every_keep_level(self):
        base, lset = micro_setup()
        prompts = ragged_prompts(9)
        assert len({len(p) for p in prompts}) > 3
        rows = [(p, k) for k in range(MICRO.n_layers + 1) for p in prompts]
        outs = decode_batch(base, lset, rows, 4, None)
        assert all(len(o) == 4 for o in outs)
        assert_matches_oracle(base, lset, rows, outs, 4, None)
        # keep levels must matter, or this test checks nothing about gating
        assert len({tuple(o) for o in outs}) > len(prompts)

    def test_stop_token_ends_some_rows_only(self):
        base, lset = micro_setup(seed=2)
        prompts = ragged_prompts(12, seed=3)
        rows = [(p, MICRO.n_layers) for p in prompts]
        free = decode_batch(base, lset, rows, 5, None)
        # a token some rows emit and others never do
        stop = next(tok for tok in range(MICRO.vocab_size)
                    if 0 < sum(tok in o for o in free) < len(free))
        outs = decode_batch(base, lset, rows, 5, stop)
        assert_matches_oracle(base, lset, rows, outs, 5, stop)
        stopped = [o[-1] == stop for o in outs]
        assert any(stopped) and not all(stopped)
        for o, f in zip(outs, free):
            assert o == (f[:f.index(stop) + 1] if stop in f else f)

    def test_prompts_that_reach_max_seq(self):
        base, lset = micro_setup(seed=4)
        n = MICRO.max_seq
        prompts = ragged_prompts(6, seed=5, lo=n - 2, hi=n + 1)
        prompts.append([3] * n)
        rows = [(p, k) for k in (0, MICRO.n_layers) for p in prompts]
        outs = decode_batch(base, lset, rows, 6, None)
        for (prompt, _), out in zip(rows, outs):
            assert len(out) == n - len(prompt)
        assert_matches_oracle(base, lset, rows, outs, 6, None)

    def test_zero_budget_decodes_nothing(self):
        base, lset = micro_setup()
        rows = [(p, 1) for p in ragged_prompts(5)]
        assert decode_batch(base, lset, rows, 0, 2) == [[]] * 5

    def test_more_rows_than_the_batch_cap(self):
        base, lset = micro_setup(seed=6)
        prompts = ragged_prompts(2 * DECODE_BATCH_ROWS + 3, seed=7, lo=4, hi=6)
        rows = [(p, i % (MICRO.n_layers + 1)) for i, p in enumerate(prompts)]
        outs = decode_batch(base, lset, rows, 3, None)
        assert_matches_oracle(base, lset, rows, outs, 3, None)

    def test_row_alone_equals_row_in_batch(self):
        base, lset = micro_setup(seed=8)
        prompts = ragged_prompts(DECODE_BATCH_ROWS + 5, seed=9, lo=3, hi=5)
        rows = [(p, i % (MICRO.n_layers + 1)) for i, p in enumerate(prompts)]
        together = decode_batch(base, lset, rows, 5, 1)
        for row, out in zip(rows, together):
            assert decode_batch(base, lset, [row], 5, 1) == [out]

    def test_row_logits_alone_equal_in_batch_at_every_step(self, monkeypatch):
        # desk widths: there a 1-row BLAS product differs in the last bits
        # from the same row inside a larger one
        cfg = ModelConfig(n_layers=2, d_model=64, n_heads=4, d_ff=256,
                          vocab_size=512, max_seq=24)
        base = randomize_weights(init_base(cfg, seed=3), np.random.default_rng(4))
        lset = randomize_adapters(init_adapters(cfg, targets=("q", "v"), rank=8, seed=3),
                                  np.random.default_rng(5))
        rng = np.random.default_rng(6)
        prompts = [rng.integers(4, 512, size=6).tolist() for _ in range(40)]
        free = decode_batch(base, lset, [(p, 2) for p in prompts], 8, None)
        target = free[0]
        # batch-mates that stop at their first token, which the target never emits
        by_stop: dict[int, list[int]] = {}
        for i, out in enumerate(free[1:], 1):
            if out[0] not in target:
                by_stop.setdefault(out[0], []).append(i)
        stop, mates = max(by_stop.items(), key=lambda kv: len(kv[1]))
        logits, real = [], model.lens_logits

        def spy(weights, h):
            out = real(weights, h)
            logits.append(out[0].copy())    # the target is row 0 while it decodes
            return out

        monkeypatch.setattr(model, "lens_logits", spy)
        alone = decode_batch(base, lset, [(prompts[0], 2)], 8, stop)
        alone_logits, logits[:] = list(logits), []
        batch = decode_batch(base, lset, [(prompts[i], 2) for i in [0, *mates]], 8, stop)
        assert alone[0] == batch[0] == target
        assert all(len(out) == 1 for out in batch[1:])
        assert len(logits) == len(alone_logits) == 8
        for step, (a, b) in enumerate(zip(alone_logits, logits)):
            np.testing.assert_array_equal(a, b, err_msg=f"step {step}")

    def test_generate_greedy_is_a_full_keep_row(self):
        base, lset = micro_setup(seed=10)
        for prompt in ragged_prompts(4, seed=11):
            assert model.generate_greedy(base, lset, prompt, 4, 1) == \
                decode_batch(base, lset, [(prompt, MICRO.n_layers)], 4, 1)[0]


class TestExactGating:
    def nan_above_one(self, lset):
        for (layer, _), ad in lset.adapters.items():
            if layer > 1:
                ad.a = np.full_like(ad.a, np.nan)
                ad.b = np.full_like(ad.b, np.inf)
        return lset

    def test_nan_adapter_above_the_keep_level_is_never_touched(self):
        base, lset = micro_setup(seed=12)
        poisoned = self.nan_above_one(micro_setup(seed=12)[1])
        prompts = ragged_prompts(8, seed=13)
        for keep in (0, 1):
            rows = [(p, keep) for p in prompts]
            clean = decode_batch(base, drop_above(lset, keep), rows, 4, None)
            # mixed with rows that do use the poisoned layers
            mixed = rows + [(p, MICRO.n_layers) for p in prompts]
            assert decode_batch(base, poisoned, mixed, 4, None)[:len(rows)] == clean

    def test_unselected_rows_are_bitwise_the_base(self):
        base, lset = micro_setup(seed=14)
        poisoned = self.nan_above_one(lset)
        ids = np.array(ragged_prompts(4, seed=15, lo=5, hi=6))
        keep = np.array([0, 1, 3, 1])
        _, gated, _ = model._forward(base, poisoned, ids, keep=keep)
        _, plain, _ = model._forward(base, None, ids, keep=keep)
        _, first, _ = model._forward(base, drop_above(poisoned, 1), ids)
        np.testing.assert_array_equal(gated[0], plain[0])
        np.testing.assert_array_equal(gated[[1, 3]], first[[1, 3]])
        assert np.isnan(gated[2]).all()


class TestRowInvariance:
    """A sequence's projection gets the same bits alone as in a batch, at desk dims.

    [16, 42] is a batch of desk kvqa prompts; the low-rank path crosses
    OpenBLAS's kernel switch there as one flat product for a rank-8
    down-projection (d_in 256) and for rank 2.
    """

    @pytest.mark.parametrize("d_in, d_out, rank", [(64, 64, 8), (256, 64, 8), (64, 64, 2)])
    def test_adapter_projection_alone_equals_in_batch(self, d_in, d_out, rank):
        rng = np.random.default_rng(d_in + rank)
        x = rng.normal(size=(16, 42, d_in)).astype(np.float32)
        w = rng.normal(0.0, d_in ** -0.5, size=(d_in, d_out)).astype(np.float32)
        adapter = LoraAdapter(a=rng.normal(size=(rank, d_in)).astype(np.float32),
                              b=rng.normal(size=(d_out, rank)).astype(np.float32))
        scale = 16.0 / rank
        rows = np.array([0, 3, 4, 9, 15])
        y, mid = model._project_fwd(x, w, adapter, scale)
        gated, _ = model._project_fwd(x, w, adapter, scale, rows)
        for i in range(len(x)):
            alone, alone_mid = model._project_fwd(x[i], w, adapter, scale)
            np.testing.assert_array_equal(y[i], alone)
            np.testing.assert_array_equal(mid[i], alone_mid)
            if i not in rows:
                alone, _ = model._project_fwd(x[i], w, None, None)
            np.testing.assert_array_equal(gated[i], alone)

    @pytest.mark.parametrize("d_in, d_out", [(64, 64), (64, 256), (256, 64)])
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_pruned_rows_equal_their_rows_in_the_whole(self, d_in, d_out, n):
        # a resumed probe pass runs its top block at n positions of each of
        # 16 rows, [16, n, 64] in place of [16, 42, 64]; a lone position runs
        # as two equal rows
        rng = np.random.default_rng(d_in + d_out + n)
        x = rng.normal(size=(16, 42, d_in)).astype(np.float32)
        w = rng.normal(0.0, d_in ** -0.5, size=(d_in, d_out)).astype(np.float32)
        at = model._two_up(np.arange(41 - n, 41))
        whole, _ = model._project_fwd(x, w, None, None)
        pruned, _ = model._project_fwd(x[:, at], w, None, None)
        np.testing.assert_array_equal(pruned, whole[:, at])
        one, _ = model._project_fwd(x[:1, at], w, None, None)
        np.testing.assert_array_equal(one, whole[:1, at])


class TestValidation:
    @pytest.mark.parametrize("rows, max_new, stop", [
        ([([], 1)], 2, None),
        ([([1] * (MICRO.max_seq + 1), 1)], 2, None),
        ([([1, MICRO.vocab_size], 1)], 2, None),
        ([([1, -1], 1)], 2, None),
        ([([1, 2], -1)], 2, None),
        ([([1, 2], MICRO.n_layers + 1)], 2, None),
        ([([1, 2], 1.5)], 2, None),
        ([[1, 2]], 2, None),
        ([([1, 2], 1)], -1, None),
        ([([1, 2], 1)], 2, MICRO.vocab_size),
        ([([1, 2], 1)], 2, -1),
        ([([1, 2], True)], 2, None),
    ])
    def test_bad_rows_raise_before_any_compute(self, monkeypatch, rows, max_new, stop):
        base, lset = micro_setup()

        def no_compute(*args, **kwargs):
            raise AssertionError("forward ran before validation finished")

        monkeypatch.setattr(model, "_forward", no_compute)
        # the good row comes first, so only up-front validation stops it
        with pytest.raises(InputError):
            decode_batch(base, lset, [([1, 2, 3], 0)] + rows, max_new, stop)

    def test_no_rows_is_no_work(self):
        base, lset = micro_setup()
        assert decode_batch(base, lset, [], 3, None) == []

