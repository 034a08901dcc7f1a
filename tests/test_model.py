"""Transformer forward, residual record, generation and gradient correctness."""

import tracemalloc
import weakref

import numpy as np
import pytest

from lorabound import lora, model, numerics
from lorabound.errors import ConfigError, DegenerateInputError, InputError, ShapeError

from helpers import fd_grad, randomize_adapters, randomize_weights, rel_error
from oracles import gelu_bwd_oracle

MICRO = model.ModelConfig(n_layers=2, d_model=8, n_heads=2, d_ff=16,
                          vocab_size=16, max_seq=8)


def micro_weights(seed=0, dtype=np.float32):
    w = model.init_base(MICRO, seed=seed).astype(dtype)
    return randomize_weights(w, np.random.default_rng(seed + 100))


class TestConfig:
    def test_defaults_validate(self):
        model.ModelConfig()

    def test_head_divisibility(self):
        with pytest.raises(ConfigError, match="must divide evenly into 3 heads"):
            model.ModelConfig(d_model=10, n_heads=3)

    def test_reserved_token_floor(self):
        with pytest.raises(ConfigError):
            model.ModelConfig(vocab_size=3)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            model.ModelConfig.from_dict({"n_layers": 2, "bogus": 1})

    def test_canonical_json_stable(self):
        a = model.ModelConfig(n_layers=2).canonical_json()
        b = model.ModelConfig(n_layers=2).canonical_json()
        assert a == b and '"n_layers":2' in a


class TestInit:
    def test_seeded_init_bit_identical(self):
        w1 = model.init_base(MICRO, seed=5)
        w2 = model.init_base(MICRO, seed=5)
        for name in w1.tensors:
            np.testing.assert_array_equal(w1.tensors[name], w2.tensors[name])
        assert w1.fingerprint() == w2.fingerprint()

    def test_different_seed_differs(self):
        w1 = model.init_base(MICRO, seed=5)
        w2 = model.init_base(MICRO, seed=6)
        assert w1.fingerprint() != w2.fingerprint()
        assert w1.fingerprint().split(".")[0] == w2.fingerprint().split(".")[0] \
            == MICRO.config_hash()


class TestForward:
    def test_trace_shapes(self):
        w = micro_weights()
        hidden = model.forward_collect(w, None, [[1, 2, 3, 4, 5]])
        logits = model.lens_logits(w, hidden[-1])
        assert hidden.shape == (2, 1, 5, 8)
        assert logits.shape == (1, 5, 16)
        assert np.all(np.isfinite(hidden))
        assert np.all(np.isfinite(logits))

    def test_top_layer_reproduces_the_output_logits(self):
        # the recorded top-of-stack state must give back the output logits exactly
        w = micro_weights()
        ids = np.array([[3, 1, 4, 1, 5]])
        hidden = model.forward_collect(w, None, ids)
        _, h_final, _ = model._forward(w, None, ids)
        again = model.lens_logits(w, hidden[2 - 1])
        np.testing.assert_array_equal(again, model.lens_logits(w, h_final))

    def test_causality(self):
        w = micro_weights(seed=2)
        toks = [1, 2, 3, 4, 5, 6]
        base = model.lens_logits(w, model.forward_collect(w, None, [toks])[-1, 0])
        for j in range(len(toks)):
            changed = list(toks)
            changed[j] = (changed[j] + 7) % 16
            out = model.lens_logits(w, model.forward_collect(w, None, [changed])[-1, 0])
            np.testing.assert_array_equal(out[:j], base[:j])

    def test_bad_tokens(self):
        w = micro_weights()
        with pytest.raises(InputError):
            model.forward_collect(w, None, [[]])
        with pytest.raises(InputError):
            model.forward_collect(w, None, [[16]])
        with pytest.raises(InputError):
            model.forward_collect(w, None, [[-1]])
        with pytest.raises(InputError):
            model.forward_collect(w, None, [[1] * 9])
        with pytest.raises(InputError):
            model.forward_collect(w, None, [[1, 2], [3]])
        with pytest.raises(InputError):
            model.forward_collect(w, None, [[[1, 2]]])

    def test_batch_rows_equal_each_row_alone(self):
        w = micro_weights(seed=3)
        lset = randomize_adapters(lora.init_adapters(MICRO, targets=("q", "v", "down"),
                                                     rank=2, seed=3),
                                  np.random.default_rng(4))
        rows = np.random.default_rng(5).integers(0, 16, size=(5, 6))
        batch = model.forward_collect(w, lset, rows)
        assert batch.shape == (2, 5, 6, 8)
        batch_logits = model.lens_logits(w, batch[-1])
        for i, row in enumerate(rows):
            alone = model.forward_collect(w, lset, [row])[:, 0]
            np.testing.assert_array_equal(batch[:, i], alone)
            np.testing.assert_array_equal(batch_logits[i], model.lens_logits(w, alone[-1]))

    def test_resume_from_a_recorded_layer(self):
        w = micro_weights(seed=6)
        rows = np.random.default_rng(7).integers(0, 16, size=(3, 5))
        full, h_final, _ = model._forward(w, None, rows, collect=slice(None))
        top, h_top, _ = model._forward(w, None, rows, collect=[1, 4], resume=(1, full[0]))
        np.testing.assert_array_equal(top, full[1:, :, [1, 4]])
        # the adapter-free top block ran at the collected positions only
        np.testing.assert_array_equal(h_top, h_final[:, [1, 4]])

    def test_a_resumed_pass_writes_no_recorded_residual(self):
        # the residual adds build their sums in fresh buffers, so resuming
        # from full[k - 1] (a view into the record) leaves the record as it was
        w = micro_weights(seed=8)
        rows = np.random.default_rng(9).integers(0, 16, size=(3, 6))
        full = model.forward_collect(w, None, rows)
        before = full.tobytes()
        for k in range(1, MICRO.n_layers):
            for collect in ([4], [2, 3, 4], slice(None)):
                model._forward(w, None, rows, collect=collect, resume=(k, full[k - 1]))
        assert full.tobytes() == before

    def test_the_training_forward_keeps_its_cached_inputs(self):
        # pre_attn and pre_ffn are the inputs of each half; nothing the
        # forward does afterwards may write them
        w = micro_weights(seed=10)
        lset = randomize_adapters(lora.init_adapters(MICRO, targets=("q", "o", "down"),
                                                     rank=2, seed=10),
                                  np.random.default_rng(11))
        rows = np.random.default_rng(12).integers(0, 16, size=(2, 7))
        full = model.forward_collect(w, lset, rows)
        _, h_final, caches = model._forward(w, lset, rows, keep_cache=True)
        h = w.tensors["tok_emb"][rows] + w.tensors["pos_emb"][:7]
        mask = model._causal_mask(7, 7, h.dtype)
        for l, cache in enumerate(caches, start=1):
            p = f"layer{l:02d}."
            np.testing.assert_array_equal(cache["pre_attn"], h)
            mid = model._attention_half(w, p, h.copy(), cache["ad"], lset.scale, None, None,
                                        0, None, mask)
            np.testing.assert_array_equal(cache["pre_ffn"], mid)
            h = full[l - 1]
        np.testing.assert_array_equal(h_final, full[-1])

    def test_adapter_changes_output_only_when_active(self):
        w = micro_weights(seed=3)
        lset = lora.init_adapters(MICRO, targets=("q", "v"), rank=2, seed=0)
        randomize_adapters(lset, np.random.default_rng(1))
        toks = [[1, 2, 3]]
        plain = model.lens_logits(w, model.forward_collect(w, None, toks)[-1])
        adapted = model.lens_logits(w, model.forward_collect(w, lset, toks)[-1])
        assert not np.array_equal(plain, adapted)
        # with every layer dropped the adapters are invisible
        off = model.forward_collect(w, lora.drop_above(lset, 0), toks)
        np.testing.assert_array_equal(plain, model.lens_logits(w, off[-1]))

    def test_fresh_adapters_are_identity(self):
        # B = 0 at init, so the delta is exactly zero
        w = micro_weights(seed=4)
        lset = lora.init_adapters(MICRO, targets=("q", "k", "v", "o", "up", "down"),
                                  rank=2, seed=9)
        toks = [[5, 6, 7, 8]]
        plain = model.lens_logits(w, model.forward_collect(w, None, toks)[-1])
        adapted = model.lens_logits(w, model.forward_collect(w, lset, toks)[-1])
        np.testing.assert_array_equal(plain, adapted)


@pytest.mark.parametrize("call, error", [
    (lambda w: model.forward_collect(w, None, [1, 2, 3]), InputError),
    (lambda w: model.loss_and_grads(w, None, [1, 2, 3], [2, 3, 4], [True] * 3), InputError),
    (lambda w: numerics.cross_entropy_grad(np.zeros((3, 16), dtype=np.float32),
                                           np.array([2, 3, 4]), np.ones(3, dtype=bool)),
     ShapeError),
], ids=["forward_collect", "loss_and_grads", "cross_entropy_grad"])
def test_a_single_sequence_is_rejected(call, error):
    # token rows [B, t] are the one input shape; one sequence is passed as [sequence]
    with pytest.raises(error, match=r"\[B, t"):
        call(micro_weights())


class TestGenerate:
    def test_one_token_is_argmax(self):
        w = micro_weights(seed=7)
        prompt = [1, 2, 3]
        logits = model.next_token_logits(w, None, prompt)
        out = model.generate_greedy(w, None, prompt, max_new=1, stop_token=2)
        assert out == [int(np.argmax(logits))]

    def test_tie_breaks_to_lowest_id(self):
        w = micro_weights(seed=8)
        # a zero head makes every logit identical, so argmax must pick id 0
        w.tensors["head"][...] = 0.0
        out = model.generate_greedy(w, None, [1, 2], max_new=1, stop_token=15)
        assert out == [0]

    def test_stop_token_halts(self):
        w = micro_weights(seed=9)
        stop = int(np.argmax(model.next_token_logits(w, None, [1, 2, 3])))
        out = model.generate_greedy(w, None, [1, 2, 3], max_new=5, stop_token=stop)
        assert out == [stop]

    def test_context_limit_halts(self):
        w = micro_weights(seed=10)
        out = model.generate_greedy(w, None, [1] * 7, max_new=10, stop_token=15)
        assert len(out) <= 1

    def test_deterministic(self):
        w = micro_weights(seed=11)
        a = model.generate_greedy(w, None, [2, 3], max_new=5, stop_token=15)
        b = model.generate_greedy(w, None, [2, 3], max_new=5, stop_token=15)
        assert a == b

    def test_prompt_validation(self):
        w = micro_weights()
        with pytest.raises(InputError):
            model.generate_greedy(w, None, [1] * 9, max_new=1, stop_token=0)
        with pytest.raises(InputError):
            model.generate_greedy(w, None, [], max_new=1, stop_token=0)


def flatten_params(weights, lset=None):
    params = dict(weights.tensors)
    if lset is not None:
        params.update(lora.lora_param_dict(lset))
    return params


def sequence(toks, prompt_len):
    """(inputs, targets, mask) of one sequence; targets before the prompt's end don't count."""
    toks = np.asarray(toks)
    return toks[:-1], toks[1:], np.arange(toks.size - 1) >= prompt_len - 1


def ragged_rows(seed, lengths):
    """One (inputs, targets, mask) row per input length, each with a random prompt."""
    rng = np.random.default_rng(seed)
    return [sequence(rng.integers(0, MICRO.vocab_size, size=n + 1), int(rng.integers(1, n + 1)))
            for n in lengths]


def padded(rows, pad_seed=None):
    """Rows right-padded to [B, t]: pads are id 0, or random ids given a seed."""
    shape = (len(rows), max(inputs.size for inputs, _, _ in rows))
    rng = np.random.default_rng(pad_seed)
    pads = [np.zeros(shape, dtype=np.int64) if pad_seed is None
            else rng.integers(0, MICRO.vocab_size, size=shape) for _ in range(2)]
    out = (*pads, np.zeros(shape, dtype=bool))
    for i, row in enumerate(rows):
        for dest, values in zip(out, row):
            dest[i, :values.size] = values
    return out


def one_row(row):
    """(inputs, targets, mask) of one sequence as a batch of one row [1, t]."""
    return tuple(a[None] for a in row)


def check_grads(weights, lset, toks, prompt_len, *, eps, tol, dtype):
    return check_batch_grads(weights, lset, *one_row(sequence(toks, prompt_len)),
                             eps=eps, tol=tol)


def check_batch_grads(weights, lset, inputs, targets, mask, *, eps, tol):
    """Every gradient of loss_and_grads against central finite differences of
    the forward-only loss; inputs is a padded batch [B, t]. The base
    tensors are checked in a call without adapters and, given lset, the
    adapter factors in a call with it."""
    params = flatten_params(weights, lset)
    worst = {}
    for adapters in (None,) if lset is None else (None, lset):
        loss, grads = model.loss_and_grads(weights, adapters, inputs, targets, mask)

        def loss_fn():
            hidden = model.forward_collect(weights, adapters, inputs)
            l, _ = numerics.cross_entropy_grad(model.lens_logits(weights, hidden[-1]),
                                               targets, mask)
            return l

        assert abs(loss - loss_fn()) < 1e-12
        for name, g in grads.items():
            worst[name] = rel_error(g, fd_grad(loss_fn, params[name], eps))
    bad = {k: v for k, v in worst.items() if v >= tol}
    assert not bad, f"gradient mismatches over {tol}: {bad}"
    return worst


class TestGradients:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gelu_backward_is_bitwise_the_one_expression(self, dtype):
        rng = np.random.default_rng(40)
        x = rng.normal(0.0, 3.0, size=(4, 47, 256)).astype(dtype)
        d_y = rng.normal(size=x.shape).astype(dtype)
        _, th = model._gelu_fwd(x)
        got = model._gelu_bwd(d_y, x, th)
        want = gelu_bwd_oracle(d_y, x, th)
        assert got.dtype == want.dtype == dtype
        np.testing.assert_array_equal(got, want)

    def test_all_param_classes_float64(self):
        w = micro_weights(seed=20, dtype=np.float64)
        lset = lora.init_adapters(MICRO, targets=("q", "k", "v", "o", "up", "down"),
                                  rank=2, seed=3)
        randomize_adapters(lset, np.random.default_rng(21), dtype=np.float64)
        toks = [1, 2, 3, 4, 5, 6, 7]
        worst = check_grads(w, lset, toks, prompt_len=3, eps=1e-5, tol=1e-6,
                            dtype=np.float64)
        # every class of parameter must appear in the checked set
        checked = set(worst)
        for probe in ("tok_emb", "pos_emb", "final_norm", "head",
                      "layer01.attn_norm", "layer01.wq", "layer01.wk",
                      "layer01.wv", "layer01.wo", "layer01.ffn_norm",
                      "layer01.wup", "layer01.wdown",
                      "layer02.q.lora_a", "layer02.q.lora_b",
                      "layer01.down.lora_a", "layer01.up.lora_b"):
            assert probe in checked

    def test_adapter_only_grads_leave_base_out(self):
        w = micro_weights(seed=23)
        lset = lora.init_adapters(MICRO, targets=("q", "v"), rank=2, seed=5)
        randomize_adapters(lset, np.random.default_rng(24))
        inputs, targets = np.array([[1, 2, 3]]), np.array([[2, 3, 4]])
        mask = np.ones((1, 3), dtype=bool)
        _, grads = model.loss_and_grads(w, lset, inputs, targets, mask)
        assert all(k.endswith((".lora_a", ".lora_b")) for k in grads)
        assert len(grads) == 2 * 2 * 2

    def test_inactive_layers_get_no_adapter_grads(self):
        w = micro_weights(seed=25)
        lset = lora.init_adapters(MICRO, targets=("q", "v"), rank=2, seed=6)
        randomize_adapters(lset, np.random.default_rng(26))
        inputs, targets = np.array([[1, 2, 3]]), np.array([[2, 3, 4]])
        mask = np.ones((1, 3), dtype=bool)
        _, grads = model.loss_and_grads(w, lora.drop_above(lset, 1), inputs, targets, mask)
        assert set(grads) == {"layer01.q.lora_a", "layer01.q.lora_b",
                              "layer01.v.lora_a", "layer01.v.lora_b"}


def all_target_adapters(cfg, seed, dtype=np.float64):
    lset = lora.init_adapters(cfg, targets=model.PROJECTIONS, rank=2, seed=seed)
    return randomize_adapters(lset, np.random.default_rng(seed + 1), dtype=dtype)


class TestBatchedGradients:
    """[B, t] padded rows against one call per row."""

    @pytest.mark.parametrize("with_set", [False, True], ids=["base", "lora"])
    def test_batch_is_the_mean_of_row_calls_float64(self, with_set):
        w = micro_weights(seed=30, dtype=np.float64)
        lset = all_target_adapters(MICRO, seed=31) if with_set else None
        rows = ragged_rows(32, [7, 3, 5, 1, 6])
        loss, grads = model.loss_and_grads(w, lset, *padded(rows))
        per_row = [model.loss_and_grads(w, lset, *one_row(row)) for row in rows]
        assert rel_error(loss, np.mean([l for l, _ in per_row])) < 1e-6
        assert set(grads) == set(per_row[0][1])
        assert set(grads) == set(lora.lora_param_dict(lset) if with_set else w.tensors)
        for name, g in grads.items():
            mean = sum(row_grads[name] for _, row_grads in per_row) / len(rows)
            assert rel_error(g, mean) < 1e-6, name

    def test_ragged_batch_against_finite_differences(self):
        w = micro_weights(seed=33, dtype=np.float64)
        lset = all_target_adapters(MICRO, seed=34)
        worst = check_batch_grads(w, lset, *padded(ragged_rows(35, [7, 4, 2]), pad_seed=36),
                                  eps=1e-5, tol=1e-6)
        assert {"tok_emb", "pos_emb", "head", "layer01.wq", "layer02.down.lora_b"} <= set(worst)

    def test_pad_tokens_change_nothing(self):
        w = micro_weights(seed=37)
        lset = all_target_adapters(MICRO, seed=38, dtype=np.float32)
        rows = ragged_rows(39, [2, 7, 4])
        for adapters in (None, lset):
            loss, grads = model.loss_and_grads(w, adapters, *padded(rows))
            for pad_seed in (40, 41):
                other_loss, other = model.loss_and_grads(w, adapters, *padded(rows, pad_seed))
                assert other_loss == loss
                assert set(other) == set(grads)
                for name, g in grads.items():
                    np.testing.assert_array_equal(other[name], g, err_msg=name)

    def test_row_without_a_counted_target(self):
        w = micro_weights(seed=42)
        inputs, targets, mask = padded(ragged_rows(43, [5, 3, 6]))
        mask[1] = False
        with pytest.raises(DegenerateInputError, match="row 1"):
            model.loss_and_grads(w, None, inputs, targets, mask)

    def test_targets_or_mask_shaped_unlike_the_inputs(self):
        w = micro_weights(seed=44)
        inputs, targets, mask = padded(ragged_rows(45, [5, 3, 6]))
        with pytest.raises(InputError, match="row 0: targets"):
            model.loss_and_grads(w, None, inputs, targets[:, :-1], mask)
        ragged_mask = [mask[0], mask[1, :-2], mask[2]]
        with pytest.raises(InputError, match="row 1: mask"):
            model.loss_and_grads(w, None, inputs, targets, ragged_mask)
        with pytest.raises(InputError, match="2 rows"):
            model.loss_and_grads(w, None, inputs, targets[:2], mask)
        with pytest.raises(InputError, match="mask has shape"):
            model.loss_and_grads(w, None, inputs[:1], targets[:1], mask[:1, :-1])

    @pytest.mark.parametrize("targets, mask, name", [
        (5, [[True, True]], "targets must be rows shaped like the inputs"),
        ([[1, 2]], None, "mask must be rows shaped like the inputs"),
        ([[1, "a"]], [[True, True]], "targets must hold int64 values"),
    ])
    def test_targets_or_mask_that_are_not_id_rows(self, targets, mask, name):
        with pytest.raises(InputError, match=name):
            model.loss_and_grads(micro_weights(seed=46), None, [[1, 2]], targets, mask)


class TestTrainingMemory:
    """What a training forward and backward keep alive, and for how long."""

    DEEP = model.ModelConfig(n_layers=4, d_model=8, n_heads=2, d_ff=16,
                             vocab_size=16, max_seq=8)

    @pytest.mark.parametrize("with_set", [False, True], ids=["base", "lora"])
    def test_a_layers_activations_are_freed_before_the_layer_below(self, monkeypatch,
                                                                    with_set):
        n = self.DEEP.n_layers
        w = randomize_weights(model.init_base(self.DEEP, seed=60), np.random.default_rng(61))
        lset = all_target_adapters(self.DEEP, seed=62, dtype=np.float32) if with_set else None
        refs, seen = [], []    # weakrefs to each layer's attention weights, layer 1 first
        real_attention, real_matmul = model._attention_fwd, model._matmul

        def attention_fwd(*args, **kwargs):
            out, att_cache = real_attention(*args, **kwargs)
            refs.append(weakref.ref(att_cache[3]))
            return out, att_cache

        downs = {id(w.tensors[f"layer{l:02d}.wdown"]): l for l in range(1, n + 1)}

        def matmul(x, m):
            # a layer's backward opens with d_h @ wdown.T, a view of the weight
            if id(m.base) in downs:
                seen.append((downs[id(m.base)], [r() is not None for r in refs]))
            return real_matmul(x, m)

        monkeypatch.setattr(model, "_attention_fwd", attention_fwd)
        monkeypatch.setattr(model, "_matmul", matmul)
        model.loss_and_grads(w, lset, *padded(ragged_rows(63, [7, 5, 6])))
        assert len(refs) == n
        assert seen == [(l, [True] * l + [False] * (n - l)) for l in range(n, 0, -1)]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_causal_mask_is_the_triangle_of_every_shape(self, dtype):
        n_max = model.ModelConfig().max_seq
        for n in range(1, n_max + 1):
            for t in range(1, n + 1):
                mask = model._causal_mask(t, n, dtype)
                want = np.triu(np.full((t, n), -np.inf, dtype=dtype), k=n - t + 1)
                assert mask.dtype == dtype and mask.flags.c_contiguous, (t, n)
                assert mask.tobytes() == want.tobytes(), (t, n)

    def test_a_forward_leaves_no_state_behind(self):
        w = micro_weights(seed=64)
        lset = all_target_adapters(MICRO, seed=65, dtype=np.float32)
        ids, targets = np.random.default_rng(66).integers(0, MICRO.vocab_size, size=(2, 2, 8))
        mask = np.ones(ids.shape, dtype=bool)
        model.loss_and_grads(w, lset, ids, targets, mask)    # warm up numpy's own caches
        tracemalloc.start(50)
        try:
            for t in range(2, 8):
                model.forward_collect(w, lset, ids[:, :t])
                model.loss_and_grads(w, lset, ids[:, :t], targets[:, :t], mask[:, :t])
                model.decode_batch(w, lset, [(ids[0, :t], 2), (ids[1, :t], 1)], 1, None)
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        # array buffers the model allocated that are still alive
        left = snapshot.filter_traces([
            tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain),
        ]).filter_traces([tracemalloc.Filter(True, model.__file__, all_frames=True)])
        assert left.statistics("traceback") == []
