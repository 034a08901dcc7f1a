import dataclasses
import re

import numpy as np
import pytest

from lorabound.errors import CompatibilityError, ConfigError, InputError, ShapeError
from lorabound.lora import (DEFAULT_ALPHA, DEFAULT_RANK, DEFAULT_TARGETS,
                            LoraAdapter, LoraSet, check_compat, drop_above,
                            init_adapters, lora_param_dict, merge, normalize_targets,
                            projection_dims)
from lorabound.model import (ModelConfig, forward_collect, generate_greedy,
                             init_base, lens_logits)

from helpers import randomize_adapters, randomize_weights

MICRO = ModelConfig(n_layers=2, d_model=8, n_heads=2, d_ff=16, vocab_size=16,
                    max_seq=8)


def micro_weights(seed=0):
    return randomize_weights(init_base(MICRO, seed=seed),
                             np.random.default_rng(seed + 100))


def one_adapter_set(ad, alpha=2.0, rank=1, key=(1, "q"), targets=("q",)):
    return LoraSet(n_layers=MICRO.n_layers, alpha=alpha, rank=rank, targets=targets,
                   fingerprint=MICRO.config_hash(), adapters={key: ad})


class TestAdapter:
    def test_param_count(self):
        ad = LoraAdapter(a=np.zeros((2, 5)), b=np.zeros((3, 2)))
        assert ad.rank == 2
        assert ad.param_count() == 10 + 6

    def test_factor_shape_mismatch(self):
        with pytest.raises(ShapeError):
            LoraAdapter(a=np.zeros((2, 5)), b=np.zeros((3, 4)))


class TestSetChecks:
    def test_hand_delta(self):
        # delta = (alpha / rank) * B @ A, folded into wq as its transpose
        a = np.zeros((1, 8), np.float32)
        b = np.zeros((8, 1), np.float32)
        a[0, :2] = [1.0, 2.0]
        b[:2, 0] = [3.0, 4.0]
        lset = one_adapter_set(LoraAdapter(a=a, b=b))
        assert lset.scale == 2.0
        base = micro_weights()
        lset.fingerprint = base.fingerprint()
        delta = merge(base, lset).tensors["layer01.wq"] - base.tensors["layer01.wq"]
        want = np.zeros((8, 8))
        want[:2, :2] = [[6.0, 8.0], [12.0, 16.0]]
        np.testing.assert_allclose(delta, want, atol=1e-6)

    def test_bad_alpha(self):
        ad = LoraAdapter(a=np.zeros((1, 8)), b=np.zeros((8, 1)))
        for alpha in (0.0, -1.0, np.nan, np.inf, 10 ** 400):
            with pytest.raises(ConfigError, match="alpha must be positive and finite"):
                one_adapter_set(ad, alpha=alpha)

    def test_alpha_is_stored_as_a_float(self):
        # an int alpha would hash as "4:1" but load back from a file as 4.0
        ad = LoraAdapter(a=np.zeros((1, 8)), b=np.zeros((8, 1)))
        lset = one_adapter_set(ad, alpha=4)
        assert type(lset.alpha) is float
        assert lset.content_hash() == one_adapter_set(ad, alpha=4.0).content_hash()

    def test_bad_rank(self):
        with pytest.raises(ConfigError, match="rank must be positive, got 0"):
            LoraSet(n_layers=2, alpha=1.0, rank=0, targets=("q",), fingerprint="f")

    def test_adapter_of_another_rank(self):
        ad = LoraAdapter(a=np.zeros((2, 8)), b=np.zeros((8, 2)))
        with pytest.raises(ConfigError,
                           match="adapter at layer 1 'q' has rank 2, header rank is 1"):
            one_adapter_set(ad)

    def test_key_outside_targets(self):
        ad = LoraAdapter(a=np.zeros((1, 8)), b=np.zeros((8, 1)))
        with pytest.raises(ConfigError, match=re.escape(
                "adapter at layer 1 'k' is not among the header targets ['q']")):
            one_adapter_set(ad, key=(1, "k"))


class TestScale:
    def test_alpha_moves_logits_and_hash_together(self, tmp_path):
        from lorabound.fileio import load_adapters, save_adapters
        base = micro_weights()
        lset = randomize_adapters(dataclasses.replace(init_adapters(MICRO, seed=4), alpha=4.0),
                                  np.random.default_rng(4))
        lset.fingerprint = base.fingerprint()
        other = dataclasses.replace(lset, alpha=1.0)
        tokens = [[1, 5, 9, 3]]

        def logits(s):
            return lens_logits(base, forward_collect(base, s, tokens)[-1])

        assert np.abs(logits(lset) - logits(other)).max() > 1e-3
        assert lset.content_hash() != other.content_hash()
        assert other.scale == lset.scale / 4
        save_adapters(tmp_path / "a.lbad", other)
        back = load_adapters(tmp_path / "a.lbad")
        assert back.content_hash() == other.content_hash()
        np.testing.assert_array_equal(logits(back), logits(other))


class TestTargets:
    def test_canonical_order(self):
        assert normalize_targets(["v", "q"]) == ("q", "v")
        assert normalize_targets(["down", "o", "k"]) == ("k", "o", "down")

    def test_unknown_and_duplicate(self):
        with pytest.raises(ConfigError):
            normalize_targets(["q", "w"])
        with pytest.raises(ConfigError):
            normalize_targets(["q", "q"])

    def test_projection_dims(self):
        assert projection_dims(MICRO, "q") == (8, 8)
        assert projection_dims(MICRO, "up") == (8, 16)
        assert projection_dims(MICRO, "down") == (16, 8)


class TestInitAdapters:
    def test_defaults(self):
        lset = init_adapters(MICRO)
        assert lset.targets == DEFAULT_TARGETS
        assert lset.rank == DEFAULT_RANK
        assert lset.alpha == DEFAULT_ALPHA
        assert sorted(lset.adapters) == [(1, "q"), (1, "v"), (2, "q"), (2, "v")]

    def test_b_zero_a_seeded(self):
        one = init_adapters(MICRO, seed=7)
        two = init_adapters(MICRO, seed=7)
        other = init_adapters(MICRO, seed=8)
        for key in one.adapters:
            assert not one.adapters[key].b.any()
            np.testing.assert_array_equal(one.adapters[key].a, two.adapters[key].a)
        assert any((one.adapters[k].a != other.adapters[k].a).any()
                   for k in one.adapters)

    def test_fresh_delta_is_zero(self):
        lset = init_adapters(MICRO, seed=3)
        for ad in lset.adapters.values():
            assert not (ad.b @ ad.a).any()

    def test_rank_bounds(self):
        with pytest.raises(ConfigError):
            init_adapters(MICRO, rank=0)
        with pytest.raises(ConfigError):
            init_adapters(MICRO, rank=9, targets=("q",))

    def test_fingerprint_is_config_hash(self):
        lset = init_adapters(MICRO)
        assert lset.fingerprint == MICRO.config_hash()


class TestActiveMaskAndDrop:
    def test_drop_above_keeps_bottom(self):
        lset = init_adapters(MICRO, seed=1)
        kept = drop_above(lset, 1)
        assert sorted(kept.adapters) == [(1, "q"), (1, "v")]
        assert sorted(lset.adapters) == [(1, "q"), (1, "v"), (2, "q"), (2, "v")]

    def test_drop_shares_tensors(self):
        lset = init_adapters(MICRO, seed=1)
        kept = drop_above(lset, 2)
        for key in kept.adapters:
            assert kept.adapters[key].a is lset.adapters[key].a

    def test_drop_everything(self):
        lset = init_adapters(MICRO, seed=1)
        assert drop_above(lset, 0).adapters == {}

    def test_drop_range_checked(self):
        lset = init_adapters(MICRO, seed=1)
        with pytest.raises(InputError):
            drop_above(lset, 3)

    @pytest.mark.parametrize("keep", [-1, 3, True, 1.5, "1", None])
    def test_drop_rejects_what_is_not_a_level(self, keep):
        with pytest.raises(InputError, match=r"keep level .* out of range 0\.\.2"):
            drop_above(init_adapters(MICRO, seed=1), keep)

    def test_metadata_preserved(self):
        lset = dataclasses.replace(init_adapters(MICRO, seed=1, rank=2, targets=("k", "o")),
                                   alpha=4.0)
        kept = drop_above(lset, 1)
        assert (kept.rank, kept.alpha, kept.targets) == (2, 4.0, ("k", "o"))
        assert kept.n_layers == lset.n_layers
        assert kept.fingerprint == lset.fingerprint


class TestCompat:
    def test_config_only_fingerprint_accepted(self):
        base = micro_weights()
        check_compat(base, init_adapters(MICRO, seed=0))

    def test_full_fingerprint_accepted(self):
        base = micro_weights()
        lset = init_adapters(MICRO, seed=0)
        lset.fingerprint = base.fingerprint()
        check_compat(base, lset)

    def test_wrong_fingerprint_rejected(self):
        base = micro_weights()
        lset = init_adapters(MICRO, seed=0)
        lset.fingerprint = "deadbeefdeadbeef.deadbeefdeadbeef"
        with pytest.raises(CompatibilityError):
            check_compat(base, lset)

    def test_layer_count_mismatch_rejected(self):
        base = micro_weights()
        lset = init_adapters(MICRO, seed=0)
        lset.fingerprint = base.fingerprint()
        lset.n_layers = 3
        with pytest.raises(CompatibilityError):
            check_compat(base, lset)

    @pytest.mark.parametrize("key, a_shape, b_shape, cause", [
        ((0, "q"), (2, 8), (8, 2), "adapter at layer 0 'q': layer out of range 1..2"),
        ((3, "v"), (2, 8), (8, 2), "adapter at layer 3 'v': layer out of range 1..2"),
        ((1, "gate"), (2, 8), (8, 2), "adapter at layer 1 'gate': unknown projection"),
        ((1, "q"), (2, 5), (8, 2), "adapter at layer 1 'q' has dims A(2, 5) / B(8, 2)"),
        ((2, "up"), (2, 8), (8, 2), "adapter at layer 2 'up' has dims A(2, 8) / B(8, 2)"),
        ((2, "down"), (2, 8), (8, 2), "adapter at layer 2 'down' has dims A(2, 8) / B(8, 2)"),
    ])
    def test_every_key_is_checked(self, key, a_shape, b_shape, cause):
        base = micro_weights()
        lset = init_adapters(MICRO, seed=0)
        lset.fingerprint = base.fingerprint()
        lset.adapters[key] = LoraAdapter(a=np.zeros(a_shape, np.float32),
                                         b=np.zeros(b_shape, np.float32))
        with pytest.raises(CompatibilityError, match=re.escape(cause)):
            check_compat(base, lset)
        with pytest.raises(CompatibilityError, match=re.escape(cause)):
            merge(base, lset)


class TestMerge:
    def test_zero_delta_merge_is_bitwise_identical(self):
        base = micro_weights()
        lset = init_adapters(MICRO, seed=2)
        merged = merge(base, lset)
        for name in base.tensors:
            np.testing.assert_array_equal(merged.tensors[name], base.tensors[name])

    def test_merged_logits_close_to_factored(self):
        rng = np.random.default_rng(11)
        base = micro_weights()
        for trial in range(5):
            lset = randomize_adapters(
                init_adapters(MICRO, seed=trial, targets=("q", "k", "v", "o", "up", "down"),
                              rank=2), np.random.default_rng(trial))
            lset.fingerprint = base.fingerprint()
            merged = merge(base, lset)
            tokens = rng.integers(0, MICRO.vocab_size, size=(1, 6))
            factored = lens_logits(base, forward_collect(base, lset, tokens)[-1])
            dense = lens_logits(merged, forward_collect(merged, None, tokens)[-1])
            assert np.abs(factored - dense).max() <= 1e-3

    def test_merge_leaves_base_untouched(self):
        base = micro_weights()
        before = base.weights_hash()
        lset = randomize_adapters(init_adapters(MICRO, seed=5), np.random.default_rng(5))
        lset.fingerprint = base.fingerprint()
        merge(base, lset)
        assert base.weights_hash() == before

    def test_merged_generation_matches(self):
        base = micro_weights()
        lset = randomize_adapters(init_adapters(MICRO, seed=9), np.random.default_rng(9))
        lset.fingerprint = base.fingerprint()
        merged = merge(base, lset)
        out_f = generate_greedy(base, lset, [1, 2], max_new=4, stop_token=0)
        out_d = generate_greedy(merged, None, [1, 2], max_new=4, stop_token=0)
        assert out_f == out_d


class TestParamDict:
    def test_names_and_aliasing(self):
        lset = init_adapters(MICRO, seed=0)
        params = lora_param_dict(lset)
        assert sorted(params) == [
            "layer01.q.lora_a", "layer01.q.lora_b",
            "layer01.v.lora_a", "layer01.v.lora_b",
            "layer02.q.lora_a", "layer02.q.lora_b",
            "layer02.v.lora_a", "layer02.v.lora_b",
        ]
        params["layer01.q.lora_a"][0, 0] = 42.0
        assert lset.adapters[(1, "q")].a[0, 0] == 42.0


class TestContentHash:
    def test_stable_and_value_sensitive(self):
        one = init_adapters(MICRO, seed=0)
        two = init_adapters(MICRO, seed=0)
        assert one.content_hash() == two.content_hash()
        two.adapters[(1, "q")].a[0, 0] += 1.0
        assert one.content_hash() != two.content_hash()

    def test_depends_on_fingerprint(self):
        one = init_adapters(MICRO, seed=0)
        two = init_adapters(MICRO, seed=0)
        two.fingerprint = "0" * 16 + "." + "1" * 16
        assert one.content_hash() != two.content_hash()

    def test_depends_on_n_layers(self):
        one = init_adapters(MICRO, seed=0)
        deeper = dataclasses.replace(one, n_layers=7)
        assert deeper.adapters == one.adapters
        assert one.content_hash() != deeper.content_hash()
