"""Knee detection, keep-level sweeps and boundary application."""

import numpy as np
import pytest

from lorabound import boundary
from lorabound.boundary import (BoundaryDecision, default_boundary, detect_knee,
                                knee_from_report, sweep_boundary)
from lorabound.errors import (CompatibilityError, InputError, NoKneeError)
from lorabound.lora import drop_above, init_adapters
from lorabound.metrics import corpus_score
from lorabound.model import ModelConfig, init_base
from lorabound.probe import ProbeReport
from lorabound.vocab import EOS_ID, decode

from helpers import randomize_adapters, randomize_weights
from oracles import greedy_oracle

MICRO = ModelConfig(n_layers=2, d_model=8, n_heads=2, d_ff=16,
                    vocab_size=16, max_seq=8)


def micro_setup(seed=0):
    base = randomize_weights(init_base(MICRO, seed=seed),
                             np.random.default_rng(seed + 50), std=0.3)
    lset = randomize_adapters(init_adapters(MICRO, seed=seed),
                              np.random.default_rng(seed + 60), std=0.3)
    lset.fingerprint = base.fingerprint()
    return base, lset


def report_for(curve):
    curve = np.asarray(curve, dtype=np.float64)
    return ProbeReport(n_layers=len(curve), n_tokens=1, sample_count=10,
                       gt_curve=curve[:, None], max_curve=np.ones_like(curve)[:, None],
                       config={"seed": 3, "adapters": "cafe"})


class TestDetectKnee:
    def test_single_clear_jump(self):
        # the big step is between layer 3 and layer 4
        assert detect_knee([0.1, 0.12, 0.13, 0.8, 0.82]) == 3

    def test_jump_at_the_front(self):
        assert detect_knee([0.0, 0.9, 0.91, 0.92]) == 1

    def test_tie_breaks_toward_smaller_layer(self):
        assert detect_knee([0.0, 0.4, 0.4, 0.8]) == 1

    def test_flat_curve_has_no_knee(self):
        with pytest.raises(NoKneeError):
            detect_knee([0.5, 0.5, 0.5, 0.5])

    def test_gentle_slope_has_no_knee(self):
        # every jump is an equal fraction of the range, below the threshold
        with pytest.raises(NoKneeError):
            detect_knee(np.linspace(0.1, 0.9, 9))

    def test_threshold_is_relative_to_range(self):
        # a 0.05 jump is 5/7 of a 0.07 range, a knee, and 1/6 of a 0.3
        # range, below DEFAULT_MIN_JUMP_RATIO (0.25)
        assert detect_knee([0.10, 0.11, 0.16, 0.17]) == 2
        with pytest.raises(NoKneeError):
            detect_knee([0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40])

    def test_jump_of_exactly_the_ratio_is_a_knee(self):
        assert boundary.DEFAULT_MIN_JUMP_RATIO == 0.25
        assert detect_knee([0.0, 0.25, 0.5, 0.75, 1.0]) == 1

    def test_decreasing_curve_has_no_positive_jump(self):
        with pytest.raises(NoKneeError):
            detect_knee([0.9, 0.6, 0.3, 0.1])

    def test_bad_input(self):
        with pytest.raises(InputError):
            detect_knee([0.5])
        with pytest.raises(InputError):
            detect_knee([[0.1, 0.2], [0.3, 0.4]])
        with pytest.raises(InputError):
            detect_knee([0.1, np.nan, 0.3])

    def test_matches_brute_force_on_random_curves(self):
        rng = np.random.default_rng(606)
        for _ in range(200):
            curve = rng.random(int(rng.integers(2, 14)))
            span = curve.max() - curve.min()
            jumps = [curve[i + 1] - curve[i] for i in range(len(curve) - 1)]
            best = max(jumps)
            expect = None
            if span > 1e-12 and best >= 0.25 * span:
                expect = jumps.index(best) + 1
            if expect is None:
                with pytest.raises(NoKneeError):
                    detect_knee(curve)
            else:
                assert detect_knee(curve) == expect


class TestDefaultBoundary:
    def test_scales_with_depth(self):
        assert default_boundary(32) == 15
        assert default_boundary(12) == 6
        assert default_boundary(2) == 1

    def test_rejects_empty_stack(self):
        with pytest.raises(InputError):
            default_boundary(0)


class TestKneeFromReport:
    def test_uses_row_means(self):
        rep = ProbeReport(n_layers=3, n_tokens=2, sample_count=4,
                          gt_curve=np.array([[0.0, 0.2], [0.7, 0.9], [0.8, 1.0]]),
                          max_curve=np.ones((3, 2)), config={"seed": 7})
        dec = knee_from_report(rep)
        assert dec.k_star == 1
        assert dec.method == "knee"
        assert dec.seed == 7
        assert dec.per_k_scores == {1: 0.1, 2: pytest.approx(0.8), 3: 0.9}

    def test_no_knee_raises_without_fallback(self):
        with pytest.raises(NoKneeError):
            knee_from_report(report_for([0.5, 0.5, 0.5]))

    def test_fallback_resolves_to_default_depth(self):
        dec = knee_from_report(report_for([0.5] * 12), fallback=True)
        assert dec.k_star == default_boundary(12) == 6
        assert dec.extra["fallback"] is True

    def test_set_hash_carried_from_report(self):
        dec = knee_from_report(report_for([0.1, 0.9]))
        assert dec.set_hash == "cafe"


def tuple_samples(n=8, seed=5):
    rng = np.random.default_rng(seed)
    return [([int(t) for t in rng.integers(4, 16, size=3)],
             [int(t) for t in rng.integers(4, 16, size=2)]) for _ in range(n)]


class TestSweepBoundary:
    def test_brute_force_equivalence(self):
        # the sweep must equal: score every level, max, smallest argmax
        base, lset = micro_setup()
        samples = tuple_samples()
        preds = {k: [decode(greedy_oracle(base, drop_above(lset, k), p, 3, EOS_ID))
                     for p, _ in samples]
                 for k in range(MICRO.n_layers + 1)}
        golds = preds[1]   # level 1 scores 1.0, and at least one level less
        by_hand = {k: corpus_score("rouge-l", preds[k], golds).score for k in preds}
        assert len(set(by_hand.values())) >= 2
        dec = sweep_boundary(base, lset, samples, "rouge-l", golds=golds,
                             decode_budget=3)
        assert dec.per_k_scores == by_hand
        best = max(by_hand.values())
        assert dec.k_star == min(k for k, v in by_hand.items() if v == best)

    def test_smallest_level_wins_ties(self):
        base, lset = micro_setup()
        # "zz" is no vocabulary word, so every level scores 0
        dec = sweep_boundary(base, lset, tuple_samples(), "em", golds=["zz"] * 8,
                             decode_budget=2)
        assert set(dec.per_k_scores.values()) == {0.0}
        assert dec.k_star == 0

    def test_named_metric_from_registry(self):
        base, lset = micro_setup()
        dec = sweep_boundary(base, lset, tuple_samples(), "em",
                             golds=["zz"] * 8, decode_budget=2)
        assert dec.metric == "em"
        assert all(0.0 <= v <= 1.0 for v in dec.per_k_scores.values())

    def test_deterministic(self):
        base, lset = micro_setup()
        a = sweep_boundary(base, lset, tuple_samples(), "em", golds=["zz"] * 8,
                           decode_budget=2)
        b = sweep_boundary(base, lset, tuple_samples(), "em", golds=["zz"] * 8,
                           decode_budget=2)
        assert a.to_dict() == b.to_dict()

    def test_set_hash_recorded(self):
        base, lset = micro_setup()
        dec = sweep_boundary(base, lset, tuple_samples(), "em", golds=["z"] * 8,
                             decode_budget=2)
        assert dec.set_hash == lset.content_hash()

    def test_incompatible_adapters_rejected(self):
        base, _ = micro_setup(seed=0)
        _, other = micro_setup(seed=9)
        with pytest.raises(CompatibilityError):
            sweep_boundary(base, other, tuple_samples(), "em", golds=["z"] * 8)

    def test_scores_every_level_as_an_int(self):
        base, lset = micro_setup()
        dec = sweep_boundary(base, lset, tuple_samples(), "em", golds=["z"] * 8,
                             decode_budget=2)
        assert list(dec.per_k_scores) == [0, 1, 2]
        assert all(type(k) is int for k in dec.per_k_scores)

    def test_gold_count_mismatch(self):
        base, lset = micro_setup()
        with pytest.raises(InputError):
            sweep_boundary(base, lset, tuple_samples(), "em", golds=["z"] * 3)


class TestApplyBoundary:
    """A decision applies as check_set, then drop_above(set, k_star)."""

    def test_drops_above_the_decision(self):
        base, lset = micro_setup()
        dec = BoundaryDecision(k_star=1, per_k_scores={1: 0.5}, metric="em",
                               sample_count=4, method="sweep", seed=0,
                               set_hash=lset.content_hash())
        dec.check_set(lset)
        pruned = drop_above(lset, dec.k_star)
        assert {layer for layer, _ in pruned.adapters} == {1}

    def test_wrong_set_rejected(self):
        base, lset = micro_setup()
        dec = BoundaryDecision(k_star=1, per_k_scores={}, metric="em",
                               sample_count=4, method="sweep", seed=0,
                               set_hash="deadbeef")
        with pytest.raises(CompatibilityError):
            dec.check_set(lset)

    def test_missing_hash_skips_the_check(self):
        base, lset = micro_setup()
        dec = BoundaryDecision(k_star=2, per_k_scores={}, metric="em",
                               sample_count=4, method="knee", seed=0,
                               set_hash=None)
        dec.check_set(lset)
        pruned = drop_above(lset, dec.k_star)
        assert len(pruned.adapters) == len(lset.adapters)


class TestDecisionDict:
    def test_round_trip(self):
        dec = BoundaryDecision(k_star=3, per_k_scores={0: 0.1, 3: 0.9},
                               metric="em", sample_count=100, method="sweep",
                               seed=11, set_hash="aa", extra={"refine": False})
        back = BoundaryDecision.from_dict(dec.to_dict())
        assert back == dec

    def test_malformed(self):
        with pytest.raises(InputError):
            BoundaryDecision.from_dict({"k_star": "x", "per_k_scores": {}})
        with pytest.raises(InputError):
            BoundaryDecision.from_dict({})

    @pytest.mark.parametrize("key", ["k_star", "sample_count", "seed"])
    @pytest.mark.parametrize("value", [1.5, 2.0, True, "2"])
    def test_integer_fields_are_not_cut(self, key, value):
        data = BoundaryDecision(k_star=2, per_k_scores={2: 0.5}, metric="em",
                                sample_count=4, method="sweep", seed=0).to_dict()
        data[key] = value
        with pytest.raises(InputError, match=f"{key} {value!r} is not an integer"):
            BoundaryDecision.from_dict(data)
