"""Acceptance checks at desk model size.

Each class is one release requirement: adapter identities, exact
gradients, the sweep's tie-break toward the smallest level, probe
correctness and metric oracles. Classes that request the stopwatch
fixture assert a one-minute ceiling in its teardown. Boundary quality
across tasks and seeds, report reproduction, partial-vs-dropped parity
and the timed end-to-end chain are not written yet (ROADMAP item 5).
"""

import time

import numpy as np
import pytest

from lorabound import boundary, lora, metrics, model, numerics, probe
from lorabound.vocab import VOCAB_SIZE

from helpers import randomize_adapters, randomize_weights
from oracles import bleu_oracle, contains_oracle, norm, rouge_oracle

DESK = model.ModelConfig()
MICRO = model.ModelConfig(n_layers=2, d_model=8, n_heads=2, d_ff=16,
                          vocab_size=16, max_seq=8)


@pytest.fixture(scope="class")
def stopwatch():
    """One timing budget per requesting class: a minute, asserted at teardown."""
    t0 = time.perf_counter()
    yield
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"suite took {elapsed:.1f}s, budget 60s"


def random_prompts(rng, count, lo=4, hi=16):
    out = []
    for _ in range(count):
        n = int(rng.integers(lo, hi))
        out.append(rng.integers(2, VOCAB_SIZE, size=n).tolist())
    return out


@pytest.fixture(scope="class")
def base():
    return model.init_base(DESK, seed=11)


@pytest.fixture(scope="class")
def full_set(base):
    lset = lora.init_adapters(DESK, targets=("q", "v"), rank=8, seed=7)
    return randomize_adapters(lset, np.random.default_rng(7), std=0.1)


class TestAdapterIdentity:
    """Dropping everything, dropping nothing, and merging must all be
    exact (bitwise for generation, 1e-3 for merged logits)."""

    def test_no_adapters_equals_zero_delta_adapters(self, base, stopwatch):
        fresh = lora.init_adapters(DESK, targets=("q", "v"), rank=8, seed=5)
        # a fresh set's B factors are all zero, so its delta vanishes
        rng = np.random.default_rng(0)
        for prompt in random_prompts(rng, 100):
            bare = model.generate_greedy(base, None, prompt, max_new=8,
                                         stop_token=None)
            with_fresh = model.generate_greedy(base, fresh, prompt, max_new=8,
                                               stop_token=None)
            assert bare == with_fresh

    def test_empty_set_after_full_drop_is_the_base(self, base, full_set,
                                                   stopwatch):
        none_left = lora.drop_above(full_set, 0)
        assert not none_left.adapters
        rng = np.random.default_rng(1)
        for prompt in random_prompts(rng, 100):
            bare = model.generate_greedy(base, None, prompt, max_new=8,
                                         stop_token=None)
            dropped = model.generate_greedy(base, none_left, prompt, max_new=8,
                                            stop_token=None)
            assert bare == dropped

    def test_keeping_every_layer_is_the_tuned_model(self, base, full_set,
                                                    stopwatch):
        kept = lora.drop_above(full_set, DESK.n_layers)
        assert kept.content_hash() == full_set.content_hash()
        rng = np.random.default_rng(2)
        for prompt in random_prompts(rng, 100):
            tuned = model.generate_greedy(base, full_set, prompt, max_new=8,
                                          stop_token=None)
            via_drop = model.generate_greedy(base, kept, prompt, max_new=8,
                                             stop_token=None)
            assert tuned == via_drop

    def test_merged_weights_match_factored_logits(self, base, full_set,
                                                  stopwatch):
        merged = lora.merge(base, full_set)
        rng = np.random.default_rng(3)
        worst = 0.0
        for prompt in random_prompts(rng, 20):
            a = model.next_token_logits(merged, None, np.array(prompt))
            b = model.next_token_logits(base, full_set, np.array(prompt))
            worst = max(worst, float(np.max(np.abs(a - b))))
        assert worst < 1e-3


class TestGradientChecks:
    """Analytic gradients must agree with central finite differences for
    every parameter class on the two-layer micro model."""

    def test_every_parameter_class(self, stopwatch):
        from test_model import check_grads
        w = model.init_base(MICRO, seed=20).astype(np.float64)
        randomize_weights(w, np.random.default_rng(120))
        lset = lora.init_adapters(
            MICRO, targets=("q", "k", "v", "o", "up", "down"), rank=2, seed=3)
        randomize_adapters(lset, np.random.default_rng(121), dtype=np.float64)
        worst = check_grads(w, lset, [1, 2, 3, 4, 5, 6, 7], prompt_len=3,
                            eps=1e-5, tol=1e-3, dtype=np.float64)
        classes = {
            "embeddings": ("tok_emb", "pos_emb"),
            "attention": ("layer01.wq", "layer01.wk", "layer02.wv",
                          "layer02.wo"),
            "ffn": ("layer01.wup", "layer02.wdown"),
            "norms": ("layer01.attn_norm", "layer02.ffn_norm", "final_norm"),
            "lora_a": ("layer01.q.lora_a", "layer02.down.lora_a"),
            "lora_b": ("layer01.v.lora_b", "layer02.up.lora_b"),
        }
        for label, names in classes.items():
            for name in names:
                assert name in worst, f"{label}: {name} never checked"
                assert worst[name] < 1e-3, f"{label}: {name} = {worst[name]}"


class TestSweepTieBreak:
    """Equal scores at every boundary must resolve to the smallest K."""

    def test_constructed_tie_goes_to_zero(self):
        cfg = model.ModelConfig(n_layers=2, d_model=8, n_heads=2, d_ff=16,
                                vocab_size=VOCAB_SIZE, max_seq=64)
        base = model.init_base(cfg, seed=0)
        zero_delta = lora.init_adapters(cfg, targets=("q", "v"), rank=2, seed=1)
        rng = np.random.default_rng(4)
        samples = [SampleStub(p, rng.integers(2, VOCAB_SIZE, size=3).tolist(), "x")
                   for p in random_prompts(rng, 8, lo=4, hi=8)]
        decision = boundary.sweep_boundary(base, zero_delta, samples, "em",
                                           golds=[s.gold_text() for s in samples],
                                           decode_budget=4, seed=0)
        scores = set(decision.per_k_scores.values())
        assert len(scores) == 1
        assert decision.k_star == 0


class SampleStub:
    def __init__(self, prompt_ids, reference_ids, gold):
        self.prompt_ids = prompt_ids
        self.reference_ids = reference_ids
        self.gold = gold

    def gold_text(self) -> str:
        return self.gold


@pytest.fixture(scope="class")
def untrained():
    return model.init_base(DESK, seed=31)


@pytest.fixture(scope="class")
def probe_samples():
    rng = np.random.default_rng(5)
    return [(rng.integers(2, VOCAB_SIZE, size=int(rng.integers(4, 10))).tolist(),
             rng.integers(2, VOCAB_SIZE, size=5).tolist())
            for _ in range(30)]


@pytest.fixture(scope="class")
def untrained_report(untrained, probe_samples):
    return probe.probe_ground_truth(untrained, None, probe_samples, n_tokens=4)


class TestProbeCorrectness:
    """Layer-resolved curves must be consistent with the model's own
    output distribution and sane on an untrained network."""

    def test_top_layer_equals_output_probabilities(self, untrained,
                                                   probe_samples,
                                                   untrained_report):
        # the model's own next-token distribution after each reference prefix
        per_sample = []
        for prompt, ref in probe_samples:
            logits = [model.next_token_logits(untrained, None, prompt + ref[:i])
                      for i in range(4)]
            probs = numerics.softmax_rows(np.array(logits))
            per_sample.append(probs[np.arange(4), ref[:4]])
        np.testing.assert_allclose(untrained_report.gt_curve[-1],
                                   np.mean(per_sample, axis=0), atol=1e-6)

    def test_max_curve_dominates_gt_curve(self, untrained_report):
        assert np.all(untrained_report.max_curve
                      >= untrained_report.gt_curve - 1e-12)

    def test_untrained_model_sits_near_uniform(self, untrained_report):
        v = DESK.vocab_size
        assert np.all(untrained_report.gt_curve >= 1.0 / (3.0 * v))
        assert np.all(untrained_report.gt_curve <= 3.0 / v)


class TestMetricsOracles:
    """Every scoring function must agree with a brute-force oracle on
    random short inputs, and reproduce its frozen examples."""

    WORDS = ["red", "blue", "green", "door", "lamp", "Bird", "12", "-4", "7",
             "the", "?", "|", "=", "."]

    def rand_text(self, rng, n_max=8):
        n = int(rng.integers(0, n_max + 1))
        return " ".join(self.WORDS[i] for i in rng.integers(0, len(self.WORDS),
                                                            size=n))

    def test_frozen_examples(self, stopwatch):
        assert metrics.em_contains("answer = v07 .", "v07") == 1.0
        assert metrics.em_contains("answer = v17", "v07") == 0.0
        assert metrics.em_final_answer("steps 3 then 12 so 15", "15") == 1.0
        assert metrics.em_final_answer("15 but wait 16", "15") == 0.0
        assert metrics.rouge_l("a b c d", "a c d e") == 0.75
        out = metrics.bleu_corpus(["the lamp is red"], ["the lamp is red"])
        assert out == pytest.approx(100.0)

    def test_em_contains_against_oracle(self, stopwatch):
        rng = np.random.default_rng(10)
        for _ in range(200):
            pred = self.rand_text(rng)
            gold = self.rand_text(rng, n_max=3)
            assert metrics.em_contains(pred, gold) == contains_oracle(pred, gold)

    def test_final_answer_against_scan(self, stopwatch):
        rng = np.random.default_rng(11)
        for _ in range(200):
            pred = self.rand_text(rng)
            gold = str(rng.integers(-20, 150))
            last = None
            for w in norm(pred):
                try:
                    int(w)
                except ValueError:
                    continue
                last = w
            want = 1.0 if last == gold else 0.0
            assert metrics.em_final_answer(pred, gold) == want

    def test_rouge_against_lcs_enumeration(self, stopwatch):
        rng = np.random.default_rng(13)
        for _ in range(200):
            pred, gold = self.rand_text(rng, 8), self.rand_text(rng, 8)
            assert metrics.rouge_l(pred, gold) == pytest.approx(
                rouge_oracle(pred, gold), abs=1e-12)

    def test_bleu_against_clipped_counting(self, stopwatch):
        rng = np.random.default_rng(14)
        for _ in range(200):
            count = int(rng.integers(1, 4))
            preds = [self.rand_text(rng, 10) for _ in range(count)]
            golds = [self.rand_text(rng, 10) for _ in range(count)]
            assert metrics.bleu_corpus(preds, golds) == pytest.approx(
                bleu_oracle(preds, golds), abs=1e-9)
