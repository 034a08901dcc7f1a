import numpy as np
import pytest

from lorabound.errors import InputError
from lorabound.metrics import (METRIC_NAMES, bleu_corpus, corpus_score, em_contains,
                               em_final_answer, normalize, rouge_l)

from oracles import bleu_oracle, contains_oracle, rouge_oracle

ALPHABET = ["a", "b", "c", "d", "e"]


def random_text(rng, max_len=8):
    n = int(rng.integers(0, max_len + 1))
    return " ".join(ALPHABET[i] for i in rng.integers(0, len(ALPHABET), size=n))


class TestNormalize:
    def test_strips_punctuation_and_case(self):
        assert normalize("The Answer , IS : paris .") == ["the", "answer", "is", "paris"]

    def test_empty(self):
        assert normalize("") == []
        assert normalize(" . , : ") == []


class TestEmContains:
    def test_substring_of_words_is_not_a_match(self):
        assert em_contains("par is", "paris") == 0.0

    def test_answer_inside_longer_output(self):
        assert em_contains("the answer is paris .", "paris") == 1.0

    def test_multiword_gold_must_be_contiguous(self):
        assert em_contains("a x b", "a b") == 0.0
        assert em_contains("c a b c", "a b") == 1.0

    def test_punctuation_ignored_on_both_sides(self):
        assert em_contains("answer = v07 .", "v07") == 1.0

    def test_empty_gold_always_matches(self):
        assert em_contains("anything", "") == 1.0

    def test_matches_oracle_randomized(self):
        rng = np.random.default_rng(101)
        for _ in range(200):
            pred, gold = random_text(rng), random_text(rng, max_len=3)
            assert em_contains(pred, gold) == contains_oracle(pred, gold)


class TestEmFinalAnswer:
    def test_last_number_wins(self):
        assert em_final_answer("12 + 7 = 19 | answer = 19", "19") == 1.0
        assert em_final_answer("19 then 12", "19") == 0.0

    def test_no_number_scores_zero(self):
        assert em_final_answer("no digits here", "7") == 0.0

    def test_negative_numbers_count(self):
        assert em_final_answer("result -3", "-3") == 1.0

    def test_non_numeric_gold_rejected(self):
        with pytest.raises(InputError):
            em_final_answer("anything", "paris")
        with pytest.raises(InputError):
            em_final_answer("anything", "7 8")


class TestRougeL:
    def test_hand_example(self):
        # LCS of (a b c d) and (a c b d) is 3
        assert rouge_l("a b c d", "a c b d") == pytest.approx(0.75)

    def test_order_matters(self):
        assert rouge_l("a b", "b a") == pytest.approx(0.5)

    def test_perfect_and_disjoint(self):
        assert rouge_l("x y z", "x y z") == 1.0
        assert rouge_l("a b", "c d") == 0.0

    def test_matches_subsequence_enumeration(self):
        rng = np.random.default_rng(303)
        for _ in range(200):
            pred, gold = random_text(rng), random_text(rng)
            assert rouge_l(pred, gold) == pytest.approx(rouge_oracle(pred, gold), abs=1e-12)


class TestBleu:
    def test_short_prediction_brevity(self):
        # all n-gram precisions are 1 (or smoothed 1); only brevity bites
        got = bleu_corpus(["a a"], ["a a a a"])
        assert got == pytest.approx(100.0 * np.exp(-1.0), abs=1e-9)

    def test_perfect_match(self):
        assert bleu_corpus(["a b c d e"], ["a b c d e"]) == pytest.approx(100.0)

    def test_disjoint_is_zero(self):
        assert bleu_corpus(["a a a"], ["b b b"]) == 0.0

    def test_empty_prediction_is_zero(self):
        assert bleu_corpus([""], ["a b"]) == 0.0

    def test_corpus_pooling_differs_from_mean(self):
        preds = ["a b c d", "x"]
        golds = ["a b c d", "y"]
        pooled = bleu_corpus(preds, golds)
        mean = (bleu_corpus([preds[0]], [golds[0]])
                + bleu_corpus([preds[1]], [golds[1]])) / 2
        assert pooled != pytest.approx(mean)

    def test_length_mismatch_rejected(self):
        with pytest.raises(InputError):
            bleu_corpus(["a"], ["a", "b"])
        with pytest.raises(InputError):
            bleu_corpus([], [])

    def test_matches_oracle_randomized(self):
        rng = np.random.default_rng(404)
        for _ in range(200):
            k = int(rng.integers(1, 4))
            preds = [random_text(rng, max_len=10) for _ in range(k)]
            golds = [random_text(rng, max_len=10) for _ in range(k)]
            assert bleu_corpus(preds, golds) == pytest.approx(
                bleu_oracle(preds, golds), abs=1e-9)


class TestCorpusScore:
    def test_mean_metrics_average_per_sample(self):
        report = corpus_score("em", ["v07 .", "wrong"], ["v07", "v01"])
        assert report.score == pytest.approx(0.5)
        assert report.per_sample == [1.0, 0.0]
        assert report.sample_count == 2
        assert report.display_score == pytest.approx(0.5)

    def test_bleu_display_scale(self):
        report = corpus_score("bleu", ["a b c d"], ["a b c d"])
        assert report.score == pytest.approx(1.0)
        assert report.display_score == pytest.approx(100.0)

    def test_bleu_corpus_level_not_mean(self):
        preds = ["a b c d", "x"]
        golds = ["a b c d", "y"]
        report = corpus_score("bleu", preds, golds)
        assert report.score == pytest.approx(bleu_corpus(preds, golds) / 100.0)
        assert len(report.per_sample) == 2

    def test_unknown_metric_rejected(self):
        with pytest.raises(InputError):
            corpus_score("chrf", ["a"], ["a"])

    def test_registry_names(self):
        assert set(METRIC_NAMES) == {"bleu", "em", "em-final", "rouge-l"}
