"""Text metrics over whitespace-tokenized strings.

All matching happens after one frozen normalization: lowercase, split on
whitespace, drop the punctuation tokens listed in STRIP_TOKENS. Scores
are in [0, 1]; BLEU is multiplied by 100 at the reporting layer only.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass, field

from .errors import InputError

# frozen: editing this list invalidates recorded scores
STRIP_TOKENS = frozenset({".", ",", ":", ";", "!", "?", "|", "=", "(", ")"})

_NUMBER_RE = re.compile(r"^-?\d+$")


def normalize(text: str) -> list[str]:
    """Lowercase, collapse whitespace, drop punctuation-only tokens."""
    return [w for w in text.lower().split() if w not in STRIP_TOKENS]


def _contains(haystack: list[str], needle: list[str]) -> bool:
    if not needle:
        return True
    n = len(needle)
    return any(haystack[i:i + n] == needle for i in range(len(haystack) - n + 1))


def em_contains(pred: str, gold: str) -> float:
    """1.0 iff the normalized gold appears contiguously in the normalized pred."""
    return 1.0 if _contains(normalize(pred), normalize(gold)) else 0.0


def em_final_answer(pred: str, gold: str) -> float:
    """1.0 iff the last number token in pred equals gold; 0.0 when pred has none."""
    gold_tokens = normalize(gold)
    if len(gold_tokens) != 1 or not _NUMBER_RE.match(gold_tokens[0]):
        raise InputError(f"gold must be a single number token, got {gold!r}")
    last = None
    for w in normalize(pred):
        if _NUMBER_RE.match(w):
            last = w
    return 1.0 if last == gold_tokens[0] else 0.0


def _lcs_len(a: list[str], b: list[str]) -> int:
    # rolling 1-D DP over the shorter side
    if len(b) > len(a):
        a, b = b, a
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b, start=1):
            if x == y:
                cur.append(prev[j - 1] + 1)
            else:
                cur.append(max(prev[j], cur[j - 1]))
        prev = cur
    return prev[-1]


def rouge_l(pred: str, gold: str) -> float:
    """LCS F-measure (beta = 1) over normalized tokens."""
    p, g = normalize(pred), normalize(gold)
    if not p and not g:
        return 1.0
    if not p or not g:
        return 0.0
    lcs = _lcs_len(p, g)
    if lcs == 0:
        return 0.0
    precision = lcs / len(p)
    recall = lcs / len(g)
    return 2 * precision * recall / (precision + recall)


def _ngram_counts(tokens: list[str], n: int) -> Counter:
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def bleu_corpus(preds: list[str], golds: list[str]) -> float:
    """Corpus BLEU up to 4-grams on the x100 scale.

    Clipped n-gram matches are pooled over the corpus. Orders >= 2 get
    add-one smoothing whenever their match count is zero; a zero unigram
    precision keeps the score at zero. Standard brevity penalty.
    """
    if len(preds) != len(golds):
        raise InputError(f"got {len(preds)} predictions for {len(golds)} references")
    if not preds:
        raise InputError("empty corpus")
    matches = [0] * 5
    totals = [0] * 5
    pred_len = 0
    gold_len = 0
    for pred, gold in zip(preds, golds):
        p, g = normalize(pred), normalize(gold)
        pred_len += len(p)
        gold_len += len(g)
        for n in range(1, 5):
            pc = _ngram_counts(p, n)
            gc = _ngram_counts(g, n)
            matches[n] += sum((pc & gc).values())
            totals[n] += max(0, len(p) - n + 1)
    if totals[1] == 0 or matches[1] == 0:
        return 0.0
    log_sum = 0.0
    for n in range(1, 5):
        m, t = matches[n], totals[n]
        if n >= 2 and m == 0:
            m, t = m + 1, t + 1
        log_sum += math.log(m / t) / 4.0
    bp = 1.0 if pred_len >= gold_len else math.exp(1.0 - gold_len / max(1, pred_len))
    return 100.0 * bp * math.exp(log_sum)


@dataclass
class EvalReport:
    """Corpus score plus per-sample breakdown for one metric."""

    metric: str
    score: float                      # always in [0, 1]
    sample_count: int
    per_sample: list[float] = field(default_factory=list)

    @property
    def display_score(self) -> float:
        """BLEU is conventionally reported x100; everything else as-is."""
        return self.score * 100.0 if self.metric == "bleu" else self.score


_MEAN_METRICS = {
    "em": em_contains,
    "em-final": em_final_answer,
    "rouge-l": rouge_l,
}

METRIC_NAMES = tuple(sorted(_MEAN_METRICS)) + ("bleu",)


def corpus_score(metric: str, preds: list[str], golds: list[str]) -> EvalReport:
    """Score a whole corpus with a named metric; returns an EvalReport."""
    if len(preds) != len(golds):
        raise InputError(f"got {len(preds)} predictions for {len(golds)} references")
    if not preds:
        raise InputError("empty corpus")
    if metric in _MEAN_METRICS:
        fn = _MEAN_METRICS[metric]
        per = [fn(p, g) for p, g in zip(preds, golds)]
        return EvalReport(metric=metric, score=sum(per) / len(per),
                          sample_count=len(per), per_sample=per)
    if metric == "bleu":
        per = [bleu_corpus([p], [g]) / 100.0 for p, g in zip(preds, golds)]
        return EvalReport(metric=metric, score=bleu_corpus(preds, golds) / 100.0,
                          sample_count=len(preds), per_sample=per)
    raise InputError(f"unknown metric {metric!r}; expected one of {METRIC_NAMES}")
