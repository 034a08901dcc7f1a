"""Synthetic task generators over the frozen vocabulary.

Five supervised tasks plus a pretraining corpus. Every sample is
solvable by an explicit rule (see the solve_* oracles), splits are
disjoint by construction (split-specific key pools or hash
partitioning on the prompt string), and generation is a pure function
of the seed.

Text forms are the source of truth; token ids are recomputed from the
vocabulary table. Reference id lists always end with the stop token.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import vocab
from .errors import InputError
from .fileio import atomic_write_text, read_json, write_json
from .vocab import (ADJECTIVES, ADVERBS, CIPHER_MAP, EOS_ID, KEYS, NAMES,
                    NOUNS_BIO, NOUNS_GENERAL, NOUNS_NEWS, VALUES, VERBS, encode)

_KEY_SET = frozenset(KEYS)

SPLITS = ("train", "validation", "test")
DEFAULT_SIZES = {"train": 2000, "validation": 500, "test": 500}

TASK_NAMES = ("kvqa", "arith", "cipher-mt", "salient-summary", "resp-select")

# the headline metric each task is scored with
TASK_METRICS = {
    "kvqa": "em",
    "arith": "em-final",
    "cipher-mt": "bleu",
    "salient-summary": "rouge-l",
    "resp-select": "accuracy",
}

# split-specific key pools keep kv-qa prompts disjoint across splits
KEY_POOLS = {
    "train": KEYS[:36],
    "validation": KEYS[36:48],
    "test": KEYS[48:60],
}

_MAX_ATTEMPTS_PER_SAMPLE = 500


@dataclass
class Sample:
    prompt_text: str
    reference_text: str
    task: str
    domain: str = "in-domain"
    question_type: str = "none"

    @cached_property
    def prompt_ids(self) -> list[int]:
        return encode(self.prompt_text)

    @cached_property
    def reference_ids(self) -> list[int]:
        return encode(self.reference_text) + [EOS_ID]

    def gold_text(self) -> str:
        """The graded answer span, derived from the reference by task rule."""
        if self.task == "kvqa":
            words = self.reference_text.split()
            if len(words) < 3 or words[:2] != ["answer", "="]:
                raise InputError(f"malformed kv-qa reference: {self.reference_text!r}")
            return " ".join(words[2:])
        if self.task == "arith":
            last = None
            for w in self.reference_text.split():
                if w.isdigit():
                    last = w
            if last is None:
                raise InputError(f"arith reference has no number: {self.reference_text!r}")
            return last
        # translation, summarization and selection grade the whole reference
        return self.reference_text

    def to_dict(self) -> dict:
        return {
            "prompt": self.prompt_text,
            "reference": self.reference_text,
            "task": self.task,
            "domain": self.domain,
            "question_type": self.question_type,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Sample":
        try:
            fields = {"prompt": data["prompt"], "reference": data["reference"],
                      "task": data["task"], "domain": data.get("domain", "in-domain"),
                      "question_type": data.get("question_type", "none")}
        except KeyError as exc:
            raise InputError(f"sample record is missing field {exc}") from exc
        for name, value in fields.items():
            if not isinstance(value, str):
                raise InputError(f"sample field {name!r} must be a string, got {value!r}")
        return cls(prompt_text=fields["prompt"], reference_text=fields["reference"],
                   task=fields["task"], domain=fields["domain"],
                   question_type=fields["question_type"])


def sample_ids(items) -> list[tuple[list[int], list[int]]]:
    """(prompt ids, reference ids) of each item: a Sample, or anything with
    prompt_ids and reference_ids, or a (prompt, reference) pair of id lists."""
    out = []
    for i, item in enumerate(items):
        try:
            if hasattr(item, "prompt_ids"):
                prompt, ref = item.prompt_ids, item.reference_ids
            else:
                prompt, ref = item
            out.append((list(prompt), list(ref)))
        except (AttributeError, TypeError, ValueError):
            raise InputError(
                f"item {i} is neither a Sample nor a (prompt, reference) pair") from None
    return out


@dataclass
class Dataset:
    task: str
    seed: int
    splits: dict[str, list[Sample]] = field(default_factory=dict)

    @property
    def train(self) -> list[Sample]:
        return self.splits.get("train", [])

    @property
    def validation(self) -> list[Sample]:
        return self.splits.get("validation", [])

    @property
    def test(self) -> list[Sample]:
        return self.splits.get("test", [])


def _normalize_sizes(sizes: dict[str, int] | None) -> dict[str, int]:
    if sizes is None:
        return dict(DEFAULT_SIZES)
    unknown = set(sizes) - set(SPLITS)
    if unknown:
        raise InputError(f"unknown split names: {sorted(unknown)}")
    out = {s: int(sizes.get(s, 0)) for s in SPLITS}
    for name, n in out.items():
        if n < 0:
            raise InputError(f"{name} size must be non-negative, got {n}")
    return out


def _bucket(text: str) -> str:
    """Stable 4:1:1 partition of an arbitrary string into a split."""
    h = int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")
    r = h % 6
    if r <= 3:
        return "train"
    return "validation" if r == 4 else "test"


def _fill_by_bucket(sizes: dict[str, int], make_candidate, describe: str) -> dict[str, list[Sample]]:
    """Draw candidates until every split quota is met, routing by prompt hash."""
    splits: dict[str, list[Sample]] = {s: [] for s in SPLITS}
    seen: set[str] = set()
    want = sum(sizes.values())
    attempts = 0
    limit = max(1, want) * _MAX_ATTEMPTS_PER_SAMPLE
    while sum(len(v) for v in splits.values()) < want:
        attempts += 1
        if attempts > limit:
            raise InputError(f"could not fill {describe} quotas; space too small?")
        sample = make_candidate()
        if sample.prompt_text in seen:
            continue
        split = _bucket(sample.prompt_text)
        if len(splits[split]) >= sizes[split]:
            continue
        seen.add(sample.prompt_text)
        splits[split].append(sample)
    return splits


# -- kv-qa ---------------------------------------------------------------------

def _kvqa_sample(rng, pool: list[str], qtype: str, hops: int,
                 facts_per_doc: int, yes_label: bool, which_first: bool) -> Sample:
    slots = 2 * facts_per_doc
    facts: list[tuple[str, str]] = []
    if qtype == "bridge":
        chain = [pool[i] for i in rng.choice(len(pool), size=hops, replace=False)]
        answer = VALUES[rng.integers(len(VALUES))]
        targets = chain[1:] + [answer]
        edges = list(zip(chain, targets))
        used = set(chain)
        question = f"question : {chain[0]} ?"
        reference = f"answer = {answer}"
    elif qtype == "same":
        ka, kb = (pool[i] for i in rng.choice(len(pool), size=2, replace=False))
        va = VALUES[rng.integers(len(VALUES))]
        if yes_label:
            vb = va
        else:
            vb = VALUES[rng.integers(len(VALUES))]
            while vb == va:
                vb = VALUES[rng.integers(len(VALUES))]
        edges = [(ka, va), (kb, vb)]
        used = {ka, kb}
        question = f"question : {ka} same {kb} ?"
        reference = f"answer = {'yes' if va == vb else 'no'}"
    elif qtype == "which":
        ka, kb = (pool[i] for i in rng.choice(len(pool), size=2, replace=False))
        vt = VALUES[rng.integers(len(VALUES))]
        vo = VALUES[rng.integers(len(VALUES))]
        while vo == vt:
            vo = VALUES[rng.integers(len(VALUES))]
        winner = ka if which_first else kb
        edges = [(ka, vt if winner == ka else vo), (kb, vt if winner == kb else vo)]
        used = {ka, kb}
        question = f"question : which {ka} or {kb} : {vt} ?"
        reference = f"answer = {winner}"
    else:
        raise InputError(f"unknown kv-qa question type {qtype!r}")

    forbidden_values = {v for _, v in edges}
    free_keys = [k for k in pool if k not in used]
    n_distract = slots - len(edges)
    if n_distract > len(free_keys):
        raise InputError(
            f"facts_per_doc {facts_per_doc} needs {slots} distinct keys, pool has "
            f"{len(pool)}")
    picks = rng.choice(len(free_keys), size=n_distract, replace=False)
    for i in picks:
        v = VALUES[rng.integers(len(VALUES))]
        while qtype == "which" and v in forbidden_values:
            v = VALUES[rng.integers(len(VALUES))]
        facts.append((free_keys[i], v))

    # spread the question-relevant edges over both documents
    docs: list[list[tuple[str, str]]] = [[], []]
    for i, e in enumerate(edges):
        docs[min(i, 1) if len(edges) <= 2 else (0 if i < (len(edges) + 1) // 2 else 1)].append(e)
    for f in facts:
        docs[0 if len(docs[0]) < facts_per_doc else 1].append(f)
    for doc in docs:
        rng.shuffle(doc)

    doc_texts = [" | ".join(f"{k} : {v}" for k, v in doc) for doc in docs]
    prompt = f"doc : {doc_texts[0]} doc : {doc_texts[1]} {question}"
    return Sample(prompt_text=prompt, reference_text=reference, task="kvqa",
                  question_type="bridge" if qtype == "bridge" else "comparison")


def gen_kvqa(seed: int, sizes=None, hops: int = 2, bridge_ratio: float = 0.75,
             facts_per_doc: int = 4) -> Dataset:
    """Two-document key lookup: bridge chains and comparison questions.

    Keys come from disjoint per-split pools, so no fact pattern leaks
    between splits. Answers are always extractable from the prompt.
    """
    if hops < 1:
        raise InputError(f"hops must be at least 1, got {hops}")
    if not 0.0 <= bridge_ratio <= 1.0:
        raise InputError(f"bridge_ratio must be in [0, 1], got {bridge_ratio}")
    sizes = _normalize_sizes(sizes)
    rng = np.random.default_rng(seed)
    splits: dict[str, list[Sample]] = {}
    for split in SPLITS:
        size = sizes[split]
        pool = KEY_POOLS[split]
        n_bridge = round(size * bridge_ratio)
        qtypes = ["bridge"] * n_bridge
        for i in range(size - n_bridge):
            qtypes.append("same" if i % 2 == 0 else "which")
        rng.shuffle(qtypes)
        seen: set[str] = set()
        out: list[Sample] = []
        flips = 0
        for qtype in qtypes:
            for _ in range(_MAX_ATTEMPTS_PER_SAMPLE):
                s = _kvqa_sample(rng, pool, qtype, hops, facts_per_doc,
                                 yes_label=flips % 2 == 0, which_first=flips % 2 == 0)
                if s.prompt_text not in seen:
                    break
            else:
                raise InputError(f"could not build a fresh kv-qa sample for {split}")
            flips += 1
            seen.add(s.prompt_text)
            out.append(s)
        splits[split] = out
    return Dataset(task="kvqa", seed=seed, splits=splits)


def solve_kvqa(prompt_text: str) -> str:
    """Rule-based extractor: parse the facts, follow the chain, answer exactly."""
    words = prompt_text.split()
    try:
        q_at = words.index("question")
    except ValueError:
        raise InputError("prompt has no question section") from None
    facts: dict[str, str] = {}
    i = 0
    while i < q_at - 2:
        if words[i] in _KEY_SET and words[i + 1] == ":":
            facts[words[i]] = words[i + 2]
            i += 3
        else:
            i += 1
    q = words[q_at + 2:]
    if q and q[-1] == "?":
        q = q[:-1]

    def resolve(key: str) -> str:
        cur = facts.get(key)
        hops = 0
        while cur in facts and hops < 8:
            cur = facts[cur]
            hops += 1
        if cur is None:
            raise InputError(f"question key {key!r} has no fact")
        return cur

    if len(q) == 1:
        return f"answer = {resolve(q[0])}"
    if len(q) == 3 and q[1] == "same":
        return f"answer = {'yes' if resolve(q[0]) == resolve(q[2]) else 'no'}"
    if len(q) == 6 and q[0] == "which" and q[2] == "or" and q[4] == ":":
        ka, kb, vt = q[1], q[3], q[5]
        if resolve(ka) == vt:
            return f"answer = {ka}"
        if resolve(kb) == vt:
            return f"answer = {kb}"
        raise InputError(f"neither {ka} nor {kb} maps to {vt}")
    raise InputError(f"unrecognized question form: {' '.join(q)}")


# -- arithmetic ----------------------------------------------------------------

def gen_arith(seed: int, sizes=None, operand_min: int = 2,
              operand_max: int = 49) -> Dataset:
    """Two-step integer chains with worked steps in the reference.

    All intermediate and final values stay inside the number vocabulary.
    Splits partition the operand-tuple space by hash.
    """
    if not 0 <= operand_min <= operand_max < vocab.NUMBER_LIMIT:
        raise InputError(
            f"operand range [{operand_min}, {operand_max}] must sit inside "
            f"[0, {vocab.NUMBER_LIMIT})")
    sizes = _normalize_sizes(sizes)
    rng = np.random.default_rng(seed)
    ops = ("+", "-")

    def make() -> Sample:
        while True:
            a = int(rng.integers(operand_min, operand_max + 1))
            b = int(rng.integers(operand_min, operand_max + 1))
            c = int(rng.integers(operand_min, operand_max + 1))
            op1 = ops[rng.integers(2)]
            op2 = ops[rng.integers(2)]
            r1 = a + b if op1 == "+" else a - b
            r2 = r1 + c if op2 == "+" else r1 - c
            if 0 <= r1 < vocab.NUMBER_LIMIT and 0 <= r2 < vocab.NUMBER_LIMIT:
                break
        prompt = f"compute : {a} {op1} {b} {op2} {c} = ?"
        ref = f"{a} {op1} {b} = {r1} | {r1} {op2} {c} = {r2} | answer = {r2}"
        return Sample(prompt_text=prompt, reference_text=ref, task="arith")

    splits = _fill_by_bucket(sizes, make, "arith")
    return Dataset(task="arith", seed=seed, splits=splits)


def solve_arith(prompt_text: str) -> str:
    words = prompt_text.split()
    if len(words) < 8 or words[0] != "compute":
        raise InputError(f"unrecognized arith prompt: {prompt_text!r}")
    a, op1, b, op2, c = words[2:7]
    x, y, z = int(a), int(b), int(c)
    r1 = x + y if op1 == "+" else x - y
    r2 = r1 + z if op2 == "+" else r1 - z
    return f"{a} {op1} {b} = {r1} | {r1} {op2} {c} = {r2} | answer = {r2}"


# -- cipher translation --------------------------------------------------------

_CIPHER_DOMAINS = {
    "in-domain": {
        "nouns": NOUNS_GENERAL + NOUNS_NEWS, "verbs": VERBS,
        "adjs": ADJECTIVES, "advs": ADVERBS,
    },
    "ood-a": {
        "nouns": NOUNS_NEWS, "verbs": VERBS[:6],
        "adjs": ADJECTIVES[:8], "advs": ADVERBS[:4],
    },
    "ood-b": {
        "nouns": NOUNS_BIO, "verbs": VERBS[6:],
        "adjs": ADJECTIVES[8:], "advs": ADVERBS[4:],
    },
}

_CIPHER_CATS = ("nouns", "verbs", "adjs", "advs")
_CIPHER_CAT_WEIGHTS = (0.4, 0.25, 0.25, 0.1)


def reorder_pairs(tokens: list[str]) -> list[str]:
    """The fixed local reordering: swap each adjacent pair, tail stays put."""
    out = list(tokens)
    for i in range(0, len(out) - 1, 2):
        out[i], out[i + 1] = out[i + 1], out[i]
    return out


def cipher_transform(words: list[str]) -> list[str]:
    """Substitute every word through the fixed cipher, then reorder."""
    missing = [w for w in words if w not in CIPHER_MAP]
    if missing:
        raise InputError(f"words not covered by the cipher: {missing}")
    return reorder_pairs([CIPHER_MAP[w] for w in words])


def gen_cipher_mt(seed: int, sizes=None, domain: str = "in-domain") -> Dataset:
    """Token substitution cipher plus pair reordering as a translation stand-in.

    The cipher is shared by every domain; domains only shift which source
    words appear, so out-of-domain splits test the same mapping under a
    different unigram distribution.
    """
    if domain not in _CIPHER_DOMAINS:
        raise InputError(
            f"unknown domain {domain!r}; expected one of {sorted(_CIPHER_DOMAINS)}")
    sizes = _normalize_sizes(sizes)
    rng = np.random.default_rng(seed)
    pools = _CIPHER_DOMAINS[domain]

    def make() -> Sample:
        length = int(rng.integers(4, 9))
        cats = rng.choice(len(_CIPHER_CATS), size=length, p=_CIPHER_CAT_WEIGHTS)
        words = [pools[_CIPHER_CATS[c]][rng.integers(len(pools[_CIPHER_CATS[c]]))]
                 for c in cats]
        target = cipher_transform(words)
        return Sample(prompt_text=f"translate : {' '.join(words)} =",
                      reference_text=" ".join(target), task="cipher-mt",
                      domain=domain)

    splits = _fill_by_bucket(sizes, make, f"cipher-mt/{domain}")
    return Dataset(task="cipher-mt", seed=seed, splits=splits)


def solve_cipher(prompt_text: str) -> str:
    words = prompt_text.split()
    if len(words) < 3 or words[0] != "translate" or words[-1] != "=":
        raise InputError(f"unrecognized cipher prompt: {prompt_text!r}")
    return " ".join(cipher_transform(words[2:-1]))


# -- salient summary -----------------------------------------------------------

def gen_salient_summary(seed: int, sizes=None) -> Dataset:
    """Short dialogues with note-marked fact pairs; the summary lists them in order."""
    sizes = _normalize_sizes(sizes)
    rng = np.random.default_rng(seed)
    chatter_nouns = NOUNS_GENERAL + NOUNS_NEWS

    def make() -> Sample:
        speakers = [NAMES[i] for i in rng.choice(len(NAMES), size=2, replace=False)]
        n_turns = int(rng.integers(5, 8))
        n_facts = int(rng.integers(2, 4))
        fact_turns = set(rng.choice(n_turns, size=n_facts, replace=False).tolist())
        facts: list[tuple[str, str]] = []
        fact_seen: set[tuple[str, str]] = set()
        turns: list[str] = []
        for t in range(n_turns):
            who = speakers[t % 2]
            if t in fact_turns:
                while True:
                    pair = (ADJECTIVES[rng.integers(len(ADJECTIVES))],
                            chatter_nouns[rng.integers(len(chatter_nouns))])
                    if pair not in fact_seen:
                        break
                fact_seen.add(pair)
                facts.append(pair)
                turns.append(f"{who} : note {pair[0]} {pair[1]} .")
            else:
                words = [VERBS[rng.integers(len(VERBS))],
                         ADJECTIVES[rng.integers(len(ADJECTIVES))],
                         chatter_nouns[rng.integers(len(chatter_nouns))],
                         ADVERBS[rng.integers(len(ADVERBS))]]
                turns.append(f"{who} : {' '.join(words)} .")
        prompt = "dialog : " + " | ".join(turns) + " summary :"
        reference = " | ".join(f"{a} {n}" for a, n in facts)
        return Sample(prompt_text=prompt, reference_text=reference,
                      task="salient-summary")

    splits = _fill_by_bucket(sizes, make, "salient-summary")
    return Dataset(task="salient-summary", seed=seed, splits=splits)


def solve_summary(prompt_text: str) -> str:
    words = prompt_text.split()
    facts = []
    i = 0
    while i < len(words):
        if words[i] == "note":
            j = i + 1
            span = []
            while j < len(words) and words[j] not in (".", "|"):
                span.append(words[j])
                j += 1
            facts.append(" ".join(span))
            i = j
        else:
            i += 1
    if not facts:
        raise InputError("no note-marked facts in prompt")
    return " | ".join(facts)


# -- response selection --------------------------------------------------------

def gen_resp_select(seed: int, sizes=None) -> Dataset:
    """Dialog/candidate pairs labeled yes/no, balanced exactly 50/50.

    Negatives are responses swapped in from a dialogue about a different
    topic noun, so topical match decides the label.
    """
    sizes = _normalize_sizes(sizes)
    for name, n in sizes.items():
        if n % 2 != 0:
            raise InputError(
                f"resp-select needs even split sizes for exact balance; "
                f"{name} is {n}")
    rng = np.random.default_rng(seed)
    topics = NOUNS_GENERAL + NOUNS_NEWS

    def make_response(topic: str) -> str:
        return " ".join([
            VERBS[rng.integers(len(VERBS))],
            ADJECTIVES[rng.integers(len(ADJECTIVES))],
            topic,
            ADVERBS[rng.integers(len(ADVERBS))],
        ])

    label_next = {"train": 0, "validation": 0, "test": 0}
    splits: dict[str, list[Sample]] = {s: [] for s in SPLITS}
    seen: set[str] = set()
    want = sum(sizes.values())
    attempts = 0
    limit = max(1, want) * _MAX_ATTEMPTS_PER_SAMPLE
    while sum(len(v) for v in splits.values()) < want:
        attempts += 1
        if attempts > limit:
            raise InputError("could not fill resp-select quotas")
        topic = topics[rng.integers(len(topics))]
        other = topics[rng.integers(len(topics))]
        while other == topic:
            other = topics[rng.integers(len(topics))]
        speakers = [NAMES[i] for i in rng.choice(len(NAMES), size=2, replace=False)]
        turns = []
        for t in range(int(rng.integers(3, 5))):
            words = [VERBS[rng.integers(len(VERBS))],
                     ADJECTIVES[rng.integers(len(ADJECTIVES))],
                     topic,
                     ADVERBS[rng.integers(len(ADVERBS))]]
            turns.append(f"{speakers[t % 2]} : {' '.join(words)} .")
        positive = rng.random() < 0.5
        candidate = make_response(topic if positive else other)
        prompt = ("dialog : " + " | ".join(turns)
                  + f" | candidate : {candidate} | suitable ?")
        if prompt in seen:
            continue
        split = _bucket(prompt)
        if len(splits[split]) >= sizes[split]:
            continue
        # exact balance: each split alternates between the label it still needs
        need_yes = label_next[split] == 0
        if positive != need_yes:
            continue
        seen.add(prompt)
        label_next[split] ^= 1
        splits[split].append(Sample(
            prompt_text=prompt, reference_text="yes" if positive else "no",
            task="resp-select"))
    return Dataset(task="resp-select", seed=seed, splits=splits)


def solve_resp_select(prompt_text: str) -> str:
    words = prompt_text.split()
    try:
        cand_at = words.index("candidate")
    except ValueError:
        raise InputError("prompt has no candidate section") from None
    topics = set(NOUNS_GENERAL + NOUNS_NEWS)
    dialog_nouns = {w for w in words[:cand_at] if w in topics}
    cand_end = words.index("suitable") if "suitable" in words else len(words)
    cand_nouns = {w for w in words[cand_at:cand_end] if w in topics}
    return "yes" if cand_nouns & dialog_nouns else "no"


SOLVERS = {
    "kvqa": solve_kvqa,
    "arith": solve_arith,
    "cipher-mt": solve_cipher,
    "salient-summary": solve_summary,
    "resp-select": solve_resp_select,
}

GENERATORS = {
    "kvqa": gen_kvqa,
    "arith": gen_arith,
    "cipher-mt": gen_cipher_mt,
    "salient-summary": gen_salient_summary,
    "resp-select": gen_resp_select,
}


# -- pretraining corpus --------------------------------------------------------

def _all_arith_facts() -> list[str]:
    facts = []
    for a in range(2, 50):
        for b in range(2, 50):
            facts.append(f"{a} + {b} = {a + b}")
            if a - b >= 0:
                facts.append(f"{a} - {b} = {a - b}")
    return facts


def gen_pretrain_corpus(seed: int, n_tokens: int = 250_000,
                        max_seq: int = 128) -> list[list[int]]:
    """Mixed stanza corpus dominated by verbatim copying and counting
    runs, with grammar sentences, key/value recall patterns, two-operand
    arithmetic, cipher word pairings, polarity statements and dialogue
    fragments keeping the token statistics broad.

    Returns token-id sequences of at most max_seq tokens, totalling at
    least n_tokens.
    """
    if n_tokens < 10 * max_seq:
        raise InputError(
            f"corpus budget {n_tokens} is below the floor of {10 * max_seq} tokens")
    rng = np.random.default_rng(seed)
    all_nouns = NOUNS_GENERAL + NOUNS_NEWS + NOUNS_BIO
    cipherable = vocab.CIPHERABLE
    copy_pool = list(VALUES) + [str(i) for i in range(50, 150)] + list(KEYS)

    arith_facts = _all_arith_facts()
    arith_order = rng.permutation(len(arith_facts))
    arith_pos = 0

    def next_arith() -> str:
        nonlocal arith_pos
        fact = arith_facts[arith_order[arith_pos % len(arith_facts)]]
        arith_pos += 1
        return fact

    def pick(pool):
        return pool[rng.integers(len(pool))]

    def sentence() -> list[str]:
        subj = pick(NAMES) if rng.random() < 0.4 else pick(all_nouns)
        words = [subj, pick(VERBS), pick(ADJECTIVES), pick(all_nouns)]
        if rng.random() < 0.5:
            words.append(pick(ADVERBS))
        words.append(".")
        return words

    def grammar_stanza() -> list[str]:
        out: list[str] = []
        for _ in range(int(rng.integers(1, 4))):
            out.extend(sentence())
        return out

    def kv_stanza() -> list[str]:
        n = int(rng.integers(3, 8))
        keys = [KEYS[i] for i in rng.choice(len(KEYS), size=n, replace=False)]
        vals = [VALUES[rng.integers(len(VALUES))] for _ in keys]
        facts = dict(zip(keys, vals))
        two_hop = rng.random() < 0.2 and n >= 3
        if two_hop:
            # reroute one key through another so the echo needs two lookups
            facts[keys[1]] = keys[2]
        pairs = [f"{k} : {v}" for k, v in facts.items()]
        form = rng.random()
        if form < 0.45:
            body = f"facts : {' | '.join(pairs)}"
        else:
            half = max(1, len(pairs) // 2)
            body = (f"doc : {' | '.join(pairs[:half])} "
                    f"doc : {' | '.join(pairs[half:])}")
        # several queries per stanza; each one is a retrieval supervision point
        n_q = int(rng.integers(2, min(n, 4) + 1))
        asked = [keys[i] for i in rng.choice(n, size=n_q, replace=False)]
        echoes = []
        for ask in asked:
            answer = facts[ask]
            if answer in facts:
                answer = facts[answer]
            tail = rng.random()
            if tail < 0.4:
                echoes.append(f"{ask} ? {answer}")
            elif tail < 0.75:
                echoes.append(f"question : {ask} ? {answer}")
            else:
                echoes.append(f"question : {ask} ? answer = {answer}")
        return f"{body} | {' | '.join(echoes)}".split()

    def copy_stanza() -> list[str]:
        # verbatim repetition: the cleanest pressure toward match-and-copy
        pool = copy_pool
        n = int(rng.integers(4, 9))
        toks = [pool[i] for i in rng.choice(len(pool), size=n, replace=False)]
        return ["copy", ":"] + toks + ["|"] + toks + ["."]

    def count_stanza() -> list[str]:
        # ascending runs give a one-hop reason for a previous-token head
        # to exist before the two-hop copy circuit needs it
        start = int(rng.integers(50, 140))
        n = int(rng.integers(4, 9))
        return ["compute", ":"] + [str(start + i) for i in range(n)] + ["."]

    def arith_stanza() -> list[str]:
        parts = [next_arith() for _ in range(int(rng.integers(2, 5)))]
        roll = rng.random()
        if roll < 0.35:
            a = int(rng.integers(2, 50))
            b = int(rng.integers(2, 50))
            c = int(rng.integers(2, 50))
            r1 = a + b
            if r1 - c >= 0:
                parts.append(f"{a} + {b} = {r1} | {r1} - {c} = {r1 - c}")
        elif roll < 0.6:
            a = int(rng.integers(2, 50))
            b = int(rng.integers(2, 50))
            parts.append(f"compute : {a} + {b} = ? {a + b}")
        return " . ".join(parts).split() + ["."]

    def cipher_stanza() -> list[str]:
        out: list[str] = []
        for _ in range(int(rng.integers(2, 5))):
            w = pick(cipherable)
            if rng.random() < 0.3:
                out.extend(["translate", ":", w, "=", CIPHER_MAP[w], "."])
            else:
                out.extend([w, "->", CIPHER_MAP[w], "."])
        return out

    def polarity_stanza() -> list[str]:
        out: list[str] = []
        for _ in range(int(rng.integers(1, 4))):
            pool = VALUES if rng.random() < 0.5 else vocab.NUMBERS
            x = pick(pool)
            if rng.random() < 0.5:
                out.extend([x, "same", x, "?", "yes", "."])
            else:
                y = pick(pool)
                while y == x:
                    y = pick(pool)
                out.extend([x, "same", y, "?", "no", "."])
        return out

    def dialog_stanza() -> list[str]:
        speakers = [NAMES[i] for i in rng.choice(len(NAMES), size=2, replace=False)]
        turns = []
        notes: list[str] = []
        for t in range(int(rng.integers(2, 4))):
            if rng.random() < 0.3:
                pair = f"{pick(ADJECTIVES)} {pick(all_nouns)}"
                notes.append(pair)
                turns.append(f"{speakers[t % 2]} : note {pair} .")
            else:
                turns.append(f"{speakers[t % 2]} : {pick(VERBS)} {pick(ADJECTIVES)} "
                             f"{pick(all_nouns)} .")
        text = "dialog : " + " | ".join(turns)
        roll = rng.random()
        if notes and roll < 0.4:
            # echoing a marked fact is the germ of the summarization skill
            text += f" summary : {notes[0]}"
        elif roll < 0.55:
            topic = pick(all_nouns)
            text += f" | candidate : {pick(VERBS)} {pick(ADJECTIVES)} {topic}"
        return text.split()

    # Heavily weighted toward copying and counting: a 12-layer d=64 model
    # only crosses the match-and-copy formation threshold when those two
    # stanza families dominate, and every downstream skill rides on that
    # circuit. The other families keep the token statistics broad.
    stanzas = (grammar_stanza, kv_stanza, arith_stanza, cipher_stanza,
               polarity_stanza, dialog_stanza, copy_stanza, count_stanza)
    weights = np.array([0.04, 0.10, 0.04, 0.03, 0.02, 0.02, 0.50, 0.25])

    seqs: list[list[int]] = []
    total = 0
    while total < n_tokens:
        words: list[str] = []
        while True:
            kind = int(rng.choice(len(stanzas), p=weights))
            chunk = stanzas[kind]()
            if len(words) + len(chunk) > max_seq:
                break
            words.extend(chunk)
            if len(words) >= max_seq - 8:
                break
        if len(words) < 2:
            continue
        seqs.append(encode(" ".join(words)))
        total += len(words)
    return seqs


# -- serialization -------------------------------------------------------------

def save_dataset(dataset: Dataset, out_dir) -> list[str]:
    """Write one JSONL file per split plus the vocabulary table; returns paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for split in SPLITS:
        samples = dataset.splits.get(split, [])
        path = os.path.join(out_dir, f"{split}.jsonl")
        lines = [json.dumps(s.to_dict(), sort_keys=True, separators=(",", ":"))
                 for s in samples]
        atomic_write_text(path, "\n".join(lines) + ("\n" if lines else ""))
        paths.append(path)
    meta_path = os.path.join(out_dir, "dataset.json")
    write_json(meta_path, {"task": dataset.task, "seed": dataset.seed,
                           "sizes": {s: len(dataset.splits.get(s, [])) for s in SPLITS},
                           "vocab_hash": vocab.vocab_hash()})
    paths.append(meta_path)
    vocab_path = os.path.join(out_dir, "vocab.json")
    vocab.write_vocab_file(vocab_path)
    paths.append(vocab_path)
    return paths


def load_dataset(in_dir) -> Dataset:
    """Read a dataset directory back; token ids are recomputed from the table."""
    meta_path = os.path.join(in_dir, "dataset.json")
    if not os.path.exists(meta_path):
        raise InputError(f"{in_dir} has no dataset.json")
    meta = read_json(meta_path)
    task, seed = meta.get("task", "unknown"), meta.get("seed", 0)
    if not isinstance(task, str) or type(seed) is not int:
        raise InputError(f"{meta_path}: task must be a string and seed an integer")
    vocab_path = os.path.join(in_dir, "vocab.json")
    if os.path.exists(vocab_path):
        vocab.check_vocab_file(vocab_path)
    splits: dict[str, list[Sample]] = {}
    for split in SPLITS:
        path = os.path.join(in_dir, f"{split}.jsonl")
        samples: list[Sample] = []
        if os.path.exists(path):
            with open(path, encoding="utf-8") as f:
                for line_no, line in enumerate(f, start=1):
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        record = json.loads(line)
                    except json.JSONDecodeError as exc:
                        raise InputError(
                            f"{path}:{line_no} is not valid JSON: {exc}") from exc
                    if not isinstance(record, dict):
                        raise InputError(f"{path}:{line_no} is not a JSON object")
                    try:
                        samples.append(Sample.from_dict(record))
                    except InputError as exc:
                        raise InputError(f"{path}:{line_no}: {exc}") from None
        splits[split] = samples
    return Dataset(task=task, seed=seed, splits=splits)
