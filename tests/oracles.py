"""Independent brute-force reference implementations.

Deliberately naive: exponential subsequence enumeration, explicit
position scans, no shared helpers with the package's metrics, a greedy
decoder that reruns the full forward for every new token, a probe that
runs one forward per sample, a training step that runs one forward
and backward per sequence, a gelu backward written as one expression,
and the softmax, rmsnorm and gelu forwards as chains of fresh arrays.
Slow but obviously correct on short inputs; the real implementations
must agree with them. The task solvers (SOLVERS) rebuild each task's
reference from its prompt by an explicit rule, so every generated
sample is shown solvable.
"""

import math

import numpy as np

from lorabound.errors import InputError
from lorabound.model import forward_collect, lens_probs, next_token_logits
from lorabound.numerics import adam_step, clip_by_global_norm
from lorabound.tasks import cipher_transform
from lorabound.vocab import KEYS


def softmax_rows_oracle(x):
    """Row-wise softmax as a chain of fresh arrays, max taken along the row."""
    e = x - x.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def rmsnorm_fwd_oracle(x, gain, eps):
    """(x * inv * gain, inv) with inv = 1 / sqrt(mean(x * x) + eps) per row."""
    ms = np.mean(x * x, axis=-1, keepdims=True) + x.dtype.type(eps)
    inv = 1.0 / np.sqrt(ms)
    return x * inv * gain, inv


def gelu_fwd_oracle(x):
    """(0.5 * x * (1 + th), th) with th = tanh(c * (x + k * x * x * x)), built
    one fresh temporary at a time in that rounding order."""
    c, k = math.sqrt(2.0 / math.pi), 0.044715
    th = np.tanh(c * (x + k * x * x * x))
    return 0.5 * x * (1.0 + th), th


def gelu_bwd_oracle(d_y, x, th):
    """The tanh-gelu backward as one expression; th = tanh(c * (x + k * x^3))."""
    c, k = math.sqrt(2.0 / math.pi), 0.044715
    d_inner = c * (1.0 + 3.0 * k * x * x)
    return d_y * (0.5 * (1.0 + th) + 0.5 * x * (1.0 - th * th) * d_inner)


def probe_oracle(weights, adapters, samples, n_tokens):
    """Mean readout curves (gt, max), each [L, n_tokens], one forward per sample.

    Samples are (prompt, reference) pairs; those with a reference shorter
    than n_tokens are skipped.
    """
    n_layers = weights.cfg.n_layers
    gt_sum = np.zeros((n_layers, n_tokens))
    max_sum = np.zeros((n_layers, n_tokens))
    count = 0
    for prompt, ref in samples:
        if len(ref) < n_tokens:
            continue
        row = list(prompt) + list(ref[:n_tokens])
        hidden = forward_collect(weights, adapters, [row])[:, 0]    # [L, t, d]
        positions = [len(prompt) - 1 + i for i in range(n_tokens)]
        dists = lens_probs(weights, hidden, positions)     # [L, n, V]
        gt_sum += dists[:, np.arange(n_tokens), np.asarray(ref[:n_tokens])]
        max_sum += dists.max(axis=-1)
        count += 1
    return gt_sum / count, max_sum / count


def train_step_oracle(examples, grad_fn, params, state, grad_clip):
    """One optimizer step, one grad_fn call per (inputs, targets, mask) row,
    each passed as a batch of one row [1, t].

    Sums the rows' gradients, scales by 1 / len(examples), clips, applies
    one Adam step and returns the mean loss; a drop-in for
    train._batched_step.
    """
    total = {}
    loss_sum = 0.0
    for example in examples:
        loss, grads = grad_fn(*(a[None] for a in example))
        loss_sum += loss
        for name, g in grads.items():
            if name in total:
                total[name] += g
            else:
                total[name] = g
    inv = 1.0 / len(examples)
    for g in total.values():
        g *= g.dtype.type(inv)
    clip_by_global_norm(total, grad_clip)
    adam_step(params, total, state)
    return loss_sum * inv


def greedy_oracle(weights, adapters, prompt, max_new, stop_token):
    """Greedy decoding without a cache or batch: one full forward per token.

    Stops at stop_token (included in the output), after max_new tokens,
    or when the sequence fills the context window. Ties go to the lowest
    token id.
    """
    seq = list(prompt)
    out = []
    for _ in range(max_new):
        if len(seq) >= weights.cfg.max_seq:
            break
        nxt = int(np.argmax(next_token_logits(weights, adapters, seq)))
        seq.append(nxt)
        out.append(nxt)
        if nxt == stop_token:
            break
    return out


def norm(text):
    strip = {".", ",", ":", ";", "!", "?", "|", "=", "(", ")"}
    return [w for w in text.lower().split() if w not in strip]


def is_subsequence(sub, seq):
    pos = 0
    for x in sub:
        found = False
        while pos < len(seq):
            if seq[pos] == x:
                found = True
                pos += 1
                break
            pos += 1
        if not found:
            return False
    return True


def lcs_oracle(a, b):
    """Longest common subsequence by enumerating every subsequence of a."""
    assert len(a) <= 12, "oracle is exponential"
    best = 0
    for mask in range(1 << len(a)):
        sub = [a[i] for i in range(len(a)) if (mask >> i) & 1]
        if len(sub) > best and is_subsequence(sub, b):
            best = len(sub)
    return best


def rouge_oracle(pred, gold):
    p, g = norm(pred), norm(gold)
    if not p and not g:
        return 1.0
    if not p or not g:
        return 0.0
    lcs = lcs_oracle(p, g)
    if lcs == 0:
        return 0.0
    precision = lcs / len(p)
    recall = lcs / len(g)
    return 2 * precision * recall / (precision + recall)


def contains_oracle(pred, gold):
    hay, needle = norm(pred), norm(gold)
    if not needle:
        return 1.0
    for start in range(len(hay)):
        if hay[start:start + len(needle)] == needle:
            return 1.0
    return 0.0


def ngrams_at(tokens, n):
    out = []
    for i in range(len(tokens)):
        if i + n <= len(tokens):
            out.append(tuple(tokens[i:i + n]))
    return out


def bleu_oracle(preds, golds):
    """Corpus BLEU, add-one smoothing on zero-match orders >= 2, x100."""
    matches = {n: 0 for n in (1, 2, 3, 4)}
    totals = {n: 0 for n in (1, 2, 3, 4)}
    pred_len = 0
    gold_len = 0
    for pred, gold in zip(preds, golds):
        p, g = norm(pred), norm(gold)
        pred_len += len(p)
        gold_len += len(g)
        for n in (1, 2, 3, 4):
            pn = ngrams_at(p, n)
            gn = ngrams_at(g, n)
            totals[n] += len(pn)
            for gram in set(pn):
                cp = sum(1 for x in pn if x == gram)
                cg = sum(1 for x in gn if x == gram)
                matches[n] += min(cp, cg)
    if totals[1] == 0 or matches[1] == 0:
        return 0.0
    log_sum = 0.0
    for n in (1, 2, 3, 4):
        m, t = matches[n], totals[n]
        if n >= 2 and m == 0:
            m, t = m + 1, t + 1
        log_sum += 0.25 * math.log(m / t)
    if pred_len >= gold_len:
        bp = 1.0
    else:
        bp = math.exp(1.0 - gold_len / max(1, pred_len))
    return 100.0 * bp * math.exp(log_sum)


# -- task solvers --------------------------------------------------------------

_KEY_SET = frozenset(KEYS)


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

def solve_arith(prompt_text: str) -> str:
    words = prompt_text.split()
    if len(words) < 8 or words[0] != "compute":
        raise InputError(f"unrecognized arith prompt: {prompt_text!r}")
    a, op1, b, op2, c = words[2:7]
    x, y, z = int(a), int(b), int(c)
    r1 = x + y if op1 == "+" else x - y
    r2 = r1 + z if op2 == "+" else r1 - z
    return f"{a} {op1} {b} = {r1} | {r1} {op2} {c} = {r2} | answer = {r2}"

def solve_cipher(prompt_text: str) -> str:
    words = prompt_text.split()
    if len(words) < 3 or words[0] != "translate" or words[-1] != "=":
        raise InputError(f"unrecognized cipher prompt: {prompt_text!r}")
    return " ".join(cipher_transform(words[2:-1]))

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

SOLVERS = {
    "kvqa": solve_kvqa,
    "arith": solve_arith,
    "cipher-mt": solve_cipher,
    "salient-summary": solve_summary,
}
