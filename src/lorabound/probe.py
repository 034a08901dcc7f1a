"""Layer-wise readout probing: where in the stack does the answer appear?

For each probed sample the model runs teacher-forced over prompt plus
reference; at every layer the residual stream goes through the model's
own final norm and output head, and we record the probability of the
true next token (gt_curve) and of the best token (max_curve), averaged
over samples. Curves are [n_layers x n_tokens], layer 1 first. A probe
sees every adapter in the set it is given and no other layer selection;
the report config names that set by its content hash. It probes every
sample it is given: which samples make up the probe set is the caller's
choice (select_samples draws a seeded subset), and the caller records
that choice through `descriptor`.

One engine serves a single probe and a probe under many keep levels; it
is the only probe path in the package. Samples are batched by prompt
length with the decoder's rule (model._length_batches: at most
DECODE_BATCH_ROWS rows at a time). Each batch runs one forward_collect
with the whole adapter set, which returns the residual after every
layer as one array. Under drop_above(set, k), layers 1..k compute
exactly what the whole set computes, so keep level k reuses those
readouts and resumes from the layer-k residual (the embeddings for
k = 0), running layers k+1..L without adapters. Only the probed
positions of a resumed pass's top block are ever read, so that block
runs there alone (model._forward prunes an adapter-free top block to
the collected positions); the full pass carries adapters, whose
rank-wide products change bits with the row count, so it runs whole.
Each readout is reduced at once to the two probabilities at the probed
positions, and the per-sample values are summed in sample order, so
the curves are bitwise those of one forward per sample and level.

The length batches run on the worker engine (workers.py), with no more
processes than batches. Each writes its samples' readouts into the
engine's shared arena, and the sums start once all are done, so the
curves are the same bytes at any process count.
"""

from __future__ import annotations

import hashlib
import logging
from dataclasses import dataclass, field

import numpy as np

from . import workers
from .errors import InputError
from .lora import LoraSet, drop_above
from .model import (BaseWeights, _forward, _length_batches, check_keep_level,
                    forward_collect, lens_logits)
from .numerics import softmax_rows
from .tasks import sample_ids

log = logging.getLogger(__name__)

DEFAULT_N_TOKENS = 4
DEFAULT_SAMPLE_BUDGET = 100


@dataclass
class ProbeReport:
    """Per-layer curves of one probe. Its stored form is the probe TSV
    (reports.write_probe_tsv, read back by reports.read_probe_tsv)."""

    n_layers: int
    n_tokens: int
    sample_count: int
    gt_curve: np.ndarray    # [L, n_tokens] mean prob of the true token
    max_curve: np.ndarray   # [L, n_tokens] mean prob of the argmax token
    config: dict = field(default_factory=dict)

    def mean_gt_by_layer(self) -> np.ndarray:
        """Row means of gt_curve; the knee detector consumes this."""
        return self.gt_curve.mean(axis=1)


def select_samples(samples, budget: int, seed: int) -> list:
    """Deterministic subsample: `budget` items chosen without replacement,
    kept in original order. The full list is returned when it fits."""
    samples = list(samples)
    if budget >= len(samples):
        return samples
    if budget < 1:
        raise InputError(f"sample budget must be positive, got {budget}")
    idx = np.random.default_rng(seed).choice(len(samples), size=budget, replace=False)
    return [samples[i] for i in sorted(idx)]


def samples_hash(samples) -> str:
    h = hashlib.sha256()
    for prompt, ref in sample_ids(samples):
        h.update(",".join(map(str, prompt)).encode())
        h.update(b"/")
        h.update(",".join(map(str, ref)).encode())
        h.update(b";")
    return h.hexdigest()[:16]


def _check_request(base: BaseWeights, n_tokens: int, levels) -> list[int]:
    """The keep levels as ints; a bad n_tokens or level fails before any compute."""
    if n_tokens < 1:
        raise InputError(f"n_tokens must be at least 1, got {n_tokens}")
    return [check_keep_level(k, base.cfg.n_layers) for k in levels]


def _long_enough(samples, n_tokens: int) -> list[tuple[list, list]]:
    """(prompt, reference) pairs of the samples with at least n_tokens of
    reference. An empty prompt leaves no position to read a first token at."""
    pairs = sample_ids(samples)
    if not pairs:
        raise InputError("no samples to probe")
    kept = []
    for i, (prompt, ref) in enumerate(pairs):
        if not prompt:
            raise InputError(f"probe: sample {i} has an empty prompt")
        if len(ref) < n_tokens:
            log.warning("probe: sample %d has a %d-token reference, need %d; skipped",
                        i, len(ref), n_tokens)
            continue
        kept.append((prompt, ref))
    if not kept:
        raise InputError(
            f"every probed sample has a reference shorter than {n_tokens} tokens")
    return kept


def _readout(base: BaseWeights, states: np.ndarray, ref: np.ndarray):
    """Lens readout of the probed states [layers, B, n, d] reduced to
    (p_true, p_max), each [layers, B, n]; ref [B, n] holds the true tokens.

    One layer at a time, so only one layer's [B, n, vocab] distributions
    are ever held.
    """
    rows, n = ref.shape
    p_true = np.empty(states.shape[:-1], dtype=states.dtype)
    p_max = np.empty_like(p_true)
    for j, layer in enumerate(states):
        logits = lens_logits(base, layer)
        probs = softmax_rows(logits, out=logits)
        p_true[j] = probs[np.arange(rows)[:, None], np.arange(n), ref]
        p_max[j] = probs.max(axis=-1)
    return p_true, p_max


def _probe_batch(base: BaseWeights, adapters, kept, levels, n_tokens: int,
                 length: int, batch: list[int], per_sample: dict) -> None:
    """Write one length batch's readouts at every level into its rows of per_sample."""
    n_layers = base.cfg.n_layers
    positions = np.arange(length - 1, length - 1 + n_tokens)
    ids = np.array([kept[i][0] + kept[i][1][:n_tokens] for i in batch], dtype=np.int64)
    ref = ids[:, length:]
    if levels[-1] > 0:
        full = forward_collect(base, adapters, ids)
        full_read = _readout(base, full[..., positions, :], ref)    # [L, B, n]
    for k in levels:
        if k == n_layers:
            read = full_read
        else:
            resume = None if k == 0 else (k, full[k - 1])
            top, _, _ = _forward(base, None, ids, collect=positions, resume=resume)
            read = _readout(base, top, ref)                         # [L - k, B, n]
            if k > 0:
                read = [np.concatenate([f[:k], t]) for f, t in zip(full_read, read)]
        for dest, values in zip(per_sample[k], read):
            dest[batch] = values.swapaxes(0, 1)


def _probe_levels(base: BaseWeights, adapters, kept, levels, n_tokens: int) -> dict:
    """Summed (gt, max) readouts [2, L, n_tokens] per keep level of `adapters`."""
    levels = sorted(set(levels))
    batches = list(_length_batches([len(prompt) for prompt, _ in kept]))
    count = min(len(batches), workers.usable_cpus()) - 1
    # per level, each sample's (gt, max) readouts, written by the process of its batch
    shape = (2, len(kept), base.cfg.n_layers, n_tokens)
    [per_sample] = workers.shared(count, {k: (shape, np.float64) for k in levels})

    def probe_batch(w, batch):
        _probe_batch(base, adapters, kept, levels, n_tokens, *batch, per_sample)

    with workers.Workers(count, probe_batch, "probe") as pool:
        pool.run(batches)
    # one sample after another, which fixes the rounding
    return {k: sum(readouts.swapaxes(0, 1)) for k, readouts in per_sample.items()}


def _report(base: BaseWeights, adapters, kept, sums, provenance: dict, *,
            n_tokens: int, descriptor: dict | None) -> ProbeReport:
    """provenance holds the base fingerprint and samples hash, which every
    report of one probe shares; each is hashed once per probe."""
    gt_sum, max_sum = sums
    n = len(kept)
    config = {
        "base": provenance["base"],
        "adapters": adapters.content_hash() if adapters is not None else None,
        "n_tokens": n_tokens,
        "samples_hash": provenance["samples_hash"],
    }
    if descriptor:
        config.update(descriptor)
    return ProbeReport(n_layers=base.cfg.n_layers, n_tokens=n_tokens, sample_count=n,
                       gt_curve=gt_sum / n, max_curve=max_sum / n, config=config)


def _provenance(base: BaseWeights, kept) -> dict:
    return {"base": base.fingerprint(), "samples_hash": samples_hash(kept)}


def probe_ground_truth(base: BaseWeights, adapters: LoraSet | None, samples, *,
                       n_tokens: int = DEFAULT_N_TOKENS,
                       descriptor: dict | None = None) -> ProbeReport:
    """Mean per-layer readout probabilities over the given samples.

    Samples whose reference is shorter than n_tokens are skipped with a
    warning; an entirely empty probe is an error. descriptor entries are
    added to the report config.
    """
    n_layers = base.cfg.n_layers
    _check_request(base, n_tokens, [])
    kept = _long_enough(samples, n_tokens)
    sums = _probe_levels(base, adapters, kept, [n_layers], n_tokens)
    return _report(base, adapters, kept, sums[n_layers], _provenance(base, kept),
                   n_tokens=n_tokens, descriptor=descriptor)


def probe_under_drop(base: BaseWeights, full_set: LoraSet, samples, keeps, *,
                     n_tokens: int = DEFAULT_N_TOKENS,
                     descriptor: dict | None = None) -> list[tuple[int, ProbeReport]]:
    """Probe the given samples under each keep-bottom level in keeps.

    Every level and n_tokens are checked before any compute. One report
    per entry of keeps, in the given order.
    """
    keeps = _check_request(base, n_tokens, keeps)
    kept = _long_enough(samples, n_tokens)
    sums = _probe_levels(base, full_set, kept, keeps, n_tokens)
    provenance = _provenance(base, kept)
    out = []
    for k in keeps:
        extra = {"keep_bottom": k}
        if descriptor:
            extra.update(descriptor)
        out.append((k, _report(base, drop_above(full_set, k), kept, sums[k], provenance,
                               n_tokens=n_tokens, descriptor=extra)))
    return out

