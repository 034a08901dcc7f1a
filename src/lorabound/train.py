"""Training loops: base-model pretraining and adapter-only fine-tuning.

Each optimizer step averages the gradients of its batch, clips them to
a global norm of GRAD_CLIP and then takes one Adam step. The batch goes
through the model in consecutive chunks of right-padded rows with a
loss mask, one forward and backward per chunk; a chunk holds
TRAIN_CHUNK_POSITIONS // (the step's longest input) rows, at least one,
which bounds the activations one backward keeps. At its peak a step
holds the weights, the Adam moments, the step's gradient total and one
chunk's activations, which the backward frees layer by layer: each
chunk's gradients are added into the total and dropped before the next
chunk runs. Since every chunk frees and allocates the same working
set again, training has glibc's malloc keep freed memory for reuse
rather than hand it back to the kernel, which would fault its pages
in again on the next chunk. A step whose loss or
gradient norm is not finite raises DegenerateInputError before its
update, so a diverged run leaves no artifact. Runs are deterministic
for a given seed. Fine-tuning trains the adapter set it is given: the
caller picks its layers, targets and rank. It touches adapter factors
only; the base weights are read, never written.
"""

from __future__ import annotations

import ctypes
import logging
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateInputError, InputError
from .fileio import atomic_write_text
from .lora import LoraSet, lora_param_dict
from .model import (TRAIN_CHUNK_POSITIONS, BaseWeights, ModelConfig, check_seed,
                    init_base, loss_and_grads)
from .numerics import AdamState, adam_step, clip_by_global_norm
from .tasks import sample_ids

log = logging.getLogger(__name__)

# the global-norm ceiling of every optimizer step's averaged gradients
GRAD_CLIP = 1.0


@dataclass(frozen=True)
class TrainConfig:
    """The settings of one training run: Adam's learning rate, passes over
    the data, sequences per optimizer step and the seed of the init and
    the shuffle. Every step clips to GRAD_CLIP."""

    lr: float = 1e-4
    epochs: int = 3
    batch: int = 16
    seed: int = 0

    section = "train"   # not a field: the run config section errors name

    def __post_init__(self):
        if self.lr <= 0:
            raise ConfigError(f"lr must be positive, got {self.lr}")
        if self.epochs < 1 or self.batch < 1:
            raise ConfigError(
                f"epochs and batch must be at least 1, got {self.epochs}/{self.batch}")
        check_seed(self.seed, f"{self.section}.seed")


def write_train_log(path, history) -> None:
    """TSV with one row per optimizer step: epoch, step, loss."""
    atomic_write_text(path, "epoch\tstep\tloss\n" + "".join(
        f"{epoch}\t{step}\t{loss!r}\n" for epoch, step, loss in history))


def _padded(chunk):
    """(inputs, targets, mask) rows right-padded to [rows, t]; pads are id 0, not counted."""
    shape = (len(chunk), max(inputs.size for inputs, _, _ in chunk))
    out = (np.zeros(shape, np.int64), np.zeros(shape, np.int64), np.zeros(shape, bool))
    for i, example in enumerate(chunk):
        for dest, row in zip(out, example):
            dest[i, :row.size] = row
    return out


def _batched_step(examples, grad_fn, params, state):
    """Average grad_fn over the batch, clip to GRAD_CLIP, apply one Adam step;
    returns mean loss.

    examples are (inputs, targets, mask) rows. grad_fn gets them in
    consecutive padded chunks of at most TRAIN_CHUNK_POSITIONS // (the
    longest input) rows and returns a chunk's mean loss and gradients.
    A loss or pre-clip gradient norm that is not finite raises
    DegenerateInputError before the update.
    """
    rows = max(1, TRAIN_CHUNK_POSITIONS // max(inputs.size for inputs, _, _ in examples))
    total: dict[str, np.ndarray] = {}
    loss_sum = 0.0
    # a diverging step overflows on its way; the finiteness check below names it
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, len(examples), rows):
            chunk = examples[lo:lo + rows]
            loss, grads = grad_fn(*_padded(chunk))
            loss_sum += loss * len(chunk)
            for name, g in grads.items():
                if len(chunk) > 1:
                    g *= g.dtype.type(len(chunk))     # chunk mean -> chunk sum
                if name in total:
                    total[name] += g
                else:
                    total[name] = g
            # the next chunk's backward runs without this chunk's gradients
            del grads, g
        inv = 1.0 / len(examples)
        for g in total.values():
            g *= g.dtype.type(inv)
        loss = loss_sum * inv
        norm = clip_by_global_norm(total, GRAD_CLIP)
    if not (np.isfinite(loss) and np.isfinite(norm)):
        raise DegenerateInputError(
            f"non-finite loss {float(loss)} or gradient norm {float(norm)}")
    adam_step(params, total, state)
    return loss


def _keep_freed_heap() -> None:
    """Have glibc's malloc keep freed memory in this process for reuse.

    With its defaults, freeing a chunk's gradients and activations
    leaves a free heap top that malloc returns to the kernel, and each
    block of 128 KiB or more is its own mmap; the next chunk then faults
    every page in again, at a kernel cost that varies with the host. The
    benchmark's desk pretrain stage takes about 12k minor page faults
    with this setting and 74k without it, at the same peak RSS, since
    freed memory is what the next chunk reuses. Elsewhere than glibc on
    Linux this does nothing.
    """
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None) if sys.platform == "linux" else None
    if mallopt is not None:
        mallopt(-1, 64 << 20)   # M_TRIM_THRESHOLD: keep a free heap top below 64 MiB
        mallopt(-3, 32 << 20)   # M_MMAP_THRESHOLD: blocks up to 32 MiB (the most) from the heap


def _train_loop(examples, grad_fn, params, tcfg: TrainConfig, log_path, name: str):
    """tcfg.epochs passes over examples in seeded random order, one
    _batched_step per tcfg.batch of them; returns the (epoch, step, loss)
    history and writes it to log_path if given."""
    _keep_freed_heap()
    state = AdamState(lr=tcfg.lr)
    order_rng = np.random.default_rng(tcfg.seed)
    history: list[tuple[int, int, float]] = []
    for epoch in range(1, tcfg.epochs + 1):
        order = order_rng.permutation(len(examples))
        for start in range(0, len(examples), tcfg.batch):
            batch = [examples[i] for i in order[start:start + tcfg.batch]]
            step = len(history) + 1
            try:
                loss = _batched_step(batch, grad_fn, params, state)
            except DegenerateInputError as exc:
                raise DegenerateInputError(
                    f"{name} epoch {epoch}, step {step}: {exc}") from None
            history.append((epoch, step, loss))
        log.info("%s epoch %d done, loss %.4f", name, epoch, history[-1][2])
    if log_path is not None:
        write_train_log(log_path, history)
    return history


def pretrain(cfg: ModelConfig, tcfg: TrainConfig, corpus,
             log_path=None) -> tuple[BaseWeights, list[tuple[int, int, float]]]:
    """Train every parameter on next-token prediction over raw sequences.

    corpus is a list of token-id sequences, each with at least two tokens.
    Returns the weights and the (epoch, step, loss) history.
    """
    seqs = [list(s) for s in corpus]
    if not seqs:
        raise InputError("pretraining corpus is empty")
    for i, s in enumerate(seqs):
        if len(s) < 2:
            raise InputError(f"corpus sequence {i} has fewer than 2 tokens")
        if len(s) > cfg.max_seq:
            raise InputError(
                f"corpus sequence {i} has {len(s)} tokens, max_seq is {cfg.max_seq}")

    weights = init_base(cfg, seed=tcfg.seed)
    examples = []
    for s in seqs:
        ids = np.asarray(s, dtype=np.int64)
        examples.append((ids[:-1], ids[1:], np.ones(ids.size - 1, dtype=bool)))

    def grad_fn(inputs, targets, mask):
        return loss_and_grads(weights, None, inputs, targets, mask)

    history = _train_loop(examples, grad_fn, weights.tensors, tcfg, log_path, "pretrain")
    return weights, history


def finetune_lora(base: BaseWeights, dataset, tcfg: TrainConfig, adapters: LoraSet, *,
                  log_path=None):
    """Train the given adapter set on prompt/reference pairs.

    Only A and B factors are updated, in place; the loss covers the
    reference positions only. Returns (LoraSet, history). A set that
    holds no adapters has nothing to train and raises InputError.
    """
    if not adapters.adapters:
        raise InputError("the adapter set holds no adapters; there is nothing to train")
    pairs = sample_ids(dataset)
    if not pairs:
        raise InputError("dataset is empty")
    for i, (prompt, ref) in enumerate(pairs):
        if not prompt or not ref:
            raise InputError(f"sample {i} has an empty prompt or reference")
        if len(prompt) + len(ref) > base.cfg.max_seq:
            raise InputError(
                f"sample {i} spans {len(prompt) + len(ref)} tokens, "
                f"max_seq is {base.cfg.max_seq}")

    adapters.fingerprint = base.fingerprint()
    examples = []
    for prompt, ref in pairs:
        seq = np.asarray(prompt + ref, dtype=np.int64)
        examples.append((seq[:-1], seq[1:], np.arange(seq.size - 1) >= len(prompt) - 1))

    def grad_fn(inputs, targets, mask):
        return loss_and_grads(base, adapters, inputs, targets, mask)

    history = _train_loop(examples, grad_fn, lora_param_dict(adapters), tcfg, log_path,
                          "finetune")
    return adapters, history
