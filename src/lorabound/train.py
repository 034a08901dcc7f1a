"""Training loops: base-model pretraining and adapter-only fine-tuning.

Each optimizer step averages the gradients of its batch, clips them and
then takes one Adam step. The batch goes through the model in
consecutive chunks of right-padded rows with a loss mask, one forward
and backward per chunk; a chunk holds TRAIN_CHUNK_POSITIONS // (the
step's longest input) rows, at least one, which bounds the activations
one backward keeps. A step whose loss or gradient norm is not finite
raises DegenerateInputError before its update, so a diverged run leaves
no artifact. Runs are deterministic for a given seed. Fine-tuning
trains the adapter set it is given (a fresh set on every layer when
none is): the caller picks its layers, targets and rank. It touches
adapter factors only; the base weights are read, never written.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateInputError, InputError
from .fileio import atomic_write_text
from .lora import LoraSet, init_adapters, lora_param_dict
from .model import (TRAIN_CHUNK_POSITIONS, BaseWeights, ModelConfig, init_base,
                    loss_and_grads)
from .numerics import AdamState, adam_step, clip_by_global_norm
from .tasks import sample_ids

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 1e-4
    epochs: int = 3
    batch: int = 16
    seed: int = 0
    loss_mask_prompt: bool = True
    grad_clip: float = 1.0   # global-norm ceiling; 0 disables

    def validate(self) -> "TrainConfig":
        if self.lr <= 0:
            raise ConfigError(f"lr must be positive, got {self.lr}")
        if self.epochs < 1 or self.batch < 1:
            raise ConfigError(
                f"epochs and batch must be at least 1, got {self.epochs}/{self.batch}")
        if self.grad_clip < 0:
            raise ConfigError(f"grad_clip must be non-negative, got {self.grad_clip}")
        return self


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


def _batched_step(examples, grad_fn, params, state, grad_clip):
    """Average grad_fn over the batch, clip, apply one Adam step; returns mean loss.

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
        inv = 1.0 / len(examples)
        for g in total.values():
            g *= g.dtype.type(inv)
        loss = loss_sum * inv
        norm = clip_by_global_norm(total, grad_clip)
    if not (np.isfinite(loss) and np.isfinite(norm)):
        raise DegenerateInputError(
            f"non-finite loss {float(loss)} or gradient norm {float(norm)}")
    adam_step(params, total, state)
    return loss


def _train_loop(examples, grad_fn, params, tcfg: TrainConfig, log_path, name: str):
    """tcfg.epochs passes over examples in seeded random order, one
    _batched_step per tcfg.batch of them; returns the (epoch, step, loss)
    history and writes it to log_path if given."""
    state = AdamState(lr=tcfg.lr)
    order_rng = np.random.default_rng(tcfg.seed)
    history: list[tuple[int, int, float]] = []
    for epoch in range(1, tcfg.epochs + 1):
        order = order_rng.permutation(len(examples))
        for start in range(0, len(examples), tcfg.batch):
            batch = [examples[i] for i in order[start:start + tcfg.batch]]
            step = len(history) + 1
            try:
                loss = _batched_step(batch, grad_fn, params, state, tcfg.grad_clip)
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
    cfg.validate()
    tcfg.validate()
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
        return loss_and_grads(weights, None, inputs, targets, mask,
                              want_base=True, want_lora=False)

    history = _train_loop(examples, grad_fn, weights.tensors, tcfg, log_path, "pretrain")
    return weights, history


def finetune_lora(base: BaseWeights, dataset, tcfg: TrainConfig,
                  adapters: LoraSet | None = None, *, log_path=None):
    """Train the given adapter set on prompt/reference pairs; None trains
    init_adapters(base.cfg, seed=tcfg.seed), a default set on every layer.

    Only A and B factors are updated, in place; the loss covers reference
    positions unless loss_mask_prompt is off. Returns (LoraSet, history).
    """
    tcfg.validate()
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

    if adapters is None:
        adapters = init_adapters(base.cfg, seed=tcfg.seed)
    adapters.fingerprint = base.fingerprint()
    examples = []
    for prompt, ref in pairs:
        seq = np.asarray(prompt + ref, dtype=np.int64)
        # without the prompt mask every target counts
        first = len(prompt) - 1 if tcfg.loss_mask_prompt else 0
        examples.append((seq[:-1], seq[1:], np.arange(seq.size - 1) >= first))

    def grad_fn(inputs, targets, mask):
        return loss_and_grads(base, adapters, inputs, targets, mask,
                              want_base=False, want_lora=True)

    history = _train_loop(examples, grad_fn, lora_param_dict(adapters), tcfg, log_path,
                          "finetune")
    return adapters, history
