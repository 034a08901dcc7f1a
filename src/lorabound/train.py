"""Training loops: base-model pretraining and adapter-only fine-tuning.

Each optimizer step averages the gradients of its batch, clips them to
a global norm of GRAD_CLIP and then takes one Adam step. The batch goes
through the model in consecutive chunks of right-padded rows with a
loss mask, one forward and backward per chunk; a chunk holds
TRAIN_CHUNK_POSITIONS // (the step's longest input) rows, at least one,
which bounds the activations one backward keeps.

A step's chunks are dealt round-robin to n processes, n being the CPUs
in the process's affinity mask (model._usable_cpus, the probe engine's
rule): chunk i runs in process i % n, where process 0 is this one, so it
always runs chunk 0, and 1..n-1 are worker processes. The workers are
forked at the process's first training run and share one anonymous
shared mmap arena with it, which holds the model's tensors and one
gradient slot per worker. This process copies the trained tensors into
the arena at the start of each step; a worker runs loss_and_grads
against the arena's copy, writes its chunk's gradients into its slot and
sends back the loss. This process adds every chunk's gradients into the
step total in chunk order, exactly as one process would, so a run's
bytes do not depend on n; then it clips and takes the Adam step itself.
A process waiting for another polls its pipe for up to _POLL_S before
it sleeps, which keeps its CPU busy between chunks (see _wait). Later
runs reuse the workers and the arena; the process forks again only when
a run needs more workers or a larger arena. With one usable CPU, tensors of
mixed dtypes or no affinity API (os.sched_getaffinity, which Linux has),
nothing is forked and every chunk runs here, so `taskset -c 0` trains in
one process. Each process runs its own BLAS: pin it to one thread
(OPENBLAS_NUM_THREADS=1, as the benchmark does), or the processes' BLAS
threads oversubscribe the CPUs. A worker exits when its pipe closes,
which this process does at interpreter exit. An exception raised in a
worker is raised again here with its type and message, and a worker that
dies raises ChildProcessError naming it and its exit code.

At its peak a step holds, in this process, the weights, the Adam
moments, the step's gradient total, one chunk's activations, which the
backward frees layer by layer, and the arena: a copy of the model's
tensors and one gradient set per worker. Each chunk's gradients are
added into the total before this process runs its next chunk; its own
are then dropped, and a worker's slot is handed back for its next
chunk. A worker holds one chunk's activations and gradients beside the
arena. Since every chunk frees and allocates the same working set
again, training has glibc's malloc keep freed memory for reuse rather
than hand it back to the kernel, which would fault its pages in again
on the next chunk; forked workers inherit the setting. A step whose
loss or gradient norm is not finite raises DegenerateInputError before
its update, so a diverged run leaves no artifact. Runs are
deterministic for a given seed. Fine-tuning trains the adapter set it
is given: the caller picks its layers, targets and rank. It touches
adapter factors only; the base weights are read, never written.
"""

from __future__ import annotations

import atexit
import ctypes
import dataclasses
import logging
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import model
from .errors import ConfigError, DegenerateInputError, InputError
from .fileio import atomic_write_text
from .lora import LoraAdapter, LoraSet, lora_param_dict
from .model import (TRAIN_CHUNK_POSITIONS, BaseWeights, ModelConfig, check_seed,
                    init_base, loss_and_grads, param_shapes)
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


def _batched_step(examples, grad_fn, params, state, workers=None):
    """Average grad_fn over the batch, clip to GRAD_CLIP, apply one Adam step;
    returns mean loss.

    examples are (inputs, targets, mask) rows. grad_fn gets them in
    consecutive padded chunks of at most TRAIN_CHUNK_POSITIONS // (the
    longest input) rows and returns a chunk's mean loss and gradients.
    With workers, their processes run every chunk that _Workers.run
    deals them and this one runs the rest; either way the chunks are
    summed in order. A loss or pre-clip gradient norm that is not finite
    raises DegenerateInputError before the update.
    """
    rows = max(1, TRAIN_CHUNK_POSITIONS // max(inputs.size for inputs, _, _ in examples))
    chunks = [_padded(examples[lo:lo + rows]) for lo in range(0, len(examples), rows)]
    total: dict[str, np.ndarray] = {}
    loss_sum = 0.0

    def add(n_rows, loss, grads):
        """Fold one chunk's mean loss and gradients into the step's sums;
        the next chunk's backward runs without this chunk's own arrays."""
        nonlocal loss_sum
        loss_sum += loss * n_rows
        for name, g in grads.items():
            if n_rows > 1:
                g *= g.dtype.type(n_rows)     # chunk mean -> chunk sum
            if name in total:
                total[name] += g
            else:
                total[name] = g

    # a diverging step overflows on its way; the finiteness check below names it
    with np.errstate(over="ignore", invalid="ignore"):
        if workers is None:
            for chunk in chunks:
                add(len(chunk[0]), *grad_fn(*chunk))
        else:
            workers.run(chunks, grad_fn, params, add)
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


# arena offsets are multiples of this, so every tensor starts on a cache line
_ALIGN = 64


def _layout(tensors, offset: int):
    """({name: (offset, shape, dtype)} of tensors packed from offset, end offset)."""
    layout = {}
    for name, a in tensors.items():
        offset = -(-offset // _ALIGN) * _ALIGN
        layout[name] = (offset, a.shape, a.dtype.str)
        offset += a.nbytes
    return layout, offset


def _views(arena, layout) -> dict[str, np.ndarray]:
    return {name: np.ndarray(shape, dtype, buffer=arena, offset=offset)
            for name, (offset, shape, dtype) in layout.items()}


def _bind(arena, cfg, layout, lora, keys, slot):
    """A worker's (base, adapters, slot) of one run, all views of the arena."""
    tensors = _views(arena, layout)
    base = BaseWeights(cfg, {name: tensors[name] for name in param_shapes(cfg)})
    if lora is not None:
        lora = dataclasses.replace(lora, adapters={
            (layer, proj): LoraAdapter(a=tensors[f"layer{layer:02d}.{proj}.lora_a"],
                                       b=tensors[f"layer{layer:02d}.{proj}.lora_b"])
            for layer, proj in keys})
    return base, lora, _views(arena, slot)


# a process waiting for another polls its pipe this long before it sleeps
_POLL_S = 0.05


def _wait(conn) -> None:
    """Return once conn has a message or has closed: poll it for up to
    _POLL_S, then block.

    A chunk takes milliseconds, so polling covers the waits inside a run.
    A process that sleeps in a blocking recv instead leaves its CPU idle
    at every chunk; on a virtual machine the idle CPU goes back to the
    host and resumes with cold caches, and the next chunk runs slower by
    an amount that depends on the host's other load. On a two-CPU
    virtual machine, 8 interleaved pairs of 42 s benchmark runs gave
    pretrain-finetune work_per_s an interquartile range of about 1,860
    tokens/s when sleeping on every wait and about 300 when polling.
    """
    end = time.perf_counter() + _POLL_S
    while not conn.poll(0):
        if time.perf_counter() > end:
            conn.poll(None)
            return


def _serve(conn, arena, inherited) -> None:
    """A worker's loop, until its pipe closes.

    ("run", ...) binds a run's model and gradient slot. Each chunk is
    answered with ("done", loss) once its gradients are in the slot, or
    with ("error", exception).
    """
    import signal
    for other in inherited:      # pipe ends of this process and earlier workers
        other.close()
    signal.signal(signal.SIGINT, signal.SIG_IGN)    # an interrupt is for the parent
    while True:
        try:
            _wait(conn)
            kind, *body = conn.recv()
        except EOFError:
            return
        if kind == "run":
            base, adapters, slot = _bind(arena, *body)
            continue
        try:
            # errstate does not cross the fork; this is _batched_step's
            with np.errstate(over="ignore", invalid="ignore"):
                loss, grads = loss_and_grads(base, adapters, *body)
            for name, dest in slot.items():
                np.copyto(dest, grads.pop(name), casting="no")
            reply = ("done", loss)
        except Exception as exc:
            reply = ("error", exc)
        conn.send(reply)


class _Workers:
    """Forked training workers over one shared arena; see the module docstring."""

    def __init__(self, count: int, size: int):
        import mmap             # with multiprocessing, loaded only when training forks
        import multiprocessing
        # fork, not spawn: a worker inherits the arena and the imported
        # package, and the package runs no thread of its own while training
        ctx = multiprocessing.get_context("fork")
        self.arena = mmap.mmap(-1, size)     # anonymous and shared across the fork
        self.conns, self.procs = [], []
        self.tensors: dict[str, np.ndarray] = {}
        self.slots: list[dict[str, np.ndarray]] = []
        for w in range(1, count + 1):
            mine, theirs = ctx.Pipe()
            proc = ctx.Process(target=_serve, name=f"lorabound-train-{w}", daemon=True,
                               args=(theirs, self.arena, [*self.conns, mine]))
            proc.start()
            theirs.close()
            self.conns.append(mine)
            self.procs.append(proc)
        atexit.register(self.close)

    def close(self) -> None:
        """Stop the workers: an idle one exits when its pipe closes, one
        still inside a chunk is terminated after a second."""
        atexit.unregister(self.close)
        for conn in self.conns:
            conn.close()
        for proc in self.procs:
            proc.join(1.0)
            if proc.exitcode is None:
                proc.terminate()
                proc.join()

    def bind(self, cfg, tensors, layout, lora, keys, slots) -> None:
        """Copy a run's model tensors into the arena and send each worker its run."""
        self.tensors = _views(self.arena, layout)
        for name, a in tensors.items():
            np.copyto(self.tensors[name], a)
        self.slots = [_views(self.arena, slot) for slot in slots]
        for w, slot in enumerate(slots, 1):
            self._send(w, ("run", cfg, layout, lora, keys, slot))

    def run(self, chunks, grad_fn, params, add) -> None:
        """add(rows, loss, grads) for every chunk, in chunk order.

        Chunk i runs in process i % n, where n is the worker count plus
        one, but no more than the chunks; process 0 is this one and runs
        grad_fn. A worker's chunk is added from its slot, and the worker
        gets its next chunk once that is done. Chunk 0 is always this
        process's, so the step total never adopts a slot's arrays.
        """
        n = min(len(self.slots) + 1, len(chunks))
        try:
            if n > 1:
                for name, p in params.items():
                    np.copyto(self.tensors[name], p)
            for w in range(1, n):
                self._send(w, ("chunk", *chunks[w]))
            for i, chunk in enumerate(chunks):
                w = i % n
                if w == 0:
                    add(len(chunk[0]), *grad_fn(*chunk))
                    continue
                add(len(chunk[0]), self._recv(w), self.slots[w - 1])
                if i + n < len(chunks):
                    self._send(w, ("chunk", *chunks[i + n]))
        except BaseException:
            _close_workers()    # a worker may still be inside a chunk; fork afresh next run
            raise

    def _send(self, w: int, message) -> None:
        try:
            self.conns[w - 1].send(message)
        except OSError:
            self._died(w)

    def _recv(self, w: int) -> float:
        try:
            _wait(self.conns[w - 1])
            kind, value = self.conns[w - 1].recv()
        except (EOFError, OSError):
            self._died(w)
        if kind == "error":
            value.add_note(f"raised in training worker {w}")
            raise value
        return value

    def _died(self, w: int):
        proc = self.procs[w - 1]
        proc.join()     # its pipe is closed, so its process is gone or going
        _close_workers()
        raise ChildProcessError(
            f"training worker {w} (pid {proc.pid}) exited with code {proc.exitcode}") from None


_pool: _Workers | None = None


def _close_workers() -> None:
    """Stop the process's workers, if any; the next run forks new ones."""
    global _pool
    if _pool is not None:
        _pool.close()
        _pool = None


def _workers_for(base: BaseWeights, adapters, params) -> _Workers | None:
    """The process's workers, bound to a run that trains params of base
    (and adapters, if given); None if the run trains in this process alone."""
    global _pool
    count = model._usable_cpus() - 1
    tensors = dict(base.tensors)
    if adapters is not None:
        tensors.update(params)
    # forked workers are Linux-only; without the affinity API (macOS,
    # Windows) training stays in one process
    if (count < 1 or not hasattr(os, "sched_getaffinity")
            or len({a.dtype for a in tensors.values()}) > 1):
        return None
    layout, end = _layout(tensors, 0)
    slots = []
    for _ in range(count):
        slot, end = _layout(params, end)
        slots.append(slot)
    if _pool is None or len(_pool.procs) < count or len(_pool.arena) < end:
        _close_workers()
        _pool = _Workers(count, end)
    lora = None if adapters is None else dataclasses.replace(adapters, adapters={})
    keys = None if adapters is None else adapters.keys_sorted()
    _pool.bind(base.cfg, tensors, layout, lora, keys, slots)
    return _pool


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


def _train_loop(examples, base: BaseWeights, adapters, tcfg: TrainConfig, log_path,
                name: str):
    """tcfg.epochs passes over examples in seeded random order, one
    _batched_step per tcfg.batch of them; returns the (epoch, step, loss)
    history and writes it to log_path if given. Trains the adapter
    factors of a set, or every base tensor when adapters is None."""
    _keep_freed_heap()
    params = base.tensors if adapters is None else lora_param_dict(adapters)

    def grad_fn(inputs, targets, mask):
        return loss_and_grads(base, adapters, inputs, targets, mask)

    workers = _workers_for(base, adapters, params)
    state = AdamState(lr=tcfg.lr)
    order_rng = np.random.default_rng(tcfg.seed)
    history: list[tuple[int, int, float]] = []
    for epoch in range(1, tcfg.epochs + 1):
        order = order_rng.permutation(len(examples))
        for start in range(0, len(examples), tcfg.batch):
            batch = [examples[i] for i in order[start:start + tcfg.batch]]
            step = len(history) + 1
            try:
                loss = _batched_step(batch, grad_fn, params, state, workers)
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

    history = _train_loop(examples, weights, None, tcfg, log_path, "pretrain")
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

    history = _train_loop(examples, base, adapters, tcfg, log_path, "finetune")
    return adapters, history
