"""Outside-in tracing of lorabound's public functions.

`install` replaces each traced function at every name a caller looks it
up by: its own module, every lorabound module that imported it with
`from ... import`, and module-level registries such as
`tasks.GENERATORS`. Each wrapper appends one span
[name, start, end, parent] to an in-memory list; the list is written
once, when the stage ends. Nothing inside the package is edited.

`aggregate` turns a span file into per-function call counts and self
times, where self time is a span's duration minus the time its direct
children cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

# every wrapped function, as <module>.<name>; cli.main is the root span of
# each stage process
TRACED = (
    "cli.main",
    "train.pretrain", "train.finetune_lora",
    "model.loss_and_grads", "model.next_token_logits", "model.generate_greedy",
    "model.forward_collect", "model.lens_probs", "model.lens_logits",
    "numerics.cross_entropy_grad", "numerics.adam_step",
    "numerics.clip_by_global_norm", "numerics.rmsnorm_fwd",
    "numerics.rmsnorm_bwd", "numerics.softmax_rows",
    "boundary.sweep_boundary", "metrics.corpus_score", "lora.drop_above",
    "probe.probe_ground_truth", "probe.probe_under_drop",
    "fileio.load_weights", "fileio.save_weights", "fileio.load_adapters",
    "fileio.save_adapters", "fileio.write_manifest",
    "tasks.gen_kvqa", "tasks.gen_pretrain_corpus", "tasks.load_dataset",
    "tasks.save_dataset",
    "reports.write_probe_tsv", "reports.write_drop_probe_tsv",
    "reports.write_sweep_tsv", "reports.write_diff_tsv",
    "reports.write_eval_tsv",
)

# counters recorded at the same boundary as the span, keyed
# "<function>.<suffix>": function -> (suffix, argument whose length is
# counted, or None to count the length of the result)
COUNTERS = {
    "model.loss_and_grads": ("positions", "inputs"),
    "model.next_token_logits": ("positions", "tokens"),
    "model.forward_collect": ("positions", "tokens"),
    "model.generate_greedy": ("new_tokens", None),
}


class Tracer:
    """Span recorder for one stage process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counter = COUNTERS.get(name)
        if counter is not None:
            key = f"{name}.{counter[0]}"
            arg = counter[1]
            sig = inspect.signature(fn)
            self.counts.setdefault(key, 0)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if counter is not None:
                value = result if arg is None else sig.bind(*args, **kwargs).arguments[arg]
                self.counts[key] += len(value)
            return result

        return traced

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"run_id": self.run_id, "counts": self.counts,
                       "spans": self.spans}, f, separators=(",", ":"))


def install(tracer: Tracer, names=TRACED) -> None:
    """Wrap every function in `names` wherever a lorabound module refers to it."""
    importlib.import_module("lorabound.cli")   # loads every module the CLI uses
    modules = [m for n, m in sys.modules.items()
               if n == "lorabound" or n.startswith("lorabound.")]
    for name in names:
        mod_name, fn_name = name.rsplit(".", 1)
        original = getattr(importlib.import_module(f"lorabound.{mod_name}"), fn_name)
        wrapped = tracer.wrap(name, original)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapped)
                elif isinstance(value, dict):
                    for key, entry in value.items():
                        if entry is original:
                            value[key] = wrapped


def aggregate(path) -> tuple[dict[str, int], dict[str, float], dict[str, int]]:
    """Read a span file; return (calls, self seconds, counters) per function."""
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    spans = doc["spans"]
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    for i, (name, start, end, _) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + (end - start) - child_time[i]
    return calls, self_s, dict(doc["counts"])
