"""lorabound benchmark: CLI stage chains timed from outside the program.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
                         [--scale desk|smoke]

Runs from the root of a source checkout and imports the package from
`src/`. One repetition writes the workload's seeded inputs (set-up,
including `gen-data`), then runs its CLI stages one process at a time,
each through `lorabound.cli.main` with BLAS pinned to one thread.
Before the first repetition an untimed warm-up writes the inputs once,
so that byte-compiling the package and loading numpy from a cold disk
are not timed. Repetitions continue until --seconds have passed; every
reported value is the median over repetitions. Every stage exit, manifest, report
re-emission and workload-specific property is checked, and outputs
must hash the same in every repetition.

With --trace 0 the last stdout line holds the end-to-end metrics. With
--trace 1, repetitions alternate between untraced and traced; traced
stages wrap the package's public functions (see tracer.py) and the
line holds the per-layer metrics, including the tracing overhead
(traced minus untraced wall time). The line before it describes the
machine. Details of every repetition go to
.bench_work/results/<workload>-s<seed>-t<trace>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# this file is a script: pin BLAS before numpy loads, here and in every stage
os.environ.update({var: str(BLAS_THREADS) for var in THREAD_VARS})
sys.path.insert(0, str(SRC))
try:
    import workloads
except ModuleNotFoundError:   # not a source checkout; main() reports it
    workloads = None
RUN_LIMIT_S = 170.0     # a hung stage is killed so the run still ends in time
MAX_REPS = 40

# per-layer functions reported from the traced run (cli.main is only the root span)
COUNTED = ("model.loss_and_grads.positions", "model.next_token_logits.positions",
           "model.generate_greedy.new_tokens", "model.forward_collect.positions")
SHORT_STAGES = ("gen-data", "export", "knee", "diff-probe")
MAIN_STAGES = ("pretrain", "finetune", "sweep", "eval", "probe", "report")
RATES = {"pretrain_tok_s": ("pretrain",), "finetune_tok_s": ("finetune",),
         "decode_tok_s": ("sweep", "eval"), "probe_samples_s": ("probe", "report")}


class Rep:
    """One repetition: set-up plus the timed stage chain."""

    def __init__(self, index: int, directory: Path, traced: bool):
        self.index = index
        self.dir = directory
        self.traced = traced
        self.setup_s = 0.0
        self.walls: dict[str, float] = {}
        self.rss_kb: dict[str, int] = {}
        self.cpu_s: dict[str, float] = {}
        self.ops: list[tuple[str, bool, str]] = []
        self.hashes: dict[str, str] = {}
        self.work: dict[str, int] = {}
        self.spans: list[Path] = []

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.ops)

    def op(self, name: str, ok: bool, detail: str = "") -> bool:
        self.ops.append((name, bool(ok), detail))
        return bool(ok)

    def to_dict(self) -> dict:
        return {"index": self.index, "traced": self.traced, "setup_s": self.setup_s,
                "walls": self.walls, "cpu_s": self.cpu_s, "rss_kb": self.rss_kb, "work": self.work,
                "hashes": self.hashes, "ops": [list(o) for o in self.ops]}


def run_stage(rep: Rep, stage, stop_at: float) -> bool:
    """Run one CLI stage as its own process; record wall time and peak RSS."""
    cmd = [sys.executable, str(HERE / "stage.py")]
    if rep.traced:
        spans = rep.dir / f"spans.{stage.name}.json"
        cmd += ["--trace", str(spans), "--run-id", f"{rep.dir.name}/{stage.name}"]
        rep.spans.append(spans)
    cmd += ["--", *stage.argv]
    with open(rep.dir / f"{stage.name}.log", "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=rep.dir, stdout=log, stderr=subprocess.STDOUT)
        timer = threading.Timer(max(1.0, stop_at - t0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        rep.walls[stage.name] = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    rep.rss_kb[stage.name] = usage.ru_maxrss
    rep.cpu_s[stage.name] = usage.ru_utime + usage.ru_stime
    if not rep.op(f"{stage.name} exits 0", proc.returncode == 0,
                  f"exit {proc.returncode}, see {stage.name}.log"):
        return False
    ok, detail = workloads.check_manifest(stage.manifest)
    rep.op(f"{stage.name} manifest hashes match", ok, detail)
    for path, sha in workloads.manifest_outputs(stage.manifest).items():
        rep.hashes[str(path.relative_to(rep.dir))] = sha
        if path.suffix == ".tsv" and not path.name.endswith(".log.tsv"):
            rep.op(f"{path.name} re-emits byte-identically", workloads.reemits(path))
    return ok


def run_rep(wl, rep: Rep, stop_at: float) -> None:
    rep.dir.mkdir(parents=True)
    t0 = time.perf_counter()
    wl.write_config(rep.dir)
    setup_ok = run_stage(rep, wl.gen_data(rep.dir), stop_at)
    if wl.seeded_model:
        wl.write_model(rep.dir)
    rep.setup_s = time.perf_counter() - t0
    if not setup_ok:
        return
    if wl.seeded_model:
        ok, detail = workloads.check_manifest(rep.dir / "inputs.manifest.json")
        rep.op("input manifest hashes match", ok, detail)
        for path, sha in workloads.manifest_outputs(rep.dir / "inputs.manifest.json").items():
            rep.hashes[path.name] = sha
    for stage in wl.stages(rep.dir):
        if not run_stage(rep, stage, stop_at):
            return
    try:   # outputs the checks cannot read are a failed check, not a crash
        for name, ok, detail in wl.checks(rep.dir):
            rep.op(name, ok, detail)
        rep.work = wl.work(rep.dir)
    except Exception as exc:
        rep.op("workload outputs readable", False, repr(exc))


def warm_up(wl, directory: Path, stop_at: float) -> Rep:
    """Untimed set-up: its stage runs and checks count, its times do not."""
    rep = Rep(-1, directory, traced=False)
    directory.mkdir(parents=True)
    wl.write_config(directory)
    run_stage(rep, wl.gen_data(directory), stop_at)
    return rep


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def end_to_end(wl, reps: list[Rep]) -> dict:
    def per_rep(r: Rep) -> dict:
        timed = [s.name for s in wl.stages(r.dir)]
        main = (wl.first, wl.second)
        return {
            "setup_s": r.setup_s,
            "wall_s": sum(r.walls[s] for s in timed),
            "first_stage_s": r.walls[wl.first],
            "second_stage_s": r.walls[wl.second],
            "work_per_s": sum(r.work[s] for s in main) / sum(r.walls[s] for s in main),
            "peak_rss_mb": max(r.rss_kb.values()) / 1024.0,
        }
    rows = [per_rep(r) for r in reps]
    units = {"setup_s": "s", "wall_s": "s", "first_stage_s": "s",
             "second_stage_s": "s", "work_per_s": "1/s", "peak_rss_mb": "MB"}
    return {k: {"value": median(row[k] for row in rows), "unit": u}
            for k, u in units.items()}


def per_layer(wl, plain: list[Rep], traced: list[Rep]) -> dict:
    import tracer
    out: dict[str, tuple[float, str]] = {}
    functions = [f for f in tracer.TRACED if f != "cli.main"]
    per_rep = []
    for r in traced:
        calls: dict[str, float] = {}
        self_s: dict[str, float] = {}
        counts: dict[str, float] = {}
        for path in r.spans:
            c, s, n = tracer.aggregate(path)
            for table, part in ((calls, c), (self_s, s), (counts, n)):
                for k, v in part.items():
                    table[k] = table.get(k, 0) + v
        per_rep.append((calls, self_s, counts))

    def med(i, key):
        return median(t[i].get(key, 0) for t in per_rep)

    for f in functions:
        out[f"{f}.calls"] = (med(0, f), "count")
        out[f"{f}.self_s"] = (med(1, f), "s")
    for key in COUNTED:
        out[key] = (med(2, key), "count")
    steps = out["numerics.adam_step.calls"][0]
    out["train.grad_calls_per_step"] = (
        out["model.loss_and_grads.calls"][0] / steps if steps else 0.0, "ratio")
    forwarded = out["model.next_token_logits.positions"][0]
    out["model.decode.useful_ratio"] = (
        out["model.generate_greedy.new_tokens"][0] / forwarded if forwarded else 0.0, "ratio")
    out["probe.layer_positions"] = (
        out["model.forward_collect.positions"][0] * workloads.MODEL.n_layers, "count")

    def stage_wall(r: Rep, stage: str) -> float:
        return r.walls.get(stage, 0.0)

    for stage in MAIN_STAGES:
        out[f"{stage}_s"] = (median(stage_wall(r, stage) for r in plain), "s")
    for stage in SHORT_STAGES:
        out[f"cli.{stage}.wall_s"] = (median(stage_wall(r, stage) for r in plain), "s")
    for name, stages in RATES.items():
        def rate(r: Rep) -> float:
            t = sum(stage_wall(r, s) for s in stages)
            return sum(r.work.get(s, 0) for s in stages) / t if t else 0.0
        out[name] = (median(rate(r) for r in plain), "1/s")

    def chain_wall(r: Rep) -> float:
        return sum(r.walls[s.name] for s in wl.stages(r.dir))
    out["trace.overhead_s"] = (median(map(chain_wall, traced))
                               - median(map(chain_wall, plain)), "s")
    return {k: {"value": float(v), "unit": u} for k, (v, u) in out.items()}


def machine() -> dict:
    import numpy as np
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):   # numpy < 1.25 has no dict mode
        pass
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {"nproc": nproc, "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"), "blas_threads": BLAS_THREADS,
            "platform": platform.platform()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="bench/run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("desk", "smoke"), default="desk")
    args = parser.parse_args(argv)

    if workloads is None or not (SRC / "lorabound" / "cli.py").is_file():
        print(f"error: no lorabound sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload](args.scale, args.seed)

    label = f"{wl.name}-s{args.seed}-t{args.trace}"
    run_dir = WORK / label
    shutil.rmtree(run_dir, ignore_errors=True)
    start = time.perf_counter()
    deadline = start + args.seconds
    warm = warm_up(wl, run_dir / "warmup", start + RUN_LIMIT_S)
    reps: list[Rep] = []
    took: dict[bool, list[float]] = {False: [], True: []}
    while warm.ok and len(reps) < MAX_REPS:
        traced = bool(args.trace) and len(reps) % 2 == 1
        kinds = {r.traced for r in reps}
        done = bool(reps) and (not args.trace or len(kinds) == 2)
        # stop when a typical repetition of this kind would end past the deadline
        if done and time.perf_counter() + median(took[traced]) > deadline:
            break
        rep = Rep(len(reps), run_dir / f"rep{len(reps):02d}", traced)
        t0 = time.perf_counter()
        run_rep(wl, rep, start + RUN_LIMIT_S)
        took[traced].append(time.perf_counter() - t0)
        if reps:
            same = rep.hashes == reps[0].hashes
            rep.op("outputs hash the same as repetition 0", same,
                   "" if same else str(sorted(k for k in rep.hashes
                                              if rep.hashes[k] != reps[0].hashes.get(k))))
        reps.append(rep)
        if not rep.ok:
            break

    ops = [o for r in (warm, *reps) for o in r.ops]
    failed = sum(not ok for _, ok, _ in ops)
    complete = [r for r in reps if r.ok]
    plain = [r for r in complete if not r.traced]
    metrics = {}
    if plain and (not args.trace or any(r.traced for r in complete)):
        metrics = (per_layer(wl, plain, [r for r in complete if r.traced])
                   if args.trace else end_to_end(wl, plain))
    else:
        failed = max(failed, 1)

    fingerprint = machine()
    result = {"correct": failed == 0, "attempted": len(ops), "failed": failed,
              "metrics": metrics}
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    (WORK / "results" / f"{label}.json").write_text(json.dumps(
        {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
         "trace": args.trace, "scale": args.scale, "machine": fingerprint,
         "result": result, "warmup": warm.to_dict(),
         "reps": [r.to_dict() for r in reps]}, indent=1) + "\n")
    for name, ok, detail in ops:
        if not ok:
            print(f"FAILED: {name}: {detail}", file=sys.stderr)
    if failed == 0:
        shutil.rmtree(run_dir, ignore_errors=True)
    print("machine: " + json.dumps(fingerprint, sort_keys=True))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
