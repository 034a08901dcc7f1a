"""Tests of the benchmark itself, at smoke scale (about a minute in all).

    python3 -m pytest bench

Each workload runs once untraced and once traced. The tests check that
every check passes, that the printed metrics are exactly the ones
BENCHMARK.json names, and that tracing never changes an output byte.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(HERE))
import tracer  # noqa: E402


def run(workload: str, trace: int, cwd: Path = ROOT, seed: int = 7):
    cmd = [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
           "--scale", "smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_file(workload: str, trace: int, seed: int = 7) -> dict:
    path = ROOT / ".bench_work" / "results" / f"{workload}-s{seed}-t{trace}.json"
    return json.loads(path.read_text())


@pytest.fixture(scope="module", params=WORKLOADS)
def runs(request):
    out = {}
    for trace in (0, 1):
        proc = run(request.param, trace)
        assert proc.returncode == 0, proc.stderr
        out[trace] = json.loads(proc.stdout.splitlines()[-1])
    return request.param, out


def test_every_check_passes(runs):
    _, results = runs
    for result in results.values():
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["failed"] == 0
        assert result["attempted"] >= 1


def test_metrics_match_the_spec(runs):
    _, results = runs
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        metrics = results[trace]["metrics"]
        assert list(metrics) == [m["name"] for m in SPEC[kind]]
        for m in SPEC[kind]:
            assert metrics[m["name"]]["unit"] == m["unit"]
    for value in results[0]["metrics"].values():
        assert value["value"] > 0


def test_tracing_changes_no_output(runs):
    workload, _ = runs
    reps = result_file(workload, 1)["reps"]
    plain = [r["hashes"] for r in reps if not r["traced"]]
    traced = [r["hashes"] for r in reps if r["traced"]]
    assert plain and traced
    assert all(h == plain[0] for h in plain + traced)
    assert len(plain[0]) >= 5


def test_traced_run_covers_its_layers(runs):
    workload, results = runs
    metrics = {k: v["value"] for k, v in results[1]["metrics"].items()}
    own = {"pretrain-finetune": "model.loss_and_grads.calls",
           "sweep-eval": "model.generate_greedy.calls",
           "probe-report": "model.forward_collect.calls"}
    for name, key in own.items():
        assert (metrics[key] > 0) == (name == workload), key
    for key in ("numerics.softmax_rows.calls", "numerics.rmsnorm_fwd.calls",
                "fileio.write_manifest.calls", "tasks.save_dataset.calls"):
        assert metrics[key] > 0, key
    # training computes its logits inline, without the lens head
    assert (metrics["model.lens_logits.calls"] > 0) == (workload != "pretrain-finetune")


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_self_time_subtracts_direct_children(tmp_path):
    spans = [["outer", 0.0, 10.0, -1], ["a", 1.0, 4.0, 0], ["b", 2.0, 3.0, 1],
             ["a", 5.0, 6.0, 0]]
    path = tmp_path / "spans.json"
    path.write_text(json.dumps({"run_id": "t", "counts": {}, "spans": spans}))
    calls, self_s, _ = tracer.aggregate(path)
    assert calls == {"outer": 1, "a": 2, "b": 1}
    assert self_s == {"outer": 6.0, "a": 3.0, "b": 1.0}
