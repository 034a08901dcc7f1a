"""Session fixtures that build the desk-scale artifacts the gate inspects.

The `desk` fixture runs the production pipeline once at full size with
per-stage wall-clock timing; `multi` fine-tunes and sweeps across every
task and three seeds on top of the same pretrained base. Both are
expensive (minutes, not seconds) and session-scoped, so the cost is
paid once per pytest run and only when a test actually asks for them.
"""
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import pytest

from lorabound.cli import main as cli_main
from lorabound.runconfig import RunConfig

# Desk recipe. The pretraining length is the dominant cost; it is sized
# so the base model crosses the match-and-copy formation threshold
# (observed around 3-4k optimizer steps at this scale) with margin, and
# everything downstream is sized to keep the end-to-end chain well
# under its half-hour ceiling.
DESK_PRETRAIN = {"corpus_tokens": 400_000, "epochs": 9, "lr": 3e-3,
                 "batch": 8, "seed": 0}
DESK_TRAIN = {"lr": 1e-3, "epochs": 3, "batch": 16, "seed": 0}
DESK_TASK = {"name": "kvqa", "seed": 0, "train_size": 2000,
             "validation_size": 500, "test_size": 500}
DESK_PROBE = {"n_tokens": 4, "sample_budget": 100, "seed": 0}
DESK_SWEEP = {"budget": 500, "decode_budget": 16, "seed": 0}
DESK_SECTIONS = {"pretrain": DESK_PRETRAIN, "train": DESK_TRAIN, "task": DESK_TASK,
                 "probe": DESK_PROBE, "sweep": DESK_SWEEP}

# Reduced sizes for the per-task, per-seed quality matrix.
MULTI_TASK_SIZES = {"train_size": 800, "validation_size": 200,
                    "test_size": 200}
MULTI_TRAIN = {"lr": 1e-3, "epochs": 2, "batch": 16}
MULTI_SWEEP = {"budget": 200, "decode_budget": 16}
MULTI_TASKS = ("kvqa", "arith", "cipher-mt", "salient-summary")
MULTI_SEEDS = (0, 1, 2)


def multi_sections(task: str, seed: int) -> dict:
    """The run-config overrides of one cell of the quality matrix."""
    return {"train": dict(MULTI_TRAIN, seed=seed),
            "task": dict(MULTI_TASK_SIZES, name=task, seed=seed),
            "probe": dict(DESK_PROBE, seed=seed),
            "sweep": dict(MULTI_SWEEP, seed=seed)}


def run_cli(*argv) -> None:
    argv = [str(a) for a in argv]
    rc = cli_main(argv)
    assert rc == 0, f"cli exited {rc}: {' '.join(argv)}"


def compose_config(**sections) -> dict:
    """The default run config with each section's overrides applied."""
    cfg = RunConfig.default().to_dict()
    for name, overrides in sections.items():
        cfg[name].update(overrides)
    return cfg


def write_config(path: Path, **sections) -> dict:
    cfg = compose_config(**sections)
    path.write_text(json.dumps(cfg, indent=2))
    return cfg


@dataclass
class DeskArtifacts:
    root: Path
    cfg: dict
    cfg_path: Path
    paths: dict = field(default_factory=dict)
    times: dict = field(default_factory=dict)

    @property
    def chain_seconds(self) -> float:
        return sum(self.times.values())


def _timed(desk: DeskArtifacts, stage: str, *argv):
    t0 = time.perf_counter()
    run_cli(*argv)
    desk.times[stage] = time.perf_counter() - t0


@pytest.fixture(scope="session")
def desk(tmp_path_factory) -> DeskArtifacts:
    """Full pipeline at desk scale: data, pretrain, tune, probe, sweep,
    export, eval, with wall-clock per stage. One build per session."""
    root = tmp_path_factory.mktemp("desk")
    cfg_path = root / "config.json"
    cfg = write_config(cfg_path, **DESK_SECTIONS)
    d = DeskArtifacts(root=root, cfg=cfg, cfg_path=cfg_path)
    p = d.paths
    p["data"] = root / "data"
    p["trained"] = root / "trained.lbwt"
    p["full"] = root / "full.lbad"
    p["probe_tsv"] = root / "probe_full.tsv"
    p["sweep_json"] = root / "sweep.json"
    p["kept"] = root / "kept.lbad"
    p["eval_kstar"] = root / "eval_kstar.tsv"

    # the timed end-to-end chain
    _timed(d, "gen-data", "gen-data", "--config", cfg_path, "--out", p["data"])
    _timed(d, "pretrain", "pretrain", "--config", cfg_path,
           "--out", p["trained"], "--log", root / "pretrain.log.tsv")
    _timed(d, "finetune", "finetune", "--config", cfg_path,
           "--model", p["trained"], "--data", p["data"], "--out", p["full"])
    _timed(d, "probe", "probe", "--config", cfg_path, "--model", p["trained"],
           "--adapters", p["full"], "--data", p["data"],
           "--out", p["probe_tsv"])
    _timed(d, "sweep", "sweep", "--config", cfg_path, "--model", p["trained"],
           "--adapters", p["full"], "--data", p["data"],
           "--out", p["sweep_json"], "--tsv", root / "sweep_scores.tsv")
    _timed(d, "export", "export", "--model", p["trained"],
           "--adapters", p["full"], "--keep-bottom",
           f"from:{p['sweep_json']}", "--format", "adapters",
           "--out", p["kept"])
    _timed(d, "eval", "eval", "--config", cfg_path, "--model", p["trained"],
           "--adapters", p["kept"], "--data", p["data"], "--split", "test",
           "--out", p["eval_kstar"])

    # untimed extras used by other parts of the gate
    p["untrained"] = root / "untrained.lbwt"
    run_cli("init-model", "--config", cfg_path, "--seed", 0,
            "--out", p["untrained"])
    p["eval_full"] = root / "eval_full.tsv"
    run_cli("eval", "--config", cfg_path, "--model", p["trained"],
            "--adapters", p["full"], "--data", p["data"], "--split", "test",
            "--out", p["eval_full"])
    p["eval_base"] = root / "eval_base.tsv"
    run_cli("eval", "--config", cfg_path, "--model", p["trained"],
            "--data", p["data"], "--split", "test", "--out", p["eval_base"])
    p["eval_untrained"] = root / "eval_untrained.tsv"
    run_cli("eval", "--config", cfg_path, "--model", p["untrained"],
            "--data", p["data"], "--split", "test",
            "--out", p["eval_untrained"])
    p["report_dir"] = root / "report"
    run_cli("report", "--config", cfg_path, "--model", p["trained"],
            "--adapters", p["full"], "--data", p["data"],
            "--out-dir", p["report_dir"])
    return d


def eval_score(tsv_path) -> float:
    from lorabound.reports import parse_tsv
    text = Path(tsv_path).read_text()
    kind, meta, _, _ = parse_tsv(text, str(tsv_path))
    assert kind == "eval"
    return float(meta["score"])


@dataclass
class QualityCell:
    task: str
    seed: int
    metric: str
    k_star: int
    n_layers: int
    per_k: dict
    test_kstar: float
    test_full: float


@pytest.fixture(scope="session")
def multi(desk, tmp_path_factory) -> list[QualityCell]:
    """Fine-tune, sweep, and test-evaluate every task at three seeds,
    sharing the desk pretrained base."""
    root = tmp_path_factory.mktemp("multi")
    n_layers = desk.cfg["model"]["n_layers"]
    cells = []
    for task in MULTI_TASKS:
        for seed in MULTI_SEEDS:
            cdir = root / f"{task}-s{seed}"
            cdir.mkdir()
            cfg_path = cdir / "config.json"
            write_config(cfg_path, **multi_sections(task, seed))
            data = cdir / "data"
            full = cdir / "full.lbad"
            sweep_json = cdir / "sweep.json"
            kept = cdir / "kept.lbad"
            run_cli("gen-data", "--config", cfg_path, "--out", data)
            run_cli("finetune", "--config", cfg_path, "--model",
                    desk.paths["trained"], "--data", data, "--out", full)
            run_cli("sweep", "--config", cfg_path, "--model",
                    desk.paths["trained"], "--adapters", full, "--data", data,
                    "--out", sweep_json)
            run_cli("export", "--model", desk.paths["trained"],
                    "--adapters", full, "--keep-bottom", f"from:{sweep_json}",
                    "--format", "adapters", "--out", kept)
            ev_k = cdir / "eval_kstar.tsv"
            ev_f = cdir / "eval_full.tsv"
            run_cli("eval", "--config", cfg_path, "--model",
                    desk.paths["trained"], "--adapters", kept, "--data", data,
                    "--split", "test", "--out", ev_k)
            run_cli("eval", "--config", cfg_path, "--model",
                    desk.paths["trained"], "--adapters", full, "--data", data,
                    "--split", "test", "--out", ev_f)
            decision = json.loads(sweep_json.read_text())
            cells.append(QualityCell(
                task=task, seed=seed, metric=decision["metric"],
                k_star=decision["k_star"], n_layers=n_layers,
                per_k={int(k): v
                       for k, v in decision["per_k_scores"].items()},
                test_kstar=eval_score(ev_k), test_full=eval_score(ev_f),
            ))
    return cells
