"""Command-line pipeline checks on a two-layer micro configuration."""

import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lorabound
from lorabound import workers
from lorabound.boundary import BoundaryDecision
from lorabound.cli import build_parser, main
from lorabound.fileio import (MAGIC_ADAPTERS, MAGIC_WEIGHTS, _decode_container,
                              load_adapters, load_weights, save_adapters, save_weights)
from lorabound.lora import LoraAdapter, drop_above
from lorabound.probe import ProbeReport, select_samples
from lorabound.reports import parse_tsv, read_probe_tsv, write_probe_tsv
from lorabound.tasks import load_dataset

from helpers import count_hashes, write_container, write_probe_report

MICRO_CFG = {
    "model": {"n_layers": 2, "d_model": 8, "n_heads": 2, "d_ff": 16,
              "vocab_size": 512, "max_seq": 128},
    "pretrain": {"corpus_tokens": 3000, "epochs": 1, "batch": 8},
    "train": {"lr": 1e-3, "epochs": 1, "batch": 4},
    "lora": {"rank": 2},
    "task": {"train_size": 12, "validation_size": 6, "test_size": 6},
    "probe": {"n_tokens": 2, "sample_budget": 4},
    "sweep": {"budget": 4, "decode_budget": 6},
}


def run(*argv) -> int:
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One full command chain; every artifact is reused by the tests below."""
    root = tmp_path_factory.mktemp("cli")
    p = {
        "root": root,
        "cfg": root / "config.json",
        "data": root / "data",
        "untrained": root / "untrained.lbwt",
        "base": root / "base.lbwt",
        "full": root / "full.lbad",
        "partial": root / "partial.lbad",
        "stale": root / "stale.lbad",
        "probe": root / "probe.tsv",
        "probe_plain": root / "probe_plain.tsv",
        "diff": root / "diff.tsv",
        "knee": root / "knee.json",
        "sweep": root / "sweep.json",
        "sweep_tsv": root / "sweep.tsv",
        "kept": root / "kept.lbad",
        "kept1": root / "kept1.lbad",
        "merged": root / "merged.lbwt",
        "eval": root / "eval.tsv",
        "report_dir": root / "report",
    }
    p["cfg"].write_text(json.dumps(MICRO_CFG))
    c = ("--config", p["cfg"])

    assert run("gen-data", *c, "--out", p["data"]) == 0
    assert run("init-model", *c, "--seed", 3, "--out", p["untrained"]) == 0
    assert run("pretrain", *c, "--out", p["base"],
               "--log", root / "pretrain.tsv") == 0
    assert run("finetune", *c, "--model", p["base"], "--data", p["data"],
               "--out", p["full"], "--log", root / "sft.tsv") == 0
    assert run("finetune-partial", *c, "--model", p["base"], "--data", p["data"],
               "--keep-bottom", 1, "--out", p["partial"]) == 0
    # an adapter set bound to a different base, for compatibility failures
    assert run("finetune", *c, "--model", p["untrained"], "--data", p["data"],
               "--out", p["stale"]) == 0
    assert run("probe", *c, "--model", p["base"], "--data", p["data"],
               "--adapters", p["full"], "--out", p["probe"]) == 0
    assert run("probe", *c, "--model", p["base"], "--data", p["data"],
               "--out", p["probe_plain"]) == 0
    assert run("diff-probe", *c, "--model", p["base"], "--data", p["data"],
               "--adapters", p["full"], "--out", p["diff"]) == 0
    assert run("knee", "--probe", p["probe"], "--fallback",
               "--out", p["knee"]) == 0
    assert run("sweep", *c, "--model", p["base"], "--data", p["data"],
               "--adapters", p["full"], "--out", p["sweep"],
               "--tsv", p["sweep_tsv"]) == 0
    assert run("export", "--model", p["base"], "--adapters", p["full"],
               "--keep-bottom", "from:" + str(p["sweep"]),
               "--format", "adapters", "--out", p["kept"]) == 0
    assert run("export", "--model", p["base"], "--adapters", p["full"],
               "--keep-bottom", 1, "--out", p["merged"]) == 0
    assert run("export", "--model", p["base"], "--adapters", p["full"],
               "--keep-bottom", 1, "--format", "adapters", "--out", p["kept1"]) == 0
    assert run("eval", *c, "--model", p["base"], "--data", p["data"],
               "--adapters", p["kept1"], "--budget", 4,
               "--decode-budget", 6, "--out", p["eval"]) == 0
    assert run("report", *c, "--model", p["base"], "--data", p["data"],
               "--adapters", p["full"], "--out-dir", p["report_dir"]) == 0
    return p


def config_with(pipeline, tmp_path, section: str, key: str, value):
    """The pipeline's config with one value replaced, written under tmp_path."""
    cfg = json.loads(pipeline["cfg"].read_text())
    cfg[section][key] = value
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


class TestArtifacts:
    def test_every_command_leaves_a_manifest(self, pipeline):
        for key in ("base", "full", "partial", "probe", "diff", "knee",
                    "sweep", "kept", "kept1", "merged", "eval", "untrained"):
            path = pipeline[key].parent / (pipeline[key].name + ".manifest.json")
            doc = json.loads(path.read_text())
            assert set(doc) == {"command", "params", "outputs"}
            assert pipeline[key].name in doc["outputs"]
        for key in ("data", "report_dir"):
            doc = json.loads((pipeline[key] / "manifest.json").read_text())
            assert doc["outputs"]

    def test_dataset_layout(self, pipeline):
        names = {f.name for f in pipeline["data"].iterdir()}
        assert {"train.jsonl", "validation.jsonl", "test.jsonl",
                "dataset.json", "vocab.json"} <= names

    def test_probe_tsv_is_well_formed(self, pipeline):
        report = read_probe_tsv(pipeline["probe"])
        assert report.n_layers == 2
        assert report.n_tokens == 2
        assert report.sample_count == 4
        assert report.config["adapters"] is not None
        plain = read_probe_tsv(pipeline["probe_plain"])
        assert plain.config["adapters"] is None

    def test_diff_tsv_shape(self, pipeline):
        kind, meta, columns, rows = parse_tsv(pipeline["diff"].read_text())
        assert kind == "diff-probe"
        assert columns == ["layer", "delta_1", "delta_2"]
        assert [r[0] for r in rows] == [1, 2]
        assert set(meta) == {"model", "ours", "split", "sample_count", "n_tokens"}

    def test_knee_decision_round_trips(self, pipeline):
        decision = BoundaryDecision.from_dict(
            json.loads(pipeline["knee"].read_text()))
        assert decision.method == "knee"
        assert 0 <= decision.k_star <= 2
        full = load_adapters(pipeline["full"])
        assert decision.set_hash == full.content_hash()

    def test_sweep_decision_round_trips(self, pipeline):
        decision = BoundaryDecision.from_dict(
            json.loads(pipeline["sweep"].read_text()))
        assert decision.method == "sweep"
        assert sorted(decision.per_k_scores) == [0, 1, 2]
        assert decision.k_star in decision.per_k_scores
        kind, meta, columns, rows = parse_tsv(pipeline["sweep_tsv"].read_text())
        assert kind == "sweep"
        assert columns == ["keep", "score"]
        assert [r[0] for r in rows] == [0, 1, 2]

    def test_export_kept_only_bottom_layer(self, pipeline):
        decision = BoundaryDecision.from_dict(
            json.loads(pipeline["sweep"].read_text()))
        kept = load_adapters(pipeline["kept"])
        layers = {layer for layer, _ in kept.adapters}
        assert all(l <= decision.k_star for l in layers)
        full = load_adapters(pipeline["full"])
        want = drop_above(full, decision.k_star)
        assert kept.content_hash() == want.content_hash()

    def test_export_merged_is_a_loadable_model(self, pipeline):
        base = load_weights(pipeline["base"])
        merged = load_weights(pipeline["merged"])
        assert merged.cfg == base.cfg
        assert merged.fingerprint() != base.fingerprint()

    def test_eval_tsv_layout(self, pipeline):
        kind, meta, columns, rows = parse_tsv(pipeline["eval"].read_text())
        assert kind == "eval"
        assert columns == ["index", "score", "prediction", "gold"]
        assert len(rows) == 4
        assert meta["metric"] == "em"
        assert meta["task"] == "kvqa"

    def test_eval_of_the_kept_set_scores_as_the_sweep(self, pipeline, tmp_path):
        # sweep -> export from:sweep.json -> eval of the kept set on the swept
        # split; eval decodes the config's sweep.decode_budget, as the sweep did
        decision = BoundaryDecision.from_dict(json.loads(pipeline["sweep"].read_text()))
        budget = MICRO_CFG["sweep"]["budget"]
        out = tmp_path / "eval_kept.tsv"
        assert run("eval", "--config", pipeline["cfg"], "--model", pipeline["base"],
                   "--data", pipeline["data"], "--adapters", pipeline["kept"],
                   "--split", "validation", "--budget", budget, "--out", out) == 0
        _, meta, _, rows = parse_tsv(out.read_text())
        assert meta["decode_budget"] == decision.extra["decode_budget"] \
            == MICRO_CFG["sweep"]["decode_budget"]
        assert meta["score"] == decision.per_k_scores[decision.k_star]
        assert meta["sample_count"] == decision.sample_count == budget
        validation = load_dataset(pipeline["data"]).splits["validation"]
        assert len(validation) > budget
        drawn = select_samples(validation, budget, MICRO_CFG["sweep"].get("seed", 0))
        assert [row[3] for row in rows] == [s.gold_text() for s in drawn]

    def test_report_bundle_contents(self, pipeline):
        d = pipeline["report_dir"]
        kind, meta, columns, _ = parse_tsv((d / "layer_curves.tsv").read_text())
        assert kind == "drop-probe"
        assert columns == ["layer", "keep00", "keep01", "keep02"]
        assert read_probe_tsv(d / "probe_full.tsv").sample_count == 4
        kind, _, _, _ = parse_tsv((d / "probe_diff.tsv").read_text())
        assert kind == "diff-probe"
        # sweep scores come from `sweep --tsv` alone
        outputs = json.loads((d / "manifest.json").read_text())["outputs"]
        assert sorted(outputs) == ["layer_curves.tsv", "probe_diff.tsv", "probe_full.tsv"]

    def test_diff_probe_is_the_report_diff(self, pipeline):
        report_diff = pipeline["report_dir"] / "probe_diff.tsv"
        assert pipeline["diff"].read_bytes() == report_diff.read_bytes()


class TestDeterminism:
    def test_gen_data_reruns_identically(self, pipeline, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("gen-data", "--config", pipeline["cfg"], "--out", a) == 0
        assert run("gen-data", "--config", pipeline["cfg"], "--out", b) == 0
        for name in ("train.jsonl", "validation.jsonl", "test.jsonl",
                     "dataset.json", "manifest.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()
        assert ((a / "train.jsonl").read_bytes()
                == (pipeline["data"] / "train.jsonl").read_bytes())

    def test_init_model_seed_controls_bytes(self, pipeline, tmp_path):
        again = tmp_path / "again.lbwt"
        other = tmp_path / "other.lbwt"
        cfg = pipeline["cfg"]
        assert run("init-model", "--config", cfg, "--seed", 3, "--out", again) == 0
        assert run("init-model", "--config", cfg, "--seed", 4, "--out", other) == 0
        assert again.read_bytes() == pipeline["untrained"].read_bytes()
        assert other.read_bytes() != again.read_bytes()

    def test_sweep_rerun_is_byte_identical(self, pipeline, tmp_path):
        out = tmp_path / "sweep2.json"
        assert run("sweep", "--config", pipeline["cfg"], "--model",
                   pipeline["base"], "--data", pipeline["data"],
                   "--adapters", pipeline["full"], "--out", out) == 0
        assert out.read_bytes() == pipeline["sweep"].read_bytes()

    def test_manifests_do_not_depend_on_the_run_directory(self, pipeline, tmp_path):
        # finetune and knee name their input files by content, not by path
        for name in ("cfg", "base", "probe"):
            (tmp_path / pipeline[name].name).write_bytes(pipeline[name].read_bytes())
        data = tmp_path / pipeline["data"].name
        data.mkdir()
        for f in pipeline["data"].iterdir():
            (data / f.name).write_bytes(f.read_bytes())
        full, knee = tmp_path / pipeline["full"].name, tmp_path / pipeline["knee"].name
        assert run("finetune", "--config", tmp_path / pipeline["cfg"].name,
                   "--model", tmp_path / pipeline["base"].name, "--data", data,
                   "--out", full, "--log", tmp_path / "sft.tsv") == 0
        assert run("knee", "--probe", tmp_path / pipeline["probe"].name, "--fallback",
                   "--out", knee) == 0
        for name in (full, knee):
            manifest = name.name + ".manifest.json"
            assert ((tmp_path / manifest).read_bytes()
                    == (pipeline["root"] / manifest).read_bytes())


class TestBaseHashedOnce:
    """Every command hashes its base weights once, however many checks,
    reports and manifests record the fingerprint."""

    @pytest.mark.parametrize("command", ["finetune", "probe", "diff-probe", "sweep",
                                         "export", "eval", "report", "pretrain",
                                         "init-model"])
    def test_one_weights_hash_per_command(self, pipeline, tmp_path, monkeypatch, command):
        out = tmp_path / "out"
        c = ("--config", pipeline["cfg"])
        inputs = ("--model", pipeline["base"], "--data", pipeline["data"],
                  "--adapters", pipeline["full"])
        argv = {
            "finetune": (*c, "--model", pipeline["base"], "--data", pipeline["data"]),
            "probe": (*c, *inputs),
            "diff-probe": (*c, *inputs),
            "sweep": (*c, *inputs),
            "export": ("--model", pipeline["base"], "--adapters", pipeline["full"],
                       "--keep-bottom", 1, "--format", "adapters"),
            "eval": (*c, *inputs, "--budget", 4, "--decode-budget", 6),
            "report": (*c, *inputs),
            "pretrain": c,
            "init-model": (*c, "--seed", 3),
        }[command]
        calls = count_hashes(monkeypatch)
        dest = ("--out-dir",) if command == "report" else ("--out",)
        assert run(command, *argv, *dest, out) == 0
        assert len(calls) == 1


class TestDropFlag:
    """A kept set comes from `export --keep-bottom`; every other command
    takes it through --adapters."""

    def test_probe_keep_bottom_drops_adapters(self, pipeline, tmp_path):
        kept, out = tmp_path / "kept.lbad", tmp_path / "probe_kept.tsv"
        assert run("export", "--model", pipeline["base"], "--adapters", pipeline["full"],
                   "--keep-bottom", 1, "--format", "adapters", "--out", kept) == 0
        assert run("probe", "--config", pipeline["cfg"], "--model",
                   pipeline["base"], "--data", pipeline["data"],
                   "--adapters", kept, "--out", out) == 0
        report = read_probe_tsv(out)
        full = load_adapters(pipeline["full"])
        assert report.config["adapters"] == drop_above(full, 1).content_hash()

    def test_keep_bottom_from_decision_file(self, pipeline, tmp_path):
        kept, out = tmp_path / "kept.lbad", tmp_path / "eval_kept.tsv"
        assert run("export", "--model", pipeline["base"], "--adapters", pipeline["full"],
                   "--keep-bottom", "from:" + str(pipeline["sweep"]),
                   "--format", "adapters", "--out", kept) == 0
        assert run("eval", "--config", pipeline["cfg"], "--model",
                   pipeline["base"], "--data", pipeline["data"],
                   "--adapters", kept, "--budget", 2, "--out", out) == 0
        _, meta, _, _ = parse_tsv(out.read_text())
        k_star = json.loads(pipeline["sweep"].read_text())["k_star"]
        full = load_adapters(pipeline["full"])
        assert meta["adapters"] == drop_above(full, k_star).content_hash()

    def test_decision_with_a_refine_flag_still_loads(self, pipeline, tmp_path):
        # decisions written before the sweep lost its refine pass carry
        # extra.refine; extra is free-form, so they keep working
        decision = json.loads(pipeline["sweep"].read_text())
        decision["extra"]["refine"] = False
        old = tmp_path / "old.json"
        old.write_text(json.dumps(decision))
        kept = tmp_path / "kept.lbad"
        assert run("export", "--model", pipeline["base"], "--adapters", pipeline["full"],
                   "--keep-bottom", f"from:{old}", "--format", "adapters",
                   "--out", kept) == 0
        assert kept.read_bytes() == pipeline["kept"].read_bytes()


class TestStdout:
    def test_knee_reports_the_boundary(self, pipeline, tmp_path, capsys):
        assert run("knee", "--probe", pipeline["probe"], "--fallback",
                   "--out", tmp_path / "k.json") == 0
        assert "knee: boundary k* = " in capsys.readouterr().out

    def test_gen_data_reports_split_sizes(self, pipeline, tmp_path, capsys):
        assert run("gen-data", "--config", pipeline["cfg"],
                   "--out", tmp_path / "d") == 0
        out = capsys.readouterr().out
        assert "task=kvqa" in out
        assert "train=12" in out

    def test_eval_reports_the_score(self, pipeline, tmp_path, capsys):
        assert run("eval", "--config", pipeline["cfg"], "--model",
                   pipeline["base"], "--data", pipeline["data"],
                   "--budget", 2, "--out", tmp_path / "e.tsv") == 0
        assert "eval: em = " in capsys.readouterr().out


def readme_cli_lines():
    """Every `lorabound ...` command of the README's CLI block, with
    continuation lines joined and comments dropped, split as a shell would."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)
            for line in block.replace("\\\n", " ").splitlines() if line.strip()]


def test_readme_cli_examples_parse():
    lines = readme_cli_lines()
    assert len(lines) >= 10 and all(argv[0] == "lorabound" for argv in lines)
    for argv in lines:
        build_parser().parse_args(argv[1:])   # a usage error exits 1


def test_module_entry_point_shows_help():
    src = str(Path(lorabound.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-m", "lorabound", "--help"],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert "usage: lorabound" in proc.stdout



class TestTrainingProcesses:
    """`pretrain` and `report` on two processes, each as its own process group."""

    # the CLI with two usable CPUs, whatever this machine has
    SCRIPT = ("import sys; from lorabound import cli, workers; "
              "workers.usable_cpus = lambda: 2; sys.exit(cli.main(sys.argv[1:]))")

    def on_two_cpus(self, *argv) -> tuple[int, str]:
        """The CLI's exit code and stderr at two usable CPUs, once it has
        exited, checking that no process is left in its process group."""
        src = str(Path(lorabound.__file__).resolve().parents[1])
        proc = subprocess.Popen(
            [sys.executable, "-c", self.SCRIPT, *map(str, argv)], stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, start_new_session=True,
            env={**os.environ, "PYTHONPATH": src})
        _, err = proc.communicate(timeout=120)
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)      # no process is left in the run's group
        return proc.returncode, err

    @pytest.mark.parametrize("lr, code", [(1e-3, 0), (1e20, 2)])
    def test_pretrain_leaves_no_process_running(self, tmp_path, monkeypatch, lr, code):
        cfg = {**MICRO_CFG, "pretrain": {**MICRO_CFG["pretrain"], "lr": lr}}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        returncode, err = self.on_two_cpus("pretrain", "--config", tmp_path / "cfg.json",
                                           "--out", tmp_path / "base.lbwt")
        assert returncode == code, err
        if code == 2:
            # only the named error, whichever process ran the chunk that overflowed
            [line] = err.splitlines()
            assert line.startswith("error: pretrain epoch 1, step ")
            assert "non-finite loss nan" in line
        if code == 0:
            # the same bytes as a run in this process alone
            monkeypatch.setattr(workers, "usable_cpus", lambda: 1)
            one = tmp_path / "one"
            one.mkdir()
            assert run("pretrain", "--config", tmp_path / "cfg.json",
                       "--out", one / "base.lbwt") == 0
            for name in ("base.lbwt", "base.lbwt.manifest.json"):
                assert (one / name).read_bytes() == (tmp_path / name).read_bytes(), name

    def test_report_leaves_no_process_running(self, pipeline, tmp_path, monkeypatch):
        # the whole validation split, of several prompt lengths, so the
        # length batches span both processes
        validation = load_dataset(pipeline["data"]).splits["validation"]
        assert len({len(s.prompt_ids) for s in validation}) > 1
        cfg = {**MICRO_CFG, "probe": {**MICRO_CFG["probe"], "sample_budget": len(validation)}}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        argv = ("report", "--config", tmp_path / "cfg.json", "--model", pipeline["base"],
                "--data", pipeline["data"], "--adapters", pipeline["full"], "--out-dir")
        returncode, err = self.on_two_cpus(*argv, tmp_path / "two")
        assert returncode == 0, err
        monkeypatch.setattr(workers, "usable_cpus", lambda: 1)
        assert run(*argv, tmp_path / "one") == 0
        names = sorted(path.name for path in (tmp_path / "one").iterdir())
        assert names == sorted(path.name for path in (tmp_path / "two").iterdir())
        for name in names:
            assert ((tmp_path / "one" / name).read_bytes()
                    == (tmp_path / "two" / name).read_bytes()), name

    def test_a_probe_on_one_cpu_loads_no_multiprocessing(self, pipeline, tmp_path):
        src = str(Path(lorabound.__file__).resolve().parents[1])
        script = ("import sys; from lorabound import cli, workers; "
                  "workers.usable_cpus = lambda: 1; assert cli.main(sys.argv[1:]) == 0; "
                  "print(sorted({'mmap', 'multiprocessing'} & set(sys.modules)))")
        proc = subprocess.run(
            [sys.executable, "-c", script, "probe", "--config", pipeline["cfg"],
             "--model", pipeline["base"], "--data", pipeline["data"],
             "--adapters", pipeline["full"], "--out", tmp_path / "probe.tsv"],
            capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        [],
        ["frobnicate"],
        ["gen-data"],
        ["probe", "--model", "m.lbwt"],
        ["eval", "--model", "m", "--data", "d", "--out", "o",
         "--split", "bogus"],
        ["init-model", "--out", "o", "--seed", "notanint"],
        ["export", "--model", "m", "--adapters", "a", "--keep-bottom", "1",
         "--format", "bogus", "--out", "o"],
        # removed options: a kept set comes from export, sweep scores from
        # sweep --tsv, the diff's baseline is the base, the knee ratio is
        # fixed, and sweep and eval score with the dataset task's metric
        ["probe", "--model", "m", "--data", "d", "--adapters", "a",
         "--keep-bottom", "1", "--out", "o"],
        ["eval", "--model", "m", "--data", "d", "--adapters", "a",
         "--keep-bottom", "1", "--out", "o"],
        ["report", "--model", "m", "--data", "d", "--adapters", "a",
         "--sweep-json", "s", "--out-dir", "o"],
        ["diff-probe", "--model", "m", "--data", "d", "--adapters", "a",
         "--baseline-adapters", "b", "--out", "o"],
        ["knee", "--probe", "p", "--min-jump-ratio", "0.5", "--out", "o"],
        ["sweep", "--model", "m", "--data", "d", "--adapters", "a",
         "--metric", "em", "--out", "o"],
        ["eval", "--model", "m", "--data", "d", "--metric", "em", "--out", "o"],
    ])
    def test_usage_mistakes_exit_one(self, argv):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 1


class TestDomainErrors:
    def test_unknown_task_exits_two(self, pipeline, tmp_path, capsys):
        # resp-select, a yes/no classifier, is not one of the generation tasks
        for name in ("bogus", "resp-select"):
            path = config_with(pipeline, tmp_path, "task", "name", name)
            rc = run("gen-data", "--config", path, "--out", tmp_path / "d")
            assert rc == 2
            assert f"error: unknown task '{name}'" in capsys.readouterr().err
            assert os.listdir(tmp_path) == ["cfg.json"]

    @pytest.mark.parametrize("name, field, value", [("arith", "hops", -5),
                                                    ("cipher-mt", "hops", 3)])
    def test_removed_task_key_is_unknown_for_any_task(self, tmp_path, capsys, name,
                                                      field, value):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"task": {"name": name, field: value}}))
        rc = run("gen-data", "--config", path, "--out", tmp_path / "d")
        assert rc == 2
        assert f"unknown keys in section 'task': ['{field}']" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["cfg.json"]

    @pytest.mark.parametrize("command, field", [
        ("gen-data", "task.seed"), ("pretrain", "pretrain.seed"), ("finetune", "train.seed"),
        ("probe", "probe.seed"), ("sweep", "sweep.seed"), ("init-model", "--seed"),
    ])
    def test_negative_seed_exits_two(self, pipeline, tmp_path, capsys, command, field):
        if field == "--seed":
            argv = ["--config", pipeline["cfg"], "--seed", -1]
        else:
            argv = ["--config", config_with(pipeline, tmp_path, *field.split("."), -1)]
        if command in ("finetune", "probe", "sweep"):
            argv += ["--model", pipeline["base"], "--data", pipeline["data"]]
        if command in ("probe", "sweep"):
            argv += ["--adapters", pipeline["full"]]
        rc = run(command, *argv, "--out", tmp_path / "out")
        assert rc == 2
        assert f"error: {field} must be non-negative, got -1" in capsys.readouterr().err
        assert set(os.listdir(tmp_path)) <= {"cfg.json"}

    def test_missing_model_file_exits_two(self, pipeline, tmp_path):
        rc = run("probe", "--config", pipeline["cfg"],
                 "--model", tmp_path / "nope.lbwt",
                 "--data", pipeline["data"], "--out", tmp_path / "p.tsv")
        assert rc == 2

    def test_missing_dataset_exits_two(self, pipeline, tmp_path):
        rc = run("eval", "--config", pipeline["cfg"], "--model",
                 pipeline["base"], "--data", tmp_path / "nodata",
                 "--out", tmp_path / "e.tsv")
        assert rc == 2

    @staticmethod
    def eval_budget_error(pipeline, tmp_path, capsys, flag, value) -> str:
        """eval's stderr for a budget flag, with a model file that does not
        exist: only a check made before loading names the flag."""
        rc = run("eval", "--config", pipeline["cfg"], "--model", tmp_path / "nope.lbwt",
                 "--data", pipeline["data"], flag, value, "--out", tmp_path / "e.tsv")
        assert rc == 2
        assert os.listdir(tmp_path) == []
        return capsys.readouterr().err

    def test_negative_decode_budget_exits_two(self, pipeline, tmp_path, capsys):
        err = self.eval_budget_error(pipeline, tmp_path, capsys, "--decode-budget", -1)
        assert err == "error: --decode-budget must be at least 1, got -1\n"

    def test_zero_decode_budget_exits_two(self, pipeline, tmp_path, capsys):
        err = self.eval_budget_error(pipeline, tmp_path, capsys, "--decode-budget", 0)
        assert err == "error: --decode-budget must be at least 1, got 0\n"

    def test_bad_config_json_exits_two(self, tmp_path):
        cfg = tmp_path / "broken.json"
        cfg.write_text("{not json")
        rc = run("pretrain", "--config", cfg, "--out", tmp_path / "m.lbwt")
        assert rc == 2

    def test_flat_curve_without_fallback_exits_two(self, tmp_path, capsys):
        flat = ProbeReport(n_layers=2, n_tokens=2, sample_count=3,
                           gt_curve=np.full((2, 2), 0.1),
                           max_curve=np.full((2, 2), 0.5),
                           config={"adapters": "abc123", "seed": 0})
        path = tmp_path / "flat.tsv"
        write_probe_tsv(path, flat)
        assert run("knee", "--probe", path, "--out", tmp_path / "k.json") == 2
        assert "error:" in capsys.readouterr().err
        assert run("knee", "--probe", path, "--fallback",
                   "--out", tmp_path / "k.json") == 0

    def test_incompatible_adapters_exit_two(self, pipeline, tmp_path):
        rc = run("sweep", "--config", pipeline["cfg"], "--model",
                 pipeline["base"], "--data", pipeline["data"],
                 "--adapters", pipeline["stale"], "--out", tmp_path / "s.json")
        assert rc == 2

    def test_decision_for_other_adapters_exits_two(self, pipeline, tmp_path):
        rc = run("export", "--model", pipeline["base"],
                 "--adapters", pipeline["partial"],
                 "--keep-bottom", "from:" + str(pipeline["sweep"]),
                 "--out", tmp_path / "x.lbad")
        assert rc == 2

    @pytest.mark.parametrize("value", ["99", "-1", "x7"])
    def test_bad_keep_bottom_exits_two(self, pipeline, tmp_path, value):
        rc = run("export", "--model", pipeline["base"],
                 "--adapters", pipeline["full"], "--keep-bottom", value,
                 "--out", tmp_path / "x.lbad")
        assert rc == 2

    def test_bad_report_keep_level_exits_two_before_writing(self, pipeline, tmp_path,
                                                           capsys):
        path = config_with(pipeline, tmp_path, "probe", "keep_levels", [1, 99])
        out_dir = tmp_path / "report"
        rc = run("report", "--config", path, "--model", pipeline["base"],
                 "--data", pipeline["data"], "--adapters", pipeline["full"],
                 "--out-dir", out_dir)
        assert rc == 2
        assert "keep level 99 out of range 0..2" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_non_integer_report_level_exits_two(self, pipeline, tmp_path, capsys):
        path = config_with(pipeline, tmp_path, "probe", "keep_levels", ["a"])
        rc = run("report", "--config", path, "--model", pipeline["base"],
                 "--data", pipeline["data"], "--adapters", pipeline["full"],
                 "--out-dir", tmp_path / "report")
        assert rc == 2
        assert "probe.keep_levels must hold integers >= 0, got 'a'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["gen-data", "init-model", "probe"])
    def test_bad_keep_levels_exit_two_in_every_command(self, pipeline, tmp_path, capsys,
                                                       command):
        path = config_with(pipeline, tmp_path, "probe", "keep_levels", [1, True, -4])
        argv = [command, "--config", path, "--out", tmp_path / "out"]
        if command == "probe":
            argv += ["--model", pipeline["base"], "--data", pipeline["data"]]
        assert run(*argv) == 2
        assert "probe.keep_levels must hold integers >= 0, got True" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["cfg.json"]

    @pytest.mark.parametrize("flag", ["--config", "--model", "--probe"])
    def test_directory_given_for_a_file_exits_two(self, pipeline, tmp_path, capsys, flag):
        if flag == "--probe":
            argv = ["knee", "--probe", tmp_path]
        else:
            argv = ["probe", "--config", pipeline["cfg"], "--model", pipeline["base"],
                    "--data", pipeline["data"], flag, tmp_path]
        assert run(*argv, "--out", tmp_path / "out") == 2
        assert f"Is a directory: '{tmp_path}'" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("key, a_shape, b_shape, cause", [
        ((7, "q"), (2, 8), (8, 2), "adapter at layer 7 'q': layer out of range 1..2"),
        ((1, "q"), (2, 5), (8, 2),
         "adapter at layer 1 'q' has dims A(2, 5) / B(8, 2), projection needs (8, 8)"),
    ])
    def test_adapter_that_does_not_fit_the_model_exits_two(self, pipeline, tmp_path, capsys,
                                                          key, a_shape, b_shape, cause):
        lset = load_adapters(pipeline["full"])
        lset.adapters[key] = LoraAdapter(a=np.zeros(a_shape, np.float32),
                                         b=np.zeros(b_shape, np.float32))
        bad = tmp_path / "bad.lbad"
        save_adapters(bad, lset)
        out = tmp_path / "p.tsv"
        rc = run("probe", "--config", pipeline["cfg"], "--model", pipeline["base"],
                 "--data", pipeline["data"], "--adapters", bad, "--out", out)
        assert rc == 2
        assert cause in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["bad.lbad"]

    def test_adapter_of_another_rank_exits_two(self, pipeline, tmp_path, capsys):
        header, tensors = _decode_container(pipeline["full"], MAGIC_ADAPTERS)
        assert header["rank"] == 2
        tensors["layer01.q.a"] = np.zeros((8, 8), np.float32)
        tensors["layer01.q.b"] = np.zeros((8, 8), np.float32)
        bad = tmp_path / "bad.lbad"
        write_container(bad, MAGIC_ADAPTERS, header, tensors)
        rc = run("probe", "--config", pipeline["cfg"], "--model", pipeline["base"],
                 "--data", pipeline["data"], "--adapters", bad, "--out", tmp_path / "p.tsv")
        assert rc == 2
        assert ("bad.lbad: adapter at layer 1 'q' has rank 8, header rank is 2"
                in capsys.readouterr().err)
        assert sorted(os.listdir(tmp_path)) == ["bad.lbad"]

    def test_zero_eval_budget_exits_two(self, pipeline, tmp_path, capsys):
        err = self.eval_budget_error(pipeline, tmp_path, capsys, "--budget", 0)
        assert err == "error: --budget must be at least 1, got 0\n"

    def test_sweep_min_jump_ratio_is_an_unknown_key(self, pipeline, tmp_path, capsys):
        path = config_with(pipeline, tmp_path, "sweep", "min_jump_ratio", 0.25)
        rc = run("sweep", "--config", path, "--model", pipeline["base"],
                 "--data", pipeline["data"], "--adapters", pipeline["full"],
                 "--out", tmp_path / "s.json")
        assert rc == 2
        assert "unknown keys in section 'sweep'" in capsys.readouterr().err
        assert not (tmp_path / "s.json").exists()

    @pytest.mark.parametrize("section, key, value", [("sweep", "refine", False),
                                                     ("train", "loss_mask_prompt", True),
                                                     ("task", "hops", 2),
                                                     ("task", "bridge_ratio", 0.75),
                                                     ("task", "domain", "in-domain"),
                                                     ("lora", "alpha", 16.0),
                                                     ("pretrain", "grad_clip", 1.0),
                                                     ("train", "grad_clip", 1.0),
                                                     ("sweep", "keeps", None)])
    def test_removed_config_key_is_unknown(self, pipeline, tmp_path, capsys,
                                           section, key, value):
        path = config_with(pipeline, tmp_path, section, key, value)
        rc = run("sweep", "--config", path, "--model", pipeline["base"],
                 "--data", pipeline["data"], "--adapters", pipeline["full"],
                 "--out", tmp_path / "s.json")
        assert rc == 2
        assert f"unknown keys in section '{section}': ['{key}']" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["cfg.json"]

    @pytest.mark.parametrize("command, section", [("pretrain", "pretrain"),
                                                  ("finetune", "train")])
    def test_diverging_training_exits_two_and_writes_nothing(self, pipeline, tmp_path,
                                                             capsys, command, section):
        path = config_with(pipeline, tmp_path, section, "lr", 1e20)
        argv = [command, "--config", path, "--out", tmp_path / "out",
                "--log", tmp_path / "log.tsv"]
        if command == "finetune":
            argv += ["--model", pipeline["base"], "--data", pipeline["data"]]
        rc = run(*argv)
        assert rc == 2
        err = capsys.readouterr().err
        assert f"error: {command} epoch 1, step " in err
        assert "non-finite loss nan" in err
        assert os.listdir(tmp_path) == ["cfg.json"]

    def test_missing_decision_file_exits_two(self, pipeline, tmp_path):
        rc = run("export", "--model", pipeline["base"],
                 "--adapters", pipeline["full"],
                 "--keep-bottom", "from:" + str(tmp_path / "nope.json"),
                 "--out", tmp_path / "x.lbad")
        assert rc == 2


class TestInputsCheckedBeforeCompute:
    """Each input is read and checked by its one reader before any output is
    written: a bad one exits 2 with a named cause and leaves no file."""

    def probe(self, pipeline, out, **inputs):
        argv = {"config": pipeline["cfg"], "model": pipeline["base"],
                "data": pipeline["data"], "adapters": pipeline["full"], **inputs}
        return run("probe", *(a for k, v in argv.items() for a in (f"--{k}", v)),
                   "--out", out)

    @pytest.mark.parametrize("decision, cause", [
        ("{not json", "is not valid JSON"),
        ({"k_star": 1.7}, "malformed boundary decision: k_star 1.7 is not an integer"),
        ('{"k_star": 1, "per_k_scores": [1]}', "malformed boundary decision"),
    ], ids=["not_json", "fractional_k_star", "malformed"])
    def test_bad_decision_for_export(self, pipeline, tmp_path, capsys, decision, cause):
        if isinstance(decision, dict):     # an edit of the sweep's decision
            decision = json.dumps({**json.loads(pipeline["sweep"].read_text()), **decision})
        path = tmp_path / "decision.json"
        path.write_text(decision)
        rc = run("export", "--model", pipeline["base"], "--adapters", pipeline["full"],
                 "--keep-bottom", f"from:{path}", "--out", tmp_path / "x.lbad")
        assert rc == 2
        assert cause in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["decision.json"]

    @pytest.mark.parametrize("meta, drop, cause", [
        ({"n_tokens": 5}, [], "columns"),
        ({"n_tokens": 3}, [], "columns"),
        ({}, ["sample_count"], "probe metadata is missing ['sample_count']"),
        ({"config": {"seed": "x"}}, [], "config seed must be an integer"),
        ({"config": {"seed": 2.7}}, [], "config seed must be an integer"),
        ({"config": {"seed": 0, "adapters": [1]}}, [], "adapters a string or null"),
        ({"tail": b"\xff"}, [], "probe.tsv is not valid UTF-8"),
    ], ids=["n_tokens_5", "n_tokens_3", "no_sample_count", "seed_string", "seed_fraction",
            "adapters_list", "not_utf8"])
    def test_malformed_probe_report_for_knee(self, tmp_path, capsys, meta, drop, cause):
        path = write_probe_report(tmp_path / "probe.tsv", drop=drop, **meta)
        rc = run("knee", "--probe", path, "--fallback", "--out", tmp_path / "k.json")
        assert rc == 2
        assert cause in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["probe.tsv"]

    @pytest.mark.parametrize("change, cause", [
        (lambda blob: blob.replace(b"0.25", b"-3.0", 1), "outside [0, 1]"),
        (lambda blob: blob.replace(b"0.25", b"1.5", 1), "outside [0, 1]"),
        (lambda blob: blob.replace(b"0.25", b"nan", 1), "outside [0, 1]"),
        (lambda blob: blob.replace(b"0.25", b"0_25", 1), "non-numeric cell"),
        (lambda blob: blob.replace(b"0.25", b"Infinity", 1), "non-numeric cell"),
        (lambda blob: blob[:-1], "does not re-emit byte for byte"),
        (lambda blob: blob.replace(b":", b": ", 1), "does not re-emit byte for byte"),
        (lambda blob: blob.replace(b"\n", b"\r\n"), "columns"),
    ], ids=["negative", "above_one", "nan", "digit_underscore", "infinity",
            "no_final_newline", "spaced_meta", "crlf"])
    def test_probe_report_not_as_written(self, tmp_path, capsys, change, cause):
        # a report loads only as the exact bytes the writer gives a probe
        # report; the first 0.25 is the gt_1 cell of layer 1
        path = write_probe_report(tmp_path / "probe.tsv")
        path.write_bytes(change(path.read_bytes()))
        rc = run("knee", "--probe", path, "--fallback", "--out", tmp_path / "k.json")
        assert rc == 2
        assert cause in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["probe.tsv"]

    @pytest.mark.parametrize("name, line, cause", [
        ("dataset.json", None, "dataset.json is not valid JSON"),
        ("validation.jsonl", "[1]", "validation.jsonl:1 is not a JSON object"),
        ("validation.jsonl", '{"prompt": 5, "reference": "answer = a", "task": "kvqa"}',
         "validation.jsonl:1: sample field 'prompt' must be a string, got 5"),
        ("validation.jsonl", b"\xff", "validation.jsonl:1 is not valid UTF-8"),
        ("validation.jsonl", '{"prompt": " ", "reference": "answer = a", "task": "kvqa"}',
         "validation.jsonl:1: sample field 'prompt' holds no words"),
        ("validation.jsonl", '{"prompt": "question : a ?", "reference": "", "task": "kvqa"}',
         "validation.jsonl:1: sample field 'reference' holds no words"),
        ("validation.jsonl", '{"seed": ' + "1" * 5000 + "}",
         "validation.jsonl:1 is not valid JSON: Exceeds the limit"),
    ], ids=["dataset_json", "jsonl_line", "non_string_field", "not_utf8", "empty_prompt",
            "empty_reference", "long_integer"])
    def test_malformed_dataset(self, pipeline, tmp_path, capsys, name, line, cause):
        data = tmp_path / "data"
        data.mkdir()
        for f in pipeline["data"].iterdir():
            (data / f.name).write_bytes(f.read_bytes())
        if line is None:
            (data / name).write_text("{not json")
        else:
            line = line if isinstance(line, bytes) else line.encode()
            rest = (data / name).read_bytes().splitlines()[1:]
            (data / name).write_bytes(b"\n".join([line] + rest) + b"\n")
        rc = self.probe(pipeline, tmp_path / "p.tsv", data=data)
        assert rc == 2
        assert cause in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["data"]

    def test_dataset_of_an_unknown_task_exits_two(self, pipeline, tmp_path, capsys):
        # the task picks the sweep's metric, so no default may stand in for it
        for task in ("bogus", "resp-select"):
            data = tmp_path / task / "data"
            data.mkdir(parents=True)
            for f in pipeline["data"].iterdir():
                (data / f.name).write_bytes(f.read_bytes())
            meta = json.loads((data / "dataset.json").read_text())
            (data / "dataset.json").write_text(json.dumps(dict(meta, task=task)))
            rc = run("sweep", "--config", pipeline["cfg"], "--model", pipeline["base"],
                     "--data", data, "--adapters", pipeline["full"],
                     "--out", data.parent / "s.json")
            assert rc == 2
            assert f"{data / 'dataset.json'}: task must be one of" in capsys.readouterr().err
            assert os.listdir(data.parent) == ["data"]

    def test_adapter_outside_header_targets(self, pipeline, tmp_path, capsys):
        bad = tmp_path / "gate.lbad"
        header, tensors = _decode_container(pipeline["full"], MAGIC_ADAPTERS)
        renamed = {n.replace("layer01.q.", "layer01.gate."): t for n, t in tensors.items()}
        write_container(bad, MAGIC_ADAPTERS, header, renamed)
        rc = self.probe(pipeline, tmp_path / "p.tsv", adapters=bad)
        assert rc == 2
        assert "adapter at layer 1 'gate' is not among the header targets" \
            in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["gate.lbad"]

    def test_adapter_header_field_of_wrong_type(self, pipeline, tmp_path, capsys):
        bad = tmp_path / "rank.lbad"
        header, tensors = _decode_container(pipeline["full"], MAGIC_ADAPTERS)
        header["rank"] = "x"
        write_container(bad, MAGIC_ADAPTERS, header, tensors)
        rc = self.probe(pipeline, tmp_path / "p.tsv", adapters=bad)
        assert rc == 2
        assert "rank.lbad: header field 'rank' must be int, got 'x'" \
            in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["rank.lbad"]

    def test_nan_base_weight(self, pipeline, tmp_path, capsys):
        weights = load_weights(pipeline["base"]).clone()   # loaded tensors are read-only
        weights.tensors["layer02.wup"][0, 0] = np.nan
        bad = tmp_path / "nan.lbwt"
        save_weights(bad, weights)
        rc = self.probe(pipeline, tmp_path / "p.tsv", model=bad)
        assert rc == 2
        assert "tensor 'layer02.wup' holds non-finite values" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["nan.lbwt"]

    def test_non_finite_model_header_value(self, pipeline, tmp_path, capsys):
        header, tensors = _decode_container(pipeline["base"], MAGIC_WEIGHTS)
        header["config"]["n_layers"] = float("nan")
        bad = tmp_path / "nan.lbwt"
        write_container(bad, MAGIC_WEIGHTS, header, tensors)
        rc = self.probe(pipeline, tmp_path / "p.tsv", model=bad)
        assert rc == 2
        assert (f"error: {bad}: model.n_layers must be an integer, got nan"
                in capsys.readouterr().err)
        assert os.listdir(tmp_path) == ["nan.lbwt"]

    @pytest.mark.parametrize("key", ["tied_embeddings", "norm_eps"])
    def test_removed_model_key_in_header(self, pipeline, tmp_path, capsys, key):
        header, tensors = _decode_container(pipeline["base"], MAGIC_WEIGHTS)
        header["config"][key] = 1e-5
        bad = tmp_path / "old.lbwt"
        write_container(bad, MAGIC_WEIGHTS, header, tensors)
        rc = self.probe(pipeline, tmp_path / "p.tsv", model=bad)
        assert rc == 2
        assert (f"error: {bad}: unknown keys in section 'model': ['{key}']"
                in capsys.readouterr().err)
        assert os.listdir(tmp_path) == ["old.lbwt"]

    def test_model_file_without_a_tensor(self, pipeline, tmp_path, capsys):
        header, tensors = _decode_container(pipeline["base"], MAGIC_WEIGHTS)
        del tensors["head"]
        bad = tmp_path / "headless.lbwt"
        write_container(bad, MAGIC_WEIGHTS, header, tensors)
        rc = self.probe(pipeline, tmp_path / "p.tsv", model=bad)
        assert rc == 2
        assert (f"error: {bad}: 19 weight tensors, config implies 20"
                in capsys.readouterr().err)
        tensors["heads"] = np.zeros((8, 512), np.float32)
        write_container(bad, MAGIC_WEIGHTS, header, tensors)
        rc = self.probe(pipeline, tmp_path / "p.tsv", model=bad)
        assert rc == 2
        assert (f"error: {bad}: weight names do not match config: missing ['head'], "
                "extra ['heads']" in capsys.readouterr().err)
        assert os.listdir(tmp_path) == ["headless.lbwt"]

    def test_partial_finetune_of_no_layers(self, pipeline, tmp_path, capsys):
        rc = run("finetune-partial", "--config", pipeline["cfg"], "--model", pipeline["base"],
                 "--data", pipeline["data"], "--keep-bottom", 0,
                 "--out", tmp_path / "a.lbad", "--log", tmp_path / "log.tsv")
        assert rc == 2
        assert "the adapter set holds no adapters" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    def test_non_finite_config_value(self, pipeline, tmp_path, capsys):
        path = config_with(pipeline, tmp_path, "train", "lr", float("nan"))
        rc = run("finetune", "--config", path, "--model", pipeline["base"],
                 "--data", pipeline["data"], "--out", tmp_path / "a.lbad")
        assert rc == 2
        assert "train.lr must be a finite number, got nan" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["cfg.json"]

    @pytest.mark.parametrize("epochs", ["3", 2.5])
    def test_config_value_of_wrong_type(self, pipeline, tmp_path, capsys, epochs):
        path = config_with(pipeline, tmp_path, "train", "epochs", epochs)
        rc = run("finetune", "--config", path, "--model", pipeline["base"],
                 "--data", pipeline["data"], "--out", tmp_path / "a.lbad")
        assert rc == 2
        assert f"train.epochs must be an integer, got {epochs!r}" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["cfg.json"]
