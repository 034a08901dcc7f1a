"""The CLI calls and run configs of tests/conftest.py and of the benchmark
are ones the CLI takes.

No tier-1 test requests the `desk` and `multi` fixtures, so a flag that
the CLI drops, or a run-config key that the schema drops, would go
unnoticed there until a desk test ran them. This reads conftest.py with
`ast` and checks every `run_cli(...)` and `_timed(...)` call against
`build_parser()`, and loads the config of the desk chain and of every
`multi` cell, composed as the fixtures compose it, without running
anything. The benchmark's workloads (bench/workloads.py, loaded, not
changed) get the same check at smoke scale: each config loads and the
argv of every stage parses.
"""

import ast
import importlib.util
import json
from pathlib import Path

import pytest

from lorabound.cli import build_parser
from lorabound.errors import ConfigError
from lorabound.runconfig import RunConfig

from conftest import (DESK_SECTIONS, MULTI_SEEDS, MULTI_TASKS, compose_config,
                      multi_sections)

CONFTEST = Path(__file__).resolve().parent / "conftest.py"
WORKLOADS_PATH = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"

# where the argv starts among each helper's positional arguments
ARGV_START = {"run_cli": 0, "_timed": 2}


def subcommand_options() -> dict[str, set[str]]:
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    return {name: set(p._option_string_actions) for name, p in sub.choices.items()}


def cli_calls(source: str):
    """(line, argv) of each helper call; argv holds a string literal as its
    value and any other expression as None. A call that forwards a
    starred argv (`_timed` to `run_cli`) is checked at its callers."""
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ARGV_START
                and not any(isinstance(a, ast.Starred) for a in node.args)):
            argv = node.args[ARGV_START[node.func.id]:]
            yield node.lineno, [a.value if isinstance(a, ast.Constant)
                                and isinstance(a.value, str) else None for a in argv]


def unknown_names(source: str) -> list[str]:
    options = subcommand_options()
    bad = []
    for line, argv in cli_calls(source):
        command = argv[0] if argv else None
        if command not in options:
            bad.append(f"line {line}: subcommand {command!r}")
            continue
        bad += [f"line {line}: {command} {flag}" for flag in argv[1:]
                if flag is not None and flag.startswith("--")
                and flag not in options[command]]
    return bad


def test_fixture_cli_calls_name_existing_flags():
    source = CONFTEST.read_text()
    assert len(list(cli_calls(source))) >= 10
    assert unknown_names(source) == []


def test_a_stale_flag_is_caught():
    stale = 'run_cli("report", "--model", m, "--sweep-json", s, "--out-dir", d)\n'
    assert unknown_names(stale) == ["line 1: report --sweep-json"]
    assert unknown_names('_timed(d, "x", "frobnicate")\n') == \
        ["line 1: subcommand 'frobnicate'"]


def load_composed(**sections) -> RunConfig:
    """The config the fixtures would write, read back as the CLI reads it."""
    return RunConfig.from_dict(json.loads(json.dumps(compose_config(**sections))))


def test_fixture_configs_load():
    assert load_composed(**DESK_SECTIONS).task.train_size == 2000
    cells = {(task, seed): load_composed(**multi_sections(task, seed))
             for task in MULTI_TASKS for seed in MULTI_SEEDS}
    assert all((cfg.task.name, cfg.task.seed, cfg.sweep.seed) == (task, seed, seed)
               for (task, seed), cfg in cells.items())


def test_a_stale_config_key_is_caught():
    with pytest.raises(ConfigError, match=r"unknown keys in section 'train': \['grad_clip'\]"):
        load_composed(**dict(DESK_SECTIONS, train=dict(DESK_SECTIONS["train"], grad_clip=1.0)))


def load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads_contract",
                                                  WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = load_workloads().WORKLOADS


def unparsed_stages(stages) -> list[str]:
    """The stages whose argv the CLI rejects as a usage error."""
    bad = []
    for stage in stages:
        try:
            build_parser().parse_args(stage.argv)
        except SystemExit:
            bad.append(f"{stage.name}: {' '.join(stage.argv)}")
    return bad


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_bench_workload_calls_parse(name, tmp_path):
    workload = WORKLOADS[name]("smoke", seed=1)
    workload.config()   # loads it through RunConfig.from_dict
    stages = [workload.gen_data(tmp_path), *workload.stages(tmp_path)]
    assert len(stages) >= 3
    assert unparsed_stages(stages) == []


def test_a_stale_bench_flag_is_caught(tmp_path, capsys):
    stage = WORKLOADS["sweep-eval"]("smoke", seed=1).stages(tmp_path)[0]
    stage.argv += ["--metric", "em"]
    assert unparsed_stages([stage]) == [f"sweep: {' '.join(stage.argv)}"]
    assert "unrecognized arguments: --metric em" in capsys.readouterr().err
