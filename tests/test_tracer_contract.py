"""The benchmark tracer's view of the package still resolves.

bench/tracer.py wraps package functions by name and binds counter
arguments by name. A rename or deletion in the package would otherwise
surface only in a traced benchmark run. The tracer file is loaded, not
changed.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer_contract", TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


TRACER = load_tracer()


def resolve(name: str):
    mod_name, fn_name = name.rsplit(".", 1)
    return getattr(importlib.import_module(f"lorabound.{mod_name}"), fn_name, None)


@pytest.mark.parametrize("name", TRACER.TRACED)
def test_traced_name_is_a_package_function(name):
    assert callable(resolve(name)), f"lorabound.{name} is gone"


@pytest.mark.parametrize("name", sorted(TRACER.COUNTERS))
def test_counter_argument_is_in_the_signature(name):
    _, arg = TRACER.COUNTERS[name]
    assert name in TRACER.TRACED
    fn = resolve(name)
    assert callable(fn), f"lorabound.{name} is gone"
    if arg is not None:
        assert arg in inspect.signature(fn).parameters
