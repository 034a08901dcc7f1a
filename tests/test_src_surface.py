"""Every module-level name in the package is one the pipeline reaches.

A function, class or constant of src/lorabound counts as used when code
in the package or in the benchmark (bench/*.py, its tests excepted)
loads it, reads it as an attribute or imports it. The package's
re-exports in __init__.py are no use, and neither is a use inside the
body of a definition that is itself unused: uses spread from the
pipeline's entry points until nothing changes, so a helper that only a
dead registry lists counts as dead too. What only the test suite calls
belongs in the tests (reference implementations go in oracles.py).
"""

import ast
from pathlib import Path

from test_tracer_contract import TRACER

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "lorabound"
BENCH = ROOT / "bench"

# names outside callers reach: the package version and what the tracer wraps
ALLOWED = {"__version__"} | {name.rsplit(".", 1)[1] for name in TRACER.TRACED}


def referenced(node) -> set[str]:
    """Names node loads, reads as attributes or imports."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            out.update(alias.name for alias in sub.names)
    return out


def defined(stmt) -> list[str]:
    """Module-level names stmt defines: a function, a class or constants."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    else:
        return []
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def unused_names() -> list[str]:
    definitions: dict[str, tuple[str, set[str]]] = {}   # name -> (module, body uses)
    live = set(ALLOWED)
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            names = defined(stmt)
            if path.name == "__init__.py":
                definitions.update((n, (path.stem, set())) for n in names)
            elif names:
                definitions.update((n, (path.stem, referenced(stmt))) for n in names)
            else:   # imports and entry-point code run whenever the module does
                live |= referenced(stmt)
    for path in sorted(BENCH.glob("*.py")):
        if not path.name.startswith("test_"):
            live |= referenced(ast.parse(path.read_text()))
    grown = True
    while grown:
        reached = set().union(*(uses for name, (_, uses) in definitions.items()
                                if name in live))
        grown = not reached <= live
        live |= reached
    return sorted(f"{module}.{name}" for name, (module, _) in definitions.items()
                  if name not in live)


def test_every_package_name_is_used_by_the_pipeline():
    assert unused_names() == []
