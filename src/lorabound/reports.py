"""Tab-separated report files for probe curves, sweeps and evaluations.

Every report is one '#'-prefixed canonical-JSON metadata line, a column
header, and data rows. Floats are written with repr(), which round-trips
exactly, so parsing a report and emitting it again reproduces the file
byte for byte. That re-emission property is what makes stored reports
trustworthy as experiment artifacts.
"""

from __future__ import annotations

import json

import numpy as np

from .boundary import BoundaryDecision
from .errors import ParseError
from .fileio import atomic_write_text
from .metrics import EvalReport
from .probe import ProbeReport


def _cell(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, (bool, np.bool_)):
        return str(bool(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    raise TypeError(f"cannot write a {type(v).__name__} cell")


def emit_tsv(kind: str, meta: dict, columns: list[str], rows: list[list]) -> str:
    head = json.dumps({"kind": kind, "meta": meta}, sort_keys=True,
                      separators=(",", ":"))
    lines = ["# " + head, "\t".join(columns)]
    for row in rows:
        if len(row) != len(columns):
            raise ValueError(f"row has {len(row)} cells for {len(columns)} columns")
        lines.append("\t".join(_cell(c) for c in row))
    return "\n".join(lines) + "\n"


def _typed(cell: str):
    try:
        return int(cell)
    except ValueError:
        pass
    try:
        return float(cell)
    except ValueError:
        return cell


def parse_tsv(text: str, path: str = "<string>") -> tuple[str, dict, list[str], list[list]]:
    """Inverse of emit_tsv; numeric-looking cells come back as numbers."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines or not lines[0].startswith("# "):
        raise ParseError(f"{path}: first line must be '# ' metadata JSON")
    try:
        head = json.loads(lines[0][2:])
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: metadata line is not valid JSON: {exc}") from exc
    if not isinstance(head, dict) or "kind" not in head or "meta" not in head:
        raise ParseError(f"{path}: metadata must carry 'kind' and 'meta'")
    if len(lines) < 2:
        raise ParseError(f"{path}: missing column header line")
    columns = lines[1].split("\t")
    rows = []
    for i, line in enumerate(lines[2:], start=3):
        cells = line.split("\t")
        if len(cells) != len(columns):
            raise ParseError(
                f"{path}:{i} has {len(cells)} cells, header names {len(columns)}")
        rows.append([_typed(c) for c in cells])
    return head["kind"], head["meta"], columns, rows


def reemit(text: str, path: str = "<string>") -> str:
    """Parse and regenerate a report; equality with the input is the
    integrity check for stored artifacts."""
    kind, meta, columns, rows = parse_tsv(text, path)
    return emit_tsv(kind, meta, columns, rows)


# -- probe curves ----------------------------------------------------------------

_PROBE_META = ("n_layers", "n_tokens", "sample_count", "config")


def _probe_columns(n_tokens: int) -> list[str]:
    return (["layer"] + [f"gt_{i + 1}" for i in range(n_tokens)]
            + [f"max_{i + 1}" for i in range(n_tokens)])


def emit_probe(report: ProbeReport) -> str:
    n = report.n_tokens
    columns = _probe_columns(n)
    rows = []
    for l in range(report.n_layers):
        rows.append([l + 1] + [float(v) for v in report.gt_curve[l]]
                    + [float(v) for v in report.max_curve[l]])
    meta = {"n_layers": report.n_layers, "n_tokens": n,
            "sample_count": report.sample_count, "config": report.config}
    return emit_tsv("probe", meta, columns, rows)


def write_probe_tsv(path, report: ProbeReport) -> None:
    atomic_write_text(path, emit_probe(report))


def read_probe_tsv(path) -> ProbeReport:
    """The one reader of a stored probe report. The file must be one that
    emit_probe could have written: every meta key present, an integer
    config seed and a string or null config adapters (when given), the
    columns exactly layer, gt_1..n, max_1..n, and one numeric row per
    layer 1..L."""
    with open(path, encoding="utf-8") as f:
        text = f.read()
    kind, meta, columns, rows = parse_tsv(text, str(path))
    if kind != "probe":
        raise ParseError(f"{path}: expected a probe report, found {kind!r}")
    missing = [k for k in _PROBE_META if not isinstance(meta, dict) or k not in meta]
    if missing:
        raise ParseError(f"{path}: probe metadata is missing {missing}")
    l, n, count, config = (meta[k] for k in _PROBE_META)
    if not (all(type(v) is int for v in (l, n, count)) and l >= 1 and n >= 1
            and count >= 0 and isinstance(config, dict)):
        raise ParseError(
            f"{path}: n_layers and n_tokens must be positive integers, sample_count "
            f"a non-negative integer and config an object; got {meta}")
    seed, adapters = config.get("seed", 0), config.get("adapters")
    if type(seed) is not int or not (adapters is None or isinstance(adapters, str)):
        raise ParseError(f"{path}: config seed must be an integer and adapters a string "
                         f"or null; got {config}")
    if columns != _probe_columns(n):
        raise ParseError(
            f"{path}: columns {columns} are not layer, gt_1..{n}, max_1..{n}")
    if [r[0] for r in rows] != list(range(1, l + 1)):
        raise ParseError(f"{path}: rows must be layers 1..{l} in order")
    cells = [r[1:] for r in rows]
    if any(isinstance(c, str) for row in cells for c in row):
        raise ParseError(f"{path}: probe curves hold a non-numeric cell")
    return ProbeReport(n_layers=l, n_tokens=n, sample_count=count,
                       gt_curve=np.array([c[:n] for c in cells], dtype=np.float64),
                       max_curve=np.array([c[n:] for c in cells], dtype=np.float64),
                       config=dict(config))


# -- drop curves (probe under several keep levels) --------------------------------

def emit_drop_probe(levels: list[tuple[int, ProbeReport]], meta: dict | None = None) -> str:
    if not levels:
        raise ValueError("no drop levels to report")
    n_layers = levels[0][1].n_layers
    columns = ["layer"] + [f"keep{k:02d}" for k, _ in levels]
    curves = [r.mean_gt_by_layer() for _, r in levels]
    rows = [[l + 1] + [float(c[l]) for c in curves] for l in range(n_layers)]
    full_meta = {"keeps": [int(k) for k, _ in levels],
                 "sample_count": levels[0][1].sample_count,
                 "n_tokens": levels[0][1].n_tokens}
    if meta:
        full_meta.update(meta)
    return emit_tsv("drop-probe", full_meta, columns, rows)


def write_drop_probe_tsv(path, levels, meta: dict | None = None) -> None:
    atomic_write_text(path, emit_drop_probe(levels, meta))


# -- sweep scores ------------------------------------------------------------------

def emit_sweep(decision: BoundaryDecision) -> str:
    meta = decision.to_dict()
    per_k = meta.pop("per_k_scores")
    rows = [[int(k), float(per_k[k])] for k in sorted(per_k, key=int)]
    return emit_tsv("sweep", meta, ["keep", "score"], rows)


def write_sweep_tsv(path, decision: BoundaryDecision) -> None:
    atomic_write_text(path, emit_sweep(decision))


# -- probe differences ---------------------------------------------------------------

def emit_diff(diff: np.ndarray, meta: dict) -> str:
    diff = np.asarray(diff, dtype=np.float64)
    if diff.ndim != 2:
        raise ValueError(f"difference matrix must be 2-d, got {diff.shape}")
    n = diff.shape[1]
    columns = ["layer"] + [f"delta_{i + 1}" for i in range(n)]
    rows = [[l + 1] + [float(v) for v in diff[l]] for l in range(diff.shape[0])]
    return emit_tsv("diff-probe", meta, columns, rows)


def write_diff_tsv(path, diff, meta: dict) -> None:
    atomic_write_text(path, emit_diff(diff, meta))


# -- evaluation ------------------------------------------------------------------------

def emit_eval(report: EvalReport, preds: list[str] | None = None,
              golds: list[str] | None = None, meta: dict | None = None) -> str:
    full_meta = {"metric": report.metric, "score": report.score,
                 "display_score": report.display_score,
                 "sample_count": report.sample_count}
    if meta:
        full_meta.update(meta)
    columns = ["index", "score", "prediction", "gold"]
    rows = []
    for i, s in enumerate(report.per_sample):
        p = preds[i] if preds is not None else ""
        g = golds[i] if golds is not None else ""
        rows.append([i, float(s), p, g])
    return emit_tsv("eval", full_meta, columns, rows)


def write_eval_tsv(path, report: EvalReport, preds=None, golds=None,
                   meta: dict | None = None) -> None:
    atomic_write_text(path, emit_eval(report, preds, golds, meta))
