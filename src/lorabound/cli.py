"""Command-line pipeline: data generation through boundary export.

Exit codes: 0 on success, 1 for usage mistakes (bad flags, missing
arguments), 2 for domain failures (bad files, incompatible artifacts,
undetectable knees). Each kind of input has one reader that checks it,
and a command reads all of its inputs before it computes or writes
anything. Each artifact-producing command also writes a
timestamp-free manifest listing output hashes, and naming its input
files by hash rather than by path, so identical runs produce identical
trees wherever they run.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

from .boundary import (DEFAULT_MIN_JUMP_RATIO, BoundaryDecision, knee_from_report,
                       sweep_boundary)
from .errors import InputError, LoraBoundError
from .fileio import (file_sha256, load_adapters, load_weights, read_json,
                     save_adapters, save_weights, write_json, write_manifest)
from .lora import check_compat, drop_above, init_adapters, merge
from .metrics import corpus_score
from .model import check_keep_level, check_seed, decode_batch, init_base
from .probe import probe_ground_truth, probe_under_drop, select_samples
from .reports import (read_probe_tsv, write_diff_tsv, write_drop_probe_tsv,
                      write_eval_tsv, write_probe_tsv, write_sweep_tsv)
from .runconfig import RunConfig
from .tasks import (GENERATORS, SPLITS, TASK_METRICS, gen_pretrain_corpus,
                    load_dataset, save_dataset)
from .train import finetune_lora, pretrain
from .vocab import EOS_ID, decode

log = logging.getLogger("lorabound")


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on usage errors; we reserve 2 for
    domain failures, so usage problems exit 1 instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _load_config(path) -> RunConfig:
    if path is None:
        return RunConfig.default()
    return RunConfig.load(path)


def _load_split(data_dir: str, split: str):
    ds = load_dataset(data_dir)
    if split not in ds.splits:
        raise InputError(f"dataset has no split {split!r}")
    samples = ds.splits[split]
    if not samples:
        raise InputError(f"split {split!r} of {data_dir} is empty")
    return ds, samples


def _adapters(path, base):
    """The adapter set at path, checked against the model it will run on;
    None when no path is given. A kept set is written by export."""
    if not path:
        return None
    lset = load_adapters(path)
    check_compat(base, lset)
    return lset


def _keep_level(value: str, full_set) -> int:
    """export's --keep-bottom: a plain integer, or from:<decision.json> for
    the k_star of a decision made for full_set."""
    if value.startswith("from:"):
        decision = BoundaryDecision.from_dict(read_json(value[len("from:"):]))
        decision.check_set(full_set)
        return decision.k_star
    try:
        return int(value)
    except ValueError:
        raise InputError(
            f"--keep-bottom must be an integer or from:<path>, got {value!r}") from None


def _probe_samples(cfg, samples, split: str):
    """The probed subset of a split, drawn by the probe section, and the
    descriptor that records the draw in each report."""
    return (select_samples(samples, cfg.probe.sample_budget, cfg.probe.seed),
            {"split": split, "budget": cfg.probe.sample_budget, "seed": cfg.probe.seed})


def _base_diff(probed, n_layers: int, split: str):
    """The full set's ground-truth curve minus the base's, from one
    probe_under_drop result that covers levels 0 and n_layers, with the
    diff's meta."""
    full, none = (dict(probed)[k] for k in (n_layers, 0))
    meta = {"model": full.config["base"], "ours": full.config["adapters"],
            "split": split, "sample_count": full.sample_count, "n_tokens": full.n_tokens}
    return full.gt_curve - none.gt_curve, meta


def _predictions(weights, adapters, samples, decode_budget: int) -> list[str]:
    rows = [(s.prompt_ids, weights.cfg.n_layers) for s in samples]
    return [decode(out) for out in
            decode_batch(weights, adapters, rows, decode_budget, EOS_ID)]


# -- commands -------------------------------------------------------------------

def cmd_gen_data(args) -> int:
    task = _load_config(args.config).task
    ds = GENERATORS[task.name](task.seed, task.sizes())
    paths = save_dataset(ds, args.out)
    write_manifest(os.path.join(args.out, "manifest.json"), "gen-data",
                   {"task": task.name, "seed": task.seed, "sizes": task.sizes()}, paths)
    counts = {s: len(v) for s, v in ds.splits.items()}
    print(f"gen-data: task={task.name} seed={task.seed} "
          + " ".join(f"{k}={v}" for k, v in counts.items()))
    return 0


def cmd_pretrain(args) -> int:
    cfg = _load_config(args.config)
    corpus = gen_pretrain_corpus(cfg.pretrain.seed,
                                 n_tokens=cfg.pretrain.corpus_tokens,
                                 max_seq=cfg.model.max_seq)
    weights, history = pretrain(cfg.model, cfg.pretrain, corpus, log_path=args.log)
    save_weights(args.out, weights.freeze())
    outputs = [args.out] + ([args.log] if args.log else [])
    fingerprint = weights.fingerprint()
    write_manifest(args.out + ".manifest.json", "pretrain",
                   {"config": cfg.to_dict()["pretrain"], "model": cfg.model.to_dict(),
                    "fingerprint": fingerprint}, outputs)
    print(f"pretrain: {len(corpus)} sequences, final loss {history[-1][2]:.4f}, "
          f"fingerprint {fingerprint}")
    return 0


def cmd_finetune(args) -> int:
    """finetune trains adapters on every layer; finetune-partial cuts the
    fresh set to layers 1..--keep-bottom before training."""
    cfg = _load_config(args.config)
    base = load_weights(args.model)
    _, samples = _load_split(args.data, "train")
    adapters = init_adapters(base.cfg, cfg.lora.targets, cfg.lora.rank, seed=cfg.train.seed)
    params = {"model": base.fingerprint(),
              "data": file_sha256(os.path.join(args.data, "train.jsonl")),
              "train": cfg.to_dict()["train"], "lora": cfg.to_dict()["lora"]}
    if args.command == "finetune-partial":
        adapters = drop_above(adapters, args.keep_bottom)
        params["keep_bottom"] = args.keep_bottom
    adapters, history = finetune_lora(base, samples, cfg.train, adapters, log_path=args.log)
    save_adapters(args.out, adapters)
    outputs = [args.out] + ([args.log] if args.log else [])
    params["content_hash"] = set_hash = adapters.content_hash()
    write_manifest(args.out + ".manifest.json", args.command, params, outputs)
    print(f"{args.command}: {len(samples)} samples, final loss {history[-1][2]:.4f}, "
          f"adapters {set_hash}")
    return 0


def cmd_probe(args) -> int:
    cfg = _load_config(args.config)
    base = load_weights(args.model)
    _, samples = _load_split(args.data, args.split)
    adapters = _adapters(args.adapters, base)
    chosen, descriptor = _probe_samples(cfg, samples, args.split)
    report = probe_ground_truth(base, adapters, chosen, n_tokens=cfg.probe.n_tokens,
                                descriptor=descriptor)
    write_probe_tsv(args.out, report)
    write_manifest(args.out + ".manifest.json", "probe",
                   {"model": report.config["base"], "adapters": report.config["adapters"],
                    "split": args.split, "probe": cfg.to_dict()["probe"]}, [args.out])
    mean_curve = report.mean_gt_by_layer()
    print(f"probe: {report.sample_count} samples, "
          f"top-layer mean reference prob {mean_curve[-1]:.4f}")
    return 0


def cmd_diff_probe(args) -> int:
    cfg = _load_config(args.config)
    base = load_weights(args.model)
    _, samples = _load_split(args.data, args.split)
    full_set = _adapters(args.adapters, base)
    chosen, _ = _probe_samples(cfg, samples, args.split)
    n_layers = base.cfg.n_layers
    probed = probe_under_drop(base, full_set, chosen, keeps=[0, n_layers],
                              n_tokens=cfg.probe.n_tokens)
    diff, meta = _base_diff(probed, n_layers, args.split)
    write_diff_tsv(args.out, diff, meta)
    write_manifest(args.out + ".manifest.json", "diff-probe", meta, [args.out])
    print(f"diff-probe: max |delta| {abs(diff).max():.4f}")
    return 0


def cmd_knee(args) -> int:
    report = read_probe_tsv(args.probe)
    decision = knee_from_report(report, fallback=args.fallback)
    write_json(args.out, decision.to_dict())
    write_manifest(args.out + ".manifest.json", "knee",
                   {"probe": file_sha256(args.probe),
                    "min_jump_ratio": DEFAULT_MIN_JUMP_RATIO,
                    "fallback": args.fallback}, [args.out])
    tag = " (fallback)" if decision.extra.get("fallback") else ""
    print(f"knee: boundary k* = {decision.k_star}{tag}")
    return 0


def cmd_sweep(args) -> int:
    cfg = _load_config(args.config)
    base = load_weights(args.model)
    ds, samples = _load_split(args.data, args.split)
    full_set = _adapters(args.adapters, base)
    metric = TASK_METRICS[ds.task]
    chosen = select_samples(samples, cfg.sweep.budget, cfg.sweep.seed)
    decision = sweep_boundary(base, full_set, chosen, metric,
                              golds=[s.gold_text() for s in chosen],
                              decode_budget=cfg.sweep.decode_budget, seed=cfg.sweep.seed)
    write_json(args.out, decision.to_dict())
    outputs = [args.out]
    if args.tsv:
        write_sweep_tsv(args.tsv, decision)
        outputs.append(args.tsv)
    write_manifest(args.out + ".manifest.json", "sweep",
                   {"model": base.fingerprint(), "adapters": decision.set_hash,
                    "metric": metric, "split": args.split,
                    "sweep": cfg.to_dict()["sweep"]}, outputs)
    best = decision.per_k_scores[decision.k_star]
    print(f"sweep: k* = {decision.k_star} ({metric} {best:.4f} on "
          f"{decision.sample_count} samples)")
    return 0


def cmd_export(args) -> int:
    base = load_weights(args.model)
    full_set = _adapters(args.adapters, base)
    keep = _keep_level(args.keep_bottom, full_set)
    kept = drop_above(full_set, keep)
    if args.format == "adapters":
        save_adapters(args.out, kept)
    else:
        save_weights(args.out, merge(base, kept))
    write_manifest(args.out + ".manifest.json", "export",
                   {"model": base.fingerprint(), "adapters": full_set.content_hash(),
                    "keep_bottom": keep, "format": args.format,
                    "kept_params": kept.param_count(),
                    "full_params": full_set.param_count()}, [args.out])
    print(f"export: kept layers 1..{keep}, {kept.param_count()} of "
          f"{full_set.param_count()} adapter params, format {args.format}")
    return 0


def cmd_eval(args) -> int:
    for flag, value in (("--budget", args.budget), ("--decode-budget", args.decode_budget)):
        if value is not None and value < 1:
            raise InputError(f"{flag} must be at least 1, got {value}")
    cfg = _load_config(args.config)
    base = load_weights(args.model)
    ds, samples = _load_split(args.data, args.split)
    adapters = _adapters(args.adapters, base)
    metric = TASK_METRICS[ds.task]
    budget = len(samples) if args.budget is None else args.budget
    chosen = select_samples(samples, budget, cfg.sweep.seed)
    decode_budget = (cfg.sweep.decode_budget if args.decode_budget is None
                     else args.decode_budget)
    preds = _predictions(base, adapters, chosen, decode_budget)
    golds = [s.gold_text() for s in chosen]
    report = corpus_score(metric, preds, golds)
    meta = {"model": base.fingerprint(),
            "adapters": adapters.content_hash() if adapters else None,
            "task": ds.task, "split": args.split,
            "decode_budget": decode_budget}
    write_eval_tsv(args.out, report, preds, golds, meta)
    write_manifest(args.out + ".manifest.json", "eval", meta, [args.out])
    print(f"eval: {metric} = {report.display_score:.4f} on "
          f"{report.sample_count} samples")
    return 0


def cmd_report(args) -> int:
    cfg = _load_config(args.config)
    base = load_weights(args.model)
    _, samples = _load_split(args.data, args.split)
    full_set = _adapters(args.adapters, base)
    outputs = []

    chosen, descriptor = _probe_samples(cfg, samples, args.split)
    n_layers = base.cfg.n_layers
    levels = cfg.probe.keep_levels
    if levels is None:
        levels = range(n_layers + 1)
    levels = sorted({0, n_layers, *(check_keep_level(k, n_layers) for k in levels)})

    probed = probe_under_drop(base, full_set, chosen, keeps=levels,
                              n_tokens=cfg.probe.n_tokens, descriptor=descriptor)
    # the base and the set were hashed once for every report of the probe
    full_report = dict(probed)[n_layers]
    model_hash = full_report.config["base"]
    set_hash = full_report.config["adapters"]
    os.makedirs(args.out_dir, exist_ok=True)
    curves_path = os.path.join(args.out_dir, "layer_curves.tsv")
    write_drop_probe_tsv(curves_path, probed,
                         meta={"model": model_hash, "adapters": set_hash,
                               "split": args.split})
    outputs.append(curves_path)

    full_path = os.path.join(args.out_dir, "probe_full.tsv")
    write_probe_tsv(full_path, full_report)
    outputs.append(full_path)

    diff_path = os.path.join(args.out_dir, "probe_diff.tsv")
    write_diff_tsv(diff_path, *_base_diff(probed, n_layers, args.split))
    outputs.append(diff_path)

    write_manifest(os.path.join(args.out_dir, "manifest.json"), "report",
                   {"model": model_hash, "adapters": set_hash,
                    "split": args.split, "levels": [k for k, _ in probed]},
                   outputs)
    print(f"report: wrote {len(outputs)} files to {args.out_dir}")
    return 0


def cmd_init_model(args) -> int:
    cfg = _load_config(args.config)
    weights = init_base(cfg.model, seed=check_seed(args.seed, "--seed")).freeze()
    save_weights(args.out, weights)
    fingerprint = weights.fingerprint()
    write_manifest(args.out + ".manifest.json", "init-model",
                   {"model": cfg.model.to_dict(), "seed": args.seed,
                    "fingerprint": fingerprint}, [args.out])
    print(f"init-model: fingerprint {fingerprint}")
    return 0


# -- wiring ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lorabound",
                     description="Train, probe and truncate per-layer adapters.")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="log progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=fn)
        return p

    p = add("gen-data", cmd_gen_data, "generate a task dataset")
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)

    p = add("init-model", cmd_init_model, "write untrained seeded weights")
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = add("pretrain", cmd_pretrain, "pretrain base weights on the mixed corpus")
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--log", default=None)

    p = add("finetune", cmd_finetune, "train adapters on every layer")
    p.add_argument("--config", default=None)
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--log", default=None)

    p = add("finetune-partial", cmd_finetune,
            "train adapters on the bottom K layers only")
    p.add_argument("--config", default=None)
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--keep-bottom", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--log", default=None)

    p = add("probe", cmd_probe, "per-layer reference-probability curves")
    p.add_argument("--config", default=None)
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--adapters", default=None)
    p.add_argument("--split", default="validation", choices=SPLITS)
    p.add_argument("--out", required=True)

    p = add("diff-probe", cmd_diff_probe,
            "probe difference between the adapter set and the base")
    p.add_argument("--config", default=None)
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--adapters", required=True)
    p.add_argument("--split", default="validation", choices=SPLITS)
    p.add_argument("--out", required=True)

    p = add("knee", cmd_knee, "detect the boundary from a stored probe report")
    p.add_argument("--probe", required=True)
    p.add_argument("--fallback", action="store_true",
                   help="fall back to the default depth when no knee is found")
    p.add_argument("--out", required=True)

    p = add("sweep", cmd_sweep, "pick the boundary by scoring every keep level")
    p.add_argument("--config", default=None)
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--adapters", required=True)
    p.add_argument("--split", default="validation", choices=SPLITS)
    p.add_argument("--out", required=True)
    p.add_argument("--tsv", default=None)

    p = add("export", cmd_export, "drop adapters above the boundary and save")
    p.add_argument("--model", required=True)
    p.add_argument("--adapters", required=True)
    p.add_argument("--keep-bottom", required=True,
                   help="an integer or from:<decision.json>")
    p.add_argument("--format", default="merged", choices=("merged", "adapters"))
    p.add_argument("--out", required=True)

    p = add("eval", cmd_eval, "greedy-decode a split and score it")
    p.add_argument("--config", default=None)
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--adapters", default=None)
    p.add_argument("--split", default="test", choices=SPLITS)
    p.add_argument("--budget", type=int, default=None,
                   help="evaluate at most this many samples")
    p.add_argument("--decode-budget", type=int, help="default: sweep.decode_budget")
    p.add_argument("--out", required=True)

    p = add("report", cmd_report, "emit the probe, drop and diff report bundle")
    p.add_argument("--config", default=None)
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--adapters", required=True)
    p.add_argument("--split", default="validation", choices=SPLITS)
    p.add_argument("--out-dir", required=True)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s", stream=sys.stderr)
    try:
        return args.func(args)
    except LoraBoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:   # a bad path, or a training worker that died; exc names it
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
