"""The benchmark's three workloads: their inputs, stage chains and checks.

Every workload uses the desk model config (12 layers, d=64, V=512,
max_seq 128) and the kvqa task. A workload writes its inputs into one
repetition directory (`setup`), then runs its timed CLI stages there in
order (`stages`). `work` says how many units of work each main stage
did, and `checks` verifies the outputs. Nothing here times anything;
run.py does.

Inputs depend only on the seed. The sweep-eval and probe-report
workloads do not train: their base weights and nonzero full-depth
adapters are drawn from the seed and written with the package's own
writers, so a training change cannot move them. The head columns of the
special tokens are zeroed, so an untrained model never emits EOS (or any
token the decoder would drop from the text): every row decodes to the
full decode budget, the upper bound of desk decode work.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from lorabound.fileio import save_adapters, save_weights, write_manifest
from lorabound.lora import init_adapters
from lorabound.model import ModelConfig, init_base
from lorabound.reports import parse_tsv, read_probe_tsv, reemit
from lorabound.runconfig import RunConfig
from lorabound.tasks import gen_pretrain_corpus, load_dataset
from lorabound.vocab import SPECIALS

MODEL = ModelConfig()                 # the desk config
LEVELS = list(range(MODEL.n_layers + 1))
ADAPTER_B_STD = 0.2                   # B is zero after init; this makes adapters matter

# sizes per scale; "smoke" runs every workload end to end in seconds
SCALES = {
    "desk": {"pretrain_tokens": 12_000, "finetune_samples": 180,
             "sweep_samples": 5, "decode_budget": 16, "probe_samples": 80},
    "smoke": {"pretrain_tokens": 1_500, "finetune_samples": 24,
              "sweep_samples": 2, "decode_budget": 16, "probe_samples": 12},
}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Stage:
    """One CLI invocation and the manifest it writes."""

    def __init__(self, name: str, argv: list, manifest: Path):
        self.name = name
        self.argv = [str(a) for a in argv]
        self.manifest = manifest


class Workload:
    name = ""
    first = ""     # the two stages the workload is named after
    second = ""
    sizes: dict[str, str] = {}   # split -> scale key of its size
    seeded_model = False         # True: base and adapters come from the seed

    def __init__(self, scale: str, seed: int):
        self.scale = SCALES[scale]
        self.seed = seed

    # -- inputs ---------------------------------------------------------------

    def sections(self) -> dict:
        """Run-config overrides beyond the task section."""
        return {}

    def config(self) -> dict:
        cfg = RunConfig.default().to_dict()
        cfg["task"].update(name="kvqa", seed=self.seed, train_size=0,
                           validation_size=0, test_size=0)
        for split, key in self.sizes.items():
            cfg["task"][f"{split}_size"] = self.scale[key]
        for section, values in self.sections().items():
            cfg[section].update(values)
        RunConfig.from_dict(cfg)   # the CLI would reject anything invalid
        return cfg

    def gen_data(self, d: Path) -> Stage:
        return Stage("gen-data", ["gen-data", "--config", d / "cfg.json",
                                  "--out", d / "data"], d / "data" / "manifest.json")

    def write_config(self, d: Path) -> None:
        (d / "cfg.json").write_text(json.dumps(self.config(), indent=1) + "\n")

    def write_model(self, d: Path) -> None:
        """Seeded base weights and nonzero full-depth q,v adapters (rank 8)."""
        base = init_base(MODEL, seed=self.seed)
        base.tensors["head"][:, :len(SPECIALS)] = 0.0
        lset = init_adapters(MODEL, targets=("q", "v"), rank=8, seed=self.seed)
        rng = np.random.default_rng([self.seed, 1])
        for key in lset.keys_sorted():
            ad = lset.adapters[key]
            ad.b = rng.normal(0.0, ADAPTER_B_STD, size=ad.b.shape).astype(np.float32)
        lset.fingerprint = base.fingerprint()
        save_weights(d / "base.lbwt", base)
        save_adapters(d / "full.lbad", lset)
        write_manifest(d / "inputs.manifest.json", "bench-inputs",
                       {"seed": self.seed}, [d / "base.lbwt", d / "full.lbad"])

    # -- per workload ---------------------------------------------------------

    def stages(self, d: Path) -> list[Stage]:
        raise NotImplementedError

    def work(self, d: Path) -> dict[str, int]:
        """Units of work done by each main stage (tokens, or probes)."""
        raise NotImplementedError

    def checks(self, d: Path) -> list[tuple[str, bool, str]]:
        raise NotImplementedError


class PretrainFinetune(Workload):
    name = "pretrain-finetune"
    first, second = "pretrain", "finetune"
    sizes = {"train": "finetune_samples"}

    def sections(self):
        return {"pretrain": {"corpus_tokens": self.scale["pretrain_tokens"],
                             "epochs": 1, "lr": 3e-3, "batch": 8, "seed": self.seed},
                "train": {"lr": 1e-3, "epochs": 1, "batch": 16, "seed": self.seed},
                "lora": {"targets": ["q", "v"], "rank": 8}}

    def stages(self, d):
        return [
            Stage("pretrain", ["pretrain", "--config", d / "cfg.json",
                               "--out", d / "trained.lbwt", "--log", d / "pretrain.log.tsv"],
                  d / "trained.lbwt.manifest.json"),
            Stage("finetune", ["finetune", "--config", d / "cfg.json",
                               "--model", d / "trained.lbwt", "--data", d / "data",
                               "--out", d / "full.lbad", "--log", d / "finetune.log.tsv"],
                  d / "full.lbad.manifest.json"),
        ]

    def work(self, d):
        # positions trained on: every sequence contributes len - 1 targets
        corpus = gen_pretrain_corpus(self.seed, n_tokens=self.scale["pretrain_tokens"],
                                     max_seq=MODEL.max_seq)
        samples = load_dataset(d / "data").splits["train"]
        return {"pretrain": sum(len(s) - 1 for s in corpus),
                "finetune": sum(len(s.prompt_ids) + len(s.reference_ids) - 1
                                for s in samples)}

    def checks(self, d):
        logs = {stage: _train_losses(d / f"{stage}.log.tsv")
                for stage in ("pretrain", "finetune")}
        out = [(f"{stage} losses finite", bool(losses) and all(map(math.isfinite, losses)),
                f"{len(losses)} steps") for stage, losses in logs.items()]
        first, last = logs["pretrain"][0], logs["pretrain"][-1]
        out.append(("pretrain loss decreased", last < first, f"first {first} last {last}"))
        return out


class SweepEval(Workload):
    name = "sweep-eval"
    first, second = "sweep", "eval"
    sizes = {"validation": "sweep_samples"}
    seeded_model = True

    def sections(self):
        return {"sweep": {"budget": self.scale["sweep_samples"],
                          "decode_budget": self.scale["decode_budget"], "seed": self.seed}}

    def stages(self, d):
        common = ["--config", d / "cfg.json", "--model", d / "base.lbwt",
                  "--data", d / "data", "--split", "validation"]
        return [
            Stage("sweep", ["sweep", *common, "--adapters", d / "full.lbad",
                            "--out", d / "sweep.json", "--tsv", d / "sweep.tsv"],
                  d / "sweep.json.manifest.json"),
            Stage("export", ["export", "--model", d / "base.lbwt", "--adapters", d / "full.lbad",
                             "--keep-bottom", f"from:{d / 'sweep.json'}",
                             "--format", "adapters", "--out", d / "kept.lbad"],
                  d / "kept.lbad.manifest.json"),
            Stage("eval", ["eval", *common, "--adapters", d / "kept.lbad",
                           "--budget", self.scale["sweep_samples"],
                           "--decode-budget", self.scale["decode_budget"],
                           "--out", d / "eval.tsv"],
                  d / "eval.tsv.manifest.json"),
        ]

    def work(self, d):
        # generated tokens; the checks confirm every row decodes the full budget
        decision = json.loads((d / "sweep.json").read_text())
        _, meta, _, _ = parse_tsv((d / "eval.tsv").read_text())
        budget = self.scale["decode_budget"]
        return {"sweep": decision["sample_count"] * len(decision["per_k_scores"]) * budget,
                "eval": meta["sample_count"] * budget}

    def checks(self, d):
        decision = json.loads((d / "sweep.json").read_text())
        scores = {int(k): v for k, v in decision["per_k_scores"].items()}
        k_star = decision["k_star"]
        best = max(scores.values())
        smallest = min(k for k, v in scores.items() if v == best)
        _, meta, _, rows = parse_tsv((d / "eval.tsv").read_text())
        exported = json.loads((d / "kept.lbad.manifest.json").read_text())["params"]
        budget = self.scale["decode_budget"]
        lengths = [len(str(r[2]).split()) for r in rows]
        return [
            ("sweep covers every level", sorted(scores) == LEVELS, str(sorted(scores))),
            ("k_star is the smallest best level", k_star == smallest,
             f"k_star {k_star}, smallest best {smallest}"),
            ("export keeps k_star", exported["keep_bottom"] == k_star,
             f"kept {exported['keep_bottom']}"),
            ("eval score equals the sweep score at k_star",
             meta["sample_count"] == decision["sample_count"]
             and meta["score"] == scores.get(k_star),
             f"eval {meta['score']!r} on {meta['sample_count']}, sweep {scores.get(k_star)!r}"),
            ("every eval row decodes the full budget", lengths == [budget] * len(rows),
             f"lengths {sorted(set(lengths))}"),
        ]


class ProbeReport(Workload):
    name = "probe-report"
    first, second = "probe", "report"
    sizes = {"validation": "probe_samples"}
    seeded_model = True

    def sections(self):
        return {"probe": {"n_tokens": 4, "sample_budget": self.scale["probe_samples"],
                          "seed": self.seed, "keep_levels": LEVELS}}

    def stages(self, d):
        common = ["--config", d / "cfg.json", "--model", d / "base.lbwt",
                  "--data", d / "data", "--split", "validation",
                  "--adapters", d / "full.lbad"]
        return [
            Stage("probe", ["probe", *common, "--out", d / "probe.tsv"],
                  d / "probe.tsv.manifest.json"),
            Stage("report", ["report", *common, "--out-dir", d / "report"],
                  d / "report" / "manifest.json"),
            Stage("knee", ["knee", "--probe", d / "probe.tsv", "--fallback",
                           "--out", d / "knee.json"], d / "knee.json.manifest.json"),
            Stage("diff-probe", ["diff-probe", *common, "--out", d / "diff.tsv"],
                  d / "diff.tsv.manifest.json"),
        ]

    def work(self, d):
        # probes of one sample at one keep level
        samples = read_probe_tsv(d / "probe.tsv").sample_count
        levels = json.loads((d / "report" / "manifest.json").read_text())["params"]["levels"]
        return {"probe": samples, "report": samples * len(levels)}

    def checks(self, d):
        probed = read_probe_tsv(d / "probe.tsv")
        full = read_probe_tsv(d / "report" / "probe_full.tsv")
        levels = json.loads((d / "report" / "manifest.json").read_text())["params"]["levels"]
        knee = json.loads((d / "knee.json").read_text())["k_star"]
        return [
            ("report covers every level", levels == LEVELS, str(levels)),
            ("report full-depth curve equals probe",
             np.array_equal(full.gt_curve, probed.gt_curve)
             and np.array_equal(full.max_curve, probed.max_curve)
             and full.sample_count == probed.sample_count,
             f"{full.sample_count} vs {probed.sample_count} samples"),
            ("knee in range", 0 <= knee <= MODEL.n_layers, f"k_star {knee}"),
        ]


WORKLOADS = {w.name: w for w in (PretrainFinetune, SweepEval, ProbeReport)}


# -- checks shared by every workload ---------------------------------------------

def manifest_outputs(manifest: Path) -> dict[Path, str]:
    doc = json.loads(manifest.read_text())
    return {manifest.parent / rel: sha for rel, sha in doc["outputs"].items()}


def check_manifest(manifest: Path) -> tuple[bool, str]:
    """Every sha256 a manifest lists matches the file it names."""
    bad = [p.name for p, sha in manifest_outputs(manifest).items()
           if not p.is_file() or sha256(p) != sha]
    return not bad, f"mismatched {bad}" if bad else "ok"


def reemits(path: Path) -> bool:
    """A report parsed and emitted again reproduces its file byte for byte."""
    text = path.read_text()
    return reemit(text, str(path)) == text


def _train_losses(path: Path) -> list[float]:
    _, *rows = path.read_text().splitlines()
    return [float(r.split("\t")[2]) for r in rows]
