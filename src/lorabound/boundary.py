"""Finding the layer above which adapters stop paying for themselves.

Two routes produce a BoundaryDecision: detect_knee reads the largest
jump off a per-layer probability curve, and sweep_boundary measures a
task metric under every candidate keep level and takes the smallest
level that attains the best validation score. apply_boundary then drops
every adapter above the chosen level. The sweep scores every sample it
is given against the golds given with them; the caller picks the
validation subset.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import metrics as metrics_mod
from .errors import CompatibilityError, InputError, NoKneeError
from .lora import LoraSet, check_compat, drop_above
from .model import BaseWeights, check_keep_level, decode_batch
from .probe import ProbeReport
from .tasks import sample_ids
from .vocab import EOS_ID, decode

DEFAULT_MIN_JUMP_RATIO = 0.25
DEFAULT_DECODE_BUDGET = 24

# keep-depth used when no signal is available, as a fraction of the stack
FALLBACK_KEEP_FRACTION = 15 / 32


def default_boundary(n_layers: int) -> int:
    """Depth to fall back to when neither knee nor sweep is available."""
    if n_layers < 1:
        raise InputError(f"n_layers must be positive, got {n_layers}")
    return round(n_layers * FALLBACK_KEEP_FRACTION)


@dataclass
class BoundaryDecision:
    k_star: int
    per_k_scores: dict[int, float]
    metric: str
    sample_count: int
    method: str                    # "knee" or "sweep"
    seed: int
    set_hash: str | None = None    # adapter set this decision belongs to
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "k_star": self.k_star,
            "per_k_scores": {str(k): float(v) for k, v in sorted(self.per_k_scores.items())},
            "metric": self.metric,
            "sample_count": self.sample_count,
            "method": self.method,
            "seed": self.seed,
            "set_hash": self.set_hash,
            "extra": self.extra,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "BoundaryDecision":
        try:
            for key in ("k_star", "sample_count", "seed"):   # int() would cut 1.5 to 1
                if type(data[key]) is not int:
                    raise ValueError(f"{key} {data[key]!r} is not an integer")
            return cls(
                k_star=data["k_star"],
                per_k_scores={int(k): float(v)
                              for k, v in data["per_k_scores"].items()},
                metric=str(data["metric"]),
                sample_count=data["sample_count"],
                method=str(data["method"]),
                seed=data["seed"],
                set_hash=data.get("set_hash"),
                extra=dict(data.get("extra", {})),
            )
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise InputError(f"malformed boundary decision: {exc}") from exc

    def check_set(self, full_set: LoraSet) -> None:
        """A decision applies only to the adapter set it was made for."""
        if self.set_hash and self.set_hash != full_set.content_hash():
            raise CompatibilityError(
                f"decision was made for adapter set {self.set_hash}, "
                f"got {full_set.content_hash()}")


def detect_knee(curve, min_jump_ratio: float = DEFAULT_MIN_JUMP_RATIO) -> int:
    """Layer index (1-based) whose successor shows the largest curve jump.

    curve[i] is the value at layer i+1. The winning jump must be at least
    min_jump_ratio of the curve's total range; otherwise, or when the
    curve is flat, there is no knee and the caller must fall back.
    Ties break toward the smallest layer.
    """
    c = np.asarray(curve, dtype=np.float64)
    if c.ndim != 1 or c.size < 2:
        raise InputError(f"curve must be a flat series of at least 2 layers, got {c.shape}")
    if not np.all(np.isfinite(c)):
        raise InputError("curve contains non-finite values")
    span = float(c.max() - c.min())
    if span <= 1e-12:
        raise NoKneeError("curve is flat; no knee to detect")
    jumps = c[1:] - c[:-1]
    idx = int(np.argmax(jumps))          # first occurrence wins ties
    if jumps[idx] < min_jump_ratio * span:
        raise NoKneeError(
            f"largest jump {jumps[idx]:.6g} is below {min_jump_ratio} of the "
            f"curve range {span:.6g}")
    return idx + 1


def knee_from_report(report: ProbeReport,
                     min_jump_ratio: float = DEFAULT_MIN_JUMP_RATIO,
                     fallback: bool = False) -> BoundaryDecision:
    """Run knee detection on the row-mean ground-truth curve of a probe report.

    With fallback=True a missing knee resolves to the default depth
    instead of raising.
    """
    curve = report.mean_gt_by_layer()
    used_fallback = False
    try:
        k = detect_knee(curve, min_jump_ratio)
    except NoKneeError:
        if not fallback:
            raise
        k = default_boundary(report.n_layers)
        used_fallback = True
    return BoundaryDecision(
        k_star=k,
        per_k_scores={i + 1: float(v) for i, v in enumerate(curve)},
        metric="mean-reference-prob",
        sample_count=report.sample_count,
        method="knee",
        seed=int(report.config.get("seed", 0)),
        set_hash=report.config.get("adapters"),
        extra={"min_jump_ratio": min_jump_ratio, "fallback": used_fallback},
    )


def coarse_then_fine_levels(n_layers: int, stride: int = 2) -> list[int]:
    """Coarse sweep grid: every `stride` levels plus the endpoints 0 and L."""
    if stride < 1:
        raise InputError(f"stride must be at least 1, got {stride}")
    return sorted(set(range(0, n_layers + 1, stride)) | {0, n_layers})


def sweep_boundary(base: BaseWeights, full_set: LoraSet, samples, metric, *,
                   golds: list[str], keeps=None,
                   decode_budget: int = DEFAULT_DECODE_BUDGET, seed: int = 0,
                   stop_token: int = EOS_ID, refine: bool = False) -> BoundaryDecision:
    """Score every candidate keep level on held-out samples and pick the best.

    metric is a name from the metrics registry or a callable
    (preds, golds) -> float; golds[i] is the gold text of samples[i].
    seed is recorded in the decision as the provenance of the caller's
    sample draw; it selects nothing here. The winner is the smallest
    level attaining the maximum score. With refine=True a second pass
    checks the immediate neighbors of the first-pass winner (useful with
    a strided `keeps` grid). Each pass decodes all of its (level, sample)
    rows in one `decode_batch` call.
    """
    check_compat(base, full_set)
    n_layers = base.cfg.n_layers
    if keeps is None:
        keeps = range(n_layers + 1)
    keeps = sorted(set(check_keep_level(k, n_layers) for k in keeps))
    if not keeps:
        raise InputError("no keep levels to sweep")

    prompts = [prompt for prompt, _ in sample_ids(samples)]
    if not prompts:
        raise InputError("no samples to sweep over")
    if len(golds) != len(prompts):
        raise InputError(f"got {len(golds)} golds for {len(prompts)} samples")

    if callable(metric):
        metric_name = getattr(metric, "__name__", "custom")
        score_fn = metric
    else:
        metric_name = str(metric)
        score_fn = lambda preds, gs: metrics_mod.corpus_score(metric_name, preds, gs).score

    def score_levels(levels: list[int]) -> dict[int, float]:
        rows = [(prompt, k) for k in levels for prompt in prompts]
        outs = decode_batch(base, full_set, rows, decode_budget, stop_token)
        n = len(prompts)
        return {k: float(score_fn([decode(o) for o in outs[i * n:(i + 1) * n]], golds))
                for i, k in enumerate(levels)}

    per_k = score_levels(keeps)

    def pick(scores: dict[int, float]) -> int:
        best = max(scores.values())
        return min(k for k, v in scores.items() if v == best)

    k_star = pick(per_k)
    if refine:
        per_k.update(score_levels([k for k in (k_star - 1, k_star + 1)
                                   if 0 <= k <= n_layers and k not in per_k]))
        k_star = pick(per_k)

    return BoundaryDecision(
        k_star=k_star, per_k_scores=per_k, metric=metric_name,
        sample_count=len(prompts), method="sweep", seed=seed,
        set_hash=full_set.content_hash(),
        extra={"decode_budget": decode_budget, "refine": refine},
    )


def apply_boundary(full_set: LoraSet, decision: BoundaryDecision) -> LoraSet:
    """Drop every adapter above the decided level; checks the set matches."""
    decision.check_set(full_set)
    return drop_above(full_set, decision.k_star)

