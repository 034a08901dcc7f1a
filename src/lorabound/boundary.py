"""Finding the layer above which adapters stop paying for themselves.

Two routes produce a BoundaryDecision: detect_knee reads the largest
jump off a per-layer probability curve, and sweep_boundary measures a
registry metric under every candidate keep level and takes the smallest
level 0..L that attains the best validation score. The sweep scores every
sample it is given against the golds given with them; the caller picks
the validation subset. A decision is applied by checking it against its
set (BoundaryDecision.check_set) and then cutting the set with
lora.drop_above(set, decision.k_star).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CompatibilityError, InputError, NoKneeError
from .lora import LoraSet, check_compat
from .metrics import corpus_score
from .model import BaseWeights, decode_batch
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


def detect_knee(curve) -> int:
    """Layer index (1-based) whose successor shows the largest curve jump.

    curve[i] is the value at layer i+1. The winning jump must be at least
    DEFAULT_MIN_JUMP_RATIO of the curve's total range; otherwise, or when
    the curve is flat, there is no knee and the caller must fall back.
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
    if jumps[idx] < DEFAULT_MIN_JUMP_RATIO * span:
        raise NoKneeError(
            f"largest jump {jumps[idx]:.6g} is below {DEFAULT_MIN_JUMP_RATIO} of the "
            f"curve range {span:.6g}")
    return idx + 1


def knee_from_report(report: ProbeReport, fallback: bool = False) -> BoundaryDecision:
    """Run knee detection on the row-mean ground-truth curve of a probe report.

    With fallback=True a missing knee resolves to the default depth
    instead of raising. The decision records the jump ratio it used.
    """
    curve = report.mean_gt_by_layer()
    used_fallback = False
    try:
        k = detect_knee(curve)
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
        extra={"min_jump_ratio": DEFAULT_MIN_JUMP_RATIO, "fallback": used_fallback},
    )


def sweep_boundary(base: BaseWeights, full_set: LoraSet, samples, metric: str, *,
                   golds: list[str],
                   decode_budget: int = DEFAULT_DECODE_BUDGET,
                   seed: int = 0) -> BoundaryDecision:
    """Score every keep level 0..L on held-out samples and pick the best.

    metric is a name from the metrics registry; golds[i] is the gold
    text of samples[i]. seed is recorded in the decision as the
    provenance of the caller's sample draw; it selects nothing here. The
    winner is the smallest level attaining the maximum score. All
    (level, sample) rows are decoded in one `decode_batch` call and stop
    at EOS_ID, as eval's decode does.
    """
    check_compat(base, full_set)
    keeps = range(base.cfg.n_layers + 1)

    prompts = [prompt for prompt, _ in sample_ids(samples)]
    if not prompts:
        raise InputError("no samples to sweep over")
    if len(golds) != len(prompts):
        raise InputError(f"got {len(golds)} golds for {len(prompts)} samples")

    rows = [(prompt, k) for k in keeps for prompt in prompts]
    outs = decode_batch(base, full_set, rows, decode_budget, EOS_ID)
    n = len(prompts)
    per_k = {k: float(corpus_score(metric, [decode(o) for o in outs[k * n:(k + 1) * n]],
                                   golds).score)
             for k in keeps}
    best = max(per_k.values())
    k_star = min(k for k, v in per_k.items() if v == best)

    return BoundaryDecision(
        k_star=k_star, per_k_scores=per_k, metric=metric,
        sample_count=len(prompts), method="sweep", seed=seed,
        set_hash=full_set.content_hash(),
        extra={"decode_budget": decode_budget},
    )

