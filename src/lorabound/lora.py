"""Low-rank adapter containers and the algebra on sets of them.

An adapter for a projection with weight [d_in, d_out] is its two factors
A [r, d_in] and B [d_out, r]. Its set owns alpha and rank: every dense
delta is set.scale * B @ A with scale = alpha / r, but the hot path
always applies the two factors separately. Sets are keyed by (layer,
projection) with layers numbered 1..L, carry the fingerprint of the base
model they belong to, and check their adapters when built and again
when saved.
"""

from __future__ import annotations

import hashlib
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import CompatibilityError, ConfigError, ShapeError
from .model import PROJECTIONS, BaseWeights, ModelConfig, check_keep_level

DEFAULT_TARGETS = ("q", "v")
DEFAULT_RANK = 8
DEFAULT_ALPHA = 16.0


@dataclass
class LoraAdapter:
    a: np.ndarray       # [rank, d_in]
    b: np.ndarray       # [d_out, rank]

    def __post_init__(self):
        if self.a.ndim != 2 or self.b.ndim != 2 or self.a.shape[0] != self.b.shape[1]:
            raise ShapeError(f"inconsistent adapter factors {self.a.shape} / {self.b.shape}")

    @property
    def rank(self) -> int:
        return self.a.shape[0]

    def param_count(self) -> int:
        return self.a.size + self.b.size


@dataclass
class LoraSet:
    """All adapters trained against one base model. The header fields (what
    an .lbad header stores) hold for every adapter; validate checks."""

    n_layers: int
    alpha: float
    rank: int
    targets: tuple[str, ...]
    fingerprint: str
    adapters: dict[tuple[int, str], LoraAdapter] = field(default_factory=dict)

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        """Raise ConfigError unless the header fields hold for every adapter.
        The constructor runs it, and save_adapters again on what it writes."""
        if not 0 < self.alpha <= sys.float_info.max:   # also rejects nan and inf
            raise ConfigError(f"alpha must be positive and finite, got {self.alpha}")
        self.alpha = float(self.alpha)   # one spelling for content_hash and the header
        if self.rank < 1:
            raise ConfigError(f"rank must be positive, got {self.rank}")
        for (layer, proj), ad in sorted(self.adapters.items()):
            where = f"adapter at layer {layer} {proj!r}"
            if proj not in self.targets:
                raise ConfigError(f"{where} is not among the header targets {list(self.targets)}")
            if ad.rank != self.rank:
                raise ConfigError(f"{where} has rank {ad.rank}, header rank is {self.rank}")

    @property
    def scale(self) -> float:
        """alpha / rank, the factor of every adapter's delta scale * B @ A."""
        return self.alpha / self.rank

    def get(self, layer: int, proj: str) -> LoraAdapter | None:
        return self.adapters.get((layer, proj))

    def keys_sorted(self) -> list[tuple[int, str]]:
        return sorted(self.adapters, key=lambda k: (k[0], PROJECTIONS.index(k[1])))

    def param_count(self) -> int:
        return sum(ad.param_count() for ad in self.adapters.values())

    def content_hash(self) -> str:
        """Hash of adapter values, n_layers, alpha, rank and the base
        fingerprint; identifies this set."""
        h = hashlib.sha256()
        h.update(self.fingerprint.encode())
        h.update(f"{self.n_layers}:{self.alpha}:{self.rank}".encode())
        for layer, proj in self.keys_sorted():
            ad = self.adapters[(layer, proj)]
            h.update(f"{layer}.{proj}".encode())
            h.update(np.ascontiguousarray(ad.a, dtype=np.float32).tobytes())
            h.update(np.ascontiguousarray(ad.b, dtype=np.float32).tobytes())
        return h.hexdigest()[:16]


def projection_dims(cfg: ModelConfig, proj: str) -> tuple[int, int]:
    """(d_in, d_out) of one projection site."""
    d = cfg.d_model
    if proj in ("q", "k", "v", "o"):
        return d, d
    if proj == "up":
        return d, cfg.d_ff
    if proj == "down":
        return cfg.d_ff, d
    raise ConfigError(f"unknown projection {proj!r}; expected one of {PROJECTIONS}")


def normalize_targets(targets) -> tuple[str, ...]:
    targets = tuple(targets)
    bad = [t for t in targets if t not in PROJECTIONS]
    if bad:
        raise ConfigError(f"unknown projection targets {bad}; expected subset of {PROJECTIONS}")
    if len(set(targets)) != len(targets):
        raise ConfigError(f"duplicate projection targets in {targets}")
    return tuple(p for p in PROJECTIONS if p in targets)


def init_adapters(cfg: ModelConfig, targets=DEFAULT_TARGETS, rank: int = DEFAULT_RANK,
                  seed: int = 0) -> LoraSet:
    """Fresh adapters on every layer: A ~ N(0, 0.02^2) seeded, B = 0, in a
    set of alpha DEFAULT_ALPHA.

    A new set's delta is exactly zero, so it leaves the base model's
    behavior untouched until trained. The fingerprint is bound to the
    model config here and to full base weights once training sees them.
    """
    targets = normalize_targets(targets)
    if not targets:
        raise ConfigError("at least one projection target is required")
    rng = np.random.default_rng(seed)
    adapters: dict[tuple[int, str], LoraAdapter] = {}
    for layer in range(1, cfg.n_layers + 1):
        for proj in targets:
            d_in, d_out = projection_dims(cfg, proj)
            if not 1 <= rank <= min(d_in, d_out):
                raise ConfigError(
                    f"rank {rank} invalid for projection {proj!r} with dims "
                    f"({d_in}, {d_out})")
            a = rng.normal(0.0, 0.02, size=(rank, d_in)).astype(np.float32)
            b = np.zeros((d_out, rank), dtype=np.float32)
            adapters[(layer, proj)] = LoraAdapter(a=a, b=b)
    return LoraSet(n_layers=cfg.n_layers, alpha=DEFAULT_ALPHA, rank=rank,
                   targets=targets, fingerprint=cfg.config_hash(), adapters=adapters)


def drop_above(lset: LoraSet, keep_bottom: int) -> LoraSet:
    """New set keeping only adapters on layers 1..keep_bottom; 0 keeps none.

    This is the one way to select layers: every forward takes the set it
    should apply. Adapter tensors are shared, not copied; the input set
    is untouched.
    """
    keep_bottom = check_keep_level(keep_bottom, lset.n_layers)
    kept = {key: ad for key, ad in lset.adapters.items() if key[0] <= keep_bottom}
    return LoraSet(n_layers=lset.n_layers, alpha=lset.alpha, rank=lset.rank,
                   targets=lset.targets, fingerprint=lset.fingerprint, adapters=kept)


def check_compat(base: BaseWeights, lset: LoraSet) -> None:
    """Adapters must carry the base's fingerprint (or its config hash, if
    untrained), span its layers, and fit the projection each is keyed to."""
    full = base.fingerprint()
    cfg_only = base.cfg.config_hash()
    if lset.fingerprint not in (full, cfg_only):
        raise CompatibilityError(
            f"adapter set was built for {lset.fingerprint}, model is {full}")
    n_layers = base.cfg.n_layers
    if lset.n_layers != n_layers:
        raise CompatibilityError(
            f"adapter set spans {lset.n_layers} layers, model has {n_layers}")
    for (layer, proj), ad in lset.adapters.items():
        where = f"adapter at layer {layer} {proj!r}"
        if not 1 <= layer <= n_layers:
            raise CompatibilityError(f"{where}: layer out of range 1..{n_layers}")
        if proj not in PROJECTIONS:
            raise CompatibilityError(
                f"{where}: unknown projection; expected one of {PROJECTIONS}")
        d_in, d_out = projection_dims(base.cfg, proj)
        if ad.a.shape[1] != d_in or ad.b.shape[0] != d_out:
            raise CompatibilityError(
                f"{where} has dims A{ad.a.shape} / B{ad.b.shape}, "
                f"projection needs ({d_in}, {d_out})")


def merge(base: BaseWeights, lset: LoraSet) -> BaseWeights:
    """Fold every adapter into a copy of the base weights.

    The merged plain model matches the factored adapted forward up to
    float32 rounding on the order of 1e-3 in logits.
    """
    check_compat(base, lset)
    merged = base.clone()
    for (layer, proj), ad in lset.adapters.items():
        merged.tensors[f"layer{layer:02d}.w{proj}"] += lset.scale * (ad.b @ ad.a).T
    return merged


def lora_param_dict(lset: LoraSet) -> dict[str, np.ndarray]:
    """Flat name -> tensor view of a set, matching gradient keys from the model."""
    params: dict[str, np.ndarray] = {}
    for layer, proj in lset.keys_sorted():
        ad = lset.adapters[(layer, proj)]
        params[f"layer{layer:02d}.{proj}.lora_a"] = ad.a
        params[f"layer{layer:02d}.{proj}.lora_b"] = ad.b
    return params
