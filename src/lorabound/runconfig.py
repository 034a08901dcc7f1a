"""Run configuration: one JSON file describing a whole experiment.

Sections map onto the pipeline stages. Every section and every key is
checked against the known schema; an unknown name is a hard error
rather than a silent ignore, so typos cannot quietly change a run.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

from .boundary import DEFAULT_DECODE_BUDGET
from .errors import ConfigError, ParseError
from .fileio import read_json
from .lora import (DEFAULT_ALPHA, DEFAULT_RANK, DEFAULT_TARGETS,
                   normalize_targets)
from .model import ModelConfig, check_seed, config_fields
from .probe import DEFAULT_N_TOKENS, DEFAULT_SAMPLE_BUDGET
from .tasks import DEFAULT_SIZES, TASK_NAMES
from .train import TrainConfig


@dataclass(frozen=True)
class PretrainSection(TrainConfig):
    """The training settings of base-model pretraining and its corpus size."""
    lr: float = 3e-3
    corpus_tokens: int = 250_000

    def validate(self, section: str = "pretrain") -> "PretrainSection":
        if self.corpus_tokens < 1000:
            raise ConfigError(f"corpus_tokens too small: {self.corpus_tokens}")
        return super().validate(section)


@dataclass(frozen=True)
class LoraSection:
    targets: tuple[str, ...] = DEFAULT_TARGETS
    rank: int = DEFAULT_RANK
    alpha: float = DEFAULT_ALPHA

    def validate(self) -> "LoraSection":
        if self.rank < 1:
            raise ConfigError(f"rank must be at least 1, got {self.rank}")
        if self.alpha <= 0:
            raise ConfigError(f"alpha must be positive, got {self.alpha}")
        # canonical order keeps config hashes independent of spelling order
        canon = normalize_targets(self.targets)
        if canon != self.targets:
            return LoraSection(targets=canon, rank=self.rank, alpha=self.alpha)
        return self


@dataclass(frozen=True)
class TaskSection:
    name: str = "kvqa"
    seed: int = 0
    train_size: int = DEFAULT_SIZES["train"]
    validation_size: int = DEFAULT_SIZES["validation"]
    test_size: int = DEFAULT_SIZES["test"]
    domain: str = "in-domain"
    hops: int = 2
    bridge_ratio: float = 0.75

    def validate(self) -> "TaskSection":
        if self.name not in TASK_NAMES:
            raise ConfigError(
                f"unknown task {self.name!r}; expected one of {TASK_NAMES}")
        for f in ("train_size", "validation_size", "test_size"):
            if getattr(self, f) < 0:
                raise ConfigError(f"{f} must be non-negative")
        check_seed(self.seed, "task.seed")
        return self

    def sizes(self) -> dict[str, int]:
        return {"train": self.train_size, "validation": self.validation_size,
                "test": self.test_size}


@dataclass(frozen=True)
class ProbeSection:
    n_tokens: int = DEFAULT_N_TOKENS
    sample_budget: int = DEFAULT_SAMPLE_BUDGET
    seed: int = 0
    keep_levels: tuple[int, ...] | None = None   # None: scaled defaults

    def validate(self) -> "ProbeSection":
        if self.n_tokens < 1:
            raise ConfigError(f"n_tokens must be at least 1, got {self.n_tokens}")
        if self.sample_budget < 1:
            raise ConfigError(f"sample_budget must be at least 1")
        check_seed(self.seed, "probe.seed")
        return self


@dataclass(frozen=True)
class SweepSection:
    budget: int = 500
    decode_budget: int = DEFAULT_DECODE_BUDGET
    seed: int = 0
    keeps: tuple[int, ...] | None = None   # None: every level 0..n_layers

    def validate(self) -> "SweepSection":
        if self.budget < 1 or self.decode_budget < 1:
            raise ConfigError("sweep budget and decode_budget must be at least 1")
        check_seed(self.seed, "sweep.seed")
        return self


@dataclass(frozen=True)
class RunConfig:
    model: ModelConfig
    pretrain: PretrainSection
    train: TrainConfig
    lora: LoraSection
    task: TaskSection
    probe: ProbeSection
    sweep: SweepSection

    @classmethod
    def default(cls) -> "RunConfig":
        return cls(model=ModelConfig(), pretrain=PretrainSection(),
                   train=TrainConfig(), lora=LoraSection(), task=TaskSection(),
                   probe=ProbeSection(), sweep=SweepSection())

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        if not isinstance(data, dict):
            raise ConfigError("run config must be a JSON object")
        sections = {"model": ModelConfig, "pretrain": PretrainSection,
                    "train": TrainConfig, "lora": LoraSection, "task": TaskSection,
                    "probe": ProbeSection, "sweep": SweepSection}
        unknown = set(data) - set(sections)
        if unknown:
            raise ConfigError(f"unknown run config sections: {sorted(unknown)}")
        return cls(**{name: sec(**config_fields(sec, data.get(name, {}), name)).validate()
                      for name, sec in sections.items()})

    @classmethod
    def load(cls, path) -> "RunConfig":
        try:
            data = read_json(path)
        except ParseError as exc:
            raise ConfigError(str(exc)) from exc
        return cls.from_dict(data)

    def to_dict(self) -> dict:
        return asdict(self)   # tuple fields serialize as JSON lists

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
