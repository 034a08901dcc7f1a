"""Layer-bounded LoRA toolkit.

Train per-layer low-rank adapters on a small decoder-only transformer,
probe how early in the stack the right answer becomes readable, pick the
layer above which adapters stop paying for themselves, and drop them.
"""

from .boundary import (BoundaryDecision, default_boundary, detect_knee,
                       sweep_boundary)
from .errors import (CompatibilityError, ConfigError, DegenerateInputError, InputError,
                     LoraBoundError, NoKneeError, ParseError, ShapeError)
from .lora import LoraAdapter, LoraSet, drop_above, init_adapters, merge
from .model import (BaseWeights, ModelConfig, decode_batch, forward_collect,
                    generate_greedy, init_base, lens_logits, loss_and_grads)
from .numerics import AdamState, adam_step, cross_entropy_grad, softmax_rows
from .probe import ProbeReport, probe_ground_truth, probe_under_drop
from .train import TrainConfig, finetune_lora, pretrain

__version__ = "0.1.0"
