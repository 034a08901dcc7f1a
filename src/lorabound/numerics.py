"""Dense float32 tensor ops with hand-derived gradients.

Everything here works on plain numpy arrays in C (row-major) order.
float32 is the working precision; float64 arrays are accepted too so
gradient checks can run a high-precision mode through the same code.
Accumulation order inside each op is fixed, so repeated calls with the
same inputs are bit-identical on one machine. The forward kernels the
model runs on every block (softmax_rows, rmsnorm_fwd) build their
results in buffers they reuse, without changing a rounding step:
tests/test_numerics.py checks them byte for byte against the plain
chains of fresh arrays kept in tests/oracles.py.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateInputError, InputError, ShapeError

FLOAT_DTYPES = (np.float32, np.float64)


def _check_float(name: str, x: np.ndarray) -> None:
    if not isinstance(x, np.ndarray) or x.dtype.type not in FLOAT_DTYPES:
        raise ShapeError(f"{name} must be a float32/float64 ndarray, got {type(x).__name__}")


# rows shorter than this take their max as a leading-axis max of a
# transposed copy, which numpy runs as whole-row vector ops; on longer
# rows (vocab rows, long prompts) the copy costs more than it saves
_SHORT_ROW = 64


def _row_max(x: np.ndarray) -> np.ndarray:
    """x.max(-1, keepdims=True). A max is exact in any order, and a row
    holding nan gives an all-nan softmax row either way, so both forms
    give softmax_rows the same bits."""
    n = x.shape[-1]
    if n < _SHORT_ROW:
        cols = np.ascontiguousarray(x.reshape(-1, n).T)
        return np.fmax.reduce(cols, axis=0).reshape(*x.shape[:-1], 1)
    return np.fmax.reduce(x, axis=-1, keepdims=True)


def softmax_rows(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Row-wise softmax over the last axis, stabilized by max subtraction.

    With out (which may be x itself) the result is written there and
    nothing of x's size is allocated; the rounding is the same either way.
    """
    _check_float("x", x)
    if x.ndim < 1:
        raise ShapeError("softmax_rows needs at least one axis")
    e = np.subtract(x, _row_max(x), out=out)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def rmsnorm_fwd(x: np.ndarray, gain: np.ndarray, eps: float = 1e-5):
    """Forward pass returning (y, inv_rms) so the backward pass can reuse the scale.

    y is built in the buffer of x * x, and the mean square is its row sum
    divided by d, which is exactly np.mean's rounding.
    """
    _check_float("x", x)
    _check_float("gain", gain)
    if gain.ndim != 1 or x.shape[-1] != gain.shape[0]:
        raise ShapeError(f"gain {gain.shape} does not match trailing dim of {x.shape}")
    y = x * x
    inv = np.add.reduce(y, axis=-1, keepdims=True)
    inv /= x.shape[-1]
    inv += x.dtype.type(eps)
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    np.multiply(x, inv, out=y)
    y *= gain
    return y, inv


def rmsnorm_bwd(d_y: np.ndarray, x: np.ndarray, inv: np.ndarray, gain: np.ndarray):
    """Gradients of rmsnorm: returns (d_x, d_gain)."""
    d = x.shape[-1]
    d_xn = d_y * gain
    # d_gain sums over all leading axes; xn = x * inv
    d_gain = np.sum(d_y * x * inv, axis=tuple(range(x.ndim - 1)))
    dot = np.sum(d_xn * x, axis=-1, keepdims=True)
    d_x = inv * d_xn - x * (inv**3 / d) * dot
    return d_x, d_gain


def cross_entropy_grad(logits: np.ndarray, targets: np.ndarray, mask: np.ndarray):
    """Mean NLL over unmasked positions plus its gradient w.r.t. logits.

    logits: [B, t, V] for a batch of rows; targets: [B, t] int token
    ids; mask: the same shape, bool, True = counted. Each row's loss is
    the mean over its own counted positions, and a batch's loss is the
    mean of its row losses, added in row order. Losses are accumulated
    in float64 regardless of input dtype; the returned gradient matches
    the logits dtype and is (softmax - one_hot) / (count * B) on a row's
    counted positions, zero elsewhere.
    """
    _check_float("logits", logits)
    if logits.ndim != 3:
        raise ShapeError(f"logits must be [B, t, V], got {logits.shape}")
    v = logits.shape[-1]
    targets = np.asarray(targets)
    mask = np.asarray(mask, dtype=bool)
    if targets.shape != logits.shape[:-1] or mask.shape != logits.shape[:-1]:
        raise ShapeError(f"targets/mask must have shape {logits.shape[:-1]}, "
                         f"got {targets.shape} and {mask.shape}")
    if targets.min(initial=0) < 0 or targets.max(initial=0) >= v:
        raise InputError(f"target ids must lie in [0, {v}), got range "
                         f"[{int(targets.min())}, {int(targets.max())}]")
    n_rows, t, _ = logits.shape
    counts = mask.sum(axis=-1)
    if not counts.all():
        row = int(np.flatnonzero(counts == 0)[0])
        raise DegenerateInputError(f"row {row}: all positions are masked; loss is undefined")

    shifted = logits - logits.max(axis=-1, keepdims=True)
    grad = softmax_rows(logits)
    at = (np.arange(n_rows)[:, None], np.arange(t), targets)
    # log p = shifted[target] - log sum exp(shifted); reduce in float64
    logp = shifted[at].astype(np.float64) - np.log(
        np.exp(shifted, dtype=np.float64).sum(axis=-1))
    row_loss = -(logp * mask).sum(axis=-1) / counts
    loss = sum(row_loss.tolist()) / n_rows

    grad[at] -= 1.0
    grad[~mask] = 0.0
    grad /= (counts * n_rows).astype(grad.dtype)[:, None, None]
    return loss, grad


# Adam's moment decay rates and the denominator's guard, the same for every run
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """First/second moment buffers and the learning rate of one optimizer."""

    lr: float = 1e-4
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def adam_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
              state: AdamState):
    """One bias-corrected Adam update, applied in place to every key in grads.

    Only keys present in grads are touched; params not listed there keep
    their values and accumulate no optimizer state.
    """
    state.step += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    # bias correction uses the shared step counter, so all tensors must be
    # updated together on every step
    c1 = 1.0 - b1**state.step
    c2 = 1.0 - b2**state.step
    for name, g in grads.items():
        if name not in params:
            raise InputError(f"gradient for unknown parameter {name!r}")
        p = params[name]
        if g.shape != p.shape:
            raise ShapeError(f"grad shape {g.shape} != param shape {p.shape} for {name!r}")
        if name not in state.m:
            state.m[name] = np.zeros_like(p)
            state.v[name] = np.zeros_like(p)
        m = state.m[name]
        v = state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        mhat = m / c1
        vhat = v / c2
        p -= state.lr * mhat / (np.sqrt(vhat) + ADAM_EPS)
    return params, state


def global_norm(grads: dict[str, np.ndarray]) -> float:
    """Euclidean norm over every entry of every gradient, reduced in float64."""
    total = 0.0
    for g in grads.values():
        total += float(np.sum(g.astype(np.float64) ** 2))
    return float(np.sqrt(total))


def clip_by_global_norm(grads: dict[str, np.ndarray], max_norm: float) -> float:
    """Scale all gradients in place so their joint norm is at most max_norm.

    Returns the pre-clip norm; gradients already within max_norm are left
    as they are.
    """
    norm = global_norm(grads)
    if norm > max_norm:
        scale = max_norm / norm
        for g in grads.values():
            g *= g.dtype.type(scale)
    return norm
