"""Decoder-only transformer with pre-norm RMS blocks and hand-derived gradients.

One forward implementation serves training, probing and generation. The
per-layer residual stream it records is the one record a forward
returns: forward_collect gives it as a plain array [L, B, t, d_model]
for rows of token ids [B, t], the one input shape of the forward. The
probe engine in probe.py is the one path that reads it back through the
model's own final norm and output head (lens_logits); it runs the
forward over batches of equal-length rows and resumes it at any layer
from a recorded residual.
Decoding and probing cut rows into batches by one rule,
_length_batches. For generation the same forward runs over a batch of
rows with a per-layer key/value cache: `decode_batch` prefills each
batch of equal-length prompts once and then feeds one position per new
token, and it is the only greedy decode loop in the package. For
training, `loss_and_grads` runs it over right-padded rows with a loss
mask and backpropagates all of them at once. Training and probing
spread their calls over CPUs with workers.py. Low-rank adapter deltas
are applied in factored form at the projection sites, times the set's
one scale, and are never materialized as dense matrices here. Every
adapter in the set a caller passes applies; there is no layer mask, and
a caller that wants the layers above k without adapters passes
lora.drop_above(set, k). The decoder is the one batched exception: each
row applies the set only up to its own keep level, which gives the bits
drop_above would.

A probe's adapter-free passes read only a few positions of the top
block, and the forward runs that block at those positions alone (see
_forward). Residual adds, the attention softmax and, when no backward
cache is kept, gelu write into buffers the forward already owns, never
into a residual a caller or the cache holds; every result keeps the
bits of the allocating form.

Base weights are laid out [d_in, d_out], so a projection is ``x @ w``;
an adapter's factors are A [r, d_in] and B [d_out, r], so its path is
``(x @ A.T) @ B.T``. Layers are numbered 1..L in every public surface.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from .errors import ConfigError, InputError, ShapeError
from .numerics import cross_entropy_grad, rmsnorm_bwd, rmsnorm_fwd, softmax_rows

PROJECTIONS = ("q", "k", "v", "o", "up", "down")

INIT_STD = 0.02   # init_base's weight std, before the output projections' scale-down

NORM_EPS = 1e-5   # the epsilon of every RMS norm


# accepted JSON values of a config field, by its annotation (up to any "[")
_JSON_TYPES = {"int": ((int,), "an integer"), "float": ((int, float), "a number"),
               "str": ((str,), "a string"), "tuple": ((list, tuple), "a list")}


def config_fields(cls, data, section: str) -> dict:
    """The keyword arguments config dataclass cls takes from one JSON section.
    An unknown key, a value of the wrong JSON type for its field (a bool
    is not a number) or a NaN or infinite number raises ConfigError naming
    section.key. Lists become tuples; their elements are left to the
    checks of cls itself."""
    if not isinstance(data, dict):
        raise ConfigError(f"section {section!r} must be a JSON object")
    types = {f.name: f.type for f in fields(cls)}
    unknown = set(data) - set(types)
    if unknown:
        raise ConfigError(f"unknown keys in section {section!r}: {sorted(unknown)}")
    for key, value in data.items():
        kind = types[key]
        if value is None and kind.endswith("| None"):
            continue
        accepted, name = _JSON_TYPES[kind.split("[")[0]]
        if not isinstance(value, accepted) or isinstance(value, bool):
            raise ConfigError(f"{section}.{key} must be {name}, got {value!r}")
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{section}.{key} must be a finite number, got {value!r}")
    return {k: tuple(v) if isinstance(v, list) else v for k, v in data.items()}


def check_seed(seed: int, name: str) -> int:
    """seed, if it is non-negative: numpy's generators take no other."""
    if seed < 0:
        raise ConfigError(f"{name} must be non-negative, got {seed}")
    return seed


@dataclass(frozen=True)
class ModelConfig:
    n_layers: int = 12
    d_model: int = 64
    n_heads: int = 4
    d_ff: int = 256
    vocab_size: int = 512
    max_seq: int = 128

    def __post_init__(self):
        for f in fields(self):
            if getattr(self, f.name) <= 0:
                raise ConfigError(f"{f.name} must be positive, got {getattr(self, f.name)}")
        if self.d_model % self.n_heads != 0:
            raise ConfigError(
                f"d_model {self.d_model} must divide evenly into {self.n_heads} heads")
        if self.vocab_size < 4:
            raise ConfigError("vocab_size must be at least 4 to hold reserved tokens")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ModelConfig":
        return cls(**config_fields(cls, data, "model"))

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()[:16]


def param_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Canonical parameter ordering; serialization and hashing follow it."""
    d, v = cfg.d_model, cfg.vocab_size
    shapes: dict[str, tuple[int, ...]] = {
        "tok_emb": (v, d),
        "pos_emb": (cfg.max_seq, d),
    }
    for l in range(1, cfg.n_layers + 1):
        p = f"layer{l:02d}."
        shapes[p + "attn_norm"] = (d,)
        shapes[p + "wq"] = (d, d)
        shapes[p + "wk"] = (d, d)
        shapes[p + "wv"] = (d, d)
        shapes[p + "wo"] = (d, d)
        shapes[p + "ffn_norm"] = (d,)
        shapes[p + "wup"] = (d, cfg.d_ff)
        shapes[p + "wdown"] = (cfg.d_ff, d)
    shapes["final_norm"] = (d,)
    shapes["head"] = (d, v)
    return shapes


def _first(names: list[str], n: int = 4) -> str:
    """names, the first n listed and the rest counted."""
    return f"{names[:n]}" + (f" and {len(names) - n} more" if len(names) > n else "")


class BaseWeights:
    """All non-adapter parameters of one model, keyed by canonical names.

    fingerprint() hashes the tensors on every call while any of them is
    writable. Once all are read-only (freeze; load_weights returns them
    so), the first hash is kept and reused for as long as the same
    arrays are in place.
    """

    def __init__(self, cfg: ModelConfig, tensors: dict[str, np.ndarray]):
        # the count first: a stored config's n_layers may imply billions of names
        count = 4 + 8 * cfg.n_layers
        if len(tensors) != count:
            raise ShapeError(f"{len(tensors)} weight tensors, config implies {count}")
        expected = param_shapes(cfg)
        if set(tensors) != set(expected):
            missing = sorted(set(expected) - set(tensors))
            extra = sorted(set(tensors) - set(expected))
            raise ShapeError(f"weight names do not match config: missing "
                             f"{_first(missing)}, extra {_first(extra)}")
        for name, shape in expected.items():
            if tuple(tensors[name].shape) != shape:
                raise ShapeError(f"{name} has shape {tensors[name].shape}, expected {shape}")
        self.cfg = cfg
        self.tensors = tensors
        self._hashed = None   # (arrays, weights_hash) of read-only tensors

    def weights_hash(self) -> str:
        h = hashlib.sha256()
        for name in param_shapes(self.cfg):
            h.update(name.encode())
            h.update(np.ascontiguousarray(self.tensors[name], dtype=np.float32).tobytes())
        return h.hexdigest()[:16]

    def fingerprint(self) -> str:
        arrays = [self.tensors[name] for name in param_shapes(self.cfg)]
        if any(a.flags.writeable for a in arrays):
            return f"{self.cfg.config_hash()}.{self.weights_hash()}"
        if self._hashed is None or any(a is not b for a, b in zip(arrays, self._hashed[0])):
            self._hashed = (arrays, self.weights_hash())
        return f"{self.cfg.config_hash()}.{self._hashed[1]}"

    def freeze(self) -> "BaseWeights":
        """Make every tensor read-only, so a write into one raises and the
        fingerprint is computed once; returns self."""
        for arr in self.tensors.values():
            arr.setflags(write=False)
        return self

    def astype(self, dtype) -> "BaseWeights":
        return BaseWeights(self.cfg, {k: v.astype(dtype) for k, v in self.tensors.items()})

    def clone(self) -> "BaseWeights":
        return BaseWeights(self.cfg, {k: v.copy() for k, v in self.tensors.items()})


def init_base(cfg: ModelConfig, seed: int) -> BaseWeights:
    """Seeded random initialization, N(0, INIT_STD^2); residual output
    projections are scaled down by sqrt(2 * n_layers)."""
    rng = np.random.default_rng(seed)
    out_std = INIT_STD / math.sqrt(2 * cfg.n_layers)
    tensors: dict[str, np.ndarray] = {}
    for name, shape in param_shapes(cfg).items():
        if name.endswith("_norm"):
            tensors[name] = np.ones(shape, dtype=np.float32)
        elif name.endswith(".wo") or name.endswith(".wdown"):
            tensors[name] = rng.normal(0.0, out_std, size=shape).astype(np.float32)
        else:
            tensors[name] = rng.normal(0.0, INIT_STD, size=shape).astype(np.float32)
    return BaseWeights(cfg, tensors)


# -- primitive pieces ---------------------------------------------------------

_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_K = 0.044715


def _gelu_fwd(x, keep_th: bool = True):
    """tanh-approximated gelu; returns (y, th). Built in place, one temporary
    at a time, in the rounding order of c * (x + k * x * x * x) and then
    0.5 * x * (1 + th). Without keep_th nothing reads th or x afterwards,
    so y is built in x's buffer, th is spent on 1 + th and None returned."""
    th = _GELU_K * x
    th *= x
    th *= x
    th += x
    th *= _GELU_C
    np.tanh(th, out=th)
    if not keep_th:
        th += 1.0
        x *= 0.5
        x *= th
        return x, None
    y = 0.5 * x
    y *= 1.0 + th
    return y, th


def _gelu_bwd(d_y, x, th):
    """d_y * gelu'(x), built in place with three temporaries, in the rounding
    order of d_y * (0.5 * (1 + th) + 0.5 * x * (1 - th * th) * d_inner)."""
    d_inner = 3.0 * _GELU_K * x
    d_inner *= x
    d_inner += 1.0
    d_inner *= _GELU_C                  # c * (1 + 3k * x * x)
    sech2 = th * th
    np.subtract(1.0, sech2, out=sech2)  # 1 - th * th
    tail = 0.5 * x
    tail *= sech2
    tail *= d_inner                     # 0.5 * x * (1 - th * th) * d_inner
    grad = np.add(1.0, th, out=sech2)   # sech2 is spent; its buffer takes the sum
    grad *= 0.5
    grad += tail
    grad *= d_y
    return grad


def _causal_mask(t: int, n_keys: int, dtype) -> np.ndarray:
    """Mask for t queries that are the last t of n_keys positions: 0 where
    a query may attend, -inf above. _forward builds one per call and its
    layers share it; it is C-contiguous, since adding a strided view to
    the scores takes about twice as long."""
    return np.triu(np.full((t, n_keys), -np.inf, dtype=dtype), k=n_keys - t + 1)


def _heads(x: np.ndarray, n_heads: int) -> np.ndarray:
    """[..., t, d] -> [..., heads, t, d / heads]."""
    *lead, t, d = x.shape
    xh = x.reshape(*lead, t, n_heads, d // n_heads).swapaxes(-3, -2)
    return np.ascontiguousarray(xh)


def _unheads(xh: np.ndarray) -> np.ndarray:
    *lead, h, t, hd = xh.shape
    return xh.swapaxes(-3, -2).reshape(*lead, t, h * hd)


def _attention_fwd(q, k, v, n_heads, mask, kv=None, start: int = 0, at=None):
    """Causal attention of the t new positions in q, k, v.

    mask is the _causal_mask of the t positions over the keys they see,
    or None for a lone position. With a cache kv = (keys, values), each
    [..., heads, T, d / heads], the new keys and values are written at
    positions start..start+t and the queries attend over every position
    up to start+t. With at, q holds only the queries of the positions at
    lists (k and v hold every position), and each attends over the keys
    up to its own position: the rows at of mask.
    """
    qh, kh, vh = _heads(q, n_heads), _heads(k, n_heads), _heads(v, n_heads)
    if kv is not None:
        end = start + qh.shape[-2]
        kv[0][..., start:end, :] = kh
        kv[1][..., start:end, :] = vh
        kh, vh = kv[0][..., :end, :], kv[1][..., :end, :]
    scale = 1.0 / math.sqrt(qh.shape[-1])
    scores = qh @ kh.swapaxes(-1, -2)
    scores *= scale
    if mask is not None:
        scores += mask if at is None else mask[at]
    w = softmax_rows(scores, out=scores)
    out = _unheads(w @ vh)
    return out, (qh, kh, vh, w)


def _attention_bwd(d_out, att_cache, n_heads):
    """Gradients of _attention_fwd (no cache) for d_out [..., t, d]."""
    qh, kh, vh, w = att_cache
    do_h = _heads(d_out, n_heads)
    d_w = do_h @ vh.swapaxes(-1, -2)
    d_vh = w.swapaxes(-1, -2) @ do_h
    # softmax backward; masked weights are zero so nothing leaks acausally
    d_scores = w * (d_w - np.sum(w * d_w, axis=-1, keepdims=True))
    scale = 1.0 / math.sqrt(qh.shape[-1])
    d_qh = (d_scores @ kh) * scale
    d_kh = (d_scores.swapaxes(-1, -2) @ qh) * scale
    return _unheads(d_qh), _unheads(d_kh), _unheads(d_vh)


def _matmul(x, w):
    """x [..., t, d_in] @ w [d_in, d_out] as one 2-D product.

    numpy would loop over the leading axes instead; a 2-D product is
    faster. For the base weights (d_out of 64 and up) OpenBLAS 0.3.31
    gives each row of it the same bits at any row count from 2 up, which
    is why the decoder never steps a batch of one row.
    """
    return (x.reshape(-1, x.shape[-1]) @ w).reshape(*x.shape[:-1], w.shape[1])


def _project_fwd(x, w, adapter, scale, rows=None):
    """x @ w plus scale times the factored low-rank path; returns (y, mid)
    with mid = x @ A^T. scale is the adapter set's alpha / rank.

    The low-rank products run once per sequence (numpy loops over the
    leading axes of x), so a row's adapter path gets the same bits alone
    as in any batch. As one flat product it would not: with rank-wide
    outputs OpenBLAS switches kernels with the row count (rank 8 at
    M*N*K > 10^6, i.e. past 488 rows for d_in = 256; rank 2 at d_in = 64
    past 8 rows), and a transposed factor's rows differ at every count.

    rows, when given, lists the batch rows (leading axis of x) that carry
    the adapter. The others never touch it, so they stay bitwise the base
    projection even if the adapter holds nan; mid is then None.
    """
    y = _matmul(x, w)
    if adapter is None:
        return y, None
    if rows is None:
        mid = x @ adapter.a.T
        return y + scale * (mid @ adapter.b.T), mid
    if rows.size:
        y[rows] += scale * ((x[rows] @ adapter.a.T) @ adapter.b.T)
    return y, None


def _layer_rows(keep, layer: int):
    """Batch rows whose keep level reaches `layer`; None when all of them do."""
    if keep is None:
        return None
    rows = np.flatnonzero(keep >= layer)
    return None if rows.size == keep.size else rows


def _check_tokens(cfg: ModelConfig, tokens) -> np.ndarray:
    """Token ids as [B, t] rows of equal length; one sequence is passed as [sequence]."""
    try:
        ids = np.asarray(tokens, dtype=np.int64)
    except (TypeError, ValueError) as exc:
        raise InputError(f"token ids must be integer rows of equal length: {exc}") from None
    if ids.ndim != 2 or ids.size == 0:
        raise InputError(f"token ids must be non-empty [B, t] rows, got shape {ids.shape}")
    if ids.shape[-1] > cfg.max_seq:
        raise InputError(f"sequence length {ids.shape[-1]} exceeds max_seq {cfg.max_seq}")
    if ids.min() < 0 or ids.max() >= cfg.vocab_size:
        raise InputError(
            f"token ids must lie in [0, {cfg.vocab_size}), got "
            f"[{int(ids.min())}, {int(ids.max())}]")
    return ids


def check_keep_level(keep, n_layers: int) -> int:
    """keep as an int, if it is an integer (not a bool) in 0..n_layers.

    A keep level k selects the adapters on layers 1..k; every public
    function that takes one checks it here.
    """
    if (isinstance(keep, bool) or not isinstance(keep, (int, np.integer))
            or not 0 <= keep <= n_layers):
        raise InputError(f"keep level {keep!r} out of range 0..{n_layers}")
    return int(keep)


def _check_targets(ids: np.ndarray, targets, mask):
    """targets and mask as id and bool arrays shaped like ids [B, t], one row at a time."""
    out = []
    for name, value, dtype in (("targets", targets, np.int64), ("mask", mask, bool)):
        try:
            n_rows = len(value)
        except TypeError:
            raise InputError(f"{name} must be rows shaped like the inputs {ids.shape}, "
                             f"got {type(value).__name__}") from None
        if n_rows != len(ids):
            raise InputError(f"{name} has {n_rows} rows, inputs have {len(ids)}")
        for i, (row, want) in enumerate(zip(value, ids)):
            if np.shape(row) != want.shape:
                raise InputError(f"row {i}: {name} has shape {np.shape(row)}, "
                                 f"inputs have {want.shape}")
        try:
            out.append(np.asarray(value, dtype=dtype))
        except (TypeError, ValueError) as exc:
            raise InputError(f"{name} must hold {np.dtype(dtype).name} values: {exc}") from None
    return out


# -- forward ------------------------------------------------------------------

def _attention_half(weights: BaseWeights, p: str, h, ad, scale, rows, kv, start: int,
                    cache, mask, at=None):
    """h + o(attend(q, k, v)) of one block under the causal mask; fills
    cache for the backward if given.

    With at, only the positions it lists get a query, and the result
    holds those positions only. The sum is built in the buffer of o, so
    h (a caller's residual, or the one the cache keeps) is never written.
    """
    ts, cfg = weights.tensors, weights.cfg
    xn1, inv1 = rmsnorm_fwd(h, ts[p + "attn_norm"], NORM_EPS)
    q, mid_q = _project_fwd(xn1 if at is None else xn1[..., at, :], ts[p + "wq"],
                            ad["q"], scale, rows)
    k, mid_k = _project_fwd(xn1, ts[p + "wk"], ad["k"], scale, rows)
    v, mid_v = _project_fwd(xn1, ts[p + "wv"], ad["v"], scale, rows)
    attn, att_cache = _attention_fwd(q, k, v, cfg.n_heads, mask, kv, start, at)
    o, mid_o = _project_fwd(attn, ts[p + "wo"], ad["o"], scale, rows)
    if cache is not None:
        cache.update(pre_attn=h, inv1=inv1, xn1=xn1, att_cache=att_cache, attn=attn)
        cache["mids"].update(q=mid_q, k=mid_k, v=mid_v, o=mid_o)
    o += h if at is None else h[..., at, :]
    return o


def _ffn_half(weights: BaseWeights, p: str, h, ad, scale, rows, cache):
    """h + down(gelu(up(norm(h)))) of one block; fills cache if given.

    Like _attention_half it never writes h; without a cache, gelu also
    reuses its input's buffer.
    """
    ts = weights.tensors
    xn2, inv2 = rmsnorm_fwd(h, ts[p + "ffn_norm"], NORM_EPS)
    u_pre, mid_up = _project_fwd(xn2, ts[p + "wup"], ad["up"], scale, rows)
    u, th = _gelu_fwd(u_pre, keep_th=cache is not None)
    dn, mid_down = _project_fwd(u, ts[p + "wdown"], ad["down"], scale, rows)
    if cache is not None:
        cache.update(pre_ffn=h, inv2=inv2, xn2=xn2, u_pre=u_pre, th=th, u=u)
        cache["mids"].update(up=mid_up, down=mid_down)
    dn += h
    return dn


def _forward(weights: BaseWeights, adapters, ids: np.ndarray,
             *, collect=None, keep_cache: bool = False, keep=None, kv=None,
             start: int = 0, resume=None):
    """Shared forward. Returns (hidden [L, B, t, d] or None, h_final, caches or None).

    collect indexes the positions whose residual is recorded after every
    layer (slice(None) for all of them); None records nothing. When it
    lists positions and the top layer carries no adapter, nothing reads
    the top block anywhere else, so that block runs at those positions
    only: q, the attention rows, o, the FFN half and the residual (k and
    v still cover every position), and h_final holds those positions. A
    lone position runs as two equal rows, since BLAS computes a 1-row
    product with another kernel. A top layer with an adapter runs whole:
    the rank-wide adapter products switch kernels with the row count.
    ids is a batch of rows [B, t]. For decoding, keep gives each row's
    keep level (its adapters apply on layers 1..keep), and kv holds one
    (keys, values) cache per layer; ids are then the positions
    start..start+t of each row. resume = (k, h) starts from the
    residual h after layer k instead of the embeddings of ids and runs
    layers k+1..L only; hidden then holds those L - k layers.
    """
    cfg = weights.cfg
    ts = weights.tensors
    t = ids.shape[-1]
    if resume is None:
        first, h = 0, ts["tok_emb"][ids]
        h += ts["pos_emb"][start:start + t]
    else:
        first, h = resume
    scale = None if adapters is None else adapters.scale
    # every layer shares one mask; a lone position sees every key and needs none
    mask = None if t == 1 else _causal_mask(t, t if kv is None else start + t, h.dtype)
    hidden = None
    if collect is not None:
        hidden = np.empty((cfg.n_layers - first,) + h[..., collect, :].shape, dtype=h.dtype)
    caches = [] if keep_cache else None
    for l in range(first + 1, cfg.n_layers + 1):
        p = f"layer{l:02d}."
        ad = {name: None if adapters is None else adapters.get(l, name)
              for name in PROJECTIONS}
        rows = _layer_rows(keep, l)
        at = None
        if (l == cfg.n_layers and collect is not None and not isinstance(collect, slice)
                and all(a is None for a in ad.values())):
            at = _two_up(np.asarray(collect))
        # a block's temporaries live only inside these two calls unless cached
        cache = {"ad": ad, "mids": {}} if keep_cache else None
        h = _attention_half(weights, p, h, ad, scale, rows,
                            None if kv is None else kv[l - 1], start, cache, mask, at)
        h = _ffn_half(weights, p, h, ad, scale, rows, cache)
        if at is not None:
            h = h[..., :np.size(collect), :]
            hidden[-1] = h
        elif hidden is not None:
            hidden[l - 1 - first] = h[..., collect, :]
        if keep_cache:
            caches.append(cache)
    return hidden, h, caches


def lens_logits(weights: BaseWeights, h: np.ndarray) -> np.ndarray:
    """Final norm plus output head applied to any residual-stream state.

    This is the one code path that turns hidden states into logits, for
    the top layer and for mid-stack readouts alike.
    """
    normed, _ = rmsnorm_fwd(h, weights.tensors["final_norm"], NORM_EPS)
    return normed @ weights.tensors["head"]


def forward_collect(weights: BaseWeights, adapters=None, tokens=None) -> np.ndarray:
    """The residual stream after every block, [L, B, t, d_model], for a
    batch of equal-length rows of token ids [B, t]. Layer l is entry
    l - 1; lens_logits reads any of them out.
    """
    ids = _check_tokens(weights.cfg, tokens)
    hidden, _, _ = _forward(weights, adapters, ids, collect=slice(None))
    return hidden


def next_token_logits(weights: BaseWeights, adapters, tokens) -> np.ndarray:
    """Logits [vocab] after the last position of one sequence `tokens` [t], run as one row."""
    ids = _check_tokens(weights.cfg, [tokens])
    _, h_final, _ = _forward(weights, adapters, ids)
    return lens_logits(weights, h_final[0, -1:])[0]


def generate_greedy(weights: BaseWeights, adapters, prompt, max_new: int,
                    stop_token: int | None) -> list[int]:
    """Greedy decoding of one prompt with every adapter in the set.

    A one-row `decode_batch`; see there for stopping and tie-breaking.
    """
    return decode_batch(weights, adapters, [(prompt, weights.cfg.n_layers)],
                        max_new, stop_token)[0]


# rows decoded together at most; bounds the K/V caches and the prefill
# scores of one batch, so peak memory does not grow with the row count
DECODE_BATCH_ROWS = 16

# padded positions one training backward holds at most (rows x longest
# input, but at least one row); bounds the activation cache it keeps
TRAIN_CHUNK_POSITIONS = 192


def _length_batches(lengths):
    """(length, indices) batches of the rows with the given lengths.

    Row indices are grouped by length, lengths visited in ascending
    order, and each group cut into runs of at most DECODE_BATCH_ROWS
    indices in their original order. Decoding and probing both batch
    by this rule.
    """
    by_length: dict[int, list[int]] = {}
    for i, length in enumerate(lengths):
        by_length.setdefault(length, []).append(i)
    for length in sorted(by_length):
        group = by_length[length]
        for lo in range(0, len(group), DECODE_BATCH_ROWS):
            yield length, group[lo:lo + DECODE_BATCH_ROWS]


def decode_batch(weights: BaseWeights, adapters, rows, max_new: int,
                 stop_token: int | None) -> list[list[int]]:
    """Greedy decoding of many (prompt, keep) rows; one list of new ids per row.

    The adapter at layer l applies to a row iff its keep level is >= l,
    so keep = n_layers uses the whole set and keep = 0 none of it. Each
    row stops at stop_token (None disables it), after max_new tokens, or
    at a full context window, whichever comes first, and its list
    includes the stop token if one was emitted. Ties go to the lowest
    token id.

    Rows are batched by _length_batches (by prompt length, at most
    DECODE_BATCH_ROWS at a time), so no row is padded and no row's
    arithmetic depends on its batch-mates. Each batch runs one prefill over its prompts into
    per-layer K/V caches sized min(prompt + max_new, max_seq), then one
    single-position step per new token; rows that emit the stop token
    leave the batch. Every row is validated before any compute.
    """
    cfg = weights.cfg
    prompts, keeps = _check_rows(cfg, rows, max_new, stop_token)
    outs: list[list[int]] = [[] for _ in prompts]
    for _, batch in _length_batches([ids.size for ids in prompts]):
        ids = np.stack([prompts[i] for i in batch])
        decoded = _decode_rows(weights, adapters, ids, keeps[batch], max_new, stop_token)
        for i, out in zip(batch, decoded):
            outs[i] = out
    return outs


def _check_rows(cfg: ModelConfig, rows, max_new: int, stop_token):
    """Validated prompt id arrays and keep levels of decode rows."""
    if max_new < 0:
        raise InputError(f"max_new must be non-negative, got {max_new}")
    if stop_token is not None and not 0 <= stop_token < cfg.vocab_size:
        raise InputError(f"stop_token {stop_token} outside vocabulary")
    prompts, keeps = [], []
    for i, row in enumerate(rows):
        try:
            prompt, keep = row
        except (TypeError, ValueError):
            raise InputError(f"decode row {i} is not a (prompt, keep) pair") from None
        try:
            prompts.append(_check_tokens(cfg, [prompt])[0])
            keeps.append(check_keep_level(keep, cfg.n_layers))
        except InputError as exc:
            raise InputError(f"decode row {i}: {exc}") from None
    return prompts, np.asarray(keeps, dtype=np.int64)


def _decode_rows(weights: BaseWeights, adapters, ids: np.ndarray, keep: np.ndarray,
                 max_new: int, stop_token) -> list[list[int]]:
    """The greedy decode loop over one batch of equal-length prompts [B, t].

    A batch never steps with one row: BLAS computes a 1-row product with
    another kernel than a row inside a larger one, so a lone live row
    runs twice over (the batch carries it as two equal rows) and row 0
    is read.
    """
    cfg = weights.cfg
    n_rows, t = ids.shape
    outs: list[list[int]] = [[] for _ in range(n_rows)]
    budget = min(max_new, cfg.max_seq - t)
    if budget <= 0:
        return outs
    carried = _two_up(np.arange(n_rows))     # batch row -> row of ids
    step_ids, keep = ids[carried], keep[carried]
    size = min(t + max_new, cfg.max_seq)
    shape = (carried.size, cfg.n_heads, size, cfg.d_model // cfg.n_heads)
    dtype = weights.tensors["tok_emb"].dtype
    kv = [(np.empty(shape, dtype), np.empty(shape, dtype)) for _ in range(cfg.n_layers)]
    live = np.arange(n_rows)
    pos = 0
    for _ in range(budget):
        _, h, _ = _forward(weights, adapters, step_ids, keep=keep, kv=kv, start=pos)
        pos += step_ids.shape[1]
        # argmax takes the first max, i.e. the lowest id
        nxt = np.argmax(lens_logits(weights, h[:, -1]), axis=-1)
        for r, tok in zip(live.tolist(), nxt[:live.size].tolist()):
            outs[r].append(tok)
        if stop_token is not None:
            going = np.flatnonzero(nxt[:live.size] != stop_token)
            if going.size < live.size:
                if not going.size:
                    break
                live, sel = live[going], _two_up(going)
                nxt, keep = nxt[sel], keep[sel]
                kv = [(k[sel], v[sel]) for k, v in kv]
        step_ids = nxt[:, None]
    return outs


def _two_up(rows: np.ndarray) -> np.ndarray:
    """rows, with a lone row listed twice."""
    return np.repeat(rows, 2) if rows.size == 1 else rows


def lens_probs(weights: BaseWeights, hidden: np.ndarray, positions) -> np.ndarray:
    """Per-layer next-token distributions at the given positions: [L, n, vocab].

    hidden is the [L, t, d_model] residual array of one row of forward_collect.
    """
    pos = np.asarray(positions, dtype=np.int64)
    t = hidden.shape[1]
    if pos.size and (pos.min() < 0 or pos.max() >= t):
        raise InputError(f"positions out of range for sequence length {t}")
    return softmax_rows(lens_logits(weights, hidden[:, pos, :]))


# -- backward -----------------------------------------------------------------

def loss_and_grads(weights: BaseWeights, adapters, inputs, targets, mask):
    """Masked next-token cross-entropy and its gradients in one backward pass.

    inputs/targets are aligned id arrays, a batch of right-padded rows
    [B, t]; mask has their shape and selects which target positions
    count, at least one per row. Each row's loss is the mean over its own
    counted positions and a batch's loss is the mean of its rows' losses,
    so a batch gives what the mean of one call per row gives, whatever
    its pad tokens are: causal attention keeps pads out of the earlier
    positions and uncounted positions send no gradient.
    Returns (loss, grads). With adapters=None, grads maps every canonical
    base tensor name to its gradient (pretraining); with a set, it maps
    "layerNN.<proj>.lora_a"/"lora_b" of each adapter in the set to its
    gradient and holds no base tensor (fine-tuning).
    """
    cfg = weights.cfg
    ts = weights.tensors
    ids = _check_tokens(cfg, inputs)
    targets, mask = _check_targets(ids, targets, mask)
    _, h_final, caches = _forward(weights, adapters, ids, keep_cache=True)
    fin_n, inv_f = rmsnorm_fwd(h_final, ts["final_norm"], NORM_EPS)
    head = ts["head"]
    logits = _matmul(fin_n, head)
    loss, d_logits = cross_entropy_grad(logits, targets, mask)

    train_base = adapters is None
    grads: dict[str, np.ndarray] = {}

    def flat(x):
        """[B, t, n] -> [B * t, n]: weight gradients are one 2-D product."""
        return x.reshape(-1, x.shape[-1])

    del logits
    d_fin_n = _matmul(d_logits, head.T)
    if train_base:
        grads["head"] = flat(fin_n).T @ flat(d_logits)
    del d_logits, fin_n   # gone before any layer allocates its gradients
    d_h, d_gain = rmsnorm_bwd(d_fin_n, h_final, inv_f, ts["final_norm"])
    if train_base:
        grads["final_norm"] = d_gain

    scale = None if adapters is None else adapters.scale

    def back_project(d_y, x, w, adapter, mid, base_name, layer, proj):
        """Backward through y = x @ w (+ adapter path). Returns d_x."""
        d_x = _matmul(d_y, w.T)
        if train_base:
            grads[base_name] = flat(x).T @ flat(d_y)
        if adapter is not None:
            d_mid = scale * _matmul(d_y, adapter.b)
            d_x += _matmul(d_mid, adapter.a)
            grads[f"layer{layer:02d}.{proj}.lora_b"] = scale * (flat(d_y).T @ flat(mid))
            grads[f"layer{layer:02d}.{proj}.lora_a"] = flat(d_mid).T @ flat(x)
        return d_x

    for l in range(cfg.n_layers, 0, -1):
        p = f"layer{l:02d}."
        # the layer's activations leave the list here and are freed when c
        # is rebound, before the layer below allocates its gradients
        c = caches.pop()
        ad = c["ad"]

        # ffn half: h = pre_ffn + down(gelu(up(norm(pre_ffn))))
        d_u = back_project(d_h, c["u"], ts[p + "wdown"], ad["down"],
                           c["mids"]["down"], p + "wdown", l, "down")
        d_u_pre = _gelu_bwd(d_u, c["u_pre"], c["th"])
        d_xn2 = back_project(d_u_pre, c["xn2"], ts[p + "wup"], ad["up"],
                             c["mids"]["up"], p + "wup", l, "up")
        d_pre_ffn, d_gain2 = rmsnorm_bwd(d_xn2, c["pre_ffn"], c["inv2"],
                                         ts[p + "ffn_norm"])
        if train_base:
            grads[p + "ffn_norm"] = d_gain2
        d_h = d_h + d_pre_ffn

        # attention half: h = pre_attn + o(attend(q, k, v))
        d_attn = back_project(d_h, c["attn"], ts[p + "wo"], ad["o"],
                              c["mids"]["o"], p + "wo", l, "o")
        d_q, d_k, d_v = _attention_bwd(d_attn, c["att_cache"], cfg.n_heads)
        d_xn1 = back_project(d_q, c["xn1"], ts[p + "wq"], ad["q"],
                             c["mids"]["q"], p + "wq", l, "q")
        d_xn1 += back_project(d_k, c["xn1"], ts[p + "wk"], ad["k"],
                              c["mids"]["k"], p + "wk", l, "k")
        d_xn1 += back_project(d_v, c["xn1"], ts[p + "wv"], ad["v"],
                              c["mids"]["v"], p + "wv", l, "v")
        d_pre_attn, d_gain1 = rmsnorm_bwd(d_xn1, c["pre_attn"], c["inv1"],
                                          ts[p + "attn_norm"])
        if train_base:
            grads[p + "attn_norm"] = d_gain1
        d_h = d_h + d_pre_attn

    if train_base:
        d_tok = np.zeros_like(ts["tok_emb"])
        np.add.at(d_tok, ids, d_h)
        grads["tok_emb"] = d_tok
        d_pos = np.zeros_like(ts["pos_emb"])
        d_pos[:ids.shape[1]] = d_h.sum(axis=0)
        grads["pos_emb"] = d_pos

    return loss, grads
