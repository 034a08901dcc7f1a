"""Binary artifact formats and filesystem helpers.

Two container formats share one layout: a 4-byte magic, a u32 format
version, a length-prefixed canonical-JSON header, a u32 tensor count,
named tensor records, and a trailing crc32 of everything before it.
All integers are little-endian u32. Loads fail with ParseError naming
the byte offset, header field or tensor that broke; a tensor holding a
nan or an infinity is rejected too.

Writes go through a temp file plus rename, so a crashed run never
leaves a half-written artifact behind. read_json is the one reader and
write_json the one writer of a stored JSON document.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import tempfile
import zlib

import numpy as np

from .errors import ConfigError, ParseError, ShapeError
from .lora import LoraAdapter, LoraSet, normalize_targets
from .model import BaseWeights, ModelConfig

MAGIC_WEIGHTS = b"LBWT"
MAGIC_ADAPTERS = b"LBAD"
FORMAT_VERSION = 1

_DTYPE_CODES = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_CODE_DTYPES = {v: k for k, v in _DTYPE_CODES.items()}


def atomic_write_bytes(path, data: bytes) -> None:
    """Write via a sibling temp file and rename, so readers never see partials."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def read_json(path) -> dict:
    """The JSON object stored at path; anything else raises ParseError naming it."""
    try:
        with open(path, encoding="utf-8") as f:
            data = json.load(f)
    except ValueError as exc:   # also bad UTF-8, or an integer too long to convert
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError(f"{path} must hold a JSON object, found {type(data).__name__}")
    return data


def write_json(path, doc) -> None:
    """Store doc canonically: sorted keys, compact separators, a trailing
    newline, written atomically; equal documents give equal bytes."""
    atomic_write_text(path, json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")


def file_sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(path, command: str, params: dict, outputs: list[str]) -> None:
    """Record what a command produced; content-addressed and timestamp-free,
    so the same inputs always yield a byte-identical manifest."""
    base = os.path.dirname(os.fspath(path)) or "."
    entries = {os.path.relpath(p, base): file_sha256(p) for p in outputs}
    doc = {"command": command, "params": params, "outputs": entries}
    write_json(path, doc)


# -- container encoding --------------------------------------------------------

def _encode_container(magic: bytes, header: dict,
                      tensors: list[tuple[str, np.ndarray]]) -> bytes:
    parts = [magic, struct.pack("<I", FORMAT_VERSION)]
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    parts.append(struct.pack("<I", len(header_bytes)))
    parts.append(header_bytes)
    parts.append(struct.pack("<I", len(tensors)))
    for name, arr in tensors:
        if arr.dtype not in _DTYPE_CODES:
            arr = arr.astype(np.float32)
        name_bytes = name.encode()
        parts.append(struct.pack("<I", len(name_bytes)))
        parts.append(name_bytes)
        parts.append(struct.pack("<II", _DTYPE_CODES[arr.dtype], arr.ndim))
        parts.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        parts.append(np.ascontiguousarray(arr).tobytes())
    body = b"".join(parts)
    return body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)


class _Reader:
    def __init__(self, data: bytes, path: str):
        self.data = data
        self.pos = 0
        self.path = path

    def take(self, n: int, what: str) -> bytes:
        if self.pos + n > len(self.data):
            raise ParseError(
                f"{self.path}: truncated at offset {self.pos} while reading {what} "
                f"({n} bytes needed, {len(self.data) - self.pos} left)")
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]


def _decode_container(path, magic: bytes) -> tuple[dict, dict[str, np.ndarray]]:
    with open(path, "rb") as f:
        data = f.read()
    r = _Reader(data, os.fspath(path))
    got_magic = r.take(4, "magic")
    if got_magic != magic:
        raise ParseError(
            f"{path}: bad magic {got_magic!r} at offset 0, expected {magic!r}")
    version = r.u32("format version")
    if version != FORMAT_VERSION:
        raise ParseError(
            f"{path}: unsupported format version {version}, expected {FORMAT_VERSION}")
    header_len = r.u32("header length")
    header_at = r.pos
    try:
        header = json.loads(r.take(header_len, "header"))
        # a "\ud800" escape loads as a lone surrogate, which nothing can encode
        json.dumps(header, ensure_ascii=False).encode()
    except ValueError as exc:   # also bad UTF-8, or an integer too long to convert
        raise ParseError(f"{path}: header at offset {header_at} is not valid JSON: {exc}") from exc
    if not isinstance(header, dict):
        raise ParseError(f"{path}: header at offset {header_at} must be a JSON object")
    n_tensors = r.u32("tensor count")
    tensors: dict[str, np.ndarray] = {}
    for i in range(n_tensors):
        name_len = r.u32(f"tensor {i} name length")
        name_at = r.pos
        try:
            name = r.take(name_len, f"tensor {i} name").decode()
        except UnicodeDecodeError as exc:
            raise ParseError(
                f"{path}: tensor {i} name at offset {name_at} is not valid "
                f"UTF-8: {exc}") from exc
        code = r.u32(f"tensor {name!r} dtype")
        if code not in _CODE_DTYPES:
            raise ParseError(f"{path}: tensor {name!r} has unknown dtype code {code}")
        ndim = r.u32(f"tensor {name!r} rank")
        if ndim > 8:
            raise ParseError(f"{path}: tensor {name!r} claims rank {ndim}")
        shape = struct.unpack(f"<{ndim}I", r.take(4 * ndim, f"tensor {name!r} shape"))
        dtype = _CODE_DTYPES[code]
        count = 1
        for s in shape:
            count *= s
        raw = r.take(count * dtype.itemsize, f"tensor {name!r} data")
        if name in tensors:
            raise ParseError(f"{path}: duplicate tensor record {name!r}")
        tensors[name] = np.frombuffer(raw, dtype=dtype).reshape(shape).copy()
    body_end = r.pos
    stored = r.u32("checksum")
    if r.pos != len(data):
        raise ParseError(f"{path}: {len(data) - r.pos} trailing bytes after checksum")
    actual = zlib.crc32(data[:body_end]) & 0xFFFFFFFF
    if stored != actual:
        raise ParseError(
            f"{path}: checksum mismatch (stored {stored:#010x}, computed {actual:#010x})")
    for name, arr in tensors.items():
        if not np.isfinite(arr).all():
            raise ParseError(f"{path}: tensor {name!r} holds non-finite values")
    return header, tensors


# -- model checkpoints ---------------------------------------------------------

def save_weights(path, weights: BaseWeights) -> None:
    header = {
        "kind": "weights",
        "config": weights.cfg.to_dict(),
        "fingerprint": weights.fingerprint(),
    }
    names = sorted(weights.tensors)
    blob = _encode_container(MAGIC_WEIGHTS, header,
                             [(n, weights.tensors[n]) for n in names])
    atomic_write_bytes(path, blob)


def load_weights(path) -> BaseWeights:
    """The weights stored at path, read-only, with the fingerprint its
    header records verified and kept for every later fingerprint()."""
    header, tensors = _decode_container(path, MAGIC_WEIGHTS)
    if "config" not in header:
        raise ParseError(f"{path}: header field 'config' is missing")
    try:
        weights = BaseWeights(ModelConfig.from_dict(header["config"]), tensors)
    except (ConfigError, ShapeError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    stored = header.get("fingerprint")
    actual = weights.freeze().fingerprint()
    if stored != actual:
        raise ParseError(
            f"{path}: header field 'fingerprint' is {stored}, tensors hash to {actual}")
    return weights


# -- adapter sets ---------------------------------------------------------------

def save_adapters(path, lset: LoraSet) -> None:
    """Write lset; a set edited since it was built into one load_adapters
    would reject raises ConfigError and writes nothing."""
    lset.validate()
    header = {
        "kind": "adapters",
        "n_layers": lset.n_layers,
        "alpha": lset.alpha,
        "rank": lset.rank,
        "targets": list(lset.targets),
        "base_fingerprint": lset.fingerprint,
        "content_hash": lset.content_hash(),
    }
    tensors: list[tuple[str, np.ndarray]] = []
    for layer, proj in lset.keys_sorted():
        ad = lset.adapters[(layer, proj)]
        tensors.append((f"layer{layer:02d}.{proj}.a", ad.a))
        tensors.append((f"layer{layer:02d}.{proj}.b", ad.b))
    atomic_write_bytes(path, _encode_container(MAGIC_ADAPTERS, header, tensors))


# JSON types of the header fields a set is built from (a bool is no int)
_ADAPTER_HEADER = {"n_layers": (int,), "alpha": (int, float), "rank": (int,),
                   "targets": (list,), "base_fingerprint": (str,)}


def load_adapters(path) -> LoraSet:
    header, tensors = _decode_container(path, MAGIC_ADAPTERS)
    for field, types in _ADAPTER_HEADER.items():
        if field not in header:
            raise ParseError(f"{path}: header field {field!r} is missing")
        if type(header[field]) not in types:
            raise ParseError(
                f"{path}: header field {field!r} must be "
                f"{' or '.join(t.__name__ for t in types)}, got {header[field]!r}")
    pairs: dict[tuple[int, str], dict[str, np.ndarray]] = {}
    for name, arr in tensors.items():
        parts = name.split(".")
        if len(parts) != 3 or not parts[0].startswith("layer") or parts[2] not in ("a", "b"):
            raise ParseError(f"{path}: unrecognized tensor name {name!r}")
        try:
            layer = int(parts[0][len("layer"):])
        except ValueError:
            raise ParseError(f"{path}: bad layer number in tensor name {name!r}") from None
        pairs.setdefault((layer, parts[1]), {})[parts[2]] = arr
    for key, factors in sorted(pairs.items()):
        if set(factors) != {"a", "b"}:
            raise ParseError(
                f"{path}: adapter at layer {key[0]} {key[1]!r} is missing factor "
                f"{'b' if 'a' in factors else 'a'}")
    try:
        lset = LoraSet(n_layers=header["n_layers"], alpha=header["alpha"],
                       rank=header["rank"], targets=normalize_targets(header["targets"]),
                       fingerprint=header["base_fingerprint"],
                       adapters={key: LoraAdapter(a=f["a"], b=f["b"])
                                 for key, f in sorted(pairs.items())})
    except (ConfigError, ShapeError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    stored = header.get("content_hash")
    if stored is not None and stored != lset.content_hash():
        raise ParseError(
            f"{path}: header field 'content_hash' is {stored}, tensors hash to "
            f"{lset.content_hash()}")
    return lset
