"""Shared test utilities: finite-difference gradient checks, comparisons and fixtures."""

from __future__ import annotations

import numpy as np

from lorabound.fileio import _encode_container, atomic_write_bytes
from lorabound.model import BaseWeights
from lorabound.probe import ProbeReport
from lorabound.reports import emit_probe, emit_tsv, parse_tsv


def rel_error(a: np.ndarray, b: np.ndarray, floor: float = 1e-12) -> float:
    """Norm-level relative difference, safe for near-zero gradients."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    na = float(np.linalg.norm(a.ravel()))
    nb = float(np.linalg.norm(b.ravel()))
    diff = float(np.linalg.norm((a - b).ravel()))
    return diff / max(na, nb, floor)


def fd_grad(loss_fn, x: np.ndarray, eps: float) -> np.ndarray:
    """Central finite differences of loss_fn() w.r.t. every entry of x.

    loss_fn must read x by reference (it is perturbed in place and restored).
    """
    assert x.flags["C_CONTIGUOUS"]
    g = np.zeros(x.shape, dtype=np.float64)
    flat = x.ravel()
    gflat = g.ravel()
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + eps
        up = loss_fn()
        flat[i] = keep - eps
        down = loss_fn()
        flat[i] = keep
        gflat[i] = (up - down) / (2.0 * eps)
    return g


def randomize_weights(weights, rng, std: float = 0.5):
    """Overwrite every base tensor with healthy random values for grad checks."""
    for name, t in weights.tensors.items():
        if name.endswith("_norm"):
            t[...] = rng.normal(1.0, 0.2, size=t.shape).astype(t.dtype)
        else:
            t[...] = rng.normal(0.0, std / np.sqrt(t.shape[-1]), size=t.shape).astype(t.dtype)
    return weights


def randomize_adapters(lset, rng, std: float = 0.5, dtype=None):
    """Give A and B nonzero values so adapter gradients are exercised."""
    for ad in lset.adapters.values():
        dt = dtype if dtype is not None else ad.a.dtype
        ad.a = rng.normal(0.0, std / np.sqrt(ad.a.shape[1]), size=ad.a.shape).astype(dt)
        ad.b = rng.normal(0.0, std / np.sqrt(ad.b.shape[1]), size=ad.b.shape).astype(dt)
    return lset


def write_probe_report(path, drop=(), tail=b"", **meta):
    """A stored two-layer, four-token probe report. Keys in `meta` replace
    the file's meta values; keys in `drop` are removed; the bytes `tail`
    follow the last row."""
    rep = ProbeReport(n_layers=2, n_tokens=4, sample_count=3,
                      gt_curve=np.full((2, 4), 0.25),
                      max_curve=np.full((2, 4), 0.5), config={"seed": 0})
    kind, head, columns, rows = parse_tsv(emit_probe(rep))
    head.update(meta)
    for key in drop:
        del head[key]
    path.write_bytes(emit_tsv(kind, head, columns, rows).encode() + tail)
    return path


def write_container(path, magic, header, tensors):
    """A container file holding exactly this header and these tensors (a name
    -> array dict), past every check save_weights and save_adapters run: the
    way to store a file that a loader must reject."""
    atomic_write_bytes(path, _encode_container(magic, header, sorted(tensors.items())))


def count_hashes(monkeypatch):
    """The weights each BaseWeights.weights_hash call hashed, in call order;
    it is the one place base tensors are hashed."""
    calls = []
    real = BaseWeights.weights_hash

    def counted(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(BaseWeights, "weights_hash", counted)
    return calls
