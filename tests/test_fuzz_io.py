"""Fuzzed artifacts: a damaged or odd .lbad, .lbwt or probe report loads or
raises ParseError, nothing else."""

import dataclasses

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from lorabound.errors import ParseError  # noqa: E402
from lorabound.fileio import (MAGIC_ADAPTERS, MAGIC_WEIGHTS,  # noqa: E402
                              _decode_container, _encode_container, load_adapters,
                              load_weights, save_adapters, save_weights)
from lorabound.lora import init_adapters  # noqa: E402
from lorabound.model import ModelConfig, init_base  # noqa: E402
from lorabound.probe import ProbeReport  # noqa: E402
from lorabound.reports import emit_probe, read_probe_tsv, reemit  # noqa: E402

from helpers import randomize_adapters, randomize_weights  # noqa: E402

MICRO = ModelConfig(n_layers=2, d_model=8, n_heads=2, d_ff=16,
                    vocab_size=16, max_seq=8)

# the same examples on every run, nothing stored between runs
FUZZ = settings(derandomize=True, database=None, max_examples=80, deadline=None)

# strings over the letters of projection names and hex fingerprints, so a
# drawn "targets" list can name real projections, plus a lone surrogate
TEXT = st.text(alphabet="qkvoupdwn.0123456789abcdef é\ud800", max_size=8)
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | TEXT,
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(TEXT, inner, max_size=3)),
    max_leaves=6)


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """(path of a valid .lbad, its bytes, its header, its tensors)."""
    path = tmp_path_factory.mktemp("fuzz") / "valid.lbad"
    save_adapters(path, randomize_adapters(init_adapters(MICRO, seed=0),
                                           np.random.default_rng(1)))
    header, tensors = _decode_container(path, MAGIC_ADAPTERS)
    return path, path.read_bytes(), header, sorted(tensors.items())


@pytest.fixture(scope="module")
def valid_weights(tmp_path_factory):
    """(path of a valid .lbwt, its bytes, its header, its tensors)."""
    path = tmp_path_factory.mktemp("fuzz") / "valid.lbwt"
    save_weights(path, randomize_weights(init_base(MICRO, seed=0), np.random.default_rng(1)))
    header, tensors = _decode_container(path, MAGIC_WEIGHTS)
    return path, path.read_bytes(), header, sorted(tensors.items())


@pytest.fixture(scope="module")
def valid_probe(tmp_path_factory):
    """(path of a valid probe report, its bytes)."""
    path = tmp_path_factory.mktemp("fuzz") / "valid.tsv"
    rng = np.random.default_rng(2)
    report = ProbeReport(n_layers=3, n_tokens=2, sample_count=5,
                         gt_curve=rng.random((3, 2)), max_curve=rng.random((3, 2)),
                         config={"adapters": "abc123", "seed": 4})
    path.write_text(emit_probe(report))
    return path, path.read_bytes()


def damage(blob: bytes, data) -> bytes:
    """blob cut at a drawn offset, or with one drawn byte flipped there."""
    at = data.draw(st.integers(0, len(blob) - 1), label="offset")
    if data.draw(st.booleans(), label="truncate"):
        return blob[:at]
    damaged = bytearray(blob)
    damaged[at] ^= data.draw(st.integers(1, 255), label="xor")
    return bytes(damaged)


@FUZZ
@given(data=st.data())
def test_flipped_or_truncated_file_raises_parse_error(valid, data):
    path, blob, _, _ = valid
    out = path.with_name("damaged.lbad")
    out.write_bytes(damage(blob, data))
    with pytest.raises(ParseError):
        load_adapters(out)


@FUZZ
@given(field=st.sampled_from(["alpha", "base_fingerprint", "content_hash", "kind",
                              "n_layers", "rank", "targets"]),
       value=JSON)
def test_any_header_value_loads_or_raises_parse_error(valid, field, value):
    path, _, header, tensors = valid
    out = path.with_name("header.lbad")
    out.write_bytes(_encode_container(MAGIC_ADAPTERS, {**header, field: value}, tensors))
    try:
        load_adapters(out)
    except ParseError:
        pass


@FUZZ
@given(data=st.data())
def test_flipped_or_truncated_weights_file_raises_parse_error(valid_weights, data):
    path, blob, _, _ = valid_weights
    out = path.with_name("damaged.lbwt")
    out.write_bytes(damage(blob, data))
    with pytest.raises(ParseError):
        load_weights(out)


@FUZZ
@given(field=st.sampled_from([f.name for f in dataclasses.fields(ModelConfig)]),
       value=JSON | st.integers(2 ** 31 - 2, 2 ** 64))
def test_any_model_config_value_loads_or_raises_parse_error(valid_weights, field, value):
    path, _, header, tensors = valid_weights
    out = path.with_name("config.lbwt")
    config = {**header["config"], field: value}
    out.write_bytes(_encode_container(MAGIC_WEIGHTS, {**header, "config": config}, tensors))
    try:
        load_weights(out)
    except ParseError:
        pass


@FUZZ
@given(data=st.data())
def test_flipped_or_truncated_probe_report_loads_or_raises_parse_error(valid_probe, data):
    # a report that loads re-emits byte for byte and holds probabilities
    path, blob = valid_probe
    out = path.with_name("damaged.tsv")
    out.write_bytes(damage(blob, data))
    try:
        report = read_probe_tsv(out)
    except ParseError:
        return
    assert emit_probe(report).encode() == out.read_bytes()
    for curve in (report.gt_curve, report.max_curve):
        assert np.all((curve >= 0.0) & (curve <= 1.0))


@FUZZ
@given(n_layers=st.integers(1, 4), n_tokens=st.integers(1, 3),
       sample_count=st.integers(0, 10 ** 6), seed=st.integers(0, 2 ** 63),
       adapters=st.none() | TEXT, data=st.data())
def test_a_valid_probe_report_reemits_byte_identically(valid_probe, n_layers, n_tokens,
                                                       sample_count, seed, adapters, data):
    curve = st.lists(st.floats(0.0, 1.0), min_size=n_layers * n_tokens,
                     max_size=n_layers * n_tokens)
    gt, mx = (np.reshape(data.draw(curve), (n_layers, n_tokens)) for _ in range(2))
    text = emit_probe(ProbeReport(n_layers=n_layers, n_tokens=n_tokens,
                                  sample_count=sample_count, gt_curve=gt, max_curve=mx,
                                  config={"adapters": adapters, "seed": seed}))
    assert reemit(text) == text
    path = valid_probe[0].with_name("drawn.tsv")
    path.write_text(text)
    assert emit_probe(read_probe_tsv(path)) == text
