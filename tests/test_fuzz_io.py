"""Fuzzed adapter files: a damaged or odd .lbad loads or raises ParseError, nothing else."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from lorabound.errors import ParseError  # noqa: E402
from lorabound.fileio import (MAGIC_ADAPTERS, _decode_container,  # noqa: E402
                              _encode_container, load_adapters, save_adapters)
from lorabound.lora import init_adapters  # noqa: E402
from lorabound.model import ModelConfig  # noqa: E402

from helpers import randomize_adapters  # noqa: E402

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


@FUZZ
@given(data=st.data())
def test_flipped_or_truncated_file_raises_parse_error(valid, data):
    path, blob, _, _ = valid
    at = data.draw(st.integers(0, len(blob) - 1), label="offset")
    if data.draw(st.booleans(), label="truncate"):
        damaged = blob[:at]
    else:
        damaged = bytearray(blob)
        damaged[at] ^= data.draw(st.integers(1, 255), label="xor")
    out = path.with_name("damaged.lbad")
    out.write_bytes(bytes(damaged))
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
