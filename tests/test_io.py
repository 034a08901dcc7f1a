"""Checkpoint containers, run configs and TSV reports."""

import json
import struct

import numpy as np
import pytest

from lorabound.boundary import BoundaryDecision
from lorabound.errors import ConfigError, ParseError
from lorabound.fileio import (MAGIC_ADAPTERS, MAGIC_WEIGHTS, _decode_container,
                              _encode_container, atomic_write_bytes,
                              atomic_write_text, file_sha256, load_adapters,
                              load_weights, read_json, save_adapters, save_weights,
                              write_manifest)
from lorabound.lora import init_adapters
from lorabound.metrics import corpus_score
from lorabound.model import ModelConfig, init_base
from lorabound.probe import ProbeReport, probe_ground_truth
from lorabound.reports import (emit_drop_probe, emit_eval, emit_probe,
                               emit_sweep, emit_tsv, parse_tsv, read_probe_tsv,
                               reemit, write_probe_tsv, write_sweep_tsv)
from lorabound.runconfig import RunConfig

from helpers import randomize_adapters, randomize_weights, write_probe_report

MICRO = ModelConfig(n_layers=2, d_model=8, n_heads=2, d_ff=16,
                    vocab_size=16, max_seq=8)


def micro_weights(seed=0):
    return randomize_weights(init_base(MICRO, seed=seed),
                             np.random.default_rng(seed + 1), std=0.3)


def micro_adapters(seed=0):
    return randomize_adapters(init_adapters(MICRO, seed=seed),
                              np.random.default_rng(seed + 2), std=0.3)


class TestAtomicWrites:
    def test_bytes_then_read_back(self, tmp_path):
        p = tmp_path / "blob.bin"
        atomic_write_bytes(p, b"\x00\x01\x02")
        assert p.read_bytes() == b"\x00\x01\x02"

    def test_overwrite_is_complete(self, tmp_path):
        p = tmp_path / "t.txt"
        atomic_write_text(p, "long first version\n")
        atomic_write_text(p, "v2\n")
        assert p.read_text() == "v2\n"

    def test_no_temp_files_left_behind(self, tmp_path):
        atomic_write_text(tmp_path / "a.txt", "x")
        assert [f.name for f in tmp_path.iterdir()] == ["a.txt"]


class TestWeightsContainer:
    def test_round_trip_is_bitwise(self, tmp_path):
        w = micro_weights()
        p = tmp_path / "base.lbwt"
        save_weights(p, w)
        back = load_weights(p)
        assert back.cfg == w.cfg
        assert set(back.tensors) == set(w.tensors)
        for name in w.tensors:
            assert back.tensors[name].dtype == w.tensors[name].dtype
            assert np.array_equal(back.tensors[name], w.tensors[name])
        assert back.fingerprint() == w.fingerprint()

    def test_save_is_deterministic(self, tmp_path):
        w = micro_weights()
        save_weights(tmp_path / "a.lbwt", w)
        save_weights(tmp_path / "b.lbwt", w)
        assert (tmp_path / "a.lbwt").read_bytes() == (tmp_path / "b.lbwt").read_bytes()

    def test_float64_tensors_survive(self, tmp_path):
        w = micro_weights().astype(np.float64)
        p = tmp_path / "w64.lbwt"
        save_weights(p, w)
        back = load_weights(p)
        assert all(t.dtype == np.float64 for t in back.tensors.values())

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.lbwt"
        w = micro_weights()
        save_weights(p, w)
        data = bytearray(p.read_bytes())
        data[:4] = b"NOPE"
        p.write_bytes(bytes(data))
        with pytest.raises(ParseError, match="magic"):
            load_weights(p)

    def test_adapter_file_is_not_a_weights_file(self, tmp_path):
        p = tmp_path / "adapters.lbad"
        save_adapters(p, micro_adapters())
        with pytest.raises(ParseError, match="magic"):
            load_weights(p)

    def test_bad_version(self, tmp_path):
        p = tmp_path / "v9.lbwt"
        save_weights(p, micro_weights())
        data = bytearray(p.read_bytes())
        struct.pack_into("<I", data, 4, 9)
        p.write_bytes(bytes(data))
        with pytest.raises(ParseError, match="version"):
            load_weights(p)

    def test_truncation_names_offset_and_context(self, tmp_path):
        p = tmp_path / "cut.lbwt"
        save_weights(p, micro_weights())
        whole = p.read_bytes()
        p.write_bytes(whole[: len(whole) // 2])
        with pytest.raises(ParseError, match="truncated at offset"):
            load_weights(p)

    def test_corrupt_payload_fails_checksum(self, tmp_path):
        p = tmp_path / "flip.lbwt"
        save_weights(p, micro_weights())
        data = bytearray(p.read_bytes())
        data[len(data) // 2] ^= 0xFF
        p.write_bytes(bytes(data))
        with pytest.raises(ParseError):
            load_weights(p)

    def test_trailing_garbage_rejected(self, tmp_path):
        p = tmp_path / "tail.lbwt"
        save_weights(p, micro_weights())
        p.write_bytes(p.read_bytes() + b"extra")
        with pytest.raises(ParseError, match="trailing"):
            load_weights(p)

    def test_fingerprint_header_is_verified(self, tmp_path):
        # rewrite the header with a wrong fingerprint but a valid checksum
        import zlib
        p = tmp_path / "forged.lbwt"
        save_weights(p, micro_weights())
        data = p.read_bytes()
        header_len = struct.unpack_from("<I", data, 8)[0]
        header = json.loads(data[12:12 + header_len])
        header["fingerprint"] = "0" * len(header["fingerprint"])
        raw = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        assert len(raw) == header_len, "forged header must keep its length"
        body = data[:12] + raw + data[12 + header_len:-4]
        p.write_bytes(body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF))
        with pytest.raises(ParseError, match="fingerprint"):
            load_weights(p)


    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_tensor_rejected(self, tmp_path, bad):
        w = micro_weights()
        w.tensors["layer02.wv"][3, 1] = bad
        p = tmp_path / "m.lbwt"
        save_weights(p, w)
        with pytest.raises(ParseError, match="tensor 'layer02.wv' holds non-finite"):
            load_weights(p)


class TestAdaptersContainer:
    def test_round_trip_is_bitwise(self, tmp_path):
        lset = micro_adapters()
        lset.fingerprint = micro_weights().fingerprint()
        p = tmp_path / "a.lbad"
        save_adapters(p, lset)
        back = load_adapters(p)
        assert back.n_layers == lset.n_layers
        assert back.alpha == lset.alpha
        assert back.rank == lset.rank
        assert back.targets == lset.targets
        assert back.fingerprint == lset.fingerprint
        assert set(back.adapters) == set(lset.adapters)
        for key in lset.adapters:
            assert np.array_equal(back.adapters[key].a, lset.adapters[key].a)
            assert np.array_equal(back.adapters[key].b, lset.adapters[key].b)
        assert back.content_hash() == lset.content_hash()

    def test_partial_sets_round_trip(self, tmp_path):
        from lorabound.lora import drop_above
        lset = drop_above(micro_adapters(), 1)
        p = tmp_path / "partial.lbad"
        save_adapters(p, lset)
        back = load_adapters(p)
        assert {layer for layer, _ in back.adapters} == {1}
        assert back.content_hash() == lset.content_hash()

    def test_weights_file_is_not_an_adapter_file(self, tmp_path):
        p = tmp_path / "w.lbwt"
        save_weights(p, micro_weights())
        with pytest.raises(ParseError, match="magic"):
            load_adapters(p)

    def test_missing_factor_detected(self, tmp_path):
        import zlib
        p = tmp_path / "half.lbad"
        save_adapters(p, micro_adapters())
        data = bytearray(p.read_bytes())
        # rename one ".b" record to ".a" of a bogus projection: pair incomplete
        at = bytes(data).find(b"layer01.q.b")
        assert at != -1
        data[at:at + len(b"layer01.q.b")] = b"layer01.x.b"
        body = bytes(data[:-4])
        p.write_bytes(body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF))
        with pytest.raises(ParseError, match="missing factor"):
            load_adapters(p)

    def test_projection_outside_header_targets_rejected(self, tmp_path):
        p = tmp_path / "gate.lbad"
        save_adapters(p, micro_adapters())
        header, tensors = _decode_container(p, MAGIC_ADAPTERS)
        assert "content_hash" in header
        renamed = sorted((n.replace("layer01.q.", "layer01.gate."), t)
                         for n, t in tensors.items())
        atomic_write_bytes(p, _encode_container(MAGIC_ADAPTERS, header, renamed))
        with pytest.raises(ParseError, match="adapter at layer 1 'gate' is not among"):
            load_adapters(p)

    def test_non_finite_factor_rejected(self, tmp_path):
        lset = micro_adapters()
        lset.adapters[(2, "v")].b[0, 0] = np.nan
        p = tmp_path / "nan.lbad"
        save_adapters(p, lset)
        with pytest.raises(ParseError, match="tensor 'layer02.v.b' holds non-finite"):
            load_adapters(p)


class TestReadJson:
    def test_object_read_back(self, tmp_path):
        p = tmp_path / "doc.json"
        p.write_text('{"a": [1, 2]}')
        assert read_json(p) == {"a": [1, 2]}

    @pytest.mark.parametrize("text, cause", [
        ("{nope", "is not valid JSON"),
        ("[1, 2]", "must hold a JSON object, found list"),
        (b"\xff\xfe", "is not valid JSON"),
    ])
    def test_anything_else_names_the_path(self, tmp_path, text, cause):
        p = tmp_path / "doc.json"
        if isinstance(text, bytes):
            p.write_bytes(text)
        else:
            p.write_text(text)
        with pytest.raises(ParseError, match=cause) as err:
            read_json(p)
        assert str(p) in str(err.value)


class TestManifest:
    def test_lists_outputs_with_hashes(self, tmp_path):
        out = tmp_path / "x.bin"
        out.write_bytes(b"payload")
        m = tmp_path / "manifest.json"
        write_manifest(m, "export", {"keep": 7}, [str(out)])
        data = json.loads(m.read_text())
        assert data["command"] == "export"
        assert data["params"] == {"keep": 7}
        assert data["outputs"]["x.bin"] == file_sha256(out)

    def test_deterministic(self, tmp_path):
        out = tmp_path / "x.bin"
        out.write_bytes(b"payload")
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_manifest(a, "export", {"keep": 7}, [str(out)])
        write_manifest(b, "export", {"keep": 7}, [str(out)])
        assert a.read_text() == b.read_text()


class TestRunConfig:
    def test_default_round_trips(self):
        cfg = RunConfig.default()
        back = RunConfig.from_dict(json.loads(cfg.canonical_json()))
        assert back == cfg

    def test_partial_override(self):
        cfg = RunConfig.from_dict({"train": {"lr": 0.5}, "task": {"name": "arith"}})
        assert cfg.train.lr == 0.5
        assert cfg.task.name == "arith"
        assert cfg.model == ModelConfig()

    def test_unknown_section(self):
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"optimizer": {}})

    def test_unknown_key_in_section(self):
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"train": {"cosine": True}})

    def test_section_must_be_object(self):
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"train": 3})

    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"train": {"lr": -1}})
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"task": {"name": "no-such-task"}})

    def test_load_from_file(self, tmp_path):
        p = tmp_path / "run.json"
        p.write_text(json.dumps({"sweep": {"budget": 7}}))
        assert RunConfig.load(p).sweep.budget == 7

    def test_load_rejects_bad_json(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{nope")
        with pytest.raises(ConfigError):
            RunConfig.load(p)

    @pytest.mark.parametrize("section, key, value, cause", [
        ("train", "epochs", "3", "train.epochs must be an integer, got '3'"),
        ("train", "epochs", 2.5, "train.epochs must be an integer, got 2.5"),
        ("train", "batch", True, "train.batch must be an integer, got True"),
        ("train", "lr", "0.1", "train.lr must be a number"),
        ("pretrain", "grad_clip", False, "pretrain.grad_clip must be a number"),
        ("model", "tied_embeddings", 1, "model.tied_embeddings must be true or false"),
        ("task", "name", 3, "task.name must be a string"),
        ("model", "n_layers", 2.0, "model.n_layers must be an integer"),
        ("model", "norm_eps", None, "model.norm_eps must be a number"),
        ("sweep", "keeps", 5, "sweep.keeps must be a list"),
        ("lora", "targets", None, "lora.targets must be a list"),
    ])
    def test_scalar_of_wrong_json_type_rejected(self, section, key, value, cause):
        with pytest.raises(ConfigError, match=cause):
            RunConfig.from_dict({section: {key: value}})

    def test_number_fields_take_integers(self):
        cfg = RunConfig.from_dict({"train": {"lr": 1, "grad_clip": 0},
                                   "probe": {"keep_levels": None}})
        assert cfg.train.lr == 1 and cfg.train.grad_clip == 0
        assert cfg.probe.keep_levels is None

    def test_model_header_types_checked(self):
        with pytest.raises(ConfigError, match="model.d_model must be an integer"):
            ModelConfig.from_dict({"d_model": "64"})

    def test_tuple_fields_from_lists(self):
        cfg = RunConfig.from_dict({"lora": {"targets": ["v", "q"]},
                                   "sweep": {"keeps": [0, 4, 8]}})
        assert cfg.lora.targets == ("q", "v")
        assert cfg.sweep.keeps == (0, 4, 8)


class TestTsvCore:
    def test_emit_parse_inverse(self):
        text = emit_tsv("demo", {"a": 1}, ["x", "y"], [[1, 0.5], [2, 1.0 / 3.0]])
        kind, meta, columns, rows = parse_tsv(text)
        assert (kind, meta, columns) == ("demo", {"a": 1}, ["x", "y"])
        assert rows == [[1, 0.5], [2, 1.0 / 3.0]]

    def test_reemit_is_identity(self):
        text = emit_tsv("demo", {"b": [1, 2]}, ["v"],
                        [[0.1], [1e-17], [float(np.float32(0.3))], [7]])
        assert reemit(text) == text

    def test_ragged_row_rejected(self):
        with pytest.raises(ValueError):
            emit_tsv("demo", {}, ["x", "y"], [[1]])

    def test_parse_errors(self):
        with pytest.raises(ParseError, match="metadata"):
            parse_tsv("x\ty\n1\t2\n")
        with pytest.raises(ParseError, match="not valid JSON"):
            parse_tsv("# {nope\nx\n")
        with pytest.raises(ParseError, match="cells"):
            parse_tsv('# {"kind":"d","meta":{}}\nx\ty\n1\n')

    def test_randomized_reemit_identity(self):
        rng = np.random.default_rng(909)
        for _ in range(50):
            n_cols = int(rng.integers(1, 5))
            columns = [f"c{i}" for i in range(n_cols)]
            rows = []
            for _ in range(int(rng.integers(0, 6))):
                row = []
                for _ in range(n_cols):
                    pick = rng.integers(3)
                    if pick == 0:
                        row.append(int(rng.integers(-100, 100)))
                    elif pick == 1:
                        row.append(float(rng.standard_normal()))
                    else:
                        row.append("w" + str(int(rng.integers(10))))
                rows.append(row)
            text = emit_tsv("rand", {"i": 1}, columns, rows)
            assert reemit(text) == text


class TestReportFiles:
    def probe_report(self):
        base = micro_weights()
        lset = micro_adapters()
        lset.fingerprint = base.fingerprint()
        samples = [([4, 5, 6], [7, 8]), ([5, 6, 7], [8, 9])]
        return probe_ground_truth(base, lset, samples, n_tokens=2)

    def test_probe_tsv_round_trip(self, tmp_path):
        rep = self.probe_report()
        p = tmp_path / "probe.tsv"
        write_probe_tsv(p, rep)
        back = read_probe_tsv(p)
        assert np.array_equal(back.gt_curve, rep.gt_curve)
        assert np.array_equal(back.max_curve, rep.max_curve)
        assert back.config == rep.config
        assert reemit(p.read_text()) == p.read_text()

    def test_probe_tsv_kind_checked(self, tmp_path):
        p = tmp_path / "notprobe.tsv"
        p.write_text(emit_tsv("sweep", {}, ["x"], [[1]]))
        with pytest.raises(ParseError, match="probe"):
            read_probe_tsv(p)

    @pytest.mark.parametrize("key", ["n_layers", "n_tokens", "sample_count", "config"])
    def test_probe_tsv_missing_meta_rejected(self, tmp_path, key):
        p = write_probe_report(tmp_path / "p.tsv", drop=[key])
        with pytest.raises(ParseError, match=f"probe metadata is missing \\['{key}'\\]"):
            read_probe_tsv(p)

    @pytest.mark.parametrize("meta, cause", [
        ({"n_tokens": 5}, "columns .* are not layer, gt_1..5, max_1..5"),
        ({"n_tokens": 3}, "columns .* are not layer, gt_1..3, max_1..3"),
        ({"n_layers": 3}, "rows must be layers 1..3"),
        ({"n_layers": 1}, "rows must be layers 1..1"),
        ({"n_tokens": "4"}, "n_layers and n_tokens must be positive integers"),
        ({"sample_count": -1}, "sample_count a non-negative integer"),
        ({"config": [1]}, "config an object"),
    ], ids=["n_tokens_5", "n_tokens_3", "n_layers_3", "n_layers_1", "n_tokens_str",
            "negative_count", "config_list"])
    def test_probe_tsv_shape_mismatch_rejected(self, tmp_path, meta, cause):
        p = write_probe_report(tmp_path / "p.tsv", **meta)
        with pytest.raises(ParseError, match=cause):
            read_probe_tsv(p)

    def test_probe_tsv_rows_and_cells_checked(self, tmp_path):
        p = write_probe_report(tmp_path / "p.tsv")
        head, columns, first, second = p.read_text().splitlines()
        p.write_text("\n".join([head, columns, second, first]) + "\n")
        with pytest.raises(ParseError, match="rows must be layers 1..2 in order"):
            read_probe_tsv(p)
        p.write_text("\n".join([head, columns, first, second.replace("0.5", "x")]) + "\n")
        with pytest.raises(ParseError, match="non-numeric cell"):
            read_probe_tsv(p)

    def test_drop_probe_layout(self):
        rep = self.probe_report()
        text = emit_drop_probe([(0, rep), (2, rep)])
        kind, meta, columns, rows = parse_tsv(text)
        assert kind == "drop-probe"
        assert columns == ["layer", "keep00", "keep02"]
        assert len(rows) == rep.n_layers
        assert reemit(text) == text

    def test_sweep_tsv(self, tmp_path):
        dec = BoundaryDecision(k_star=1, per_k_scores={0: 0.25, 1: 0.5, 2: 0.5},
                               metric="em", sample_count=4, method="sweep",
                               seed=0, set_hash="ff")
        p = tmp_path / "sweep.tsv"
        write_sweep_tsv(p, dec)
        kind, meta, columns, rows = parse_tsv(p.read_text())
        assert kind == "sweep"
        assert columns == ["keep", "score"]
        assert rows == [[0, 0.25], [1, 0.5], [2, 0.5]]
        assert meta["k_star"] == 1
        assert "per_k_scores" not in meta
        assert reemit(p.read_text()) == p.read_text()

    def test_eval_tsv(self):
        rep = corpus_score("em", ["a b", "c"], ["b", "z"])
        text = emit_eval(rep, preds=["a b", "c"], golds=["b", "z"])
        kind, meta, columns, rows = parse_tsv(text)
        assert kind == "eval"
        assert meta["metric"] == "em"
        assert columns == ["index", "score", "prediction", "gold"]
        assert rows[0] == [0, 1.0, "a b", "b"]
        assert rows[1] == [1, 0.0, "c", "z"]
        assert reemit(text) == text
