import collections
import json
import math
import types

import numpy as np
import pytest

from lorabound import vocab
from lorabound.errors import CompatibilityError, InputError, ParseError
from lorabound.tasks import (Dataset, GENERATORS, KEY_POOLS, Sample, SOLVERS,
                             SPLITS, TASK_METRICS, TASK_NAMES, cipher_transform,
                             gen_arith, gen_cipher_mt, gen_kvqa,
                             gen_pretrain_corpus, gen_resp_select,
                             gen_salient_summary, load_dataset, reorder_pairs,
                             sample_ids, save_dataset)
from lorabound.vocab import EOS_ID, decode

SMALL = {"train": 120, "validation": 30, "test": 30}


def all_samples(ds: Dataset) -> list[Sample]:
    return [s for split in SPLITS for s in ds.splits[split]]


class TestRegistries:
    def test_every_task_has_generator_solver_and_metric(self):
        assert set(GENERATORS) == set(TASK_NAMES)
        assert set(SOLVERS) == set(TASK_NAMES)
        assert set(TASK_METRICS) == set(TASK_NAMES)


class TestDeterminism:
    @pytest.mark.parametrize("task", TASK_NAMES)
    def test_same_seed_same_data(self, task):
        a = GENERATORS[task](seed=7, sizes=SMALL)
        b = GENERATORS[task](seed=7, sizes=SMALL)
        assert [s.to_dict() for s in all_samples(a)] == \
               [s.to_dict() for s in all_samples(b)]

    def test_different_seed_different_data(self):
        a = gen_kvqa(seed=1, sizes=SMALL)
        b = gen_kvqa(seed=2, sizes=SMALL)
        assert [s.prompt_text for s in a.train] != [s.prompt_text for s in b.train]


class TestSplitHygiene:
    @pytest.mark.parametrize("task", TASK_NAMES)
    def test_split_sizes_and_disjoint_prompts(self, task):
        ds = GENERATORS[task](seed=3, sizes=SMALL)
        prompts = {split: {s.prompt_text for s in ds.splits[split]} for split in SPLITS}
        for split in SPLITS:
            assert len(ds.splits[split]) == SMALL[split]
            assert len(prompts[split]) == SMALL[split], "duplicate prompts in a split"
        assert not prompts["train"] & prompts["validation"]
        assert not prompts["train"] & prompts["test"]
        assert not prompts["validation"] & prompts["test"]

    def test_kvqa_key_pools_do_not_leak(self):
        ds = gen_kvqa(seed=5, sizes=SMALL)
        pools = {split: set(KEY_POOLS[split]) for split in SPLITS}
        assert not pools["train"] & pools["validation"]
        assert not pools["train"] & pools["test"]
        for split in SPLITS:
            others = set(vocab.KEYS) - pools[split]
            for s in ds.splits[split]:
                used = {w for w in s.prompt_text.split() if w in others}
                assert not used, f"{split} sample uses out-of-pool keys {used}"


class TestSolvability:
    @pytest.mark.parametrize("task", TASK_NAMES)
    def test_oracle_reproduces_every_reference(self, task):
        ds = GENERATORS[task](seed=11, sizes=SMALL)
        solve = SOLVERS[task]
        for s in all_samples(ds):
            assert solve(s.prompt_text) == s.reference_text

    def test_cipher_oracle_covers_both_ood_domains(self):
        for domain in ("ood-a", "ood-b"):
            ds = gen_cipher_mt(seed=13, sizes=SMALL, domain=domain)
            for s in all_samples(ds):
                assert SOLVERS["cipher-mt"](s.prompt_text) == s.reference_text
                assert s.domain == domain


class TestSampleFields:
    def test_reference_ids_end_with_stop_token(self):
        ds = gen_arith(seed=1, sizes={"train": 20, "validation": 4, "test": 4})
        for s in all_samples(ds):
            assert s.reference_ids[-1] == EOS_ID
            assert decode(s.reference_ids) == s.reference_text

    def test_round_trip_through_dict(self):
        s = Sample(prompt_text="compute : 1 + 2 = ?", reference_text="3",
                   task="arith", domain="in-domain", question_type="none")
        assert Sample.from_dict(s.to_dict()).to_dict() == s.to_dict()

    def test_from_dict_missing_field(self):
        with pytest.raises(InputError):
            Sample.from_dict({"prompt": "x"})

    def test_gold_text_per_task(self):
        kv = Sample(prompt_text="", reference_text="answer = v07", task="kvqa")
        assert kv.gold_text() == "v07"
        ar = Sample(prompt_text="", reference_text="3 + 4 = 7 | 7 - 2 = 5 | answer = 5",
                    task="arith")
        assert ar.gold_text() == "5"
        mt = Sample(prompt_text="", reference_text="c01 c02", task="cipher-mt")
        assert mt.gold_text() == "c01 c02"

    def test_gold_text_rejects_malformed_references(self):
        with pytest.raises(InputError):
            Sample(prompt_text="", reference_text="v07", task="kvqa").gold_text()
        with pytest.raises(InputError):
            Sample(prompt_text="", reference_text="no digits", task="arith").gold_text()


class TestSampleIds:
    def test_samples_and_pairs_give_id_lists(self):
        s = Sample(prompt_text="compute : 1 + 2 = ?", reference_text="3", task="arith")
        out = sample_ids([s, ((4, 5), np.array([6, 7]))])
        assert out == [(s.prompt_ids, s.reference_ids), ([4, 5], [6, 7])]
        assert all(type(ids) is list for pair in out for ids in pair)

    @pytest.mark.parametrize("bad", [[1, 2, 3], [1, 2], 7, ([1], [2], [3]),
                                     types.SimpleNamespace(prompt_ids=[1])])
    def test_other_items_are_named_by_index(self, bad):
        with pytest.raises(InputError, match="item 1 is neither a Sample"):
            sample_ids([([1], [2]), bad])


class TestKvqa:
    def test_bridge_ratio_is_exact(self):
        ds = gen_kvqa(seed=9, sizes=SMALL, bridge_ratio=0.75)
        for split in SPLITS:
            n_bridge = sum(1 for s in ds.splits[split] if s.question_type == "bridge")
            assert n_bridge == round(SMALL[split] * 0.75)

    def test_two_documents_per_prompt(self):
        ds = gen_kvqa(seed=9, sizes={"train": 30, "validation": 6, "test": 6})
        for s in all_samples(ds):
            assert s.prompt_text.split().count("doc") == 2

    def test_bad_arguments(self):
        with pytest.raises(InputError):
            gen_kvqa(seed=0, sizes=SMALL, hops=0)
        with pytest.raises(InputError):
            gen_kvqa(seed=0, sizes=SMALL, bridge_ratio=1.5)

    def test_answer_present_in_prompt_for_bridge(self):
        ds = gen_kvqa(seed=21, sizes={"train": 40, "validation": 10, "test": 10})
        for s in all_samples(ds):
            if s.question_type == "bridge":
                answer = s.reference_text.split()[-1]
                assert answer in s.prompt_text.split()


class TestArith:
    def test_all_numbers_stay_in_vocabulary(self):
        ds = gen_arith(seed=17, sizes=SMALL)
        for s in all_samples(ds):
            for w in s.prompt_text.split() + s.reference_text.split():
                if w.isdigit():
                    assert 0 <= int(w) < vocab.NUMBER_LIMIT

    def test_operand_range_is_validated(self):
        with pytest.raises(InputError):
            gen_arith(seed=0, sizes=SMALL, operand_min=2, operand_max=200)


class TestCipher:
    def test_reorder_pairs(self):
        assert reorder_pairs(["a", "b", "c", "d"]) == ["b", "a", "d", "c"]
        assert reorder_pairs(["a", "b", "c"]) == ["b", "a", "c"]
        assert reorder_pairs(["a"]) == ["a"]
        assert reorder_pairs([]) == []

    def test_transform_rejects_uncovered_words(self):
        with pytest.raises(InputError):
            cipher_transform(["k00"])

    def test_unknown_domain(self):
        with pytest.raises(InputError):
            gen_cipher_mt(seed=0, sizes=SMALL, domain="ood-z")

    @pytest.mark.parametrize("domain", ["ood-a", "ood-b"])
    def test_ood_source_distribution_diverges(self, domain):
        # unigram KL(ood || in-domain) over source words, add-0.5 smoothed
        def source_counts(ds):
            counts = collections.Counter()
            for s in all_samples(ds):
                counts.update(s.prompt_text.split()[2:-1])
            return counts

        base = source_counts(gen_cipher_mt(seed=23, sizes=SMALL))
        ood = source_counts(gen_cipher_mt(seed=23, sizes=SMALL, domain=domain))
        support = sorted(set(base) | set(ood))
        bn = sum(base.values()) + 0.5 * len(support)
        on = sum(ood.values()) + 0.5 * len(support)
        kl = 0.0
        for w in support:
            p = (ood[w] + 0.5) / on
            q = (base[w] + 0.5) / bn
            kl += p * math.log(p / q)
        assert kl > 0.5


class TestSummary:
    def test_facts_appear_in_dialog_order(self):
        ds = gen_salient_summary(seed=29, sizes=SMALL)
        for s in all_samples(ds):
            facts = s.reference_text.split(" | ")
            assert 2 <= len(facts) <= 3
            pos = [s.prompt_text.index(f"note {f}") for f in facts]
            assert pos == sorted(pos)


class TestRespSelect:
    def test_labels_exactly_balanced_per_split(self):
        ds = gen_resp_select(seed=31, sizes=SMALL)
        for split in SPLITS:
            refs = [s.reference_text for s in ds.splits[split]]
            assert refs.count("yes") == refs.count("no") == SMALL[split] // 2

    def test_odd_sizes_rejected(self):
        with pytest.raises(InputError):
            gen_resp_select(seed=0, sizes={"train": 5, "validation": 2, "test": 2})


class TestSizes:
    def test_unknown_split_name(self):
        with pytest.raises(InputError):
            gen_arith(seed=0, sizes={"dev": 10})

    def test_negative_size(self):
        with pytest.raises(InputError):
            gen_arith(seed=0, sizes={"train": -1})



class TestPretrainCorpus:
    def test_budget_and_shape(self):
        corpus = gen_pretrain_corpus(seed=0, n_tokens=30_000, max_seq=64)
        total = sum(len(s) for s in corpus)
        assert total >= 30_000
        assert all(2 <= len(s) <= 64 for s in corpus)
        assert all(0 <= t < vocab.VOCAB_SIZE for s in corpus for t in s)

    def test_deterministic(self):
        a = gen_pretrain_corpus(seed=4, n_tokens=20_000)
        b = gen_pretrain_corpus(seed=4, n_tokens=20_000)
        assert a == b

    def test_no_token_dominates(self):
        corpus = gen_pretrain_corpus(seed=0, n_tokens=50_000)
        counts = collections.Counter(t for s in corpus for t in s)
        total = sum(counts.values())
        assert max(counts.values()) / total <= 0.20

    def test_budget_floor(self):
        with pytest.raises(InputError):
            gen_pretrain_corpus(seed=0, n_tokens=100, max_seq=128)


class TestSerialization:
    def test_save_load_round_trip(self, tmp_path):
        ds = gen_kvqa(seed=37, sizes={"train": 20, "validation": 4, "test": 4})
        save_dataset(ds, tmp_path)
        back = load_dataset(tmp_path)
        assert back.task == ds.task
        assert back.seed == ds.seed
        for split in SPLITS:
            assert [s.to_dict() for s in back.splits[split]] == \
                   [s.to_dict() for s in ds.splits[split]]

    def test_missing_metadata(self, tmp_path):
        with pytest.raises(InputError):
            load_dataset(tmp_path)

    def test_vocabulary_mismatch_is_rejected(self, tmp_path):
        ds = gen_arith(seed=1, sizes={"train": 10, "validation": 2, "test": 2})
        save_dataset(ds, tmp_path)
        vpath = tmp_path / "vocab.json"
        data = json.loads(vpath.read_text())
        data["words"][10] = "zz-not-a-word"
        vpath.write_text(json.dumps(data))
        with pytest.raises(CompatibilityError):
            load_dataset(tmp_path)

    def test_corrupt_jsonl_names_the_line(self, tmp_path):
        ds = gen_arith(seed=1, sizes={"train": 4, "validation": 2, "test": 2})
        save_dataset(ds, tmp_path)
        path = tmp_path / "train.jsonl"
        lines = path.read_text().splitlines()
        lines[2] = "{not json"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(InputError, match="train.jsonl:3"):
            load_dataset(tmp_path)

    def test_non_object_jsonl_line_names_the_line(self, tmp_path):
        ds = gen_arith(seed=1, sizes={"train": 4, "validation": 2, "test": 2})
        save_dataset(ds, tmp_path)
        path = tmp_path / "validation.jsonl"
        lines = path.read_text().splitlines()
        lines[1] = "[1]"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(InputError, match="validation.jsonl:2 is not a JSON object"):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("field, value", [("seed", "x"), ("seed", 1.5), ("task", 3)])
    def test_dataset_metadata_types_checked(self, tmp_path, field, value):
        ds = gen_arith(seed=1, sizes={"train": 4, "validation": 2, "test": 2})
        save_dataset(ds, tmp_path)
        meta = json.loads((tmp_path / "dataset.json").read_text())
        meta[field] = value
        (tmp_path / "dataset.json").write_text(json.dumps(meta))
        with pytest.raises(InputError, match="task must be a string and seed an integer"):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("name", ["dataset.json", "vocab.json"])
    def test_non_json_metadata_names_the_file(self, tmp_path, name):
        ds = gen_arith(seed=1, sizes={"train": 4, "validation": 2, "test": 2})
        save_dataset(ds, tmp_path)
        (tmp_path / name).write_text("{not json")
        with pytest.raises(ParseError, match=f"{name} is not valid JSON"):
            load_dataset(tmp_path)

    def test_randomized_round_trips(self, tmp_path):
        rng = np.random.default_rng(505)
        for i in range(5):
            task = TASK_NAMES[int(rng.integers(len(TASK_NAMES)))]
            ds = GENERATORS[task](seed=int(rng.integers(1000)),
                                  sizes={"train": 12, "validation": 2, "test": 2})
            out = tmp_path / f"round{i}"
            save_dataset(ds, out)
            back = load_dataset(out)
            assert [s.to_dict() for s in all_samples(back)] == \
                   [s.to_dict() for s in all_samples(ds)]
