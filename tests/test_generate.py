import hashlib
import itertools
import json
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import condlogic.generate as generate_module

from condlogic import (
    BankError,
    GenConfig,
    GenerationError,
    InvariantError,
    LogicalType,
    NliBank,
    NliRecord,
    Verdict,
    condition_ids,
    config_hash,
    generate_dataset,
    generate_templates,
    instantiate,
    load_nli_bank,
    parse_template_dsl,
    render_template_dsl,
    solve_template,
    validate_template,
)
from condlogic.generate import _derive_seed
from conftest import REFERENCE_TEMPLATE, write_bank


# --- bank loading -----------------------------------------------------------

def test_load_bank_counts(bank):
    assert bank.counts == {"entailment": 20, "contradiction": 20, "neutral": 20}
    assert len(bank) == 60
    assert bank.skipped == 0


def test_load_bank_aliases(tmp_path):
    path = tmp_path / "mnli.jsonl"
    path.write_text(
        json.dumps({"sentence1": "p", "sentence2": "h", "gold_label": "neutral"}) + "\n",
        encoding="utf-8",
    )
    bank = load_nli_bank(path)
    assert bank.by_label["neutral"] == (NliRecord("p", "h", "neutral"),)


def test_load_bank_skips_malformed(tmp_path, caplog):
    path = tmp_path / "dirty.jsonl"
    lines = [
        "not json",
        json.dumps({"premise": "p", "label": "neutral"}),
        json.dumps({"premise": "p", "hypothesis": "h", "label": "maybe"}),
        json.dumps({"premise": "", "hypothesis": "h", "label": "neutral"}),
        "",
        json.dumps({"premise": "p", "hypothesis": "h", "label": "entailment"}),
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with caplog.at_level("WARNING"):
        bank = load_nli_bank(path)
    assert len(bank) == 1
    assert bank.skipped == 4
    assert sum("skipping" in r.message for r in caplog.records) == 4


def test_load_bank_empty_raises(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("not json\n", encoding="utf-8")
    with pytest.raises(BankError):
        load_nli_bank(path)


def test_sample_missing_bucket_raises(tmp_path):
    path = tmp_path / "onesided.jsonl"
    path.write_text(
        json.dumps({"premise": "p", "hypothesis": "h", "label": "neutral"}) + "\n",
        encoding="utf-8",
    )
    bank = load_nli_bank(path)
    import random

    with pytest.raises(BankError):
        bank.sample("entailment", random.Random(0))
    assert bank.sample_any(random.Random(0)).label == "neutral"


# --- configuration ----------------------------------------------------------

@pytest.mark.parametrize(
    "kwargs",
    [
        {"max_conditions": 0},
        {"n_templates": 0},
        {"n_dev": -1},
        {"operator_weights": (0.0, 0.0)},
        {"operator_weights": (-1.0, 2.0)},
        {"distractor_range": (2, 1)},
        {"distractor_range": (-1, 1)},
        {"fact_probability": 1.5},
        {"negation_probability": -0.1},
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(InvariantError):
        GenConfig(seed=0, **kwargs)


def test_config_hash_stable_and_sensitive():
    a = config_hash(GenConfig(seed=1))
    assert a == config_hash(GenConfig(seed=1))
    assert a != config_hash(GenConfig(seed=2))
    assert a != config_hash(GenConfig(seed=1, n_dev=10))
    assert len(a) == 16


# --- template generation ----------------------------------------------------

def test_templates_distinct_valid_and_capped():
    config = GenConfig(seed=7, n_templates=40)
    templates = generate_templates(config)
    assert len(templates) == 40
    rendered = {render_template_dsl(t) for t in templates}
    assert len(rendered) == 40
    for i, t in enumerate(templates):
        assert t.template_id == f"T{i:03d}"
        validate_template(t)
        assert t.n_conditions <= config.max_conditions
        assert 1 <= len(t.groups) <= 1 + config.distractor_range[1]


def test_templates_deterministic_without_cache():
    config = GenConfig(seed=7, n_templates=10)
    assert generate_templates.__wrapped__(config) == generate_templates(config)


def test_templates_exhausted_space():
    config = GenConfig(
        seed=0,
        max_conditions=1,
        n_templates=50,
        distractor_range=(0, 0),
        fact_probability=1.0,
        negation_probability=0.0,
        max_retries=200,
    )
    with pytest.raises(GenerationError):
        generate_templates(config)


def test_templates_cover_operators_and_targets():
    templates = generate_templates(GenConfig(seed=3, n_templates=60))
    targets = {t.target_relation for t in templates}
    assert targets == {"entailed", "contradicted", "neutral", "irrelevant"}
    ops = {g.logical_type for t in templates for g in t.groups}
    assert ops == {LogicalType.ALL, LogicalType.ANY}


# --- instantiation ----------------------------------------------------------

def test_instantiate_reference_template(bank):
    template = parse_template_dsl(REFERENCE_TEMPLATE)
    template = type(template)(**{**template.__dict__, "template_id": "T000"})
    ex = instantiate(template, bank, 0, seed=11)

    # question comes from the bucket matching the target relation
    assert ex.question.startswith("entailment hypothesis")
    # facts a, c use the entailment bucket; not d the contradiction bucket
    assert ex.facts[0].startswith("entailment hypothesis")
    assert ex.facts[1].startswith("entailment hypothesis")
    assert ex.facts[2].startswith("contradiction hypothesis")

    assert [g.result_id for g in ex.context] == ["R0", "R1"]
    # the asked premise is sampled from the target bucket too
    assert ex.context[0].result_text.startswith("entailment premise")
    ids = [c.id for g in ex.context for c in g.conditions]
    assert ids == ["C0", "C1", "C2", "C3"]
    for group in ex.context:
        for cond in group.conditions:
            assert cond.text.startswith(f"{cond.id}: ")
    # the negated slot (not C) carries a textual marker
    assert ex.context[1].conditions[0].text.startswith("C2: not ")

    assert ex.gold == Verdict("entailed", frozenset({"C1"}))
    assert ex.template_id == "T000"


def test_instantiate_deterministic(bank):
    template = parse_template_dsl(REFERENCE_TEMPLATE)
    a = instantiate(template, bank, 3, seed=5)
    b = instantiate(template, bank, 3, seed=5)
    assert a == b
    c = instantiate(template, bank, 4, seed=5)
    assert c != a
    assert c.seed != a.seed


def test_instantiate_single_condition_group_is_required(bank):
    template = parse_template_dsl(
        "If all (A), then U.\nFacts: a.\nQuestion: Is u correct?"
    )
    ex = instantiate(template, bank, 0, seed=1)
    assert ex.context[0].logical_type is LogicalType.REQUIRED


def test_instantiate_irrelevant_target(bank):
    template = parse_template_dsl(
        "If all (A), then U.\nFacts: a.\nQuestion: Is w correct?\nLabel: irrelevant"
    )
    ex = instantiate(template, bank, 0, seed=1)
    assert ex.gold == Verdict("irrelevant", frozenset())
    assert "hypothesis" in ex.question


def test_instantiate_needs_target_bucket(tmp_path):
    path = tmp_path / "neutral_only.jsonl"
    path.write_text(
        json.dumps({"premise": "p", "hypothesis": "h", "label": "neutral"}) + "\n",
        encoding="utf-8",
    )
    bank = load_nli_bank(path)
    template = parse_template_dsl(REFERENCE_TEMPLATE)
    with pytest.raises(BankError):
        instantiate(template, bank, 0, seed=1)


# --- dataset generation -----------------------------------------------------

def test_dataset_counts_and_determinism(bank):
    config = GenConfig(seed=13, n_templates=8, n_dev=25, n_test=10)
    dev = list(generate_dataset(config, bank, "dev"))
    assert len(dev) == 25
    assert dev == list(generate_dataset(config, bank, "dev"))
    test = list(generate_dataset(config, bank, "test"))
    assert len(test) == 10

    known_ids = {t.template_id for t in generate_templates(config)}
    assert {e.template_id for e in dev} <= known_ids
    # splits draw from disjoint random streams
    assert {e.seed for e in dev}.isdisjoint({e.seed for e in test})


def test_dataset_train_stream_unbounded(bank):
    config = GenConfig(seed=13, n_templates=8, n_dev=2, n_test=2)
    stream = generate_dataset(config, bank, "train-stream")
    chunk = list(itertools.islice(stream, 7))
    assert len(chunk) == 7


def test_dataset_unknown_split(bank):
    with pytest.raises(InvariantError):
        next(generate_dataset(GenConfig(seed=1), bank, "validation"))


def test_dataset_gold_matches_resolve(bank):
    from condlogic import condition_ids, solve_template

    config = GenConfig(seed=21, n_templates=10, n_dev=40, n_test=0)
    by_id = {t.template_id: t for t in generate_templates(config)}
    for ex in generate_dataset(config, bank, "dev"):
        template = by_id[ex.template_id]
        symbolic = solve_template(template)
        ids = condition_ids(template)
        expected = Verdict(
            symbolic.label, frozenset(ids[v] for v in symbolic.unsatisfied)
        )
        assert ex.gold == expected


def test_load_bank_skips_non_objects(tmp_path, caplog):
    path = tmp_path / "lists.jsonl"
    lines = ["[1, 2]", "5", '"premise"', json.dumps({"premise": "p", "hypothesis": "h", "label": "neutral"})]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with caplog.at_level("WARNING"):
        bank = load_nli_bank(path)
    assert len(bank) == 1
    assert bank.skipped == 3
    assert [r.message for r in caplog.records][:3] == [
        f"{path}:{n}: not a JSON object, skipping" for n in (1, 2, 3)
    ]


def test_sample_any_matches_bucket_walk():
    records = {
        label: tuple(NliRecord(f"{label} p{i}", f"{label} h{i}", label) for i in range(n))
        for label, n in (("entailment", 3), ("contradiction", 0), ("neutral", 5))
    }
    bank = NliBank(path="mem", by_label=records)
    assert len(bank) == 8

    class Fixed:
        def __init__(self, value):
            self.value = value

        def randrange(self, n):
            assert n == 8
            return self.value

    for index in range(len(bank)):
        # The bucket walk: the index falls through the buckets in label order.
        rest = index
        for label in ("entailment", "contradiction", "neutral"):
            if rest < len(records[label]):
                expected = records[label][rest]
                break
            rest -= len(records[label])
        assert bank.sample_any(Fixed(index)) == expected


# --- compiled plans -----------------------------------------------------------

# sha256 of the files `condlogic generate` writes for the conftest bank
# (60 records), seed 7, 10 templates, 300 dev + 300 test examples. They
# pin byte-identical output across changes to generation.
GOLDEN_DIGESTS = {
    "templates.jsonl": "003232617dbc67374b95bd554387ea0776ef07fea974042a4dd07cd3567abd93",
    "dev.jsonl": "02d4fd58ba8a25632c39e56e9ce5955f9a33f5921aee4cc33be1344ceb203a5b",
    "test.jsonl": "6bd7f63b06b566731a4a5e5c99d02a732aafb642a21a59c627a4badf3cff0e24",
}


def test_generate_golden_digests(tmp_path, bank_path, capsys):
    from condlogic import cli

    out_dir = tmp_path / "data"
    argv = ["generate", "--bank", str(bank_path), "--out", str(out_dir), "--seed", "7",
            "--templates", "10", "--dev", "300", "--test", "300"]
    assert cli.main(argv) == 0
    capsys.readouterr()
    digests = {
        name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest() for name in GOLDEN_DIGESTS
    }
    assert digests == GOLDEN_DIGESTS


def test_dataset_matches_bare_instantiate(bank):
    config = GenConfig(seed=5, n_templates=12, n_dev=60, n_test=0)
    by_id = {t.template_id: t for t in generate_templates(config)}
    split_seed = _derive_seed(config.seed, "dev")
    for index, ex in enumerate(generate_dataset(config, bank, "dev")):
        assert ex == instantiate(by_id[ex.template_id], bank, index, seed=split_seed)


_configs = st.builds(
    GenConfig,
    seed=st.integers(0, 2**32),
    max_conditions=st.integers(1, 12),
    n_templates=st.integers(1, 4),
    n_dev=st.integers(1, 40),
    operator_weights=st.sampled_from([(1.0, 1.0), (1.0, 0.0), (0.0, 1.0), (0.2, 3.0)]),
    fact_probability=st.sampled_from([0.0, 0.3, 0.5, 1.0]),
    negation_probability=st.sampled_from([0.0, 0.25, 0.6, 1.0]),
)


@settings(max_examples=40, deadline=None)
@given(config=_configs)
def test_plan_gold_matches_solver(big_bank, config):
    templates = generate_templates(config)
    by_id = {t.template_id: t for t in templates}
    with mock.patch.object(generate_module, "solve_template", wraps=solve_template) as spy:
        examples = list(generate_dataset(config, big_bank, "dev"))
    # Compiled once per template, not once per example.
    assert spy.call_count == len(templates)

    for ex in examples:
        template = by_id[ex.template_id]
        ids = condition_ids(template)
        symbolic = solve_template(template)
        assert ex.gold == Verdict(symbolic.label, frozenset(ids[v] for v in symbolic.unsatisfied))
        relevant = [
            gi for gi, g in enumerate(template.groups) if g.consequent.lower() == template.question_var
        ]
        relevant_ids = {c.id for gi in relevant for c in ex.context[gi].conditions}
        assert ex.gold.unsatisfied <= relevant_ids
