import dataclasses
import hashlib
import itertools
import json
import os
import random
import subprocess
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import condlogic.generate as generate_module

from condlogic import (
    BankError,
    FactRelation,
    GenConfig,
    GenerationError,
    InvariantError,
    LogicalType,
    NliBank,
    NliRecord,
    TaskProfile,
    Verdict,
    condition_ids,
    config_hash,
    derive_answer,
    generate_dataset,
    generate_templates,
    load_nli_bank,
    parse_template_dsl,
    render_template_dsl,
    resolve_state,
    solve_template,
    template_groups,
    validate_template,
)
from condlogic.dataset_io import example_to_dict, plan_line
from condlogic.generate import SPLITS, _derive_seed, _draw, _drawer, _draws, _texts, compile_template
from condlogic.jsonl import string_body
from conftest import REFERENCE_TEMPLATE, example_of, write_bank


# --- bank loading -----------------------------------------------------------

def test_load_bank_counts(bank):
    assert bank.counts == {"entailment": 20, "contradiction": 20, "neutral": 20}
    assert len(bank) == 60
    assert bank.skipped == 0


def test_load_bank_aliases(tmp_path, caplog):
    path = tmp_path / "mnli.jsonl"
    records = [
        {"sentence1": "p", "sentence2": "h", "gold_label": "neutral"},
        # A present key wins over its alias, even when it is empty or null.
        {"premise": "", "sentence1": "p", "hypothesis": "h", "label": "neutral"},
        {"premise": "p", "hypothesis": None, "sentence2": "h", "label": "neutral"},
        # One record may mix the two schemas.
        {"premise": "q", "sentence2": "g", "gold_label": "entailment"},
    ]
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    with caplog.at_level("WARNING"):
        bank = load_nli_bank(path)
    assert bank.by_label["neutral"] == (NliRecord("p", "h", "neutral"),)
    assert bank.by_label["entailment"] == (NliRecord("q", "g", "entailment"),)
    assert bank.skipped == 2
    assert sum("missing or empty fields" in r.message for r in caplog.records) == 2


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
    # A bucket under a label outside NLI_LABELS holds no record of `records`, so it cannot be drawn.
    odd = NliBank("p", {"foo": (NliRecord("p", "h", "foo"),)})
    with pytest.raises(BankError, match="^bank 'p' has no 'foo' records$"):
        odd.sample("foo", random.Random(0))


def test_sample_any_on_an_empty_bank_raises():
    import random

    with pytest.raises(BankError, match="^bank 'p' is empty$"):
        NliBank("p", {}).sample_any(random.Random(0))
    # No span has size 0, on which _draw's redraw loop would never end.
    with pytest.raises(BankError, match="^bank 'p' is empty$"):
        NliBank("p", {}).span(None)


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
        assert sum(len(g.conditions) for g in t.groups) <= config.max_conditions
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
    ex = example_of(template, bank, 0, seed=11)

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
    a = example_of(template, bank, 3, seed=5)
    b = example_of(template, bank, 3, seed=5)
    assert a == b
    c = example_of(template, bank, 4, seed=5)
    assert c != a
    assert c.seed != a.seed


def test_instantiate_single_condition_group_is_required(bank):
    template = parse_template_dsl(
        "If all (A), then U.\nFacts: a.\nQuestion: Is u correct?"
    )
    ex = example_of(template, bank, 0, seed=1)
    assert ex.context[0].logical_type is LogicalType.REQUIRED


def test_instantiate_irrelevant_target(bank):
    template = parse_template_dsl(
        "If all (A), then U.\nFacts: a.\nQuestion: Is w correct?\nLabel: irrelevant"
    )
    ex = example_of(template, bank, 0, seed=1)
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
        example_of(template, bank, 0, seed=1)


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
# (60 records), seed 7, 10 templates, 300 dev + 300 test + 50 train
# examples, with each split's manifest. They pin byte-identical output
# across changes to generation; the train split's seed tag is
# ``train-stream``.
GOLDEN_DIGESTS = {
    "templates.jsonl": "003232617dbc67374b95bd554387ea0776ef07fea974042a4dd07cd3567abd93",
    "dev.jsonl": "02d4fd58ba8a25632c39e56e9ce5955f9a33f5921aee4cc33be1344ceb203a5b",
    "test.jsonl": "6bd7f63b06b566731a4a5e5c99d02a732aafb642a21a59c627a4badf3cff0e24",
    "train.jsonl": "1f63d7d0e28cd07b177822e688175eced9056502c43c075df18f274bd4aa9b38",
    "dev.jsonl.manifest": "b31d59c12dc60540c689b71e018614f92fdfbd1809c486b3da9492017ccfc2c8",
    "test.jsonl.manifest": "674ed580cced1ccd14fee83dfcca912a196e3522ac364756d75ae592c56d1f82",
    "train.jsonl.manifest": "3c98fa9866639c2bb9a262090c0df6415251aeeea54210acd406c859b7119e1a",
}


def test_generate_golden_digests(tmp_path, bank_path, capsys):
    from condlogic import cli

    out_dir = tmp_path / "data"
    argv = ["generate", "--bank", str(bank_path), "--out", str(out_dir), "--seed", "7",
            "--templates", "10", "--dev", "300", "--test", "300", "--train", "50"]
    assert cli.main(argv) == 0
    capsys.readouterr()
    digests = {
        name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest() for name in GOLDEN_DIGESTS
    }
    assert digests == GOLDEN_DIGESTS


# Bank texts a JSON encoder must escape (quote, backslash, control characters), ones it
# writes as they are (U+2028, non-ASCII, astral), and ones that read as format fields or as
# a line's placeholders, old and new; "plain" needs no escape.
_ESCAPING_TEXTS = [
    'say "hi"', "back\\slash", "tab\there", "nul\x00 unit\x1f", "line\nbreak\r", "\u2028sep\u2029",
    "caf\u00e9 na\u00efve", "astral \U0001f600\U00010348", "{0} {} }{", "\ue0001", "\ue000{1}", "\ue000{10}",
    "18446744073709551616", "plain",
]


def write_escaping_bank(path, n=42):
    """A balanced bank whose premises and hypotheses cycle through ``_ESCAPING_TEXTS``."""
    labels = ("entailment", "contradiction", "neutral")
    k = len(_ESCAPING_TEXTS)
    with open(path, "w", encoding="utf-8") as handle:
        for i in range(n):
            premise, hypothesis = _ESCAPING_TEXTS[i % k], _ESCAPING_TEXTS[(5 * i + 3) % k]
            if i >= k:
                premise, hypothesis = f"{premise} {i}", f"{i} {hypothesis}"
            record = {"premise": premise, "hypothesis": hypothesis, "label": labels[i % 3]}
            handle.write(json.dumps(record, ensure_ascii=i % 2 == 0) + "\n")


# sha256 of what `condlogic generate` writes for ``write_escaping_bank``, master seed -7,
# 12 templates, 200 dev + 200 test + 40 train examples; recorded before a split line was
# made of escaped text bodies, so they pin the escape path byte for byte.
ESCAPING_DIGESTS = {
    "templates.jsonl": "a17866cfc21cf0362849519c913948b9cba2f02769a89d8329e7b9dd902a1de0",
    "dev.jsonl": "9e1f0180a8ba384828686155c5a9d4bb2c628e56f73eccba695e4ea7d36d85e9",
    "test.jsonl": "d819e5f04c2b4d39f899d7912f439374ddcd819eb370370d232240857622ba33",
    "train.jsonl": "2c21532cfa62beed27c4728d1151419d4969b7f2b602d24b14652d4e93f1789e",
    "dev.jsonl.manifest": "7043171c483e21bdd9ec710e86e39c6c684d9068c5efa49453e58ded04b1c313",
    "test.jsonl.manifest": "03f24e45fe0b7998f1af2dd0877ac0a2c284cd41e4292118d3c2365cbd2d730e",
    "train.jsonl.manifest": "8282677b8aa196c7d85d36630fecc2266fb59cf8e7911775e7b14dac75b857e2",
}


def test_generate_golden_digests_over_a_bank_that_needs_escaping(tmp_path, capsys):
    from condlogic import cli

    bank_path = tmp_path / "bank.jsonl"
    write_escaping_bank(bank_path)
    assert len(load_nli_bank(bank_path)) == 42
    out_dir = tmp_path / "data"
    argv = ["generate", "--bank", str(bank_path), "--out", str(out_dir), "--seed=-7",
            "--templates", "12", "--dev", "200", "--test", "200", "--train", "40"]
    assert cli.main(argv) == 0
    capsys.readouterr()
    digests = {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest() for name in GOLDEN_DIGESTS}
    assert digests == ESCAPING_DIGESTS


_PYENV_VERSIONS = Path.home() / ".pyenv" / "versions"


@pytest.mark.parametrize("minor", ["3.10", "3.11", "3.12", "3.13", "3.14"])
def test_generate_same_bytes_on_every_python(tmp_path, bank_path, minor):
    # The runtime needs only the stdlib, so any installed interpreter can run it.
    pythons = sorted(_PYENV_VERSIONS.glob(f"{minor}.*/bin/python"))
    if not pythons:
        pytest.skip(f"no Python {minor} under {_PYENV_VERSIONS}")
    src = Path(__file__).resolve().parent.parent / "src"

    def digests(bank, *args):
        out_dir = tmp_path / bank.stem
        argv = [str(pythons[-1]), "-m", "condlogic.cli", "generate", "--bank", str(bank), "--out", str(out_dir), *args]
        result = subprocess.run(
            argv, env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=60
        )
        assert result.returncode == 0, result.stderr
        return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest() for name in GOLDEN_DIGESTS}

    assert digests(bank_path, "--seed", "7", "--templates", "10", "--dev", "300", "--test", "300",
                   "--train", "50") == GOLDEN_DIGESTS
    escaping_bank = tmp_path / "escaping.jsonl"
    write_escaping_bank(escaping_bank)
    assert digests(escaping_bank, "--seed=-7", "--templates", "12", "--dev", "200", "--test", "200",
                   "--train", "40") == ESCAPING_DIGESTS


def test_dataset_matches_bare_instantiate(bank):
    config = GenConfig(seed=5, n_templates=12, n_dev=60, n_test=0)
    by_id = {t.template_id: t for t in generate_templates(config)}
    split_seed = _derive_seed(config.seed, "dev")
    for index, ex in enumerate(generate_dataset(config, bank, "dev")):
        assert ex == example_of(by_id[ex.template_id], bank, index, seed=split_seed)


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
    with mock.patch.object(generate_module, "template_groups", wraps=template_groups) as spy:
        examples = list(generate_dataset(config, big_bank, "dev"))
    # Compiled (its groups resolved and solved) once per template, not once per example.
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


@pytest.mark.parametrize(
    "dsl", [REFERENCE_TEMPLATE, REFERENCE_TEMPLATE.replace("Is u", "Is w").replace("entailed, if B", "irrelevant")],
    ids=["asked", "irrelevant"],
)
def test_draw_samples_the_bank_once_per_listed_draw(bank, dsl):
    plan = compile_template(parse_template_dsl(dsl))
    assert (plan.relevant is None) == ("irrelevant" in dsl)
    spans = [bank.span(label) for label in plan.draws]
    rng = random.Random(11)
    with mock.patch.object(rng, "getrandbits", wraps=rng.getrandbits) as getrandbits:
        picks = _draw(spans, rng)
    # One draw per listed draw, over its bucket's size (the whole bank for None): a twin
    # Random's randrange(size) walk, which asks getrandbits for the same bits in the same order.
    sizes = [len(bank) if label is None else bank.counts[label] for label in plan.draws]
    assert [size for _, size in spans] == sizes
    twin = random.Random(11)
    with mock.patch.object(twin, "getrandbits", wraps=twin.getrandbits) as twin_getrandbits:
        walked = [offset + twin.randrange(size) for offset, size in spans]
    assert picks == walked
    assert getrandbits.call_args_list == twin_getrandbits.call_args_list
    assert len(picks) == len(plan.draws)
    for pick, label in zip(picks, plan.draws):
        assert label is None or bank.records[pick].label == label


# Sizes up to 2**20, with the powers of two (and one past them), where a draw is refused most often.
_draw_sizes = (
    st.integers(1, 2**20) | st.integers(0, 20).map(lambda k: 2**k) | st.integers(0, 19).map(lambda k: 2**k + 1)
)


@given(seed=st.integers(0, 2**64 - 1), spans=st.lists(st.tuples(st.integers(0, 2**20), _draw_sizes), max_size=12))
@example(seed=0, spans=[(0, 1), (0, 2), (5, 3), (0, 4), (0, 5), (7, 2**19), (0, 2**19 + 1), (0, 2**20)])
def test_draw_is_the_randrange_walk_of_a_twin_random(seed, spans):
    twin = random.Random(seed)
    assert _draw(spans, random.Random(seed)) == [offset + twin.randrange(size) for offset, size in spans]


_FACT_RELATION = {"entailment": FactRelation.SUPPORTS, "contradiction": FactRelation.CONTRADICTS}
_INTRINSIC = {"entailment": "entailed", "contradiction": "contradicted", "neutral": "neutral"}


@settings(max_examples=40, deadline=None)
@given(config=_configs)
def test_gold_follows_from_sampled_labels(big_bank, config):
    # big_bank texts start with their NLI label, so an example reveals the
    # evidence its records give each condition. The template supplies only
    # which condition each fact is about and which group is asked.
    by_id = {t.template_id: t for t in generate_templates(config)}
    for ex in generate_dataset(config, big_bank, "dev"):
        template = by_id[ex.template_id]
        ids = condition_ids(template)
        fact_of = {ids[f.var]: text for f, text in zip(template.facts, ex.facts)}
        _, relevant = template_groups(template)
        groups = []
        for gi, g in enumerate(ex.context):
            conditions = []
            for c in g.conditions:
                negated = c.text.startswith(f"{c.id}: not ")
                fact = fact_of.get(c.id)
                relation = _FACT_RELATION[fact.split()[0]] if fact is not None else None
                evidence = resolve_state(negated, relation)
                conditions.append(dataclasses.replace(c, negated=negated, evidence=evidence))
            intrinsic = _INTRINSIC[ex.question.split()[0]] if gi == relevant else None
            groups.append(dataclasses.replace(g, conditions=tuple(conditions), intrinsic_relation=intrinsic))
        assert derive_answer(groups, relevant, TaskProfile.CONDNLI) == ex.gold


# Texts a JSON encoder must escape, non-ASCII ones, and ones that look like a line's placeholders.
_bank_texts = st.text(min_size=1, max_size=8) | st.sampled_from(
    ['"', "\\", "a\x00\x1fb", "\u2028\u2029", "0", "18446744073709551616", "\ue000", "\ue0000", "{0}",
     "caf\u00e9 \U0001f600", "\ue000{1}", "\ue000{10}"]
)
_bank_buckets = st.lists(st.tuples(_bank_texts, _bank_texts), min_size=1, max_size=3)


@settings(max_examples=40, deadline=None)
@given(config=_configs, buckets=st.tuples(_bank_buckets, _bank_buckets, _bank_buckets))
def test_plan_lines_are_the_encoded_examples(config, buckets):
    config = dataclasses.replace(config, n_test=config.n_dev)
    labels = ("entailment", "contradiction", "neutral")
    bank = NliBank(
        path="mem",
        by_label={label: tuple(NliRecord(p, h, label) for p, h in bucket) for label, bucket in zip(labels, buckets)},
    )
    plans = [compile_template(t) for t in generate_templates(config)]
    lines = {plan.template_id: plan_line(plan) for plan in plans}
    # The escaped bodies, as `condlogic generate` makes them.
    premises = [string_body(record.premise) for record in bank.records]
    hypotheses = [string_body(record.hypothesis) for record in bank.records]
    for split in SPLITS:
        pairs = itertools.islice(zip(_draws(config, bank, split, plans), generate_dataset(config, bank, split)), 40)
        for (plan, example_seed, picks), example in pairs:
            assert plan.template_id == example.template_id
            line = lines[plan.template_id](example_seed, _texts(plan, picks, premises, hypotheses))
            assert line == json.dumps(example_to_dict(example), ensure_ascii=False) + "\n"


def test_plan_line_with_more_than_ten_texts(big_bank):
    # 3 groups, 8 conditions, 4 facts and a question: 16 texts, so holes 1 and 10 to 15 all occur.
    template = parse_template_dsl(
        "If all (A, not B, C), then U.\nIf any (D, E), then V.\nIf all (F, G, H), then W.\n"
        "Facts: a, not b, e, not h.\nQuestion: Is v correct?\n"
    )
    plan = compile_template(dataclasses.replace(template, template_id="T010"))
    assert len(plan.prefixes) + len(plan.hypotheses) == 16
    line = plan_line(plan)
    texts = ['q"uote', "back\\slash", "\x00\x1f", "\u2028", "caf\u00e9", "\U0001f600", "{0}", "{}", "\ue000{1}",
             "\ue000{10}", "\ue0001", "1", "10", "plain", "\n", "}{"]
    example = generate_module._example(plan, 42, texts)
    assert example.context[0].conditions[1].text == "C1: not \x00\x1f"
    assert line(42, [string_body(t) for t in texts]) == json.dumps(example_to_dict(example), ensure_ascii=False) + "\n"


_seed_part = (
    st.integers() | st.integers(min_value=2**64, max_value=2**200) | st.integers(min_value=-2**200, max_value=-1)
    | st.text() | st.sampled_from(["dev", "pick", "T\u00e9", "\u6587\U0001f600", "\x1f", ""])
)


@given(st.lists(_seed_part, min_size=1, max_size=4))
@example([-123456789, "train-stream", 10**6, "pick"])
@example([2**64 + 1, "T\u00e9\x1f", -(2**70)])
def test_derive_seed_is_the_sha256_of_the_joined_parts(parts):
    payload = "\x1f".join(map(str, parts)).encode("utf-8")
    assert _derive_seed(*parts) == int.from_bytes(hashlib.sha256(payload).digest()[:8], "big")


@pytest.mark.parametrize("split", SPLITS)
def test_stream_seeds_are_the_derived_seeds(big_bank, split):
    # The stream hashes each seed from a per-stream prefix and reseeds one Random; its seeds,
    # plans and picks must be those of _derive_seed, Random(seed) and the bucket walk.
    config = GenConfig(seed=-123456789, n_templates=65, n_dev=10**6 + 1, n_test=10**6 + 1)
    plans = [compile_template(t) for t in generate_templates(config)]
    draw = _drawer(config, big_bank, split, plans)
    split_seed = _derive_seed(config.seed, split)
    for index in (0, 1, 2, 9, 10, 11, 99, 100, 4096, 65535, 123457, 999_999, 10**6):
        with mock.patch.object(random.Random, "seed", autospec=True, side_effect=random.Random.seed) as seeded:
            plan, example_seed, picks = draw(index)
        pick_seed = _derive_seed(config.seed, split, index, "pick")
        assert plan is plans[random.Random(pick_seed).randrange(len(plans))]
        assert example_seed == _derive_seed(split_seed, plan.template_id, index)
        assert [c.args[1:] for c in seeded.call_args_list] == [(pick_seed,), (example_seed,)]
        rng = random.Random(example_seed)
        buckets = {None: big_bank.records, **big_bank.by_label}
        walked = [buckets[label][rng.randrange(len(buckets[label]))] for label in plan.draws]
        assert [big_bank.records[i] for i in picks] == walked
        rng = random.Random(example_seed)
        assert [big_bank.sample_any(rng) if d is None else big_bank.sample(d, rng) for d in plan.draws] == walked
        assert all(big_bank.records[i] is record for i, record in zip(picks, walked))


def test_plan_line_refuses_a_template_id_that_reads_as_a_placeholder(bank):
    template = parse_template_dsl(REFERENCE_TEMPLATE)
    plan = compile_template(dataclasses.replace(template, template_id="\ue000{1}"))
    with pytest.raises(InvariantError, match="occurs 2 times"):
        plan_line(plan)
