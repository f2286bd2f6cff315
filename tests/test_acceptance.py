"""Acceptance gate: one test per shipping criterion, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import random
import re
import time

import pytest

from condlogic import (
    Condition,
    ConditionGroup,
    EvidenceState,
    GenConfig,
    GoldRecord,
    LogicalType,
    Prediction,
    SplitManifest,
    TaskProfile,
    Verdict,
    answer_em_f1,
    cli,
    condition_ids,
    condition_prf,
    config_hash,
    enumerate_assignments,
    evaluate_group,
    generate_dataset,
    generate_templates,
    parse_template_dsl,
    reference_evaluate,
    render_template_dsl,
    score_example,
    solve_template,
    write_split,
)
from conftest import REFERENCE_TEMPLATE, example_of


def _pass(name):
    print(f"\nACCEPTANCE {name}: PASS")


DEFAULT_SEED = 20240501


@pytest.fixture(scope="module")
def generated(big_bank):
    """Default-config templates and full dev/test splits, timed once."""
    config = GenConfig(seed=DEFAULT_SEED)
    start = time.perf_counter()
    templates = generate_templates(config)
    dev = list(generate_dataset(config, big_bank, "dev"))
    test = list(generate_dataset(config, big_bank, "test"))
    elapsed = time.perf_counter() - start
    return config, templates, dev, test, elapsed


def test_oracle_equivalence_small_groups():
    """evaluate_group matches the enumeration oracle for every type, k <= 4."""
    start = time.perf_counter()
    checked = 0
    cases = [
        (t, k)
        for t in (LogicalType.ALL, LogicalType.ANY, LogicalType.OPTIONAL)
        for k in range(1, 5)
    ]
    cases.append((LogicalType.REQUIRED, 1))
    for logical_type, k in cases:
        table = enumerate_assignments(logical_type, k)
        assert len(table) == 3**k
        for assignment, expected in table.items():
            group = ConditionGroup(
                result_id="R0",
                result_text="r",
                logical_type=logical_type,
                conditions=tuple(
                    Condition(id=f"C{i}", text=f"C{i}: c", evidence=state)
                    for i, state in enumerate(assignment)
                ),
            )
            assert evaluate_group(group) == expected
            assert reference_evaluate(logical_type, assignment) == expected
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    assert checked == 3 * sum(3**k for k in range(1, 5)) + 3
    _pass("oracle-equivalence-small-groups")


def test_reference_template_end_to_end(tmp_path, capsys):
    """The canonical two-group template solves to entailed with B unresolved."""
    template = parse_template_dsl(REFERENCE_TEMPLATE)
    assert solve_template(template) == Verdict("entailed", frozenset({"B"}))

    path = tmp_path / "template.txt"
    path.write_text(REFERENCE_TEMPLATE, encoding="utf-8")
    code = cli.main(["solve", "--file", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert out.strip() == "entailed, if C1"
    assert condition_ids(template)["B"] == "C1"
    _pass("reference-template-end-to-end")


def test_generation_counts(generated):
    """Defaults: 65 distinct templates, <= 6 conditions, 5000 + 5000 examples."""
    config, templates, dev, test, elapsed = generated
    assert len(templates) == 65
    assert len({render_template_dsl(t) for t in templates}) == 65
    assert all(sum(len(g.conditions) for g in t.groups) <= 6 for t in templates)
    assert len(dev) == 5000
    assert len(test) == 5000
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    _pass("generation-counts")


def test_gold_self_consistency(generated):
    """Re-solving the symbolic template reproduces every stored dev verdict."""
    config, templates, dev, _, _ = generated
    by_id = {t.template_id: t for t in templates}
    matched = 0
    for example in dev:
        template = by_id[example.template_id]
        symbolic = solve_template(template)
        ids = condition_ids(template)
        expected = Verdict(symbolic.label, frozenset(ids[v] for v in symbolic.unsatisfied))
        assert example.gold == expected, example.template_id
        matched += 1
    assert matched == 5000
    _pass("gold-self-consistency")


def test_twenty_condition_regime(big_bank):
    """20-condition templates generate, solve, and agree with the oracle."""
    config = GenConfig(seed=6, max_conditions=20, distractor_range=(0, 0), n_templates=160)
    wide = [t for t in generate_templates(config) if sum(len(g.conditions) for g in t.groups) == 20]
    assert len(wide) >= 2
    assert {t.groups[0].logical_type for t in wide} == {LogicalType.ALL, LogicalType.ANY}

    states = (EvidenceState.ENTAILED, EvidenceState.CONTRADICTED, EvidenceState.NOT_MENTIONED)
    rng = random.Random(97)
    for template in wide:
        verdict = solve_template(template)
        assert verdict.label in TaskProfile.CONDNLI.labels
        example = example_of(template, big_bank, 0, seed=1)
        assert sum(len(g.conditions) for g in example.context) == 20

        logical_type = template.groups[0].logical_type
        for _ in range(1000):
            assignment = tuple(rng.choice(states) for _ in range(20))
            group = ConditionGroup(
                result_id="R0",
                result_text="r",
                logical_type=logical_type,
                conditions=tuple(
                    Condition(id=f"C{i}", text=f"C{i}: c", evidence=state)
                    for i, state in enumerate(assignment)
                ),
            )
            assert evaluate_group(group) == reference_evaluate(logical_type, assignment)
    _pass("twenty-condition-regime")


def test_metric_product_arithmetic():
    """Conditional scores are exact products; perfect and empty cases hit 1.0."""
    rng = random.Random(20240501)
    vocabulary = "alpha beta gamma delta up to 1200 cat".split()
    id_pool = [f"C{i}" for i in range(8)]
    for _ in range(10_000):
        pred_text = " ".join(rng.choices(vocabulary, k=rng.randint(0, 6)))
        refs = [
            " ".join(rng.choices(vocabulary, k=rng.randint(1, 6)))
            for _ in range(rng.randint(1, 3))
        ]
        pred_ids = frozenset(rng.sample(id_pool, rng.randint(0, 4)))
        gold_ids = frozenset(rng.sample(id_pool, rng.randint(0, 4)))
        pred = Prediction("0", pred_text, pred_ids)
        gold = GoldRecord("0", tuple(refs), gold_ids)
        em, f1 = answer_em_f1(pred_text, refs)
        _, _, cond_f1 = condition_prf(pred_ids, gold_ids)
        row = score_example(pred, gold, with_bleu=False)
        cem, cf1 = row["conditional_em"], row["conditional_f1"]
        assert abs(cem - em * cond_f1) <= 1e-12
        assert abs(cf1 - f1 * cond_f1) <= 1e-12

    perfect = score_example(
        Prediction("0", "up to 1200", frozenset({"C1"})),
        GoldRecord("0", ("up to 1200",), frozenset({"C1"})),
        with_bleu=False,
    )
    assert (perfect["conditional_em"], perfect["conditional_f1"]) == (1.0, 1.0)
    assert condition_prf(frozenset(), frozenset()) == (1.0, 1.0, 1.0)
    _pass("metric-product-arithmetic")


def test_dsl_round_trip():
    """parse(render(t)) is the identity over 1000 generator templates."""
    total = 0
    for seed in range(20):
        config = GenConfig(seed=seed, n_templates=50)
        for template in generate_templates(config):
            assert parse_template_dsl(render_template_dsl(template)) == template
            total += 1
    assert total == 1000
    _pass("dsl-round-trip")


def _assert_all_ones(report_text):
    values = re.findall(r"\d+\.\d{4}", report_text)
    assert values, report_text
    assert set(values) == {"1.0000"}, report_text


def test_self_evaluation_all_profiles(tmp_path, capsys, generated, big_bank):
    """evaluate gold-vs-gold prints 1.0 in every column, all three profiles."""
    config, _, dev, _, _ = generated
    paths = {}

    condnli = tmp_path / "condnli.jsonl"
    write_split(dev[:200], condnli, SplitManifest("dev", 0, config.seed, config_hash(config)))
    paths["condnli"] = condnli

    yesno = tmp_path / "yesno.jsonl"
    with open(yesno, "w", encoding="utf-8") as handle:
        rows = [
            {"id": "q0", "answers": ["up to 1200"], "unsatisfied": ["C1"]},
            {"id": "q1", "answers": ["no"], "unsatisfied": []},
            {"id": "q2", "answers": ["in march", "march"], "unsatisfied": ["C0", "C3"]},
        ]
        handle.write("\n".join(json.dumps(r) for r in rows) + "\n")
    paths["conditionalqa"] = yesno

    sharc = tmp_path / "sharc.jsonl"
    with open(sharc, "w", encoding="utf-8") as handle:
        rows = [
            {"id": "s0", "label": "inquire", "question": "do you live in the area", "unsatisfied": ["C2"]},
            {"id": "s1", "label": "yes", "question": "are you currently enrolled there", "unsatisfied": []},
            {"id": "s2", "label": "no", "question": "did you serve two full years", "unsatisfied": []},
        ]
        handle.write("\n".join(json.dumps(r) for r in rows) + "\n")
    paths["sharc"] = sharc

    for profile, path in paths.items():
        code = cli.main(["evaluate", "--pred", str(path), "--gold", str(path), "--profile", profile])
        out = capsys.readouterr().out
        assert code == 0, out
        _assert_all_ones(out)
    _pass("self-evaluation-all-profiles")
