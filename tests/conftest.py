import json
import random

import pytest

from condlogic import load_nli_bank
from condlogic.generate import _derive_seed, _draw, _example, _texts, compile_template

# Two-group reference template: an all-group about the asked premise U
# with one fact missing, and a fully contradicted any-group distractor.
REFERENCE_TEMPLATE = """If all (A, B), then U.
If any (not C, D), then V.
Facts: a, c, not d.
Question: Is u correct?
Label: entailed, if B
"""


def example_of(template, bank, index, *, seed):
    """The example ``generate_dataset`` makes from ``template`` at ``index`` under split seed ``seed``."""
    plan = compile_template(template)
    example_seed = _derive_seed(seed, plan.template_id, index)
    picks = _draw([bank.span(label) for label in plan.draws], random.Random(example_seed))
    premises = [record.premise for record in bank.records]
    hypotheses = [record.hypothesis for record in bank.records]
    return _example(plan, example_seed, _texts(plan, picks, premises, hypotheses))


def write_bank(path, n, start=0):
    """Fabricate a balanced NLI bank with label-revealing texts."""
    labels = ("entailment", "contradiction", "neutral")
    with open(path, "w", encoding="utf-8") as handle:
        for i in range(start, start + n):
            label = labels[i % 3]
            handle.write(
                json.dumps(
                    {
                        "premise": f"{label} premise {i} about rule {i % 11}.",
                        "hypothesis": f"{label} hypothesis {i} about case {i % 7}.",
                        "label": label,
                    }
                )
                + "\n"
            )


@pytest.fixture
def bank_path(tmp_path):
    path = tmp_path / "bank.jsonl"
    write_bank(path, 60)
    return path


@pytest.fixture
def bank(bank_path):
    return load_nli_bank(bank_path)


@pytest.fixture(scope="session")
def big_bank_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("bank") / "bank10k.jsonl"
    write_bank(path, 10_000)
    return path


@pytest.fixture(scope="session")
def big_bank(big_bank_path):
    return load_nli_bank(big_bank_path)
