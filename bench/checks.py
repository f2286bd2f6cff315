"""Output checks for the benchmark workloads.

Each check returns a list of problems; an empty list means the outputs
are right. The checks hold for any seed: gold labels and solver
verdicts are re-derived with the brute-force oracle
(``logic.reference_evaluate``) from a template parser of this file's
own, and every planted count is compared with what the program
reports. The golden digests of ``golden.json`` pin the exact bytes for
the default seed on top of that.
"""

from __future__ import annotations

import hashlib
import json
import re
from collections import Counter
from pathlib import Path

from condlogic import dataset_io
from condlogic.logic import ConditionLabel, EvidenceState, GroupStatus, LogicalType, reference_evaluate

_STMT_RE = re.compile(r"^If (all|any) \((.+)\), then ([A-Z]+)\.$")


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _sorted_ids(ids) -> list[str]:
    return sorted(ids, key=lambda i: (len(i), i))


def parse_dsl(text: str) -> dict:
    """Parse the canonical template text the generator and ``inputs`` write."""
    groups, facts, question, label = [], {}, None, None
    for line in text.splitlines():
        line = line.strip()
        m = _STMT_RE.match(line)
        if m:
            refs = [(ref.split()[-1], ref.startswith("not ")) for ref in m[2].split(", ")]
            groups.append((m[1], refs, m[3]))
        elif line.startswith("Facts: "):
            for fact in line[len("Facts: ") : -1].split(", "):
                facts[fact.split()[-1].upper()] = fact.startswith("not ")
        elif line.startswith("Question: Is "):
            question = line.split()[2]
        elif line.startswith("Label: "):
            label = line[len("Label: ") :].split(",")[0].strip()
    if not groups or question is None or label is None:
        raise ValueError(f"unparsable template {text!r}")
    return {"groups": groups, "facts": facts, "question": question, "label": label}


def oracle_verdict(template: dict) -> tuple[str, list[str]]:
    """Answer label and sorted to-check ids, decided by ``reference_evaluate``."""
    ids = {}
    for _, refs, _ in template["groups"]:
        for var, _ in refs:
            ids[var] = f"C{len(ids)}"
    relevant = [g for g in template["groups"] if g[2].lower() == template["question"]]
    if template["label"] == "irrelevant" or not relevant:
        return "irrelevant", []
    op, refs, _ = relevant[0]
    states = []
    for var, negated in refs:
        fact_negated = template["facts"].get(var)
        if fact_negated is None:
            states.append(EvidenceState.NOT_MENTIONED)
        elif fact_negated == negated:
            states.append(EvidenceState.ENTAILED)
        else:
            states.append(EvidenceState.CONTRADICTED)
    status, labels = reference_evaluate(LogicalType(op), states)
    if status is GroupStatus.CONTRADICTED:
        return "neutral", []
    if status is GroupStatus.SATISFIED:
        return template["label"], []
    to_check = [ids[var] for (var, _), lab in zip(refs, labels) if lab is ConditionLabel.TO_CHECK]
    return template["label"], _sorted_ids(to_check)


def _read_jsonl(path) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def check_generate(out_dir: Path, stdout: str, stderr: str, planted: dict) -> list[str]:
    problems = []
    templates = _read_jsonl(out_dir / "templates.jsonl")
    if len(templates) != planted["n_templates"]:
        problems.append(f"{len(templates)} templates, expected {planted['n_templates']}")
    if len({t["dsl"] for t in templates}) != len(templates):
        problems.append("templates are not distinct")
    verdicts = {t["template_id"]: oracle_verdict(parse_dsl(t["dsl"])) for t in templates}
    shapes = {t["template_id"]: [len(g[1]) for g in parse_dsl(t["dsl"])["groups"]] for t in templates}

    labels: Counter = Counter()
    for split in ("dev", "test"):
        path = out_dir / f"{split}.jsonl"
        examples = _read_jsonl(path)
        if len(examples) != planted[f"n_{split}"]:
            problems.append(f"{split}: {len(examples)} examples, expected {planted[f'n_{split}']}")
        for line_no, ex in enumerate(examples, start=1):
            labels[ex["answer_label"]] += 1
            expected = verdicts.get(ex["template_id"])
            if expected is None:
                problems.append(f"{split}:{line_no}: unknown template {ex['template_id']!r}")
                continue
            if (ex["answer_label"], ex["unsatisfied"]) != expected:
                problems.append(
                    f"{split}:{line_no}: gold {ex['answer_label']!r} {ex['unsatisfied']} "
                    f"but the oracle says {expected[0]!r} {expected[1]}"
                )
            sizes = [len(g["conditions"]) for g in ex["context"]]
            ids = [c["id"] for g in ex["context"] for c in g["conditions"]]
            if sizes != shapes[ex["template_id"]] or ids != [f"C{i}" for i in range(len(ids))]:
                problems.append(f"{split}:{line_no}: context does not match template {ex['template_id']}")
        manifest = dataset_io.read_manifest(path)
        if manifest is None or manifest.count != len(examples):
            problems.append(f"{split}: manifest count does not match the file")
        read_back = sum(1 for _ in dataset_io.read_split(path))
        if read_back != len(examples):
            problems.append(f"{split}: read_split returned {read_back} of {len(examples)} examples")

    printed = {label: int(count) for label, count in re.findall(r"^  (\w+)\s+(\d+)$", stdout, re.M)}
    if printed != dict(labels):
        problems.append(f"printed label histogram {printed} does not match the splits {dict(labels)}")
    skips = len(re.findall(r"unknown label '-', skipping", stderr))
    if skips != planted["bank_skips"]:
        problems.append(f"{skips} bank lines skipped, {planted['bank_skips']} planted")
    return problems[:20]


def _report_value(report: str, name: str) -> str | None:
    m = re.search(rf"^{re.escape(name)}\s+(.+)$", report, re.M)
    return m[1].strip() if m else None


def _expected_accuracy(golds: list[dict], labels: dict[str, str]) -> tuple[float, float]:
    per_class: dict[str, list[int]] = {}
    for index, gold in enumerate(golds):
        hit = int(labels.get(str(index), "") == gold["answer_label"])
        per_class.setdefault(gold["answer_label"], []).append(hit)
    micro = sum(sum(v) for v in per_class.values()) / len(golds)
    macro = sum(sum(v) / len(v) for v in per_class.values()) / len(per_class)
    return micro, macro


def check_evaluate(report: str, rows_path: Path | None, golds: list[dict], planted: dict) -> list[str]:
    problems = []
    expected = {
        "n examples": str(planted["n_gold"]),
        "missing predictions": str(planted["missing"]),
        "unmatched predictions": str(planted["unmatched"]),
        "accuracy micro/macro": "{:.4f} / {:.4f}".format(*_expected_accuracy(golds, planted["labels"])),
    }
    for name, value in expected.items():
        got = _report_value(report, name)
        if got != value:
            problems.append(f"report {name!r} is {got!r}, expected {value!r}")
    if rows_path is not None:
        rows = _read_jsonl(rows_path)
        if [r["id"] for r in rows] != [str(i) for i in range(len(golds))]:
            problems.append("per-example rows do not list the gold ids in order")
        for row, gold in zip(rows, golds):
            hit = int(planted["labels"].get(row["id"], "") == gold["answer_label"])
            if row["label_correct"] != hit or row["bleu1"] is None or row["bleu4"] is None:
                problems.append(f"per-example row {row['id']} is wrong: {row}")
                break
        if _report_value(report, "question BLEU1/BLEU4") is None:
            problems.append("the report has no BLEU row")
    return problems


def check_solve(verdicts_path: Path, stdout: str, templates: list[dict]) -> list[str]:
    problems = []
    rows = _read_jsonl(verdicts_path)
    if len(rows) != len(templates) or len(stdout.splitlines()) != len(templates):
        problems.append(f"{len(rows)} verdicts for {len(templates)} templates")
    for row, template in zip(rows, templates):
        label, ids = oracle_verdict(parse_dsl(template["dsl"]))
        expected = {"template_id": template["template_id"], "answer_label": label, "unsatisfied": ids}
        if row != expected:
            problems.append(f"verdict {row} but the oracle says {expected}")
            break
    return problems


def check_parse_context(groups_path: Path, stdout: str, stderr: str, planted: dict) -> list[str]:
    problems = []
    groups = _read_jsonl(groups_path)
    n_conditions = sum(len(g["conditions"]) for g in groups)
    if (len(groups), n_conditions) != (planted["groups"], planted["conditions"]):
        problems.append(
            f"{len(groups)} groups with {n_conditions} conditions, "
            f"planted {planted['groups']} with {planted['conditions']}"
        )
    summary = f"{planted['groups']} group(s), {planted['conditions']} condition(s)"
    if not stdout.startswith(summary):
        problems.append(f"summary line is not {summary!r}")
    if [c["id"] for g in groups for c in g["conditions"]] != [f"C{i}" for i in range(n_conditions)]:
        problems.append("condition ids are not numbered in document order")
    skips = len(re.findall(r"empty text, skipping", stderr))
    if skips != planted["blanks"]:
        problems.append(f"{skips} elements skipped, {planted['blanks']} planted")
    if "leaf depth histogram:" not in stdout:
        problems.append("--stats printed no depth histogram")
    return problems
