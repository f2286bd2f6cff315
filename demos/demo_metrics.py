"""Score predictions that carry unsatisfied-condition sets.

The conditional variants multiply the answer score by the condition F1:
an answer only earns full credit when its conditions are right too.
Classification labels get micro/macro accuracy, generated follow-up
questions get BLEU.
"""

import json
import tempfile
from pathlib import Path

from condlogic import (
    GoldRecord,
    Prediction,
    TaskProfile,
    answer_em_f1,
    bleu,
    condition_prf,
    evaluate_files,
    format_report,
    score_example,
)

print("=== answer EM / F1 ===\n")
for pred, refs in [
    ("up to $1200", ["up to $1200"]),
    ("to 1200", ["up to 1200"]),
    ("something else", ["up to 1200"]),
]:
    em, f1 = answer_em_f1(pred, refs)
    print(f"  {pred!r} vs {refs}: EM={em} F1={f1:.2f}")
print()

print("=== condition sets, with the empty-set convention ===\n")
for pred_ids, gold_ids in [({"C1"}, {"C1"}), ({"C1", "C2"}, {"C1"}), (set(), set()), (set(), {"C1"})]:
    p, r, f1 = condition_prf(pred_ids, gold_ids)
    print(f"  pred {sorted(pred_ids)!s:<14} gold {sorted(gold_ids)!s:<8} -> P={p:.2f} R={r:.2f} F1={f1:.2f}")
print()

print("=== conditional EM / F1 is a product ===\n")
pred = Prediction("0", "up to 1200", frozenset({"C1", "C2"}))
gold = GoldRecord("0", ("up to 1200",), frozenset({"C1"}))
row = score_example(pred, gold, with_bleu=False)
print(f"  right answer, half-right conditions -> cEM={row['conditional_em']:.3f} cF1={row['conditional_f1']:.3f}\n")

print("=== follow-up questions ===\n")
print(f"  BLEU-1('a b c d', 'a b c e') = {bleu('a b c d', 'a b c e', 1):.2f}")
print(f"  BLEU-4 of identical questions = {bleu('do you live there now', 'do you live there now', 4):.2f}\n")


def evaluate(pred_rows, gold_rows, profile):
    """The report ``evaluate_files`` makes of the rows, written to files for the run."""
    with tempfile.TemporaryDirectory(prefix="condlogic-demo-") as work:
        gold_path = Path(work) / "gold.jsonl"
        pred_path = Path(work) / "pred.jsonl"
        gold_path.write_text("\n".join(json.dumps(r) for r in gold_rows) + "\n", encoding="utf-8")
        pred_path.write_text("\n".join(json.dumps(r) for r in pred_rows) + "\n", encoding="utf-8")
        return evaluate_files(pred_path, gold_path, profile)


print("=== file-level evaluation ===\n")
gold_rows = [
    {"id": "e0", "answers": ["up to 1200"], "unsatisfied": ["C1"]},
    {"id": "e1", "answers": ["no"], "unsatisfied": []},
    {"id": "e2", "answers": ["in march"], "unsatisfied": ["C0", "C2"]},
]
pred_rows = [
    {"id": "e0", "answer": "up to 1200", "conditions": ["C1"]},
    {"id": "e1", "answer": "no", "conditions": ["C4"]},
    {"id": "e2", "answer": "march", "conditions": ["C0"]},
]
print(format_report(evaluate(pred_rows, gold_rows, TaskProfile.YESNO), TaskProfile.YESNO))

print("\n=== label accuracy, in the condnli report ===\n")
# Micro accuracy counts every row right; macro averages the share right per gold label.
gold_rows = [{"id": f"l{i}", "label": label} for i, label in enumerate(["yes", "yes", "no", "no"])]
pred_rows = [{"id": f"l{i}", "label": label} for i, label in enumerate(["yes", "yes", "yes", "no"])]
print(format_report(evaluate(pred_rows, gold_rows, TaskProfile.CONDNLI), TaskProfile.CONDNLI))
