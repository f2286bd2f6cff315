import dataclasses
import hashlib
import json
import math
import os
import re
import string
import subprocess
import sys
import tempfile
import tracemalloc
from collections import Counter, defaultdict
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import condlogic.metrics as metrics_module
from condlogic import jsonl
from condlogic import (
    EvalReport,
    GoldRecord,
    InvariantError,
    Prediction,
    TaskProfile,
    answer_em_f1,
    bleu,
    condition_prf,
    evaluate_files,
    format_report,
    normalize_text,
    read_gold_file,
    read_prediction_file,
    score_example,
)


def _normalize_text_nested(text):
    """``normalize_text`` as first written, with per-call helpers."""

    def remove_articles(s):
        return re.sub(r"\b(a|an|the)\b", " ", s)

    def remove_punc(s):
        return "".join(ch for ch in s if ch not in string.punctuation)

    return remove_articles(remove_punc(text.lower())).split()


_article_soup = st.lists(
    st.sampled_from(["a", "An", "THE", "the.", "t,he", "ann", "'s", " ", "\t", "\u00e9", "!", "x"])
).map("".join)


@given(st.text() | _article_soup)
def test_normalize_text_matches_nested_helpers(text):
    assert normalize_text(text) == _normalize_text_nested(text)


def test_normalize_text():
    assert normalize_text("Up to $1200") == ["up", "to", "1200"]
    assert normalize_text("The THE the") == []
    assert normalize_text("") == []
    assert normalize_text("A  cat, an owl; the END.") == ["cat", "owl", "end"]


def test_answer_em_f1_frozen_cases():
    assert answer_em_f1("up to $1200", ["up to $1200"]) == (1, 1.0)
    em, f1 = answer_em_f1("to 1200", ["up to 1200"])
    assert em == 0
    assert f1 == pytest.approx(0.8)
    assert answer_em_f1("x", ["y"]) == (0, 0.0)


def test_answer_em_f1_best_reference():
    em, f1 = answer_em_f1("to 1200", ["nothing shared", "up to 1200"])
    assert (em, f1) == (0, pytest.approx(0.8))
    assert answer_em_f1("The answer", ["answer", "other"]) == (1, 1.0)


def test_answer_em_f1_requires_references():
    with pytest.raises(InvariantError):
        answer_em_f1("x", [])


def _token_f1_counter(pred_tokens: list[str], ref_tokens: list[str]) -> float:
    """``_token_f1`` as first written: the overlap is a ``Counter`` intersection."""
    if not pred_tokens and not ref_tokens:
        return 1.0
    if not pred_tokens or not ref_tokens:
        return 0.0
    common = Counter(pred_tokens) & Counter(ref_tokens)
    overlap = sum(common.values())
    if overlap == 0:
        return 0.0
    precision = overlap / len(pred_tokens)
    recall = overlap / len(ref_tokens)
    return 2 * precision * recall / (precision + recall)


def _answer_em_f1_counter(pred: str, refs: list[str]) -> tuple[int, float]:
    """``answer_em_f1`` as first written: the prediction and every reference normalised and scored."""
    if not refs:
        raise InvariantError("answer scoring needs at least one reference")
    pred_tokens = _normalize_text_nested(pred)
    em = 0
    f1 = 0.0
    for ref in refs:
        ref_tokens = _normalize_text_nested(ref)
        em = max(em, int(pred_tokens == ref_tokens))
        f1 = max(f1, _token_f1_counter(pred_tokens, ref_tokens))
    return em, f1


# A small vocabulary makes repeated tokens, partial overlaps and exact answers common.
_answer_words = ["a", "the", "The", "cat", "cat.", "dog", "up", "1200"]
_answer_texts = st.lists(st.sampled_from(_answer_words), max_size=6).map(" ".join)


@given(_answer_texts, st.lists(_answer_texts, min_size=1, max_size=3), st.none() | st.integers(0, 3))
@example("up to 1200", ["x", "up to 1200"], None)  # the prediction is a reference
@example("The cat.", ["cat"], None)  # normalised alike, not equal
@example("the", ["a"], None)  # articles only: both normalise to nothing, (1, 1.0) the slow way
def test_answer_em_f1_matches_counter_oracle(pred, refs, pred_at):
    if pred_at is not None:
        refs = refs[:pred_at] + [pred] + refs[pred_at:]
    em, f1 = answer_em_f1(pred, refs)
    expected_em, expected_f1 = _answer_em_f1_counter(pred, refs)
    assert (type(em), em, f1.hex()) == (int, expected_em, expected_f1.hex())
    pred_tokens = normalize_text(pred)
    for ref_tokens in map(normalize_text, refs):
        f1 = metrics_module._token_f1(pred_tokens, ref_tokens)
        assert f1.hex() == _token_f1_counter(pred_tokens, ref_tokens).hex()


def test_condition_prf():
    assert condition_prf(set(), set()) == (1.0, 1.0, 1.0)
    assert condition_prf({"B"}, {"B"}) == (1.0, 1.0, 1.0)
    p, r, f1 = condition_prf({"B", "C"}, {"B"})
    assert (p, r) == (0.5, 1.0)
    assert f1 == pytest.approx(2 / 3)
    assert condition_prf({"B"}, set()) == (0.0, 0.0, 0.0)
    assert condition_prf(set(), {"B"}) == (0.0, 0.0, 0.0)
    assert condition_prf({"A"}, {"B"}) == (0.0, 0.0, 0.0)


def _conditional_em_f1(pred: Prediction, gold: GoldRecord) -> tuple[float, float]:
    """The conditional EM and F1 columns of the example's row."""
    row = score_example(pred, gold, with_bleu=False)
    return row["conditional_em"], row["conditional_f1"]


def test_conditional_em_f1():
    perfect = _conditional_em_f1(
        Prediction("0", "up to $1200", frozenset({"C1"})),
        GoldRecord("0", ("up to $1200",), frozenset({"C1"})),
    )
    assert perfect == (1.0, 1.0)

    cem, cf1 = _conditional_em_f1(
        Prediction("0", "up to 1200", frozenset({"B", "C"})),
        GoldRecord("0", ("up to 1200",), frozenset({"B"})),
    )
    assert cem == pytest.approx(2 / 3)
    assert cf1 == pytest.approx(2 / 3)

    cem, cf1 = _conditional_em_f1(
        Prediction("0", "to 1200", frozenset({"C0", "C1", "C2"})),
        GoldRecord("0", ("up to 1200",), frozenset({"C0"})),
    )
    assert cem == 0.0
    assert cf1 == pytest.approx(0.8 * 0.5)


def test_gold_record_needs_reference_or_label():
    with pytest.raises(InvariantError):
        GoldRecord("0")
    assert GoldRecord("0", label="yes").references == ("yes",)
    assert GoldRecord("0", ("span",), label="yes").references == ("span",)


def _label_accuracy(pred_labels: list[str], gold_labels: list[str]) -> tuple[float, float]:
    """Micro and macro accuracy by ``evaluate_files``' rule, fed each gold label's correct and total counts."""
    correct = Counter(g for p, g in zip(pred_labels, gold_labels) if p == g)
    return metrics_module._accuracy(correct, Counter(gold_labels))


def _label_accuracy_of_files(tmp_path, pred_labels: list[str], gold_labels: list[str]) -> tuple[float, float]:
    """Micro and macro accuracy as ``evaluate_files`` reports them for labelled gold and prediction files."""
    gold = write_jsonl(tmp_path / "gold.jsonl", [{"id": str(i), "label": g} for i, g in enumerate(gold_labels)])
    pred = write_jsonl(tmp_path / "pred.jsonl", [{"id": str(i), "label": p} for i, p in enumerate(pred_labels)])
    report = evaluate_files(pred, gold, TaskProfile.CONDNLI)
    return report.micro_acc, report.macro_acc


def test_label_accuracy(tmp_path):
    for label_accuracy in (_label_accuracy, lambda preds, golds: _label_accuracy_of_files(tmp_path, preds, golds)):
        assert label_accuracy(["yes", "no"], ["yes", "no"]) == (1.0, 1.0)
        micro, macro = label_accuracy(
            ["yes", "yes", "yes", "no"], ["yes", "yes", "no", "no"]
        )
        assert micro == pytest.approx(0.75)
        assert macro == pytest.approx(0.75)
        assert label_accuracy(["no", "yes"], ["yes", "no"]) == (0.0, 0.0)


def test_label_accuracy_macro_ignores_absent_classes(tmp_path):
    for micro, macro in (
        _label_accuracy(["irrelevant", "yes"], ["yes", "yes"]),
        _label_accuracy_of_files(tmp_path, ["irrelevant", "yes"], ["yes", "yes"]),
    ):
        assert micro == 0.5
        assert macro == 0.5  # one gold class only


def test_bleu_frozen_cases():
    assert bleu("do you live there", "do you live there", 4) == pytest.approx(1.0)
    assert bleu("", "anything", 1) == 0.0
    assert bleu("a b c d", "a b c e", 1) == pytest.approx(0.75)


def test_bleu_brevity_penalty():
    assert bleu("a b", "a b c", 1) == pytest.approx(math.exp(1 - 3 / 2))
    # candidate longer than reference: no penalty
    assert bleu("a b c", "a b", 1) == pytest.approx(2 / 3)


def test_bleu_zero_matches_and_short_candidates():
    assert bleu("a b", "x y", 1) == 0.0
    # a 2-token candidate has no 4-grams, so BLEU-4 is 0 by the no-smoothing rule
    assert bleu("a b", "a b", 4) == 0.0
    assert bleu("a b c d", "a b x d", 4) == 0.0  # no shared 4-gram


def test_bleu_rejects_bad_order():
    with pytest.raises(InvariantError):
        bleu("a", "a", 0)


def _ngrams(tokens: list[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def _bleu_counter(pred: str, ref: str, max_n: int = 4) -> float:
    """``bleu`` as first written: every order's n-grams counted and clipped one by one."""
    if max_n < 1:
        raise InvariantError("max_n must be at least 1")
    candidate = pred.split()
    reference = ref.split()
    if not candidate:
        return 0.0
    log_precisions = []
    for n in range(1, max_n + 1):
        cand_counts = _ngrams(candidate, n)
        total = sum(cand_counts.values())
        if total == 0:
            return 0.0
        ref_counts = _ngrams(reference, n)
        clipped = sum(min(count, ref_counts[gram]) for gram, count in cand_counts.items())
        if clipped == 0:
            return 0.0
        log_precisions.append(math.log(clipped / total))
    if len(candidate) >= len(reference):
        brevity = 1.0
    else:
        brevity = math.exp(1.0 - len(reference) / len(candidate))
    return brevity * math.exp(math.fsum(log_precisions) / max_n)


# A four-word vocabulary makes repeated tokens and partial n-gram matches common.
_bleu_tokens = st.lists(st.sampled_from("a b c d".split()), max_size=9)
_separators = st.sampled_from([" ", "  ", "\t", " \n "])


@given(
    st.tuples(_bleu_tokens, _bleu_tokens) | _bleu_tokens.map(lambda tokens: (tokens, list(tokens))),
    _separators,
    _separators,
    st.integers(1, 5),
)
@example((["a", "b"], ["a", "b"]), " ", " ", 3)
@example((["a", "b", "c"], ["a", "b", "c"]), " ", "\t", 3)
@example((["a"] * 4, ["a", "a", "b", "a", "a"]), " ", " ", 4)  # "a a" is clipped to 2 of 3
@example((["a"] * 5, ["a"] * 4), " ", " ", 4)  # clipped at every order: 4 of 5, 3 of 4, 2 of 3, 1 of 2
def test_bleu_matches_counter_oracle(tokens, cand_sep, ref_sep, max_n):
    cand, ref = cand_sep.join(tokens[0]), ref_sep.join(tokens[1])
    assert bleu(cand, ref, max_n).hex() == _bleu_counter(cand, ref, max_n).hex()


# --- properties -------------------------------------------------------------

ids = st.sets(st.sampled_from([f"C{i}" for i in range(6)]), max_size=6)
texts = st.lists(st.sampled_from("cat dog owl up to 1200".split()), max_size=6).map(" ".join)


@given(texts, st.lists(texts, min_size=1, max_size=3), ids, ids)
def test_conditional_dominance_and_range(pred_text, refs, pred_ids, gold_ids):
    pred = Prediction("0", pred_text, frozenset(pred_ids))
    gold = GoldRecord("0", tuple(refs) or ("x",), frozenset(gold_ids))
    em, f1 = answer_em_f1(pred_text, list(gold.references))
    cem, cf1 = _conditional_em_f1(pred, gold)
    assert cem <= em + 1e-12
    assert cf1 <= f1 + 1e-12
    for value in (em, f1, cem, cf1):
        assert 0.0 <= value <= 1.0
    assert em in (0, 1)


@given(ids, ids)
def test_condition_prf_symmetry(a, b):
    assert condition_prf(a, b)[0] == condition_prf(b, a)[1]


@given(texts, st.lists(texts, min_size=1, max_size=3), texts)
def test_reference_max_monotone(pred_text, refs, extra):
    em1, f11 = answer_em_f1(pred_text, refs)
    em2, f12 = answer_em_f1(pred_text, refs + [extra])
    assert em2 >= em1
    assert f12 >= f11 - 1e-12


@given(st.lists(st.sampled_from("a b c d e".split()), min_size=1, max_size=8))
def test_bleu_identity(tokens):
    sentence = " ".join(tokens)
    for n in range(1, len(tokens) + 1):
        assert bleu(sentence, sentence, n) == pytest.approx(1.0)


# --- file-level evaluation ---------------------------------------------------

def write_jsonl(path, rows):
    with open(path, "w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row) + "\n")
    return path


GOLD_ROWS = [
    {"id": "e0", "answers": ["up to 1200"], "unsatisfied": ["C1"]},
    {"id": "e1", "answers": ["no"], "unsatisfied": []},
    {"id": "e2", "answers": ["in march"], "unsatisfied": ["C0", "C2"]},
]


def test_self_evaluation_scores_one(tmp_path):
    gold = write_jsonl(tmp_path / "gold.jsonl", GOLD_ROWS)
    report = evaluate_files(gold, gold, TaskProfile.YESNO)
    assert report.n_examples == 3
    assert report.n_missing_predictions == 0
    assert (report.em, report.f1) == (1.0, 1.0)
    assert (report.conditional_em, report.conditional_f1) == (1.0, 1.0)
    assert (report.condition_p, report.condition_r, report.condition_f1) == (1.0, 1.0, 1.0)
    assert report.micro_acc is None and report.bleu1 is None


def test_missing_predictions_score_empty(tmp_path):
    gold = write_jsonl(tmp_path / "gold.jsonl", GOLD_ROWS)
    pred = write_jsonl(
        tmp_path / "pred.jsonl",
        [{"id": "e0", "answer": "up to 1200", "conditions": ["C1"]}],
    )
    report = evaluate_files(pred, gold, TaskProfile.YESNO)
    assert report.n_missing_predictions == 2
    assert report.em == pytest.approx(1 / 3)
    # e1 has no gold conditions, so its empty default prediction is perfect there
    assert report.condition_f1 == pytest.approx((1.0 + 1.0 + 0.0) / 3)
    assert report.conditional_f1 == pytest.approx(1 / 3)


def test_unmatched_predictions_counted(tmp_path, caplog):
    gold = write_jsonl(tmp_path / "gold.jsonl", GOLD_ROWS[:1])
    pred = write_jsonl(
        tmp_path / "pred.jsonl",
        [
            {"id": "e0", "answer": "up to 1200", "conditions": ["C1"]},
            {"id": "stranger", "answer": "x"},
        ],
    )
    with caplog.at_level("WARNING"):
        report = evaluate_files(pred, gold, TaskProfile.YESNO)
    assert report.n_unmatched_predictions == 1
    assert any("match no gold" in r.message for r in caplog.records)
    assert report.em == 1.0


def test_duplicate_ids_rejected(tmp_path):
    path = write_jsonl(
        tmp_path / "dup.jsonl",
        [{"id": "e0", "answers": ["x"]}, {"id": "e0", "answers": ["y"]}],
    )
    with pytest.raises(InvariantError):
        list(read_gold_file(path))
    path2 = write_jsonl(
        tmp_path / "dup2.jsonl", [{"id": "p", "answer": "x"}, {"id": "p", "answer": "y"}]
    )
    with pytest.raises(InvariantError):
        read_prediction_file(path2)


def test_integer_ids_match_string_ids(tmp_path):
    gold = write_jsonl(tmp_path / "gold.jsonl", [{"id": 0, "answers": ["yes"]}, {"id": "1", "answers": ["no"]}])
    pred = write_jsonl(tmp_path / "pred.jsonl", [{"id": "0", "answer": "yes"}, {"id": 1, "answer": "no"}])
    report = evaluate_files(pred, gold, TaskProfile.YESNO)
    assert report.em == 1.0
    assert report.n_missing_predictions == report.n_unmatched_predictions == 0


def test_positional_ids_default(tmp_path):
    gold = write_jsonl(
        tmp_path / "gold.jsonl", [{"answers": ["x"]}, {"answers": ["y"]}]
    )
    records = read_gold_file(gold)
    assert [g.example_id for g in records] == ["0", "1"]


def test_position_equal_to_an_earlier_id_rejected(tmp_path):
    gold = write_jsonl(tmp_path / "gold.jsonl", [{"id": "1", "answers": ["x"]}, {"answers": ["y"]}])
    pred = write_jsonl(tmp_path / "pred.jsonl", [{"id": 1, "answer": "x"}, {"answer": "y"}])
    for path, read in ((gold, lambda p: list(read_gold_file(p))), (pred, read_prediction_file)):
        with pytest.raises(InvariantError) as info:
            read(path)
        assert str(info.value) == f"{path}:2: record has no id and its position 1 is already an earlier record's id"


def test_empty_gold_rejected(tmp_path):
    gold = tmp_path / "gold.jsonl"
    gold.write_text("", encoding="utf-8")
    pred = write_jsonl(tmp_path / "pred.jsonl", [{"id": "0", "answer": "x"}])
    with pytest.raises(InvariantError):
        evaluate_files(pred, gold, TaskProfile.YESNO)


def test_invalid_json_rejected(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("not json\n", encoding="utf-8")
    with pytest.raises(InvariantError):
        list(read_gold_file(bad))


def test_labels_and_questions_scored(tmp_path):
    gold = write_jsonl(
        tmp_path / "gold.jsonl",
        [
            {"id": "0", "label": "yes", "question": "do you live there", "unsatisfied": []},
            {"id": "1", "label": "no", "question": "are you enrolled now", "unsatisfied": []},
        ],
    )
    pred = write_jsonl(
        tmp_path / "pred.jsonl",
        [
            {"id": "0", "label": "yes", "question": "do you live there", "answer": "yes"},
            {"id": "1", "label": "yes", "question": "are you enrolled now", "answer": "yes"},
        ],
    )
    report = evaluate_files(pred, gold, TaskProfile.SHARC)
    assert report.micro_acc == 0.5
    assert report.macro_acc == 0.5
    assert report.bleu1 == pytest.approx(1.0)
    assert report.bleu4 == pytest.approx(1.0)


QUESTION_GOLD_ROWS = [
    {"id": "q0", "answers": ["up to 1200"], "unsatisfied": ["C1"], "label": "yes",
     "question": "do you live there"},
    {"id": "q1", "answers": ["no"], "label": "no", "question": "are you enrolled now"},
    {"id": "q2", "answers": ["in march"], "unsatisfied": ["C0", "C2"], "label": "yes"},
]
QUESTION_PRED_ROWS = [
    {"id": "q0", "answer": "up to 1200", "conditions": ["C1"], "label": "yes",
     "question": "do you live here"},
    {"id": "q1", "answer": "yes", "label": "yes", "question": "are you enrolled"},
    {"id": "q2", "answer": "march", "conditions": ["C0"], "label": "yes"},
]


def test_bleu_runs_only_when_reported(tmp_path):
    gold = write_jsonl(tmp_path / "gold.jsonl", QUESTION_GOLD_ROWS)
    pred = write_jsonl(tmp_path / "pred.jsonl", QUESTION_PRED_ROWS)
    with_question = sum(1 for row in QUESTION_GOLD_ROWS if "question" in row)

    def run(profile, per_example_path=None):
        with mock.patch.object(metrics_module, "bleu", wraps=bleu) as spy:
            report = evaluate_files(pred, gold, profile, per_example_path=per_example_path)
        return report, spy.call_count

    scored, calls = run(TaskProfile.SHARC)
    assert calls == 2 * with_question
    assert scored.bleu1 is not None and scored.bleu4 is not None
    for profile in TaskProfile:
        report, calls = run(profile, tmp_path / f"{profile.value}-rows.jsonl")
        assert calls == 2 * with_question
        assert report == scored
    for profile in (TaskProfile.CONDNLI, TaskProfile.YESNO):
        report, calls = run(profile)
        assert calls == 0
        assert report == dataclasses.replace(scored, bleu1=None, bleu4=None)


def test_per_example_rows_written(tmp_path):
    gold = write_jsonl(tmp_path / "gold.jsonl", GOLD_ROWS)
    out = tmp_path / "rows.jsonl"
    evaluate_files(gold, gold, TaskProfile.YESNO, per_example_path=out)
    rows = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
    assert [r["id"] for r in rows] == ["e0", "e1", "e2"]
    assert all(r["f1"] == 1.0 for r in rows)
    assert all("gold_label" not in r for r in rows)


def test_score_example_label_falls_back_to_answer_text():
    row = score_example(
        Prediction("0", answer_text="yes"), GoldRecord("0", label="yes")
    )
    assert row["label_correct"] == 1


def test_format_report_profiles(tmp_path):
    gold = write_jsonl(tmp_path / "gold.jsonl", GOLD_ROWS)
    report = evaluate_files(gold, gold, TaskProfile.CONDNLI)
    text = format_report(report, TaskProfile.CONDNLI)
    assert "n examples" in text and "1.0000" in text
    assert "accuracy micro/macro" in text
    assert "-" in text  # no labels in this gold file
    yesno = format_report(report, TaskProfile.YESNO)
    assert "accuracy" not in yesno and "BLEU" not in yesno
    sharc = format_report(report, TaskProfile.SHARC)
    assert "question BLEU1/BLEU4" in sharc and "answer EM / F1" not in sharc


# --- golden digests of the evaluate command -----------------------------------

EVALUATE_REPORT_DIGESTS = {
    "condnli": "00e335f5bb6bd7f724c8ff0f70f822f804fa8945d5c31ecbbdf7797a8928b258",
    "conditionalqa": "8e8cfcfbc151873ac1a691f19a4e7bff6b8c133385e293d57c3800cf29767436",
    "sharc": "d93f13ecc6deb514c1cc31db9a02b2735387fc53f6c920ac213f4e714d65014e",
}
EVALUATE_ROWS_DIGESTS = {
    "condnli": "99dc56f8765bcc3c8c8ff76cbe0f360c5c391d2743f7fc971a306013d0b4fd51",
    "sharc": "99dc56f8765bcc3c8c8ff76cbe0f360c5c391d2743f7fc971a306013d0b4fd51",
}


def _perturbed_predictions(gold_path, pred_path):
    """Predictions derived from a generated split by fixed index rules.

    Every 13th example has no prediction, one prediction names an unknown
    id, and the rest get swapped labels, edited condition sets and
    shortened, reworded or missing questions at fixed strides.
    """
    labels = sorted(TaskProfile.CONDNLI.labels)
    rows = []
    with open(gold_path, encoding="utf-8") as handle:
        golds = [json.loads(line) for line in handle]
    for index, gold in enumerate(golds):
        if index % 13 == 5:
            continue
        label = gold["answer_label"]
        if index % 7 == 3:
            label = labels[(labels.index(label) + 1) % len(labels)]
        conditions = sorted(gold["unsatisfied"])
        if index % 5 == 1:
            conditions = conditions[1:]
        elif index % 5 == 2:
            conditions = sorted({*conditions, f"C{index % 4}"})
        row = {"id": str(index), "answer_label": label, "unsatisfied": conditions}
        if index % 11 != 4:
            tokens = gold["question"].split()
            if index % 3 == 1:
                tokens = tokens[:-1]
            elif index % 3 == 2:
                tokens[1] = "perhaps"
            row["question"] = " ".join(tokens)
        rows.append(row)
    rows.append({"id": "no-such-example", "answer_label": "entailed"})
    write_jsonl(pred_path, rows)


def test_evaluate_golden_digests(tmp_path, bank_path, capsys):
    from condlogic import cli

    out_dir = tmp_path / "data"
    assert cli.main(["generate", "--bank", str(bank_path), "--out", str(out_dir), "--seed", "7",
                     "--templates", "10", "--dev", "300", "--test", "0"]) == 0
    gold = out_dir / "dev.jsonl"
    pred = tmp_path / "pred.jsonl"
    _perturbed_predictions(gold, pred)
    capsys.readouterr()

    def digest(data: bytes) -> str:
        return hashlib.sha256(data).hexdigest()

    reports, rows = {}, {}
    for profile in EVALUATE_REPORT_DIGESTS:
        argv = ["evaluate", "--pred", str(pred), "--gold", str(gold), "--profile", profile]
        if profile in EVALUATE_ROWS_DIGESTS:
            argv += ["--per-example", str(tmp_path / f"{profile}-rows.jsonl")]
        assert cli.main(argv) == 0
        reports[profile] = digest(capsys.readouterr().out.encode("utf-8"))
    for profile in EVALUATE_ROWS_DIGESTS:
        rows[profile] = digest((tmp_path / f"{profile}-rows.jsonl").read_bytes())
    assert reports == EVALUATE_REPORT_DIGESTS
    assert rows == EVALUATE_ROWS_DIGESTS


@pytest.mark.parametrize("minor", ["3.10", "3.11", "3.12", "3.13", "3.14"])
def test_evaluate_same_bytes_on_every_python(tmp_path, bank_path, minor):
    # The runtime needs only the stdlib, so any installed interpreter can run it.
    pythons = sorted((Path.home() / ".pyenv" / "versions").glob(f"{minor}.*/bin/python"))
    if not pythons:
        pytest.skip(f"no Python {minor} installed under pyenv")
    from condlogic import cli

    out_dir = tmp_path / "data"
    assert cli.main(["generate", "--bank", str(bank_path), "--out", str(out_dir), "--seed", "7",
                     "--templates", "10", "--dev", "300", "--test", "0"]) == 0
    gold, pred, rows = out_dir / "dev.jsonl", tmp_path / "pred.jsonl", tmp_path / "rows.jsonl"
    _perturbed_predictions(gold, pred)
    argv = [str(pythons[-1]), "-m", "condlogic.cli", "evaluate", "--pred", str(pred), "--gold", str(gold),
            "--profile", "sharc", "--per-example", str(rows)]
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    result = subprocess.run(argv, env=env, capture_output=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert hashlib.sha256(result.stdout).hexdigest() == EVALUATE_REPORT_DIGESTS["sharc"]
    assert hashlib.sha256(rows.read_bytes()).hexdigest() == EVALUATE_ROWS_DIGESTS["sharc"]


# --- the one-pass evaluate against the staged evaluate it replaced ------------

def _mean(values) -> float | None:
    values = list(values)
    if not values:
        return None
    return sum(values) / len(values)


def _str_list(value) -> list[str]:
    if value is None:
        return []
    if not isinstance(value, list):
        raise InvariantError(f"expected a list, got {type(value).__name__}")
    for item in value:
        if not isinstance(item, str):
            raise InvariantError(f"expected a list of strings, found {item!r}")
    return value


def _opt_str(value, name: str) -> str | None:
    if value is not None and not isinstance(value, str):
        raise InvariantError(f"{name} must be a string, got {type(value).__name__}")
    return value


def _read_gold_file_list(path) -> list[GoldRecord]:
    """``read_gold_file`` as it was before it streamed: every record kept in a dict."""
    records: dict[str, GoldRecord] = {}

    def parse(raw: dict) -> GoldRecord:
        return GoldRecord(
            example_id=metrics_module._example_id(raw, records),
            answers=tuple(_str_list(raw.get("answers"))),
            unsatisfied=frozenset(_str_list(raw.get("unsatisfied", raw.get("conditions")))),
            label=_opt_str(raw.get("label", raw.get("answer_label")), "label"),
            question=_opt_str(raw.get("question"), "question"),
        )

    with open(path, encoding="utf-8") as handle:
        for gold in jsonl.JsonlReader(handle, path, parse, strict=True):
            records[gold.example_id] = gold
    return list(records.values())


def _predicted_label_listed(pred: Prediction) -> str:
    return pred.label if pred.label is not None else pred.answer_text


def _label_accuracy_listed(pred_labels: list[str], gold_labels: list[str]) -> tuple[float, float]:
    """Micro and macro label accuracy as first written, before it counted: one list of hits per gold class."""
    if len(pred_labels) != len(gold_labels):
        raise InvariantError("prediction and gold label lists differ in length")
    if not gold_labels:
        raise InvariantError("cannot score an empty label list")
    micro = sum(p == g for p, g in zip(pred_labels, gold_labels)) / len(gold_labels)
    per_class: dict[str, list[int]] = defaultdict(list)
    for pred, gold in zip(pred_labels, gold_labels):
        per_class[gold].append(int(pred == gold))
    macro = sum(sum(v) / len(v) for v in per_class.values()) / len(per_class)
    return micro, macro


def _score_example_counter(pred: Prediction | None, gold: GoldRecord, *, with_bleu: bool) -> dict:
    """``score_example`` from the oracles: every reference normalised, every count clipped by ``Counter``."""
    if pred is None:
        pred = Prediction(example_id=gold.example_id)
    em, f1 = _answer_em_f1_counter(pred.answer_text, list(gold.references))
    cond_p, cond_r, cond_f1 = condition_prf(pred.unsatisfied, gold.unsatisfied)
    scored = with_bleu and gold.question is not None
    return {
        "id": gold.example_id,
        "em": float(em),
        "f1": f1,
        "conditional_em": em * cond_f1,
        "conditional_f1": f1 * cond_f1,
        "condition_p": cond_p,
        "condition_r": cond_r,
        "condition_f1": cond_f1,
        "label_correct": None if gold.label is None else int(_predicted_label_listed(pred) == gold.label),
        "bleu1": _bleu_counter(pred.question or "", gold.question, 1) if scored else None,
        "bleu4": _bleu_counter(pred.question or "", gold.question, 4) if scored else None,
    }


def _evaluate_files_staged(pred_path, gold_path, profile: TaskProfile, per_example_path=None) -> EvalReport:
    """``evaluate_files`` as it was before it streamed: a gold list, a row list and a pass per column.

    Rows are scored by :func:`_score_example_counter`, so the live scorer's shortcuts are checked too.
    """
    golds = _read_gold_file_list(gold_path)
    if not golds:
        raise InvariantError(f"gold file {gold_path!r} holds no records")
    predictions = read_prediction_file(pred_path)

    gold_ids = {g.example_id for g in golds}
    unmatched = [pid for pid in predictions if pid not in gold_ids]
    if unmatched:
        metrics_module.logger.warning("%d prediction(s) match no gold example", len(unmatched))
    missing = sum(1 for g in golds if g.example_id not in predictions)

    with_bleu = "bleu" in metrics_module._PROFILE_ROWS[profile] or per_example_path is not None
    rows = [_score_example_counter(predictions.get(g.example_id), g, with_bleu=with_bleu) for g in golds]

    labelled = [g for g in golds if g.label is not None]
    micro = macro = None
    if labelled:
        empty = Prediction(example_id="")
        micro, macro = _label_accuracy_listed(
            [_predicted_label_listed(predictions.get(g.example_id, empty)) for g in labelled],
            [g.label for g in labelled],
        )

    report = EvalReport(
        em=_mean(r["em"] for r in rows),
        f1=_mean(r["f1"] for r in rows),
        conditional_em=_mean(r["conditional_em"] for r in rows),
        conditional_f1=_mean(r["conditional_f1"] for r in rows),
        condition_p=_mean(r["condition_p"] for r in rows),
        condition_r=_mean(r["condition_r"] for r in rows),
        condition_f1=_mean(r["condition_f1"] for r in rows),
        micro_acc=micro,
        macro_acc=macro,
        bleu1=_mean(r["bleu1"] for r in rows if r["bleu1"] is not None),
        bleu4=_mean(r["bleu4"] for r in rows if r["bleu4"] is not None),
        n_examples=len(golds),
        n_missing_predictions=missing,
        n_unmatched_predictions=len(unmatched),
    )
    if per_example_path is not None:
        with open(per_example_path, "w", encoding="utf-8") as handle:
            for row in rows:
                handle.write(json.dumps(row, ensure_ascii=False) + "\n")
    return report


_diff_words = st.lists(st.sampled_from(["do", "you", "live", "there", "up", "to", "1200", "the", "é"]),
                       max_size=5).map(" ".join)
_diff_labels = st.sampled_from(["entailed", "contradicted", "not enough info", "yes", "no", ""])
_diff_conditions = st.lists(st.sampled_from(["C0", "C1", "C2", "C3"]), max_size=4, unique=True)
_diff_gold = st.fixed_dictionaries(
    {"answers": st.lists(_diff_words, min_size=1, max_size=2)},
    optional={"label": _diff_labels, "unsatisfied": _diff_conditions, "question": _diff_words},
) | st.fixed_dictionaries(
    {"answer_label": _diff_labels}, optional={"conditions": _diff_conditions, "question": _diff_words}
)
_diff_pred = st.fixed_dictionaries(
    {},
    optional={"answer": _diff_words, "answer_label": _diff_labels, "answers": st.lists(_diff_words, max_size=2),
              "label": _diff_labels, "conditions": _diff_conditions, "unsatisfied": _diff_conditions,
              "question": _diff_words},
)


@st.composite
def _gold_and_predictions(draw):
    """Gold records with explicit or positional ids, and predictions that cover some of
    them, in any order, plus some that match no gold record."""
    golds, ids = [], []
    for index, record in enumerate(draw(st.lists(_diff_gold, min_size=1, max_size=8))):
        if draw(st.booleans()):
            golds.append({"id": f"g{index}", **record})
            ids.append(f"g{index}")
        else:
            golds.append(record)
            ids.append(index)  # the reader gives it its position; an integer id matches it
    predicted = [i for i in ids if draw(st.booleans())] + [f"x{j}" for j in range(draw(st.integers(0, 2)))]
    preds = [{"id": i, **draw(_diff_pred)} for i in draw(st.permutations(predicted))]
    return golds, preds


def _assert_same_report(new: EvalReport, old: EvalReport) -> None:
    for field in dataclasses.fields(EvalReport):
        a, b = getattr(new, field.name), getattr(old, field.name)
        if isinstance(a, float) and isinstance(b, float):
            if sys.version_info >= (3, 12) and field.name not in ("micro_acc", "macro_acc"):
                # From 3.12 on, sum() compensates its rounding; the running sums do not.
                # The label accuracies are counted, so they match exactly on every Python.
                assert math.isclose(a, b, rel_tol=1e-12), (field.name, a, b)
            else:
                assert a.hex() == b.hex(), (field.name, a, b)
        else:
            assert a == b, (field.name, a, b)


@settings(max_examples=150, deadline=None)
@given(_gold_and_predictions())
def test_evaluate_matches_staged_oracle(inputs):
    golds, preds = inputs
    with tempfile.TemporaryDirectory() as tmp:
        gold, pred = Path(tmp) / "gold.jsonl", Path(tmp) / "pred.jsonl"
        write_jsonl(gold, golds)
        write_jsonl(pred, preds)
        for profile in TaskProfile:
            for rows in (None, Path(tmp) / "rows.jsonl"):
                new = evaluate_files(pred, gold, profile, per_example_path=rows)
                new_rows = rows.read_bytes() if rows else None
                old = _evaluate_files_staged(pred, gold, profile, per_example_path=rows)
                _assert_same_report(new, old)
                assert new_rows == (rows.read_bytes() if rows else None)


_acc_label = st.sampled_from(["", "yes", "no", "not enough info", "é", "不"]) | st.text(max_size=3)


@st.composite
def _label_pairs(draw):
    """(predicted, gold) label pairs over a pool of one or more classes."""
    pool = draw(st.lists(_acc_label, min_size=1, max_size=6, unique=True))
    return draw(st.lists(st.tuples(st.sampled_from(pool), st.sampled_from(pool)), min_size=1, max_size=60))


@settings(max_examples=300, deadline=None)
@given(_label_pairs())
@example([("é", "é")] * 3)  # one class, all right
@example([("", "不"), ("yes", ""), ("不", "no"), ("no", "yes")])  # all wrong
@example([(g, g) for g in ("", "yes", "no", "é", "不", "yes")])  # many classes, all right
@example([("yes", "yes")] * 2 + [("no", "yes")] * 5 + [("no", "no")] * 3 + [("", "é")] * 7 + [("é", "é")] * 11)
def test_label_accuracy_matches_listed(pairs):
    preds, golds = [p for p, _ in pairs], [g for _, g in pairs]
    new = _label_accuracy(preds, golds)
    old = _label_accuracy_listed(preds, golds)
    assert [value.hex() for value in new] == [value.hex() for value in old]


@pytest.fixture(scope="module")
def generated_gold(tmp_path_factory):
    """4000 generated examples over a bank with MultiNLI-length sentences, as the benchmark's."""
    from condlogic import cli

    root = tmp_path_factory.mktemp("generated")
    labels = ("entailment", "contradiction", "neutral")
    words = "the tenant must have lived in the flat for two years before the claim date and paid rent".split()
    with open(root / "bank.jsonl", "w", encoding="utf-8") as handle:
        for i in range(60):
            text = " ".join(words[(i + k) % len(words)] for k in range(22))
            handle.write(json.dumps({"premise": f"{labels[i % 3]} {i} {text}.",
                                     "hypothesis": f"{labels[i % 3]} {i} {text[:60]}.", "label": labels[i % 3]}) + "\n")
    assert cli.main(["generate", "--bank", str(root / "bank.jsonl"), "--out", str(root / "data"), "--seed", "7",
                     "--templates", "10", "--dev", "4000", "--test", "0"]) == 0
    return root / "data" / "dev.jsonl"


@pytest.mark.parametrize("profile,with_rows", [(TaskProfile.CONDNLI, False), (TaskProfile.SHARC, True)])
def test_evaluate_keeps_no_gold_records_or_rows(generated_gold, tmp_path, profile, with_rows):
    # Keeping every gold record, or every row, peaked at about 73% of the gold file's size.
    pred = tmp_path / "pred.jsonl"
    with open(generated_gold, encoding="utf-8") as handle:
        pred.write_text("".join(next(handle) for _ in range(10)), encoding="utf-8")
    rows = tmp_path / "rows.jsonl" if with_rows else None
    tracemalloc.start()
    try:
        report = evaluate_files(pred, generated_gold, profile, per_example_path=rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.n_examples == 4000
    assert report.n_missing_predictions == 4000 - 10
    assert peak < 0.25 * generated_gold.stat().st_size


def test_evaluate_keeps_no_label_per_record(tmp_path):
    # The seen-id set is the only state that grows with the gold file: about 110-118 B
    # a record on 3.10-3.13. Keeping every predicted and gold label took 180-196 B.
    pred = tmp_path / "pred.jsonl"
    pred.write_text('{"id": 0, "answer_label": "entailed"}\n', encoding="utf-8")
    labels = ("entailed", "contradicted", "not enough info")
    peaks = {}
    for n in (2000, 8000):
        gold = tmp_path / f"gold{n}.jsonl"
        gold.write_text("".join(json.dumps({"answer_label": labels[i % 3], "unsatisfied": []}) + "\n"
                                for i in range(n)), encoding="utf-8")
        tracemalloc.start()
        try:
            report = evaluate_files(pred, gold, TaskProfile.CONDNLI)
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.n_examples == n
    assert (peaks[8000] - peaks[2000]) / 6000 < 150
