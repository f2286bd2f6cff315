"""Answer metrics that couple text quality with condition correctness.

Extractive answers are scored SQuAD-style (normalized exact match and
token F1, max over references). Predicted condition-id sets are scored
with set precision/recall/F1 using the empty-set convention: both sets
empty is a perfect 1.0, exactly one empty is 0.0. The conditional
variants multiply the answer score by the condition F1, so an answer
only counts fully when its conditions are right too. Classification
labels get micro accuracy and macro (mean per-class recall); generated
follow-up questions get sentence BLEU without smoothing.
"""

from __future__ import annotations

import logging
import math
import re
import string
from collections import Counter
from dataclasses import dataclass
from typing import Collection, Iterator

from .errors import InvariantError
from .jsonl import JsonlReader, _refuse_to_overwrite, jsonl_writer, optional_field, str_field, str_list_field
from .logic import TaskProfile

logger = logging.getLogger(__name__)


_PUNCTUATION = str.maketrans("", "", string.punctuation)
_ARTICLES_RE = re.compile(r"\b(a|an|the)\b")


def normalize_text(text: str) -> list[str]:
    """Lowercase, strip punctuation, drop articles, split on whitespace."""
    return _ARTICLES_RE.sub(" ", text.lower().translate(_PUNCTUATION)).split()


def _clipped(pred_items, ref_items) -> int:
    """How many predicted items match a reference item, each reference copy matched once.

    Equal to ``sum((Counter(pred_items) & Counter(ref_items)).values())``.
    """
    left: dict = {}  # unmatched reference copies per item
    get = left.get
    for item in ref_items:
        left[item] = get(item, 0) + 1
    matched = 0
    for item in pred_items:
        if get(item):
            left[item] -= 1
            matched += 1
    return matched


def _token_f1(pred_tokens: list[str], ref_tokens: list[str]) -> float:
    if pred_tokens == ref_tokens:
        # Both empty, or every token matched: precision and recall are 1.
        return 1.0
    if not pred_tokens or not ref_tokens:
        return 0.0
    overlap = _clipped(pred_tokens, ref_tokens)
    if overlap == 0:
        return 0.0
    precision = overlap / len(pred_tokens)
    recall = overlap / len(ref_tokens)
    return 2 * precision * recall / (precision + recall)


def answer_em_f1(pred: str, refs: list[str]) -> tuple[int, float]:
    """Exact match and token F1 against references, best reference wins.

    Texts are compared after :func:`normalize_text`. A prediction equal to
    a reference scores ``(1, 1.0)``, the best score, without normalising:
    equal texts normalise alike.
    """
    if not refs:
        raise InvariantError("answer scoring needs at least one reference")
    if pred in refs:
        return 1, 1.0
    pred_tokens = normalize_text(pred)
    em = 0
    f1 = 0.0
    for ref in refs:
        ref_tokens = normalize_text(ref)
        em = max(em, int(pred_tokens == ref_tokens))
        f1 = max(f1, _token_f1(pred_tokens, ref_tokens))
    return em, f1


def condition_prf(pred_ids, gold_ids) -> tuple[float, float, float]:
    """Set precision/recall/F1 over condition ids.

    Empty/empty is (1, 1, 1); exactly one side empty is (0, 0, 0).
    """
    pred_set, gold_set = set(pred_ids), set(gold_ids)
    if not pred_set and not gold_set:
        return 1.0, 1.0, 1.0
    if not pred_set or not gold_set:
        return 0.0, 0.0, 0.0
    overlap = len(pred_set & gold_set)
    precision = overlap / len(pred_set)
    recall = overlap / len(gold_set)
    if precision + recall == 0:
        return precision, recall, 0.0
    return precision, recall, 2 * precision * recall / (precision + recall)


@dataclass(frozen=True, slots=True)
class Prediction:
    example_id: str
    answer_text: str = ""
    unsatisfied: frozenset[str] = frozenset()
    label: str | None = None
    question: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "unsatisfied", frozenset(self.unsatisfied))


@dataclass(frozen=True, slots=True)
class GoldRecord:
    """Reference record; needs answer references or a gold label."""

    example_id: str
    answers: tuple[str, ...] = ()
    unsatisfied: frozenset[str] = frozenset()
    label: str | None = None
    question: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "answers", tuple(self.answers))
        object.__setattr__(self, "unsatisfied", frozenset(self.unsatisfied))
        if not self.answers and self.label is None:
            raise InvariantError(
                f"gold record {self.example_id!r} has neither answers nor a label"
            )

    @property
    def references(self) -> tuple[str, ...]:
        return self.answers if self.answers else (self.label,)


def _accuracy(correct: Counter, total: Counter) -> tuple[float, float]:
    """Micro and macro accuracy from each gold label's correct and total counts, in first-seen order."""
    micro = sum(correct.values()) / sum(total.values())
    macro = sum(correct[gold] / n for gold, n in total.items()) / len(total)
    return micro, macro


def bleu(pred: str, ref: str, max_n: int = 4) -> float:
    """Sentence BLEU with uniform weights and no smoothing.

    Whitespace tokenization; empty candidates score 0, as does any
    n-gram order with no matches (including candidates shorter than
    ``max_n`` tokens). Brevity penalty ``exp(1 - r/c)`` applies when the
    candidate is shorter than the reference.
    """
    if max_n < 1:
        raise InvariantError("max_n must be at least 1")
    candidate = pred.split()
    reference = ref.split()
    if not candidate:
        return 0.0
    if candidate == reference:
        # Every clipped count equals its total, so the formula gives exactly 1.0.
        return 1.0 if len(candidate) >= max_n else 0.0
    log_precisions = []
    for n in range(1, max_n + 1):
        total = len(candidate) - n + 1
        if total <= 0:
            return 0.0
        if n == 1:
            cand_grams, ref_grams = candidate, reference
        else:
            cand_grams = zip(*(candidate[i:] for i in range(n)))
            ref_grams = zip(*(reference[i:] for i in range(n)))
        clipped = _clipped(cand_grams, ref_grams)
        if clipped == 0:
            return 0.0
        log_precisions.append(math.log(clipped / total))
    if len(candidate) >= len(reference):
        brevity = 1.0
    else:
        brevity = math.exp(1.0 - len(reference) / len(candidate))
    return brevity * math.exp(math.fsum(log_precisions) / max_n)


# --- file-level evaluation -------------------------------------------------


@dataclass(frozen=True)
class EvalReport:
    """Aggregated scores.

    Fields that the inputs cannot support are None. ``bleu1``/``bleu4``
    are also None when BLEU was not computed: ``evaluate_files`` scores
    it only for a profile that reports it or when it writes per-example
    rows.
    """

    em: float
    f1: float
    conditional_em: float
    conditional_f1: float
    condition_p: float
    condition_r: float
    condition_f1: float
    micro_acc: float | None
    macro_acc: float | None
    bleu1: float | None
    bleu4: float | None
    n_examples: int
    n_missing_predictions: int = 0
    n_unmatched_predictions: int = 0


def _example_id(raw: dict, seen: Collection[str]) -> str:
    """A record's id as a string: its ``id`` (a string or an integer) or its position."""
    value = raw.get("id", len(seen))
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise ValueError(f"id is not a string or an integer: {value!r}")
    example_id = str(value)
    if example_id in seen:
        if "id" not in raw:
            raise InvariantError(
                f"record has no id and its position {example_id} is already an earlier record's id"
            )
        raise InvariantError(f"duplicate example id {example_id!r}")
    return example_id


def read_gold_file(path) -> Iterator[GoldRecord]:
    """Stream gold records, accepting generated-example files as-is.

    ``answer_label`` doubles as the single reference when no ``answers``
    list is present. Records without an ``id`` get their position.
    """
    seen: set[str] = set()

    def parse(raw: dict) -> GoldRecord:
        return GoldRecord(
            example_id=_example_id(raw, seen),
            answers=tuple(optional_field(raw, str_list_field, "answers") or ()),
            unsatisfied=frozenset(optional_field(raw, str_list_field, "unsatisfied", "conditions") or ()),
            label=optional_field(raw, str_field, "label", "answer_label"),
            question=optional_field(raw, str_field, "question"),
        )

    with open(path, encoding="utf-8") as handle:
        for gold in JsonlReader(handle, path, parse, strict=True):
            seen.add(gold.example_id)
            yield gold


def read_prediction_file(path) -> dict[str, Prediction]:
    """Read predictions keyed by example id.

    Tolerates gold-schema files, so a dataset can be evaluated against
    itself: ``answer``/``answer_label``/first of ``answers``/``label``
    give the answer text, ``conditions``/``unsatisfied`` the id set.
    """
    predictions: dict[str, Prediction] = {}

    def parse(raw: dict) -> Prediction:
        example_id = _example_id(raw, predictions)
        label = optional_field(raw, str_field, "label", "answer_label")
        answer = optional_field(raw, str_field, "answer", "answer_label")
        if answer is None:
            answers = optional_field(raw, str_list_field, "answers")
            answer = answers[0] if answers else (label or "")
        return Prediction(
            example_id=example_id,
            answer_text=answer,
            unsatisfied=frozenset(optional_field(raw, str_list_field, "conditions", "unsatisfied") or ()),
            label=label,
            question=optional_field(raw, str_field, "question"),
        )

    with open(path, encoding="utf-8") as handle:
        for pred in JsonlReader(handle, path, parse, strict=True):
            predictions[pred.example_id] = pred
    return predictions


def score_example(pred: Prediction | None, gold: GoldRecord, *, with_bleu: bool = True) -> dict:
    """Per-example scores; a missing prediction scores as empty.

    ``with_bleu=False`` leaves ``bleu1``/``bleu4`` None even when the
    gold record has a question.
    """
    if pred is None:
        pred = Prediction(example_id=gold.example_id)
    em, f1 = answer_em_f1(pred.answer_text, list(gold.references))
    cond_p, cond_r, cond_f1 = condition_prf(pred.unsatisfied, gold.unsatisfied)
    row = {
        "id": gold.example_id,
        "em": float(em),
        "f1": f1,
        "conditional_em": em * cond_f1,
        "conditional_f1": f1 * cond_f1,
        "condition_p": cond_p,
        "condition_r": cond_r,
        "condition_f1": cond_f1,
        "label_correct": None,
        "bleu1": None,
        "bleu4": None,
    }
    if gold.label is not None:
        # A prediction without a label is judged by its answer text.
        row["label_correct"] = int((pred.label if pred.label is not None else pred.answer_text) == gold.label)
    if with_bleu and gold.question is not None:
        pred_question = pred.question or ""
        row["bleu1"] = bleu(pred_question, gold.question, 1)
        row["bleu4"] = bleu(pred_question, gold.question, 4)
    return row


def evaluate_files(pred_path, gold_path, profile: TaskProfile, per_example_path=None) -> EvalReport:
    """Score a prediction file against a gold file in one pass over the gold records.

    Gold records without a prediction score zero (empty prediction);
    predictions without a gold record are counted and ignored. Writes
    per-example rows to ``per_example_path``, when given, as they are
    scored, so a fault leaves the rows scored before it; that path may
    not name an input. BLEU is computed only when the profile's report
    prints it or rows are written, so the rows are the same under every
    profile.
    """
    _refuse_to_overwrite(per_example_path, (pred_path, gold_path), "per-example rows")
    predictions = read_prediction_file(pred_path)
    with_bleu = "bleu" in _PROFILE_ROWS[profile] or per_example_path is not None
    columns = ("em", "f1", "conditional_em", "conditional_f1", "condition_p", "condition_r", "condition_f1")
    sums = dict.fromkeys(columns + ("bleu1", "bleu4"), 0.0)
    n = matched = n_bleu = 0
    correct, total = Counter(), Counter()  # rows per gold label: correct ones, all

    with jsonl_writer(per_example_path) as write:
        for gold in read_gold_file(gold_path):
            pred = predictions.get(gold.example_id)
            row = score_example(pred, gold, with_bleu=with_bleu)
            n += 1
            matched += pred is not None
            for column in columns:
                sums[column] += row[column]
            if row["bleu1"] is not None:
                n_bleu += 1
                sums["bleu1"] += row["bleu1"]
                sums["bleu4"] += row["bleu4"]
            if gold.label is not None:
                total[gold.label] += 1
                correct[gold.label] += row["label_correct"]
            write(row)
    if not n:
        raise InvariantError(f"gold file {gold_path!r} holds no records")
    if len(predictions) > matched:
        logger.warning("%d prediction(s) match no gold example", len(predictions) - matched)
    micro, macro = _accuracy(correct, total) if total else (None, None)
    return EvalReport(
        **{column: sums[column] / n for column in columns},
        micro_acc=micro,
        macro_acc=macro,
        bleu1=sums["bleu1"] / n_bleu if n_bleu else None,
        bleu4=sums["bleu4"] / n_bleu if n_bleu else None,
        n_examples=n,
        n_missing_predictions=n - matched,
        n_unmatched_predictions=len(predictions) - matched,
    )


_PROFILE_ROWS = {
    TaskProfile.CONDNLI: ("answer", "conditional", "conditions", "labels"),
    TaskProfile.YESNO: ("answer", "conditional", "conditions"),
    TaskProfile.SHARC: ("labels", "bleu", "conditions"),
}


def format_report(report: EvalReport, profile: TaskProfile) -> str:
    """Render the rows that make sense for a task profile."""

    def fmt(*values):
        return " / ".join("-" if v is None else f"{v:.4f}" for v in values)

    lines = [f"{'n examples':<22}{report.n_examples}"]
    if report.n_missing_predictions:
        lines.append(f"{'missing predictions':<22}{report.n_missing_predictions}")
    if report.n_unmatched_predictions:
        lines.append(f"{'unmatched predictions':<22}{report.n_unmatched_predictions}")
    body = {
        "answer": f"{'answer EM / F1':<22}{fmt(report.em, report.f1)}",
        "conditional": f"{'w/ conds EM / F1':<22}{fmt(report.conditional_em, report.conditional_f1)}",
        "conditions": (
            f"{'conditions P / R / F1':<22}"
            f"{fmt(report.condition_p, report.condition_r, report.condition_f1)}"
        ),
        "labels": f"{'accuracy micro/macro':<22}{fmt(report.micro_acc, report.macro_acc)}",
        "bleu": f"{'question BLEU1/BLEU4':<22}{fmt(report.bleu1, report.bleu4)}",
    }
    lines.extend(body[key] for key in _PROFILE_ROWS[profile])
    return "\n".join(lines)
