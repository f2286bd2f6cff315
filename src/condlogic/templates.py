"""Symbolic condition templates and their textual form.

A template states rules over single-letter variables, lists the known
facts, and asks about one result:

    If all (A, B), then U.
    If any (not C, D), then V.
    Facts: a, c, not d.
    Question: Is u correct?
    Label: entailed

Uppercase variables are conditions (A, B, ...) and result premises
(U, V, ...); their lowercase twins are facts about the conditions and
the question about one premise. ``Label:`` declares the relation between
the asked premise and the question (``irrelevant`` when the question
matches no premise). Solving a template resolves every condition against
the facts and derives a verdict.

Grammar::

    template  := stmt+ "Facts:" fact_list "." "Question:" question ["Label:" label]
    stmt      := "If" op "(" cond ("," cond)* ")" "," "then" UPPER "."
    op        := "all" | "any"
    cond      := ["not"] UPPER
    fact_list := fact ("," fact)*
    fact      := ["not"] lower
    question  := "Is" lower "correct?"

The label line may carry a trailing ", if C1, C2" qualifier (as printed
by the solver, or with condition variables such as ", if B"); it is
accepted and ignored on input.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import InvariantError, ParseError
from .logic import (
    Condition,
    ConditionGroup,
    FactRelation,
    LogicalType,
    TaskProfile,
    Verdict,
    derive_answer,
    resolve_state,
)

TARGET_RELATIONS = ("entailed", "contradicted", "neutral", "irrelevant")


@dataclass(frozen=True)
class VarRef:
    """A possibly negated variable occurrence (condition slot or fact)."""

    var: str
    negated: bool = False


@dataclass(frozen=True)
class TemplateGroup:
    logical_type: LogicalType
    conditions: tuple[VarRef, ...]
    consequent: str

    def __post_init__(self):
        object.__setattr__(self, "conditions", tuple(self.conditions))


@dataclass(frozen=True)
class Template:
    """A symbolic example: rules, facts, question, and target relation.

    ``template_id`` is bookkeeping for generated templates and does not
    take part in structural equality.
    """

    groups: tuple[TemplateGroup, ...]
    facts: tuple[VarRef, ...]
    question_var: str
    target_relation: str
    template_id: str = field(default="", compare=False)

    def __post_init__(self):
        object.__setattr__(self, "groups", tuple(self.groups))
        object.__setattr__(self, "facts", tuple(self.facts))

    @property
    def n_conditions(self) -> int:
        return sum(len(g.conditions) for g in self.groups)


def _first_fault(t: Template) -> tuple[str, str, int] | None:
    """Return the first template rule ``t`` breaks, or ``None``.

    A fault is ``(message, site, index)``; the site names the offending
    occurrence: ``"condition"`` (index in document order), ``"premise"``
    (group index), ``"fact"`` (fact index), ``"question"`` or ``"label"``
    (index 0). Conditions are checked first, then premises, facts, the
    label and the question.
    """
    if not t.groups:
        return "template has no groups", "premise", 0
    cond_vars: set[str] = set()
    for gi, g in enumerate(t.groups):
        if g.logical_type not in (LogicalType.ALL, LogicalType.ANY):
            return f"template groups use all/any, got {g.logical_type.value!r}", "premise", gi
        if not g.conditions:
            return f"group {g.consequent!r} has no conditions", "premise", gi
        for ref in g.conditions:
            # Every earlier condition is distinct, so len(cond_vars) is this one's index.
            if not ref.var.isupper():
                return f"condition variable {ref.var!r} is not uppercase", "condition", len(cond_vars)
            if ref.var in cond_vars:
                return f"condition variable {ref.var!r} reused", "condition", len(cond_vars)
            cond_vars.add(ref.var)

    premises: set[str] = set()
    for gi, g in enumerate(t.groups):
        if not g.consequent.isupper():
            return f"premise variable {g.consequent!r} is not uppercase", "premise", gi
        if g.consequent in premises:
            return f"premise variable {g.consequent!r} reused", "premise", gi
        if g.consequent in cond_vars:
            return f"variable {g.consequent!r} used as both condition and premise", "premise", gi
        premises.add(g.consequent)

    fact_vars: set[str] = set()
    for fi, f in enumerate(t.facts):
        if f.var not in cond_vars:
            return f"unknown variable {f.var.lower()!r} in facts", "fact", fi
        if f.var in fact_vars:
            return f"duplicate fact {f.var.lower()!r}", "fact", fi
        fact_vars.add(f.var)

    if t.target_relation not in TARGET_RELATIONS:
        return f"unknown label {t.target_relation!r}", "label", 0
    matches = any(p.lower() == t.question_var for p in premises)
    if t.target_relation == "irrelevant" and matches:
        return f"label 'irrelevant' conflicts with question variable {t.question_var!r}", "question", 0
    if t.target_relation != "irrelevant" and not matches:
        return f"question variable {t.question_var!r} does not match any premise", "question", 0
    return None


def validate_template(t: Template) -> None:
    """Check template invariants, raising :class:`InvariantError`.

    Condition variables must be unique across the template and disjoint
    from the premise variables; every fact must refer to a condition, once;
    the question must match exactly one premise, or none when the target
    relation is irrelevant. :func:`parse_template_dsl` applies the same
    rules and reports a fault at its token.
    """
    fault = _first_fault(t)
    if fault:
        raise InvariantError(fault[0])


def condition_ids(t: Template) -> dict[str, str]:
    """Map condition variables to document-order ids C0, C1, ..."""
    out: dict[str, str] = {}
    for g in t.groups:
        for ref in g.conditions:
            out[ref.var] = f"C{len(out)}"
    return out


def template_groups(t: Template) -> tuple[list[ConditionGroup], int | None]:
    """Resolve a template's facts into evaluable condition groups.

    Returns the groups (condition ids are the variable letters) and the
    index of the group the question asks about, ``None`` when the
    question matches no premise.
    """
    fact_map = {
        f.var: FactRelation.CONTRADICTS if f.negated else FactRelation.SUPPORTS
        for f in t.facts
    }
    groups: list[ConditionGroup] = []
    relevant: int | None = None
    for gi, g in enumerate(t.groups):
        is_relevant = g.consequent.lower() == t.question_var
        if is_relevant:
            relevant = gi
        conditions = tuple(
            Condition(
                id=ref.var,
                text=f"not {ref.var}" if ref.negated else ref.var,
                negated=ref.negated,
                evidence=resolve_state(ref.negated, fact_map.get(ref.var)),
            )
            for ref in g.conditions
        )
        intrinsic = t.target_relation if is_relevant and t.target_relation != "irrelevant" else None
        groups.append(
            ConditionGroup(
                result_id=g.consequent,
                result_text=g.consequent,
                logical_type=g.logical_type,
                conditions=conditions,
                intrinsic_relation=intrinsic,
            )
        )
    return groups, relevant


def solve_template(t: Template) -> Verdict:
    """Solve a template: resolve facts, evaluate groups, derive the answer.

    The verdict's unsatisfied set holds condition variable letters; use
    :func:`condition_ids` to map them to document-order ids.
    """
    validate_template(t)
    groups, relevant = template_groups(t)
    return derive_answer(groups, relevant, TaskProfile.CONDNLI)


# --- textual form ---------------------------------------------------------

_TOKEN_RE = re.compile(r"[A-Za-z]+[0-9]*|[(),.:?]")
_QUALIFIER_RE = re.compile(r"[A-Z]+|C[0-9]+")


@dataclass(frozen=True)
class _Token:
    value: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        pos = 0
        while pos < len(line):
            if line[pos].isspace():
                pos += 1
                continue
            m = _TOKEN_RE.match(line, pos)
            if not m:
                raise ParseError(f"unexpected character {line[pos]!r}", line_no, pos + 1)
            tokens.append(_Token(m.group(), line_no, pos + 1))
            pos = m.end()
    return tokens


class _TokenStream:
    def __init__(self, tokens: list[_Token]):
        self._tokens = tokens
        self._pos = 0

    def peek(self) -> str | None:
        if self._pos < len(self._tokens):
            return self._tokens[self._pos].value
        return None

    def take(self, what: str = "token") -> _Token:
        if self._pos >= len(self._tokens):
            line, col = self._end_pos()
            raise ParseError(f"unexpected end of input, expected {what}", line, col)
        tok = self._tokens[self._pos]
        self._pos += 1
        return tok

    def expect(self, value: str) -> _Token:
        tok = self.take(repr(value))
        if tok.value != value:
            raise ParseError(f"expected {value!r}, found {tok.value!r}", tok.line, tok.col)
        return tok

    def at_end(self) -> bool:
        return self._pos >= len(self._tokens)

    def _end_pos(self) -> tuple[int, int]:
        if self._tokens:
            last = self._tokens[-1]
            return last.line, last.col + len(last.value)
        return 1, 1


def _take_var(ts: _TokenStream, upper: bool, what: str) -> _Token:
    tok = ts.take(what)
    ok = tok.value.isalpha() and (tok.value.isupper() if upper else tok.value.islower())
    if not ok:
        raise ParseError(f"expected {what}, found {tok.value!r}", tok.line, tok.col)
    return tok


def _parse_var_ref(ts: _TokenStream, upper: bool, what: str) -> tuple[VarRef, _Token]:
    negated = False
    if ts.peek() == "not":
        ts.take()
        negated = True
    tok = _take_var(ts, upper, what)
    return VarRef(tok.value, negated), tok


def _parse_stmt(ts: _TokenStream) -> tuple[TemplateGroup, list[_Token], _Token]:
    ts.expect("If")
    op_tok = ts.take("operator")
    if op_tok.value not in ("all", "any"):
        raise ParseError(f"unknown operator {op_tok.value!r}", op_tok.line, op_tok.col)
    op = LogicalType.ALL if op_tok.value == "all" else LogicalType.ANY
    ts.expect("(")
    refs: list[VarRef] = []
    cond_tokens: list[_Token] = []
    ref, tok = _parse_var_ref(ts, upper=True, what="condition variable")
    refs.append(ref)
    cond_tokens.append(tok)
    while ts.peek() == ",":
        ts.take()
        ref, tok = _parse_var_ref(ts, upper=True, what="condition variable")
        refs.append(ref)
        cond_tokens.append(tok)
    ts.expect(")")
    ts.expect(",")
    ts.expect("then")
    cons_tok = _take_var(ts, upper=True, what="premise variable")
    ts.expect(".")
    return TemplateGroup(op, tuple(refs), cons_tok.value), cond_tokens, cons_tok


def parse_template_dsl(text: str) -> Template:
    """Parse template text into a :class:`Template`.

    Raises :class:`ParseError` with a line/column location on syntax
    errors and unknown operators. Once the whole text has parsed, the
    rules of :func:`validate_template` are checked and a fault is reported
    at its token. When no ``Label:`` line is present the target relation
    defaults to ``entailed``, or ``irrelevant`` if the question matches no
    premise.
    """
    ts = _TokenStream(_tokenize(text))

    groups: list[TemplateGroup] = []
    cond_tokens: list[_Token] = []
    cons_tokens: list[_Token] = []
    if ts.peek() != "If":
        tok = ts.take("'If'")
        raise ParseError(f"expected 'If', found {tok.value!r}", tok.line, tok.col)
    while ts.peek() == "If":
        group, ctoks, cons_tok = _parse_stmt(ts)
        groups.append(group)
        cond_tokens.extend(ctoks)
        cons_tokens.append(cons_tok)

    ts.expect("Facts")
    ts.expect(":")
    facts: list[VarRef] = []
    fact_tokens: list[_Token] = []
    while True:
        ref, tok = _parse_var_ref(ts, upper=False, what="fact variable")
        facts.append(VarRef(ref.var.upper(), ref.negated))
        fact_tokens.append(tok)
        if ts.peek() != ",":
            break
        ts.take()
    ts.expect(".")

    ts.expect("Question")
    ts.expect(":")
    ts.expect("Is")
    q_tok = _take_var(ts, upper=False, what="question variable")
    ts.expect("correct")
    ts.expect("?")

    label_tok: _Token | None = None
    if ts.peek() == "Label":
        ts.take()
        ts.expect(":")
        label_tok = ts.take("label")
        if ts.peek() == ",":
            # ", if C1, C2" solver qualifier: accepted, not stored.
            ts.take()
            ts.expect("if")
            while True:
                tok = ts.take("condition id")
                if not _QUALIFIER_RE.fullmatch(tok.value):
                    raise ParseError(f"expected condition id, found {tok.value!r}", tok.line, tok.col)
                if ts.peek() != ",":
                    break
                ts.take()
    if not ts.at_end():
        tok = ts.take()
        raise ParseError(f"unexpected trailing input {tok.value!r}", tok.line, tok.col)

    if label_tok:
        target = label_tok.value
    elif any(g.consequent.lower() == q_tok.value for g in groups):
        target = "entailed"
    else:
        target = "irrelevant"
    template = Template(tuple(groups), tuple(facts), q_tok.value, target)

    fault = _first_fault(template)
    if fault:
        message, site, index = fault
        sites = {
            "condition": cond_tokens,
            "premise": cons_tokens,
            "fact": fact_tokens,
            "question": [q_tok],
            "label": [label_tok],
        }
        tok = sites[site][index]
        raise ParseError(message, tok.line, tok.col)
    return template


def _ref_text(ref: VarRef, lower: bool = False) -> str:
    var = ref.var.lower() if lower else ref.var
    return f"not {var}" if ref.negated else var


def render_template_dsl(t: Template) -> str:
    """Render a template in canonical textual form.

    ``parse_template_dsl(render_template_dsl(t))`` is structurally equal
    to ``t``. The grammar requires at least one fact, so fact-less
    templates cannot be rendered.
    """
    if not t.facts:
        raise InvariantError("cannot render a template with no facts")
    lines = [
        f"If {g.logical_type.value} ({', '.join(_ref_text(r) for r in g.conditions)}), "
        f"then {g.consequent}."
        for g in t.groups
    ]
    lines.append(f"Facts: {', '.join(_ref_text(r, lower=True) for r in t.facts)}.")
    lines.append(f"Question: Is {t.question_var} correct?")
    lines.append(f"Label: {t.target_relation}")
    return "\n".join(lines)
