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
from functools import lru_cache

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


@dataclass(frozen=True, slots=True)
class VarRef:
    """A possibly negated variable occurrence (condition slot or fact)."""

    var: str
    negated: bool = False


@dataclass(frozen=True, slots=True)
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


#: The logical types a template group may have.
_TEMPLATE_TYPES = (LogicalType.ALL, LogicalType.ANY)


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
        if g.logical_type not in _TEMPLATE_TYPES:
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


def _sorted_ids(ids) -> list[str]:
    """Condition ids in document order: ``C2`` before ``C10``."""
    return sorted(ids, key=lambda i: (len(i), i))


@lru_cache(maxsize=1024)
def _condition(var: str, negated: bool, fact_negated: bool | None) -> Condition:
    """The shared :class:`Condition` of ``var`` under the fact on it (``fact_negated`` None for none)."""
    relation = None if fact_negated is None else FactRelation.CONTRADICTS if fact_negated else FactRelation.SUPPORTS
    return Condition(var, f"not {var}" if negated else var, negated, resolve_state(negated, relation))


def _resolve_groups(t: Template, groups) -> list[ConditionGroup]:
    """``groups`` of ``t`` as evaluable condition groups, their conditions resolved against its facts.

    A resolved condition is fixed by its variable, its negation and the fact on it, so equal
    ones are one shared value from :func:`_condition`'s cache, not one build per occurrence.
    """
    fact_negated = {f.var: f.negated for f in t.facts}.get
    intrinsic = None if t.target_relation == "irrelevant" else t.target_relation
    return [
        ConditionGroup(g.consequent, g.consequent, g.logical_type,
                       [_condition(ref.var, ref.negated, fact_negated(ref.var)) for ref in g.conditions],
                       intrinsic if g.consequent.lower() == t.question_var else None)
        for g in groups
    ]


def template_groups(t: Template) -> tuple[list[ConditionGroup], int | None]:
    """Resolve a template's facts into evaluable condition groups, all of them.

    Returns the groups (condition ids are the variable letters) and the
    index of the group the question asks about, ``None`` when the
    question matches no premise. Solving builds only the asked group.
    """
    relevant = next((gi for gi, g in enumerate(t.groups) if g.consequent.lower() == t.question_var), None)
    return _resolve_groups(t, t.groups), relevant


def solve_template(t: Template) -> Verdict:
    """Solve a template: check its rules, then derive the answer from the asked group.

    The verdict is ``derive_answer(*template_groups(t), TaskProfile.CONDNLI)``.
    Its unsatisfied set holds condition variable letters; use
    :func:`condition_ids` to map them to document-order ids.
    """
    validate_template(t)
    return _solve_valid(t)


def _solve_valid(t: Template) -> Verdict:
    """Solve a template whose rules have already been checked.

    Only the group the question asks about decides the answer, so it is
    the only group resolved.
    """
    asked = [g for g in t.groups if g.consequent.lower() == t.question_var]
    return derive_answer(_resolve_groups(t, asked), 0 if asked else None, TaskProfile.CONDNLI)


# --- textual form ---------------------------------------------------------

_TOKEN = r"[A-Za-z]+[0-9]*|[(),.:?]"
_TOKEN_RE = re.compile(_TOKEN)
_QUALIFIER = r"(?:[A-Z]+|C[0-9]+)"
_QUALIFIER_RE = re.compile(_QUALIFIER)
_OPERATORS = {"all": LogicalType.ALL, "any": LogicalType.ANY}

# Well-formed text, a whole statement per match. They accept exactly what the
# token walk accepts: a word runs to the first character outside [A-Za-z0-9]
# (each word in them is followed by whitespace, punctuation or the end),
# ``not`` prefixes a name only across whitespace, a bare ``not`` is never a
# name, and ``\s`` is ``str.isspace``. The label is any one token, which
# ``_first_fault`` judges.
_COND = r"(?:not\s+)?[A-Z]+"
_FACT = r"(?:not\s+[a-z]+|(?!not(?![A-Za-z0-9]))[a-z]+)"
_STATEMENT_RE = re.compile(rf"\s*If\s+(all|any)\s*\(\s*({_COND}(?:\s*,\s*{_COND})*)\s*\)\s*,\s*then\s+([A-Z]+)\s*\.")
_TAIL_RE = re.compile(
    rf"\s*Facts\s*:\s*({_FACT}(?:\s*,\s*{_FACT})*)\s*\.\s*Question\s*:\s*Is\s+([a-z]+)\s+correct\s*\?"
    rf"(?:\s*Label\s*:\s*({_TOKEN})(?:\s*,\s*if\s+{_QUALIFIER}(?:\s*,\s*{_QUALIFIER})*)?)?\s*"
)


@lru_cache(maxsize=1024)
def _ref(item: str) -> VarRef:
    """The :class:`VarRef` an item of a ref list either regex accepted spells: ``[not<ws>]name``.

    Cached by spelling, whitespace included, in a least-recently-used cache of 1024 entries,
    so a run builds a few dozen references, not one per occurrence, and keeps no more than that.
    """
    *prefix, name = item.split()
    return VarRef(name.upper(), bool(prefix))


def _refs(items: str) -> list[VarRef]:
    """The references of a ref list either regex accepted: ``item ("," item)*``, so split on commas."""
    return [_ref(item) for item in items.split(",")]


def _scan(text: str) -> tuple[list[str], list[tuple[int, int]]]:
    """Return the tokens of ``text`` and the 1-based ``(line, column)`` of each.

    The last token is an empty end sentinel placed just past the text's last
    token; it equals no expected token, so the walk stops on it. Raises
    :class:`ParseError` at the first character that starts no token.
    """
    tokens: list[str] = []
    positions: list[tuple[int, int]] = []
    end_at = (1, 1)
    for line_no, line in enumerate(text.splitlines(), start=1):
        pos = 0
        while pos < len(line):
            if line[pos].isspace():
                pos += 1
                continue
            m = _TOKEN_RE.match(line, pos)
            if not m:
                raise ParseError(f"unexpected character {line[pos]!r}", line_no, pos + 1)
            tokens.append(m.group())
            positions.append((line_no, pos + 1))
            pos = m.end()
            end_at = (line_no, pos + 1)
    tokens.append("")
    positions.append(end_at)
    return tokens, positions


def _unexpected(
    tokens: list[str], positions: list[tuple[int, int]], index: int, what: str, lead: str = ""
) -> ParseError:
    """The token at ``index`` is not ``what``; at the end sentinel, the input ended early."""
    if index == len(tokens) - 1:
        return ParseError(f"unexpected end of input, expected {what}", *positions[index])
    lead = lead or f"expected {what}, found"
    return ParseError(f"{lead} {tokens[index]!r}", *positions[index])


def _expect(tokens: list[str], positions: list[tuple[int, int]], i: int, words: list[str]) -> int:
    """Return the index past ``words``, which must be the tokens from ``i`` on."""
    for i, word in enumerate(words, start=i):
        if tokens[i] != word:
            raise _unexpected(tokens, positions, i, repr(word))
    return i + 1


def _var(tokens: list[str], positions: list[tuple[int, int]], i: int, upper: bool, what: str) -> None:
    var = tokens[i]
    if not (var.isalpha() and (var.isupper() if upper else var.islower())):
        raise _unexpected(tokens, positions, i, what)


def _var_list(
    tokens: list[str], positions: list[tuple[int, int]], i: int, upper: bool, what: str
) -> tuple[list[int], int]:
    """Walk ``["not"] var ("," ["not"] var)*`` from ``i``.

    Returns the token index of each variable and the index past the list.
    """
    at: list[int] = []
    while True:
        if tokens[i] == "not":
            i += 1
        _var(tokens, positions, i, upper, what)
        at.append(i)
        if tokens[i + 1] != ",":
            return at, i + 1
        i += 2


def parse_template_dsl(text: str) -> Template:
    """Parse template text into a :class:`Template`.

    Raises :class:`ParseError` with a line/column location on syntax
    errors and unknown operators. Once the whole text has parsed, the
    rules of :func:`validate_template` are checked and a fault is reported
    at its token. When no ``Label:`` line is present the target relation
    defaults to ``entailed``, or ``irrelevant`` if the question matches no
    premise.

    The template is built only from regex matches, a whole statement at a
    time, with no tokens and no positions. Text that does not match, or
    that breaks a rule, goes to the token walk, which builds nothing: it
    only names the failing token's line and column.
    """
    # Lists, which the dataclasses turn into tuples of their exact size: a tuple
    # built straight from an iterator is resized, and when freed it piles up in
    # CPython's per-size tuple free lists (~1.2 MB more peak RSS over 10k templates).
    groups: list[TemplateGroup] = []
    pos = 0
    while m := _STATEMENT_RE.match(text, pos):
        op, conditions, premise = m.groups()
        groups.append(TemplateGroup(_OPERATORS[op], _refs(conditions), premise))
        pos = m.end()
    tail = _TAIL_RE.fullmatch(text, pos)
    fault = None
    if tail:
        facts, question, target = tail.groups()
        if target is None:
            target = "entailed" if any(g.consequent.lower() == question for g in groups) else "irrelevant"
        template = Template(groups, _refs(facts), question, target)
        fault = _first_fault(template)
        if fault is None:
            return template
    raise _parse_tokens(text, fault)


def _parse_tokens(text: str, fault: tuple[str, str, int] | None) -> ParseError:
    """Walk ``text`` token by token to locate why :func:`parse_template_dsl` refused it.

    Raises :class:`ParseError` at the first syntax fault. Text the walk
    accepts was matched, so ``fault`` is the matched template's rule fault:
    it is returned as a :class:`ParseError` at its token.
    """
    tokens, positions = _scan(text)
    end = len(tokens) - 1

    if tokens[0] != "If":
        raise _unexpected(tokens, positions, 0, "'If'")
    i = 0
    cond_at: list[int] = []
    premise_at: list[int] = []
    while tokens[i] == "If":
        if tokens[i + 1] not in _OPERATORS:
            raise _unexpected(tokens, positions, i + 1, "operator", "unknown operator")
        i = _expect(tokens, positions, i + 2, ["("])
        at, i = _var_list(tokens, positions, i, True, "condition variable")
        cond_at += at
        i = _expect(tokens, positions, i, [")", ",", "then"])
        _var(tokens, positions, i, True, "premise variable")
        premise_at.append(i)
        i = _expect(tokens, positions, i + 1, ["."])

    i = _expect(tokens, positions, i, ["Facts", ":"])
    fact_at, i = _var_list(tokens, positions, i, False, "fact variable")
    i = _expect(tokens, positions, i, [".", "Question", ":", "Is"])
    _var(tokens, positions, i, False, "question variable")
    question_at = i
    i = _expect(tokens, positions, i + 1, ["correct", "?"])

    label_at = -1
    if tokens[i] == "Label":
        label_at = i = _expect(tokens, positions, i + 1, [":"])
        if i == end:
            raise _unexpected(tokens, positions, i, "label")
        i += 1
        if tokens[i] == ",":
            # ", if C1, C2" solver qualifier: accepted, not stored.
            i = _expect(tokens, positions, i + 1, ["if"])
            while True:
                if not _QUALIFIER_RE.fullmatch(tokens[i]):
                    raise _unexpected(tokens, positions, i, "condition id")
                i += 1
                if tokens[i] != ",":
                    break
                i += 1
    if i != end:
        raise _unexpected(tokens, positions, i, "", "unexpected trailing input")

    assert fault is not None, "the token walk accepted text the statement match refused"
    message, site, index = fault
    sites = {
        "condition": cond_at,
        "premise": premise_at,
        "fact": fact_at,
        "question": [question_at],
        "label": [label_at],
    }
    return ParseError(message, *positions[sites[site][index]])


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
