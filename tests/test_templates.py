import dataclasses
import random
import re
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from condlogic import (
    Condition,
    ConditionGroup,
    FactRelation,
    GenConfig,
    InvariantError,
    LogicalType,
    ParseError,
    TaskProfile,
    Template,
    TemplateGroup,
    VarRef,
    Verdict,
    condition_ids,
    derive_answer,
    parse_template_dsl,
    render_template_dsl,
    resolve_state,
    solve_template,
    template_groups,
    validate_template,
)
from condlogic import templates as templates_module
from condlogic.generate import _CONSEQUENT_ALPHABET, _bijective_name, _random_template
from condlogic.templates import TARGET_RELATIONS, _first_fault, _solve_valid
from conftest import REFERENCE_TEMPLATE


def test_parse_reference_template():
    t = parse_template_dsl(REFERENCE_TEMPLATE)
    assert t.groups == (
        TemplateGroup(LogicalType.ALL, (VarRef("A"), VarRef("B")), "U"),
        TemplateGroup(LogicalType.ANY, (VarRef("C", True), VarRef("D")), "V"),
    )
    assert t.facts == (VarRef("A"), VarRef("C"), VarRef("D", True))
    assert t.question_var == "u"
    assert t.target_relation == "entailed"


def test_solve_reference_template():
    verdict = solve_template(parse_template_dsl(REFERENCE_TEMPLATE))
    assert verdict == Verdict("entailed", frozenset({"B"}))


def test_condition_ids_document_order():
    t = parse_template_dsl(REFERENCE_TEMPLATE)
    assert condition_ids(t) == {"A": "C0", "B": "C1", "C": "C2", "D": "C3"}


def test_label_line_optional_defaults():
    text = "If all (A), then U.\nFacts: a.\nQuestion: Is u correct?"
    t = parse_template_dsl(text)
    assert t.target_relation == "entailed"
    assert solve_template(t) == Verdict("entailed", frozenset())

    unmatched = "If all (A), then U.\nFacts: a.\nQuestion: Is w correct?"
    t = parse_template_dsl(unmatched)
    assert t.target_relation == "irrelevant"
    assert solve_template(t) == Verdict("irrelevant", frozenset())


def test_label_suffix_tolerated_not_stored():
    with_suffix = parse_template_dsl(REFERENCE_TEMPLATE)
    without = parse_template_dsl(REFERENCE_TEMPLATE.replace(", if B", ""))
    assert with_suffix == without
    # The solver prints condition ids, not variables.
    for suffix in (", if C1", ", if C1, C2"):
        assert parse_template_dsl(REFERENCE_TEMPLATE.replace(", if B", suffix)) == without


def test_single_condition_group_parses():
    t = parse_template_dsl("If all (A), then U.\nFacts: a.\nQuestion: Is u correct?")
    assert len(t.groups) == 1
    assert len(t.groups[0].conditions) == 1


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("If both (A), then U.\nFacts: a.\nQuestion: Is u correct?", "unknown operator"),
        ("If all (A), then U.\nFacts: a, x.\nQuestion: Is u correct?", "unknown variable"),
        ("If all (A, A), then U.\nFacts: a.\nQuestion: Is u correct?", "reused"),
        ("If all (A), then U.\nIf any (B), then U.\nFacts: a.\nQuestion: Is u correct?", "reused"),
        ("If all (A), then A.\nFacts: a.\nQuestion: Is a correct?", "both condition and premise"),
        ("If all (A), then U.\nFacts: a.\nQuestion: Is u correct?\nLabel: maybe", "unknown label"),
        ("If all (A), then U.\nFacts: a.\nQuestion: Is u correct? extra", "trailing"),
        ("Facts: a.\nQuestion: Is u correct?", "expected 'If'"),
        ("If all (A), then U.\nFacts: a, a.\nQuestion: Is u correct?", "duplicate fact"),
        ("If all (A), then U\nFacts: a.\nQuestion: Is u correct?", "expected"),
        ("If all (), then U.\nFacts: a.\nQuestion: Is u correct?", "condition variable"),
        # A bare "not" is a prefix missing its variable, never a fact variable itself.
        (
            "If all (NOT), then U.\nFacts: not.\nQuestion: Is u correct?",
            "line 2, column 11: expected fact variable, found '.'",
        ),
        ("", "expected"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(ParseError) as excinfo:
        parse_template_dsl(text)
    assert fragment in str(excinfo.value)


_Q = "Question: Is u correct?"


@pytest.mark.parametrize(
    "text,line,col,message",
    [
        ("If all (A, B, A), then U.\nFacts: a.\n" + _Q, 1, 15, "condition variable 'A' reused"),
        (
            "If all (A), then U.\nIf any (B), then U.\nFacts: a.\n" + _Q,
            2,
            18,
            "premise variable 'U' reused",
        ),
        (
            "If all (A), then A.\nFacts: a.\nQuestion: Is a correct?",
            1,
            18,
            "variable 'A' used as both condition and premise",
        ),
        ("If all (A), then U.\nFacts: a, x.\n" + _Q, 2, 11, "unknown variable 'x' in facts"),
        ("If all (A), then U.\nFacts: a, not a.\n" + _Q, 2, 15, "duplicate fact 'a'"),
        (
            "If all (A), then U.\nFacts: a.\n" + _Q + "\nLabel: irrelevant",
            3,
            14,
            "label 'irrelevant' conflicts with question variable 'u'",
        ),
        (
            "If all (A), then U.\nFacts: a.\nQuestion: Is w correct?\nLabel: entailed",
            3,
            14,
            "question variable 'w' does not match any premise",
        ),
        ("If all (A), then U.\nFacts: a.\n" + _Q + "\nLabel: maybe", 4, 8, "unknown label 'maybe'"),
        # A label the statement match takes as one token, though no [a-z]+ word.
        ("If all (A), then U.\nFacts: a.\n" + _Q + "\nLabel: Entailed", 4, 8, "unknown label 'Entailed'"),
        ("If all (A), then U.\nFacts: a.\n" + _Q + "\nLabel:", 4, 7, "unexpected end of input, expected label"),
        (
            "If all (A), then U.\nFacts: a.\n" + _Q + "\nLabel: entailed, if c1",
            4,
            21,
            "expected condition id, found 'c1'",
        ),
        # The walk passes a qualifier list of more than one id to reach a later fault.
        ("If all (A, B), then U.\nFacts: a, a.\n" + _Q + "\nLabel: entailed, if A, B", 2, 11, "duplicate fact 'a'"),
        ("If all (A), then U.\nFacts: a.\n" + _Q + "\nLabel: entailed, if A, b", 4, 24,
         "expected condition id, found 'b'"),
    ],
)
def test_rule_fault_reported_at_token(text, line, col, message):
    with pytest.raises(ParseError) as excinfo:
        parse_template_dsl(text)
    assert str(excinfo.value) == f"line {line}, column {col}: {message}"
    assert (excinfo.value.line, excinfo.value.col) == (line, col)


def test_parse_error_location():
    with pytest.raises(ParseError) as excinfo:
        parse_template_dsl("If both (A), then U.\nFacts: a.\nQuestion: Is u correct?")
    assert excinfo.value.line == 1
    assert excinfo.value.col == 4


def test_question_label_consistency():
    matching_but_irrelevant = (
        "If all (A), then U.\nFacts: a.\nQuestion: Is u correct?\nLabel: irrelevant"
    )
    with pytest.raises(ParseError):
        parse_template_dsl(matching_but_irrelevant)
    unmatched_but_entailed = (
        "If all (A), then U.\nFacts: a.\nQuestion: Is w correct?\nLabel: entailed"
    )
    with pytest.raises(ParseError):
        parse_template_dsl(unmatched_but_entailed)


def test_render_canonical_form():
    t = parse_template_dsl(REFERENCE_TEMPLATE)
    assert render_template_dsl(t) == (
        "If all (A, B), then U.\n"
        "If any (not C, D), then V.\n"
        "Facts: a, c, not d.\n"
        "Question: Is u correct?\n"
        "Label: entailed"
    )


def test_render_requires_facts():
    t = Template(
        (TemplateGroup(LogicalType.ALL, (VarRef("A"),), "U"),),
        (),
        "u",
        "entailed",
    )
    validate_template(t)  # legal template, it just has no textual form
    with pytest.raises(InvariantError):
        render_template_dsl(t)


def test_solve_fully_supported_group():
    text = "If all (A, B), then U.\nFacts: a, b.\nQuestion: Is u correct?\nLabel: contradicted"
    assert solve_template(parse_template_dsl(text)) == Verdict("contradicted", frozenset())


def test_solve_contradicted_group_is_neutral():
    text = "If all (A, B), then U.\nFacts: a, not b.\nQuestion: Is u correct?\nLabel: entailed"
    assert solve_template(parse_template_dsl(text)) == Verdict("neutral", frozenset())


def test_solve_any_group_short_circuit():
    text = "If any (A, B, C), then U.\nFacts: a.\nQuestion: Is u correct?\nLabel: entailed"
    assert solve_template(parse_template_dsl(text)) == Verdict("entailed", frozenset())


def test_solve_negated_fact_satisfies_negated_condition():
    text = "If all (not A), then U.\nFacts: not a.\nQuestion: Is u correct?\nLabel: entailed"
    assert solve_template(parse_template_dsl(text)) == Verdict("entailed", frozenset())


@pytest.mark.parametrize(
    "template",
    [
        Template((), (), "u", "entailed"),
        Template((TemplateGroup(LogicalType.ALL, (), "U"),), (), "u", "entailed"),
        Template(
            (TemplateGroup(LogicalType.REQUIRED, (VarRef("A"),), "U"),),
            (VarRef("A"),),
            "u",
            "entailed",
        ),
        Template(
            (TemplateGroup(LogicalType.ALL, (VarRef("A"),), "U"),),
            (VarRef("B"),),
            "u",
            "entailed",
        ),
        Template(
            (TemplateGroup(LogicalType.ALL, (VarRef("A"),), "U"),),
            (VarRef("A"),),
            "w",
            "entailed",
        ),
        Template(
            (TemplateGroup(LogicalType.ALL, (VarRef("A"),), "U"),),
            (VarRef("A"),),
            "u",
            "irrelevant",
        ),
    ],
)
def test_validate_template_rejects(template):
    with pytest.raises(InvariantError):
        validate_template(template)


@pytest.mark.parametrize(
    "template,message",
    [
        (
            Template((TemplateGroup(LogicalType.ALL, (VarRef("a"),), "U"),), (VarRef("a"),), "u", "entailed"),
            "condition variable 'a' is not uppercase",
        ),
        (
            Template((TemplateGroup(LogicalType.ALL, (VarRef("A"),), "u"),), (VarRef("A"),), "u", "entailed"),
            "premise variable 'u' is not uppercase",
        ),
    ],
    ids=["condition", "premise"],
)
def test_validate_template_rejects_lowercase_variables(template, message):
    # The parser rejects a lowercase variable itself, so only a Template built in code reaches these checks.
    with pytest.raises(InvariantError) as excinfo:
        validate_template(template)
    assert str(excinfo.value) == message


# --- structural round-trip property ----------------------------------------

_CONDITION_VARS = tuple("ABCDEFGHIJKLMNOPQRST")
_CONSEQUENTS = tuple("UVWXYZ")


@st.composite
def templates(draw):
    n_groups = draw(st.integers(1, 3))
    sizes = [draw(st.integers(1, 4)) for _ in range(n_groups)]
    var_iter = iter(_CONDITION_VARS)
    groups = []
    for gi in range(n_groups):
        refs = tuple(
            VarRef(next(var_iter), draw(st.booleans())) for _ in range(sizes[gi])
        )
        op = draw(st.sampled_from((LogicalType.ALL, LogicalType.ANY)))
        groups.append(TemplateGroup(op, refs, _CONSEQUENTS[gi]))
    all_vars = [r.var for g in groups for r in g.conditions]
    chosen = draw(
        st.lists(st.sampled_from(all_vars), min_size=1, max_size=len(all_vars), unique=True)
    )
    facts = tuple(VarRef(v, draw(st.booleans())) for v in sorted(chosen))
    target = draw(st.sampled_from(("entailed", "contradicted", "neutral", "irrelevant")))
    if target == "irrelevant":
        question = _CONSEQUENTS[n_groups].lower()
    else:
        question = groups[draw(st.integers(0, n_groups - 1))].consequent.lower()
    return Template(tuple(groups), facts, question, target)


@given(templates())
def test_round_trip_identity(t):
    validate_template(t)
    assert parse_template_dsl(render_template_dsl(t)) == t


@given(templates())
def test_rendered_text_never_takes_the_token_walk(t):
    # The walk only reports faults: a regex that stops matching well-formed
    # text, and so sends it to the walk, fails here rather than only slowing.
    with mock.patch("condlogic.templates._parse_tokens", side_effect=AssertionError("took the token walk")):
        assert parse_template_dsl(render_template_dsl(t)) == t


@given(templates())
def test_verdict_coupled_to_group_status(t):
    from condlogic import GroupStatus, evaluate_group

    verdict = solve_template(t)
    groups, relevant = template_groups(t)
    if relevant is None:
        assert verdict == Verdict("irrelevant", frozenset())
    else:
        status, _ = evaluate_group(groups[relevant])
        assert bool(verdict.unsatisfied) == (status is GroupStatus.UNDETERMINED)


_FAULTS = (
    None,
    "reused condition",
    "reused premise",
    "premise is a condition",
    "fact without condition",
    "duplicate fact",
    "question matches no premise",
    "irrelevant with matching question",
)


@st.composite
def templates_with_one_fault(draw):
    t = draw(templates())
    fault = draw(st.sampled_from(_FAULTS))
    groups = list(t.groups)
    facts = list(t.facts)
    question, target = t.question_var, t.target_relation
    used = [r.var for g in groups for r in g.conditions]
    fresh = next(v for v in _CONDITION_VARS if v not in used)
    if fault == "reused condition":
        gi = draw(st.integers(0, len(groups) - 1))
        ref = VarRef(draw(st.sampled_from(used)), draw(st.booleans()))
        g = groups[gi]
        groups[gi] = TemplateGroup(g.logical_type, g.conditions + (ref,), g.consequent)
    elif fault == "reused premise":
        premise = draw(st.sampled_from([g.consequent for g in groups]))
        groups.append(TemplateGroup(LogicalType.ALL, (VarRef(fresh),), premise))
    elif fault == "premise is a condition":
        groups.append(TemplateGroup(LogicalType.ANY, (VarRef(fresh),), draw(st.sampled_from(used))))
    elif fault == "fact without condition":
        facts.append(VarRef(fresh, draw(st.booleans())))
    elif fault == "duplicate fact":
        facts.append(VarRef(draw(st.sampled_from(facts)).var, draw(st.booleans())))
    elif fault == "question matches no premise":
        question = _CONSEQUENTS[-1].lower()
        target = draw(st.sampled_from(("entailed", "contradicted", "neutral")))
    elif fault == "irrelevant with matching question":
        question = draw(st.sampled_from(groups)).consequent.lower()
        target = "irrelevant"
    return Template(tuple(groups), tuple(facts), question, target), fault


@given(templates_with_one_fault())
def test_parser_and_validator_share_rules(case):
    t, fault = case
    try:
        validate_template(t)
        expected = None
    except InvariantError as exc:
        expected = str(exc)
    try:
        parse_template_dsl(render_template_dsl(t))
        got = None
    except ParseError as exc:
        got = str(exc).split(": ", 1)[1]
    assert (expected is None) == (fault is None)
    assert got == expected


# --- the asked-group solver against a solve over every group ---------------

@st.composite
def generated_templates(draw):
    """A generator-drawn template, asked about a drawn group (or none), with
    or without its ``Label:`` line, and parsed back from its text."""
    config = GenConfig(
        seed=draw(st.integers(0, 2**32 - 1)),
        max_conditions=draw(st.integers(1, 12)),
        distractor_range=(0, draw(st.integers(0, 4))),
    )
    t = _random_template(config, random.Random(config.seed))
    target = draw(st.sampled_from(TARGET_RELATIONS))
    if target == "irrelevant":
        question = _bijective_name(len(t.groups), _CONSEQUENT_ALPHABET).lower()
    else:
        question = t.groups[draw(st.integers(0, len(t.groups) - 1))].consequent.lower()
    text = render_template_dsl(dataclasses.replace(t, question_var=question, target_relation=target))
    if draw(st.booleans()):
        text = text[: text.rindex("\nLabel:")]
    return parse_template_dsl(text)


@settings(max_examples=300)
@given(generated_templates())
def test_asked_group_solver_matches_all_groups(t):
    assert _solve_valid(t) == derive_answer(*template_groups(t), TaskProfile.CONDNLI)


# --- the shared references and conditions --------------------------------------

def _letters(n: int, k: int = 4) -> str:
    return "".join("ABCDEFGHIJKLMNOPQRSTUVWXYZ"[n // 26**i % 26] for i in range(k))


def test_shared_values_stay_bounded_and_equal_fresh_ones():
    # Every other template spells all its references anew: long names, whitespace after "not".
    # The rest reuse A..F with any negation and fact, so shared conditions meet every fact relation.
    rng = random.Random(5)
    caches = {"refs": templates_module._ref, "conditions": templates_module._condition}
    for cache in caches.values():
        cache.cache_clear()
    largest = {"refs": 0, "conditions": 0}
    maxsize = min(cache.cache_info().maxsize for cache in caches.values())
    spellings = set()
    for i in range(5000):
        if i % 2:
            names = [_letters(i * 8 + j) for j in range(rng.randint(1, 4))]
        else:
            names = rng.sample("ABCDEF", rng.randint(1, 4))
        negated = {name: rng.random() < 0.5 for name in names}
        facts = {name: rng.random() < 0.5 for name in rng.sample(names, rng.randint(1, len(names)))}

        def spell(name, neg):
            return f"not{' ' * rng.randint(1, 3)}{name}" if neg else name

        conditions = [spell(name, negated[name]) for name in names]
        fact_items = [spell(name.lower(), neg) for name, neg in facts.items()]
        spellings.update(conditions, fact_items)
        conditions, fact_text = ", ".join(conditions), ", ".join(fact_items)
        t = parse_template_dsl(f"If all ({conditions}), then U.\nFacts: {fact_text}.\nQuestion: Is u correct?")
        groups, relevant = template_groups(t)
        for name, cache in caches.items():
            info = cache.cache_info()
            assert info.currsize <= info.maxsize
            largest[name] = max(largest[name], info.currsize)

        fresh_refs = [VarRef(name, negated[name]) for name in names]
        assert t == Template([TemplateGroup(LogicalType.ALL, fresh_refs, "U")],
                             [VarRef(name, neg) for name, neg in facts.items()], "u", "entailed")
        relation = {name: FactRelation.CONTRADICTS if neg else FactRelation.SUPPORTS for name, neg in facts.items()}
        fresh_conditions = [
            Condition(ref.var, f"not {ref.var}" if ref.negated else ref.var, ref.negated,
                      resolve_state(ref.negated, relation.get(ref.var)))
            for ref in fresh_refs
        ]
        assert (groups, relevant) == ([ConditionGroup("U", "U", LogicalType.ALL, fresh_conditions, "entailed")], 0)
    # Many more spellings than the bound were parsed.
    assert len(spellings) > 4 * maxsize
    assert min(largest.values()) > maxsize // 2


# --- differential check against the first parser ---------------------------
_OLD_TOKEN_RE = re.compile(r"[A-Za-z]+[0-9]*|[(),.:?]")
_OLD_QUALIFIER_RE = re.compile(r"[A-Z]+|C[0-9]+")


class _OldToken:
    def __init__(self, value, line, col):
        self.value, self.line, self.col = value, line, col


def _old_tokenize(text):
    tokens = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        pos = 0
        while pos < len(line):
            if line[pos].isspace():
                pos += 1
                continue
            m = _OLD_TOKEN_RE.match(line, pos)
            if not m:
                raise ParseError(f"unexpected character {line[pos]!r}", line_no, pos + 1)
            tokens.append(_OldToken(m.group(), line_no, pos + 1))
            pos = m.end()
    return tokens


class _OldTokenStream:
    def __init__(self, tokens):
        self._tokens = tokens
        self._pos = 0

    def peek(self):
        if self._pos < len(self._tokens):
            return self._tokens[self._pos].value
        return None

    def take(self, what="token"):
        if self._pos >= len(self._tokens):
            if self._tokens:
                last = self._tokens[-1]
                line, col = last.line, last.col + len(last.value)
            else:
                line, col = 1, 1
            raise ParseError(f"unexpected end of input, expected {what}", line, col)
        tok = self._tokens[self._pos]
        self._pos += 1
        return tok

    def expect(self, value):
        tok = self.take(repr(value))
        if tok.value != value:
            raise ParseError(f"expected {value!r}, found {tok.value!r}", tok.line, tok.col)
        return tok


def _old_take_var(ts, upper, what):
    tok = ts.take(what)
    ok = tok.value.isalpha() and (tok.value.isupper() if upper else tok.value.islower())
    if not ok:
        raise ParseError(f"expected {what}, found {tok.value!r}", tok.line, tok.col)
    return tok


def _old_parse_var_ref(ts, upper, what):
    negated = False
    if ts.peek() == "not":
        ts.take()
        negated = True
    tok = _old_take_var(ts, upper, what)
    return VarRef(tok.value, negated), tok


def _old_parse_template_dsl(text):
    """``parse_template_dsl`` as first written: one ``_Token`` per token, with its position."""
    ts = _OldTokenStream(_old_tokenize(text))
    groups, cond_tokens, cons_tokens = [], [], []
    if ts.peek() != "If":
        tok = ts.take("'If'")
        raise ParseError(f"expected 'If', found {tok.value!r}", tok.line, tok.col)
    while ts.peek() == "If":
        ts.expect("If")
        op_tok = ts.take("operator")
        if op_tok.value not in ("all", "any"):
            raise ParseError(f"unknown operator {op_tok.value!r}", op_tok.line, op_tok.col)
        op = LogicalType.ALL if op_tok.value == "all" else LogicalType.ANY
        ts.expect("(")
        refs = []
        ref, tok = _old_parse_var_ref(ts, upper=True, what="condition variable")
        refs.append(ref)
        cond_tokens.append(tok)
        while ts.peek() == ",":
            ts.take()
            ref, tok = _old_parse_var_ref(ts, upper=True, what="condition variable")
            refs.append(ref)
            cond_tokens.append(tok)
        ts.expect(")")
        ts.expect(",")
        ts.expect("then")
        cons_tok = _old_take_var(ts, upper=True, what="premise variable")
        ts.expect(".")
        groups.append(TemplateGroup(op, tuple(refs), cons_tok.value))
        cons_tokens.append(cons_tok)

    ts.expect("Facts")
    ts.expect(":")
    facts, fact_tokens = [], []
    while True:
        ref, tok = _old_parse_var_ref(ts, upper=False, what="fact variable")
        facts.append(VarRef(ref.var.upper(), ref.negated))
        fact_tokens.append(tok)
        if ts.peek() != ",":
            break
        ts.take()
    ts.expect(".")

    ts.expect("Question")
    ts.expect(":")
    ts.expect("Is")
    q_tok = _old_take_var(ts, upper=False, what="question variable")
    ts.expect("correct")
    ts.expect("?")

    label_tok = None
    if ts.peek() == "Label":
        ts.take()
        ts.expect(":")
        label_tok = ts.take("label")
        if ts.peek() == ",":
            ts.take()
            ts.expect("if")
            while True:
                tok = ts.take("condition id")
                if not _OLD_QUALIFIER_RE.fullmatch(tok.value):
                    raise ParseError(f"expected condition id, found {tok.value!r}", tok.line, tok.col)
                if ts.peek() != ",":
                    break
                ts.take()
    if ts.peek() is not None:
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


def _outcome(parse, text):
    try:
        return parse(text)
    except ParseError as exc:
        return str(exc), exc.line, exc.col


# Characters no token starts with (a digit glues onto a letter before it)
# and blanks and line breaks that str.splitlines, str.split and
# str.isspace must agree on; then tokens of the grammar.
_INSERTS = st.one_of(
    st.sampled_from(["1", "\u00e9", "-", "\r\n", "\r", "\n", "\x0c", "\x1c", "\x1f", "\x85", "\u2028", " "]),
    st.sampled_from(["A1", "C12", "not ", "not", " not ", "NOT", "A", "u", ",", ".", "(", ")", ":", "?", "If",
                     "all", "then", "Is", "Label", ", if C1", "if"]),
)


# Label-shaped tokens: the real labels and single tokens that are no [a-z]+ word.
_LABELS = st.sampled_from([*TARGET_RELATIONS, "Entailed", "ENTAILED", "neutral1", "("])


@st.composite
def mutated_texts(draw):
    text = render_template_dsl(draw(templates()))
    if draw(st.booleans()):
        # The rendered text ends with its label; the edits below seldom yield another one.
        text = text[: text.rindex("Label: ") + len("Label: ")] + draw(_LABELS)
    for _ in range(draw(st.integers(0, 3))):
        pos = draw(st.integers(0, len(text)))
        if draw(st.booleans()):
            text = text[:pos] + draw(_INSERTS) + text[pos:]
        else:
            text = text[:pos] + text[pos + draw(st.integers(1, 6)):]
    if draw(st.integers(0, 3)) == 0:
        text = text[: draw(st.integers(0, len(text)))]
    return text


@settings(max_examples=300, deadline=None)
@given(mutated_texts())
# A character no token covers in an otherwise valid template.
@example("If all (A), then U.\nFacts: a.\nQuestion: Is u correct? \u00e9")
def test_parser_matches_first_parser(text):
    assert _outcome(parse_template_dsl, text) == _outcome(_old_parse_template_dsl, text)


_WALK_EXAMPLE = "If all (A), then U.\nFacts: a.\nQuestion: Is u correct?\nLabel:"


@settings(max_examples=300, deadline=None)
@given(mutated_texts())
# Labels that are one token but no [a-z]+ word: the match must take them too.
@example(_WALK_EXAMPLE + " neutral1")
@example(_WALK_EXAMPLE + "Ifentailed, if B\n")
@example(_WALK_EXAMPLE + " Entailed")
@example(_WALK_EXAMPLE + " (")
def test_match_and_walk_accept_the_same_texts(text):
    # parse_template_dsl hands the walk the matched template's rule fault, or
    # None when the match failed.
    with mock.patch.object(templates_module, "_parse_tokens", wraps=templates_module._parse_tokens) as walk:
        try:
            parse_template_dsl(text)
            return
        except ParseError as exc:
            error = exc
    [(_, fault)] = [call.args for call in walk.call_args_list]
    if fault is None:
        # The match refused the text, so the walk must refuse its syntax.
        with pytest.raises(ParseError):
            templates_module._parse_tokens(text, None)
    else:
        # The match took the text, so the walk must too, and name that fault.
        assert str(templates_module._parse_tokens(text, fault)) == str(error)
        assert str(error).endswith(f": {fault[0]}")
