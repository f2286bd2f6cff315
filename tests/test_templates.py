import pytest
from hypothesis import given, strategies as st

from condlogic import (
    InvariantError,
    LogicalType,
    ParseError,
    Template,
    TemplateGroup,
    VarRef,
    Verdict,
    condition_ids,
    parse_template_dsl,
    render_template_dsl,
    solve_template,
    validate_template,
)
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
def test_verdict_coupled_to_group_status(t):
    from condlogic import GroupStatus, evaluate_group, template_groups

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
