import dataclasses
from itertools import product

import pytest
from hypothesis import given, strategies as st

from condlogic import (
    Condition,
    ConditionGroup,
    ConditionLabel,
    EvidenceState,
    FactRelation,
    GoldRecord,
    GroupStatus,
    HtmlElement,
    InvariantError,
    LogicalType,
    NliRecord,
    Prediction,
    TaskProfile,
    TemplateGroup,
    VarRef,
    Verdict,
    derive_answer,
    enumerate_assignments,
    evaluate_group,
    reference_evaluate,
    resolve_state,
)

E = EvidenceState.ENTAILED
C = EvidenceState.CONTRADICTED
N = EvidenceState.NOT_MENTIONED

L_E = ConditionLabel.ENTAILED
L_C = ConditionLabel.CONTRADICTED
L_N = ConditionLabel.NOT_MENTIONED
L_I = ConditionLabel.IMPLIED
L_T = ConditionLabel.TO_CHECK

SAT = GroupStatus.SATISFIED
CON = GroupStatus.CONTRADICTED
UND = GroupStatus.UNDETERMINED


def make_group(logical_type, states, intrinsic=None):
    conditions = tuple(
        Condition(id=f"C{i}", text=f"condition {i}", evidence=s) for i, s in enumerate(states)
    )
    return ConditionGroup("R0", "the result", logical_type, conditions, intrinsic)


@pytest.mark.parametrize(
    "negated,relation,expected",
    [
        (False, None, N),
        (True, None, N),
        (False, FactRelation.SUPPORTS, E),
        (True, FactRelation.SUPPORTS, C),
        (False, FactRelation.CONTRADICTS, C),
        (True, FactRelation.CONTRADICTS, E),
    ],
)
def test_resolve_state(negated, relation, expected):
    assert resolve_state(negated, relation) is expected


@pytest.mark.parametrize(
    "logical_type,states,expected",
    [
        (LogicalType.ALL, (E, E), (SAT, (L_E, L_E))),
        (LogicalType.ALL, (E, N), (UND, (L_E, L_T))),
        (LogicalType.ALL, (E, C), (CON, (L_E, L_C))),
        (LogicalType.ALL, (N, C, N), (CON, (L_N, L_C, L_N))),
        (LogicalType.ANY, (E, C), (SAT, (L_E, L_I))),
        (LogicalType.ANY, (N, E, N), (SAT, (L_I, L_E, L_I))),
        (LogicalType.ANY, (C, C), (CON, (L_C, L_C))),
        (LogicalType.ANY, (C, N), (UND, (L_C, L_T))),
        (LogicalType.REQUIRED, (E,), (SAT, (L_E,))),
        (LogicalType.REQUIRED, (C,), (CON, (L_C,))),
        (LogicalType.REQUIRED, (N,), (UND, (L_T,))),
        (LogicalType.OPTIONAL, (C, N, E), (SAT, (L_C, L_N, L_E))),
    ],
)
def test_evaluate_group_cases(logical_type, states, expected):
    assert evaluate_group(make_group(logical_type, states)) == expected


def test_empty_group_is_unconditional():
    for lt in (LogicalType.ALL, LogicalType.ANY, LogicalType.OPTIONAL):
        assert evaluate_group(make_group(lt, ())) == (SAT, ())


def test_required_arity_enforced():
    with pytest.raises(InvariantError):
        evaluate_group(make_group(LogicalType.REQUIRED, (E, E)))
    with pytest.raises(InvariantError):
        evaluate_group(make_group(LogicalType.REQUIRED, ()))


def test_unknown_type_rejected():
    with pytest.raises(InvariantError):
        evaluate_group(make_group(LogicalType.UNKNOWN, (E,)))
    with pytest.raises(InvariantError):
        reference_evaluate(LogicalType.UNKNOWN, (E,))


def test_reference_required_arity_and_empty_group():
    with pytest.raises(InvariantError, match="^required groups hold exactly one condition$"):
        reference_evaluate(LogicalType.REQUIRED, (E, E))
    assert reference_evaluate(LogicalType.ALL, ()) == (SAT, ())


def test_enumerate_any_single():
    table = enumerate_assignments(LogicalType.ANY, 1)
    assert table == {
        (E,): (SAT, (L_E,)),
        (C,): (CON, (L_C,)),
        (N,): (UND, (L_T,)),
    }


def test_enumerate_counts():
    all_2 = enumerate_assignments(LogicalType.ALL, 2)
    assert len(all_2) == 9
    assert sum(1 for s, _ in all_2.values() if s is SAT) == 1
    any_2 = enumerate_assignments(LogicalType.ANY, 2)
    # satisfied iff at least one entailed: 3**2 - 2**2
    assert sum(1 for s, _ in any_2.values() if s is SAT) == 5


def test_enumerate_bounds():
    with pytest.raises(InvariantError):
        enumerate_assignments(LogicalType.ALL, 0)
    with pytest.raises(InvariantError):
        enumerate_assignments(LogicalType.ALL, 13)
    with pytest.raises(InvariantError):
        enumerate_assignments(LogicalType.REQUIRED, 2)
    assert len(enumerate_assignments(LogicalType.REQUIRED, 1)) == 3


def test_exhaustive_agreement_small_groups():
    for lt in (LogicalType.ALL, LogicalType.ANY, LogicalType.OPTIONAL):
        for k in range(1, 5):
            table = enumerate_assignments(lt, k)
            for states, expected in table.items():
                assert evaluate_group(make_group(lt, states)) == expected


# --- derive_answer ---------------------------------------------------------


def test_no_relevant_group_is_irrelevant():
    groups = [make_group(LogicalType.ALL, (E,), "entailed")]
    for profile in TaskProfile:
        assert derive_answer(groups, None, profile) == Verdict("irrelevant", frozenset())


@pytest.mark.parametrize(
    "intrinsic,profile,expected",
    [
        ("entailed", TaskProfile.CONDNLI, "entailed"),
        ("contradicted", TaskProfile.CONDNLI, "contradicted"),
        ("neutral", TaskProfile.CONDNLI, "neutral"),
        ("entailed", TaskProfile.YESNO, "yes"),
        ("contradicted", TaskProfile.YESNO, "no"),
        ("entailed", TaskProfile.SHARC, "yes"),
        ("contradicted", TaskProfile.SHARC, "no"),
    ],
)
def test_satisfied_group_maps_intrinsic(intrinsic, profile, expected):
    groups = [make_group(LogicalType.ALL, (E, E), intrinsic)]
    assert derive_answer(groups, 0, profile) == Verdict(expected, frozenset())


def test_undetermined_answers_with_conditions():
    groups = [make_group(LogicalType.ALL, (E, N, N), "entailed")]
    assert derive_answer(groups, 0, TaskProfile.CONDNLI) == Verdict(
        "entailed", frozenset({"C1", "C2"})
    )
    assert derive_answer(groups, 0, TaskProfile.YESNO) == Verdict("yes", frozenset({"C1", "C2"}))


def test_undetermined_sharc_inquires():
    # With both conditions unknown the answer flips with their values,
    # so the only safe move is to ask.
    groups = [make_group(LogicalType.ALL, (N, N), "entailed")]
    table = enumerate_assignments(LogicalType.ALL, 2)
    outcomes = {table[(a, b)][0] for a in (E, C) for b in (E, C)}
    assert outcomes == {SAT, CON}
    assert derive_answer(groups, 0, TaskProfile.SHARC) == Verdict(
        "inquire", frozenset({"C0", "C1"})
    )


def test_contradicted_group_cannot_be_invoked():
    groups = [make_group(LogicalType.ALL, (E, C), "entailed")]
    assert derive_answer(groups, 0, TaskProfile.CONDNLI) == Verdict("neutral", frozenset())
    assert derive_answer(groups, 0, TaskProfile.YESNO) == Verdict("irrelevant", frozenset())
    assert derive_answer(groups, 0, TaskProfile.SHARC) == Verdict("irrelevant", frozenset())


def test_missing_intrinsic_relation():
    groups = [make_group(LogicalType.ALL, (E,))]
    with pytest.raises(InvariantError):
        derive_answer(groups, 0, TaskProfile.CONDNLI)
    with pytest.raises(InvariantError):
        derive_answer(groups, 0, TaskProfile.YESNO)
    # A satisfied rule without a stated relation answers affirmatively.
    assert derive_answer(groups, 0, TaskProfile.SHARC) == Verdict("yes", frozenset())


def test_unknown_intrinsic_relation_rejected():
    groups = [make_group(LogicalType.ALL, (E,), "maybe")]
    with pytest.raises(InvariantError, match="^unknown intrinsic relation 'maybe'$"):
        derive_answer(groups, 0, TaskProfile.CONDNLI)


def test_relevant_index_bounds():
    groups = [make_group(LogicalType.ALL, (E,), "entailed")]
    with pytest.raises(InvariantError):
        derive_answer(groups, 3, TaskProfile.CONDNLI)


def test_optional_group_never_unsatisfied():
    groups = [make_group(LogicalType.OPTIONAL, (N, N, C), "entailed")]
    verdict = derive_answer(groups, 0, TaskProfile.CONDNLI)
    assert verdict == Verdict("entailed", frozenset())


# --- property tests --------------------------------------------------------

# Up to 20 conditions, as many as a generated or benchmark template's group holds.
states_strategy = st.lists(st.sampled_from((E, C, N)), min_size=1, max_size=20)
gated_types = st.sampled_from((LogicalType.ALL, LogicalType.ANY))
all_types = st.sampled_from((LogicalType.ALL, LogicalType.ANY, LogicalType.OPTIONAL))
# Every group evaluate_group can decide: a required group holds exactly one condition.
typed_states = st.tuples(all_types, states_strategy) | st.tuples(
    st.just(LogicalType.REQUIRED), st.lists(st.sampled_from((E, C, N)), min_size=1, max_size=1)
)


@given(typed_states)
def test_fast_path_matches_reference(typed):
    logical_type, states = typed
    status, labels = evaluate_group(make_group(logical_type, states))
    assert (status, labels) == reference_evaluate(logical_type, states)
    assert type(labels) is tuple


@given(all_types, states_strategy)
def test_satisfied_is_monotone(logical_type, states):
    status, _ = evaluate_group(make_group(logical_type, states))
    if status is not SAT:
        return
    for i, state in enumerate(states):
        if state is N:
            bumped = list(states)
            bumped[i] = E
            assert evaluate_group(make_group(logical_type, bumped))[0] is SAT


@given(all_types, states_strategy)
def test_to_check_soundness(logical_type, states):
    status, labels = evaluate_group(make_group(logical_type, states))
    for state, label in zip(states, labels):
        if label is L_T:
            assert state is N
            assert status is UND


@given(gated_types, states_strategy)
def test_undetermined_iff_to_check(logical_type, states):
    status, labels = evaluate_group(make_group(logical_type, states))
    assert (status is UND) == (L_T in labels)


@given(states_strategy)
def test_all_any_duality(states):
    negated = [C if s is E else E if s is C else N for s in states]
    all_status, _ = evaluate_group(make_group(LogicalType.ALL, states))
    any_status, _ = evaluate_group(make_group(LogicalType.ANY, negated))
    assert (all_status is CON) == (any_status is SAT)


@given(
    gated_types,
    states_strategy,
    st.sampled_from(("entailed", "contradicted", "neutral")),
    st.sampled_from(tuple(TaskProfile)),
)
def test_answer_label_in_profile_space(logical_type, states, intrinsic, profile):
    groups = [make_group(logical_type, states, intrinsic)]
    verdict = derive_answer(groups, 0, profile)
    assert verdict.label in profile.labels
    status, _ = evaluate_group(groups[0])
    assert bool(verdict.unsatisfied) == (status is UND)


@pytest.mark.parametrize("profile", list(TaskProfile), ids=lambda profile: profile.value)
def test_profile_labels_are_exactly_the_answers(profile):
    # No relevant group, then every group of one to three conditions under every type, evidence
    # assignment and intrinsic relation; a group without one answers only under sharc.
    relations = ("entailed", "contradicted", "neutral", *((None,) if profile is TaskProfile.SHARC else ()))
    answers = {derive_answer([], None, profile).label}
    for logical_type, k in product((LogicalType.ALL, LogicalType.ANY, LogicalType.OPTIONAL), (1, 2, 3)):
        for states, relation in product(product(EvidenceState, repeat=k), relations):
            answers.add(derive_answer([make_group(logical_type, states, relation)], 0, profile).label)
    for state, relation in product(EvidenceState, relations):
        answers.add(derive_answer([make_group(LogicalType.REQUIRED, [state], relation)], 0, profile).label)
    assert answers == profile.labels


@given(st.sampled_from((LogicalType.ALL, LogicalType.ANY, LogicalType.OPTIONAL)), st.integers(1, 4))
def test_enumeration_covers_all_assignments(logical_type, k):
    table = enumerate_assignments(logical_type, k)
    assert len(table) == 3**k
    assert set(table) == set(product((E, C, N), repeat=k))


# --- the per-item records are slotted, immutable values -----------------------

# A fresh record each call, a field of it and another value for that field.
_RECORDS = {
    "VarRef": (lambda: VarRef("A", True), "negated", False),
    "TemplateGroup": (lambda: TemplateGroup(LogicalType.ALL, [VarRef("A"), VarRef("B", True)], "U"), "consequent", "V"),
    "Condition": (lambda: Condition("C0", "not A", True, E), "evidence", C),
    "ConditionGroup": (
        lambda: ConditionGroup("R0", "U", LogicalType.ANY, [Condition("C0", "A")], "entailed"),
        "intrinsic_relation",
        None,
    ),
    "Verdict": (lambda: Verdict("entailed", {"C1"}), "label", "neutral"),
    "HtmlElement": (lambda: HtmlElement("h2", "Eligibility"), "text", "Documents"),
    "NliRecord": (lambda: NliRecord("p", "h", "neutral"), "label", "entailment"),
    "Prediction": (lambda: Prediction("e0", "yes", {"C1"}), "label", "entailed"),
    "GoldRecord": (lambda: GoldRecord("e0", ["yes"], {"C1"}), "label", "entailed"),
}


@pytest.mark.parametrize("make,field,value", _RECORDS.values(), ids=list(_RECORDS))
def test_record_is_a_slotted_immutable_value(make, field, value):
    record = make()
    assert not hasattr(record, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(record, field, value)
    twin = make()
    assert twin == record and hash(twin) == hash(record)
    changed = dataclasses.replace(record, **{field: value})
    assert getattr(changed, field) == value and changed != record
    assert dataclasses.replace(changed, **{field: getattr(record, field)}) == record
