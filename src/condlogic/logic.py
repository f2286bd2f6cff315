"""Three-valued evaluation of condition groups.

A result statement ("you get at least $60 a week") holds only when its
guarding conditions are met. Each condition's evidence is one of three
states: entailed, contradicted, or not mentioned. Conditions combine
under a logical type:

* ``all``      -- every condition must hold (conjunction)
* ``any``      -- one holding condition suffices (disjunction)
* ``required`` -- a single mandatory condition; same as ``all`` of one
* ``optional`` -- never blocks the result

Evaluating a group yields a group status (satisfied / contradicted /
undetermined) plus one output label per condition. Undetermined groups
mark their unknown conditions ``to_check``: those are the conditions an
answer must be qualified with. ``derive_answer`` turns group statuses
into a final answer label for a given task profile.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from itertools import product
from typing import Sequence

from .errors import InvariantError


class LogicalType(Enum):
    ALL = "all"
    ANY = "any"
    REQUIRED = "required"
    OPTIONAL = "optional"
    #: For parsed document contexts whose combinator is not yet resolved.
    #: Groups of this type cannot be evaluated.
    UNKNOWN = "unknown"


class EvidenceState(Enum):
    """Relation between the known facts and one condition."""

    ENTAILED = "entailed"
    CONTRADICTED = "contradicted"
    NOT_MENTIONED = "not_mentioned"


class ConditionLabel(Enum):
    """Per-condition output label produced by group evaluation.

    ``IMPLIED`` marks conditions that no longer matter because another
    disjunct already satisfied an ``any`` group. ``TO_CHECK`` marks the
    unknown conditions that keep a group undetermined.
    """

    ENTAILED = "entailed"
    CONTRADICTED = "contradicted"
    NOT_MENTIONED = "not_mentioned"
    IMPLIED = "implied"
    TO_CHECK = "to_check"


class GroupStatus(Enum):
    SATISFIED = "satisfied"
    CONTRADICTED = "contradicted"
    UNDETERMINED = "undetermined"


class FactRelation(Enum):
    """How a fact relates to a condition's (un-negated) statement."""

    SUPPORTS = "supports"
    CONTRADICTS = "contradicts"


class TaskProfile(Enum):
    """Answer label space of the downstream task."""

    CONDNLI = "condnli"
    YESNO = "yesno"
    SHARC = "sharc"

    @property
    def labels(self) -> frozenset[str]:
        return _PROFILE_LABELS[self]


#: The answer of a satisfied group, by profile and intrinsic relation. A contradicted group
#: answers as if its relation were neutral: its result cannot be invoked, so it says nothing
#: about the question.
_INTRINSIC_LABEL = {
    TaskProfile.CONDNLI: {"entailed": "entailed", "contradicted": "contradicted", "neutral": "neutral"},
    TaskProfile.YESNO: {"entailed": "yes", "contradicted": "no", "neutral": "irrelevant"},
    TaskProfile.SHARC: {"entailed": "yes", "contradicted": "no", "neutral": "irrelevant"},
}
# Every label derive_answer can give: a mapped relation, "irrelevant" when no group is relevant,
# and "inquire" for an undetermined group under sharc.
_PROFILE_LABELS = {
    profile: frozenset(answers.values()) | {"irrelevant"} | ({"inquire"} if profile is TaskProfile.SHARC else set())
    for profile, answers in _INTRINSIC_LABEL.items()
}


@dataclass(frozen=True, slots=True)
class Condition:
    id: str
    text: str
    negated: bool = False
    evidence: EvidenceState = EvidenceState.NOT_MENTIONED


@dataclass(frozen=True, slots=True)
class ConditionGroup:
    """One result statement and the conditions guarding it."""

    result_id: str
    result_text: str
    logical_type: LogicalType
    conditions: tuple[Condition, ...]
    intrinsic_relation: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "conditions", tuple(self.conditions))


@dataclass(frozen=True, slots=True)
class Verdict:
    """Final answer label plus the ids of conditions still to check."""

    label: str
    unsatisfied: frozenset[str] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "unsatisfied", frozenset(self.unsatisfied))


def resolve_state(negated: bool, fact_relation: FactRelation | None) -> EvidenceState:
    """Resolve a condition's evidence from a fact about its statement.

    ``fact_relation`` describes the fact's relation to the condition's
    un-negated statement; ``None`` means no fact mentions it. A negated
    condition flips the effect of the fact.
    """
    if fact_relation is None:
        return EvidenceState.NOT_MENTIONED
    supported = fact_relation is FactRelation.SUPPORTS
    if negated:
        supported = not supported
    return EvidenceState.ENTAILED if supported else EvidenceState.CONTRADICTED


_RAW_LABEL = {s: ConditionLabel(s.value) for s in EvidenceState}
# evaluate_group's label of each state in an undetermined all group, and in a satisfied or an
# undetermined any group; the other outcomes label every state raw or all alike.
_ALL_UNDETERMINED_LABEL = {
    EvidenceState.ENTAILED: ConditionLabel.ENTAILED,
    EvidenceState.NOT_MENTIONED: ConditionLabel.TO_CHECK,
}
_ANY_SATISFIED_LABEL = {
    EvidenceState.ENTAILED: ConditionLabel.ENTAILED,
    EvidenceState.CONTRADICTED: ConditionLabel.IMPLIED,
    EvidenceState.NOT_MENTIONED: ConditionLabel.IMPLIED,
}
_ANY_UNDETERMINED_LABEL = {
    EvidenceState.CONTRADICTED: ConditionLabel.CONTRADICTED,
    EvidenceState.NOT_MENTIONED: ConditionLabel.TO_CHECK,
}


# The members evaluate_group and derive_answer compare against, as module globals: on Python 3.11
# reading a member through its class costs ~90 ns, a global ~7 ns.
_ANY, _REQUIRED, _OPTIONAL, _UNKNOWN = LogicalType.ANY, LogicalType.REQUIRED, LogicalType.OPTIONAL, LogicalType.UNKNOWN
_ENTAILED, _CONTRADICTED, _NOT_MENTIONED = (
    EvidenceState.ENTAILED, EvidenceState.CONTRADICTED, EvidenceState.NOT_MENTIONED
)
_SATISFIED, _GROUP_CONTRADICTED, _UNDETERMINED = (
    GroupStatus.SATISFIED, GroupStatus.CONTRADICTED, GroupStatus.UNDETERMINED
)
_TO_CHECK, _SHARC = ConditionLabel.TO_CHECK, TaskProfile.SHARC


def evaluate_group(group: ConditionGroup) -> tuple[GroupStatus, tuple[ConditionLabel, ...]]:
    """Evaluate one group under its logical type.

    Returns the group status and one label per condition, in order.
    An empty condition list means the result is unconditional: the group
    is satisfied. ``required`` groups must hold exactly one condition,
    and ``unknown`` groups cannot be evaluated at all.
    """
    lt = group.logical_type
    conditions = group.conditions
    if lt is _UNKNOWN:
        raise InvariantError(
            f"group {group.result_id!r} has unresolved logical type 'unknown'"
        )
    if lt is _REQUIRED and len(conditions) != 1:
        raise InvariantError(
            f"required group {group.result_id!r} must hold exactly one condition, "
            f"got {len(conditions)}"
        )
    if not conditions:
        return _SATISFIED, ()

    # A list: membership tests on it cost less than any() or all() over a generator.
    states = [c.evidence for c in conditions]
    if lt is _OPTIONAL:
        # Optional conditions never gate the result and are never to check.
        return _SATISFIED, tuple([_RAW_LABEL[s] for s in states])

    if lt is _ANY:
        # One entailed disjunct settles the group and implies the rest.
        if _ENTAILED in states:
            return _SATISFIED, tuple([_ANY_SATISFIED_LABEL[s] for s in states])
        if _NOT_MENTIONED not in states:
            return _GROUP_CONTRADICTED, (ConditionLabel.CONTRADICTED,) * len(states)
        return _UNDETERMINED, tuple([_ANY_UNDETERMINED_LABEL[s] for s in states])

    # ALL and REQUIRED
    if _CONTRADICTED in states:
        return _GROUP_CONTRADICTED, tuple([_RAW_LABEL[s] for s in states])
    if _NOT_MENTIONED not in states:
        return _SATISFIED, (ConditionLabel.ENTAILED,) * len(states)
    return _UNDETERMINED, tuple([_ALL_UNDETERMINED_LABEL[s] for s in states])


# Table-driven reference implementation, kept deliberately independent of
# evaluate_group so the two can be cross-checked.

_REFERENCE_LABELS: dict[tuple[LogicalType, GroupStatus], dict[EvidenceState, ConditionLabel]] = {
    (LogicalType.ALL, GroupStatus.SATISFIED): {
        EvidenceState.ENTAILED: ConditionLabel.ENTAILED,
    },
    (LogicalType.ALL, GroupStatus.CONTRADICTED): {s: ConditionLabel(s.value) for s in EvidenceState},
    (LogicalType.ALL, GroupStatus.UNDETERMINED): {
        EvidenceState.ENTAILED: ConditionLabel.ENTAILED,
        EvidenceState.NOT_MENTIONED: ConditionLabel.TO_CHECK,
    },
    (LogicalType.ANY, GroupStatus.SATISFIED): {
        EvidenceState.ENTAILED: ConditionLabel.ENTAILED,
        EvidenceState.CONTRADICTED: ConditionLabel.IMPLIED,
        EvidenceState.NOT_MENTIONED: ConditionLabel.IMPLIED,
    },
    (LogicalType.ANY, GroupStatus.CONTRADICTED): {
        EvidenceState.CONTRADICTED: ConditionLabel.CONTRADICTED,
    },
    (LogicalType.ANY, GroupStatus.UNDETERMINED): {
        EvidenceState.CONTRADICTED: ConditionLabel.CONTRADICTED,
        EvidenceState.NOT_MENTIONED: ConditionLabel.TO_CHECK,
    },
}


def reference_evaluate(
    logical_type: LogicalType, states: Sequence[EvidenceState]
) -> tuple[GroupStatus, tuple[ConditionLabel, ...]]:
    """Slow reference for :func:`evaluate_group` on a bare state sequence.

    Decides the status by counting states and looks labels up in a fixed
    table; shares no code path with ``evaluate_group``.
    """
    lt = logical_type
    if lt is LogicalType.UNKNOWN:
        raise InvariantError("cannot evaluate logical type 'unknown'")
    if lt is LogicalType.REQUIRED:
        if len(states) != 1:
            raise InvariantError("required groups hold exactly one condition")
        lt = LogicalType.ALL
    if not states:
        return GroupStatus.SATISFIED, ()
    if lt is LogicalType.OPTIONAL:
        return GroupStatus.SATISFIED, tuple(ConditionLabel(s.value) for s in states)

    counts = Counter(states)
    if lt is LogicalType.ALL:
        if counts[EvidenceState.CONTRADICTED]:
            status = GroupStatus.CONTRADICTED
        elif counts[EvidenceState.NOT_MENTIONED]:
            status = GroupStatus.UNDETERMINED
        else:
            status = GroupStatus.SATISFIED
    else:
        if counts[EvidenceState.ENTAILED]:
            status = GroupStatus.SATISFIED
        elif counts[EvidenceState.NOT_MENTIONED]:
            status = GroupStatus.UNDETERMINED
        else:
            status = GroupStatus.CONTRADICTED
    rule = _REFERENCE_LABELS[(lt, status)]
    return status, tuple(rule[s] for s in states)


MAX_ENUMERATION_K = 12


def enumerate_assignments(
    logical_type: LogicalType, k: int
) -> dict[tuple[EvidenceState, ...], tuple[GroupStatus, tuple[ConditionLabel, ...]]]:
    """Tabulate all 3**k evidence assignments for a k-condition group.

    The table is built with :func:`reference_evaluate` and is the oracle
    the fast path is tested against; ``k`` is at most ``MAX_ENUMERATION_K``.
    """
    if k < 1:
        raise InvariantError("assignment enumeration needs at least one condition")
    if k > MAX_ENUMERATION_K:
        raise InvariantError(f"k={k} exceeds the enumeration bound of {MAX_ENUMERATION_K}")
    if logical_type is LogicalType.REQUIRED and k != 1:
        raise InvariantError("required groups hold exactly one condition")
    return {
        assignment: reference_evaluate(logical_type, assignment)
        for assignment in product(EvidenceState, repeat=k)
    }


def _mapped_intrinsic(group: ConditionGroup, profile: TaskProfile) -> str:
    relation = group.intrinsic_relation
    if relation is None:
        if profile is TaskProfile.SHARC:
            # A satisfied rule answers its own question affirmatively.
            relation = "entailed"
        else:
            raise InvariantError(
                f"group {group.result_id!r} has no intrinsic relation; "
                f"required for profile {profile.value!r}"
            )
    mapping = _INTRINSIC_LABEL[profile]
    if relation not in mapping:
        raise InvariantError(f"unknown intrinsic relation {relation!r}")
    return mapping[relation]


def derive_answer(
    groups: Sequence[ConditionGroup], relevant: int | None, profile: TaskProfile
) -> Verdict:
    """Derive the final answer from the group relevant to the question.

    ``relevant`` indexes the group whose result the question asks about;
    ``None`` means no result is relevant and the answer is irrelevant.
    A satisfied group answers with its intrinsic relation mapped into the
    profile's labels. An undetermined group gives the same probable
    answer qualified by its to-check conditions (profile ``sharc``
    instead asks to ``inquire``). A contradicted group cannot be invoked
    at all.
    """
    if relevant is None:
        return Verdict("irrelevant", frozenset())
    if not 0 <= relevant < len(groups):
        raise InvariantError(f"relevant index {relevant} out of range")
    group = groups[relevant]
    status, labels = evaluate_group(group)

    if status is _GROUP_CONTRADICTED:
        return Verdict(_INTRINSIC_LABEL[profile]["neutral"], frozenset())
    if status is _SATISFIED:
        return Verdict(_mapped_intrinsic(group, profile), frozenset())

    unsatisfied = frozenset(
        cond.id
        for cond, label in zip(group.conditions, labels)
        if label is _TO_CHECK
    )
    if profile is _SHARC:
        return Verdict("inquire", unsatisfied)
    return Verdict(_mapped_intrinsic(group, profile), unsatisfied)
