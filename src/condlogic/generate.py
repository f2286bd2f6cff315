"""Synthetic example generation from symbolic templates and an NLI bank.

Templates are sampled symbolically (see :mod:`condlogic.templates`) and
instantiated with premise/hypothesis pairs drawn from a bank of NLI
records: a condition takes a record's premise, its fact takes the
hypothesis, and the record's label follows the fact's polarity
(entailment for fact ``a``, contradiction for ``not a``); conditions
without facts and distractor premises use any record's premise. The
asked premise/question pair is drawn from the bucket matching the
template's target relation.

Everything is deterministic in the master seed: template choice and all
sampling derive per-item seeds by stable hashing, so dev and test splits
never share randomness. An example's draws are indices into the bank's
records, from which the generator and the CLI place raw or JSON-escaped
texts by one rule.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Iterator

from .errors import BankError, GenerationError, InvariantError
from .jsonl import JsonlReader
from .logic import Condition, ConditionGroup, LogicalType, TaskProfile, Verdict, derive_answer
from .templates import (
    TARGET_RELATIONS,
    Template,
    TemplateGroup,
    VarRef,
    condition_ids,
    render_template_dsl,
    template_groups,
    validate_template,
)

NLI_LABELS = ("entailment", "contradiction", "neutral")

#: NLI bucket that realizes each target relation for the question pair.
_NLI_FOR_RELATION = {
    "entailed": "entailment",
    "contradicted": "contradiction",
    "neutral": "neutral",
}

# Condition and premise variables come from disjoint alphabets so that a
# lowercase fact or question token is never ambiguous.
_CONDITION_ALPHABET = "ABCDEFGHIJKLMNOPQRST"
_CONSEQUENT_ALPHABET = "UVWXYZ"


def _bijective_name(index: int, alphabet: str) -> str:
    """Spreadsheet-style names over an alphabet: A..T, AA, AB, ..."""
    chars = []
    n = index + 1
    base = len(alphabet)
    while n > 0:
        n, rem = divmod(n - 1, base)
        chars.append(alphabet[rem])
    return "".join(reversed(chars))


def _seed_prefix(*parts):
    """A sha256 fed ``parts`` as :func:`_derive_seed` joins them, each followed by the separator."""
    return hashlib.sha256("".join(f"{p}\x1f" for p in parts).encode("utf-8"))


def _seed_after(prefix, tail: str) -> int:
    """``_derive_seed(*parts, tail)`` for the ``prefix`` that :func:`_seed_prefix` made of ``parts``."""
    digest = prefix.copy()
    digest.update(tail.encode("utf-8"))
    return int.from_bytes(digest.digest()[:8], "big")


def _derive_seed(*parts) -> int:
    """Stable 64-bit seed from one or more parts, joined by a separator (unlike ``hash``, it is
    identical across interpreter runs)."""
    return _seed_after(_seed_prefix(*parts[:-1]), str(parts[-1]))


@dataclass(frozen=True, slots=True)
class NliRecord:
    premise: str
    hypothesis: str
    label: str


@dataclass(frozen=True)
class NliBank:
    """NLI records bucketed by label, with sampling helpers.

    ``records`` holds every bucket's records concatenated in
    ``NLI_LABELS`` order; it is derived from ``by_label`` on construction.
    """

    path: str
    by_label: dict[str, tuple[NliRecord, ...]]
    skipped: int = 0
    records: tuple[NliRecord, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        flat = tuple(r for label in NLI_LABELS for r in self.by_label.get(label, ()))
        object.__setattr__(self, "records", flat)

    @property
    def counts(self) -> dict[str, int]:
        return {label: len(self.by_label.get(label, ())) for label in NLI_LABELS}

    def __len__(self) -> int:
        return len(self.records)

    def span(self, label: str | None) -> tuple[int, int]:
        """``(offset, size)`` of the ``label`` bucket in ``records`` (None: all of them):
        ``records[offset + rng.randrange(size)]`` is the record :meth:`sample` (:meth:`sample_any`) draws.
        Raises :class:`BankError` when the bucket has no records or ``label`` is not an NLI label."""
        if label is None:
            if not self.records:
                raise BankError(f"bank {self.path!r} is empty")
            return 0, len(self.records)
        sizes = self.counts
        if not sizes.get(label):
            raise BankError(f"bank {self.path!r} has no {label!r} records")
        return sum(sizes[other] for other in NLI_LABELS[: NLI_LABELS.index(label)]), sizes[label]

    def sample(self, label: str, rng: random.Random) -> NliRecord:
        offset, size = self.span(label)
        return self.records[offset + rng.randrange(size)]

    def sample_any(self, rng: random.Random) -> NliRecord:
        """A uniformly drawn record of any label (one ``randrange`` call)."""
        return self.records[rng.randrange(self.span(None)[1])]


def load_nli_bank(path) -> NliBank:
    """Load a JSONL bank of ``{premise, hypothesis, label}`` records.

    MultiNLI-style ``sentence1``, ``sentence2`` and ``gold_label`` are
    accepted as aliases; a key that is present wins over its alias, even
    when empty. Malformed lines (bad JSON, non-objects, missing fields,
    labels outside entailment/contradiction/neutral) are skipped and
    counted. A bank with no valid records raises :class:`BankError`.
    """

    def parse(raw: dict) -> NliRecord:
        premise = raw.get("premise", raw.get("sentence1"))
        hypothesis = raw.get("hypothesis", raw.get("sentence2"))
        label = raw.get("label", raw.get("gold_label"))
        # Spelled out rather than all() over a generator, which costs more per bank line.
        if not (isinstance(premise, str) and premise and isinstance(hypothesis, str) and hypothesis
                and isinstance(label, str) and label):
            raise ValueError("missing or empty fields")
        if label not in NLI_LABELS:
            raise ValueError(f"unknown label {label!r}")
        return NliRecord(premise, hypothesis, label)

    buckets: dict[str, list[NliRecord]] = {label: [] for label in NLI_LABELS}
    with open(path, encoding="utf-8") as handle:
        reader = JsonlReader(handle, path, parse)
        for record in reader:
            buckets[record.label].append(record)
    bank = NliBank(
        path=str(path),
        by_label={label: tuple(records) for label, records in buckets.items()},
        skipped=reader.skipped,
    )
    if not len(bank):
        raise BankError(f"bank {path!r} contains no valid records")
    return bank


@dataclass(frozen=True)
class GenConfig:
    """Generation parameters. ``seed`` is the master seed and mandatory."""

    seed: int
    max_conditions: int = 6
    n_templates: int = 65
    n_dev: int = 5000
    n_test: int = 5000
    #: Relative weights for drawing the all / any operator.
    operator_weights: tuple[float, float] = (1.0, 1.0)
    #: Bounds (inclusive) on the number of distractor premises per template.
    distractor_range: tuple[int, int] = (0, 2)
    #: Probability that a condition contributes a fact.
    fact_probability: float = 0.5
    #: Probability of negating a condition slot or a fact.
    negation_probability: float = 0.25
    #: Consecutive duplicate candidates tolerated before giving up.
    max_retries: int = 1000

    def __post_init__(self):
        if self.max_conditions < 1:
            raise InvariantError("max_conditions must be at least 1")
        if self.n_templates < 1:
            raise InvariantError("n_templates must be at least 1")
        if min(self.n_dev, self.n_test) < 0:
            raise InvariantError("split sizes cannot be negative")
        if min(self.operator_weights) < 0 or sum(self.operator_weights) <= 0:
            raise InvariantError("operator weights must be non-negative and not all zero")
        lo, hi = self.distractor_range
        if not 0 <= lo <= hi:
            raise InvariantError("invalid distractor range")
        for p in (self.fact_probability, self.negation_probability):
            if not 0.0 <= p <= 1.0:
                raise InvariantError("probabilities must lie in [0, 1]")


def config_hash(config: GenConfig) -> str:
    """Stable hex digest of a config, for manifests."""
    payload = json.dumps(config.__dict__, sort_keys=True, default=str)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def _random_template(config: GenConfig, rng: random.Random) -> Template:
    target = TARGET_RELATIONS[rng.randrange(len(TARGET_RELATIONS))]
    lo, hi = config.distractor_range
    n_groups = 1 + rng.randint(lo, hi)
    n_groups = min(n_groups, config.max_conditions)  # every group needs a condition

    ops = rng.choices((LogicalType.ALL, LogicalType.ANY), weights=config.operator_weights, k=n_groups)
    budget = config.max_conditions
    groups: list[TemplateGroup] = []
    var_index = 0
    for gi in range(n_groups):
        groups_left = n_groups - gi - 1
        size = rng.randint(1, budget - groups_left)
        budget -= size
        refs = []
        for _ in range(size):
            negated = rng.random() < config.negation_probability
            refs.append(VarRef(_bijective_name(var_index, _CONDITION_ALPHABET), negated))
            var_index += 1
        groups.append(TemplateGroup(ops[gi], tuple(refs), _bijective_name(gi, _CONSEQUENT_ALPHABET)))

    if target == "irrelevant":
        question_var = _bijective_name(n_groups, _CONSEQUENT_ALPHABET).lower()
    else:
        question_var = groups[rng.randrange(n_groups)].consequent.lower()

    all_vars = [ref.var for g in groups for ref in g.conditions]
    chosen = [v for v in all_vars if rng.random() < config.fact_probability]
    if not chosen:
        # The textual grammar requires at least one fact.
        chosen = [all_vars[rng.randrange(len(all_vars))]]
    facts = tuple(VarRef(v, rng.random() < config.negation_probability) for v in chosen)

    return Template(tuple(groups), facts, question_var, target)


@lru_cache(maxsize=16)
def generate_templates(config: GenConfig) -> tuple[Template, ...]:
    """Generate ``config.n_templates`` pairwise-distinct templates.

    Distinctness is structural: two templates collide when their
    canonical textual forms match. Deterministic in the master seed.
    Raises :class:`GenerationError` when ``max_retries`` consecutive
    candidates all collide (the template space is too small).
    """
    rng = random.Random(_derive_seed(config.seed, "templates"))
    seen: set[str] = set()
    out: list[Template] = []
    rejected = 0
    while len(out) < config.n_templates:
        candidate = _random_template(config, rng)
        key = render_template_dsl(candidate)
        if key in seen:
            rejected += 1
            if rejected > config.max_retries:
                raise GenerationError(
                    f"no new template after {config.max_retries} consecutive duplicates; "
                    f"got {len(out)} of {config.n_templates}"
                )
            continue
        rejected = 0
        seen.add(key)
        out.append(replace(candidate, template_id=f"T{len(out):03d}"))
    return tuple(out)


@dataclass(frozen=True)
class Example:
    """An instantiated template with its oracle verdict."""

    context: tuple[ConditionGroup, ...]
    facts: tuple[str, ...]
    question: str
    gold: Verdict
    template_id: str
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "context", tuple(self.context))
        object.__setattr__(self, "facts", tuple(self.facts))


@dataclass(frozen=True)
class TemplatePlan:
    """A validated, solved template: the groups :func:`template_groups`
    resolved, with condition ids mapped to ``Ck``, the solver's verdict, and the
    records an example draws. Build one with :func:`compile_template`."""

    template_id: str
    gold: Verdict
    groups: tuple[ConditionGroup, ...]
    #: Index of the group the question asks about; ``None`` for irrelevant.
    relevant: int | None
    #: The bank label of each record drawn, in draw order (None: any record); draw k gives context text k's premise.
    draws: tuple[str | None, ...]
    #: What precedes each context text's premise: ``""`` for a result, ``Ck: `` or ``Ck: not `` for a condition.
    prefixes: tuple[str, ...]
    #: The draws whose hypotheses give the facts, in the template's fact order, then the question.
    hypotheses: tuple[int, ...]


def compile_template(template: Template) -> TemplatePlan:
    """Validate and solve a template once, mapping its groups and verdict to ``Ck`` ids, and list its draws."""
    validate_template(template)
    ids = condition_ids(template)
    groups, relevant = template_groups(template)
    groups = tuple(replace(g, conditions=tuple(replace(c, id=ids[c.id]) for c in g.conditions)) for g in groups)
    fact_labels = {ids[f.var]: "contradiction" if f.negated else "entailment" for f in template.facts}
    # The draw of each group (by index), each condition (by id) and an irrelevant question (None).
    draws, prefixes, drawn_at = [], [], {}
    for gi, g in enumerate(groups):
        drawn_at[gi] = len(draws)
        draws.append(_NLI_FOR_RELATION[template.target_relation] if gi == relevant else None)
        prefixes.append("")
        for c in g.conditions:
            drawn_at[c.id] = len(draws)
            draws.append(fact_labels.get(c.id))
            prefixes.append(f"{c.id}: not " if c.negated else f"{c.id}: ")
    if relevant is None:  # irrelevant target: the question hypothesis has no premise in context
        drawn_at[None] = len(draws)
        draws.append(None)
    fact_ids = tuple(ids[f.var] for f in template.facts)
    return TemplatePlan(
        template_id=template.template_id,
        gold=derive_answer(groups, relevant, TaskProfile.CONDNLI),
        groups=groups,
        relevant=relevant,
        draws=tuple(draws),
        prefixes=tuple(prefixes),
        hypotheses=tuple(drawn_at[key] for key in (*fact_ids, relevant)),
    )


def _draw(spans, rng: random.Random) -> list[int]:
    """``offset + i`` per ``(offset, size)`` in ``spans`` (each size positive), ``i`` drawn as CPython
    3.10-3.13's ``rng.randrange(size)`` does: ``size.bit_length()`` bits of ``getrandbits``, drawn again
    while not below ``size``. Written here because ``random`` does not promise ``randrange``'s rule."""
    getrandbits = rng.getrandbits
    picks = []
    for offset, size in spans:
        bits = size.bit_length()
        index = getrandbits(bits)
        while index >= size:
            index = getrandbits(bits)
        picks.append(offset + index)
    return picks


def _texts(plan: TemplatePlan, picks, premises, hypotheses) -> list:
    """The texts of an example drawn at ``picks`` (``premises[i]`` and ``hypotheses[i]`` belong to
    record ``i``), in record order: per group its result premise, then each condition's premise;
    then the facts' hypotheses in the template's fact order; then the question's."""
    return [premises[i] for i in picks[: len(plan.prefixes)]] + [hypotheses[picks[k]] for k in plan.hypotheses]


def _example(plan: TemplatePlan, example_seed: int, texts) -> Example:
    """The example of ``plan`` with the seed and the raw texts :func:`_texts` places; each
    context text gets its ``plan.prefixes`` entry."""
    it = map(str.__add__, plan.prefixes, texts)
    groups = []
    for gi, g in enumerate(plan.groups):
        result_text = next(it)
        groups.append(
            ConditionGroup(
                result_id=f"R{gi}",
                result_text=result_text,
                logical_type=LogicalType.REQUIRED if len(g.conditions) == 1 else g.logical_type,
                conditions=tuple(Condition(id=c.id, text=next(it)) for c in g.conditions),
            )
        )
    hypotheses = texts[len(plan.prefixes):]
    return Example(
        context=tuple(groups),
        facts=tuple(hypotheses[:-1]),
        question=hypotheses[-1],
        gold=plan.gold,
        template_id=plan.template_id,
        seed=example_seed,
    )


SPLITS = ("dev", "test", "train-stream")


def _drawer(config: GenConfig, bank: NliBank, split: str, plans: list[TemplatePlan]):
    """``draw(index)``: ``(plan, example_seed, picks)`` for the example at ``index`` of a split.

    ``plans[Random(_derive_seed(config.seed, split, index, "pick")).randrange(len(plans))]``, then
    ``_draw`` under ``Random(_derive_seed(_derive_seed(config.seed, split), plan.template_id, index))``;
    each seed continues a hash prefix made here, and seeds one reused ``Random``; the pick is a
    ``_draw`` too. Checks the bank.
    """
    split_seed = _derive_seed(config.seed, split)
    table = [(plan, _seed_prefix(split_seed, plan.template_id), [bank.span(d) for d in plan.draws]) for plan in plans]
    pick_span = [(0, len(table))]
    pick_prefix = _seed_prefix(config.seed, split)
    rng = random.Random()

    def draw(index: int) -> tuple[TemplatePlan, int, list[int]]:
        rng.seed(_seed_after(pick_prefix, f"{index}\x1fpick"))
        plan, prefix, spans = table[_draw(pick_span, rng)[0]]
        example_seed = _seed_after(prefix, str(index))
        rng.seed(example_seed)
        return plan, example_seed, _draw(spans, rng)

    return draw


def _draws(
    config: GenConfig, bank: NliBank, split: str, plans: list[TemplatePlan]
) -> Iterator[tuple[TemplatePlan, int, list[int]]]:
    """``(plan, example_seed, picks)`` per example of a split, as :func:`_drawer` makes them.

    The split name and the bank (for every label the plans draw) are checked when this
    is called, before any example is drawn: a fault raises here, not on the first ``next``.
    """
    if split not in SPLITS:
        raise InvariantError(f"unknown split {split!r}, expected one of {SPLITS}")
    length = {"dev": config.n_dev, "test": config.n_test}.get(split)
    return map(_drawer(config, bank, split, plans), range(length) if length is not None else itertools.count())


def generate_dataset(config: GenConfig, bank: NliBank, split: str) -> Iterator[Example]:
    """Yield examples for a split, choosing templates uniformly.

    ``dev`` and ``test`` emit exactly ``n_dev`` / ``n_test`` examples;
    ``train-stream`` is unbounded. Split tags enter the seed derivation,
    so splits draw from disjoint random streams. Each template is
    validated and solved once per call; every example then only draws
    bank records. The templates are made, and the split and the bank
    checked, when this is called, before any example is drawn: a fault
    raises here, not on the first ``next``.
    """
    plans = [compile_template(t) for t in generate_templates(config)]
    premises = [record.premise for record in bank.records]
    hypotheses = [record.hypothesis for record in bank.records]
    return (
        _example(plan, seed, _texts(plan, picks, premises, hypotheses))
        for plan, seed, picks in _draws(config, bank, split, plans)
    )
