"""Reading and writing dataset splits.

Splits are JSON Lines files of serialized examples; each split carries a
``<name>.manifest`` sidecar recording the split name, record count,
master seed, config hash, and toolkit version. Reading is tolerant:
invalid records and a partially written final line are reported and
skipped, and a malformed manifest or a manifest/record-count mismatch
is a warning, not an error.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import asdict, dataclass, replace
from typing import Callable, Iterable, Iterator, Sequence

from . import __version__
from .contexts import group_to_dict
from .generate import Example, TemplatePlan, _example
from .jsonl import (
    JsonlReader, encode_line, int_field, jsonl_writer, line_skeleton, line_writer,
    require_fields, str_field, str_list_field,
)
from .logic import Condition, ConditionGroup, LogicalType, TaskProfile, Verdict
from .templates import _sorted_ids

logger = logging.getLogger(__name__)

MANIFEST_SUFFIX = ".manifest"

_CONDITION_ID_RE = re.compile(r"^C\d+$")
_EXAMPLE_GROUP_TYPES = {"all", "any", "required"}


@dataclass(frozen=True)
class SplitManifest:
    split: str
    count: int
    seed: int
    config_hash: str
    version: str = __version__

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, raw: dict) -> "SplitManifest":
        """Raises ``KeyError`` on a missing field and ``ValueError`` on one of the wrong type."""
        return cls(
            split=str_field(raw["split"], "split"),
            count=int_field(raw["count"], "count"),
            seed=int_field(raw["seed"], "seed"),
            config_hash=str_field(raw["config_hash"], "config_hash"),
            version=str_field(raw.get("version", ""), "version"),
        )


def example_to_dict(example: Example) -> dict:
    return {
        "template_id": example.template_id,
        "seed": example.seed,
        "context": [group_to_dict(group) for group in example.context],
        "facts": list(example.facts),
        "question": example.question,
        "answer_label": example.gold.label,
        "unsatisfied": _sorted_ids(example.gold.unsatisfied),
    }


def plan_line(plan: TemplatePlan) -> Callable[[int, Sequence[str]], str]:
    """``line(example_seed, bodies)``: the line :func:`write_split` writes for the example of
    ``plan`` with that seed and the texts ``generate._texts`` places, made without the example;
    ``bodies`` are those texts' :func:`jsonl.string_body`.

    The layout is :func:`example_to_dict`'s: :func:`jsonl.line_skeleton` cuts the line of the
    probe example that ``_example`` makes of ``plan`` with its holes for the seed and the texts.
    A ``Ck: `` prefix stays in the line.
    """
    return line_skeleton(
        lambda seed, texts: example_to_dict(_example(plan, seed, texts)), len(plan.prefixes) + len(plan.hypotheses)
    )


def example_from_dict(raw: dict) -> Example:
    """Deserialize one example record, validating its shape.

    Raises ``ValueError`` on missing fields, fields or list items of the
    wrong type (no value is coerced), malformed or repeated condition ids, unknown
    group types, ``required`` groups without exactly one condition,
    answer labels outside the condnli label set, or unsatisfied ids that
    name no condition.
    """
    if not isinstance(raw, dict):
        raise ValueError("record is not an object")
    require_fields(raw, ("template_id", "seed", "context", "facts", "question", "answer_label", "unsatisfied"))

    if not isinstance(raw["context"], list):
        raise ValueError("context is not a list")
    facts = str_list_field(raw["facts"], "facts")
    unsatisfied = str_list_field(raw["unsatisfied"], "unsatisfied")
    seed = int_field(raw["seed"], "seed")
    label = raw["answer_label"]
    if not isinstance(label, str) or label not in TaskProfile.CONDNLI.labels:
        raise ValueError(f"unknown answer label {label!r}")

    groups = []
    condition_ids: set[str] = set()
    for entry in raw["context"]:
        if not isinstance(entry, dict):
            raise ValueError("context entry is not an object")
        require_fields(entry, ("result_id", "result", "type", "conditions"))
        type_token = entry["type"]
        if not isinstance(type_token, str) or type_token not in _EXAMPLE_GROUP_TYPES:
            raise ValueError(f"unknown group type {type_token!r}")
        conditions = []
        raw_conditions = entry["conditions"]
        if not isinstance(raw_conditions, list):
            raise ValueError("conditions is not a list")
        for cond in raw_conditions:
            if not isinstance(cond, dict):
                raise ValueError("condition is not an object")
            require_fields(cond, ("id", "text"))
            cid = cond["id"]
            if not isinstance(cid, str) or not _CONDITION_ID_RE.match(cid):
                raise ValueError(f"malformed condition id {cid!r}")
            if cid in condition_ids:
                raise ValueError(f"duplicate condition id {cid!r}")
            condition_ids.add(cid)
            conditions.append(Condition(id=cid, text=str_field(cond["text"], "condition text")))
        if type_token == "required" and len(conditions) != 1:
            raise ValueError(f"required group has {len(conditions)} conditions, expected 1")
        groups.append(
            ConditionGroup(
                result_id=str_field(entry["result_id"], "result_id"),
                result_text=str_field(entry["result"], "result"),
                logical_type=LogicalType(type_token),
                conditions=tuple(conditions),
            )
        )

    stray = [i for i in unsatisfied if i not in condition_ids]
    if stray:
        raise ValueError(f"unsatisfied ids name no condition: {stray}")

    return Example(
        context=tuple(groups),
        facts=tuple(facts),
        question=str_field(raw["question"], "question"),
        gold=Verdict(label, frozenset(unsatisfied)),
        template_id=str_field(raw["template_id"], "template_id"),
        seed=seed,
    )


def manifest_path(split_path) -> str:
    return f"{split_path}{MANIFEST_SUFFIX}"


def write_split(examples: Iterable[Example | str], path, manifest: SplitManifest) -> SplitManifest:
    """Write examples to ``path`` and a manifest sidecar next to it.

    Records are written line by line, so an interrupted run leaves at
    worst one partial trailing line. The returned manifest carries the
    actual record count.

    Args:
        examples: examples to serialize, streamed; an item may also be
            an example's line already made by a :func:`plan_line`, which
            is written as it is.
        path: destination JSONL file.
        manifest: manifest fields; ``count`` is replaced by the number
            of records actually written.
    """
    count = 0
    with line_writer(path) as write:
        for count, item in enumerate(examples, start=1):
            write(item if isinstance(item, str) else encode_line(example_to_dict(item)))
    final = replace(manifest, count=count)
    with jsonl_writer(manifest_path(path)) as write:
        write(final.to_dict())
    return final


def read_manifest(split_path) -> SplitManifest | None:
    """Load the manifest sidecar for a split.

    ``None`` when the sidecar is absent, or when it is malformed, which
    is logged as a warning.
    """
    path = manifest_path(split_path)
    try:
        with open(path, encoding="utf-8") as handle:
            return SplitManifest.from_dict(json.load(handle))
    except FileNotFoundError:
        return None
    except (ValueError, KeyError, TypeError) as exc:
        logger.warning("%s: invalid manifest (%s: %s), ignoring", path, type(exc).__name__, exc)
        return None


def read_split(path) -> Iterator[Example]:
    """Stream valid examples from a split file.

    Invalid records are skipped with a line-numbered warning; a final
    line without a newline is treated as a partial write and skipped.
    When a manifest sidecar exists, a count mismatch is logged as a
    warning after the file is exhausted.
    """
    valid = 0
    with open(path, encoding="utf-8") as handle:
        for example in JsonlReader(handle, path, example_from_dict, partial_tail=True):
            valid += 1
            yield example
    manifest = read_manifest(path)
    if manifest is not None and manifest.count != valid:
        logger.warning(
            "%s: manifest declares %d records, read %d valid", path, manifest.count, valid
        )
