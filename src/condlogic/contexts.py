"""Turning document contexts into condition groups.

Web-page contexts arrive as a flat stream of tagged elements. Nesting is
reconstructed from the tags: headings h1-h4 nest by level, list items
belong to the sentence that introduces them, and other elements sit
under the nearest open heading. Leaves of the resulting tree are the
conditions; the texts on the path back to the root describe the result
they guard. The combinator between such conditions is not stated in the
document, so emitted groups carry logical type ``unknown``.

Discourse-segmented input (sentences pre-split into elementary units) is
accepted directly: every span becomes one condition of a single group.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count, groupby
from typing import Iterator

from .errors import InvariantError
from .jsonl import JsonlReader
from .logic import Condition, ConditionGroup, LogicalType

HEADING_TAGS = ("h1", "h2", "h3", "h4")
KNOWN_TAGS = HEADING_TAGS + ("p", "li", "tr", "other")

#: Separator between ancestor texts in a group's result, most specific first.
RESULT_SEPARATOR = " | "


@dataclass(frozen=True)
class HtmlElement:
    tag: str
    text: str
    index: int


@dataclass
class DomNode:
    """Tree node; ``element`` is ``None`` only for the synthetic root."""

    element: HtmlElement | None
    children: list[DomNode] = field(default_factory=list)

    @property
    def is_root(self) -> bool:
        return self.element is None


def load_html_elements(path) -> list[HtmlElement]:
    """Read a JSONL stream of ``{tag, text}`` records.

    Unknown tags are mapped to ``other``; records that are not objects,
    or whose text is missing, blank or not a string, are skipped with a
    warning.
    """
    elements: list[HtmlElement] = []

    def parse(raw: dict) -> HtmlElement:
        text = raw.get("text", "")
        if not isinstance(text, str):
            raise ValueError("text is not a string")
        text = text.strip()
        if not text:
            raise ValueError("empty text")
        tag = str(raw.get("tag", "other")).lower()
        if tag not in KNOWN_TAGS:
            tag = "other"
        return HtmlElement(tag=tag, text=text, index=len(elements))

    with open(path, encoding="utf-8") as handle:
        for element in JsonlReader(handle, path, parse):
            elements.append(element)
    return elements


def _heading_level(tag: str) -> int | None:
    if tag in HEADING_TAGS:
        return int(tag[1])
    return None


def build_dom_tree(elements: list[HtmlElement]) -> DomNode:
    """Reconstruct nesting from a flat element stream.

    Attachment rules: a heading closes any open headings of equal or
    lower rank and all open non-headings; a list item attaches to the
    nearest preceding non-li element; anything else attaches to the
    nearest open heading (or the root).
    """
    root = DomNode(None)
    # Stack of open nodes from root to the current insertion point.
    stack: list[DomNode] = [root]

    for element in elements:
        level = _heading_level(element.tag)
        if level is not None:
            while not stack[-1].is_root:
                top = stack[-1].element
                top_level = _heading_level(top.tag)
                if top_level is not None and top_level < level:
                    break
                stack.pop()
        elif element.tag == "li":
            if not stack[-1].is_root and stack[-1].element.tag == "li":
                stack.pop()
        else:
            while not stack[-1].is_root and _heading_level(stack[-1].element.tag) is None:
                stack.pop()
        node = DomNode(element)
        stack[-1].children.append(node)
        stack.append(node)
    return root


def _walk_groups(node: DomNode, ancestors: tuple[str, ...]) -> Iterator[tuple[list[HtmlElement], str]]:
    """Yield ``(leaves, result_text)`` for each run of sibling leaves, in document order.

    ``ancestors`` are the texts from ``node`` up to the root.
    """
    for is_subtree, run in groupby(node.children, key=lambda child: bool(child.children)):
        if is_subtree:
            for child in run:
                yield from _walk_groups(child, (child.element.text, *ancestors))
        elif node.is_root:
            # Leaves directly under the synthetic root stand alone.
            yield from (([child.element], "") for child in run)
        else:
            # Sibling leaves around a subtree stay in separate groups.
            yield [child.element for child in run], RESULT_SEPARATOR.join(ancestors)


def parse_html_context(elements: list[HtmlElement]) -> list[ConditionGroup]:
    """Group the leaves of the reconstructed tree into condition groups.

    Leaves sharing a real parent form one group whose result joins the
    ancestor texts from the direct parent up to the root; leaves directly
    under the synthetic root each form a single-condition group with an
    empty result. Groups and conditions keep document order; condition
    ids number the leaves across the whole document.
    """
    if not elements:
        raise InvariantError("cannot parse an empty element stream")
    return list(_tree_groups(build_dom_tree(elements)))


def _tree_groups(root: DomNode) -> Iterator[ConditionGroup]:
    """The condition groups of a tree built by :func:`build_dom_tree`, in document order."""
    leaf_numbers = count()
    for gi, (leaves, result_text) in enumerate(_walk_groups(root, ())):
        yield ConditionGroup(
            result_id=f"R{gi}",
            result_text=result_text,
            logical_type=LogicalType.UNKNOWN,
            conditions=tuple(Condition(id=f"C{next(leaf_numbers)}", text=leaf.text) for leaf in leaves),
        )


def _squash(text: str) -> str:
    return "".join(text.split())


@dataclass(frozen=True)
class EduSequence:
    """Sub-sentence spans of one source sentence.

    When the source text is given, the spans must reconstruct it (up to
    whitespace); checked at construction time.
    """

    spans: tuple[str, ...]
    sentence_id: str
    sentence: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "spans", tuple(self.spans))
        if not self.spans or any(not s.strip() for s in self.spans):
            raise InvariantError(f"sequence {self.sentence_id!r} has empty spans")
        if self.sentence is not None and _squash("".join(self.spans)) != _squash(self.sentence):
            raise InvariantError(
                f"spans of sequence {self.sentence_id!r} do not reconstruct the sentence"
            )


def accept_edu_input(sequences: list[EduSequence]) -> list[ConditionGroup]:
    """Treat pre-segmented discourse units as conditions.

    All spans of the context form one group: combinator and result are
    left for the consumer to infer, so the group has type ``unknown``
    and an empty result.
    """
    if not sequences:
        raise InvariantError("no sequences given")
    conditions = []
    for sequence in sequences:
        for span in sequence.spans:
            conditions.append(Condition(id=f"C{len(conditions)}", text=span.strip()))
    return [
        ConditionGroup(
            result_id="R0",
            result_text="",
            logical_type=LogicalType.UNKNOWN,
            conditions=tuple(conditions),
        )
    ]
