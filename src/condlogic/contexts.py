"""Turning document contexts into condition groups.

Web-page contexts arrive as a flat stream of tagged elements. Nesting is
implied by the tags: headings h1-h4 nest by level, list items belong to
the sentence that introduces them, and other elements sit under the
nearest open heading. Elements without children are the conditions;
the texts of the elements above one, most specific first, describe the
result it guards. Sibling leaves with no subtree between them form one
group; leaves at the top level stand alone with an empty result. The
combinator between such conditions is not stated in the document, so
emitted groups carry logical type ``unknown``.

The grouping is one pass over the stream that keeps only the open
elements, from the top level down to the last one read: a node never
reopens, and the element after a node either becomes its first child or
closes it, so each group is complete, and emitted, as soon as the
element that ends it has been read. Memory grows with the nesting depth
and the longest run of sibling leaves, not with the page.

The walk yields texts. :func:`group_elements` builds groups from them;
``parse-context`` builds none, and fills each group's texts into the
line skeleton of its size, cut once from a probe record of
:func:`group_to_dict`, the one group serialiser.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import count
from typing import Callable, Iterable, Iterator, Sequence

from .jsonl import JsonlReader, line_skeleton, str_field, string_body
from .logic import Condition, ConditionGroup, LogicalType

HEADING_TAGS = ("h1", "h2", "h3", "h4")
KNOWN_TAGS = HEADING_TAGS + ("p", "li", "tr", "other")
_KNOWN = frozenset(KNOWN_TAGS)

#: Separator between ancestor texts in a group's result, most specific first.
RESULT_SEPARATOR = " | "


@dataclass(frozen=True, slots=True)
class HtmlElement:
    tag: str
    text: str


def _element(raw: dict) -> HtmlElement:
    text = str_field(raw.get("text", ""), "text").strip()
    if not text:
        raise ValueError("empty text")
    tag = str(raw.get("tag", "other")).lower()
    if tag not in _KNOWN:
        tag = "other"
    return HtmlElement(tag, text)


def load_html_elements(path) -> Iterator[HtmlElement]:
    """Stream the elements of a JSONL page of ``{tag, text}`` records, in file order.

    Unknown tags are mapped to ``other``; records that are not objects,
    or whose text is missing, blank or not a string, are skipped with a
    warning. The file is closed when the stream ends or is closed.
    """
    with open(path, encoding="utf-8") as handle:
        yield from JsonlReader(handle, path, _element)


#: The heading level of a tag, ``None`` for a tag that is not a heading.
_heading_level = {tag: int(tag[1]) for tag in HEADING_TAGS}.get


class _Frame:
    """An open element: its tag, heading level and text, the texts of its
    leaf children not yet emitted, and whether it has children."""

    __slots__ = ("tag", "level", "text", "run", "has_children")

    def __init__(self, tag: str | None, level: int | None, text: str):
        self.tag = tag
        self.level = level
        self.text = text
        self.run: list[str] = []
        self.has_children = False


def _closes(top: _Frame, tag: str, level: int | None) -> bool:
    """Whether an element with this tag and heading level closes the open element ``top``.

    A heading closes any open headings of equal or lower rank and all
    open non-headings; a list item closes an open list item; anything
    else closes everything up to the nearest open heading.
    """
    if level is not None:
        return top.level is None or top.level >= level
    if tag == "li":
        return top.tag == "li"
    return top.level is None


def _groups(elements: Iterable[HtmlElement], leaf_depths: Counter | None) -> Iterator[tuple[str, list[str]]]:
    """Yield ``(result_text, condition_texts)`` for each group of an element stream as it
    completes, in document order."""
    # The open elements under a synthetic root, which is never closed.
    stack = [_Frame(None, None, "")]

    def group(texts: list[str], path: list[_Frame]) -> tuple[str, list[str]]:
        # ``path`` runs from the top level down to the leaves' parent.
        return RESULT_SEPARATOR.join([frame.text for frame in reversed(path)]), texts

    def close() -> tuple[str, list[str]] | None:
        """Close the top element; return the group that this completes, if any."""
        frame = stack.pop()
        if frame.has_children:
            return group(frame.run, [*stack[1:], frame]) if frame.run else None
        if leaf_depths is not None:
            leaf_depths[len(stack)] += 1
        if len(stack) == 1:
            # Leaves directly under the synthetic root stand alone.
            return "", [frame.text]
        stack[-1].run.append(frame.text)
        return None

    for element in elements:
        level = _heading_level(element.tag)
        while len(stack) > 1 and _closes(stack[-1], element.tag, level):
            if done := close():
                yield done
        parent = stack[-1]
        if not parent.has_children:
            parent.has_children = True
            # Sibling leaves around a subtree stay in separate groups.
            if len(stack) > 1 and stack[-2].run:
                yield group(stack[-2].run, stack[1:-1])
                stack[-2].run = []
        stack.append(_Frame(element.tag, level, element.text))
    while len(stack) > 1:
        if done := close():
            yield done


def group_elements(elements: Iterable[HtmlElement], leaf_depths: Counter | None = None) -> Iterator[ConditionGroup]:
    """Yield the condition groups of an element stream as each one completes, in document order.

    Each element becomes a child of the nearest open element it does not
    close (see :func:`_closes`). Groups are numbered ``R0, R1, ...`` and
    conditions ``C0, C1, ...`` across the whole stream. When
    ``leaf_depths`` is given, it counts each leaf at its depth (1 at the
    top level).
    """
    leaf_numbers = count()
    for number, (result_text, texts) in enumerate(_groups(elements, leaf_depths)):
        # Built positionally, from lists: a keyword call costs more, and a tuple made from a
        # list has its size at once and is not resized.
        conditions = [Condition(f"C{next(leaf_numbers)}", text) for text in texts]
        yield ConditionGroup(f"R{number}", result_text, LogicalType.UNKNOWN, conditions)


def _skeleton(size: int) -> Callable[[int, Sequence[str]], str]:
    """``fill(number, bodies)``: the line of group ``R<number>`` of ``size`` conditions, whose
    ``bodies`` are the string bodies of its result, then of each condition's id and text.
    :func:`jsonl.line_skeleton` cuts the line of a probe group whose number and texts are its holes."""
    def probe(number: int, texts: list[str]) -> dict:
        conditions = [Condition(cid, text) for cid, text in zip(texts[1::2], texts[2::2])]
        return group_to_dict(ConditionGroup(f"R{number}", texts[0], LogicalType.UNKNOWN, conditions))

    return line_skeleton(probe, 2 * size + 1)


def _group_lines(elements: Iterable[HtmlElement], leaf_depths: Counter | None) -> Iterator[tuple[int, str]]:
    """Yield ``(size, encode_line(group_to_dict(group)))`` for each group :func:`group_elements`
    yields, without building it. A skeleton is made once per group size, and the longest run
    of sibling leaves, not the page, bounds the sizes."""
    skeletons: dict[int, Callable[[int, Sequence[str]], str]] = {}
    leaf = 0
    for number, (result_text, texts) in enumerate(_groups(elements, leaf_depths)):
        size = len(texts)
        fill = skeletons.get(size) or skeletons.setdefault(size, _skeleton(size))
        bodies = [string_body(result_text)]
        for text in texts:
            bodies += f"C{leaf}", string_body(text)
            leaf += 1
        yield size, fill(number, bodies)


def group_to_dict(group: ConditionGroup) -> dict:
    return {
        "result_id": group.result_id,
        "result": group.result_text,
        "type": group.logical_type.value,
        "conditions": [{"id": c.id, "text": c.text} for c in group.conditions],
    }
