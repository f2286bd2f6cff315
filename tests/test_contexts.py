from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from itertools import count, groupby
from typing import Iterator
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import condlogic.contexts as contexts_module
from condlogic import (
    HEADING_TAGS,
    Condition,
    ConditionGroup,
    HtmlElement,
    KNOWN_TAGS,
    LogicalType,
    group_elements,
    load_html_elements,
)
from condlogic.contexts import RESULT_SEPARATOR, _group_lines, _heading_level, group_to_dict
from condlogic.jsonl import encode_line


# --- the tree oracle ------------------------------------------------------------
# The parser as it was when it built the whole tree and then walked it: the
# reference the one-pass grouping must reproduce exactly. Elements here carry
# their position, which the sorting oracle further down needs.

@dataclass(frozen=True)
class _Element:
    tag: str
    text: str
    index: int


@dataclass
class DomNode:
    """Tree node; ``element`` is ``None`` only for the synthetic root."""

    element: _Element | None
    children: list[DomNode] = field(default_factory=list)

    @property
    def is_root(self) -> bool:
        return self.element is None


def build_dom_tree(elements: list[_Element]) -> DomNode:
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


def _walk_groups(node: DomNode, ancestors: tuple[str, ...]) -> Iterator[tuple[list[_Element], str]]:
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


def _tree_leaf_depths(root: DomNode) -> Counter:
    """The leaf depth histogram of a tree, as ``parse-context --stats`` counted it from the tree."""
    depths: Counter = Counter()
    stack = [(root, 0)]
    while stack:
        node, depth = stack.pop()
        if not node.children and node.element is not None:
            depths[depth] += 1
        stack.extend((child, depth + 1) for child in node.children)
    return depths


def elems(*pairs):
    return [HtmlElement(tag, text) for tag, text in pairs]


def indexed(tags):
    return [_Element(tag, f"t{i}", i) for i, tag in enumerate(tags)]


def oracle_tree(*pairs):
    """The oracle's tree of the elements, checked to group as the one-pass parser does."""
    root = build_dom_tree([_Element(tag, text, i) for i, (tag, text) in enumerate(pairs)])
    assert list(group_elements(elems(*pairs))) == list(_tree_groups(root))
    return root


def shape(node):
    """Tree as nested (text, children) tuples, for compact assertions."""
    label = node.element.text if node.element else "<root>"
    return (label, tuple(shape(c) for c in node.children))


def test_load_elements(tmp_path, caplog):
    path = tmp_path / "doc.jsonl"
    lines = [
        json.dumps({"tag": "h1", "text": "Benefits"}),
        json.dumps({"tag": "blockquote", "text": "Quoted."}),
        json.dumps({"tag": "p", "text": "   "}),
        "nonsense",
        json.dumps({"text": "No tag."}),
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with caplog.at_level("WARNING"):
        elements = list(load_html_elements(path))
    assert [e.tag for e in elements] == ["h1", "other", "other"]
    assert [e.text for e in elements] == ["Benefits", "Quoted.", "No tag."]
    assert sum("skipping" in r.message for r in caplog.records) == 2


@pytest.mark.parametrize("text", [None, {"a": 1}, 5, ["x"], True], ids=repr)
def test_load_elements_skips_non_string_text(tmp_path, caplog, text):
    path = tmp_path / "doc.jsonl"
    lines = [{"tag": "p", "text": text}, {"tag": "p", "text": "Kept."}, {"tag": "p"}]
    path.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
    with caplog.at_level("WARNING"):
        elements = list(load_html_elements(path))
    assert [e.text for e in elements] == ["Kept."]
    assert f"{path}:1: text is not a string: {text!r}, skipping" in caplog.text
    assert f"{path}:3: empty text, skipping" in caplog.text


def test_headings_nest_by_level():
    root = oracle_tree(("h1", "A"), ("h2", "B"), ("h3", "C"), ("h2", "D"), ("h1", "E"))
    assert shape(root) == (
        "<root>",
        (
            ("A", (("B", (("C", ()),)), ("D", ()))),
            ("E", ()),
        ),
    )


def test_paragraph_closes_on_next_paragraph():
    root = oracle_tree(("h1", "A"), ("p", "x"), ("p", "y"))
    assert shape(root) == ("<root>", (("A", (("x", ()), ("y", ()))),))


def test_list_items_attach_to_lead_in():
    root = oracle_tree(("p", "You qualify if:"), ("li", "one"), ("li", "two"), ("p", "after"))
    assert shape(root) == (
        "<root>",
        (("You qualify if:", (("one", ()), ("two", ()))), ("after", ())),
    )


def test_heading_closes_open_list():
    root = oracle_tree(("p", "intro"), ("li", "a"), ("h2", "B"), ("p", "x"))
    assert shape(root) == ("<root>", (("intro", (("a", ()),)), ("B", (("x", ()),))))


def test_empty_stream_has_no_groups():
    assert list(group_elements([])) == []


def test_flat_document_singleton_groups():
    groups = list(group_elements(elems(("p", "First."), ("p", "Second."))))
    assert len(groups) == 2
    for gi, group in enumerate(groups):
        assert group.result_id == f"R{gi}"
        assert group.result_text == ""
        assert group.logical_type is LogicalType.UNKNOWN
        assert len(group.conditions) == 1
    assert [g.conditions[0].id for g in groups] == ["C0", "C1"]


def test_nested_document_groups():
    groups = list(group_elements(
        elems(
            ("h1", "Eligibility"),
            ("h2", "Students"),
            ("p", "Enrolled full time."),
            ("li", "a"),
            ("li", "b"),
            ("h2", "Veterans"),
            ("p", "Served 2 years."),
        )
    ))
    # only nodes with direct leaf children yield groups
    by_result = {g.result_text: g for g in groups}
    assert set(by_result) == {
        "Enrolled full time. | Students | Eligibility",
        "Veterans | Eligibility",
    }
    li_group = by_result["Enrolled full time. | Students | Eligibility"]
    assert [c.text for c in li_group.conditions] == ["a", "b"]
    # ids count leaves in document order across the whole document
    ids = [c.id for g in groups for c in g.conditions]
    assert sorted(ids, key=lambda s: int(s[1:])) == [f"C{i}" for i in range(len(ids))]


def test_sibling_leaves_around_subtree_split():
    groups = list(group_elements(
        elems(("h1", "T"), ("p", "before"), ("h2", "S"), ("p", "inner"), ("h2", "S2"))
    ))
    texts = [[c.text for c in g.conditions] for g in groups]
    assert ["before"] in texts
    assert ["inner"] in texts
    assert ["S2"] in texts or any("S2" in t for t in texts)


def test_groups_in_document_order():
    groups = list(group_elements(
        elems(("p", "alpha"), ("h1", "H"), ("p", "beta"), ("p", "gamma"))
    ))
    first_texts = [g.conditions[0].text for g in groups]
    assert first_texts == ["alpha", "beta"]


_tags = st.sampled_from(KNOWN_TAGS)


@given(st.lists(_tags, min_size=1, max_size=30))
def test_every_element_lands_exactly_once(tags):
    # Each element is one condition, or else an ancestor named in a group's result.
    elements = [HtmlElement(tag, f"t{i}") for i, tag in enumerate(tags)]
    depths: Counter = Counter()
    groups = list(group_elements(elements, depths))
    leaves = [c.text for g in groups for c in g.conditions]
    ancestors = {text for g in groups if g.result_text for text in g.result_text.split(RESULT_SEPARATOR)}
    assert len(leaves) == len(set(leaves)) == sum(depths.values())
    assert set(leaves).isdisjoint(ancestors)
    assert set(leaves) | ancestors == {e.text for e in elements}


@given(st.lists(_tags, min_size=1, max_size=30))
def test_groups_partition_leaves(tags):
    elements = [HtmlElement(tag, f"t{i}") for i, tag in enumerate(tags)]
    groups = list(group_elements(elements))
    ids = [c.id for g in groups for c in g.conditions]
    assert len(ids) == len(set(ids))
    assert all(g.logical_type is LogicalType.UNKNOWN for g in groups)
    assert [g.result_id for g in groups] == [f"R{i}" for i in range(len(groups))]


# The grouping as it was when it sorted groups and mapped leaf ids through
# a dict: the reference the one-pass generator must reproduce exactly.
def _oracle_walk_groups(node, ancestors, out):
    leaves = []

    def flush():
        if leaves:
            out.append((list(leaves), RESULT_SEPARATOR.join(reversed(ancestors))))
            leaves.clear()

    for child in node.children:
        if child.children:
            # Sibling leaves around a subtree stay in separate groups.
            flush()
            ancestors.append(child.element.text)
            _oracle_walk_groups(child, ancestors, out)
            ancestors.pop()
        elif node.is_root:
            # Leaves directly under the synthetic root stand alone.
            out.append(([child.element], ""))
        else:
            leaves.append(child.element)
    flush()


def _oracle_tree_groups(root):
    collected = []
    _oracle_walk_groups(root, [], collected)
    collected.sort(key=lambda pair: pair[0][0].index)

    # Ids follow document order of the leaves themselves.
    all_leaves = sorted((leaf for leaves, _ in collected for leaf in leaves), key=lambda e: e.index)
    id_of = {leaf.index: f"C{i}" for i, leaf in enumerate(all_leaves)}

    groups = []
    for gi, (leaves, result_text) in enumerate(collected):
        conditions = tuple(
            Condition(id=id_of[leaf.index], text=leaf.text) for leaf in leaves
        )
        groups.append(
            ConditionGroup(
                result_id=f"R{gi}",
                result_text=result_text,
                logical_type=LogicalType.UNKNOWN,
                conditions=conditions,
            )
        )
    return groups


@settings(max_examples=300)
@given(st.lists(_tags, min_size=1, max_size=60))
def test_grouping_matches_sorting_oracle(tags):
    elements = indexed(tags)
    assert list(group_elements(elements)) == _oracle_tree_groups(build_dom_tree(elements))


@settings(max_examples=500)
@given(st.lists(st.sampled_from([*KNOWN_TAGS, "h1", "h2", "li", "li"]), min_size=1, max_size=80))
def test_one_pass_matches_tree_oracle(tags):
    # Same groups, ids and leaf depth histogram as building the tree and walking it.
    elements = indexed(tags)
    root = build_dom_tree(elements)
    depths: Counter = Counter()
    assert list(group_elements(elements, depths)) == list(_tree_groups(root))
    assert depths == _tree_leaf_depths(root)


# --- the lines parse-context writes ----------------------------------------------

# Texts a JSON encoder must escape, non-BMP ones, and ones that look like a skeleton's holes.
_hostile_texts = st.text(min_size=1, max_size=6) | st.sampled_from(
    ['"', "\\", "\x00", "\x1f", 'a"\\\x00\x1fb\r\n', "\u2028", "\U0001f600", "\ue000{0}", "\ue000{1}",
     "18446744073709551616", "R18446744073709551616"]
)
_hostile_elements = st.builds(HtmlElement, st.sampled_from([*KNOWN_TAGS, "li", "li"]), _hostile_texts)


def assert_lines_are_encoded_groups(elements):
    line_depths, group_depths = Counter(), Counter()
    pairs = list(_group_lines(elements, line_depths))
    groups = list(group_elements(elements, group_depths))
    assert [line for _, line in pairs] == [encode_line(group_to_dict(g)) for g in groups]
    assert [size for size, _ in pairs] == [len(g.conditions) for g in groups]
    assert line_depths == group_depths


@settings(max_examples=300)
@given(st.lists(_hostile_elements, max_size=60))
def test_group_lines_are_the_encoded_groups(elements):
    assert_lines_are_encoded_groups(elements)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(1, 40), min_size=21, max_size=30, unique=True), st.randoms(use_true_random=False),
       st.lists(_hostile_texts, min_size=1, max_size=5))
def test_group_lines_make_one_skeleton_per_group_size(sizes, rng, texts):
    # Each section's run of list items is one group; every size occurs twice, so each skeleton is reused.
    sizes = sizes + rng.sample(sizes, len(sizes))
    elements = []
    for k in sizes:
        elements.append(HtmlElement(rng.choice(HEADING_TAGS + ("p",)), rng.choice(texts)))
        elements.extend(HtmlElement("li", rng.choice(texts)) for _ in range(k))
    with mock.patch.object(contexts_module, "_skeleton", wraps=contexts_module._skeleton) as skeletons:
        assert_lines_are_encoded_groups(elements)
    assert skeletons.call_count == len(set(sizes))
