import json

import pytest
from hypothesis import given, settings, strategies as st

from condlogic import (
    Condition,
    ConditionGroup,
    EduSequence,
    HtmlElement,
    InvariantError,
    KNOWN_TAGS,
    LogicalType,
    accept_edu_input,
    build_dom_tree,
    load_html_elements,
    parse_html_context,
)
from condlogic.contexts import RESULT_SEPARATOR


def elems(*pairs):
    return [HtmlElement(tag, text, i) for i, (tag, text) in enumerate(pairs)]


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
        elements = load_html_elements(path)
    assert [e.tag for e in elements] == ["h1", "other", "other"]
    assert [e.index for e in elements] == [0, 1, 2]
    assert sum("skipping" in r.message for r in caplog.records) == 2


@pytest.mark.parametrize("text", [None, {"a": 1}, 5, ["x"], True], ids=repr)
def test_load_elements_skips_non_string_text(tmp_path, caplog, text):
    path = tmp_path / "doc.jsonl"
    lines = [{"tag": "p", "text": text}, {"tag": "p", "text": "Kept."}, {"tag": "p"}]
    path.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
    with caplog.at_level("WARNING"):
        elements = load_html_elements(path)
    assert [e.text for e in elements] == ["Kept."]
    assert f"{path}:1: text is not a string, skipping" in caplog.text
    assert f"{path}:3: empty text, skipping" in caplog.text


def test_headings_nest_by_level():
    root = build_dom_tree(
        elems(("h1", "A"), ("h2", "B"), ("h3", "C"), ("h2", "D"), ("h1", "E"))
    )
    assert shape(root) == (
        "<root>",
        (
            ("A", (("B", (("C", ()),)), ("D", ()))),
            ("E", ()),
        ),
    )


def test_paragraph_closes_on_next_paragraph():
    root = build_dom_tree(elems(("h1", "A"), ("p", "x"), ("p", "y")))
    assert shape(root) == ("<root>", (("A", (("x", ()), ("y", ()))),))


def test_list_items_attach_to_lead_in():
    root = build_dom_tree(
        elems(("p", "You qualify if:"), ("li", "one"), ("li", "two"), ("p", "after"))
    )
    assert shape(root) == (
        "<root>",
        (("You qualify if:", (("one", ()), ("two", ()))), ("after", ())),
    )


def test_heading_closes_open_list():
    root = build_dom_tree(elems(("p", "intro"), ("li", "a"), ("h2", "B"), ("p", "x")))
    assert shape(root) == ("<root>", (("intro", (("a", ()),)), ("B", (("x", ()),))))


def test_parse_empty_raises():
    with pytest.raises(InvariantError):
        parse_html_context([])


def test_flat_document_singleton_groups():
    groups = parse_html_context(elems(("p", "First."), ("p", "Second.")))
    assert len(groups) == 2
    for gi, group in enumerate(groups):
        assert group.result_id == f"R{gi}"
        assert group.result_text == ""
        assert group.logical_type is LogicalType.UNKNOWN
        assert len(group.conditions) == 1
    assert [g.conditions[0].id for g in groups] == ["C0", "C1"]


def test_nested_document_groups():
    groups = parse_html_context(
        elems(
            ("h1", "Eligibility"),
            ("h2", "Students"),
            ("p", "Enrolled full time."),
            ("li", "a"),
            ("li", "b"),
            ("h2", "Veterans"),
            ("p", "Served 2 years."),
        )
    )
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
    groups = parse_html_context(
        elems(("h1", "T"), ("p", "before"), ("h2", "S"), ("p", "inner"), ("h2", "S2"))
    )
    texts = [[c.text for c in g.conditions] for g in groups]
    assert ["before"] in texts
    assert ["inner"] in texts
    assert ["S2"] in texts or any("S2" in t for t in texts)


def test_groups_in_document_order():
    groups = parse_html_context(
        elems(("p", "alpha"), ("h1", "H"), ("p", "beta"), ("p", "gamma"))
    )
    first_texts = [g.conditions[0].text for g in groups]
    assert first_texts == ["alpha", "beta"]


_tags = st.sampled_from(KNOWN_TAGS)


@given(st.lists(_tags, min_size=1, max_size=30))
def test_every_element_lands_exactly_once(tags):
    elements = [HtmlElement(tag, f"t{i}", i) for i, tag in enumerate(tags)]
    root = build_dom_tree(elements)

    seen = []

    def walk(node):
        if node.element is not None:
            seen.append(node.element.index)
        for child in node.children:
            walk(child)

    walk(root)
    assert sorted(seen) == list(range(len(elements)))


@given(st.lists(_tags, min_size=1, max_size=30))
def test_groups_partition_leaves(tags):
    elements = [HtmlElement(tag, f"t{i}", i) for i, tag in enumerate(tags)]
    groups = parse_html_context(elements)
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
    elements = [HtmlElement(tag, f"t{i}", i) for i, tag in enumerate(tags)]
    assert parse_html_context(elements) == _oracle_tree_groups(build_dom_tree(elements))


# --- discourse-unit input ---------------------------------------------------

def test_edu_sequences_become_one_group():
    groups = accept_edu_input(
        [
            EduSequence(("You may apply", "if you are enrolled"), "s0"),
            EduSequence(("unless suspended",), "s1"),
        ]
    )
    assert len(groups) == 1
    group = groups[0]
    assert group.logical_type is LogicalType.UNKNOWN
    assert group.result_text == ""
    assert [c.id for c in group.conditions] == ["C0", "C1", "C2"]
    assert [c.text for c in group.conditions] == [
        "You may apply",
        "if you are enrolled",
        "unless suspended",
    ]


def test_edu_reconstruction_check():
    EduSequence(("You may apply ", "if enrolled."), "s0", "You may apply if enrolled.")
    with pytest.raises(InvariantError):
        EduSequence(("You may apply",), "s0", "You may apply if enrolled.")


def test_edu_empty_spans_rejected():
    with pytest.raises(InvariantError):
        EduSequence((), "s0")
    with pytest.raises(InvariantError):
        EduSequence(("ok", "  "), "s0")


def test_edu_no_sequences_rejected():
    with pytest.raises(InvariantError):
        accept_edu_input([])
