import io
import json
import logging
import re
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from condlogic import cli
from condlogic.contexts import load_html_elements
from condlogic.dataset_io import manifest_path, read_manifest, read_split
from condlogic.errors import InvariantError
from condlogic.jsonl import JsonlReader, _decode, encode_line, jsonl_writer, line_skeleton, string_body
from conftest import REFERENCE_TEMPLATE

SOURCE = "f.jsonl"

_objects = st.fixed_dictionaries(
    {"n": st.integers(-5, 5)}, optional={"text": st.text(max_size=5), "reject": st.booleans()}
).map(lambda d: ("object", json.dumps(d)))
_non_objects = st.one_of(
    st.integers(), st.booleans(), st.none(), st.text(max_size=5), st.lists(st.integers(), max_size=3)
).map(lambda v: ("non-object", json.dumps(v)))
_bad_json = st.sampled_from(["{", "{bad", "nope", '{"a": }', "[1,", "'x'"]).map(lambda s: ("bad", s))
_blanks = st.sampled_from([" ", "\t", "  \t "]).map(lambda s: ("blank", s))
_lines = st.lists(st.one_of(_objects, _non_objects, _bad_json, _blanks), max_size=12)


def _parse(raw: dict) -> dict:
    if raw.get("reject"):
        raise ValueError("rejected")
    return raw


def _expected(lines, unterminated, partial_tail):
    """(records, faulty line numbers) the reader must give, by a plain walk."""
    records, faults = [], []
    for n, (kind, text) in enumerate(lines, start=1):
        if kind == "blank":
            continue
        if partial_tail and unterminated and n == len(lines):
            faults.append(n)
            break
        raw = json.loads(text) if kind == "object" else None
        if raw is not None and not raw.get("reject"):
            records.append(raw)
        else:
            faults.append(n)
    return records, faults


def _text(lines, unterminated):
    text = "".join(line + "\n" for _, line in lines)
    return text[:-1] if unterminated else text


class _Messages(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.messages: list[str] = []

    def emit(self, record):
        self.messages.append(record.getMessage())


@settings(deadline=None)
@given(lines=_lines, unterminated=st.booleans(), partial_tail=st.booleans())
def test_reader_policies_match_plain_walk(lines, unterminated, partial_tail):
    unterminated = unterminated and bool(lines)
    records, faults = _expected(lines, unterminated, partial_tail)
    text = _text(lines, unterminated)

    logger = logging.getLogger("condlogic.jsonl")
    handler = _Messages()
    logger.addHandler(handler)
    try:
        reader = JsonlReader(io.StringIO(text), SOURCE, _parse, partial_tail=partial_tail)
        assert list(reader) == records
    finally:
        logger.removeHandler(handler)
    numbers = []
    for message in handler.messages:
        match = re.fullmatch(rf"{re.escape(SOURCE)}:(\d+): .+, skipping", message)
        assert match, message
        numbers.append(int(match.group(1)))
    assert numbers == faults
    assert reader.skipped == len(faults)

    strict = JsonlReader(io.StringIO(text), SOURCE, _parse, strict=True, partial_tail=partial_tail)
    read = []
    if faults:
        with pytest.raises(InvariantError) as info:
            for record in strict:
                read.append(record)
        assert str(info.value).startswith(f"{SOURCE}:{faults[0]}: ")
        before = lines[: faults[0] - 1]
        assert read == [json.loads(line) for kind, line in before if kind == "object"]
    else:
        assert list(strict) == records


_json_values = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
# A line: an optional BOM or leading whitespace, a JSON text (an object, a broken one, or none),
# then what follows it, JSON whitespace or not.
_decode_heads = st.sampled_from(["", " ", "  \t", "\ufeff", "\ufeff "])
_decode_bodies = st.one_of(
    st.dictionaries(st.text(max_size=3), _json_values | st.lists(_json_values, max_size=2), max_size=3).map(json.dumps),
    st.sampled_from(['{"a": }', "{", '{"a": 1', '{"a" 1}', "{}}", '{"a": NaN}', '{"a": "\\ud800"}', '{"a":1,}',
                     "[1]", "5", '"s"', "null", "", "nope"]),
)
_decode_tails = st.lists(
    st.sampled_from(["\n", "\r\n", " \n", "\x0c", "\x85", " ", "\t", "\r", "{}", " x", "\u2028"]), max_size=2
).map("".join)


@given(head=_decode_heads, body=_decode_bodies, tail=_decode_tails)
@example(head="", body="{}", tail="\x0c")
@example(head="", body="{}", tail="\x85\n")
@example(head="", body='{"a": }', tail="\n")
@example(head="\ufeff", body="{}", tail="\n")
def test_decode_is_json_loads(head, body, tail):
    line = head + body + tail
    try:
        expected = json.loads(line)
    except Exception as exc:
        with pytest.raises(Exception) as info:
            _decode(line)
        assert (type(info.value), str(info.value)) == (type(exc), str(exc))
    else:
        assert repr(_decode(line)) == repr(expected)


def test_reader_fault_on_extra_data_is_json_loads_wording(caplog):
    # Form feed is whitespace to str.isspace but not to JSON, so the line holds extra data.
    text = '{"a": 1}\n{}\x0c\n'
    with pytest.raises(InvariantError) as info:
        list(JsonlReader(io.StringIO(text), SOURCE, dict, strict=True))
    assert str(info.value) == "f.jsonl:2: invalid JSON (Extra data: line 1 column 3 (char 2))"
    with caplog.at_level("WARNING"):
        assert list(JsonlReader(io.StringIO(text), SOURCE, dict)) == [{"a": 1}]
    assert [r.getMessage() for r in caplog.records] == [
        "f.jsonl:2: invalid JSON (Extra data: line 1 column 3 (char 2)), skipping"
    ]


def test_undecodable_input_names_the_source(tmp_path):
    path = tmp_path / "latin1.jsonl"
    path.write_bytes(b'{"a": 1}\n{"a": "caf\xe9"}\n')
    for strict in (False, True):
        with open(path, encoding="utf-8") as handle:
            with pytest.raises(InvariantError, match=rf"^{re.escape(str(path))}: not UTF-8 text"):
                list(JsonlReader(handle, path, dict, strict=strict))


def test_write_jsonl_round_trip(tmp_path):
    path = tmp_path / "out.jsonl"
    records = [{"id": "café", "n": 1}, {"id": "e1", "n": [1, 2]}]
    with jsonl_writer(path) as write:
        for record in records:
            write(record)
    assert path.read_text(encoding="utf-8") == "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records)
    assert "café" in path.read_text(encoding="utf-8")
    with open(path, encoding="utf-8") as handle:
        assert list(JsonlReader(handle, path, dict, strict=True)) == records


def test_jsonl_writer_writes_the_bytes_of_write_jsonl(tmp_path):
    records = [{"id": "café", "text": "naïve 文字 \u2028 😀"}, {"id": "e1", "n": [1, 2], "q": None}]
    with jsonl_writer(tmp_path / "rows.jsonl") as write:
        for record in records:
            write(record)
    expected = "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records)
    assert (tmp_path / "rows.jsonl").read_bytes() == expected.encode("utf-8")
    assert "文字".encode("utf-8") in (tmp_path / "rows.jsonl").read_bytes()


# Text with non-ASCII, control characters, quotes, backslashes and lone surrogates.
_encodable_texts = st.text(
    st.characters(exclude_categories=()) | st.sampled_from('"\\\x00\x1f\x7f\u2028\ud800\udfff\U0001f600')
)
_encodable_floats = st.floats() | st.sampled_from([-0.0, 1e308, -1e308, 5e-324, float("nan"), float("inf")])
# json.dumps writes a key that is a number, a bool or None as its text.
_encodable_keys = _encodable_texts | st.integers() | st.booleans() | st.none() | _encodable_floats
_encodable_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-(2**100), 2**100) | _encodable_floats | _encodable_texts,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(_encodable_keys, children, max_size=4),
    max_leaves=20,
)


@given(st.dictionaries(_encodable_keys, _encodable_values, max_size=6))
def test_encode_line_is_json_dumps(record):
    assert encode_line(record) == json.dumps(record, ensure_ascii=False) + "\n"


class _Opaque:
    pass


@pytest.mark.parametrize("bad", [{1, 2}, _Opaque(), b"bytes", 1j])
def test_encode_line_refuses_what_json_dumps_refuses(bad):
    # Deep inside the record, and twice over, so a refusal leaves nothing behind that changes the next encode.
    record = {"a": [1, {"b": [bad]}], "c": 2}
    with pytest.raises(TypeError) as expected:
        json.dumps(record, ensure_ascii=False)
    for _ in range(2):
        with pytest.raises(TypeError) as got:
            encode_line(record)
        assert str(got.value) == str(expected.value)
    assert encode_line({"a": record["a"][:1]}) == '{"a": [1]}\n'


def test_encode_line_refuses_a_circular_record():
    record = {"a": []}
    record["a"].append(record)
    for _ in range(2):
        with pytest.raises(ValueError, match="^Circular reference detected$"):
            encode_line(record)
    record["a"].clear()
    assert encode_line(record) == '{"a": []}\n'


def test_jsonl_writer_without_a_path_creates_no_file(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with jsonl_writer(None) as write:
        write({"id": "0"})
        write({"id": object()})  # not encoded either, so no TypeError
    assert list(tmp_path.iterdir()) == []


def test_jsonl_writer_keeps_the_lines_before_a_fault(tmp_path):
    path = tmp_path / "rows.jsonl"
    with pytest.raises(RuntimeError, match="fault"):
        with jsonl_writer(path) as write:
            write({"id": "0"})
            write({"id": "1"})
            raise RuntimeError("fault")
    assert path.read_text(encoding="utf-8") == '{"id": "0"}\n{"id": "1"}\n'


_skeleton_texts = st.text(max_size=8) | st.sampled_from(
    ['"', "\\", "\x00\x1f", "\u2028", "{0}", "}{", "\ue000", "7", "\ue000{1}", "\ue000{10}"]
)


@settings(max_examples=100, deadline=None)
@given(number=st.integers(0, 2**64 - 1), texts=st.lists(_skeleton_texts, min_size=3, max_size=3))
def test_line_skeleton_fills_the_line_of_encode_line(number, texts):
    # The second hole is part of a string whose prefix needs escaping; it stays in the line.
    def record(n, a, b, c):
        return {"id": "{T0}", "n": n, "rows": [{"text": a, "k": 0}, {"text": 'C1: "not" ' + b}], "q": c,
                "tail": ["}", "{"]}

    fill = line_skeleton(lambda n, holes: record(n, *holes), 3)
    assert fill(number, [string_body(t) for t in texts]) == encode_line(record(number, *texts))


@settings(max_examples=50, deadline=None)
@given(number=st.integers(0, 2**64 - 1), texts=st.lists(_skeleton_texts, min_size=12, max_size=12))
def test_line_skeleton_with_holes_one_and_ten(number, texts):
    # Twelve holes cut inside their strings, after a prefix, so hole 1 and hole 10 both occur; the
    # number is part of a string too.
    def record(n, values):
        return {"id": f"R{n}", "texts": [f"C{i}: " + value for i, value in enumerate(values)]}

    fill = line_skeleton(record, 12)
    assert fill(number, [string_body(t) for t in texts]) == encode_line(record(number, texts))


@pytest.mark.parametrize("text", ["", "plain", "caf\u00e9 \U0001f600", "\u2028\u2029", "{0}", "\ue000{1}", "\x7f"])
def test_string_body_gives_back_a_text_that_needs_no_escape(text):
    body = string_body(text)
    assert body is text
    assert json.dumps(text, ensure_ascii=False) == f'"{body}"'


@pytest.mark.parametrize("text", ['"', "\\", "a\x00b", "\x1f", "\n\r\t\b\f", 'say "caf\u00e9" \\ \U0001f600'])
def test_string_body_escapes_as_json_dumps(text):
    assert json.dumps(text, ensure_ascii=False) == f'"{string_body(text)}"'


@pytest.mark.parametrize("bodies", [[], ["A"], ["A", "B", "C"]], ids=["none", "too-few", "too-many"])
def test_line_skeleton_fill_needs_one_body_per_text_hole(bodies):
    fill = line_skeleton(lambda n, holes: {"n": n, "a": holes[0], "b": holes[1]}, 2)
    assert fill(5, ["A", "B"]) == '{"n": 5, "a": "A", "b": "B"}\n'
    with pytest.raises(InvariantError, match=f"^expected 2 bodies, one per text hole, got {len(bodies)}$"):
        fill(5, bodies)


@pytest.mark.parametrize(
    "probe,count,message",
    [
        (lambda n, holes: {"n": n, "a": holes[0], "b": holes[0]}, 1, "hole '\\ue000{0}' occurs 2 times"),
        (lambda n, holes: {"n": n, "a": holes[0]}, 2, "hole '\\ue000{1}' occurs 0 times"),
        (lambda n, holes: {"n": n, "m": n, "a": holes[0]}, 1, f"hole '{2**64}' occurs 2 times"),
        (lambda n, holes: {"a": f"{holes[0]} {n}"}, 1, "two holes overlap"),  # the number inside a text, after it
        (lambda n, holes: {"n": n, "a": holes[1], "b": holes[0]}, 2, "out of order"),
    ],
    ids=["repeated", "missing", "repeated-number", "overlap", "out-of-order"],
)
def test_line_skeleton_needs_each_hole_once(probe, count, message):
    with pytest.raises(InvariantError, match=re.escape(message)):
        line_skeleton(probe, count)


# --- one wording for a field of the wrong type, under every reader's policy ----

# A valid record for each reader that checks field types.
_VALID = {
    "split": {"template_id": "T0", "seed": 1, "facts": ["a"], "question": "q", "answer_label": "entailed",
              "unsatisfied": [], "context": [{"result_id": "R0", "result": "r", "type": "all",
                                              "conditions": [{"id": "C0", "text": "c"}]}]},
    "manifest": {"split": "dev", "count": 1, "seed": 1, "config_hash": "h"},
    "page": {"tag": "p", "text": "t"},
    "gold": {"answer_label": "entailed", "question": "q"},
    "pred": {"answer": "a", "question": "q"},
    "templates": {"template_id": "T0", "dsl": REFERENCE_TEMPLATE},
}

# Each reader with one wrong-typed field (string, integer, list, list item, and a
# fallback key the evaluate readers read) and the reason it must report.
_WRONG_TYPED = [
    ("split", {"question": 5}, "question is not a string: 5"),
    ("split", {"seed": "1"}, "seed is not an integer: '1'"),
    ("split", {"facts": "a"}, "facts is not a list: 'a'"),
    ("split", {"unsatisfied": [1]}, "unsatisfied item is not a string: 1"),
    ("manifest", {"split": 5}, "split is not a string: 5"),
    ("manifest", {"count": True}, "count is not an integer: True"),
    ("page", {"text": 5}, "text is not a string: 5"),
    ("gold", {"question": ["q"]}, "question is not a string: ['q']"),
    ("gold", {"answer_label": 5}, "answer_label is not a string: 5"),
    ("gold", {"answers": "a"}, "answers is not a list: 'a'"),
    ("gold", {"conditions": 5}, "conditions is not a list: 5"),
    ("gold", {"unsatisfied": [None]}, "unsatisfied item is not a string: None"),
    ("pred", {"answer": 5}, "answer is not a string: 5"),
    ("pred", {"answer_label": 5}, "answer_label is not a string: 5"),
    ("pred", {"conditions": "C0"}, "conditions is not a list: 'C0'"),
    ("pred", {"unsatisfied": [True]}, "unsatisfied item is not a string: True"),
    ("templates", {"dsl": 5}, "dsl is not a string: 5"),
    ("templates", {"template_id": 5}, "template_id is not a string: 5"),
]


@pytest.mark.parametrize(
    "reader,fields,reason", _WRONG_TYPED, ids=[f"{reader}-{field}" for reader, (field,), _ in _WRONG_TYPED]
)
def test_reader_reports_a_wrong_typed_field_in_one_wording(tmp_path, capsys, caplog, reader, fields, reason):
    good, bad = tmp_path / "good.jsonl", tmp_path / "bad.jsonl"
    good.write_text(json.dumps(_VALID[reader]) + "\n", encoding="utf-8")
    # The bad file holds the valid record on line 1 and the wrong-typed one on line 2.
    bad.write_text(json.dumps(_VALID[reader]) + "\n" + json.dumps({**_VALID[reader], **fields}) + "\n",
                   encoding="utf-8")
    with caplog.at_level("WARNING"):
        if reader == "manifest":
            # Tolerant: the sidecar is ignored.
            Path(manifest_path(good)).write_text(json.dumps({**_VALID[reader], **fields}), encoding="utf-8")
            assert read_manifest(good) is None
            assert caplog.messages == [f"{manifest_path(good)}: invalid manifest (ValueError: {reason}), ignoring"]
        elif reader in ("split", "page"):
            # Tolerant: the line is skipped.
            read = read_split if reader == "split" else load_html_elements
            assert len(list(read(bad))) == 1
            assert caplog.messages == [f"{bad}:2: {reason}, skipping"]
        else:
            # Strict: the command exits 1.
            argv = {
                "gold": ["evaluate", "--pred", str(good), "--gold", str(bad), "--profile", "condnli"],
                "pred": ["evaluate", "--pred", str(bad), "--gold", str(good), "--profile", "condnli"],
                "templates": ["solve", "--file", str(bad)],
            }[reader]
            assert cli.main(argv) == 1
            assert capsys.readouterr().err == f"error: {bad}:2: {reason}\n"
            assert caplog.messages == []
