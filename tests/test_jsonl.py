import io
import json
import logging
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condlogic.errors import InvariantError
from condlogic.jsonl import JsonlReader, write_jsonl

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
        if partial_tail and unterminated and n == len(lines):
            faults.append(n)
            break
        if kind == "blank":
            continue
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
    assert write_jsonl(path, iter(records)) == 2
    assert "café" in path.read_text(encoding="utf-8")
    with open(path, encoding="utf-8") as handle:
        assert list(JsonlReader(handle, path, dict, strict=True)) == records
