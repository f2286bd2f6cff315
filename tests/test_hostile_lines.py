"""A corpus of hostile JSONL lines, run through every reader and every command.

Each case is one line that JSON decoders and type checks tend to trip on:
deep nesting, integers past CPython's 4300-digit limit, non-finite numbers
where an int or a str is expected, duplicate keys, a BOM after the first
line, CR-only line ends, a raw NUL and one 10 MB line. The line follows the
valid records that open each input, so a reader that refuses it must name a
line after them, and a command must exit 0, 1 or 2 with no traceback.
"""

import json
import logging
import re

import pytest

from condlogic import (
    GenConfig, NliBank, NliRecord, cli, example_to_dict, generate_dataset, load_html_elements, load_nli_bank,
)
from condlogic.dataset_io import SplitManifest, manifest_path, read_manifest, read_split
from condlogic.errors import InvariantError
from condlogic.metrics import read_gold_file, read_prediction_file


def _set(record: dict, key: str, raw: str) -> str:
    """``record``'s JSON text with ``"key": raw`` appended, ``raw`` as written: a key the record
    already has then occurs twice, and JSON takes the last."""
    return f'{json.dumps(record)[:-1]}, "{key}": {raw}}}'


# Each case makes its line from a valid record ``r`` of the input, a key ``s`` that must hold a
# string, and a key ``i`` that must hold an integer (one the reader ignores, if it reads no integer).
_CASES = {
    **{f"arrays-{n}": lambda r, s, i, n=n: "[" * n + "]" * n for n in (999, 1000, 10**5)},
    **{f"objects-{n}": lambda r, s, i, n=n: _set(r, "x", '{"a": ' * n + "0" + "}" * n) for n in (999, 1000, 10**5)},
    **{f"record-arrays-{n}": lambda r, s, i, n=n: _set(r, "x", "[" * n + "]" * n) for n in (999, 1000, 10**5)},
    **{f"digits-{n}": lambda r, s, i, n=n: _set(r, i, "7" * n) for n in (4300, 4301)},
    **{f"{value}-for-str": lambda r, s, i, value=value: _set(r, s, value) for value in ("NaN", "Infinity", "1e400")},
    **{f"{value}-for-int": lambda r, s, i, value=value: _set(r, i, value) for value in ("NaN", "Infinity", "1e400")},
    "duplicate-keys": lambda r, s, i: f'{{"{s}": 0, {json.dumps(r)[1:]}',
    "bom-after-the-first-line": lambda r, s, i: "\ufeff" + json.dumps(r),
    "cr-line-ends": lambda r, s, i: f"{json.dumps(r)}\r{json.dumps(r)}\r",
    "nul": lambda r, s, i: _set(r, s, '"a\x00b"'),
    "10-mb": lambda r, s, i: _set(r, "pad", '"' + "x" * 10_000_000 + '"'),
}
# What JSON cannot decode on any Python for its depth or its digits, not for its syntax: each is
# ``invalid JSON (…)``. What no reader may accept on any Python: these, a bare array, which is no
# object, and a BOM or a raw NUL, which break JSON's syntax.
_UNDECODABLE = {"arrays-1000", f"arrays-{10**5}", f"objects-{10**5}", f"record-arrays-{10**5}", "digits-4301"}
_REFUSED = {"arrays-999", *_UNDECODABLE, "bom-after-the-first-line", "nul"}

_LABELS = ("entailment", "contradiction", "neutral")
_TEMPLATE = "If all (A, B), then U.\nFacts: a.\nQuestion: Is u correct?"
_SPLIT = [example_to_dict(e) for e in generate_dataset(
    GenConfig(seed=1, n_templates=2, n_dev=2, n_test=0),
    NliBank(path="mem", by_label={label: (NliRecord(f"p {label}", f"h {label}", label),) for label in _LABELS}),
    "dev",
)]
_BANK = [{"premise": f"{label} premise", "hypothesis": f"{label} hypothesis", "label": label} for label in _LABELS]
# Per input: the valid records that open it, the valid record a case alters, its string key and its integer key.
_INPUTS = {
    "bank": (_BANK, _BANK[0], "premise", "n"),
    "page": ([{"tag": "h1", "text": "Fees"}], {"tag": "p", "text": "Apply in person."}, "text", "n"),
    "templates": ([{"template_id": "T0", "dsl": _TEMPLATE}], {"template_id": "T1", "dsl": _TEMPLATE}, "dsl", "n"),
    "gold": ([{"id": "0", "label": "yes"}], {"id": "1", "label": "no"}, "label", "id"),
    "predictions": ([{"id": "0", "label": "yes"}], {"id": "1", "label": "no"}, "label", "id"),
    "split": (_SPLIT[:1], _SPLIT[1], "question", "seed"),
    "manifest": ([], SplitManifest("dev", 2, 1, "abc").to_dict(), "split", "count"),
}


def _write(tmp_path, name: str, case: str) -> tuple:
    """Write input ``name`` with the line of ``case`` last; return its path and the line's number."""
    opening, record, str_key, int_key = _INPUTS[name]
    lines = [*map(json.dumps, opening), _CASES[case](record, str_key, int_key)]
    path = tmp_path / f"{name}.jsonl"
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("".join(line + "\n" for line in lines))
    return path, len(lines)


_READERS = {
    "bank": load_nli_bank,
    "page": lambda path: list(load_html_elements(path)),
    "gold": lambda path: list(read_gold_file(path)),
    "predictions": read_prediction_file,
    "split": lambda path: list(read_split(path)),
}


@pytest.mark.parametrize("case", _CASES)
@pytest.mark.parametrize("reader", _READERS)
def test_every_reader_names_a_hostile_line(tmp_path, caplog, reader, case):
    path, number = _write(tmp_path, reader, case)
    with caplog.at_level(logging.WARNING, logger="condlogic"):
        try:
            _READERS[reader](path)
        except InvariantError as exc:
            faults = [str(exc)]
        else:
            faults = [r.getMessage() for r in caplog.records]
    for fault in faults:
        match = re.match(rf"{re.escape(str(path))}:(\d+): ", fault)
        assert match and int(match.group(1)) >= number, fault
    if case in _REFUSED:
        assert faults
    if case in _UNDECODABLE:
        assert "invalid JSON (" in faults[0]


@pytest.mark.parametrize("case", _CASES)
def test_the_manifest_reader_names_its_file_on_a_hostile_line(tmp_path, caplog, case):
    split = tmp_path / "dev.jsonl"
    sidecar, _ = _write(tmp_path, "manifest", case)
    sidecar.replace(manifest_path(split))
    with caplog.at_level(logging.WARNING, logger="condlogic"):
        manifest = read_manifest(split)
    faults = [r.getMessage() for r in caplog.records]
    assert (manifest is None) == bool(faults)
    for fault in faults:
        assert fault.startswith(f"{manifest_path(split)}: invalid manifest ("), fault
    if case in _REFUSED:
        assert manifest is None


def _argv(tmp_path, name: str, path) -> list[str]:
    valid = tmp_path / "valid.jsonl"
    valid.write_text(json.dumps({"id": "0", "label": "yes"}) + "\n", encoding="utf-8")
    return {
        "bank": ["generate", "--bank", str(path), "--out", str(tmp_path / "data"), "--seed", "1",
                 "--templates", "2", "--dev", "2", "--test", "1"],
        "page": ["parse-context", "--in", str(path), "--out", str(tmp_path / "groups.jsonl")],
        "templates": ["solve", "--file", str(path)],
        "gold": ["evaluate", "--gold", str(path), "--pred", str(valid), "--profile", "conditionalqa"],
        "predictions": ["evaluate", "--gold", str(valid), "--pred", str(path), "--profile", "sharc"],
    }[name]


@pytest.mark.parametrize("case", _CASES)
@pytest.mark.parametrize("name", ["bank", "page", "templates", "gold", "predictions"])
def test_no_command_crashes_on_a_hostile_line(tmp_path, capsys, name, case):
    path, number = _write(tmp_path, name, case)
    code = cli.main(_argv(tmp_path, name, path))
    out, err = capsys.readouterr()
    assert code in (0, 1, 2)
    assert "Traceback" not in out + err
    if code:
        # Only a strict reader stops a command here, and its error names the line.
        match = re.match(rf"error: {re.escape(str(path))}:(\d+): ", err)
        assert match and int(match.group(1)) >= number, err
