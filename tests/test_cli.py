import argparse
import contextlib
import hashlib
import io
import itertools
import json
import logging
import os
import random
import re
import shlex
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import condlogic.contexts as contexts_module
import condlogic.dataset_io as dataset_io_module
import condlogic.generate as generate_module
import condlogic.metrics as metrics_module
from condlogic import (
    KNOWN_TAGS,
    ConditionGroup,
    GenConfig,
    ParseError,
    cli,
    example_to_dict,
    generate_dataset,
    group_elements,
    load_html_elements,
    load_nli_bank,
    parse_template_dsl,
    template_groups,
    templates,
)
from condlogic.contexts import group_to_dict
from condlogic.jsonl import encode_line
from conftest import REFERENCE_TEMPLATE


def run(capsys, *argv):
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- solve -------------------------------------------------------------------

def test_solve_file(tmp_path, capsys):
    path = tmp_path / "template.txt"
    path.write_text(REFERENCE_TEMPLATE, encoding="utf-8")
    code, out, _ = run(capsys, "solve", "--file", str(path))
    assert code == 0
    assert out.strip() == "entailed, if C1"


def test_solve_stdin(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(REFERENCE_TEMPLATE))
    code, out, _ = run(capsys, "solve", "--stdin")
    assert code == 0
    assert out.strip() == "entailed, if C1"


def test_solve_templates_jsonl(tmp_path, capsys):
    path = tmp_path / "templates.jsonl"
    records = [
        {"template_id": "T000", "dsl": REFERENCE_TEMPLATE.replace(", if B", "").strip()},
        {
            "template_id": "T001",
            "dsl": "If all (A), then U.\nFacts: a.\nQuestion: Is u correct?",
        },
    ]
    path.write_text(
        "\n".join(json.dumps(r) for r in records) + "\n", encoding="utf-8"
    )
    out_path = tmp_path / "verdicts.jsonl"
    code, out, _ = run(capsys, "solve", "--file", str(path), "--out", str(out_path))
    assert code == 0
    assert out.splitlines() == ["T000: entailed, if C1", "T001: entailed"]
    rows = [json.loads(l) for l in out_path.read_text(encoding="utf-8").splitlines()]
    assert rows == [
        {"template_id": "T000", "answer_label": "entailed", "unsatisfied": ["C1"]},
        {"template_id": "T001", "answer_label": "entailed", "unsatisfied": []},
    ]


def test_solve_checks_each_template_once(tmp_path, capsys):
    path = tmp_path / "templates.jsonl"
    dsl = "If all (A), then U.\nFacts: a.\nQuestion: Is u correct?"
    records = [{"template_id": f"T00{i}", "dsl": dsl} for i in range(3)]
    # A rule fault is checked once too: the walk only names its token.
    records.append({"template_id": "T003", "dsl": dsl.replace("Facts: a.", "Facts: a, a.")})
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    with mock.patch.object(templates, "_first_fault", wraps=templates._first_fault) as first_fault:
        code, out, err = run(capsys, "solve", "--file", str(path))
    assert code == 1
    assert out.splitlines() == ["T000: entailed", "T001: entailed", "T002: entailed"]
    assert "line 2, column 11: duplicate fact 'a'" in err
    assert first_fault.call_count == 4


def test_solve_assignments_table(capsys):
    code, out, _ = run(capsys, "solve", "--assignments", "any:1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["assignment", "status", "labels"]
    assert len(lines) == 4  # header + 3 assignments
    body = "\n".join(lines[1:])
    assert "satisfied" in body and "contradicted" in body and "undetermined" in body


def test_solve_parse_error_exits_one(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("If both (A), then U.\nFacts: a.\nQuestion: Is u correct?", encoding="utf-8")
    code, _, err = run(capsys, "solve", "--file", str(path))
    assert code == 1
    assert "unknown operator" in err
    assert "line 1" in err


@pytest.mark.parametrize("stdin", [False, True], ids=["file", "stdin"])
def test_solve_parse_error_names_the_source(tmp_path, capsys, monkeypatch, stdin):
    text = "\ufeff" + REFERENCE_TEMPLATE
    path = tmp_path / "t.txt"
    path.write_text(text, encoding="utf-8")
    if stdin:
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, err = run(capsys, "solve", *(["--stdin"] if stdin else ["--file", str(path)]))
    assert code == 1
    assert out == ""
    source = "<stdin>" if stdin else path
    assert err == f"error: {source}: line 1, column 1: unexpected character '\\ufeff'\n"


def test_solve_no_input_exits_one(capsys):
    code, _, err = run(capsys, "solve")
    assert code == 1
    assert "nothing to solve" in err


@pytest.mark.parametrize("extra", [["--stdin"], ["--assignments", "all:1"]], ids=["stdin", "assignments"])
def test_solve_takes_one_input(tmp_path, capsys, extra):
    path = tmp_path / "template.txt"
    path.write_text(REFERENCE_TEMPLATE, encoding="utf-8")
    code, out, err = run(capsys, "solve", "--file", str(path), *extra)
    assert code == 1
    assert out == ""
    assert err.endswith(f"condlogic solve: error: argument {extra[0]}: not allowed with argument --file\n")


def test_solve_assignments_refuses_out(tmp_path, capsys):
    path = tmp_path / "verdicts.jsonl"
    code, out, err = run(capsys, "solve", "--assignments", "all:1", "--out", str(path))
    assert code == 1
    assert out == ""
    assert err == "error: --out cannot be used with --assignments, which writes no verdicts\n"
    assert not path.exists()


def test_solve_missing_file_exits_two(capsys):
    code, _, err = run(capsys, "solve", "--file", "/nonexistent/template.txt")
    assert code == 2
    assert "error:" in err


def test_solve_bad_assignment_spec(capsys):
    code, _, err = run(capsys, "solve", "--assignments", "xor:3")
    assert code == 1
    assert "bad assignment spec" in err


def _main(argv, stdin=""):
    """Run the CLI in process; return its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            mock.patch("sys.stdin", io.StringIO(stdin)):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _parse_error(text):
    try:
        parse_template_dsl(text)
    except ParseError as exc:
        return exc
    return None


_DSL_PIECES = ["If", "all", "any", "not", "then", "Facts", "Question", "Is", "correct", "Label",
               "entailed", "if", "A", "B", "U", "a", "u", "A1", "1", "C12", "(", ")", ",", ".", ":",
               "?", " ", "\n", "\r\n", "\x0c", "\x1c", "\u2028", "\t", "\u00e9", "{", "}", '"']
_mutated_reference = st.tuples(
    st.integers(0, len(REFERENCE_TEMPLATE)), st.integers(0, 6), st.sampled_from(_DSL_PIECES)
).map(lambda m: REFERENCE_TEMPLATE[: m[0]] + m[2] + REFERENCE_TEMPLATE[m[0] + m[1]:])
_dsl_texts = st.one_of(
    _mutated_reference, st.lists(st.sampled_from(_DSL_PIECES), max_size=40).map(" ".join), st.text()
)


@settings(max_examples=100, deadline=None)
@given(_dsl_texts)
def test_solve_fuzz_stdin(text):
    code, out, err = _main(["solve", "--stdin"], stdin=text)
    assert code in (0, 1)
    assert "Traceback" not in err
    stripped = text.lstrip()
    if stripped and not stripped.startswith("{"):
        exc = _parse_error(text)
        assert code == (1 if exc else 0)
        if exc:
            assert err == f"error: <stdin>: {exc}\n"


# Lines that are not a usable templates.jsonl record.
_bad_lines = st.one_of(
    st.sampled_from(["[1, 2]", "{", "1", '"x"', "{}", '{"dsl": 1}', '{"template_id": 5, "dsl": "If"}',
                     '{"template_id": "T\\ud800", "dsl": "If"}']),
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\r\n")).filter(str.strip),
)
_records = st.one_of(
    _dsl_texts.map(lambda dsl: ("dsl", dsl)),
    _bad_lines.map(lambda line: ("bad", line)),
)


@settings(max_examples=100, deadline=None)
@given(st.lists(_records, max_size=5))
def test_solve_fuzz_templates_jsonl(records):
    lines = [json.dumps({"template_id": "T000", "dsl": REFERENCE_TEMPLATE})]
    expected = None  # (line number, exact error or None) of the first bad record
    for line_no, (kind, value) in enumerate(records, start=2):
        if kind == "dsl":
            lines.append(json.dumps({"template_id": f"T{line_no:03d}", "dsl": value}))
            exc = _parse_error(value)
            if exc and expected is None:
                expected = (line_no, str(exc))
        else:
            lines.append(value)
            if expected is None:
                expected = (line_no, None)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "templates.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, out, err = _main(["solve", "--file", str(path)])
    assert "Traceback" not in err
    if expected is None:
        assert code == 0
        assert len(out.splitlines()) == len(lines)
    else:
        line_no, message = expected
        assert code == 1
        assert err.startswith(f"error: {path}:{line_no}: ")
        if message is not None:
            assert err == f"error: {path}:{line_no}: {message}\n"


# Blanks and line breaks the DSL scan must split the same way on every Python.
_PORTABLE_TEMPLATES = [
    {"template_id": "T000", "dsl": REFERENCE_TEMPLATE},
    {"template_id": "T001", "dsl": "If any (not A,\x0cB), then U.\x1cFacts: not a.\u2028Question: Is u correct?"},
    {"template_id": "T002", "dsl": "If all (A, B, C), then U.\r\nIf any (D), then V.\r\nFacts: a, b.\r\n"
                                   "Question: Is v correct?\r\nLabel: contradicted, if C1, C2"},
]
_PORTABLE_BAD = {"template_id": "T003", "dsl": "If all (A),\x85then U.\x1c\x1cFacts: a, b.\nQuestion: Is u correct?"}
_PORTABLE_DIGEST = "9f839e2b3c1f1d64162b5da5d3dc2fb50d44cf0aaa4992926838295c880dff38"


@pytest.mark.parametrize("minor", ["3.10", "3.11", "3.12", "3.13", "3.14"])
def test_solve_same_bytes_on_every_python(tmp_path, minor):
    # The runtime needs only the stdlib, so any installed interpreter can run it.
    pythons = sorted((Path.home() / ".pyenv" / "versions").glob(f"{minor}.*/bin/python"))
    if not pythons:
        pytest.skip(f"no Python {minor} installed under pyenv")
    good, bad, out_path = tmp_path / "templates.jsonl", tmp_path / "bad.jsonl", tmp_path / "verdicts.jsonl"
    good.write_text("".join(json.dumps(r) + "\n" for r in _PORTABLE_TEMPLATES), encoding="utf-8")
    bad.write_text(json.dumps(_PORTABLE_TEMPLATES[0]) + "\n" + json.dumps(_PORTABLE_BAD) + "\n", encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}

    def solve(*argv):
        argv = [str(pythons[-1]), "-m", "condlogic.cli", "solve", *argv]
        return subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)

    result = solve("--file", str(good), "--out", str(out_path))
    assert result.returncode == 0, result.stderr
    assert result.stdout == "T000: entailed, if C1\nT001: entailed\nT002: contradicted, if C3\n"
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == _PORTABLE_DIGEST
    result = solve("--file", str(bad))
    assert result.returncode == 1
    assert result.stderr == f"error: {bad}:2: line 4, column 11: unknown variable 'b' in facts\n"


# Verdicts are printed in batches of 64: lines 65 and 150 fault after one and after two whole batches.
@pytest.mark.parametrize("bad_line", [1, 3, 5, 65, 150])
def test_solve_fault_leaves_verdicts_solved_before_it(tmp_path, capsys, bad_line):
    records = [json.dumps({**_PORTABLE_TEMPLATES[i % 3], "template_id": f"T{i:03d}"}) for i in range(200)]
    good, bad = tmp_path / "good.jsonl", tmp_path / "bad.jsonl"
    good.write_text("".join(r + "\n" for r in records), encoding="utf-8")
    # An object, so that on line 1 too the file reads as templates.jsonl.
    bad_record = '{"template_id": "T999", "dsl": 1}'
    bad.write_text("".join(r + "\n" for r in records[: bad_line - 1] + [bad_record] + records[bad_line - 1 :]),
                   encoding="utf-8")
    all_rows, rows = tmp_path / "all-rows.jsonl", tmp_path / "rows.jsonl"
    code, all_out, _ = run(capsys, "solve", "--file", str(good), "--out", str(all_rows))
    assert code == 0
    code, out, err = run(capsys, "solve", "--file", str(bad), "--out", str(rows))
    assert code == 1
    assert err == f"error: {bad}:{bad_line}: dsl is not a string: 1\n"
    assert out == "".join(all_out.splitlines(keepends=True)[: bad_line - 1])
    expected = all_rows.read_text(encoding="utf-8").splitlines(keepends=True)[: bad_line - 1]
    assert rows.read_text(encoding="utf-8") == "".join(expected)


def test_solve_without_stdout_still_writes_out(tmp_path, capsys):
    # Python sets sys.stdout to None when file descriptor 1 is closed; print then writes nothing.
    path = tmp_path / "templates.jsonl"
    path.write_text("".join(json.dumps({**_PORTABLE_TEMPLATES[i % 3], "template_id": f"T{i:03d}"}) + "\n"
                            for i in range(150)), encoding="utf-8")
    printed, unprinted = tmp_path / "printed.jsonl", tmp_path / "unprinted.jsonl"
    code, out, _ = run(capsys, "solve", "--file", str(path), "--out", str(printed))
    assert code == 0 and out.count("\n") == 150
    with mock.patch.object(sys, "stdout", None):
        code = cli.main(["solve", "--file", str(path), "--out", str(unprinted)])
    assert code == 0
    assert unprinted.read_bytes() == printed.read_bytes()


@pytest.mark.parametrize("spelling", ["same", "dotdot"])
def test_solve_out_may_not_name_the_input(tmp_path, capsys, spelling):
    path = tmp_path / "templates.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in _PORTABLE_TEMPLATES), encoding="utf-8")
    before = path.read_bytes()
    out_path = str(path) if spelling == "same" else os.path.join(tmp_path, "..", tmp_path.name, path.name)
    code, out, err = run(capsys, "solve", "--file", str(path), "--out", out_path)
    assert code == 1
    assert out == ""
    assert err == f"error: verdicts would overwrite the input file {str(path)!r}\n"
    assert path.read_bytes() == before


def test_solve_lone_surrogate_exits_one(tmp_path, capsys):
    # JSON accepts the escape, but no UTF-8 output can hold the string.
    path = tmp_path / "templates.jsonl"
    good = json.dumps({"template_id": "T000", "dsl": REFERENCE_TEMPLATE})
    path.write_text(f"{good}\n" + '{"template_id": "T\\ud800", "dsl": "If"}\n', encoding="utf-8")
    out_path = tmp_path / "verdicts.jsonl"
    code, out, err = run(capsys, "solve", "--file", str(path), "--out", str(out_path))
    assert code == 1
    assert err == f"error: {path}:2: lone surrogate escape in a string\n"
    assert out == "T000: entailed, if C1\n"
    assert len(out_path.read_text(encoding="utf-8").splitlines()) == 1


def test_solve_keeps_line_numbers_after_leading_blank_lines(tmp_path, capsys):
    path = tmp_path / "templates.jsonl"
    path.write_text("\n  \n" + json.dumps({"template_id": "T000", "dsl": REFERENCE_TEMPLATE}) + "\n[1]\n",
                    encoding="utf-8")
    code, out, err = run(capsys, "solve", "--file", str(path))
    assert code == 1
    assert out == "T000: entailed, if C1\n"
    assert err == f"error: {path}:4: not a JSON object\n"


def _peak_traced_bytes(argv):
    """The tracemalloc peak of one in-process CLI run, with stdout discarded."""
    with open(os.devnull, "w", encoding="utf-8") as sink, contextlib.redirect_stdout(sink):
        tracemalloc.start()
        try:
            code = cli.main(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert code == 0
    return peak


def test_solve_memory_does_not_grow_with_the_input(tmp_path):
    def peak(n):
        path = tmp_path / f"templates-{n}.jsonl"
        path.write_text("".join(json.dumps({"template_id": f"T{i:05d}", "dsl": REFERENCE_TEMPLATE}) + "\n"
                                for i in range(n)), encoding="utf-8")
        return _peak_traced_bytes(["solve", "--file", str(path), "--out", str(tmp_path / "verdicts.jsonl")])

    peak(1600)  # fill the caches and free lists a first run leaves behind
    small, large = peak(400), peak(1600)
    assert large < 1.5 * small, (small, large)


# --- generate ------------------------------------------------------------------

def test_generate_writes_splits(tmp_path, capsys, bank_path):
    out_dir = tmp_path / "data"
    code, out, _ = run(
        capsys,
        "generate",
        "--bank", str(bank_path),
        "--out", str(out_dir),
        "--seed", "11",
        "--templates", "12",
        "--dev", "30",
        "--test", "10",
        "--train", "5",
    )
    assert code == 0
    assert "templates" in out and "answer label histogram" in out

    templates = (out_dir / "templates.jsonl").read_text(encoding="utf-8").splitlines()
    assert len(templates) == 12
    first = json.loads(templates[0])
    assert first["template_id"] == "T000"
    assert first["dsl"].startswith("If ")

    for name, expected in (("dev", 30), ("test", 10), ("train", 5)):
        lines = (out_dir / f"{name}.jsonl").read_text(encoding="utf-8").splitlines()
        assert len(lines) == expected
        manifest = json.loads((out_dir / f"{name}.jsonl.manifest").read_text(encoding="utf-8"))
        assert manifest["count"] == expected
        assert manifest["seed"] == 11


def test_generate_requires_seed(capsys, bank_path, tmp_path):
    code, _, err = run(capsys, "generate", "--bank", str(bank_path), "--out", str(tmp_path))
    assert code == 1
    assert "--seed" in err


def test_generate_missing_bank_exits_two(capsys, tmp_path):
    code, _, err = run(
        capsys, "generate", "--bank", "/nonexistent/bank.jsonl", "--out", str(tmp_path), "--seed", "1"
    )
    assert code == 2


def test_generate_bad_config_exits_one(capsys, bank_path, tmp_path):
    code, _, err = run(
        capsys,
        "generate",
        "--bank", str(bank_path),
        "--out", str(tmp_path),
        "--seed", "1",
        "--max-conditions", "0",
    )
    assert code == 1
    assert "max_conditions" in err


def test_generate_negative_train_exits_one_before_writing(capsys, bank_path, tmp_path):
    out_dir = tmp_path / "data"
    out_dir.mkdir()
    code, _, err = run(
        capsys,
        "generate",
        "--bank", str(bank_path),
        "--out", str(out_dir),
        "--seed", "1",
        "--train", "-1",
    )
    assert code == 1
    assert "error: --train cannot be negative" in err
    assert list(out_dir.iterdir()) == []


@pytest.mark.parametrize("name,spelling", [
    ("dev.jsonl", "same"), ("test.jsonl.manifest", "dotdot"), ("train.jsonl", "same"),
])
def test_generate_may_not_overwrite_the_bank(tmp_path, capsys, bank_path, name, spelling):
    out_dir = tmp_path / "data"
    out_dir.mkdir()
    bank = out_dir / name
    bank.write_bytes(bank_path.read_bytes())
    before = bank.read_bytes()
    out = str(out_dir) if spelling == "same" else os.path.join(tmp_path, "..", tmp_path.name, "data")
    code, stdout, err = run(capsys, "generate", "--bank", str(bank), "--out", out, "--seed", "1",
                            "--templates", "5", "--dev", "10", "--test", "10", "--train", "5")
    assert code == 1
    assert stdout == ""
    assert err == f"error: output {name} would overwrite the input file {str(bank)!r}\n"
    assert bank.read_bytes() == before
    assert list(out_dir.iterdir()) == [bank]


def _write_labelled_bank(path, labels, n=30):
    with open(path, "w", encoding="utf-8") as handle:
        for i in range(n):
            record = {"premise": f"premise {i}.", "hypothesis": f"hypothesis {i}.", "label": labels[i % len(labels)]}
            handle.write(json.dumps(record) + "\n")


@pytest.mark.parametrize(
    "flags,message",
    [
        (["--templates", "5", "--dev", "50", "--test", "50"], "bank {bank!r} has no 'contradiction' records"),
        (["--max-conditions", "1", "--templates", "100000"],
         "no new template after 1000 consecutive duplicates; got 32 of 100000"),
    ],
    ids=["missing-label", "too-few-templates"],
)
def test_generate_refuses_before_writing(tmp_path, capsys, flags, message):
    bank = tmp_path / "bank.jsonl"
    _write_labelled_bank(bank, ["entailment"])
    out_dir = tmp_path / "data"
    code, out, err = run(capsys, "generate", "--bank", str(bank), "--out", str(out_dir), "--seed", "1", *flags)
    assert code == 1
    assert out == ""
    assert err == f"error: {message.format(bank=str(bank))}\n"
    assert not out_dir.exists()


def test_generate_needs_only_the_labels_its_templates_draw(tmp_path, capsys):
    # No template of seed 3 asks a neutral question, so a bank without neutral records will do.
    bank = tmp_path / "bank.jsonl"
    _write_labelled_bank(bank, ["entailment", "contradiction"])
    out_dir = tmp_path / "data"
    code, out, err = run(capsys, "generate", "--bank", str(bank), "--out", str(out_dir), "--seed", "3",
                         "--templates", "5", "--dev", "200", "--test", "50")
    assert code == 0, err
    assert len((out_dir / "dev.jsonl").read_text(encoding="utf-8").splitlines()) == 200
    assert len((out_dir / "test.jsonl").read_text(encoding="utf-8").splitlines()) == 50


def test_generate_compiles_each_plan_once_and_builds_no_example_per_record(tmp_path, capsys, bank_path):
    with mock.patch.object(generate_module, "template_groups", wraps=template_groups) as solves, \
            mock.patch.object(dataset_io_module, "example_to_dict", wraps=example_to_dict) as dicts:
        code, _, err = run(capsys, "generate", "--bank", str(bank_path), "--out", str(tmp_path / "data"),
                           "--seed", "2", "--templates", "6", "--dev", "40", "--test", "30", "--train", "20")
    assert code == 0, err
    # One solve (the groups resolved once) per template, shared by the three splits, and one probe record per plan.
    assert solves.call_count == 6
    assert dicts.call_count == 6


# Texts a JSON encoder must escape, non-ASCII ones, and ones that look like a line's placeholders.
_bank_texts = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=8) | st.sampled_from(
    ['"', "\\", "a\x00\x1fb\r", "\u2028\x85", "0", "18446744073709551616", "\ue000", "\ue0000", "{0}",
     "caf\u00e9 \U0001f600"]
)
_good_bank_lines = st.tuples(
    _bank_texts, _bank_texts, st.sampled_from(["entailment", "contradiction", "neutral"]), st.booleans()
).map(lambda r: ("good", r[2], json.dumps(
    {"sentence1": r[0], "sentence2": r[1], "gold_label": r[2]} if r[3] else
    {"premise": r[0], "hypothesis": r[1], "label": r[2]},
    ensure_ascii=False,
)))
_bad_bank_lines = st.sampled_from([
    "{", "nonsense", "[1, 2]", "5", "null", '"x"',
    '{"premise": "p", "label": "neutral"}',
    '{"premise": "", "hypothesis": "h", "label": "neutral"}',
    '{"premise": "p", "hypothesis": "h", "label": "-"}',
    '{"premise": "p", "hypothesis": "h", "label": "Entailment"}',
    '{"premise": 5, "hypothesis": "h", "label": "neutral"}',
    '{"premise": "p", "hypothesis": ["h"], "label": "entailment"}',
    '{"premise": "p", "hypothesis": "h", "label": null}',
    '{"premise": "a\\ud800", "hypothesis": "h", "label": "neutral"}',
]).map(lambda line: ("bad", None, line))
_FUZZ_SPLITS = (("dev", "dev", 12), ("test", "test", 8), ("train", "train-stream", 5))


@settings(max_examples=60, deadline=None)
# Two good lines to one bad, so that about a third of the banks hold every label.
@given(lines=st.lists(st.one_of(_good_bank_lines, _good_bank_lines, _bad_bank_lines), max_size=14),
       seed=st.integers(0, 50))
def test_generate_fuzz_banks(lines, seed):
    with tempfile.TemporaryDirectory() as tmp:
        bank, out_dir = Path(tmp) / "bank.jsonl", Path(tmp) / "data"
        bank.write_text("".join(line + "\n" for _, _, line in lines), encoding="utf-8")
        with _Warnings() as warnings:
            code, out, err = _main(["generate", "--bank", str(bank), "--out", str(out_dir), "--seed", str(seed),
                                    "--templates", "3", "--dev", "12", "--test", "8", "--train", "5"])
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        assert len(warnings.messages) == sum(kind == "bad" for kind, _, _ in lines)
        if {label for kind, label, _ in lines if kind == "good"} == {"entailment", "contradiction", "neutral"}:
            assert code == 0, err
        if code != 0:
            assert code == 1
            assert out == "" and err.startswith("error: bank ") and err.count("\n") == 1
            assert not out_dir.exists()
            return
        config = GenConfig(seed=seed, n_templates=3, n_dev=12, n_test=8)
        loaded = load_nli_bank(bank)
        for name, tag, count in _FUZZ_SPLITS:
            # Split on newlines only: a record may hold U+2028 or U+0085 as they are.
            got = (out_dir / f"{name}.jsonl").read_bytes().decode("utf-8").split("\n")
            expected = [json.dumps(example_to_dict(e), ensure_ascii=False)
                        for e in itertools.islice(generate_dataset(config, loaded, tag), count)]
            assert got == [*expected, ""]


# --- parse-context ---------------------------------------------------------------

def test_parse_context(tmp_path, capsys):
    infile = tmp_path / "doc.jsonl"
    rows = [
        {"tag": "h1", "text": "Eligibility"},
        {"tag": "p", "text": "You must apply in person."},
        {"tag": "li", "text": "bring id"},
        {"tag": "li", "text": "bring proof of address"},
    ]
    infile.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
    out_path = tmp_path / "groups.jsonl"
    code, out, _ = run(
        capsys, "parse-context", "--in", str(infile), "--out", str(out_path), "--stats"
    )
    assert code == 0
    assert "group(s)" in out
    assert "group size histogram" in out and "leaf depth histogram" in out
    groups = [json.loads(l) for l in out_path.read_text(encoding="utf-8").splitlines()]
    assert all(g["type"] == "unknown" for g in groups)
    li_group = next(g for g in groups if len(g["conditions"]) == 2)
    assert li_group["result"] == "You must apply in person. | Eligibility"


def test_parse_context_stats_histograms(tmp_path, capsys):
    # Root-level leaves (a paragraph before any heading, an empty heading),
    # list items under a paragraph, and a nested heading: depths 1, 2 and 3.
    rows = [
        {"tag": "p", "text": "Read this first."},
        {"tag": "h1", "text": "Eligibility"},
        {"tag": "p", "text": "You must apply in person."},
        {"tag": "li", "text": "bring id"},
        {"tag": "li", "text": "bring proof of address"},
        {"tag": "h2", "text": "Fees"},
        {"tag": "p", "text": "Pay the fee."},
        {"tag": "p", "text": "Students pay half."},
        {"tag": "h1", "text": "Contact"},
        {"tag": "h1", "text": "Appeals"},
        {"tag": "p", "text": "Write to the board."},
    ]
    infile = tmp_path / "doc.jsonl"
    infile.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
    code, out, _ = run(
        capsys, "parse-context", "--in", str(infile), "--out", str(tmp_path / "g.jsonl"), "--stats"
    )
    assert code == 0
    assert out == (
        "5 group(s), 7 condition(s)\n"
        "group size histogram:\n"
        "    1: 3\n"
        "    2: 2\n"
        "leaf depth histogram:\n"
        "    1: 2\n"
        "    2: 1\n"
        "    3: 4\n"
    )


def test_parse_context_empty_input_exits_one(tmp_path, capsys):
    infile = tmp_path / "empty.jsonl"
    infile.write_text('{"tag": "p", "text": "  "}\n', encoding="utf-8")
    code, _, err = run(capsys, "parse-context", "--in", str(infile), "--out", str(tmp_path / "o"))
    assert code == 1
    assert "no usable elements" in err


@pytest.mark.parametrize("spelling", ["same", "dotdot"])
def test_parse_context_out_may_not_name_the_input(tmp_path, capsys, spelling):
    page = tmp_path / "page.jsonl"
    page.write_text("".join(json.dumps(r) + "\n" for r in _PORTABLE_PAGE[:5]), encoding="utf-8")
    before = page.read_bytes()
    out_path = str(page) if spelling == "same" else os.path.join(tmp_path, "..", tmp_path.name, page.name)
    code, out, err = run(capsys, "parse-context", "--in", str(page), "--out", out_path)
    assert code == 1
    assert out == ""
    assert err == f"error: groups would overwrite the input file {str(page)!r}\n"
    assert page.read_bytes() == before


def test_parse_context_builds_no_group_per_line(tmp_path, capsys):
    # Runs of 1 to 30 list items, each size twice: one probe group and record per size, none per line.
    page = tmp_path / "page.jsonl"
    sizes = [*range(1, 31), *range(30, 0, -1)]
    page.write_text("".join(json.dumps({"tag": tag, "text": text}) + "\n" for k in sizes
                            for tag, text in [("p", f"Lead {k}:"), *[("li", f"item {i}") for i in range(k)]]),
                    encoding="utf-8")
    out_path = tmp_path / "groups.jsonl"
    with mock.patch.object(contexts_module, "ConditionGroup", wraps=ConditionGroup) as groups, \
            mock.patch.object(contexts_module, "group_to_dict", wraps=group_to_dict) as dicts:
        code, out, err = run(capsys, "parse-context", "--in", str(page), "--out", str(out_path))
    assert code == 0, err
    assert out == f"60 group(s), {sum(sizes)} condition(s)\n"
    assert groups.call_count == dicts.call_count == 30
    expected = [encode_line(group_to_dict(g)) for g in group_elements(load_html_elements(page))]
    assert out_path.read_text(encoding="utf-8").splitlines(keepends=True) == expected


def test_parse_context_memory_does_not_grow_with_the_page(tmp_path):
    section = [("h1", "Section {i}"), ("p", "Read this first {i}."), ("p", "You qualify if {i}:"), ("li", "one {i}"),
               ("li", "two {i}"), ("h2", "Fees {i}"), ("p", "Pay {i}."), ("p", "Half {i}."), ("tr", "Row {i}")]

    def peak(n_sections):
        page = tmp_path / f"page-{n_sections}.jsonl"
        page.write_text("".join(json.dumps({"tag": tag, "text": text.format(i=i)}) + "\n"
                                for i in range(n_sections) for tag, text in section), encoding="utf-8")
        argv = ["parse-context", "--in", str(page), "--out", str(tmp_path / "groups.jsonl"), "--stats"]
        return _peak_traced_bytes(argv)

    peak(500)  # fill the caches and free lists a first run leaves behind
    small, large = peak(125), peak(500)
    assert large < 1.5 * small, (small, large)


class _Warnings(logging.Handler):
    """The messages condlogic logs while installed."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())

    def __enter__(self):
        logging.getLogger("condlogic").addHandler(self)
        return self

    def __exit__(self, *exc):
        logging.getLogger("condlogic").removeHandler(self)


# A surrogate pair and a backslash before "ud800" are valid text that the
# reader's surrogate check must let through.
_page_words = st.lists(st.sampled_from(["Apply", "in", "person", "fee", "\u00e9t\u00e9", "1200", "\U0001f600",
                                        "\\ud800"]),
                       min_size=1, max_size=4).map(" ".join)
# Each page line as (kind, text); a "skip" line carries the reason it is skipped for.
_page_lines = st.one_of(
    st.tuples(st.sampled_from([*KNOWN_TAGS, "H2", "blockquote", None]), _page_words).map(
        lambda p: ("good", json.dumps({"text": p[1]} if p[0] is None else {"tag": p[0], "text": p[1]}))
    ),
    st.sampled_from(['{"tag": "p", "text": "  "}', '{"tag": "li"}', '{"text": "\\u2028"}']).map(
        lambda line: ("skip", line, "empty text")
    ),
    st.sampled_from(["null", "5", '{"a": 1}', '["x"]', "true"]).map(
        lambda text: ("skip", f'{{"tag": "p", "text": {text}}}', "text is not a string")
    ),
    st.sampled_from(["[1, 2]", "1", '"x"', "null"]).map(lambda line: ("skip", line, "not a JSON object")),
    st.sampled_from(['{"tag": "p", "text": "a\\ud800b"}', '{"text": "\\uDFFF"}', '{"tag": "li", "\\udbff": "x"}'])
    .map(lambda line: ("skip", line, "lone surrogate escape in a string")),
    st.sampled_from(["{", "nonsense", '{"tag": "p",'])
    .map(lambda line: ("skip", line, "invalid JSON (")),
    st.sampled_from(["", "   "]).map(lambda line: ("blank", line)),
)


@settings(max_examples=100, deadline=None)
@given(st.lists(_page_lines, max_size=12))
def test_parse_context_fuzz_pages(lines):
    with tempfile.TemporaryDirectory() as tmp, _Warnings() as warnings:
        page, out_path = Path(tmp) / "page.jsonl", Path(tmp) / "groups.jsonl"
        page.write_text("".join(line[1] + "\n" for line in lines), encoding="utf-8")
        code, out, err = _main(["parse-context", "--in", str(page), "--out", str(out_path)])
        groups = out_path.read_text(encoding="utf-8").splitlines() if code == 0 else []
    assert "Traceback" not in err
    skipped = [(line_no, line[2]) for line_no, line in enumerate(lines, start=1) if line[0] == "skip"]
    assert len(warnings.messages) == len(skipped)
    for message, (line_no, reason) in zip(warnings.messages, skipped):
        assert message.startswith(f"{page}:{line_no}: {reason}")
        assert message.endswith(", skipping")
    n_good = sum(line[0] == "good" for line in lines)
    if n_good:
        assert code == 0
        assert sum(len(json.loads(group)["conditions"]) for group in groups) <= n_good
        assert out.startswith(f"{len(groups)} group(s), ")
    else:
        assert code == 1
        assert err == f"error: no usable elements in {page}\n"


# Tags and whitespace the parser must read the same way on every Python.
_PORTABLE_PAGE = [
    {"tag": "p", "text": "Read this first."},
    {"tag": "H1", "text": "Eligibility"},
    {"tag": "p", "text": "\x1cYou must apply in person.\u2028"},
    {"tag": "li", "text": "bring id"},
    {"tag": "li", "text": "bring proof of address \u00e9"},
    {"tag": "h2", "text": "Fees"},
    {"tag": "blockquote", "text": "Pay the fee."},
    {"tag": "p", "text": "Students pay half."},
    {"tag": "p", "text": "\x85 \u2028"},
    {"tag": "h1", "text": "Contact"},
    {"tag": "h3", "text": "Appeals"},
    {"tag": "p", "text": None},
    {"tag": "li", "text": "Write to the board.\t"},
]
_PORTABLE_GROUPS_DIGEST = "dcb8a3e15e3c08823d7e9c414a17c6609464fcb689ccd94907dc894718722a9a"


@pytest.mark.parametrize("minor", ["3.10", "3.11", "3.12", "3.13", "3.14"])
def test_parse_context_same_bytes_on_every_python(tmp_path, minor):
    pythons = sorted((Path.home() / ".pyenv" / "versions").glob(f"{minor}.*/bin/python"))
    if not pythons:
        pytest.skip(f"no Python {minor} installed under pyenv")
    page, out_path = tmp_path / "page.jsonl", tmp_path / "groups.jsonl"
    page.write_text("[1]\n" + "".join(json.dumps(r) + "\n" for r in _PORTABLE_PAGE), encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    argv = [str(pythons[-1]), "-m", "condlogic.cli", "parse-context", "--in", str(page), "--out", str(out_path),
            "--stats"]
    result = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout == (
        "4 group(s), 6 condition(s)\n"
        "group size histogram:\n"
        "    1: 2\n"
        "    2: 2\n"
        "leaf depth histogram:\n"
        "    1: 1\n"
        "    3: 5\n"
    )
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == _PORTABLE_GROUPS_DIGEST
    assert result.stderr == (
        f"{page}:1: not a JSON object, skipping\n"
        f"{page}:10: empty text, skipping\n"
        f"{page}:13: text is not a string: None, skipping\n"
    )


# --- golden digests: solve and parse-context at scale -------------------------------

# Whitespace a separator may be spelled with: ``\s`` and ``str.isspace`` both take U+2028 and U+001C.
_GOLDEN_SPACES = (" ", " ", " ", "  ", "\t", "\n ", "\u2028", "\x1c")
# Condition names, multi-letter ones among them ("note" is a fact word that starts with "not").
_GOLDEN_CONDITIONS = [*"ABCDEFGHIJKLMNOPQRST", "AB", "CD", "NOTE", "XQ"]
_GOLDEN_PREMISES = [*"UVWXYZ", "PR", "RES"]


def _golden_templates(rng: random.Random, n: int) -> list[dict]:
    """``n`` valid templates.jsonl records: up to 20 conditions, negations, facts, ``Label:``
    lines with and without a ``, if ...`` qualifier, and varied whitespace."""

    def gap(required: bool = False) -> str:
        return "" if not required and rng.random() < 0.3 else rng.choice(_GOLDEN_SPACES)

    def ref(name: str) -> str:
        return f"not{gap(True)}{name}" if rng.random() < 0.3 else name

    records = []
    for i in range(n):
        n_conditions = rng.randint(1, 20)
        n_groups = rng.randint(1, min(len(_GOLDEN_PREMISES) - 1, n_conditions))
        cuts = sorted(rng.sample(range(1, n_conditions), n_groups - 1))
        variables = rng.sample(_GOLDEN_CONDITIONS, n_conditions)
        premises = rng.sample(_GOLDEN_PREMISES, len(_GOLDEN_PREMISES))
        parts = []
        for premise, lo, hi in zip(premises, [0, *cuts], [*cuts, n_conditions]):
            refs = f"{gap()},{gap()}".join(ref(v) for v in variables[lo:hi])
            parts.append(f"{gap()}If{gap(True)}{rng.choice(('all', 'any'))}{gap()}({gap()}{refs}{gap()}){gap()},"
                         f"{gap()}then{gap(True)}{premise}{gap()}.")
        facts = [v.lower() for v in variables if rng.random() < 0.5] or [variables[0].lower()]
        rng.shuffle(facts)
        fact_text = f"{gap()},{gap()}".join(ref(f) for f in facts)
        irrelevant = rng.random() < 0.2
        question = premises[n_groups if irrelevant else rng.randrange(n_groups)].lower()
        parts.append(f"{gap()}Facts{gap()}:{gap()}{fact_text}{gap()}.{gap()}Question{gap()}:{gap()}Is{gap(True)}"
                     f"{question}{gap(True)}correct{gap()}?")
        if rng.random() < 0.75:
            label = "irrelevant" if irrelevant else rng.choice(("entailed", "contradicted", "neutral"))
            parts.append(f"{gap()}Label{gap()}:{gap()}{label}")
            if rng.random() < 0.3:
                qualifiers = [rng.choice((f"C{rng.randrange(25)}", rng.choice(variables))) for _ in range(3)]
                parts.append(f"{gap()},{gap()}if{gap(True)}" + f"{gap()},{gap()}".join(qualifiers[:rng.randint(1, 3)]))
        parts.append(gap())
        record = {"dsl": "".join(parts)}
        if rng.random() < 0.95:
            record["template_id"] = f"G{i:04d}"
        records.append(record)
    return records


def _golden_page(rng: random.Random, n: int) -> list[str]:
    """``n`` lines of a tagged page: nested headings, list items, unknown tags, and lines the
    reader skips (blank or missing text, text that is not a string, no object, bad JSON)."""
    words = ["Apply", "in", "person", "fee", "students", "pay", "half", "\u00e9t\u00e9", "1200", "\U0001f600",
             "if", "you", "qualify", "\"quoted\"", "back\\slash"]
    tags = ["h1", "h2", "h3", "h4", "p", "p", "p", "li", "li", "li", "li", "tr", "other", "blockquote", "H3", None]
    lines = []
    for _ in range(n):
        roll = rng.random()
        if roll < 0.9:
            text = " ".join(rng.choice(words) for _ in range(rng.randint(1, 8)))
            if rng.random() < 0.1:
                text = f"{rng.choice(_GOLDEN_SPACES)}{text}{rng.choice(_GOLDEN_SPACES)}"
            tag = rng.choice(tags)
            lines.append(json.dumps({"text": text} if tag is None else {"tag": tag, "text": text}))
        else:
            lines.append(rng.choice(['{"tag": "p", "text": "  "}', '{"tag": "li"}', '{"tag": "p", "text": 5}',
                                     "[1]", "{", "", '{"text": "\\u2028"}']))
    return lines


def _run_cli(cwd: Path, *argv: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    return subprocess.run([sys.executable, "-m", "condlogic.cli", *argv], cwd=cwd, env=env, capture_output=True,
                          timeout=120)


def _digests(result: subprocess.CompletedProcess, out: Path) -> dict[str, str]:
    return {name: hashlib.sha256(data).hexdigest()
            for name, data in (("out", out.read_bytes()), ("stdout", result.stdout), ("stderr", result.stderr))}


SOLVE_DIGESTS = {
    "out": "cab071591b64e9c398962de89679be284876c62c702719585f1814cb79185f44",
    "stdout": "2543b837060e03c976f5caaeeba0e2e1b2eecbfe8a8dc2fc7e31513ccebbb9ed",
    "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
}
PARSE_CONTEXT_DIGESTS = {
    "out": "9f8a375d081cb6329bf3a709974308dfbd23469cd1eb3edfd445039a5484f756",
    "stdout": "8d9e36396c6c45888d0824c079d17c3ee2604dbd8e0e07dbc37a98df194e841f",
    "stderr": "cc5376d232bfbb09fc76b88c8dff1d853ba0299e021ebbda0cad97b975d85093",
}


def test_solve_golden_digests(tmp_path):
    records = _golden_templates(random.Random(2027), 2000)
    (tmp_path / "templates.jsonl").write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    result = _run_cli(tmp_path, "solve", "--file", "templates.jsonl", "--out", "verdicts.jsonl")
    assert result.returncode == 0, result.stderr
    assert _digests(result, tmp_path / "verdicts.jsonl") == SOLVE_DIGESTS


def test_parse_context_golden_digests(tmp_path):
    lines = _golden_page(random.Random(2027), 5000)
    (tmp_path / "page.jsonl").write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    result = _run_cli(tmp_path, "parse-context", "--in", "page.jsonl", "--out", "groups.jsonl", "--stats")
    assert result.returncode == 0, result.stderr
    assert _digests(result, tmp_path / "groups.jsonl") == PARSE_CONTEXT_DIGESTS


# --- evaluate ---------------------------------------------------------------------

@pytest.mark.parametrize("rows", ["written", "not-asked"])
def test_evaluate_self(tmp_path, capsys, monkeypatch, bank_path, rows):
    out_dir = tmp_path / "data"
    run(
        capsys,
        "generate",
        "--bank", str(bank_path),
        "--out", str(out_dir),
        "--seed", "3",
        "--templates", "8",
        "--dev", "20",
        "--test", "0",
    )
    # Without --out or --per-example, solve and evaluate leave their working directory as it was.
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    per_example, verdicts = tmp_path / "rows.jsonl", tmp_path / "verdicts.jsonl"
    code, out, _ = run(capsys, "solve", "--file", str(out_dir / "templates.jsonl"),
                       *(["--out", str(verdicts)] if rows == "written" else []))
    assert code == 0
    assert len(out.splitlines()) == 8
    code, out, _ = run(
        capsys,
        "evaluate",
        "--pred", str(out_dir / "dev.jsonl"),
        "--gold", str(out_dir / "dev.jsonl"),
        "--profile", "condnli",
        *(["--per-example", str(per_example)] if rows == "written" else []),
    )
    assert code == 0
    assert "n examples            20" in out
    for line in out.splitlines()[1:]:
        assert "1.0000" in line
    assert list(cwd.iterdir()) == []
    if rows == "written":
        assert len(per_example.read_text(encoding="utf-8").splitlines()) == 20
        assert len(verdicts.read_text(encoding="utf-8").splitlines()) == 8
    else:
        assert not per_example.exists() and not verdicts.exists()


@pytest.mark.parametrize("profile", ["condnli", "sharc"])
def test_empty_output_path_is_not_asked(tmp_path, capsys, monkeypatch, bank_path, profile):
    """``solve --out ""`` and ``evaluate --per-example ""`` run as without the flag."""
    out_dir = tmp_path / "data"
    run(capsys, "generate", "--bank", str(bank_path), "--out", str(out_dir), "--seed", "3",
        "--templates", "8", "--dev", "20", "--test", "0")
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    solve = ("solve", "--file", str(out_dir / "templates.jsonl"))
    unflagged = run(capsys, *solve)
    assert unflagged[0] == 0
    assert run(capsys, *solve, "--out", "") == unflagged
    evaluate = ("evaluate", "--pred", str(out_dir / "dev.jsonl"), "--gold", str(out_dir / "dev.jsonl"),
                "--profile", profile)
    with mock.patch.object(metrics_module, "bleu", wraps=metrics_module.bleu) as spy:
        unflagged = run(capsys, *evaluate)
        unflagged_calls = spy.call_count
        assert unflagged[0] == 0
        assert run(capsys, *evaluate, "--per-example", "") == unflagged
    # BLEU is scored only when the profile prints it: 2 orders for each of the 20 questions.
    assert unflagged_calls == spy.call_count - unflagged_calls == (40 if profile == "sharc" else 0)
    assert list(cwd.iterdir()) == []


def test_generate_with_an_empty_out_is_a_usage_error(tmp_path, capsys, monkeypatch, bank_path):
    """``generate --out ""`` exits 1 before the bank is read, and writes nothing in the working directory."""
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    with mock.patch.object(generate_module, "load_nli_bank", wraps=generate_module.load_nli_bank) as load:
        code, out, err = run(capsys, "generate", "--bank", str(bank_path), "--out", "", "--seed", "3",
                             "--templates", "8", "--dev", "20", "--test", "20", "--train", "5")
    assert code == 1
    assert out == ""
    assert err.endswith("condlogic generate: error: argument --out: an empty path names no output\n")
    assert load.call_count == 0
    assert list(cwd.iterdir()) == []


def test_parse_context_with_an_empty_out_is_a_usage_error(tmp_path, capsys, monkeypatch):
    """``parse-context --out ""`` exits 1 before the page is read."""
    page = tmp_path / "page.jsonl"
    page.write_text("".join(json.dumps(r) + "\n" for r in _PORTABLE_PAGE), encoding="utf-8")
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    with mock.patch.object(cli, "load_html_elements", wraps=cli.load_html_elements) as load:
        code, out, err = run(capsys, "parse-context", "--in", str(page), "--out", "")
    assert code == 1
    assert out == ""
    assert err.endswith("condlogic parse-context: error: argument --out: an empty path names no output\n")
    assert load.call_count == 0
    assert list(cwd.iterdir()) == []


@pytest.mark.parametrize("profile", ["condnli", "conditionalqa", "sharc"])
def test_evaluate_label_only_file_scores_one(tmp_path, capsys, profile):
    path = tmp_path / "labels.jsonl"
    records = [{"id": "0", "label": "yes"}, {"id": 1, "label": "no", "question": "do you live there"}]
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    rows_path = tmp_path / "rows.jsonl"
    code, out, _ = run(capsys, "evaluate", "--pred", str(path), "--gold", str(path), "--profile", profile,
                       "--per-example", str(rows_path))
    assert code == 0
    for line in out.splitlines()[1:]:  # each row's values follow a 22-character label
        assert set(line[22:].split(" / ")) == {"1.0000"}, out
    rows = [json.loads(line) for line in rows_path.read_text(encoding="utf-8").splitlines()]
    assert [row.pop("id") for row in rows] == ["0", "1"]
    assert [row.pop("bleu1") for row in rows] == [None, 1.0]
    assert [row.pop("bleu4") for row in rows] == [None, 1.0]
    for row in rows:
        assert set(row.values()) == {1.0}, row


def _is_json_object(line):
    try:
        return isinstance(json.loads(line), dict)
    except ValueError:
        return False


_eval_ids = st.sampled_from(["0", "1", "a", 0, 1, 2])  # 0 and "0" collide
_eval_words = st.lists(st.sampled_from(["yes", "no", "up", "to", "1200", "\u00e9"]), max_size=4).map(" ".join)
_eval_ids_list = st.lists(st.sampled_from(["C0", "C1", "C2"]), max_size=3)
# Records each reader accepts, as (id, record); a gold record has answers or a label.
_gold_records = st.tuples(
    _eval_ids,
    st.fixed_dictionaries(
        {"answers": st.lists(_eval_words, min_size=1, max_size=2)},
        optional={"label": _eval_words, "unsatisfied": _eval_ids_list, "question": _eval_words},
    )
    | st.fixed_dictionaries(
        {"answer_label": _eval_words}, optional={"conditions": _eval_ids_list, "question": _eval_words}
    ),
)
_pred_records = st.tuples(
    _eval_ids,
    st.fixed_dictionaries(
        {},
        optional={"answer": _eval_words, "answer_label": _eval_words, "answers": st.lists(_eval_words, max_size=2),
                  "label": _eval_words, "conditions": _eval_ids_list, "question": _eval_words},
    ),
)
# Lines both readers reject: not JSON, not an object, or a field of the wrong type.
_eval_bad_lines = st.one_of(
    st.sampled_from(["[1, 2]", "{", "1", '"x"', "null", '{"id": {"a": 1}, "label": "yes"}',
                     '{"id": 1.5, "label": "yes"}', '{"id": true, "label": "yes"}', '{"id": null, "label": "yes"}',
                     '{"id": "x", "answers": [1]}', '{"id": "x", "answers": "yes"}',
                     '{"id": "x", "label": "yes", "unsatisfied": [true]}', '{"id": "x", "label": 1}',
                     '{"id": "x", "label": "yes", "question": 5}', '{"id": "x", "label": "y\\ud800"}']),
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\r\n"))
    .filter(lambda line: line.strip() and not _is_json_object(line)),
)


def _eval_file(records):
    """Text of ("good", (id, record)) / ("bad", line) entries, its first bad line number or None,
    and whether it holds any good record."""
    lines, seen, first_bad = [], set(), None
    for line_no, (kind, value) in enumerate(records, start=1):
        if kind == "good":
            example_id, record = value
            lines.append(json.dumps({"id": example_id, **record}))
            if str(example_id) in seen and first_bad is None:
                first_bad = line_no
            seen.add(str(example_id))
        else:
            lines.append(value)
            if first_bad is None:
                first_bad = line_no
    return "".join(line + "\n" for line in lines), first_bad, bool(seen)


def _eval_lines(good):
    return st.lists(good.map(lambda r: ("good", r)) | _eval_bad_lines.map(lambda line: ("bad", line)), max_size=6)


@settings(max_examples=100, deadline=None)
@given(_eval_lines(_gold_records), _eval_lines(_pred_records), st.sampled_from(["condnli", "conditionalqa", "sharc"]),
       st.booleans())
def test_evaluate_fuzz_files(gold_records, pred_records, profile, per_example):
    gold_text, gold_bad, has_gold = _eval_file(gold_records)
    pred_text, pred_bad, _ = _eval_file(pred_records)
    with tempfile.TemporaryDirectory() as tmp:
        gold, pred = Path(tmp) / "gold.jsonl", Path(tmp) / "pred.jsonl"
        gold.write_text(gold_text, encoding="utf-8")
        pred.write_text(pred_text, encoding="utf-8")
        argv = ["evaluate", "--pred", str(pred), "--gold", str(gold), "--profile", profile]
        if per_example:
            argv += ["--per-example", str(Path(tmp) / "rows.jsonl")]
        code, out, err = _main(argv)
    assert "Traceback" not in err
    if pred_bad is not None:
        assert code == 1
        assert err.startswith(f"error: {pred}:{pred_bad}: ")
    elif gold_bad is not None:
        assert code == 1
        assert err.startswith(f"error: {gold}:{gold_bad}: ")
    elif not has_gold:
        assert code == 1
        assert err == f"error: gold file {str(gold)!r} holds no records\n"
    else:
        assert code == 0
        assert out.startswith("n examples")


@pytest.mark.parametrize("which", ["pred", "gold"])
def test_evaluate_per_example_may_not_name_an_input(tmp_path, capsys, which):
    files = {"pred": tmp_path / "pred.jsonl", "gold": tmp_path / "gold.jsonl"}
    files["pred"].write_text(json.dumps({"id": "0", "answer_label": "neutral"}) + "\n", encoding="utf-8")
    files["gold"].write_text(json.dumps({"id": "0", "answer_label": "entailed"}) + "\n", encoding="utf-8")
    before = files[which].read_bytes()
    same_file = os.path.join(tmp_path, "..", tmp_path.name, files[which].name)  # another spelling of the path
    code, _, err = run(capsys, "evaluate", "--pred", str(files["pred"]), "--gold", str(files["gold"]),
                       "--profile", "condnli", "--per-example", same_file)
    assert code == 1
    assert err == f"error: per-example rows would overwrite the input file {str(files[which])!r}\n"
    assert files[which].read_bytes() == before


@pytest.mark.parametrize("bad_line", [1, 4, 7])
def test_evaluate_fault_leaves_rows_scored_before_it(tmp_path, capsys, bad_line):
    records = [json.dumps({"id": str(i), "answer_label": "entailed", "unsatisfied": [f"C{i % 3}"],
                           "question": "do you live there"}) for i in range(6)]
    pred = tmp_path / "pred.jsonl"
    pred.write_text(json.dumps({"id": "2", "answer_label": "entailed", "question": "do you"}) + "\n",
                    encoding="utf-8")
    good, gold = tmp_path / "good.jsonl", tmp_path / "gold.jsonl"
    good.write_text("".join(r + "\n" for r in records), encoding="utf-8")
    gold.write_text("".join(r + "\n" for r in records[: bad_line - 1] + ["[1, 2]"] + records[bad_line - 1 :]),
                    encoding="utf-8")
    all_rows, rows = tmp_path / "all-rows.jsonl", tmp_path / "rows.jsonl"
    assert run(capsys, "evaluate", "--pred", str(pred), "--gold", str(good), "--profile", "sharc",
               "--per-example", str(all_rows))[0] == 0
    code, _, err = run(capsys, "evaluate", "--pred", str(pred), "--gold", str(gold), "--profile", "sharc",
                       "--per-example", str(rows))
    assert code == 1
    assert err == f"error: {gold}:{bad_line}: not a JSON object\n"
    expected = all_rows.read_text(encoding="utf-8").splitlines(keepends=True)[: bad_line - 1]
    assert rows.read_text(encoding="utf-8") == "".join(expected)


def test_evaluate_unknown_profile(capsys, tmp_path):
    code, _, err = run(
        capsys, "evaluate", "--pred", "x", "--gold", "y", "--profile", "squad"
    )
    assert code == 1
    assert "invalid choice" in err


def test_evaluate_missing_file_exits_two(capsys, tmp_path):
    gold = tmp_path / "gold.jsonl"
    gold.write_text(json.dumps({"id": "0", "answers": ["x"]}) + "\n", encoding="utf-8")
    code, _, err = run(
        capsys, "evaluate", "--pred", "/nonexistent.jsonl", "--gold", str(gold), "--profile", "condnli"
    )
    assert code == 2


def test_no_command_exits_one(capsys):
    code, _, err = run(capsys)
    assert code == 1


# --- malformed input ----------------------------------------------------------------

@pytest.mark.parametrize("which", ["pred", "gold"])
def test_evaluate_non_object_line_exits_one(tmp_path, capsys, which):
    good = tmp_path / "good.jsonl"
    good.write_text(json.dumps({"id": "0", "answer_label": "entailed"}) + "\n", encoding="utf-8")
    bad = tmp_path / "bad.jsonl"
    bad.write_text(json.dumps({"id": "0", "answer_label": "entailed"}) + "\n[1,2]\n", encoding="utf-8")
    files = {"pred": good, "gold": good, which: bad}
    code, _, err = run(
        capsys, "evaluate", "--pred", str(files["pred"]), "--gold", str(files["gold"]), "--profile", "condnli"
    )
    assert code == 1
    assert f"{bad}:2: not a JSON object" in err


@pytest.mark.parametrize(
    "record,fragment",
    [
        ({"id": "0", "answer_label": 1}, "answer_label is not a string: 1"),
        ({"id": "0", "answer_label": "entailed", "question": 5}, "question is not a string: 5"),
        ({"id": "0", "answers": "yes"}, "answers is not a list: 'yes'"),
        ({"id": {"a": 1}, "answer_label": "entailed"}, "id is not a string or an integer: {'a': 1}"),
        ({"id": ["0"], "answer_label": "entailed"}, "id is not a string or an integer: ['0']"),
        ({"id": 0.0, "answer_label": "entailed"}, "id is not a string or an integer: 0.0"),
        ({"id": True, "answer_label": "entailed"}, "id is not a string or an integer: True"),
        ({"id": "0", "answers": [1, 2]}, "answers item is not a string: 1"),
        ({"id": "0", "answer_label": "entailed", "unsatisfied": [True]}, "unsatisfied item is not a string: True"),
        ({"id": "0", "answer_label": "entailed", "conditions": ["C1", None]},
         "conditions item is not a string: None"),
    ],
    # Each id names the rule its record breaks.
    ids=["record0-label must be a string", "record1-question must be a string", "record2-expected a list",
         "record3-id must be a string or an integer, got dict", "record4-id must be a string or an integer, got list",
         "record5-id must be a string or an integer, got float", "record6-id must be a string or an integer, got bool",
         "record7-expected a list of strings, found 1", "record8-expected a list of strings, found True",
         "record9-expected a list of strings, found None"],
)
def test_evaluate_bad_field_type_exits_one(tmp_path, capsys, record, fragment):
    good = tmp_path / "good.jsonl"
    good.write_text(json.dumps({"id": "0", "answer_label": "entailed"}) + "\n", encoding="utf-8")
    bad = tmp_path / "bad.jsonl"
    bad.write_text(json.dumps(record) + "\n", encoding="utf-8")
    for pred, gold in ((bad, good), (good, bad)):
        code, _, err = run(capsys, "evaluate", "--pred", str(pred), "--gold", str(gold), "--profile", "sharc")
        assert code == 1
        assert f"{bad}:1: {fragment}" in err


def test_evaluate_prediction_answer_must_be_a_string(tmp_path, capsys):
    gold = tmp_path / "gold.jsonl"
    gold.write_text(json.dumps({"id": "0", "answers": ["5"]}) + "\n", encoding="utf-8")
    pred = tmp_path / "pred.jsonl"
    pred.write_text(json.dumps({"id": "0", "answer": 5}) + "\n", encoding="utf-8")
    code, _, err = run(capsys, "evaluate", "--pred", str(pred), "--gold", str(gold), "--profile", "conditionalqa")
    assert code == 1
    assert f"{pred}:1: answer is not a string: 5" in err


def test_evaluate_non_utf8_exits_one(tmp_path, capsys):
    good = tmp_path / "good.jsonl"
    good.write_text(json.dumps({"id": "0", "answer_label": "entailed"}) + "\n", encoding="utf-8")
    bad = tmp_path / "latin1.jsonl"
    bad.write_bytes(b'{"id": "0", "answer_label": "caf\xe9"}\n')
    code, _, err = run(capsys, "evaluate", "--pred", str(bad), "--gold", str(good), "--profile", "condnli")
    assert code == 1
    assert f"error: {bad}: not UTF-8 text" in err


@pytest.mark.parametrize("command", ["generate", "parse-context", "solve-file", "solve-stdin"])
def test_non_utf8_input_names_the_file(tmp_path, capsys, monkeypatch, command):
    bad = tmp_path / "latin1.jsonl"
    bad.write_bytes(b'{"text": "caf\xe9"}\n')
    argv = {
        "generate": ["generate", "--bank", str(bad), "--out", str(tmp_path / "out"), "--seed", "1"],
        "parse-context": ["parse-context", "--in", str(bad), "--out", str(tmp_path / "o")],
        "solve-file": ["solve", "--file", str(bad)],
        "solve-stdin": ["solve", "--stdin"],
    }[command]
    if command == "solve-stdin":
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(bad.read_bytes()), encoding="utf-8"))
    code, _, err = run(capsys, *argv)
    assert code == 1
    name = "<stdin>" if command == "solve-stdin" else bad
    assert f"error: {name}: not UTF-8 text" in err


_GOOD_RECORD = json.dumps({"template_id": "T000", "dsl": REFERENCE_TEMPLATE}).encode("utf-8")
_BAD_RECORD = b'{"template_id": "T\xff", "dsl": ' + json.dumps(REFERENCE_TEMPLATE).encode("utf-8") + b"}"


@pytest.mark.parametrize("locale", [{"PYTHONUTF8": "1"}, {"LC_ALL": "C"}], ids=["PYTHONUTF8=1", "LC_ALL=C"])
@pytest.mark.parametrize(
    "stdin,out",
    [
        (_GOOD_RECORD + b"\n" + _BAD_RECORD + b"\n", False),
        (_GOOD_RECORD + b"\n" + _BAD_RECORD + b"\n", True),
        (_BAD_RECORD + b"\n" + _GOOD_RECORD + b"\n", True),
        (REFERENCE_TEMPLATE.encode("utf-8").replace(b"Facts: a", b"Facts: \xff"), False),
    ],
    ids=["templates", "templates-out", "templates-out-first-line", "plain"],
)
def test_solve_stdin_pipe_must_be_utf8(tmp_path, locale, stdin, out):
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONUTF8", "LC_ALL", "LC_CTYPE", "LANG")}
    env.update(locale, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    out_path = tmp_path / "verdicts.jsonl"
    argv = [sys.executable, "-m", "condlogic.cli", "solve", "--stdin", *(["--out", str(out_path)] if out else [])]
    result = subprocess.run(argv, input=stdin, env=env, capture_output=True, timeout=60)
    assert result.returncode == 1
    err = result.stderr.decode("utf-8", errors="replace")
    assert "Traceback" not in err
    assert err.startswith("error: <stdin>: not UTF-8 text (") and err.endswith(")\n")
    assert err.count("\n") == 1
    if b"\xff" in stdin.split(b"\n")[0]:
        assert not out_path.exists()


def test_solve_stdin_closed_exits_two(tmp_path, capsys, monkeypatch):
    # With file descriptor 0 closed, Python sets sys.stdin to None.
    monkeypatch.setattr("sys.stdin", None)
    out_path = tmp_path / "verdicts.jsonl"
    code, out, err = run(capsys, "solve", "--stdin", "--out", str(out_path))
    assert code == 2
    assert err == "error: <stdin>: standard input is closed\n"
    assert "Traceback" not in err and out == ""
    assert not out_path.exists()


def test_parse_context_skips_non_object_line(tmp_path, capsys, caplog):
    infile = tmp_path / "doc.jsonl"
    infile.write_text('[1,2]\n{"tag": "p", "text": "You must apply."}\n', encoding="utf-8")
    with caplog.at_level("WARNING"):
        code, out, _ = run(capsys, "parse-context", "--in", str(infile), "--out", str(tmp_path / "o"))
    assert code == 0
    assert "1 group(s)" in out
    assert f"{infile}:1: not a JSON object, skipping" in caplog.text


@pytest.mark.parametrize(
    "line,fragment",
    [
        ('{"dsl": 1}', "dsl is not a string: 1"),
        ("[1, 2]", "not a JSON object"),
        ('{"template_id": "T000"}', "missing fields: dsl"),
        (
            json.dumps({"template_id": "T001", "dsl": REFERENCE_TEMPLATE.replace("If all", "If both")}),
            "line 1, column 4: unknown operator 'both'",
        ),
        (json.dumps({"template_id": 5, "dsl": REFERENCE_TEMPLATE}), "template_id is not a string: 5"),
        (
            json.dumps({"template_id": {"a": 1}, "dsl": REFERENCE_TEMPLATE}),
            "template_id is not a string: {'a': 1}",
        ),
    ],
    ids=['{"dsl": 1}', "[1, 2]", '{"template_id": "T000"}', "dsl-parse-error", "int-template-id",
         "object-template-id"],
)
def test_solve_templates_jsonl_bad_record_exits_one(tmp_path, capsys, line, fragment):
    path = tmp_path / "templates.jsonl"
    good = json.dumps({"template_id": "T000", "dsl": REFERENCE_TEMPLATE})
    path.write_text(f"{good}\n{line}\n", encoding="utf-8")
    code, _, err = run(capsys, "solve", "--file", str(path))
    assert code == 1
    assert f"{path}:2: {fragment}" in err


# --- README -----------------------------------------------------------------------

def _readme_commands() -> list[list[str]]:
    """The arguments of each ``condlogic`` command in README's ``sh`` blocks, with ``\\``
    continuations joined and comments and shell redirections dropped."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```$", readme, re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = iter(shlex.split(line, comments=True))
            if next(words, None) != "condlogic":
                continue
            argv = []
            for word in words:
                if re.fullmatch(r"\d*(<|>>?)", word):
                    next(words, None)  # a redirection's target
                elif not re.match(r"\d*(<|>>?)", word):
                    argv.append(word)
            commands.append(argv)
    return commands


def test_readme_commands_parse():
    commands = _readme_commands()
    assert {argv[0] for argv in commands} == {"generate", "solve", "parse-context", "evaluate"}
    parser = cli._build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: condlogic {shlex.join(argv)}")
        # Spelled out in full, not as an abbreviation that argparse would also take.
        for word in argv:
            if word.startswith("--"):
                assert word.partition("=")[0] in subparsers[argv[0]]._option_string_actions, argv
