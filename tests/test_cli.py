import io
import json

import pytest

from condlogic import cli
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


def test_solve_no_input_exits_one(capsys):
    code, _, err = run(capsys, "solve")
    assert code == 1
    assert "nothing to solve" in err


def test_solve_missing_file_exits_two(capsys):
    code, _, err = run(capsys, "solve", "--file", "/nonexistent/template.txt")
    assert code == 2
    assert "error:" in err


def test_solve_bad_assignment_spec(capsys):
    code, _, err = run(capsys, "solve", "--assignments", "xor:3")
    assert code == 1
    assert "bad assignment spec" in err


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


def test_parse_context_empty_input_exits_one(tmp_path, capsys):
    infile = tmp_path / "empty.jsonl"
    infile.write_text('{"tag": "p", "text": "  "}\n', encoding="utf-8")
    code, _, err = run(capsys, "parse-context", "--in", str(infile), "--out", str(tmp_path / "o"))
    assert code == 1
    assert "no usable elements" in err


# --- evaluate ---------------------------------------------------------------------

def test_evaluate_self(tmp_path, capsys, bank_path):
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
    per_example = tmp_path / "rows.jsonl"
    code, out, _ = run(
        capsys,
        "evaluate",
        "--pred", str(out_dir / "dev.jsonl"),
        "--gold", str(out_dir / "dev.jsonl"),
        "--profile", "condnli",
        "--per-example", str(per_example),
    )
    assert code == 0
    assert "n examples            20" in out
    for line in out.splitlines()[1:]:
        assert "1.0000" in line
    assert len(per_example.read_text(encoding="utf-8").splitlines()) == 20


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
        ({"id": "0", "answer_label": 1}, "label must be a string"),
        ({"id": "0", "answer_label": "entailed", "question": 5}, "question must be a string"),
        ({"id": "0", "answers": "yes"}, "expected a list"),
    ],
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
        ('{"dsl": 1}', "expected an object with a string 'dsl' field"),
        ("[1, 2]", "not a JSON object"),
        ('{"template_id": "T000"}', "expected an object with a string 'dsl' field"),
        (
            json.dumps({"template_id": "T001", "dsl": REFERENCE_TEMPLATE.replace("If all", "If both")}),
            "line 1, column 4: unknown operator 'both'",
        ),
    ],
    ids=['{"dsl": 1}', "[1, 2]", '{"template_id": "T000"}', "dsl-parse-error"],
)
def test_solve_templates_jsonl_bad_record_exits_one(tmp_path, capsys, line, fragment):
    path = tmp_path / "templates.jsonl"
    good = json.dumps({"template_id": "T000", "dsl": REFERENCE_TEMPLATE})
    path.write_text(f"{good}\n{line}\n", encoding="utf-8")
    code, _, err = run(capsys, "solve", "--file", str(path))
    assert code == 1
    assert f"{path}:2: {fragment}" in err
