import json

import pytest

from condlogic import (
    GenConfig,
    SplitManifest,
    config_hash,
    example_from_dict,
    example_to_dict,
    generate_dataset,
    read_manifest,
    read_split,
    write_split,
)
from condlogic.dataset_io import manifest_path


@pytest.fixture
def examples(bank):
    config = GenConfig(seed=17, n_templates=6, n_dev=12, n_test=0)
    return list(generate_dataset(config, bank, "dev")), config


def test_round_trip(tmp_path, examples):
    exs, config = examples
    path = tmp_path / "dev.jsonl"
    manifest = SplitManifest("dev", 0, config.seed, config_hash(config))
    final = write_split(exs, path, manifest)
    assert final.count == len(exs)
    assert read_manifest(path) == final
    assert list(read_split(path)) == exs


def test_serialized_schema(examples):
    exs, _ = examples
    raw = example_to_dict(exs[0])
    assert set(raw) == {
        "template_id", "seed", "context", "facts", "question", "answer_label", "unsatisfied",
    }
    group = raw["context"][0]
    assert set(group) == {"result_id", "result", "type", "conditions"}
    assert group["type"] in {"all", "any", "required"}
    assert raw["unsatisfied"] == sorted(raw["unsatisfied"], key=lambda i: (len(i), i))


def test_empty_stream(tmp_path):
    path = tmp_path / "empty.jsonl"
    final = write_split([], path, SplitManifest("dev", 99, 0, "x"))
    assert final.count == 0
    assert path.read_text(encoding="utf-8") == ""
    assert list(read_split(path)) == []


def test_invalid_record_skipped(tmp_path, examples, caplog):
    exs, config = examples
    path = tmp_path / "dev.jsonl"
    write_split(exs[:3], path, SplitManifest("dev", 0, config.seed, "h"))
    lines = path.read_text(encoding="utf-8").splitlines()
    lines.insert(1, "{bad json")
    lines.insert(3, json.dumps({"template_id": "T000"}))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    with caplog.at_level("WARNING"):
        read = list(read_split(path))
    assert read == exs[:3]
    skipped = [r.message for r in caplog.records if "skipping" in r.message]
    assert len(skipped) == 2
    assert any(":2:" in m for m in skipped)


def test_partial_trailing_line_skipped(tmp_path, examples, caplog):
    exs, config = examples
    path = tmp_path / "dev.jsonl"
    write_split(exs[:2], path, SplitManifest("dev", 0, config.seed, "h"))
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"template_id": "T9')  # no newline: crashed writer
    with caplog.at_level("WARNING"):
        read = list(read_split(path))
    assert read == exs[:2]
    assert any("partial trailing line" in r.message for r in caplog.records)

    # A whitespace-only last line is blank, not a partial record.
    write_split(exs[:2], path, SplitManifest("dev", 0, config.seed, "h"))
    with open(path, "a", encoding="utf-8") as handle:
        handle.write("   ")
    caplog.clear()
    with caplog.at_level("WARNING"):
        assert list(read_split(path)) == exs[:2]
    assert not caplog.records


def test_manifest_count_mismatch_warns(tmp_path, examples, caplog):
    exs, config = examples
    path = tmp_path / "dev.jsonl"
    write_split(exs[:3], path, SplitManifest("dev", 0, config.seed, "h"))
    with open(manifest_path(path), encoding="utf-8") as handle:
        sidecar = json.load(handle)
    sidecar["count"] = 5
    with open(manifest_path(path), "w", encoding="utf-8") as handle:
        json.dump(sidecar, handle)
    with caplog.at_level("WARNING"):
        read = list(read_split(path))
    assert len(read) == 3
    assert any("manifest declares 5" in r.message for r in caplog.records)


@pytest.mark.parametrize(
    "sidecar",
    [
        "{}",
        "not json",
        '{"split": "dev", "count": "x", "seed": 1, "config_hash": "h"}',
        "[1]",
        '{"split": "dev", "count": 1.9, "seed": 1, "config_hash": "h"}',
        '{"split": "dev", "count": 2, "seed": true, "config_hash": "h"}',
        '{"split": "dev", "count": true, "seed": 1, "config_hash": "h"}',
        '{"split": 5, "count": 2, "seed": 1, "config_hash": "h"}',
        '{"split": "dev", "count": 2, "seed": 1, "config_hash": null}',
        '{"split": "dev", "count": 2, "seed": 1, "config_hash": "h", "version": 1}',
    ],
)
def test_malformed_manifest_is_ignored(tmp_path, examples, caplog, sidecar):
    exs, config = examples
    path = tmp_path / "dev.jsonl"
    write_split(exs[:2], path, SplitManifest("dev", 0, config.seed, "h"))
    with open(manifest_path(path), "w", encoding="utf-8") as handle:
        handle.write(sidecar + "\n")
    with caplog.at_level("WARNING"):
        assert read_manifest(path) is None
        assert list(read_split(path)) == exs[:2]
    assert f"{manifest_path(path)}: invalid manifest (" in caplog.text
    assert "ignoring" in caplog.text


def test_missing_manifest_is_none(tmp_path, examples):
    exs, config = examples
    path = tmp_path / "dev.jsonl"
    write_split(exs[:1], path, SplitManifest("dev", 0, config.seed, "h"))
    import os

    os.remove(manifest_path(path))
    assert read_manifest(path) is None
    assert list(read_split(path)) == exs[:1]  # no manifest, no mismatch check


@pytest.mark.parametrize(
    "mutate,fragment",
    [
        (lambda r: r.pop("question"), "missing fields"),
        (lambda r: r.update(context="nope"), "not a list"),
        (lambda r: r["context"][0].update(type="xor"), "unknown group type"),
        (lambda r: r["context"][0]["conditions"][0].update(id="K1"), "malformed condition id"),
        (lambda r: r.update(unsatisfied=["C999"]), "name no condition"),
        (lambda r: r.update(answer_label="banana"), "unknown answer label 'banana'"),
        (
            lambda r: r["context"][0].update(
                type="required", conditions=[{"id": f"C{i}", "text": "t"} for i in range(3)]
            ),
            "required group has 3 conditions",
        ),
    ],
)
def test_example_from_dict_validation(examples, mutate, fragment):
    raw = example_to_dict(examples[0][0])
    mutate(raw)
    with pytest.raises(ValueError, match=fragment):
        example_from_dict(raw)


def test_example_from_dict_rejects_non_object():
    with pytest.raises(ValueError):
        example_from_dict(["not", "a", "dict"])


@pytest.mark.parametrize(
    "mutate,fragment",
    [
        (lambda r: r.update(unsatisfied="C1"), "unsatisfied is not a list"),
        (lambda r: r.update(facts="abc"), "facts is not a list"),
        (lambda r: r.update(context=[1]), "context entry is not an object"),
        (lambda r: r["context"][0].update(conditions=5), "conditions is not a list"),
        (lambda r: r["context"][0].update(conditions=["C0"]), "condition is not an object"),
        (lambda r: r["context"][0]["conditions"][0].update(id=0), "malformed condition id"),
        (lambda r: r.update(seed=None), "seed is not an integer"),
        (lambda r: r.update(seed="12"), "seed is not an integer"),
        (lambda r: r.update(facts=[None, 2]), "facts item is not a string: None"),
        (lambda r: r.update(unsatisfied=[1]), "unsatisfied item is not a string: 1"),
        (lambda r: r.update(question=["q"]), "question is not a string"),
        (lambda r: r.update(template_id=5), "template_id is not a string: 5"),
        (lambda r: r["context"][0]["conditions"][0].update(text=None), "condition text is not a string: None"),
        (lambda r: r["context"][0].update(result_id=0), "result_id is not a string: 0"),
        (lambda r: r["context"][0].update(result={"a": 1}), "result is not a string"),
        (lambda r: r["context"][0].update(type=["all"]), "unknown group type"),
        (lambda r: r["context"][0].pop("result_id"), "missing fields: result_id"),
        (lambda r: r["context"][0].pop("result"), "missing fields: result"),
        (lambda r: r["context"][0].pop("type"), "missing fields: type"),
        (lambda r: r["context"][0].pop("conditions"), "missing fields: conditions"),
        (lambda r: r["context"][0]["conditions"][0].pop("id"), "missing fields: id"),
        (lambda r: r["context"][0]["conditions"][0].pop("text"), "missing fields: text"),
        (lambda r: r["context"][0]["conditions"].append(dict(r["context"][0]["conditions"][0])),
         "duplicate condition id 'C0'"),
        (lambda r: r["context"].append(json.loads(json.dumps(r["context"][0]))), "duplicate condition id 'C0'"),
    ],
    ids=["unsatisfied-str", "facts-str", "context-int", "conditions-int", "condition-str",
         "condition-id-int", "seed-null", "seed-str", "facts-items", "unsatisfied-item-int", "question-list",
         "template-id-int", "condition-text-null", "result-id-int", "result-object", "type-list",
         "result-id-absent", "result-absent", "type-absent", "conditions-absent", "condition-id-absent",
         "condition-text-absent", "condition-id-repeated-in-group", "condition-id-repeated-across-groups"],
)
def test_malformed_field_skipped_by_read_split(tmp_path, examples, caplog, mutate, fragment):
    exs, _ = examples
    raw = example_to_dict(exs[0])
    mutate(raw)
    with pytest.raises(ValueError, match=fragment):
        example_from_dict(raw)

    path = tmp_path / "dev.jsonl"
    path.write_text(json.dumps(raw) + "\n" + json.dumps(example_to_dict(exs[1])) + "\n", encoding="utf-8")
    with caplog.at_level("WARNING"):
        assert list(read_split(path)) == [exs[1]]
    assert f"{path}:1: {fragment}" in caplog.text
