"""Generate a miniature synthetic dataset end to end.

Fabricates a tiny NLI bank, derives symbolic templates, instantiates
them into labeled examples, and writes a split with its manifest. Every
step is deterministic in the master seed.
"""

import json
import tempfile
from collections import Counter
from pathlib import Path

from condlogic import (
    GenConfig,
    SplitManifest,
    config_hash,
    generate_dataset,
    generate_templates,
    load_nli_bank,
    render_template_dsl,
    solve_template,
    write_split,
)

# A real run would point at an MNLI-style JSONL file. Fabricated
# sentences keep the demo self-contained; the label drives which slot a
# record may fill. The bank is held in memory once loaded.
with tempfile.TemporaryDirectory(prefix="condlogic-demo-") as work:
    bank_path = Path(work) / "bank.jsonl"
    labels = ("entailment", "contradiction", "neutral")
    with open(bank_path, "w", encoding="utf-8") as handle:
        for i in range(300):
            label = labels[i % 3]
            handle.write(
                json.dumps(
                    {
                        "premise": f"Person {i} filed form {i % 7} before the deadline.",
                        "hypothesis": f"Form {i % 7} from person {i} is {label}-related.",
                        "label": label,
                    }
                )
                + "\n"
            )
    bank = load_nli_bank(bank_path)
print(f"bank: {len(bank)} records {bank.counts}\n")

config = GenConfig(seed=7, n_templates=6, n_dev=10, n_test=0)

print("=== symbolic templates ===\n")
for template in generate_templates(config):
    verdict = solve_template(template)
    print(f"--- {template.template_id} (solves to {verdict.label}) ---")
    print(render_template_dsl(template))
    print()

print("=== instantiated examples ===\n")
dev = list(generate_dataset(config, bank, "dev"))
example = dev[0]
print(f"template {example.template_id}, per-example seed {example.seed}")
for group in example.context:
    print(f"  [{group.logical_type.value}] result: {group.result_text}")
    for condition in group.conditions:
        print(f"    {condition.text}")
print(f"  facts:    {list(example.facts)}")
print(f"  question: {example.question}")
print(f"  gold:     {example.gold.label}, unsatisfied {sorted(example.gold.unsatisfied)}")
print()

histogram = Counter(e.gold.label for e in dev)
print(f"label histogram over {len(dev)} examples: {dict(histogram)}\n")

with tempfile.TemporaryDirectory(prefix="condlogic-demo-") as work:
    split_path = Path(work) / "dev.jsonl"
    manifest = write_split(
        dev, split_path, SplitManifest("dev", 0, config.seed, config_hash(config))
    )
    print(f"wrote {manifest.count} records to {split_path}")
    print(f"manifest: {manifest.to_dict()}")
