"""Seeded input generators for the benchmark.

Every generator takes a ``random.Random`` built from the run's seed and
nothing else, so one seed always gives byte-identical inputs. Each one
also returns what it planted (skipped lines, missing ids, expected
counts), which the output checks compare against.
"""

from __future__ import annotations

import json
import random

NLI_LABELS = ("entailment", "contradiction", "neutral")
CONDNLI_LABELS = ("entailed", "contradicted", "neutral", "irrelevant")

_SYLLABLES = (
    "ba be bi bo bu da de di do du fa fe fi fo ga ge go ka ke ki ko la le li lo lu "
    "ma me mi mo mu na ne ni no nu pa pe pi po ra re ri ro ru sa se si so ta te ti "
    "to tu va ve vi wa we ya yo za zo"
).split()


def vocabulary(rng: random.Random, size: int = 3000) -> list[str]:
    words: set[str] = set()
    while len(words) < size:
        words.add("".join(rng.choice(_SYLLABLES) for _ in range(rng.randint(1, 4))))
    return sorted(words)


def sentence(rng: random.Random, words: list[str], mean: int) -> str:
    n = max(3, round(rng.gauss(mean, mean / 3)))
    tokens = [words[int(rng.paretovariate(1.2)) % len(words)] for _ in range(n)]
    if n > 6 and rng.random() < 0.3:
        tokens[rng.randrange(2, n - 2)] += ","
    return " ".join(tokens).capitalize() + "."


def write_nli_bank(rng: random.Random, path, n_records: int = 10_000) -> int:
    """MultiNLI-like bank: premises of ~22 tokens, hypotheses of ~11.

    Half the records use the ``sentence1/sentence2/gold_label`` schema;
    about 1% of those carry MultiNLI's ``-`` (no consensus) gold label,
    which the loader must skip. Returns the number of such lines.
    """
    words = vocabulary(rng)
    planted_skips = 0
    with open(path, "w", encoding="utf-8") as handle:
        for _ in range(n_records):
            premise = sentence(rng, words, 22)
            hypothesis = sentence(rng, words, 11)
            label = rng.choice(NLI_LABELS)
            if rng.random() < 0.5:
                record = {"premise": premise, "hypothesis": hypothesis, "label": label}
            else:
                if rng.random() < 0.02:
                    label = "-"
                    planted_skips += 1
                record = {"sentence1": premise, "sentence2": hypothesis, "gold_label": label}
            handle.write(json.dumps(record) + "\n")
    return planted_skips


def write_predictions(rng: random.Random, gold_path, pred_path) -> dict:
    """Perturb a gold file of generated examples into predictions.

    Gold records carry no ``id``, so their ids are their line positions.
    About 2% of gold ids get no prediction and about 1% of predictions
    name an id no gold record has. Labels are swapped, condition sets
    dropped from, added to or emptied, and questions lose tokens or go
    missing. Returns the planted counts and every prediction's label.
    """
    with open(gold_path, encoding="utf-8") as handle:
        golds = [json.loads(line) for line in handle if line.strip()]
    missing = 0
    labels: dict[str, str] = {}
    rows = []
    for index, gold in enumerate(golds):
        if rng.random() < 0.02:
            missing += 1
            continue
        label = gold["answer_label"]
        if rng.random() < 0.15:
            label = rng.choice([l for l in CONDNLI_LABELS if l != label])
        conditions = list(gold["unsatisfied"])
        roll = rng.random()
        if roll < 0.08 and conditions:
            conditions.pop(rng.randrange(len(conditions)))
        elif roll < 0.14:
            conditions.append(f"C{rng.randrange(8)}")
        elif roll < 0.18:
            conditions = []
        row = {"id": str(index), "answer_label": label, "unsatisfied": sorted(set(conditions))}
        tokens = gold["question"].split()
        roll = rng.random()
        if roll < 0.25 and len(tokens) > 2:
            keep = [t for t in tokens if rng.random() > 0.2]
            row["question"] = " ".join(keep or tokens[:1])
        elif roll >= 0.30:
            row["question"] = gold["question"]
        # Otherwise (5%) the question is left out and scores BLEU 0.
        labels[str(index)] = label
        rows.append(row)
    unmatched = max(1, len(golds) // 100)
    for k in range(unmatched):
        rows.insert(rng.randrange(len(rows) + 1), {"id": f"x{k}", "answer_label": "neutral", "unsatisfied": []})
    with open(pred_path, "w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row) + "\n")
    return {"n_gold": len(golds), "missing": missing, "unmatched": unmatched, "labels": labels}


_CONDITION_VARS = "ABCDEFGHIJKLMNOPQRST"
_PREMISE_VARS = "UVWXYZ"


def _random_dsl(rng: random.Random, max_conditions: int) -> str:
    n_conditions = rng.randint(1, max_conditions)
    n_groups = rng.randint(1, min(len(_PREMISE_VARS), n_conditions))
    cuts = sorted(rng.sample(range(1, n_conditions), n_groups - 1))
    bounds = list(zip([0] + cuts, cuts + [n_conditions]))
    variables = rng.sample(_CONDITION_VARS, n_conditions)
    premises = rng.sample(_PREMISE_VARS, len(_PREMISE_VARS))
    lines = []
    for gi, (lo, hi) in enumerate(bounds):
        refs = [("not " if rng.random() < 0.25 else "") + v for v in variables[lo:hi]]
        lines.append(f"If {rng.choice(('all', 'any'))} ({', '.join(refs)}), then {premises[gi]}.")
    facts = [v for v in variables if rng.random() < 0.5] or [rng.choice(variables)]
    rng.shuffle(facts)
    fact_text = ", ".join(("not " if rng.random() < 0.25 else "") + v.lower() for v in facts)
    lines.append(f"Facts: {fact_text}.")
    label = rng.choice(CONDNLI_LABELS)
    if label == "irrelevant" and n_groups == len(_PREMISE_VARS):
        label = "neutral"
    question = premises[n_groups if label == "irrelevant" else rng.randrange(n_groups)]
    lines.append(f"Question: Is {question.lower()} correct?")
    lines.append(f"Label: {label}")
    return "\n".join(lines)


def write_templates(rng: random.Random, path, n_templates: int = 10_000, max_conditions: int = 20) -> int:
    """Distinct templates in ``templates.jsonl`` form, up to 20 conditions each."""
    seen: set[str] = set()
    with open(path, "w", encoding="utf-8") as handle:
        while len(seen) < n_templates:
            dsl = _random_dsl(rng, max_conditions)
            if dsl in seen:
                continue
            handle.write(json.dumps({"template_id": f"S{len(seen):05d}", "dsl": dsl}) + "\n")
            seen.add(dsl)
    return n_templates


_UNKNOWN_TAGS = ("div", "span", "td", "blockquote", "section")


def _leaf(tag: str, text: str) -> dict:
    return {"tag": tag, "text": text, "children": []}


def _section(rng, words, level: int, budget: list[int]) -> dict:
    node = _leaf(f"h{level}", sentence(rng, words, 5))
    budget[0] -= 1
    children = node["children"]
    if rng.random() < 0.1:
        # A list straight under the heading, before any other block.
        for _ in range(rng.randint(1, 4)):
            children.append(_leaf("li", sentence(rng, words, 9)))
    for _ in range(rng.randint(0, 6)):
        roll = rng.random()
        if roll < 0.45:
            block = _leaf("p", sentence(rng, words, 16))
            if rng.random() < 0.6:
                block["children"] = [_leaf("li", sentence(rng, words, 9)) for _ in range(rng.randint(1, 7))]
        elif roll < 0.8:
            block = _leaf("tr", sentence(rng, words, 8))
        else:
            block = _leaf(rng.choice(_UNKNOWN_TAGS), sentence(rng, words, 12))
        children.append(block)
    budget[0] -= _count(children)
    if level < 4:
        for _ in range(rng.randint(0, 3)):
            if budget[0] <= 0:
                break
            children.append(_section(rng, words, level + 1, budget))
    return node


def _count(nodes) -> int:
    return sum(1 + _count(n["children"]) for n in nodes)


def _emit(nodes, out: list) -> None:
    for node in nodes:
        out.append((node["tag"], node["text"]))
        _emit(node["children"], out)


def _expected_groups(node_children, is_root: bool, out: list) -> None:
    # Leaves sharing a parent form one group, split by sibling subtrees;
    # leaves directly under the root stand alone.
    run = 0
    for child in node_children:
        if child["children"]:
            if run:
                out.append(run)
                run = 0
            _expected_groups(child["children"], False, out)
        elif is_root:
            out.append(1)
        else:
            run += 1
    if run:
        out.append(run)


def write_page(rng: random.Random, path, n_elements: int = 50_000) -> dict:
    """A tagged page built from a planted document tree.

    The element stream is emitted so that the documented nesting rules
    rebuild exactly the planted tree: blocks precede subsections, and
    list items follow their introducing paragraph. About 0.5% of the
    lines are blank and must be skipped. Returns the planted group and
    condition counts.
    """
    words = vocabulary(rng, 2000)
    roots = [_leaf("p", sentence(rng, words, 16))]
    budget = [n_elements - 1]
    while budget[0] > 0:
        roots.append(_section(rng, words, 1, budget))
    stream: list[tuple[str, str]] = []
    _emit(roots, stream)
    sizes: list[int] = []
    _expected_groups(roots, True, sizes)
    blanks = 0
    with open(path, "w", encoding="utf-8") as handle:
        for tag, text in stream:
            if rng.random() < 0.005:
                blanks += 1
                handle.write(json.dumps({"tag": rng.choice(("p", "li", "h2")), "text": "  "}) + "\n")
            handle.write(json.dumps({"tag": tag, "text": text}) + "\n")
    return {
        "lines": len(stream) + blanks,
        "blanks": blanks,
        "groups": len(sizes),
        "conditions": sum(sizes),
    }
