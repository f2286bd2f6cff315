"""Command line interface.

Subcommands: ``generate`` builds template and example splits from an NLI
bank, ``solve`` answers symbolic templates (or dumps evaluation tables),
``parse-context`` turns tagged document elements into condition groups,
and ``evaluate`` scores a prediction file against a gold file.

Exit codes: 0 success, 1 usage or validation error, 2 I/O error.
"""

from __future__ import annotations

import argparse
import io
import logging
import sys
from collections import Counter
from itertools import islice
from pathlib import Path

from .contexts import build_dom_tree, load_html_elements, parse_html_context
from .dataset_io import SplitManifest, _sorted_ids, group_to_dict, write_split
from .errors import InvariantError, ToolkitError
from .generate import (
    GenConfig,
    config_hash,
    generate_dataset,
    generate_templates,
    load_nli_bank,
)
from .jsonl import JsonlReader, undecodable, write_jsonl
from .logic import LogicalType, TaskProfile, enumerate_assignments
from .metrics import evaluate_files, format_report
from .templates import condition_ids, parse_template_dsl, render_template_dsl, solve_template

_PROFILES = {
    "condnli": TaskProfile.CONDNLI,
    "conditionalqa": TaskProfile.YESNO,
    "sharc": TaskProfile.SHARC,
}


class _Parser(argparse.ArgumentParser):
    # Usage errors exit 1, reserving 2 for I/O failures.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _format_verdict(label: str, unsatisfied) -> str:
    if unsatisfied:
        return f"{label}, if {', '.join(_sorted_ids(unsatisfied))}"
    return label


def cmd_generate(args) -> int:
    if args.train < 0:
        raise ToolkitError("--train cannot be negative")
    config = GenConfig(
        seed=args.seed,
        max_conditions=args.max_conditions,
        n_templates=args.templates,
        n_dev=args.dev,
        n_test=args.test,
    )
    bank = load_nli_bank(args.bank)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    digest = config_hash(config)

    templates = generate_templates(config)
    templates_path = out_dir / "templates.jsonl"
    records = ({"template_id": t.template_id, "dsl": render_template_dsl(t)} for t in templates)
    write_jsonl(templates_path, records)

    histogram: Counter = Counter()

    def counted(stream):
        for example in stream:
            histogram[example.gold.label] += 1
            yield example

    plan = [("dev", args.dev), ("test", args.test)]
    if args.train:
        plan.append(("train", args.train))
    written = {}
    for name, size in plan:
        split = name if name != "train" else "train-stream"
        stream = generate_dataset(config, bank, split)
        if name == "train":
            stream = islice(stream, size)
        path = out_dir / f"{name}.jsonl"
        manifest = write_split(
            counted(stream), path, SplitManifest(split=name, count=0, seed=args.seed, config_hash=digest)
        )
        written[name] = (path, manifest.count)

    print(f"templates   {len(templates):>6}  {templates_path}")
    for name, (path, count) in written.items():
        print(f"{name:<11} {count:>6}  {path}")
    print("answer label histogram:")
    for label, count in sorted(histogram.items()):
        print(f"  {label:<13} {count}")
    return 0


def _assignments_table(spec: str) -> str:
    op_token, _, k_token = spec.partition(":")
    try:
        logical_type = LogicalType(op_token)
        k = int(k_token)
    except ValueError:
        raise ToolkitError(f"bad assignment spec {spec!r}, expected e.g. 'any:3'") from None
    table = enumerate_assignments(logical_type, k)
    width = max(3 * k + 2, len("assignment") + 2)
    lines = [f"{'assignment':<{width}}{'status':<15}labels"]
    for assignment, (status, labels) in table.items():
        states = " ".join(s.value[0].upper() for s in assignment)
        lines.append(f"{states:<{width}}{status.value:<15}{', '.join(l.value for l in labels)}")
    return "\n".join(lines)


def cmd_solve(args) -> int:
    if args.assignments:
        print(_assignments_table(args.assignments))
        return 0
    if not (args.file or args.stdin):
        raise ToolkitError("nothing to solve: pass --file, --stdin, or --assignments")
    source = args.file or "<stdin>"
    try:
        text = Path(source).read_text(encoding="utf-8") if args.file else sys.stdin.read()
    except UnicodeDecodeError as exc:
        raise undecodable(source, exc) from None

    stripped = text.lstrip()
    if not stripped:
        raise ToolkitError("empty input")

    def solve_record(record: dict):
        if not isinstance(record.get("dsl"), str):
            raise InvariantError("expected an object with a string 'dsl' field")
        template = parse_template_dsl(record["dsl"])
        return record.get("template_id"), solve_template(template), condition_ids(template)

    if stripped.startswith("{"):
        # A templates.jsonl file: one {template_id, dsl} record per line.
        results = list(JsonlReader(io.StringIO(text), source, solve_record, strict=True))
    else:
        template = parse_template_dsl(text)
        results = [(None, solve_template(template), condition_ids(template))]

    out_rows = []
    for template_id, verdict, ids in results:
        mapped = [ids[v] for v in verdict.unsatisfied]
        line = _format_verdict(verdict.label, mapped)
        print(f"{template_id}: {line}" if template_id else line)
        out_rows.append(
            {"template_id": template_id, "answer_label": verdict.label, "unsatisfied": _sorted_ids(mapped)}
        )
    if args.out:
        write_jsonl(args.out, out_rows)
    return 0


def cmd_parse_context(args) -> int:
    elements = load_html_elements(args.infile)
    if not elements:
        raise ToolkitError(f"no usable elements in {args.infile}")
    groups = parse_html_context(elements)
    write_jsonl(args.out, (group_to_dict(group) for group in groups))
    print(f"{len(groups)} group(s), {sum(len(g.conditions) for g in groups)} condition(s)")

    if args.stats:
        sizes = Counter(len(g.conditions) for g in groups)
        depths: Counter = Counter()
        stack = [(build_dom_tree(elements), 0)]
        while stack:
            node, depth = stack.pop()
            if not node.children and node.element is not None:
                depths[depth] += 1
            stack.extend((child, depth + 1) for child in node.children)
        print("group size histogram:")
        for size, count in sorted(sizes.items()):
            print(f"  {size:>3}: {count}")
        print("leaf depth histogram:")
        for depth, count in sorted(depths.items()):
            print(f"  {depth:>3}: {count}")
    return 0


def cmd_evaluate(args) -> int:
    profile = _PROFILES[args.profile]
    report = evaluate_files(args.pred, args.gold, profile, per_example_path=args.per_example)
    print(format_report(report, profile))
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="condlogic", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="generate templates and dataset splits")
    p_gen.add_argument("--bank", required=True, help="JSONL NLI bank (premise/hypothesis/label)")
    p_gen.add_argument("--out", required=True, help="output directory")
    p_gen.add_argument("--seed", required=True, type=int, help="master seed")
    p_gen.add_argument("--templates", type=int, default=65)
    p_gen.add_argument("--max-conditions", type=int, default=6)
    p_gen.add_argument("--dev", type=int, default=5000)
    p_gen.add_argument("--test", type=int, default=5000)
    p_gen.add_argument("--train", type=int, default=0, help="optional bounded train split size")
    p_gen.set_defaults(func=cmd_generate)

    p_solve = sub.add_parser("solve", help="solve template text or dump evaluation tables")
    p_solve.add_argument("--file", help="template text or a templates.jsonl file")
    p_solve.add_argument("--stdin", action="store_true", help="read template text from stdin")
    p_solve.add_argument("--assignments", metavar="OP:K", help="print the full table for a group, e.g. any:3")
    p_solve.add_argument("--out", help="also write verdicts as JSONL")
    p_solve.set_defaults(func=cmd_solve)

    p_parse = sub.add_parser("parse-context", help="turn tagged elements into condition groups")
    p_parse.add_argument("--in", dest="infile", required=True, help="JSONL of {tag, text} records")
    p_parse.add_argument("--out", required=True, help="output JSONL of condition groups")
    p_parse.add_argument("--stats", action="store_true", help="print size and depth histograms")
    p_parse.set_defaults(func=cmd_parse_context)

    p_eval = sub.add_parser("evaluate", help="score predictions against gold")
    p_eval.add_argument("--pred", required=True)
    p_eval.add_argument("--gold", required=True)
    p_eval.add_argument("--profile", required=True, choices=sorted(_PROFILES))
    p_eval.add_argument("--per-example", help="write per-example scores to this JSONL file")
    p_eval.set_defaults(func=cmd_evaluate)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.WARNING, format="%(message)s")
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ToolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
