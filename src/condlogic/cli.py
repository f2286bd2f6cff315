"""Command line interface.

Subcommands: ``generate`` builds template and example splits from an NLI
bank, ``solve`` answers symbolic templates (or dumps evaluation tables),
``parse-context`` turns tagged document elements into condition groups,
and ``evaluate`` scores a prediction file against a gold file.

Exit codes: 0 success, 1 usage or validation error, 2 I/O error.
"""

from __future__ import annotations

import argparse
import logging
import sys
from collections import Counter
from contextlib import closing, nullcontext
from itertools import chain
from pathlib import Path

from .contexts import _group_lines, load_html_elements
from .errors import ParseError, ToolkitError
from .jsonl import (
    JsonlReader, _refuse_to_overwrite, jsonl_writer, line_writer, optional_field, require_fields, str_field,
    string_body, undecodable,
)
from .logic import LogicalType, TaskProfile, enumerate_assignments
from .metrics import evaluate_files, format_report

_PROFILES = {
    "condnli": TaskProfile.CONDNLI,
    "conditionalqa": TaskProfile.YESNO,
    "sharc": TaskProfile.SHARC,
}


def _output_path(text: str) -> str:
    # A required output path may not be empty, which would name the working directory or no file.
    if not text:
        raise argparse.ArgumentTypeError("an empty path names no output")
    return text


class _Parser(argparse.ArgumentParser):
    # Usage errors exit 1, reserving 2 for I/O failures.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def cmd_generate(args) -> int:
    # The generator stack is imported here, so the other commands never load it.
    from .dataset_io import SplitManifest, fork_each, manifest_path, plan_line, write_split
    from .generate import GenConfig, _drawer, _texts, compile_template, config_hash, generate_templates, load_nli_bank
    from .templates import render_template_dsl

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
    # Each split's name, the tag its random streams derive from, and its size.
    splits = [("dev", "dev", config.n_dev), ("test", "test", config.n_test)]
    if args.train:
        splits.append(("train", "train-stream", args.train))
    templates_path = out_dir / "templates.jsonl"
    paths = {name: out_dir / f"{name}.jsonl" for name, _, _ in splits}
    for path in (templates_path, *paths.values(), *map(manifest_path, paths.values())):
        _refuse_to_overwrite(path, (args.bank,), f"output {Path(path).name}")
    # Making the templates, their plans and lines, and the split streams checks the config
    # and the bank, before anything is written.
    templates = generate_templates(config)
    plans = [compile_template(t) for t in templates]
    lines = {plan.template_id: plan_line(plan) for plan in plans}
    streams = {name: map(_drawer(config, bank, tag, plans), range(size)) for name, tag, size in splits}
    out_dir.mkdir(parents=True, exist_ok=True)
    digest = config_hash(config)

    with jsonl_writer(templates_path) as write:
        for t in templates:
            write({"template_id": t.template_id, "dsl": render_template_dsl(t)})
    print(f"templates   {len(templates):>6}  {templates_path}")

    # Each bank text is escaped once, here, not on every draw of it.
    premises = [string_body(record.premise) for record in bank.records]
    hypotheses = [string_body(record.hypothesis) for record in bank.records]

    def write(name, stream):
        labels: Counter = Counter()

        def counted():
            for plan, example_seed, picks in stream:
                labels[plan.gold.label] += 1
                yield lines[plan.template_id](example_seed, _texts(plan, picks, premises, hypotheses))

        write_split(counted(), paths[name], SplitManifest(split=name, count=0, seed=args.seed, config_hash=digest))
        return labels

    # Every split is written before any is reported; the first failed one, in split order, ends the run.
    histogram: Counter = Counter()
    for name, labels in fork_each(write, streams).items():
        if isinstance(labels, Exception):
            raise labels
        histogram.update(labels)
        print(f"{name:<11} {labels.total():>6}  {paths[name]}")
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
    from .templates import _solve_valid, _sorted_ids, condition_ids, parse_template_dsl

    if args.assignments:
        if args.out:
            raise ToolkitError("--out cannot be used with --assignments, which writes no verdicts")
        print(_assignments_table(args.assignments))
        return 0
    if not (args.file or args.stdin):
        raise ToolkitError("nothing to solve: pass --file, --stdin, or --assignments")
    source = args.file or "<stdin>"
    if not args.file and sys.stdin is None:
        # Python sets sys.stdin to None when file descriptor 0 is closed.
        raise OSError(f"{source}: standard input is closed")
    if not args.file and hasattr(sys.stdin, "reconfigure"):
        # Strict UTF-8 whatever the locale, as a --file is read.
        sys.stdin.reconfigure(encoding="utf-8", errors="strict")

    def solve_record(record: dict):
        require_fields(record, ("dsl",))
        dsl = str_field(record["dsl"], "dsl")
        return optional_field(record, str_field, "template_id"), parse_template_dsl(dsl)

    with open(args.file, encoding="utf-8") if args.file else nullcontext(sys.stdin) as handle:
        # Lines up to the first one with text, whose first character tells a
        # templates.jsonl file from one plain template.
        head = []
        try:
            for line in handle:
                head.append(line)
                if line.strip():
                    break
            else:
                raise ToolkitError("empty input")
            text = None if head[-1].lstrip().startswith("{") else "".join(head) + handle.read()
        except UnicodeDecodeError as exc:
            raise undecodable(source, exc) from None
        _refuse_to_overwrite(args.out, (args.file,) if args.file else (), "verdicts")

        if text is None:
            # A templates.jsonl file: one {template_id, dsl} record per line,
            # solved as it is read; the lines already read keep their numbers.
            templates = JsonlReader(chain(head, handle), source, solve_record, strict=True)
        else:
            try:
                templates = [(None, parse_template_dsl(text))]
            except ParseError as exc:
                raise ToolkitError(f"{source}: {exc}") from None
        # Verdict lines are printed 64 at a time: with unbuffered output each print is a write call.
        batch = []
        try:
            with jsonl_writer(args.out or None) as write:  # an empty --out writes nothing, as no --out
                # The parser has checked each template's rules.
                for template_id, template in templates:
                    verdict = _solve_valid(template)
                    # Most verdicts have no condition to check, so need no ids.
                    ids = condition_ids(template) if verdict.unsatisfied else {}
                    unsatisfied = _sorted_ids(ids[v] for v in verdict.unsatisfied)
                    line = f"{verdict.label}, if {', '.join(unsatisfied)}" if unsatisfied else verdict.label
                    batch.append(f"{template_id}: {line}\n" if template_id else f"{line}\n")
                    if len(batch) == 64:
                        print("".join(batch), end="")
                        batch.clear()
                    write({"template_id": template_id, "answer_label": verdict.label, "unsatisfied": unsatisfied})
        finally:
            # A fault still leaves every verdict solved before it on stdout.
            print("".join(batch), end="")
    return 0


def cmd_parse_context(args) -> int:
    sizes: Counter = Counter()
    depths: Counter = Counter()
    with closing(load_html_elements(args.infile)) as elements:
        # A page with no usable element fails before --out is created.
        first = next(elements, None)
        if first is None:
            raise ToolkitError(f"no usable elements in {args.infile}")
        _refuse_to_overwrite(args.out, (args.infile,), "groups")
        with line_writer(args.out) as write:
            for size, line in _group_lines(chain((first,), elements), depths):
                sizes[size] += 1
                write(line)
    print(f"{sum(sizes.values())} group(s), {sum(size * n for size, n in sizes.items())} condition(s)")

    if args.stats:
        print("group size histogram:")
        for size, count in sorted(sizes.items()):
            print(f"  {size:>3}: {count}")
        print("leaf depth histogram:")
        for depth, count in sorted(depths.items()):
            print(f"  {depth:>3}: {count}")
    return 0


def cmd_evaluate(args) -> int:
    profile = _PROFILES[args.profile]
    # An empty --per-example writes nothing, as no --per-example.
    report = evaluate_files(args.pred, args.gold, profile, per_example_path=args.per_example or None)
    print(format_report(report, profile))
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="condlogic", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="generate templates and dataset splits")
    p_gen.add_argument("--bank", required=True, help="JSONL NLI bank (premise/hypothesis/label)")
    p_gen.add_argument("--out", required=True, type=_output_path, help="output directory")
    p_gen.add_argument("--seed", required=True, type=int, help="master seed")
    p_gen.add_argument("--templates", type=int, default=65)
    p_gen.add_argument("--max-conditions", type=int, default=6)
    p_gen.add_argument("--dev", type=int, default=5000)
    p_gen.add_argument("--test", type=int, default=5000)
    p_gen.add_argument("--train", type=int, default=0, help="optional bounded train split size")
    p_gen.set_defaults(func=cmd_generate)

    p_solve = sub.add_parser("solve", help="solve template text or dump evaluation tables")
    solve_input = p_solve.add_mutually_exclusive_group()
    solve_input.add_argument("--file", help="template text or a templates.jsonl file")
    solve_input.add_argument("--stdin", action="store_true", help="read template text from stdin")
    solve_input.add_argument("--assignments", metavar="OP:K", help="print the full table for a group, e.g. any:3")
    p_solve.add_argument("--out", help="also write verdicts as JSONL")
    p_solve.set_defaults(func=cmd_solve)

    p_parse = sub.add_parser("parse-context", help="turn tagged elements into condition groups")
    p_parse.add_argument("--in", dest="infile", required=True, help="JSONL of {tag, text} records")
    p_parse.add_argument("--out", required=True, type=_output_path, help="output JSONL of condition groups")
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
