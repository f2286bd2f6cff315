"""In-process span tracing of condlogic's public functions.

``Tracer.install`` wraps every public function of the traced modules
(and the two ``NliBank`` sampling methods) and rebinds each name in
every ``condlogic`` module that holds it, so calls made through
``from .x import f`` are traced too. Nothing in the source changes, and
``uninstall`` restores the originals. Spans are kept in memory as
``(name, start, end, parent, run)`` tuples, where ``parent`` is the
position of the enclosing span among the spans of the same run (-1 at
the top); generator functions get one span per resumed step. ``dump``
writes them out, one JSON array per line.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

MODULES = ("cli", "generate", "templates", "logic", "dataset_io", "metrics", "contexts")


def span_name(module: str, func: str) -> str:
    if module == "cli" and func.startswith("cmd_"):
        func = func[len("cmd_") :]
    return f"{module}.{func}"


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.calls: Counter = Counter()
        self.counters: Counter = Counter()
        self.distinct_templates: set = set()
        self.run = 0
        self._bindings: list[tuple[object, str, object, object]] = []
        self._after = {
            "generate.load_nli_bank": self._after_load_bank,
            "generate.generate_templates": self._after_generate_templates,
            "dataset_io.write_split": self._after_write_split,
            "templates.solve_template": self._after_solve,
        }

    # --- counters taken at layer boundaries ---------------------------------

    def _after_load_bank(self, args, result):
        self.counters["generate.bank_skipped"] += result.skipped

    def _after_generate_templates(self, args, result):
        # Later calls in a run return the cached tuple; keep the set size.
        self.counters["generate.templates_accepted"] = len(result)

    def _after_write_split(self, args, result):
        with open(args[1], "rb") as handle:
            self.counters["dataset_io.bytes_written"] += handle.seek(0, 2)

    def _after_solve(self, args, result):
        self.distinct_templates.add(args[0])

    # --- wrapping -------------------------------------------------------------

    def _wrap(self, name, fn):
        spans, stack, calls, clock = self.spans, self.stack, self.calls, time.perf_counter
        after = self._after.get(name)

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                calls[name] += 1
                inner = fn(*args, **kwargs)
                while True:
                    parent = stack[-1] if stack else -1
                    index = len(spans)
                    spans.append(None)
                    stack.append(index)
                    start = clock()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        stack.pop()
                        spans[index] = (name, start, clock(), parent, self.run)
                    yield item

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[name] += 1
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index] = (name, start, clock(), parent, self.run)
            if after is not None:
                after(args, result)
            return result

        return traced

    def install(self) -> None:
        package = [m for n, m in sys.modules.items() if n == "condlogic" or n.startswith("condlogic.")]
        replacements = {}
        for short in MODULES:
            module = sys.modules[f"condlogic.{short}"]
            for attr, value in vars(module).items():
                if attr.startswith("_") or not callable(value) or inspect.isclass(value):
                    continue
                if getattr(value, "__module__", None) != module.__name__:
                    continue
                replacements[id(value)] = self._wrap(span_name(short, attr), value)
        for module in package:
            for attr, value in list(vars(module).items()):
                if id(value) in replacements:
                    self._rebind(module, attr, value, replacements[id(value)])
        bank = sys.modules["condlogic.generate"].NliBank
        for method in ("sample", "sample_any"):
            original = vars(bank)[method]
            self._rebind(bank, method, original, self._wrap(f"generate.{method}", original))

    def _rebind(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._bindings.append((owner, attr, original, wrapper))

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._bindings):
            setattr(owner, attr, original)
        self._bindings.clear()

    def start_run(self) -> None:
        self.run += 1
        self.calls.clear()
        self.counters.clear()
        self.distinct_templates.clear()

    def dump(self, path) -> None:
        """Append this tracer's spans to a gzipped JSON-lines file and drop them."""
        with gzip.open(path, "at", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
        self.spans.clear()


def _percentile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


def layer_metrics(tracer: Tracer, run: int, warnings: str) -> dict[str, float]:
    """Per-layer figures of one traced run, from its spans, its counters
    and the warnings the program logged during it."""
    child_time: dict[int, float] = defaultdict(float)
    total: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    durations: dict[str, list[float]] = defaultdict(list)
    for index, (name, start, end, parent, span_run) in enumerate(tracer.spans):
        if span_run == run and parent >= 0:
            child_time[parent] += end - start
    candidates = 0
    for index, (name, start, end, parent, span_run) in enumerate(tracer.spans):
        if span_run != run:
            continue
        duration = end - start
        total[name] += duration
        self_time[name] += duration - child_time.get(index, 0.0)
        durations[name].append(duration)
        if name == "templates.render_template_dsl" and parent >= 0:
            if tracer.spans[parent][0] == "generate.generate_templates":
                candidates += 1
    for values in durations.values():
        values.sort()

    def us(name, q):
        return _percentile(durations[name], q) * 1e6

    calls, counters = tracer.calls, tracer.counters
    solves = calls["templates.solve_template"]
    out = {
        "cli.generate.self_s": self_time["cli.generate"],
        "cli.solve.self_s": self_time["cli.solve"],
        "cli.parse_context.self_s": self_time["cli.parse_context"],
        "generate.load_nli_bank.s": total["generate.load_nli_bank"],
        "generate.bank_skipped": counters["generate.bank_skipped"],
        "generate.generate_templates.s": total["generate.generate_templates"],
        "generate.template_accept_ratio": (
            counters["generate.templates_accepted"] / candidates if candidates else 0.0
        ),
        "generate.instantiate.calls": calls["generate.instantiate"],
        "generate.instantiate.self_s": self_time["generate.instantiate"],
        "generate.instantiate.p50_us": us("generate.instantiate", 0.50),
        "generate.instantiate.p99_us": us("generate.instantiate", 0.99),
        "generate.sample_calls": calls["generate.sample"] + calls["generate.sample_any"],
        "generate.sample_any.self_s": self_time["generate.sample_any"],
        "templates.solve_template.calls": solves,
        "templates.solve_template.s": total["templates.solve_template"],
        "templates.validate_template.calls": calls["templates.validate_template"],
        "templates.validate_template.s": total["templates.validate_template"],
        "templates.solve_distinct_ratio": len(tracer.distinct_templates) / solves if solves else 0.0,
        "templates.parse_template_dsl.calls": calls["templates.parse_template_dsl"],
        "templates.parse_template_dsl.self_s": self_time["templates.parse_template_dsl"],
        "templates.parse_template_dsl.p99_us": us("templates.parse_template_dsl", 0.99),
        "templates.render_template_dsl.s": total["templates.render_template_dsl"],
        "logic.derive_answer.calls": calls["logic.derive_answer"],
        "logic.evaluate_group.calls": calls["logic.evaluate_group"],
        "logic.evaluate_group.self_s": self_time["logic.evaluate_group"],
        "dataset_io.write_split.self_s": self_time["dataset_io.write_split"],
        "dataset_io.bytes_written": counters["dataset_io.bytes_written"],
        "dataset_io.read_split.s": total["dataset_io.read_split"],
        "metrics.read_gold_file.s": total["metrics.read_gold_file"],
        "metrics.read_prediction_file.s": total["metrics.read_prediction_file"],
        "metrics.score_example.calls": calls["metrics.score_example"],
        "metrics.score_example.self_s": self_time["metrics.score_example"],
        "metrics.score_example.p99_us": us("metrics.score_example", 0.99),
        "metrics.answer_em_f1.s": total["metrics.answer_em_f1"],
        "metrics.normalize_text.calls": calls["metrics.normalize_text"],
        "metrics.condition_prf.s": total["metrics.condition_prf"],
        "metrics.bleu.calls": calls["metrics.bleu"],
        "metrics.bleu.s": total["metrics.bleu"],
        "metrics.bleu_share": (
            total["metrics.bleu"] / total["metrics.evaluate_files"] if total["metrics.evaluate_files"] else 0.0
        ),
        "contexts.load_html_elements.s": total["contexts.load_html_elements"],
        "contexts.elements_skipped": warnings.count("empty text, skipping"),
        "contexts.build_dom_tree.calls": calls["contexts.build_dom_tree"],
        "contexts.build_dom_tree.s": total["contexts.build_dom_tree"],
        "contexts.parse_html_context.self_s": self_time["contexts.parse_html_context"],
    }
    return {k: float(v) for k, v in out.items()}
