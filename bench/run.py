"""Benchmark of the condlogic command line: four workloads, end to end and per layer.

Run from the repository root, with no install step:

    python3 bench/run.py --workload generate --seed 7 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 7 --seconds 25 --trace 0
    python3 bench/run.py --self-test

Each workload builds its inputs from ``--seed`` under ``bench/_out/``
(not timed), then repeats its CLI commands for ``--seconds`` seconds.

``--trace 0`` runs ``python -m condlogic.cli`` with ``PYTHONPATH=src`` as
child processes, one at a time, and times them from outside. Every
iteration also starts a fresh interpreter that imports the CLI and makes
the workload's set-up calls (``setup_s``, as measured).

On a shared machine the speed drifts by tens of percent within minutes,
and every timing moves with it. So each CLI command is preceded by a fixed
stdlib-only reference program (``_REFERENCE``), and ``items_per_s`` is
the throughput at the nominal speed at which that program takes
``REFERENCE_S`` seconds: each command's wall time is multiplied by
``REFERENCE_S`` over the reference's wall time just before it. The
as-measured throughput and the reference's time are printed beside it
and kept in the results file. ``--trace 1`` instead calls
``condlogic.cli.main`` in process, alternating untraced and traced runs,
and reports per-layer figures from spans around every public function
(see ``tracing.py``). Both modes check every output (see ``checks.py``);
a failed check fails the iteration.

The metrics reported are the ``end_to_end`` (trace 0) or ``per_layer``
(trace 1) lists of ``BENCHMARK.json``. A human summary and the run's
provenance come first; the last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. A run also writes
``bench/_out/results/<workload>-seed<seed>-trace<t>.json`` and, traced,
the spans to ``bench/_out/traces/``.

``--self-test`` plants one flipped ``answer_label`` in a generated split
and one dropped solver verdict, and exits 0 only if the clean outputs
pass and both planted corruptions are caught.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"
DEFAULT_SEED = 7
#: A single CLI command that runs longer than this is killed and counts as failed.
CHILD_TIMEOUT_S = 60.0
#: Set-up probes per iteration; ``setup_s`` is the median over all of them.
PROBES_PER_ITERATION = 2

#: Seconds ``_REFERENCE`` takes at the nominal machine speed ``items_per_s`` is scaled to.
REFERENCE_S = 0.4

# A fixed stdlib-only program shaped like the CLI (start an interpreter,
# parse JSON lines, tokenise, write JSON lines). It runs before every CLI
# command to gauge the shared machine's current speed.
_REFERENCE = """import collections, json, re, sys
counts = collections.Counter()
with open(sys.argv[1], encoding="utf-8") as src, open(sys.argv[2], "w", encoding="utf-8") as out:
    for line in src:
        record = json.loads(line)
        text = json.dumps(record, sort_keys=True)
        counts.update(re.findall(r"[a-z]+", text.lower()))
        out.write(json.dumps({"n": len(text), "k": sorted(record)}) + "\\n")
"""

_PROBE = """import sys, time
start = time.perf_counter()
import condlogic.cli
{setup}
sys.stdout.write(repr(time.perf_counter() - start))
"""


@dataclass
class Child:
    """One finished command: exit code, wall time, peak RSS and output."""

    code: int
    wall: float
    rss_mb: float
    stdout: Path
    stderr: str

    def text(self) -> str:
        return self.stdout.read_text(encoding="utf-8")


class Spawner:
    """Runs commands through ``spawner.py``, so each child's peak RSS is its own."""

    def __init__(self):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "spawner.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
            cwd=ROOT,
            text=True,
        )

    def run(self, argv: list[str], stdout_path: Path) -> Child:
        """Run ``python argv`` with ``PYTHONPATH=src`` and wait for it."""
        stderr_path = stdout_path.with_suffix(".err")
        request = {
            "argv": [sys.executable, *argv],
            "stdout": str(stdout_path),
            "stderr": str(stderr_path),
            "timeout": CHILD_TIMEOUT_S,
        }
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the spawner process died")
        reply = json.loads(reply)
        stderr = stderr_path.read_text(encoding="utf-8", errors="replace")
        return Child(reply["code"], reply["wall"], reply["maxrss_kb"] / 1024, stdout_path, stderr)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=CHILD_TIMEOUT_S + 5)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class _Capture(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.messages: list[str] = []

    def emit(self, record):
        self.messages.append(record.getMessage())


def run_in_process(argv: list[str], stdout_path: Path) -> Child:
    """Call ``condlogic.cli.main`` here, capturing stdout and the warnings it logs."""
    import condlogic.cli

    # A fresh process starts with an empty template cache; so does each call here.
    GENERATE_TEMPLATES.cache_clear()
    logger = logging.getLogger("condlogic")
    capture = _Capture()
    logger.addHandler(capture)
    logger.propagate = False
    try:
        with open(stdout_path, "w", encoding="utf-8") as out, contextlib.redirect_stdout(out):
            start = time.perf_counter()
            code = condlogic.cli.main(argv)
            wall = time.perf_counter() - start
    finally:
        logger.removeHandler(capture)
        logger.propagate = True
    return Child(code, wall, 0.0, stdout_path, "\n".join(capture.messages))


# --- workloads ----------------------------------------------------------------


class Workload:
    """Inputs, commands and output checks of one workload."""

    name = ""
    #: Python run after ``import condlogic.cli`` in the set-up probe.
    setup = ""

    def __init__(self, work: Path, seed: int, spawner: Spawner):
        self.work = work
        self.seed = seed
        self.spawner = spawner
        self.items = 0
        self.bank: Path | None = None
        self.bank_sha256 = ""
        #: Input of the reference program that gauges the machine's speed.
        self.reference_input = work / "reference-input.jsonl"
        self.checked_digests: dict[str, str] | None = None
        self.corrupt = False

    def prepare(self, rng: random.Random) -> None:
        raise NotImplementedError

    def commands(self) -> list[list[str]]:
        raise NotImplementedError

    def outputs(self, children: list[Child]) -> dict[str, Path]:
        """Files whose bytes must repeat across iterations (and match the golden digests)."""
        raise NotImplementedError

    def check(self, children: list[Child]) -> list[str]:
        raise NotImplementedError

    def plant_corruption(self) -> None:
        raise NotImplementedError

    def setup_args(self) -> list[str]:
        return []

    def write_bank(self, rng: random.Random) -> int:
        """Write the NLI bank; returns the number of lines planted for skipping."""
        self.bank = self.work / "bank.jsonl"
        skips = inputs.write_nli_bank(rng, self.bank)
        self.bank_sha256 = checks.sha256(self.bank)
        return skips

    def verify(self, children: list[Child], golden: dict | None, full: bool) -> list[str]:
        """Check one iteration's outputs.

        The first iteration gets the full check (and the golden digests, for
        the default seed); later ones must repeat its bytes exactly, unless
        ``full`` asks for the full check again.
        """
        problems = [
            f"{cmd[0]} exited {child.code}: {child.stderr.strip()[-300:]}"
            for cmd, child in zip(self.commands(), children)
            if child.code != 0
        ]
        if problems:
            return problems
        if self.corrupt:
            self.plant_corruption()
        digests = {name: checks.sha256(path) for name, path in self.outputs(children).items()}
        if self.checked_digests is not None:
            problems = [f"{n} differs from the first checked output" for n in digests if digests[n] != self.checked_digests[n]]
            if problems or not full:
                return problems
        problems = self.check(children)
        if golden is not None:
            problems += [
                f"{name}: sha256 {digest} is not the golden {golden.get(name)}"
                for name, digest in digests.items()
                if golden.get(name) != digest
            ]
        if not problems:
            self.checked_digests = digests
        return problems


class Generate(Workload):
    """``generate`` at its defaults: 65 templates, 5000 dev + 5000 test examples."""

    name = "generate"
    setup = (
        "from condlogic.generate import GenConfig, generate_templates, load_nli_bank\n"
        "load_nli_bank(sys.argv[1])\n"
        "generate_templates(GenConfig(seed=int(sys.argv[2])))"
    )

    def prepare(self, rng):
        skips = self.write_bank(rng)
        self.planted = {"n_templates": 65, "n_dev": 5000, "n_test": 5000, "bank_skips": skips}
        self.items = self.planted["n_dev"] + self.planted["n_test"]

    def setup_args(self):
        return [str(self.bank), str(self.seed)]

    def commands(self):
        return [["generate", "--bank", str(self.bank), "--out", str(self.work / "out"), "--seed", str(self.seed)]]

    def outputs(self, children):
        return {name: self.work / "out" / name for name in ("templates.jsonl", "dev.jsonl", "test.jsonl")}

    def check(self, children):
        child = children[0]
        return checks.check_generate(self.work / "out", child.text(), child.stderr, self.planted)

    def plant_corruption(self):
        path = self.work / "out" / "dev.jsonl"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        record = json.loads(lines[len(lines) // 2])
        record["answer_label"] = "neutral" if record["answer_label"] != "neutral" else "entailed"
        lines[len(lines) // 2] = json.dumps(record, ensure_ascii=False) + "\n"
        path.write_text("".join(lines), encoding="utf-8")


class Evaluate(Workload):
    """``evaluate`` of perturbed predictions against the 10k dev + test examples."""

    profile = ""

    def prepare(self, rng):
        self.write_bank(rng)
        gen_dir = self.work / "gold"
        child = self.spawner.run(
            ["-m", "condlogic.cli", "generate", "--bank", str(self.bank), "--out", str(gen_dir), "--seed", str(self.seed)],
            self.work / "gold.out",
        )
        if child.code != 0:
            raise RuntimeError(f"generating the gold file failed: {child.stderr.strip()[-300:]}")
        self.gold = self.work / "gold.jsonl"
        with open(self.gold, "wb") as handle:
            for split in ("dev", "test"):
                handle.write((gen_dir / f"{split}.jsonl").read_bytes())
        self.pred = self.work / "pred.jsonl"
        self.planted = inputs.write_predictions(rng, self.gold, self.pred)
        with open(self.gold, encoding="utf-8") as handle:
            self.golds = [json.loads(line) for line in handle]
        self.items = self.planted["n_gold"]

    def commands(self):
        return [["evaluate", "--pred", str(self.pred), "--gold", str(self.gold), "--profile", self.profile]]

    def outputs(self, children):
        return {"report": children[0].stdout}

    def check(self, children):
        return checks.check_evaluate(children[0].text(), None, self.golds, self.planted)


class EvaluateCondnli(Evaluate):
    name = "evaluate-condnli"
    profile = "condnli"


class EvaluateSharc(Evaluate):
    name = "evaluate-sharc"
    profile = "sharc"

    def commands(self):
        return [super().commands()[0] + ["--per-example", str(self.work / "rows.jsonl")]]

    def outputs(self, children):
        return {"report": children[0].stdout, "rows.jsonl": self.work / "rows.jsonl"}

    def check(self, children):
        return checks.check_evaluate(children[0].text(), self.work / "rows.jsonl", self.golds, self.planted)


class SolveParse(Workload):
    """``solve`` over distinct templates, then ``parse-context --stats`` over one page."""

    name = "solve-parse"

    def prepare(self, rng):
        self.templates_path = self.work / "templates.jsonl"
        n_templates = inputs.write_templates(rng, self.templates_path)
        self.page = self.work / "page.jsonl"
        self.planted = inputs.write_page(rng, self.page)
        with open(self.templates_path, encoding="utf-8") as handle:
            self.templates = [json.loads(line) for line in handle]
        self.items = n_templates + self.planted["lines"]

    def commands(self):
        return [
            ["solve", "--file", str(self.templates_path), "--out", str(self.work / "verdicts.jsonl")],
            ["parse-context", "--in", str(self.page), "--out", str(self.work / "groups.jsonl"), "--stats"],
        ]

    def outputs(self, children):
        return {"verdicts.jsonl": self.work / "verdicts.jsonl", "groups.jsonl": self.work / "groups.jsonl"}

    def check(self, children):
        solve, parse = children
        return checks.check_solve(self.work / "verdicts.jsonl", solve.text(), self.templates) + checks.check_parse_context(
            self.work / "groups.jsonl", parse.text(), parse.stderr, self.planted
        )

    def plant_corruption(self):
        path = self.work / "verdicts.jsonl"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        del lines[len(lines) // 2]
        path.write_text("".join(lines), encoding="utf-8")


WORKLOADS = {cls.name: cls for cls in (Generate, EvaluateCondnli, EvaluateSharc, SolveParse)}


# --- measuring ------------------------------------------------------------------


def probe_setup(wl: Workload) -> float:
    """Seconds a fresh interpreter takes to import the CLI and make the set-up calls."""
    child = wl.spawner.run(["-c", _PROBE.format(setup=wl.setup), *wl.setup_args()], wl.work / "probe.out")
    if child.code != 0:
        raise RuntimeError(f"set-up probe failed: {child.stderr.strip()[-300:]}")
    return float(child.text())


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


class Tally:
    """Samples and failures of one workload in one run."""

    def __init__(self, wl: Workload):
        self.wl = wl
        self.samples: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, sample: dict[str, float] | None, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[:5])
        if sample is not None:
            for name, value in sample.items():
                self.samples.setdefault(name, []).append(value)

    def stats(self, names) -> dict[str, tuple[float, float, float, int]]:
        """Quartiles and count per metric; zeros when every iteration failed."""
        out = {}
        for name in names:
            values = self.samples[name] if self.samples else [0.0]
            out[name] = (*quartiles(values), len(self.samples.get(name, [])))
        return out


def cli_iteration(wl: Workload, golden: dict | None) -> tuple[dict | None, list[str]]:
    try:
        setup_s = statistics.median(probe_setup(wl) for _ in range(PROBES_PER_ITERATION))
    except (RuntimeError, ValueError) as exc:
        return None, [str(exc)]
    children, references = [], []
    for i, cmd in enumerate(wl.commands()):
        ref_args = [str(wl.reference_input), str(wl.work / "ref.jsonl")]
        references.append(wl.spawner.run(["-c", _REFERENCE, *ref_args], wl.work / "ref.out").wall)
        children.append(wl.spawner.run(["-m", "condlogic.cli", *cmd], wl.work / f"cmd{i}.out"))
    problems = wl.verify(children, golden, full=False)
    if any(c.code != 0 for c in children):
        return None, problems
    scaled_wall = sum(c.wall * REFERENCE_S / r for c, r in zip(children, references))
    sample = {
        "items_per_s": wl.items / scaled_wall,
        "items_per_s_as_measured": wl.items / sum(c.wall for c in children),
        "reference_s": statistics.mean(references),
        "setup_s": setup_s,
        "peak_rss_mb": max(c.rss_mb for c in children),
    }
    return sample, problems


def in_process_runs(wl: Workload) -> list[Child]:
    return [run_in_process(cmd, wl.work / f"cmd{i}.out") for i, cmd in enumerate(wl.commands())]


def traced_iteration(wl: Workload, tracer, golden: dict | None) -> tuple[dict | None, list[str]]:
    """One untraced and one traced in-process run; per-layer figures of the traced one."""
    untraced = in_process_runs(wl)
    problems = wl.verify(untraced, golden, full=False)
    tracer.start_run()
    tracer.install()
    try:
        traced = in_process_runs(wl)
        # Full check under tracing, so split reading in the check shows as a span.
        problems += wl.verify(traced, golden, full=True)
    finally:
        tracer.uninstall()
    sample = tracing.layer_metrics(tracer, tracer.run, "\n".join(c.stderr for c in traced))
    sample["trace.overhead_frac"] = sum(c.wall for c in traced) / sum(c.wall for c in untraced) - 1
    tracer.dump(OUT / "traces" / f"{wl.name}-seed{wl.seed}.jsonl.gz")
    return sample, problems


def git_commit() -> str:
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return "unknown (not a git checkout)"
    ref = (git / "HEAD").read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[len("ref: ") :]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def run_workloads(names: list[str], seed: int, seconds: float, trace: bool, corrupt: bool) -> list[Tally]:
    """Prepare the workloads, then run them in turn for ``seconds`` each."""
    with open(HERE / "golden.json", encoding="utf-8") as handle:
        golden_all = json.load(handle)
    work_root = OUT / "work" / str(os.getpid())
    spawner = Spawner()
    try:
        tallies = []
        for name in names:
            wl = WORKLOADS[name](work_root / name, seed, spawner)
            wl.work.mkdir(parents=True)
            wl.corrupt = corrupt
            wl.prepare(random.Random(seed))
            inputs.write_nli_bank(random.Random(seed), wl.reference_input)
            tallies.append(Tally(wl))
        if trace:
            tracer = tracing.Tracer()
            (OUT / "traces").mkdir(parents=True, exist_ok=True)
            for tally in tallies:
                (OUT / "traces" / f"{tally.wl.name}-seed{seed}.jsonl.gz").unlink(missing_ok=True)
        # A bare import first compiles the bytecode; it also gives cli.import_s.
        bare = Workload(tallies[0].wl.work, seed, spawner)
        import_s = statistics.median(probe_setup(bare) for _ in range(3 if trace else 1))

        def step(tally: Tally) -> None:
            golden = golden_all.get(tally.wl.name) if seed == golden_all["seed"] else None
            if trace:
                sample, problems = traced_iteration(tally.wl, tracer, golden)
                tally.record({**sample, "cli.import_s": import_s}, problems)
            else:
                tally.record(*cli_iteration(tally.wl, golden))

        # Interleave the workloads; start no round that would end past the
        # deadline by more than half its expected length.
        deadline = time.perf_counter() + seconds * len(tallies)
        while True:
            start = time.perf_counter()
            for tally in tallies:
                step(tally)
            now = time.perf_counter()
            if now + (now - start) / 2 >= deadline:
                return tallies
    finally:
        spawner.close()
        shutil.rmtree(work_root, ignore_errors=True)


def measure(names: list[str], seed: int, seconds: float, trace: bool, corrupt: bool = False) -> dict:
    """Run the workloads, print the summary table, write the results file, return the result."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        metrics = json.load(handle)["per_layer" if trace else "end_to_end"]
    tallies = run_workloads(names, seed, seconds, trace, corrupt)

    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    report = {"provenance": provenance(tallies, seed, seconds, trace), "workloads": {}}
    print(f"{'workload':<18}{'metric':<40}{'median':>12}{'q1':>12}{'q3':>12}{'n':>5}  unit")
    for tally in tallies:
        stats = tally.stats(m["name"] for m in metrics)
        prefix = "" if len(tallies) == 1 else f"{tally.wl.name}."
        for m in metrics:
            q1, median, q3, n = stats[m["name"]]
            print(f"{tally.wl.name:<18}{m['name']:<40}{median:>12.6g}{q1:>12.6g}{q3:>12.6g}{n:>5}  {m['unit']}")
            result["metrics"][prefix + m["name"]] = {"value": median, "unit": m["unit"]}
        if "reference_s" in tally.samples:
            measured = statistics.median(tally.samples["items_per_s_as_measured"])
            reference = statistics.median(tally.samples["reference_s"])
            print(f"{tally.wl.name:<18}{'items_per_s as measured':<40}{measured:>12.6g}{'':>29}  1/s")
            print(f"{tally.wl.name:<18}{'reference program':<40}{reference:>12.6g}{'':>29}  s (nominal {REFERENCE_S})")
        failed_frac = tally.failed / tally.attempted
        print(f"{tally.wl.name:<18}{'failed_frac':<40}{failed_frac:>12.4f}{'':>24}{tally.attempted:>5}  1")
        for problem in tally.problems[:10]:
            print(f"  check failed: {problem}")
        result["attempted"] += tally.attempted
        result["failed"] += tally.failed
        report["workloads"][tally.wl.name] = {
            "attempted": tally.attempted,
            "failed": tally.failed,
            "failed_frac": failed_frac,
            "problems": tally.problems,
            "metrics": {k: dict(zip(("q1", "median", "q3", "n"), v)) for k, v in stats.items()},
            "samples": tally.samples,
            "output_sha256": tally.wl.checked_digests,
        }
    result["correct"] = result["failed"] == 0
    print("provenance: " + json.dumps(report["provenance"], sort_keys=True))
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    label = names[0] if len(names) == 1 else "all"
    with open(results_dir / f"{label}-seed{seed}-trace{int(trace)}.json", "w", encoding="utf-8") as handle:
        json.dump({**report, "result": result}, handle, indent=2, sort_keys=True)
    return result


def provenance(tallies: list[Tally], seed: int, seconds: float, trace: bool) -> dict:
    return {
        "seed": seed,
        "seconds_per_workload": seconds,
        "trace": trace,
        "bank_sha256": {t.wl.name: t.wl.bank_sha256 for t in tallies if t.wl.bank_sha256},
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "runs_per_workload": {t.wl.name: t.attempted for t in tallies},
        "samples_per_workload": {t.wl.name: len(next(iter(t.samples.values()), [])) for t in tallies},
    }


def self_test(seed: int) -> int:
    """Clean outputs must pass; a flipped label and a dropped verdict must fail."""
    ok = True
    for name in ("generate", "solve-parse"):
        for corrupt in (False, True):
            result = measure([name], seed, seconds=0, trace=False, corrupt=corrupt)
            caught = result["failed"] > 0
            verdict = "caught" if corrupt and caught else "passed" if not corrupt and not caught else "WRONG"
            ok &= verdict != "WRONG"
            kind = "planted corruption" if corrupt else "clean outputs"
            print(f"self-test {name}: {kind}: failed_frac {result['failed'] / result['attempted']:.2f} -> {verdict}")
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true", help="check that planted corruptions fail")
    args = parser.parse_args(argv)
    if args.self_test:
        return self_test(args.seed + 1)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    result = measure(names, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    if not (SRC / "condlogic" / "cli.py").is_file():
        print(f"error: no condlogic sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import checks
    import inputs
    import tracing
    from condlogic.generate import generate_templates as GENERATE_TEMPLATES

    sys.exit(main())
