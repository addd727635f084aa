"""seqaccel benchmark: four seeded closed-loop workloads, end to end and per layer.

Run from the root of a checkout; seqaccel is imported from its src/, so
nothing needs installing:

    python3 perfbench/run.py --workload growth-catalan --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30
    python3 perfbench/run.py --workload cli-readme --seed 1 --smoke --trace 1

One caller, no threads: each workload runs its seeded batch of calls (see
cases.py) over and over until the time is up, always finishing a batch.
`--trace 0` times the calls untouched and reports the end-to-end metrics
of BENCHMARK.json; `--trace 1` replays every call stage by stage
(tracing.py) and reports the per-layer metrics. Every other line of
output names one measurement with its unit; the last line is one JSON
object with the keys correct, attempted, failed and metrics.
`--workload all` runs every workload in both modes, each in its own
process. `--smoke` shrinks the inputs and runs one batch.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from collections import Counter, defaultdict
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import cases as wl
from refs import catalan_numbers, digits_correct, exact_key, leibniz_terms

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ".perfbench"  # checkout-relative directory for inputs and spans
ENV = {**os.environ, "PYTHONPATH": str(SRC)}
CLI_ENTRY = "from seqaccel.cli import run; run()"
IMPORT_TIMER = ("import time; t = time.perf_counter(); import seqaccel.cli; "
                "print(time.perf_counter() - t)")
CHILD_TIMEOUT = 150
SETUP_REPEATS = 15
PROBE_REPEATS = 5
TABLE_PROBE_ROWS = 300


class Failure:
    """A call that raised or exited with a code its reference does not expect."""

    def __init__(self, message: str):
        self.message = message


class Outcome:
    def __init__(self, text: str, exit_code: int, estimate=None, terms_used=None):
        self.text, self.exit_code = text, exit_code
        self.estimate, self.terms_used = estimate, terms_used


def spawn(args: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    """Run one child interpreter to completion; returns (wall seconds, result)."""
    start = perf_counter()
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=ENV, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT)
    return perf_counter() - start, proc


def median_spawn(args: list[str], repeats: int) -> float:
    """Median wall time of `repeats` child runs, after one warm-up run."""
    times = []
    for _ in range(repeats + 1):  # the first fills bytecode and page caches
        seconds, proc = spawn(args)
        if proc.returncode != 0:
            raise RuntimeError(f"{args} failed: {proc.stderr.strip()}")
        times.append(seconds)
    return statistics.median(times[1:])


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


class Bench:
    """One workload run: executes cases, checks them, keeps the counts."""

    def __init__(self, workload: str, seed: int, small: bool):
        from tracing import run_pipeline  # needs seqaccel on sys.path
        from seqaccel import cli, is_defined

        self._run_pipeline = run_pipeline
        self._cli, self._is_defined = cli, is_defined
        self.workload, self.seed, self.small = workload, seed, small
        self.prefix = f"{OUT}/{workload}-{seed}"
        self.batch = wl.make_batch(workload, seed, small, self.prefix)
        wl.write_files(ROOT, self.batch.files)
        # cli-readme measures what a CLI user runs: its in-process call is
        # cli.main; the other workloads call the library pipeline.
        self.via_main = workload == "cli-readme"
        self.attempted = self.failed = self.wrong = 0
        self.errors: Counter = Counter()
        self.first: dict[str, tuple] = {}  # case name -> (text, exact key)
        self.digits: list[int] = []

    # -- running one case ------------------------------------------------

    def call(self, case):
        """The in-process call of a case: a pipeline function, or cli.main."""
        try:
            if self.via_main:
                return self.main(case.call.argv())
            report = self._run_pipeline(case.call, ROOT)
        except Exception as exc:  # a failed call is counted, and the loop goes on
            return Failure(f"{type(exc).__name__}: {exc}")
        text = report.rendered + "\n"
        if case.call.command != "accelerate":
            text += f"stable-digits: {report.digits_stable}\n"
        return Outcome(text, 0 if self._is_defined(report.estimate) else 2, report.estimate,
                       report.terms_used)

    def main(self, argv: list[str]) -> Outcome:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self._cli.main(argv)
        return Outcome(out.getvalue(), code)

    def run_cli(self, case):
        """The case as a CLI user runs it: a fresh interpreter, spawn to exit."""
        try:
            seconds, proc = spawn(["-c", CLI_ENTRY, *case.call.argv()])
        except subprocess.TimeoutExpired:
            return CHILD_TIMEOUT, Failure("timeout")
        if proc.returncode not in (0, 2):
            lines = proc.stderr.strip().splitlines() or [f"exit {proc.returncode}"]
            return seconds, Failure(lines[-1])
        return seconds, Outcome(proc.stdout, proc.returncode)

    def record(self, case, outcome) -> bool:
        """Count and check one outcome; True when the call completed."""
        self.attempted += 1
        if isinstance(outcome, Failure) or outcome.exit_code != case.expect_exit:
            self.failed += 1
            message = outcome.message if isinstance(outcome, Failure) else (
                f"{case.name}: exit {outcome.exit_code}, expected {case.expect_exit}")
            self.errors[message] += 1
            self.first.setdefault(case.name, (f"failed: {message}", None))
            return False
        key = exact_key(outcome.estimate) if outcome.estimate is not None else None
        first_text, first_key = self.first.setdefault(case.name, (outcome.text, key))
        value = outcome.estimate
        if value is None:  # only the printed text is known
            try:
                value = Fraction(outcome.text.split("\n", 1)[0])
            except ValueError:
                pass
        wrong = [
            case.expect is not None and outcome.text != case.expect,
            case.exact and value != case.limit,
            outcome.text != first_text,  # another batch, or the CLI, disagrees
            key is not None and first_key is not None and key != first_key,
        ]
        if any(wrong):
            self.flag(f"wrong output: {case.name}")
        if case.limit is not None:
            self.digits.append(digits_correct(value, case.limit))
        return True

    def flag(self, message: str) -> None:
        self.wrong += 1
        self.errors[message] += 1

    def digest(self) -> str:
        """Hash of every case's exact estimate (or output text) for this seed."""
        h = hashlib.sha256()
        for name in sorted(self.first):
            text, key = self.first[name]
            h.update(f"{name}\t{key if key is not None else text}\n".encode())
        return h.hexdigest()[:16]

    def batches(self, seconds: float):
        """Yield batch numbers until the next batch would overrun `seconds`."""
        start, number = perf_counter(), 0
        while True:
            began = perf_counter()
            yield number
            number += 1
            now = perf_counter()
            if self.small or now - start + (now - began) > seconds:
                return

    # -- end to end ------------------------------------------------------

    def end_to_end(self, seconds: float) -> dict:
        setup = median_spawn(["-c", "import seqaccel.cli"], SETUP_REPEATS)
        call_times, cli_times = defaultdict(list), defaultdict(list)
        busy, completed = 0.0, 0
        for _ in self.batches(seconds):
            for case in self.batch.cases:
                gc.collect()  # every call starts from the same heap state
                start = perf_counter()
                outcome = self.call(case)
                elapsed = perf_counter() - start
                busy += elapsed
                if self.record(case, outcome):
                    call_times[case.name].append(elapsed)
                    completed += 1
                if case.cli:
                    elapsed, outcome = self.run_cli(case)
                    if self.record(case, outcome):
                        cli_times[case.name].append(elapsed)
        if not (call_times and cli_times and self.digits):
            raise RuntimeError("no completed calls to report")
        # Quantiles are taken over the batch's cases, of each case's median
        # over the run's repeats: the mix of sizes is the seeded design and
        # the repeats damp the machine's noise.
        calls = [statistics.median(t) for t in call_times.values()]
        clis = [statistics.median(t) for t in cli_times.values()]
        for name in sorted(call_times, key=lambda n: statistics.median(call_times[n])):
            cli = f" cli_s {statistics.median(cli_times[name]):.4g}" if name in cli_times else ""
            print(f"case {name} call_s {statistics.median(call_times[name]):.4g}{cli}")
        print(f"samples calls={completed} cases={len(calls)} cli_runs="
              f"{sum(map(len, cli_times.values()))} cli_cases={len(clis)} setup={SETUP_REPEATS}")
        return {
            "setup_s": setup,
            "call_s.p50": statistics.median(calls),
            "call_s.p90": p90(calls),
            "calls_per_s": completed / busy,
            "cli_s.p50": statistics.median(clis),
            "cli_s.p90": p90(clis),
            "digits_correct.min": min(self.digits),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }

    # -- traced replay ---------------------------------------------------

    def traced(self, seconds: float) -> dict:
        from tracing import Tracer, bits, replay_pipeline, replay_table

        tracer = Tracer()
        stage = Counter()  # summed stage self times over pipeline replays
        n_replays = untraced_total = replay_total = 0
        parse_times, main_times, load_times = [], [], []
        table_loop = table_cells = 0
        counts = Counter()  # first batch only, so they repeat exactly per seed
        out_bits = render_bits = 0

        def table(case):
            nonlocal table_loop, table_cells
            text, load, loop = replay_table(case.call, tracer, ROOT)
            load_times.append(load)
            table_loop, table_cells = table_loop + loop, table_cells + case.call.terms
            return text

        for number in self.batches(seconds):
            for case in self.batch.cases:
                tracer.call = f"{number}:{case.name}"
                gc.collect()
                start = perf_counter()
                outcome = self.call(case)
                untraced = perf_counter() - start
                self.record(case, outcome)
                if self.via_main:
                    main_times.append(untraced)
                with tracer.span("cli.parse"):
                    start = perf_counter()
                    self._cli.build_parser().parse_args(case.call.argv())
                    parse_times.append(perf_counter() - start)
                if case.call.command == "table":
                    if isinstance(outcome, Outcome) and table(case) != outcome.text:
                        self.flag(f"replay differs: {case.name}")
                    continue
                first = len(tracer.spans)
                with tracer.span("call"):
                    rep = replay_pipeline(case.call, tracer, ROOT)
                replay_total += tracer.spans[first][5]
                untraced_total += untraced
                n_replays += 1
                stage.update(tracer.stage_times(first))
                self.check_replay(case, outcome, rep)
                if number == 0:
                    counts.update(cells=rep.cells, terms=rep.terms_used, reads=rep.reads,
                                  computes=rep.computes, render_failures=rep.error is not None)
                    out_bits = max(out_bits, bits(rep.estimate))
                    render_bits = max(render_bits, rep.render_bits)
                if case.cli and not self.via_main:
                    start = perf_counter()
                    printed = self.main(case.call.argv()).text
                    main_times.append(perf_counter() - start)
                    if isinstance(outcome, Outcome) and printed != outcome.text:
                        self.flag(f"cli.main differs from the library call: {case.name}")
        if not load_times:
            # No table in this workload: time load_sequence and the table
            # loop on one seeded file so every layer is measured everywhere.
            probes, files = wl.table_files(random.Random(f"probe:{self.seed}"),
                                           TABLE_PROBE_ROWS, self.prefix)
            wl.write_files(ROOT, files)
            table(probes[0])
        tracer.write(ROOT / OUT / f"spans-{self.workload}-{self.seed}.jsonl")
        print(f"samples replays={n_replays} parses={len(parse_times)} "
              f"main={len(main_times)} loads={len(load_times)} spans={len(tracer.spans)}")
        return {
            "sequences.generate_s": stage["sequences.generate"] / n_replays,
            "sequences.load_s": statistics.mean(load_times),
            "sequences.cells": counts["cells"],
            "estimators.prepare_s": stage["estimators.prepare"] / n_replays,
            "estimators.stability_s": stage["estimators.stability"] / n_replays,
            "estimators.terms_used": counts["terms"],
            "estimators.coverage": sum(stage.values()) / untraced_total,
            "transforms.apply_s": stage["transforms.apply"] / n_replays,
            "transforms.reads_per_cell": counts["reads"] / max(counts["computes"], 1),
            "transforms.out_bits.max": out_bits,
            "streams.input_reads": counts["reads"],
            "streams.hit_ratio": 1 - counts["computes"] / max(counts["reads"], 1),
            "streams.table_cell_s": table_loop / table_cells,
            "scalars.render_s": stage["scalars.render"] / n_replays,
            "scalars.render_bits.max": render_bits,
            "scalars.render_failures": counts["render_failures"],
            "cli.interpreter_s": median_spawn(["-c", "pass"], PROBE_REPEATS),
            "cli.import_s": statistics.median(
                float(spawn(["-c", IMPORT_TIMER])[1].stdout) for _ in range(PROBE_REPEATS)),
            "cli.parse_s": statistics.mean(parse_times),
            "cli.main_s": statistics.mean(main_times),
            "trace.overhead_s": (replay_total - untraced_total) / n_replays,
        }

    def check_replay(self, case, outcome, rep) -> None:
        """The replay must reproduce the untraced call exactly."""
        if rep.error is not None:
            same = isinstance(outcome, Failure)
        elif isinstance(outcome, Failure):
            same = False
        else:
            text = rep.rendered + "\n"
            if case.call.command != "accelerate":
                text += f"stable-digits: {rep.digits_stable}\n"
            same = text == outcome.text and (
                outcome.estimate is None
                or (rep.estimate == outcome.estimate and rep.terms_used == outcome.terms_used))
        if not same:
            self.flag(f"replay differs: {case.name}")
        reference = {"catalan": catalan_numbers, "leibniz-pi4-terms": leibniz_terms}.get(
            case.call.generator)
        if reference and [rep.source.at(i) for i in range(rep.terms_used)] != reference(
                rep.terms_used):
            self.flag(f"generated cells differ from the reference: {case.name}")


def run_one(args, declared: dict) -> int:
    sys.path.insert(0, str(SRC))
    import seqaccel

    package = Path(seqaccel.__file__).resolve().parent
    if package != (SRC / "seqaccel").resolve():
        print(f"perfbench: seqaccel imported from {package}, not from {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    bench = Bench(args.workload, args.seed, args.smoke)
    print(f"env workload={args.workload} seed={args.seed} trace={args.trace} "
          f"python={platform.python_version()} nproc={len(os.sched_getaffinity(0))} "
          f"package={package.relative_to(ROOT)} cases={len(bench.batch.cases)}")
    values = bench.traced(args.seconds) if args.trace else bench.end_to_end(args.seconds)
    wanted = declared["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, m in metrics.items():
        print(f"metric {name} {m['value']:.6g} {m['unit']}")
    print(f"metric error_rate {bench.failed / bench.attempted:.6g} ratio")
    print(f"metric wrong_outputs {bench.wrong} count")
    print(f"digest {bench.digest()}")
    for message, count in sorted(bench.errors.items()):
        print(f"error x{count} {message[:160]}")
    print(json.dumps({"correct": bench.wrong == 0, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in both modes, each in its own process."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in wl.WORKLOADS:
        for trace in (0, 1):
            argv = [str(Path(__file__).resolve()), "--workload", workload, "--seed",
                    str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run([sys.executable, *argv + ["--smoke"] * args.smoke],
                                  capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stderr)
                return proc.returncode or 1
            for line in lines[:-1]:
                print(f"{workload} {line}")
            result = json.loads(lines[-1])
            total["correct"] &= result["correct"]
            total["attempted"] += result["attempted"]
            total["failed"] += result["failed"]
            for name, m in result["metrics"].items():
                total["metrics"][f"{workload}/{name}"] = m
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="time to measure for (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small inputs, one batch: a quick self-test")
    args = parser.parse_args(argv)
    if not (SRC / "seqaccel" / "__init__.py").is_file():
        print(f"perfbench: no seqaccel package under {SRC}", file=sys.stderr)
        return 2
    try:
        declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        print(f"perfbench: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = declared["run_seconds"]
    if args.workload == "all":
        return run_all(args)
    return run_one(args, declared)


if __name__ == "__main__":
    sys.exit(main())
