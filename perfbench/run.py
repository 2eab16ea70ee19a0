"""End-to-end and per-layer benchmark of the schubvanish CLI.

    python3 perfbench/run.py --workload sym-decide --seed 0 --seconds 24 --trace 0

Run from the root of a checkout; the package is taken from ``src/`` there.
Each batch of problems comes from problemgen.py, is written to a file, and
is given to a fresh ``python -m schubvanish FILE --stable
--format=jsonlines <workload tests>`` process, so imports and the Schubert
polynomial memo table are paid per batch, as a user pays them.  Batches run
one at a time (a closed loop) until --seconds have passed.  Every output is
checked (outcheck.py) after the clock stops.

--trace 0 reports the end-to-end metrics: throughput (problems with a
correct record over the summed wall time of the run's CLI processes), the
median peak RSS of a CLI process (from its own rusage) and the median
start-up time on an empty input.  Both times are scaled to the reference
host speed by a calibration job timed beside them: throughput by the mean
of the jobs after every batch, each start-up run by the job right after it.
--trace 1 runs each batch twice, untraced and through traced_cli.py,
requires byte-identical output, and reports the per-layer breakdown.  The
last stdout line is one JSON object; the lines before it repeat the metrics
for a reader, with error_rate and sample counts.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import outcheck
import problemgen

HERE = Path(__file__).resolve().parent
DEFAULT_SEED = 0  # verdicts of this seed are pinned in pinned_verdicts.json
SETUP_RUNS = 25
WORK_DIR = ".perfbench_work"
# Seconds problemgen.calibration_job takes on the reference host state.
# Throughput is multiplied, and each set-up time divided, by (the time of
# the calibration jobs run beside them / this), so a shared host that runs
# slower for a while does not read as a regression.
CALIBRATION_REFERENCE_S = 0.15
# The calibration job runs on as many threads as the process it stands
# beside.  On a batch the CLI's default pool runs os.cpu_count() threads that
# take turns on the interpreter lock; calibration work on as many threads at
# once tracked the wall time of a CLI batch with a correlation of 0.76-0.84
# on a 2-vCPU host, where the same work on one thread gave 0.37-0.53.  On an empty input
# the CLI starts no pool, and the one-thread job is the one that tracks it.
BATCH_CALIBRATION_THREADS = os.cpu_count() or 1


class Child:
    """One CLI process: wall time, exit code, peak RSS and its stdout."""

    def __init__(self, argv: list[str], out: Path, root: Path, env: dict):
        with open(out, "wb") as stdout, open(out.with_suffix(".err"), "wb") as stderr:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=stdout, stderr=stderr, cwd=root, env=env)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            self.wall = time.perf_counter() - start
        proc.returncode = self.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_mb = usage.ru_maxrss / 1024  # Linux reports KiB
        self.stdout = out.read_bytes()
        self.stderr = out.with_suffix(".err").read_text(errors="replace")


def cli_argv(problem_file: Path, workload: problemgen.Workload) -> list[str]:
    # --jobs and --compress stay at their defaults on purpose.
    return [str(problem_file), "--stable", "--format=jsonlines", *workload.cli_args]


def tail(values: list[float]) -> float:
    """The highest percentile with ten samples above it; the max below 21 samples."""
    ordered = sorted(values)
    return ordered[-11] if len(ordered) > 20 else ordered[-1]


def calibrate(threads: int) -> float:
    start = time.perf_counter()
    problemgen.calibration_job(threads)
    return time.perf_counter() - start


def measure_setup(work: Path, root: Path, env: dict, workload) -> tuple[list[float], list[float]]:
    """Wall times of CLI runs on an empty input, and of a calibration job after each."""
    empty = work / "empty.txt"
    empty.write_text("")
    walls, calibration = [], []
    for index in range(SETUP_RUNS + 1):
        child = Child(
            [sys.executable, "-m", "schubvanish", *cli_argv(empty, workload)],
            work / "setup.out", root, env,
        )
        if child.returncode != 0 or child.stdout:
            raise RuntimeError(f"empty-input run failed: {child.stderr.strip()}")
        if index:  # the first run fills the bytecode cache
            walls.append(child.wall)
            calibration.append(calibrate(1))
    return walls, calibration


def layer_metrics(
    reports: list[dict], traced_wall: float, plain_wall: float
) -> tuple[dict, float]:
    """Per-layer numbers from the traced runs, per problem unless the unit
    says otherwise, and how far the self times miss the run_problem total."""
    problems = [r for rep in reports for r in rep["roots"] if r["name"] == "cli.run_problem"]
    others = [r for rep in reports for r in rep["roots"] if r["name"] != "cli.run_problem"]
    p = max(1, len(problems))
    self_ms: dict[str, float] = {}
    counts: dict[str, float] = {}
    for root in problems:
        for name, ms in root["self_ms"].items():
            self_ms[name] = self_ms.get(name, 0.0) + ms
        for name, c in root["counts"].items():
            counts[name] = counts.get(name, 0) + c
    outside = {name: sum(r["ms"] for r in others if r["name"] == name) for name in ("cli.parse", "cli.emit")}

    def per(name: str) -> float:
        return self_ms.get(name, 0.0) / p

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    certs = {k: v for k, v in counts.items() if k.startswith("vanishing.certificates.")}
    inclusive = [r["ms"] for r in problems] or [0.0]
    m = {
        "cli.run_problem_p50_ms": (statistics.median(inclusive), "ms"),
        "cli.run_problem_tail_ms": (tail(inclusive), "ms"),
        "cli.run_problem_mean_ms": (sum(inclusive) / p, "ms/problem"),
        "cli.run_problem_self_ms": (per("cli.run_problem"), "ms/problem"),
        "cli.parse_ms": (outside["cli.parse"] / p, "ms/problem"),
        "cli.emit_ms": (outside["cli.emit"] / p, "ms/problem"),
        "permcore.diagram_ms": (per("permcore.diagram"), "ms/problem"),
        "permcore.embed_ms": (per("permcore.embed"), "ms/problem"),
        "schubitope.decide_ms": (per("schubitope.decide"), "ms/problem"),
        "schubitope.theta_table_ms": (per("schubitope.theta_table"), "ms/problem"),
        "schubitope.theta_table_entries": (counts.get("schubitope.theta_table_entries", 0) / p, "count/problem"),
        "schubitope.membership_ms": (per("schubitope.membership"), "ms/problem"),
        "exactlp.solve_ms": (per("exactlp.solve"), "ms/problem"),
        "exactlp.solve_calls": (counts.get("exactlp.solve_calls", 0) / p, "count/problem"),
        "exactlp.lp_vars": (ratio(counts.get("exactlp.lp_vars", 0), counts.get("exactlp.solve_calls", 0)), "count/call"),
        "exactlp.lp_rows": (ratio(counts.get("exactlp.lp_rows", 0), counts.get("exactlp.solve_calls", 0)), "count/call"),
        "vanishing.test_ms": (per("vanishing.test"), "ms/problem"),
        "vanishing.certificate_ms": (per("vanishing.certificate"), "ms/problem"),
        "vanishing.certificates_subset": (certs.get("vanishing.certificates.InfeasibleSubset", 0) / p, "count/problem"),
        "vanishing.subset_share": (ratio(certs.get("vanishing.certificates.InfeasibleSubset", 0), sum(certs.values())), "ratio"),
        "vanishing.flexible_ms": (per("vanishing.flexible"), "ms/problem"),
        "vanishing.flexible_contents_tried": (counts.get("vanishing.flexible_contents_tried", 0) / p, "count/problem"),
        "vanishing.flexible_vanish_per_content": (ratio(counts.get("vanishing.flexible_vanished", 0), counts.get("vanishing.flexible_contents_tried", 0)), "ratio"),
        "vanishing.sample_ms": (per("vanishing.sample"), "ms/problem"),
        "rivals.bruhat_ms": (per("rivals.bruhat"), "ms/problem"),
        "rivals.dc_ms": (per("rivals.dc"), "ms/problem"),
        "rivals.dc_class_size": (ratio(counts.get("rivals.dc_class_members", 0), counts.get("rivals.dc_classes", 0)), "count/class"),
        "rivals.triples_built": (counts.get("rivals.triples_built", 0) / p, "count/problem"),
        "rivals.dc_triples_per_member": (ratio(counts.get("rivals.triples_built", 0), counts.get("rivals.dc_class_members", 0)), "ratio"),
        "rivals.root_game_ms": (per("rivals.root_game"), "ms/problem"),
        "rivals.filters_scanned": (counts.get("rivals.filters_scanned", 0) / p, "count/problem"),
        "schubpoly.oracle_ms": (per("schubpoly.oracle"), "ms/problem"),
        "schubpoly.divided_differences": (counts.get("schubpoly.divided_differences", 0) / p, "count/problem"),
        "trace.overhead_frac": (ratio(traced_wall, plain_wall) - 1.0, "ratio"),
        "trace.problems": (len(problems), "count"),
    }
    # Self times inside cli.run_problem must add up to its total.
    unattributed = sum(self_ms.values()) / p - m["cli.run_problem_mean_ms"][0]
    return m, unattributed


def run(args, root: Path, work: Path) -> tuple[dict, outcheck.CheckResult, list[str]]:
    workload = problemgen.WORKLOADS[args.workload]
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # start as an installed CLI does
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    pinned = None
    if args.seed == DEFAULT_SEED:
        pinned = json.loads((HERE / "pinned_verdicts.json").read_text())[workload.name]

    notes: list[str] = []
    if not args.trace:
        setup, setup_calibration = measure_setup(work, root, env, workload)

    runs = []  # (batch index, plain Child, traced Child or None)
    calibration = []  # seconds of problemgen.calibration_job after each batch
    start = time.perf_counter()
    index = 0
    while index == 0 or time.perf_counter() - start < args.seconds:
        batch = problemgen.make_batch(workload, args.seed, index, references=False)
        problem_file = work / f"batch{index}.txt"
        problem_file.write_text(batch.text)
        argv = cli_argv(problem_file, workload)
        plain = Child([sys.executable, "-m", "schubvanish", *argv], work / f"plain{index}.out", root, env)
        traced = None
        if args.trace:
            traced = Child(
                [sys.executable, str(HERE / "traced_cli.py"), str(work / f"spans{index}.json"), "--", *argv],
                work / f"traced{index}.out", root, env,
            )
        runs.append((index, plain, traced))
        index += 1
        if not args.trace:
            calibration.append(calibrate(BATCH_CALIBRATION_THREADS))

    check = outcheck.CheckResult()
    throughputs, rss, reports = [], [], []
    for i, plain, traced in runs:
        batch = problemgen.make_batch(workload, args.seed, i)  # now with reference answers
        result = outcheck.check_batch(workload, batch, plain.stdout.decode(), plain.returncode, pinned)
        check.add(result)
        throughputs.append((result.attempted - result.failed) / plain.wall)
        rss.append(plain.peak_rss_mb)
        if traced is not None:
            if traced.stdout != plain.stdout or traced.returncode != plain.returncode:
                check.failed = check.attempted
                check.messages.append(f"batch {i}: traced output differs from untraced output")
            spans = work / f"spans{i}.json"
            if spans.exists():
                reports.append(json.loads(spans.read_text()))
            else:
                check.messages.append(f"batch {i}: traced run wrote no spans: {traced.stderr[-300:]}")
                check.failed = check.attempted

    notes.append(f"batches={len(runs)} problems={check.attempted} failed={check.failed}")
    if args.trace:
        traced_wall = sum(t.wall for _, _, t in runs)
        plain_wall = sum(p.wall for _, p, _ in runs)
        metrics, unattributed = layer_metrics(reports, traced_wall, plain_wall)
        absent = sorted({name for rep in reports for name in rep["absent"]})
        notes.append(f"absent names: {', '.join(absent) if absent else 'none'}")
        unobserved = sorted({k for rep in reports for r in rep["roots"] for k in r["counts"]
                             if k.startswith("trace.unobserved.")})
        if unobserved:
            notes.append(f"results the tracer could not count: {', '.join(unobserved)}")
        notes.append(f"self times minus cli.run_problem total: {unattributed:.3g} ms/problem")
        if abs(unattributed) > 1e-6 * max(1.0, metrics["cli.run_problem_mean_ms"][0]):
            check.messages.append("per-layer self times do not add up to cli.run_problem")
            check.failed = check.attempted
    else:
        raw = (check.attempted - check.failed) / sum(p.wall for _, p, _ in runs)
        slowness = statistics.mean(calibration) / CALIBRATION_REFERENCE_S
        # each set-up run is scaled by the calibration job timed right after it
        setup_scaled = [
            wall / (c / CALIBRATION_REFERENCE_S) for wall, c in zip(setup, setup_calibration)
        ]
        setup_slowness = statistics.median(setup_calibration) / CALIBRATION_REFERENCE_S
        notes.append(
            f"raw throughput {raw:.6g} problems/s; host slowness {slowness:.4g} "
            f"(calibration samples={len(calibration)} min={min(calibration):.4g} "
            f"max={max(calibration):.4g} s)"
        )
        metrics = {
            "throughput_pps": (raw * slowness, "problems/s"),
            "peak_rss_mb": (statistics.median(rss), "MB"),
            "setup_s": (statistics.median(setup_scaled), "s"),
        }
        notes.append(
            f"batch throughput samples={len(throughputs)} min={min(throughputs):.4g} "
            f"median={statistics.median(throughputs):.4g} max={max(throughputs):.4g}"
        )
        notes.append(
            f"raw setup {statistics.median(setup):.6g} s; host slowness {setup_slowness:.4g} "
            f"(samples={len(setup)} min={min(setup):.4g} max={max(setup):.4g})"
        )
    notes.append(f"error_rate {check.failed / max(1, check.attempted):.4g}")
    return metrics, check, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark the schubvanish CLI.")
    parser.add_argument("--workload", required=True, choices=sorted(problemgen.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "schubvanish" / "cli.py").is_file():
        print(f"error: no schubvanish source under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))

    # A terminated run still stops its CLI process and removes its files.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    work = root / WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        metrics, check, notes = run(args, root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (root / WORK_DIR).rmdir()
        except OSError:
            pass

    for message in check.messages[:20]:
        print(f"FAIL {message}")
    for note in notes:
        print(note)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": check.failed == 0 and not check.messages,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
