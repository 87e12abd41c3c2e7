#!/usr/bin/env python3
"""End-to-end benchmark of the energy-bounds library.

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --self-check

Run from the repository root. Builds perfbench/ (which builds the library
from src/ through the root CMakeLists.txt) into $CARGO_TARGET_DIR/perfbench,
or .bench_build/perfbench when that is unset, then runs the benchmark binary.
It prints a human-readable report, and as its last stdout line one JSON
object {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
of BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.
--self-check runs every workload for a few ops untraced, then twice traced
with one seed for two different lengths, and checks names, units, failures
and that the exact counts repeat.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import trace_summary

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
WORKLOADS = ("bound-wide", "harden-sweep", "serve-mixed")
RUN_TIMEOUT_S = 170
# Counts that must repeat exactly for a seed (the count window's integers).
EXACT_COUNTS = (
    "netlist.parsed_nodes", "synth.mapped_gates", "sim.activity_pairs",
    "sim.sensitivity_assignments", "analysis.profile_extractions",
    "analysis.cec_calls", "fault.sim_passes", "fault.classes_sampled",
    "fault.dropped_classes", "harden.candidates",
)
# Span names under the op roots whose self time is a per-layer metric.
SELF_TIME_SPANS = (
    "netlist.parse", "synth.map", "analysis.compile", "core.extract_profile",
    "sim.activity", "sim.sensitivity", "core.theorems",
)
# Per workload, the per-op layer times that split an op's wall time without
# overlap: each is timed on the thread that does the op's work, once.
# trace.coverage is their sum over the mean op time, so a layer left out of
# them, or timed twice, moves it away from 1.
COVERAGE_ROWS = {
    "bound-wide": ("netlist.parse_s", "synth.map_s", "analysis.compile_s",
                   "core.extract_profile_s", "sim.activity_s",
                   "sim.sensitivity_s", "core.theorems_s"),
    "harden-sweep": ("analysis.compile_s", "harden.grade_batch_s",
                     "analysis.cec_s", "harden.transform_s", "analysis.lint_s"),
    "serve-mixed": ("serve.handle_s", "exec.batch_run_s"),
}


class BenchError(Exception):
    pass


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return base / "perfbench"


def build():
    """Configures once, then builds the binary; returns its path."""
    if not (CHECKOUT / "CMakeLists.txt").is_file() or not (CHECKOUT / "src").is_dir():
        raise BenchError("the library sources (CMakeLists.txt, src/) are missing")
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        command = ["cmake", "-S", str(HERE), "-B", str(out),
                   "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            command += ["-G", "Ninja"]
        run_quiet(command)
    jobs = str(len(os.sched_getaffinity(0)))
    run_quiet(["cmake", "--build", str(out), "--target", "perfbench", "-j", jobs])
    return out / "perfbench"


def run_quiet(command):
    done = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        raise BenchError(f"{' '.join(command)} exited {done.returncode}")


def benchmark_spec():
    path = CHECKOUT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError("BENCHMARK.json is missing")
    with open(path) as handle:
        return json.load(handle)


def drive(binary, workload, seed, trace, seconds=None, rounds=None):
    """Runs the benchmark binary once; returns its JSON record."""
    work = build_dir() / "work"
    work.mkdir(parents=True, exist_ok=True)
    trace_file = work / f"trace-{workload}-{os.getpid()}.json"
    command = [str(binary), "--workload", workload, "--seed", str(seed),
               "--trace", "1" if trace else "0",
               "--trace-file", str(trace_file), "--work-dir", str(work)]
    command += ["--rounds", str(rounds)] if rounds else ["--seconds", str(seconds)]
    # The pool's workers plus the calling thread that joins every parallel
    # loop: nproc compute threads in all.
    workers = max(1, len(os.sched_getaffinity(0)) - 1)
    env = dict(os.environ, ENB_THREADS=str(workers))
    try:
        done = subprocess.run(command, env=env, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as error:
        raise BenchError(f"{workload} did not finish in {RUN_TIMEOUT_S} s") from error
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise BenchError(f"perfbench exited {done.returncode}")
    record = json.loads(done.stdout.strip().splitlines()[-1])
    if trace:
        try:
            record["layer"].update(layer_times(record, trace_file))
        finally:
            trace_file.unlink(missing_ok=True)
    return record


def layer_times(record, trace_file):
    """Per-layer metrics folded from the traced phase's spans."""
    spans, dropped = trace_summary.load(trace_file)
    if dropped:
        raise BenchError(f"trace ring dropped {dropped} events")
    phase = next(s for s in spans if s.name == "phase")
    in_phase = trace_summary.within(spans, phase)
    ops = record["traced_phase"]["ops"]
    per_op = lambda seconds: seconds / ops if ops else 0.0
    ratio = lambda num, den: num / den if den > 0 else 0.0

    op = trace_summary.fold(in_phase, "op")
    replay = trace_summary.fold(spans, "replay")
    values = {f"{name}_s": per_op(op["self_by_name"].get(name, 0.0))
              for name in SELF_TIME_SPANS}
    incl = op["incl_by_name"]
    values["sim.sensitivity_flips_per_s"] = ratio(
        record["layer"].pop("sim.sensitivity_flips", 0.0),
        incl.get("sim.sensitivity", 0.0))
    values["harden.grade_batch_s"] = per_op(incl.get("batch-run", 0.0))
    # The batches an op or a served request runs itself; the batches a
    # harden job runs inside them are part of those.
    batch_run = sum(trace_summary.first_below(in_phase, root, "batch-run")
                    for root in ("op", "serve-request"))
    values["exec.batch_run_s"] = per_op(batch_run)
    values["fault.campaign_s"] = per_op(
        trace_summary.busy(in_phase, "fault-sweep-shard"))
    round_trips = incl.get("serve.batch", 0.0)
    values["serve.round_trip_s"] = per_op(round_trips)
    # The server's own share of a round trip, on the thread serving it.
    values["serve.handle_s"] = per_op(
        trace_summary.busy(in_phase, "serve-request")
        - trace_summary.first_below(in_phase, "serve-request", "batch-run"))
    values["serve.overhead_share"] = ratio(round_trips - batch_run, round_trips)
    sweeps = replay["roots"] if record["workload"] == "harden-sweep" else 0
    for span, metric in (("harden.transform", "harden.transform_s"),
                         ("analysis.lint", "analysis.lint_s")):
        values[metric] = ratio(replay["incl_by_name"].get(span, 0.0), sweeps)
    values["exec.manifest_parse_s"] = ratio(
        replay["incl_by_name"].get("exec.parse_manifest", 0.0),
        replay["count_by_name"].get("exec.parse_manifest", 0))
    op_s = ratio(op["root_s"], op["roots"])
    measured = {**record["layer"], **values}
    rows_s = sum(measured[row] for row in COVERAGE_ROWS[record["workload"]])
    values["trace.coverage"] = ratio(rows_s, op_s)
    untraced = record["phase"].get("op_p50_s", 0.0)
    traced = record["traced_phase"].get("op_p50_s", 0.0)
    values["trace.overhead_share"] = ratio(traced - untraced, untraced)
    return values


def end_to_end(record):
    """Every end-to-end figure with its sample count, as (value, samples)."""
    phase = record["phase"]
    ops = phase["ops"]
    figures = {
        "setup_s": (record["setup_s"]["value"], record["setup_s"]["samples"]),
        "ops_per_s": (phase["ops_per_s"], ops),
        "op_p50_s": (phase.get("op_p50_s", 0.0), ops),
        "failed_share": (record["failed"] / max(1, record["attempted"]),
                         record["attempted"]),
    }
    # A 90th percentile needs ten samples beyond it.
    if ops >= 100:
        figures["op_p90_s"] = (phase["op_p90_s"], ops)
    if "peak_rss_mb" in record:
        figures["peak_rss_mb"] = (record["peak_rss_mb"], 1)
    return figures


def report(record, trace):
    """Prints the human-readable report to stdout."""
    host = record["host"]
    print(f"perfbench {record['workload']} seed={record['seed']} "
          f"trace={int(trace)}")
    print("host: " + json.dumps(host, sort_keys=True))
    units = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_s": "s",
             "op_p90_s": "s", "failed_share": "share", "peak_rss_mb": "MB"}
    for name, (value, samples) in end_to_end(record).items():
        print(f"  {name:<34} {value:>16.9g} {units[name]:<6} n={samples}")
    if trace:
        traced = record["traced_phase"]
        print(f"  traced phase: {traced['ops']} ops in {traced['wall_s']:.3f} s")
        for name, value in sorted(record["layer"].items()):
            print(f"  {name:<34} {value:>16.9g}")
        for name, value in sorted(record["counts"].items()):
            print(f"  {name:<34} {value:>16d} count (window)")


def result_metrics(record, trace, spec):
    """The result's metrics object: every end_to_end or per_layer metric."""
    if not trace:
        figures = end_to_end(record)
        declared = spec["end_to_end"]
        values = {m["name"]: figures[m["name"]][0] for m in declared
                  if m["name"] in figures}
    else:
        declared = spec["per_layer"]
        values = dict(record["layer"])
        values.update({name: 0 for name in EXACT_COUNTS})
        values.update(record["counts"])
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise BenchError("metrics not measured: " + ", ".join(missing))
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in declared}


def run_one(args):
    spec = benchmark_spec()
    if args.workload not in WORKLOADS:
        raise BenchError(f"unknown workload '{args.workload}'")
    binary = build()
    trace = args.trace == 1
    record = drive(binary, args.workload, args.seed, trace, seconds=args.seconds)
    report(record, trace)
    metrics = result_metrics(record, trace, spec)
    failed = record["failed"]
    result = {"correct": failed == 0, "attempted": record["attempted"],
              "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


def self_check():
    """A few ops of every workload: names, units, no failures, exact counts."""
    spec = benchmark_spec()
    binary = build()
    problems = []
    for workload in WORKLOADS:
        start = time.monotonic()
        # serve-mixed's count window spans 9 frames per client.
        rounds = 9 if workload == "serve-mixed" else 1
        plain = drive(binary, workload, 7, False, rounds=rounds)
        # Timed phases of different lengths: the counts of a seed must not
        # depend on how many ops a phase ran.
        first = drive(binary, workload, 7, True, seconds=2)
        second = drive(binary, workload, 7, True, seconds=5)
        for record, trace in ((plain, False), (first, True)):
            metrics = result_metrics(record, trace, spec)
            for name, metric in metrics.items():
                if not metric["unit"] or not isinstance(metric["value"], (int, float)):
                    problems.append(f"{workload}: {name} lacks a value or unit")
            if record["failed"] != 0:
                problems.append(f"{workload}: {record['failed']} failed ops")
        for name in EXACT_COUNTS:
            a = first["counts"].get(name, 0)
            b = second["counts"].get(name, 0)
            if a != b:
                problems.append(f"{workload}: {name} differs ({a} vs {b})")
        print(f"self-check {workload}: {len(first['counts'])} exact counts, "
              f"{time.monotonic() - start:.1f} s")
    for problem in problems:
        print("FAIL " + problem)
    print("self-check " + ("failed" if problems else "ok"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    try:
        if args.self_check:
            return self_check()
        if not args.workload:
            raise BenchError("--workload is required")
        return run_one(args)
    except (BenchError, OSError, ValueError, KeyError) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
