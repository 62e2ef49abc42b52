#!/usr/bin/env python3
"""The scl benchmark: time to verdict of `scl-check`, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload decided --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload abd_budget --seed 1 --seconds 50 --trace 1

It builds `perfbench/` (a cargo package of its own, into `$CARGO_TARGET_DIR`,
default `.bench_build`) and drives its `scl-perfbench` binary.

`--trace 0` measures the end-to-end metrics for `--seconds`: fresh benchmark
processes run the workload's scenarios in passes with the `scl-check` CLI's
default configuration: a cold pass at `--workers 1`, then warm passes at
`--workers 1`, then one pass at `--workers 2`.
`--trace 1` runs the separate traced run, a fixed amount of work, and reports
the per-layer metrics. Every verdict is
checked against its scenario's expectation, and the counts of every
`--workers 1` run against every other run (the determinism guard). The last
line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the lines above it are a readable report.
A full record with host metadata is written to
`$CARGO_TARGET_DIR/perfbench-records/`. The exit code is 0 only if every
check passed. See README.md for the metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Fresh processes per `--trace 0` run. Each process times one cold pass (a
# set-up sample), then warm passes at 1 worker for its share of `--seconds`,
# then one pass at 2 workers. The machine's speed drifts over seconds, so
# many short processes spread the set-up samples over the whole run. One
# `abd_budget` pass takes seconds: there each process runs its cold pass
# only, and the last one the run's single pass at 2 workers, so that most of
# the run is spent on the gated passes at 1 worker.
PROCESSES = {"decided": 32, "abd_budget": 4}
PARALLEL_IN_EVERY_PROCESS = {"decided": True, "abd_budget": False}

# No run of the benchmark may take longer than this.
DEADLINE_S = 170.0

# The share of the untraced wall time above which the traced run warns that
# its layer times are inflated by the wrappers' own cost.
RESIDUAL_WARN = 0.10

# The end-to-end metrics on the JSON line, the ones BENCHMARK.json gates.
# `wall_w2_s` is printed but not gated: a pass at 2 workers needs both of a
# 2-vCPU machine's CPUs at once, and its run medians spread close to the
# largest bound a benchmark may set (IQR/median 0.197 over ten runs of one
# binary on `abd_budget`, which times one such pass a run).
# `decided_share` is 0 on `abd_budget` and `failed_share` 0 everywhere, and a
# gated metric must never be 0; failures reach the JSON line as its `failed`
# count.
GATED = ("wall_s", "setup_s", "peak_rss_mb")

# Outcome tags that decide the scenario (`limit_reached` does not).
DECIDED = {"exhausted", "violation"}


class BenchError(Exception):
    """A failure of the benchmark itself: no result is printed."""


def target_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build")


def build():
    """Builds the benchmark package and returns its binary."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    # Cargo's output goes to stderr: stdout carries only the report.
    result = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=DEADLINE_S * 5)
    if result.returncode != 0:
        raise BenchError(f"building {HERE / 'Cargo.toml'} failed")
    binary = target_dir() / "release" / "scl-perfbench"
    if not binary.is_file():
        raise BenchError(f"the build left no {binary}")
    return binary


def run_binary(args, deadline, on_line):
    """Runs the benchmark binary, handing each stdout line (with the time
    since spawning) to `on_line`; kills it at `deadline`."""
    start = time.perf_counter()
    proc = subprocess.Popen(args, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    watchdog.start()
    try:
        for line in proc.stdout:
            on_line(json.loads(line), time.perf_counter() - start)
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if code != 0:
        raise BenchError(f"{' '.join(map(str, args))} exited with {code}")


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def summary(values):
    """Median, quartiles, sample count, and the highest percentile with at
    least ten samples beyond it (when there are twenty samples or more)."""
    q1, q3 = quartiles(values)
    out = {"n": len(values), "median": statistics.median(values), "q1": q1, "q3": q3}
    if len(values) >= 20:
        share = 1.0 - 10.0 / len(values)
        out[f"p{int(share * 100)}"] = sorted(values)[int(share * len(values)) - 1]
    return out


def host_metadata(binary, available_parallelism):
    def output(cmd, cwd=None):
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        try:
            done = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True,
                                  timeout=30)
        except OSError:
            return "unknown"
        return done.stdout.strip() if done.returncode == 0 else "unknown"

    return {
        "available_parallelism": available_parallelism,
        "nproc": output(["nproc"]),
        "git_commit": output(["git", "rev-parse", "HEAD"], cwd=ROOT),
        "rustc": output(["rustc", "-V"]),
        "machine": platform.machine(),
        "binary_sha256": sha256(binary),
    }


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_record(record, name):
    out = target_dir() / "perfbench-records" / name
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=2) + "\n")
    return out


def counts_guard(binary, workload, counts):
    """The determinism guard across runs: the `--workers 1` counts of every
    run of this binary on this workload must be the same. Returns the
    scenarios whose counts differ from the first recorded run."""
    path = target_dir() / "perfbench-counts" / f"{workload}-{sha256(binary)[:16]}.json"
    if path.is_file():
        recorded = json.loads(path.read_text())
        return sorted(name for name in counts if recorded.get(name) != counts[name])
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(counts, sort_keys=True))
    tmp.replace(path)
    return []


def end_to_end(binary, args, deadline):
    processes = PROCESSES[args.workload]
    setups, rss_kb, end_rss_kb, passes = [], [], [], []
    parallelism = None
    run_end = time.monotonic() + args.seconds
    for i in range(processes):
        # Each process gets an equal share of the time still left.
        share = max(run_end - time.monotonic(), 0.0) / (processes - i)
        state = {}

        def on_line(rec, since_spawn):
            if "pass" in rec:
                state.setdefault("setup", since_spawn)
                passes.append(rec)
            else:
                state["tail"] = rec

        parallel = PARALLEL_IN_EVERY_PROCESS[args.workload] or i == processes - 1
        run_binary([binary, "passes", "--workload", args.workload, "--seed", str(args.seed),
                    "--seconds", str(share), "--parallel", str(int(parallel))],
                   deadline, on_line)
        if "setup" not in state or "tail" not in state:
            raise BenchError("a benchmark process ended without its report")
        setups.append(state["setup"])
        rss_kb.append(state["tail"]["cold_vmhwm_kb"])
        end_rss_kb.append(state["tail"]["vmhwm_kb"])
        parallelism = state["tail"]["available_parallelism"]

    # The determinism guard within the run. Every run's outcome and verdict
    # must repeat at both worker counts. Its counts must repeat at 1 worker,
    # and at 2 workers when the run exhausted its space; a parallel run that
    # stops early (first violation, shared schedule budget) stops wherever
    # the racing workers are, so only the spread of its counts is recorded.
    attempted = failed = decided = 0
    reference = {}  # (workers, scenario) -> first run's [tag, verdict, counts...]
    spread = {}  # scenario -> [min, max] per count over its early-stopping parallel runs
    mismatches = []
    for p in passes:
        workers = p["workers"]
        for name, tag, verdict, as_expected, *counts in p["runs"]:
            attempted += 1
            decided += tag in DECIDED
            run = [tag, verdict, *counts]
            first = reference.setdefault((workers, name), run)
            exact = workers == 1 or tag == "exhausted"
            same = run == first if exact else run[:2] == first[:2]
            if not same:
                mismatches.append(f"{name} at {workers} workers: {run} vs {first}")
            if not exact:
                s = spread.setdefault(name, [[c, c] for c in counts])
                for pair, c in zip(s, counts):
                    pair[:] = [min(pair[0], c), max(pair[1], c)]
            failed += not (as_expected and same)
    w1_counts = {name: c for (w, name), c in reference.items() if w == 1}
    for name in counts_guard(binary, args.workload, w1_counts):
        mismatches.append(f"{name}: counts differ from an earlier run of this binary")
        failed += 1

    walls = {w: [p["secs"] for p in passes if p["workers"] == w] for w in (1, 2)}
    samples = {
        "wall_s": (walls[1], "s"),
        "wall_w2_s": (walls[2], "s"),
        "setup_s": (setups, "s"),
        "peak_rss_mb": ([kb * 1024 / 1e6 for kb in rss_kb], "MB"),
    }
    stats = {name: dict(summary(v), unit=u) for name, (v, u) in samples.items()}
    shares = {"decided_share": decided / attempted, "failed_share": failed / attempted}
    metrics = {name: {"value": stats[name]["median"], "unit": stats[name]["unit"]}
               for name in GATED}

    print(f"scl benchmark: workload {args.workload}, seed {args.seed}, {processes} "
          f"process(es), {len(passes)} passes, available_parallelism {parallelism}")
    for name, s in stats.items():
        print(f"  {name:<14} {s['median']:>12.6f} {s['unit']:<5} median of {s['n']} "
              f"(q1 {s['q1']:.6f}, q3 {s['q3']:.6f}){'' if name in GATED else ', not gated'}")
    for name, value in shares.items():
        print(f"  {name:<14} {value:>12.6f} ratio of {attempted} scenario runs, not gated")
    spread = {name: dict(zip(["schedules", "steps", "states"], s)) for name, s in spread.items()}
    for name, s in sorted(spread.items()):
        ranges = ", ".join(f"{k} {lo}-{hi}" for k, (lo, hi) in s.items() if lo != hi)
        if ranges:
            print(f"  {name} at 2 workers stops early; its counts vary: {ranges}")
    for m in mismatches:
        print(f"  DETERMINISM GUARD: {m}")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": 0,
        "host": host_metadata(binary, parallelism),
        "samples": stats, "shares": shares, "attempted": attempted, "failed": failed,
        "workers2_spread": spread,
        "end_of_process_vmhwm_kb": end_rss_kb,
        "determinism_mismatches": mismatches,
        "scenario_counts_workers1": w1_counts,
    }
    print(f"  record: {write_record(record, f'{args.workload}-seed{args.seed}-e2e.json')}")
    return attempted, failed, metrics


def traced(binary, args, deadline):
    result = {}
    run_binary([binary, "trace", "--workload", args.workload, "--seed", str(args.seed)],
               deadline, lambda rec, _t: result.update(rec))
    if "metrics" not in result:
        raise BenchError("the traced run ended without its report")
    failures = result["failures"]
    metrics = result["metrics"]
    print(f"scl benchmark traced run: workload {args.workload}, seed {args.seed}, "
          f"{result['attempted']} scenario runs")
    for name, m in metrics.items():
        value = m["value"]
        shown = "null" if value is None else f"{value:.6g}"
        print(f"  {name:<34} {shown:>14} {m['unit']}")
        if value is None:
            failures.append(f"{name} is undefined")
    residual = metrics["trace.residual_ratio"]["value"]
    if abs(residual) > RESIDUAL_WARN:
        print(f"  NOTE: {residual:.0%} of the untraced wall time is traced overhead the timers "
              f"do not account for (the wrappers' own boxes and calls); up to that much is "
              f"charged to the layers, so layer times are upper bounds and explore.self_s "
              f"a lower bound")
    for name, m in result["always_zero"].items():
        print(f"  {name:<34} {m['value']:>14.6g} {m['unit']} (zero on every workload; not gated)")
    for f in failures:
        print(f"  FAILED: {f}")
    record = {
        "workload": args.workload, "seed": args.seed, "trace": 1,
        "host": host_metadata(binary, result["available_parallelism"]),
        "metrics": metrics, "failures": failures, "attempted": result["attempted"],
    }
    print(f"  record: {write_record(record, f'{args.workload}-seed{args.seed}-trace.json')}")
    return result["attempted"], min(len(failures), result["attempted"]), metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(PROCESSES))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()
    if not 0 < args.seconds <= 60 or args.seed < 0:
        parser.error("--seconds must be in (0, 60] and --seed non-negative")
    try:
        binary = build()
        deadline = time.monotonic() + DEADLINE_S
        run = traced if args.trace else end_to_end
        attempted, failed, metrics = run(binary, args, deadline)
    except (BenchError, OSError, ValueError, KeyError, subprocess.SubprocessError) as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
