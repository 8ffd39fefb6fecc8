#!/usr/bin/env python3
"""The repository benchmark: builds perfbench from source and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper_kernels --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --all            # every workload, untraced and traced

One workload run prints every metric with its unit, then, as the last line
of stdout, one JSON object with the keys correct, attempted, failed and
metrics (the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1). --all prints the same for every workload and writes the
collected results to .bench_build/perfbench/results.json.

setup_s, the time from process start to the first timed request, is the
median over three processes: two that only set up (--setup-only) and the
measured one. Untraced runs only; traced runs report the per-layer metrics.

Besides the measuring program's own bit-exact output checks, this script
checks the calibration figures against the committed baselines and the
simulated counts against earlier invocations with the same seed and binary
(see perfbench/README.md). Any failed check makes the run incorrect and
the exit code non-zero.
"""
import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"
WORKLOADS = ["paper_kernels", "cluster_heavy"]
RUN_TIMEOUT_S = 170
SETUP_REPS = 3


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; build output goes to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").exists():
        log(f"no sources to build under {ROOT / 'src'}")
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs,
                  "--target", "perfbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return False
    return BINARY.exists()


def sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def check_calibration(report, config):
    """Compares the calibration figures with the committed truths."""
    errors = []
    cal = report.get("calibration", {})
    if report["workload"] == "paper_kernels":
        rows = json.loads((ROOT / "bench/baselines/fig7a.json").read_text())["rows"]
        truth = {(r["shape"], r["impl"]): r["cycles"] for r in rows}
        got = cal.get("fig7a", [])
        if len(got) != len(truth):
            errors.append(f"fig7a: {len(got)} rows measured, {len(truth)} committed")
        for r in got:
            want = truth.get((r["shape"], r["impl"]))
            if want != r["cycles"]:
                errors.append(f"fig7a {r['shape']} {r['impl']}: {r['cycles']} cycles, "
                              f"committed {want}")
    if report["workload"] == "cluster_heavy":
        rows = json.loads((ROOT / "bench/baselines/serve_cluster.json").read_text())["rows"]
        d1 = [r for r in rows if r["name"] == "total"][0]["cycles"]
        for key, want in (("cluster_d1_cycles", d1),
                          ("cluster_d4_cycles", config["cluster_d4_cycles"])):
            if cal.get(key) != want:
                errors.append(f"{key}: {cal.get(key)} cycles, committed {want}")
    return errors


def check_determinism(report, seed):
    """Same binary + same seed must give the same simulated counts."""
    if report["workload"] not in ("paper_kernels", "cluster_heavy"):
        return []
    state = BUILD / "determinism" / f"{report['workload']}-{seed}.json"
    record = {"binary": sha256(BINARY), "signature": report["signature"]}
    if state.exists():
        old = json.loads(state.read_text())
        if old["binary"] == record["binary"]:
            diff = sorted(k for k in set(old["signature"]) | set(record["signature"])
                          if old["signature"].get(k) != record["signature"].get(k))
            if diff:
                return ["simulated counts differ from an earlier invocation with "
                        f"seed {seed}: " + ", ".join(diff)]
            return []
    state.parent.mkdir(parents=True, exist_ok=True)
    state.write_text(json.dumps(record, sort_keys=True))
    return []


def expected_metrics(trace):
    spec = ROOT / "BENCHMARK.json"
    if not spec.exists():
        return None
    return [m["name"] for m in json.loads(spec.read_text())["per_layer" if trace else "end_to_end"]]


def run_binary(workload, seed, extra, deadline):
    """Runs perfbench once. Returns its report and the seconds from process
    start to the end of its set-up, or None."""
    cmd = [str(BINARY), f"--workload={workload}", f"--seed={seed}"] + extra
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=max(1.0, deadline - t_spawn))
    except subprocess.TimeoutExpired:
        log(f"{workload}: timed out")
        return None
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log(f"{workload}: no report (exit {proc.returncode})")
        return None
    report = json.loads(lines[-1])
    log(f"{workload}: ran in {time.monotonic() - t_spawn:.1f} s")
    # perfbench's steady clock and time.monotonic() both read CLOCK_MONOTONIC.
    return report, report["setup_end_ns"] / 1e9 - t_spawn


def run_workload(workload, seed, seconds, trace, config):
    deadline = time.monotonic() + RUN_TIMEOUT_S
    errors, setups = [], []
    for _ in range(0 if trace else SETUP_REPS - 1):
        got = run_binary(workload, seed, ["--setup-only"], deadline)
        if got is None:
            return None
        errors += got[0]["errors"]
        setups.append(got[1])
    extra = [f"--seconds={seconds}"]
    if trace:
        spans = BUILD / "spans" / f"{workload}-{seed}.tsv"
        spans.parent.mkdir(parents=True, exist_ok=True)
        extra += ["--trace", f"--spans-out={spans}"]
    got = run_binary(workload, seed, extra, deadline)
    if got is None:
        return None
    report, setup = got
    setups.append(setup)

    if report.get("failures"):
        log(f"{workload}: failures by category: {report['failures']}")
    errors += report["errors"]
    errors += check_calibration(report, config)
    errors += check_determinism(report, seed)
    metrics = dict(report["metrics"])
    attempted = max(1, report["attempted"])
    if not trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        # failed_frac as a never-zero metric: the share that succeeded.
        metrics["ok_frac"] = {"value": (attempted - report["failed"]) / attempted,
                              "unit": "ratio"}
    want = expected_metrics(trace)
    if want is not None:
        missing = [m for m in want if m not in metrics]
        if missing:
            errors.append("metrics not produced: " + ", ".join(missing))
        metrics = {m: metrics[m] for m in want if m in metrics}
    for e in errors:
        log(f"{workload}: ERROR {e}")
    return {
        "correct": not errors and report["mismatches"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }


def print_metrics(workload, result):
    for name, m in result["metrics"].items():
        print(f"{workload:16s} {name:32s} {m['value']:>18.6g} {m['unit']}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--all", action="store_true",
                    help="run every workload, untraced and traced")
    args = ap.parse_args()
    if not args.all and not args.workload:
        ap.error("--workload or --all is required")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    config = json.loads((HERE / "config.json").read_text())
    seed = config["default_seed"] if args.seed is None else args.seed
    if not build():
        return 2

    if not args.all:
        result = run_workload(args.workload, seed, args.seconds, bool(args.trace), config)
        if result is None:
            return 3
        print_metrics(args.workload, result)
        print(json.dumps(result), flush=True)
        return 0 if result["correct"] else 1

    results = {}
    for workload in WORKLOADS:
        for trace in (False, True):
            result = run_workload(workload, seed, args.seconds, trace, config)
            if result is None:
                return 3
            results[f"{workload}/{'traced' if trace else 'untraced'}"] = result
            print_metrics(workload, result)
    out = BUILD / "results.json"
    out.write_text(json.dumps({"seed": seed, "seconds": args.seconds,
                               "results": results}, indent=1))
    summary = {"correct": all(r["correct"] for r in results.values()),
               "attempted": sum(r["attempted"] for r in results.values()),
               "failed": sum(r["failed"] for r in results.values()),
               "results": str(out.relative_to(ROOT))}
    print(json.dumps(summary), flush=True)
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
