#!/usr/bin/env python3
"""Runs one workload of the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. It builds the benchmark package and the
release `bbc-serve` daemon from source (into $CARGO_TARGET_DIR, default
`.bench_build`), runs the workload, prints every metric by name with its
unit, and ends with one JSON result line. Metric names and units are those
of BENCHMARK.json: an untraced run reports the end-to-end metrics, a traced
run (--trace 1) every per-layer metric, with 0 for a layer the workload does
not exercise. The exit code is non-zero when the build fails or an output
check fails.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(target_dir):
    """Builds both binaries; cargo's output goes to standard error."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    packages = [
        ["--manifest-path", os.path.join(HERE, "Cargo.toml")],
        ["--manifest-path", os.path.join(ROOT, "Cargo.toml"), "-p", "bbc-serve", "--bin", "bbc-serve"],
    ]
    for package in packages:
        cmd = ["cargo", "build", "--release", "--offline", "--quiet", *package]
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    release = os.path.join(target_dir, "release")
    return os.path.join(release, "perfbench"), os.path.join(release, "bbc-serve")


def complete(result, spec, trace):
    """Checks the reported metrics against BENCHMARK.json and orders them
    as declared; a traced run gets 0 for each layer it does not exercise."""
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    metrics = result["metrics"]
    for name, metric in metrics.items():
        if units.get(name) != metric["unit"]:
            fail(f"metric {name} ({metric['unit']}) is not declared in BENCHMARK.json")
    missing = [name for name in units if name not in metrics]
    if missing and not trace:
        fail(f"end-to-end metrics not measured: {missing}")
    result["metrics"] = {
        name: metrics.get(name, {"value": 0, "unit": unit}) for name, unit in units.items()
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}")

    target_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    bench, daemon = build(target_dir)
    # Relative to the root, where both processes run, so the daemon's
    # socket path stays well under the Unix limit.
    scratch = os.path.relpath(os.path.join(target_dir, "perfbench-run", str(os.getpid())), ROOT)
    cmd = [
        bench,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--serve-bin", daemon,
        "--scratch", scratch,
    ]
    if args.workload == "serve_mixed":
        # The client, the daemon's socket reader and its engine owner hand
        # off on every request. Spread over two vCPUs of a shared VM, those
        # wake-ups measured the hypervisor: round rates swung 2x within a
        # run. On one CPU (inherited by the daemon) they measure the program.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    # A session of its own, so a timeout also stops the daemons it started.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"the run took longer than {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(os.path.join(ROOT, scratch), ignore_errors=True)

    lines = out.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print(out, end="")
        fail(f"no result line (exit code {proc.returncode})")
    complete(result, spec, args.trace == 1)
    print("\n".join(lines[:-1]))
    for name, metric in result["metrics"].items():
        print(f"  {name:<48} {metric['value']:>16.4f} {metric['unit']}")
    print(json.dumps(result))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
