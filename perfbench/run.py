#!/usr/bin/env python3
"""Runs one benchmark workload of the A4 reproduction and prints its result.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <mix-sweep|numa-sweep|ckpt-sweep> \
        --seed <n> --seconds <s> --trace <0|1>

Builds `perfbench/` (a Cargo package of its own) in release mode into
$CARGO_TARGET_DIR (default `.bench_build`), then runs its binary:

* `--trace 0`: the plain run. The cold sweep runs through the public
  service entry points, repeated until `--seconds` have passed, and the
  end-to-end metrics are printed.
* `--trace 1`: one plain sweep, then the traced replay of the same cells.
  Their tables must match byte for byte. The per-layer metrics are
  printed, and the span trace is kept in `.bench_work/traces/`.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The command exits non-zero
if the build fails, a run fails, or any output check fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("mix-sweep", "numa-sweep", "ckpt-sweep")
DEFAULT_SEED = 0xA4  # the figures' seed

END_TO_END = {
    "wall_s": "s",
    "quanta_per_s": "quanta/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
    "sim.hpw_speedup": "ratio",
}

PER_LAYER = {
    "spec.s": "s",
    "spec.build_ms.p50": "ms",
    "sim.s": "s",
    "sim.quanta": "count",
    "sim.ns_per_quantum": "ns",
    "sim.ns_per_access": "ns",
    "sim.hpw_p99_us": "us",
    "sample.s": "s",
    "policy.s": "s",
    "cache.accesses": "count",
    "cache.llc_hit_frac": "ratio",
    "cache.migrations": "count",
    "cache.back_invalidations": "count",
    "cache.dma_leak_frac": "ratio",
    "cache.mem_lines": "count",
    "pcie.dma_write_lines": "count",
    "pcie.nic_drop_frac": "ratio",
    "upi.crossed_lines": "count",
    "upi.rcache_hit_frac": "ratio",
    "ckpt.count": "count",
    "ckpt.bytes": "B",
    "ckpt.save_state.s": "s",
    "ckpt.save.s": "s",
    "ckpt.load.s": "s",
    "ckpt.restore.s": "s",
    "ckpt.remove.s": "s",
    "ckpt.write_failures": "count",
    "store.store.s": "s",
    "store.load.s": "s",
    "store.bytes": "B",
    "store.hits": "count",
    "store.simulated": "count",
    "store.write_failures": "count",
    "render.s": "s",
    "runner.cpu_util": "ratio",
    "verify.s": "s",
    "trace.wall_s": "s",
    "trace.other_s": "s",
    "trace.overhead_cpu_s": "s",
    "trace.spans": "count",
}

# glibc moves its mmap threshold up as large blocks are freed, so where the
# simulator's multi-megabyte cache arrays land (fresh mmap or a heap that
# then cannot shrink) varies between otherwise identical runs: mix-sweep's
# peak RSS read either 5.6 or 15.7 MB. Pinning the threshold at glibc's
# default starting value keeps every large block on mmap.
CHILD_ENV = {"MALLOC_MMAP_THRESHOLD_": "131072"}

BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(root):
    """Builds the benchmark binary and returns its path."""
    manifest = os.path.join(os.path.dirname(os.path.abspath(__file__)), "Cargo.toml")
    target = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target, CARGO_NET_OFFLINE="true")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build did not finish: {e}")
    if done.returncode != 0:
        fail("build failed")
    return os.path.join(target, "release", "a4-perfbench")


def run_binary(binary, args, timeout):
    """Runs the benchmark binary and returns its JSON result line."""
    try:
        done = subprocess.run([binary] + args, stdout=subprocess.PIPE, text=True,
                              env=dict(os.environ, **CHILD_ENV), timeout=timeout)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"run did not finish: {e}")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"run failed with exit code {done.returncode}")
    return json.loads(lines[-1])


def pick(metrics, wanted):
    out = {}
    for name, unit in wanted.items():
        value = metrics.get(name)
        if not isinstance(value, (int, float)):
            fail(f"metric {name} is missing or not a number")
        out[name] = {"value": value, "unit": unit}
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must not be negative")

    root = os.getcwd()
    binary = build(root)
    work = os.path.join(root, ".bench_work", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--work", work]
    try:
        # The traced invocation needs only one plain sweep, for its tables
        # and its CPU use; the timed rounds belong to --trace 0.
        seconds = args.seconds if args.trace == 0 else 0
        plain = run_binary(binary, common + ["--mode", "plain", "--seconds", str(seconds)],
                           RUN_TIMEOUT_S)
        failures = list(plain["failures"])
        attempted, failed = plain["attempted"], plain["failed"]
        if args.trace == 0:
            metrics = pick(plain["metrics"], END_TO_END)
        else:
            remaining = RUN_TIMEOUT_S - plain["metrics"]["wall_s"]
            traced = run_binary(binary, common + ["--mode", "traced", "--seconds", "0"],
                                remaining)
            failures += traced["failures"]
            attempted += traced["attempted"]
            failed += traced["failed"]
            with open(os.path.join(work, "tables-plain.json"), "rb") as f:
                plain_tables = f.read()
            with open(os.path.join(work, "tables-traced.json"), "rb") as f:
                traced_tables = f.read()
            if plain_tables != traced_tables:
                failures.append("traced tables differ from the plain run's")
                failed = attempted
            traces = os.path.join(root, ".bench_work", "traces")
            os.makedirs(traces, exist_ok=True)
            os.replace(os.path.join(work, "trace.json"),
                       os.path.join(traces, f"{args.workload}-seed{args.seed}.json"))
            metrics = pick(dict(traced["metrics"],
                                **{"runner.cpu_util": plain["metrics"]["runner.cpu_util"]}),
                           PER_LAYER)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for failure in failures:
        print(f"perfbench: check failed: {failure}", file=sys.stderr)
    correct = not failures and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
