#!/usr/bin/env python3
"""Build and run the consensus-lab benchmark (see perfbench/README.md).

One run, from the root of a checkout:

    python3 perfbench/run.py --workload stats-d5 --seed 1 --seconds 20 --trace 0

builds the benchmark package (its own Cargo workspace, in `perfbench/`)
against the repository's crates, runs one workload, and passes the
benchmark's output through: its last line is one JSON object with
`correct`, `attempted`, `failed` and `metrics`.

Steadiness mode reruns a workload N times untraced and N times traced,
each in a fresh process, with one seed:

    python3 perfbench/run.py --steady 5 --workload expand-d6 [--seconds 45] [--seed 1]

It prints the median, quartiles and spread ((Q3 - Q1) / median, quartiles
as `statistics.quantiles(values, n=4)` gives them) of every end-to-end
metric beside its bound from BENCHMARK.json, and fails if any run is not
correct or any exact per-layer counter differs between the traced runs.
"""

import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(HERE, "Cargo.toml")
WORK_DIR = os.path.join(ROOT, ".bench_build", "perfbench-work")
# The program crates the benchmark builds against.
REQUIRED = ["crates/lab/Cargo.toml", "crates/serve/Cargo.toml", "crates/cluster/Cargo.toml"]
# One run must end within 180 s; leave room for the build check.
RUN_TIMEOUT_S = 175
DEFAULT_SEED = 1

# Per-layer counters that must repeat exactly across runs of one seed.
EXACT = [
    "cache.hits", "cache.builds", "cache.ladder_hits",
    "expand.runs", "expand.views",
    "journal.stores",
    "cluster.shards", "cluster.retries", "cluster.rebalances",
    "spotcheck.audits",
    "requests.hits", "requests.misses",
]


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv):
    args = {"--seed": str(DEFAULT_SEED), "--seconds": "10", "--trace": "0"}
    i = 0
    while i < len(argv):
        flag = argv[i]
        if flag not in ("--workload", "--seed", "--seconds", "--trace", "--steady") or i + 1 >= len(argv):
            fail(f"unknown flag or missing value: {flag}")
        args[flag] = argv[i + 1]
        i += 2
    if "--workload" not in args:
        fail("--workload is required")
    return args


def build():
    """Build the benchmark binary; returns its path."""
    missing = [p for p in REQUIRED if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        fail(f"not a checkout of the consensus lab (missing {', '.join(missing)})")
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
        env["CARGO_TARGET_DIR"] = target
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr, check=False)
    if done.returncode != 0:
        fail(f"build failed ({' '.join(cmd)} exited {done.returncode})")
    return os.path.join(target, "release", "perfbench")


def run_once(binary, workload, seed, seconds, trace, capture=False):
    """Run one workload in a fresh process; returns (exit code, stdout)."""
    os.makedirs(WORK_DIR, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--work-dir", WORK_DIR]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL if capture else None,
                              text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)
    return done.returncode, done.stdout


def last_json(stdout):
    lines = [line for line in stdout.splitlines() if line.strip()]
    return json.loads(lines[-1]) if lines else None


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def steady(binary, args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    n = int(args["--steady"])
    workload, seconds, seed = args["--workload"], args["--seconds"], args["--seed"]
    ok = True
    results = {0: [], 1: []}
    for trace in (0, 1):
        for i in range(n):
            code, out = run_once(binary, workload, seed, seconds, trace, capture=True)
            result = last_json(out)
            if code != 0 or result is None or not result.get("correct"):
                print(f"run {i} (trace {trace}, seed {seed}) failed: exit {code}, {result and {k: result[k] for k in ('correct', 'attempted', 'failed')}}")
                ok = False
                continue
            results[trace].append(result["metrics"])
            print(f"run {i} (trace {trace}, seed {seed}) done", file=sys.stderr)
    print(f"{workload}: {len(results[0])} untraced runs of {seconds} s, seed {seed}")
    print(f"{'metric':<14} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name, bound in bounds.items():
        values = [m[name]["value"] for m in results[0] if name in m]
        if len(values) < 2:
            continue
        q1, q2, q3, s = spread(values)
        flag = "" if s <= bound / 3 else "  <-- above bound/3"
        print(f"{name:<14} {q2:>12.6g} {q1:>12.6g} {q3:>12.6g} {s:>8.4f} {bound:>6}{flag}")
    for name in EXACT:
        values = {m[name]["value"] for m in results[1] if name in m}
        if len(values) > 1:
            print(f"exact counter {name} differs between runs: {sorted(values)}")
            ok = False
    return 0 if ok else 1


def main():
    args = parse_args(sys.argv[1:])
    binary = build()
    if "--steady" in args:
        sys.exit(steady(binary, args))
    code, out = run_once(binary, args["--workload"], args["--seed"], args["--seconds"], args["--trace"])
    sys.stdout.write(out)
    sys.stdout.flush()
    sys.exit(code)


if __name__ == "__main__":
    main()
