#!/usr/bin/env python3
"""Alternating A/B comparison of two checkouts on one perfbench workload.

    python3 tools/perf_ab.py --a PARENT_DIR --b CHANGE_DIR --workload expand-d6 \\
        --pairs 10 [--seconds 45] [--seed 1]

Each checkout runs its own `perfbench/run.py --trace 0` (built into its own
`.bench_build`), one fresh process per run, in ABBA order: pair i runs A
first when i is even and B first when it is odd, so a drift in the host's
load hits both sides alike. For each end-to-end metric that BENCHMARK.json
declares, it prints each side's median [Q1, Q3], the ratio of medians B/A,
and in how many pairs B was better (ties count for neither side). It exits
nonzero if any run is not `correct`.
"""

import json
import os
import statistics
import subprocess
import sys

FLAGS = ("--a", "--b", "--workload", "--pairs", "--seconds", "--seed")


def fail(message):
    print(f"perf_ab: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv):
    args = {"--seconds": "45", "--seed": "1"}
    if len(argv) % 2:
        fail("every flag takes one value")
    for flag, value in zip(argv[::2], argv[1::2]):
        if flag not in FLAGS:
            fail(f"unknown flag {flag} (expected one of {', '.join(FLAGS)})")
        args[flag] = value
    missing = [f for f in ("--a", "--b", "--workload", "--pairs") if f not in args]
    if missing:
        fail(f"missing {', '.join(missing)}")
    for side in ("--a", "--b"):
        if not os.path.isfile(os.path.join(args[side], "perfbench", "run.py")):
            fail(f"{args[side]} is not a checkout with perfbench/run.py")
    if not args["--pairs"].isdigit() or int(args["--pairs"]) < 1:
        fail("--pairs must be a positive integer")
    return args


def run(checkout, args):
    """One untraced run of `checkout`'s own benchmark; returns its metrics."""
    env = dict(os.environ)
    # Each checkout builds into its own .bench_build.
    env.pop("CARGO_TARGET_DIR", None)
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", args["--workload"],
           "--seed", args["--seed"], "--seconds", args["--seconds"], "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, check=False)
    lines = [line for line in done.stdout.splitlines() if line.strip()]
    result = json.loads(lines[-1]) if lines else None
    if done.returncode != 0 or result is None or not result.get("correct") or result.get("failed"):
        summary = result and {k: result.get(k) for k in ("correct", "attempted", "failed")}
        print(f"  {checkout}: run not correct (exit {done.returncode}, {summary})")
        return None
    return {name: m["value"] for name, m in result["metrics"].items()}


def summary(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def main():
    args = parse_args(sys.argv[1:])
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]
    pairs = int(args["--pairs"])
    sides = {"A": args["--a"], "B": args["--b"]}
    results = {"A": [], "B": []}
    ok = True
    for i in range(pairs):
        order = ("A", "B") if i % 2 == 0 else ("B", "A")
        pair = {}
        for side in order:
            pair[side] = run(sides[side], args)
            ok &= pair[side] is not None
        if pair["A"] is None or pair["B"] is None:
            continue
        for side in "AB":
            results[side].append(pair[side])
        shown = "  ".join(f"{m['name']} {pair['A'][m['name']]:.6g} / {pair['B'][m['name']]:.6g}"
                          for m in metrics if m["name"] in pair["A"])
        print(f"pair {i} ({order[0]} first): A / B  {shown}", flush=True)
    done = len(results["A"])
    print(f"{args['--workload']}: {done} pairs of {args['--seconds']}-s runs, seed {args['--seed']}; "
          f"A = {sides['A']}, B = {sides['B']}")
    if done:
        print(f"{'metric':<12} {'A median [Q1, Q3]':>34} {'B median [Q1, Q3]':>34} {'B/A':>7}  pairs")
    for m in metrics if done else []:
        name, lower = m["name"], m["better"] == "lower"
        a = [r[name] for r in results["A"] if name in r]
        b = [r[name] for r in results["B"] if name in r]
        if len(a) != done or len(b) != done:
            continue
        (am, aq1, aq3), (bm, bq1, bq3) = summary(a), summary(b)
        better = sum(1 for x, y in zip(a, b) if (y < x if lower else y > x))
        ratio = f"{bm / am:.3f}" if am else "n/a"
        a_col, b_col = f"{am:.6g} [{aq1:.6g}, {aq3:.6g}]", f"{bm:.6g} [{bq1:.6g}, {bq3:.6g}]"
        print(f"{name:<12} {a_col:>34} {b_col:>34} {ratio:>7}  "
              f"B {'lower' if lower else 'higher'} in {better} of {done} pairs")
    if not ok:
        print("perf_ab: some runs were not correct")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
