#!/usr/bin/env python3
"""Steadiness check: run workloads repeatedly on unchanged code, in two
interleaved sets, and say whether the sets agree within the bounds.

    python3 perfbench/steady.py [--workloads W,...] [--runs N]
                                [--seconds S] [--seed0 K] [--trace]

For every workload, runs 2N times with seeds seed0, seed0+1, ...;
even-numbered runs form set A and odd-numbered runs set B, so slow
drift of the host lands in both.  For each end-to-end metric it prints
both sets' median and quartiles, the spread (quartile distance over the
median) of all runs, and whether B's median is within the bound of A's
and each set's spread within the bound.  With --trace it then makes one
traced run per workload and prints the per-layer metrics with the
tracing overhead (the traced run's own ops_s / p50_ms / schedules_s
against the untraced medians).  Bounds come from BENCHMARK.json; the
metrics of workloads not listed there (the explorer's, and
durable-uniform's recover_s) use EXPLORE_BOUNDS and RECOVER_BOUND below.
Exits 1 if any run fails its checks or any metric disagrees.
"""
import argparse
import json
import statistics
import subprocess
import sys

EXPLORE_BOUNDS = {"schedules_s": ("higher", 0.15), "rss_mb": ("lower", 0.15)}
RECOVER_BOUND = {"recover_s": ("lower", 0.25)}  # durable-uniform only


def run_once(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "1" if trace else "0"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    )
    lines = out.stdout.strip().splitlines()
    res = json.loads(lines[-1]) if lines else None
    if out.returncode != 0 or res is None or not res["correct"]:
        print(f"  {workload} seed {seed}: FAILED (exit {out.returncode})")
        print("\n".join("    " + l for l in lines[-12:]))
        return None
    return res


def quartiles(vals):
    if len(vals) < 2:
        return vals[0], vals[0], vals[0]
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return q1, q2, q3


def main():
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser()
    names = [w["name"] for w in bench["workloads"]] + [
        "durable-uniform", "explore-flagship"]
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--runs", type=int, default=10, help="runs per set")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    bounds = {m["name"]: (m["better"], m["bound"]) for m in bench["end_to_end"]}
    ok = True
    for wl in args.workloads.split(","):
        wb = EXPLORE_BOUNDS if wl == "explore-flagship" else dict(bounds)
        if wl == "durable-uniform":
            wb.update(RECOVER_BOUND)
        sets = ([], [])
        shares = set()
        for i in range(2 * args.runs):
            res = run_once(wl, args.seed0 + i, args.seconds, False)
            if res is None:
                ok = False
                continue
            sets[i % 2].append(res["metrics"])
            shares.add(res["failed"] / res["attempted"])
        if not sets[0] or not sets[1]:
            continue
        print(f"\n{wl}: {len(sets[0])}+{len(sets[1])} runs, "
              f"failed share {sorted(shares)}")
        print(f"  {'metric':16} {'A q1/med/q3':>30} {'B q1/med/q3':>30}"
              f" {'spread':>7} {'shift':>7} {'bound':>6}  verdict")
        medians = {}
        for name, (better, bound) in wb.items():
            a = [m[name]["value"] for m in sets[0]]
            b = [m[name]["value"] for m in sets[1]]
            qa, qb = quartiles(a), quartiles(b)
            q = quartiles(a + b)
            spread = (q[2] - q[0]) / q[1] if q[1] else float("inf")
            worse = (qb[1] - qa[1]) / qa[1] if better == "lower" \
                else (qa[1] - qb[1]) / qa[1]
            spread_ok = max((x[2] - x[0]) / x[1] for x in (qa, qb)) <= bound
            agree = worse <= bound and spread_ok
            ok &= agree
            medians[name] = q[1]
            print(f"  {name:16} {qa[0]:9.4g} {qa[1]:9.4g} {qa[2]:9.4g}   "
                  f"{qb[0]:9.4g} {qb[1]:9.4g} {qb[2]:9.4g} {spread:7.3f}"
                  f" {worse:+7.3f} {bound:6.2f}  "
                  f"{'ok' if agree else 'DISAGREE'}"
                  f"{'' if spread < bound / 3 else ' (spread above a third of the bound)'}")
        if args.trace:
            res = run_once(wl, args.seed0, args.seconds, True)
            if res is None:
                ok = False
                continue
            print(f"  traced run (seed {args.seed0}):")
            for name, m in res["metrics"].items():
                print(f"    {name:36} {m['value']:14.6g} {m['unit']}")
            for name in ("ops_s", "p50_ms", "schedules_s"):
                t = res["metrics"].get("trace." + name)
                if t and name in medians:
                    print(f"    tracing overhead on {name}: "
                          f"{(t['value'] - medians[name]) / medians[name]:+.1%}")
    print("\nsteady" if ok else "\nNOT STEADY")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
