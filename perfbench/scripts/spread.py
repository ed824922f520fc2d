#!/usr/bin/env python3
"""Runs the benchmark on every workload over several seeds and reports, per
metric, the median, the quartiles and the spread (interquartile distance
over the median), next to the bound BENCHMARK.json fixes for it.  With
`--against`, it also reports how far each median moved from an earlier
summary's, in the metric's worse direction.

Run from the repository root:

    python3 perfbench/scripts/spread.py                 # 10 seeds, all workloads
    python3 perfbench/scripts/spread.py --runs 5 --workloads sparse-churn
    python3 perfbench/scripts/spread.py --trace         # per-layer metrics
    python3 perfbench/scripts/spread.py --out perfbench/baseline/set-b.json \
        --against perfbench/baseline/set-a.json

Every bounded metric is checked, `setup_s` included: a spread above its
bound, or a median worse than the earlier summary's by more than its bound,
is flagged WIDE or WORSE.  Exits 1 if any run exits non-zero or reports
`"correct": false`, else 2 if any metric is flagged, else 0.
"""

import argparse
import json
import statistics
import subprocess
import sys


def cpu_ticks():
    """(steal, total) jiffies of all CPUs from /proc/stat, or None."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    # user nice system idle iowait irq softirq steal [guest guest_nice]
    return fields[7], sum(fields[:8])


def run_once(command, workload, seed, seconds, trace):
    """Runs one seed; returns its stamp (with the share of the host's CPU
    time stolen by the hypervisor while it ran), its result and its exit
    code."""
    before = cpu_ticks()
    args = command + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "1" if trace else "0",
    ]
    proc = subprocess.run(args, stdout=subprocess.PIPE, text=True)
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    if proc.returncode != 0 or len(lines) < 2:
        return None, None, proc.returncode
    stamp = json.loads(lines[-2]).get("stamp", {})
    after = cpu_ticks()
    if before and after and after[1] > before[1]:
        stamp["host_steal"] = (after[0] - before[0]) / (after[1] - before[1])
    return stamp, json.loads(lines[-1]), proc.returncode


def summarize(values):
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    spread = (q3 - q1) / median if median else float("inf")
    return {"median": median, "q1": q1, "q3": q3, "spread": spread}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=1, help="first seed; runs use seed0, seed0+1, ...")
    parser.add_argument("--workloads", default="", help="comma-separated; default: all")
    parser.add_argument("--seconds", type=int, default=0, help="default: run_seconds")
    parser.add_argument("--trace", action="store_true", help="per-layer metrics instead")
    parser.add_argument("--out", default="", help="write the summary as JSON here")
    parser.add_argument("--against", default="", help="an earlier summary to compare medians with")
    opts = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}
    earlier = {}
    if opts.against:
        with open(opts.against) as f:
            earlier = json.load(f)["workloads"]
    workloads = [w["name"] for w in bench["workloads"]]
    if opts.workloads:
        workloads = opts.workloads.split(",")
    seconds = opts.seconds or bench["run_seconds"]

    ok = True
    flagged = 0
    summary = {"runs": opts.runs, "seed0": opts.seed0, "seconds": seconds,
               "trace": opts.trace, "workloads": {}}
    for workload in workloads:
        values, stamps = {}, []
        units = {}
        for i in range(opts.runs):
            seed = opts.seed0 + i
            stamp, result, code = run_once(bench["command"], workload, seed, seconds, opts.trace)
            if result is None or not result["correct"]:
                ok = False
                print(f"{workload} seed {seed}: FAILED (exit {code})", file=sys.stderr)
                continue
            stamps.append(stamp)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
        rows = {}
        steal = [st["host_steal"] for st in stamps if "host_steal" in st]
        shown = f", host steal per run {min(steal):.1%}–{max(steal):.1%}" if steal else ""
        print(f"\n{workload}  ({len(stamps)} runs, {seconds} s each{shown})")
        print(f"  {'metric':34} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} "
              f"{'bound':>6} {'worse':>8}")
        before = earlier.get(workload, {}).get("metrics", {})
        for name, vals in values.items():
            s = summarize(vals)
            bound = bounds.get(name)
            # The share by which the median got worse than the earlier one
            # (negative: it got better).
            worse = None
            if name in before and before[name]["median"]:
                move = s["median"] / before[name]["median"] - 1
                worse = move if better[name] == "lower" else -move
            flags = []
            if bound is not None:
                flags.append("ok" if s["spread"] < bound / 3
                             else "within" if s["spread"] <= bound else "WIDE")
                if worse is not None and worse > bound:
                    flags.append("WORSE")
            flagged += sum(flag in ("WIDE", "WORSE") for flag in flags)
            shown = f"{worse:+8.4f}" if worse is not None else ""
            print(f"  {name:34} {s['median']:14.6g} {s['q1']:14.6g} {s['q3']:14.6g} "
                  f"{s['spread']:8.4f} {bound if bound is not None else '':>6} {shown:>8} "
                  f"{' '.join(flags)}")
            rows[name] = dict(s, unit=units[name], bound=bound, worse=worse, values=vals)
        summary["workloads"][workload] = {"metrics": rows, "stamps": stamps}

    if opts.out:
        with open(opts.out, "w") as f:
            json.dump(summary, f, indent=1)
            f.write("\n")
    if flagged:
        print(f"\n{flagged} flag(s): a spread or a move beyond its bound")
    return 1 if not ok else 2 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
