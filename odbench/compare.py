#!/usr/bin/env python3
"""Compares two sets of benchmark runs: a parent and a change.

    python3 odbench/compare.py PARENT CHANGE

PARENT and CHANGE are each a directory of files, or a list of files
separated by commas, holding the standard output of `odbench/run.py`
runs (one run per file). Runs are paired by workload and seed, else by
order. For every workload x end-to-end metric it prints each side's
median and quartiles, the fraction of pairs the change won, and a
verdict, following the rules in odbench/GLOSSARY.md:

  improved    the change wins at least 9/10 of the pairs (ties count for
              neither) and the medians differ by more than the parent's
              quartile spread
  worse       the change's median is worse than the parent's by more than
              the metric's bound in BENCHMARK.json
  unresolved  the parent's own spread (quartile distance over median) is
              wider than the bound, and not every change run beats every
              parent run
  unchanged   otherwise

Traced runs (--trace 1) are listed per layer metric, medians only.
Exit status is 1 when any verdict is `worse`.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_runs(spec):
    """{(workload, trace): [run]}, run = {"seed", "metrics": {name: value}}."""
    if os.path.isdir(spec):
        files = sorted(os.path.join(spec, f) for f in os.listdir(spec))
    else:
        files = spec.split(",")
    runs = {}
    for path in files:
        workload, seed, trace, metrics = None, None, 0, {}
        with open(path) as f:
            for line in f:
                try:
                    record = json.loads(line)
                except ValueError:
                    continue
                if record.get("record") == "metric":
                    workload, seed = record["workload"], record["seed"]
                    trace = record["trace"]
                    metrics[record["metric"]] = record["value"]
        if workload is not None:
            runs.setdefault((workload, trace), []).append(
                {"seed": seed, "metrics": metrics, "file": path})
    return runs


def bench_spec():
    path = os.path.join(HERE, "..", "BENCHMARK.json")
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m for m in spec["end_to_end"]}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def pairs(parent, change):
    by_seed = {r["seed"]: r for r in parent}
    if all(r["seed"] in by_seed for r in change):
        return [(by_seed[r["seed"]], r) for r in change]
    return list(zip(parent, change))


def verdict(p_vals, c_vals, paired, better, bound):
    """Returns (verdict, fraction of pairs won by the change)."""
    sign = 1 if better == "higher" else -1
    wins = sum(1 for p, c in paired if sign * (c - p) > 0)
    won = wins / len(paired) if paired else 0.0
    p_q1, p_med, p_q3 = quartiles(p_vals)
    c_med = statistics.median(c_vals)
    gain = sign * (c_med - p_med)
    if won >= 0.9 and gain > p_q3 - p_q1:
        return "improved", won
    if p_med and -gain > bound * abs(p_med):
        return "worse", won
    spread = (p_q3 - p_q1) / abs(p_med) if p_med else 0.0
    all_better = all(sign * (c - p) > 0 for c in c_vals for p in p_vals)
    if spread > bound and not all_better:
        return "unresolved", won
    return "unchanged", won


def main(argv):
    if len(argv) != 2 or argv[0] in ("-h", "--help"):
        print(__doc__.strip())
        return 0 if argv and argv[0] in ("-h", "--help") else 2
    parent, change = load_runs(argv[0]), load_runs(argv[1])
    spec = bench_spec()
    worse = False
    print(f"{'workload':8s} {'metric':16s} {'parent q1/median/q3':>32s} "
          f"{'change q1/median/q3':>32s} {'won':>5s}  verdict")
    for (workload, trace) in sorted(parent):
        if trace or (workload, trace) not in change:
            continue
        p_runs, c_runs = parent[(workload, 0)], change[(workload, 0)]
        paired = pairs(p_runs, c_runs)
        for name, metric in spec.items():
            p_vals = [r["metrics"][name] for r in p_runs
                      if name in r["metrics"]]
            c_vals = [r["metrics"][name] for r in c_runs
                      if name in r["metrics"]]
            if not p_vals or not c_vals:
                continue
            v, won = verdict(
                p_vals, c_vals,
                [(p["metrics"][name], c["metrics"][name]) for p, c in paired],
                metric["better"], metric["bound"])
            worse |= v == "worse"
            fmt = "{:.4g}/{:.4g}/{:.4g}"
            print(f"{workload:8s} {name:16s} "
                  f"{fmt.format(*quartiles(p_vals)):>32s} "
                  f"{fmt.format(*quartiles(c_vals)):>32s} "
                  f"{won:5.2f}  {v}  (n={len(p_vals)}/{len(c_vals)}, "
                  f"{metric['unit']})")
    for (workload, trace) in sorted(parent):
        if not trace or (workload, trace) not in change:
            continue
        p_runs, c_runs = parent[(workload, 1)], change[(workload, 1)]
        print(f"\n{workload} per layer (traced runs, medians)")
        for name in sorted(p_runs[0]["metrics"]):
            p_vals = [r["metrics"][name] for r in p_runs]
            c_vals = [r["metrics"].get(name, 0.0) for r in c_runs]
            p_med, c_med = statistics.median(p_vals), statistics.median(c_vals)
            ratio = f"{c_med / p_med:.3f}x" if p_med else "-"
            print(f"  {name:32s} {p_med:12.6g} {c_med:12.6g} {ratio:>8s}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
