"""Run sets of benchmark runs, print their metrics, compare two sets.

    python3 perfbench/report.py sweep --seeds 1-10 [--trace 0|1] --out SET.jsonl
    python3 perfbench/report.py show SET.jsonl
    python3 perfbench/report.py compare BASE.jsonl NEW.jsonl

``sweep`` runs the benchmark command of BENCHMARK.json once per (workload,
seed) for every workload there, at its ``run_seconds``, one run at a time,
appends each result to SET.jsonl and then prints it as ``show`` does.  ``show``
prints every metric by name with its unit, median, quartiles and spread
(quartile distance over median), plus the pass/fail count.  ``compare``
prints both sets' medians and quartiles per workload and metric, and marks
an end-to-end metric whose median got worse by more than its bound.
Quartiles are ``statistics.quantiles(values, n=4)``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    return spec, metrics


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def load_set(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def group(records):
    """{(workload, trace): {metric: [values]}} plus pass/fail totals."""
    out, totals = {}, {}
    for rec in records:
        key = (rec["workload"], rec["trace"])
        res = rec["result"]
        t = totals.setdefault(key, [0, 0, 0, 0])  # runs, correct runs, attempted, failed
        t[0] += 1
        t[1] += bool(res and res["correct"])
        if not res:
            continue
        t[2] += res["attempted"]
        t[3] += res["failed"]
        for name, m in res["metrics"].items():
            out.setdefault(key, {}).setdefault(name, []).append(m["value"])
    return out, totals


def show(records):
    _, meta = load_spec()
    grouped, totals = group(records)
    for key in sorted(totals):
        runs, correct, attempted, failed = totals[key]
        frac = failed / attempted if attempted else float("nan")
        print(f"== {key[0]} (trace {key[1]}): {runs} runs, {correct} correct, "
              f"{attempted} jobs attempted, {failed} failed (failed_frac {frac:.4g})")
        print(f"   {'metric':30} {'unit':6} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        for name, values in grouped.get(key, {}).items():
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else float("nan")
            bound = meta.get(name, {}).get("bound")
            flag = " OVER" if bound is not None and spread > bound and name != "setup_s" else ""
            print(f"   {name:30} {meta.get(name, {}).get('unit', '?'):6} {med:12.5g} "
                  f"{q1:12.5g} {q3:12.5g} {spread:8.3f} "
                  f"{'' if bound is None else bound:>6}{flag}")


def compare(base, new):
    _, meta = load_spec()
    gb, _ = group(base)
    gn, _ = group(new)
    for key in sorted(set(gb) | set(gn)):
        print(f"== {key[0]} (trace {key[1]})")
        print(f"   {'metric':30} {'base median [q1, q3]':>36} {'new median [q1, q3]':>36} "
              f"{'change':>8}")
        for name in sorted(set(gb.get(key, {})) | set(gn.get(key, {}))):
            cols, meds = [], []
            for g in (gb, gn):
                values = g.get(key, {}).get(name)
                if not values:
                    cols.append(f"{'-':>36}")
                    meds.append(None)
                    continue
                q1, med, q3 = quartiles(values)
                meds.append(med)
                cols.append(f"{med:12.5g} [{q1:10.5g}, {q3:10.5g}]")
            change, verdict = "", ""
            if None not in meds and meds[0]:
                rel = (meds[1] - meds[0]) / abs(meds[0])
                change = f"{rel:+.3f}"
                m = meta.get(name, {})
                worse = -rel if m.get("better") == "higher" else rel
                if m.get("bound") is not None and worse > m["bound"]:
                    verdict = "  WORSE THAN BOUND"
            print(f"   {name:30} {cols[0]} {cols[1]} {change:>8}{verdict}")


def sweep(args):
    spec, _ = load_spec()
    records = []
    with open(args.out, "a", encoding="utf-8") as fh:
        for workload in (w["name"] for w in spec["workloads"]):
            for seed in parse_seeds(args.seeds):
                cmd = spec["command"][:]
                cmd[0] = sys.executable if cmd[0].startswith("python") else cmd[0]
                cmd += ["--workload", workload, "--seed", str(seed),
                        "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
                lines = proc.stdout.strip().splitlines()
                result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
                if result is None:
                    sys.stderr.write(proc.stderr)
                rec = {"workload": workload, "seed": seed, "trace": args.trace,
                       "result": result,
                       "notes": [line for line in lines if line.startswith("#")]}
                fh.write(json.dumps(rec) + "\n")
                fh.flush()
                records.append(rec)
                status = ("failed to run" if result is None else
                          f"{result['attempted']} jobs, {result['failed']} failed")
                print(f"# {workload} seed {seed}: {status}", flush=True)
    show(records)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("sweep", help="run the benchmark over seeds and record the results")
    p.add_argument("--seeds", required=True, help="e.g. 1-10 or 1,4,9")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--out", required=True)
    p = sub.add_parser("show", help="print every metric of a set of runs")
    p.add_argument("set")
    p = sub.add_parser("compare", help="compare two sets of runs")
    p.add_argument("base")
    p.add_argument("new")
    args = parser.parse_args(argv)
    if args.cmd == "sweep":
        sweep(args)
    elif args.cmd == "show":
        show(load_set(args.set))
    else:
        compare(load_set(args.base), load_set(args.new))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
