#!/usr/bin/env python3
"""Steadiness report for the hierbus benchmark.

Runs the command in BENCHMARK.json several times per workload, each
time with another seed, and prints for every metric the median, the
quartiles (statistics.quantiles(values, n=4)) and the spread
(q3 - q1) / median, next to the metric's bound. Run it from the root
of the repository:

    python3 hbnbench/steadiness.py --runs 10 --out hbnbench/STEADINESS.md

With --trace 1 it reports the per-layer metrics instead. With
--same-seed it repeats one seed instead, which shows the exact
(simulated) metrics repeating bit for bit.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# The exact (simulated) end-to-end metrics: identical in every run of a seed.
EXACT = {"makespan_slots", "online_congestion", "competitive_ratio"}


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    started = time.monotonic()
    proc = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    provenance = json.loads(lines[-2])["provenance"]
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect result {result}")
    return result, provenance, wall


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--same-seed", action="store_true",
                        help="repeat --first-seed instead of varying the seed")
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seconds", type=int, help="default: run_seconds")
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    parser.add_argument("--out", help="also write the report to this file")
    opts = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = opts.seconds or bench["run_seconds"]
    workloads = opts.workload or [w["name"] for w in bench["workloads"]]
    metrics = bench["per_layer"] if opts.trace else bench["end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in metrics}

    report = []
    say = report.append
    say(f"# Steadiness report ({'per-layer' if opts.trace else 'end-to-end'})")
    say("")
    seeds = [opts.first_seed + (0 if opts.same_seed else i) for i in range(opts.runs)]
    say(f"runs per workload: {opts.runs}, seeds: {seeds}, seconds: {seconds}")
    worst = {}
    for workload in workloads:
        values, walls, provenance = {}, [], None
        for seed in seeds:
            result, provenance, wall = run_once(bench["command"], workload, seed,
                                                seconds, opts.trace)
            walls.append(wall)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: {wall:.1f} s", file=sys.stderr)
        prov = {k: provenance[k] for k in ("commit", "nproc", "profile")}
        say("")
        say(f"## {workload}")
        say("")
        say(f"provenance: {json.dumps(prov)}; wall per run: "
            f"{min(walls):.1f}-{max(walls):.1f} s")
        say("")
        say("| metric | median | q1 | q3 | spread | bound | bound/3 ok |")
        say("|---|---|---|---|---|---|---|")
        for m in metrics:
            name, vals = m["name"], values[m["name"]]
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds[name]
            ok = "" if bound is None else ("yes" if spread < bound / 3 else "NO")
            if bound is not None and name != "setup_s":
                worst[(workload, name)] = spread / bound
            if opts.same_seed and name in EXACT and len(set(vals)) != 1:
                ok += " (exact metric varies!)"
            say(f"| {name} | {med:.6g} | {q1:.6g} | {q3:.6g} | {spread:.4f} | "
                f"{'' if bound is None else bound} | {ok} |")
    if worst:
        (w, n), share = max(worst.items(), key=lambda kv: kv[1])
        say("")
        say(f"largest spread relative to its bound: {n} on {w}, {share:.2f} x bound")
    text = "\n".join(report) + "\n"
    print(text)
    if opts.out:
        Path(opts.out).write_text(text)


if __name__ == "__main__":
    main()
