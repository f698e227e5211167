#!/usr/bin/env python3
"""Benchmark two checkouts against each other in alternating pairs.

Usage, from anywhere:

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload ingest-baselines \\
        --seeds 21-30 --out BENCH_13.json [--workload train-small ...]

PARENT_DIR and CHANGE_DIR are source checkouts, each with its own
``perfbench/run.py``.  For every seed the script runs
``python3 perfbench/run.py --workload W --seed S --seconds N --trace 0``
once in each checkout, one run at a time, with N the ``run_seconds`` of
the change's ``BENCHMARK.json``; the side that runs first
alternates from seed to seed, so drift on a shared machine falls on both
sides alike.  It then writes, per workload, the inclusive quartiles of
each end-to-end metric of ``BENCHMARK.json`` on both sides and of its
per-pair change/parent ratio, the number of pairs in which the change was
strictly better, every run's value, and a verdict per metric (see
``verdict``).  Both runs of a pair share the machine's state, so the
ratio's spread is often tighter than either side's.

The output has the layout of ``BENCH_10.json``: ``machine`` (from the run
record of the first run), ``method`` and ``workloads``.  An existing
``--out`` file keeps its other keys and workloads, and the file is
rewritten after each workload, so a long session can be resumed one
workload at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

METHOD = ("python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} --trace 0, "
          "run one at a time from a clean checkout of each side; seeds {seeds}, one "
          "parent/change pair per seed, the side that runs first alternating; quartiles are "
          "inclusive")


def parse_seeds(text: str) -> list:
    """'21-30' or '21,23,25' (or a mix) as a list of ints."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> tuple:
    """One untraced run; returns (metric values, run record)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{checkout}: {' '.join(cmd)} exited {proc.returncode}\n"
                         f"{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    record = next(json.loads(line[len("record "):]) for line in lines
                  if line.startswith("record "))
    return {name: m["value"] for name, m in result["metrics"].items()}, record


def quartiles(values: list) -> dict:
    if len(values) < 2:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": round(q1, 4), "median": round(median, 4), "q3": round(q3, 4)}


def verdict(parent: list, change: list, better: str, bound: float) -> str:
    """One metric's paired runs judged against its ``BENCHMARK.json`` bound.

    ``parent`` and ``change`` hold one value per pair, in pair order;
    ``better`` is ``"higher"`` or ``"lower"``.  In the order tested:

    - ``unresolved``: the parent's IQR exceeds ``bound`` times its median,
      and not every change run beats every parent run;
    - ``gain``: the change wins at least 9 of 10 pairs, and its median beats
      the parent's by more than the parent's IQR;
    - ``worse``: the change's median is worse than the parent's by more than
      ``bound`` of the parent's median;
    - ``within_bound``: anything else.
    """
    sign = 1 if better == "higher" else -1
    p, c = quartiles(parent), quartiles(change)
    iqr, scale = p["q3"] - p["q1"], abs(p["median"])
    separated = min(sign * v for v in change) > max(sign * v for v in parent)
    if iqr > bound * scale and not separated:
        return "unresolved"
    wins = sum(sign * (b - a) > 0 for a, b in zip(parent, change))
    ahead = sign * (c["median"] - p["median"])
    if 10 * wins >= 9 * len(parent) and ahead > iqr:
        return "gain"
    if -ahead > bound * scale:
        return "worse"
    return "within_bound"


def machine_of(record: dict) -> dict:
    keys = ("machine", "nproc", "blas", "blas_threads", "python", "numpy", "dyadsync")
    machine = {key: record.get(key) for key in keys}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                machine["cpu"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return machine


def bench_workload(parent: Path, change: Path, workload: str, seeds: list, seconds: float,
                   better: dict, bounds: dict) -> tuple:
    """Alternating pairs of one workload; returns (summary, first run record)."""
    values = {"parent": {}, "change": {}}
    record = None
    for k, seed in enumerate(seeds):
        sides = [("parent", parent), ("change", change)]
        for side, checkout in (sides if k % 2 == 0 else sides[::-1]):
            metrics, rec = run_once(checkout, workload, seed, seconds)
            record = record or rec
            for name, value in metrics.items():
                values[side].setdefault(name, []).append(value)
            print(f"{workload} seed {seed} {side}: "
                  + " ".join(f"{n}={v:.4g}" for n, v in sorted(metrics.items())),
                  file=sys.stderr, flush=True)
    names = [name for name in better if name in values["parent"]]
    wins, ratios = {}, {}
    for name in names:
        pairs = list(zip(values["parent"][name], values["change"][name]))
        sign = 1 if better[name] == "higher" else -1
        wins[name] = sum(sign * (c - p) > 0 for p, c in pairs)
        per_pair = [c / p for p, c in pairs if p]  # a parent value of 0 has no ratio
        if per_pair:
            ratios[name] = quartiles(per_pair)
    summary = {
        "pairs": len(seeds),
        "seeds": seeds,
        "parent": {name: quartiles(values["parent"][name]) for name in names},
        "change": {name: quartiles(values["change"][name]) for name in names},
        "change_over_parent": ratios,
        "change_better_in_pairs": wins,
        "verdicts": {name: verdict(values["parent"][name], values["change"][name],
                                   better[name], bounds[name]) for name in names},
        "values": {side: {name: values[side][name] for name in names} for side in values},
    }
    return summary, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", action="append", required=True,
                        help="a perfbench workload; repeat for several")
    parser.add_argument("--seeds", required=True, help="e.g. 21-30")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--title", help="what the change is, stored as 'title'")
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]

    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    if args.title:
        doc["title"] = args.title
    doc["method"] = METHOD.format(seconds=seconds, seeds=args.seeds)
    for workload in args.workload:
        summary, record = bench_workload(args.parent.resolve(), args.change.resolve(),
                                         workload, seeds, seconds, better, bounds)
        doc.setdefault("machine", machine_of(record))
        doc.setdefault("workloads", {})[workload] = summary
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
