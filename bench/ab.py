"""Compare two source trees with this benchmark, in alternating pairs.

    python3 bench/ab.py --base ../parent --change . --pairs 10

Both sides run this directory's ``run.py`` (identical benchmark code and
settings, every workload, ``run_seconds`` from BENCHMARK.json) against
``<root>/src`` of each tree.  Pair i uses seed ``FIRST_SEED + i`` on both
sides, and alternates which side runs first.
Prints one row per workload and end-to-end metric, plus one row per workload
for the failed share, with the verdict of the rule below:

* ``gain``: the change wins at least 9/10 of the pairs (ties count for
  neither) and the medians differ by more than the base's quartile spread,
  and the change fails no larger share of its jobs;
* ``unresolved``: the base's quartile spread is wider than the metric's
  bound, unless every change run beats every base run;
* ``regression``: the change's median is worse than the base's by more than
  the bound;
* ``within bound`` otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
FIRST_SEED = 1000           # away from the seeds the baseline was measured on


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base, change, better, bound, base_failed=0.0, change_failed=0.0):
    """Verdict of paired runs base[i], change[i] of one metric."""
    sign = 1 if better == "higher" else -1
    pairs = len(base)
    wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
    q1, med, q3 = quartiles(base)
    gain = sign * (statistics.median(change) - med)
    if wins >= 0.9 * pairs and gain > q3 - q1 and change_failed <= base_failed:
        return "gain", wins
    beats_all = (min(change) > max(base)) if sign > 0 else (max(change) < min(base))
    if med and (q3 - q1) / abs(med) > bound and not beats_all:
        return "unresolved", wins
    if -gain > bound * abs(med):
        return "regression", wins
    return "within bound", wins


def run_side(root, workload, seed):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]), "--trace", "0",
         "--src", str(Path(root).resolve() / "src")],
        capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise RuntimeError(f"{root} {workload} seed {seed}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def rows(records):
    """Table rows from {workload: {"base": [result, ...], "change": [...]}}."""
    out = []
    for workload, sides in records.items():
        base, change = sides["base"], sides["change"]
        failed = {side: sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
                  for side, runs in sides.items()}
        for metric in SPEC["end_to_end"]:
            name = metric["name"]
            b = [r["metrics"][name]["value"] for r in base]
            c = [r["metrics"][name]["value"] for r in change]
            word, wins = verdict(b, c, metric["better"], metric["bound"],
                                 failed["base"], failed["change"])
            out.append([workload, name, metric["unit"], *quartiles(b), *quartiles(c),
                        f"{wins}/{len(b)}", word])
        out.append([workload, "failed_share", "ratio", failed["base"], failed["base"],
                    failed["base"], failed["change"], failed["change"], failed["change"],
                    "-", "more failures" if failed["change"] > failed["base"] else "ok"])
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="root of the parent tree")
    parser.add_argument("--change", required=True, help="root of the changed tree")
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    records = {}
    for workload in (w["name"] for w in SPEC["workloads"]):
        sides = records.setdefault(workload, {"base": [], "change": []})
        for i in range(args.pairs):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for side in order:
                root = args.base if side == "base" else args.change
                sides[side].append(run_side(root, workload, FIRST_SEED + i))
    print(f"{'workload':12s} {'metric':12s} {'unit':5s} {'base q1/med/q3':>34s}"
          f" {'change q1/med/q3':>34s} {'wins':>6s}  verdict")
    for r in rows(records):
        print(f"{r[0]:12s} {r[1]:12s} {r[2]:5s} {r[3]:11.5g} {r[4]:11.5g} {r[5]:11.5g}"
              f" {r[6]:11.5g} {r[7]:11.5g} {r[8]:11.5g} {r[9]:>6s}  {r[10]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
