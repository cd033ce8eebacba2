"""Run one workload of the acscp benchmark and print its metrics.

    python3 bench/run.py --workload cp6_window --seed 1 --seconds 30 --trace 0

Closed loop: one measured process, one thread, one job at a time; every job
is one ``acscp.cli.main`` call in that process, with stdout captured.  The
seed only chooses the CLI arguments.  Outputs are checked by independent
routes after the measurement (``checks.py``).  Times are reported at the
reference speed (``worker.py``).

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, from untraced
passes; set-up time is the median over several fresh interpreters.
``--trace 1`` prints the per-layer metrics, from traced passes that alternate
with untraced ones; their stdout must match byte for byte, and the spans are
written to ``bench/out/``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Without the program's sources the
worker cannot import acscp and the run exits non-zero with no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
from workloads import WARMUP, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DEFAULT_SEED = 0
SETUP_SAMPLES = 6           # set-up-only interpreters before and again after the measured one
DEADLINE_S = 170            # a run must end within 180 s
UNATTRIBUTED_SHARE = 0.01   # most of a traced job's time must lie in its cli.main span


class WorkerFailed(RuntimeError):
    pass


def call_worker(request, deadline):
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerFailed("out of time before starting a worker")
    proc = subprocess.run([sys.executable, str(BENCH / "worker.py")],
                          input=json.dumps(request), capture_output=True,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        raise WorkerFailed(proc.stderr.strip()[-2000:] or f"exit code {proc.returncode}")
    return json.loads(proc.stdout)


def tail_percentile(n):
    """The highest whole percentile with at least ten of n jobs beyond it,
    but never below the median."""
    return max(50, math.floor(100 - 1000 / n))


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit(root):
    """HEAD of the git checkout at root, read without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def fingerprint(src, seed, jobs, executions):
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(), "nproc": os.cpu_count(),
            "cpu": cpu_model(), "commit": git_commit(src.parent),
            "seed": seed, "jobs": len(jobs), "executions": executions}


def job_failures(jobs, reply):
    """(failed executions, problems, attempted executions).  A job whose
    output fails a check fails in every pass; otherwise each execution whose
    output differs from the first pass's fails."""
    passes = (len(reply["untraced"]) + len(reply.get("traced", ()))) // len(jobs)
    failed, problems = 0, []
    for argv, (rc, text, error), differs in zip(jobs, reply["outputs"], reply["differs"]):
        found = checks.check_job(argv, rc, text, error)
        failed += passes if found else differs
        if differs:
            found.append(f"output differs from the first pass in {differs} passes")
        problems += [f"{' '.join(argv)}: {p}" for p in found]
    return failed, problems, passes * len(jobs)


def scaled(timings):
    """Execution times at the reference speed."""
    return [seconds * factor for seconds, factor in timings]


def pass_sums(values, n_jobs):
    """Per pass, the sum of its n_jobs consecutive job values."""
    return [sum(values[i:i + n_jobs]) for i in range(0, len(values), n_jobs)]


def end_to_end(reply, jobs, setups, failed, attempted):
    """Times are at the reference speed (see worker.py).  Job latencies are
    per job, the median over its passes, so the tail percentile depends on
    the job count only, not on how many passes fit."""
    n = len(jobs)
    times = scaled(reply["untraced"])
    per_job = [statistics.median(times[i::n]) for i in range(n)]
    p = tail_percentile(n)
    tail = statistics.quantiles(per_job, n=100, method="inclusive")[p - 1]
    metrics = {
        "setup_s": statistics.median(seconds * factor for seconds, factor in setups),
        "wall_s": statistics.median(pass_sums(times, n)),
        "job_p50_ms": 1000 * statistics.median(per_job),
        "job_tail_ms": 1000 * tail,
        "ok_ratio": (attempted - failed) / attempted,
        "peak_rss_mb": reply["peak_rss_mb"],
    }
    note = {"tail_percentile": p, "jobs": n, "jobs_beyond_tail": sum(x > tail for x in per_job),
            "setup_samples": len(setups), "passes": len(times) // n,
            "failed_ratio": failed / attempted,
            "raw_wall_s": statistics.median(pass_sums([s for s, _ in reply["untraced"]], n)),
            "raw_setup_s": statistics.median(seconds for seconds, _ in setups),
            "speed_factor": statistics.median(f for _, f in reply["untraced"])}
    return metrics, note


def per_layer(reply, jobs):
    """Per traced pass, at the reference speed: calls and self time of each
    public function, layer self times, ratios, and the tracing overhead; and
    the problems that make the traced run incorrect."""
    traced = reply["traced"]
    k = len(traced) // len(jobs)
    names = reply["names"]
    fid = {name: i for i, name in enumerate(names)}
    calls, self_ns = reply["calls"], reply["self_ns"]

    def count(name, table):
        return table[fid[name]] if name in fid else 0

    metrics = {}
    for i, name in enumerate(names):
        metrics[f"{name}.calls"] = calls[i] / k
        metrics[f"{name}.self_ms"] = self_ns[i] / 1e6 / k
        layer = name.split(".")[0] + ".self_ms"
        metrics[layer] = metrics.get(layer, 0.0) + self_ns[i] / 1e6 / k
    solutions = sum(checks.solution_count(argv, rc, text)
                    for argv, (rc, text, _) in zip(jobs, reply["outputs"]))
    divisors = count("exactmath.divisors_signed", reply["items"]) / k
    realizable = count("chernvec.realizable", calls)
    metrics["ktheory.total_chern.calls_per_solution"] = (
        count("ktheory.total_chern", calls) / k / solutions if solutions else 0.0)
    metrics["exactmath.divisors_signed.yield"] = solutions / divisors if divisors else 0.0
    metrics["chernvec.realizable.reject_ratio"] = (
        count("chernvec.realizable", reply["raised"]) / realizable if realizable else 0.0)
    metrics["homotopy.symbolic_cp6_numerators.incl_ms"] = (
        count("homotopy.symbolic_cp6_numerators", reply["incl_ns"]) / 1e6 / k)
    traced_ns = sum(scaled(traced)) * 1e9
    unattributed = sum((1e9 * seconds - root) * factor
                       for (seconds, factor), root in zip(traced, reply["root_ns"]))
    metrics["trace.unattributed_ms"] = unattributed / 1e6 / k
    metrics["trace.spans"] = reply["spans"] / k
    metrics["trace.solutions"] = solutions
    untraced_wall = statistics.median(pass_sums(scaled(reply["untraced"]), len(jobs)))
    traced_wall = statistics.median(pass_sums(scaled(traced), len(jobs)))
    metrics["trace.overhead_ratio"] = traced_wall / untraced_wall - 1
    problems = list(reply["trace_problems"])
    outside = sum(roots != [fid.get("cli.main")] for roots in reply["roots"])
    if outside:
        problems.append(f"{outside} of {len(traced)} traced jobs do not run inside"
                        " exactly one cli.main span")
    if unattributed > UNATTRIBUTED_SHARE * traced_ns:
        problems.append(f"{unattributed / traced_ns:.2%} of the traced time lies outside"
                        f" the cli.main spans (limit {UNATTRIBUTED_SHARE:.0%})")
    unsized = count("exactmath.divisors_signed", reply["unsized"])
    if unsized:
        problems.append(f"exactmath.divisors_signed returned {unsized} results without a"
                        " length, so its yield cannot be counted")
    note = {"traced_passes": k, "traced_wall_s": traced_wall, "untraced_wall_s": untraced_wall}
    return metrics, note, problems


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="the acscp source tree to measure (for A/B runs)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    deadline = time.monotonic() + DEADLINE_S
    src = args.src.resolve()
    jobs = WORKLOADS[args.workload](args.seed)
    request = {"src": str(src), "warmup": WARMUP[args.workload], "jobs": jobs,
               "seconds": args.seconds}
    try:
        if args.trace:
            out = BENCH / "out"
            out.mkdir(exist_ok=True)
            spans_path = out / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
            reply = call_worker(dict(request, mode="trace", spans_path=str(spans_path)),
                                deadline)
        else:
            setup = dict(request, mode="setup", jobs=[])
            setups = [call_worker(setup, deadline)["setup"] for _ in range(SETUP_SAMPLES)]
            reply = call_worker(dict(request, mode="measure"), deadline)
            setups += [reply["setup"]]
            setups += [call_worker(setup, deadline)["setup"] for _ in range(SETUP_SAMPLES)]
    except (WorkerFailed, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"bench: the measured process failed: {exc}", file=sys.stderr)
        return 1

    failed, problems, attempted = job_failures(jobs, reply)
    if args.seed == DEFAULT_SEED and not problems:
        got = checks.digest([checks.summary(argv, text)
                             for argv, (_, text, _) in zip(jobs, reply["outputs"])])
        stored = json.loads((BENCH / "digests.json").read_text(encoding="utf-8"))
        want = stored.get(args.workload)
        print(f"digest {got} (stored {want})")
        if got != want:
            problems.append(f"solution digest {got} != stored {want}")
    if args.trace:
        metrics, note, trace_problems = per_layer(reply, jobs)
        problems += trace_problems
        wanted = spec["per_layer"]
    else:
        metrics, note = end_to_end(reply, jobs, setups, failed, attempted)
        wanted = spec["end_to_end"]

    env = fingerprint(src, args.seed, jobs, attempted)
    print("env " + json.dumps(env, sort_keys=True))
    print("note " + json.dumps(note, sort_keys=True))
    for p in problems[:20]:
        print(f"problem {p}")
    result = {m["name"]: {"value": metrics.get(m["name"], 0.0), "unit": m["unit"]}
              for m in wanted}
    for name, v in result.items():
        print(f"{args.workload:12s} {name:48s} {v['value']:14.6g} {v['unit']}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
