"""One measured interpreter of the acscp benchmark.

Reads a JSON request on stdin, imports acscp from the requested source tree,
runs the untimed warm-up job and then, closed-loop in this one thread, passes
over the job list through ``acscp.cli.main`` with stdout captured.  Writes one
JSON reply on stdout.  Modes:

* ``setup``: stop after the warm-up; reply with the set-up time only;
* ``measure``: untraced passes, per-execution latencies and the first pass's
  outputs;
* ``trace``: alternating untraced and traced passes, the traced totals per
  public function, and the spans written to ``spans_path``.

Every timing comes with a speed factor: REFERENCE_S over the time of a fixed
reference kernel measured right before and after it, in this interpreter.
A shared 2-vCPU Xeon VM was seen to change speed by up to 1.8x within tens of
seconds, for the program and the kernel alike; a time multiplied by its factor
is the time at the reference speed, which is what the metrics report.
"""

from __future__ import annotations

import contextlib
import gzip
import io
import json
import math
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

REFERENCE_S = 2e-3      # nominal kernel time: the scale of every reported time


def reference_kernel():
    """Exact elimination over Fractions, truncated series products of growing
    integers, and a trial-division loop: the operations the program's kernels
    are made of.  Stdlib only, so it runs the same code on every commit."""
    n = 6
    rows = [[Fraction((j + 1) ** (i + 1) + (i == j)) for j in range(n)] + [Fraction(i * i - 3)]
            for i in range(n)]
    for c in range(n):
        pivot = rows[c][c]
        rows[c] = [x / pivot for x in rows[c]]
        for r in range(n):
            if r != c and rows[r][c]:
                f = rows[r][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    series = [1] + [0] * 6
    for k in range(1, 7):
        for a in (17, -11):
            term = [1] + [0] * 6
            for _ in range(abs(a)):
                term = [term[i] + k * term[i - 1] if i else term[i] for i in range(7)]
            series = [sum(series[j] * term[i - j] for j in range(i + 1)) for i in range(7)]
    target = 246853090302361
    divisors = [d for d in range(1, 10000) if target % d == 0]
    return rows, series, divisors


def reference_time():
    """Best of two timings of the reference kernel."""
    best = math.inf
    for _ in range(2):
        start = time.perf_counter()
        reference_kernel()
        best = min(best, time.perf_counter() - start)
    return best


def run_job(cli, argv):
    """(exit code, seconds, stdout, error) of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.main(list(argv))
        except Exception as exc:   # a crashing job is a failed job, not a crashed run
            rc, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
    return rc, elapsed, out.getvalue(), error


class Passes:
    """Runs passes over one job list and keeps what the reply needs."""

    def __init__(self, cli, jobs):
        self.cli = cli
        self.jobs = jobs
        self.outputs = None             # [rc, stdout, error] per job, first pass
        self.untraced = []              # [seconds, speed factor] per execution
        self.traced = []                # the same for traced executions
        self.differs = [0] * len(jobs)  # executions whose output differs from the first

    def run(self, tracer=None):
        """One pass; returns its raw wall time, which only sizes the run."""
        timings = self.untraced if tracer is None else self.traced
        start = time.perf_counter()
        results = []
        for argv in self.jobs:
            if tracer is not None:
                tracer.job = len(self.traced)
            before = reference_time()
            rc, elapsed, text, error = run_job(self.cli, argv)
            factor = 2 * REFERENCE_S / (before + reference_time())
            timings.append([elapsed, factor])
            results.append([rc, text, error])
        wall = time.perf_counter() - start
        if self.outputs is None:
            self.outputs = results
        else:
            for i, result in enumerate(results):
                self.differs[i] += result != self.outputs[i]
        return wall


def main():
    req = json.load(sys.stdin)
    src = Path(req["src"]).resolve()
    sys.path.insert(0, str(src))
    before = reference_time()
    started = time.perf_counter()
    import acscp.cli
    if not Path(acscp.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"acscp was imported from {acscp.__file__}, not from {src}")
    rc, _, _, error = run_job(acscp.cli, req["warmup"])
    setup = time.perf_counter() - started
    if rc != 0:
        raise SystemExit(f"warm-up job {req['warmup']} failed: rc={rc} {error or ''}")
    reply = {"setup": [setup, 2 * REFERENCE_S / (before + reference_time())]}
    if req["mode"] == "setup":
        json.dump(reply, sys.stdout)
        return

    passes = Passes(acscp.cli, req["jobs"])
    seconds = req["seconds"]
    if req["mode"] == "measure":
        first = passes.run()
        for _ in range(max(1, round(seconds / first)) - 1):
            passes.run()
    else:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from spans import Tracer
        tracer = Tracer()
        problems = []

        def pair():
            wall = passes.run()
            tracer.install()
            try:
                wall += passes.run(tracer)
            finally:
                problems.extend(tracer.restore())
            return wall

        first = pair()
        for _ in range(max(1, round(seconds / first)) - 1):
            pair()
        scale = [factor for _, factor in passes.traced]
        reply.update(tracer.totals(scale), names=tracer.names, raised=tracer.raised,
                     items=tracer.items, unsized=tracer.unsized, spans=len(tracer.spans),
                     trace_problems=problems, traced=passes.traced)
        with gzip.open(req["spans_path"], "wt", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": tracer.names, "job_speed_factors": scale,
                                 "fields": ["fid", "start_ns", "end_ns", "parent", "job"]})
                     + "\n")
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    reply.update(untraced=passes.untraced, outputs=passes.outputs,
                 differs=passes.differs,
                 peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    json.dump(reply, sys.stdout)


if __name__ == "__main__":
    main()
