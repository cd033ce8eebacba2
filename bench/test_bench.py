"""Tests of the benchmark itself:  python3 -m pytest bench -q"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import acscp.cli  # noqa: E402
from acscp import validate_params  # noqa: E402

import ab  # noqa: E402
import checks  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WARMUP, WORKLOADS, cp4_large_m_jobs, cp6_window_jobs  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = acscp.cli.main(list(argv))
    return rc, out.getvalue()


@pytest.mark.parametrize("seed", [0, 1, 17])
def test_generators_are_seeded_and_admissible(seed):
    for name, make in WORKLOADS.items():
        jobs = make(seed)
        assert jobs == make(seed)
        assert jobs != make(seed + 1)
        for argv in jobs:
            if argv[0] == "acs":
                p = checks.parse_argv(argv)
                validate_params(p["dim"], p["m"], p["n"], p.get("q"))


def test_warmup_jobs_are_never_measured():
    # seed 212 of cp6_window draws (m, n) = (0, 0), the warm-up's pair
    for name, make in WORKLOADS.items():
        assert not any(WARMUP[name] in make(seed) for seed in range(1000)), name


@pytest.mark.parametrize("seed", range(10))
def test_workloads_cover_their_ranges(seed):
    triples = [tuple(checks.parse_argv(a)[k] for k in "mnq") for a in cp6_window_jobs(seed)]
    assert len(set(triples)) == len(triples)
    assert any(m % 3 for m, _, _ in triples)
    ms = [checks.parse_argv(a)["m"] for a in cp4_large_m_jobs(seed)]
    assert {math.floor(math.log10(abs(m))) for m in ms} == {2, 3, 4, 5}
    assert all(100 <= abs(m) <= 10 ** 6 for m in ms)
    assert min(ms) < 0 < max(ms)


@pytest.mark.parametrize("argv", [
    ["acs", "--dim", "4", "--m", "6", "--n", "3"],
    ["acs", "--dim", "6", "--m", "16", "--n", "11", "--q", "23"],
])
def test_altered_decomposition_counts_as_failed(argv):
    rc, text = cli(argv)
    assert checks.check_job(argv, rc, text, None) == []
    doc = json.loads(text)
    doc["payload"]["solutions"][0]["decomposition"][1] += 1
    assert checks.check_job(argv, rc, json.dumps(doc), None)
    assert checks.check_job(argv, 1, text, None)
    assert checks.check_job(argv, rc, text, "ValueError: boom")


def test_verify_output_checks():
    argv = ["verify", "all", "--seed", "3"]
    rc, text = cli(argv)
    assert checks.check_job(argv, rc, text, None) == []
    doc = json.loads(text)
    doc["payload"]["checks"].pop()
    assert checks.check_job(argv, rc, json.dumps(doc), None)


def test_independent_routes_agree_with_the_program():
    from acscp import chern_from_multiplicities, pontrjagin_of_X
    for mults in [(1, 0, 2, -1), (3, -2, 0, 5, 1, -4), (-7, 2, 1, 0, 0, 3)]:
        assert checks.chern_from_decomposition(mults) == list(chern_from_multiplicities(mults))
    for d, m, n, q in [(4, 6, 3, None), (4, -8, 12, None), (6, 16, 11, 23), (6, 48, 12, -1747)]:
        X = validate_params(d, m, n, q)
        assert checks.pontrjagin_of_manifold(d, m, n, q) == list(pontrjagin_of_X(X))


def traced_reply(tracer, argv):
    """A one-job, one-pass trace reply as the worker builds it."""
    tracer.job = 0
    tracer.install()
    try:
        rc, seconds, text, error = worker.run_job(acscp.cli, argv)
    finally:
        problems = tracer.restore()
    return dict(tracer.totals([1.0]), names=tracer.names, raised=tracer.raised,
                items=tracer.items, unsized=tracer.unsized, spans=len(tracer.spans),
                trace_problems=problems, traced=[[seconds, 1.0]],
                untraced=[[seconds, 1.0]], outputs=[[rc, text, error]])


def test_traced_run_matches_untraced_and_restores():
    argv = ["acs", "--dim", "4", "--m", "-8", "--n", "12"]
    untraced = cli(argv)
    tracer = Tracer()
    originals = {"realizable": acscp.realizable, "suite": acscp.suites.SUITES["cp4"],
                 "main": acscp.cli.main}
    tracer.job = 0
    tracer.install()
    try:
        assert acscp.cli.main is not originals["main"]
        assert acscp.suites.SUITES["cp4"] is not originals["suite"]
        traced = cli(argv)
    finally:
        problems = tracer.restore()
    assert problems == []
    assert traced == untraced
    assert acscp.realizable is originals["realizable"]
    assert acscp.suites.SUITES["cp4"] is originals["suite"]
    assert acscp.cli.main is originals["main"]
    assert tracer.totals([1.0])["roots"] == [[tracer.names.index("cli.main")]]
    fid = tracer.names.index("exactmath.divisors_signed")
    assert tracer.items[fid] > 0 and tracer.unsized[fid] == 0


def test_traced_run_without_the_entry_span_is_incorrect():
    argv = ["acs", "--dim", "4", "--m", "-8", "--n", "12"]
    metrics, _, problems = run.per_layer(traced_reply(Tracer(), argv), [argv])
    assert problems == []
    assert metrics["trace.solutions"] == len(json.loads(cli(argv)[1])["payload"]["solutions"]) > 0
    tracer = Tracer()
    main = tracer.names.index("cli.main")
    tracer.bindings = [b for b in tracer.bindings if b[2] != main]
    _, _, problems = run.per_layer(traced_reply(tracer, argv), [argv])
    assert any("exactly one cli.main span" in p for p in problems)
    assert any("outside the cli.main spans" in p for p in problems)


def test_unsized_divisors_are_flagged(monkeypatch):
    argv = ["acs", "--dim", "4", "--m", "-8", "--n", "12"]
    original = acscp.exactmath.divisors_signed

    def divisors_signed(n):
        yield from original(n)

    divisors_signed.__module__ = "acscp.exactmath"
    for module in (acscp, acscp.exactmath, acscp.homotopy):
        monkeypatch.setattr(module, "divisors_signed", divisors_signed)
    tracer = Tracer()
    reply = traced_reply(tracer, argv)
    assert reply["outputs"][0][0] == 0
    _, _, problems = run.per_layer(reply, [argv])
    assert any("divisors_signed" in p for p in problems)


def test_metrics_cover_the_spec():
    jobs = [["verify", "all", "--seed", "0"]] * 3
    timings = [[0.1, 1.0], [0.2, 1.1], [0.3, 0.9]] * 2
    reply = {"untraced": timings, "peak_rss_mb": 20.0}
    metrics, _ = run.end_to_end(reply, jobs, [[0.05, 1.0]], 0, 6)
    assert {m["name"] for m in SPEC["end_to_end"]} == set(metrics)
    assert all(v > 0 for v in metrics.values())
    assert metrics["wall_s"] == pytest.approx(0.1 + 0.22 + 0.27)
    argv = ["acs", "--dim", "4", "--m", "-8", "--n", "12"]
    metrics, _, problems = run.per_layer(traced_reply(Tracer(), argv), [argv])
    assert {m["name"] for m in SPEC["per_layer"]} <= set(metrics)
    assert problems == []


def test_tail_percentile():
    assert run.tail_percentile(64) == 84
    assert run.tail_percentile(24) == 58
    assert run.tail_percentile(8) == 50


def test_ab_verdicts():
    base = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.1, 10.0, 10.2, 9.9]
    faster = [b * 0.8 for b in base]
    assert ab.verdict(base, faster, "lower", 0.1)[0] == "gain"
    assert ab.verdict(base, [b * 1.2 for b in base], "lower", 0.1)[0] == "regression"
    assert ab.verdict(base, list(base), "lower", 0.1)[0] == "within bound"
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert ab.verdict(noisy, [b * 0.98 for b in noisy], "lower", 0.1)[0] == "unresolved"
    assert ab.verdict(base, faster, "lower", 0.1, base_failed=0.0,
                      change_failed=0.1)[0] != "gain"


def test_run_without_sources_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "cp4_large_m",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
