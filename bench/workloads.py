"""Seeded job generators for the acscp benchmark.

Each workload turns a seed into a list of CLI argument vectors; the program
under test receives only those vectors.  The generators use the standard
library alone and never import acscp, so building the inputs costs nothing
inside a measured interpreter.

Why each workload exists (also recorded in BENCHMARK.json):

* ``cp6_window``: ``acs --dim 6`` with the default 200 x 200 window over
  distinct admissible triples.  Most of the time goes to building solutions
  (Pontrjagin classes through K-theory once per solution, then the Bareiss
  decomposition); divisors are never computed.
* ``cp4_large_m``: ``acs --dim 4`` with ``|m|`` log-uniform over
  ``[10^2, 10^6]``, one draw per stratum so every seed covers the whole range.
  Trial division makes the cost grow with ``|m|``; K-theory and
  ``realizable`` see at most a few dozen calls per job.
* ``verify_all``: ``verify all`` over successive seeds, the only workload that
  reaches the CP^5 structure, real reduction, the symbolic CP^6 pipeline and
  the golden CSV diffs.
"""

from __future__ import annotations

import random

CP6_JOBS = 24
CP6_K_RANGE = 40        # m = 16k with |k| <= CP6_K_RANGE
CP6_J_RANGE = 20        # n = n0(m) + 31j with |j| <= CP6_J_RANGE
CP4_STRATA = 64
CP4_LOG10 = (2, 6)      # |m| ranges over 10^2 .. 10^6
VERIFY_JOBS = 8

# One fixed, untimed job per workload: it fills the program's lazy caches
# before measuring.  None of them can occur in a generated job list.
WARMUP = {
    "cp6_window": ["acs", "--dim", "6", "--m", "0", "--n", "0", "--q", "0"],
    "cp4_large_m": ["acs", "--dim", "4", "--m", "6", "--n", "3"],
    "verify_all": ["verify", "all", "--seed", "-1"],
}


def acs_argv(d, m, n, q=None):
    argv = ["acs", "--dim", str(d), "--m", str(m), "--n", str(n)]
    if q is not None:
        argv += ["--q", str(q)]
    return argv


def cp6_q(m, n):
    """q solving 32m^3 - 252m^2 + 301m - 672mn + 1152n + 1488q = 0, or None."""
    num = 32 * m ** 3 - 252 * m * m + 301 * m - 672 * m * n + 1152 * n
    if num % 1488:
        return None
    return -num // 1488


def _cp6_n_residue(m):
    """The residue of n mod 31 admitted by m, or None (only m = 15 mod 31)."""
    for r in range(31):
        if (32 * m ** 3 - 252 * m * m + 301 * m - 672 * m * r + 1152 * r) % 31 == 0:
            return r
    return None


def cp6_window_jobs(seed, count=CP6_JOBS):
    """Distinct admissible triples (m, n, q).

    The constraint forces m = 0 (mod 16), holds mod 3 for every m, and fixes
    n mod 31; q then follows exactly from the division by 1488.
    """
    rng = random.Random(f"cp6_window:{seed}")
    seen = {(0, 0)}         # (m, n) of the warm-up job
    jobs = []
    while len(jobs) < count:
        m = 16 * rng.randint(-CP6_K_RANGE, CP6_K_RANGE)
        r = _cp6_n_residue(m)
        if r is None:
            continue
        n = r + 31 * rng.randint(-CP6_J_RANGE, CP6_J_RANGE)
        if (m, n) in seen:
            continue
        q = cp6_q(m, n)
        if q is None:
            raise AssertionError(f"constraint not integral at (m, n) = ({m}, {n})")
        seen.add((m, n))
        jobs.append(acs_argv(6, m, n, q))
    return jobs


def cp4_n(m):
    """n solving 4m^2 - 10m - 28n = 0, or None."""
    num = 4 * m * m - 10 * m
    return None if num % 28 else num // 28


def _admissible_cp4(t):
    """The m = 0, 6 (mod 14) nearest to t with 10^2 <= |m| <= 10^6."""
    lo, hi = (10 ** e for e in CP4_LOG10)
    near = [v for v in range(t - 13, t + 14)
            if v % 14 in (0, 6) and lo <= abs(v) <= hi]
    return min(near, key=lambda v: (abs(v - t), v))


def cp4_large_m_jobs(seed, strata=CP4_STRATA):
    """One m per stratum of log10|m| over CP4_LOG10, random sign, shuffled.

    Stratifying keeps the total work of a pass nearly seed-independent while
    the marginal distribution of |m| stays log-uniform.  The strata are drawn
    antithetically (stratum strata-1-k sits at 1-u where stratum k sits at u),
    so the middle jobs, which set job_p50_ms, hardly move with the seed.
    """
    rng = random.Random(f"cp4_large_m:{seed}")
    lo, hi = CP4_LOG10
    us = [rng.random() for _ in range(strata // 2)]
    us += [1 - u for u in reversed(us)]
    jobs = []
    for k, u in enumerate(us):
        x = lo + (hi - lo) * (k + u) / strata
        m = _admissible_cp4(rng.choice((1, -1)) * round(10 ** x))
        jobs.append(acs_argv(4, m, cp4_n(m)))
    rng.shuffle(jobs)
    return jobs


def verify_all_jobs(seed, count=VERIFY_JOBS):
    """`verify all` over the successive seeds seed*count .. seed*count+count-1."""
    return [["verify", "all", "--seed", str(seed * count + i)] for i in range(count)]


WORKLOADS = {
    "cp6_window": cp6_window_jobs,
    "cp4_large_m": cp4_large_m_jobs,
    "verify_all": verify_all_jobs,
}
