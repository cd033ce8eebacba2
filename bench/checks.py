"""Independent checks of the CLI's outputs, run outside the timed region.

Nothing here imports acscp.  Every emitted structure is re-derived by routes
that share no code with the program:

* the Chern vector is rebuilt from the decomposition as the truncated product
  of (1 + k u)^(a_k), expanded by the binomial series (the program decomposes
  by Bareiss elimination);
* the Pontrjagin classes of that Chern vector, p_k = (-1)^k [c(E) c(conj E)]_2k,
  must equal the closed formulas of the manifold (the program computes them
  through K-theory);
* the top Chern class is the Euler number d + 1, and c_1 (and c_3) are the
  searched coefficients;
* for CP^4 every a divides the divisor target, recomputed here.
"""

from __future__ import annotations

import hashlib
import json
from math import comb

VERIFY_CHECKS = 39          # checks reported by `verify all` at this revision
CP6_WINDOW = {"a_max": 200, "c_max": 200}


def _int(x):
    """JSON integers beyond 2^53 arrive as decimal strings."""
    if isinstance(x, bool) or not isinstance(x, (int, str)):
        raise ValueError(f"not an integer: {x!r}")
    return int(x)


def chern_from_decomposition(mults):
    """Coefficients c_1..c_d of prod_k (1 + k u)^(a_k) modulo u^(d+1)."""
    d = len(mults)
    series = [1] + [0] * d
    for k, a in enumerate(mults, start=1):
        factor = [_binom(a, i) * k ** i for i in range(d + 1)]
        series = [sum(series[j] * factor[i - j] for j in range(i + 1))
                  for i in range(d + 1)]
    return series[1:]


def _binom(a, i):
    """Generalised binomial coefficient C(a, i) for any integer a."""
    if a >= 0:
        return comb(a, i)
    return (-1) ** i * comb(i - a - 1, i)


def pontrjagin_from_chern(chern):
    """(p_1, ..., p_(d/2)) of the underlying real bundle of E."""
    c = [1] + list(chern)
    d = len(chern)
    out = []
    for k in range(1, d // 2 + 1):
        total = sum((-1) ** j * c[2 * k - j] * c[j] for j in range(2 * k + 1))
        out.append((-1) ** k * total)
    return out


def pontrjagin_of_manifold(d, m, n, q=None):
    """Closed formulas for the Pontrjagin classes of the homotopy CP^d."""
    if d == 4:
        return [5 + 24 * m, 10 + (576 * m * m + 240 * m) // 7]
    return [7 + 24 * m,
            21 + 288 * m * m - 432 * m - 1440 * n,
            35 + 2304 * m ** 3 - 12384 * m * m + 11592 * m
            - 34560 * m * n + 40320 * n + 60480 * q]


def cp4_divisor_target(m):
    return 25 + 3 * ((576 * m * m + 240 * m) // 7)


def parse_argv(argv):
    """{"dim": d, "m": m, ...} from an `acs` argument vector."""
    return {argv[i][2:]: int(argv[i + 1]) for i in range(1, len(argv), 2)}


def _solutions(doc):
    """Normalised (a, c, chern, decomposition) tuples of an `acs` payload."""
    out = []
    for s in doc["payload"]["solutions"]:
        c = _int(s["c"]) if "c" in s else None
        out.append((_int(s["a"]), c, [_int(x) for x in s["chern"]],
                    [_int(x) for x in s["decomposition"]]))
    return out


def check_acs(argv, rc, text):
    """Problems found in one `acs` job's output; empty when it is correct."""
    if rc != 0:
        return [f"exit code {rc}"]
    doc = json.loads(text)
    if doc.get("status") != "ok":
        return [f"status {doc.get('status')!r}"]
    p = parse_argv(argv)
    d = p["dim"]
    payload = doc["payload"]
    problems = []
    params = {k: _int(v) for k, v in payload["params"].items()}
    want = {k: p[k] for k in ("m", "n", "q") if k in p}
    if payload["dim"] != d or params != want:
        problems.append(f"echoed parameters {payload['dim']}, {params} != {d}, {want}")
    sols = _solutions(doc)
    pont = pontrjagin_of_manifold(d, p["m"], p["n"], p.get("q"))
    for a, c, chern, dec in sols:
        tag = f"a={a}" + ("" if c is None else f", c={c}")
        if len(chern) != d or len(dec) != d:
            problems.append(f"{tag}: lengths {len(chern)}, {len(dec)} != {d}")
            continue
        if chern_from_decomposition(dec) != chern:
            problems.append(f"{tag}: decomposition {dec} does not give chern {chern}")
        if chern[0] != a or chern[-1] != d + 1 or (d == 6 and chern[2] != c):
            problems.append(f"{tag}: chern {chern} does not match (a, c) or Euler {d + 1}")
        if pontrjagin_from_chern(chern) != pont:
            problems.append(f"{tag}: Pontrjagin classes differ from the manifold's {pont}")
    keys = [(a, c) for a, c, _, _ in sols]
    if keys != sorted(set(keys)):
        problems.append("solutions are not strictly increasing")
    if d == 4:
        target = cp4_divisor_target(p["m"])
        if _int(payload["divisor_target"]) != target:
            problems.append(f"divisor target {payload['divisor_target']} != {target}")
        if [_int(x) for x in payload["a_values"]] != [a for a, _ in keys]:
            problems.append("a_values differ from the solutions")
        if any(target % a for a, _ in keys):
            problems.append("a solution does not divide the divisor target")
    else:
        if payload["window"] != CP6_WINDOW or payload["exists"] is not True:
            problems.append(f"window {payload['window']} or exists {payload['exists']}")
        if any(abs(a) > CP6_WINDOW["a_max"] or abs(c) > CP6_WINDOW["c_max"]
               for a, c in keys):
            problems.append("a solution lies outside the window")
        if (1, 1) not in keys:
            problems.append("the structure (c_1, c_3) = (1, 1) is missing")
    return problems


def check_verify(argv, rc, text):
    """Problems found in one `verify` job's output; empty when it is correct."""
    if rc != 0:
        return [f"exit code {rc}"]
    doc = json.loads(text)
    payload = doc["payload"]
    problems = []
    if doc.get("status") != "ok" or payload.get("all_pass") is not True:
        problems.append(f"status {doc.get('status')!r}, all_pass {payload.get('all_pass')!r}")
    checks = payload["checks"]
    if len(checks) != VERIFY_CHECKS:
        problems.append(f"{len(checks)} checks, expected {VERIFY_CHECKS}")
    problems += [f"check {c['name']} failed" for c in checks if c.get("pass") is not True]
    return problems


def check_job(argv, rc, text, error):
    """Problems of one job; a job that raised or printed garbage fails."""
    if error is not None:
        return [f"raised {error}"]
    try:
        if argv[0] == "acs":
            return check_acs(argv, rc, text)
        return check_verify(argv, rc, text)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


def solution_count(argv, rc, text):
    """Solutions an `acs` job printed; 0 for `verify` jobs and failed jobs."""
    if argv[0] != "acs" or rc != 0:
        return 0
    try:
        return len(json.loads(text)["payload"]["solutions"])
    except (ValueError, KeyError, TypeError):
        return 0


def summary(argv, text):
    """The part of a job's output that the stored digest covers."""
    payload = json.loads(text)["payload"]
    if argv[0] == "acs":
        return [argv, [list(s) for s in _solutions({"payload": payload})]]
    return [argv, [[c["name"], c["pass"]] for c in payload["checks"]]]


def digest(summaries):
    blob = json.dumps(summaries, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
