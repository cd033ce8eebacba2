"""Command-line interface.

Subcommands:

    realizable --dim D C1 ... CD     decompose a Chern vector, or reject it
    acs --dim D --m M --n N [--q Q]  decide/enumerate almost complex structures
    verify SUITE [--seed S]          run a named verification suite
    table NAME [--csv]               emit a built-in table (mod31,
                                     pontrjagin-omega [--dim 4|6, default 6],
                                     divisor-targets [--m-max M >= 0, --dim 4])

The parser is built once per process, so repeated in-process calls of main
pay for it once.  Output is deterministic pretty-printed JSON on stdout,
written from the raw payload in one walk by _dumps, in the bytes
json.dumps(sort_keys=True, indent=2) would give after integers beyond the
53-bit safe range become decimal strings and dict keys str(k); timing goes
to stderr.
Exit codes: 0 ok, 1 failed internal checks, 2 constraint violations, 64
usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from functools import cache

from .chernvec import NotRealizable, realizable
from .homotopy import (ConstraintViolated, ZeroFirstChern, acs_search_cp4,
                       acs_search_cp6, cp5_structure, cp6_exists,
                       divisor_target_cp4, mod31_table, validate_params)
from .ktheory import KOClass, pontrjagin_total
from .suites import SUITES, run_suite

USAGE_ERROR = 64
_SAFE = 1 << 53


_EXIT_CODES = {"ok": 0, "violation": 2, "error": 1}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


_quote = json.encoder.encode_basestring_ascii


def _dumps(value, newline="\n"):
    """json.dumps(value, sort_keys=True, indent=2) for a raw payload, in one
    walk.  Integers beyond the 53-bit safe range are written as decimal
    strings, dict keys as str(k), and tuples as lists.  With indent set the
    standard library leaves its C encoder for a pure-Python one; this writes
    the same bytes without it."""
    kind = type(value)
    if kind is int:
        text = int.__repr__(value)
        return text if -_SAFE < value < _SAFE else '"' + text + '"'
    if kind is dict:
        if not value:
            return "{}"
        inner = newline + "  "
        value = {str(k): v for k, v in value.items()}
        return ("{" + inner + ("," + inner).join(
            [_quote(k) + ": " + _dumps(value[k], inner) for k in sorted(value)])
            + newline + "}")
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        inner = newline + "  "
        return "[" + inner + ("," + inner).join([_dumps(v, inner) for v in value]) + newline + "]"
    if isinstance(value, str):
        return _quote(value)
    # the rarer scalars (None, bool) in the standard encoder's spelling
    return json.dumps(value)


def _emit(status, payload, elapsed_ms, csv_text):
    if csv_text is not None:
        sys.stdout.write(csv_text)
    else:
        doc = {"status": status, "payload": payload}
        sys.stdout.write(_dumps(doc) + "\n")
    sys.stderr.write(f"elapsed_ms={elapsed_ms}\n")
    return _EXIT_CODES[status]


def _cmd_realizable(args):
    if not 1 <= args.dim <= 8:
        raise _UsageError("--dim must be between 1 and 8")
    if len(args.chern) != args.dim:
        raise _UsageError(f"expected {args.dim} Chern coefficients, got {len(args.chern)}")
    payload = {"dim": args.dim, "chern": list(args.chern)}
    try:
        decomposition = realizable(tuple(args.chern))
        payload.update(realizable=True, decomposition=list(decomposition))
    except NotRealizable as exc:
        payload.update(realizable=False, decomposition=None,
                       reason=str(exc))
    return "ok", payload


def _solution_dict(sol):
    out = {"a": sol.a, "chern": list(sol.full_chern),
           "decomposition": list(sol.decomposition)}
    if sol.c is not None:
        out["c"] = sol.c
    return out


def _cmd_acs(args):
    for flag, value in (("--a-max", args.a_max), ("--c-max", args.c_max)):
        if value < 1:
            raise _UsageError(f"{flag} must be at least 1, got {value}")
    X = validate_params(args.dim, args.m, args.n, args.q)
    payload = {"dim": args.dim, "params": {"m": X.m, "n": X.n}}
    if X.q is not None:
        payload["params"]["q"] = X.q
    if args.dim == 4:
        sols = acs_search_cp4(X, cross_check_window=args.a_max)
        payload["divisor_target"] = divisor_target_cp4(X.m)
        payload["a_values"] = [s.a for s in sols]
        payload["solutions"] = [_solution_dict(s) for s in sols]
    elif args.dim == 6:
        sols = acs_search_cp6(X, a_max=args.a_max, c_max=args.c_max)
        payload["exists"] = cp6_exists(X)
        payload["window"] = {"a_max": args.a_max, "c_max": args.c_max}
        payload["solutions"] = [_solution_dict(s) for s in sols]
    else:
        rep = cp5_structure(X)
        payload["e_coefficients"] = list(rep.e.coeffs[1:])
        payload["reduction"] = list(rep.reduction.coeffs)
        payload["tangent"] = list(rep.tangent.coeffs)
        payload["euler_coefficient"] = rep.euler_coefficient
        payload["checks"] = {"reduction_matches_tangent": rep.reduction_matches,
                             "euler_is_6": rep.euler_matches}
        if not rep.ok:
            return "error", payload
    return "ok", payload


def _cmd_verify(args):
    checks = run_suite(args.suite, seed=args.seed)
    payload = {
        "suite": args.suite,
        "checks": [{"name": c.name, "pass": c.passed}
                   | ({"detail": c.detail} if not c.passed else {})
                   for c in checks],
        "all_pass": all(c.passed for c in checks),
    }
    return ("ok" if payload["all_pass"] else "error"), payload


# the --dim each table reads when none is given
_TABLE_DIM = {"pontrjagin-omega": 6, "divisor-targets": 4}


def _table_rows(args):
    dim = _TABLE_DIM.get(args.table) if args.dim is None else args.dim
    if args.table == "mod31":
        return ["m", "n"], [list(r) for r in mod31_table()]
    if args.table == "pontrjagin-omega":
        if dim not in (4, 6):
            raise _UsageError("pontrjagin-omega needs --dim 4 or 6")
        rows = []
        for k in range(1, dim // 2 + 1):
            p = pontrjagin_total(KOClass.omega(dim, k))
            for i in range(1, dim // 2 + 1):
                rows.append([k, i, int(p.coeff(2 * i))])
        return ["power", "index", "coefficient"], rows
    if args.table == "divisor-targets":
        if dim != 4:
            raise _UsageError("divisor targets are defined for --dim 4")
        if args.m_max < 0:
            raise _UsageError(f"--m-max must be at least 0, got {args.m_max}")
        rows = [[m, divisor_target_cp4(m)]
                for m in range(-args.m_max, args.m_max + 1)
                if m % 14 in (0, 6)]
        return ["m", "target"], rows
    raise _UsageError(f"unknown table {args.table!r}")


def _cmd_table(args):
    header, rows = _table_rows(args)
    if args.csv:
        lines = [",".join(header)] + [",".join(str(x) for x in row) for row in rows]
        return "ok", None, "\n".join(lines) + "\n"
    return "ok", {"table": args.table, "columns": header, "rows": rows}, None


class _UsageError(Exception):
    pass


@cache
def _build_parser():
    """The argument parser, built once per process: argparse looks up
    sys.stdout and sys.stderr when it writes, not when it is built."""
    parser = _Parser(prog="acscp",
                     description="Almost complex structures on homotopy CP^4, CP^5, CP^6.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("realizable", help="test whether a tuple is a Chern vector")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("chern", type=int, nargs="+", metavar="C")

    p = sub.add_parser("acs", help="decide and enumerate almost complex structures")
    p.add_argument("--dim", type=int, required=True, choices=(4, 5, 6))
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--a-max", type=int, default=200)
    p.add_argument("--c-max", type=int, default=200)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=sorted(SUITES) + ["all"])
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("table", help="emit a built-in table")
    p.add_argument("table", metavar="name")
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--m-max", type=int, default=34)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--csv", action="store_true")
    group.add_argument("--json", action="store_true")
    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code
    started = time.perf_counter()
    csv_text = None
    try:
        if args.command == "realizable":
            status, payload = _cmd_realizable(args)
        elif args.command == "acs":
            status, payload = _cmd_acs(args)
        elif args.command == "verify":
            status, payload = _cmd_verify(args)
        else:
            status, payload, csv_text = _cmd_table(args)
    except _UsageError as exc:
        sys.stderr.write(f"acscp: error: {exc}\n")
        return USAGE_ERROR
    except (ConstraintViolated, ZeroFirstChern) as exc:
        status, payload = "violation", {"violation": str(exc)}
    except (ValueError, ArithmeticError) as exc:
        status, payload = "error", {"error": str(exc)}
    elapsed = int((time.perf_counter() - started) * 1000)
    return _emit(status, payload, elapsed, csv_text)


if __name__ == "__main__":
    sys.exit(main())
