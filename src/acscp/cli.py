"""Command-line interface.

Subcommands:

    realizable --dim D C1 ... CD     decompose a Chern vector, or reject it
    acs --dim D --m M --n N [--q Q]  decide/enumerate almost complex structures
                                     (--q with, and only with, --dim 6;
                                     --a-max A >= 1,
                                     default 200, with --dim 4 and 6;
                                     --c-max C >= 1, default 200, with
                                     --dim 6 only; A <= 4000000 with --dim 4,
                                     A*C <= 100000 with --dim 6)
    verify SUITE [--seed S]          run a named verification suite
    table NAME [--csv]               emit a built-in table (mod31 [--dim 6],
                                     pontrjagin-omega [--dim 4|6, default 6],
                                     divisor-targets [--m-max M, 0 <= M <=
                                     500000, default 34, --dim 4]; only
                                     divisor-targets takes --m-max)

The parser is built once per process, so repeated in-process calls of main
pay for it once.  Output is deterministic pretty-printed JSON on stdout,
written from the raw payload by _dumps, in the bytes
json.dumps(sort_keys=True, indent=2) would give after integers beyond the
53-bit safe range become decimal strings and dict keys str(k); timing goes
to stderr.  An int item of a list is written in place, quoted beyond the
53-bit range, so no integer costs a call of its own.  The solution list of
an acs call reaches _dumps as one _Json fragment, its text already written
by _solutions_json: the solutions of one search share one shape (has c_3,
Chern length, decomposition length), so one template cached per shape,
indented once for its place in the list, is joined once per solution and
filled by one % format from one flat list of the ints, those beyond the
53-bit range quoted in one pass when there are any.  The template is _dumps
itself applied to the solution dict with "%s" holes, so the layout has one
writer.
Exit codes: 0 ok, 1 failed internal checks, 2 constraint violations, 64
usage errors, a window or --m-max above its limit and a --q that --dim does
not take, or lacks, among them.
"""

import argparse
import json
import sys
import time
from functools import cache

from . import homotopy
from .chernvec import NotRealizable, realizable
from .homotopy import (CP4_WINDOW_MAX, CP6_WINDOW_AREA_MAX, ConstraintViolated,
                       ZeroFirstChern, acs_search_cp4, acs_search_cp6,
                       cp5_structure, cp6_exists, divisor_target_cp4,
                       mod31_table, validate_params)
from .ktheory import KOClass, pontrjagin_total
from .suites import SUITES, run_suite

USAGE_ERROR = 64
_SAFE = 1 << 53

# the largest --m-max of table divisor-targets: 142857 rows, about a second
DIVISOR_TARGETS_M_MAX = 500_000


_EXIT_CODES = {"ok": 0, "violation": 2, "error": 1}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


_quote = json.encoder.encode_basestring_ascii


class _Json(str):
    """A fragment of JSON text written at depth 0; _dumps indents its line
    breaks to the depth it lands at."""

    __slots__ = ()


def _dumps(value, newline="\n"):
    """json.dumps(value, sort_keys=True, indent=2) for a raw payload.
    Integers beyond the 53-bit safe range are written as decimal strings,
    dict keys as str(k), and tuples as lists; a _Json fragment is copied
    with its line breaks indented to the depth it lands at.  An int item of
    a list or tuple is written inline, with no call of its own; only items
    of other types recurse (a bool is not an int here, by exact type).  With
    indent set the standard library leaves its C encoder for a pure-Python
    one; this writes the same bytes without it."""
    kind = type(value)
    if kind is int:
        return f"{value}" if abs(value) < _SAFE else f'"{value}"'
    if kind is _Json:
        return value.replace("\n", newline)
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
        return "[" + inner + ("," + inner).join([
            (f"{v}" if abs(v) < _SAFE else f'"{v}"') if type(v) is int
            else _dumps(v, inner) for v in value]) + newline + "]"
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


@cache
def _solution_template(has_c, n_chern, n_dec):
    """The JSON text of a solution with "%s" for each int, filled in sorted
    key order: a, [c,] the Chern vector, the decomposition; indented once,
    for its place in a list."""
    hole = _Json("%s")
    sol = {"a": hole, "chern": [hole] * n_chern, "decomposition": [hole] * n_dec}
    if has_c:
        sol["c"] = hole
    return _dumps(sol, "\n  ")


def _solutions_json(sols):
    """The JSON text of a list of ACSSolution, as _dumps would write the
    list of their dicts.  The solutions of one search share one shape, so
    one template serves them all: their ints go into one flat list, those
    beyond the 53-bit range quoted inline in one pass when there are any,
    and fill the joined templates in one % format."""
    if not sols:
        return _Json("[]")
    first = sols[0]
    has_c = first.c is not None
    template = _solution_template(has_c, len(first.full_chern), len(first.decomposition))
    values = []
    if has_c:
        for s in sols:
            values += (s.a, s.c, *s.full_chern, *s.decomposition)
    else:
        for s in sols:
            values += (s.a, *s.full_chern, *s.decomposition)
    if not (-_SAFE < min(values) and max(values) < _SAFE):
        values = [v if abs(v) < _SAFE else f'"{v}"' for v in values]
    return _Json("[\n  " + ",\n  ".join([template] * len(sols)) % tuple(values) + "\n]")


# the window flags each --dim reads
_ACS_WINDOW = {4: ("a_max",), 5: (), 6: ("a_max", "c_max")}


def _acs_window(args):
    """{name: value} over the window flags that --dim reads, 200 for one
    not given; _UsageError for a flag that --dim does not read, a value
    below 1, or a window above the limit of its search: --a-max above
    CP4_WINDOW_MAX with --dim 4, --a-max times --c-max above
    CP6_WINDOW_AREA_MAX with --dim 6."""
    window = {}
    for name in ("a_max", "c_max"):
        flag, value = "--" + name.replace("_", "-"), getattr(args, name)
        if name in _ACS_WINDOW[args.dim]:
            window[name] = 200 if value is None else value
            if window[name] < 1:
                raise _UsageError(f"{flag} must be at least 1, got {value}")
        elif value is not None:
            raise _UsageError(f"acs --dim {args.dim} takes no {flag}")
    if args.dim == 4 and window["a_max"] > CP4_WINDOW_MAX:
        raise _UsageError(f"--a-max must be at most {CP4_WINDOW_MAX} with --dim 4, "
                          f"got {window['a_max']}")
    if args.dim == 6:
        area = window["a_max"] * window["c_max"]
        if area > CP6_WINDOW_AREA_MAX:
            raise _UsageError(f"--a-max times --c-max must be at most {CP6_WINDOW_AREA_MAX}, "
                              f"got {area}")
    return window


def _cmd_acs(args):
    if args.q is not None and args.dim != 6:
        raise _UsageError(f"acs --dim {args.dim} takes no --q")
    if args.q is None and args.dim == 6:
        raise _UsageError("acs --dim 6 needs --q")
    window = _acs_window(args)
    X = validate_params(args.dim, args.m, args.n, args.q)
    payload = {"dim": args.dim, "params": {"m": X.m, "n": X.n}}
    if X.q is not None:
        payload["params"]["q"] = X.q
    if args.dim == 4:
        sols = acs_search_cp4(X, cross_check_window=window["a_max"])
        payload["divisor_target"] = divisor_target_cp4(X.m)
        payload["a_values"] = [s.a for s in sols]
        payload["solutions"] = _solutions_json(sols)
    elif args.dim == 6:
        sols = acs_search_cp6(X, **window)
        payload["exists"] = cp6_exists(X)
        payload["window"] = window
        payload["solutions"] = _solutions_json(sols)
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
_TABLE_DIM = {"mod31": 6, "pontrjagin-omega": 6, "divisor-targets": 4}


def _table_rows(args):
    dim = _TABLE_DIM.get(args.table) if args.dim is None else args.dim
    if args.m_max is not None and args.table in ("mod31", "pontrjagin-omega"):
        raise _UsageError(f"the {args.table} table takes no --m-max")
    if args.table == "mod31":
        if dim != 6:
            raise _UsageError("the mod-31 table is defined for --dim 6")
        return ["m", "n"], [list(r) for r in mod31_table()]
    if args.table == "pontrjagin-omega":
        if dim not in (4, 6):
            raise _UsageError("pontrjagin-omega needs --dim 4 or 6")
        rows = []
        for k in range(1, dim // 2 + 1):
            p = pontrjagin_total(KOClass.omega(dim, k))
            for i in range(1, dim // 2 + 1):
                rows.append([k, i, p.coeff(2 * i)])
        return ["power", "index", "coefficient"], rows
    if args.table == "divisor-targets":
        if dim != 4:
            raise _UsageError("divisor targets are defined for --dim 4")
        m_max = 34 if args.m_max is None else args.m_max
        if m_max < 0:
            raise _UsageError(f"--m-max must be at least 0, got {m_max}")
        if m_max > DIVISOR_TARGETS_M_MAX:
            raise _UsageError(f"--m-max must be at most {DIVISOR_TARGETS_M_MAX}, got {m_max}")
        # the admissible m: the constraint is k n + C(m), so k | C(m), which
        # depends on m mod k only
        k, free = homotopy._linear_in(homotopy.CP4_CONSTRAINT, "n")
        residues = {r for r in range(abs(k)) if free.evaluate(m=r) % k == 0}
        rows = [[m, divisor_target_cp4(m)]
                for m in range(-m_max, m_max + 1)
                if m % abs(k) in residues]
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
    p.add_argument("--a-max", type=int, default=None)
    p.add_argument("--c-max", type=int, default=None)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=sorted(SUITES) + ["all"])
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("table", help="emit a built-in table")
    p.add_argument("table", metavar="name")
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--m-max", type=int, default=None)
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
