import hashlib
import json
import os
import subprocess
import sys
from functools import cache
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from acscp import cli, exactmath, homotopy, ktheory
from acscp.cli import (DIVISOR_TARGETS_M_MAX, main, _build_parser, _dumps,
                       _solutions_json)
from acscp.homotopy import (CP4_WINDOW_MAX, CP6_WINDOW_AREA_MAX, ACSSolution,
                            ConstraintViolated, HtpyCP)
from tests.admissible import cp4_pairs, cp6_triple

# the flags of the admissible triple nearest (16, 11): (16, 11, 23) under the
# 1152 model
CP6_PARAMS = tuple(arg for flag, x in zip(("--m", "--n", "--q"), cp6_triple(16, 11))
                   for arg in (flag, str(x)))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


def test_realizable_true(capsys):
    code, doc, err = run_json(capsys, "realizable", "--dim", "4", "5", "10", "10", "5")
    assert code == 0
    assert doc["status"] == "ok"
    assert doc["payload"]["realizable"] is True
    assert doc["payload"]["decomposition"] == [5, 0, 0, 0]
    assert err.startswith("elapsed_ms=")


def test_realizable_false(capsys):
    code, doc, _ = run_json(capsys, "realizable", "--dim", "4", "0", "1", "0", "0")
    assert code == 0
    assert doc["payload"]["realizable"] is False
    assert doc["payload"]["decomposition"] is None


def test_realizable_usage_error(capsys):
    code, out, err = run(capsys, "realizable", "--dim", "4", "1", "2")
    assert code == 64
    assert out == ""


def test_acs_cp4(capsys):
    code, doc, _ = run_json(capsys, "acs", "--dim", "4", "--m", "0", "--n", "0")
    assert code == 0
    assert doc["payload"]["a_values"] == [-25, -5, -1, 1, 5, 25]
    assert doc["payload"]["divisor_target"] == 25
    five = next(s for s in doc["payload"]["solutions"] if s["a"] == 5)
    assert five["chern"] == [5, 10, 10, 5]


def test_acs_cp5(capsys):
    code, doc, _ = run_json(capsys, "acs", "--dim", "5", "--m", "2", "--n", "0")
    assert code == 0
    assert doc["payload"]["e_coefficients"] == [6, 24, 0, 86, -62]
    assert doc["payload"]["checks"] == {"reduction_matches_tangent": True,
                                        "euler_is_6": True}


def test_acs_cp6(capsys):
    code, doc, _ = run_json(capsys, "acs", "--dim", "6", *CP6_PARAMS,
                            "--a-max", "20", "--c-max", "20")
    assert code == 0
    pairs = [(s["a"], s["c"]) for s in doc["payload"]["solutions"]]
    assert (1, 1) in pairs
    assert doc["payload"]["exists"] is True


def test_acs_cp4_large_m(capsys):
    code, doc, _ = run_json(capsys, "acs", "--dim", "4", "--m", "1400000006",
                            "--n", "280000001900000003")
    assert code == 0
    assert len(doc["payload"]["a_values"]) == 8


@pytest.mark.parametrize("argv", [
    ("--dim", "4", "--m", "0", "--n", "0", "--a-max", "0"),
    ("--dim", "4", "--m", "0", "--n", "0", "--a-max", "-3"),
    ("--dim", "6", "--m", "0", "--n", "0", "--q", "0", "--a-max", "0"),
    ("--dim", "6", "--m", "0", "--n", "0", "--q", "0", "--c-max", "0"),
    ("--dim", "6", "--m", "0", "--n", "0", "--q", "0", "--c-max", "-1"),
])
def test_acs_empty_window_is_usage_error(capsys, argv):
    code, out, err = run(capsys, "acs", *argv)
    assert code == 64
    assert out == ""
    assert "must be at least 1" in err


def test_table_negative_m_max_is_usage_error(capsys):
    # it used to print "rows": [] and exit 0
    code, out, err = run(capsys, "table", "divisor-targets", "--dim", "4", "--m-max", "-5")
    assert code == 64
    assert out == ""
    assert "--m-max must be at least 0, got -5" in err
    code, doc, _ = run_json(capsys, "table", "divisor-targets", "--dim", "4", "--m-max", "0")
    assert code == 0 and doc["payload"]["rows"] == [[0, 25]]


@pytest.mark.parametrize("table", ["mod31", "pontrjagin-omega"])
@pytest.mark.parametrize("m_max", ["-5", "0", "34"])
def test_table_without_m_max_refuses_it(capsys, table, m_max):
    # these tables used to accept any --m-max, print the table and exit 0
    for fmt in ((), ("--csv",), ("--json",)):
        code, out, err = run(capsys, "table", table, "--m-max", m_max, *fmt)
        assert code == 64 and out == ""
        assert f"the {table} table takes no --m-max" in err


def test_acs_window_limits_at_and_one_above(capsys, monkeypatch):
    # the searches are stubbed: only the window the cli lets through matters
    windows = []
    monkeypatch.setattr(cli, "acs_search_cp4",
                        lambda X, cross_check_window: windows.append(cross_check_window) or [])
    monkeypatch.setattr(cli, "acs_search_cp6",
                        lambda X, a_max, c_max: windows.append((a_max, c_max)) or [])
    cp4 = ("acs", "--dim", "4", "--m", "0", "--n", "0")
    cp6 = ("acs", "--dim", "6", "--m", "0", "--n", "0", "--q", "0")
    area = CP6_WINDOW_AREA_MAX
    for argv in ((*cp4, "--a-max", str(CP4_WINDOW_MAX)),
                 (*cp6, "--a-max", "1", "--c-max", str(area)),
                 (*cp6, "--a-max", str(area), "--c-max", "1"),
                 (*cp6, "--a-max", "2", "--c-max", str(area // 2))):
        assert run(capsys, *argv)[0] == 0
    assert windows == [CP4_WINDOW_MAX, (1, area), (area, 1), (2, area // 2)]
    for argv, message in (
            ((*cp4, "--a-max", str(CP4_WINDOW_MAX + 1)),
             f"--a-max must be at most {CP4_WINDOW_MAX} with --dim 4, got {CP4_WINDOW_MAX + 1}"),
            ((*cp6, "--a-max", "1", "--c-max", str(area + 1)),
             f"--a-max times --c-max must be at most {area}, got {area + 1}"),
            ((*cp6, "--a-max", str(area + 1)),
             f"--a-max times --c-max must be at most {area}, got {200 * (area + 1)}"),
            ((*cp6, "--a-max", "2", "--c-max", str(area // 2 + 1)),
             f"--a-max times --c-max must be at most {area}, got {area + 2}")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (64, "")
        assert message in err
    assert len(windows) == 4


def test_divisor_targets_m_max_limit_at_and_one_above(capsys):
    code, out, _ = run(capsys, "table", "divisor-targets", "--csv",
                       "--m-max", str(DIVISOR_TARGETS_M_MAX))
    rows = out.splitlines()
    assert code == 0 and rows[0] == "m,target"
    assert rows[1].startswith("-499996,")     # the first m = 0, 6 (mod 14)
    assert [int(row.split(",")[0]) for row in rows[1:]] == [
        m for m, _ in cp4_pairs(DIVISOR_TARGETS_M_MAX)]
    code, out, err = run(capsys, "table", "divisor-targets",
                         "--m-max", str(DIVISOR_TARGETS_M_MAX + 1))
    assert (code, out) == (64, "")
    assert f"--m-max must be at most {DIVISOR_TARGETS_M_MAX}, got {DIVISOR_TARGETS_M_MAX + 1}" in err


def test_acs_factoring_past_its_budget_is_an_error(capsys, monkeypatch):
    # the target of m = 132 is 4314841 = 1033 * 4177, which only rho splits
    assert run_json(capsys, "acs", "--dim", "4", "--m", "132", "--n", "2442")[0] == 0
    monkeypatch.setattr(exactmath, "_RHO_BUDGET", 1)
    code, doc, _ = run_json(capsys, "acs", "--dim", "4", "--m", "132", "--n", "2442")
    assert code == 1 and doc["status"] == "error"
    assert "cofactor 4314841 within 1 steps" in doc["payload"]["error"]


CP4_ARGV = ("acs", "--dim", "4", "--m", "6", "--n", "3")
CP6_ARGV = ("acs", "--dim", "6", "--m", "0", "--n", "0", "--q", "0")


def perturb_conjugation(mp):
    """Make the lattice decomposition that homotopy reads refuse the power
    sums (-1)^i of H^-1 - 1, so that column 1 of the conjugation matrix
    leaves the lattice.  _conjugation gets a fresh cache for the patch, which
    the undo drops, so no perturbed matrix outlives it."""
    decompose = homotopy._decompose

    def refuse_the_unit_flip(sums):
        if sums == [(-1) ** i for i in range(1, len(sums) + 1)]:
            return None
        return decompose(sums)

    mp.setattr(homotopy, "_decompose", refuse_the_unit_flip)
    mp.setattr(homotopy, "_conjugation", cache(homotopy._conjugation.__wrapped__))


@pytest.mark.parametrize("argv, patch, message", [
    (CP4_ARGV, lambda mp: mp.setattr(homotopy, "divisor_target_cp4", lambda m: 25),
     "divisor criterion and direct scan disagree"),
    (CP6_ARGV, lambda mp: mp.delitem(homotopy._CP6_PARITY, 1),
     "criterion and direct scan disagree on the window"),
    (CP6_ARGV, lambda mp: mp.setattr(homotopy, "_decompose", lambda sums: None),
     "does not decompose"),
    (CP4_ARGV, perturb_conjugation,
     "the conjugate of H^1 - 1 in K(CP^4) leaves the exponential lattice"),
    (CP6_ARGV, perturb_conjugation,
     "the conjugate of H^1 - 1 in K(CP^6) leaves the exponential lattice"),
], ids=["cp4-routes", "cp6-routes", "cp6-witness", "cp4-conjugate", "cp6-conjugate"])
def test_acs_cross_check_failure_is_an_error(capsys, monkeypatch, argv, patch, message):
    assert run_json(capsys, *argv)[0] == 0
    patch(monkeypatch)
    code, doc, _ = run_json(capsys, *argv)
    assert code == 1 and doc["status"] == "error"
    assert message in doc["payload"]["error"]


@pytest.mark.parametrize("argv", [CP4_ARGV, ("acs", "--dim", "6", *CP6_PARAMS)],
                         ids=["cp4", "cp6"])
def test_acs_job_does_not_rerun_the_k_theory_route(capsys, patch_model, argv):
    # the Pontrjagin classes of a job are the polynomials derived at import,
    # evaluated at its parameters, and the conjugation matrix is a lattice
    # decomposition: no code of acscp.ktheory runs, even with every cache of
    # homotopy empty
    calls = []

    def record(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == ktheory.__file__:
            calls.append(frame.f_code.co_name)

    sys.setprofile(record)
    try:
        code, doc, _ = run_json(capsys, *argv)
    finally:
        sys.setprofile(None)
    assert code == 0 and doc["payload"]["solutions"]
    assert calls == []


def test_divisor_targets_m_max_defaults_to_34(capsys):
    _, plain, _ = run(capsys, "table", "divisor-targets")
    code, out, _ = run(capsys, "table", "divisor-targets", "--m-max", "34")
    assert code == 0 and out == plain
    assert [34, 288889] in json.loads(out)["payload"]["rows"]


@pytest.mark.parametrize("argv, flag", [
    (("--dim", "4", "--m", "0", "--n", "0", "--c-max", "5"), "--c-max"),
    (("--dim", "4", "--m", "0", "--n", "0", "--c-max", "0"), "--c-max"),
    (("--dim", "5", "--m", "0", "--n", "0", "--a-max", "5"), "--a-max"),
    (("--dim", "5", "--m", "0", "--n", "0", "--c-max", "200"), "--c-max"),
    (("--dim", "5", "--m", "1", "--n", "0", "--a-max", "-1"), "--a-max"),
])
def test_acs_window_flag_the_dimension_does_not_read_is_usage_error(capsys, argv, flag):
    # these were accepted, ignored and answered with exit code 0
    code, out, err = run(capsys, "acs", *argv)
    assert code == 64 and out == ""
    assert f"acs --dim {argv[1]} takes no {flag}" in err


@pytest.mark.parametrize("argv", [
    ("--dim", "4", "--m", "0", "--n", "0", "--q", "5"),
    ("--dim", "4", "--m", "6", "--n", "3", "--q", "0"),
    ("--dim", "5", "--m", "2", "--n", "0", "--q", "0"),
    ("--dim", "5", "--m", "2", "--n", "0", "--q", "-7", "--a-max", "5"),
])
def test_acs_q_off_dim_6_is_usage_error(capsys, argv):
    # exited 2 with a "violation" payload on stdout; --q is a flag these
    # dimensions do not read, as an unread window flag is
    code, out, err = run(capsys, "acs", *argv)
    assert code == 64 and out == ""
    assert f"acs --dim {argv[1]} takes no --q" in err
    # the library still reports the parameter as a constraint violation
    with pytest.raises(ConstraintViolated, match=r"takes parameters \(m, n\) only"):
        HtpyCP(int(argv[1]), int(argv[3]), int(argv[5]), int(argv[7]))


@pytest.mark.parametrize("argv, given", [
    (("--dim", "4", "--m", "6", "--n", "3"), ("--a-max", "200")),
    (("--dim", "6", *CP6_PARAMS), ("--a-max", "200")),
    (("--dim", "6", *CP6_PARAMS), ("--c-max", "200")),
    (("--dim", "6", *CP6_PARAMS), ("--a-max", "200", "--c-max", "200")),
])
def test_acs_window_flags_default_to_200(capsys, argv, given):
    code, plain, _ = run(capsys, "acs", *argv)
    assert code == 0
    assert run(capsys, "acs", *argv, *given)[:2] == (0, plain)
    if argv[1] == "6":
        assert json.loads(plain)["payload"]["window"] == {"a_max": 200, "c_max": 200}
    else:
        assert "window" not in json.loads(plain)["payload"]


def test_acs_violation(capsys):
    code, doc, _ = run_json(capsys, "acs", "--dim", "5", "--m", "1", "--n", "0")
    assert code == 2
    assert doc["status"] == "violation"
    assert "even" in doc["payload"]["violation"]


@pytest.mark.parametrize("argv, value", [
    (("--dim", "6", "--m", "1", "--n", "0", "--q", "0"), 81),
    (("--dim", "4", "--m", "1", "--n", "1"), -34),
])
def test_acs_constraint_violation_names_the_value(capsys, argv, value):
    code, doc, _ = run_json(capsys, "acs", *argv)
    assert code == 2
    assert doc["status"] == "violation"
    assert f"= {value} != 0" in doc["payload"]["violation"]


def test_acs_missing_q(capsys):
    # exited 2 with a "violation" payload on stdout; now a usage error, the
    # mirror of a --q that --dim 4 or 5 does not take, window flag or not
    for window in ((), ("--a-max", "5")):
        code, out, err = run(capsys, "acs", "--dim", "6", "--m", "0", "--n", "0", *window)
        assert code == 64 and out == ""
        assert "acs --dim 6 needs --q" in err
    # the library still reports the missing parameter as a constraint violation
    with pytest.raises(ConstraintViolated, match="d=6 needs a third parameter q"):
        HtpyCP(6, 0, 0)


def test_verify_suite(capsys):
    code, doc, _ = run_json(capsys, "verify", "cp5")
    assert code == 0
    assert doc["payload"]["all_pass"] is True
    assert all(c["pass"] for c in doc["payload"]["checks"])


def test_verify_unknown_suite(capsys):
    code, out, err = run(capsys, "verify", "bogus")
    assert code == 64


def test_table_mod31_json(capsys):
    code, doc, _ = run_json(capsys, "table", "mod31")
    assert code == 0
    rows = doc["payload"]["rows"]
    assert len(rows) == 30
    assert [0, 0] in rows and [16, 11] in rows


def test_table_mod31_csv(capsys):
    code, out, _ = run(capsys, "table", "mod31", "--csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "m,n"
    assert lines[1] == "0,0"
    assert len(lines) == 31


def test_table_mod31_refuses_a_dim_other_than_6(capsys):
    # mod31 is the d = 6 table: --dim 6 changes no byte, any other is refused
    for fmt in ((), ("--csv",), ("--json",)):
        _, plain, _ = run(capsys, "table", "mod31", *fmt)
        code, out, _ = run(capsys, "table", "mod31", "--dim", "6", *fmt)
        assert code == 0 and out == plain
        for dim in ("4", "5", "0"):
            code, out, err = run(capsys, "table", "mod31", "--dim", dim, *fmt)
            assert code == 64 and out == ""
            assert "--dim 6" in err


def test_table_pontrjagin(capsys):
    code, doc, _ = run_json(capsys, "table", "pontrjagin-omega", "--dim", "6")
    assert code == 0
    rows = doc["payload"]["rows"]
    assert len(rows) == 9
    assert [2, 2, -6] in rows and [3, 3, 120] in rows


def test_table_divisor_targets(capsys):
    code, doc, _ = run_json(capsys, "table", "divisor-targets", "--dim", "4",
                            "--m-max", "34")
    assert code == 0
    assert [0, 25] in doc["payload"]["rows"]
    assert [34, 288889] in doc["payload"]["rows"]


def test_table_divisor_targets_refuses_a_constraint_without_n(capsys, patch_model):
    m = exactmath.MPolyZ.var("m")
    patch_model("CP4_CONSTRAINT", 4 * m * m - 10 * m)
    code, doc, _ = run_json(capsys, "table", "divisor-targets")
    assert code == 1
    assert "is not linear in n" in doc["payload"]["error"]


def test_table_unknown(capsys):
    code, out, err = run(capsys, "table", "nope")
    assert code == 64


def test_deterministic_output(capsys):
    _, out1, _ = run(capsys, "acs", "--dim", "6", "--m", "0", "--n", "0", "--q", "0",
                     "--a-max", "30", "--c-max", "30")
    _, out2, _ = run(capsys, "acs", "--dim", "6", "--m", "0", "--n", "0", "--q", "0",
                     "--a-max", "30", "--c-max", "30")
    assert out1 == out2


# sha256 of the exact stdout, recorded before the writer and the parser
# changed: the digests in bench/ hash parsed content and cannot see bytes
@pytest.mark.parametrize("argv, code, digest", [
    (("acs", "--dim", "4", "--m", "6", "--n", "3"), 0,
     "38d24027388602e29d672537813dd2e46e05bc86f65eba5d81a99bfff9efc51e"),
    (("acs", "--dim", "4", "--m", "1400000006", "--n", "280000001900000003"), 0,
     "97476ec9abdf58b434f30be6bd4bb20c2bf7e98b6e62b529a98db34c511f56f7"),
    (("acs", "--dim", "5", "--m", "2", "--n", "0"), 0,
     "69681d5337f8c4524a76f693807a53d41ff726869330ee1e1cae671a31632287"),
    (("acs", "--dim", "6", "--m", "16", "--n", "11", "--q", "23", "--a-max", "20",
      "--c-max", "20"), 0,
     "47cf8e0916e7bfbbccd9f4e2aa6f2e7df341e471cc4d52a577e764bf9769ed27"),
    (("acs", "--dim", "6", "--m", "1", "--n", "0", "--q", "0"), 2,
     "70a4d23e034f671706c9cb94a458cb3d32bc2640bd28fdfa48cb5a2a8f59c240"),
    (("realizable", "--dim", "2", str(2 ** 60), "0"), 0,
     "115b55d9f15536bcf3ad12f5586b16baf94972906599fd82b678ca2b1e320176"),
    (("verify", "all", "--seed", "0"), 0,
     "3947b40c1e51f27c98b9370fe3ec5bc7a63a8ffdd6c0774a6adf9d2602d1417a"),
    (("table", "mod31", "--json"), 0,
     "68ed9f5d1a66b9d7433f9e8388e5aed285f41792b0f6868876627f08378ab5b4"),
])
def test_stdout_bytes_are_pinned(capsys, argv, code, digest):
    got, out, _ = run(capsys, *argv)
    assert got == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_cached_parser_survives_a_usage_error(capsys):
    argv = ("acs", "--dim", "4", "--m", "0", "--n", "0")
    code1, out1, _ = run(capsys, *argv)
    code, out, err = run(capsys, "acs", "--dim", "7", "--m", "0", "--n", "0")
    assert code == 64 and out == ""
    assert err.startswith("usage: acscp acs") and "invalid choice: 7" in err
    code2, out2, err2 = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    assert "usage" not in err2
    assert _build_parser() is _build_parser()


@pytest.mark.parametrize("argv", [("--help",), ("acs", "--help"), ("table", "-h")])
def test_help_exits_zero(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 0
    assert out.startswith("usage: acscp") and err == ""


def test_table_dim_defaults_per_table(capsys):
    code, doc, _ = run_json(capsys, "table", "divisor-targets", "--m-max", "0")
    assert code == 0 and doc["payload"]["rows"] == [[0, 25]]
    code, doc, _ = run_json(capsys, "table", "pontrjagin-omega")
    assert code == 0 and len(doc["payload"]["rows"]) == 9
    for argv in (("divisor-targets", "--dim", "6"), ("pontrjagin-omega", "--dim", "5")):
        code, out, err = run(capsys, "table", *argv)
        assert code == 64 and out == ""
        assert "--dim" in err


def test_big_integers_as_strings(capsys):
    big = 2 ** 60
    code, doc, _ = run_json(capsys, "realizable", "--dim", "2", str(big), "0")
    assert code == 0
    assert doc["payload"]["chern"][0] == str(big)


def test_dumps_big_integer_and_key_rules():
    assert _dumps(2 ** 53) == '"9007199254740992"'
    assert _dumps(-(2 ** 53)) == '"-9007199254740992"'
    assert _dumps(2 ** 53 - 1) == "9007199254740991"
    assert _dumps(-(2 ** 53) + 1) == "-9007199254740991"
    assert _dumps({"x": 2 ** 60, "y": [True, None, 3]}) == (
        '{\n  "x": "1152921504606846976",\n  "y": [\n    true,\n    null,\n    3\n  ]\n}')
    # tuples are lists; keys are str(k), sorted as strings
    assert _dumps((1, (2, ()))) == _dumps([1, [2, []]])
    assert _dumps({10: 0, 2: (1,), True: None}) == \
        '{\n  "10": 0,\n  "2": [\n    1\n  ],\n  "True": null\n}'


def _jsonable(value):
    """The conversion the writer applies, as a separate walk: big integers
    become decimal strings, tuples lists and keys str(k).  Fed to
    json.dumps it is the reference for _dumps."""
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, int):
        return str(value) if abs(value) >= 2 ** 53 else value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return value


_json_text = st.one_of(
    st.text(max_size=8),
    st.sampled_from(['"', "\\", 'a"b\\c', "\x00\x1f\n\t\x7f", "é☃𝄞", ""]))
_json_leaves = st.one_of(
    st.integers(),
    st.sampled_from([2 ** 53, -(2 ** 53), 2 ** 53 - 1, -(2 ** 53) + 1, 2 ** 60, -(2 ** 60)]),
    st.booleans(), st.none(), _json_text)
_json_values = st.recursive(
    _json_leaves,
    lambda kids: st.one_of(st.lists(kids, max_size=4),
                           st.lists(kids, max_size=4).map(tuple),
                           st.dictionaries(st.one_of(_json_text, st.integers(-20, 20)),
                                           kids, max_size=4)),
    max_leaves=24)


@settings(max_examples=300, deadline=None)
@given(_json_values)
def test_dumps_matches_indented_json_dumps(value):
    assert _dumps(value) == json.dumps(_jsonable(value), sort_keys=True, indent=2)


def _solution_dict(sol):
    """A solution as the dict the writer used to walk, the reference for
    _solutions_json."""
    out = {"a": sol.a, "chern": list(sol.full_chern),
           "decomposition": list(sol.decomposition)}
    if sol.c is not None:
        out["c"] = sol.c
    return out


_solution_ints = st.one_of(
    st.integers(),
    st.sampled_from([2 ** 53, -(2 ** 53), 2 ** 53 - 1, -(2 ** 53) + 1, 2 ** 60, -(2 ** 60)]))
# built once: a strategy built inside the draw is built again for every example
_solution_counts = st.sampled_from([0, 1]) | st.integers(2, 40)
_solution_vectors = {d: st.lists(_solution_ints, min_size=d, max_size=d).map(tuple)
                     for d in (4, 6)}


@st.composite
def _solution_lists(draw):
    # the solutions of one search share one shape: d = 4 without c, d = 6
    # with it; none, one or many
    d = draw(st.sampled_from([4, 6]))
    count = draw(_solution_counts)
    ints = _solution_vectors[d]
    return [ACSSolution(d, draw(_solution_ints), draw(_solution_ints) if d == 6 else None,
                        draw(ints), draw(ints))
            for _ in range(count)]


@settings(max_examples=300, deadline=None)
@given(_solution_lists())
def test_solutions_json_matches_the_dicts_it_replaces(sols):
    # the list lands where it does in an acs document, and two levels deeper
    for wrap in (lambda x: {"payload": {"solutions": x}}, lambda x: {"k": [[x]]}):
        got = _dumps(wrap(_solutions_json(sols)))
        assert got == json.dumps(_jsonable(wrap([_solution_dict(s) for s in sols])),
                                 sort_keys=True, indent=2)


def test_dumps_on_empty_containers_and_edge_scalars():
    value = {"": {}, "b": [], "a": [[], {}, [{}], ()], "z": [True, False, None, -0, 2 ** 60]}
    assert _dumps(value) == json.dumps(_jsonable(value), sort_keys=True, indent=2)


_EDGE = [2 ** 53 - 1, -(2 ** 53) + 1, 2 ** 53, -(2 ** 53)]


@pytest.mark.parametrize("value", [
    _EDGE, tuple(_EDGE), [_EDGE, tuple(_EDGE)], [True, 1, 2 ** 60], [[2 ** 60], ()],
    {"k": [2 ** 53]}, [False, None, -(2 ** 60), "x", 0],
])
def test_dumps_writes_int_items_inline_by_the_53_bit_rule(value):
    # a list item that is an int is written in place; a bool is not an int
    # here and keeps the standard encoder's spelling
    assert _dumps(value) == json.dumps(_jsonable(value), sort_keys=True, indent=2)


@pytest.mark.parametrize("at", [0, 1, 5, 8])
@pytest.mark.parametrize("big", [2 ** 53, -(2 ** 53), 2 ** 60])
def test_solutions_json_with_one_value_out_of_range(at, big):
    # position at of the flat values a, c_1..c_4, dec_1..dec_4 of the second
    # of two solutions
    values = [3, 5, 10, 10, 5, 2 ** 53 - 1, -(2 ** 53) + 1, 0, 1]
    values[at] = big
    sols = [ACSSolution(4, 1, None, (1, 2, 3, 5), (1, 0, 0, 0)),
            ACSSolution(4, values[0], None, tuple(values[1:5]), tuple(values[5:]))]
    got = _dumps({"solutions": _solutions_json(sols)})
    assert got == json.dumps(_jsonable({"solutions": [_solution_dict(s) for s in sols]}),
                             sort_keys=True, indent=2)


def test_divisor_targets_json_matches_the_reference(capsys):
    argv = ["table", "divisor-targets", "--m-max", "2000"]
    _, payload, _ = cli._cmd_table(_build_parser().parse_args(argv))
    code, out, _ = run(capsys, *argv)
    assert code == 0 and len(payload["rows"]) > 500
    assert out == json.dumps(_jsonable({"status": "ok", "payload": payload}),
                             sort_keys=True, indent=2) + "\n"


def test_writer_calls_do_not_grow_with_the_integers_printed(capsys, monkeypatch):
    # every int leaf is written where the writer meets it: in the big-integer
    # pin job most of them lie beyond 2^53, and none costs a call of its own
    calls, dumps = [], cli._dumps

    def spy(value, newline="\n"):
        calls.append(type(value))
        return dumps(value, newline)

    monkeypatch.setattr(cli, "_dumps", spy)
    cli._solution_template.cache_clear()
    code, out, _ = run(capsys, "acs", "--dim", "4", "--m", "1400000006",
                       "--n", "280000001900000003")
    assert code == 0

    def ints(v):
        if isinstance(v, dict):
            v = list(v.values())
        if isinstance(v, list):
            return sum(map(ints, v))
        return type(v) is int or (isinstance(v, str) and v.lstrip("-").isdigit())

    printed = ints(json.loads(out))
    assert printed > 80
    assert len(calls) < printed


def test_python_dash_m_runs_the_cli():
    root = Path(__file__).resolve().parent.parent
    done = subprocess.run([sys.executable, "-m", "acscp", "verify", "cp4", "--seed", "0"],
                          cwd=root, env={**os.environ, "PYTHONPATH": str(root / "src")},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["payload"]["all_pass"] is True


_STARTUP = """
import contextlib, io, json, sys
loaded = set(sys.modules)
import acscp.cli
report = {"import": sorted(m for m in ("dataclasses", "inspect", "csv")
                           if m in sys.modules and m not in loaded),
          "suites": "acscp.suites" in sys.modules}
with contextlib.redirect_stdout(io.StringIO()) as out:
    report["code"] = acscp.cli.main(["verify", "cp4"])
report["all_pass"] = json.loads(out.getvalue())["payload"]["all_pass"]
print(json.dumps(report))
"""


def test_import_leaves_dataclasses_inspect_and_csv_out():
    # acscp.suites stays loaded with the cli: bench/spans.py's Tracer reads
    # every layer, suites included, from sys.modules after an acs warm-up job
    root = Path(__file__).resolve().parent.parent
    done = subprocess.run([sys.executable, "-c", _STARTUP], cwd=root,
                          env={**os.environ, "PYTHONPATH": str(root / "src")},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {"import": [], "suites": True, "code": 0, "all_pass": True}


def test_no_record_reaches_the_writer(capsys, monkeypatch):
    # _dumps writes a tuple by its exact type; a named tuple would fall
    # through to json.dumps and lose the indentation
    from acscp import cli
    seen, dumps = [], cli._dumps

    def spy(value, newline="\n"):
        seen.append(type(value))
        return dumps(value, newline)

    monkeypatch.setattr(cli, "_dumps", spy)
    cli._solution_template.cache_clear()
    for argv in (["acs", "--dim", "4", "--m", "-8", "--n", "12"],
                 ["acs", "--dim", "5", "--m", "2", "--n", "0"],
                 ["acs", "--dim", "6", *CP6_PARAMS, "--a-max", "3", "--c-max", "3"],
                 ["realizable", "--dim", "2", "1", "1"],
                 ["table", "mod31"], ["verify", "cp5"]):
        assert main(argv) == 0
    capsys.readouterr()
    assert {dict, list, int} <= set(seen)
    assert not [t for t in seen if issubclass(t, tuple) and t is not tuple]
