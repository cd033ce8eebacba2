import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from acscp.cli import main, _build_parser, _dumps


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
    code, doc, _ = run_json(capsys, "acs", "--dim", "6", "--m", "16", "--n", "11",
                            "--q", "23", "--a-max", "20", "--c-max", "20")
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
    code, doc, _ = run_json(capsys, "acs", "--dim", "6", "--m", "0", "--n", "0")
    assert code == 2
    assert doc["status"] == "violation"


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


def test_dumps_on_empty_containers_and_edge_scalars():
    value = {"": {}, "b": [], "a": [[], {}, [{}], ()], "z": [True, False, None, -0, 2 ** 60]}
    assert _dumps(value) == json.dumps(_jsonable(value), sort_keys=True, indent=2)


def test_python_dash_m_runs_the_cli():
    root = Path(__file__).resolve().parent.parent
    done = subprocess.run([sys.executable, "-m", "acscp", "verify", "cp4", "--seed", "0"],
                          cwd=root, env={**os.environ, "PYTHONPATH": str(root / "src")},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["payload"]["all_pass"] is True
