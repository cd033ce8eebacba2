import json
from types import SimpleNamespace

import pytest

import acscp.suites
from acscp import exactmath, homotopy
from acscp.chernvec import _q_rows
from acscp.cli import main
from acscp.suites import SUITES, Check, _every, _expect, run_suite


def verify_json(capsys, suite):
    code = main(["verify", suite])
    return code, json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("name", sorted(SUITES))
def test_suite_passes(name):
    checks = run_suite(name)
    failed = [c for c in checks if not c.passed]
    assert not failed, failed


def test_run_all_flattens_names():
    checks = run_suite("all")
    assert any(c.name.startswith("ktheory:") for c in checks)
    assert all(c.passed for c in checks)


def test_unknown_suite():
    with pytest.raises(KeyError):
        run_suite("bogus")


def test_check_helpers():
    assert _expect("x", 2, 2) == Check("x", True)
    assert _expect("x", 2, 3) == Check("x", False, "got 2, want 3")
    read = []

    def failures():
        for k in range(5):
            read.append(k)
            if k:
                yield f"case {k}"

    assert _every("y", failures()) == Check("y", False, "case 1")
    assert read == [0, 1]
    assert _every("y", iter(())) == Check("y", True)


def test_check_keeps_its_repr_equality_hash_and_immutability():
    check = Check("x", True)
    assert repr(check) == "Check(name='x', passed=True, detail='')"
    assert check == Check("x", True, "") and hash(check) == hash(Check("x", True, ""))
    with pytest.raises(AttributeError):
        check.passed = False


def test_failing_cp5_points_fail_the_sweep_with_the_first(capsys, monkeypatch):
    real = acscp.suites.cp5_structure
    broken = {(-8, 3), (4, -1)}

    def cp5_structure(X):
        return SimpleNamespace(ok=False) if (X.m, X.n) in broken else real(X)

    monkeypatch.setattr(acscp.suites, "cp5_structure", cp5_structure)
    code, doc = verify_json(capsys, "cp5")
    payload = doc["payload"]
    checks = {c["name"]: c for c in payload["checks"]}
    assert code == 1
    assert doc["status"] == "error"
    assert payload["all_pass"] is False
    assert list(checks) == ["symbolic-top-chern", "structure-sweep", "untwisted-case"]
    assert checks["structure-sweep"]["pass"] is False
    assert "(-8, 3)" in checks["structure-sweep"]["detail"]
    assert "(4, -1)" not in checks["structure-sweep"]["detail"]
    for name in ("symbolic-top-chern", "untwisted-case"):
        assert checks[name] == {"name": name, "pass": True}


def test_failing_cp6_witness_fails_one_check(capsys, monkeypatch):
    def cp6_exists(X):
        raise ArithmeticError(f"no witness on {X}")

    monkeypatch.setattr(acscp.suites, "cp6_exists", cp6_exists)
    code, doc = verify_json(capsys, "cp6")
    checks = doc["payload"]["checks"]
    assert code == 1
    assert len(checks) == 9
    assert [c["name"] for c in checks if not c["pass"]] == ["criterion-vs-direct"]
    assert "no witness on" in checks[-1]["detail"]
    assert "(m,n,q)=(16,11,23)" in checks[-1]["detail"]


def test_basis_decomposition_eliminates_each_w_once(monkeypatch):
    # W(d) for d = 1..8 is eliminated once as [W | I] for its adjugate, and
    # once more on its own by the w-determinant check
    for d in range(1, 9):
        _q_rows(d)
    shapes = []
    eliminate = exactmath._eliminate

    def counted(rows):
        shapes.append((len(rows), len(rows[0])))
        return eliminate(rows)

    monkeypatch.setattr(exactmath, "_eliminate", counted)
    checks = acscp.suites.suite_chernvec()
    assert all(c.passed for c in checks)
    assert sorted(shapes) == sorted([(n, n) for n in range(2, 10)]
                                    + [(n, 2 * n) for n in range(2, 10)])


def test_verify_all_derives_the_default_cp6_rows_once(patch_model):
    # symbolic_cp6_numerators and the divisor target read the cached row set
    # of the model, and the 228 regression its own: two derivations in a
    # process, however many verify all runs it makes
    rows = homotopy._symbolic_cp6_rows
    for seed in (0, 1):
        assert all(c.passed for c in run_suite("all", seed))
    # the two arguments are the cached ones: reading them derives nothing
    rows()
    rows(p2_m2_coefficient=228)
    info = rows.cache_info()
    assert (info.misses, info.currsize) == (2, 2)


def test_a_triple_the_model_refuses_fails_one_check(model_1044):
    # under the 1044 model the fixed triple (16, 11, 23) is not admissible;
    # the suite used to build it outside the check, so run_suite("cp6")
    # raised ConstraintViolated instead of returning its checks
    checks = {c.name: c for c in run_suite("cp6")}
    assert len(checks) == 9
    failed = checks["criterion-vs-direct"]
    assert failed.passed is False
    assert failed.detail.startswith("(m,n,q)=(16,11,23): ") and "!= 0" in failed.detail
