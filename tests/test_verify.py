"""Verification reports: schema, determinism, spot values, CLI plumbing."""

import argparse
import json

import pytest

from spechtbranch import modules, verify
from spechtbranch.central import INDUCE, RESTRICT
from spechtbranch.cli import build_parser, main
from spechtbranch.fields import GF, QQ
from spechtbranch.partitions import Partition
from spechtbranch.tabloids import ModuleVector, polytabloid, standard_tableaux
from spechtbranch.verify import (
    VerificationReport,
    sweep,
    verify_branching,
    verify_coefficient_induction,
    verify_coefficient_restriction,
    verify_en_scalar,
    verify_min_poly,
    verify_poly_transfer,
)


def _strip_millis(d):
    d = dict(d)
    d.pop("millis")
    return d


def test_report_schema_and_determinism():
    """One report from every verifier: the same schema, Python bools in
    "pass", serializable as-is, and the same content on a rerun."""
    lam = Partition((2, 1))
    makers = [
        lambda: verify_branching(lam, 3, RESTRICT, seed=1),
        lambda: verify_branching(lam, 0, INDUCE, seed=1),
        lambda: verify_en_scalar(lam, GF(3)),
        lambda: verify_min_poly(lam, QQ, INDUCE),
        lambda: verify_poly_transfer(lam, GF(5), seed=1),
        lambda: verify_coefficient_restriction(lam, QQ),
        lambda: verify_coefficient_induction(lam, GF(3)),
    ]
    for make in makers:
        a, b = make(), make()
        assert a.passed and b.passed, a.summary()
        da, db = a.to_dict(), b.to_dict()
        assert set(da) == {"case", "field", "direction", "checks", "seed", "millis"}
        for check in da["checks"]:
            assert set(check) == {"name", "expected", "computed", "pass"}
            assert isinstance(check["expected"], str)
            assert isinstance(check["computed"], str)
            assert type(check["pass"]) is bool, (da["case"], check["name"])
        assert _strip_millis(da) == _strip_millis(db)
        json.dumps(da)  # serializable as-is


def test_affine_poly_reduces_once_per_step_and_stays_exact():
    """_apply_affine_poly, one reduction of the raw rows per Horner step,
    equals the same rule on ModuleVector sums and scalings, reduced at every
    operation: over Q, GF(2), GF(3), GF(2^31 - 1) and GF(3037000493), the
    largest prime FieldSpec admits, where the sum of two products (p - 1)^2
    would leave int64 and is summed in Python ints."""
    lam = Partition((3, 1, 1))
    t = standard_tableaux(lam)[2]
    for field in (QQ, GF(2), GF(3), GF(2 ** 31 - 1), GF(3037000493)):
        vec = polytabloid(t, field)
        for elt, shift, sign in ((modules.transposition_sum(4), 0, 1),
                                 (modules.murphy_element(5), 2 ** 40 + 3, -1)):
            for coeffs in ([1, -2, 3], [2 ** 31 - 2, -1, 2 ** 62, 5]):
                acc = ModuleVector.zero(lam, field)
                for a in reversed(coeffs):
                    acc = (acc.scale(shift) + elt.apply(acc).scale(sign)
                           + vec.scale(a))
                assert verify._apply_affine_poly(vec, coeffs, shift, sign, elt) == acc


def test_branching_rejects_a_field_as_characteristic():
    with pytest.raises(TypeError, match=r"characteristic must be an int, got "
                                        r"FieldSpec\(characteristic=3\) \(FieldSpec\)"):
        verify_branching((1,) * 7, GF(3), INDUCE)
    with pytest.raises(TypeError, match="characteristic must be an int"):
        GF(3.0)


def test_min_poly_spot_reports():
    r = verify_min_poly(Partition((2, 1)), QQ, RESTRICT)
    assert r.passed
    named = {c.name: c for c in r.checks}
    assert named["minimal-polynomial"].expected == "x^2 - 1"
    r = verify_min_poly(Partition((2, 1)), QQ, INDUCE)
    assert {c.name: c.expected for c in r.checks}["minimal-polynomial"] \
        == "x^3 - 4*x"
    assert r.passed
    r = verify_min_poly(Partition((2, 2)), GF(2), RESTRICT)
    assert r.passed


def test_en_scalar_report():
    r = verify_en_scalar(Partition((6, 1, 1, 1)), QQ)
    assert r.passed
    assert r.checks[0].expected == "9"
    r = verify_en_scalar(Partition((1,)), GF(2))
    assert r.passed


def test_poly_transfer_seeded():
    for field in (QQ, GF(2), GF(3)):
        r = verify_poly_transfer(Partition((3, 1)), field, seed=5)
        assert r.passed, r.summary()


def test_coefficient_lemma_spot_cases():
    r = verify_coefficient_restriction(Partition((3, 2, 1)), GF(3))
    assert [c.computed for c in r.checks] == ["0", "0", "1"]
    assert r.passed
    r = verify_coefficient_induction(Partition((2, 2)), QQ)
    assert [c.computed for c in r.checks] == ["0", "1"]
    assert r.passed
    r = verify_coefficient_induction(Partition((1,)), GF(5))
    assert [c.computed for c in r.checks] == ["0", "1"]
    assert r.passed


def test_branching_char_zero_dimensions_only():
    r = verify_branching(Partition((3, 2)), 0, RESTRICT)
    assert r.passed
    names = [c.name for c in r.checks]
    assert not any(name.startswith("verdict") for name in names)


def test_branching_rejects_bad_direction():
    with pytest.raises(ValueError):
        verify_branching(Partition((2, 1)), 3, "up")


def test_sweep_small_all_pass():
    result = sweep(3, [0, 3], seed=0)
    assert result["exit_code"] == 0
    assert result["failures"] == 0
    assert result["cases"] == len(result["reports"])
    cases = [(r.case, r.field, r.direction) for r in result["reports"]]
    again = sweep(3, [0, 3], seed=0)
    assert cases == [(r.case, r.field, r.direction) for r in again["reports"]]


def test_sweep_guardrail():
    for n_max in (9, 10):
        with pytest.raises(ValueError, match="sweep guardrail"):
            sweep(n_max, [3])
    result = sweep(2, [2], only=[Partition((2,))])
    assert result["exit_code"] == 0


@pytest.mark.parametrize("args,kwargs", [
    ((1, [3]), {}),
    ((3, []), {}),
    ((3, [3]), {"only": [Partition((7,))]}),
    ((3, [3]), {"only": [Partition((2, 1)), Partition((1,))]}),
], ids=["no-partition", "no-field", "only-too-large", "only-too-small"])
def test_sweep_refuses_a_sweep_of_no_case(args, kwargs):
    with pytest.raises(ValueError):
        sweep(*args, **kwargs)


def test_cli_sweep_of_a_partition_outside_its_range_exits_2(capsys):
    assert main(["sweep", "--n-max", "3", "--fields", "3", "--lambda", "7"]) == 2
    assert "2..3" in capsys.readouterr().err


def test_sweep_runs_each_direction_once():
    once = sweep(3, [3], directions=(INDUCE,), only=[Partition((2, 1))])
    twice = sweep(3, [3], directions=(INDUCE, INDUCE), only=[Partition((2, 1))])
    assert twice["directions"] == [INDUCE]
    assert [r.to_dict()["checks"] for r in twice["reports"]] == \
        [r.to_dict()["checks"] for r in once["reports"]]


def test_sweep_bounds_its_modules_not_its_n_max(monkeypatch):
    """No size knob: a sweep past n = 8 runs when every module and table it
    builds passes the cost bound, and one that would fail partway through
    is refused before its first report."""
    result = sweep(9, [3], only=[Partition((9,))])
    assert result["exit_code"] == 0 and result["cases"] == 8
    monkeypatch.setattr(verify, "verify_en_scalar", _raise(AssertionError("a report")))
    with pytest.raises(ValueError, match="sweep guardrail"):
        sweep(9, [3], only=[Partition((2,)), Partition((1,) * 9)])


def test_sweep_builds_each_tabloid_module_once(monkeypatch):
    """One lam over one field builds S^lam and its induction; the
    restriction reuses S^lam from the module cache."""
    built = []
    init = modules.TabloidModule.__init__

    def recorded(self, *args, **kwargs):
        built.append(kwargs.get("label"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(modules.TabloidModule, "__init__", recorded)
    modules.clear_module_cache()
    sweep(4, [3], only=[Partition((2, 1, 1))])
    modules.clear_module_cache()
    assert built == ["S^(2,1,1) over GF(3)", "S^(2,1,1) induced, over GF(3)"]


def test_cli_en_scalar_and_exit_codes(capsys):
    assert main(["en-scalar", "--lambda", "2,1", "--field", "3"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert main(["minpoly", "--lambda", "2,1", "--field", "0",
                 "--direction", "restrict"]) == 0


def _failing_report(*args, **kwargs):
    report = VerificationReport("stub", "GF(3)", None)
    report.add("stub-check", "1", "0", False)
    return report


def _raise(exc):
    def verifier(*args, **kwargs):
        raise exc
    return verifier


def _passing_report(*args, **kwargs):
    report = VerificationReport("stub", "GF(3)", None)
    report.add("stub-check", "1", "1", True)
    return report


@pytest.mark.parametrize("verifier,json_to_missing_dir,code,stream,text", [
    (_failing_report, False, 1, "out", "stub-check"),
    (_raise(ValueError("rejected input")), False, 2, "err", "rejected input"),
    (_passing_report, True, 2, "err", "error: cannot write report:"),
    (_raise(ArithmeticError("isomorphism undecided")), False, 3, "err",
     "isomorphism undecided"),
    (_raise(ZeroDivisionError("inverse of zero")), False, 3, "err",
     "inverse of zero"),
    (_raise(RuntimeError("a bug")), False, 3, "err", "RuntimeError: a bug"),
], ids=["check-failed", "usage-error", "unwritable-report", "undecided",
        "internal-failure", "unexpected-exception"])
def test_cli_exit_code_per_outcome(monkeypatch, capsys, tmp_path, verifier,
                                   json_to_missing_dir, code, stream, text):
    monkeypatch.setattr(verify, "verify_en_scalar", verifier)
    argv = ["en-scalar", "--lambda", "2,1", "--field", "3"]
    if json_to_missing_dir:
        argv += ["--json", str(tmp_path / "missing" / "report.json")]
    assert main(argv) == code
    assert text in getattr(capsys.readouterr(), stream)


def test_cli_blocks_and_decompose(capsys):
    assert main(["blocks", "--lambda", "2,1", "--field", "3",
                 "--direction", "restrict"]) == 0
    assert main(["decompose", "--lambda", "2,1", "--field", "0",
                 "--direction", "restrict"]) == 0
    out = capsys.readouterr().out
    assert "summand" in out


def test_cli_json_output(tmp_path, capsys):
    path = tmp_path / "report.json"
    assert main(["coeff-lemma", "--lambda", "2,2", "--field", "2",
                 "--json", str(path)]) == 0
    capsys.readouterr()
    payload = json.loads(path.read_text())
    assert isinstance(payload, list) and len(payload) == 2
    assert all(set(r) == {"case", "field", "direction", "checks",
                          "seed", "millis"} for r in payload)


def test_cli_sweep_guardrail_exit(capsys):
    assert main(["sweep", "--n-max", "10", "--fields", "3"]) == 2
    err = capsys.readouterr().err
    assert "guardrail" in err


def test_cli_sweep_small(tmp_path, capsys):
    path = tmp_path / "sweep.json"
    code = main(["sweep", "--n-max", "2", "--fields", "0,2",
                 "--json", str(path)])
    assert code == 0
    payload = json.loads(path.read_text())
    assert payload["failures"] == 0
    assert payload["cases"] == len(payload["reports"])


def test_cli_rejects_bad_partition(capsys):
    with pytest.raises(SystemExit):
        main(["en-scalar", "--lambda", "1,2", "--field", "3"])


def test_cli_rejects_a_prime_too_large_for_int64(capsys):
    """4294967291 is prime, but (p - 1)^2 >= 2^63: a usage error (exit 2),
    not an internal failure in the first product."""
    with pytest.raises(SystemExit) as exc:
        main(["minpoly", "--lambda", "3,1", "--field", "4294967291",
              "--direction", "induce"])
    assert exc.value.code == 2
    assert "too large" in capsys.readouterr().err


def test_cli_seed_only_on_verbs_that_use_it(capsys):
    """sweep passes --seed to its checks; the other verbs draw nothing at
    random and would ignore it, so they refuse it."""
    minimal = {
        "minpoly": ["--lambda", "2,1", "--direction", "restrict"],
        "en-scalar": ["--lambda", "2,1"],
        "coeff-lemma": ["--lambda", "2,1"],
        "branching": ["--lambda", "2,1", "--direction", "restrict"],
        "counterexamples": [],
        "blocks": ["--lambda", "2,1", "--direction", "restrict"],
        "decompose": ["--lambda", "2,1"],
        "sweep": ["--n-max", "2"],
    }
    parser = build_parser()
    subs = next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction))
    assert set(subs.choices) == set(minimal)
    for verb, argv in minimal.items():
        if verb == "sweep":
            assert parser.parse_args([verb, *argv]).seed == 0
            assert parser.parse_args([verb, *argv, "--seed", "7"]).seed == 7
        else:
            assert not hasattr(parser.parse_args([verb, *argv]), "seed")
            with pytest.raises(SystemExit):
                parser.parse_args([verb, *argv, "--seed", "7"])
            assert "--seed" in capsys.readouterr().err
