import json
import sys
import time
from pathlib import Path

import pytest

import lamadic.cli as cli
from lamadic import linalg
from lamadic.classnum import H_MINUS_MAX_ELL
from lamadic.cli import MAX_BUDGET, MAX_C_LR_ELL, MAX_COMMUTATOR_N, MAX_R, run
from lamadic.curves import MAX_DEGREE, parse_poly


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eps(capsys):
    code, out, _ = invoke(capsys, "eps", "--ell", "11", "--r", "8")
    assert code == 0 and out.strip() == "-1"
    code, out, _ = invoke(capsys, "eps", "--ell", "11", "--r", "8", "--json")
    assert json.loads(out)["epsilon"] == -1


_BAD_R = [(argv, f"--r must be between 2 and {MAX_R}, got {r}")
          for r in (1, -5, MAX_R + 1)
          for argv in (("eps", "--ell", "11", f"--r={r}"),
                       *((sub, "--ell", "5", "--r", str(r))
                         for sub in ("c-lr", "lattice-index", "demjanenko", "kappa")))]


@pytest.mark.parametrize("argv, error", _BAD_R, ids=[" ".join(a) for a, _ in _BAD_R])
def test_r_outside_its_limits_exits_2(capsys, argv, error):
    code, out, _ = invoke(capsys, *argv, "--json")
    assert code == 2 and json.loads(out) == {"code": 2, "error": f"DomainError: {error}"}


def test_unknown_command_exits_1(capsys):
    assert invoke(capsys, "frobnicate")[0] == 1


def test_missing_flag_exits_1(capsys):
    assert invoke(capsys, "eps", "--ell", "11")[0] == 1


def test_unknown_flag_exits_1(capsys):
    assert invoke(capsys, "eps", "--ell", "11", "--r", "8", "--zap", "1")[0] == 1


def test_c_lr_and_h_minus(capsys):
    code, out, _ = invoke(capsys, "c-lr", "--ell", "11", "--r", "8", "--json")
    data = json.loads(out)
    assert code == 0 and data["r_ell"] == 10 and data["c"] == 32769
    code, out, _ = invoke(capsys, "c-lr", "--ell", "20011", "--r", "2", "--json")
    assert code == 0 and json.loads(out)["r_ell"] == 6670  # below cli.MAX_C_LR_ELL
    code, out, _ = invoke(capsys, "h-minus", "--ell", "23")
    assert code == 0 and out.strip() == "3"


def test_c_lr_prints_c_up_to_the_str_digits_limit(capsys):
    """At ell = 28559 and r = 2, c has 4299 digits; at ell = 28571, 4301."""
    default = sys.get_int_max_str_digits()
    try:
        for limit, ell, digits in ((4299, 28559, 4299), (4298, 28559, None), (default, 28571, None)):
            sys.set_int_max_str_digits(limit)
            code, out, err = invoke(capsys, "c-lr", "--ell", str(ell), "--r", "2")
            if digits is None:
                assert code == 2 and not out and f"more than {limit} digits" in err
            else:
                assert code == 0 and len(out.split("c = ")[1].strip()) == digits
    finally:
        sys.set_int_max_str_digits(default)


def test_computation_error_exits_2(capsys):
    code, out, _ = invoke(capsys, "c-lr", "--ell", "5", "--r", "10", "--json")
    assert code == 2
    assert json.loads(out)["code"] == 2


def test_demjanenko_and_kappa(capsys):
    code, out, _ = invoke(capsys, "demjanenko", "--ell", "11", "--r", "8", "--json")
    data = json.loads(out)
    assert code == 0 and data["kappa_bound"] == 0 and data["t"] == 0
    code, out, _ = invoke(capsys, "kappa", "--ell", "3", "--r", "2", "--json")
    assert json.loads(out) == {"ell": 3, "r": 2, "kappa_bound": 0, "t": 0}


def test_su_order(capsys):
    code, out, _ = invoke(
        capsys, "su-order", "--ell", "11", "--d", "7", "--n", "10", "--k", "1", "--json"
    )
    assert code == 0 and json.loads(out)["exponent"] == 219


def test_su_order_at_a_huge_level(capsys):
    start = time.monotonic()
    code, out, _ = invoke(
        capsys, "su-order", "--ell", "11", "--d", "7", "--n", str(10**12), "--k", "1", "--json"
    )
    # 21 per odd level above the first, 27 per even level
    assert code == 0 and json.loads(out)["exponent"] == 21 * (10**12 // 2 - 1) + 27 * 10**12 // 2
    assert time.monotonic() - start < 1.0


def test_verify_commutator(capsys):
    for n in (3, 4, 6):
        code, out, _ = invoke(capsys, "verify-commutator", "--n", str(n), "--json")
        assert code == 0 and json.loads(out)["holds"] is True


def test_lift_check(capsys):
    code, out, _ = invoke(
        capsys, "lift-check", "--ell", "3", "--d", "2", "--n", "4",
        "--trials", "3", "--seed", "5", "--json",
    )
    data = json.loads(out)
    assert code == 0 and data["passed"] == 3


@pytest.mark.parametrize("flags, message", [
    (("--trials", "0"), "--trials must be between 1 and 20, got 0"),
    (("--trials", "-2"), "--trials must be between 1 and 20, got -2"),
    (("--trials", "21"), "--trials must be between 1 and 20, got 21"),
    (("--d", "0"), "--d must be between 1 and 9, got 0"),
    (("--d", "10"), "--d must be between 1 and 9, got 10"),
    (("--n", "1"), "--n must be between 2 and 16, got 1"),
    (("--n", "17"), "--n must be between 2 and 16, got 17"),
    (("--ell", "37"), "--ell must be between 3 and 31, got 37"),
])
def test_lift_check_limits_exit_2(capsys, flags, message):
    argv = dict(zip(("--ell", "--d", "--n"), ("3", "2", "3")))
    argv.update([flags])
    code, out, err = invoke(capsys, "lift-check", *(x for kv in argv.items() for x in kv))
    assert code == 2 and not out
    assert err == f"error: DomainError: {message}\n"


_UNPRINTABLE_C = (f"c has more than {sys.get_int_max_str_digits()} digits, the limit for "
                  "printing an integer (sys.get_int_max_str_digits())")


@pytest.mark.parametrize("argv, message", [
    (("c-lr", "--ell", str(MAX_C_LR_ELL + 3), "--r", "2"),
     f"--ell must be between 3 and {MAX_C_LR_ELL}, got {MAX_C_LR_ELL + 3}"),
    (("c-lr", "--ell", "1000000007", "--r", "2"),
     f"--ell must be between 3 and {MAX_C_LR_ELL}, got 1000000007"),
    (("verify-commutator", "--n", str(MAX_COMMUTATOR_N + 1)),
     f"--n must be between 3 and {MAX_COMMUTATOR_N}, got {MAX_COMMUTATOR_N + 1}"),
    (("verify-commutator", "--n", "4000"), f"--n must be between 3 and {MAX_COMMUTATOR_N}, got 4000"),
    (("verify-commutator", "--n", "2"), f"--n must be between 3 and {MAX_COMMUTATOR_N}, got 2"),
    (("c-lr", "--ell", "20011", "--r", "10"), _UNPRINTABLE_C),
    (("c-lr", "--ell", "999983", "--r", "5"), _UNPRINTABLE_C),
])
def test_c_lr_and_verify_commutator_limits_exit_2(capsys, argv, message):
    code, out, err = invoke(capsys, *argv)
    assert code == 2 and not out
    assert err == f"error: DomainError: {message}\n"


def test_c_lr_refuses_an_unprintable_c_before_computing_it(capsys, monkeypatch):
    """c >= (r-1)^((ell-1)/2), so at these inputs the digit bound alone
    refuses c, and c_lr never runs.  At r = 2 the bound says nothing and c
    is computed, and an ell that c_lr rejects still reaches c_lr."""
    calls = []
    monkeypatch.setattr(cli, "c_lr", lambda *a, f=cli.c_lr: calls.append(a) or f(*a))
    for ell, r in ((999983, 501), (999983, 5), (20011, 10)):
        code, out, err = invoke(capsys, "c-lr", "--ell", str(ell), "--r", str(r))
        assert code == 2 and not out and err == f"error: DomainError: {_UNPRINTABLE_C}\n"
    assert calls == []
    for argv, message in ((("--ell", "999983", "--r", "2"), _UNPRINTABLE_C),
                          (("--ell", "999999", "--r", "501"), "ell = 999999 must be an odd prime")):
        code, out, err = invoke(capsys, "c-lr", *argv)
        assert code == 2 and err == f"error: DomainError: {message}\n"
    assert len(calls) == 2


@pytest.mark.parametrize("sub", ["demjanenko", "kappa", "lattice-index"])
def test_class_number_commands_refuse_ell_past_the_h_minus_limit_first(capsys, monkeypatch, sub):
    """At ell = 1009 the h^- limit refuses the input before any determinant
    or solve of size about ell/2 runs."""
    calls = []
    for name in ("det", "solve"):
        f = getattr(linalg, name)
        monkeypatch.setattr(linalg, name, lambda *a, f=f, name=name: calls.append(name) or f(*a))
    code, out, _ = invoke(capsys, sub, "--ell", "1009", "--r", "2", "--json")
    assert code == 2 and calls == []
    assert json.loads(out)["error"] == (
        f"DomainError: ell = 1009 exceeds the limit {H_MINUS_MAX_ELL} for h^-")


def test_selftest_trials_limits_exit_2(capsys):
    for trials in ("0", "21"):
        code, _, err = invoke(capsys, "selftest", "--trials", trials)
        assert code == 2 and "--trials must be between 1 and 20" in err


def test_budget_zero_is_not_replaced_by_the_default(capsys, monkeypatch):
    import lamadic.curves as curves

    seen = []
    factorize = curves.factorize
    monkeypatch.setattr(curves, "factorize",
                        lambda n, budget: seen.append(budget) or factorize(n, budget))
    for sub in ("check-curve", "division-degree"):
        invoke(capsys, sub, "--ell", "3", "--poly", "x^5 - x - 1", "--budget", "0")
        invoke(capsys, sub, "--ell", "3", "--poly", "x^5 - x - 1")
    assert seen == [0, 200000, 0, 200000]
    code, _, err = invoke(capsys, "check-curve", "--ell", "3", "--poly", "x^5 - x - 1",
                          "--budget", "-1")
    assert code == 2 and "--budget must be between 0 and 4000000, got -1" in err


def test_budget_upper_limit_exits_2(capsys):
    for sub in ("check-curve", "division-degree"):
        code, out, _ = invoke(capsys, sub, "--ell", "3", "--poly", "x^5 - x - 1",
                              "--budget", str(MAX_BUDGET + 1), "--json")
        assert code == 2
        assert json.loads(out)["error"] == (
            f"DomainError: --budget must be between 0 and {MAX_BUDGET}, got {MAX_BUDGET + 1}")
        # the limit itself is accepted
        code, _, _ = invoke(capsys, sub, "--ell", "3", "--poly", "x^5 - x - 1",
                            "--budget", str(MAX_BUDGET))
        assert code == 0


def test_lattice_index(capsys):
    code, out, _ = invoke(capsys, "lattice-index", "--ell", "11", "--r", "8", "--json")
    assert code == 0 and json.loads(out)["t"] == 0


def test_curve_commands_compute_the_discriminant_once(capsys, monkeypatch):
    # only discriminant calls resultant, so a call through any module's
    # binding of discriminant is counted
    import lamadic.curves as curves

    calls = []
    resultant = curves.resultant
    monkeypatch.setattr(curves, "resultant", lambda f, g: calls.append(1) or resultant(f, g))
    for sub in ("check-curve", "division-degree"):
        calls.clear()
        code, _, _ = invoke(capsys, sub, "--ell", "11", "--poly", "x^8 + x - 1")
        assert code == 0 and len(calls) == 1, sub


# One fault per input, with the exit code and --json output of both curve
# commands: check-curve validates ell, then monicity, then --budget, then
# separability; division-degree validates --budget first and rejects a
# degree below 4 after monicity.
def _fault(code, error):
    return code, {"code": code, "error": error}


_FAULTS = [
    (("--ell", "9", "--poly", "x^5 - x - 1"),
     _fault(2, "DomainError: ell must be an odd prime"),
     _fault(2, "DomainError: ell must be an odd prime")),
    (("--ell", "5", "--poly", "x^5 - x - 1"),
     _fault(2, "DomainError: ell must not divide the degree"),
     _fault(2, "DomainError: ell must not divide the degree")),
    (("--ell", "3", "--poly", "2*x^5 - x - 1"),
     _fault(2, "DomainError: polynomial must be monic"),
     _fault(2, "DomainError: polynomial must be monic")),
    (("--ell", "5", "--poly", "x^3 - x - 1"),
     (0, {"disc": -23, "ell": 5, "epsilon": -1, "galois": "symmetric",
          "poly": "x^3 - x - 1", "simple_prime": 23, "simple_prime_proven": True}),
     _fault(3, "need degree >= 4")),
    (("--ell", "3", "--poly", "x^5 - 2*x^3 + x"),
     _fault(3, "polynomial is not separable"),
     _fault(3, "polynomial is not separable")),
    (("--ell", "3", "--poly", "x^5 - x - 1", "--budget", "-1"),
     _fault(2, "DomainError: --budget must be between 0 and 4000000, got -1"),
     _fault(2, "DomainError: --budget must be between 0 and 4000000, got -1")),
    (("--ell", "9", "--poly", "x^5 - x - 1", "--budget", "-1"),
     _fault(2, "DomainError: ell must be an odd prime"),
     _fault(2, "DomainError: --budget must be between 0 and 4000000, got -1")),
]


@pytest.mark.parametrize("argv, check_curve, division_degree", _FAULTS,
                         ids=[" ".join(f[0]) for f in _FAULTS])
def test_curve_commands_report_single_faults(capsys, argv, check_curve, division_degree):
    for sub, expected in (("check-curve", check_curve), ("division-degree", division_degree)):
        code, out, _ = invoke(capsys, sub, *argv, "--json")
        assert (code, json.loads(out)) == expected, sub


@pytest.mark.parametrize("argv, error", [
    (("eps", "--ell", "9", "--r", "2"), "DomainError: ell = 9 must be an odd prime"),
    (("eps", "--ell", "1", "--r", "2"), "DomainError: ell = 1 must be an odd prime"),
    (("eps", "--ell", "11", "--r", "22"), "DomainError: ell must not divide r"),
    (("su-order", "--ell", "4", "--d", "3", "--n", "5", "--k", "1"),
     "DomainError: ell = 4 must be an odd prime"),
    (("su-order", "--ell", "11", "--d", "0", "--n", "5", "--k", "1"),
     "DomainError: d = 0 must be at least 1"),
    (("su-order", "--ell", "11", "--d", "-3", "--n", "5", "--k", "1"),
     "DomainError: d = -3 must be at least 1"),
])
def test_eps_and_su_order_reject_bad_ell_and_d(capsys, argv, error):
    code, out, _ = invoke(capsys, *argv, "--json")
    assert code == 2 and json.loads(out) == {"code": 2, "error": error}


@pytest.mark.parametrize("argv", [
    ("eps", "--ell", "11", "--r", "8"),
    ("c-lr", "--ell", "11", "--r", "8"),
    ("h-minus", "--ell", "7"),
    ("demjanenko", "--ell", "5", "--r", "2"),
    ("kappa", "--ell", "5", "--r", "2"),
    ("su-order", "--ell", "5", "--d", "2", "--n", "3", "--k", "1"),
    ("verify-commutator", "--n", "3"),
    ("lattice-index", "--ell", "5", "--r", "2"),
    ("check-curve", "--ell", "3", "--poly", "x^5 - x - 1"),
    ("division-degree", "--ell", "3", "--poly", "x^5 - x - 1"),
], ids=lambda argv: argv[0])
def test_seed_is_an_unknown_flag_where_nothing_is_random(capsys, argv):
    assert invoke(capsys, *argv)[0] == 0
    assert invoke(capsys, *argv, "--seed", "1")[0] == 1


def test_check_curve_hypothesis_failure_exits_3(capsys):
    code, out, err = invoke(
        capsys, "check-curve", "--ell", "11", "--poly", "x^8 + x + 1"
    )
    assert code == 3


def test_check_curve_success(capsys):
    code, out, _ = invoke(
        capsys, "check-curve", "--ell", "11", "--poly", "x^8 + x - 1", "--json"
    )
    data = json.loads(out)
    assert code == 0 and data["galois"] == "symmetric"


@pytest.mark.parametrize("poly", ["x^12 + x + 3", "x^10 + 7*x + 13"])
def test_check_curve_with_a_large_prime_in_the_discriminant(capsys, poly):
    # the discriminants have a 19- and a 21-digit prime factor, which
    # trial-division primality testing could not decide in minutes
    start = time.monotonic()
    code, out, _ = invoke(capsys, "check-curve", "--ell", "11", "--poly", poly, "--json")
    data = json.loads(out)
    assert code == 0 and data["galois"] == "symmetric"
    assert abs(data["disc"]) % data["simple_prime"] == 0 and data["simple_prime"] > 10**18
    assert time.monotonic() - start < 10.0


@pytest.mark.parametrize("ell", ["4", "1", "-3", "5"])
def test_check_curve_rejects_ell_like_division_degree(capsys, ell):
    # 5 is prime but divides the degree of the quintic
    results = [
        invoke(capsys, command, "--ell", ell, "--poly", "x^5 - x - 1", "--json")
        for command in ("check-curve", "division-degree")
    ]
    assert [code for code, _, _ in results] == [2, 2]
    errors = [json.loads(out)["error"] for _, out, _ in results]
    assert errors[0] == errors[1]
    assert errors[0].startswith("DomainError: ell must")


def test_poly_syntax_error_exits_1(capsys):
    code, _, _ = invoke(capsys, "check-curve", "--ell", "11", "--poly", "x^-1")
    assert code == 1


def test_exponent_past_the_degree_limit_exits_2(capsys):
    """The exponent is refused while parsing, before any coefficient tuple
    is built, even where the term cancels."""
    over = MAX_DEGREE + 1
    for sub in ("check-curve", "division-degree"):
        for poly in (f"x^{over} + x + 1", f"x^{over} - x^{over} + x^5 - x - 1"):
            code, out, _ = invoke(capsys, sub, "--ell", "11", "--poly", poly, "--json")
            assert code == 2
            assert json.loads(out)["error"] == (
                f"DomainError: exponent {over} exceeds the degree limit {MAX_DEGREE}")
    assert parse_poly(f"x^{MAX_DEGREE} + 1").degree == MAX_DEGREE


def test_division_degree_paths(capsys):
    code, _, _ = invoke(
        capsys, "division-degree", "--ell", "11", "--poly", "x^8 + x + 1"
    )
    assert code == 3
    code, out, _ = invoke(
        capsys,
        "division-degree", "--ell", "11", "--poly", "x^8 + x + 1",
        "--override-hypotheses", "--json",
    )
    data = json.loads(out)
    assert code == 0
    assert data["degree"]["coeff"] == 40320
    assert data["components"]["su_exponent"] == 219
    assert data["reference"] == {"coeff": 40320, "ell_exponent": 260}
    assert data["discrepancy"]["coeff_matches"] is True
    # the witness of reducibility is the factor x^2 + x + 1
    assert data["galois"] == {"status": "reducible", "witnesses": {"factor": [1, 1, 1]}}


def test_division_degree_at_a_huge_ell_never_builds_the_unit_order(capsys):
    """The unit factor's anti-fixed power ell^((ell-3)/2), some 35 million
    digits at this ell, is reported by its exponent and never multiplied
    out."""
    ell = 10_000_019
    start = time.monotonic()
    code, out, _ = invoke(capsys, "division-degree", "--ell", str(ell), "--poly", "x^5 - x - 1",
                          "--override-hypotheses", "--json")
    assert code == 0
    parts = json.loads(out)["components"]["unit_reduction_order"]["total_parts"]
    assert parts == {"torsion": 2 * ell, "rational": 1, "anti_fixed_exponent": (ell - 3) // 2}
    assert time.monotonic() - start < 5.0


def test_selftest_deterministic(capsys):
    code1, out1, _ = invoke(capsys, "selftest", "--seed", "42", "--json")
    code2, out2, _ = invoke(capsys, "selftest", "--seed", "42", "--json")
    assert code1 == code2 == 0
    assert out1 == out2
    assert json.loads(out1)["ok"] is True


_GOLDEN = json.loads((Path(__file__).parent / "data" / "curve_golden.json").read_text())


@pytest.mark.parametrize("record", _GOLDEN, ids=lambda r: f"{r['argv'][0]}:{r['argv'][4]}"
                         + (":override" if "--override-hypotheses" in r["argv"] else ""))
def test_curve_commands_match_recorded_output(capsys, record):
    # --json output recorded byte for byte: a symmetric, a reducible and an
    # inconclusive f, two discriminants with a 19- and a 21-digit prime,
    # and discriminants with the prime 99991 (the largest below 10^5, found
    # by trial division) and 101279 (past 10^5, so left to rho)
    code, out, _ = invoke(capsys, *record["argv"])
    assert (code, out) == (record["code"], record["stdout"])
