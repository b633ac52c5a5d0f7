"""Command-line front end: every computation as a subcommand, with text or
JSON output, a deterministic seed for the randomized ones, and an exit-code
taxonomy that separates argument errors (1), computation errors (2), and
hypothesis failures (3).

Each handler imports the layers it calls, so a command loads only those:
`h-minus` loads classnum and not matrices, curves, lattices or commutators.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from math import comb

from .ring import (
    DomainError,
    HypothesisError,
    PolySyntaxError,
    RingError,
    check_ell_r,
    check_odd_prime,
)


# Upper limits of lift-check's flags, and of selftest's --trials.  The limits
# of d and n are set from one budget: a lift-check call at all four limits
# (--ell 31 --d 12 --n 16 --trials 20) spends at most 1.5 s in the library.
# It spends 1.25 s, and one step past either limit passes the budget: 1.64 s
# at d = 13 and 1.63 s at n = 17 (medians of 3 in-process calls, 2-core
# Intel Xeon, Python 3.11.7).
MAX_LIFT_ELL = 31
MAX_LIFT_D = 12
MAX_LIFT_N = 16
MAX_TRIALS = 20
# Upper limit of --budget, the Pollard-rho steps spent on each composite part
# of the discriminant.  Every squaring is a step, and a budget b takes at
# most b + 127 of them (_pollard_brent).  The budget bounds steps, not
# seconds: a step is a product modulo the composite, whose cost grows with
# its size.  At this limit rho gives up on the 40-digit semiprime
# (10^19 + 51)(3 10^20 + 53) after 1.9 s, and at the default budget of
# 200,000 `check-curve --ell 3` on x^5 + c x + 1 with a 200-digit c takes
# 7.7 s (same host).
MAX_BUDGET = 4_000_000
# Upper limit of --r for eps, c-lr, demjanenko, kappa and lattice-index.  The
# eps Gram determinant is taken in closed form and only building the
# (r-1) x (r-1) Gram matrix grows, as r^2: `eps --ell 1009 --r 501` takes
# 0.16 s of wall time, 0.024 s of it in weil_gram_and_epsilon (2-core Intel
# Xeon, Python 3.11.7).  The class-number commands grow with r only through
# integer size: at ell = 211 and r = 501, demjanenko takes 1.4 s and
# lattice-index 7.4 s of wall time (4.7 s at r = 5), while with no limit
# demjanenko took 12 s at r = 10^20 + 1 and 74 s at r = 10^60 + 1, which it
# then could not print.  c-lr's c has about (ell-1)/2 log10(r) digits and is
# refused when it cannot be printed, before it is built when a lower bound on
# its digit count already says so.
MAX_R = 501
# Upper limit of c-lr's --ell.  c_lr finds the order of r mod ell in up to
# ell - 1 steps: 0.19 s at ell = 999983 with r = 5 a primitive root, 1.9 s
# near 10^7, and ell = 1000000007 ran past 30 s.  ell = 20011 runs in 0.17 s
# of wall time (2-core Intel Xeon, Python 3.11.7).
MAX_C_LR_ELL = 1_000_000
# Upper limit of verify-commutator's --n.  The symbolic check grows about as
# n^2: verify_commutator_identity takes 0.044 s at n = 500, 0.11 s at
# n = 800, 0.17 s at n = 1000 and 2.9 s at n = 4000, and `verify-commutator
# --n 500` takes 0.19 s of wall time (same host).
MAX_COMMUTATOR_N = 500


def _in_range(flag: str, value: int, low: int, high: int | None = None) -> int:
    """value, or DomainError naming the flag and its limits."""
    if value < low or (high is not None and value > high):
        bounds = f"between {low} and {high}" if high is not None else f"at least {low}"
        raise DomainError(f"{flag} must be {bounds}, got {value}")
    return value


def _budget(args) -> int:
    from .curves import RHO_BUDGET

    return _in_range("--budget", RHO_BUDGET if args.budget is None else args.budget, 0, MAX_BUDGET)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _emit(args, payload: dict, text: str):
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text)


@functools.cache
def build_parser() -> _Parser:
    """The argument parser, built once per process."""
    p = _Parser(prog="lamadic", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text, *flags):
        sp = sub.add_parser(name, help=help_text)
        for flag, kind, required in flags:
            sp.add_argument(flag, type=kind, required=required)
        sp.add_argument("--json", action="store_true")
        sp.set_defaults(handler=handler)
        return sp

    add("eps", _cmd_eps, "square class of r modulo ell", ("--ell", int, True), ("--r", int, True))
    add("c-lr", _cmd_c_lr, "the order r_ell and the constant c",
        ("--ell", int, True), ("--r", int, True))
    add("h-minus", _cmd_h_minus, "relative class number", ("--ell", int, True))
    add("demjanenko", _cmd_demjanenko, "half-system determinant report",
        ("--ell", int, True), ("--r", int, True))
    add("kappa", _cmd_kappa, "index bound and exact exponent",
        ("--ell", int, True), ("--r", int, True))
    add(
        "su-order", _cmd_su_order,
        "exponent e with |SU(V/lambda^n)_k| = ell^e",
        ("--ell", int, True), ("--d", int, True), ("--n", int, True), ("--k", int, True),
    )
    add("verify-commutator", _cmd_verify_commutator, "symbolic commutator identity",
        ("--n", int, True))
    add(
        "lift-check", _cmd_lift_check,
        "randomized constructive-lift verification",
        ("--ell", int, True), ("--d", int, True), ("--n", int, True), ("--trials", int, False),
    ).add_argument("--seed", type=int, default=0)
    add("lattice-index", _cmd_lattice_index, "cokernel exponent cross-check",
        ("--ell", int, True), ("--r", int, True))
    add(
        "check-curve", _cmd_check_curve,
        "hypothesis checks for a monic integer polynomial",
        ("--ell", int, True), ("--poly", str, True), ("--budget", int, False),
    )
    add(
        "division-degree", _cmd_division_degree,
        "degree report for the torsion field",
        ("--ell", int, True), ("--poly", str, True), ("--budget", int, False),
    ).add_argument("--override-hypotheses", action="store_true")
    add("selftest", _cmd_selftest, "run the property grid",
        ("--trials", int, False)).add_argument("--seed", type=int, default=0)
    return p


def _cmd_eps(args):
    from .matrices import weil_gram_and_epsilon

    _, square_class, eps = weil_gram_and_epsilon(args.ell, args.r)
    _emit(args, {"ell": args.ell, "r": args.r, "epsilon": eps,
                 "gram_square_class": square_class}, str(eps))
    return 0


def _cmd_c_lr(args):
    from .classnum import c_lr

    check_ell_r(args.ell, args.r)
    _in_range("--ell", args.ell, 3, MAX_C_LR_ELL)
    limit = sys.get_int_max_str_digits()
    unprintable = DomainError(f"c has more than {limit} digits, the limit for printing an "
                              f"integer (sys.get_int_max_str_digits())")
    # c >= (r-1)^((ell-1)/2) for either parity of r_ell, and 2^b has more than
    # 0.30102 b digits: past the limit, refuse before the order and the power
    # are computed.
    bits = (args.ell - 1) // 2 * ((args.r - 1).bit_length() - 1)
    if limit and bits * 30102 // 100000 >= limit:
        raise unprintable
    r_ell, c = c_lr(args.ell, args.r)
    if limit and c >= 10**limit:
        raise unprintable
    _emit(args, {"ell": args.ell, "r": args.r, "r_ell": r_ell, "c": c},
          f"r_ell = {r_ell}, c = {c}")
    return 0


def _cmd_h_minus(args):
    from .classnum import h_minus

    h = h_minus(args.ell)
    _emit(args, {"ell": args.ell, "h_minus": h}, str(h))
    return 0


def _cmd_demjanenko(args):
    from .classnum import demjanenko_det

    rep = demjanenko_det(args.ell, args.r)
    _emit(args, rep.to_json_dict(),
          f"det = {rep.det}, h_minus = {rep.h_minus}, c = {rep.c_lr}, "
          f"kappa_bound = {rep.kappa_bound}, t = {rep.t}")
    return 0


def _cmd_kappa(args):
    from .classnum import kappa_and_t

    kappa, t = kappa_and_t(args.ell, args.r)
    _emit(args, {"ell": args.ell, "r": args.r, "kappa_bound": kappa, "t": t},
          f"kappa_bound = {kappa}, t = {t}")
    return 0


def _cmd_su_order(args):
    from .matrices import filtration_order_exponent

    e = filtration_order_exponent(args.ell, args.d, args.n, args.k)
    _emit(args, {"ell": args.ell, "d": args.d, "n": args.n, "k": args.k, "exponent": e},
          f"|SU(V/lambda^{args.n})_{args.k}| = {args.ell}^{e}")
    return 0


def _cmd_verify_commutator(args):
    from .commutators import verify_commutator_identity

    _in_range("--n", args.n, 3, MAX_COMMUTATOR_N)
    ok, residual = verify_commutator_identity(args.n)
    _emit(
        args,
        {"n": args.n, "holds": ok,
         "residual": [[deg, list(word), str(coef)] for (deg, word), coef in residual]},
        "identity holds" if ok else f"RESIDUAL: {residual}",
    )
    return 0 if ok else 2


def _cmd_lift_check(args):
    from .matrices import HermitianForm, classify_membership, lift_su, random_su_element
    from .ring import RingCtx

    check_odd_prime(args.ell)
    _in_range("--ell", args.ell, 3, MAX_LIFT_ELL)
    _in_range("--d", args.d, 1, MAX_LIFT_D)
    n = _in_range("--n", args.n, 2, MAX_LIFT_N)
    trials = _in_range("--trials", 20 if args.trials is None else args.trials, 1, MAX_TRIALS)
    rng = random.Random(args.seed)
    form = HermitianForm.standard(RingCtx(args.ell, 1), args.d)
    passed = 0
    for _ in range(trials):
        a = random_su_element(form, n - 1, rng)
        lifted = lift_su(a, form)
        verdict = classify_membership(lifted, form)
        if verdict.kind == "SU" and lifted.truncate(n - 1) == a:
            passed += 1
    ok = passed == trials
    _emit(args, {"ell": args.ell, "d": args.d, "n": n, "trials": trials, "passed": passed},
          f"{passed}/{trials} lifts verified")
    return 0 if ok else 2


def _cmd_lattice_index(args):
    from .lattices import lattice_index_check

    t_prime = lattice_index_check(args.ell, args.r)
    _emit(args, {"ell": args.ell, "r": args.r, "t": t_prime}, f"t = {t_prime}")
    return 0


def _cmd_check_curve(args):
    from .curves import check_curve_input, curve_hypotheses, parse_poly
    from .matrices import legendre

    f = parse_poly(args.poly)
    check_curve_input(args.ell, f)
    hyp = curve_hypotheses(args.ell, f, _budget(args))
    status, simple_p = hyp.galois.status, hyp.simple_prime
    payload = {
        "ell": args.ell,
        "poly": str(f),
        "disc": hyp.disc,
        "simple_prime": simple_p,
        "simple_prime_proven": hyp.simple_prime_proven,
        "galois": status,
        "epsilon": legendre(f.degree, args.ell),
    }
    _emit(args, payload, f"disc = {hyp.disc}, simple prime = {simple_p}, galois = {status}")
    if status != "symmetric" or simple_p is None:
        raise HypothesisError(f"galois = {status}, simple prime = {simple_p}")
    return 0


def _cmd_division_degree(args):
    from .curves import division_degree_report, parse_poly

    f = parse_poly(args.poly)
    rep = division_degree_report(
        args.ell, f,
        budget=_budget(args),
        override_hypotheses=args.override_hypotheses,
    )
    text = f"degree = {rep.degree_coeff} * {args.ell}^{rep.degree_ell_exponent}"
    if rep.discrepancy is not None:
        text += (f"\nreference = {rep.reference['coeff']} * "
                 f"{args.ell}^{rep.reference['ell_exponent']}; "
                 f"exponent difference {rep.discrepancy['ell_exponent_difference']}")
    _emit(args, rep.to_json_dict(), text)
    return 0


def _cmd_selftest(args):
    from .classnum import demjanenko_det, h_minus
    from .commutators import su_commutator_span_check, verify_commutator_identity
    from .lattices import (
        infinity_type_matrix_check,
        lattice_index_check,
        u_prime_basis,
        u_reduction_order,
    )
    from .matrices import (
        HermitianForm,
        classify_membership,
        filtration_order_exponent,
        legendre,
        random_su_element,
    )
    from .ring import CycloElt, RingCtx

    trials = _in_range("--trials", 5 if args.trials is None else args.trials, 1, MAX_TRIALS)
    rng = random.Random(args.seed)
    results = {}

    def check(name, fn):
        results[name] = bool(fn())

    ctx = RingCtx(3, 4)
    # digits -> sum d_t (1 - zeta)^t on the power basis -> element -> digits
    check("ring_digit_roundtrip", lambda: all(
        CycloElt(ctx, CycloElt.from_poly(
            [sum(d * (-1) ** k * comb(t, k) for t, d in enumerate(ds)) for k in range(len(ds))],
            ctx).digits).digits == tuple(ds)
        for ds in [(0, 1, 2, 0), (2, 2, 2, 2), (1, 0, 0, 1)]
    ))
    check("conjugate_congruence", lambda: all(
        (CycloElt.lam(RingCtx(ell, 2), 1)
         + CycloElt.lam(RingCtx(ell, 2), 1).conjugate()).ord_lambda >= 2
        for ell in (3, 5, 7, 11)
    ))
    check("su_order_anchor", lambda: filtration_order_exponent(11, 7, 10, 1) == 219)
    check("commutator_identity", lambda: all(
        verify_commutator_identity(n)[0] for n in range(3, 8)
    ))
    check("span_small", lambda: su_commutator_span_check(3, 3, 3))

    def lift_trials():
        form = HermitianForm.standard(RingCtx(3, 1), 2)
        for _ in range(trials):
            a = random_su_element(form, 3, rng)
            if classify_membership(a, form).kind != "SU":
                return False
        return True

    check("random_su_members", lift_trials)
    check("demjanenko_small", lambda: demjanenko_det(5, 2).t == 0)
    check("h_minus_small", lambda: h_minus(7) == 1)
    check("lattice_index_small", lambda: lattice_index_check(5, 3) in (0, 1))
    check("infinity_type_matrix", lambda: infinity_type_matrix_check(5, 2))
    check("u_prime_rank", lambda: len(u_prime_basis(7, 8).log_generators) == 3)
    check("reduction_order_positive", lambda: u_reduction_order(5, 2, 4)[0] > 0)
    check("eps_example", lambda: legendre(8, 11) == -1)
    ok = all(results.values())
    lines = [f"{'PASS' if results[name] else 'FAIL'} {name}" for name in sorted(results)]
    _emit(args, {"seed": args.seed, "results": results, "ok": ok},
          "\n".join(lines + ["OK" if ok else "FAILED"]))
    return 0 if ok else 2


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 1
    try:
        if "r" in vars(args):  # --r has one range on every command that takes it
            _in_range("--r", args.r, 2, MAX_R)
        return args.handler(args)
    except HypothesisError as e:
        _error(args, str(e), 3)
        return 3
    except PolySyntaxError as e:
        _error(args, str(e), 1)
        return 1
    except (RingError, ValueError, ArithmeticError) as e:
        _error(args, f"{type(e).__name__}: {e}", 2)
        return 2


def _error(args, message: str, code: int):
    if getattr(args, "json", False):
        print(json.dumps({"error": message, "code": code}, sort_keys=True))
    else:
        print(f"error: {message}", file=sys.stderr)


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
