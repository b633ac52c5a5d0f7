"""End-to-end acceptance checks, one test per criterion.

Each test asserts both the mathematical content and a wall-clock budget, so
`pytest -v` prints a single pass/fail line per criterion.
"""

import json
import random
import time
from itertools import product

import pytest

from lamadic.classnum import demjanenko_det, h_minus, kappa_and_t, ord_p
from lamadic.cli import run
from lamadic.commutators import matrix_commutator_check, verify_commutator_identity
from lamadic.curves import (
    HypothesisError,
    discriminant,
    division_degree_report,
    find_simple_prime,
    galois_certificate,
    parse_poly,
)
from lamadic.lattices import lattice_index_check
from lamadic.matrices import (
    HermitianForm,
    MatLocal,
    classify_membership,
    filtration_order_exponent,
    legendre,
    lift_su,
    mat_zero,
    random_su_element,
    weil_gram_and_epsilon,
)
from lamadic.ring import CycloElt, RingCtx, is_prime


def _small_primes(lo, hi):
    return [p for p in range(lo, hi + 1) if is_prime(p)]


def _level_member(ctx, d, level, rng):
    mats = [[[1 if i == j else 0 for j in range(d)] for i in range(d)]]
    mats += [mat_zero(d) for _ in range(level - 1)]
    mats += [
        [[rng.randrange(ctx.ell) for _ in range(d)] for _ in range(d)]
        for _ in range(ctx.precision - level)
    ]
    return MatLocal.from_digit_matrices(ctx, d, mats)


def test_criterion_01_epsilon_sign(capsys):
    start = time.monotonic()
    code = run(["eps", "--ell", "11", "--r", "8"])
    out = capsys.readouterr().out
    assert code == 0 and out.strip() == "-1"
    for ell in _small_primes(3, 31):
        for r in range(2, 21):
            if r % ell == 0:
                continue
            _, _, eps = weil_gram_and_epsilon(ell, r)
            assert eps == legendre(r, ell)
    assert time.monotonic() - start < 1.0


def test_criterion_02_filtration_exponent():
    start = time.monotonic()
    assert filtration_order_exponent(11, 7, 10, 1) == 219
    ctx = RingCtx(3, 3)
    form = HermitianForm.standard(ctx, 2)
    count = 0
    digit_squares = [
        [[d[0], d[1]], [d[2], d[3]]] for d in product(range(3), repeat=4)
    ]
    for m1 in digit_squares:
        for m2 in digit_squares:
            a = MatLocal.from_digit_matrices(ctx, 2, [[[1, 0], [0, 1]], m1, m2])
            if classify_membership(a, form).kind == "SU":
                count += 1
    assert count == 3 ** filtration_order_exponent(3, 2, 3, 1) == 27
    assert time.monotonic() - start < 10.0


def test_criterion_03_commutator_identity():
    start = time.monotonic()
    for n in range(3, 10):
        holds, residual = verify_commutator_identity(n)
        assert holds, residual
    rng = random.Random(2024)
    for ell in (3, 5):
        for d in (2, 3):
            for n in range(3, 7):
                ctx = RingCtx(ell, n)
                level = (n - 1) // 2
                for _ in range(200):
                    a = _level_member(ctx, d, level, rng)
                    b = _level_member(ctx, d, level, rng)
                    assert matrix_commutator_check(a, b)
    assert time.monotonic() - start < 60.0


def test_criterion_04_constructive_lift():
    start = time.monotonic()
    rng = random.Random(404)
    done = 0
    while done < 100:
        for ell in (3, 5):
            for n in (3, 4, 5, 6):
                seed_form = HermitianForm.standard(RingCtx(ell, 1), 3)
                a = random_su_element(seed_form, n - 1, rng)
                form_prev = HermitianForm.standard(RingCtx(ell, n - 1), 3)
                lifted = lift_su(a, form_prev)
                assert lifted.truncate(n - 1) == a
                form_n = HermitianForm.standard(RingCtx(ell, n), 3)
                assert classify_membership(lifted, form_n).kind == "SU"
                done += 1
    assert done >= 100
    assert time.monotonic() - start < 30.0


def test_criterion_05_half_system_determinant():
    start = time.monotonic()
    for ell in _small_primes(3, 31):
        for r in range(2, 21):
            if r % ell == 0:
                continue
            # the magnitude identity and the ord_ell bookkeeping are asserted
            # inside demjanenko_det; the sign is recorded only
            rep = demjanenko_det(ell, r)
            assert rep.t == ord_p(rep.det * 2 ** len(rep.reps), ell)
            assert rep.sign in (1, -1)
    rep = demjanenko_det(11, 8)
    assert ord_p(rep.h_minus * rep.c_lr, 11) == 1
    assert kappa_and_t(11, 8) == (0, 0)
    assert time.monotonic() - start < 120.0


def test_criterion_06_relative_class_number():
    start = time.monotonic()
    for ell in (3, 5, 7, 11, 13, 17, 19):
        assert h_minus(ell) == 1
    assert h_minus(23) == 3
    assert h_minus(29) == 8
    assert time.monotonic() - start < 30.0


def test_criterion_07_curve_pipeline():
    start = time.monotonic()
    f = parse_poly("x^8 + x + 1")
    disc = discriminant(f)
    assert disc == 3 * 19**2 * 14731
    prime, proven = find_simple_prime(disc, 11)
    assert prime == 14731 and proven
    # x^8 + x + 1 = (x^2 + x + 1)(x^6 - x^5 + x^3 - x^2 + 1), so a
    # symmetric-group certificate is impossible; the sound verdict is
    # "reducible", and the full pipeline refuses without an explicit override.
    assert galois_certificate(f).status == "reducible"
    with pytest.raises(HypothesisError):
        division_degree_report(11, f)
    rep = division_degree_report(11, f, override_hypotheses=True)
    assert rep.components["galois_intersection_order"] == 20160  # 8!/2
    assert rep.components["su_exponent"] == 219
    assert rep.degree_coeff == 40320  # 8!
    assert rep.reference == {"coeff": 40320, "ell_exponent": 260}
    assert rep.discrepancy["coeff_matches"] is True
    assert rep.degree_ell_exponent != rep.reference["ell_exponent"]
    data = json.loads(json.dumps(rep.to_json_dict(), sort_keys=True))
    assert data["discrepancy"]["ell_exponent_difference"] == (
        rep.degree_ell_exponent - rep.reference["ell_exponent"]
    )
    assert time.monotonic() - start < 60.0


def test_criterion_08_lattice_index():
    start = time.monotonic()
    for ell in (3, 5, 7, 11):
        for r in range(2, 13):
            if r % ell == 0:
                continue
            t_prime = lattice_index_check(ell, r)
            assert t_prime == kappa_and_t(ell, r)[1]
    assert lattice_index_check(11, 8) == 0 == kappa_and_t(11, 8)[1]
    assert time.monotonic() - start < 60.0


def test_criterion_09_ring_kernel():
    from ring_oracles import in_lambda_n, lift_digits, mul_mod_phi

    start = time.monotonic()
    rng = random.Random(9)
    for ell, n in ((3, 3), (5, 5), (7, 4), (11, 3)):
        ctx = RingCtx(ell, n)
        if ell == 3:
            elements = [CycloElt(ctx, digits) for digits in product(range(3), repeat=3)]
            assert len(elements) == 27
            pairs = [(a, b) for a in elements for b in elements]
        else:
            def draw():
                return CycloElt(ctx, tuple(rng.randrange(ell) for _ in range(n)))

            pairs = [(draw(), draw()) for _ in range(200)]
        for a, b in pairs:
            got = a * b
            # independent oracle: schoolbook product of the digit expansions
            # in Z[zeta], compared with the digits of a*b modulo lambda^n
            want = mul_mod_phi(lift_digits(a.digits, ell), lift_digits(b.digits, ell), ell)
            diff = [g - w for g, w in zip(lift_digits(got.digits, ell), want)]
            assert in_lambda_n(diff, ell, n), (ell, a.digits, b.digits)
    for ell in (3, 5, 7, 11):
        ctx = RingCtx(ell, 4)
        lam = CycloElt.lam(ctx, 1)
        assert (lam + lam.conjugate()).ord_lambda >= 2
    assert time.monotonic() - start < 5.0


def test_criterion_10_selftest_determinism(capsys):
    code1 = run(["selftest", "--seed", "99", "--json"])
    out1 = capsys.readouterr().out
    code2 = run(["selftest", "--seed", "99", "--json"])
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2
    assert json.loads(out1)["ok"] is True
