import json
import random
from fractions import Fraction

import pytest
import sympy

from lamadic import linalg
from lamadic.cli import run
from lamadic.ring import DomainError, is_prime
from lamadic.classnum import (
    H_MINUS_MAX_ELL,
    c_lr,
    demjanenko_det,
    fraction_det,
    h_minus,
    kappa_and_t,
    n_of,
    ord_p,
    twice_n_prime,
)
from ring_oracles import h_minus_bernoulli


def test_n_prime_values():
    assert twice_n_prime(11, 8)[1] == 7  # 2 n'(1) = 2 n(1) - (r - 1)
    assert n_of(11, 8, 1) == 7
    with pytest.raises(DomainError):
        twice_n_prime(11, 22)
    with pytest.raises(DomainError):
        n_of(11, 8, 11)


def test_n_prime_antisymmetry():
    for ell in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        for r in range(2, 21):
            if r % ell == 0:
                continue
            w = twice_n_prime(ell, r)
            for j in range(1, ell):
                assert w[j] == 2 * n_of(ell, r, j) - (r - 1)
                assert w[j] == -w[ell - j]


def test_n_prime_integral_for_odd_r():
    for ell in (5, 7, 11):
        for r in (3, 5, 7, 9):
            if r % ell == 0:
                continue
            assert all(w % 2 == 0 for w in twice_n_prime(ell, r).values())


def test_c_lr_values():
    assert c_lr(11, 8) == (10, 32769)
    assert 32769 == 3**2 * 11 * 331
    assert c_lr(3, 2) == (2, 3)
    assert c_lr(3, 4) == (1, 3)
    with pytest.raises(DomainError):
        c_lr(5, 10)


def test_c_lr_r_congruent_one():
    # r = 1 mod ell: r_ell = 1 and c = (r - 1)^((ell-1)/2)
    for ell, r in ((5, 6), (7, 8), (5, 11)):
        r_ell, c = c_lr(ell, r)
        assert r_ell == 1 and c == (r - 1) ** ((ell - 1) // 2)


def test_h_minus_table():
    for ell in (3, 5, 7, 11, 13, 17, 19):
        assert h_minus(ell) == 1
    assert h_minus(23) == 3
    assert h_minus(29) == 8
    assert h_minus(31) == 9
    over = next(p for p in range(H_MINUS_MAX_ELL + 1, 2 * H_MINUS_MAX_ELL) if is_prime(p))
    with pytest.raises(DomainError):
        h_minus(over)
    assert run(["h-minus", "--ell", str(over)]) == 2


def test_h_minus_matches_bernoulli_oracle():
    for ell in range(3, 68):
        if is_prime(ell):
            assert h_minus(ell) == h_minus_bernoulli(ell), ell


def test_h_minus_beyond_the_bernoulli_range():
    assert h_minus(71) == 3882809
    assert h_minus(101) == 3547404378125
    assert h_minus(H_MINUS_MAX_ELL) > 1


def test_demjanenko_refuses_ell_before_building_the_matrix(monkeypatch):
    import lamadic.classnum as classnum

    built = classnum.twice_half_system

    def spy(ell, r):
        assert ell <= H_MINUS_MAX_ELL, f"half-system matrix built at ell = {ell}"
        return built(ell, r)

    monkeypatch.setattr(classnum, "twice_half_system", spy)
    over = next(p for p in range(H_MINUS_MAX_ELL + 1, 2 * H_MINUS_MAX_ELL) if is_prime(p))
    with pytest.raises(DomainError, match="exceeds the limit"):
        demjanenko_det(over, 2)
    for command in ("kappa", "lattice-index", "demjanenko"):
        assert run([command, "--ell", str(over), "--r", "2"]) == 2
    assert run(["division-degree", "--ell", str(over), "--poly", "x^5 - x - 1"]) == 2


def test_fraction_det():
    assert fraction_det([[Fraction(1, 2)]]) == Fraction(1, 2)
    assert fraction_det([[1, 2], [3, 4]]) == -2
    assert fraction_det([[1, 2], [2, 4]]) == 0
    assert fraction_det([]) == 1


def test_fraction_det_matches_sympy():
    rng = random.Random(41)
    singular = swapped = 0
    for _ in range(300):
        n = rng.randint(1, 6)
        rows = [[Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 4, 6, 7, 12, -1, -5, -8)))
                 if rng.random() < 0.7 else rng.randint(-9, 9) for _ in range(n)]
                for _ in range(n)]
        if n > 1 and rng.random() < 0.3:  # the first pivot needs a row swap
            rows[0][0] = 0
            swapped += 1
        if n > 1 and rng.random() < 0.2:  # a dependent row
            rows[-1] = [Fraction(-3, 2) * x + y for x, y in zip(rows[0], rows[1])]
        want = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row]
                             for row in rows]).det()
        got = fraction_det(rows)
        assert (got.numerator, got.denominator) == (want.p, want.q), rows
        singular += got == 0
    assert singular > 20 and swapped > 20


def test_ord_p():
    assert ord_p(Fraction(9, 2), 3) == 2
    assert ord_p(Fraction(1, 27), 3) == -3
    with pytest.raises(DomainError):
        ord_p(0, 3)


def test_demjanenko_examples():
    rep = demjanenko_det(3, 2)
    assert rep.matrix == ((Fraction(1, 2),),)
    assert abs(rep.det) == Fraction(1, 2)
    rep = demjanenko_det(5, 2)
    assert abs(rep.det) == Fraction(1, 2)
    rep = demjanenko_det(11, 8)
    assert rep.kappa_bound == 0 and rep.t == 0
    assert ord_p(Fraction(rep.h_minus * rep.c_lr), 11) == 1


def test_demjanenko_rep_invariance():
    """|det| does not depend on the half system: the doubled matrix over
    other representatives of the units mod +-1 has the same |det|."""
    rng = random.Random(6)
    for ell, r in ((5, 3), (7, 2), (11, 8), (13, 5)):
        base = demjanenko_det(ell, r)
        reps = tuple(
            x if rng.random() < 0.5 else ell - x for x in range(1, (ell - 1) // 2 + 1)
        )
        weights = twice_n_prime(ell, r)
        twice = [[weights[i * pow(j, -1, ell) % ell] for j in reps] for i in reps]
        assert abs(Fraction(linalg.det(twice), 2 ** len(reps))) == abs(base.det)


def test_kappa_and_t_examples():
    assert kappa_and_t(11, 8) == (0, 0)
    assert kappa_and_t(3, 2) == (0, 0)


def test_t_bounded_by_kappa():
    for ell in (3, 5, 7, 11, 13):
        for r in range(2, 13):
            if r % ell == 0:
                continue
            kappa, t = kappa_and_t(ell, r)
            assert 0 <= t <= max(kappa, 0) + (1 if kappa < 0 else 0) or t <= kappa
            assert t == ord_p(Fraction(h_minus(ell) * c_lr(ell, r)[1]), ell) - 1


def test_kappa_equals_t_below_110_and_t_is_positive_at_the_irregular_primes():
    """For every prime ell < 110 and r in 2..6 with ell not dividing r,
    the index bound kappa is attained: kappa = t.  The irregular primes
    come from Kummer's criterion (ell divides the numerator of some B_k,
    k even, k <= ell-3; Washington, Cyclotomic Fields, Ch. 5), and t >= 1
    for every r at each of them."""
    primes = [ell for ell in range(3, 110) if is_prime(ell)]
    irregular = {ell for ell in primes
                 if any(sympy.bernoulli(k).p % ell == 0 for k in range(2, ell - 2, 2))}
    assert irregular == {37, 59, 67, 101, 103}
    for ell in primes:
        for r in range(2, 7):
            if r % ell == 0:
                continue
            kappa, t = kappa_and_t(ell, r)
            assert kappa == t, (ell, r)
            assert t >= 1 or ell not in irregular, (ell, r)


def test_report_json():
    rep = demjanenko_det(5, 2)
    data = json.loads(json.dumps(rep.to_json_dict(), sort_keys=True))
    assert data["ell"] == 5 and data["det"] == str(rep.det)
