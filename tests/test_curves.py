import json
import random

import pytest

from lamadic.ring import DomainError
from lamadic.curves import (
    HypothesisError,
    IntPoly,
    PolySyntaxError,
    cycle_type_mod_p,
    discriminant,
    division_degree_report,
    factorize,
    find_simple_prime,
    galois_certificate,
    parse_poly,
    trinomial_discriminant,
)


def test_parse_examples():
    assert parse_poly("x^8 + x + 1").coeffs == (1, 1, 0, 0, 0, 0, 0, 0, 1)
    assert parse_poly("x^2").coeffs == (0, 0, 1)
    assert parse_poly("3*x^2 - 2 * x + 7").coeffs == (7, -2, 3)
    assert parse_poly("-x + 1").coeffs == (1, -1)
    assert parse_poly("x + x").coeffs == (0, 2)
    assert parse_poly("42").coeffs == (42,)


def test_parse_errors_carry_position():
    for bad in ("x^-1", "x + + 1", "", "x^", "y + 1", "2 *", "x^0x"):
        with pytest.raises(PolySyntaxError) as exc:
            parse_poly(bad)
        assert exc.value.position >= 0


def test_poly_str_roundtrip():
    for text in ("x^8 + x + 1", "x^4 - 3*x^2 + 2", "x^2 - 1"):
        f = parse_poly(text)
        assert parse_poly(str(f)) == f


def test_discriminant_values():
    assert discriminant(parse_poly("x^8 + x + 1")) == 15953673
    assert 15953673 == 3 * 19**2 * 14731
    assert discriminant(parse_poly("x^2 + 1")) == -4
    assert discriminant(parse_poly("x^2 - 1")) == 4
    with pytest.raises(DomainError):
        discriminant(parse_poly("x + 1"))


def test_discriminant_matches_trinomial_oracle():
    for n in range(2, 11):
        for a in range(-3, 4):
            for b in range(-3, 4):
                f = IntPoly(tuple([b, a] + [0] * (n - 2) + [1]))
                assert discriminant(f) == trinomial_discriminant(n, a, b)


def test_factorize_and_simple_prime():
    assert factorize(15953673)[0] == {3: 1, 19: 2, 14731: 1}
    assert find_simple_prime(15953673, 11) == (14731, True)
    assert find_simple_prime(12, 11) == (3, True)
    assert find_simple_prime(4, 11) == (None, True)
    with pytest.raises(DomainError):
        find_simple_prime(0, 11)
    # returned prime square never divides the discriminant
    for disc in (15953673, 12, 360, -175):
        p, _ = find_simple_prime(disc, 11)
        if p is not None:
            assert disc % p == 0 and disc % (p * p) != 0


def test_factorize_large_semiprime():
    n = 1000003 * 1000033
    factors, leftover = factorize(n, budget=500000)
    assert leftover == 1
    assert factors == {1000003: 1, 1000033: 1}


def test_cycle_types():
    f = parse_poly("x^4 + x + 1")
    # x^4+x+1 mod 2 is irreducible
    assert cycle_type_mod_p(f, 2) == [4]
    # degrees always sum to the degree when squarefree
    for p in (3, 5, 7, 11, 13):
        ct = cycle_type_mod_p(f, p)
        assert ct is None or sum(ct) == 4


def test_cycle_types_match_sympy_factor_degrees():
    import sympy

    x = sympy.Symbol("x")
    rng = random.Random(12)
    primes = list(sympy.primerange(2, 60))
    for _ in range(25):
        deg = rng.randint(4, 12)
        coeffs = [rng.randint(-30, 30) for _ in range(deg)] + [1]
        f = IntPoly(tuple(coeffs))
        for p in primes:
            _, factors = sympy.Poly(coeffs[::-1], x, modulus=p).factor_list()
            squarefree = all(e == 1 for _, e in factors)
            want = sorted(g.degree() for g, _ in factors) if squarefree else None
            assert cycle_type_mod_p(f, p) == want, (coeffs, p)


def test_galois_certificates():
    assert galois_certificate(parse_poly("x^4 + x + 1")).status == "symmetric"
    assert galois_certificate(parse_poly("x^6 + x + 1")).status == "symmetric"
    assert galois_certificate(parse_poly("x^8 + x - 1")).status == "symmetric"


def test_galois_soundness_on_reducibles():
    # a reducible polynomial must never be certified
    assert galois_certificate(parse_poly("x^8 + x + 1")).status == "reducible"
    prod = parse_poly("x^4 + x^3 + x^2 + x + 1")  # cyclotomic: group is C_4
    v = galois_certificate(prod, budget=60)
    assert v.status == "inconclusive"
    v2 = galois_certificate(parse_poly("x^6 + 3*x^5 + 3*x^4 + x^3 + 3*x^2 + 3*x + 2"))
    assert v2.status != "symmetric"
    with pytest.raises(DomainError):
        galois_certificate(parse_poly("x^4 + 2*x^2 + 1"))  # (x^2+1)^2


def test_example_polynomial_is_reducible():
    # (x^2 + x + 1)(x^6 - x^5 + x^3 - x^2 + 1) = x^8 + x + 1
    a = (1, 1, 1)
    b = (1, 0, -1, 1, 0, -1, 1)
    prod = [0] * 9
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] += ai * bj
    assert tuple(prod) == parse_poly("x^8 + x + 1").coeffs


def test_division_degree_report_reference_input():
    f = parse_poly("x^8 + x + 1")
    with pytest.raises(HypothesisError):
        division_degree_report(11, f)
    rep = division_degree_report(11, f, override_hypotheses=True)
    assert rep.epsilon == -1
    assert rep.simple_prime == 14731
    assert rep.galois.status == "reducible"
    assert rep.components["su_exponent"] == 219
    assert rep.components["galois_intersection_order"] == 20160
    assert rep.degree_coeff == 40320
    assert rep.reference == {"coeff": 40320, "ell_exponent": 260}
    assert rep.discrepancy is not None
    assert rep.discrepancy["coeff_matches"] is True
    data = json.loads(rep.to_json())
    assert data["degree"]["coeff"] == 40320


def test_division_degree_requires_valid_arguments():
    with pytest.raises(DomainError):
        division_degree_report(4, parse_poly("x^4 + x + 1"))
    with pytest.raises(DomainError):
        division_degree_report(3, parse_poly("x^6 + x + 1"))  # ell | r
    with pytest.raises(HypothesisError):
        division_degree_report(5, parse_poly("x^3 + x + 1"))  # degree < 4


def test_division_degree_consistent_components():
    # a certified input runs end to end without the override
    from lamadic.matrices import filtration_order_exponent
    from lamadic.lattices import u_reduction_order

    f = parse_poly("x^4 + x + 1")
    rep = division_degree_report(3, f)
    assert rep.galois.status == "symmetric"
    assert rep.components["su_exponent"] == filtration_order_exponent(3, 3, 2, 1)
    total, _ = u_reduction_order(3, 4, 2)
    rest, exp_extra = total, 0
    while rest % 3 == 0:
        rest //= 3
        exp_extra += 1
    assert rep.degree_coeff == (24 // 2) * rest
    assert rep.degree_ell_exponent == rep.components["su_exponent"] + exp_extra
