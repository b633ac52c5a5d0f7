import json
import random
import time
from itertools import zip_longest
from math import comb, factorial, prod
from pathlib import Path

import pytest

from lamadic import curves
from lamadic.classnum import ord_p
from lamadic.lattices import u_reduction_order
from lamadic.matrices import filtration_order_exponent
from lamadic.ring import DomainError, is_prime
from lamadic.curves import (
    _distinct_degree,
    _next_prime,
    _polgcd,
    _pollard_brent,
    _polmul,
    _polpow,
    _reduction_table,
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
    rational_factor,
)
from ring_oracles import (
    galois_certificate_unpruned,
    polpow_by_division,
    trinomial_discriminant,
    witness_kinds_by_definition,
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


def test_factorize_matches_sympy_at_the_prime_table_boundary():
    # trial division reads the primes below 10^5: 99991 is the last of them
    # and 100003 the first prime past them, so it is left to rho
    from sympy import factorint, isprime

    def below_table(factors):
        return {p: e for p, e in factors.items() if p < 10**5}

    rng = random.Random(34)
    for n in [rng.randrange(1, 10**30) for _ in range(300)]:
        factors, leftover = factorize(n, budget=2000)
        trial = factorint(n, limit=10**5, use_rho=False, use_pm1=False, use_ecm=False)
        assert below_table(factors) == below_table(trial), n
        # the rest are primes, and a leftover is a composite rho did not split
        assert all(isprime(p) for p in factors), n
        assert prod(p**e for p, e in factors.items()) * leftover == n
        assert leftover == 1 or not isprime(leftover), n
    for big in (99991, 99991**2, 100003, 99991 * 100003, 100003**2):
        for n in (big, big * rng.randrange(1, 10**3), big * rng.randrange(1, 10**8)):
            assert factorize(n, budget=20000) == (factorint(n), 1), n


def _factor_by_trial_division(n):
    """factorize's trial division, one table prime at a time."""
    factors = {}
    for p in curves._small_primes():
        if p * p > n:
            break
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    return factors


def test_block_trial_division_matches_prime_by_prime():
    """Same factor dicts, in the same order, as dividing by every table
    prime; the products include primes at both ends of a block."""
    table = curves._small_primes()
    block = curves.TRIAL_BLOCK
    edges = [table[i] for k in range(1, 5) for i in (block * k - 1, block * k)]
    rng = random.Random(35)
    for _ in range(300):
        primes = rng.sample(edges, rng.randint(0, 3)) + [
            rng.choice(table[:rng.choice((30, 300, len(table)))]) for _ in range(rng.randint(0, 4))]
        n = prod(p ** rng.randint(1, 3) for p in primes) * rng.choice((1, 1, 100003, 10**12 + 39))
        factors = _factor_by_trial_division(n)
        got, leftover = factorize(n, budget=2000)
        assert leftover == 1
        assert list(got.items())[:len(factors)] == list(factors.items()), n
        assert prod(p**e for p, e in got.items()) == n


def test_polgcd_matches_sympy():
    from sympy import GF, Poly, Symbol

    x = Symbol("x")
    rng = random.Random(36)
    for p in (2, 3, 7, 97, 10007):
        for _ in range(40):
            common = [rng.randrange(p) for _ in range(rng.randint(0, 4))] + [1]
            a = _polmul([rng.randrange(p) for _ in range(rng.randint(1, 8))], common, p)
            b = _polmul([rng.randrange(p) for _ in range(rng.randint(1, 8))], common, p)
            if a == [0]:
                continue
            want = Poly(a[::-1], x, domain=GF(p)).gcd(Poly(b[::-1], x, domain=GF(p)))
            want = [c % p for c in want.monic().all_coeffs()[::-1]]
            assert _polgcd(a, b, p) == want, (a, b, p)


def test_distinct_degree_reads_squarefreeness_from_the_discriminant():
    """None exactly when the degree drops or f mod p has a repeated factor,
    for monic and non-monic f, f with a square factor over Q, and f of
    degree at most 1."""
    import sympy

    x = sympy.Symbol("x")
    rng = random.Random(37)
    polys = [tuple(rng.randint(-20, 20) for _ in range(rng.randint(1, 9))) + (rng.choice(
        (1, 2, 3, 6, -5)),) for _ in range(40)]
    # a constant, 6x + 3, x - 7, (x + 1)^2 and (3x^2 - 2)^2
    polys += [(1,), (3, 6), (-7, 1), (1, 2, 1), (4, 0, -12, 0, 9)]
    for coeffs in polys:
        f = IntPoly(coeffs)
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23):
            reduced = sympy.Poly(coeffs[::-1], x, modulus=p)
            squarefree = reduced.degree() == f.degree and all(
                e == 1 for _, e in reduced.factor_list()[1])
            blocks = _distinct_degree(f, p)
            assert (blocks is not None) == squarefree, (coeffs, p)


def test_next_prime_across_the_prime_table_boundary():
    from sympy import nextprime

    assert _next_prime(2) == 3
    assert _next_prime(99989) == 99991
    assert _next_prime(99991) == 100003
    assert _next_prime(100000) == 100003
    for p in (97, 99990, 99992, 100003, 10**6):
        assert _next_prime(p) == nextprime(p)


class _CountingModulus(int):
    """An integer that counts the reductions modulo itself."""

    reductions = 0

    def __rmod__(self, other):
        type(self).reductions += 1
        return int(other) % int(self)


def test_rho_budget_bounds_all_restarts_together():
    # two 12-digit primes: rho needs about 10^6 steps, far past the budget,
    # so every one of the 20 restarts fails.  Every squaring counts against
    # the budget, the r that open a round too, and the budget is checked
    # before each gcd batch of 128: at most budget + 127 squarings, each with
    # at most one more reduction (the running product).  2^11 + 1 begins a
    # round of 2^11 steps.
    for budget in (2000, 2**11 + 1):
        _CountingModulus.reductions = 0
        n = _CountingModulus(100000000003 * 100000000019)
        assert _pollard_brent(n, random.Random(0), budget) is None
        assert _CountingModulus.reductions <= 2 * (budget + 127), budget


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


def test_packed_powers_match_powers_by_division():
    rng = random.Random(14)
    for p in (3, 5, 7, 97, 1009, 10**9 + 7):
        for r in range(15):
            f = [rng.randrange(p) for _ in range(r)] + [1]
            # the table holds x^(r+k) mod f for k < r - 1: none for r < 2
            assert len(_reduction_table(f, p)[1]) == max(r - 1, 0)
            d = 1 + r % 3
            for e in (0, 1, 2, p, p**d, (p**d - 1) // 2, p**d - 2):
                for size in (max(r, 1), 2 * r + 3):  # reduced, and longer than f
                    base = [rng.randrange(p) for _ in range(size)]
                    assert _polpow(base, e, f, p) == polpow_by_division(base, e, f, p), (
                        p, f, e, base)


def test_blocks_match_blocks_from_powers_by_division(monkeypatch):
    rng = random.Random(15)
    polys = [IntPoly(tuple(rng.randint(-9, 9) for _ in range(rng.randint(5, 20))) + (1,))
             for _ in range(40)]
    primes = [3]
    while len(primes) < 40:
        primes.append(_next_prime(primes[-1]))
    cases = [(f, p) for f in polys for p in primes]
    packed = [_distinct_degree(f, p) for f, p in cases]
    cycle_types = [cycle_type_mod_p(f, p) for f, p in cases]
    monkeypatch.setattr(curves, "_polpow",
                        lambda base, e, f, p, table=None: polpow_by_division(base, e, f, p))
    by_division = [_distinct_degree(f, p) for f, p in cases]
    assert packed == by_division
    assert cycle_types == [
        None if blocks is None else sorted(d for d, g in blocks for _ in range((len(g) - 1) // d))
        for blocks in by_division]
    assert sum(blocks is None for blocks in packed) < len(cases) // 4


def test_distinct_degree_builds_one_table_per_remaining_product(monkeypatch):
    # mod 97: five linear factors, no quadratic one, a cubic and a quartic
    f = parse_poly("x^12 + 9*x^11 - x^10 + 11*x^8 - 18*x^7 - 20*x^6 + 18*x^5 + 15*x^4"
                   " + 11*x^3 + 13*x^2 + 8*x - 10")
    built, powers = [], []

    def table_spy(rest, p):
        built.append(list(rest))
        return _reduction_table(rest, p)

    def power_spy(base, e, rest, p, table=None):
        powers.append(list(rest))
        return _polpow(base, e, rest, p, table)

    def no_polmul(*args):
        raise AssertionError("_polmul called")

    monkeypatch.setattr(curves, "_reduction_table", table_spy)
    monkeypatch.setattr(curves, "_polpow", power_spy)
    monkeypatch.setattr(curves, "_polmul", no_polmul)
    blocks = _distinct_degree(f, 97)
    assert [(d, len(g) - 1) for d, g in blocks] == [(1, 5), (3, 3), (4, 4)]
    # Frobenius steps run mod f and twice mod f / (the linear block): the
    # quadratic step splits nothing and reuses the table; the quartic left
    # after the cubic splits off is irreducible and needs none
    fc = [c % 97 for c in f.coeffs]
    assert built == [fc, curves._poldivmod(fc, blocks[0][1], 97)[0]]
    assert [len(rest) - 1 for rest in built] == [12, 7]
    assert powers == [built[0], built[1], built[1]]


def test_galois_certificates():
    assert galois_certificate(parse_poly("x^4 + x + 1")).status == "symmetric"
    assert galois_certificate(parse_poly("x^6 + x + 1")).status == "symmetric"
    assert galois_certificate(parse_poly("x^8 + x - 1")).status == "symmetric"


@pytest.mark.parametrize("poly", ["x^2 + x - 1", "x^2 + 1"])
def test_a_degree_2_certificate_needs_no_prime_cycle(poly):
    """No prime q has 1 < q < 2, so at r = 2 an irreducible reduction and a
    transposition, both a 2-cycle, certify S_2."""
    v = galois_certificate(parse_poly(poly))
    assert v.status == "symmetric" and set(v.witnesses) == {"irreducible", "transposition"}
    assert v.witnesses["irreducible"]["cycle_type"] == [2]


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
    with pytest.raises(DomainError):
        galois_certificate(parse_poly("2*x^4 + x + 1"))  # not monic


def test_first_blocks_stop_at_the_first_irreducible_reduction():
    # x^8 + x - 1 is irreducible mod 7, the third odd prime; x^12 + x + 3 is
    # irreducible mod none of the first five, so Zassenhaus may need each
    primes = {text: [p for p, _ in curves._first_blocks(parse_poly(text))]
              for text in ("x^8 + x - 1", "x^12 + x + 3")}
    assert primes == {"x^8 + x - 1": [3, 5, 7], "x^12 + x + 3": [3, 5, 7, 11, 13]}


def _partitions(r, low=1):
    """The partitions of r into parts >= low, each in increasing order."""
    if r == 0:
        yield []
    for part in range(low, r + 1):
        for rest in _partitions(r - part, part):
            yield [part] + rest


def test_witness_rules_keep_every_kind_the_cycle_type_supplies():
    """Over every cycle type of degree 2 <= r <= 14: the complete type
    supplies exactly the kinds of the definition.  At each degree d the walk
    passes, with the cycles of length at most d found and the others of
    total length left, the kinds kept open are those of the stated rules,
    and these keep every kind the complete type supplies: irreducible until
    any cycle is found, transposition until d = 2 and then only with
    exactly one 2-cycle, prime_cycle while only fixed points are found and
    left is a prime q with r/2 < q < r."""
    from sympy import isprime

    for r in range(2, 15):
        for ct in _partitions(r):
            kinds = witness_kinds_by_definition(ct, r)
            assert curves._witness_kinds(r, ct) == kinds, ct
            for d in range(1, ct[-1]):
                found = [c for c in ct if c <= d]
                left = r - sum(found)
                stated = set() if found else {"irreducible"}
                if d < 2 or [c for c in found if c % 2 == 0] == [2]:
                    stated.add("transposition")
                if max(found, default=1) == 1 and isprime(left) and r / 2 < left < r:
                    stated.add("prime_cycle")
                assert curves._witness_kinds(r, found, left, d) == stated, (ct, d)
                assert kinds <= stated, (ct, d)


def _certificate_inputs(rng, count):
    """Random monic squarefree f of degree 2 to 14: a third with random
    coefficients, a third products of two random monic factors, a third
    x^r + c (cyclic or dihedral-like groups, far from S_r)."""
    polys = []
    while len(polys) < count:
        r = rng.randint(2, 14)
        kind = len(polys) % 3
        if kind == 0:
            coeffs = [rng.randint(-20, 20) for _ in range(r)] + [1]
        elif kind == 1:
            a = rng.randint(1, r - 1)
            coeffs = _poly_mul([rng.randint(-6, 6) for _ in range(a)] + [1],
                               [rng.randint(-6, 6) for _ in range(r - a)] + [1])
        else:
            coeffs = [rng.choice([c for c in range(-12, 13) if c])] + [0] * (r - 1) + [1]
        f = IntPoly(tuple(coeffs))
        if f.disc:
            polys.append(f)
    return polys


def test_galois_certificate_matches_the_unpruned_witness_walk():
    """The parity filter and the early stops skip no witness: status and
    witnesses equal those of the walk that factors every sampled prime in
    full, at budgets that end the walk early and late."""
    statuses = set()
    for f in _certificate_inputs(random.Random(27), 18):
        for budget in (3, 8, 500):
            v = galois_certificate(f, budget)
            assert (v.status, v.witnesses) == galois_certificate_unpruned(f, budget), (
                f.coeffs, budget)
            statuses.add(v.status)
    assert statuses == {"symmetric", "inconclusive", "reducible"}


def test_discriminant_sign_is_the_parity_of_the_factor_count():
    """Stickelberger: (disc f / p) = (-1)^(r - number of factors of f mod p)
    for odd p not dividing disc f, the factor count read from sympy."""
    import sympy

    x = sympy.Symbol("x")
    rng = random.Random(28)
    checked = 0
    for _ in range(30):
        r = rng.randint(2, 12)
        coeffs = [rng.randint(-25, 25) for _ in range(r)] + [1]
        f = IntPoly(tuple(coeffs))
        if not f.disc:
            continue
        for p in sympy.primerange(3, 80):
            if f.disc % p:
                _, factors = sympy.Poly(coeffs[::-1], x, modulus=p).factor_list()
                assert curves.legendre(f.disc, p) == (-1) ** (r - len(factors)), (coeffs, p)
                checked += 1
    assert checked > 400


def _frobenius_spy(monkeypatch):
    """The moduli p of the Frobenius steps (powers x^p mod (rest, p)) that
    _polpow takes while the spy is installed, in order."""
    steps = []

    def spy(base, e, f, p, table=None):
        if e == p:
            steps.append(p)
        return _polpow(base, e, f, p, table)

    monkeypatch.setattr(curves, "_polpow", spy)
    return steps


def test_a_prime_ruled_out_by_parity_takes_no_frobenius_step(monkeypatch):
    # x^12 + x + 3: its r-cycles are odd and its prime cycles even, so a
    # prime with (disc/p) = 1 can supply only a prime cycle, and once that
    # is found, such primes are not factored at all
    f = parse_poly("x^12 + x + 3")
    first = [p for p, _ in curves._first_blocks(f)]
    steps = _frobenius_spy(monkeypatch)
    v = galois_certificate(f)
    assert v.status == "symmetric"
    signs = {"irreducible": -1, "transposition": -1, "prime_cycle": 1}
    p, ruled_out = first[-1], []
    while p < max(w["p"] for w in v.witnesses.values()):
        p = _next_prime(p)
        if f.disc % p == 0:
            continue
        missing = [kind for kind, w in v.witnesses.items() if w["p"] >= p]
        if all(curves.legendre(f.disc, p) != signs[kind] for kind in missing):
            ruled_out.append(p)
    assert len(ruled_out) >= 10
    assert not set(ruled_out) & set(steps)
    assert set(first) <= set(steps)


def test_certificate_takes_fewer_frobenius_steps_than_the_unpruned_walk(monkeypatch):
    f = parse_poly("x^12 + x + 3")
    steps = _frobenius_spy(monkeypatch)
    pruned = galois_certificate(f)
    taken = len(steps)
    steps.clear()
    status, witnesses = galois_certificate_unpruned(f)
    assert (pruned.status, pruned.witnesses) == (status, witnesses)
    assert 0 < taken < len(steps) / 2, (taken, len(steps))


def _poly_mul(a, b):
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    return prod


def _sympy_factors(coeffs):
    """[(degree, multiplicity)] of the irreducible factors over Q."""
    import sympy

    x = sympy.Symbol("x")
    _, parts = sympy.factor_list(sum(c * x**k for k, c in enumerate(coeffs)), x)
    return [(sympy.Poly(g, x).degree(), m) for g, m in parts]


def _check_against_sympy(coeffs):
    f = IntPoly(tuple(coeffs))
    g = rational_factor(f)
    irreducible = _sympy_factors(coeffs) == [(f.degree, 1)]
    assert (g is None) == irreducible, coeffs
    if g is not None:
        assert g.is_monic and 0 < g.degree < f.degree
        # the witness divides f exactly in Z[x]: the cofactor has integer coefficients
        cofactor = [0] * (f.degree - g.degree + 1)
        rest = list(f.coeffs)
        for i in range(f.degree - g.degree, -1, -1):
            cofactor[i] = rest[i + g.degree]
            for j, c in enumerate(g.coeffs):
                rest[i + j] -= cofactor[i] * c
        assert not any(rest), (coeffs, g)
    return g


def test_rational_factor_matches_sympy_on_random_products():
    rng = random.Random(31)
    checked = 0
    while checked < 60:
        coeffs = [1]
        for _ in range(rng.randint(2, 4)):
            deg = rng.randint(1, 5)
            coeffs = _poly_mul(coeffs, [rng.randint(-9, 9) for _ in range(deg)] + [1])
        if any(m > 1 for _, m in _sympy_factors(coeffs)):
            continue  # not squarefree
        assert _check_against_sympy(coeffs) is not None
        checked += 1


def test_rational_factor_matches_sympy_on_random_polynomials():
    rng = random.Random(32)
    verdicts = set()
    for _ in range(60):
        deg = rng.randint(2, 14)
        coeffs = [rng.randint(-20, 20) for _ in range(deg)] + [1]
        if discriminant(IntPoly(tuple(coeffs))) == 0:
            continue
        verdicts.add(_check_against_sympy(coeffs) is None)
    assert verdicts == {True, False}


def _swinnerton_dyer(radicands):
    """The minimal polynomial of the sum of the square roots, constant term
    first: f(x) -> A^2 - a B^2 for each radicand a, where f(x + y) = A + yB
    with y^2 = a."""
    f = [0, 1]
    for a in radicands:
        halves = [[0] * len(f), [0] * len(f)]
        for k, c in enumerate(f):
            for j in range(k + 1):
                halves[(k - j) % 2][j] += c * comb(k, j) * a ** ((k - j) // 2)
        big_a, big_b = halves
        f = [u - a * v for u, v in zip_longest(_poly_mul(big_a, big_a),
                                                 _poly_mul(big_b, big_b), fillvalue=0)]
    return f


@pytest.mark.parametrize("radicands", [(2, 3, 5), (2, 3, 5, 7), (2, 3, 5, 7, 11)],
                         ids=["degree8", "degree16", "degree32"])
def test_rational_factor_on_swinnerton_dyer_polynomials(radicands):
    coeffs = _swinnerton_dyer(radicands)
    f = IntPoly(tuple(coeffs))
    assert f.degree == 2 ** len(radicands)
    # irreducible, but every factor mod p has degree 1 or 2
    types = [cycle_type_mod_p(f, p) for p in (13, 17, 19, 23, 29, 31, 37, 41, 43)]
    assert any(types) and all(max(t) <= 2 for t in types if t)
    start = time.monotonic()
    assert rational_factor(f) is None
    # at degree 32 f has 16 or more factors mod p, and the recombination tries
    # every product of at most half of them (39202 for 16 factors)
    assert time.monotonic() - start < 5.0
    assert _sympy_factors(coeffs) == [(f.degree, 1)]


def test_rational_factor_bounds_the_recombination():
    # degree 64: 32 factors mod 19 and about 2.5e9 subsets to try; the
    # discriminant alone takes about 3 s, and f keeps it, so galois_certificate
    # reads the one that rational_factor computed
    f = IntPoly(tuple(_swinnerton_dyer((2, 3, 5, 7, 11, 13))))
    for fn in (rational_factor, galois_certificate):
        start = time.monotonic()
        with pytest.raises(DomainError, match="MAX_RECOMBINATIONS = 100000"):
            fn(f)
        assert time.monotonic() - start < 10.0


def test_rational_factor_splits_equal_degree_blocks():
    # g(x) g(x+1) g(x+2) with g = x^3 + x + 1; mod 5 and mod 7 the three
    # cubics stay irreducible and share one distinct-degree block
    g1, g2, g3 = ([s**3 + s + 1, 3 * s**2 + 1, 3 * s, 1] for s in (0, 1, 2))
    coeffs = _poly_mul(_poly_mul(g1, g2), g3)
    assert cycle_type_mod_p(IntPoly(tuple(coeffs)), 5) == [3, 3, 3]
    assert rational_factor(IntPoly(tuple(coeffs))).degree == 3
    assert _check_against_sympy(coeffs) is not None


def test_rational_factor_witness_of_the_reference_polynomial():
    f = parse_poly("x^8 + x + 1")
    assert rational_factor(f).coeffs == (1, 1, 1)
    assert galois_certificate(f).witnesses == {"factor": [1, 1, 1]}
    assert rational_factor(parse_poly("x + 5")) is None
    # x divides f: the constant term 0 of the factor x divides f(0) = 0
    assert rational_factor(parse_poly("x^3 + x")).coeffs in ((0, 1), (1, 0, 1))
    with pytest.raises(DomainError):
        rational_factor(parse_poly("x^3 - 3*x + 2"))  # (x - 1)^2 (x + 2)


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
    assert rep.hypotheses.simple_prime == 14731
    assert rep.hypotheses.galois.status == "reducible"
    assert rep.components == {"galois_intersection_order": 20160, "u_exponent": 224}
    assert rep.degree_coeff == 40320
    assert rep.reference == {"coeff": 40320, "ell_exponent": 260}
    assert rep.discrepancy is not None
    assert rep.discrepancy["coeff_matches"] is True
    data = json.loads(json.dumps(rep.to_json_dict(), sort_keys=True))
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
    f = parse_poly("x^4 + x + 1")
    rep = division_degree_report(3, f)
    assert rep.hypotheses.galois.status == "symmetric"
    assert rep.components["u_exponent"] == filtration_order_exponent(3, 3, 2, 1, "U")
    total, _ = u_reduction_order(3, 4, 2)
    rest, exp_extra = total, 0
    while rest % 3 == 0:
        rest //= 3
        exp_extra += 1
    assert rep.degree_coeff == (24 // 2) * rest
    assert rep.degree_ell_exponent == filtration_order_exponent(3, 3, 2, 1) + exp_extra
    assert rep.degree_ell_exponent == rep.components["u_exponent"]


@pytest.mark.parametrize("ell, poly", [(5, "x^8 + x - 1"), (7, "x^5 - x - 1"),
                                       (11, "x^4 + x - 1"), (13, "x^6 + x - 1")])
def test_report_counts_the_symmetric_group_times_the_unitary_level_one_group(ell, poly):
    """On gated curves the report's number is r! * ell^X, X the exponent of
    U(V/lambda^(ell-1))_1 plus the rational one: the sign of sigma supplies
    the 2 of -zeta's torsion, so the coefficient is r! and not r!/2."""
    rep = division_degree_report(ell, parse_poly(poly))
    r = rep.poly.degree
    assert rep.degree_coeff == factorial(r)
    assert rep.degree_ell_exponent == (filtration_order_exponent(ell, r - 1, ell - 1, 1, "U")
                                       + ord_p(u_reduction_order(ell, r, ell - 1)[1]["rational"],
                                               ell))


def test_rational_similitudes_are_trivial_at_the_report_level():
    """1 + ell^(1+e) Z_ell is trivial mod lambda^(ell-1) = ell, so the report
    has no rational factor; on the grid of test_lattices'
    test_report_exponent_is_the_unitary_exponent_plus_the_rational_one."""
    for ell in filter(is_prime, range(3, 60)):
        for r in range(3, 14):
            if r % ell:
                assert u_reduction_order(ell, r, ell - 1)[1]["rational"] == 1, (ell, r)


def test_recorded_degrees_match_the_three_factor_route():
    """Every degree in curve_golden.json equals the report assembled from
    the unit group's parts at level n = ell - 1: coefficient
    (r!/2) * (torsion * rational) / ell^k and ell-exponent SU exponent + k
    + anti-fixed exponent, where k = ord_ell(torsion * rational)."""
    golden = json.loads((Path(__file__).parent / "data" / "curve_golden.json").read_text())
    reports = [json.loads(rec["stdout"]) for rec in golden
               if rec["argv"][0] == "division-degree" and rec["code"] == 0]
    assert len(reports) == 8
    for rep in reports:
        ell, r = rep["ell"], len(rep["coefficients"]) - 1
        n = ell - 1
        parts = u_reduction_order(ell, r, n)[1]
        small = parts["torsion"] * parts["rational"]
        k = ord_p(small, ell)
        assert rep["degree"] == {
            "coeff": factorial(r) // 2 * small // ell**k,
            "ell_exponent": (filtration_order_exponent(ell, r - 1, n, 1) + k
                             + parts["anti_fixed_exponent"]),
        }, rep["poly"]
