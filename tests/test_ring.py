import random
from itertools import product

import pytest

import lamadic.ring as ring
from lamadic.ring import (
    CheckFailed,
    CycloElt,
    ContextMismatch,
    DomainError,
    NotAUnit,
    RingCtx,
    div_by_int,
    exp,
    is_prime,
    digits_from_poly,
    jacobi,
    lambda_digit,
    lambda_order,
    log1p,
)
from ring_oracles import (
    in_lambda_n,
    lift_digits,
    mul_mod_phi,
    zeta_coeffs,
    zeta_digits,
    zeta_inverse,
    zeta_poly,
    zeta_poly_galois,
)


def test_digit_examples():
    assert CycloElt.lam(RingCtx(3, 2), 1).digits == (0, 1)
    assert CycloElt.zeta(RingCtx(5, 2), 1).digits == (1, 4)
    assert CycloElt.from_int(3, RingCtx(3, 3)).digits == (0, 0, 2)


def test_lambda_power_rejects_a_negative_power():
    ctx = RingCtx(5, 4)
    for power in (-1, -4, -5):
        with pytest.raises(DomainError, match="lambda has no inverse"):
            CycloElt.lam(ctx, power)
    assert [CycloElt.lam(ctx, k).digits for k in range(3, 6)] == [
        (0, 0, 0, 1), (0, 0, 0, 0), (0, 0, 0, 0)]
    assert CycloElt.zeta(ctx, -1) * CycloElt.zeta(ctx, 1) == CycloElt.one(ctx)


def test_digit_bijection_small():
    # every digit tuple is hit exactly once by reduction of its own lift
    for n in (1, 2, 3, 4):
        ctx = RingCtx(3, n)
        seen = set()
        for k in range(3**n):
            digits = tuple((k // 3**i) % 3 for i in range(n))
            e = CycloElt.from_poly(lift_digits(digits, 3), ctx)
            assert e.digits == digits
            seen.add(e.digits)
        assert len(seen) == 3**n


def test_ring_axioms_random():
    rng = random.Random(11)
    for ell, n in ((3, 5), (5, 4), (7, 3)):
        ctx = RingCtx(ell, n)
        elts = [
            CycloElt(ctx, tuple(rng.randrange(ell) for _ in range(n)))
            for _ in range(8)
        ]
        for a in elts:
            for b in elts:
                assert a + b == b + a
                assert a * b == b * a
                assert (a - b) + b == a
        a, b, c = elts[:3]
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)


def test_lambda_conjugate_and_norm():
    for ell in (3, 5, 7, 11):
        ctx = RingCtx(ell, 2)
        lam = CycloElt.lam(ctx, 1)
        # conj(lambda) = -lambda modulo lambda^2
        assert (lam + lam.conjugate()).ord_lambda >= 2
    # lambda * conj(lambda) * (middle factors) = ell: check ord instead
    for ell in (3, 5, 7):
        ctx = RingCtx(ell, 2 * (ell - 1))
        assert CycloElt.from_int(ell, ctx).ord_lambda == ell - 1


@pytest.mark.parametrize("ell", [3, 5, 7, 11, 13])
def test_conjugate_is_the_galois_action_of_minus_one(ell):
    """conjugate(), a linear map on the lambda-coordinates, equals
    sigma_(ell-1) applied to the power basis, also where the modulus is
    ell^2 or more.  The power-basis image is one representative of the
    element, so the two are compared as elements."""
    rng = random.Random(ell)
    moduli = set()
    for n in (1, ell - 1, ell, 2 * (ell - 1) + 1, 3 * ell):
        ctx = RingCtx(ell, n)
        m = ctx.modulus
        moduli.add(m)
        for _ in range(20):
            a = CycloElt.from_poly([rng.randrange(m) for _ in range(ell - 1)], ctx)
            want = zeta_poly_galois(zeta_coeffs(a), ell - 1, ell)
            assert a.conjugate() == CycloElt.from_poly(want, ctx)
    assert max(moduli) >= ell**3


def test_zeta_is_root_of_unity():
    for ell in (3, 5, 7):
        ctx = RingCtx(ell, 6)
        z = CycloElt.zeta(ctx, 1)
        assert z**ell == CycloElt.one(ctx)
        assert z.inverse() == z ** (ell - 1)
        assert z.conjugate() == z.inverse()


def test_inverse_and_units():
    ctx = RingCtx(3, 2)
    two = CycloElt.from_int(2, ctx)
    assert two.inverse() == two
    with pytest.raises(NotAUnit):
        CycloElt.lam(ctx, 1).inverse()
    rng = random.Random(0)
    ctx = RingCtx(5, 6)
    for _ in range(20):
        digits = [rng.randrange(1, 5)] + [rng.randrange(5) for _ in range(5)]
        a = CycloElt(ctx, tuple(digits))
        assert a * a.inverse() == CycloElt.one(ctx)


def test_inverse_rises_in_precision_and_matches_the_full_precision_inverse(monkeypatch):
    """Newton step j runs at precision min(2^j, n); the result equals the
    inverse taken at full precision on the power basis, for every ell <= 23
    and n <= 3 ell."""
    rng = random.Random(5)
    for ell in (3, 5, 7, 11, 13, 17, 19, 23):
        for n in range(1, 3 * ell + 1):
            ctx = RingCtx(ell, n)
            for _ in range(2):
                digits = [rng.randrange(1, ell)] + [rng.randrange(ell) for _ in range(n - 1)]
                a = CycloElt(ctx, digits)
                inv = a.inverse()
                assert inv.digits == zeta_digits(
                    zeta_inverse(zeta_coeffs(a), ell, ctx.modulus), ell, n), (ell, n)
    precisions = []
    product = ring.coords_mul
    monkeypatch.setattr(ring, "coords_mul",
                        lambda x, y, ctx: precisions.append(ctx.precision) or product(x, y, ctx))
    CycloElt(RingCtx(5, 13), (2,) + (1,) * 12).inverse()
    assert precisions == [2, 2, 4, 4, 8, 8, 13, 13]


def test_div_by_int():
    ctx = RingCtx(3, 6)
    a = CycloElt.zeta(ctx, 1) + CycloElt.from_int(4, ctx)
    assert div_by_int(a * 5, 5) == a.truncate(div_by_int(a * 5, 5).ctx.precision)
    b = a * 3
    q = div_by_int(b, 3)
    assert q == a.truncate(q.ctx.precision)
    # 9 b = 27 a = 0 mod lambda^6, but a quotient by 27 would keep none of its digits
    with pytest.raises(DomainError):
        div_by_int(b * 9, 27)


def test_shift_and_ord():
    ctx = RingCtx(5, 5)
    lam = CycloElt.lam(ctx, 1)
    x = lam * lam * CycloElt.from_int(2, ctx)
    assert x.ord_lambda == 2


def test_precision_mismatch_raises():
    a = CycloElt.one(RingCtx(3, 2))
    b = CycloElt.one(RingCtx(3, 3))
    with pytest.raises(ContextMismatch):
        a + b
    with pytest.raises(ContextMismatch):
        a * b


def test_galois_orbit_structure():
    ctx = RingCtx(7, 3)
    z = CycloElt.zeta(ctx, 1)
    for j in range(1, 7):
        assert z.galois(j) == CycloElt.zeta(ctx, j)
    with pytest.raises(DomainError):
        z.galois(7)


def test_log_exp_roundtrip():
    rng = random.Random(21)
    for ell in (3, 5):
        n = ell + 3
        ctx = RingCtx(ell, n)
        for _ in range(10):
            digits = [0, 0] + [rng.randrange(ell) for _ in range(n - 2)]
            x = CycloElt(ctx, tuple(digits))
            u = exp(x)
            assert (u - CycloElt.one(ctx)).ord_lambda >= 2
            assert log1p(u) == x
    with pytest.raises(DomainError):
        log1p(CycloElt.from_int(2, RingCtx(3, 3)))


def test_log_is_homomorphism():
    rng = random.Random(4)
    ctx = RingCtx(5, 9)
    one = CycloElt.one(ctx)
    for _ in range(20):
        x = CycloElt(ctx, (0, 0) + tuple(rng.randrange(5) for _ in range(7)))
        y = CycloElt(ctx, (0, 0) + tuple(rng.randrange(5) for _ in range(7)))
        assert log1p((one + x) * (one + y)) == log1p(one + x) + log1p(one + y)


# ---------------------------------------------------------------------------
# Independent multiplication oracle: schoolbook products mod Phi_ell, with
# equality modulo lambda^n decided by ideal membership through the norm.


def test_in_lambda_n_oracle_on_lambda_powers():
    for ell in (3, 5, 7, 11):
        lam = [1, -1] + [0] * (ell - 3)
        power = [1] + [0] * (ell - 2)
        for n in range(6):
            assert in_lambda_n(power, ell, n) and not in_lambda_n(power, ell, n + 1)
            power = mul_mod_phi(power, lam, ell)
        # ell = lambda^(ell-1) * unit
        ell_poly = [ell] + [0] * (ell - 2)
        assert in_lambda_n(ell_poly, ell, ell - 1) and not in_lambda_n(ell_poly, ell, ell)


@pytest.mark.parametrize("ell", [3, 5, 7, 11, 13])
def test_lambda_order_and_digit_match_the_digit_expansion(ell):
    """lambda_order and lambda_digit read the lambda-coordinates; they must
    agree with the norm oracle and with the expanded digits, for the
    canonical coordinates and for other integer representatives of the
    element (each coordinate moved by multiples of its modulus).  The
    digits lie in [0, ell), reproduce the element mod lambda^n
    (in_lambda_n), which determines them, and equal those peeled off the
    power basis (zeta_digits)."""
    rng = random.Random(ell)
    for n in range(1, 3 * (ell - 1) + 2):  # passes n = (ell-1), 2(ell-1), 3(ell-1)
        ctx = RingCtx(ell, n)
        m = ctx.modulus
        samples = [CycloElt.zero(ctx)]
        samples += [CycloElt.lam(ctx, j) for j in range(n)]
        samples += [CycloElt.from_int(s * ell**j, ctx)
                    for j in range(-(-n // (ell - 1)) + 1) for s in (1, -1)]
        for _ in range(12):
            x = CycloElt.from_poly([rng.randrange(m) for _ in range(ell - 1)], ctx)
            samples += [x, CycloElt.lam(ctx, rng.randrange(n)) * x]
        for e in samples:
            digits = digits_from_poly(e.coords, ell, n)
            assert digits == e.digits == zeta_digits(zeta_coeffs(e), ell, n)
            order = next((i for i, x in enumerate(digits) if x), n)
            assert in_lambda_n(zeta_coeffs(e), ell, order)
            assert order == n or not in_lambda_n(zeta_coeffs(e), ell, order + 1)
            shifted = [c + rng.randrange(-3, 4) * q for c, q in zip(e.coords, ctx.moduli)]
            for coords in (e.coords, shifted):
                assert digits_from_poly(coords, ell, n) == digits
                assert all(0 <= x < ell for x in digits)
                rest = [a - b for a, b in zip(lift_digits(digits, ell), zeta_poly(coords, ell))]
                assert in_lambda_n(rest, ell, n), (ell, n, coords)
                assert lambda_order(coords, ell, n) == order
                for cap in range(n):
                    assert lambda_order(coords, ell, cap) == min(order, cap)
                for t in range(min(order + 1, n)):
                    assert lambda_digit(coords, ell, t) == digits[t], (n, e, t)
            assert e.ord_lambda == order and e.is_zero() == (order == n)


@pytest.mark.parametrize("ell", [3, 5, 7])
def test_digits_from_poly_rejects_a_wrong_digit(monkeypatch, ell):
    """A digit read wrong at any place leaves a rest outside lambda^n."""
    read = ring.lambda_digit
    n = 2 * ell
    coeffs = [random.Random(ell).randrange(ell**3) for _ in range(ell - 1)]
    for bad in range(n):
        monkeypatch.setattr(ring, "lambda_digit",
                            lambda c, ell, t: (read(c, ell, t) + (t == bad)) % ell)
        with pytest.raises(CheckFailed):
            digits_from_poly(coeffs, ell, n)


def test_multiplication_table_against_oracle():
    ctx = RingCtx(3, 3)
    elements = [CycloElt(ctx, digits) for digits in product(range(3), repeat=3)]
    for x in elements:
        for y in elements:
            want = mul_mod_phi(lift_digits(x.digits, 3), lift_digits(y.digits, 3), 3)
            got = lift_digits((x * y).digits, 3)
            assert in_lambda_n([g - w for g, w in zip(got, want)], 3, 3), (x.digits, y.digits)


def test_jacobi_is_the_legendre_symbol_at_odd_primes():
    from lamadic.matrices import legendre

    assert legendre is jacobi
    for p in range(3, 400, 2):
        if is_prime(p):
            for a in range(-3 * p, 3 * p):
                euler = pow(a, (p - 1) // 2, p)
                assert jacobi(a, p) == (0 if a % p == 0 else 1 if euler == 1 else -1), (a, p)


def test_is_prime_matches_sympy_and_rejects_pseudoprimes():
    import sympy

    assert [n for n in range(20000) if is_prime(n) != sympy.isprime(n)] == []
    rng = random.Random(17)
    for _ in range(300):
        n = rng.randrange(10**6, 10**40)
        assert is_prime(n) == sympy.isprime(n), n
    # Carmichael numbers, strong pseudoprimes to many bases, and the least
    # strong pseudoprime to every prime base up to 41 (decided by BPSW)
    for n in (561, 41041, 3215031751, 3825123056546413051, 318665857834031151167461,
              3317044064679887385961981):
        assert not is_prime(n), n
    # primes on both sides of the Miller-Rabin bound, and the 19- and
    # 21-digit discriminant factors of x^12 + x + 3 and x^10 + 7x + 13
    for n in (2**61 - 1, 2**89 - 1, 2**127 - 1, 1579460160795535021,
              105935557030902023239):
        assert is_prime(n), n
        assert not is_prime(n * (2**31 - 1))
