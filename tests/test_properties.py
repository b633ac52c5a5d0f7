"""Property tests over random (ell, n): an element built from digits and one
produced by arithmetic must behave as the same element of O/lambda^n, and
conjugation, division by integers, log and exp must obey their defining
identities.

Examples are derandomized, and the pool of constants that Hypothesis mines
from the local modules in sys.modules is held empty, so every run tests the
same inputs whichever tests ran or modules were imported before.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.internal.conjecture import providers

from lamadic.matrices import MatLocal, det_local
from lamadic.ring import CycloElt, DomainError, RingCtx, coords_lift, div_by_int, exp, log1p
from ring_oracles import (
    zeta_coeffs,
    zeta_conjugate,
    zeta_digits,
    zeta_div_by_int,
    zeta_exp,
    zeta_inverse,
    zeta_log1p,
    zeta_mul,
    zeta_poly_galois,
)

SMALL_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23)

checked = settings(derandomize=True, deadline=None, database=None, max_examples=60)


@pytest.fixture(autouse=True, scope="module")
def no_local_constants():
    """Hypothesis draws some integers from constants in the source of every
    local module imported so far (lamadic.cli, say, once test_cli ran), which
    makes the draws depend on the tests before.  The patch fails loudly if a
    Hypothesis release renames what it replaces."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(providers, "_get_local_constants", providers.Constants)
        providers.CONSTANTS_CACHE.cache.clear()
        yield
    providers.CONSTANTS_CACHE.cache.clear()


@st.composite
def contexts(draw):
    return RingCtx(draw(st.sampled_from(SMALL_PRIMES)), draw(st.integers(1, 8)))


def elements(ctx):
    return st.lists(
        st.integers(0, ctx.ell - 1), min_size=ctx.precision, max_size=ctx.precision
    ).map(lambda digits: CycloElt(ctx, digits))


@st.composite
def ctx_and_elements(draw):
    ctx = draw(contexts())
    return ctx, [draw(elements(ctx)) for _ in range(3)]


@checked
@given(ctx_and_elements())
def test_ring_axioms(data):
    ctx, (a, b, c) = data
    zero, one = CycloElt.zero(ctx), CycloElt.one(ctx)
    assert a + b == b + a and a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + zero == a and a * one == a and a * zero == zero
    assert a - a == zero and a + (-a) == zero and (a - b) + b == a


@checked
@given(ctx_and_elements())
def test_equal_elements_hash_equal(data):
    ctx, (a, b, c) = data
    via_arithmetic = (a + b) * c - b * c
    assert via_arithmetic == a * c
    rebuilt = CycloElt(ctx, via_arithmetic.digits)
    assert rebuilt == via_arithmetic and hash(rebuilt) == hash(via_arithmetic)
    # the inverse is exact mod lambda^n only, so the coefficients differ
    unit = CycloElt.one(ctx) + CycloElt.lam(ctx, 1) * c
    round_trip = (a * unit) * unit.inverse()
    assert round_trip == a and hash(round_trip) == hash(a)
    assert {round_trip} == {a} == {CycloElt(ctx, a.digits)}


@checked
@given(ctx_and_elements(), st.integers(1, 22))
def test_galois_is_a_ring_homomorphism(data, j):
    ctx, (a, b, _) = data
    j = j % (ctx.ell - 1) + 1
    assert (a * b).galois(j) == a.galois(j) * b.galois(j)
    assert (a + b).galois(j) == a.galois(j) + b.galois(j)
    assert CycloElt.one(ctx).galois(j) == CycloElt.one(ctx)


@checked
@given(st.data())
def test_det_local_is_multiplicative(data):
    ctx = data.draw(contexts())
    d = data.draw(st.integers(1, 4))

    def matrix():
        return MatLocal.from_rows(
            [[data.draw(elements(ctx)) for _ in range(d)] for _ in range(d)]
        )

    a, b = matrix(), matrix()
    assert det_local(a * b) == det_local(a) * det_local(b)


@st.composite
def wide_contexts(draw, least=1):
    """Precision up to 2 ell, so that dividing by ell^2 can occur."""
    ell = draw(st.sampled_from(SMALL_PRIMES))
    return RingCtx(ell, draw(st.integers(least, 2 * ell)))


def cofactors(ell):
    """Integers prime to ell, of either sign."""
    return st.integers(-10**6, 10**6).filter(lambda k: k % ell != 0)


@checked
@given(st.data())
def test_div_by_int_inverts_multiplication(data):
    ell = data.draw(st.sampled_from(SMALL_PRIMES))
    s = data.draw(st.integers(0, 2))
    n = data.draw(st.integers((ell - 1) * s + 1, 2 * ell))
    ctx = RingCtx(ell, n)
    a = data.draw(elements(ctx))
    k = ell**s * data.draw(cofactors(ell))
    q = div_by_int(a * k, k)
    assert q.ctx.precision == n - (ell - 1) * s
    assert q == a.truncate(q.ctx.precision)


@checked
@given(st.data())
def test_div_by_int_rejects_non_multiples(data):
    ctx = data.draw(wide_contexts())
    ell, n = ctx.ell, ctx.precision
    s = data.draw(st.integers(1, 2))
    v = data.draw(st.integers(0, min(n, (ell - 1) * s) - 1))
    unit = data.draw(elements(ctx).filter(lambda u: u.is_unit))
    a = CycloElt.lam(ctx, v) * unit
    assert a.ord_lambda == v
    with pytest.raises(DomainError):
        div_by_int(a, ell**s * data.draw(cofactors(ell)))


@checked
@given(st.data())
def test_conjugation_is_an_involutive_ring_homomorphism(data):
    ctx = data.draw(wide_contexts())
    a, b = data.draw(elements(ctx)), data.draw(elements(ctx))
    assert zeta_coeffs(a.conjugate().conjugate()) == zeta_coeffs(a)
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()
    assert CycloElt.one(ctx).conjugate() == CycloElt.one(ctx)


def principal_units(data, ctx):
    """1 + lambda^2 * x for a random x."""
    x = data.draw(elements(ctx))
    return CycloElt.one(ctx) + CycloElt.lam(ctx, 2) * x


@checked
@given(st.data())
def test_log_of_a_product_is_the_sum_of_the_logs(data):
    ctx = data.draw(wide_contexts(least=3))
    u, v = principal_units(data, ctx), principal_units(data, ctx)
    assert log1p(u * v) == log1p(u) + log1p(v)


@checked
@given(st.data())
def test_exp_inverts_log(data):
    ctx = data.draw(wide_contexts(least=3))
    u = principal_units(data, ctx)
    x = log1p(u)
    assert x.is_zero() or x.ord_lambda >= 2
    assert exp(x) == u


@settings(checked, max_examples=200)
@given(st.data())
def test_coordinates_agree_with_the_power_basis(data):
    """Every operation on lambda-coordinates, at ell <= 23 and n <= 3 ell,
    against the same operation on power-basis coefficients (ring_oracles),
    compared by the digits peeled off the power basis."""
    ell = data.draw(st.sampled_from(SMALL_PRIMES))
    n = data.draw(st.integers(1, 3 * ell))
    ctx = RingCtx(ell, n)
    m = ctx.modulus
    a, b = data.draw(elements(ctx)), data.draw(elements(ctx))
    za, zb = zeta_coeffs(a), zeta_coeffs(b)

    def digits(z, precision=n):
        return zeta_digits(z, ell, precision)

    assert a.digits == digits(za)
    assert a.ord_lambda == next((t for t, x in enumerate(a.digits) if x), n)
    assert (a + b).digits == digits([(x + y) % m for x, y in zip(za, zb)])
    assert (a - b).digits == digits([(x - y) % m for x, y in zip(za, zb)])
    assert (a * b).digits == digits(zeta_mul(za, zb, ell, m))
    assert a.conjugate().digits == digits(zeta_conjugate(za, m))
    j = data.draw(st.integers(1, ell - 1))
    assert a.galois(j).digits == digits([c % m for c in zeta_poly_galois(za, j, ell)])
    if a.is_unit:
        assert a.inverse().digits == digits(zeta_inverse(za, ell, m))
    k = data.draw(st.integers(1, n))
    assert a.truncate(k).digits == a.digits[:k] == digits(zeta_coeffs(a.truncate(k)), k)
    high = ctx.at_precision(data.draw(st.integers(n, n + ell)))
    lift = CycloElt.from_reduced(coords_lift(a.coords, high), high)
    assert lift.truncate(n) == a and digits(zeta_coeffs(lift), high.precision)[:n] == a.digits
    s = data.draw(st.integers(0, (n - 1) // (ell - 1)))
    k = ell**s * data.draw(cofactors(ell))
    q, precision = zeta_div_by_int(zeta_coeffs(a * k), k, ell, n)
    assert div_by_int(a * k, k).digits == digits(q, precision)
    if zeta_div_by_int(za, ell, ell, n) is None:
        with pytest.raises(DomainError):
            div_by_int(a, ell)
    else:
        q, precision = zeta_div_by_int(za, ell, ell, n)
        assert div_by_int(a, ell).digits == digits(q, precision)
    x = a * CycloElt.lam(ctx, 2)
    assert exp(x).digits == digits(zeta_exp(zeta_coeffs(x), ell, n))
    u = CycloElt.one(ctx) + x
    assert log1p(u).digits == digits(zeta_log1p(zeta_coeffs(u), ell, n))
