import random
from fractions import Fraction
from itertools import product

import pytest
from sympy import GF, Matrix
from sympy.polys.matrices import DomainMatrix

import lamadic.commutators as commutators
from lamadic.ring import RingCtx
from lamadic.matrices import (
    HermitianForm,
    MatLocal,
    mat_zero,
    su_dimension,
)
from lamadic.commutators import (
    _lift_slice_generator,
    AlphabetMismatch,
    FreeSeries,
    commutator_alphabet,
    commutator_case_expression,
    group_commutator,
    matrix_commutator_check,
    series_evaluate,
    su_commutator_span_check,
    verify_commutator_identity,
)
from ring_oracles import digit, su_basis


def test_series_basic_products():
    ab = ("A", "B")
    one = FreeSeries.one(ab, 3)
    ta = FreeSeries.symbol(ab, 3, "A", 1)
    tb = FreeSeries.symbol(ab, 3, "B", 1)
    p = (one + ta) * (one + tb)
    assert p.terms == {
        (0, ()): 1,
        (1, ("A",)): 1,
        (1, ("B",)): 1,
        (2, ("A", "B")): 1,
    }
    assert (one + ta) * (one + tb) != (one + tb) * (one + ta)


def test_series_truncation():
    ab = ("A", "B")
    one = FreeSeries.one(ab, 2)
    ta = FreeSeries.symbol(ab, 2, "A", 1)
    tb = FreeSeries.symbol(ab, 2, "B", 1)
    p = (one + ta) * (one + tb)
    assert p.terms == {(0, ()): 1, (1, ("A",)): 1, (1, ("B",)): 1}


def test_series_alphabet_mismatch():
    p = FreeSeries.one(("A",), 3)
    q = FreeSeries.one(("B",), 3)
    with pytest.raises(AlphabetMismatch):
        p * q


def test_series_rational_coefficients():
    p = FreeSeries(("A",), 4, {(1, ("A",)): Fraction(1, 2)})
    q = p + p
    assert q.terms == {(1, ("A",)): Fraction(1)}
    assert (p - p).is_zero()


def test_commutator_identity_symbolic():
    for n in range(3, 10):
        ok, residual = verify_commutator_identity(n)
        assert ok, (n, residual)
    with pytest.raises(ValueError):
        verify_commutator_identity(2)


def test_case_expression_without_quadratic_term_fails_at_4():
    # dropping the quadratic correction at depth 4 must leave a residual
    n = 4
    alphabet = commutator_alphabet(n)
    one = FreeSeries.one(alphabet, n)
    sym = lambda s: FreeSeries.symbol(alphabet, n, s)
    br = lambda p, q: p * q - q * p
    wrong = (
        one
        + br(sym("A1"), sym("B1")).shift_t(2)
        + (br(sym("A1"), sym("B2")) + br(sym("A2"), sym("B1"))).shift_t(3)
    )
    aa = one + sym("A1").shift_t(1) + sym("A2").shift_t(2) + sym("A3").shift_t(3)
    bb = one + sym("B1").shift_t(1) + sym("B2").shift_t(2) + sym("B3").shift_t(3)
    assert not (aa * bb - wrong * bb * aa).is_zero()


def _mul_mod(x, y, ell):
    """The product of two integer matrices over F_ell."""
    return [[sum(a * b for a, b in zip(row, col)) % ell for col in zip(*y)] for row in x]


def _level_n_matrix(ctx, d, big_n, rng):
    mats = [[[1 if i == j else 0 for j in range(d)] for i in range(d)]]
    mats += [mat_zero(d) for _ in range(big_n - 1)]
    mats += [
        [[rng.randrange(ctx.ell) for _ in range(d)] for _ in range(d)]
        for _ in range(ctx.precision - big_n)
    ]
    return MatLocal.from_digit_matrices(ctx, d, mats)


def test_matrix_commutator_matches_case_formula():
    rng = random.Random(31)
    for ell, d, n in ((3, 2, 4), (3, 3, 3), (5, 2, 5), (5, 3, 6)):
        ctx = RingCtx(ell, n)
        big_n = (n - 1) // 2
        for _ in range(20):
            a = _level_n_matrix(ctx, d, big_n, rng)
            b = _level_n_matrix(ctx, d, big_n, rng)
            assert matrix_commutator_check(a, b)


@pytest.mark.parametrize("n", [1, 2])
def test_matrix_commutator_check_needs_n_at_least_3(n):
    a = _level_n_matrix(RingCtx(5, n), 2, 1, random.Random(n))  # the identity at n = 1
    with pytest.raises(ValueError, match="need n >= 3"):
        matrix_commutator_check(a, a)


def test_a_wrong_case_formula_fails_the_product_check_and_the_inverse_oracle(monkeypatch):
    """Adding lambda^(n-1) [A_N, B_N] to the case formula E makes it wrong
    whenever [A_N, B_N] != 0 mod ell: AB = E BA fails, and so does
    ABA^(-1)B^(-1) = E, formed with inverses."""
    right = commutator_case_expression

    def wrong(n):
        big_n = (n - 1) // 2
        alphabet = commutator_alphabet(n)
        a, b = (FreeSeries.symbol(alphabet, n, f"{s}{big_n}") for s in "AB")
        return right(n) + (a * b - b * a).shift_t(n - 1)

    monkeypatch.setattr(commutators, "commutator_case_expression", wrong)
    rng = random.Random(38)
    rejected = 0
    for ell, d, n in ((3, 2, 4), (3, 3, 3), (5, 2, 5), (5, 3, 6), (3, 3, 7)):
        ctx = RingCtx(ell, n)
        big_n = (n - 1) // 2
        for _ in range(6):
            a = _level_n_matrix(ctx, d, big_n, rng)
            b = _level_n_matrix(ctx, d, big_n, rng)
            x, y = digit(a, big_n), digit(b, big_n)
            if _mul_mod(x, y, ell) == _mul_mod(y, x, ell):
                continue
            assignment = {f"{s}{i}": digit(m, i) for s, m in (("A", a), ("B", b))
                          for i in range(big_n, n)}
            assert not matrix_commutator_check(a, b)
            assert group_commutator(a, b) != series_evaluate(wrong(n), assignment, ctx, d)
            rejected += 1
    assert rejected >= 10


def test_commutator_with_identity():
    rng = random.Random(32)
    ctx = RingCtx(5, 4)
    ident = MatLocal.identity(ctx, 3)
    a = _level_n_matrix(ctx, 3, 1, rng)
    assert group_commutator(a, ident) == ident


def test_central_levels_commute():
    rng = random.Random(33)
    ctx = RingCtx(3, 4)
    for _ in range(10):
        a = _level_n_matrix(ctx, 2, 2, rng)
        b = _level_n_matrix(ctx, 2, 2, rng)
        assert a * b == b * a


def test_symbolic_numeric_agreement():
    # substituting random digit matrices into the symbolic residual
    # gives the zero matrix
    rng = random.Random(34)
    for n in (3, 4, 5):
        ctx = RingCtx(5, n)
        alphabet = commutator_alphabet(n)
        big_n = (n - 1) // 2
        one = FreeSeries.one(alphabet, n)
        aa, bb = one, one
        for i in range(big_n, n):
            aa = aa + FreeSeries.symbol(alphabet, n, f"A{i}", i)
            bb = bb + FreeSeries.symbol(alphabet, n, f"B{i}", i)
        residual = aa * bb - commutator_case_expression(n) * bb * aa
        assignment = {
            s: [[rng.randrange(5) for _ in range(3)] for _ in range(3)]
            for s in alphabet
        }
        value = series_evaluate(residual, assignment, ctx, 3)
        assert value == MatLocal.from_rows(
            [[MatLocal.identity(ctx, 3).entries[0][0] * 0] * 3] * 3
        )


@pytest.mark.parametrize("ell", [3, 5, 7])
def test_series_evaluate_divides_by_denominators_prime_to_ell(ell):
    rng = random.Random(ell)
    alphabet = ("A", "B")
    n = 5
    ctx = RingCtx(ell, n)
    assignment = {s: [[rng.randrange(ell) for _ in range(3)] for _ in range(3)]
                  for s in alphabet}
    p = FreeSeries(alphabet, n, {
        (0, ()): 1, (1, ("A",)): 3, (2, ("A", "B")): -2, (3, ("B", "A", "B")): 5,
    })
    value = series_evaluate(p, assignment, ctx, 3)
    for den in (2, 4, -(ell + 2)):
        scaled = series_evaluate(p.scale(Fraction(1, den)), assignment, ctx, 3)
        assert scaled != value and scaled.scale(den) == value
    with pytest.raises(commutators.DomainError):
        series_evaluate(p.scale(Fraction(1, ell)), assignment, ctx, 3)


def test_top_commutators_span_slice():
    for n in (3, 4):
        assert su_commutator_span_check(3, 3, n)


def _span_check_lifting_every_pair(ell, d, n, sign=1):
    """su_commutator_span_check with both generators lifted afresh for
    every (i, j, l), the generator of (i, j) the slice-basis element of
    su_basis with a nonzero (i, j) entry, and the rank taken over GF(ell)
    by sympy."""
    form = HermitianForm.standard(RingCtx(ell, 1), d, sign)
    big_n = (n - 1) // 2
    big_m = n - 1 - big_n

    def lifted(level, i, j):
        gen = next(b for b in su_basis(form, level + 1) if b[i][j])
        return _lift_slice_generator(form, level, gen, n)

    vectors = []
    for i, j, l in product(range(d), repeat=3):
        if j == i or l == j:
            continue
        top = digit(group_commutator(lifted(big_n, i, j), lifted(big_m, j, l)), n - 1)
        vectors.append([x for row in top for x in row])
    rank = DomainMatrix.from_Matrix(Matrix(vectors)).convert_to(GF(ell)).rank()
    return rank == su_dimension(d, n)


@pytest.mark.parametrize("d, n", list(product((3, 4), (3, 4, 5))))
def test_span_check_lifts_each_generator_once(monkeypatch, d, n):
    """One lift per (level, unordered pair): the off-diagonal slice-basis
    elements at the two levels, each lifted once."""
    lifted = []

    def spy(form, level, gen, precision):
        lifted.append((level, tuple(map(tuple, gen))))
        return _lift_slice_generator(form, level, gen, precision)

    monkeypatch.setattr(commutators, "_lift_slice_generator", spy)
    for sign in (1, -1):
        lifted.clear()
        got = su_commutator_span_check(5, d, n, sign)
        form = HermitianForm.standard(RingCtx(5, 1), d, sign)
        levels = {(n - 1) // 2, n - 1 - (n - 1) // 2}
        pairs = {(level, tuple(map(tuple, b))) for level in levels
                 for b in su_basis(form, level + 1)
                 if any(b[i][j] for i, j in product(range(d), repeat=2) if i != j)}
        assert len(lifted) == len(levels) * d * (d - 1) // 2
        assert set(lifted) == pairs and len(pairs) == len(lifted)
        assert got == _span_check_lifting_every_pair(5, d, n, sign)
