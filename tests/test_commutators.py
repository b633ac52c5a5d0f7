import random
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
    FreeSeries,
    commutator_case_expression,
    group_commutator,
    matrix_commutator_check,
    series_evaluate,
    su_commutator_span_check,
    t_degree,
    verify_commutator_identity,
)
from ring_oracles import digit, su_basis


def _series(n, *words):
    """The series 1 + sum of the given one-symbol words, truncated at t^n."""
    return FreeSeries(n, {(): 1, **{(w,): 1 for w in words}})


def test_t_degree_is_the_sum_of_the_levels():
    assert t_degree(()) == 0
    assert t_degree(("A1",)) == 1
    assert t_degree(("A3", "B12", "A3")) == 18


def test_series_basic_products():
    p = _series(3, "A1") * _series(3, "B1")
    assert p.terms == {(): 1, ("A1",): 1, ("B1",): 1, ("A1", "B1"): 1}
    assert p.terms != (_series(3, "B1") * _series(3, "A1")).terms


def test_series_truncation():
    p = _series(2, "A1") * _series(2, "B1")
    assert p.terms == {(): 1, ("A1",): 1, ("B1",): 1}
    assert FreeSeries(4, {("A2", "B2"): 3, ("A3",): 1, ("B4",): 2}).terms == {("A3",): 1}


def test_series_integer_coefficients_cancel():
    p = FreeSeries(4, {("A1",): 3, ("A1", "B2"): -2})
    assert (p + p).terms == {("A1",): 6, ("A1", "B2"): -4}
    assert not (p - p).terms
    assert (p * p).terms == {("A1", "A1"): 9}


def test_series_mixed_truncations_keep_the_lower_one():
    p, q = _series(3, "A1"), _series(5, "B2")
    assert (p + q).terms == {(): 2, ("A1",): 1, ("B2",): 1}
    assert (p * q).truncation == 3 and ("A1", "B2") not in (p * q).terms


def test_commutator_identity_symbolic():
    for n in range(3, 10):
        ok, residual = verify_commutator_identity(n)
        assert ok, (n, residual)
    with pytest.raises(ValueError):
        verify_commutator_identity(2)


def test_case_expression_without_quadratic_term_fails_at_4():
    # dropping the quadratic correction at depth 4 must leave a residual
    n = 4
    one = FreeSeries(n, {(): 1})
    sym = {s: FreeSeries(n, {(s,): 1}) for s in ("A1", "A2", "A3", "B1", "B2", "B3")}
    br = lambda p, q: p * q - q * p
    wrong = (one + br(sym["A1"], sym["B1"])
             + br(sym["A1"], sym["B2"]) + br(sym["A2"], sym["B1"]))
    aa = one + sym["A1"] + sym["A2"] + sym["A3"]
    bb = one + sym["B1"] + sym["B2"] + sym["B3"]
    assert (aa * bb - wrong * bb * aa).terms


def test_residual_terms_carry_the_t_degree_of_their_words(monkeypatch):
    """With a wrong case formula the residual is nonzero, and each term's
    t-degree is the sum of its word's levels, below n."""
    right = commutator_case_expression

    def wrong(n):
        return right(n) + FreeSeries(n, {(f"A{n - 1}",): 1})

    monkeypatch.setattr(commutators, "commutator_case_expression", wrong)
    holds, residual = verify_commutator_identity(7)
    assert not holds and ((6, ("A6",)), -1) in residual
    assert all(deg == t_degree(word) < 7 for (deg, word), _ in residual)
    assert residual == sorted(residual)


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
    """Adding lambda^(2N) [A_N, B_N] to the case formula E makes it wrong
    whenever [A_N, B_N] != 0 mod ell: AB = E BA fails, and so does
    ABA^(-1)B^(-1) = E, formed with inverses."""
    right = commutator_case_expression

    def wrong(n):
        big_n = (n - 1) // 2
        a, b = (FreeSeries(n, {(f"{s}{big_n}",): 1}) for s in "AB")
        return right(n) + (a * b - b * a)

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
    """Random digit matrices substituted into A = 1 + sum A_i and B give
    matrices with AB = E BA, E the case formula substituted likewise, and
    substitution is multiplicative."""
    rng = random.Random(34)
    for n in (3, 4, 5, 6):
        ctx = RingCtx(5, n)
        one, a, b = commutators._symbols(n)
        aa, bb = sum(a.values(), one), sum(b.values(), one)
        assignment = {
            f"{s}{i}": [[rng.randrange(5) for _ in range(3)] for _ in range(3)]
            for s in "AB" for i in range((n - 1) // 2, n)
        }
        x, y, e = (series_evaluate(p, assignment, ctx, 3)
                   for p in (aa, bb, commutator_case_expression(n)))
        assert x * y == e * y * x != y * x
        assert series_evaluate(aa * bb, assignment, ctx, 3) == x * y


@pytest.mark.parametrize("ell", [3, 5, 7])
def test_series_evaluate_takes_coefficients_mod_ell_power(ell):
    """A word of t-degree d contributes lambda^d times its coefficient,
    taken mod ell^k: scaling every coefficient scales the value, and a
    coefficient moved by ell^k does not change it."""
    rng = random.Random(ell)
    n = 5
    ctx = RingCtx(ell, n)
    assignment = {s: [[rng.randrange(ell) for _ in range(3)] for _ in range(3)]
                  for s in ("A1", "B1")}
    terms = {(): 1, ("A1",): 3, ("A1", "B1"): -2, ("B1", "A1", "B1"): 5}
    value = series_evaluate(FreeSeries(n, terms), assignment, ctx, 3)
    for k in (2, -3, ell + 2):
        scaled = FreeSeries(n, {w: k * c for w, c in terms.items()})
        assert series_evaluate(scaled, assignment, ctx, 3) == value.scale(k)
    moved = FreeSeries(n, {**terms, ("A1",): 3 + ctx.modulus})
    assert series_evaluate(moved, assignment, ctx, 3) == value
    a, b = (MatLocal.from_digit_matrices(ctx, 3, [assignment[s]]) for s in ("A1", "B1"))
    identity = [[int(i == j) for j in range(3)] for i in range(3)]
    lambda_squared = MatLocal.from_digit_matrices(ctx, 3, [mat_zero(3), mat_zero(3), identity])
    single = FreeSeries(n, {("A1", "B1"): 1})
    assert series_evaluate(single, assignment, ctx, 3) == lambda_squared * a * b


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
