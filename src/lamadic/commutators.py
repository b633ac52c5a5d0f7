"""Noncommutative truncated power series over free symbols, used to verify
the group-commutator expansion ABA^(-1)B^(-1) for congruence-filtration
elements symbolically, plus the matching numeric check on matrices and
the span check for commutators of lifted slice generators.
"""

from __future__ import annotations

from functools import lru_cache
from operator import mul

from .linalg import index_modulo
from .ring import (
    CheckFailed,
    RingCtx,
    coords_add_int,
    coords_from_lambda_poly,
    coords_scale,
    coords_sub,
    lambda_digit,
)
from .matrices import (
    HermitianForm,
    MatLocal,
    MembershipError,
    lift_su,
    mat_zero,
    su_dimension,
    top_digits,
)


def t_degree(word) -> int:
    """The sum of the levels of a word's symbols; a symbol is a letter and
    its level, so A3 stands for t^3 A_3."""
    return sum(int(symbol[1:]) for symbol in word)


class FreeSeries:
    """Truncated series sum c * word: terms maps words, tuples of symbols
    that concatenate without commuting, to nonzero integers c.  Words of
    t-degree >= truncation are dropped."""

    __slots__ = ("truncation", "terms")

    def __init__(self, truncation: int, terms: dict):
        self.truncation = truncation
        self.terms = {w: c for w, c in terms.items() if c and t_degree(w) < truncation}

    def _plus(self, other: "FreeSeries", sign: int) -> "FreeSeries":
        terms = dict(self.terms)
        for word, coef in other.terms.items():
            terms[word] = terms.get(word, 0) + sign * coef
        return FreeSeries(min(self.truncation, other.truncation), terms)

    def __add__(self, other: "FreeSeries") -> "FreeSeries":
        return self._plus(other, 1)

    def __sub__(self, other: "FreeSeries") -> "FreeSeries":
        return self._plus(other, -1)

    def __mul__(self, other: "FreeSeries") -> "FreeSeries":
        n = min(self.truncation, other.truncation)
        right = sorted((t_degree(w), w, c) for w, c in other.terms.items())
        terms = {}
        for w1, c1 in self.terms.items():
            room = n - t_degree(w1)
            for d2, w2, c2 in right:
                if d2 >= room:
                    break
                word = w1 + w2
                terms[word] = terms.get(word, 0) + c1 * c2
        return FreeSeries(n, terms)


# ---------------------------------------------------------------------------
# The symbolic commutator identity.


def _bracket(p: FreeSeries, q: FreeSeries) -> FreeSeries:
    return p * q - q * p


def _symbols(n: int):
    """1 and the symbols A_i, B_i of levels i = floor((n-1)/2) .. n-1, as
    series truncated at t^n."""
    big_n = (n - 1) // 2
    a, b = ({i: FreeSeries(n, {(f"{s}{i}",): 1}) for i in range(big_n, n)} for s in "AB")
    return FreeSeries(n, {(): 1}), a, b


@lru_cache(maxsize=None)
def commutator_case_expression(n: int) -> FreeSeries:
    """The case-split closed form for ABA^(-1)B^(-1) with A, B = I + higher
    terms starting at t-degree floor((n-1)/2)."""
    big_n = (n - 1) // 2
    one, a, b = _symbols(n)
    if n % 2 == 1:
        return one + _bracket(a[big_n], b[big_n])
    if n >= 6:
        return (one + _bracket(a[big_n], b[big_n])
                + _bracket(a[big_n], b[big_n + 1]) + _bracket(a[big_n + 1], b[big_n]))
    # n = 4: the quadratic correction does not vanish at this depth
    extra = _bracket(b[1], a[1]) * (a[1] + b[1])
    return one + _bracket(a[1], b[1]) + _bracket(a[1], b[2]) + _bracket(a[2], b[1]) + extra


def commutator_residual(n: int) -> FreeSeries:
    """A*B - (case formula)*B*A, truncated at t^n; zero iff the identity holds."""
    if n < 3:
        raise ValueError("need n >= 3")
    one, a, b = _symbols(n)
    aa, bb = sum(a.values(), one), sum(b.values(), one)
    return aa * bb - commutator_case_expression(n) * bb * aa


def verify_commutator_identity(n: int):
    """Returns (holds, residual_terms) for the case-split commutator formula,
    the terms as ((t-degree, word), coefficient) in increasing order."""
    residual = commutator_residual(n)
    return not residual.terms, sorted(((t_degree(w), w), c) for w, c in residual.terms.items())


# ---------------------------------------------------------------------------
# Evaluation of a series at t = lambda with matrices for the symbols.


def series_evaluate(p: FreeSeries, assignment, ctx: RingCtx, dim: int) -> MatLocal:
    """Substitute integer matrices (mod ell) for the symbols, t -> lambda.

    The words are summed as plain integers per t-degree, each coefficient
    taken mod ell^k; each entry is then one polynomial in lambda, turned
    into coordinates once."""
    m = ctx.modulus
    by_deg = {}
    for word, coef in p.terms.items():
        w = assignment[word[0]] if word else [[int(i == j) for j in range(dim)] for i in range(dim)]
        for sym in word[1:]:
            cols = tuple(zip(*assignment[sym]))
            w = [[sum(map(mul, row, col)) for col in cols] for row in w]
        acc = by_deg.setdefault(t_degree(word), mat_zero(dim))
        c = coef % m
        for acc_row, w_row in zip(acc, w):
            for j, x in enumerate(w_row):
                acc_row[j] += c * x
    by_t = [by_deg.get(t) for t in range(max(by_deg, default=0) + 1)]
    return MatLocal(ctx, tuple(
        tuple(coords_from_lambda_poly([0 if acc is None else acc[i][j] for acc in by_t], ctx)
              for j in range(dim))
        for i in range(dim)
    ))


# ---------------------------------------------------------------------------
# Numeric commutator checks on actual matrices.


def group_commutator(a: MatLocal, b: MatLocal) -> MatLocal:
    return a * b * a.inverse() * b.inverse()


def _level_digits(a: MatLocal, level: int):
    """The digit matrices `level` and level+1 of A = I mod lambda^level,
    read from the coordinates by lambda_digit: digit `level` of A - I, then
    digit level+1 of A - I - lambda^level A_level."""
    ctx, ell = a.ctx, a.ctx.ell
    x = [[coords_add_int(c, -1, ctx) if i == j else c for j, c in enumerate(row)]
         for i, row in enumerate(a.rows)]
    low = [[lambda_digit(c, ell, level) for c in row] for row in x]
    power = coords_from_lambda_poly((0,) * level + (1,), ctx)
    high = [[lambda_digit(coords_sub(c, coords_scale(power, t, ctx), ctx), ell, level + 1)
             for c, t in zip(row, trow)] for row, trow in zip(x, low)]
    return low, high


def matrix_commutator_check(a: MatLocal, b: MatLocal) -> bool:
    """Check ABA^(-1)B^(-1) = E, the case formula, for level-N members as
    AB = E BA, the form commutator_residual verifies: A = B = I mod lambda
    are invertible.  Elements at levels i, j with i + j >= n must commute.
    E reads the digit matrices N and N+1 of A and B only (_level_digits).
    """
    if a.ctx != b.ctx or a.dim != b.dim:
        raise ValueError("matrix mismatch")
    ctx = a.ctx
    n = ctx.precision
    if n < 3:
        raise ValueError("need n >= 3")
    big_n = (n - 1) // 2
    level_a, level_b = a.filtration_level(), b.filtration_level()
    if level_a < big_n or level_b < big_n:
        raise MembershipError(f"both matrices must be trivial mod lambda^{big_n}")
    ab, ba = a * b, b * a
    assignment = {f"{s}{big_n + k}": digits
                  for s, m in (("A", a), ("B", b))
                  for k, digits in enumerate(_level_digits(m, big_n))}
    expected = series_evaluate(commutator_case_expression(n), assignment, ctx, a.dim)
    if ab != expected * ba:
        return False
    return level_a + level_b < n or ab == ba


# ---------------------------------------------------------------------------
# Span of top-level commutators of lifted slice generators.


def _lift_slice_generator(form: HermitianForm, level: int, gen, precision: int) -> MatLocal:
    """Lift I + lambda^level * gen from precision level+1 up to the target."""
    ctx = form.ctx.at_precision(level + 1)
    a = MatLocal.identity(ctx, form.dim).add_top(gen)
    for _ in range(level + 1, precision):
        a = lift_su(a, form)
    return a


def su_commutator_span_check(ell: int, d: int, n: int, sign: int = 1) -> bool:
    """Top digits of commutators of lifted slice generators span the level-n
    slice: collect digit n-1 of [[A, B]] over the prescribed generator pairs
    and compare the F_ell-rank with the slice dimension.  At levels N and
    n-1-N, [[A, B]] - I = (AB - BA)(BA)^(-1) = AB - BA mod lambda^n, whose
    digit n-1 top_digits reads, with no inverse; it is the bracket of the
    level-N and level-(n-1-N) digits of A and B.  So one generator per
    (level, unordered pair) serves: the slice-basis element Gamma^(-1)
    (E_ij + (-1)^(level+1) E_ji), i < j, is lifted once, and the pair
    (j, i), whose generator is +- the same, shares it, which changes the
    top digit by a sign only."""
    if n < 3 or d < 3:
        raise ValueError("need n >= 3 and d >= 3")
    ctx1 = RingCtx(ell, 1)
    form = HermitianForm.standard(ctx1, d, sign)
    big_n = (n - 1) // 2
    big_m = n - 1 - big_n
    lifts = {}
    for level in {big_n, big_m}:
        for entries in form.slice_basis(level + 1)[:d * (d - 1) // 2]:
            gen = mat_zero(d)
            for i, j, x in entries:
                gen[i][j] = x
            lifts[level, frozenset(entries[0][:2])] = _lift_slice_generator(form, level, gen, n)
    vectors = []
    for i in range(d):
        for j in range(d):
            if j == i:
                continue
            for l in range(d):
                if l == j:
                    continue
                a, b = lifts[big_n, frozenset((i, j))], lifts[big_m, frozenset((j, l))]
                top = top_digits((a * b - b * a).rows, ell, n)
                if top is None:
                    raise CheckFailed(f"AB - BA of lifted generators is not in lambda^{n - 1}")
                vectors.append([x for row in top for x in row])
    # the F_ell-rank from |F_ell^(d^2) / span| = ell^(d^2 - rank), by the
    # Hermite fold modulo ell
    return index_modulo(d * d, vectors, ell) == ell ** (d * d - su_dimension(d, n))
