"""Exact linear algebra over Z, Z/D and Q: the kernel behind the
resultants, the class-number determinants, the local inverses' seeds, the
F_ell ranks and the orders of finitely presented abelian groups.

Matrices are lists of rows of Python integers.  Over Z and Q there is one
elimination, `_bareiss`: `det` runs it forward, `solve` runs it
Gauss-Jordan, and rational rows reach it through `clear_denominators`.
Over Z/D there is the Hermite fold of `index_modulo`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod

from .ring import DomainError


def _bareiss(a, ncols: int, jordan: bool):
    """Fraction-free elimination (Bareiss, Math. Comp. 22, 1968), in place,
    on the first ncols columns of the integer rows `a`: a row r becomes
    (pivot * r - r[col] * pivot row) / previous pivot, an exact division.
    Rows below the pivot are cleared, with `jordan` the rows above it too;
    only the columns right of the pivot column change, and a row is skipped
    when its entry is 0 and the pivot equals the previous one.  Returns
    (last pivot, sign of the row swaps), or None when a column has no pivot."""
    n = len(a)
    sign, prev = 1, 1
    for col in range(ncols):
        if col == n or not a[col][col]:  # col == n: fewer rows than columns
            piv = next((r for r in range(col + 1, n) if a[r][col]), None)
            if piv is None:
                return None
            a[col], a[piv] = a[piv], a[col]
            sign = -sign
        pivot_row = a[col]
        pivot = pivot_row[col]
        width = len(pivot_row)
        for r in range(0 if jordan else col + 1, n):
            row = a[r]
            f = row[col]
            if r != col and (f or pivot != prev):
                for j in range(col + 1, width):
                    row[j] = (pivot * row[j] - f * pivot_row[j]) // prev
        prev = pivot
    return prev, sign


def det(rows) -> int:
    """Determinant of a square integer matrix: the last pivot of forward
    `_bareiss`, signed by the row swaps."""
    a = [list(r) for r in rows]
    pivot, sign = _bareiss(a, len(a), jordan=False) or (0, 1)
    return sign * pivot


def clear_denominators(rows):
    """(integer rows, scale): each row of rationals times the lcm of its
    denominators, and the product of those lcms."""
    dens = [lcm(*(x.denominator for x in row)) for row in rows]
    return [[x.numerator * (d // x.denominator) for x in row]
            for row, d in zip(rows, dens)], prod(dens)


def lattice_index(g: int, columns) -> int:
    """|Z^g / span(columns)| for integer columns of length g; DomainError
    when the span has rank < g, so that the quotient is infinite.

    With M the g x k matrix of the columns and M_g its first g columns, take
    D = |det M_g| when it is nonzero, and D = det(M M^T) otherwise; the
    latter is nonzero exactly when the rank is g.  D Z^g lies in the span,
    because M_g adj(M_g) = D I, resp. M M^T adj(M M^T) = D I, so the index
    is `index_modulo(g, columns, D)`, or D itself for g columns with D != 0.
    """
    big_d = abs(det(list(zip(*columns[:g])))) if len(columns) >= g else 0
    if big_d and len(columns) == g:
        return big_d
    big_d = big_d or det([[sum(c[i] * c[j] for c in columns) for j in range(g)] for i in range(g)])
    if big_d == 0:
        raise DomainError("infinite quotient")
    return index_modulo(g, columns, big_d)


def index_modulo(g: int, columns, big_d: int) -> int:
    """|Z^g / span(columns)| for a positive D with D Z^g inside the span;
    for any positive D, |Z^g / (span + D Z^g)|, so at a prime D = p the
    rank r of the columns over F_p is read from the value p^(g - r).

    The quotient is then that of (Z/D)^g, and Hermite elimination modulo D
    (Cohen, A Course in Computational Algebraic Number Theory, 2.4.2)
    triangularizes the span one coordinate at a time: the pivot of
    coordinate i is the gcd of D and the coordinate-i entries (D e_i lies
    in the span), and the index is the product of the pivots.
    """
    vectors = [[x % big_d for x in c] for c in columns]
    index = 1
    for i in range(g):
        # the vectors hold coordinates i, ..., g - 1 only, since the earlier
        # ones are zero.  The pivot starts as D e_i; each column folds into
        # it by one step (pivot, v) -> (s pivot + t v, (a/h) v - (b/h) pivot)
        # of determinant 1, with a, b their coordinate i and
        # h = gcd(a, b) = s a + t b, which leaves the column with a zero there
        pivot = [big_d] + [0] * (g - i - 1)
        rest = []
        for v in vectors:
            if v[0]:
                a, b = pivot[0], v[0]
                h = gcd(a, b)
                t = pow(b // h, -1, a // h)
                s, a, b = (h - t * b) // a, a // h, b // h
                pivot, v = ([(s * x + t * y) % big_d for x, y in zip(pivot, v)],
                            [(a * y - b * x) % big_d for x, y in zip(pivot, v)])
            if any(v):
                rest.append(v[1:])
        index *= pivot[0]
        vectors = rest
    return index


def solve(rows, rhs_columns):
    """The unique rational X with rows * X = B, B given by its columns, for
    a consistent system whose columns are independent (more equations than
    unknowns allowed); DomainError otherwise.  Returns the columns of X.

    Gauss-Jordan `_bareiss` on [A | B] with its rows cleared of
    denominators: the left part ends as the last pivot times I, so X is the
    right part over that pivot; Fractions are built only there."""
    ncols = len(rows[0])
    aug, _ = clear_denominators([[*lhs, *rhs] for lhs, rhs in zip(rows, zip(*rhs_columns))])
    pivot, _ = _bareiss(aug, ncols, jordan=True) or (0, 0)
    if not pivot:
        raise DomainError("columns are dependent")
    if any(any(row[ncols:]) for row in aug[ncols:]):
        raise DomainError("inconsistent system")
    return [[Fraction(x, pivot) for x in col] for col in zip(*(row[ncols:] for row in aug[:ncols]))]
