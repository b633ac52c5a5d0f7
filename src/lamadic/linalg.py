"""Exact linear algebra over Z, Z/p and Q: the one kernel behind the
resultants, the class-number determinants, the F_ell ranks and the orders
of finitely presented abelian groups.

Matrices are lists of rows of Python integers; `solve` also takes
Fractions and returns them.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .ring import DomainError


def det(rows) -> int:
    """Determinant of a square integer matrix by Bareiss' fraction-free
    elimination: every intermediate entry is a minor, so the divisions are
    exact and the entries stay as small as the answer."""
    a = [list(r) for r in rows]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            piv = next((r for r in range(k + 1, n) if a[r][k]), None)
            if piv is None:
                return 0
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        pivot, pivot_row = a[k][k], a[k]
        for row in a[k + 1:]:
            f = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * pivot - f * pivot_row[j]) // prev
            row[k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]


def echelon_mod(rows, p: int):
    """(rank, det) of an integer matrix over F_p from one row-echelon pass;
    det is taken mod p and is 0 unless the matrix is square of full rank."""
    a = [[x % p for x in row] for row in rows]
    ncols = len(a[0]) if a else 0
    rank, det_p = 0, 1
    for col in range(ncols):
        piv = next((r for r in range(rank, len(a)) if a[r][col]), None)
        if piv is None:
            det_p = 0
            continue
        if piv != rank:
            a[rank], a[piv] = a[piv], a[rank]
            det_p = -det_p
        pivot_row = a[rank]
        det_p = det_p * pivot_row[col] % p
        inv = pow(pivot_row[col], -1, p)
        for row in a[rank + 1:]:
            f = row[col] * inv % p
            if f:
                for j in range(col, ncols):
                    row[j] = (row[j] - f * pivot_row[j]) % p
        rank += 1
    if rank != len(a):
        det_p = 0
    return rank, det_p % p


def lattice_index(g: int, columns) -> int:
    """|Z^g / span(columns)| for integer columns of length g; DomainError
    when the span has rank < g, so that the quotient is infinite.

    With M the g x k matrix of the columns and M_g its first g columns, take
    D = |det M_g| when it is nonzero, and D = det(M M^T) otherwise; the
    latter is nonzero exactly when the rank is g.  D Z^g lies in the span,
    because M_g adj(M_g) = D I, resp. M M^T adj(M M^T) = D I.  The quotient
    is therefore that of (Z/D)^g, and Hermite elimination modulo D
    (Cohen, A Course in Computational Algebraic Number Theory, 2.4.2)
    triangularizes the span one coordinate at a time: the pivot of
    coordinate i is the gcd of D and the coordinate-i entries (D e_i lies
    in the span), and the index is the product of the pivots.  For g
    columns with D != 0 the index is D itself, and nothing is folded.
    """
    big_d = abs(det(list(zip(*columns[:g])))) if len(columns) >= g else 0
    if big_d and len(columns) == g:
        return big_d
    if big_d == 0:
        big_d = det([[sum(c[i] * c[j] for c in columns) for j in range(g)] for i in range(g)])
    if big_d == 0:
        raise DomainError("infinite quotient")
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

    Fraction-free Gauss-Jordan elimination (Bareiss, Math. Comp. 22, 1968)
    on [A | B] with each row scaled to integers by the lcm of its
    denominators: every row but the pivot row becomes
    (pivot * row - row[col] * pivot row) / previous pivot, an exact
    division.  At the end the left part is the last pivot times I, so X is
    the right part over that pivot; Fractions are built only there."""
    ncols = len(rows[0])
    aug = []
    for lhs, rhs in zip(rows, zip(*rhs_columns)):
        row = [*lhs, *rhs]
        den = lcm(*(x.denominator for x in row))
        aug.append([x.numerator * (den // x.denominator) for x in row])
    prev = 1
    for col in range(ncols):
        piv = next((r for r in range(col, len(aug)) if aug[r][col]), None)
        if piv is None:
            raise DomainError("columns are dependent")
        aug[col], aug[piv] = aug[piv], aug[col]
        pivot_row = aug[col]
        pivot = pivot_row[col]
        for r, row in enumerate(aug):
            if r != col:
                f = row[col]
                aug[r] = [(pivot * x - f * y) // prev for x, y in zip(row, pivot_row)]
        prev = pivot
    if any(any(row[ncols:]) for row in aug[ncols:]):
        raise DomainError("inconsistent system")
    return [[Fraction(x, prev) for x in col] for col in zip(*(row[ncols:] for row in aug[:ncols]))]
