"""Exact arithmetic of the class-number invariants: the weights n(j) and
2n'(j), the half-system determinant matrix [n'(i j^{-1})], the constant
c_{l,r} attached to the multiplicative order of r, the relative class
number h_l^- as a resultant (the Maillet determinant), and the exponents
(kappa bound, t).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import linalg
from .ring import CheckFailed, DomainError, check_odd_prime, is_prime


def _check_r(ell: int, r: int):
    check_odd_prime(ell)
    if r % ell == 0:
        raise DomainError(f"ell = {ell} must not divide r = {r}")
    if r < 2:
        raise DomainError("need r >= 2")


def n_of(ell: int, r: int, j: int) -> int:
    """The weight n(j) = floor(r*(ell - j)/ell) for j in 1..ell-1."""
    _check_r(ell, r)
    if not 1 <= j % ell <= ell - 1:
        raise DomainError("j must be a unit mod ell")
    j %= ell
    return (r * (ell - j)) // ell


def twice_n_prime(ell: int, r: int) -> dict:
    """{j: 2 n'(j) = 2 n(j) - (r - 1)} for the units j = 1..ell-1, integers
    for every r; ell and r are checked once for the whole table."""
    _check_r(ell, r)
    return {j: 2 * ((r * (ell - j)) // ell) - (r - 1) for j in range(1, ell)}


def c_lr(ell: int, r: int):
    """(r_ell, c) with r_ell the multiplicative order of r mod ell and
    c = (r^r_ell - 1)^((ell-1)/(2 r_ell)) for odd r_ell,
    c = (r^(r_ell/2) + 1)^((ell-1)/r_ell) for even r_ell."""
    _check_r(ell, r)
    r_ell = 1
    acc = r % ell
    while acc != 1:
        acc = acc * r % ell
        r_ell += 1
    if r_ell % 2 == 1:
        c = (r**r_ell - 1) ** ((ell - 1) // (2 * r_ell))
    else:
        c = (r ** (r_ell // 2) + 1) ** ((ell - 1) // r_ell)
    return r_ell, c


# ---------------------------------------------------------------------------
# The relative class number as a resultant, and exact rational determinants.

# Largest ell accepted by h_minus; h^-(211) takes about 0.5 s and the cost
# grows like ell^4 (a Bareiss determinant of size (ell-1)/2).
H_MINUS_MAX_ELL = 211


def _primitive_root(ell: int) -> int:
    m = ell - 1
    prime_divisors = [q for q in range(2, m + 1) if m % q == 0 and is_prime(q)]
    return next(g for g in range(2, ell)
                if all(pow(g, m // q, ell) != 1 for q in prime_divisors))


@lru_cache(maxsize=None)
def h_minus(ell: int) -> int:
    """h^- = 2 ell (-1/(2 ell))^h Res(x^h + 1, G) with h = (ell-1)/2,
    G = sum_{e<h} (2 (g^e mod ell) - ell) x^e and g a primitive root
    (the Maillet determinant; Washington, Cyclotomic Fields, Thm 4.17).

    The product over the odd characters of -B_{1,chi}/2 is the product of
    G over the roots of x^h + 1, so the resultant is the determinant of
    the negacyclic matrix of G, the matrix of multiplication by G in
    Z[x]/(x^h + 1)."""
    check_odd_prime(ell)
    if ell > H_MINUS_MAX_ELL:
        raise DomainError(f"ell = {ell} exceeds the limit {H_MINUS_MAX_ELL} for h^-")
    h = (ell - 1) // 2
    g = _primitive_root(ell)
    coeffs, acc = [], 1
    for _ in range(h):
        coeffs.append(2 * acc - ell)
        acc = acc * g % ell
    negacyclic = [
        [coeffs[j - i] if j >= i else -coeffs[h + j - i] for j in range(h)]
        for i in range(h)
    ]
    num = 2 * ell * (-1) ** h * linalg.det(negacyclic)
    den = (2 * ell) ** h
    if num % den or num <= 0:
        raise CheckFailed(f"h^- = {Fraction(num, den)} is not a positive integer")
    return num // den


def fraction_det(rows) -> Fraction:
    """Exact determinant over Q: the integer determinant of the rows cleared
    of denominators, as `linalg.solve` clears them, over the scale."""
    rows, scale = linalg.clear_denominators(rows)
    return Fraction(linalg.det(rows), scale)


def ord_p(x, p: int) -> int:
    """p-adic valuation of a nonzero rational."""
    x = Fraction(x)
    if x == 0:
        raise DomainError("ord of zero")
    v = 0
    num, den = x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


@dataclass(frozen=True)
class DemjanenkoReport:
    ell: int
    r: int
    reps: tuple
    matrix: tuple  # rows of Fractions
    det: Fraction
    r_ell: int
    c_lr: int
    h_minus: int
    kappa_bound: int
    t: int
    sign: int

    def to_json_dict(self) -> dict:
        return {
            "ell": self.ell,
            "r": self.r,
            "reps": list(self.reps),
            "matrix": [[str(x) for x in row] for row in self.matrix],
            "det": str(self.det),
            "r_ell": self.r_ell,
            "c_lr": self.c_lr,
            "h_minus": self.h_minus,
            "kappa_bound": self.kappa_bound,
            "t": self.t,
            "sign": self.sign,
        }


def _twice_half_system(ell: int, r: int, reps):
    """(reps, [2 n'(i * j^(-1) mod ell)]): the half-system matrix doubled to
    integers."""
    weights = twice_n_prime(ell, r)
    if reps is None:
        reps = tuple(range(1, (ell - 1) // 2 + 1))
    reps = tuple(reps)
    if len(reps) != (ell - 1) // 2 or len(
        {x % ell for x in reps} | {(-x) % ell for x in reps}
    ) != ell - 1:
        raise DomainError("reps must represent the units modulo +-1")
    inverses = [pow(j, -1, ell) for j in reps]
    return reps, [[weights[i * jinv % ell] for jinv in inverses] for i in reps]


def demjanenko_det(ell: int, r: int, reps=None) -> DemjanenkoReport:
    """The half-system determinant with the class-number identity checked:
    |det| = h^- * c_{l,r} / (2 ell).  The sign is recorded, not checked.

    det is the Bareiss determinant of the integer matrix [2 n'] divided by
    2^g, and t is ord_ell of that integer."""
    h = h_minus(ell)  # first: it refuses an ell past H_MINUS_MAX_ELL
    reps, twice = _twice_half_system(ell, r, reps)
    g = len(reps)
    twice_det = linalg.det(twice)
    det = Fraction(twice_det, 2**g)
    r_ell, c = c_lr(ell, r)
    expected = Fraction(h * c, 2 * ell)
    if abs(det) != expected:
        raise CheckFailed(f"determinant magnitude {abs(det)} != h^- c / (2 ell) = {expected}")
    t = ord_p(twice_det, ell)
    kappa_bound = ord_p(Fraction(h * c), ell) - 1
    return DemjanenkoReport(
        ell=ell,
        r=r,
        reps=reps,
        matrix=tuple(tuple(Fraction(x, 2) for x in row) for row in twice),
        det=det,
        r_ell=r_ell,
        c_lr=c,
        h_minus=h,
        kappa_bound=kappa_bound,
        t=t,
        sign=1 if det > 0 else -1,
    )


def kappa_and_t(ell: int, r: int):
    """(kappa upper bound, exact exponent t = ord_ell det 2[n'])."""
    rep = demjanenko_det(ell, r)
    return rep.kappa_bound, rep.t
