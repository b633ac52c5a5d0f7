"""Integer polynomials and the degree pipeline: parsing, exact
discriminants, the search for a prime of discriminant-valuation one, a
sampling-based symmetric-Galois-group certificate, and the assembled
degree report for the torsion field of the associated Jacobian.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from math import factorial, gcd, isqrt

from .linalg import det
from .ring import CheckFailed, DomainError, is_prime
from .matrices import filtration_order_exponent, legendre
from .classnum import kappa_and_t
from .lattices import u_reduction_order


class PolySyntaxError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class HypothesisError(RuntimeError):
    """A required hypothesis could not be verified."""


# ---------------------------------------------------------------------------
# Polynomials with exact integer coefficients.


@dataclass(frozen=True)
class IntPoly:
    """Coefficients constant-term first."""

    coeffs: tuple

    def __post_init__(self):
        if not self.coeffs or (len(self.coeffs) > 1 and self.coeffs[-1] == 0):
            raise ValueError("coefficient list must be normalized")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_monic(self) -> bool:
        return self.coeffs[-1] == 1

    def derivative(self) -> "IntPoly":
        if self.degree == 0:
            return IntPoly((0,))
        return IntPoly(tuple(i * c for i, c in enumerate(self.coeffs) if i)[0:] or (0,))

    def __call__(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __str__(self) -> str:
        bits = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if not c:
                continue
            term = (
                f"{abs(c)}" if i == 0
                else ("x" if abs(c) == 1 else f"{abs(c)}*x") + (f"^{i}" if i > 1 else "")
            )
            bits.append(("- " if c < 0 else ("+ " if bits else "")) + term)
        return " ".join(bits) if bits else "0"


def parse_poly(text: str) -> IntPoly:
    """Parse a sum of integer/x^k terms; raises PolySyntaxError with the
    offending position."""
    s = text
    coeffs = {}
    i = 0
    n = len(s)

    def skip_ws(i):
        while i < n and s[i].isspace():
            i += 1
        return i

    i = skip_ws(i)
    if i == n:
        raise PolySyntaxError("empty polynomial", i)
    first = True
    while i < n:
        sign = 1
        i = skip_ws(i)
        if i < n and s[i] in "+-":
            sign = -1 if s[i] == "-" else 1
            i = skip_ws(i + 1)
        elif not first:
            raise PolySyntaxError("expected '+' or '-'", i)
        first = False
        coef = None
        if i < n and s[i].isdigit():
            j = i
            while j < n and s[j].isdigit():
                j += 1
            coef = int(s[i:j])
            i = skip_ws(j)
            if i < n and s[i] == "*":
                i = skip_ws(i + 1)
                if i >= n or s[i] != "x":
                    raise PolySyntaxError("expected 'x' after '*'", i)
        if i < n and s[i] == "x":
            i = skip_ws(i + 1)
            power = 1
            if i < n and s[i] == "^":
                i = skip_ws(i + 1)
                if i >= n or not s[i].isdigit():
                    raise PolySyntaxError("expected positive integer exponent", i)
                j = i
                while j < n and s[j].isdigit():
                    j += 1
                power = int(s[i:j])
                if power <= 0:
                    raise PolySyntaxError("exponent must be positive", i)
                i = skip_ws(j)
            coeffs[power] = coeffs.get(power, 0) + sign * (1 if coef is None else coef)
        elif coef is not None:
            coeffs[0] = coeffs.get(0, 0) + sign * coef
        else:
            raise PolySyntaxError("expected a term", i)
    deg = max((e for e, c in coeffs.items() if c), default=0)
    return IntPoly(tuple(coeffs.get(e, 0) for e in range(deg + 1)))


# ---------------------------------------------------------------------------
# Exact discriminant via the Sylvester resultant.


def resultant(f: IntPoly, g: IntPoly) -> int:
    m, k = f.degree, g.degree
    if m == 0:
        return f.coeffs[0] ** k
    if k == 0:
        return g.coeffs[0] ** m
    size = m + k
    rows = []
    fc = list(reversed(f.coeffs))
    gc = list(reversed(g.coeffs))
    for i in range(k):
        rows.append([0] * i + fc + [0] * (size - m - 1 - i))
    for i in range(m):
        rows.append([0] * i + gc + [0] * (size - k - 1 - i))
    return det(rows)


def discriminant(f: IntPoly) -> int:
    """disc = (-1)^(r(r-1)/2) Res(f, f') / lc(f)."""
    r = f.degree
    if r < 2:
        raise DomainError("discriminant needs degree >= 2")
    res = resultant(f, f.derivative())
    sign = -1 if (r * (r - 1) // 2) % 2 else 1
    val = sign * res
    if val % f.coeffs[-1]:
        raise CheckFailed("the leading coefficient must divide Res(f, f')")
    return val // f.coeffs[-1]


def trinomial_discriminant(n: int, a: int, b: int) -> int:
    """Closed form for x^n + a x + b, an independent oracle."""
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return sign * (n**n * b ** (n - 1) + (-1) ** (n - 1) * (n - 1) ** (n - 1) * a**n)


# ---------------------------------------------------------------------------
# Factorization and the simple-prime search.


def _pollard_brent(n: int, rng: random.Random, budget: int):
    """Brent-cycle Pollard rho; returns a nontrivial factor or None."""
    if n % 2 == 0:
        return 2
    for _ in range(20):
        y, c, m = rng.randrange(1, n), rng.randrange(1, n), 128
        g, r, q = 1, 1, 1
        steps = 0
        while g == 1 and steps < budget:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += m
                steps += min(m, r - k + m)
            r *= 2
        if g == n:
            g = 1
            while g == 1 and steps < budget:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
                steps += 1
        if 1 < g < n:
            return g
    return None


def factorize(n: int, budget: int = 200000, seed: int = 0):
    """(factor dict, leftover composite or 1).  Trial division to 10^5,
    then budgeted rho, with primality from ring.is_prime (exact below
    3.3e24, Baillie-PSW above)."""
    if n == 0:
        raise DomainError("cannot factor zero")
    n = abs(n)
    rng = random.Random(seed)
    factors = {}
    for p in range(2, 100000):
        if p * p > n:
            break
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    leftover = 1
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            factors[m] = factors.get(m, 0) + 1
            continue
        d = _pollard_brent(m, rng, budget)
        if d is None:
            leftover *= m
        else:
            stack.extend([d, m // d])
    return factors, leftover


def find_simple_prime(disc: int, exclude_ell: int, budget: int = 200000):
    """A prime p not in {2, exclude_ell} with ord_p(disc) = 1; returns
    (prime or None, proven) where proven reports a complete factorization."""
    if disc == 0:
        raise DomainError("discriminant is zero: polynomial inseparable")
    return _choose_simple_prime(disc, *factorize(disc, budget), exclude_ell)


def _choose_simple_prime(disc: int, factors: dict, leftover: int, exclude_ell: int):
    """find_simple_prime on a factorization of disc already at hand."""
    candidates = [
        p for p, e in factors.items() if e == 1 and p not in (2, exclude_ell)
    ]
    proven = leftover == 1
    if candidates:
        p = max(candidates)
        if disc % p or (disc // p) % p == 0:
            raise CheckFailed(f"{p} must divide the discriminant exactly once")
        return p, proven
    return None, proven


# ---------------------------------------------------------------------------
# Cycle types modulo p and the symmetric-group certificate.


def _polmod(coeffs, p):
    c = [x % p for x in coeffs]
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    return c


def _polmul(a, b, f, p):
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    return _polrem(prod, f, p)


def _polrem(a, f, p):
    a = [x % p for x in a]
    df = len(f) - 1
    inv = pow(f[-1], -1, p)
    for i in range(len(a) - 1, df - 1, -1):
        c = a[i] * inv % p
        if c:
            for j in range(df + 1):
                a[i - df + j] = (a[i - df + j] - c * f[j]) % p
    return _polmod(a[:df] or [0], p)


def _polgcd(a, b, p):
    a, b = _polmod(a, p), _polmod(b, p)
    while b != [0]:
        inv = pow(b[-1], -1, p)
        r = _polrem([x * inv % p for x in a], [x * inv % p for x in b], p)
        a, b = b, r
    return a


def _polpow(base, e, f, p):
    """base^e mod (f, p) by square and multiply."""
    result = [1]
    while e:
        if e & 1:
            result = _polmul(result, base, f, p)
        base = _polmul(base, base, f, p)
        e >>= 1
    return result


def cycle_type_mod_p(f: IntPoly, p: int):
    """Degrees of the irreducible factors of f mod p (with multiplicity
    by degree count), or None when f mod p is not squarefree."""
    fc = _polmod(list(f.coeffs), p)
    if len(fc) - 1 != f.degree:
        return None
    fp = _polmod([i * c % p for i, c in enumerate(fc)][1:] or [0], p)
    if len(_polgcd(fc, fp, p)) > 1:
        return None
    r = f.degree
    remaining = fc[:]
    xq = [0, 1]
    out = []
    d = 0
    # every factor left has degree > d, so a rest of degree < 2(d + 1) is irreducible
    while len(remaining) - 1 >= 2 * (d + 1):
        d += 1
        # Frobenius: x^(p^d) = (x^(p^(d-1)))^p, reduced mod the remaining product
        xq = _polpow(_polrem(xq, remaining, p), p, remaining, p)
        # x^(p^d) - x against the remaining product
        diff = xq[:]
        while len(diff) < 2:
            diff.append(0)
        diff[1] = (diff[1] - 1) % p
        g = _polgcd(remaining, diff, p)
        dg = len(g) - 1
        if dg:
            out.extend([d] * (dg // d))
            ginv = pow(g[-1], -1, p)
            g = [x * ginv % p for x in g]
            remaining = _poldiv_exact(remaining, g, p)
    if len(remaining) > 1:
        out.append(len(remaining) - 1)
    out.sort()
    if sum(out) != r:
        raise CheckFailed(f"factor degrees {out} do not add up to {r}")
    return out


def _poldiv_exact(a, b, p):
    a = a[:]
    db = len(b) - 1
    q = [0] * (len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i] % p
        if c:
            q[i - db] = c
            for j in range(db + 1):
                a[i - db + j] = (a[i - db + j] - c * b[j]) % p
    return _polmod(q, p)


@dataclass(frozen=True)
class GaloisVerdict:
    status: str  # "symmetric" | "inconclusive" | "reducible"
    witnesses: dict

    def certified(self) -> bool:
        return self.status == "symmetric"


def galois_certificate(f: IntPoly, budget: int = 500) -> GaloisVerdict:
    """Certify that the Galois group is the full symmetric group by
    sampling factorization cycle types modulo primes.

    Sufficient evidence: an irreducible reduction (transitivity), a cycle
    type whose even parts are exactly one 2 (a power is a transposition),
    and a q-cycle fixing the rest for a prime q with r/2 < q < r
    (a prime cycle longer than half the degree forces primitivity).
    A primitive group containing a transposition is the full symmetric
    group, so the three witnesses together are conclusive.
    """
    r = f.degree
    disc = discriminant(f)
    if disc == 0:
        raise DomainError("polynomial is not squarefree")
    from sympy import Poly, symbols, factor_list

    x = symbols("x")
    _, parts = factor_list(Poly(list(reversed(f.coeffs)), x).as_expr())
    if sum(m for _, m in parts) > 1 or any(m > 1 for _, m in parts):
        return GaloisVerdict("reducible", {})
    witnesses = {"irreducible": None, "transposition": None, "prime_cycle": None}
    p = 2
    sampled = 0
    while sampled < budget and not all(v is not None for v in witnesses.values()):
        p = _next_prime(p)
        if disc % p == 0:
            continue
        sampled += 1
        ct = cycle_type_mod_p(f, p)
        if ct is None:
            continue
        if witnesses["irreducible"] is None and ct == [r]:
            witnesses["irreducible"] = {"p": p, "cycle_type": ct}
        evens = [c for c in ct if c % 2 == 0]
        if witnesses["transposition"] is None and evens == [2]:
            witnesses["transposition"] = {"p": p, "cycle_type": ct}
        if witnesses["prime_cycle"] is None:
            longs = [c for c in ct if c > 1]
            if len(longs) == 1 and is_prime(longs[0]) and r / 2 < longs[0] < r:
                witnesses["prime_cycle"] = {"p": p, "cycle_type": ct}
    if all(v is not None for v in witnesses.values()):
        return GaloisVerdict("symmetric", witnesses)
    return GaloisVerdict("inconclusive", witnesses)


def _next_prime(p: int) -> int:
    q = p + 1
    while not is_prime(q):
        q += 1
    return q


# ---------------------------------------------------------------------------
# The assembled degree report.


REFERENCE_DEGREES = {
    # externally reported comparison values for specific inputs, factored form
    (11, (1, 1, 0, 0, 0, 0, 0, 0, 1)): {"coeff": factorial(8), "ell_exponent": 260},
}


@dataclass(frozen=True)
class CurveReport:
    ell: int
    poly: IntPoly
    epsilon: int
    disc: int
    disc_factors: dict
    disc_leftover: int
    simple_prime: int | None
    simple_prime_proven: bool
    galois: GaloisVerdict
    degree_coeff: int
    degree_ell_exponent: int
    components: dict
    reference: dict | None
    discrepancy: dict | None

    def to_json_dict(self) -> dict:
        return {
            "ell": self.ell,
            "poly": str(self.poly),
            "coefficients": list(self.poly.coeffs),
            "epsilon": self.epsilon,
            "disc": self.disc,
            "disc_factors": sorted([p, e] for p, e in self.disc_factors.items()),
            "disc_leftover": self.disc_leftover,
            "simple_prime": self.simple_prime,
            "simple_prime_proven": self.simple_prime_proven,
            "galois": {"status": self.galois.status, "witnesses": self.galois.witnesses},
            "degree": {
                "coeff": self.degree_coeff,
                "ell_exponent": self.degree_ell_exponent,
            },
            "components": self.components,
            "reference": self.reference,
            "discrepancy": self.discrepancy,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


def check_ell(ell: int, degree: int):
    """ell must be an odd prime that does not divide the degree."""
    if not is_prime(ell) or ell < 3:
        raise DomainError("ell must be an odd prime")
    if degree % ell == 0:
        raise DomainError("ell must not divide the degree")


def division_degree_report(
    ell: int,
    f: IntPoly,
    budget: int = 200000,
    galois_budget: int = 500,
    override_hypotheses: bool = False,
) -> CurveReport:
    """Assemble the degree of the ell-torsion field as
    (r!/2) * ell^E * (unit-group reduction order), in factored form.

    E is the order exponent of the level-one congruence subgroup at
    precision ell - 1; the unit factor is the order of the reduction of
    the unit group mod lambda^(ell-1) (lattices.u_reduction_order).  A
    reference value, when known for the input, is embedded together with
    a structured discrepancy record.
    """
    r = f.degree
    check_ell(ell, r)
    if not f.is_monic:
        raise DomainError("polynomial must be monic")
    if r < 4:
        raise HypothesisError("need degree >= 4")
    disc = discriminant(f)
    if disc == 0:
        raise HypothesisError("polynomial is not separable")
    eps = legendre(r, ell)
    factors, leftover = factorize(disc, budget)
    simple_p, proven = _choose_simple_prime(disc, factors, leftover, ell)
    galois = galois_certificate(f, galois_budget)
    if not override_hypotheses:
        if galois.status != "symmetric":
            raise HypothesisError(
                f"Galois group not certified symmetric: {galois.status}"
            )
        if simple_p is None:
            raise HypothesisError(
                "no prime of discriminant-valuation one found"
                + (" (proven absent)" if proven else " (budget exhausted)")
            )
        kappa, t = kappa_and_t(ell, r)
        if kappa != 0 or t != 0:
            raise HypothesisError(
                f"unit-index bound not tight: kappa_bound={kappa}, t={t}"
            )
    e_exp = filtration_order_exponent(ell, r - 1, ell - 1, 1)
    u_total, u_parts = u_reduction_order(ell, r, ell - 1)
    coeff = factorial(r) // 2
    ell_exp = e_exp
    rest = u_total
    while rest % ell == 0:
        rest //= ell
        ell_exp += 1
    coeff *= rest
    components = {
        "galois_intersection_order": factorial(r) // 2,
        "su_exponent": e_exp,
        "unit_reduction_order": {"total_parts": u_parts, "value_coeff": rest,
                                 "value_ell_exponent": ell_exp - e_exp},
    }
    key = (ell, tuple(f.coeffs))
    reference = REFERENCE_DEGREES.get(key)
    discrepancy = None
    if reference is not None:
        discrepancy = {
            "coeff_matches": coeff == reference["coeff"],
            "ell_exponent_difference": ell_exp - reference["ell_exponent"],
            "note": (
                "the reference final value is not reproducible from the "
                "finite-level unit-group reduction; intermediate factors agree"
            ),
        }
    return CurveReport(
        ell=ell,
        poly=f,
        epsilon=eps,
        disc=disc,
        disc_factors=factors,
        disc_leftover=leftover,
        simple_prime=simple_p,
        simple_prime_proven=proven,
        galois=galois,
        degree_coeff=coeff,
        degree_ell_exponent=ell_exp,
        components=components,
        reference=reference,
        discrepancy=discrepancy,
    )
