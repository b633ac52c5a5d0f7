"""Integer polynomials and the degree pipeline: parsing, exact
discriminants, the search for a prime of discriminant-valuation one, a
sampling-based symmetric-Galois-group certificate, and the assembled
degree report for the torsion field of the associated Jacobian.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import combinations, compress, zip_longest
from math import factorial, gcd, isqrt, prod

from .linalg import det
from .ring import (
    CheckFailed,
    DomainError,
    HypothesisError,
    PolySyntaxError,
    check_ell_r,
    check_odd_prime,
    is_prime,
    pack,
)
from .matrices import filtration_order_exponent, legendre
from .classnum import kappa_and_t


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

    @cached_property
    def disc(self) -> int:
        """The discriminant, computed on first use and kept."""
        return discriminant(self)

    def derivative(self) -> "IntPoly":
        if self.degree == 0:
            return IntPoly((0,))
        return IntPoly(tuple(i * c for i, c in enumerate(self.coeffs) if i) or (0,))

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


# The largest exponent parse_poly accepts.  The discriminant's resultant and
# the Galois certificate grow fast with the degree: check-curve at ell = 7
# takes 0.4 s on x^24 + x + 1, 1.1 s at x^40, 1.2 s at x^48 (4.5 s on
# x^48 + 97 x^47 - 1000 x^20 + 5 x + 999, almost all of it Pollard rho on
# the discriminant) and 1.9 s at x^64, and
# `check-curve --ell 7 --poly "x^64 + x^3 + 5 x + 1"` takes 3.1 s (wall time,
# median of 3 processes, 2-core Intel Xeon, Python 3.11.7).
MAX_DEGREE = 48


def parse_poly(text: str) -> IntPoly:
    """Parse a sum of integer/x^k terms; raises PolySyntaxError with the
    offending position, and DomainError on an exponent past MAX_DEGREE."""
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
                if power > MAX_DEGREE:
                    raise DomainError(f"exponent {power} exceeds the degree limit {MAX_DEGREE}")
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


# ---------------------------------------------------------------------------
# Factorization and the simple-prime search.


# Trial division and the walk over small primes read one table of the
# primes below this limit.
SMALL_PRIME_LIMIT = 100_000
# The Pollard-rho steps spent on a composite part of a discriminant when the
# caller names no budget.
RHO_BUDGET = 200_000


@cache
def _small_primes():
    """The primes below SMALL_PRIME_LIMIT, in increasing order, sieved on
    first use."""
    sieve = bytearray([1]) * SMALL_PRIME_LIMIT
    sieve[:2] = b"\0\0"
    for i in range(2, isqrt(SMALL_PRIME_LIMIT - 1) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytes(len(range(i * i, SMALL_PRIME_LIMIT, i)))
    return list(compress(range(SMALL_PRIME_LIMIT), sieve))


# Trial division takes one gcd with the product of each block of this many
# consecutive table primes and scans only the blocks that share a factor.
TRIAL_BLOCK = 64


@cache
def _prime_blocks():
    """[(primes, their product)] for consecutive blocks of TRIAL_BLOCK
    table primes, built on first use."""
    table = _small_primes()
    return [(block, prod(block)) for block in
            (table[i:i + TRIAL_BLOCK] for i in range(0, len(table), TRIAL_BLOCK))]


def _next_prime(p: int) -> int:
    """The least prime above p: from the table below SMALL_PRIME_LIMIT, by
    ring.is_prime above it."""
    table = _small_primes()
    if p < table[-1]:
        return table[bisect_right(table, p)]
    q = p + 1
    while not is_prime(q):
        q += 1
    return q


def _pollard_brent(n: int, rng: random.Random, budget: int):
    """Brent-cycle Pollard rho; returns a nontrivial factor or None.  The
    budget bounds the squarings of all restarts together: each round's
    opening squarings count, and the budget is checked before each gcd
    batch of 128, so a budget b takes at most b + 127 squarings."""
    if n % 2 == 0:
        return 2
    steps = 0
    for _ in range(20):
        if steps >= budget:
            break
        y, c, m = rng.randrange(1, n), rng.randrange(1, n), 128
        g, r, q = 1, 1, 1
        while g == 1 and steps < budget:
            x = y
            opening = min(r, budget - steps)
            for _ in range(opening):
                y = (y * y + c) % n
            steps += opening
            k = 0
            while k < r and g == 1 and steps < budget:
                ys = y
                batch = min(m, r - k)
                for _ in range(batch):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += batch
                steps += batch
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


def factorize(n: int, budget: int = RHO_BUDGET):
    """(factor dict, leftover composite or 1).  Trial division by the
    primes below SMALL_PRIME_LIMIT, a block of them at a time (a block
    whose product is prime to n is skipped), stopping at the first prime p
    with p^2 > n; then budgeted rho, with primality from ring.is_prime
    (exact below 3.3e24, Baillie-PSW above).  Rho's walks are seeded by 0,
    so the answer is deterministic."""
    if n == 0:
        raise DomainError("cannot factor zero")
    n = abs(n)
    rng = random.Random(0)
    factors = {}
    for block, block_product in _prime_blocks():
        if block[0] ** 2 > n:
            break
        if gcd(block_product, n) == 1:
            continue
        for p in block:
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


def find_simple_prime(disc: int, exclude_ell: int, budget: int = RHO_BUDGET):
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
# Polynomials mod m (lists, constant term first), cycle types modulo p, and
# factorization over the integers.  m = 0 means exact arithmetic over Z.


def _polmod(coeffs, m):
    c = [x % m for x in coeffs] if m else list(coeffs)
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    return c


def _polmul(a, b, m):
    """a*b mod m for a, b reduced mod m, by Kronecker substitution: each
    slot of the packed product holds a coefficient exactly, and _polmod
    reduces the slots."""
    width = (min(len(a), len(b)) * (m - 1) ** 2).bit_length()
    x = pack(a, width) * pack(b, width)
    mask = (1 << width) - 1
    return _polmod([(x >> s) & mask for s in range(0, (len(a) + len(b) - 1) * width, width)], m)


def _poldivmod(a, b, m):
    """(quotient, remainder) of a by b mod m; over Z (m = 0) b is monic.
    Coefficients are reduced once, at the end."""
    a = list(a)
    db = len(b) - 1
    inv = pow(b[-1], -1, m) if m else 1
    q = [0] * max(len(a) - db, 1)
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i] * inv % m if m else a[i]
        if c:
            q[i - db] = c
            for j in range(db):
                a[i - db + j] -= c * b[j]
    return _polmod(q, m), _polmod(a[:db] or [0], m)


def _polgcd(a, b, p):
    """The monic gcd mod the prime p; a is nonzero.  Each remainder is made
    monic before it divides, so a division step needs no inverse and builds
    no quotient."""
    a, b = _polmod(a, p), _polmod(b, p)
    while b != [0]:
        inv = pow(b[-1], -1, p)
        b = [c * inv % p for c in b]
        db = len(b) - 1
        tail = b[:-1]
        for i in range(len(a) - 1, db - 1, -1):
            c = a[i] % p
            if c:
                for j, x in enumerate(tail, i - db):
                    a[j] -= c * x
        a, b = b, _polmod(a[:db] or [0], p)
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _reduction_table(f, p):
    """(width, rows) for the monic f of degree r mod the prime p: the rows
    x^(r+k) mod f for k < r - 1, each packed at a width that holds
    2r(p-1)^2 + p, so that a packed product of two reduced polynomials
    plus its high slots (each taken mod p) times these rows carries no
    slot into the next."""
    r = len(f) - 1
    width = (2 * r * (p - 1) ** 2 + p).bit_length()
    rows = []
    row = [-c % p for c in f[:-1]]  # x^r mod f
    for _ in range(r - 1):
        rows.append(pack(row, width))
        top = row[-1]
        row = [-top * f[0] % p] + [(a - top * c) % p for a, c in zip(row, f[1:-1])]
    return width, rows


def _polpow(base, e, f, p, table=None):
    """base^e mod (f, p) for the monic f and the prime p, by square and
    multiply on packed polynomials.  Each product is reduced by one packed
    linear combination, its low r slots plus its high slots (mod p) times
    the rows of f's reduction table, and one unpack mod p."""
    if e == 0:
        return [1]
    r = len(f) - 1
    width, rows = table or _reduction_table(f, p)
    mask = (1 << width) - 1
    low = (1 << r * width) - 1
    slots = range(0, r * width, width)

    def reduce(x):
        acc = x & low
        x >>= r * width
        for row in rows:
            acc += (x & mask) % p * row
            x >>= width
        out = 0
        for s in reversed(slots):
            out = (out << width) | ((acc >> s) & mask) % p
        return out

    b = pack(_poldivmod(base, f, p)[1], width)
    x = b
    for bit in bin(e)[3:]:
        x = reduce(x * x)
        if bit == "1":
            x = reduce(x * b)
    # every slot is already reduced mod p: m = 0 only strips the trailing zeros
    return _polmod([(x >> s) & mask for s in slots] or [0], 0)


def _monic_mod(f: IntPoly, p: int):
    """f mod p made monic, or None when f mod p drops degree or is not
    squarefree."""
    fc = _polmod(f.coeffs, p)
    if len(fc) - 1 != f.degree:
        return None
    # with its degree kept, f mod p is squarefree exactly when p does not
    # divide disc f; a polynomial of degree at most 1 is squarefree
    if f.degree > 1 and f.disc % p == 0:
        return None
    inv = pow(fc[-1], -1, p)
    return [c * inv % p for c in fc]


def _degree_walk(rest, p):
    """The distinct-degree factorization of the monic squarefree rest mod
    the prime p, one degree at a time (Cohen, GTM 138, 3.4.3): yields
    (d, product of the degree-d irreducible factors) for d = 1, 2, ..., the
    product [1] when there is none, until what is left has no two factors;
    then (its degree, it) unless it is 1.  A caller that stops early takes
    no further Frobenius step."""
    xq = [0, 1]
    d = 0
    table = None
    # every factor left has degree > d, so a rest of degree < 2(d + 1) is irreducible
    while len(rest) - 1 >= 2 * (d + 1):
        d += 1
        # Frobenius: x^(p^d) = (x^(p^(d-1)))^p, reduced mod the remaining
        # product by its reduction table, built once per remaining product
        table = table or _reduction_table(rest, p)
        xq = _polpow(xq, p, rest, p, table)
        # x^(p^d) - x against the remaining product
        diff = xq + [0] * (2 - len(xq))
        diff[1] -= 1
        g = _polgcd(rest, diff, p)
        if len(g) > 1:
            rest = _poldivmod(rest, g, p)[0]
            table = None
        yield d, g
    if len(rest) > 1:
        yield len(rest) - 1, rest


def _distinct_degree(f: IntPoly, p: int):
    """[(d, product of the degree-d irreducible factors of f mod p)] for
    each degree d that occurs, or None when f mod p drops degree or is not
    squarefree."""
    rest = _monic_mod(f, p)
    if rest is None:
        return None
    return [(d, g) for d, g in _degree_walk(rest, p) if len(g) > 1]


def cycle_type_mod_p(f: IntPoly, p: int, wanted=None):
    """The degrees of the irreducible factors of f mod p in increasing
    order, or None when f mod p drops degree or is not squarefree; given
    wanted, also None once the factors found rule out every wanted
    witness (_read_cycle_type), with no Frobenius step past them."""
    rest = _monic_mod(f, p)
    if rest is None:
        return None
    return _read_cycle_type(f.degree, _degree_walk(rest, p), wanted)


def _read_cycle_type(r: int, blocks, wanted=None):
    """The factor degrees, in increasing order, of a degree-r polynomial
    mod p read from its distinct-degree blocks (d, g) in increasing d, a
    list or _degree_walk's generator.

    Given wanted, a set of galois_certificate's witness kinds, it returns
    None as soon as the factors of degree at most d rule out every one of
    them (_witness_kinds), and reads no block past d: an irreducible
    witness after any factor of degree below r, a transposition once the
    quadratic factors are not exactly one, and a prime cycle once the
    degree r minus the number of roots is not a prime q with r/2 < q < r,
    or a factor of degree >= 2 precedes the last one."""
    found, left = [], r
    for d, g in blocks:
        k = (len(g) - 1) // d
        found += [d] * k
        left -= k * d
        if left and wanted is not None and not wanted & _witness_kinds(r, found, left, d):
            return None
    if left:
        raise CheckFailed(f"factor degrees {found} do not add up to {r}")
    return found


def _witness_kinds(r: int, found, left: int = 0, d: int = 0):
    """The kinds of galois_certificate's witness that the cycle type of a
    degree-r f mod p can supply, when its cycles of length at most d >= 1
    are found and the others, all longer than d, add up to left; left = 0
    reads a complete cycle type.

    - irreducible: one r-cycle.
    - transposition: the even cycles are exactly one 2-cycle, so a power
      of Frobenius is a transposition.  Once d >= 2 every 2-cycle is found.
    - prime_cycle: one cycle longer than 1, of prime length q with
      r/2 < q < r.  The cycles still to find are all longer than 1, so they
      must be that one cycle, of length left.
    """
    cycles = found + [left] if left else found
    longs = [c for c in cycles if c > 1]
    kinds = set()
    if cycles == [r]:
        kinds.add("irreducible")
    if [c for c in found if c % 2 == 0] == [2] or (left and d < 2):
        kinds.add("transposition")
    if len(longs) == 1 and r / 2 < longs[0] < r and is_prime(longs[0]):
        kinds.add("prime_cycle")
    return kinds


def _equal_degree(g, d, p, rng):
    """The irreducible factors of the monic squarefree g mod the odd prime
    p, all of degree d (Cantor-Zassenhaus)."""
    if len(g) - 1 == d:
        return [g]
    while True:
        a = [rng.randrange(p) for _ in range(len(g) - 1)]
        b = _polpow(a, (p**d - 1) // 2, g, p)
        b[0] -= 1
        h = _polgcd(g, b, p)
        if 1 < len(h) < len(g):
            return (_equal_degree(h, d, p, rng)
                    + _equal_degree(_poldivmod(g, h, p)[0], d, p, rng))


def _hensel_lift(f, g, p, k):
    """The monic factor of f mod p^k that reduces to the irreducible factor
    g of f mod p, lifted one power of p at a time (f monic, squarefree mod p)."""
    h = _poldivmod(f, g, p)[0]
    # F_p[x]/(g) is a field of p^deg(g) elements, so this is h^-1 mod g
    t = _polpow(h, p ** (len(g) - 1) - 2, g, p)
    q = p
    for _ in range(k - 1):
        # g is a factor mod q: f = g*quotient + q*e mod q*p
        e = [c // q for c in _poldivmod(f, g, q * p)[1]]
        dg = _poldivmod(_polmul(t, e, p), g, p)[1]
        g = _polmod([a + q * b for a, b in zip_longest(g, dg, fillvalue=0)], q * p)
        q *= p
    return g


# The recombination in rational_factor tries products of subsets of the
# factors mod p, a number exponential in their count.  This bounds the
# subsets examined: 16 factors (the degree-32 Swinnerton-Dyer polynomial)
# need 39,202 of them, and 32 factors about 2.5e9.
MAX_RECOMBINATIONS = 100_000


def rational_factor(f: IntPoly):
    """A proper monic factor of the monic f in Z[x], or None when f is
    irreducible (Zassenhaus; Cohen, A Course in Computational Algebraic
    Number Theory, 3.5).

    The factorization mod the prime with the fewest factors among the
    first five odd primes where f stays squarefree is lifted past twice
    the Mignotte bound 2^r ||f||_2 on the coefficients of a factor, and
    products of at most half the lifted factors are tried by exact
    division; past MAX_RECOMBINATIONS products it raises DomainError.  The
    random splits are seeded by p, so the witness is deterministic."""
    _check_monic_squarefree(f)
    if f.degree < 2:
        return None
    return _zassenhaus(f, _first_blocks(f))


def _check_monic_squarefree(f: IntPoly):
    """DomainError unless f is monic and, from degree 2 on, squarefree
    (disc f != 0): what rational_factor and galois_certificate need."""
    if not f.is_monic:
        raise DomainError("polynomial must be monic")
    if f.degree > 1 and f.disc == 0:
        raise DomainError("polynomial is not squarefree")


def _unramified_primes(f: IntPoly):
    """The odd primes not dividing the discriminant of the monic f, in
    increasing order: those where f mod p stays squarefree."""
    disc, p = f.disc, 2
    while True:
        p = _next_prime(p)
        if disc % p:
            yield p


def _first_blocks(f: IntPoly):
    """[(p, distinct-degree blocks of f mod p)] at the first five of the
    _unramified_primes of the monic f, or up to the first of them where
    f mod p is irreducible: _zassenhaus returns None on any such prime,
    whatever the others hold."""
    choices = []
    for p in _unramified_primes(f):
        blocks = _distinct_degree(f, p)
        choices.append((p, blocks))
        if len(choices) == 5 or blocks[0][0] == f.degree:
            return choices


def _zassenhaus(f: IntPoly, choices):
    """rational_factor's answer for the monic squarefree f, from the
    distinct-degree blocks of _first_blocks(f)."""
    def count(blocks):
        return sum((len(g) - 1) // d for d, g in blocks)

    p, blocks = min(choices, key=lambda c: count(c[1]))
    if count(blocks) == 1:
        return None
    rng = random.Random(p)
    factors = [h for d, g in blocks for h in _equal_degree(g, d, p, rng)]
    bound = 2**f.degree * (isqrt(sum(c * c for c in f.coeffs)) + 1)
    k = 1
    while p**k <= 2 * bound:
        k += 1
    q = p**k

    def symmetric(c):
        return c - q if 2 * c > q else c

    lifted = [_hensel_lift(f.coeffs, g, p, k) for g in factors]
    examined = 0
    for size in range(1, len(lifted) // 2 + 1):
        for subset in combinations(lifted, size):
            examined += 1
            if examined > MAX_RECOMBINATIONS:
                raise DomainError(
                    f"recombining {len(lifted)} factors mod {p} needs more than "
                    f"MAX_RECOMBINATIONS = {MAX_RECOMBINATIONS} products")
            # a factor's constant term divides f(0): a cheap test before the product
            c0 = symmetric(prod(h[0] for h in subset) % q)
            if c0 and f.coeffs[0] % c0:
                continue
            g = [1]
            for h in subset:
                g = _polmul(g, h, q)
            g = [symmetric(c) for c in g]
            if _poldivmod(f.coeffs, g, 0)[1] == [0]:
                return IntPoly(tuple(g))
    return None


@dataclass(frozen=True)
class GaloisVerdict:
    status: str  # "symmetric" | "inconclusive" | "reducible"
    witnesses: dict


def galois_certificate(f: IntPoly, budget: int = 500) -> GaloisVerdict:
    """Certify that the Galois group is the full symmetric group by
    sampling factorization cycle types modulo primes.

    Sufficient evidence: an irreducible reduction (transitivity), a cycle
    type whose even parts are exactly one 2 (a power is a transposition),
    and a q-cycle fixing the rest for a prime q with r/2 < q < r
    (a prime cycle longer than half the degree forces primitivity).
    A primitive group containing a transposition is the full symmetric
    group, so the three witnesses together are conclusive.  At r = 2 no
    prime q fits, and the first two suffice: a transitive group of degree 2
    is S_2.  A reducible f (monic, as rational_factor requires) has a
    proper factor as witness.

    The _unramified_primes are sampled in increasing order, budget of them
    at most.  The first ones are those whose distinct-degree blocks
    rational_factor's search examines, so their cycle types are read from
    those blocks.  Each later prime is factored
    only as far as a witness still missing needs it:
    - By Stickelberger (Swan, Pacific J. Math. 12, 1962) the sign of
      Frobenius, (-1)^(r - number of factors mod p), is (disc/p).  An
      r-cycle has sign (-1)^(r-1), a transposition witness is odd, and a
      q-cycle fixing the rest is even (odd for q = 2, at r = 3).  A prime
      whose sign rules out every missing witness is not factored at all.
    - Otherwise cycle_type_mod_p stops its distinct-degree walk as soon as
      the factors found rule out every missing witness.
    A prime skipped either way still counts against the budget, so the
    witnesses are those of a walk that factors every sampled prime.
    """
    _check_monic_squarefree(f)
    r, disc = f.degree, f.disc
    first = _first_blocks(f)
    factor = _zassenhaus(f, first)
    if factor is not None:
        return GaloisVerdict("reducible", {"factor": list(factor.coeffs)})
    first_blocks = dict(first)
    # the signs (disc/p) that each witness kind's cycle types have; a prime
    # q with r/2 < q < r is odd once r >= 4, 2 at r = 3, and absent at r = 2,
    # where no cycle type supplies a prime_cycle and none is required
    signs = {"irreducible": {(-1) ** (r - 1)}, "transposition": {-1},
             "prime_cycle": {1} if r > 3 else {-1} if r == 3 else set()}
    witnesses = {kind: None for kind, kind_signs in signs.items() if kind_signs}
    primes = _unramified_primes(f)
    for _ in range(budget):
        missing = {kind for kind, w in witnesses.items() if w is None}
        if not missing:
            break
        p = next(primes)
        if p in first_blocks:
            ct = _read_cycle_type(r, first_blocks[p])
        elif any(legendre(disc, p) in signs[kind] for kind in missing):
            ct = cycle_type_mod_p(f, p, missing)
        else:
            continue
        if ct is not None:
            for kind in missing & _witness_kinds(r, ct):
                witnesses[kind] = {"p": p, "cycle_type": ct}
    if all(v is not None for v in witnesses.values()):
        return GaloisVerdict("symmetric", witnesses)
    return GaloisVerdict("inconclusive", witnesses)


# ---------------------------------------------------------------------------
# The assembled degree report.


REFERENCE_DEGREES = {
    # externally reported comparison values for specific inputs, factored form
    (11, (1, 1, 0, 0, 0, 0, 0, 0, 1)): {"coeff": factorial(8), "ell_exponent": 260},
}


@dataclass(frozen=True)
class CurveHypotheses:
    """The main theorem's hypotheses on f as checked, with their evidence."""

    disc: int
    disc_factors: dict
    disc_leftover: int
    simple_prime: int | None
    simple_prime_proven: bool
    galois: GaloisVerdict


@dataclass(frozen=True)
class CurveReport:
    ell: int
    poly: IntPoly
    epsilon: int
    hypotheses: CurveHypotheses
    degree_coeff: int
    degree_ell_exponent: int
    components: dict
    reference: dict | None
    discrepancy: dict | None

    def to_json_dict(self) -> dict:
        hyp = self.hypotheses
        return {
            "ell": self.ell,
            "poly": str(self.poly),
            "coefficients": list(self.poly.coeffs),
            "epsilon": self.epsilon,
            "disc": hyp.disc,
            "disc_factors": sorted([p, e] for p, e in hyp.disc_factors.items()),
            "disc_leftover": hyp.disc_leftover,
            "simple_prime": hyp.simple_prime,
            "simple_prime_proven": hyp.simple_prime_proven,
            "galois": {"status": hyp.galois.status, "witnesses": hyp.galois.witnesses},
            "degree": {
                "coeff": self.degree_coeff,
                "ell_exponent": self.degree_ell_exponent,
            },
            "components": self.components,
            "reference": self.reference,
            "discrepancy": self.discrepancy,
        }


def check_curve_input(ell: int, f: IntPoly):
    """ell must be an odd prime, f must not be constant, (ell, deg f) must
    pass check_ell_r, and f must be monic: the checks both curve commands
    make first."""
    check_odd_prime(ell)
    if f.degree == 0:
        raise DomainError("polynomial must not be constant")
    check_ell_r(ell, f.degree)
    if not f.is_monic:
        raise DomainError("polynomial must be monic")


def curve_hypotheses(ell: int, f: IntPoly, budget: int = RHO_BUDGET) -> CurveHypotheses:
    """Check the hypotheses on an f that passed check_curve_input: f is
    separable (else HypothesisError), a prime p not in {2, ell} has
    ord_p(disc) = 1, and the Galois group is symmetric.  The last two are
    reported, not raised; the caller decides what a failure means."""
    disc = f.disc
    if disc == 0:
        raise HypothesisError("polynomial is not separable")
    factors, leftover = factorize(disc, budget)
    simple_p, proven = _choose_simple_prime(disc, factors, leftover, ell)
    return CurveHypotheses(disc, factors, leftover, simple_p, proven, galois_certificate(f))


def division_degree_report(
    ell: int,
    f: IntPoly,
    budget: int = RHO_BUDGET,
    override_hypotheses: bool = False,
) -> CurveReport:
    """The degree of the ell-torsion field as r! * ell^X, in factored form,
    with X = filtration_order_exponent(ell, r-1, ell-1, 1, "U"): at
    kappa = t = 0 it is the order of the group generated by perm_embed(S_r)
    and U(V/lambda^n)_1, n = ell-1.  It equals (r!/2) * ell^E times the
    order of the unit group mod lambda^n, E the SU exponent, because
    - the sign of sigma supplies -zeta's 2;
    - -zeta's ell-part and the anti-fixed exponent floor((n-2)/2) add up to
      floor(n/2), the even levels, where the U and SU slices differ by one;
    - the rational similitudes 1 + ell^(1+e) Z_ell are trivial mod
      lambda^(ell-1) = ell, so their exponent is 0 for every (ell, r).

    A reference value, when known for the input, is embedded together with
    a structured discrepancy record.
    """
    r = f.degree
    check_curve_input(ell, f)
    if r < 4:
        raise HypothesisError("need degree >= 4")
    hyp = curve_hypotheses(ell, f, budget)
    if not override_hypotheses:
        if hyp.galois.status != "symmetric":
            raise HypothesisError(
                f"Galois group not certified symmetric: {hyp.galois.status}"
            )
        if hyp.simple_prime is None:
            raise HypothesisError(
                "no prime of discriminant-valuation one found"
                + (" (proven absent)" if hyp.simple_prime_proven else " (budget exhausted)")
            )
        kappa, t = kappa_and_t(ell, r)
        if kappa != 0 or t != 0:
            raise HypothesisError(
                f"unit-index bound not tight: kappa_bound={kappa}, t={t}"
            )
    coeff = factorial(r)
    ell_exp = filtration_order_exponent(ell, r - 1, ell - 1, 1, "U")
    components = {"galois_intersection_order": coeff // 2, "u_exponent": ell_exp}
    key = (ell, tuple(f.coeffs))
    reference = REFERENCE_DEGREES.get(key)
    discrepancy = None
    if reference is not None:
        difference = ell_exp - reference["ell_exponent"]
        discrepancy = {
            "coeff_matches": coeff == reference["coeff"],
            "ell_exponent_difference": difference,
            "note": (
                f"the reference input's Galois certificate reads {hyp.galois.status}; "
                f"the ell-exponent gap of {abs(difference)} stays unexplained"
            ),
        }
    return CurveReport(
        ell=ell,
        poly=f,
        epsilon=legendre(r, ell),
        hypotheses=hyp,
        degree_coeff=coeff,
        degree_ell_exponent=ell_exp,
        components=components,
        reference=reference,
        discrepancy=discrepancy,
    )
