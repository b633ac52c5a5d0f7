"""Exact arithmetic in O/lambda^n, where O = Z[zeta_ell] and lambda = 1 - zeta_ell.

An element is stored by its coordinates on 1, lambda, ..., lambda^(S-1),
S = min(n, ell-1).  Phi_ell(1 - lambda) is Eisenstein at ell, so
ell O = lambda^(ell-1) O and the term b_i lambda^i has order
(ell-1) v_ell(b_i) + i.  These orders differ mod ell-1, so lambda^n O is
the sum of the ell^(e_i) lambda^i Z with e_i = ceil((n-i)/(ell-1)), and
coordinate i taken mod ell^(e_i) is a canonical representative: equality
and hashing compare coordinates.

For n <= ell-1 every modulus is ell and O/lambda^n = F_ell[lambda]/(lambda^n):
the coordinates are the lambda-adic digits, and a product (Kronecker
substitution) keeps the low n slots.  For n > ell-1 a product folds its
slots from ell-1 on through lambda^(ell-1) = -sum_(i<ell-1) (-1)^i
C(ell, i+1) lambda^i, as packed rows.  lambda_order reads ord_lambda and
lambda_digit the digit t of an element of order at least t, each from one
coordinate per place.  The coordinates are the only representation: for
n > ell-1 the digits are kept nowhere, and CycloElt.digits expands them on
demand (digits_from_poly), one digit at a time.  Conjugation and sigma_j
are linear maps given by packed tables per (ell, n, j).

The coords_* helpers are the only code that knows the format: matrices
and commutators hold rows of coordinates and work on them through these
helpers, and CycloElt wraps one coordinate tuple.  Power-basis
coefficients in zeta appear only at the edge, in from_poly.  Everything is
exact integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import comb, isqrt
from operator import mul


class RingError(Exception):
    """Base class for errors raised by the local-ring layer."""


class ContextMismatch(RingError):
    """Operands built over different (ell, precision) contexts."""


class NotAUnit(RingError):
    """Inversion of an element with nonzero lambda-valuation."""

    def __init__(self, ord_lambda: int):
        super().__init__(f"element is not a unit (ord_lambda = {ord_lambda})")
        self.ord_lambda = ord_lambda


class DomainError(RingError):
    """Operand outside the domain of a partial operation (log/exp, division)."""


class CheckFailed(RingError):
    """An internal mathematical cross-check failed: the computation is wrong,
    not the input.  Raised instead of asserting, so it also runs under -O."""


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# Miller-Rabin to the bases 2, ..., 41 is exact below this bound
# (Sorenson and Webster, 2015).
_MR_EXACT_BELOW = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic for n < 3.3e24 (strong probable prime to every prime
    base up to 41); above that, the Baillie-PSW test (strong base 2 and
    strong Lucas), for which no counterexample is known."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    if n < _MR_EXACT_BELOW:
        return all(_strong_probable_prime(n, a) for a in _SMALL_PRIMES)
    return _strong_probable_prime(n, 2) and _strong_lucas_probable_prime(n)


def _strong_probable_prime(n: int, a: int) -> bool:
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0; the Legendre symbol at primes."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas_probable_prime(n: int) -> bool:
    """Strong Lucas test with Selfridge's parameters: D the first of
    5, -7, 9, -11, ... with (D/n) = -1, P = 1, Q = (1 - D)/4; n odd."""
    if isqrt(n) ** 2 == n:
        return False
    d = 5
    while jacobi(d, n) != -1:
        d = -d - 2 if d > 0 else -d + 2
    q = (1 - d) // 4
    k, s = n + 1, 0
    while k % 2 == 0:
        k //= 2
        s += 1
    # U_k, V_k and Q^k by binary expansion of k, with P = 1
    inv2 = (n + 1) // 2
    u, v, qk = 1, 1, q % n
    for bit in bin(k)[3:]:
        u, v, qk = u * v % n, (v * v - 2 * qk) % n, qk * qk % n
        if bit == "1":
            u, v = (u + v) * inv2 % n, (d * u + v) * inv2 % n
            qk = qk * q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v, qk = (v * v - 2 * qk) % n, qk * qk % n
        if v == 0:
            return True
    return False


def check_odd_prime(ell: int):
    """DomainError naming ell unless it is an odd prime."""
    if ell < 3 or not is_prime(ell):
        raise DomainError(f"ell = {ell} must be an odd prime")


@dataclass(frozen=True)
class RingCtx:
    """Ambient ring O/lambda^n: an odd prime ell and a truncation level."""

    ell: int
    precision: int

    def __post_init__(self):
        if self.ell < 3 or not is_prime(self.ell):
            raise ValueError(f"ell must be an odd prime, got {self.ell}")
        if self.precision < 1:
            raise ValueError(f"precision must be >= 1, got {self.precision}")

    @lru_cache(maxsize=None)
    def at_precision(self, n: int) -> "RingCtx":
        """The same ell at precision n, built (and ell checked) once."""
        return RingCtx(self.ell, n)

    @cached_property
    def slots(self) -> int:
        """S = min(n, ell-1), the number of coordinates."""
        return min(self.precision, self.ell - 1)

    @cached_property
    def folds(self) -> bool:
        """n > ell-1: products reach lambda^(ell-1) below lambda^n and fold,
        and the digits are not the coordinates."""
        return self.precision > self.ell - 1

    @cached_property
    def moduli(self) -> tuple:
        """ell^(e_i), e_i = ceil((n-i)/(ell-1)), for i < S: lambda^n O is the
        sum of the ell^(e_i) lambda^i Z, so coordinate i is taken mod ell^(e_i)."""
        ell, n = self.ell, self.precision
        return tuple(ell ** -(-(n - i) // (ell - 1)) for i in range(self.slots))

    @cached_property
    def modulus(self) -> int:
        """ell^k with k = ceil(n/(ell-1)), the largest coordinate modulus;
        ell^k O lies in lambda^n O."""
        return self.moduli[0]

    @cached_property
    def width(self) -> int:
        """Packing width for the product of two elements."""
        return product_width(self, 1)

    @cached_property
    def zero(self) -> tuple:
        """The coordinates of 0."""
        return (0,) * self.slots

    @cached_property
    def one(self) -> tuple:
        """The coordinates of 1."""
        return (1,) + (0,) * (self.slots - 1)

    @cached_property
    def top(self) -> tuple:
        """(s, c) with lambda^(n-1) = c lambda^s mod lambda^n: with
        n-1 = q(ell-1) + s, c = (-ell)^q, since lambda^(ell-1) = -ell times
        a unit that is 1 mod lambda."""
        q, s = divmod(self.precision - 1, self.ell - 1)
        return s, (-self.ell) ** q % self.moduli[s]


_context = lru_cache(maxsize=None)(RingCtx)


# ---------------------------------------------------------------------------
# Coordinates: canonical integer tuples on 1, lambda, ..., lambda^(S-1).
# The helpers below are the only code that knows this format.


def coords_reduce(values, ctx: RingCtx) -> tuple:
    """Canonical coordinates of sum values[i] lambda^i, for integers on at
    most ell-1 places and at least S: places from S on (there only for
    n < ell-1) lie in lambda^n."""
    return tuple([v % q for v, q in zip(values, ctx.moduli)])


def coords_lift(x: tuple, ctx: RingCtx) -> tuple:
    """Canonical coordinates at a lower precision, read at the higher
    precision of ctx: a lift (with zero high digits when the lower precision
    is at most ell-1)."""
    return x + (0,) * (ctx.slots - len(x))


def coords_add(x: tuple, y: tuple, ctx: RingCtx) -> tuple:
    return tuple([(a + b) % q for a, b, q in zip(x, y, ctx.moduli)])


def coords_sub(x: tuple, y: tuple, ctx: RingCtx) -> tuple:
    return tuple([(a - b) % q for a, b, q in zip(x, y, ctx.moduli)])


def coords_neg(x: tuple, ctx: RingCtx) -> tuple:
    return tuple([-a % q for a, q in zip(x, ctx.moduli)])


def coords_scale(x: tuple, k: int, ctx: RingCtx) -> tuple:
    """k x for an integer k."""
    return tuple([a * k % q for a, q in zip(x, ctx.moduli)])


def coords_add_int(x: tuple, k: int, ctx: RingCtx) -> tuple:
    """x + k for an integer k: only coordinate 0 moves."""
    return ((x[0] + k) % ctx.modulus,) + x[1:]


def coords_add_top(x: tuple, s: int, ctx: RingCtx) -> tuple:
    """x + s lambda^(n-1) for an integer s: one coordinate moves (RingCtx.top)."""
    slot, c = ctx.top
    out = list(x)
    out[slot] = (out[slot] + s * c) % ctx.moduli[slot]
    return tuple(out)


def residue(x, ell: int) -> int:
    """The residue mod lambda, in F_ell."""
    return x[0] % ell


def coords_mul(x: tuple, y: tuple, ctx: RingCtx) -> tuple:
    w = ctx.width
    return unpack_reduced(pack(x, w) * pack(y, w), w, ctx)


def coords_galois(x: tuple, j: int, ctx: RingCtx) -> tuple:
    """sigma_j (zeta -> zeta^j), linear in the coordinates: sum x_i
    sigma_j(lambda^i) over the packed rows of _galois_rows."""
    rows = _galois_rows(ctx.ell, ctx.precision, j % ctx.ell)
    return unpack_reduced(sum(map(mul, x, rows)), ctx.width, ctx)


@lru_cache(maxsize=None)
def _galois_rows(ell: int, n: int, j: int) -> tuple:
    """sigma_j(lambda^i), i < S, packed at the context's width;
    sigma_j(lambda) = 1 - zeta^j."""
    ctx = _context(ell, n)
    image = from_poly((1,) + (0,) * (j - 1) + (-1,), ctx)
    rows, power = [], ctx.one
    for _ in range(ctx.slots):
        rows.append(pack(power, ctx.width))
        power = coords_mul(power, image, ctx)
    return tuple(rows)


def coords_from_lambda_poly(values, ctx: RingCtx) -> tuple:
    """Canonical coordinates of sum values[t] lambda^t for integers values[t]:
    the places below S are coordinates, those from ell-1 on add multiples of
    the coordinates of lambda^t, and those from n on vanish."""
    s = ctx.slots
    acc = list(values[:s])
    acc += [0] * (s - len(acc))
    if ctx.folds:
        powers = _lambda_powers(ctx.ell, ctx.precision, ctx.precision)
        for v, power in zip(values[s:ctx.precision], powers[s:]):
            if v:
                acc = [a + v * c for a, c in zip(acc, power)]
    return coords_reduce(acc, ctx)


@lru_cache(maxsize=None)
def _lambda_powers(ell: int, n: int, count: int) -> tuple:
    """Canonical coordinates at precision n of lambda^0, ...,
    lambda^(count-1).  Multiplying by lambda shifts the coordinates up;
    when n > ell-1 the coefficient shifted onto lambda^(ell-1) folds through
    lambda^(ell-1) = -sum_(i<ell-1) (-1)^i C(ell, i+1) lambda^i
    (Phi_ell(1 - lambda) = 0), and otherwise it lies in lambda^n."""
    ctx = _context(ell, n)
    fold = [-(-1) ** i * comb(ell, i + 1) for i in range(ell - 1)]
    powers = [ctx.one]
    for _ in range(1, count):
        p = powers[-1]
        shifted = (0,) + p[:-1]
        if ctx.folds:
            shifted = [a + p[-1] * f for a, f in zip(shifted, fold)]
        powers.append(coords_reduce(shifted, ctx))
    return tuple(powers)


def lambda_order(coords, ell: int, cap: int) -> int:
    """min(ord_lambda(sum b_i lambda^i), cap) for integers b_i.

    ell is lambda^(ell-1) times a unit, so the term b_i lambda^i has order
    (ell-1) v_ell(b_i) + i.  These orders differ mod ell-1, so the least of
    them is the order of the sum.
    """
    best = cap
    for i, b in enumerate(coords):
        if i >= best:
            break
        if b:
            order = i
            while order < best and b % ell == 0:
                b //= ell
                order += ell - 1
            best = min(best, order)
    return best


def lambda_digit(coords, ell: int, t: int) -> int:
    """Digit t of sum b_i lambda^i, for an element of order at least t.

    With t = q(ell-1) + s, every term b_i lambda^i with i != s has order
    above t, and b_s = ell^q u.  Since ell = -lambda^(ell-1) mod lambda^ell,
    the digit is (-1)^q u mod ell.
    """
    q, s = divmod(t, ell - 1)
    u = coords[s] // ell**q
    return (-u if q % 2 else u) % ell


def digits_from_poly(coords, ell: int, n: int) -> tuple:
    """The n leading lambda-adic digits of sum b_i lambda^i (any integers
    b_i): digit t is read with lambda_digit once the digits below it, each
    times its power of lambda, are subtracted.  CheckFailed unless the
    final rest lies in lambda^n."""
    rest = list(coords)
    digits = []
    for t, power in enumerate(_lambda_powers(ell, n, n)):
        digit = lambda_digit(rest, ell, t)
        digits.append(digit)
        rest = [c - digit * x for c, x in zip(rest, power)]
    if lambda_order(rest, ell, n) != n:
        raise CheckFailed("the digits do not reproduce the element mod lambda^n")
    return tuple(digits)


# ---------------------------------------------------------------------------
# Kronecker substitution on coordinates.


def product_width(ctx: RingCtx, terms: int) -> int:
    """Slot width that holds a sum of `terms` packed products exactly.

    Each coordinate lies in [0, modulus) and a slot collects at most S
    products.  When products fold (n > ell-1), each of the S-1 high slots,
    taken mod the modulus, adds at most (modulus-1)^2 more to a slot."""
    s = ctx.slots
    return ((terms * s + (s - 1 if ctx.folds else 0)) * (ctx.modulus - 1) ** 2).bit_length()


def pack(coeffs, width: int) -> int:
    """The coefficients, each in [0, 2^width), as the digits of one integer."""
    x = 0
    for c in reversed(coeffs):
        x = (x << width) | c
    return x


def unpack_reduced(x: int, width: int, ctx: RingCtx) -> tuple:
    """Canonical coordinates of a packed product, or sum of packed products.

    For n <= ell-1 the slots from n on lie in lambda^n and are dropped.
    Otherwise the slots from ell-1 on, each taken mod the modulus, fold in
    as multiples of the packed rows of lambda^(ell-1), ..., lambda^(2ell-4)
    (_fold_rows).  Then each slot is taken mod its modulus."""
    mask = (1 << width) - 1
    if ctx.folds:
        low = ctx.slots * width
        high = x >> low
        if high:
            x &= (1 << low) - 1
            m = ctx.modulus
            for row in _fold_rows(ctx.ell, ctx.precision, width):
                x += (high & mask) % m * row
                high >>= width
    out = []
    for q in ctx.moduli:
        out.append((x & mask) % q)
        x >>= width
    return tuple(out)


@lru_cache(maxsize=None)
def _fold_rows(ell: int, n: int, width: int) -> tuple:
    """lambda^(ell-1+k), k < ell-2, at precision n, packed at the width."""
    return tuple(pack(p, width) for p in _lambda_powers(ell, n, 2 * ell - 3)[ell - 1:])


# ---------------------------------------------------------------------------
# The power basis 1, zeta, ..., zeta^(ell-2): an edge format.


def reduce_zeta_poly(coeffs, ell: int) -> tuple:
    """Reduce an integer polynomial in zeta to the canonical power basis."""
    if len(coeffs) < ell:
        return tuple(coeffs) + (0,) * (ell - 1 - len(coeffs))
    folded = [0] * ell
    for e, c in enumerate(coeffs):
        folded[e % ell] += c
    top = folded[ell - 1]
    # zeta^(ell-1) = -(1 + zeta + ... + zeta^(ell-2))
    return tuple(folded[i] - top for i in range(ell - 1))


@lru_cache(maxsize=None)
def _lambda_basis_rows(ell: int) -> tuple:
    """Row i holds (-1)^i C(k, i) for k = i, ..., ell-2, the coefficient of
    lambda^i in zeta^k = (1 - lambda)^k."""
    return tuple(tuple((-1) ** i * comb(k, i) for k in range(i, ell - 1))
                 for i in range(ell - 1))


def from_poly(coeffs, ctx: RingCtx) -> tuple:
    """Canonical coordinates of the integer polynomial sum c_k zeta^k."""
    c = reduce_zeta_poly(coeffs, ctx.ell)
    rows = _lambda_basis_rows(ctx.ell)
    return coords_reduce([sum(map(mul, rows[i], c[i:])) for i in range(ctx.slots)], ctx)


# ---------------------------------------------------------------------------


class CycloElt:
    """An element of O/lambda^n.

    `coords` holds its canonical coordinates on 1, lambda, ...,
    lambda^(S-1), S = min(n, ell-1) (the coords_* helpers), so equality and
    hashing compare them.  They are the element's one representation.  For
    n <= ell-1 they are the lambda-adic digits; for n > ell-1 `digits`
    expands them (digits_from_poly) each time it is read, and no arithmetic
    reads it.  Digits are an edge format: the constructor takes them for
    digit input, while constants, results and digit matrices are built
    from coordinates.
    """

    __slots__ = ("ctx", "coords")

    def __init__(self, ctx: RingCtx, digits):
        digits = tuple(digits)
        if len(digits) != ctx.precision:
            raise ValueError("digit count must equal the context precision")
        if any(not (0 <= d < ctx.ell) for d in digits):
            raise ValueError("digits must lie in {0, ..., ell-1}")
        self.ctx = ctx
        self.coords = coords_from_lambda_poly(digits, ctx)

    @staticmethod
    def from_reduced(coords: tuple, ctx: RingCtx) -> "CycloElt":
        """Wrap canonical coordinates."""
        e = object.__new__(CycloElt)
        e.ctx = ctx
        e.coords = coords
        return e

    @property
    def digits(self) -> tuple:
        if not self.ctx.folds:
            return self.coords
        return digits_from_poly(self.coords, self.ctx.ell, self.ctx.precision)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_poly(coeffs, ctx: RingCtx) -> "CycloElt":
        """The element sum c_k zeta^k of integer coefficients."""
        return CycloElt.from_reduced(from_poly(coeffs, ctx), ctx)

    @staticmethod
    def from_int(k: int, ctx: RingCtx) -> "CycloElt":
        return CycloElt.from_reduced(coords_add_int(ctx.zero, k, ctx), ctx)

    @staticmethod
    def zero(ctx: RingCtx) -> "CycloElt":
        return CycloElt.from_reduced(ctx.zero, ctx)

    @staticmethod
    def one(ctx: RingCtx) -> "CycloElt":
        return CycloElt.from_reduced(ctx.one, ctx)

    @staticmethod
    def zeta(ctx: RingCtx, power: int = 1) -> "CycloElt":
        return CycloElt.from_poly([0] * (power % ctx.ell) + [1], ctx)

    @staticmethod
    def lam(ctx: RingCtx, power: int = 1) -> "CycloElt":
        """lambda^power; zero once power reaches the precision.  lambda is
        not a unit, so a negative power is a DomainError."""
        if power < 0:
            raise DomainError(f"lambda has no inverse, got power {power}")
        if power >= ctx.precision:
            return CycloElt.zero(ctx)
        powers = _lambda_powers(ctx.ell, ctx.precision, ctx.precision)
        return CycloElt.from_reduced(powers[power], ctx)

    # -- basic queries -----------------------------------------------------

    @property
    def ord_lambda(self) -> int:
        return lambda_order(self.coords, self.ctx.ell, self.ctx.precision)

    @property
    def is_unit(self) -> bool:
        return residue(self.coords, self.ctx.ell) != 0

    def is_zero(self) -> bool:
        return not any(self.coords)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CycloElt):
            return NotImplemented
        return self.ctx == other.ctx and self.coords == other.coords

    def __hash__(self) -> int:
        return hash((self.ctx, self.coords))

    # -- ring structure ----------------------------------------------------

    def _check(self, other: "CycloElt"):
        if other.ctx is not self.ctx and other.ctx != self.ctx:
            raise ContextMismatch(f"{self.ctx} vs {other.ctx}")

    def __add__(self, other: "CycloElt") -> "CycloElt":
        self._check(other)
        return CycloElt.from_reduced(coords_add(self.coords, other.coords, self.ctx), self.ctx)

    def __neg__(self) -> "CycloElt":
        return CycloElt.from_reduced(coords_neg(self.coords, self.ctx), self.ctx)

    def __sub__(self, other: "CycloElt") -> "CycloElt":
        self._check(other)
        return CycloElt.from_reduced(coords_sub(self.coords, other.coords, self.ctx), self.ctx)

    def __mul__(self, other) -> "CycloElt":
        ctx = self.ctx
        if isinstance(other, int):
            return CycloElt.from_reduced(coords_scale(self.coords, other, ctx), ctx)
        self._check(other)
        return CycloElt.from_reduced(coords_mul(self.coords, other.coords, ctx), ctx)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "CycloElt":
        if k < 0:
            return self.inverse() ** (-k)
        result = CycloElt.one(self.ctx)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def inverse(self) -> "CycloElt":
        """Multiplicative inverse by Newton's iteration x -> x (2 - a x),
        which doubles the lambda-precision: step j runs at precision
        min(2^j, n), on a truncated to it."""
        ctx = self.ctx
        if not self.is_unit:
            raise NotAUnit(self.ord_lambda)
        x = (pow(residue(self.coords, ctx.ell), -1, ctx.ell),)
        prec = 1
        while prec < ctx.precision:
            prec = min(2 * prec, ctx.precision)
            step = ctx.at_precision(prec)
            x = coords_lift(x, step)
            ax = coords_mul(coords_reduce(self.coords, step), x, step)
            x = coords_mul(x, coords_add_int(coords_neg(ax, step), 2, step), step)
        return CycloElt.from_reduced(x, ctx)

    def conjugate(self) -> "CycloElt":
        """The involution zeta -> zeta^(-1), sigma_(ell-1)."""
        return CycloElt.from_reduced(coords_galois(self.coords, -1, self.ctx), self.ctx)

    def galois(self, j: int) -> "CycloElt":
        """Apply sigma_j: zeta -> zeta^j.  Requires gcd(j, ell) = 1."""
        if j % self.ctx.ell == 0:
            raise DomainError(f"sigma_j needs j invertible mod ell, got j = {j}")
        return CycloElt.from_reduced(coords_galois(self.coords, j, self.ctx), self.ctx)

    # -- precision management ---------------------------------------------

    def truncate(self, n: int) -> "CycloElt":
        if n > self.ctx.precision:
            raise DomainError("cannot truncate upward")
        ctx = self.ctx.at_precision(n)
        return CycloElt.from_reduced(coords_reduce(self.coords, ctx), ctx)

    def __repr__(self):
        return f"CycloElt(ell={self.ctx.ell}, digits={list(self.digits)})"


# ---------------------------------------------------------------------------
# Division by rational integers and the truncated log / exp.


def div_by_int(a: CycloElt, k: int) -> CycloElt:
    """Exact division by a nonzero integer k = +-ell^s * k' with k' prime to ell.

    ell^s O = lambda^((ell-1)s) O contains lambda^n O, and the coordinate
    moduli from precision n down to n - (ell-1)s lose a factor ell^s each,
    so a is divisible exactly when its coordinates are divisible by ell^s;
    they are divided as integers, and the result lives at precision
    n - (ell-1)s.  Then +-k' is inverted mod the modulus of that precision.
    DomainError also when (ell-1)s >= n, which would leave no digit.
    """
    if k == 0:
        raise ZeroDivisionError
    ctx = a.ctx
    ell = ctx.ell
    unit, s = k, 0
    while unit % ell == 0:
        unit //= ell
        s += 1
    coords = a.coords
    if s:
        q = ell**s
        loss = (ell - 1) * s
        if loss >= ctx.precision or any(c % q for c in coords):
            raise DomainError(f"element not divisible by ell^{s}")
        ctx = ctx.at_precision(ctx.precision - loss)
        coords = [c // q for c in coords]
    return CycloElt.from_reduced(coords_scale(coords, pow(unit, -1, ctx.modulus), ctx), ctx)


def _ord_ell_factorial(k: int, ell: int) -> int:
    s, p = 0, ell
    while p <= k:
        s += k // p
        p *= ell
    return s


def log1p(x: CycloElt) -> CycloElt:
    """Truncated ell-adic logarithm on 1 + lambda^2 * O."""
    ctx = x.ctx
    ell, n = ctx.ell, ctx.precision
    w = x - CycloElt.one(ctx)
    if not w.is_zero() and w.ord_lambda < 2:
        raise DomainError("log1p requires ord_lambda(x - 1) >= 2")
    # Terms with k > n have valuation >= 2k - (ell-1)*log_ell(k) > n.
    kmax = n
    smax = 0
    p = ell
    while p <= kmax:
        smax += 1
        p *= ell
    n_ext = n + (ell - 1) * smax
    ext = ctx.at_precision(n_ext)
    w_ext = CycloElt.from_reduced(coords_lift(w.coords, ext), ext)  # any lift will do
    total = CycloElt.zero(ctx.at_precision(n))
    power = CycloElt.one(ctx.at_precision(n_ext))
    for k in range(1, kmax + 1):
        power = power * w_ext
        term = div_by_int(power, k)
        term = term.truncate(n)
        total = total + term if k % 2 == 1 else total - term
    return total


def exp(x: CycloElt) -> CycloElt:
    """Truncated ell-adic exponential on lambda^2 * O."""
    ctx = x.ctx
    ell, n = ctx.ell, ctx.precision
    if not x.is_zero() and x.ord_lambda < 2:
        raise DomainError("exp requires ord_lambda(x) >= 2")
    kmax = n  # term k has valuation >= k + 1
    n_ext = n + (ell - 1) * _ord_ell_factorial(kmax, ell)
    ext = ctx.at_precision(n_ext)
    x_ext = CycloElt.from_reduced(coords_lift(x.coords, ext), ext)  # any lift will do
    total = CycloElt.one(ctx.at_precision(n))
    power = CycloElt.one(ctx.at_precision(n_ext))
    fact = 1
    for k in range(1, kmax + 1):
        power = power * x_ext
        fact *= k
        total = total + div_by_int(power, fact).truncate(n)
    return total
