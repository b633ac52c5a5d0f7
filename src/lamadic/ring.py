"""Exact arithmetic in O/lambda^n, where O = Z[zeta_ell] and lambda = 1 - zeta_ell.

An element is stored by its coefficients on the power basis 1, zeta, ...,
zeta^(ell-2), each reduced mod ell^k with k = ceil(n/(ell-1)).  No
information is lost: ell = lambda^(ell-1) * (a unit), so ell^k O lies in
lambda^n O.  Products use Kronecker substitution: the coefficients are
packed into one integer, multiplied once, unpacked, folded mod Phi_ell and
reduced.  The power-basis form is not unique mod lambda^n.  The canonical
form is the lambda-adic digits in {0, ..., ell-1}, the coefficients of
lambda^0, ..., lambda^(n-1); hashing and serialization read them.

Valuations and digits are read on the basis 1, lambda, ..., lambda^(ell-2),
a fixed triangular transform of the power-basis coefficients: lambda_order
reads ord_lambda (for equality when the coefficients differ, is_zero and
ord_lambda) and lambda_digit the first nonzero digit.  The digit expansion
(digits_from_poly) reads each digit with lambda_digit and subtracts it
times its power of lambda.  It runs only when an element that does not
know its digits is asked for them, and is then cached.  They are carried
without expansion where the rule is known: zero and one know theirs,
truncate keeps the leading digits, pad_zero appends zeros, and add_top
changes only the top digit.  Residues mod lambda (is_unit) read the
coefficient sum and skip digits.  Everything is exact integer arithmetic.
"""

from __future__ import annotations

import json
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
    def modulus(self) -> int:
        """ell^k with k = ceil(n/(ell-1)), the modulus of the coefficients."""
        return self.ell ** -(-self.precision // (self.ell - 1))

    @cached_property
    def width(self) -> int:
        """Packing width for the product of two elements."""
        return product_width(self, 1)


# ---------------------------------------------------------------------------
# Integer polynomials in zeta, reduced to the basis 1, zeta, ..., zeta^(ell-2).
# Represented as tuples of ell-1 exact integers.

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


def zeta_poly_add(a: tuple, b: tuple) -> tuple:
    return tuple(x + y for x, y in zip(a, b))


def zeta_poly_galois(a: tuple, j: int, ell: int) -> tuple:
    """Apply sigma_j: zeta -> zeta^j to a reduced polynomial."""
    out = [0] * (ell + 1)
    for e, c in enumerate(a):
        out[(e * j) % ell] += c
    return reduce_zeta_poly(out, ell)


def digits_from_poly(poly, ell: int, n: int) -> tuple:
    """The n leading lambda-adic digits of an integer zeta-polynomial: digit
    t is read with lambda_digit once the digits below it, each times its
    power of lambda (_lambda_power_table), are subtracted.  CheckFailed
    unless the final rest lies in lambda^n."""
    rest = reduce_zeta_poly(poly, ell)
    digits = []
    for t, power in enumerate(_lambda_power_table(ell, n)):
        digits.append(lambda_digit(rest, ell, t))
        rest = [c - digits[-1] * x for c, x in zip(rest, power)]
    if lambda_order(rest, ell, n) != n:
        raise CheckFailed("the digits do not reproduce the element mod lambda^n")
    return tuple(digits)


@lru_cache(maxsize=None)
def _lambda_basis_rows(ell: int) -> tuple:
    """Row i holds (-1)^i C(k, i) for k = i, ..., ell-2, the coefficient of
    lambda^i in zeta^k = (1 - lambda)^k.  So b_i = row_i . c[i:] writes
    sum c_k zeta^k as sum b_i lambda^i on the basis 1, lambda, ...,
    lambda^(ell-2)."""
    return tuple(tuple((-1) ** i * comb(k, i) for k in range(i, ell - 1))
                 for i in range(ell - 1))


def lambda_order(coeffs, ell: int, cap: int) -> int:
    """min(ord_lambda(sum c_k zeta^k), cap), without expanding digits.

    ell is lambda^(ell-1) times a unit, so the term b_i lambda^i on the
    lambda basis has order (ell-1) v_ell(b_i) + i.  These orders differ
    mod ell-1, so the least of them is the order of the sum.  Exact for
    integer coefficients, and for coefficients known mod ell^k when cap is
    at most (ell-1)k, as for the precision of a CycloElt.
    """
    best = cap
    for i, row in enumerate(_lambda_basis_rows(ell)):
        if i >= best:
            break
        b = sum(map(mul, row, coeffs[i:]))
        if b:
            order = i
            while order < best and b % ell == 0:
                b //= ell
                order += ell - 1
            best = min(best, order)
    return best


def lambda_digit(coeffs, ell: int, t: int) -> int:
    """Digit t of sum c_k zeta^k, for an element of order at least t.

    With t = q(ell-1) + s, every term b_i lambda^i with i != s has order
    above t, and b_s = ell^q u.  By Wilson's theorem ell = -lambda^(ell-1)
    mod lambda^ell, so the digit is (-1)^q u mod ell.  t must lie below
    (ell-1)k for coefficients known mod ell^k.
    """
    q, s = divmod(t, ell - 1)
    u = sum(map(mul, _lambda_basis_rows(ell)[s], coeffs[s:])) // ell**q
    return (-u if q % 2 else u) % ell


@lru_cache(maxsize=None)
def _lambda_power_table(ell: int, n: int) -> tuple:
    """lambda^0, ..., lambda^(n-1); lambda^(i+1) = lambda^i - zeta * lambda^i,
    and multiplying by zeta rotates the coefficients."""
    powers = [(1,) + (0,) * (ell - 2)]
    for _ in range(1, n):
        p = powers[-1]
        powers.append(tuple(a - b for a, b in zip(p, reduce_zeta_poly((0,) + p, ell))))
    return tuple(powers)


def poly_from_digits(digits, ell: int) -> tuple:
    """Exact integer lift sum_i digits[i] * lambda^i."""
    powers = _lambda_power_table(ell, len(digits))
    acc = [0] * (ell - 1)
    for d, p in zip(digits, powers):
        if d:
            for s, c in enumerate(p):
                acc[s] += d * c
    return tuple(acc)


# ---------------------------------------------------------------------------
# Kronecker substitution on reduced coefficients.


def product_width(ctx: RingCtx, terms: int) -> int:
    """Slot width that holds a sum of `terms` packed products exactly.

    Each power-basis coefficient lies in [0, modulus), and after folding
    zeta^ell = 1 every slot of one product collects at most ell-1 terms."""
    return (terms * (ctx.ell - 1) * (ctx.modulus - 1) ** 2).bit_length()


def pack(coeffs, width: int) -> int:
    """The coefficients, each in [0, 2^width), as the digits of one integer."""
    x = 0
    for c in reversed(coeffs):
        x = (x << width) | c
    return x


def unpack_reduced(x: int, width: int, ctx: RingCtx) -> tuple:
    """Reduced coefficients of a packed product, or sum of packed products.

    The 2*ell - 3 slots of x fold to ell with zeta^ell = 1 (in the packed
    integer, without carries), then zeta^(ell-1) = -(1 + ... + zeta^(ell-2))
    takes the top slot out of the others."""
    top_shift = (ctx.ell - 1) * width
    low = top_shift + width
    x = (x & ((1 << low) - 1)) + (x >> low)
    mask = (1 << width) - 1
    top = x >> top_shift
    m = ctx.modulus
    return tuple([(((x >> s) & mask) - top) % m for s in range(0, top_shift, width)])


# ---------------------------------------------------------------------------


class CycloElt:
    """An element of O/lambda^n.

    `coeffs` holds its power-basis coefficients mod ctx.modulus; `digits`
    holds its canonical lambda-adic digits.  An element built from digits
    knows them, as do zero and one; truncate, pad_zero and add_top pass
    known digits on; any other result expands them on first use.  Digits
    are an edge format: the constructor takes them for deserialization and
    digit matrices, while constants and results are built from
    coefficients.
    """

    __slots__ = ("ctx", "coeffs", "_digits")

    def __init__(self, ctx: RingCtx, digits):
        digits = tuple(digits)
        if len(digits) != ctx.precision:
            raise ValueError("digit count must equal the context precision")
        if any(not (0 <= d < ctx.ell) for d in digits):
            raise ValueError("digits must lie in {0, ..., ell-1}")
        m = ctx.modulus
        self.ctx = ctx
        self.coeffs = tuple(c % m for c in poly_from_digits(digits, ctx.ell))
        self._digits = digits

    @staticmethod
    def from_reduced(coeffs: tuple, ctx: RingCtx) -> "CycloElt":
        """Wrap ell-1 power-basis coefficients already reduced mod ctx.modulus."""
        e = object.__new__(CycloElt)
        e.ctx = ctx
        e.coeffs = coeffs
        e._digits = None
        return e

    @property
    def digits(self) -> tuple:
        if self._digits is None:
            self._digits = digits_from_poly(self.coeffs, self.ctx.ell, self.ctx.precision)
        return self._digits

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_poly(coeffs, ctx: RingCtx) -> "CycloElt":
        m = ctx.modulus
        return CycloElt.from_reduced(
            tuple(c % m for c in reduce_zeta_poly(coeffs, ctx.ell)), ctx
        )

    @staticmethod
    def from_int(k: int, ctx: RingCtx) -> "CycloElt":
        return CycloElt.from_reduced((k % ctx.modulus,) + (0,) * (ctx.ell - 2), ctx)

    @staticmethod
    def zero(ctx: RingCtx) -> "CycloElt":
        out = CycloElt.from_int(0, ctx)
        out._digits = (0,) * ctx.precision
        return out

    @staticmethod
    def one(ctx: RingCtx) -> "CycloElt":
        out = CycloElt.from_int(1, ctx)
        out._digits = (1,) + (0,) * (ctx.precision - 1)
        return out

    @staticmethod
    def zeta(ctx: RingCtx, power: int = 1) -> "CycloElt":
        coeffs = [0] * (power % ctx.ell) + [1]
        return CycloElt.from_poly(coeffs, ctx)

    @staticmethod
    def lam(ctx: RingCtx, power: int = 1) -> "CycloElt":
        """lambda^power; zero once power reaches the precision.  lambda is
        not a unit, so a negative power is a DomainError."""
        if power < 0:
            raise DomainError(f"lambda has no inverse, got power {power}")
        if power >= ctx.precision:
            return CycloElt.zero(ctx)
        m = ctx.modulus
        return CycloElt.from_reduced(
            tuple(c % m for c in _lambda_power_table(ctx.ell, ctx.precision)[power]), ctx
        )

    # -- basic queries -----------------------------------------------------

    @property
    def ord_lambda(self) -> int:
        return lambda_order(self.coeffs, self.ctx.ell, self.ctx.precision)

    @property
    def is_unit(self) -> bool:
        # zeta = 1 mod lambda, so the residue mod lambda is p(1) mod ell
        return sum(self.coeffs) % self.ctx.ell != 0

    def is_zero(self) -> bool:
        return self.ord_lambda == self.ctx.precision

    def __eq__(self, other) -> bool:
        if not isinstance(other, CycloElt):
            return NotImplemented
        ctx = self.ctx
        if ctx != other.ctx:
            return False
        if self.coeffs == other.coeffs:
            return True
        diff = [x - y for x, y in zip(self.coeffs, other.coeffs)]
        return lambda_order(diff, ctx.ell, ctx.precision) == ctx.precision

    def __hash__(self) -> int:
        return hash((self.ctx, self.digits))

    # -- ring structure ----------------------------------------------------

    def _check(self, other: "CycloElt"):
        if other.ctx is not self.ctx and other.ctx != self.ctx:
            raise ContextMismatch(f"{self.ctx} vs {other.ctx}")

    def __add__(self, other: "CycloElt") -> "CycloElt":
        self._check(other)
        m = self.ctx.modulus
        return CycloElt.from_reduced(
            tuple((x + y) % m for x, y in zip(self.coeffs, other.coeffs)), self.ctx
        )

    def __neg__(self) -> "CycloElt":
        m = self.ctx.modulus
        return CycloElt.from_reduced(tuple(-x % m for x in self.coeffs), self.ctx)

    def __sub__(self, other: "CycloElt") -> "CycloElt":
        self._check(other)
        m = self.ctx.modulus
        return CycloElt.from_reduced(
            tuple((x - y) % m for x, y in zip(self.coeffs, other.coeffs)), self.ctx
        )

    def __mul__(self, other) -> "CycloElt":
        ctx = self.ctx
        if isinstance(other, int):
            m = ctx.modulus
            return CycloElt.from_reduced(tuple(x * other % m for x in self.coeffs), ctx)
        self._check(other)
        w = ctx.width
        return CycloElt.from_reduced(
            unpack_reduced(pack(self.coeffs, w) * pack(other.coeffs, w), w, ctx), ctx
        )

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
        """Multiplicative inverse; Newton iteration doubles lambda-precision."""
        if not self.is_unit:
            raise NotAUnit(self.ord_lambda)
        ell = self.ctx.ell
        x = CycloElt.from_int(pow(sum(self.coeffs) % ell, -1, ell), self.ctx)
        two = CycloElt.from_int(2, self.ctx)
        prec = 1
        while prec < self.ctx.precision:
            x = x * (two - self * x)
            prec *= 2
        return x

    def conjugate(self) -> "CycloElt":
        """The involution zeta -> zeta^(-1), read off the coefficients:
        zeta^e goes to zeta^(ell-e), and zeta^(ell-1) = -(1 + ... +
        zeta^(ell-2)) subtracts c_1 from every coefficient."""
        c = self.coeffs
        c1 = c[1]
        m = self.ctx.modulus
        return CycloElt.from_reduced(
            ((c[0] - c1) % m, -c1 % m) + tuple((x - c1) % m for x in c[:1:-1]), self.ctx
        )

    def galois(self, j: int) -> "CycloElt":
        """Apply sigma_j: zeta -> zeta^j.  Requires gcd(j, ell) = 1."""
        if j % self.ctx.ell == 0:
            raise DomainError(f"sigma_j needs j invertible mod ell, got j = {j}")
        return CycloElt.from_poly(
            zeta_poly_galois(self.coeffs, j % self.ctx.ell, self.ctx.ell), self.ctx
        )

    def add_top(self, s: int) -> "CycloElt":
        """self + s * lambda^(n-1) at precision n.  Only the top digit moves,
        by s mod ell, so digits the element knows are carried, not expanded."""
        ctx = self.ctx
        s %= ctx.ell
        if not s:
            return self
        m = ctx.modulus
        top = _lambda_power_table(ctx.ell, ctx.precision)[ctx.precision - 1]
        out = CycloElt.from_reduced(
            tuple((c + s * t) % m for c, t in zip(self.coeffs, top)), ctx
        )
        if self._digits is not None:
            out._digits = self._digits[:-1] + ((self._digits[-1] + s) % ctx.ell,)
        return out

    # -- precision management ---------------------------------------------

    def truncate(self, n: int) -> "CycloElt":
        if n > self.ctx.precision:
            raise DomainError("cannot truncate upward")
        ctx = self.ctx.at_precision(n)
        m = ctx.modulus
        out = CycloElt.from_reduced(tuple(c % m for c in self.coeffs), ctx)
        if self._digits is not None:
            out._digits = self._digits[:n]
        return out

    def pad_zero(self, n: int) -> "CycloElt":
        """Choose the representative with zero high digits at precision n."""
        if n < self.ctx.precision:
            raise DomainError("pad_zero only extends precision")
        ctx = self.ctx.at_precision(n)
        m = ctx.modulus
        out = CycloElt.from_reduced(
            tuple(c % m for c in poly_from_digits(self.digits, ctx.ell)), ctx
        )
        out._digits = self.digits + (0,) * (n - self.ctx.precision)
        return out

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "ell": self.ctx.ell,
            "precision": self.ctx.precision,
            "digits": list(self.digits),
        }

    @staticmethod
    def from_json_dict(d: dict) -> "CycloElt":
        return CycloElt(RingCtx(d["ell"], d["precision"]), tuple(d["digits"]))

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @staticmethod
    def from_json(s: str) -> "CycloElt":
        return CycloElt.from_json_dict(json.loads(s))

    def __repr__(self):
        return f"CycloElt(ell={self.ctx.ell}, digits={list(self.digits)})"


# ---------------------------------------------------------------------------
# Division by rational integers and the truncated log / exp.


def div_by_int(a: CycloElt, k: int) -> CycloElt:
    """Exact division by a nonzero integer k = +-ell^s * k' with k' prime to ell.

    ell^s O = lambda^((ell-1)s) O contains lambda^n O, so a is divisible
    exactly when its coefficients are divisible by ell^s; they are divided
    as integers, and the result lives at precision n - (ell-1)s.  Then
    +-k' is inverted mod the modulus of that precision.
    """
    if k == 0:
        raise ZeroDivisionError
    ctx = a.ctx
    ell = ctx.ell
    unit, s = k, 0
    while unit % ell == 0:
        unit //= ell
        s += 1
    coeffs = a.coeffs
    if s:
        q = ell**s
        loss = (ell - 1) * s
        if loss > ctx.precision or any(c % q for c in coeffs):
            raise DomainError(f"element not divisible by ell^{s}")
        ctx = ctx.at_precision(ctx.precision - loss)
        coeffs = [c // q for c in coeffs]
    m = ctx.modulus
    inv = pow(unit, -1, m)
    return CycloElt.from_reduced(tuple(c * inv % m for c in coeffs), ctx)


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
    w_ext = CycloElt.from_reduced(w.coeffs, ctx.at_precision(n_ext))  # any lift will do
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
    x_ext = CycloElt.from_reduced(x.coeffs, ctx.at_precision(n_ext))  # any lift will do
    total = CycloElt.one(ctx.at_precision(n))
    power = CycloElt.one(ctx.at_precision(n_ext))
    fact = 1
    for k in range(1, kmax + 1):
        power = power * x_ext
        fact *= k
        total = total + div_by_int(power, fact).truncate(n)
    return total
