"""Reference algorithms the tests compare lamadic's ring, matrix and curve
layers against.  They share no code path with the implementation: ring
elements are read on the power basis 1, zeta, ..., zeta^(ell-2) (zeta_coeffs)
instead of lamadic's lambda-adic coordinates, where products are schoolbook
multiplication or Kronecker substitution mod Phi_ell, conjugation and
sigma_j permute exponents, digits are peeled through the lambda basis and
inverses, quotients, log and exp are computed on coefficients, membership in
lambda^n is decided through the norm, determinants by cofactor expansion,
filtration orders by summing the slice dimensions level by level, the
order of the anti-fixed log generators in O/lambda^m by a Smith form over
Z/ell^k of the power-basis relations,
trinomial discriminants by their closed form, slice membership and the
half-system T'' action from their defining formulas, random SU members
by multiplying each lift by its twist and their slices by summing dense
basis matrices, and the orders of -zeta and of
1 + ell^(1+e) and the torsion exponent of a unit by powering and search,
powers mod (f, p) by square and multiply with a long division after each
product, linear systems by Gauss-Jordan elimination over Fractions, and the
Galois certificate's witnesses from the full cycle type of every sampled
prime, with no parity filter and no early stop.
"""

from fractions import Fraction
from functools import lru_cache
from math import comb

from lamadic.curves import _distinct_degree, _poldivmod, _polmul, rational_factor
from lamadic.lattices import AbelianPresentation, is_anti_fixed, u_lr_member
from lamadic.matrices import MatLocal, lift_su, mat_zero
from lamadic.ring import CycloElt, DomainError, RingCtx, div_by_int, exp, log1p


def mul_mod_phi(a, b, ell):
    """Schoolbook product of two power-basis coefficient lists mod Phi_ell."""
    prod = [0] * (2 * ell)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    cyc = [0] * ell  # mod zeta^ell - 1
    for e, c in enumerate(prod):
        cyc[e % ell] += c
    return [c - cyc[ell - 1] for c in cyc[: ell - 1]]  # zeta^(ell-1) = -sum


@lru_cache(maxsize=None)
def _nu_power(ell, n):
    """nu^n with nu = ell / lambda = prod_{j=2}^{ell-1} (1 - zeta^j)."""
    nu = [1] + [0] * (ell - 2)
    for j in range(2, ell):
        factor = [0] * ell
        factor[0] = 1
        factor[j] -= 1
        # fold the single term zeta^j with j <= ell - 1 into the power basis
        factor = [c - factor[ell - 1] for c in factor[: ell - 1]]
        nu = mul_mod_phi(nu, factor, ell)
    acc = [1] + [0] * (ell - 2)
    for _ in range(n):
        acc = mul_mod_phi(acc, nu, ell)
    return tuple(acc)


def in_lambda_n(poly, ell, n):
    """Whether the power-basis polynomial lies in lambda^n O.

    lambda * nu = Phi_ell(1) = ell, so x / lambda^n = x nu^n / ell^n, which
    is integral exactly when every coefficient of x nu^n is divisible by
    ell^n."""
    poly = list(poly) + [0] * (ell - 1 - len(poly))
    return all(c % ell**n == 0 for c in mul_mod_phi(poly, _nu_power(ell, n), ell))


def lift_digits(digits, ell):
    """sum_i digits[i] * lambda^i in the power basis."""
    lam = [1, -1] + [0] * (ell - 3)
    acc = [0] * (ell - 1)
    power = [1] + [0] * (ell - 2)
    for d in digits:
        acc = [x + d * y for x, y in zip(acc, power)]
        power = mul_mod_phi(power, lam, ell)
    return acc


def digit(m, k):
    """The k-th digit matrix of a MatLocal over F_ell, read entrywise from
    the digits of its entries."""
    return [[e.digits[k] for e in row] for row in m.entries]


# ---------------------------------------------------------------------------
# The power basis: integer tuples of length ell-1, reduced mod
# m = ell^ceil(n/(ell-1)), which kills O/lambda^n.  Several integer tuples
# stand for one element; zeta_digits reads its canonical digits.


def zeta_poly(coords, ell):
    """sum b_i (1 - zeta)^i on the power basis, for lambda-coordinates b_i,
    i <= ell-2, as exact integers."""
    out = [0] * (ell - 1)
    for i, b in enumerate(coords):
        for k in range(i + 1):
            out[k] += b * (-1) ** k * comb(i, k)
    return out


def zeta_coeffs(x):
    """The power-basis coefficients of a CycloElt, mod ell^ceil(n/(ell-1))."""
    m = x.ctx.modulus
    return tuple(c % m for c in zeta_poly(x.coords, x.ctx.ell))


def zeta_reduced(poly, ell, m):
    """An integer polynomial in zeta on the power basis, mod m."""
    folded = [0] * ell
    for e, c in enumerate(poly):
        folded[e % ell] += c
    return tuple((c - folded[ell - 1]) % m for c in folded[:ell - 1])


def _pack(coeffs, width):
    x = 0
    for c in reversed(coeffs):
        x = (x << width) | c
    return x


def zeta_mul(a, b, ell, m):
    """The product of reduced coefficients by Kronecker substitution: the
    2ell-3 slots fold with zeta^ell = 1, then zeta^(ell-1) = -(1 + ... +
    zeta^(ell-2)) takes the top slot out of the others."""
    width = ((ell - 1) * (m - 1) ** 2).bit_length()
    x = _pack(a, width) * _pack(b, width)
    low = ell * width
    x = (x & ((1 << low) - 1)) + (x >> low)
    mask = (1 << width) - 1
    top = x >> ((ell - 1) * width)
    return tuple((((x >> s) & mask) - top) % m for s in range(0, (ell - 1) * width, width))


def zeta_conjugate(c, m):
    """zeta^e -> zeta^(ell-e) read off the coefficients: zeta^(ell-1) =
    -(1 + ... + zeta^(ell-2)) subtracts c_1 from every coefficient."""
    c1 = c[1]
    return ((c[0] - c1) % m, -c1 % m) + tuple((x - c1) % m for x in c[:1:-1])


def zeta_poly_galois(a, j, ell):
    """sigma_j: zeta -> zeta^j on a reduced polynomial, exact."""
    out = [0] * ell
    for e, c in enumerate(a):
        out[(e * j) % ell] += c
    return tuple(c - out[ell - 1] for c in out[:ell - 1])


@lru_cache(maxsize=None)
def _zeta_lambda_powers(ell, n):
    """lambda^0, ..., lambda^(n-1) on the power basis, exact."""
    lam = [1, -1] + [0] * (ell - 3)
    powers = [tuple([1] + [0] * (ell - 2))]
    for _ in range(1, n):
        powers.append(tuple(mul_mod_phi(powers[-1], lam, ell)))
    return powers


def zeta_digits(coeffs, ell, n):
    """The n lambda-adic digits of sum c_k zeta^k, peeled one at a time.
    Digit t = q(ell-1) + s of an element of order at least t is (-1)^q u
    mod ell, where ell^q u is its coefficient b_s on the lambda basis
    (b_s = sum_k (-1)^s C(k, s) c_k, as zeta^k = (1 - lambda)^k)."""
    rest = list(coeffs)
    digits = []
    for t, power in enumerate(_zeta_lambda_powers(ell, n)):
        q, s = divmod(t, ell - 1)
        b = sum((-1) ** s * comb(k, s) * c for k, c in enumerate(rest) if k >= s)
        if b % ell**q:
            raise AssertionError("the rest is not in lambda^t")
        u = b // ell**q
        digits.append((-u if q % 2 else u) % ell)
        rest = [c - digits[-1] * x for c, x in zip(rest, power)]
    return tuple(digits)


def zeta_inverse(c, ell, m):
    """Newton's iteration x -> x (2 - a x) at full precision from the
    inverse of the residue sum(c) mod ell, until a x = 1 mod m."""
    x = (pow(sum(c) % ell, -1, ell),) + (0,) * (ell - 2)
    one = (1,) + (0,) * (ell - 2)
    while zeta_mul(c, x, ell, m) != one:
        ax = zeta_mul(c, x, ell, m)
        x = zeta_mul(x, ((2 - ax[0]) % m,) + tuple(-y % m for y in ax[1:]), ell, m)
    return x


def zeta_div_by_int(c, k, ell, n):
    """(coefficients, precision) of c / k for k = ell^s k': the coefficients
    divided by ell^s (None unless they are divisible, or when (ell-1)s
    reaches n and no digit would be left), then times k'^(-1) mod the
    modulus at n - (ell-1)s."""
    s = 0
    while k % ell == 0:
        k //= ell
        s += 1
    if (ell - 1) * s >= n or any(x % ell**s for x in c):
        return None
    n -= (ell - 1) * s
    m = ell ** -(-n // (ell - 1))
    return tuple(x // ell**s * pow(k, -1, m) % m for x in c), n


def zeta_log1p(c, ell, n):
    """log(1 + w) = sum_(k<=n) (-1)^(k+1) w^k / k for w = c - 1, each power
    at a precision extended by (ell-1) ord_ell(k) for the division."""
    ext = n + (ell - 1) * max(s for s in range(n + 1) if ell**s <= n)
    m_ext, m = ell ** -(-ext // (ell - 1)), ell ** -(-n // (ell - 1))
    w = ((c[0] - 1) % m_ext,) + tuple(x % m_ext for x in c[1:])
    total, power = (0,) * (ell - 1), (1,) + (0,) * (ell - 2)
    for k in range(1, n + 1):
        power = zeta_mul(power, w, ell, m_ext)
        term = zeta_div_by_int(power, (-1) ** (k + 1) * k, ell, ext)[0]
        total = tuple((a + b) % m for a, b in zip(total, term))
    return total


def zeta_exp(c, ell, n):
    """exp(x) = sum_(k<=n) x^k / k!, each power at a precision extended by
    (ell-1) ord_ell(n!) for the division."""
    v, f = 0, ell
    while f <= n:
        v += n // f
        f *= ell
    ext = n + (ell - 1) * v
    m_ext, m = ell ** -(-ext // (ell - 1)), ell ** -(-n // (ell - 1))
    x = tuple(a % m_ext for a in c)
    total, power, fact = (1,) + (0,) * (ell - 2), (1,) + (0,) * (ell - 2), 1
    for k in range(1, n + 1):
        power = zeta_mul(power, x, ell, m_ext)
        fact *= k
        term = zeta_div_by_int(power, fact, ell, ext)[0]
        total = tuple((a + b) % m for a, b in zip(total, term))
    return total


def det_cofactor(a):
    """O-linear determinant of a MatLocal by cofactor expansion along rows,
    memoized over column subsets: 2^d exact products in Z[zeta]."""
    d = a.dim
    ell = a.ctx.ell
    lifts = [[zeta_coeffs(e) for e in row] for row in a.entries]
    memo = {}

    def minor(row, colmask):
        if row == d:
            return [1] + [0] * (ell - 2)
        if colmask in memo:
            return memo[colmask]
        total = [0] * (ell - 1)
        sign = 1
        for j in range(d):
            if colmask & (1 << j):
                entry = lifts[row][j]
                if any(entry):
                    term = mul_mod_phi(entry, minor(row + 1, colmask & ~(1 << j)), ell)
                    total = [t + sign * c for t, c in zip(total, term)]
                sign = -sign
        memo[colmask] = total
        return total

    return CycloElt.from_poly(minor(0, (1 << d) - 1), a.ctx)


def _polymod_mul(a, b, phi):
    """Multiply in Q[x]/phi(x), phi monic with integer coefficients."""
    deg = len(phi) - 1
    prod = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                if cb:
                    prod[i + j] += ca * cb
    for k in range(len(prod) - 1, deg - 1, -1):
        c = prod[k]
        if c:
            for t in range(deg + 1):
                prod[k - deg + t] -= c * phi[t]
    return prod[:deg] + [Fraction(0)] * (deg - len(prod[:deg]))


def h_minus_bernoulli(ell):
    """h^- = 2 ell prod over the odd characters chi of -B_{1,chi}/2, with
    B_{1,chi} = (1/ell) sum_a a chi(a), evaluated exactly in the cyclotomic
    field Q[x]/Phi_(ell-1) with a primitive root g found by search."""
    from sympy import Poly, symbols
    from sympy.polys.specialpolys import cyclotomic_poly

    m = ell - 1
    x = symbols("x")
    phi = [Fraction(int(c)) for c in Poly(cyclotomic_poly(m, x), x).all_coeffs()[::-1]]
    deg = len(phi) - 1
    g = next(g for g in range(2, ell)
             if all(pow(g, m // q, ell) != 1 for q in range(2, m + 1)
                    if m % q == 0 and all(q % s for s in range(2, q))))
    dlog = {pow(g, e, ell): e for e in range(m)}
    zpow = []  # zeta_m^e = x^e in Q[x]/Phi_m
    cur = [Fraction(1)] + [Fraction(0)] * (deg - 1)
    xpoly = [Fraction(0), Fraction(1)] + [Fraction(0)] * (deg - 2) if deg > 1 else [-phi[0]]
    for _ in range(m):
        zpow.append(cur)
        cur = _polymod_mul(cur, xpoly, phi)
    product = [Fraction(1)] + [Fraction(0)] * (deg - 1)
    for k in range(1, m, 2):  # odd characters chi_k(g^e) = zeta_m^(k e)
        b1 = [Fraction(0)] * deg
        for a in range(1, ell):
            for t, z in enumerate(zpow[(k * dlog[a]) % m]):
                b1[t] += Fraction(a, ell) * z
        product = _polymod_mul(product, [Fraction(-1, 2) * c for c in b1], phi)
    result = [2 * ell * c for c in product]
    assert not any(result[1:]) and result[0].denominator == 1
    return int(result[0])


def local_index_exponent(columns, dim, ell, depth):
    """log_ell of [Z_ell^dim : span(columns)], for a span that contains
    ell^(depth-1) Z^dim: a Smith form over Z/ell^depth, pivoting on an
    entry of least ell-adic valuation."""
    mod = ell**depth

    def val(x):
        v = 0
        while x % ell == 0 and v < depth:
            x //= ell
            v += 1
        return v

    rows = [[c[i] % mod for c in columns] for i in range(dim)]
    total = 0
    for k in range(dim):
        cands = [(val(rows[i][j]), i, j) for i in range(k, dim)
                 for j in range(k, len(columns)) if rows[i][j]]
        if not cands:
            return total + depth * (dim - k)
        v, i, j = min(cands)
        rows[k], rows[i] = rows[i], rows[k]
        for row in rows:
            row[k], row[j] = row[j], row[k]
        total += v
        unit = pow(rows[k][k] // ell**v, -1, mod)
        for i in range(dim):
            if i != k and rows[i][k]:
                f = rows[i][k] // ell**v * unit % mod
                rows[i] = [(a - f * b) % mod for a, b in zip(rows[i], rows[k])]
        for j in range(len(columns)):
            if j != k and rows[k][j]:
                f = rows[k][j] // ell**v * unit % mod
                for row in rows:
                    row[j] = (row[j] - f * row[k]) % mod
    return total


def additive_ring_presentation(ell, m):
    """The additive group of O/lambda^m on the zeta-power basis, with
    relation columns lambda^m * zeta^t, t < ell-1."""
    zeta = [0, 1] + [0] * (ell - 3)
    cols = [list(_zeta_lambda_powers(ell, m + 1)[m])]
    for _ in range(ell - 2):
        cols.append(mul_mod_phi(cols[-1], zeta, ell))
    return AbelianPresentation(ell - 1, tuple(zip(*cols)))


def anti_fixed_generators(ell):
    """lambda^i - conj(lambda)^i, i = 2..(ell+1)/2, on the power basis."""
    powers = _zeta_lambda_powers(ell, (ell + 3) // 2)[2:]
    return [[a - b for a, b in zip(p, zeta_poly_galois(p, ell - 1, ell))] for p in powers]


def anti_fixed_exponent_by_smith_form(ell, m):
    """log_ell of the order of the subgroup of O/lambda^m generated by
    anti_fixed_generators: m minus the index exponent of the relations and
    generators together, from their Smith form."""
    rel = [list(c) for c in zip(*additive_ring_presentation(ell, m).relations)]
    depth = -(-m // (ell - 1)) + 1
    return m - local_index_exponent(rel + anti_fixed_generators(ell), ell - 1, ell, depth)


def trinomial_discriminant(n, a, b):
    """Closed form for the discriminant of x^n + a x + b."""
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return sign * (n**n * b ** (n - 1) + (-1) ** (n - 1) * (n - 1) ** (n - 1) * a**n)


def filtration_order_sum(d, n, k, group="SU"):
    """The exponent of |G(V/lambda^n)_k| as the sum of the slice dimensions
    at the levels k+1, ..., n: d(d-1)/2 at odd levels, d(d+1)/2 at even
    ones, less the trace condition for SU."""
    return sum(d * (d - 1) // 2 if level % 2 else d * (d + 1) // 2 - (group == "SU")
               for level in range(k + 1, n + 1))


def su_slice_predicate(m, gamma, ell, parity_n, group="SU"):
    """Gamma M = (-1)^n M^T Gamma over F_ell, and tr M = 0 for SU, for the
    diagonal Gram matrix Gamma = diag(gamma)."""
    d = len(gamma)
    sign = (-1) ** parity_n
    if any((gamma[i] * m[i][j] - sign * m[j][i] * gamma[j]) % ell
           for i in range(d) for j in range(d)):
        return False
    return group != "SU" or sum(m[i][i] for i in range(d)) % ell == 0


def t_doubleprime_apply(r, x):
    """sum over the half-system j = 1..(ell-1)/2 of 2 n'(j) sigma_j on an
    anti-fixed x, with 2 n'(j) = 2 floor(r (ell - j) / ell) - (r - 1)."""
    ell = x.ctx.ell
    if not (x + x.conjugate()).is_zero():
        raise ValueError("input must be anti-fixed")
    acc = CycloElt.zero(x.ctx)
    for j in range(1, (ell - 1) // 2 + 1):
        acc = acc + x.galois(j) * (2 * (r * (ell - j) // ell) - (r - 1))
    return acc


def su_basis(form, parity_n, group="SU"):
    """The slice basis of HermitianForm.slice_basis as dense matrices over
    F_ell."""
    basis = []
    for entries in form.slice_basis(parity_n, group):
        m = mat_zero(form.dim)
        for i, j, x in entries:
            m[i][j] = x
        basis.append(m)
    return basis


def random_slice_by_basis_sum(form, parity_n, rng):
    """sum c_k B_k over the dense matrices B_k of su_basis, the coefficients
    c_k = rng.randrange(ell) drawn first, in basis order: O(d^4)."""
    basis = su_basis(form, parity_n)
    coefs = [rng.randrange(form.ctx.ell) for _ in basis]
    d = form.dim
    return [[sum(c * b[i][j] for c, b in zip(coefs, basis)) for j in range(d)]
            for i in range(d)]


def random_su_element_by_twist_products(form, precision, rng):
    """random_su_element as a product: each lift is multiplied by the twist
    I + lambda^m S through a full matrix product, drawing S the same way.
    It shares the lift and the slice basis with lamadic and checks only
    that adding lambda^m S equals the product."""
    d = form.dim
    a = MatLocal.identity(form.ctx.at_precision(1), d)
    for m in range(1, precision):
        a = lift_su(a, form)
        s = random_slice_by_basis_sum(form, m + 1, rng)
        eye = [[int(i == j) for j in range(d)] for i in range(d)]
        zero = [[0] * d for _ in range(d)]
        twist = MatLocal.from_digit_matrices(a.ctx, d, [eye] + [zero] * (m - 1) + [s])
        a = a * twist
    return a


def torsion_order_by_powering(ell, m):
    """Order of -zeta in the units of O/lambda^m, multiplying until 1."""
    ctx = RingCtx(ell, m)
    mz = -CycloElt.zeta(ctx, 1)
    one = CycloElt.one(ctx)
    order, acc = 1, mz
    while acc != one:
        acc = acc * mz
        order += 1
        if order > 2 * ell:
            raise AssertionError("torsion order exceeded 2*ell")
    return order


def rational_order_by_ell_powers(ell, r, m):
    """Order of 1 + ell^(1+e), e = ord_ell(r-1), in the units of O/lambda^m,
    raising to the ell-th power until 1."""
    e = 0
    while (r - 1) % ell ** (e + 1) == 0:
        e += 1
    ctx = RingCtx(ell, m)
    one = CycloElt.one(ctx)
    acc = CycloElt.from_int(1 + ell ** (1 + e), ctx)
    order = 1
    while acc != one:
        acc = acc**ell
        order *= ell
        if order > ell ** (m + 2):
            raise AssertionError("order did not terminate")
    return order


def torsion_exponent_by_search(w):
    """The first e in [0, 2 ell) with w (-zeta)^(-e) = 1 mod lambda^2, or None."""
    ctx = w.ctx
    minus_zeta = -CycloElt.zeta(ctx, 1)
    for e in range(2 * ctx.ell):
        u = w * minus_zeta ** ((-e) % (2 * ctx.ell))
        if (u - CycloElt.one(ctx)).ord_lambda >= 2:
            return e
    return None


def decompose_unit_by_search(d, r):
    """decompose_unit with the torsion exponent found by trying every e."""
    if not u_lr_member(d, r):
        raise DomainError("not a member")
    rho = exp(div_by_int(log1p(d * d.conjugate()), 2))
    w = d * rho.inverse()
    e = torsion_exponent_by_search(w)
    if e is None:
        raise DomainError("no torsion representative found")
    x = log1p(w * (-CycloElt.zeta(d.ctx, 1)) ** ((-e) % (2 * d.ctx.ell)))
    if not is_anti_fixed(x):
        raise AssertionError("log of the unitary part must be anti-fixed")
    return e, rho, x


def polpow_by_division(base, e, f, m):
    """base^e mod (f, m) by square and multiply, each product reduced by
    long division by f."""
    base = _poldivmod(base, f, m)[1]
    result = [1]
    while e:
        if e & 1:
            result = _poldivmod(_polmul(result, base, m), f, m)[1]
        base = _poldivmod(_polmul(base, base, m), f, m)[1]
        e >>= 1
    return result


def solve_over_fractions(rows, rhs_columns):
    """linalg.solve by Gauss-Jordan elimination over Q: each pivot row is
    scaled to 1 and cleared from every other row, one pass for all
    right-hand sides."""
    ncols = len(rows[0])
    aug = [[Fraction(x) for x in row] + [Fraction(b) for b in rhs]
           for row, rhs in zip(rows, zip(*rhs_columns))]
    for col in range(ncols):
        piv = next((r for r in range(col, len(aug)) if aug[r][col]), None)
        if piv is None:
            raise DomainError("columns are dependent")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r, row in enumerate(aug):
            if r != col and row[col]:
                f = row[col]
                aug[r] = [x - f * y for x, y in zip(row, aug[col])]
    if any(any(row[ncols:]) for row in aug[ncols:]):
        raise DomainError("inconsistent system")
    return [list(col) for col in zip(*(row[ncols:] for row in aug[:ncols]))]


def witness_kinds_by_definition(ct, r):
    """The witness kinds of galois_certificate that the complete cycle type
    ct (sorted) of a degree-r f mod p supplies: irreducible for [r],
    transposition when the even parts are exactly one 2, prime_cycle for
    exactly one part above 1, a prime q (sympy) with r/2 < q < r."""
    from sympy import isprime

    longs = [c for c in ct if c > 1]
    kinds = set()
    if ct == [r]:
        kinds.add("irreducible")
    if [c for c in ct if c % 2 == 0] == [2]:
        kinds.add("transposition")
    if len(longs) == 1 and isprime(longs[0]) and r / 2 < longs[0] < r:
        kinds.add("prime_cycle")
    return kinds


def galois_certificate_unpruned(f, budget=500):
    """(status, witnesses) of galois_certificate by the walk that factors
    every sampled prime in full: the odd primes not dividing disc f, in
    increasing order, budget of them at most, each cycle type read from all
    of _distinct_degree's blocks.  A reducible f gets rational_factor's
    factor."""
    from sympy import nextprime

    factor = rational_factor(f)
    if factor is not None:
        return "reducible", {"factor": list(factor.coeffs)}
    witnesses = {"irreducible": None, "transposition": None, "prime_cycle": None}
    p, sampled = 2, 0
    while sampled < budget and None in witnesses.values():
        p = nextprime(p)
        if f.disc % p == 0:
            continue
        sampled += 1
        ct = sorted(d for d, g in _distinct_degree(f, p) for _ in range((len(g) - 1) // d))
        for kind in witness_kinds_by_definition(ct, f.degree):
            if witnesses[kind] is None:
                witnesses[kind] = {"p": p, "cycle_type": ct}
    return ("symmetric" if None not in witnesses.values() else "inconclusive"), witnesses
