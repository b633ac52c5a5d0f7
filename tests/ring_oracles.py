"""Reference algorithms the tests compare lamadic's ring and matrix layers
against.  They share no code path with the implementation: products are
schoolbook multiplication mod Phi_ell written here, membership in lambda^n
is decided through the norm, and determinants by cofactor expansion.
"""

from functools import lru_cache

from lamadic.ring import CycloElt, zeta_poly_add, zeta_poly_mul


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


def det_cofactor(a):
    """O-linear determinant of a MatLocal by cofactor expansion along rows,
    memoized over column subsets: 2^d exact products in Z[zeta]."""
    d = a.dim
    ell = a.ctx.ell
    lifts = [[e.lift_poly() for e in row] for row in a.entries]
    zero = (0,) * (ell - 1)
    memo = {}

    def minor(row, colmask):
        if row == d:
            return (1,) + (0,) * (ell - 2)
        if colmask in memo:
            return memo[colmask]
        total = zero
        sign = 1
        for j in range(d):
            if colmask & (1 << j):
                entry = lifts[row][j]
                if any(entry):
                    term = zeta_poly_mul(entry, minor(row + 1, colmask & ~(1 << j)), ell)
                    if sign < 0:
                        term = tuple(-c for c in term)
                    total = zeta_poly_add(total, term)
                sign = -sign
        memo[colmask] = total
        return total

    return CycloElt.from_poly(minor(0, (1 << d) - 1), a.ctx)
