"""Unit groups of the local cyclotomic ring: membership in the norm-
congruence unit group, the logarithmic basis of the anti-fixed part, the
infinity-type maps acting on log coordinates, orders of finite abelian
quotients, and the cokernel-exponent cross-check against the half-system
determinant.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from . import linalg
from .ring import (
    CheckFailed,
    CycloElt,
    DomainError,
    NotAUnit,
    RingCtx,
    check_ell_r,
    coords_add_int,
    div_by_int,
    exp,
    lambda_digit,
    log1p,
    reduce_zeta_poly,
    residue,
)
from .classnum import (
    demjanenko_det,
    fraction_det,
    half_system,
    ord_p,
    primitive_root,
    twice_half_system,
    twice_n_prime,
)


# ---------------------------------------------------------------------------
# Exact Z[zeta] helpers on the power basis 1, zeta, ..., zeta^(ell-2):
# integer tuples of length ell-1.


def _zeta_galois(a: tuple, j: int, ell: int) -> tuple:
    """sigma_j: zeta -> zeta^j on a reduced polynomial."""
    out = [0] * ell
    for e, c in enumerate(a):
        out[(e * j) % ell] += c
    return reduce_zeta_poly(out, ell)


def anti_fixed_basis_coords(ell: int):
    """Exact zeta-coordinates of lambda^i - conj(lambda)^i, i = 2..(ell+1)/2:
    (1 - zeta)^i - (1 - zeta^(-1))^i = sum_j (-1)^j C(i, j) (zeta^j - zeta^(-j))."""
    out = []
    for i in range(2, (ell + 1) // 2 + 1):
        raw = [0] * ell
        for j in range(1, i + 1):
            c = (-1) ** j * comb(i, j)
            raw[j] += c
            raw[-j] -= c
        out.append(reduce_zeta_poly(raw, ell))
    return out


# ---------------------------------------------------------------------------
# Membership and decomposition of units.


def is_galois_stable(x: CycloElt) -> bool:
    """x is fixed by every sigma_j: Gal(K/Q) is cyclic, so by sigma_g for a
    primitive root g."""
    return x.galois(primitive_root(x.ctx.ell)) == x


def is_anti_fixed(x: CycloElt) -> bool:
    return (x + x.conjugate()).is_zero()


def u_lr_member(d: CycloElt, r: int) -> bool:
    """d is a unit whose norm d * conj(d) is rational (Galois-stable at the
    working precision) and congruent to 1 modulo ell*(r - 1)."""
    ctx = d.ctx
    check_ell_r(ctx.ell, r)
    if not d.is_unit:
        raise NotAUnit("membership is defined for units")
    v = d * d.conjugate()
    if not is_galois_stable(v):
        return False
    required = (ctx.ell - 1) * (1 + ord_p(r - 1, ctx.ell))
    return (v - CycloElt.one(ctx)).ord_lambda >= min(required, ctx.precision)


@dataclass(frozen=True)
class UnitLattice:
    """Log coordinates of the anti-fixed unit part."""

    ctx: RingCtx
    log_generators: tuple

    def __post_init__(self):
        for x in self.log_generators:
            if not is_anti_fixed(x):
                raise DomainError("log generators must be anti-fixed")


def u_prime_basis(ell: int, precision: int) -> UnitLattice:
    """Log generators lambda^i - conj(lambda)^i for i = 2..(ell+1)/2, built
    from their zeta-coordinates (anti_fixed_basis_coords)."""
    if precision < 4:
        raise DomainError("need precision >= 4")
    ctx = RingCtx(ell, precision)
    gens = (CycloElt.from_poly(c, ctx) for c in anti_fixed_basis_coords(ell))
    return UnitLattice(ctx, tuple(gens))


def infinity_type_apply(r: int, x: CycloElt, variant: str = "T") -> CycloElt:
    """Apply sum_j c_j sigma_j on log coordinates, c_j = n(j) or n'(j).

    Half-integral n'(j) (r even) are handled by doubling and dividing by 2,
    a unit in the local ring.
    """
    ctx = x.ctx
    if x.ord_lambda < 2:
        raise DomainError("log coordinates must have lambda-order >= 2")
    if variant not in ("T", "Tprime"):
        raise ValueError(f"unknown variant {variant!r}")
    # 2 n(j) = 2 n'(j) + (r - 1)
    shift = r - 1 if variant == "T" else 0
    acc = CycloElt.zero(ctx)
    for j, twice in twice_n_prime(ctx.ell, r).items():
        coef = twice + shift
        if coef:
            acc = acc + x.galois(j) * coef
    return div_by_int(acc, 2)


def decompose_unit(d: CycloElt, r: int):
    """Factor a member as (-zeta)^e * rho * exp(x) with rho Galois-stable
    and x anti-fixed; returns (e, rho, x).  Finite-precision version of the
    three-factor product decomposition."""
    ctx = d.ctx
    if not u_lr_member(d, r):
        raise DomainError("not a member")
    v = d * d.conjugate()
    rho = exp(div_by_int(log1p(v), 2))
    w = d * rho.inverse()
    e = _torsion_exponent(w)
    minus_zeta = -CycloElt.zeta(ctx, 1)
    x = log1p(w * minus_zeta ** ((-e) % (2 * ctx.ell)))
    if not is_anti_fixed(x):
        raise CheckFailed("log of the unitary part must be anti-fixed")
    if minus_zeta**e * rho * exp(x) != d:
        raise CheckFailed("factors must recombine")
    return e, rho, x


def _torsion_exponent(w: CycloElt) -> int:
    """The e in [0, 2 ell) with w = (-zeta)^e mod lambda^2, read from the
    first two digits: (-zeta)^e = s (1 - e lambda) mod lambda^2 with
    s = (-1)^e, so e = -s d_1 mod ell and e = (1 - s)/2 mod 2.  d_0 is the
    residue and d_1 the lambda_digit of w - d_0."""
    ctx, c = w.ctx, w.coords
    ell = ctx.ell
    d0 = residue(c, ell)
    if ctx.precision < 2 or d0 not in (1, ell - 1):
        raise DomainError("no torsion representative found")
    s = 1 if d0 == 1 else -1
    e = -s * lambda_digit(coords_add_int(c, -d0, ctx), ell, 1) % ell
    return e if e % 2 == (1 - s) // 2 else e + ell


# ---------------------------------------------------------------------------
# Finite abelian groups given by generators and relations.


@dataclass(frozen=True)
class AbelianPresentation:
    """Z^g modulo the integer column span of the relation matrix."""

    generators: int
    relations: tuple  # rows (length generators); columns are relations

    def __post_init__(self):
        if len(self.relations) != self.generators:
            raise ValueError("relation matrix must have one row per generator")


def abelian_order(p: AbelianPresentation, generator_columns) -> int:
    """Order of the subgroup generated by the given coordinate columns
    inside the presented group.  The group order annihilates the group, so
    the joint span is folded modulo it."""
    g = p.generators
    rel_cols = [list(col) for col in zip(*p.relations)]
    total = linalg.lattice_index(g, rel_cols)
    joint = linalg.index_modulo(g, rel_cols + list(generator_columns), total)
    if total % joint:
        raise CheckFailed(f"subgroup index {joint} does not divide the group order {total}")
    return total // joint


# ---------------------------------------------------------------------------
# The cokernel exponent of the doubled infinity type on the anti-fixed part.


def _t_doubleprime_solve(ell: int, r: int, basis):
    """Coordinates, in the given zeta-coordinate basis, of the images of its
    vectors under sum over the half-system of 2 n'(j) sigma_j; one column
    per basis vector."""
    weights = twice_n_prime(ell, r)
    images = []
    for b in basis:
        img = (0,) * (ell - 1)
        for j in half_system(ell):
            c = weights[j]
            if c:
                img = tuple(x + c * y for x, y in zip(img, _zeta_galois(b, j, ell)))
        images.append(img)
    return linalg.solve(list(zip(*basis)), images)


def t_doubleprime_matrix(ell: int, r: int):
    """Exact rational matrix of the doubled map in the log basis
    lambda^i - conj(lambda)^i, solved from zeta-coordinates."""
    cols = _t_doubleprime_solve(ell, r, anti_fixed_basis_coords(ell))
    return [list(row) for row in zip(*cols)]


def infinity_type_matrix_check(ell: int, r: int) -> bool:
    """Independent bookkeeping: the doubled map in the basis
    zeta^i - zeta^(-i) (i in the half system), solved from zeta-coordinates,
    is classnum's half-system matrix [2 n'(i j^(-1))], so the list of its
    columns is that matrix transposed."""
    basis = []
    for i in half_system(ell):
        raw = [0] * ell
        raw[i] += 1
        raw[ell - i] -= 1
        basis.append(reduce_zeta_poly(raw, ell))
    cols = _t_doubleprime_solve(ell, r, basis)
    return cols == [list(col) for col in zip(*twice_half_system(ell, r))]


def lattice_index_check(ell: int, r: int):
    """Cokernel exponent t' of the doubled infinity type on the log lattice,
    checked against ord_ell of the doubled half-system determinant.

    The matrix is integral: each sigma_j preserves the anti-fixed elements
    of lambda^3 O, and the v_i form a Z-basis of them (the proof in
    u_reduction_order), so the doubled map, an integer combination
    of the sigma_j, has integer coordinates in the v_i.  A fraction is
    CheckFailed.  On Z_ell^g the cokernel then has order ell^t' with t' =
    ord_ell of its determinant."""
    rep = demjanenko_det(ell, r)  # first: h^- refuses an ell past its limit
    m = t_doubleprime_matrix(ell, r)
    if any(x.denominator != 1 for row in m for x in row):
        raise CheckFailed("the doubled map is not integral in the log basis")
    t_prime = ord_p(fraction_det(m), ell)
    if t_prime != rep.t:
        raise CheckFailed(f"cokernel exponent {t_prime} != determinant order {rep.t}")
    return t_prime


# ---------------------------------------------------------------------------
# The order of the unit-group reduction at finite level.


def u_reduction_order(ell: int, r: int, m: int):
    """Order of the reduction of the unit group mod lambda^m: torsion x
    rational x anti-fixed factor orders (pairwise trivial intersections).
    Returns (total, parts), the parts the torsion and rational orders and
    the anti-fixed exponent.  (ell, r) is checked once, by check_ell_r,
    and m must be at least 1.

    Torsion.  -zeta has order 2 at m = 1, where zeta = 1, and 2 ell from
    m = 2 on, since 1 + zeta^k = 2 mod lambda is a unit and 1 - zeta^k has
    lambda-order exactly 1 for ell not dividing k.

    Rational.  The image of 1 + ell*(r-1)*Z_ell: with e = ord_ell(r-1),
    (1 + ell^(1+e))^(ell^j) - 1 has lambda-order (ell-1)(1+e+j), so the
    order is ell^max(0, ceil(m/(ell-1)) - 1 - e).

    Anti-fixed.  The image of the log lattice of the anti-fixed elements
    in lambda^3 O: the subgroup of O/lambda^m (additive) generated by the
    log generators v_i = lambda^i - conj(lambda)^i, i = 2..g+1 with
    g = (ell-1)/2, has order ell^max(0, floor((m-2)/2)), for every ell.

    Proof.  (1) conj(lambda) = 1 - zeta^(-1) = -zeta^(-1) lambda, so each
    v_i is anti-fixed.  A nonzero anti-fixed x = u lambda^k, u a unit, has
    odd k: conj(u) = u and zeta = 1 mod lambda give conj(x) = (-1)^k x mod
    lambda^(k+1), and conj(x) = -x.
    (2) Conjugation swaps zeta^k and zeta^(ell-k) in the Z-basis zeta, ...,
    zeta^(ell-1) of O, so the anti-fixed part O^- has Z-basis w_k = zeta^k
    - zeta^(-k), k = 1..g, and its elements in ell O are ell O^-.  Hence
    O^-/ell O^-, of dimension g, embeds in O/ell O = O/lambda^(ell-1), where
    by (1) its leading digits sit at the g odd levels below ell-1: O^- has
    exactly one F_ell of digits at each of them, and, as its elements in
    lambda^(k+ell-1) O are ell times those in lambda^k O, at every odd level.
    (3) v_i = lambda^i (1 - (-zeta^(-1))^i) lies in lambda^3 O (i >= 3, or
    i = 2 and 1 - zeta^(-2) in lambda O), so the v_i lie in A, the elements
    of O^- in lambda^3 O, which has index ell in O^- (the digit at level 1).
    (4) v_i = sum_(j<=i) (-1)^j C(i, j) w_j with w_(g+1) = -w_g.  Up to
    column signs this g x g matrix is [C(i, j)], i = 2..g+1, j = 1..g, of
    determinant g+1, with the entry (g+1, g) raised by 1, whose cofactor is
    the same determinant one size smaller, g.  So the determinant is
    +-(2g+1) = +-ell and the v_i span A, which has one F_ell of digits at
    each odd level from 3 on: its image in O/lambda^m has order ell to the
    number of odd k with 3 <= k < m."""
    check_ell_r(ell, r)
    if m < 1:
        raise DomainError(f"m = {m} must be at least 1")
    parts = {
        "torsion": 2 if m == 1 else 2 * ell,
        "rational": ell ** max(0, -(-m // (ell - 1)) - 1 - ord_p(r - 1, ell)),
        "anti_fixed_exponent": max(0, (m - 2) // 2),
    }
    return parts["torsion"] * parts["rational"] * ell ** parts["anti_fixed_exponent"], parts
