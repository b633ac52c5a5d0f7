"""Matrices over O/lambda^n: determinants from power traces, inverses by
Newton's iteration (no elimination here), unitary-group membership,
su^(n) slices, congruence-filtration orders, the constructive SU lift,
the Weil Gram model with its sign, and the permutation embedding.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, prod
from operator import mul

from . import linalg
from .ring import (
    _ord_ell_factorial,
    CheckFailed,
    CycloElt,
    ContextMismatch,
    DomainError,
    RingCtx,
    RingError,
    check_odd_prime,
    coords_add,
    coords_add_int,
    coords_add_top,
    coords_from_lambda_poly,
    coords_galois,
    coords_lift,
    coords_mul,
    coords_neg,
    coords_reduce,
    coords_scale,
    coords_sub,
    div_by_int,
    jacobi as legendre,
    lambda_digit,
    lambda_order,
    pack,
    product_width,
    residue,
    unpack_reduced,
)


class MembershipError(RingError):
    """Matrix fails a group-membership precondition."""


def mat_zero(d):
    return [[0] * d for _ in range(d)]


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MatLocal:
    """A d x d matrix over O/lambda^n, held as rows of canonical coordinate
    tuples (the coords_* helpers of ring), its one representation.
    CycloElt appears only at the edges: entries and from_rows; digit input
    enters through from_digit_matrices, which turns each entry's digits
    into coordinates, and digits are read only through the entries.
    """

    ctx: RingCtx
    rows: tuple  # d tuples of d coordinate tuples

    def __post_init__(self):
        d = len(self.rows)
        if any(len(row) != d for row in self.rows):
            raise ValueError("matrix must be square")

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def entries(self) -> tuple:
        """The entries as ring elements."""
        ctx = self.ctx
        return tuple(tuple(CycloElt.from_reduced(c, ctx) for c in row) for row in self.rows)

    @staticmethod
    def from_rows(rows) -> "MatLocal":
        """The matrix of rows of ring elements over one context."""
        ctx = rows[0][0].ctx
        if any(e.ctx is not ctx and e.ctx != ctx for row in rows for e in row):
            raise ContextMismatch("entry context differs from matrix context")
        return MatLocal(ctx, tuple(tuple(e.coords for e in row) for row in rows))

    @staticmethod
    def identity(ctx: RingCtx, d: int) -> "MatLocal":
        return MatLocal(ctx, tuple(tuple(ctx.one if i == j else ctx.zero for j in range(d))
                                   for i in range(d)))

    @staticmethod
    def from_digit_matrices(ctx: RingCtx, d: int, digit_mats) -> "MatLocal":
        """Build sum_k lambda^k * D_k from matrices over F_ell."""
        mats = list(digit_mats)[:ctx.precision]
        mats += [mat_zero(d)] * (ctx.precision - len(mats))
        return MatLocal(ctx, tuple(
            tuple(coords_from_lambda_poly([mat[i][j] % ctx.ell for mat in mats], ctx)
                  for j in range(d))
            for i in range(d)
        ))

    # -- arithmetic --------------------------------------------------------

    def _check_dim(self, other: "MatLocal"):
        if self.dim != other.dim:
            raise ValueError(f"matrix dimensions differ: {self.dim} vs {other.dim}")
        if self.ctx != other.ctx:
            raise ContextMismatch("matrix contexts differ")

    def __add__(self, other: "MatLocal") -> "MatLocal":
        self._check_dim(other)
        ctx = self.ctx
        return MatLocal(ctx, tuple(
            tuple(coords_add(x, y, ctx) for x, y in zip(ra, rb))
            for ra, rb in zip(self.rows, other.rows)
        ))

    def __sub__(self, other: "MatLocal") -> "MatLocal":
        self._check_dim(other)
        ctx = self.ctx
        return MatLocal(ctx, tuple(
            tuple(coords_sub(x, y, ctx) for x, y in zip(ra, rb))
            for ra, rb in zip(self.rows, other.rows)
        ))

    def __mul__(self, other: "MatLocal") -> "MatLocal":
        self._check_dim(other)
        # Each entry is packed once; an output entry sums d packed products
        # as plain integers and is reduced once.
        ctx = self.ctx
        w = product_width(ctx, self.dim)
        rows_a = [[pack(c, w) for c in row] for row in self.rows]
        cols_b = [[pack(c, w) for c in col] for col in zip(*other.rows)]
        return MatLocal(ctx, tuple(
            tuple(unpack_reduced(sum(map(mul, row, col)), w, ctx) for col in cols_b)
            for row in rows_a
        ))

    def add_top(self, s) -> "MatLocal":
        """A + lambda^(n-1) S at precision n, for an integer matrix S taken
        mod ell: one coordinate of each entry moves."""
        ctx = self.ctx
        return MatLocal(ctx, tuple(
            tuple(coords_add_top(c, x, ctx) for c, x in zip(row, srow))
            for row, srow in zip(self.rows, s)
        ))

    def scale(self, c: "CycloElt | int") -> "MatLocal":
        ctx = self.ctx
        if isinstance(c, int):
            return MatLocal(ctx, tuple(tuple(coords_scale(x, c, ctx) for x in row)
                                       for row in self.rows))
        return MatLocal(ctx, tuple(tuple(coords_mul(c.coords, x, ctx) for x in row)
                                   for row in self.rows))

    def dagger(self) -> "MatLocal":
        """Conjugate transpose for the involution zeta -> zeta^(-1)."""
        ctx = self.ctx
        return MatLocal(ctx, tuple(
            tuple(coords_galois(c, -1, ctx) for c in col) for col in zip(*self.rows)
        ))

    def truncate(self, n: int) -> "MatLocal":
        if n > self.ctx.precision:
            raise DomainError("cannot truncate upward")
        ctx = self.ctx.at_precision(n)
        return MatLocal(ctx, tuple(tuple(coords_reduce(c, ctx) for c in row)
                                   for row in self.rows))

    def filtration_level(self) -> int:
        """Largest k with A congruent to I mod lambda^k (0 if A_0 != I): the
        least lambda_order of the entries of A - I, read from the
        coordinates."""
        ctx = self.ctx
        level = ctx.precision
        for i, row in enumerate(self.rows):
            for j, c in enumerate(row):
                level = lambda_order(coords_add_int(c, -1, ctx) if i == j else c, ctx.ell, level)
        return level

    def inverse(self) -> "MatLocal":
        """Newton's iteration X -> X (2I - A X) at precisions min(2^j, n), on
        A truncated to each, as in CycloElt.inverse.  The seed inverts the
        residue matrix mod ell through its rational inverse (linalg.solve);
        MembershipError when det A is not a unit, that is when the residue
        matrix is singular over Q or its inverse has ell in a denominator."""
        d, ctx, ell = self.dim, self.ctx, self.ctx.ell
        if not d:
            return self
        singular = MembershipError("matrix is not invertible over the local ring")
        try:
            cols = linalg.solve([[residue(c, ell) for c in row] for row in self.rows],
                                [[int(i == j) for i in range(d)] for j in range(d)])
        except DomainError as e:
            raise singular from e
        if any(f.denominator % ell == 0 for col in cols for f in col):
            raise singular
        x = MatLocal(ctx.at_precision(1), tuple(
            tuple((f.numerator * pow(f.denominator, -1, ell) % ell,) for f in row)
            for row in zip(*cols)))
        while x.ctx.precision < ctx.precision:
            step = ctx.at_precision(min(2 * x.ctx.precision, ctx.precision))
            x = MatLocal(step, tuple(tuple(coords_lift(c, step) for c in row) for row in x.rows))
            ax = self.truncate(step.precision) * x
            x = x * MatLocal(step, tuple(
                tuple(coords_add_int(coords_neg(c, step), 2 * (i == j), step)
                      for j, c in enumerate(row)) for i, row in enumerate(ax.rows)))
        return MatLocal(ctx, x.rows)

    def inverse_neumann(self) -> "MatLocal":
        """(I + M)^(-1) = sum (-M)^k for A = I + M with M = 0 mod lambda."""
        d = self.dim
        ident = MatLocal.identity(self.ctx, d)
        if self.filtration_level() < 1:
            raise MembershipError("Neumann inverse needs A = I mod lambda")
        m = self - ident
        total = ident
        power = ident
        for _ in range(self.ctx.precision):
            power = power.scale(-1) * m
            total = total + power
        return total


# ---------------------------------------------------------------------------
# Determinants.


def det_local(a: MatLocal) -> CycloElt:
    """O-linear determinant from power traces by Newton's identities, for
    every matrix, on the coordinate rows.  No digits are expanded and no
    ring element is inverted.

    With A = I + X, det A = e_0 + ... + e_d, where e_k = e_k(X) is the sum
    of the k x k principal minors of X.  For A = I mod lambda (read from
    the residues) e_k lies in lambda^k, so K = min(n-1, d) terms suffice;
    otherwise K = d.  Newton's identities
    k e_k = sum_(i=1..k) (-1)^(i-1) e_(k-i) p_i with p_i = tr(X^i) hold over
    any commutative ring.  Dividing by k = ell^s k' (div_by_int) loses
    (ell-1)s digits, so the coordinates of A are lifted to precision
    n + (ell-1) v_ell(K!), where every e_k, k <= K, is still known mod
    lambda^n; CheckFailed if k e_k is not divisible by k.  Each p_i is
    tr(X^floor(i/2) X^ceil(i/2)): one packed sum of d^2 products and one
    reduction, after ceil(K/2) - 1 packed matrix products for the powers.
    """
    ctx = a.ctx
    ell, n = ctx.ell, ctx.precision
    rows = a.rows
    d = len(rows)
    level_one = all(residue(c, ell) == (i == j)
                    for i, row in enumerate(rows) for j, c in enumerate(row))
    top = min(n - 1, d) if level_one else d
    ext = ctx.at_precision(n + (ell - 1) * _ord_ell_factorial(top, ell))
    w = product_width(ext, d * d)
    x = [[pack(coords_add_int(coords_lift(c, ext), -1, ext) if i == j else coords_lift(c, ext), w)
          for j, c in enumerate(row)]
         for i, row in enumerate(rows)]
    cols = list(zip(*x))
    powers = [None, x]  # powers[k] holds the packed rows of X^k
    for _ in range(2, (top + 1) // 2 + 1):
        powers.append([
            [pack(unpack_reduced(sum(map(mul, row, col)), w, ext), w) for col in cols]
            for row in powers[-1]
        ])
    # the power traces with their signs, (-1)^(i-1) tr(X^i), packed
    signed = [pack(unpack_reduced(sum(x[i][i] for i in range(d)), w, ext), w)]
    for i in range(2, top + 1):
        low, high = powers[i // 2], powers[i - i // 2]
        tr = unpack_reduced(
            sum(map(mul, (y for row in low for y in row), (y for col in zip(*high) for y in col))),
            w, ext)
        signed.append(pack(coords_neg(tr, ext) if i % 2 == 0 else tr, w))
    elementary = [pack(ext.one, w)]  # e_0, e_1, ..., packed
    det = list(ext.one)
    for k in range(1, top + 1):
        kek = CycloElt.from_reduced(
            unpack_reduced(sum(map(mul, reversed(elementary), signed)), w, ext), ext)
        try:
            ek = div_by_int(kek, k).coords
        except DomainError as e:
            raise CheckFailed(f"k e_k is not divisible by k = {k}") from e
        elementary.append(pack(ek, w))
        det = [a + b for a, b in zip(det, ek)]
    return CycloElt.from_reduced(coords_reduce(det, ctx), ctx)


# ---------------------------------------------------------------------------
# Hermitian forms and membership.


@dataclass(frozen=True)
class HermitianForm:
    """The diagonal Gram matrix Gamma = diag(gamma_1, ..., gamma_d), its
    entries integers that are units mod ell.

    Only ctx.ell is read: the entries are integers, so one form serves
    matrices at every precision.  The form is the only code that knows
    Gamma's shape: the defect A^dagger Gamma A - mu Gamma, the correction
    (1/2) Gamma^(-1) X of a lift, and the slice basis.
    """

    ctx: RingCtx
    gamma: tuple  # integers, units mod ell

    def __post_init__(self):
        for g in self.gamma:
            if g % self.ctx.ell == 0:
                raise ValueError("Gram entries must be units")

    @property
    def dim(self) -> int:
        return len(self.gamma)

    @property
    def sign(self) -> int:
        """The Legendre square class of det Gamma."""
        return legendre(prod(self.gamma), self.ctx.ell)

    @staticmethod
    def standard(ctx: RingCtx, d: int, sign: int = 1) -> "HermitianForm":
        """e^+ = I_d, or e^- = diag(1, ..., 1, alpha) with alpha a non-square."""
        if sign not in (1, -1):
            raise ValueError(f"sign must be 1 or -1, got {sign}")
        if d < 1:
            raise ValueError(f"d = {d} must be at least 1")
        if sign == 1:
            return HermitianForm(ctx, (1,) * d)
        alpha = next(a for a in range(2, ctx.ell) if legendre(a, ctx.ell) == -1)
        return HermitianForm(ctx, (1,) * (d - 1) + (alpha,))

    def defect(self, a: MatLocal, mu: CycloElt | None = None):
        """(mu, rows of coordinates of A^dagger Gamma A - mu Gamma).  Unless
        given, mu is read off the (1,1) entry as h_11 / gamma_1, so that
        entry of the defect is zero.  Gamma A scales row i of A by gamma_i."""
        ctx = a.ctx
        h = a.dagger() * MatLocal(ctx, tuple(
            row if g == 1 else tuple(coords_scale(c, g, ctx) for c in row)
            for g, row in zip(self.gamma, a.rows)
        ))
        if mu is None:
            mu = div_by_int(CycloElt.from_reduced(h.rows[0][0], ctx), self.gamma[0])
        rows = [list(row) for row in h.rows]
        for i, g in enumerate(self.gamma):
            rows[i][i] = coords_sub(rows[i][i], coords_scale(mu.coords, g, ctx), ctx)
        return mu, rows

    def half_inverse(self, x):
        """(1/2) Gamma^(-1) X over F_ell, for a matrix X of integers."""
        ell = self.ctx.ell
        return [[c * v % ell for v in row]
                for c, row in zip((pow(2 * g, -1, ell) for g in self.gamma), x)]

    def slice_basis(self, parity_n: int, group: str = "SU"):
        """A basis of {A : Gamma A = (-1)^n A^T Gamma (, tr A = 0)} over F_ell,
        each element as its nonzero entries (i, j, x): at most two per
        element.  The first C(d, 2) elements are Gamma^(-1) (E_ij +
        (-1)^n E_ji), i < j, in order."""
        ell = self.ctx.ell
        d = self.dim
        ginv = [pow(g, -1, ell) for g in self.gamma]
        sign = (-1) ** parity_n
        basis = [((i, j, ginv[i]), (j, i, sign * ginv[j] % ell))
                 for i in range(d) for j in range(i + 1, d)]
        if parity_n % 2 == 0:
            if group == "SU":
                basis += [((i, i, 1), (d - 1, d - 1, -1 % ell)) for i in range(d - 1)]
            else:
                basis += [((i, i, ginv[i]),) for i in range(d)]
        return basis


@dataclass(frozen=True)
class MembershipVerdict:
    kind: str  # "GU" | "U" | "SU" | "none"
    multiplier: CycloElt | None
    det: CycloElt | None
    failing_entry: tuple | None = None

    def __bool__(self):
        return self.kind != "none"


def _check_form(a: MatLocal, form: HermitianForm):
    """ValueError unless A has the form's dimension and ell."""
    if a.dim != form.dim:
        raise ValueError("dimension mismatch")
    if a.ctx.ell != form.ctx.ell:
        raise ValueError(f"form is over ell = {form.ctx.ell}, matrix over ell = {a.ctx.ell}")


def classify_membership(a: MatLocal, form: HermitianForm) -> MembershipVerdict:
    """Test A^dagger Gamma A = mu Gamma; refine GU -> U -> SU.

    mu is read off the (1,1) position and then checked everywhere.  For
    members, the identity conj(det) * det = mu^d is checked as well.
    """
    _check_form(a, form)
    zero = a.ctx.zero
    mu, defect = form.defect(a)
    for i, row in enumerate(defect):
        for j, c in enumerate(row):
            if c != zero:
                return MembershipVerdict("none", None, None, (i, j))
    if not mu.is_unit:
        return MembershipVerdict("none", None, None, (0, 0))
    dl = det_local(a)
    if dl.conjugate() * dl != mu ** a.dim:
        raise CheckFailed("conj(det)*det != mu^d")
    if mu == CycloElt.one(a.ctx):
        kind = "SU" if dl == CycloElt.one(a.ctx) else "U"
    else:
        kind = "GU"
    return MembershipVerdict(kind, mu, dl)


# ---------------------------------------------------------------------------
# The Weil-pairing Gram model and the sign epsilon.


def weil_gram_and_epsilon(ell: int, r: int, c: int = 1):
    """Gram matrix c*(E - r*I_(r-1)) over F_ell, its square class, and epsilon.

    epsilon is the Legendre symbol (r | ell).  For odd r the determinant's
    square class provably equals the class of r; for even r it depends on
    the unknown unit c (the two forms are then similitude-equivalent), so
    the class is reported without the cross-assertion.  The determinant is
    taken in closed form: E - r*I has the eigenvalue (r-1) - r = -1 on the
    all-ones vector and -r on its (r-2)-dimensional complement, so
    det = c^(r-1) * (-1) * (-r)^(r-2).
    """
    check_odd_prime(ell)
    if r % ell == 0:
        raise DomainError("ell must not divide r")
    if r < 2:
        raise DomainError("need r >= 2")
    if c % ell == 0:
        raise ValueError("c must be a unit mod ell")
    d = r - 1
    gram = [[c * ((1 if i != j else 1 - r)) % ell for j in range(d)] for i in range(d)]
    det = -pow(c, d, ell) * pow(-r, r - 2, ell) % ell
    square_class = legendre(det, ell)
    eps = legendre(r, ell)
    if r % 2 == 1 and square_class != eps:
        raise CheckFailed("Gram determinant class must match class of r")
    return gram, square_class, eps


# ---------------------------------------------------------------------------
# su^(n) slices and filtration orders.


def su_dimension(d: int, parity_n: int, group: str = "SU") -> int:
    """dim of the level slice at parity of n: C(d,2) odd, C(d+1,2)-1 even.

    The U variant drops the trace condition: C(d+1,2) at even levels.
    """
    if parity_n % 2 == 1:
        return comb(d, 2)
    return comb(d + 1, 2) - (1 if group == "SU" else 0)


def random_slice(form: HermitianForm, parity_n: int, rng):
    """sum c_k B_k over the SU slice basis B_k, with c_k = rng.randrange(ell)
    drawn in basis order, assembled entrywise from the at most two nonzero
    entries of each B_k."""
    ell = form.ctx.ell
    s = mat_zero(form.dim)
    for entries in form.slice_basis(parity_n):
        c = rng.randrange(ell)
        for i, j, x in entries:
            s[i][j] += c * x
    return s


def filtration_order_exponent(ell: int, d: int, n: int, k: int, group: str = "SU") -> int:
    """Exponent e with |G(V/lambda^n)_k| = ell^e for G in {SU, U}: the sum
    of the slice dimensions at the levels k+1, ..., n, counted by parity."""
    check_odd_prime(ell)
    if d < 1:
        raise DomainError(f"d = {d} must be at least 1")
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    odd_levels = (n + 1) // 2 - (k + 1) // 2
    even_levels = n // 2 - k // 2
    return odd_levels * su_dimension(d, 1, group) + even_levels * su_dimension(d, 0, group)


# ---------------------------------------------------------------------------
# The constructive lift SU(V/lambda^(n-1))_1 -> SU(V/lambda^n)_1.


def top_digits(rows, ell: int, n: int):
    """Digit n-1 of every entry of a matrix given as rows of coordinates at
    precision n, read with lambda_digit; None when some entry lies outside
    lambda^(n-1)."""
    if any(lambda_order(c, ell, n - 1) < n - 1 for row in rows for c in row):
        return None
    return [[lambda_digit(c, ell, n - 1) for c in row] for row in rows]


def lift_su(a: MatLocal, form: HermitianForm) -> MatLocal:
    """Lift a member of SU(V/lambda^(n-1))_1 to SU(V/lambda^n)_1.

    A = I mod lambda is read from the residues.  The lift A' of A is its
    canonical coordinates read at precision n (coords_lift, as in
    MatLocal.inverse); any lift serves, since the correction is solved from
    the defect of A' itself, A'^dagger Gamma A' - Gamma = lambda^(n-1) X
    (form.defect at mu = 1).  The membership test is that the defect lies
    in lambda^(n-1) and that det(A') = 1 mod lambda^(n-1).  top_digits reads
    X (or finds the defect outside lambda^(n-1)) and lambda_digit the top
    digit of det(A') - 1 from the coordinates.
    Solves X = Gamma Y + (-1)^(n-1) Y^T Gamma with Y = (1/2) Gamma^(-1) X
    (form.half_inverse), fixes the trace with a multiple of E_11, and returns
    A' - lambda^(n-1) Y, which truncates to A.  No digit is expanded.
    """
    ell = a.ctx.ell
    n = a.ctx.precision + 1
    _check_form(a, form)
    if any(residue(c, ell) != (i == j)
           for i, row in enumerate(a.rows) for j, c in enumerate(row)):
        raise MembershipError("lift_su needs A = I mod lambda")
    ctx = a.ctx.at_precision(n)
    a_prime = MatLocal(ctx, tuple(tuple(coords_lift(c, ctx) for c in row) for row in a.rows))
    _, delta = form.defect(a_prime, CycloElt.one(ctx))
    x = top_digits(delta, ell, n)
    if x is None:
        raise MembershipError("lift_su needs a member of U with multiplier 1")
    det = det_local(a_prime)
    dl = det.truncate(n - 1)
    one = CycloElt.one(dl.ctx)
    if dl.conjugate() * dl != one:
        raise CheckFailed("conj(det)*det != 1")
    if dl != one:
        raise MembershipError("lift_su needs an SU member, got U")
    # det - 1 lies in lambda^(n-1)
    det_top = lambda_digit(coords_add_int(det.coords, -1, ctx), ell, n - 1)
    y = form.half_inverse(x)
    if n % 2 == 0:
        tr_y = sum(y[i][i] for i in range(a.dim)) % ell
        y[0][0] = (y[0][0] + (det_top - tr_y)) % ell
    return a_prime.add_top([[-x for x in row] for row in y])


def random_su_element(form: HermitianForm, precision: int, rng) -> MatLocal:
    """Random member of SU(V/lambda^n)_1, built by lifting with random
    twists by level slices I + lambda^m * S, S in su^(m+1).  A lift is
    I mod lambda, so the twisted lift is A + lambda^m * S mod lambda^(m+1),
    which moves one coordinate of each entry."""
    a = MatLocal.identity(form.ctx.at_precision(1), form.dim)
    for m in range(1, precision):
        a = lift_su(a, form).add_top(random_slice(form, m + 1, rng))
    return a


# ---------------------------------------------------------------------------
# The permutation embedding S_r -> Gl_(r-1)(F_ell).


def perm_embed(sigma, ell: int):
    """Matrix of a permutation of {1..r} on F_ell^r / diag(F_ell).

    sigma is given in one-line notation as a tuple of images of 1..r
    (1-based).  Basis: classes of e_1, ..., e_(r-1); the class of e_r is
    -(e_1 + ... + e_(r-1)).
    """
    r = len(sigma)
    if sorted(sigma) != list(range(1, r + 1)):
        raise ValueError("sigma must be a permutation of 1..r in one-line notation")
    cols = []
    for i in range(1, r):
        image = sigma[i - 1]
        if image < r:
            col = [1 if k == image else 0 for k in range(1, r)]
        else:
            col = [-1 % ell] * (r - 1)
        cols.append(col)
    return [[cols[j][i] for j in range(r - 1)] for i in range(r - 1)]
