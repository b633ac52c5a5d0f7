import os
import random
import subprocess
import sys
from dataclasses import fields
from itertools import permutations, product
from pathlib import Path

import pytest

from lamadic import linalg, matrices
from lamadic.ring import CheckFailed, CycloElt, DomainError, RingCtx
from lamadic.matrices import (
    HermitianForm,
    MatLocal,
    MembershipError,
    classify_membership,
    det_local,
    filtration_order_exponent,
    legendre,
    lift_su,
    mat_zero,
    perm_embed,
    random_slice,
    random_su_element,
    su_dimension,
    weil_gram_and_epsilon,
)
from ring_oracles import (
    det_cofactor,
    digit,
    filtration_order_sum,
    in_lambda_n,
    random_slice_by_basis_sum,
    random_su_element_by_twist_products,
    su_basis,
    su_slice_predicate,
    zeta_coeffs,
)


def rand_mat(ctx, d, rng):
    return MatLocal.from_rows(
        [
            [
                CycloElt(ctx, tuple(rng.randrange(ctx.ell) for _ in range(ctx.precision)))
                for _ in range(d)
            ]
            for _ in range(d)
        ]
    )


def test_digit_matrices_roundtrip():
    rng = random.Random(1)
    ctx = RingCtx(5, 3)
    a = rand_mat(ctx, 2, rng)
    rebuilt = MatLocal.from_digit_matrices(ctx, 2, [digit(a, k) for k in range(ctx.precision)])
    assert rebuilt == a


def test_det_multiplicative():
    rng = random.Random(2)
    ctx = RingCtx(3, 5)
    for _ in range(10):
        a, b = rand_mat(ctx, 2, rng), rand_mat(ctx, 2, rng)
        assert det_local(a * b) == det_local(a) * det_local(b)


def _singular_mod_lambda(ctx, d, rng):
    """A random matrix whose last row is an F_ell-combination of the others
    plus lambda times a random row: its determinant is divisible by lambda."""
    a = rand_mat(ctx, d, rng)
    rows = [list(row) for row in a.entries]
    lam = CycloElt.lam(ctx, 1)
    last = [lam * e for e in rand_mat(ctx, d, rng).entries[0]]
    for row in rows[:-1]:
        c = rng.randrange(ctx.ell)
        last = [x + c * y for x, y in zip(last, row)]
    rows[-1] = last
    return MatLocal.from_rows(rows)


@pytest.mark.parametrize("ell, n", [(3, 4), (5, 3), (7, 2), (11, 3)])
def test_det_local_matches_cofactor_oracle(ell, n):
    rng = random.Random(ell * 100 + n)
    ctx = RingCtx(ell, n)
    non_units = 0
    for d in range(1, 9):
        mats = [rand_mat(ctx, d, rng) for _ in range(2)]
        if d >= 2:
            mats += [_singular_mod_lambda(ctx, d, rng) for _ in range(2)]
        for a in mats:
            want = det_cofactor(a)
            assert det_local(a) == want, (d, a)
            if not want.is_unit and not want.is_zero():
                non_units += 1
    assert non_units >= 10  # nonzero non-units were met


def _residues_and_lifts(ctx, d, rng, residues):
    """The matrix with the given residues mod lambda and random higher digits."""
    higher = [[[rng.randrange(ctx.ell) for _ in range(d)] for _ in range(d)]
              for _ in range(ctx.precision - 1)]
    return MatLocal.from_digit_matrices(ctx, d, [residues] + higher)


def _first_pivot_needs_a_swap(ctx, d, rng):
    """An invertible matrix whose (0, 0) entry is divisible by lambda: the
    residue matrix over F_ell has a zero corner and a nonzero determinant."""
    while True:
        residues = [[rng.randrange(ctx.ell) for _ in range(d)] for _ in range(d)]
        residues[0][0] = 0
        if linalg.det(residues) % ctx.ell:
            return _residues_and_lifts(ctx, d, rng, residues)


@pytest.mark.parametrize("ell, n", [(3, 8), (11, 12)])
def test_packed_elimination_at_wide_slots(ell, n):
    """The modulus is ell^4 at (3, 8) and ell^2 at (11, 12), so the packed
    slots are wider than at modulus ell.  The inverse's Newton steps run
    at those slots from a residue matrix with a zero corner; a matrix whose
    residue matrix is singular mod ell, and one whose residue matrix has a
    zero row (singular over Q as well), raise MembershipError.  det_local
    takes the first three matrices, none of them I mod lambda, by power
    traces at an extended precision."""
    rng = random.Random(ell * 1000 + n)
    ctx = RingCtx(ell, n)
    assert ctx.modulus == ell ** (4 if ell == 3 else 2)
    for d in (9, 12):
        ident = MatLocal.identity(ctx, d)
        swap = _first_pivot_needs_a_swap(ctx, d, rng)
        singular = _singular_mod_lambda(ctx, d, rng)
        assert not swap.entries[0][0].is_unit
        for a in (rand_mat(ctx, d, rng), swap, singular):
            want = det_cofactor(a)
            assert det_local(a) == want, d
            if want.is_unit:
                inv = a.inverse()
                assert a * inv == ident and inv * a == ident
            else:
                with pytest.raises(MembershipError):
                    a.inverse()
        assert det_local(swap).is_unit and not det_local(singular).is_unit
        zero_row = _residues_and_lifts(
            ctx, d, rng, [[0] * d] + [[rng.randrange(ell) for _ in range(d)] for _ in range(d - 1)])
        with pytest.raises(MembershipError):
            zero_row.inverse()


def test_det_local_of_su_members_matches_oracle():
    rng = random.Random(12)
    for ell, d, n in ((3, 8, 3), (5, 10, 3)):
        form = HermitianForm.standard(RingCtx(ell, 1), d, -1)
        a = random_su_element(form, n, rng)
        assert det_local(a) == det_cofactor(a) == CycloElt.one(a.ctx)


def _level_one(ctx, d, rng):
    """A random d x d matrix with A = I mod lambda."""
    ident = [[int(i == j) for j in range(d)] for i in range(d)]
    higher = [[[rng.randrange(ctx.ell) for _ in range(d)] for _ in range(d)]
              for _ in range(ctx.precision - 1)]
    return MatLocal.from_digit_matrices(ctx, d, [ident] + higher)


@pytest.mark.parametrize("ell", [3, 5, 7, 11, 13])
def test_det_local_from_power_traces_matches_oracles(ell):
    """Every precision n <= ell, with d < n - 1 as well as d >= n - 1: no
    division by ell is met, and det_local agrees with the cofactor
    expansion."""
    rng = random.Random(ell)
    for n in range(1, ell + 1):
        ctx = RingCtx(ell, n)
        for d in (1, 2, 3, 5, 8):
            for _ in range(2):
                a = _level_one(ctx, d, rng)
                assert det_local(a) == det_cofactor(a), (a.ctx, a.dim)
    # an identity matrix and scalar lambda-multiples from the identity
    for n in (1, 2, ell):
        ctx = RingCtx(ell, n)
        for d in (1, 4):
            assert det_local(MatLocal.identity(ctx, d)) == CycloElt.one(ctx)
            ident = MatLocal.identity(ctx, d)
            a = ident + ident.scale(CycloElt.lam(ctx, 1))
            assert det_local(a) == (CycloElt.one(ctx) + CycloElt.lam(ctx, 1)) ** d


@pytest.mark.parametrize("ell", [3, 5, 7])
def test_det_local_past_ell_or_off_level_one_matches_cofactor(ell, monkeypatch):
    """The cells where Newton's identities divide by ell: level-one
    matrices at n > ell with d >= ell, and units that are not I mod lambda
    and non-units (K = d) at n <= ell and n > ell.  A division that is not
    exact is a CheckFailed."""
    rng = random.Random(100 + ell)
    for n in (ell, ell + 1, 2 * ell + 1):
        ctx = RingCtx(ell, n)
        for d in sorted({ell, ell + 2, 6}):  # at (3, 7, 6), e_6 divides by ell twice
            cases = [_level_one(ctx, d, rng), rand_mat(ctx, d, rng),
                     _first_pivot_needs_a_swap(ctx, d, rng), _singular_mod_lambda(ctx, d, rng)]
            for a in cases:
                assert det_local(a) == det_cofactor(a), (n, d)
            assert det_local(cases[2]).is_unit and not det_local(cases[3]).is_unit
    a = _level_one(RingCtx(ell, ell), 3, rng)
    swapped = MatLocal.from_rows([a.entries[1], a.entries[0], a.entries[2]])
    assert det_local(swapped) == -det_local(a)

    def inexact(x, k):
        raise DomainError("planted")

    monkeypatch.setattr(matrices, "div_by_int", inexact)
    with pytest.raises(CheckFailed):
        det_local(swapped)


def test_level_one_chain_makes_no_elimination(monkeypatch):
    """An (ell, d, n) = (11, 10, 4) lift chain, as in the benchmark: its two
    determinants, one in lift_su and one in classify_membership, match the
    cofactor expansion, and no matrix is inverted."""
    form1 = HermitianForm.standard(RingCtx(11, 1), 10, -1)
    a = random_su_element(form1, 3, random.Random(7))
    calls = []
    inverse = MatLocal.inverse
    monkeypatch.setattr(MatLocal, "inverse", lambda m: calls.append(m) or inverse(m))
    dets = []
    det_local_ = matrices.det_local
    monkeypatch.setattr(matrices, "det_local",
                        lambda m: dets.append((m, det_local_(m))) or dets[-1][1])
    lifted = lift_su(a, HermitianForm.standard(RingCtx(11, 3), 10, -1))
    verdict = classify_membership(lifted, HermitianForm.standard(RingCtx(11, 4), 10, -1))
    assert verdict.kind == "SU"
    assert len(dets) == 2 and calls == []
    for m, det in dets:
        assert det == det_cofactor(m)
    assert dets[-1][1] == CycloElt.one(lifted.ctx)


def _norm_of_det_local(a):
    """The Z_ell-linear determinant: the product of the conjugates
    sigma_j(det_local A), j = 1, ..., ell-1."""
    dl = det_local(a)
    acc = dl
    for j in range(2, a.ctx.ell):
        acc = acc * dl.galois(j)
    return acc


def test_det_base_is_galois_stable():
    rng = random.Random(3)
    ctx = RingCtx(5, 4)
    for _ in range(5):
        a = rand_mat(ctx, 3, rng)
        db = _norm_of_det_local(a)
        for j in range(2, 5):
            assert db.galois(j) == db


def test_det_base_matches_integer_representation():
    # For ell = 3, d = 2 the base-ring determinant equals the determinant of
    # the 4x4 integer matrix of the action on the (1, zeta) x C^2 basis.
    rng = random.Random(4)
    ctx = RingCtx(3, 4)
    for _ in range(10):
        a = rand_mat(ctx, 2, rng)
        big = []
        for i in range(2):
            r1, r2 = [], []
            for j in range(2):
                c0, c1 = zeta_coeffs(a.entries[i][j])
                # multiplication by c0 + c1 z on basis (1, z), z^2 = -1 - z
                r1.extend([c0, -c1])
                r2.extend([c1, c0 - c1])
            big.append(r1)
            big.append(r2)
        want = _int_det(big)
        got = _norm_of_det_local(a)
        diff_digits = (got - CycloElt.from_int(want, ctx)).digits
        assert diff_digits == (0, 0, 0, 0)


def _int_det(rows):
    from fractions import Fraction

    a = [[Fraction(x) for x in r] for r in rows]
    n = len(a)
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if a[r][c]), None)
        if piv is None:
            return 0
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        inv = 1 / a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] * inv
            a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    assert det.denominator == 1
    return int(det)


def test_membership_classification():
    ctx = RingCtx(5, 3)
    form = HermitianForm.standard(ctx, 2)
    ident = MatLocal.identity(ctx, 2)
    assert classify_membership(ident, form).kind == "SU"
    z = CycloElt.zeta(ctx, 1)
    v = classify_membership(ident.scale(z), form)
    assert v.kind == "U"  # norm-one scalar, determinant zeta^2 != 1
    two = CycloElt.from_int(2, ctx)
    v = classify_membership(ident.scale(two), form)
    assert v.kind == "GU" and v.multiplier == two * two
    bad = MatLocal.from_rows(
        [[CycloElt.one(ctx), CycloElt.one(ctx)], [CycloElt.zero(ctx), CycloElt.one(ctx)]]
    )
    assert classify_membership(bad, form).kind == "none"


def test_weil_gram_examples():
    _, sc, eps = weil_gram_and_epsilon(5, 4)
    assert sc == 1 and eps == 1
    _, _, eps = weil_gram_and_epsilon(11, 8)
    assert eps == -1
    # even r: class of det depends on the scalar, only reported
    _, sc, _ = weil_gram_and_epsilon(7, 4)
    assert sc == legendre(5, 7)
    for ell in (3, 5, 7, 11, 13):
        for r in range(3, 13, 2):
            if r % ell:
                weil_gram_and_epsilon(ell, r)  # internal assertion for odd r
    for r in (1, -5):
        with pytest.raises(DomainError, match="need r >= 2"):
            weil_gram_and_epsilon(11, r)


def test_weil_gram_square_class_matches_elimination():
    """The closed-form determinant against the Bareiss determinant of the
    returned Gram matrix, taken mod ell."""
    for ell in (3, 5, 7, 11, 13, 101):
        for r in range(2, 40):
            if r % ell == 0:
                continue
            gram, sc, _ = weil_gram_and_epsilon(ell, r)
            assert gram == [[(1 if i != j else 1 - r) % ell for j in range(r - 1)]
                            for i in range(r - 1)]
            assert sc == legendre(linalg.det(gram) % ell, ell), (ell, r)


def test_su_basis_satisfies_predicate():
    for ell in (3, 5):
        ctx = RingCtx(ell, 2)
        for sign in (1, -1):
            for d in (2, 3, 4):
                form = HermitianForm.standard(ctx, d, sign)
                for parity in (3, 4):
                    for group in ("SU", "U"):
                        basis = su_basis(form, parity, group)
                        assert len(basis) == su_dimension(d, parity, group)
                        for b in basis:
                            assert su_slice_predicate(b, form.gamma, ell, parity, group)


def test_filtration_exponent_bounds():
    assert filtration_order_exponent(3, 2, 3, 1) == 3
    assert filtration_order_exponent(11, 7, 10, 1) == 219
    with pytest.raises(DomainError, match="need 1 <= k <= n, got k=0, n=3"):
        filtration_order_exponent(3, 2, 3, 0)
    with pytest.raises(DomainError, match="need 1 <= k <= n, got k=4, n=3"):
        filtration_order_exponent(3, 2, 3, 4)


def test_filtration_exponent_closed_form_matches_level_sum():
    for d in range(1, 9):
        for n in range(1, 30):
            for k in range(1, n + 1):
                for group in ("SU", "U"):
                    assert filtration_order_exponent(3, d, n, k, group) == \
                        filtration_order_sum(d, n, k, group), (d, n, k, group)


def test_filtration_exponent_at_huge_level():
    # d = 2: each odd level adds C(2,2) = 1 and each even level C(3,2) - 1 = 2
    n = 10**12
    assert filtration_order_exponent(5, 2, n, 1) == (n // 2 - 1) + 2 * (n // 2)
    assert filtration_order_exponent(5, 2, n, 1, "U") == (n // 2 - 1) + 3 * (n // 2)


def test_su_level_one_exhaustive_count():
    # brute-force count of SU(V/lambda^3)_1 for ell = 3, d = 2
    ctx = RingCtx(3, 3)
    form = HermitianForm.standard(ctx, 2)
    count = 0
    digit_pairs = list(product(range(3), repeat=4))
    for d1 in digit_pairs:
        m1 = [[d1[0], d1[1]], [d1[2], d1[3]]]
        for d2 in digit_pairs:
            m2 = [[d2[0], d2[1]], [d2[2], d2[3]]]
            a = MatLocal.from_digit_matrices(ctx, 2, [[[1, 0], [0, 1]], m1, m2])
            if classify_membership(a, form).kind == "SU":
                count += 1
    assert count == 3 ** filtration_order_exponent(3, 2, 3, 1)


def test_lift_su_roundtrip():
    rng = random.Random(7)
    for ell, d in ((3, 2), (3, 3), (5, 2)):
        for n in (3, 4, 5):
            form_prev = HermitianForm.standard(RingCtx(ell, n - 1), d)
            a = random_su_element(HermitianForm.standard(RingCtx(ell, 1), d), n - 1, rng)
            lifted = lift_su(a, form_prev)
            assert lifted.truncate(n - 1) == a
            form_n = HermitianForm.standard(RingCtx(ell, n), d)
            assert classify_membership(lifted, form_n).kind == "SU"


def test_lift_su_rejects_non_members():
    ctx = RingCtx(3, 2)
    form = HermitianForm.standard(ctx, 2)
    z = CycloElt.zeta(ctx, 1)
    with pytest.raises(MembershipError):
        lift_su(MatLocal.identity(ctx, 2).scale(z), form)


def test_lift_su_rejects_gu_members_and_level_one_non_members():
    ctx = RingCtx(3, 3)
    form = HermitianForm.standard(ctx, 2)
    scalar = MatLocal.identity(ctx, 2).scale(CycloElt.from_int(4, ctx))
    v = classify_membership(scalar, form)
    assert v.kind == "GU" and v.multiplier == CycloElt.from_int(16, ctx)
    with pytest.raises(MembershipError):
        lift_su(scalar, form)
    one, zero, lam = CycloElt.one(ctx), CycloElt.zero(ctx), CycloElt.lam(ctx, 1)
    shear = MatLocal.from_rows([[one, lam], [zero, one]])
    assert shear.filtration_level() == 1
    assert classify_membership(shear, form).kind == "none"
    with pytest.raises(MembershipError):
        lift_su(shear, form)
    with pytest.raises(ValueError):
        lift_su(MatLocal.identity(ctx, 3), form)


@pytest.mark.parametrize("ell", [3, 5, 7])
def test_filtration_level_of_products_matches_the_norm_oracle(ell):
    """Products know no digits; their level is the largest k with every
    entry of A - I in lambda^k (in_lambda_n).  A = I + lambda^k X times
    B = I - lambda^k X lies at a level above k."""
    rng = random.Random(ell)
    for n in (1, 2, 4, ell + 1):
        ctx = RingCtx(ell, n)
        for d in (2, 3):
            for k in range(n + 1):
                ident = [[int(i == j) for j in range(d)] for i in range(d)]
                x = [[rng.randrange(ell) for _ in range(d)] for _ in range(d)]
                tail = [[[rng.randrange(ell) for _ in range(d)] for _ in range(d)]
                        for _ in range(n - k - 1)]
                zeros = [mat_zero(d)] * (k - 1)
                if k == 0:
                    a = MatLocal.from_digit_matrices(ctx, d, [x] + tail)
                    b = rand_mat(ctx, d, rng)
                else:
                    neg = [[-v % ell for v in row] for row in x]
                    a = MatLocal.from_digit_matrices(ctx, d, [ident] + zeros + [x] + tail)
                    b = MatLocal.from_digit_matrices(ctx, d, [ident] + zeros + [neg])
                for prod_ab in (a * b, b * a, a * a):
                    want = max(j for j in range(n + 1) if all(
                        in_lambda_n([c - (i == jj and t == 0)
                                     for t, c in enumerate(zeta_coeffs(e))],
                                    ell, j)
                        for i, row in enumerate(prod_ab.entries) for jj, e in enumerate(row)))
                    assert prod_ab.filtration_level() == want, (ell, n, d, k)
                if 0 < k < n:
                    assert (a * b).filtration_level() > k


def test_forms_over_another_ell_are_rejected():
    """A member at ell = 5 against a form over ell = 7: Gamma^(-1) mod 7
    would build a wrong correction, so both entry points refuse it."""
    form5 = HermitianForm(RingCtx(5, 1), (1, 1, 3))
    form7 = HermitianForm(RingCtx(7, 1), (1, 1, 3))
    for seed in range(6):
        a = random_su_element(form5, 3, random.Random(seed))
        assert classify_membership(lift_su(a, form5), form5).kind == "SU"
        with pytest.raises(ValueError, match="ell"):
            lift_su(a, form7)
        with pytest.raises(ValueError, match="ell"):
            classify_membership(a, form7)


def test_standard_rejects_a_sign_outside_plus_minus_one():
    ctx = RingCtx(5, 1)
    for d, sign in ((3, 7), (3, 0), (3, -2)):
        with pytest.raises(ValueError, match="sign"):
            HermitianForm.standard(ctx, d, sign)


def test_standard_rejects_d_below_one_as_filtration_order_exponent_does():
    ctx = RingCtx(5, 1)
    for d, sign in ((0, -1), (0, 1), (-1, 1)):
        text = f"d = {d} must be at least 1"
        with pytest.raises(DomainError, match=text):
            HermitianForm.standard(ctx, d, sign)
        with pytest.raises(DomainError, match=text):
            filtration_order_exponent(5, d, 3, 1)


def test_form_has_two_fields_and_derives_its_sign():
    assert [f.name for f in fields(HermitianForm)] == ["ctx", "gamma"]
    for ell in (3, 5, 7, 11):
        for d in (1, 2, 5):
            for sign in (1, -1):
                assert HermitianForm.standard(RingCtx(ell, 1), d, sign).sign == sign
        for g in range(1, ell):
            assert HermitianForm(RingCtx(ell, 1), (1, g)).sign == legendre(g, ell)


def test_form_rejects_an_empty_gram_tuple_and_non_integer_entries():
    # an empty tuple would have sign 1 and make classify_membership index
    # past its rows; 1.5 would give a sign from a float's residue
    ctx = RingCtx(5, 1)
    with pytest.raises(ValueError, match="at least one entry"):
        HermitianForm(ctx, ())
    for gamma in ((1.5, 2), (1, 2.0), (1, "2")):
        with pytest.raises(ValueError, match="integers"):
            HermitianForm(ctx, gamma)
    with pytest.raises(ValueError, match="units"):
        HermitianForm(ctx, (1, 5))


def test_matrix_arithmetic_rejects_differing_dimensions():
    ctx = RingCtx(5, 2)
    i2, i3 = MatLocal.identity(ctx, 2), MatLocal.identity(ctx, 3)
    for a, b in ((i2, i3), (i3, i2)):
        for op in (a.__add__, a.__sub__, a.__mul__):
            with pytest.raises(ValueError, match="dimensions differ"):
                op(b)


def test_lift_su_raises_at_each_membership_check(monkeypatch):
    import lamadic.matrices as matrices

    ctx = RingCtx(5, 3)
    form = HermitianForm.standard(ctx, 2)
    one, zero, lam = CycloElt.one(ctx), CycloElt.zero(ctx), CycloElt.lam(ctx, 1)
    # A != I mod lambda, on the diagonal and off it
    for a in (MatLocal.identity(ctx, 2).scale(2),
              MatLocal.from_rows([[one, one], [zero, one]])):
        with pytest.raises(MembershipError, match="A = I mod lambda"):
            lift_su(a, form)
    # a defect below lambda^(n-1)
    with pytest.raises(MembershipError, match="multiplier 1"):
        lift_su(MatLocal.from_rows([[one, lam], [zero, one]]), form)
    # det != 1 for a member of U: the scalar zeta has det zeta^2
    with pytest.raises(MembershipError, match="got U"):
        lift_su(MatLocal.identity(ctx, 2).scale(CycloElt.zeta(ctx, 1)), form)
    # conj(det) * det != 1 can only come from a wrong determinant
    monkeypatch.setattr(matrices, "det_local", lambda a: CycloElt.from_int(2, a.ctx))
    with pytest.raises(CheckFailed, match="conj"):
        lift_su(MatLocal.identity(ctx, 2), form)


@pytest.mark.parametrize("ell, d", [(3, 2), (3, 4), (5, 3), (7, 2)])
def test_random_su_element_matches_twist_products(ell, d):
    for sign in (1, -1):
        form1 = HermitianForm.standard(RingCtx(ell, 1), d, sign)
        for seed in range(4):
            got = random_su_element(form1, 5, random.Random(seed))
            want = random_su_element_by_twist_products(form1, 5, random.Random(seed))
            assert got == want and got.ctx == want.ctx


@pytest.mark.parametrize("ell", [3, 5, 7])
def test_random_slice_matches_the_dense_basis_sum(ell):
    for d in range(2, 7):
        for sign in (1, -1):
            form = HermitianForm.standard(RingCtx(ell, 1), d, sign)
            for parity in (0, 1):
                for seed in range(3):
                    rng_got, rng_want = random.Random(seed), random.Random(seed)
                    got = random_slice(form, parity, rng_got)
                    assert got == random_slice_by_basis_sum(form, parity, rng_want)
                    assert rng_got.random() == rng_want.random()  # same number of draws
                    assert su_slice_predicate(got, form.gamma, ell, parity)


def test_inverse_neumann_needs_a_level_one_matrix():
    ctx = RingCtx(5, 3)
    with pytest.raises(MembershipError):
        MatLocal.identity(ctx, 2).scale(2).inverse_neumann()


def test_inverse_routes_agree():
    rng = random.Random(9)
    form1 = HermitianForm.standard(RingCtx(5, 1), 3)
    for _ in range(5):
        a = random_su_element(form1, 4, rng)
        assert a.inverse() == a.inverse_neumann()
        assert a * a.inverse() == MatLocal.identity(a.ctx, 3)


def test_inverse_doubles_the_precision_per_newton_step(monkeypatch):
    """Each step X -> X (2I - A X) makes two products, at precisions 2, 4,
    8 and then n = 13; the result inverts A from both sides, and a 0 x 0
    matrix is its own inverse."""
    ctx = RingCtx(5, 13)
    a = rand_mat(ctx, 4, random.Random(10))
    assert det_local(a).is_unit
    precisions = []
    mul = MatLocal.__mul__
    monkeypatch.setattr(MatLocal, "__mul__",
                        lambda x, y: precisions.append(x.ctx.precision) or mul(x, y))
    inv = a.inverse()
    assert precisions == [2, 2, 4, 4, 8, 8, 13, 13]
    ident = MatLocal.identity(ctx, 4)
    assert a * inv == ident and inv * a == ident
    empty = MatLocal(ctx, ())
    assert empty.inverse() == empty


def test_perm_embed_det_is_sign():
    for r, ell in ((3, 5), (4, 7)):
        for sigma in permutations(range(1, r + 1)):
            inv = sum(
                1
                for i in range(r)
                for j in range(i + 1, r)
                if sigma[i] > sigma[j]
            )
            m = perm_embed(sigma, ell)
            assert linalg.det(m) % ell == (-1) ** inv % ell


def test_perm_embed_is_homomorphism():
    ell = 5
    for s1 in permutations((1, 2, 3, 4)):
        s2 = (2, 4, 1, 3)
        comp = tuple(s1[s2[i] - 1] for i in range(4))
        x, y = perm_embed(s1, ell), perm_embed(s2, ell)
        assert perm_embed(comp, ell) == [
            [sum(a * b for a, b in zip(row, col)) % ell for col in zip(*y)] for row in x]


_PLANTED = """
import dataclasses
import lamadic.classnum as c
import lamadic.curves as cv
import lamadic.lattices as lat
import lamadic.matrices as m
from lamadic import CycloElt
from lamadic.cli import run

m.det_local = lambda a: CycloElt.from_int(2, a.ctx)
print(run(["lift-check", "--ell", "5", "--d", "2", "--n", "3", "--trials", "1"]))
true_demjanenko = lat.demjanenko_det
lat.demjanenko_det = lambda ell, r: dataclasses.replace(true_demjanenko(ell, r), t=1)
print(run(["lattice-index", "--ell", "7", "--r", "3"]))
c.h_minus = lambda ell: 2
print(run(["demjanenko", "--ell", "7", "--r", "3"]))
cv.resultant = lambda f, g: 1
try:
    cv.discriminant(cv.IntPoly((1, 1, 0, 0, 2)))
except m.CheckFailed as e:
    print(type(e).__name__)
"""


def test_planted_check_failure_raises_check_failed(monkeypatch):
    import lamadic.classnum as classnum
    import lamadic.curves as curves
    import lamadic.matrices as matrices

    monkeypatch.setattr(matrices, "det_local", lambda a: CycloElt.from_int(2, a.ctx))
    form = HermitianForm.standard(RingCtx(5, 2), 2)
    with pytest.raises(CheckFailed):
        classify_membership(MatLocal.identity(form.ctx, 2), form)
    # the class-number identity |det| = h^- c / (2 ell) with a wrong h^-
    monkeypatch.setattr(classnum, "h_minus", lambda ell: 2)
    with pytest.raises(CheckFailed):
        classnum.demjanenko_det(7, 3)
    # lc(f) must divide Res(f, f'), here planted as 1 for 2x^4 + x + 1
    monkeypatch.setattr(curves, "resultant", lambda f, g: 1)
    with pytest.raises(CheckFailed, match="leading coefficient"):
        curves.discriminant(curves.IntPoly((1, 1, 0, 0, 2)))
    # the check survives python -O, and the CLI maps it to exit code 2
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-O", "-c", _PLANTED], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.stdout.split() == ["2", "2", "2", "CheckFailed"]
    assert proc.stderr.count("CheckFailed") == 3
    assert "cokernel exponent 0 != determinant order 1" in proc.stderr
    assert "h^- c / (2 ell)" in proc.stderr
