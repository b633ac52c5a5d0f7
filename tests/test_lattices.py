import random
from fractions import Fraction

import pytest

import lamadic.lattices as lattices
from lamadic.ring import CheckFailed, CycloElt, DomainError, NotAUnit, RingCtx, exp as ring_exp, is_prime
from lamadic.lattices import (
    AbelianPresentation,
    abelian_order,
    anti_fixed_basis_coords,
    decompose_unit,
    infinity_type_apply,
    infinity_type_matrix_check,
    is_anti_fixed,
    is_galois_stable,
    _torsion_exponent,
    lattice_index_check,
    t_doubleprime_matrix,
    u_lr_member,
    u_prime_basis,
    u_reduction_order,
)
from lamadic.classnum import kappa_and_t, n_of, ord_p
from lamadic.linalg import det
from lamadic.matrices import filtration_order_exponent
from ring_oracles import (
    additive_ring_presentation,
    anti_fixed_exponent_by_smith_form,
    anti_fixed_generators,
    decompose_unit_by_search,
    rational_order_by_ell_powers,
    t_doubleprime_apply,
    torsion_exponent_by_search,
    torsion_order_by_powering,
)


def test_membership_basics():
    ctx = RingCtx(3, 5)
    assert u_lr_member(CycloElt.one(ctx), 4)
    assert u_lr_member(-CycloElt.zeta(ctx, 1), 4)
    assert not u_lr_member(CycloElt.one(ctx) + CycloElt.lam(ctx, 1), 4)
    with pytest.raises(NotAUnit):
        u_lr_member(CycloElt.lam(ctx, 1), 4)


def test_u_prime_basis_counts():
    assert len(u_prime_basis(3, 6).log_generators) == 1
    lat = u_prime_basis(11, 12)
    assert len(lat.log_generators) == 5
    for x in lat.log_generators:
        assert is_anti_fixed(x)
    with pytest.raises(DomainError):
        u_prime_basis(5, 3)


def test_exp_of_log_lattice_is_member():
    rng = random.Random(12)
    for ell, r in ((3, 2), (5, 4), (7, 2)):
        ctx = RingCtx(ell, 2 * (ell - 1) + 2)
        lat = u_prime_basis(ell, ctx.precision)
        for _ in range(5):
            x = CycloElt.zero(ctx)
            for g in lat.log_generators:
                c = rng.randrange(-2, 3)
                if c:
                    x = x + g * c
            assert u_lr_member(ring_exp(x), r)


def test_infinity_type_values_and_stability():
    assert n_of(11, 8, 1) == 7
    ctx = RingCtx(7, 8)
    x = CycloElt.lam(ctx, 2) - CycloElt.lam(ctx, 2).conjugate()
    y = infinity_type_apply(5, x, "Tprime")
    assert is_anti_fixed(y)
    assert t_doubleprime_apply(5, x) == y  # full sum folds onto the half-system
    with pytest.raises(DomainError):
        infinity_type_apply(5, CycloElt.one(ctx), "T")
    with pytest.raises(ValueError):
        infinity_type_apply(5, x, "bogus")


def test_t_action_preserves_galois_stable_inputs():
    ctx = RingCtx(5, 8)
    x = CycloElt.from_int(25, ctx)  # rational with ord_lambda = 8 >= 2
    y = infinity_type_apply(3, x, "T")
    assert is_galois_stable(y)


def test_galois_stability_from_one_generator_matches_every_map():
    """is_galois_stable, which applies sigma_g for one primitive root g,
    against the definition, every sigma_j: on random elements, on traces
    (stable), on periods of the squares (fixed by sigma_(g^2) only) and on
    real-subfield elements x + conj(x).  sigma_(-1) fixes the latter, and
    for ell >= 5 sigma_g does not, as zeta + zeta^(-1) shows."""
    rng = random.Random(30)
    for ell in (3, 5, 7, 11, 13):
        ctx = RingCtx(ell, 6)
        for _ in range(4):
            x = CycloElt.from_poly([rng.randrange(-9, 10) for _ in range(ell - 1)], ctx)
            trace, squares = CycloElt.zero(ctx), CycloElt.zero(ctx)
            for j in range(1, ell):
                trace = trace + x.galois(j)
                squares = squares + x.galois(j * j)
            real = x + x.conjugate()
            for y in (x, trace, squares, real):
                assert is_galois_stable(y) == all(y.galois(j) == y for j in range(1, ell))
            assert is_galois_stable(trace) and real.conjugate() == real
        period = CycloElt.zeta(ctx) + CycloElt.zeta(ctx, -1)
        assert is_galois_stable(period) == (ell == 3)


def test_abelian_order_basics():
    assert abelian_order(AbelianPresentation(1, ((6,),)), [[1]]) == 6
    assert abelian_order(AbelianPresentation(1, ((8,),)), [[2]]) == 4
    pres = AbelianPresentation(2, ((4, 0), (0, 4)))
    assert abelian_order(pres, [[2, 0], [0, 1]]) == 8
    with pytest.raises(DomainError):
        abelian_order(AbelianPresentation(2, ((1, 0), (0, 0))), [[1, 0]])


def test_additive_presentation_full_order():
    pres = additive_ring_presentation(3, 3)
    assert abelian_order(pres, [[1, 0], [0, 1]]) == 27
    pres = additive_ring_presentation(5, 2)
    assert abelian_order(pres, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]) == 25


def test_multiplicative_group_order_small():
    # the units of O/lambda^3 for ell = 3: exhaustive count against the
    # torsion x principal-unit split
    ctx = RingCtx(3, 3)
    units = 0
    for k in range(27):
        digits = tuple((k // 3**i) % 3 for i in range(3))
        if CycloElt(ctx, digits).is_unit:
            units += 1
    assert units == 18
    assert u_reduction_order(3, 2, 3)[1]["torsion"] == 6


def test_infinity_type_matrix_bookkeeping():
    for ell in (3, 5, 7):
        for r in (2, 3, 4, 5):
            if r % ell:
                assert infinity_type_matrix_check(ell, r)


def test_infinity_type_matrix_check_reads_the_half_system_matrix(monkeypatch):
    """At (11, 8) the half-system matrix is not symmetric, so the check
    fails when it reads the transpose, and when one entry moves by ell."""
    right = lattices.twice_half_system
    assert infinity_type_matrix_check(11, 8)
    assert right(11, 8) != [list(col) for col in zip(*right(11, 8))]

    def transposed(ell, r):
        return [list(col) for col in zip(*right(ell, r))]

    def moved(ell, r):
        m = right(ell, r)
        m[1][2] += ell
        return m

    for wrong in (transposed, moved):
        monkeypatch.setattr(lattices, "twice_half_system", wrong)
        assert not infinity_type_matrix_check(11, 8), wrong.__name__


def test_t_matrix_denominators_prime_to_ell():
    for ell, r in ((5, 2), (7, 3), (11, 8)):
        m = t_doubleprime_matrix(ell, r)
        for row in m:
            for x in row:
                assert x.denominator % ell != 0


def test_lattice_index_check_refuses_a_fraction(monkeypatch):
    """T'' is integral in the log basis, so an entry 1/2, with denominator
    prime to ell, fails the check as well."""
    right = t_doubleprime_matrix

    def halved(ell, r):
        m = right(ell, r)
        m[0][0] += Fraction(1, 2)
        return m

    monkeypatch.setattr(lattices, "t_doubleprime_matrix", halved)
    with pytest.raises(CheckFailed, match="not integral"):
        lattice_index_check(11, 8)


def test_lattice_index_examples_and_grid():
    assert lattice_index_check(11, 8) == 0
    assert lattice_index_check(3, 2) == 0
    for ell in (3, 5, 7):
        for r in range(2, 13):
            if r % ell == 0:
                continue
            t_prime = lattice_index_check(ell, r)
            assert t_prime == kappa_and_t(ell, r)[1]


def test_decompose_unit_roundtrip():
    rng = random.Random(14)
    for ell, r in ((3, 4), (5, 2), (7, 3)):
        ctx = RingCtx(ell, 2 * (ell - 1) + 2)
        lat = u_prime_basis(ell, ctx.precision)
        for _ in range(4):
            e0 = rng.randrange(2 * ell)
            x = CycloElt.zero(ctx)
            for g in lat.log_generators:
                c = rng.randrange(-2, 3)
                if c:
                    x = x + g * c
            u = (-CycloElt.zeta(ctx, 1)) ** e0 * ring_exp(x)
            e, rho, y = decompose_unit(u, r)
            assert is_galois_stable(rho)
            assert is_anti_fixed(y)


def test_reduction_order_parts():
    total, parts = u_reduction_order(11, 8, 10)
    assert parts["torsion"] == 22
    assert parts["rational"] == 1  # ell lies in lambda^10, invisible mod lambda^10
    assert total == 22 * 11 ** parts["anti_fixed_exponent"]
    # torsion reduction stabilizes at 2*ell once zeta is nontrivial
    assert u_reduction_order(5, 2, 3)[1]["torsion"] == 10


@pytest.mark.parametrize("ell, r, m, text", [
    (9, 2, 4, "ell = 9 must be an odd prime"),
    (5, 5, 4, "ell = 5 must not divide r = 5"),
    (5, 1, 4, "need r >= 2"),
    (5, 2, 0, "m = 0 must be at least 1"),
])
def test_reduction_order_refuses_bad_ell_r_and_m(ell, r, m, text):
    with pytest.raises(DomainError) as info:
        u_reduction_order(ell, r, m)
    assert str(info.value) == text


def test_reduction_exponent_monotone_in_precision():
    prev = 0
    for m in (4, 6, 8, 10):
        total, parts = u_reduction_order(5, 2, m)
        assert parts["anti_fixed_exponent"] >= prev
        prev = parts["anti_fixed_exponent"]


def test_anti_fixed_basis_from_the_binomial_formula():
    for ell in filter(is_prime, range(3, 100)):
        assert [list(c) for c in anti_fixed_basis_coords(ell)] == anti_fixed_generators(ell)


def test_reduction_exponent_matches_the_group_order_fold():
    """The closed form against a Smith form of the power-basis presentation
    of O/lambda^m and the generators built there."""
    for ell in (3, 5, 7, 11, 13, 17, 19, 23):
        for m in range(1, 3 * ell):
            assert (u_reduction_order(ell, 2, m)[1]["anti_fixed_exponent"]
                    == anti_fixed_exponent_by_smith_form(ell, m)), (ell, m)


def test_reduction_exponent_matches_the_closure_of_the_generators():
    """The subgroup of O/lambda^m that the log generators generate, closed
    under addition one generator at a time."""
    for ell in (3, 5, 7):
        for m in range(1, 11):
            ctx = RingCtx(ell, m)
            gens = [CycloElt.lam(ctx, i) - CycloElt.lam(ctx, i).conjugate()
                    for i in range(2, (ell + 1) // 2 + 1)]
            seen, todo = {CycloElt.zero(ctx)}, [CycloElt.zero(ctx)]
            while todo:
                x = todo.pop()
                for y in (x + g for g in gens):
                    if y not in seen:
                        seen.add(y)
                        todo.append(y)
            exponent = u_reduction_order(ell, 2, m)[1]["anti_fixed_exponent"]
            assert len(seen) == ell ** exponent, (ell, m)


def test_log_generators_have_index_ell_in_the_anti_fixed_part():
    """lambda^i - conj(lambda)^i, i = 2..g+1, on the basis zeta^k - zeta^(-k),
    k = 1..g: its coefficients of x^1..x^g in Z[x]/(x^ell - 1), where the
    anti-symmetric part maps isomorphically onto the anti-fixed part of O."""
    for ell in filter(is_prime, range(3, 200)):
        g = (ell - 1) // 2
        rows = []
        lam = [1] + [0] * (ell - 1)
        for i in range(1, g + 2):  # lam = (1 - x)^i
            lam = [a - b for a, b in zip(lam, lam[-1:] + lam[:-1])]
            if i >= 2:  # minus its image under x -> x^(-1)
                rows.append([lam[k] - lam[-k] for k in range(1, g + 1)])
        assert abs(det(rows)) == ell, ell


def test_level_degree_exponents_of_the_mumford_tate_table():
    """filtration_order_exponent(ell, r-1, n, 1) plus the ell-exponent of
    u_reduction_order(ell, r, n) at n = k(ell-1), k = 1..5."""
    table = {
        (11, 8): [224, 470, 716, 962, 1208],
        (5, 4): [15, 34, 53, 72, 91],
        (7, 6): [65, 141, 217, 293, 369],
        (3, 8): [28, 78, 128, 178, 228],
        (5, 6): [40, 90, 141, 192, 243],
    }
    for (ell, r), want in table.items():
        got = []
        for k in range(1, 6):
            n = k * (ell - 1)
            got.append(filtration_order_exponent(ell, r - 1, n, 1)
                       + ord_p(u_reduction_order(ell, r, n)[0], ell))
        assert got == want, (ell, r)


def test_report_exponent_is_the_unitary_exponent_plus_the_rational_one():
    """The report's ell-exponent at level n, filtration_order_exponent(ell,
    r-1, n, 1) plus ord_ell of u_reduction_order, equals the exponent of
    U(V/lambda^n)_1 plus ord_ell of the rational part: the ell-part
    of -zeta (1) and the anti-fixed exponent floor((n-2)/2) add up to
    floor(n/2), the number of even levels, where the U and SU slices
    differ by one.  Over prime ell < 60, 3 <= r <= 13 with ell not
    dividing r, and 2 <= n < 6 ell."""
    cells = 0
    for ell in filter(is_prime, range(3, 60)):
        for r in range(3, 14):
            if r % ell == 0:
                continue
            for n in range(2, 6 * ell):
                su = (filtration_order_exponent(ell, r - 1, n, 1)
                      + ord_p(u_reduction_order(ell, r, n)[0], ell))
                u = (filtration_order_exponent(ell, r - 1, n, 1, "U")
                     + ord_p(u_reduction_order(ell, r, n)[1]["rational"], ell))
                assert su == u, (ell, r, n)
                cells += 1
    assert cells == 28256


def test_reduction_orders_match_powering():
    for ell in (3, 5, 7, 11, 13):
        for m in range(1, 2 * ell + 1):
            torsion = torsion_order_by_powering(ell, m)
            for r in range(2, 21):
                if r % ell:
                    parts = u_reduction_order(ell, r, m)[1]
                    assert parts["torsion"] == torsion, (ell, m)
                    assert (parts["rational"]
                            == rational_order_by_ell_powers(ell, r, m)), (ell, r, m)


def test_decompose_unit_matches_the_exponent_search():
    rng = random.Random(10)
    for ell in (5, 7, 11, 13):
        ctx = RingCtx(ell, ell + 1)
        r = 2
        lat = u_prime_basis(ell, ctx.precision)
        for e0 in range(2 * ell):
            x = CycloElt.zero(ctx)
            for g in lat.log_generators:
                x = x + g * rng.randrange(ell)
            u = (-CycloElt.zeta(ctx, 1)) ** e0 * ring_exp(x)
            got = decompose_unit(u, r)
            assert got == decompose_unit_by_search(u, r)
            assert got[0] == e0


def test_torsion_exponent_needs_two_digits_and_residue_plus_minus_one():
    with pytest.raises(DomainError, match="no torsion representative found"):
        decompose_unit(CycloElt.one(RingCtx(5, 1)), 2)
    ctx = RingCtx(7, 4)
    for k in range(1, 7):
        w = CycloElt.from_int(k, ctx) * CycloElt.zeta(ctx, 2)
        if k in (1, 6):
            assert _torsion_exponent(w) == torsion_exponent_by_search(w)
        else:
            assert torsion_exponent_by_search(w) is None
            with pytest.raises(DomainError, match="no torsion representative found"):
                _torsion_exponent(w)
