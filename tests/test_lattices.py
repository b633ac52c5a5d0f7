import random

import pytest

from lamadic import lattices
from lamadic.ring import CheckFailed, CycloElt, DomainError, NotAUnit, RingCtx, exp as ring_exp
from lamadic.lattices import (
    AbelianPresentation,
    abelian_order,
    additive_ring_presentation,
    anti_fixed_basis_coords,
    decompose_unit,
    infinity_type_apply,
    infinity_type_matrix_check,
    is_anti_fixed,
    is_galois_stable,
    _torsion_exponent,
    lattice_index_check,
    rational_reduction_order,
    t_doubleprime_matrix,
    torsion_reduction_order,
    u_lr_member,
    u_prime_basis,
    u_prime_reduction_exponent,
    u_reduction_order,
)
from lamadic.classnum import kappa_and_t, n_of, ord_p
from ring_oracles import (
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
    assert torsion_reduction_order(3, 3) == 6


def test_infinity_type_matrix_bookkeeping():
    for ell in (3, 5, 7):
        for r in (2, 3, 4, 5):
            if r % ell:
                assert infinity_type_matrix_check(ell, r)


def test_t_matrix_denominators_prime_to_ell():
    for ell, r in ((5, 2), (7, 3), (11, 8)):
        m = t_doubleprime_matrix(ell, r)
        for row in m:
            for x in row:
                assert x.denominator % ell != 0


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
    assert torsion_reduction_order(5, 3) == 10


def test_reduction_exponent_monotone_in_precision():
    prev = 0
    for m in (4, 6, 8, 10):
        total, parts = u_reduction_order(5, 2, m)
        assert parts["anti_fixed_exponent"] >= prev
        prev = parts["anti_fixed_exponent"]


def test_reduction_exponent_matches_the_group_order_fold():
    """The fold modulo ell^ceil(m/(ell-1)) gives the exponent that
    abelian_order's fold modulo the group order gives."""
    for ell in (3, 5, 7, 11, 13):
        gens = [list(c) for c in anti_fixed_basis_coords(ell)]
        for m in range(1, 3 * ell):
            order = abelian_order(additive_ring_presentation(ell, m), gens)
            assert u_prime_reduction_exponent(ell, m) == ord_p(order, ell), (ell, m)


def test_reduction_exponent_checks_the_group_order(monkeypatch):
    # relations for lambda^(m+1) in place of lambda^m: ell^2 still kills the
    # quotient at (5, 6), whose order is then 5^7, not 5^6
    right = additive_ring_presentation
    monkeypatch.setattr(lattices, "additive_ring_presentation",
                        lambda ell, m: right(ell, m + 1))
    with pytest.raises(CheckFailed, match="has order"):
        u_prime_reduction_exponent(5, 6)


def test_reduction_orders_match_powering():
    for ell in (3, 5, 7, 11, 13):
        for m in range(1, 2 * ell + 1):
            assert torsion_reduction_order(ell, m) == torsion_order_by_powering(ell, m)
            for r in range(2, 21):
                if r % ell:
                    assert (rational_reduction_order(ell, r, m)
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
