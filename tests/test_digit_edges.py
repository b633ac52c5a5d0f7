"""Digits are an edge format: lamadic builds ring elements from
lambda-adic coordinates, digit matrices included (from_digit_matrices), and
only the selftest's digit round trip calls the digit constructor
CycloElt(ctx, digits).  Coordinates are the one representation: for
n <= ell-1 they are the digits, and past that no element or matrix keeps
its digits, which only CycloElt.digits expands (digits_from_poly), on
demand.  A lift chain reads orders and the digits it needs from the
coordinates, so it expands none.  Neither do filtration levels, unit
decompositions, hashing or the commutator checks, and the commutator
checks invert no matrix: they compare products."""

import ast
import random
from pathlib import Path

import pytest

import lamadic.ring as ring
from lamadic.commutators import matrix_commutator_check, su_commutator_span_check
from lamadic.lattices import decompose_unit, u_prime_basis
from lamadic.matrices import (
    HermitianForm,
    MatLocal,
    classify_membership,
    det_local,
    lift_su,
    random_su_element,
)
from lamadic.ring import CycloElt, RingCtx, exp
from ring_oracles import digit, lift_digits, mul_mod_phi, zeta_reduced

SRC = Path(__file__).resolve().parent.parent / "src" / "lamadic"


def _spy(monkeypatch, owner, name):
    """Replace owner.name by a wrapper that records each call's arguments;
    returns the list of records."""
    calls = []
    f = getattr(owner, name)

    def spy(*args):
        calls.append(args)
        return f(*args)

    monkeypatch.setattr(owner, name, spy)
    return calls


@pytest.fixture
def expansions(monkeypatch):
    """The calls of digits_from_poly made during the test."""
    return _spy(monkeypatch, ring, "digits_from_poly")

EDGE_CONSTRUCTORS = {
    "cli.py:_cmd_selftest",  # the digit round trip of the selftest
}


def _calls(path, callee):
    """'file:enclosing definition' of each call of `callee` in the file, by
    name or as an attribute."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Call):
                f = child.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                if name == callee:
                    found.append(f"{path.name}:{'.'.join(scope)}")
            visit(child, scope)

    visit(ast.parse(path.read_text(), str(path)), [])
    return found


def test_digit_constructor_is_called_only_by_the_edge_constructors():
    found = [site for path in sorted(SRC.rglob("*.py")) for site in _calls(path, "CycloElt")]
    assert found
    assert set(found) == EDGE_CONSTRUCTORS, sorted(set(found) ^ EDGE_CONSTRUCTORS)


def test_digit_expansion_is_called_only_inside_ring():
    """digits_from_poly has one caller, CycloElt.digits: no other module
    expands digits, or keeps them."""
    found = {site for path in sorted(SRC.rglob("*.py")) for site in _calls(path, "digits_from_poly")}
    assert found == {"ring.py:CycloElt.digits"}, sorted(found)


def test_a_lift_chain_builds_no_element_from_digits(monkeypatch):
    calls = []
    init = CycloElt.__init__

    def counting_init(self, ctx, digits):
        calls.append(ctx)
        init(self, ctx, digits)

    monkeypatch.setattr(CycloElt, "__init__", counting_init)
    form = HermitianForm.standard(RingCtx(5, 1), 3)
    a = random_su_element(form, 5, random.Random(0))
    assert classify_membership(lift_su(a, form), form).kind == "SU"
    assert calls == []


@pytest.mark.parametrize("ell", [3, 5, 7, 11])
def test_a_lift_chain_expands_no_digits(expansions, ell):
    """Lifts to precision 5, and at ell in {3, 5} to precision 2 ell + 1,
    where the chain passes n = ell-1 and the digits are not the
    coordinates."""
    for d in (2, 6, 10):
        form = HermitianForm.standard(RingCtx(ell, 1), d, -1 if d == 6 else 1)
        a = random_su_element(form, 4, random.Random(f"{ell}/{d}"))
        assert classify_membership(lift_su(a, form), form).kind == "SU"
    if ell in (3, 5):
        for d, sign in ((2, 1), (3, -1)):
            form = HermitianForm.standard(RingCtx(ell, 1), d, sign)
            a = random_su_element(form, 2 * ell, random.Random(f"{ell}/{d}/{2 * ell + 1}"))
            lifted = lift_su(a, form)
            assert lifted.ctx.precision == 2 * ell + 1
            assert classify_membership(lifted, form).kind == "SU"
    assert expansions == []


@pytest.mark.parametrize("ell", [3, 5, 7, 11])
def test_det_local_past_ell_expands_no_digits(expansions, ell):
    """At n > ell, Newton's identities divide by ell at an extended
    precision; level-one matrices, other units and non-units alike take no
    digit expansion."""
    rng = random.Random(ell)
    n = ell + 2
    mats = []
    for d in (ell, ell + 1):
        for residues in (lambda i, j: int(i == j), lambda i, j: rng.randrange(ell),
                         lambda i, j: int(j == 0)):
            digit_mats = [[[residues(i, j) for j in range(d)] for i in range(d)]]
            digit_mats += [[[rng.randrange(ell) for _ in range(d)] for _ in range(d)]
                           for _ in range(n - 1)]
            mats.append(MatLocal.from_digit_matrices(RingCtx(ell, n), d, digit_mats))
    dets = [det_local(a) for a in mats]
    assert expansions == []
    assert [det.is_unit for det in dets[2::3]] == [False, False]


@pytest.mark.parametrize("ell", [3, 5, 7, 11])
def test_equal_elements_with_different_coefficients_hash_equal(ell):
    rng = random.Random(ell)
    compared = 0
    for n in range(1, 2 * ell):
        ctx = RingCtx(ell, n)
        m = ctx.modulus
        lam_n = lift_digits([0] * n + [1], ell)
        for _ in range(5):
            c = [rng.randrange(m) for _ in range(ell - 1)]
            r = [rng.randrange(1, m) for _ in range(ell - 1)]
            c2 = [a + b for a, b in zip(c, mul_mod_phi(lam_n, r, ell))]
            x = CycloElt.from_poly(c, ctx)
            y = CycloElt.from_poly(c2, ctx)
            if zeta_reduced(c, ell, m) == zeta_reduced(c2, ell, m):  # lambda^n r can be 0 mod ell^k
                continue
            assert x == y and hash(x) == hash(y)
            assert x != y + CycloElt.lam(ctx, n - 1)
            compared += 1
    assert compared


def _level_member(ctx, d, level, rng):
    """I + lambda^level X from digit matrices, with random digits from
    `level` on."""
    mats = [[[int(i == j) for j in range(d)] for i in range(d)]]
    mats += [[[0] * d for _ in range(d)] for _ in range(level - 1)]
    mats += [[[rng.randrange(ctx.ell) for _ in range(d)] for _ in range(d)]
             for _ in range(ctx.precision - max(level, 1))]
    return MatLocal.from_digit_matrices(ctx, d, mats)


def test_commutator_checks_neither_invert_nor_expand_digits(monkeypatch, expansions):
    rng = random.Random(36)
    pairs = []
    for ell, d, n in ((3, 2, 4), (3, 3, 3), (5, 3, 6), (5, 4, 7)):
        ctx = RingCtx(ell, n)
        pairs += [(_level_member(ctx, d, (n - 1) // 2, rng),
                   _level_member(ctx, d, (n - 1) // 2, rng)) for _ in range(3)]
    # products know no digits: at n <= ell-1 the digits are the coordinates,
    # and past that the digits N and N+1 are read from the coordinates
    for ell, n in ((7, 5), (5, 6)):
        ctx = RingCtx(ell, n)
        pairs.append(tuple(_level_member(ctx, 3, 2, rng) * _level_member(ctx, 3, 3, rng)
                           for _ in range(2)))
    inverses = _spy(monkeypatch, MatLocal, "inverse")
    assert all(matrix_commutator_check(a, b) for a, b in pairs)
    assert su_commutator_span_check(3, 3, 4) and su_commutator_span_check(5, 3, 5, -1)
    assert inverses == [] and expansions == []


def test_filtration_levels_and_unit_decompositions_expand_no_digits(expansions):
    rng = random.Random(37)
    for ell, d, n in ((3, 3, 5), (5, 2, 4), (7, 3, 8)):
        ctx = RingCtx(ell, n)
        for level in range(1, n):
            a = _level_member(ctx, d, level, rng) * _level_member(ctx, d, n - 1, rng)
            assert a.filtration_level() >= level
    for ell, r in ((3, 4), (5, 2), (7, 3)):
        ctx = RingCtx(ell, 2 * ell)
        x = sum((g * rng.randrange(ell) for g in u_prime_basis(ell, ctx.precision).log_generators),
                CycloElt.zero(ctx))
        for e in range(2 * ell):
            assert decompose_unit((-CycloElt.zeta(ctx, 1)) ** e * exp(x), r)[0] == e
    assert expansions == []


def test_hashing_reads_coordinates_and_expands_no_digits(expansions):
    """Two representatives of one class on the power basis, past n = ell-1
    where digits are not coordinates, hash equal without a digit expansion."""
    for ell, n in ((3, 7), (5, 9), (7, 8)):
        ctx = RingCtx(ell, n)
        lam_n = lift_digits([0] * n + [1], ell)
        c = [k * k + 1 for k in range(ell - 1)]
        x = CycloElt.from_poly(c, ctx)
        y = CycloElt.from_poly([a + 2 * b for a, b in zip(c, lam_n)], ctx)
        assert hash(x) == hash(y) and {x, y} == {x}
    assert expansions == []


@pytest.mark.parametrize("ell", [5, 7, 11])
def test_lift_chains_up_to_ell_minus_one_expand_no_digits(expansions, ell):
    """At n <= ell-1 a lift chain reads its digits off the coordinates:
    every digit of the chain and of the lift is read, and none expanded."""
    for d in (2, 5):
        form = HermitianForm.standard(RingCtx(ell, 1), d, -1)
        a = random_su_element(form, ell - 2, random.Random(f"{ell}/{d}"))
        lifted = lift_su(a, form)
        assert lifted.ctx.precision == ell - 1
        assert classify_membership(lifted, form).kind == "SU"
        for m in (a, lifted):
            digits = [digit(m, k) for k in range(m.ctx.precision)]
            assert MatLocal.from_digit_matrices(m.ctx, d, digits) == m
    assert expansions == []
