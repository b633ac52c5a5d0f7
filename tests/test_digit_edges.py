"""Digits are an edge format: lamadic builds ring elements from power-basis
coefficients and calls the digit constructor CycloElt(ctx, digits) only to
read serialized or digit-matrix input.  A lift chain carries the digits it
knows instead of expanding them again, and reads orders and the digits it
needs from the coefficients, so it expands none."""

import ast
import random
from pathlib import Path

import pytest

import lamadic.ring as ring
from lamadic.matrices import (
    HermitianForm,
    MatLocal,
    classify_membership,
    det_local,
    lift_su,
    random_su_element,
)
from lamadic.ring import CycloElt, RingCtx
from ring_oracles import lift_digits, mul_mod_phi

SRC = Path(__file__).resolve().parent.parent / "src" / "lamadic"

EDGE_CONSTRUCTORS = {
    "ring.py:CycloElt.from_json_dict",
    "matrices.py:MatLocal.from_digit_matrices",
    "matrices.py:MatLocal.from_json_dict",
    "cli.py:_cmd_selftest",  # the digit round trip of the selftest
}


def _digit_constructor_calls(path):
    """'file:enclosing definition' of each CycloElt(...) call in the file."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Call):
                f = child.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                if name == "CycloElt":
                    found.append(f"{path.name}:{'.'.join(scope)}")
            visit(child, scope)

    visit(ast.parse(path.read_text(), str(path)), [])
    return found


def test_digit_constructor_is_called_only_by_the_edge_constructors():
    found = [site for path in sorted(SRC.rglob("*.py")) for site in _digit_constructor_calls(path)]
    assert found
    assert set(found) <= EDGE_CONSTRUCTORS, sorted(set(found) - EDGE_CONSTRUCTORS)


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
def test_lift_chains_carry_the_digits_a_fresh_expansion_gives(monkeypatch, ell):
    expand = ring.digits_from_poly
    expansions = []

    def counting(poly, ell, n):
        expansions.append(n)
        return expand(poly, ell, n)

    monkeypatch.setattr(ring, "digits_from_poly", counting)
    for d in (2, 3, 4, 5, 6, 10):
        for sign in (1, -1):
            form = HermitianForm.standard(RingCtx(ell, 1), d, sign)
            a = random_su_element(form, 4, random.Random(f"{ell}/{d}/{sign}"))
            lifted = lift_su(a, form)
            expansions.clear()
            for m in (a, lifted):
                n = m.ctx.precision
                for row in m.entries:
                    for e in row:
                        assert e.digits == expand(e.coeffs, ell, n), (ell, d, sign)
            assert expansions == []  # every digit read above was carried


@pytest.mark.parametrize("ell", [3, 5, 7, 11])
def test_a_lift_chain_expands_no_digits(monkeypatch, ell):
    expand = ring.digits_from_poly
    expansions = []

    def counting(poly, ell, n):
        expansions.append(n)
        return expand(poly, ell, n)

    monkeypatch.setattr(ring, "digits_from_poly", counting)
    for d in (2, 6, 10):
        form = HermitianForm.standard(RingCtx(ell, 1), d, -1 if d == 6 else 1)
        a = random_su_element(form, 4, random.Random(f"{ell}/{d}"))
        assert classify_membership(lift_su(a, form), form).kind == "SU"
    assert expansions == []


@pytest.mark.parametrize("ell", [3, 5, 7, 11])
def test_det_local_past_ell_expands_no_digits(monkeypatch, ell):
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
    expand = ring.digits_from_poly
    expansions = []

    def counting(poly, ell, n):
        expansions.append(n)
        return expand(poly, ell, n)

    monkeypatch.setattr(ring, "digits_from_poly", counting)
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
            x = CycloElt.from_poly(c, ctx)
            y = CycloElt.from_poly([a + b for a, b in zip(c, mul_mod_phi(lam_n, r, ell))], ctx)
            if x.coeffs == y.coeffs:  # lambda^n r can be 0 mod ell^k
                continue
            assert x == y and hash(x) == hash(y)
            assert x != y.add_top(1)
            compared += 1
    assert compared
