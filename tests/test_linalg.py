import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from sympy import GF, ZZ, Matrix
from sympy.matrices.normalforms import smith_normal_form
from sympy.polys.matrices import DomainMatrix

from lamadic import linalg
from lamadic.lattices import (
    AbelianPresentation,
    abelian_order,
    anti_fixed_basis_coords,
    t_doubleprime_matrix,
    u_reduction_order,
)
from lamadic.linalg import det, index_modulo, lattice_index, solve
from lamadic.ring import DomainError, is_prime
from ring_oracles import additive_ring_presentation, local_index_exponent, solve_over_fractions


def _rand_matrix(rng, rows, cols, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


def test_det_matches_sympy():
    rng = random.Random(31)
    assert det([]) == 1
    assert det([[0, 1], [1, 0]]) == -1
    for _ in range(150):
        n = rng.randint(1, 7)
        m = _rand_matrix(rng, n, n)
        if n > 1 and rng.random() < 0.2:  # a dependent row
            m[-1] = [2 * x for x in m[0]]
        assert det(m) == Matrix(m).det(), m


def test_index_modulo_at_a_prime_reads_the_rank():
    """|F_p^g / span| = p^(g - rank): the rows of a random matrix over F_p
    folded modulo p, against sympy's rank over GF(p)."""
    rng = random.Random(32)
    for _ in range(150):
        p = rng.choice((2, 3, 5, 7, 11))
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = _rand_matrix(rng, rows, cols, 0, 3 if rng.random() < 0.5 else 20)
        rank = DomainMatrix.from_Matrix(Matrix(m)).convert_to(GF(p)).rank()
        assert index_modulo(cols, m, p) == p ** (cols - rank), (m, p)


def _smith_order(g, columns):
    rows = [[c[i] for c in columns] for i in range(g)]
    s = smith_normal_form(Matrix(rows), domain=ZZ)
    diag = [abs(s[i, i]) for i in range(min(s.rows, s.cols))]
    if len(diag) < g or 0 in diag:
        return None
    out = 1
    for x in diag:
        out *= x
    return out


def test_lattice_index_matches_smith_form():
    rng = random.Random(33)
    cases = []
    for _ in range(200):
        g = rng.randint(1, 5)
        k = rng.randint(max(1, g - 1), g + 3)
        cols = _rand_matrix(rng, k, g, -6, 6)
        if rng.random() < 0.3:  # force rank deficiency or large torsion
            cols = [[3 * x for x in c] for c in cols] if rng.random() < 0.5 else [
                [x * c[0] for x in cols[0]] for c in cols]
        cases.append((g, cols))
    for _ in range(30):
        g = rng.randint(2, 5)
        lead = _rand_matrix(rng, g, g, -6, 6)
        extra = _rand_matrix(rng, rng.randint(1, 3), g, -6, 6)
        # a nonsingular leading block followed by extra columns
        cases.append((g, lead + extra))
        # a singular leading block, with and without rank g overall
        lead[-1] = [a - 2 * b for a, b in zip(lead[0], lead[1])]
        cases.append((g, lead + extra))
        cases.append((g, lead + [[a + b for a, b in zip(lead[0], lead[1])]]))
    cases += [
        (3, [[2, 0, 0], [4, 0, 0], [0, 3, 0], [0, 0, 5], [1, 6, 0]]),  # 15
        (3, [[1, 2, 3], [2, 4, 6], [0, 0, 7]]),  # rank 2
        (3, [[1, 0, 0], [0, 1, 0]]),  # fewer columns than g
        (0, []),
        (0, [[], []]),
    ]
    infinite = 0
    for g, cols in cases:
        want = _smith_order(g, cols)
        if want is None:
            infinite += 1
            with pytest.raises(DomainError):
                lattice_index(g, cols)
        else:
            assert lattice_index(g, cols) == want, (g, cols)
            # any multiple of the index annihilates the quotient
            assert index_modulo(g, cols, int(want) * rng.randint(1, 3)) == want, (g, cols)
    assert 10 < infinite < 150
    assert lattice_index(0, []) == 1


def test_lattice_index_matches_local_oracle_at_29():
    # the presentation behind u_reduction_order(29, r, 28): O/lambda^28 on
    # the zeta-power basis and the anti-fixed log generators
    ell, m = 29, 28
    pres = additive_ring_presentation(ell, m)
    g = pres.generators
    rel = [list(c) for c in zip(*pres.relations)]
    gens = [list(c) for c in anti_fixed_basis_coords(ell)]
    depth = -(-m // (ell - 1)) + 1
    assert lattice_index(g, rel) == ell**m == ell ** local_index_exponent(rel, g, ell, depth)
    joint = local_index_exponent(rel + gens, g, ell, depth)
    assert lattice_index(g, rel + gens) == ell**joint
    total, parts = u_reduction_order(ell, 3, m)
    assert parts["anti_fixed_exponent"] == m - joint
    assert total == parts["torsion"] * parts["rational"] * ell ** (m - joint)


def test_abelian_order_matches_smith_form():
    rng = random.Random(37)
    done = 0
    while done < 100:
        g = rng.randint(1, 5)
        rel = _rand_matrix(rng, rng.randint(g, g + 2), g, -6, 6)
        total = _smith_order(g, rel)
        if total is None:
            continue
        done += 1
        gens = _rand_matrix(rng, rng.randint(1, 3), g, -6, 6)
        pres = AbelianPresentation(g, tuple(zip(*rel)))
        assert abelian_order(pres, gens) == total // _smith_order(g, rel + gens), (rel, gens)


def test_one_elimination_per_determinant_and_solve(monkeypatch):
    calls = []

    def spy(name):
        original = getattr(linalg, name)

        def wrapped(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(linalg, name, wrapped)

    ell = 13
    pres = additive_ring_presentation(ell, 20)
    gens = [list(c) for c in anti_fixed_basis_coords(ell)]
    want = abelian_order(pres, gens)
    spy("det")
    spy("_bareiss")
    # the group order is the one determinant; the joint span folds modulo it
    assert abelian_order(pres, gens) == want
    assert calls == ["det", "_bareiss"]
    calls.clear()
    assert linalg.det([[2, 1], [1, 3]]) == 5
    assert calls == ["det", "_bareiss"]
    calls.clear()
    assert linalg.solve([[2, 1], [1, 3]], [[1, 0]]) == [[Fraction(3, 5), Fraction(-1, 5)]]
    assert calls == ["_bareiss"]


def test_solve_exact_and_overdetermined():
    rows = [[1, 2], [3, 4], [5, 6]]
    x = [Fraction(1, 3), Fraction(-2, 7)]
    b = [sum(r * v for r, v in zip(row, x)) for row in rows]
    assert solve(rows, [b, [1, 3, 5]]) == [x, [1, 0]]
    with pytest.raises(DomainError):
        solve(rows, [[1, 0, 0]])  # inconsistent
    with pytest.raises(DomainError):
        solve([[1, 2], [2, 4]], [[1, 2]])  # dependent columns
    with pytest.raises(DomainError, match="columns are dependent"):
        solve([[1, 2, 3]], [[1]])  # fewer equations than unknowns


def test_square_lattice_index_matches_the_fold():
    rng = random.Random(34)
    done = 0
    while done < 150:
        g = rng.randint(1, 6)
        cols = _rand_matrix(rng, g, g, -9, 9)
        if det(cols) == 0:
            continue
        done += 1
        # a zero column leaves the span alone but forces the fold modulo D
        assert lattice_index(g, cols) == lattice_index(g, cols + [[0] * g]) == abs(det(cols))
    for g in range(1, 6):
        cols = _rand_matrix(rng, g - 1, g, -9, 9)
        cols.append([sum(c[i] for c in cols) for i in range(g)])  # zero at g = 1
        with pytest.raises(DomainError):
            lattice_index(g, cols)


def _outcome(fn, rows, rhs):
    try:
        return fn(rows, rhs)
    except DomainError as e:
        return str(e)


def test_solve_matches_the_fraction_oracle():
    rng = random.Random(35)

    def entry(fractions):
        x = rng.randint(-9, 9)
        return Fraction(x, rng.randint(1, 12)) if fractions and rng.random() < 0.5 else x

    outcomes = []
    for _ in range(300):
        n = rng.randint(1, 6)
        m = n + rng.choice((0, 0, 1, 3))  # square or overdetermined
        fractions = rng.random() < 0.5
        rows = [[entry(fractions) for _ in range(n)] for _ in range(m)]
        if rng.random() < 0.3:  # the first pivot needs a row swap
            rows[0][0] = 0
        if rng.random() < 0.15 and n > 1:  # dependent columns
            for row in rows:
                row[-1] = 2 * row[0] - row[1]
        rhs = [[entry(fractions) for _ in range(m)] for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.4:  # consistent: B = A X for a rational X
            xs = [[entry(True) for _ in range(n)] for _ in rhs]
            rhs = [[sum(a * x for a, x in zip(row, xc)) for row in rows] for xc in xs]
        got = _outcome(solve, rows, rhs)
        assert got == _outcome(solve_over_fractions, rows, rhs), (rows, rhs)
        outcomes.append(got if isinstance(got, str) else "solved")
    assert {o: outcomes.count(o) > 10 for o in set(outcomes)} == {
        "solved": True, "columns are dependent": True, "inconsistent system": True}


def test_solve_with_a_row_swap_and_negative_pivots():
    rows = [[0, -3, 1], [-2, 5, 0], [4, 1, -7], [2, -2, -6]]
    x = [Fraction(-5, 3), Fraction(2, 7), 3]
    b = [sum(a * v for a, v in zip(row, x)) for row in rows]
    assert solve(rows, [b]) == solve_over_fractions(rows, [b]) == [x]
    for bad, message in (([[0, 1], [0, 2], [0, 3]], "columns are dependent"),
                         ([[-1, 2], [3, -6]], "columns are dependent")):
        with pytest.raises(DomainError, match=message):
            solve(bad, [[1] * len(bad)])
    with pytest.raises(DomainError, match="inconsistent system"):
        solve(rows, [[1, 0, 0, 0]])


def test_t_doubleprime_matrix_matches_the_fraction_oracle(monkeypatch):
    cases = [(ell, r) for ell in range(3, 32) if is_prime(ell)
             for r in range(2, 21) if r % ell]
    got = [t_doubleprime_matrix(ell, r) for ell, r in cases]
    monkeypatch.setattr(linalg, "solve", solve_over_fractions)
    assert got == [t_doubleprime_matrix(ell, r) for ell, r in cases]


_SYMPY_FREE = """
import contextlib, io, sys
from lamadic.classnum import demjanenko_det, h_minus
from lamadic.cli import run
from lamadic.lattices import lattice_index_check, u_reduction_order

assert h_minus(101) == 3547404378125
demjanenko_det(23, 4)
lattice_index_check(13, 5)
u_reduction_order(11, 3, 10)
# one input certified symmetric, one reducible
for poly, codes in (("x^8 + x - 1", [0, 0]), ("x^8 + x + 1", [3, 3])):
    with contextlib.redirect_stdout(io.StringIO()):
        assert [run([command, "--ell", "11", "--poly", poly, "--json"])
                for command in ("check-curve", "division-degree")] == codes
print("sympy" in sys.modules)
"""


def test_invariants_run_without_sympy():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", _SYMPY_FREE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]
