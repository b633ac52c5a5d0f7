"""The unitary and unit-order layers' outputs, compared byte for byte with
tests/data/unitary_golden.json, which was recorded before the SU lifts were
built from coefficients and the unit-reduction orders got closed forms, and
with tests/data/unitary_large_golden.json, the lift chains at the
benchmark's large cells, recorded before the packed elimination kernel and
the carried digits.  The lift chains at (ell, n) = (3, 5) were recorded
again when lift_su took the coordinate lift in place of the zero-padded
one; every recorded lift is checked on the power basis, with no lamadic
arithmetic."""

import contextlib
import io
import json
import random
from functools import lru_cache
from pathlib import Path

import pytest

from lamadic.cli import run
from lamadic.lattices import decompose_unit, u_reduction_order
from lamadic.matrices import HermitianForm, classify_membership, lift_su, random_su_element
from lamadic.ring import CycloElt, RingCtx, exp
from ring_oracles import in_lambda_n, lift_digits, mul_mod_phi, zeta_poly_galois

GOLDEN = Path(__file__).parent / "data" / "unitary_golden.json"
LARGE_GOLDEN = Path(__file__).parent / "data" / "unitary_large_golden.json"

PRIMES_5_TO_31 = (5, 7, 11, 13, 17, 19, 23, 29, 31)


def _digits(m):
    return [[list(e.digits) for e in row] for row in m.entries]


def _r_of(ell):
    """The r of the benchmark's invariants grid at ell."""
    values = [r for r in range(2, 21) if r % ell]
    return values[ell % len(values)]


def chain_record(ell, d, n, sign):
    """A random member at level n - 1, its lift, and the lift's verdict."""
    rng = random.Random(f"{ell}/{d}/{n}/{sign}")
    form = HermitianForm.standard(RingCtx(ell, 1), d, sign)
    a = random_su_element(form, n - 1, rng)
    lifted = lift_su(a, form)
    verdict = classify_membership(lifted, form)
    return {
        "ell": ell, "d": d, "n": n, "sign": sign,
        "a": _digits(a), "lift": _digits(lifted), "kind": verdict.kind,
        "det": list(verdict.det.digits),
        "multiplier": list(verdict.multiplier.digits),
    }


def lift_chains():
    return [chain_record(ell, d, n, sign)
            for ell in (3, 5, 7) for d in (2, 3, 4) for n in (3, 5) for sign in (1, -1)]


def large_lift_chains():
    """The benchmark's largest lift-chain cells, both signs."""
    return [chain_record(ell, d, n, sign)
            for ell, d, n in ((11, 10, 4), (5, 12, 3), (7, 9, 3)) for sign in (1, -1)]


def lift_check_outputs():
    out = []
    for argv in (["lift-check", "--ell", "5", "--d", "3", "--n", "5", "--trials", "20",
                  "--seed", "1", "--json"],
                 ["lift-check", "--ell", "3", "--d", "4", "--n", "4", "--json"]):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = run(argv)
        out.append({"argv": argv, "code": code, "stdout": buf.getvalue()})
    return out


def reduction_orders():
    """u_reduction_order on the benchmark's invariants grid."""
    out = []
    for ell in PRIMES_5_TO_31:
        top = ell - 1 if ell < 29 else ell - 4
        for m in sorted({4, (ell + 3) // 2, top}):
            total, parts = u_reduction_order(ell, _r_of(ell), m)
            out.append({"ell": ell, "r": _r_of(ell), "m": m, "total": total, "parts": parts})
    return out


def decompositions():
    """decompose_unit on members (-zeta)^e * exp(x) shaped as in the benchmark."""
    rng = random.Random("unitary-golden/decompose")
    out = []
    for ell in (5, 7, 11, 13, 17, 19, 23):
        ctx = RingCtx(ell, ell + 1)
        x = CycloElt.zero(ctx)
        for i in range(2, (ell + 1) // 2 + 1):
            lam_i = CycloElt.lam(ctx, i)
            x = x + (lam_i - lam_i.conjugate()) * rng.randrange(ell)
        e = rng.randrange(2 * ell)
        got_e, rho, got_x = decompose_unit((-CycloElt.zeta(ctx, 1)) ** e * exp(x), _r_of(ell))
        out.append({"ell": ell, "e": e, "got_e": got_e,
                    "rho": list(rho.digits), "x": list(got_x.digits)})
    return out


def live_records() -> str:
    records = {
        "lift_chains": lift_chains(),
        "lift_check": lift_check_outputs(),
        "u_reduction_order": reduction_orders(),
        "decompose_unit": decompositions(),
    }
    return json.dumps(records, indent=1, sort_keys=True) + "\n"


def test_unitary_and_unit_order_outputs_match_the_recording():
    assert live_records() == GOLDEN.read_text()


def large_records() -> str:
    return json.dumps({"lift_chains": large_lift_chains()}, indent=1, sort_keys=True) + "\n"


def test_large_lift_chains_match_the_recording():
    assert large_records() == LARGE_GOLDEN.read_text()


def _det_power_basis(p, ell):
    """Cofactor expansion of a matrix of power-basis entries along its rows,
    memoized over the columns left, with products mod Phi_ell."""
    d = len(p)

    @lru_cache(maxsize=None)
    def minor(cols):
        if not cols:
            return (1,) + (0,) * (ell - 2)
        row, total = d - len(cols), [0] * (ell - 1)
        for k, j in enumerate(cols):
            term = mul_mod_phi(p[row][j], minor(cols[:k] + cols[k + 1:]), ell)
            total = [t + (-1) ** k * c for t, c in zip(total, term)]
        return tuple(total)

    return minor(tuple(range(d)))


def check_lift_record(rec):
    """A lift_chains record against its defining properties, on the power
    basis: the lift truncates to a, A^dagger Gamma A - Gamma and det A - 1
    lie in lambda^n, and the recorded verdict is SU with det and multiplier
    1.  Gamma is diag(1, ..., 1), or diag(1, ..., 1, alpha) for sign -1 with
    alpha the least non-square mod ell (Euler's criterion)."""
    ell, d, n = rec["ell"], rec["d"], rec["n"]
    assert all(rec["lift"][i][j][:n - 1] == rec["a"][i][j] for i in range(d) for j in range(d))
    alpha = next(a for a in range(2, ell) if pow(a, (ell - 1) // 2, ell) == ell - 1)
    gamma = [1] * (d - 1) + [1 if rec["sign"] == 1 else alpha]
    p = [[lift_digits(digits, ell) for digits in row] for row in rec["lift"]]
    conj = [[zeta_poly_galois(x, ell - 1, ell) for x in row] for row in p]
    for i in range(d):
        for j in range(d):
            h = [0] * (ell - 1)
            for k in range(d):
                h = [x + gamma[k] * y for x, y in zip(h, mul_mod_phi(conj[k][i], p[k][j], ell))]
            h[0] -= gamma[i] * (i == j)
            assert in_lambda_n(h, ell, n), (ell, d, n, i, j)
    det = list(_det_power_basis(p, ell))
    det[0] -= 1
    assert in_lambda_n(det, ell, n)
    one = [1] + [0] * (n - 1)
    assert rec["kind"] == "SU" and rec["det"] == one and rec["multiplier"] == one


@pytest.mark.parametrize("path", [GOLDEN, LARGE_GOLDEN], ids=["small", "large"])
def test_the_recorded_lifts_pass_a_power_basis_oracle(path):
    records = json.loads(path.read_text())["lift_chains"]
    assert len(records) == (36 if path == GOLDEN else 6)
    for rec in records:
        check_lift_record(rec)
