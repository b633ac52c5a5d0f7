"""Seeded input generators and operations for the three workloads.

An operation has three parts: `prepare` builds the program's inputs from
the generated parameters (untimed), `call` is the timed request, and
`check` compares its answer with an oracle from oracles.py (untimed).
Calls look lamadic's functions up when they run, so that the traced run
reaches them through the wrappers spans.install puts in place.

A generator returns one pass: a list of operations whose parameters are
the same multiset for every seed, so every seed puts the same kinds and
sizes of work in a run; the seed draws the random content of each
operation and, in curves and invariants, the order of the pass.  A run times the pass several
times over (run.py).  No operation of a pass fails at the commit that
added the benchmark: the slowest takes about 1.5 s, against a
DEADLINE_S of 10 s.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from typing import Any, Callable

import lamadic
import lamadic.cli
from lamadic.classnum import h_minus as _h_minus


def _oracles():
    """oracles.py, imported at the first check: it loads sympy, which the
    timed calls of the unitary workload never do."""
    import oracles

    return oracles


# Per-operation deadline in seconds.  A miss is a failed operation.  The
# slowest operation of any workload takes about 1.5 s on a 2-core x86 host,
# so the deadline only stops a run from stalling on a hang.
DEADLINE_S = 10.0


def reset():
    """Empties h^-'s cache before each pass, so that every pass starts as a
    fresh grid run does: the first operation at an ell pays for h^-, and
    repeats of that ell in the pass hit the cache."""
    _h_minus.cache_clear()


PRIMES_TO_67 = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67)


@dataclass
class Op:
    kind: str
    params: dict
    prepare: Callable[[], Any]
    call: Callable[[Any], Any]
    check: Callable[[Any, Any], Any]


def _r_values(ell):
    return [r for r in range(2, 21) if r % ell]


def _digits(m):
    return [[e.digits for e in row] for row in m.entries]


# ---------------------------------------------------------------------------
# unitary: lift chains and commutator checks, ring-heavy at small ell.


def _lift_chain(ell, d, n, sign, seed):
    from lamadic import HermitianForm, RingCtx

    def prepare():
        return (
            HermitianForm.standard(RingCtx(ell, 1), d, sign),
            HermitianForm.standard(RingCtx(ell, n - 1), d, sign),
            HermitianForm.standard(RingCtx(ell, n), d, sign),
            random.Random(seed),
        )

    def call(args):
        form1, form_prev, form_n, rng = args
        a = lamadic.random_su_element(form1, n - 1, rng)
        lifted = lamadic.lift_su(a, form_prev)
        return a, lifted, lamadic.classify_membership(lifted, form_n)

    def check(args, result):
        a, lifted, verdict = result
        return _oracles().check_lift(ell, n, sign, _digits(a), _digits(lifted), verdict.kind)

    params = {"ell": ell, "d": d, "n": n, "sign": sign, "seed": seed}
    return Op("lift_chain", params, prepare, call, check)


def _commutator(ell, d, n, seed):
    from lamadic import MatLocal, RingCtx

    def prepare():
        rng = random.Random(seed)
        ctx = RingCtx(ell, n)
        level = (n - 1) // 2

        def member():
            mats = [[[int(i == j) for j in range(d)] for i in range(d)]]
            mats += [[[0] * d for _ in range(d)] for _ in range(level - 1)]
            mats += [
                [[rng.randrange(ell) for _ in range(d)] for _ in range(d)]
                for _ in range(n - level)
            ]
            return MatLocal.from_digit_matrices(ctx, d, mats)

        return member(), member()

    def call(args):
        return lamadic.matrix_commutator_check(*args)

    def check(args, result):
        return _oracles().check_commutator(result)

    return Op("commutator", {"ell": ell, "d": d, "n": n, "seed": seed}, prepare, call, check)


def unitary_ops(seed):
    """36 lift chains (ell in {3,5,7,11} x d in 2..10, n in 3..8 rotated
    over the cells up to d = 6, n in {3,4} above), two chains at
    (ell, d, n) = (5, 12, 3), and 36 commutator checks (ell in {3,5} x
    d in 2..4 x n in 3..8) on level-floor((n-1)/2) members.  The seed draws
    the Hermitian sign and the random content of every operation.

    The chains at d >= 9 are the slowest operations and make op_tail_s:
    det_local's 2^d cofactor expansion.  The order is fixed.  No
    operation here leaves a cache another one uses, but the peak resident
    set depends on where the d = 12 chains fall in the heap's history: in
    seed-drawn order, peak_rss_mb spread by 0.15 of its median over ten
    seeds."""
    rng = random.Random(f"unitary/{seed}")
    ops = []
    for i, ell in enumerate((3, 5, 7, 11)):
        for d in range(2, 11):
            n = 3 + (d + i) % (6 if d < 7 else 2)
            ops.append(_lift_chain(ell, d, n, rng.choice((1, -1)), rng.getrandbits(32)))
    for _ in range(2):
        ops.append(_lift_chain(5, 12, 3, rng.choice((1, -1)), rng.getrandbits(32)))
    for ell in (3, 5):
        for d in (2, 3, 4):
            for n in range(3, 9):
                ops.append(_commutator(ell, d, n, rng.getrandbits(32)))
    return ops


# ---------------------------------------------------------------------------
# curves: one CLI session per polynomial, check-curve then division-degree.

# The polynomials are one fixed draw, POOL_PER_DEGREE for each degree 5..12,
# from random.Random(POOL_SEED); polynomial i is paired with the
# (i mod k)-th of the k primes ell in {3,5,7,11,13} that do not divide its
# degree.  Fresh polynomials per seed were tried: a session's cost spans
# three decades, and the share of costly draws changes from seed to seed
# so much that op_p50_s spread 0.5-0.9 of its median over ten seeds.
#
# SLOW_DRAWS are left out: the draws whose session took more than 1.5 s
# (best of two on a 2-core x86 host at the commit that added the
# benchmark).  24 of the 26 did not finish within 4 s, stuck in the trial
# division of ring.is_prime on a large prime factor of the discriminant.
# A workload must be one on which no operation fails, and a session that
# hangs can only count as a deadline miss, whose number depends on the
# host's speed.  The kept sessions whose discriminant has a prime factor
# of 10^11 to 10^13 still spend most of their time in that trial division
# (0.3-1.3 s), so is_prime's cost shows in op_tail_s and ops_per_s.
POOL_SEED = 0
POOL_PER_DEGREE = 8
SLOW_DRAWS = frozenset({4, 5, 6, 7, 12, 13, 14, 15, 21, 22, 23, 26, 29, 30, 31, 37, 38, 39,
                        45, 46, 53, 54, 55, 61, 62, 63})
CURVE_ELLS = (3, 5, 7, 11, 13)


def curve_pool():
    """[(coefficients from the constant term up, ell)] of the kept draws."""
    rng = random.Random(POOL_SEED)
    draws = []
    for _ in range(POOL_PER_DEGREE):
        for deg in range(5, 13):
            draws.append(tuple(rng.randint(-9, 9) for _ in range(deg)) + (1,))
    pool = []
    for i, coeffs in enumerate(draws):
        ells = [ell for ell in CURVE_ELLS if (len(coeffs) - 1) % ell]
        if i not in SLOW_DRAWS:
            pool.append((coeffs, ells[i % len(ells)]))
    return pool


def poly_text(coeffs):
    terms = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c == 0:
            continue
        mono = "" if k == 0 else ("x" if k == 1 else f"x^{k}")
        body = str(abs(c)) if not mono else (mono if abs(c) == 1 else f"{abs(c)}*{mono}")
        terms.append(("-" if c < 0 else "+") + " " + body)
    text = " ".join(terms)
    return text[2:] if text.startswith("+ ") else text


def _session(coeffs, ell):
    argv_tail = ["--ell", str(ell), "--poly", poly_text(coeffs), "--json"]

    def call(_):
        codes, outs = [], []
        for sub in ("check-curve", "division-degree"):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                codes.append(lamadic.cli.run([sub] + argv_tail))
            outs.append(buf.getvalue())
        return codes, outs

    def check(_, result):
        codes, outs = result
        try:
            lines = [[json.loads(s) for s in out.splitlines()] for out in outs]
        except json.JSONDecodeError:
            return "stdout is not one JSON object per line"
        return _oracles().check_curve_session(coeffs, ell, codes, lines)

    return Op("session", {"ell": ell, "poly": poly_text(coeffs)}, lambda: None, call, check)


def curves_ops(seed):
    """One session per (polynomial, ell) of the pool.  The seed draws the
    twist f(x) -> (-1)^r f(-x) of each polynomial, which leaves the
    discriminant and the session's cost alone, and the order."""
    rng = random.Random(f"curves/{seed}")
    ops = []
    for coeffs, ell in curve_pool():
        r = len(coeffs) - 1
        if rng.random() < 0.5:
            coeffs = tuple(c * (-1) ** (r - j) for j, c in enumerate(coeffs))
        ops.append(_session(coeffs, ell))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# invariants: class numbers, determinants, unit lattices and unit
# decompositions over the (ell, r) grid.


def _demjanenko(ell, r):
    return Op(
        "demjanenko_det", {"ell": ell, "r": r}, lambda: None,
        lambda _: lamadic.demjanenko_det(ell, r),
        lambda _, rep: _oracles().check_demjanenko(ell, r, rep),
    )


def _lattice_index(ell, r):
    return Op(
        "lattice_index_check", {"ell": ell, "r": r}, lambda: None,
        lambda _: lamadic.lattice_index_check(ell, r),
        lambda _, t: _oracles().check_lattice_index(ell, r, t),
    )


def _reduction_order(ell, r, m):
    return Op(
        "u_reduction_order", {"ell": ell, "r": r, "m": m}, lambda: None,
        lambda _: lamadic.u_reduction_order(ell, r, m),
        lambda _, got: _oracles().check_reduction_order(ell, r, m, got),
    )


def _decompose(ell, n, r, e, coefs):
    """A member (-zeta)^e * exp(x) with x = sum c_i (lambda^i - conj lambda^i)."""
    from lamadic import CycloElt, RingCtx, exp

    built = {}

    def prepare():
        if not built:
            ctx = RingCtx(ell, n)
            x = CycloElt.zero(ctx)
            for i, c in zip(range(2, (ell + 1) // 2 + 1), coefs):
                lam_i = CycloElt.lam(ctx, i)
                x = x + (lam_i - lam_i.conjugate()) * c
            built["x"] = x.digits
            built["d"] = (-CycloElt.zeta(ctx, 1)) ** e * exp(x)
        return built["d"]

    return Op(
        "decompose_unit", {"ell": ell, "n": n, "r": r, "e": e, "coefs": coefs}, prepare,
        lambda d: lamadic.decompose_unit(d, r),
        lambda _, got: _oracles().check_decompose(e, built["x"], got),
    )


def invariants_ops(seed):
    """demjanenko_det at every prime ell <= 67, lattice_index_check at every
    ell <= 31, u_reduction_order at every 5 <= ell <= 31 with
    m in {4, (ell+3)/2, ell-1}, and decompose_unit at (ell, ell+1) for
    ell in {5,7,11,13,17,19,23}.  r is the (ell mod k)-th of the k values
    in 2..20 that ell does not divide.  At ell in {29, 31}, m = ell-1 is
    replaced by ell-4: u_reduction_order(29, r, 28) takes about 36 s in
    sympy's Smith normal form, and a workload must be one on which no
    operation fails.  m = ell-4 and lattice_index_check at 29 and 31 still
    run that Smith normal form (lattices.abelian_order) at sizes that
    finish in 0.3 to 1.5 s; m = 26 at 29 takes 5.5 s.

    The (ell, r, m) grid is the same for every seed, as r changes the cost
    of lattice_index_check up to eightfold; the seed draws the units handed
    to decompose_unit and the order, which decides where h^-'s cache is
    cold."""
    rng = random.Random(f"invariants/{seed}")

    def r_of(ell):
        values = _r_values(ell)
        return values[ell % len(values)]

    ops = [_demjanenko(ell, r_of(ell)) for ell in PRIMES_TO_67]
    small = [ell for ell in PRIMES_TO_67 if ell <= 31]
    ops += [_lattice_index(ell, r_of(ell)) for ell in small]
    for ell in small[1:]:
        top = ell - 1 if ell < 29 else ell - 4
        for m in sorted({4, (ell + 3) // 2, top}):
            ops.append(_reduction_order(ell, r_of(ell), m))
    for ell in (5, 7, 11, 13, 17, 19, 23):
        coefs = [rng.randrange(ell) for _ in range(2, (ell + 1) // 2 + 1)]
        ops.append(_decompose(ell, ell + 1, r_of(ell), rng.randrange(2 * ell), coefs))
    rng.shuffle(ops)
    return ops


def curves_invariants_ops(seed):
    """The curves sessions and the invariants operations, in one order drawn
    by the seed.

    The two are one workload, not two, so that a run can last 50 s within
    the benchmark's time budget.  The host the benchmark was written on
    switches between a fast and a slow mode every half minute or so, and
    over ten seeds the 30 s runs of each part alone spread by 0.22 to 0.26
    of their median, while pairs of consecutive runs spread by about 0.1.
    The CLI sessions and the grid operations share h^-'s cache at small
    ell, as a user running both would."""
    ops = curves_ops(seed) + invariants_ops(seed)
    random.Random(f"curves_invariants/{seed}").shuffle(ops)
    return ops


GENERATORS = {"unitary": unitary_ops, "curves_invariants": curves_invariants_ops}

# A fresh interpreter imports lamadic and completes the smallest operation
# of the workload; set-up time is the wall time of that process.
SETUP_SNIPPETS = {
    "unitary": (
        "import random\n"
        "from lamadic import HermitianForm, RingCtx, classify_membership, lift_su, random_su_element\n"
        "a = random_su_element(HermitianForm.standard(RingCtx(3, 1), 2), 2, random.Random(0))\n"
        "b = lift_su(a, HermitianForm.standard(RingCtx(3, 2), 2))\n"
        "assert classify_membership(b, HermitianForm.standard(RingCtx(3, 3), 2)).kind == 'SU'\n"
    ),
    "curves_invariants": (
        "import contextlib, io\n"
        "from lamadic.cli import run\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [run([c, '--ell', '3', '--poly', 'x^5 - x - 1', '--json'])\n"
        "             for c in ('check-curve', 'division-degree')]\n"
        "assert all(c in (0, 3) for c in codes), codes\n"
        "from lamadic import demjanenko_det\n"
        "assert demjanenko_det(5, 2).h_minus == 1\n"
    ),
}
