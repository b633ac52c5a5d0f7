"""Self-tests of the benchmark: generators, oracles and self-time arithmetic.

    PYTHONPATH=src python -m pytest -q bench
"""

import dataclasses
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import oracles
import run
import spans
import workloads


# ---------------------------------------------------------------------------
# generators


@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
def test_generator_is_deterministic_per_seed(workload):
    gen = workloads.GENERATORS[workload]

    def draw(seed):
        return [(op.kind, op.params) for op in gen(seed)]

    assert draw(7) == draw(7)
    assert draw(7) != draw(8)


@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
def test_every_seed_runs_the_same_parameter_multiset(workload):
    def shape(seed):
        return sorted((op.kind, op.params["ell"], op.params.get("d"), op.params.get("n"),
                       op.params.get("r"), op.params.get("m"))
                      for op in workloads.GENERATORS[workload](seed))

    assert shape(1) == shape(2)


def test_poly_text_round_trips_through_the_parser():
    from lamadic import parse_poly

    rng = random.Random(5)
    for _ in range(50):
        coeffs = tuple(rng.randint(-9, 9) for _ in range(rng.randint(5, 12))) + (1,)
        assert parse_poly(workloads.poly_text(coeffs)).coeffs == coeffs


# ---------------------------------------------------------------------------
# oracles reject planted wrong answers


def _run_op(op):
    args = op.prepare()
    return args, op.call(args)


def test_lift_oracle_rejects_perturbed_digits():
    op = workloads._lift_chain(5, 3, 4, -1, 11)
    args, (a, lifted, verdict) = _run_op(op)
    assert op.check(args, (a, lifted, verdict)) is None
    a_digits, lift_digits = workloads._digits(a), workloads._digits(lifted)

    def perturbed(position):
        rows = [list(map(list, row)) for row in lift_digits]
        rows[0][1][position] = (rows[0][1][position] + 1) % 5
        return [[tuple(e) for e in row] for row in rows]

    top = oracles.check_lift(5, 4, -1, a_digits, perturbed(3), "SU")
    assert top and "lambda^4" in top
    low = oracles.check_lift(5, 4, -1, a_digits, perturbed(0), "SU")
    assert low and "truncate" in low
    assert oracles.check_lift(5, 4, -1, a_digits, lift_digits, "U")


def test_commutator_oracle_requires_true():
    op = workloads._commutator(3, 3, 5, 2)
    args, result = _run_op(op)
    assert op.check(args, result) is None
    assert oracles.check_commutator(False)


def _session_lines(coeffs, ell):
    op = workloads._session(coeffs, ell)
    _, (codes, outs) = _run_op(op)
    return codes, [[json.loads(s) for s in out.splitlines()] for out in outs]


# x^6 - 3x^4 + 7x^3 + 4x^2 + 7x + 1 at ell = 11 passes every hypothesis.
PASSING = ((1, 7, 4, 7, -3, 0, 1), 11)


def test_curve_oracle_accepts_a_passing_session():
    codes, lines = _session_lines(*PASSING)
    assert codes == [0, 0]
    assert oracles.check_curve_session(*PASSING, codes, lines) is None


def test_curve_oracle_rejects_a_wrong_simple_prime():
    codes, lines = _session_lines(*PASSING)
    disc = lines[0][0]["disc"]
    wrong = next(p for p in (3, 5, 7, 13, 17, 19, 23) if disc % p)
    lines[0][0]["simple_prime"] = wrong
    assert "ord_" in oracles.check_curve_session(*PASSING, codes, lines)
    lines[0][0]["simple_prime"] = 2
    assert "excluded" in oracles.check_curve_session(*PASSING, codes, lines)


def test_curve_oracle_rejects_wrong_disc_and_witness():
    codes, lines = _session_lines(*PASSING)
    lines[0][0]["disc"] += 1
    assert "disc" in oracles.check_curve_session(*PASSING, codes, lines)
    codes, lines = _session_lines(*PASSING)
    witness = lines[1][0]["galois"]["witnesses"]["transposition"]
    witness["cycle_type"] = sorted(witness["cycle_type"])[::-1] + [0]
    assert "witness" in oracles.check_curve_session(*PASSING, codes, lines)


def test_curve_oracle_checks_refusals():
    coeffs, ell = PASSING
    codes, lines = _session_lines(*PASSING)
    lines[1] = [{"error": "unit-index bound not tight: kappa_bound=1, t=0", "code": 3}]
    assert oracles.check_curve_session(coeffs, ell, [0, 3], lines)


def test_invariant_oracles_reject_planted_answers():
    from lamadic import decompose_unit, demjanenko_det, lattice_index_check, u_reduction_order

    rep = demjanenko_det(23, 4)
    assert oracles.check_demjanenko(23, 4, rep) is None
    assert "published" in oracles.check_demjanenko(23, 4, dataclasses.replace(rep, h_minus=1))
    assert oracles.check_demjanenko(23, 4, dataclasses.replace(rep, t=rep.t + 1))
    assert oracles.check_demjanenko(23, 4, dataclasses.replace(rep, det=-rep.det))

    t = lattice_index_check(7, 3)
    assert oracles.check_lattice_index(7, 3, t) is None
    assert oracles.check_lattice_index(7, 3, t + 1)

    total, parts = u_reduction_order(11, 8, 7)
    assert oracles.check_reduction_order(11, 8, 7, (total, parts)) is None
    assert oracles.check_reduction_order(11, 8, 7, (total * 11, parts))

    op = workloads._decompose(7, 8, 3, 5, [1, 2, 3])
    args, got = _run_op(op)
    assert op.check(args, got) is None
    e, rho, x = decompose_unit(args, 3)
    assert oracles.check_decompose(6, x.digits, (e, rho, x))
    assert oracles.check_decompose(5, x.digits[:-1] + ((x.digits[-1] + 1) % 7,), (e, rho, x))


# ---------------------------------------------------------------------------
# self time


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_on_a_synthetic_span_tree():
    clock = FakeClock()
    tr = spans.Tracer(clock)
    tr.op_id = 0

    def at(t, action, *args):
        clock.now = t
        action(*args)

    at(0, tr.enter, "A")                  # A: 0..12
    at(1, tr.enter, "ring.add", True)     #   add (as sub): 1..6
    at(2, tr.enter, "ring.add", True)     #     add: 2..3
    at(3, tr.exit)
    at(4, tr.enter, "ring.digits", True)  #     digits: 4..5
    at(5, tr.exit)
    at(6, tr.exit)
    at(7, tr.enter, "B")                  #   B: 7..10
    at(8, tr.enter, "ring.add", True)     #     add: 8..9.5
    at(9.5, tr.exit)
    at(10, tr.exit)
    at(12, tr.exit)

    per_op = spans.self_times(tr.spans, tr.aggregates)
    assert list(per_op) == [0]
    times = per_op[0]
    assert times["A"] == [1, 12.0, 12.0 - 5.0 - 3.0]
    assert times["B"] == [1, 3.0, 1.5]
    assert times["ring.add"] == [3, 7.5, 7.5 - 1.0 - 1.0]
    assert times["ring.digits"] == [1, 1.0, 1.0]
    assert sum(v[2] for k, v in times.items() if k is not None) == pytest.approx(12.0)
    assert spans.summed(per_op, [0, 1]) == times
    a, b = sorted((s for s in tr.spans), key=lambda s: s[0])
    assert b[1] == a[0] and a[1] is None and b[4] == "A"


def test_unwind_closes_interrupted_calls():
    clock = FakeClock()
    tr = spans.Tracer(clock)
    tr.enter("A")
    tr.enter("ring.mul", True)
    clock.now = 2.0
    tr.unwind(0)
    assert tr.depth() == 0
    assert spans.self_times(tr.spans, tr.aggregates)[None]["ring.mul"] == [1, 2.0, 2.0]


def test_install_wraps_every_binding_and_undoes():
    from lamadic import classnum, curves, ring

    original = ring.is_prime
    tr = spans.Tracer()
    undo = spans.install(tr, [(ring, "is_prime", "ring.is_prime", True)])
    try:
        assert curves.is_prime is classnum.is_prime is ring.is_prime is not original
        curves.is_prime(97)
        classnum.n_of(7, 3, 1)
    finally:
        undo()
    assert curves.is_prime is classnum.is_prime is ring.is_prime is original
    assert spans.self_times(tr.spans, tr.aggregates)[None]["ring.is_prime"][0] == 2


def test_tail_has_ten_samples_beyond():
    value, pct, mean = run.tail(list(range(30)))
    assert value == 19 and sum(v > value for v in range(30)) == 10
    assert pct == pytest.approx(100 * 20 / 30)
    assert mean == pytest.approx(24.0)


def test_latency_of_an_operation_is_its_median_over_the_passes():
    def rec(op, latency, status="ok"):
        return {"op": op, "latency_s": latency, "status": status}

    records = [rec(0, 1.0), rec(1, 3.0), rec(0, 5.0), rec(1, 1.0), rec(0, 2.0), rec(1, 2.0),
               rec(2, 9.0), rec(2, 10.0, "deadline"), rec(2, 9.0)]
    metrics, _, finished = run.end_to_end(records)
    assert finished == 2  # op 2 missed the deadline in one pass
    assert metrics["ops_per_s"] == pytest.approx(2 / (2.0 + 2.0))
    assert metrics["op_p50_s"] == pytest.approx(2.0)
    assert metrics["fail_frac"] == pytest.approx(1 / 9)


def test_unitary_timed_calls_leave_sympy_unloaded():
    """peak_rss_mb on unitary must not include the oracles' sympy."""
    bench = Path(__file__).resolve().parent
    code = (
        "import sys, workloads\n"
        "for op in workloads.unitary_ops(1)[:5]:\n"
        "    op.call(op.prepare())\n"
        "print('sympy' in sys.modules)\n"
    )
    env = {"PYTHONPATH": os.pathsep.join([str(bench), str(bench.parent / "src")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True).stdout
    assert out.strip() == "False"
