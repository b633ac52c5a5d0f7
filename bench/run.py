"""lamadic benchmark: two closed-loop workloads, one operation at a time.

    python3 bench/run.py --workload unitary --seed 1 --seconds 50 --trace 0

--trace 0 times the workload untraced and prints the end-to-end metrics:
the seed's pass of operations runs again and again, at least MIN_PASSES
times, until another pass would end after --seconds, and each operation's
latency is its median over the passes.
--trace 1 runs the pass untraced twice, then with spans recorded around
lamadic's public functions; it prints the per-layer metrics and the
tracing overhead and writes the spans to bench/out/.
--workload all runs both workloads in turn, each in its own process.  The
last line of stdout is one JSON object: correct, attempted, failed,
metrics.  The exit code is 1 when an answer disagrees with its oracle or
an operation raises, and 2 when lamadic's sources are not beside the
benchmark.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("unitary", "curves_invariants")
SETUP_REPEATS = 5
MIN_PASSES = 3
TAIL_BEYOND = 10


class Deadline(BaseException):
    """Raised by SIGALRM when an operation overruns its deadline."""


# ---------------------------------------------------------------------------
# Running operations


class Runner:
    """Runs operations one at a time under a SIGALRM deadline."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, signum, frame):
        raise Deadline

    def run(self, index, op, args, limit):
        """One timed call; returns (record, answer).  The record's status is
        ok, deadline or error; `check` later turns ok into mismatch when
        the oracle disagrees."""
        tracer = self.tracer
        result = None
        reason = None
        if tracer:
            tracer.op_id = index
            depth = tracer.depth()
            tracer.enter("bench.op")
        # Untimed: the garbage of earlier operations is not this one's cost,
        # and collecting it here keeps peak_rss_mb from depending on when
        # the collector happened to run (its spread on unitary fell from
        # 0.09 to 0.01 of the median over five seeds).
        gc.collect()
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, limit)
        try:
            try:
                result = op.call(args)
                status = "ok"
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except Deadline:
            status = "deadline"
        except Exception as exc:  # any raise is a failed operation, not a crash
            status, reason = "error", f"{type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
        latency = time.perf_counter() - start
        if tracer:
            tracer.unwind(depth)
        record = {"op": index, "kind": op.kind, "params": op.params,
                  "latency_s": latency, "status": status}
        if reason:
            record["reason"] = reason
        if op.kind == "session" and status == "ok":
            record["exit_codes"] = result[0]
        return record, result


def check(op, args, record, result):
    """Runs the oracle on a finished operation, after the timed calls, so
    the oracles' imports and caches stay out of the timed process state."""
    if record["status"] != "ok":
        return
    try:
        reason = op.check(args, result)
    except Exception as exc:  # a malformed answer fails its oracle
        reason = f"oracle raised {type(exc).__name__}: {exc}"
    if reason:
        record["status"] = "mismatch"
        record["reason"] = reason


# ---------------------------------------------------------------------------
# End-to-end metrics


def tail(values):
    """(value, percentile, mean) at the highest percentile with TAIL_BEYOND
    samples beyond it; mean is that of the value and the samples beyond.

    The mean is what op_tail_s reports.  The top of a workload's latency
    distribution is sparse (unlike operations, seconds apart), so a single
    order statistic there jumps when host noise swaps two neighbours; the
    mean of the TAIL_BEYOND + 1 slowest moves only as their latencies do."""
    ordered = sorted(values)
    k = max(0, len(ordered) - TAIL_BEYOND - 1)
    return ordered[k], 100.0 * (k + 1) / len(ordered), statistics.fmean(ordered[k:])


def end_to_end(records):
    """Latency metrics over the operations that finished in every pass,
    each at its median latency over the passes.  A failure is counted
    apart, in fail_frac and the JSON's `failed`: no operation of a
    workload fails at the commit that added the benchmark, and a deadline
    miss costs the deadline, a constant of the benchmark."""
    by_op = {}
    for r in records:
        by_op.setdefault(r["op"], []).append(r)
    done = [statistics.median(r["latency_s"] for r in rs)
            for rs in by_op.values() if all(r["status"] == "ok" for r in rs)]
    if not done:
        raise SystemExit("error: no operation finished")
    tail_value, tail_pct, tail_mean = tail(done)
    return {
        "ops_per_s": len(done) / sum(done),
        "op_p50_s": statistics.median(done),
        "op_tail_s": tail_mean,
        "fail_frac": sum(r["status"] != "ok" for r in records) / len(records),
    }, (tail_value, tail_pct), len(done)


def setup_seconds(workload):
    """Median wall time of fresh interpreters that import lamadic and
    complete the workload's smallest operation."""
    import workloads

    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", workloads.SETUP_SNIPPETS[workload]],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, timeout=120,
        )
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up operation failed:\n{proc.stderr}")
    return statistics.median(times)


def warm_up(workload):
    """Runs the set-up operation in this process, untimed, so that the
    one-off first-call costs setup_s measures (lazy imports, first use of
    sympy) do not land on whichever timed operation the seed puts first."""
    import workloads

    exec(workloads.SETUP_SNIPPETS[workload], {})


UNITS = {"setup_s": "s", "ops_per_s": "ops/s", "op_p50_s": "s", "op_tail_s": "s",
         "fail_frac": "ratio", "peak_rss_mb": "MiB"}

# The metrics of the JSON line, BENCHMARK.json's end_to_end.  fail_frac is 0
# and travels as `failed`.  op_p50_s is printed only: on the curves sessions it falls
# among many short sessions of unlike cost and spread by 0.20 of its
# median over five seeds, against 0.17 for ops_per_s.
JSON_METRICS = ("setup_s", "ops_per_s", "op_tail_s", "peak_rss_mb")


def run_pass(runner, ops):
    """Yields (op, args, record, answer) for each operation of one pass
    over `ops`, after emptying the caches a pass starts without.  The
    caller keeps only the answers it needs.

    The objects that exist when the pass starts are frozen out of garbage
    collection.  Otherwise the collections during a pass would also scan
    what the earlier passes kept (answers, records), and later passes
    would run slower than the first: 7.0, 8.2 and 8.3 s on unitary,
    against 7.0, 6.7, 6.8 and 6.9 s with the freeze."""
    import workloads

    workloads.reset()
    gc.freeze()
    for i, op in enumerate(ops):
        args = op.prepare()
        yield (op, args) + runner.run(i, op, args, workloads.DEADLINE_S)


def timed_run(workload, seed, seconds):
    import workloads

    ops = workloads.GENERATORS[workload](seed)
    setup = setup_seconds(workload)
    warm_up(workload)
    runner = Runner()
    # The oracles check the first answer of each operation; every later
    # answer must equal it.  Only the checked answers are kept, so the
    # memory the run holds does not grow with the number of passes.
    kept = {}
    records = []
    pass_s = []
    start = time.perf_counter()
    while True:
        for op, args, record, answer in run_pass(runner, ops):
            records.append(record)
            if record["status"] != "ok":
                continue
            first = kept.setdefault(record["op"], (op, args, record, answer, repr(answer)))
            if first[2] is not record and repr(answer) != first[4]:
                record["status"] = "mismatch"
                record["reason"] = "answer differs from the one the oracle checks"
        elapsed = time.perf_counter() - start
        pass_s.append(elapsed - sum(pass_s))
        passes = len(pass_s)
        if passes >= MIN_PASSES and elapsed * (passes + 1) / passes > seconds:
            break
    # Read before the oracles run: they import sympy, which the unitary
    # workload never loads.
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for op, args, record, answer, _ in kept.values():
        check(op, args, record, answer)
    metrics, (tail_value, tail_pct), finished = end_to_end(records)
    metrics = {"setup_s": setup, **metrics, "peak_rss_mb": rss}
    reasons = Counter(r["status"] for r in records if r["status"] != "ok")
    print(f"workload {workload}  seed {seed}  {len(ops)} operations x {passes} passes"
          f" in {elapsed:.1f} s ({' '.join(f'{t:.2f}' for t in pass_s)})"
          f"  deadline {workloads.DEADLINE_S:g} s  closed loop, 1 client")
    for name, value in metrics.items():
        note = ""
        if name == "setup_s":
            note = f"median of {SETUP_REPEATS} fresh interpreters"
        elif name == "op_tail_s":
            note = (f"mean of the {TAIL_BEYOND + 1} slowest of {finished} operations;"
                    f" p{tail_pct:.1f} = {tail_value:.4g} s")
        elif name in ("ops_per_s", "op_p50_s"):
            note = f"over {finished} operations, each at its median over the passes"
        elif name == "fail_frac":
            note = ", ".join(f"{reasons[k]} {k}" for k in ("deadline", "mismatch", "error"))
        print(f"  {name:<12} {value:>12.6g} {UNITS[name]:<6} {note}")
    report_failures(records)
    return records, metrics


def report_failures(records):
    for r in records:
        if r["status"] != "ok":
            detail = r.get("reason") or f"{r['latency_s']:.3f} s"
            print(f"  {r['status']}: {r['kind']} {r['params']}: {detail}")


# ---------------------------------------------------------------------------
# Traced run


def trace_targets():
    """(owner, attribute, span name, aggregated) for every traced function."""
    from lamadic import classnum, cli, commutators, curves, lattices, matrices, ring

    elt, mat = ring.CycloElt, matrices.MatLocal
    fine = [
        (elt, "__mul__", "ring.mul"),  # also bound as __rmul__
        (elt, "__add__", "ring.add"), (elt, "__sub__", "ring.add"), (elt, "__neg__", "ring.add"),
        (ring, "digits_from_poly", "ring.digits"),
        (elt, "inverse", "ring.inverse"),
        (elt, "galois", "ring.galois"),
        (ring, "log1p", "ring.log_exp"), (ring, "exp", "ring.log_exp"),
        (ring, "is_prime", "ring.is_prime"),
    ]
    coarse = [
        (mat, "__mul__", "matrices.mul"),
        (mat, "inverse", "matrices.inverse"), (mat, "inverse_neumann", "matrices.inverse"),
    ] + [(matrices, f, f"matrices.{f}") for f in (
        "det_local", "lift_su", "classify_membership", "random_su_element")
    ] + [(commutators, f, f"commutators.{f}") for f in (
        "matrix_commutator_check", "group_commutator", "series_evaluate")
    ] + [(classnum, f, f"classnum.{f}") for f in (
        "h_minus", "fraction_det", "demjanenko_det", "kappa_and_t")
    ] + [(lattices, f, f"lattices.{f}") for f in (
        "abelian_order", "lattice_index_check", "u_reduction_order", "decompose_unit")
    ] + [(curves, f, f"curves.{f}") for f in (
        "discriminant", "factorize", "find_simple_prime", "galois_certificate",
        "cycle_type_mod_p", "division_degree_report")
    ] + [(cli, "run", "cli.run")]
    return [t + (True,) for t in fine] + [t + (False,) for t in coarse]


def per_layer(records, untraced, spans, aggregates):
    from spans import self_times, summed

    # Self times cover every operation of the traced pass.  Counts cover
    # the operations that finished, where the work done cannot vary with
    # timing, so they repeat exactly.
    per_op = self_times(spans, aggregates)
    finished = {r["op"] for r in records if r["status"] == "ok"}
    times = summed(per_op, per_op.keys())
    counted = summed(per_op, finished)
    m = {}

    def calls(name):
        return counted[name][0]

    def self_s(name):
        return times[name][2]

    for name in ("ring.mul", "ring.add", "ring.digits", "ring.inverse", "ring.is_prime",
                 "matrices.mul", "matrices.det_local", "classnum.h_minus",
                 "lattices.abelian_order"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_s"] = self_s(name)
    for name in ("ring.galois", "ring.log_exp", "matrices.inverse", "matrices.lift_su",
                 "matrices.classify_membership", "matrices.random_su_element",
                 "commutators.matrix_commutator_check", "commutators.group_commutator",
                 "commutators.series_evaluate", "classnum.fraction_det",
                 "classnum.demjanenko_det", "lattices.u_reduction_order",
                 "lattices.decompose_unit", "curves.discriminant", "curves.factorize",
                 "curves.galois_certificate", "cli.run"):
        m[f"{name}.self_s"] = self_s(name)

    by_id = {s[0]: s for s in spans if s is not None and s[2] in finished}

    def under(span, ancestor):
        parent = by_id.get(span[1])
        while parent is not None:
            if parent[3] == ancestor:
                return True
            parent = by_id.get(parent[1])
        return False

    checks = calls("lattices.lattice_index_check")
    escalations = sum(1 for s in by_id.values() if s[3] == "lattices.abelian_order"
                      and under(s, "lattices.lattice_index_check"))
    m["lattices.escalations_per_check"] = escalations / checks if checks else 0.0

    sessions = {r["op"] for r in records if r.get("exit_codes") is not None}
    factorize = sum(1 for s in by_id.values() if s[3] == "curves.factorize" and s[2] in sessions)
    m["curves.factorize.calls_per_op"] = factorize / len(sessions) if sessions else 0.0
    certificates = calls("curves.galois_certificate")
    m["curves.cycle_type.calls_per_certificate"] = (
        calls("curves.cycle_type_mod_p") / certificates if certificates else 0.0)
    codes = Counter(c for r in records for c in r.get("exit_codes", ()))
    m["cli.exit0"] = codes[0]
    m["cli.exit3"] = codes[3]

    # Tail operations: those at or above the tail percentile of the
    # untraced pass.
    threshold, _, _ = tail([r["latency_s"] for r in untraced if r["status"] == "ok"])
    tail_ops = {r["op"] for r in untraced if r["latency_s"] >= threshold}
    tail_self = Counter({name: row[2] for name, row in summed(per_op, tail_ops).items()
                         if name not in (None, "bench.op")})
    total_tail = sum(tail_self.values())
    for name in ("ring.is_prime", "lattices.abelian_order"):
        m[f"{name}.tail_share"] = tail_self[name] / total_tail if total_tail else 0.0

    base = {r["op"]: r["latency_s"] for r in untraced if r["status"] == "ok"}
    both = [(base[r["op"]], r["latency_s"]) for r in records
            if r["status"] == "ok" and r["op"] in base]
    base_s = sum(a for a, _ in both)
    m["trace.overhead_ratio"] = sum(b for _, b in both) / base_s - 1 if base_s else 0.0
    return m, tail_self.most_common(4)


def traced_run(workload, seed):
    """The pass untraced, which fills the tables lamadic keeps per process,
    untraced again, then traced.  The last two start from the same cache
    state, so the traced one repeats its counts exactly and the tracing
    overhead compares like with like."""
    import workloads
    from spans import Tracer, install

    ops = workloads.GENERATORS[workload](seed)
    tracer = Tracer()
    warm_up(workload)
    done = list(run_pass(Runner(), ops))
    base = list(run_pass(Runner(), ops))
    uninstall = install(tracer, trace_targets())
    try:
        traced = list(run_pass(Runner(tracer), ops))
    finally:
        uninstall()
    done += base + traced
    for item in done:
        check(*item)
    untraced = [record for _, _, record, _ in base]
    records = [record for _, _, record, _ in traced]
    metrics, tail_top = per_layer(records, untraced, tracer.spans, tracer.aggregates)

    out = ROOT / "bench" / "out"
    out.mkdir(exist_ok=True)
    path = out / f"trace-{workload}-{seed}.json"
    with open(path, "w") as fh:
        json.dump({
            "workload": workload, "seed": seed,
            "span_fields": ["id", "parent", "op", "name", "caller", "start", "end"],
            "spans": [s for s in tracer.spans if s is not None],
            "aggregate_fields": ["parent", "caller", "name", "calls", "total_s"],
            "aggregates": [list(k) + v for k, v in tracer.aggregates.items()],
            "operations": records,
        }, fh)

    print(f"workload {workload}  seed {seed}  traced pass: {len(records)} operations"
          f"  trace file {path.relative_to(ROOT)}")
    for name, value in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {layer_unit(name)}")
    print("  self time of tail operations: "
          + ", ".join(f"{k} {v:.3f} s" for k, v in tail_top))
    all_records = [record for _, _, record, _ in done]
    report_failures(all_records)
    return all_records, metrics


def layer_unit(name):
    if name.endswith("self_s"):
        return "s"
    if name.endswith(("_share", "_ratio")):
        return "ratio"
    return "count"


# ---------------------------------------------------------------------------


def run_all(args):
    """Each workload in its own process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        code = max(code, proc.returncode)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            return proc.returncode or 1
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, value in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = value
    print(json.dumps(combined))
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "lamadic" / "__init__.py").is_file():
        print(f"error: no lamadic sources at {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    import lamadic

    if Path(lamadic.__file__).resolve().parent != SRC / "lamadic":
        print(f"error: imported lamadic from {lamadic.__file__}, not {SRC}", file=sys.stderr)
        return 2

    if args.trace:
        records, metrics = traced_run(args.workload, args.seed)
        units = {name: layer_unit(name) for name in metrics}
    else:
        records, metrics = timed_run(args.workload, args.seed, args.seconds)
        metrics = {name: metrics[name] for name in JSON_METRICS}
        units = UNITS
    broken = sum(r["status"] in ("mismatch", "error") for r in records)
    print(json.dumps({
        "correct": broken == 0,
        "attempted": len(records),
        "failed": sum(r["status"] != "ok" for r in records),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
