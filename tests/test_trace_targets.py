"""The benchmark's tracer wraps lamadic functions by name: bench/run.py's
trace_targets() lists (owner, attribute, span, aggregated), and the tracer
reads owner.__dict__[attribute].  A refactor that deletes or renames one of
them fails here instead of in `bench/run.py --trace 1`."""

import importlib.util
from pathlib import Path

RUN_PY = Path(__file__).resolve().parent.parent / "bench" / "run.py"


def _bench_run():
    spec = importlib.util.spec_from_file_location("bench_run", RUN_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves():
    targets = _bench_run().trace_targets()
    assert targets
    missing = [(getattr(owner, "__name__", owner), attr)
               for owner, attr, _, _ in targets if attr not in owner.__dict__]
    assert not missing, missing
