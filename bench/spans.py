"""In-memory span recording around lamadic's public functions.

A Tracer keeps a stack of open calls.  Calls of coarse functions (matrix,
commutator, class-number, lattice, curve and CLI entry points) become one
span each: (span id, parent span id, operation id, name, caller, start,
end).  Ring-level calls run into the millions, so they are folded into
aggregates keyed by (enclosing span id, caller name, name) holding a call
count and a total duration.  Both keep the name of the direct caller, so
the self time of a name is exact: the duration of its calls minus the
duration of the calls they made directly.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.aggregates = defaultdict(lambda: [0, 0.0])
        self.op_id = None
        self._stack = []  # [name, start, span_id or None]
        self._span_of = [None]  # id of the innermost open span

    def enter(self, name, fine=False):
        span_id = None
        if not fine:
            span_id = len(self.spans)
            self.spans.append(None)  # filled in on exit
            self._span_of.append(span_id)
        self._stack.append((name, self.clock(), span_id))

    def exit(self):
        end = self.clock()
        name, start, span_id = self._stack.pop()
        caller = self._stack[-1][0] if self._stack else None
        if span_id is None:
            agg = self.aggregates[(self._span_of[-1], caller, name)]
            agg[0] += 1
            agg[1] += end - start
        else:
            self._span_of.pop()
            self.spans[span_id] = (
                span_id, self._span_of[-1], self.op_id, name, caller, start, end,
            )

    def unwind(self, depth):
        """Close calls left open above `depth` by an interrupted operation.

        The deadline signal can land inside enter or exit themselves, so the
        stack of open span ids is rebuilt from the call stack afterwards."""
        while len(self._stack) > depth:
            self.exit()
        self._span_of = [None] + [s for _, _, s in self._stack if s is not None]

    def depth(self):
        return len(self._stack)

    def wrap(self, fn, name, fine):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.enter(name, fine)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit()

        return traced


def self_times(spans, aggregates):
    """{op id: {name: [calls, total seconds, self seconds]}}.

    Self time is the total duration of a name's calls minus the total
    duration of the calls whose direct caller it was.  An aggregate belongs
    to the operation of its enclosing span.
    """
    op_of_span = {s[0]: s[2] for s in spans if s is not None}
    per_op = defaultdict(lambda: defaultdict(lambda: [0, 0.0, 0.0]))

    def add(op, caller, name, count, duration):
        row = per_op[op][name]
        row[0] += count
        row[1] += duration
        row[2] += duration
        per_op[op][caller][2] -= duration

    for span in spans:
        if span is not None:
            _, _, op, name, caller, start, end = span
            add(op, caller, name, 1, end - start)
    for (parent, caller, name), (count, duration) in aggregates.items():
        add(op_of_span.get(parent), caller, name, count, duration)
    return per_op


def summed(per_op, ops):
    """{name: [calls, total, self]} over the operations `ops`."""
    out = defaultdict(lambda: [0, 0.0, 0.0])
    for op in ops:
        for name, row in per_op.get(op, {}).items():
            out[name] = [a + b for a, b in zip(out[name], row)]
    return out


def install(tracer, targets):
    """Replace each target with a traced wrapper everywhere lamadic binds it.

    targets: (owner, attribute, span name, fine) where owner is a module or
    a class.  Module-level functions are also rebound in every lamadic
    module that imported them by name.  Returns a function that undoes
    every replacement.
    """
    modules = [m for k, m in sys.modules.items() if k == "lamadic" or k.startswith("lamadic.")]
    undo = []
    for owner, attr, name, fine in targets:
        original = owner.__dict__[attr]
        wrapped = tracer.wrap(original, name, fine)
        holders = [owner] if isinstance(owner, type) else modules
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, key, wrapped)
                    undo.append((holder, key, original))

    def uninstall():
        for holder, key, original in reversed(undo):
            setattr(holder, key, original)

    return uninstall
