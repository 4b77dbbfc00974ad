"""In-memory host-time spans around the public entry points of each layer.

The benchmark measures the program from the outside: while a traced round
runs, :func:`traced` replaces each entry point :func:`_targets` lists with a
wrapper that records a span (name, parent, start, end) and restores the
original on exit.  Spans are nested because the benchmark is one thread, so
a span's self time is its duration minus the durations of its direct
children.  The benchmark's own ``job`` span is the root of every job; its
self time is the job time no layer span covers.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from time import perf_counter


def _targets():
    """``(span name, owner, attribute)`` for every wrapped entry point.

    The owner is where the caller looks the name up at call time, which is
    not always where the function is defined: ``prepare_matrix`` finds the
    transversal, min-degree and AᵀA routines in its own module's globals,
    and the solver imports ``sstar_factor`` at module level.
    """
    import repro.api.solver as api_solver
    import repro.ordering as ordering
    import repro.ordering.pipeline as pipeline
    import repro.parallel as parallel
    import repro.service.cache as cache
    import repro.supernodes as supernodes
    import repro.symbolic as symbolic
    from repro.api import SStarSolver
    from repro.numfact import LUFactorization
    from repro.service import SolveService
    from repro.sparse import CSRMatrix

    return [
        ("service", SolveService, "submit"),
        ("service", SolveService, "result"),
        ("service.pattern_key", cache, "pattern_key"),
        ("service.analyze", cache, "analyze"),
        ("api.solver", SStarSolver, "factor"),
        ("api.solver", SStarSolver, "refactor"),
        ("api.solver", SStarSolver, "solve"),
        ("ordering.prepare", ordering, "prepare_matrix"),
        ("ordering.transversal", pipeline, "maximum_transversal"),
        ("ordering.mindeg", pipeline, "minimum_degree"),
        ("sparse.ata_pattern", pipeline, "ata_pattern"),
        ("sparse.permute", CSRMatrix, "permute"),
        ("symbolic.george_ng", symbolic, "static_symbolic_factorization"),
        ("supernodes.partition", supernodes, "build_partition"),
        ("supernodes.bstruct", supernodes, "build_block_structure"),
        ("numfact.factor", api_solver, "sstar_factor"),
        ("numfact.trisolve", LUFactorization, "solve"),
        ("parallel.run_1d", parallel, "run_1d"),
        ("parallel.run_2d", parallel, "run_2d"),
    ]


class SpanRecorder:
    """Spans kept in memory as ``[name, parent index, start, end]``."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, perf_counter(), 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[3] = perf_counter()
                stack.pop()

        return wrapper

    def self_times(self) -> list:
        """Per job (root span), ``{span name: self seconds}`` summed over the
        job's spans, plus the job's wall time under ``"job_total"``."""
        self_s = [end - start for _n, _p, start, end in self.spans]
        root = [0] * len(self.spans)
        for i, (_n, parent, start, end) in enumerate(self.spans):
            if parent >= 0:
                self_s[parent] -= end - start
                root[i] = root[parent]
            else:
                root[i] = i
        jobs = {}
        for i, (name, parent, start, end) in enumerate(self.spans):
            per = jobs.setdefault(root[i], {})
            per[name] = per.get(name, 0.0) + self_s[i]
            if parent < 0:
                per["job_total"] = end - start
        return [jobs[r] for r in sorted(jobs)]


@contextmanager
def _patched(owner_attrs, make_wrapper):
    saved = []
    try:
        for name, owner, attr in owner_attrs:
            fn = getattr(owner, attr)
            saved.append((owner, attr, fn))
            setattr(owner, attr, make_wrapper(name, fn))
        yield
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


def traced(recorder: SpanRecorder):
    """Wrap every layer entry point for the duration of the block."""
    return _patched(_targets(), recorder.wrap)


def capturing_solvers(sink: list):
    """Append every solver that finishes ``factor``/``refactor`` to ``sink``.

    Jobs that go through the service never hand their solver back, so this
    is how the benchmark reads their factorization report.  It costs one
    Python call per factorization and is installed in traced and untraced
    rounds alike.
    """
    from repro.api import SStarSolver

    def make_wrapper(_name, fn):
        @functools.wraps(fn)
        def wrapper(self, *args, **kwargs):
            out = fn(self, *args, **kwargs)
            sink.append(self)
            return out

        return wrapper

    targets = [(attr, SStarSolver, attr) for attr in ("factor", "refactor")]
    return _patched(targets, make_wrapper)
