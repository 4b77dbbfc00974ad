"""Invariant oracles the chaos campaign checks every run against.

Each oracle returns an :class:`OracleReport`; a run is green only when
*every* applicable oracle passes.  The oracles are deliberately exact —
the simulated machine is deterministic, so under any *recoverable* fault
plan the factorization must be **bit-identical** to the fault-free
reference, not merely close:

``completed``
    the run finished — no deadlock, no typed delivery/crash error
    escaping the recovery machinery, no unexpected exception;
``bit_identical``
    merged factor blocks and pivot sequence equal the sequential
    reference exactly;
``solve_identical``
    the solve through the recovered factor reproduces the reference
    solution bitwise;
``tracecheck``
    the message trace passes :func:`repro.verify.check_run` (uniqueness,
    no leaked messages, causality, retransmit recognition — and for 1D,
    span/DAG conformance);
``span_tiling``
    every rank's non-task tracer spans tile its timeline contiguously
    from 0 to the rank's final clock — no gaps, no overlaps, even when
    ranks crash while blocked (metrics/trace consistency, part 1);
``metrics_consistent``
    the MetricsRegistry counters agree exactly with the simulator's own
    accounting: injected-fault counters vs ``FaultStats``, message and
    byte counters vs the SimResult (metrics/trace consistency, part 2);
``recovery``
    (resilient runs) the committed checkpoint rounds cover the stage
    range ``[0, N)`` in order, i.e. restart replayed every discarded
    window.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..numfact import LUFactorization
from ..obs import TASK
from ..verify import check_run


@dataclass(frozen=True)
class OracleReport:
    """Outcome of one oracle on one run."""

    name: str
    ok: bool
    detail: str = ""

    def __str__(self):
        return f"{'ok ' if self.ok else 'FAIL'} {self.name}" + (
            f": {self.detail}" if self.detail and not self.ok else ""
        )


def check_bit_identical(factor, reference) -> OracleReport:
    ref = reference.matrix if isinstance(reference, LUFactorization) else reference
    if set(factor.blocks) != set(ref.blocks):
        return OracleReport("bit_identical", False, "block set differs")
    if factor.pivot_seq != ref.pivot_seq:
        return OracleReport("bit_identical", False, "pivot sequence differs")
    for key in ref.blocks:
        if not np.array_equal(factor.blocks[key], ref.blocks[key]):
            return OracleReport("bit_identical", False, f"block {key} differs")
    return OracleReport("bit_identical", True)


def check_solve_identical(ctx, factor) -> OracleReport:
    lf = LUFactorization(factor, ctx.sym, ctx.part, ctx.bstruct, None)
    x = lf.solve(ctx.b)
    if np.array_equal(x, ctx.x_ref):
        return OracleReport("solve_identical", True)
    err = float(np.max(np.abs(x - ctx.x_ref)))
    return OracleReport("solve_identical", False, f"max |dx| = {err:.3g}")


def check_tracecheck(sim_result, spec, tg=None, schedule=None) -> OracleReport:
    report = check_run(sim_result, spec=spec, tg=tg, schedule=schedule)
    if report.ok:
        return OracleReport("tracecheck", True)
    return OracleReport("tracecheck", False, report.summary())


def check_span_tiling(tracer, sim_result) -> OracleReport:
    """Non-task spans on each rank's track must tile [0, rank_clock]."""
    for r in range(sim_result.nprocs):
        spans = sorted(
            (s for s in tracer.spans
             if s.track == r and s.cat != TASK),
            key=lambda s: (s.start, s.end),
        )
        cursor = 0.0
        for s in spans:
            if abs(s.start - cursor) > 1e-12:
                return OracleReport(
                    "span_tiling", False,
                    f"rank {r}: gap/overlap at t={cursor:.3g} "
                    f"(next span {s.name!r} starts {s.start:.3g})",
                )
            cursor = s.end
        end = sim_result.rank_clocks[r]
        if abs(cursor - end) > 1e-12:
            return OracleReport(
                "span_tiling", False,
                f"rank {r}: timeline ends at {cursor:.3g}, clock is {end:.3g}",
            )
    return OracleReport("span_tiling", True)


def check_metrics_consistent(tracer, sim_result) -> OracleReport:
    """Counters must agree exactly with the simulator's own accounting."""
    stats = sim_result.fault_stats

    def counter(name):
        return tracer.metrics.counter(name).value

    checks = [
        ("sim.faults.dropped", stats.dropped),
        ("sim.faults.duplicated", stats.duplicated),
        ("sim.faults.delayed", stats.delayed),
        ("sim.faults.corrupted", stats.corrupted),
        ("sim.retransmits", stats.retransmits),
        ("sim.messages", sim_result.messages),
        ("sim.bytes", sim_result.bytes_sent),
    ]
    for name, expect in checks:
        got = counter(name)
        if got != expect:
            return OracleReport(
                "metrics_consistent", False,
                f"{name}: counter={got}, simulator={expect}",
            )
    if len(stats.injected) != stats.total_injected():
        return OracleReport(
            "metrics_consistent", False,
            f"{len(stats.injected)} injected events vs "
            f"{stats.total_injected()} tallied faults",
        )
    return OracleReport("metrics_consistent", True)


def check_recovery(resilient_result, n_stages: int) -> OracleReport:
    """Committed rounds must cover [0, n_stages) in order."""
    k = 0
    for rnd in resilient_result.rounds:
        if not rnd.ok:
            continue
        if rnd.window[0] != k:
            return OracleReport(
                "recovery", False,
                f"committed round starts at {rnd.window[0]}, expected {k}",
            )
        k = rnd.window[1]
    if k != n_stages:
        return OracleReport(
            "recovery", False, f"rounds cover [0, {k}), need [0, {n_stages})",
        )
    if resilient_result.nprocs_final < 1:
        return OracleReport("recovery", False, "no surviving ranks")
    return OracleReport("recovery", True)


def evaluate(ctx, scenario, outcome) -> list:
    """Run every applicable oracle for this outcome; returns the reports."""
    if outcome.error is not None:
        return [OracleReport("completed", False, repr(outcome.error))]
    reports = [OracleReport("completed", True)]
    if scenario.mode == "service":
        if np.array_equal(outcome.x, ctx.service_x_ref()):
            reports.append(OracleReport("service_result", True))
        else:
            reports.append(OracleReport(
                "service_result", False, "solution differs from reference"))
        return reports
    reports.append(check_bit_identical(outcome.factor, ctx.seq))
    reports.append(check_solve_identical(ctx, outcome.factor))
    if outcome.sim is not None:  # direct single-simulator run
        # 1D runs carry a schedule to check the task DAG against
        tg = ctx.tg if outcome.schedule is not None else None
        reports.append(check_tracecheck(outcome.sim, ctx.spec, tg=tg,
                                        schedule=outcome.schedule))
        reports.append(check_span_tiling(outcome.tracer, outcome.sim))
        reports.append(check_metrics_consistent(outcome.tracer, outcome.sim))
    if outcome.resilient is not None:
        reports.append(check_recovery(outcome.resilient, ctx.part.N))
        for i, round_sim in enumerate(outcome.resilient.results):
            rep = check_run(round_sim, spec=ctx.spec)
            if not rep.ok:
                reports.append(OracleReport(
                    "tracecheck", False, f"round {i}: {rep.summary()}"))
                break
        else:
            reports.append(OracleReport("tracecheck", True))
    return reports
