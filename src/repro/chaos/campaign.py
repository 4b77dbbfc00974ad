"""The chaos campaign runner.

A campaign sweeps seeded fault-plan families (:mod:`repro.chaos.plans`)
across a set of solver **scenarios** — 1D (rapid/CA), 2D (async/sync),
their checkpoint/restart variants and the solve service — and checks
every run against the invariant oracles (:mod:`repro.chaos.oracles`).
Families are only paired with scenarios whose capabilities make their
faults recoverable, so every campaign run is *expected* green: a single
red oracle is a real robustness bug, and the failing run's realised
fault events are the shrinker's (:mod:`repro.chaos.shrink`) input.

Observability: the campaign counts ``chaos.runs`` / ``chaos.failures``
in its :class:`repro.obs.MetricsRegistry`, merges every run's own
counters (``sim.faults.*``, ``abft.*``, ...) into it, and lays each
run out as a PHASE span on a ``chaos/<scenario>`` track of its tracer,
so ``repro trace`` renders a campaign like any other run.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from ..machine import GENERIC, ReliableDelivery
from ..matrices import random_nonsymmetric
from ..numfact import SilentCorruptionError, sstar_factor
from ..obs import PHASE, MetricsRegistry, Tracer
from ..parallel import check_method, run_method
from ..service.cache import analyze
from ..taskgraph import build_task_graph
from . import plans
from .oracles import evaluate


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------


#: how a scenario runs its method (see :class:`Scenario`)
MODES = ("sim", "resilient", "service")


@dataclass(frozen=True)
class Scenario:
    """One solver configuration the campaign exercises.

    ``method`` is the solver's parallel method string (a key of
    :data:`repro.parallel.METHODS`).  ``mode`` says how it runs: ``"sim"``
    (one Simulator run), ``"resilient"`` (checkpoint/restart rounds every
    ``ckpt_interval`` stages) or ``"service"`` (a
    :class:`repro.service.SolveService` job).
    """

    name: str
    mode: str
    method: str = "1d-ca"
    nprocs: int = 4
    reliable: bool = True
    checksum: bool = True
    abft: bool = False
    ckpt_interval: int = 4

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(
                f"unknown scenario mode {self.mode!r}; expected one of {MODES}")
        check_method(self.method)

    @property
    def capabilities(self) -> frozenset:
        toks = set()
        if self.reliable:
            toks.add(plans.RELIABLE)
            if self.checksum:
                toks.add(plans.CHECKSUM)
        if self.abft:
            toks.add(plans.ABFT)
        if self.mode == "resilient":
            toks.add(plans.RESILIENT)
        if self.mode == "service":
            # job-level retry replays the whole solve from scratch — the
            # service's analogue of a checkpoint restart
            toks.add(plans.RESILIENT)
        return frozenset(toks)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "Scenario":
        return cls(**d)


DEFAULT_SCENARIOS = (
    Scenario("1d-rapid", "sim", method="1d-rapid", nprocs=3),
    Scenario("1d-ca", "sim", method="1d-ca", nprocs=4),
    Scenario("1d-ca-abft", "sim", method="1d-ca", nprocs=4, abft=True),
    Scenario("2d", "sim", method="2d", nprocs=4),
    Scenario("2d-sync", "sim", method="2d-sync", nprocs=4),
    Scenario("1d-resilient-abft", "resilient", method="1d-ca", nprocs=4,
             checksum=False, abft=True),
    Scenario("2d-resilient", "resilient", method="2d", nprocs=4),
    Scenario("service", "service", method="1d-ca", nprocs=4),
)


# ---------------------------------------------------------------------------
# shared context: one matrix pipeline + fault-free references
# ---------------------------------------------------------------------------


@dataclass
class ChaosContext:
    """The campaign's matrix pipeline and fault-free reference results."""

    A: object
    om: object
    sym: object
    part: object
    bstruct: object
    tg: object
    spec: object
    seq: object  # sequential LUFactorization — the bit-identity reference
    b: np.ndarray
    x_ref: np.ndarray
    tscale: float  # nominal fault-free 1D makespan (places crash times)
    config: dict
    _service_x: np.ndarray = field(default=None, repr=False)

    def service_x_ref(self) -> np.ndarray:
        """Fault-free solve-service solution (computed once, lazily)."""
        if self._service_x is None:
            from ..service import SolveService
            svc = SolveService(workers=1, max_queue=4,
                               solver_opts={"method": "1d-ca", "nprocs": 4})
            jid = svc.submit(self.A, self.b)
            self._service_x = svc.result(jid)
        return self._service_x


def build_context(n: int = 60, density: float = 0.08, mseed: int = 11,
                  block: int = 5, amalg: int = 3, spec=GENERIC) -> ChaosContext:
    """Build the shared pipeline for a campaign on one random matrix."""
    A = random_nonsymmetric(n, density=density, seed=mseed)
    art, om = analyze(A, block_size=block, amalgamation=amalg)
    sym, part, bstruct = art.sym, art.part, art.bstruct
    tg = build_task_graph(bstruct)
    seq = sstar_factor(om.A, sym=sym, part=part)
    b = np.arange(float(n))
    x_ref = seq.solve(b)
    base = run_method("1d-ca", om.A, part, bstruct, 4, spec, tg=tg)
    return ChaosContext(
        A=A, om=om, sym=sym, part=part, bstruct=bstruct, tg=tg, spec=spec,
        seq=seq, b=b, x_ref=x_ref, tscale=base.sim.total_time,
        config={"n": n, "density": density, "mseed": mseed,
                "block": block, "amalg": amalg},
    )


# ---------------------------------------------------------------------------
# one campaign run
# ---------------------------------------------------------------------------


@dataclass
class RunOutcome:
    """Everything one campaign run produced, for the oracles and shrinker."""

    scenario: Scenario
    family: str
    index: int
    plan: object
    error: Exception = None
    factor: object = None
    sim: object = None        # SimResult (direct 1D/2D runs)
    resilient: object = None  # ResilientResult
    schedule: object = None
    tracer: Tracer = None
    x: np.ndarray = None      # service runs
    seconds: float = 0.0
    injected: tuple = ()      # realised FaultEvents, canonically ordered
    crashes: tuple = ()       # realised (rank, time) crashes
    oracles: tuple = ()

    @property
    def ok(self) -> bool:
        return self.error is None and all(r.ok for r in self.oracles)

    def failure_key(self):
        """JSON-safe identity of the failure (None when the run is green).

        The shrinker preserves this key: a reduced schedule counts as
        reproducing the failure only if it fails *the same way*.
        """
        if self.error is not None:
            e = self.error
            if isinstance(e, SilentCorruptionError):
                return ["SilentCorruptionError",
                        [int(e.block[0]), int(e.block[1])],
                        e.where, float(e.error), str(e)]
            return [type(e).__name__, str(e)]
        bad = sorted(r.name for r in self.oracles if not r.ok)
        return ["oracle"] + bad if bad else None


class RecordingPlan:
    """FaultPlan proxy that records every fired decision as a FaultEvent.

    The simulator materialises realised faults in ``fault_stats.injected``,
    but when a run *raises* (the exact runs the shrinker cares about) the
    SimResult never escapes — this wrapper captures the same events on
    the way through, exception or not.
    """

    def __init__(self, plan):
        self._plan = plan
        self.fired = []

    # the attributes/methods the simulator consults
    @property
    def crashes(self):
        return self._plan.crashes

    def crash_time(self, rank):
        return self._plan.crash_time(rank)

    def message_fault(self, src, dest, tag, attempt: int = 0):
        from ..machine.faults import DELAY, FaultEvent
        hit = self._plan.message_fault(src, dest, tag, attempt)
        if hit is not None:
            self.fired.append(FaultEvent(
                hit.action, int(src), int(dest), tag, attempt=attempt,
                delay_s=hit.delay_s if hit.action == DELAY else 0.0,
            ))
        return hit


def execute_case(ctx: ChaosContext, scenario: Scenario, plan) -> RunOutcome:
    """Run one (scenario, plan) case; never raises — errors are captured."""
    out = RunOutcome(scenario=scenario, family="?", index=0, plan=plan)
    tracer = Tracer()
    out.tracer = tracer
    rel = ReliableDelivery(checksum=scenario.checksum) if scenario.reliable else None
    direct = scenario.mode == "sim"
    use_plan = RecordingPlan(plan) if direct else plan
    try:
        if direct:
            # one simulator run whatever the plan holds: its faults go
            # straight to the Simulator, never to checkpoint/restart
            sim_opts = {"tracer": tracer, "trace": True, "faults": use_plan}
            if rel is not None:
                sim_opts["reliable"] = rel
            res = run_method(scenario.method, ctx.om.A, ctx.part, ctx.bstruct,
                             scenario.nprocs, ctx.spec, tg=ctx.tg,
                             sim_opts=sim_opts, abft=scenario.abft)
            out.schedule = getattr(res, "schedule", None)
            out.sim = res.sim
            out.factor = res.factor
            out.seconds = res.sim.total_time
            out.crashes = tuple(res.sim.fault_stats.crashes)
        elif scenario.mode == "resilient":
            res = run_method(
                scenario.method, ctx.om.A, ctx.part, ctx.bstruct,
                scenario.nprocs, ctx.spec,
                ckpt_interval=scenario.ckpt_interval, faults=plan,
                reliable=rel, sim_opts={"tracer": tracer, "trace": True},
                abft=scenario.abft,
            )
            out.resilient = res
            out.factor = res.factor
            out.seconds = res.total_time
            out.crashes = tuple(res.crashes)
            fired = []
            for round_sim in res.results:
                fired.extend(round_sim.fault_stats.injected)
            out.injected = tuple(sorted(fired, key=lambda e: e.key()))
        elif scenario.mode == "service":
            from ..service import SolveService
            opts = {"method": scenario.method, "nprocs": scenario.nprocs,
                    "abft": scenario.abft}
            if plan.rules or plan.crashes or plan.events:
                opts["faults"] = plan
            if rel is not None:
                opts["reliable"] = rel
            svc = SolveService(workers=1, max_queue=4, max_retries=1,
                               solver_opts=opts)
            jid = svc.submit(ctx.A, ctx.b)
            out.x = svc.result(jid)
    except Exception as e:  # the oracles decide what failure means
        out.error = e
    if isinstance(use_plan, RecordingPlan):
        out.injected = tuple(sorted(use_plan.fired, key=lambda e: e.key()))
    return out


def run_case(ctx: ChaosContext, scenario: Scenario, plan,
             family: str = "?", index: int = 0) -> RunOutcome:
    """Execute one case and evaluate every applicable oracle."""
    out = execute_case(ctx, scenario, plan)
    out.family = family
    out.index = index
    out.oracles = tuple(evaluate(ctx, scenario, out))
    return out


# ---------------------------------------------------------------------------
# the campaign
# ---------------------------------------------------------------------------


@dataclass
class CampaignReport:
    """Aggregated campaign outcome."""

    runs: int
    failures: list      # dict per failing run
    coverage: dict
    virtual_seconds: float
    counters: dict

    @property
    def ok(self) -> bool:
        return not self.failures

    def as_dict(self) -> dict:
        return {
            "runs": self.runs,
            "ok": self.ok,
            "failures": self.failures,
            "coverage": self.coverage,
            "virtual_seconds": self.virtual_seconds,
            "counters": self.counters,
        }

    def summary(self) -> str:
        cov = self.coverage
        lines = [
            f"chaos campaign: {self.runs} runs, "
            f"{len(self.failures)} failing "
            f"({self.virtual_seconds:.3g} simulated seconds)",
            f"  fault coverage: {cov['total_injected']} injected events, "
            f"{len(cov['cells'])} action:tag cells, "
            f"{len(cov['pairs'])} src->dest pairs, "
            f"{cov['crashes']} crashes",
        ]
        for name, n in sorted(cov["families"].items()):
            lines.append(f"    {name:8s} {n} runs")
        for f in self.failures:
            lines.append(
                f"  FAIL {f['scenario']}/{f['family']}#{f['index']}: "
                f"{f['failure_key']}")
        return "\n".join(lines)


class Campaign:
    """Sweep fault families over scenarios, checking every oracle."""

    def __init__(self, ctx: ChaosContext = None, scenarios=None,
                 families=None, budget: int = 60, seed: int = 0,
                 tracer: Tracer = None):
        self.ctx = ctx if ctx is not None else build_context()
        self.scenarios = tuple(scenarios) if scenarios is not None \
            else DEFAULT_SCENARIOS
        self.families = tuple(families) if families is not None \
            else plans.FAMILIES
        self.budget = int(budget)
        self.seed = int(seed)
        self.tracer = tracer if tracer is not None else Tracer()
        self.metrics: MetricsRegistry = self.tracer.metrics
        self.outcomes = []

    def pairs(self) -> list:
        """The compatible (scenario, family) pairs, in sweep order."""
        out = [(s, f) for s in self.scenarios for f in self.families
               if plans.compatible(f, s.capabilities)]
        if not out:
            raise ValueError(
                "no compatible (scenario, family) pairs: every family "
                "needs a scenario providing its recovery capabilities")
        return out

    def run(self) -> CampaignReport:
        ctx = self.ctx
        pairs = self.pairs()
        failures = []
        cursor = {}  # per-scenario virtual-time cursor for the spans
        total_virtual = 0.0
        from collections import Counter
        cov_actions, cov_tags = Counter(), Counter()
        cov_cells, cov_fam, cov_scn = Counter(), Counter(), Counter()
        cov_pairs = set()
        crashes = 0
        for i in range(self.budget):
            scenario, family = pairs[i % len(pairs)]
            index = i // len(pairs)
            plan = plans.make_plan(family, index, self.seed, scenario.nprocs,
                                   tscale=ctx.tscale)
            out = run_case(ctx, scenario, plan, family=family, index=index)
            self.outcomes.append(out)
            self.metrics.counter("chaos.runs").inc()
            if out.tracer is not None:
                self.metrics.merge(out.tracer.metrics)
            t0 = cursor.get(scenario.name, 0.0)
            self.tracer.span(
                f"chaos/{scenario.name}", f"{family}#{index}", PHASE,
                t0, t0 + out.seconds,
                {"ok": out.ok, "injected": len(out.injected),
                 "crashes": len(out.crashes)},
            )
            cursor[scenario.name] = t0 + out.seconds
            total_virtual += out.seconds
            cov_fam[family] += 1
            cov_scn[scenario.name] += 1
            crashes += len(out.crashes)
            for ev in out.injected:
                kind = ev.tag[0] if isinstance(ev.tag, tuple) else str(ev.tag)
                cov_actions[ev.action] += 1
                cov_tags[str(kind)] += 1
                cov_cells[f"{ev.action}:{kind}"] += 1
                cov_pairs.add((ev.src, ev.dest))
            if not out.ok:
                self.metrics.counter("chaos.failures").inc()
                failures.append({
                    "scenario": scenario.name,
                    "family": family,
                    "index": index,
                    "failure_key": out.failure_key(),
                    "oracles": [str(r) for r in out.oracles],
                })
        coverage = {
            "actions": dict(cov_actions),
            "tags": dict(cov_tags),
            "cells": dict(cov_cells),
            "pairs": sorted([list(p) for p in cov_pairs]),
            "families": dict(cov_fam),
            "scenarios": dict(cov_scn),
            "crashes": crashes,
            "total_injected": sum(cov_actions.values()),
        }
        return CampaignReport(
            runs=self.budget,
            failures=failures,
            coverage=coverage,
            virtual_seconds=total_virtual,
            counters=self.metrics.as_dict(),
        )
