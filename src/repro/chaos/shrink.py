"""Delta-debugging shrinker: failing campaign run -> minimal fault schedule.

A campaign case fails under a *probabilistic* plan (rules flipping hashed
coins per message).  Shrinking proceeds in four steps:

1. **Materialise** — re-run the case recording every fired decision as an
   explicit :class:`repro.machine.FaultEvent` (the plan's decisions are
   hash-replayable, so the recorded schedule reproduces the run exactly);
   verify the events-only plan fails with the same ``failure_key``.
2. **ddmin** — classic delta debugging over the event list (plus any
   scheduled crashes): repeatedly try subsets and complements, keeping
   the smallest schedule that still fails *the same way*.
3. **Normalise** — sort the surviving events canonically and pull crash
   times to the earliest value that still reproduces the failure.
4. **Artifact** — emit a self-contained JSON repro (matrix config,
   scenario, minimal plan, expected failure key) that
   :func:`replay_artifact` re-runs and checks bit-for-bit.

The shrinker operates on single-Simulator scenarios (mode ``sim``)
— exactly the ones whose failures are schedules of message events.  The
checkpoint/restart and service scenarios recover by design; their
failures are campaign-level bugs, reported unshrunk.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from ..machine.faults import CrashFault, FaultEvent, FaultPlan
from .campaign import ChaosContext, Scenario, build_context, run_case


@dataclass
class ShrinkResult:
    """A minimised failing schedule and its replayable artifact."""

    scenario: Scenario
    plan: FaultPlan          # events-only minimal plan
    failure_key: list
    original_events: int
    shrunk_events: int
    tests: int               # case executions the shrink spent
    artifact: dict

    def save(self, path) -> None:
        with open(path, "w") as f:
            json.dump(self.artifact, f, indent=2, sort_keys=True)


def _plan_from_atoms(atoms, seed: int) -> FaultPlan:
    events = [a for a in atoms if isinstance(a, FaultEvent)]
    crashes = [a for a in atoms if isinstance(a, CrashFault)]
    return FaultPlan(rules=(), crashes=crashes, seed=seed, events=events)


def _ddmin(atoms: list, fails, max_tests: int) -> tuple:
    """Zeller's ddmin over ``atoms``; ``fails(subset) -> bool``.

    Returns ``(minimal_atoms, tests_used)``.  The input list must already
    fail.  Stops early (returning the best-so-far) if ``max_tests`` runs
    out — minimality is then best-effort, correctness is not affected.
    """
    tests = 0
    n = 2
    while len(atoms) >= 2 and tests < max_tests:
        size = len(atoms) // n
        chunks = [atoms[i * size: (i + 1) * size if i < n - 1 else len(atoms)]
                  for i in range(n)]
        reduced = False
        for chunk in chunks:
            if tests >= max_tests:
                return atoms, tests
            tests += 1
            if chunk and fails(chunk):
                atoms, n, reduced = chunk, 2, True
                break
        if reduced:
            continue
        if n > 2:
            for i in range(n):
                comp = [a for j, c in enumerate(chunks) if j != i for a in c]
                if tests >= max_tests:
                    return atoms, tests
                tests += 1
                if comp and fails(comp):
                    atoms, n, reduced = comp, max(n - 1, 2), True
                    break
        if reduced:
            continue
        if n >= len(atoms):
            break
        n = min(len(atoms), 2 * n)
    return atoms, tests


def shrink_failure(ctx: ChaosContext, scenario: Scenario, plan: FaultPlan,
                   outcome=None, max_tests: int = 200) -> ShrinkResult:
    """Reduce a failing (scenario, plan) case to a minimal fault schedule.

    Raises ``ValueError`` when the case does not actually fail, or when
    the materialised explicit schedule fails a different way than the
    probabilistic original (which would mean the decisions are not
    replay-safe — itself a bug worth surfacing loudly).
    """
    if scenario.mode != "sim":
        raise ValueError(
            f"shrinking operates on single-simulator scenarios, "
            f"not {scenario.mode!r}")
    tests = 0
    if outcome is None:
        outcome = run_case(ctx, scenario, plan)
        tests += 1
    key = outcome.failure_key()
    if key is None:
        raise ValueError("case is green; nothing to shrink")

    # 1. materialise: explicit events-only plan must fail identically
    atoms = list(outcome.injected) + list(plan.crashes)
    if not atoms:
        raise ValueError("failing run fired no fault events to shrink")
    base = _plan_from_atoms(atoms, plan.seed)
    check = run_case(ctx, scenario, base)
    tests += 1
    if check.failure_key() != key:
        raise ValueError(
            f"materialised schedule does not reproduce the failure: "
            f"{check.failure_key()} != {key}")

    def fails(subset) -> bool:
        out = run_case(ctx, scenario, _plan_from_atoms(subset, plan.seed))
        return out.failure_key() == key

    # 2. ddmin
    minimal, dd_tests = _ddmin(atoms, fails, max_tests - tests)
    tests += dd_tests

    # 3. normalise: earliest-time crashes, canonical event order
    normalised = []
    for a in minimal:
        if isinstance(a, CrashFault) and a.at_time > 0.0 and tests < max_tests:
            early = CrashFault(a.rank, 0.0)
            tests += 1
            if fails([early if x is a else x for x in minimal]):
                a = early
        normalised.append(a)
    events = sorted((a for a in normalised if isinstance(a, FaultEvent)),
                    key=lambda e: e.key())
    crashes = sorted((a for a in normalised if isinstance(a, CrashFault)),
                     key=lambda c: (c.at_time, c.rank))
    min_plan = FaultPlan(rules=(), crashes=crashes, seed=plan.seed,
                         events=events)

    artifact = {
        "version": 1,
        "kind": "repro.chaos.repro",
        "matrix": dict(ctx.config),
        "scenario": scenario.to_dict(),
        "plan": min_plan.to_dict(),
        "failure_key": key,
        "original_events": len(atoms),
        "shrunk_events": len(events) + len(crashes),
        "tests": tests,
    }
    return ShrinkResult(
        scenario=scenario, plan=min_plan, failure_key=key,
        original_events=len(atoms), shrunk_events=len(events) + len(crashes),
        tests=tests, artifact=artifact,
    )


def replay_artifact(source, ctx: ChaosContext = None):
    """Re-run a repro artifact; returns ``(outcome, matches)``.

    ``source`` is an artifact dict, a JSON string, or a path to one.
    ``matches`` is True when the replay fails with exactly the recorded
    ``failure_key`` — the bit-for-bit reproduction check.  Pass ``ctx``
    to reuse an existing pipeline (it must match the artifact's matrix
    config); otherwise the pipeline is rebuilt from the artifact.
    """
    if isinstance(source, dict):
        art = source
    else:
        text = source
        if hasattr(source, "read"):
            text = source.read()
        elif isinstance(source, str) and not source.lstrip().startswith("{"):
            with open(source) as f:
                text = f.read()
        art = json.loads(text)
    if art.get("kind") != "repro.chaos.repro":
        raise ValueError("not a chaos repro artifact")
    cfg = art["matrix"]
    if ctx is None:
        ctx = build_context(n=cfg["n"], density=cfg["density"],
                            mseed=cfg["mseed"], block=cfg["block"],
                            amalg=cfg["amalg"])
    elif ctx.config != cfg:
        raise ValueError(
            f"context matrix {ctx.config} != artifact matrix {cfg}")
    scenario = Scenario.from_dict(art["scenario"])
    plan = FaultPlan.from_dict(art["plan"])
    outcome = run_case(ctx, scenario, plan)
    return outcome, outcome.failure_key() == art["failure_key"]
