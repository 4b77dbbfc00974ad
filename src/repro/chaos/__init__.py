"""repro.chaos — chaos campaign harness with failing-schedule shrinking.

Sweeps seeded fault-plan families over the 1D/2D solvers, their
checkpoint/restart variants and the solve service; checks every run
against exact invariant oracles; and shrinks any failing run to a
minimal, replayable fault schedule (a JSON repro artifact).  A
:class:`Scenario` names its solver by the solver's ``method`` string and
runs it in one of the :data:`MODES` (``sim``, ``resilient``,
``service``).

Quickstart::

    from repro.chaos import Campaign, build_context

    report = Campaign(build_context(), budget=100, seed=7).run()
    print(report.summary())
    assert report.ok

or from the command line: ``repro chaos --budget 100 --fail-on failure``.
"""

from .campaign import (
    Campaign,
    CampaignReport,
    ChaosContext,
    DEFAULT_SCENARIOS,
    MODES,
    RunOutcome,
    Scenario,
    build_context,
    execute_case,
    run_case,
)
from .oracles import OracleReport, evaluate
from .plans import FAMILIES, REQUIREMENTS, compatible, family_cells, make_plan
from .shrink import ShrinkResult, replay_artifact, shrink_failure

__all__ = [
    "Campaign",
    "CampaignReport",
    "ChaosContext",
    "DEFAULT_SCENARIOS",
    "FAMILIES",
    "MODES",
    "OracleReport",
    "REQUIREMENTS",
    "RunOutcome",
    "Scenario",
    "ShrinkResult",
    "build_context",
    "compatible",
    "evaluate",
    "execute_case",
    "family_cells",
    "make_plan",
    "replay_artifact",
    "run_case",
    "shrink_failure",
]
