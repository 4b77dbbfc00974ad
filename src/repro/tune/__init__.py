"""repro.tune — model-guided autotuning of the factorization pipeline.

The paper picks block size, grid shape, 1D-vs-2D layout and sync-vs-async
pipelining by hand (Section 6, Tables 3–7); this package picks them per
matrix *pattern*: the Eq. (4)-style analytic model prunes the declared
search space (:mod:`repro.tune.space`), budgeted successive-halving
simulator probes rank the survivors, and the winning
:class:`TuningPlan` is cached pattern-keyed in a :class:`PlanCache` so
``SStarSolver(tune=True)`` and a :class:`repro.service.SolveService` whose
``solver_opts`` turn ``tune`` on pay for the search exactly once per
structure.  A plan speaks the solver's vocabulary: its fields
(``block_size``, ``amalgamation``, ``method``, ``nprocs``, ``grid``,
``ckpt_interval``) are ``SStarSolver`` keywords, and the probes run
through the solver's own dispatch, :func:`repro.parallel.run_method`.
"""

from .plan import (
    PlanCache,
    PlanCacheStats,
    TuningPlan,
    plan_cache_key,
)
from .space import (
    AMALGAMATIONS,
    BLOCK_SIZES,
    comm_estimate_1d,
    comm_estimate_2d,
    enumerate_plans,
    grid_shapes,
)
from .tuner import (
    DEFAULT_RUNGS,
    ProbeRecord,
    Tuner,
    TuneResult,
    default_plan,
)

__all__ = [
    "PlanCache",
    "PlanCacheStats",
    "TuningPlan",
    "plan_cache_key",
    "AMALGAMATIONS",
    "BLOCK_SIZES",
    "comm_estimate_1d",
    "comm_estimate_2d",
    "enumerate_plans",
    "grid_shapes",
    "DEFAULT_RUNGS",
    "ProbeRecord",
    "Tuner",
    "TuneResult",
    "default_plan",
]
