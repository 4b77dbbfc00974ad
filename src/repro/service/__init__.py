"""The serving layer: structure-cached analysis, numeric refactorization
and a deterministic solve-service front end.

* :mod:`cache` — pattern-keyed LRU cache of analyze-phase artifacts
  (transversal/ordering/symbolic/partition), enabling
  :meth:`repro.api.SStarSolver.refactor`'s numeric-only fast path;
* :mod:`service` — :class:`SolveService`, a bounded-queue job front end
  with virtual-time worker lanes, multi-RHS batching, retry on delivery
  failures and a metrics snapshot.  Jobs configure their solver only
  through ``solver_opts`` (``SStarSolver`` keywords); with ``tune=True``
  there, the service shares one :class:`repro.tune.PlanCache` and its
  metrics registry across the tuned jobs.

See DESIGN.md "Serving layer" for cache keying, invalidation rules and
backpressure semantics.
"""

from .cache import (
    AnalysisArtifacts,
    AnalysisCache,
    CacheStats,
    analyze,
    pattern_key,
    values_key,
)
from .service import (
    MetricsSnapshot,
    ServiceOverloadError,
    SolveJob,
    SolveService,
)

__all__ = [
    "AnalysisArtifacts",
    "AnalysisCache",
    "CacheStats",
    "analyze",
    "pattern_key",
    "values_key",
    "MetricsSnapshot",
    "ServiceOverloadError",
    "SolveJob",
    "SolveService",
]
