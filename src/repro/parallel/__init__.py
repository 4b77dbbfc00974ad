"""The parallel sparse LU codes, executed on the simulated machine.

* :mod:`oned` — the 1D column-block codes: a generic schedule-driven
  executor that realises both the RAPID-style graph-scheduled code and the
  compute-ahead (CA) code (Section 5.1);
* :mod:`twod` — the 2D block-cyclic codes: synchronous and asynchronous
  pipelined SPMD algorithms (Section 5.2, Figs. 12-15);
* :mod:`dispatch` — the one table from the solver's ``method`` strings to
  these drivers (:func:`run_method`);
* :mod:`mapping` — 1D cyclic and 2D grid data mappings;
* :mod:`buffers` — communication-buffer accounting for Theorem 2.
"""

from .mapping import Grid2D, cyclic_owner
from .oned import run_1d, OneDResult
from .twod import run_2d, TwoDResult
from .buffers import buffer_requirements, BufferReport
from .trisolve import run_1d_trisolve, TriSolveResult
from .shared_memory import sstar_factor_threads
from .trisolve2d import run_2d_trisolve, TriSolve2DResult
from .resilience import (
    run_1d_resilient,
    run_2d_resilient,
    ResilientResult,
    RoundInfo,
)
from .dispatch import (
    METHODS, SEQUENTIAL, check_method, grid_for, is_synchronous, layout, run_method,
)

__all__ = [
    "Grid2D",
    "cyclic_owner",
    "run_1d",
    "OneDResult",
    "run_2d",
    "TwoDResult",
    "buffer_requirements",
    "BufferReport",
    "run_1d_trisolve",
    "TriSolveResult",
    "sstar_factor_threads",
    "run_2d_trisolve",
    "TriSolve2DResult",
    "run_1d_resilient",
    "run_2d_resilient",
    "ResilientResult",
    "RoundInfo",
    "METHODS", "SEQUENTIAL", "check_method", "grid_for", "is_synchronous",
    "layout", "run_method",
]
