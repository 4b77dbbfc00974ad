"""Busy-rank profile of simulated parallel runs.

Samples the task spans of a simulation (``SimResult.spans``, the
:class:`repro.obs.Span` records the rank programs emit) to count the ranks
busy at each instant — the execution-time view of the 2D pipeline overlap
that Table 7 measures.  Render the spans themselves with
``repro.scheduling.gantt_from_trace(spans).render()``.
"""

from __future__ import annotations


def overlap_profile(spans, nprocs: int, samples: int = 200) -> list:
    """Number of concurrently busy ranks sampled across the run —
    integrates to the parallel efficiency."""
    if not spans:
        return []
    t_end = max(s.end for s in spans)
    out = []
    for i in range(samples):
        t = (i + 0.5) * t_end / samples
        busy = len({s.track for s in spans if s.start <= t < s.end})
        out.append(busy)
    return out
