"""ASCII timelines of simulated parallel runs.

Turns the :class:`repro.machine.TaskSpan` trace of a simulation into a
Gantt-style per-rank chart — the execution-time counterpart of the
schedule-replay charts in :mod:`repro.scheduling.gantt` (Fig. 11), useful
for *seeing* the 2D pipeline overlap that Table 7 measures.
"""

from __future__ import annotations


def render_timeline(spans, nprocs: int, width: int = 72, max_label: int = 6) -> str:
    """Render task spans (from ``SimResult.spans``) as one row per rank."""
    if not spans:
        return "(no spans recorded)"
    t_end = max(s.end for s in spans)
    if t_end <= 0:
        return "(empty timeline)"
    scale = width / t_end
    rows = []
    for r in range(nprocs):
        cells = [" "] * (width + max_label + 2)
        for s in (x for x in spans if x.rank == r):
            a = int(s.start * scale)
            b = max(int(s.end * scale), a + 1)
            txt = s.label[: min(b - a, max_label)]
            for i, ch in enumerate(txt):
                if a + i < len(cells):
                    cells[a + i] = ch
            for i in range(a + len(txt), min(b, len(cells))):
                cells[i] = "="
        rows.append(f"P{r:<3d}|" + "".join(cells).rstrip())
    rows.append(f"total = {t_end:.4g} s")
    return "\n".join(rows)


def overlap_profile(spans, nprocs: int, samples: int = 200) -> list:
    """Number of concurrently busy ranks sampled across the run —
    integrates to the parallel efficiency."""
    if not spans:
        return []
    t_end = max(s.end for s in spans)
    out = []
    for i in range(samples):
        t = (i + 0.5) * t_end / samples
        busy = len({s.rank for s in spans if s.start <= t < s.end})
        out.append(busy)
    return out

