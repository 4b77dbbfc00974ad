"""One dispatch for the simulated parallel methods.

The paper's four parallel codes are one choice (Sections 5.1-5.2): 1D
RAPID graph scheduling or compute-ahead, and the 2D code on a
``p_r x p_c`` grid, synchronous or asynchronously pipelined.  The solver
names that choice with a ``method`` string, and this module is the only
place that reads it: :data:`METHODS` maps each name to its layout and
driver flavour, :func:`run_method` runs it.  The solver, the tuner, the
chaos harness and the CLI all call :func:`run_method`, so a new strategy
costs one :data:`METHODS` entry.
"""

from __future__ import annotations

from .mapping import Grid2D

#: the solver's non-simulated method
SEQUENTIAL = "sequential"

#: simulated method -> (layout, the layout driver's flavour keywords)
METHODS = {
    "1d-rapid": ("1d", {"method": "rapid"}),
    "1d-ca": ("1d", {"method": "ca"}),
    "2d": ("2d", {"synchronous": False}),
    "2d-sync": ("2d", {"synchronous": True}),
}


def check_method(method) -> str:
    """Return ``method`` if the solver knows it, else raise ``ValueError``."""
    if method != SEQUENTIAL and method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of "
                         f"{[SEQUENTIAL, *METHODS]}")
    return method


def layout(method: str) -> str:
    """``"sequential"``, ``"1d"`` or ``"2d"``."""
    return SEQUENTIAL if check_method(method) == SEQUENTIAL else METHODS[method][0]


def is_synchronous(method: str) -> bool:
    """Whether ``method`` barriers every elimination stage (2D sync)."""
    return method in METHODS and METHODS[method][1].get("synchronous", False)


def grid_for(method: str, nprocs: int, grid=None):
    """The :class:`Grid2D` a 2D ``method`` runs on (``None`` otherwise):
    ``grid`` as a :class:`Grid2D` or ``(pr, pc)`` pair, by default the
    paper's preferred ``p_c / p_r ~ 2`` shape."""
    if layout(method) != "2d":
        return None
    if grid is None:
        return Grid2D.preferred(nprocs)
    return grid if isinstance(grid, Grid2D) else Grid2D(*grid)


def run_method(method: str, A, part, bstruct, nprocs: int, spec, *,
               grid=None, tg=None, faults=None, reliable=None,
               ckpt_interval=None, sim_opts: dict = None, **kwargs):
    """Run the simulated parallel factorization ``method``.

    A fault plan with crashes, or any ``ckpt_interval``, routes to the
    checkpoint/restart drivers (``ckpt_interval`` defaults to 4 there; the
    2D one re-picks the preferred grid every round) and returns a
    ``ResilientResult``.  Otherwise ``faults``/``reliable`` go to the one
    simulator run, which returns a ``OneDResult`` (given ``tg``) or a
    ``TwoDResult`` (on ``grid``).  Other keywords (``pivot_threshold``,
    ``monitor``, ``abft``, ``stage_range``, ...) reach the driver as they
    are.  Drivers are looked up on the :mod:`repro.parallel` package at
    call time, so a wrapper installed there sees every run.
    """
    from . import run_1d, run_1d_resilient, run_2d, run_2d_resilient

    if check_method(method) == SEQUENTIAL:
        raise ValueError("the sequential method has no simulated driver")
    lay, flavour = METHODS[method]
    if ckpt_interval is not None or (faults is not None and faults.crashes):
        runner = run_1d_resilient if lay == "1d" else run_2d_resilient
        return runner(A, part, bstruct, nprocs, spec,
                      ckpt_interval=ckpt_interval or 4, faults=faults,
                      reliable=reliable, sim_opts=sim_opts, **flavour, **kwargs)
    opts = dict(sim_opts or {})
    if faults is not None:
        opts["faults"] = faults
    if reliable is not None:
        opts["reliable"] = reliable
    if lay == "1d":
        return run_1d(A, part, bstruct, nprocs, spec, tg=tg, sim_opts=opts,
                      **flavour, **kwargs)
    return run_2d(A, part, bstruct, nprocs, spec, sim_opts=opts,
                  grid=grid_for(method, nprocs, grid), **flavour, **kwargs)
