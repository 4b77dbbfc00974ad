"""The tuning search space — single source of truth for every sweep.

The knobs and their ranges live here so the tuner, the ablation benchmarks
(``benchmarks/bench_ablation_blocksize.py`` / ``bench_ablation_grid.py``)
and the CLI all enumerate exactly the same configuration space and can
never disagree on it.

Also home to the pattern-only *communication predictors* feeding
:func:`repro.analysis.plan_time_model`: predicted message counts and byte
volumes of the 1D consumer-multicast design (each factored column block
travels once per remote consumer processor, Section 5.1) and of the 2D
row/column broadcasts plus pivot reductions (Section 5.2).
"""

from __future__ import annotations

from ..taskgraph.dag import FACTOR

#: Supernode block-size caps swept by the tuner and the block-size
#: ablation bench.  The paper uses 25: "if the block size is too large,
#: the available parallelism will be reduced"; too small forfeits BLAS-3.
BLOCK_SIZES = (2, 4, 8, 16, 25, 50)

#: Amalgamation factors the paper finds best (Section 3.3, Table 4 uses
#: r=4-6).  The default space keeps the repo default to bound the search.
AMALGAMATIONS = (4,)


def grid_shapes(nprocs: int, paper_regime: bool = False) -> list:
    """All ``(pr, pc)`` factorizations of ``nprocs``, ``pr`` ascending.

    ``paper_regime=True`` keeps only shapes with ``pr <= pc + 1`` — the
    regime the paper reports "always leads to better performance"
    (Section 5.2).  The grid ablation bench sweeps the unfiltered list so
    the degenerate tall grids stay measured.
    """
    shapes = [
        (pr, nprocs // pr) for pr in range(1, nprocs + 1) if nprocs % pr == 0
    ]
    if paper_regime:
        shapes = [(pr, pc) for pr, pc in shapes if pr <= pc + 1]
    return shapes


def enumerate_plans(
    nprocs: int,
    block_sizes=BLOCK_SIZES,
    amalgamations=AMALGAMATIONS,
    paper_regime: bool = True,
) -> list:
    """The full candidate list for one (machine-independent) search.

    For ``nprocs == 1`` the space is the sequential block-size sweep; for
    parallel budgets it crosses block sizes with every simulated method of
    :data:`repro.parallel.METHODS` (RAPID graph scheduling and
    compute-ahead in 1D; sync and async 2D on every grid shape in the
    paper regime).
    """
    from ..parallel import METHODS, layout
    from .plan import TuningPlan

    grids = grid_shapes(nprocs, paper_regime=paper_regime)
    methods_1d = [m for m in METHODS if layout(m) == "1d"]
    methods_2d = [m for m in METHODS if layout(m) == "2d"]
    plans = []
    for r in amalgamations:
        for b in block_sizes:
            if nprocs == 1:
                plans.append(TuningPlan(block_size=b, amalgamation=r))
                continue
            plans.extend(
                TuningPlan(block_size=b, amalgamation=r, method=m,
                           nprocs=nprocs)
                for m in methods_1d
            )
            plans.extend(
                TuningPlan(block_size=b, amalgamation=r, method=m,
                           nprocs=nprocs, grid=g)
                for g in grids for m in methods_2d
            )
    return plans


# -- pattern-only communication predictors -----------------------------


def comm_estimate_1d(tg, nprocs: int) -> tuple:
    """Predicted ``(messages, bytes)`` of the 1D consumer multicast.

    Each factored column block ``k`` is sent once per remote consumer
    processor; without the schedule in hand we bound the consumer-
    processor count by ``min(#consumer columns, P - 1)`` — the multicast
    can never exceed either.
    """
    messages = 0
    nbytes = 0.0
    for t in tg.tasks:
        if t[0] != FACTOR:
            continue
        k = t[1]
        consumers = min(len(tg.succ.get(t, ())), max(nprocs - 1, 0))
        messages += consumers
        nbytes += consumers * tg.col_bytes.get(k, 0)
    return messages, nbytes


def comm_estimate_2d(tg, pr: int, pc: int) -> tuple:
    """Predicted ``(messages, bytes)`` of the 2D block-cyclic codes.

    Per elimination stage ``k``: the pivot search reduces along the
    owning processor column (up and down, ~``2 (pr - 1)`` small
    messages), the swapped/scaled row panel broadcasts down the column
    (``pr - 1``), and the L panel broadcasts along the ``pr`` processor
    rows (``pr (pc - 1)`` messages carrying ``1/pr`` of the column block
    each).  Bytes are dominated by the panel broadcasts.
    """
    n_stages = tg.N
    per_stage_msgs = 2 * (pr - 1) + (pr - 1) + pr * (pc - 1)
    messages = n_stages * per_stage_msgs
    col_total = float(sum(tg.col_bytes.values()))
    # L panels: each column block crosses the pc-1 remote grid columns;
    # row panels: the U part (~the same volume) crosses pr-1 grid rows
    nbytes = col_total * (pc - 1) + col_total * (pr - 1)
    return messages, nbytes
