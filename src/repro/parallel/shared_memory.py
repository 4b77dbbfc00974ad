"""Shared-memory (thread) parallel factorization — real wall-clock parallelism.

The previous performance record the paper cites was set on a *shared
memory* machine [8]; this module provides that flavour for modern hosts:
within each elimination stage ``K`` the tasks ``Update(K, J)`` for distinct
``J`` touch disjoint block columns, so they run concurrently on a thread
pool.  numpy's BLAS releases the GIL inside the block GEMMs, so — unlike
the discrete-event codes, whose time is *modeled* — this backend can show
genuine wall-clock speedup on multicore hosts for large enough blocks.

Numerics are bitwise identical to the sequential driver: each column block
is updated by exactly one thread per stage and stages are barriers, so
every matrix element sees the same operations in the same order.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

from ..numfact import KernelCounter
from ..numfact.blocks import BlockLUMatrix
from ..numfact.sequential import LUFactorization
from ..numfact.tasks import factor_block_column, update_block_column
from ..sparse import CSRMatrix
from ..supernodes import build_partition, build_block_structure
from ..symbolic import static_symbolic_factorization


def sstar_factor_threads(
    A: CSRMatrix,
    nthreads: int = 4,
    block_size: int = 25,
    amalgamation: int = 4,
    sym=None,
    part=None,
    pivot_threshold: float = 1.0,
) -> LUFactorization:
    """Factor an ordered matrix with stage-parallel updates on threads."""
    if sym is None:
        sym = static_symbolic_factorization(A)
    if part is None:
        part = build_partition(sym, max_size=block_size, amalgamation=amalgamation)
    bstruct = build_block_structure(sym, part)
    m = BlockLUMatrix.from_csr(A, part, bstruct)
    counter = KernelCounter()
    merge_lock = __import__("threading").Lock()

    N = part.N
    with ThreadPoolExecutor(max_workers=max(nthreads, 1)) as pool:
        for K in range(N):
            fc = factor_block_column(
                m, K, counter=counter, pivot_threshold=pivot_threshold
            )
            cols = bstruct.u_block_cols(K)
            if not cols:
                continue
            # build the column's lazy update-sweep memo here, once: threads
            # building it together can read its row count half-written
            fc.update_sweep(bstruct)

            def work(j):
                # per-task counter, merged under a lock: no shared
                # read-modify-write races on the tallies
                local = KernelCounter()
                update_block_column(m, fc, j, counter=local)
                with merge_lock:
                    counter.merge(local)

            list(pool.map(work, cols))
    return LUFactorization(m, sym, part, bstruct, counter)
