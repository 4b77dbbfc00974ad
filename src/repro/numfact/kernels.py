"""Dense micro-kernels with FLOP accounting.

All heavy arithmetic funnels through numpy (which dispatches to the host
BLAS); what matters for the reproduction is the *accounting*: each call
reports its flops and kernel class so the machine model can price it at
T3D/T3E rates.
"""

from __future__ import annotations

import threading

import numpy as np

from .counter import KernelCounter, DGEMM, DGEMV, BLAS1


#: scratch buffers, keyed by use site, one pool per host thread.  The
#: simulator runs every rank cooperatively on one host thread, and each use
#: site fully writes its scratch before reading it inside a single
#: yield-free window, so reusing (even clobbering) a slot across calls and
#: ranks is safe.  Threads that run kernels at the same time
#: (:func:`repro.parallel.sstar_factor_threads`) each get their own pool,
#: or one thread's GEMM product would overwrite another's between the
#: multiply and the subtract.  Growing in place (never shrinking) keeps the
#: hot paths free of large per-call ``np.empty`` allocations, whose mmap +
#: first-touch page faults dominate at bench scale.
_SCRATCH = threading.local()


def scratch_buffer(slot: str, nrows: int, ncols: int = None) -> np.ndarray:
    """An uninitialised float64 scratch of the requested shape, recycled
    per ``slot`` and host thread (see :data:`_SCRATCH` for the safety
    argument)."""
    need = nrows if ncols is None else nrows * ncols
    try:
        pool = _SCRATCH.pool
    except AttributeError:
        pool = _SCRATCH.pool = {}
    buf = pool.get(slot)
    if buf is None or buf.size < need:
        size = need if buf is None else max(need, 2 * buf.size)
        buf = pool[slot] = np.empty(size)
    flat = buf[:need]
    return flat if ncols is None else flat.reshape(nrows, ncols)


def FLOP_GEMM(m: int, k: int, n: int) -> float:
    """Flops of an ``m x k`` times ``k x n`` multiply-accumulate."""
    return 2.0 * m * k * n


def FLOP_TRSM(k: int, n: int) -> float:
    """Flops of a triangular solve with ``k x k`` triangle and ``n`` rhs."""
    return float(k) * k * n


def as_gemm_operand(X):
    """A C-contiguous view of a GEMM operand — the identity on the packed
    path (dense blocks are allocated contiguous), an explicit
    ``ascontiguousarray`` otherwise.

    BLAS silently copies a strided operand into a hidden temporary on every
    call; making the copy explicit here means the hot paths can assert it
    never happens (``as_gemm_operand(b) is b`` for packed blocks).
    """
    return X if X.flags.c_contiguous else np.ascontiguousarray(X)


def gemm_update(
    C,
    A,
    B,
    counter: KernelCounter = None,
    ncols_structural=None,
    nrows_structural=None,
    out=None,
):
    """``C -= A @ B`` with DGEMM/DGEMV accounting.

    ``ncols_structural`` / ``nrows_structural`` — the paper's packed
    supernode storage holds only the structurally dense subcolumns of ``B``
    (Fig. 8 lines 12-16) and the structural rows of ``A``; pass their counts
    so the *accounted* flops match what that implementation executes, even
    though our numerics safely run on the padded full blocks (structurally
    zero positions are exact zeros — see DESIGN.md invariants).

    ``out`` is an optional preallocated product scratch with exactly
    ``B.shape[1]`` columns and at least ``A.shape[0]`` rows: the product is
    formed with ``np.matmul(..., out=)`` (bit-identical to ``A @ B`` — same
    BLAS call, same shapes) and subtracted in place, so the update allocates
    nothing.  Batched panel sweeps share one such scratch across all their
    GEMMs (see :func:`repro.numfact.tasks.update_block_column`).
    """
    A = as_gemm_operand(A)
    B = as_gemm_operand(B)
    if out is None:
        C -= A @ B
    else:
        prod = out[: A.shape[0]]
        np.matmul(A, B, out=prod)
        np.subtract(C, prod, out=C)
    if counter is not None:
        ncols = B.shape[1] if ncols_structural is None else ncols_structural
        nrows = A.shape[0] if nrows_structural is None else nrows_structural
        fl = FLOP_GEMM(nrows, A.shape[1], ncols)
        kernel = DGEMM if ncols >= 2 and nrows >= 2 else DGEMV
        counter.add(kernel, fl, gran=min(A.shape[1], ncols) if kernel == DGEMM else A.shape[1])
    return C


def unit_lower_solve(L, B, counter: KernelCounter = None, ncols_structural=None):
    """In-place solve ``L X = B`` with ``L`` unit lower triangular
    (only the strictly-lower part of ``L`` is referenced)."""
    k = L.shape[0]
    if B.ndim == 1:
        for i in range(1, k):
            B[i] -= L[i, :i] @ B[:i]
    else:
        for i in range(1, k):
            B[i, :] -= L[i, :i] @ B[:i, :]
    if counter is not None:
        ncols = (1 if B.ndim == 1 else B.shape[1]) if ncols_structural is None else ncols_structural
        kernel = DGEMM if ncols >= 2 else DGEMV
        counter.add(kernel, FLOP_TRSM(k, ncols), gran=min(k, ncols) if kernel == DGEMM else k)
    return B


def upper_solve(U, B, counter: KernelCounter = None):
    """In-place solve ``U X = B`` with ``U`` upper triangular
    (diagonal included, referenced from the upper part of ``U``)."""
    k = U.shape[0]
    if B.ndim == 1:
        for i in range(k - 1, -1, -1):
            if i + 1 < k:
                B[i] -= U[i, i + 1 :] @ B[i + 1 :]
            B[i] /= U[i, i]
    else:
        for i in range(k - 1, -1, -1):
            if i + 1 < k:
                B[i, :] -= U[i, i + 1 :] @ B[i + 1 :, :]
            B[i, :] /= U[i, i]
    if counter is not None:
        ncols = 1 if B.ndim == 1 else B.shape[1]
        counter.add(DGEMM if ncols >= 2 else DGEMV, FLOP_TRSM(k, ncols) + k * ncols)
    return B


def rank1_update(A, x, y, counter: KernelCounter = None):
    """``A -= outer(x, y)`` (the BLAS-2 kernel inside panel factorization)."""
    A -= np.outer(x, y)
    if counter is not None:
        counter.add(DGEMV, 2.0 * len(x) * len(y))
    return A


def scale_vector(x, alpha, counter: KernelCounter = None):
    """``x /= alpha`` (BLAS-1)."""
    x /= alpha
    if counter is not None:
        counter.add(BLAS1, float(len(x)))
    return x


# -- ABFT checksum kernels ---------------------------------------------------
#
# A block ``B`` carries two checksum vectors: its column sums ``ones @ B``
# and its row sums ``B @ ones``.  The point of keeping both is that they
# propagate through the factorization's BLAS-3 kernels at BLAS-2 cost:
#
# * ``C -= A @ B``  =>  cs(C) -= cs(A) @ B   and  rs(C) -= A @ rs(B)
# * ``L X = B``     =>  rs(X) = L^{-1} rs(B)
#
# so a ``b x b`` GEMM (2b^3 flops) costs only ~4b^2 extra flops to protect
# — the <15% ABFT overhead budget (BENCH_abft_overhead.json) follows from
# this ratio at the paper's block size.


def block_checksums(B):
    """Fresh (column-sum, row-sum) checksum pair of a dense block."""
    B = np.asarray(B)
    return B.sum(axis=0), B.sum(axis=1)


def checksum_carry_gemm(cs, rs, A, B, cs_a=None, rs_b=None,
                        counter: KernelCounter = None):
    """Advance ``(cs, rs)`` of a target block across ``C -= A @ B``.

    In place on the checksum vectors; ``A``/``B`` are the operands of the
    GEMM that just ran (or is about to — the carry is independent of C).
    When the caller already holds the operands' own checksums — the
    ledger anchors ``cs(A)`` at Factor time and carries ``rs(B)`` through
    the triangular solve — pass them as ``cs_a``/``rs_b`` to skip the
    two O(b^2) reductions and leave only the border products.

    Accounting: with the operand checksums in hand this is exactly the
    Huang-Abraham augmented multiply ``[A; cs_a] @ [B, rs_b]`` — the
    checksum rows/columns ride as the border of a single DGEMM call — so
    the border flops are priced at DGEMM rate at the protected GEMM's
    granularity.  Only the fallback reductions (operand not in the
    caller's ledger, e.g. a remote L block) are BLAS-2.
    """
    m, k = A.shape
    n = B.shape[1]
    extra = 0.0
    if cs_a is None:
        cs_a = A.sum(axis=0)
        extra += m * k
    if rs_b is None:
        rs_b = B.sum(axis=1)
        extra += k * n
    cs -= cs_a @ B
    rs -= A @ rs_b
    if counter is not None:
        counter.add(DGEMM, float(2 * k * n + 2 * m * k), gran=min(k, n))
        if extra:
            counter.add(DGEMV, float(extra))
    return cs, rs


def checksum_carry_solve(L, rs, counter: KernelCounter = None):
    """Advance a row-sum checksum across ``X = L^{-1} B`` (unit lower L).

    Returns the predicted ``rs(X)`` given ``rs = rs(B)``; in place."""
    unit_lower_solve(L, rs)
    if counter is not None:
        counter.add(DGEMV, FLOP_TRSM(L.shape[0], 1))
    return rs
