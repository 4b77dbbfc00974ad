"""End-to-end invariant validation for a user-supplied matrix.

``validate_matrix`` runs every theoretical guarantee the system rests on
against one concrete matrix and reports pass/fail per check — the tool a
downstream user reaches for when a new matrix class misbehaves:

1. structural nonsingularity (a maximum transversal exists);
2. George-Ng coverage: the static structure contains the dynamic fill of
   partial pivoting *and* of an adversarial random pivot sequence;
3. Theorem 1: exact-supernode U blocks contain only dense subcolumns;
4. the block structure covers every static entry;
5. numeric invariant: no value ever lands outside the static structure;
6. backward-stable solve;
7. the 1D and 2D parallel codes agree with the sequential factors bitwise;
8. the measured 2D overlap degree respects the Theorem 2 bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def validate_matrix(A, nprocs: int = 4, check_parallel: bool = True) -> list:
    """Run the validation battery; returns a list of :class:`CheckResult`."""
    from ..baselines import superlu_like_factor
    from ..machine import T3E
    from ..numfact import sstar_factor
    from ..ordering import is_structurally_nonsingular, prepare_matrix
    from ..supernodes import build_block_structure, build_partition
    from ..symbolic import static_symbolic_factorization
    from ..sparse import csr_matvec

    results = []

    def check(name, fn):
        try:
            detail = fn()
            results.append(CheckResult(name, True, detail or ""))
        except Exception as exc:  # noqa: BLE001 - report, don't crash
            results.append(CheckResult(name, False, f"{type(exc).__name__}: {exc}"))

    # 1. structural nonsingularity
    def c_structural():
        if not is_structurally_nonsingular(A):
            raise ValueError("no full transversal")
        return "maximum transversal found"

    check("structural nonsingularity", c_structural)
    if not results[-1].passed:
        return results

    om = prepare_matrix(A)
    sym = static_symbolic_factorization(om.A)

    # 2. static covers dynamic
    def c_coverage():
        for rule in ("partial", "random"):
            dyn = superlu_like_factor(om.A, pivot_rule=rule)
            for k, (ls, us) in enumerate(
                zip(dyn.l_column_structures(), dyn.u_row_structures())
            ):
                if not set(map(int, ls)) <= set(map(int, sym.lcol[k])):
                    raise AssertionError(f"L column {k} not covered ({rule})")
                if not set(map(int, us)) <= set(map(int, sym.urow[k])):
                    raise AssertionError(f"U row {k} not covered ({rule})")
        return "partial + adversarial pivot sequences covered"

    check("George-Ng coverage", c_coverage)

    # 3. Theorem 1 on exact supernodes
    part0 = build_partition(sym, max_size=25, amalgamation=0)
    bs0 = build_block_structure(sym, part0)

    def c_theorem1():
        for (I, J), cols in bs0.udense_cols.items():
            for k in part0.positions(I):
                uset = set(sym.urow[k].tolist())
                for c in cols:
                    if int(c) not in uset:
                        raise AssertionError(
                            f"block ({I},{J}) subcolumn {c} missing in row {k}"
                        )
        return f"{len(bs0.udense_cols)} U blocks dense-subcolumn clean"

    check("Theorem 1 dense subcolumns", c_theorem1)

    # 4 + 5 + 6: factor with amalgamation and solve
    part = build_partition(sym, max_size=25, amalgamation=4)
    bstruct = build_block_structure(sym, part)

    def c_blocks():
        block_of = part.block_of
        for k in range(sym.n):
            J = int(block_of[k])
            for r in sym.lcol[k]:
                if not bstruct.has_block(int(block_of[r]), J):
                    raise AssertionError(f"L entry ({r},{k}) uncovered")
            for c in sym.urow[k]:
                if not bstruct.has_block(J, int(block_of[c])):
                    raise AssertionError(f"U entry ({k},{c}) uncovered")
        return f"{len(bstruct.nonzero_blocks())} blocks cover all entries"

    check("block coverage", c_blocks)

    lu = None

    def c_factor():
        nonlocal lu
        lu = sstar_factor(om.A, sym=sym, part=part)
        bad = lu.matrix.check_static_zeros(sym)
        if bad:
            raise AssertionError(f"{bad} values escaped the static structure")
        return "no dynamic fill events"

    check("static-zero invariant", c_factor)

    def c_solve():
        rng = np.random.default_rng(0)
        b = rng.uniform(-1, 1, A.nrows)
        z = lu.solve(b[om.row_perm])
        x = np.empty_like(z)
        x[om.col_perm] = z
        r = np.linalg.norm(csr_matvec(A, x) - b) / np.linalg.norm(b)
        if r > 1e-8:
            raise AssertionError(f"residual {r:.2e}")
        return f"relative residual {r:.2e}"

    check("backward-stable solve", c_solve)

    if check_parallel and lu is not None:
        from ..parallel import run_method

        def c_parallel():
            r1 = run_method("1d-rapid", om.A, part, bstruct, nprocs, T3E)
            r2 = run_method("2d", om.A, part, bstruct, nprocs, T3E)
            for key, blk in lu.matrix.blocks.items():
                if not np.array_equal(blk, r1.factor.blocks[key]):
                    raise AssertionError(f"1D block {key} differs")
                if not np.array_equal(blk, r2.factor.blocks[key]):
                    raise AssertionError(f"2D block {key} differs")
            deg = r2.overlap_degree()
            if deg > r2.grid.pc:
                raise AssertionError(
                    f"overlap degree {deg} exceeds p_c = {r2.grid.pc}"
                )
            return (
                f"1D/2D bitwise equal; overlap {deg} <= p_c {r2.grid.pc}"
            )

        check("parallel agreement + Theorem 2", c_parallel)

    return results


def format_report(results) -> str:
    lines = []
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        lines.append(f"[{mark}] {r.name}" + (f" — {r.detail}" if r.detail else ""))
    ok = sum(1 for r in results if r.passed)
    lines.append(f"{ok}/{len(results)} checks passed")
    return "\n".join(lines)
