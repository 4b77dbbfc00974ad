"""The three workloads: their set-up, job mix and the job each one times.

Every workload is a closed loop with one client: the next job starts when
the previous one has returned, as for a caller of a library solver.  Jobs
come in rounds that hold the workload's job types in fixed proportions, in
an order drawn from the seed, so medians and means do not depend on where
a run happens to stop.

The program sees only matrices from the ``repro.matrices`` generators at
``bench`` scale, with values perturbed by the seed, and right-hand sides
drawn from it.  Set-up factors every system once with the sequential
solver; each job's answer must equal that reference bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.api import SStarSolver
from repro.matrices import get_matrix
from repro.service import AnalysisCache, SolveService

#: relative size of the seeded perturbation of every matrix entry
PERTURBATION = 1e-2
#: columns of a block right-hand side
BLOCK_RHS = 8
#: bound on every answer's relative residual (see :func:`relative_residual`)
RESIDUAL_TOL = 1e-12
#: the simulated machine of ``sim-parallel``
SIM_NPROCS = 16
SIM_MACHINE = "T3E"


@dataclass(frozen=True)
class Job:
    pattern: str
    method: str  # "sequential", "1d-rapid" or "2d"
    block: bool  # (n, BLOCK_RHS) right-hand side instead of (n,)

    @property
    def kind(self) -> str:
        """Job type for exact counts, which do not depend on the
        right-hand side."""
        return f"{self.pattern}/{self.method}"


@dataclass
class System:
    A: object  # CSRMatrix
    b: np.ndarray
    B: np.ndarray
    x_ref: np.ndarray
    X_ref: np.ndarray

    def rhs(self, job: Job) -> np.ndarray:
        return self.B if job.block else self.b

    def reference(self, job: Job) -> np.ndarray:
        return self.X_ref if job.block else self.x_ref


def relative_residual(A, x: np.ndarray, b: np.ndarray) -> float:
    """``||Ax - b||_inf / (||A||_inf ||x||_inf + ||b||_inf)`` for a vector
    or a block of right-hand sides."""
    rows = np.repeat(np.arange(A.nrows), np.diff(A.indptr))
    X, Bm = x.reshape(A.ncols, -1), b.reshape(A.nrows, -1)
    worst = 0.0
    for j in range(X.shape[1]):
        Ax = np.bincount(rows, weights=A.data * X[A.indices, j],
                         minlength=A.nrows)
        worst = max(worst, float(np.abs(Ax - Bm[:, j]).max()))
    anorm = np.bincount(rows, weights=np.abs(A.data), minlength=A.nrows).max()
    return worst / (anorm * float(np.abs(X).max()) + float(np.abs(Bm).max()))


class Workload:
    """Base class: ``patterns`` analysed in set-up, ``round`` yields the
    next round of jobs, ``run`` executes one job and returns ``x``.

    ``min_jobs``, a whole number of rounds, is the fewest jobs a run times.
    It fixes the tail percentile (see ``run.py``), which is chosen to fall
    inside one job type rather than on the gap between two."""

    name = ""
    patterns = ()
    min_jobs = 0

    def __init__(self, seed: int):
        self.seed = seed
        self.order_rng = np.random.default_rng([seed, 1])

    def setup(self) -> None:
        """Generate the systems and factor each one with the sequential
        solver, which leaves its analysis in the shared cache and gives the
        reference solutions."""
        rng = np.random.default_rng([self.seed, 0])
        self.cache = AnalysisCache()
        self.systems = {}
        for name in self.patterns:
            A0 = get_matrix(name, "bench")
            scale = 1.0 + PERTURBATION * rng.uniform(-1.0, 1.0, A0.nnz)
            A = A0.with_values(A0.data * scale)
            b = rng.standard_normal(A.nrows)
            B = rng.standard_normal((A.nrows, BLOCK_RHS))
            ref = SStarSolver(analysis_cache=self.cache).factor(A)
            self.systems[name] = System(A, b, B, ref.solve(b), ref.solve(B))

    def system(self, job: Job) -> System:
        return self.systems[job.pattern]

    def check(self, job: Job, x: np.ndarray) -> None:
        """Raise unless ``x`` is bit-identical to the reference solution and
        its relative residual is within :data:`RESIDUAL_TOL`."""
        sys_ = self.system(job)
        ref = sys_.reference(job)
        if x.shape != ref.shape or x.tobytes() != ref.tobytes():
            raise AssertionError(f"{job}: x differs from the reference solve")
        res = relative_residual(sys_.A, x, sys_.rhs(job))
        if not res <= RESIDUAL_TOL:
            raise AssertionError(f"{job}: relative residual {res:.3g}")

    def round(self) -> list:
        raise NotImplementedError

    def run(self, job: Job) -> np.ndarray:
        raise NotImplementedError


class ColdAnalyze(Workload):
    """A fresh sequential solver per job with no cache: the full analysis
    (transversal, min-degree, George-Ng symbolic, partition, block
    structure) runs every time."""

    name = "cold-analyze"
    patterns = ("sherman5", "lnsp3937", "goodwin")
    min_jobs = 21  # 7 rounds of ~4.5 s; the tail (p52) is in lnsp3937 jobs

    def round(self) -> list:
        order = self.order_rng.permutation(len(self.patterns))
        return [Job(self.patterns[i], "sequential", False) for i in order]

    def run(self, job: Job) -> np.ndarray:
        sys_ = self.system(job)
        return SStarSolver().factor(sys_.A).solve(sys_.b)


class RefactorStream(Workload):
    """Same-pattern refactorizations through ``SolveService`` and its warm
    ``AnalysisCache``: analysis never runs in a job.  One job in four
    carries an ``(n, 8)`` right-hand side.

    ``sherman5`` jobs take longer than ``lnsp3937`` ones and come three
    times as often, so the median falls inside the ``sherman5`` jobs rather
    than on the gap between the two patterns, where it would jump between
    runs.
    """

    name = "refactor-stream"
    patterns = ("sherman5", "lnsp3937")
    weights = (3, 1)
    min_jobs = 80  # 5 rounds of 16; the tail (p87.5) is in sherman5 jobs

    def setup(self) -> None:
        super().setup()
        self.service = SolveService(workers=1, cache=self.cache)

    def round(self) -> list:
        jobs = [(p, block) for p, w in zip(self.patterns, self.weights)
                for block in (False, False, False, True) * w]
        return [Job(jobs[i][0], "sequential", jobs[i][1])
                for i in self.order_rng.permutation(len(jobs))]

    def run(self, job: Job) -> np.ndarray:
        sys_ = self.system(job)
        return self.service.result(self.service.submit(sys_.A, sys_.rhs(job)))


class SimParallel(Workload):
    """Refactorizations on a simulated 16-node T3E with the analysis warm,
    switching between the 1D RAPID and the 2D asynchronous codes.

    Every 1D job is faster than every 2D job, so an even split would put
    the median on the gap between them.  Each round runs one 1D and two 2D
    jobs per pattern, which puts the median inside the 2D jobs, where
    messaging and scheduling costs show.
    """

    name = "sim-parallel"
    patterns = ("sherman5", "goodwin")
    methods = ("1d-rapid", "2d", "2d")
    min_jobs = 42  # 7 rounds of 6; the tail (p76) is in goodwin 2D jobs

    def setup(self) -> None:
        super().setup()
        # the first parallel run of a pattern builds the task graph and
        # schedule memos on its block structure; that is set-up, not a job
        for name in self.patterns:
            for method in dict.fromkeys(self.methods):
                self.run(Job(name, method, False))

    def round(self) -> list:
        jobs = [(p, m) for p in self.patterns for m in self.methods]
        return [Job(jobs[i][0], jobs[i][1], False)
                for i in self.order_rng.permutation(len(jobs))]

    def run(self, job: Job) -> np.ndarray:
        sys_ = self.system(job)
        solver = SStarSolver(method=job.method, nprocs=SIM_NPROCS,
                             machine=SIM_MACHINE, analysis_cache=self.cache)
        return solver.refactor(sys_.A).solve(sys_.b)


WORKLOADS = {w.name: w for w in (ColdAnalyze, RefactorStream, SimParallel)}
