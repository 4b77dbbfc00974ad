"""End-to-end solve benchmark: one workload, one seed, one run.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload cold-analyze --seed 1 --seconds 25 --trace 0

``--trace 0`` times jobs with nothing wrapped and reports the end-to-end
metrics.  ``--trace 1`` alternates untraced and traced rounds, wraps every
layer's entry points during the traced ones (see ``spans.py``) and reports
the per-layer metrics.  Every job's answer is checked; a wrong answer or an
exception makes the run fail with exit code 1.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  The line before it records the seed and the environment.

On a shared host the speed of the machine drifts as neighbours load it:
on a 2-vCPU VM by a fifth or more, in episodes of tens of seconds to
minutes, too slow for longer runs or medians to average out.  So every job
is timed against a fixed reference loop (``ReferenceLoop``) run right
before and right after it, and the job-time metrics are in units of that
loop: ``ref`` is one loop's time.  ``setup_s`` is timed the same way and
given in seconds at :data:`REF_SECONDS` per loop.  The raw seconds are
printed beside them.
"""

import os

# one BLAS thread, pinned before numpy loads: the benchmark is one client
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

from spans import SpanRecorder, capturing_solvers, traced as tracing  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: set-ups per run; ``setup_s`` is their median.  A cold-analyze set-up
#: takes ~5 s, so two keep its runs under a minute.
SETUPS = 2
#: samples the reported tail percentile leaves beyond it in the shortest run
TAIL_BEYOND = 10
#: the reference loop's time on an idle 2-vCPU x86 host, in seconds; it
#: turns set-up time in reference loops into ``setup_s``
REF_SECONDS = 0.018

#: span name -> per-layer metric, when it is not the name plus ``_s``
SPAN_METRIC = {
    "job": "unattributed_s",
    "ordering.prepare": "ordering.prepare_self_s",
    "service": "service.self_s",
    "api.solver": "api.solver_self_s",
}

#: per-layer metric -> the end-to-end metric it should move, and where
MOVES = {
    "ordering.transversal_s": "job_p50_ref, jobs_per_kref on cold-analyze; setup_s elsewhere",
    "ordering.mindeg_s": "job_p50_ref, jobs_per_kref on cold-analyze; setup_s elsewhere",
    "ordering.prepare_self_s": "job_p50_ref, jobs_per_kref on cold-analyze; setup_s elsewhere",
    "sparse.ata_pattern_s": "job_p50_ref, jobs_per_kref on cold-analyze; setup_s elsewhere",
    "symbolic.george_ng_s": "job_p50_ref, jobs_per_kref on cold-analyze; setup_s elsewhere",
    "supernodes.partition_s": "job_p50_ref, jobs_per_kref on cold-analyze; setup_s elsewhere",
    "supernodes.bstruct_s": "job_p50_ref, jobs_per_kref on cold-analyze; setup_s elsewhere",
    "numfact.factor_s": "jobs_per_kref on refactor-stream; a little on cold-analyze",
    "numfact.host_mflops": "jobs_per_kref on refactor-stream; a little on cold-analyze",
    "numfact.trisolve_s": "job_tail_ref on refactor-stream (multi-RHS jobs)",
    "service.pattern_key_s": "jobs_per_kref on refactor-stream",
    "service.analyze_s": "jobs_per_kref on refactor-stream (0 there: cache hits)",
    "service.self_s": "jobs_per_kref on refactor-stream",
    "service.cache_hit_ratio": "jobs_per_kref on refactor-stream",
    "sparse.permute_s": "jobs_per_kref on refactor-stream",
    "api.solver_self_s": "jobs_per_kref on refactor-stream",
    "parallel.run_1d_s": "job_p50_ref on sim-parallel",
    "parallel.run_2d_s": "job_p50_ref on sim-parallel (2D jobs)",
    "machine.host_us_per_message": "job_p50_ref on sim-parallel (2D jobs)",
    "symbolic.factor_entries": "exact; guards virtual_s_per_job",
    "supernodes.blocks": "exact; guards virtual_s_per_job",
    "numfact.flops": "exact; guards virtual_s_per_job",
    "numfact.dgemm_fraction": "exact; guards virtual_s_per_job",
    "machine.messages": "exact; guards virtual_s_per_job",
    "machine.bytes_sent": "exact; guards virtual_s_per_job",
    "machine.virtual_makespan_s": "exact; guards virtual_s_per_job",
    "machine.idle_frac": "exact; guards virtual_s_per_job",
    "machine.load_balance": "exact; guards virtual_s_per_job",
    "unattributed_s": "job time no layer span covers",
    "trace_overhead_ratio": "traced job_p50_ref / untraced job_p50_ref",
}


class ReferenceLoop:
    """A fixed piece of work that uses nothing from the program: it builds,
    sorts and probes 20000 small Python objects, as the program's analysis
    does, and multiplies small matrices, about 18 ms on an idle 2-vCPU x86
    host.  Timed right before and after each job, it gives how fast the
    host runs at that moment; object-heavy work tracks the program's
    slowdowns under load better than a loop that stays in cache.

    The cyclic garbage collector is off while it runs, so that its time
    does not depend on how many objects the program keeps alive."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.keys = rng.permutation(20000).tolist()
        self.M = rng.standard_normal((60, 60))
        for _ in range(3):  # warm caches and the allocator
            self()

    def __call__(self) -> float:
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = perf_counter()
            d = {k: (k, str(k)) for k in self.keys}
            sorted(d.values())
            half = set(self.keys[::2])
            sum(1 for k in self.keys if k in half)
            for _ in range(50):
                self.M @ self.M
            return perf_counter() - t0
        finally:
            if enabled:
                gc.enable()


def exact_counts(solver) -> dict:
    """Counts of one factorization that repeat exactly from run to run."""
    rep = solver.report
    sim = solver.sim_result
    # modeled T3E factor time: the simulated makespan of a parallel run, the
    # machine's kernel-rate estimate of the counted flops otherwise
    if rep.parallel_seconds is not None:
        virtual_s = rep.parallel_seconds
    else:
        virtual_s = solver.spec.kernel_seconds(solver.factorization.counter.by_gran)
    return {
        "symbolic.factor_entries": rep.factor_entries,
        "supernodes.blocks": rep.supernode_blocks,
        "numfact.flops": rep.flops,
        "numfact.dgemm_fraction": rep.dgemm_fraction,
        "machine.messages": rep.messages,
        "machine.bytes_sent": rep.bytes_sent,
        "machine.virtual_makespan_s": rep.parallel_seconds or 0.0,
        "machine.idle_frac": (
            1.0 - sum(sim.rank_busy) / (sim.nprocs * sim.total_time) if sim else 0.0),
        "machine.load_balance": sim.load_balance_factor() if sim else 0.0,
        "virtual_s_per_job": virtual_s,
        "service.cache_hit_ratio": float(rep.analysis_reused),
    }


def environment(args) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


class Run:
    """Times jobs in whole rounds and checks every answer."""

    def __init__(self, workload, trace: bool, reference: ReferenceLoop):
        self.workload = workload
        self.trace = trace
        self.recorder = SpanRecorder()
        self.reference = reference
        self.ref_s = [reference()]  # reference loop times, between jobs
        self.latency = {False: [], True: []}  # seconds, keyed by "traced"
        self.in_ref = {False: [], True: []}  # job time / reference loop time
        self.by_label = {}  # untraced latencies by job kind (+rhs8: block RHS)
        self.counts = {}  # job kind -> exact counts of its first job
        self.jobs_of_kind = {}  # job kind -> jobs that passed
        self.traced_counts = []  # exact counts of every traced job
        self.attempted = self.failed = self.rounds = 0
        self.problems = []

    def job(self, job, traced: bool) -> None:
        solvers = []
        self.attempted += 1
        try:
            with capturing_solvers(solvers):
                if traced:
                    run = self.recorder.wrap("job", self.workload.run)
                    with tracing(self.recorder):
                        t0 = perf_counter()
                        x = run(job)
                        dt = perf_counter() - t0
                else:
                    t0 = perf_counter()
                    x = self.workload.run(job)
                    dt = perf_counter() - t0
            self.workload.check(job, x)
        except Exception:  # a failed job is counted and the loop goes on
            self.failed += 1
            traceback.print_exc()
            return
        finally:
            self.ref_s.append(self.reference())
        counts = exact_counts(solvers[-1])
        first = self.counts.setdefault(job.kind, counts)
        if counts != first:
            self.problems.append(f"{job.kind}: exact counts differ between jobs")
        self.jobs_of_kind[job.kind] = self.jobs_of_kind.get(job.kind, 0) + 1
        self.latency[traced].append(dt)
        self.in_ref[traced].append(dt / (0.5 * (self.ref_s[-2] + self.ref_s[-1])))
        if traced:
            self.traced_counts.append(counts)
        else:
            label = job.kind + ("+rhs8" if job.block else "")
            self.by_label.setdefault(label, []).append(dt)

    def loop(self, seconds: float) -> None:
        t_end = perf_counter() + seconds
        while (perf_counter() < t_end or self.attempted < self.workload.min_jobs
               or (self.trace and self.rounds < 2)):
            traced = self.trace and self.rounds % 2 == 1
            for job in self.workload.round():
                self.job(job, traced)
            self.rounds += 1

    def exact_means(self) -> dict:
        """Per-job mean of each exact count over the workload's job mix.

        Rounds are whole, so each kind's share of the jobs is the same
        fraction in every run and the sum, taken in a fixed order, repeats
        bit for bit."""
        n = sum(self.jobs_of_kind.values())
        kinds = sorted(self.counts)
        return {k: sum(self.jobs_of_kind[kind] / n * self.counts[kind][k]
                       for kind in kinds)
                for k in self.counts[kinds[0]]}

    def tail_rank(self, n: int) -> int:
        """1-based rank of the tail among ``n`` sorted samples.

        The tail is the percentile that leaves :data:`TAIL_BEYOND` samples
        beyond it in the shortest run the workload allows (``min_jobs``
        jobs), so it is the same percentile in every run, and longer runs
        leave more samples beyond it.  A percentile that moved with the job
        count would move across the gaps between job types."""
        m = self.workload.min_jobs
        return -(-n * (m - TAIL_BEYOND) // m)

    def summary(self, times: list, per: float) -> dict:
        """Throughput per ``per`` units of time, median and tail of ``times``."""
        t = sorted(times)
        n = len(t)
        return {"per": per * n / sum(t), "p50": statistics.median(t),
                "tail": t[self.tail_rank(n) - 1]}

    def end_to_end(self, setup_in_ref: list) -> tuple:
        in_ref = self.summary(self.in_ref[False], 1000.0)
        n = len(self.in_ref[False])
        m = self.workload.min_jobs
        info = {
            "tail": {"percentile": 100.0 * (m - TAIL_BEYOND) / m,
                     "samples": n, "beyond": n - self.tail_rank(n)},
            "raw_seconds": dict(zip(("jobs_per_s", "job_p50_s", "job_tail_s"),
                                self.summary(self.latency[False], 1.0).values())),
            "ref_loop_s": {"median": statistics.median(self.ref_s),
                           "min": min(self.ref_s), "max": max(self.ref_s)},
        }
        metrics = {
            "jobs_per_kref": in_ref["per"],
            "job_p50_ref": in_ref["p50"],
            "job_tail_ref": in_ref["tail"],
            "setup_s": REF_SECONDS * statistics.median(setup_in_ref),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "virtual_s_per_job": self.exact_means()["virtual_s_per_job"],
        }
        return metrics, info

    def per_layer(self) -> dict:
        jobs = self.recorder.self_times()
        ntr = len(jobs)
        self_s = {}  # per-layer self seconds per job
        for per in jobs:
            for span, secs in per.items():
                if span != "job_total":
                    name = SPAN_METRIC.get(span, span + "_s")
                    self_s[name] = self_s.get(name, 0.0) + secs / ntr
        total = sum(per["job_total"] for per in jobs) / ntr
        if abs(sum(self_s.values()) - total) > 1e-9 * total:
            self.problems.append(
                f"layer self times {sum(self_s.values())} do not add up "
                f"to the job time {total}")
        metrics = {name: 0.0 for name in MOVES}
        metrics.update(self_s)
        factor_s = metrics["numfact.factor_s"] * ntr
        # only sequential jobs run numfact.factor; parallel ones add no time
        flops = sum(c["numfact.flops"] for c in self.traced_counts)
        metrics["numfact.host_mflops"] = flops / factor_s / 1e6 if factor_s else 0.0
        sim_s = (metrics["parallel.run_1d_s"] + metrics["parallel.run_2d_s"]) * ntr
        messages = sum(c["machine.messages"] for c in self.traced_counts)
        metrics["machine.host_us_per_message"] = sim_s / messages * 1e6 if messages else 0.0
        metrics["trace_overhead_ratio"] = (
            statistics.median(self.in_ref[True]) / statistics.median(self.in_ref[False]))
        exact = self.exact_means()
        for k in exact:
            if k in metrics:
                metrics[k] = exact[k]
        return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the repro sources are not at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed)

    reference = ReferenceLoop()
    setup_times, setup_in_ref = [], []
    ref_before = reference()
    for _ in range(SETUPS):
        t0 = perf_counter()
        workload.setup()
        setup_times.append(perf_counter() - t0)
        ref_after = reference()
        setup_in_ref.append(setup_times[-1] / (0.5 * (ref_before + ref_after)))
        ref_before = ref_after

    run = Run(workload, bool(args.trace), reference)
    run.loop(args.seconds)
    ok = run.failed == 0 and not run.problems
    info = environment(args)
    info.update(attempted=run.attempted, failed=run.failed, rounds=run.rounds,
                error_rate=run.failed / run.attempted,
                setup_times=setup_times, problems=run.problems,
                p50_by_job_type={k: statistics.median(v)
                                 for k, v in sorted(run.by_label.items())})
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if args.trace else "end_to_end"]}
    metrics = {}
    if ok and args.trace:
        metrics = run.per_layer()
    elif ok:
        metrics, more = run.end_to_end(setup_in_ref)
        info.update(more)
    if metrics and set(metrics) != set(units):
        run.problems.append("metrics differ from those BENCHMARK.json declares")
    ok = ok and not run.problems
    for name, value in metrics.items():
        print(f"{name:30s} {value:16.6g} {units.get(name, '?'):10s}"
              f"{MOVES.get(name, '')}")
    print(f"{'error_rate':30s} {info['error_rate']:16.6g} ratio")
    print(json.dumps({"run": info}))
    print(json.dumps({
        "correct": ok,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units.get(k, "?")}
                    for k, v in metrics.items()},
    }))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
