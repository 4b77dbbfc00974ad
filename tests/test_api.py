"""The SStarSolver facade."""

import numpy as np
import pytest

from repro import SStarSolver
from repro.matrices import get_matrix, random_nonsymmetric
from repro.sparse import csr_matvec, csr_to_dense


class TestSequential:
    def test_factor_solve_original_coordinates(self):
        A = random_nonsymmetric(70, density=0.06, seed=41, zero_free_diagonal=False)
        # ensure structural nonsingularity by adding a diagonal
        A = random_nonsymmetric(70, density=0.06, seed=41)
        s = SStarSolver().factor(A)
        b = np.linspace(1, 2, 70)
        x = s.solve(b)
        assert np.linalg.norm(csr_matvec(A, x) - b) / np.linalg.norm(b) < 1e-9

    def test_dense_input(self, rng):
        D = rng.uniform(-1, 1, (30, 30)) + 4 * np.eye(30)
        s = SStarSolver().factor(D)
        b = rng.uniform(-1, 1, 30)
        x = s.solve(b)
        assert np.allclose(D @ x, b)

    def test_report_populated(self):
        A = get_matrix("jpwh991", "small")
        s = SStarSolver().factor(A)
        r = s.report
        assert r.n == A.nrows
        assert r.factor_entries >= A.nnz * 0.5
        assert r.flops > 0
        assert 0 <= r.dgemm_fraction <= 1
        assert r.parallel_seconds is None

    def test_solve_before_factor_raises(self):
        with pytest.raises(RuntimeError, match="factor"):
            SStarSolver().solve(np.ones(3))

    def test_bad_input_type(self):
        with pytest.raises(TypeError):
            SStarSolver().factor([[1, 2], [3, 4]])

    def test_solution_matches_dense_reference(self):
        A = get_matrix("orsreg1", "small")
        s = SStarSolver().factor(A)
        D = csr_to_dense(A)
        b = np.ones(A.nrows)
        assert np.allclose(s.solve(b), np.linalg.solve(D, b), rtol=1e-7, atol=1e-9)


class TestBoundaryInputs:
    """Degenerate systems raise a ValueError naming the problem instead of
    failing deep in the factorization (or silently returning NaNs)."""

    @pytest.fixture(scope="class")
    def A(self):
        return get_matrix("sherman5", "small")

    @staticmethod
    def _poisoned(A, value):
        data = A.data.copy()
        data[5] = value
        return A.with_values(data)

    def test_empty_matrix(self):
        with pytest.raises(ValueError, match="empty"):
            SStarSolver().factor(np.zeros((0, 0)))

    def test_non_square_matrix(self):
        with pytest.raises(ValueError, match="square"):
            SStarSolver().factor(np.ones((3, 4)))

    @pytest.mark.parametrize("method,value", [
        ("sequential", np.nan), ("sequential", np.inf), ("2d", np.nan),
    ])
    def test_non_finite_matrix(self, A, method, value):
        solver = SStarSolver(method=method, nprocs=4)
        with pytest.raises(ValueError, match="1 non-finite"):
            solver.factor(self._poisoned(A, value))
        with pytest.raises(ValueError, match="non-finite"):
            solver.refactor(self._poisoned(A, value))

    def test_non_finite_rhs(self, A):
        b = np.ones(A.nrows)
        b[3] = np.nan
        with pytest.raises(ValueError, match="rhs has 1 non-finite"):
            SStarSolver().factor(A).solve(b)

    def test_service_submit_rejects_non_finite(self, A):
        from repro.service import SolveService

        svc = SolveService(workers=1)
        b = np.ones(A.nrows)
        with pytest.raises(ValueError, match="A has 1 non-finite"):
            svc.submit(self._poisoned(A, np.nan), b)
        b[0] = np.inf
        with pytest.raises(ValueError, match="rhs has 1 non-finite"):
            svc.submit(A, b)


class TestParallelMethods:
    @pytest.mark.parametrize("method", ["1d-rapid", "1d-ca", "2d", "2d-sync"])
    def test_all_methods_agree(self, method):
        A = random_nonsymmetric(60, density=0.08, seed=43)
        ref = SStarSolver().factor(A)
        par = SStarSolver(nprocs=4, method=method).factor(A)
        b = np.arange(60.0) + 1
        assert np.array_equal(ref.solve(b), par.solve(b))  # bitwise identical
        assert par.report.parallel_seconds > 0
        assert par.report.nprocs == 4

    def test_machine_selection(self):
        A = random_nonsymmetric(50, density=0.08, seed=44)
        t3d = SStarSolver(nprocs=4, method="2d", machine="T3D").factor(A)
        t3e = SStarSolver(nprocs=4, method="2d", machine="T3E").factor(A)
        assert t3e.report.parallel_seconds < t3d.report.parallel_seconds

    def test_unknown_method(self):
        A = random_nonsymmetric(30, seed=45)
        with pytest.raises(ValueError, match="method"):
            SStarSolver(nprocs=2, method="3d").factor(A)

    @pytest.mark.parametrize("nprocs", [1, 4])
    def test_unknown_method_rejected_at_construction(self, nprocs):
        """A misspelt method must not fall back to the sequential code on
        one processor, nor fail only once ``factor`` runs on several."""
        with pytest.raises(ValueError, match="unknown method '2D-async'"):
            SStarSolver(nprocs=nprocs, method="2D-async")

    def test_sim_result_exposed(self):
        A = random_nonsymmetric(50, density=0.08, seed=46)
        s = SStarSolver(nprocs=4, method="1d-rapid").factor(A)
        assert s.sim_result is not None
        assert s.sim_result.messages == s.report.messages


class TestMethodDispatch:
    def test_runs_look_drivers_up_on_the_package(self, monkeypatch):
        """A wrapper installed on ``repro.parallel`` sees every solver run
        (the end-to-end benchmark times the drivers this way)."""
        import repro.parallel as parallel

        calls = []
        real = parallel.run_2d

        def spy(*args, **kwargs):
            calls.append(kwargs["synchronous"])
            return real(*args, **kwargs)

        monkeypatch.setattr(parallel, "run_2d", spy)
        A = random_nonsymmetric(50, density=0.08, seed=48)
        SStarSolver(nprocs=4, method="2d-sync").factor(A)
        assert calls == [True]

    def test_ckpt_interval_routes_to_resilient_driver(self):
        A = random_nonsymmetric(50, density=0.08, seed=49)
        s = SStarSolver(nprocs=4, method="1d-ca", ckpt_interval=2).factor(A)
        assert s.resilient_result is not None and s.sim_result is None
        b = np.arange(50.0) + 1
        assert np.array_equal(s.solve(b), SStarSolver().factor(A).solve(b))

    def test_sequential_has_no_simulated_driver(self):
        from repro.parallel import run_method

        with pytest.raises(ValueError, match="sequential"):
            run_method("sequential", None, None, None, 1, None)


class TestBlockSizeAndAmalgamation:
    def test_block_size_one_works(self):
        A = random_nonsymmetric(40, density=0.1, seed=47)
        s = SStarSolver(block_size=1, amalgamation=0).factor(A)
        b = np.ones(40)
        x = s.solve(b)
        assert np.linalg.norm(csr_matvec(A, x) - b) < 1e-8

    def test_amalgamation_reduces_blocks(self):
        A = get_matrix("saylr4", "small")
        s0 = SStarSolver(amalgamation=0).factor(A)
        s6 = SStarSolver(amalgamation=6).factor(A)
        assert s6.report.supernode_blocks <= s0.report.supernode_blocks
