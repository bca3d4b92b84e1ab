"""Sparse block-Newton backend tests: CSR compilation, telemetry, edge cases.

The sparse rebuild of the block-Newton core (CSR constraint assembly,
per-block slicing, batched Cholesky block factorisations) must
be a pure performance change.  These tests pin:

* the compiled problem carries a numpy CSR constraint matrix that agrees
  exactly with the lazily densified ``G`` property;
* per-solve telemetry (nnz, factorisation/Schur time split, block
  factorisation counts, pieces-cache reuse) lands in the solve stats, the
  metrics registry and the session aggregates;
* the `BlockStructure` edge cases survive the sparse path: a 1-app workload
  takes the direct solve, a zero-buffer application solves, a pinned
  (substituted) capacity keeps the blocks, and a failing block
  factorisation falls back to a dense step with the same optimum.

The dense reference is a fresh compile of the same program with its block
structure dropped, which the solver treats as a single block.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.core import AllocatorOptions, JointAllocator
from repro.core.formulation import WorkloadSocpFormulation
from repro.solver.backends import solve_compiled
from repro.solver.barrier import _StructuredWorkspace
from repro.solver.problem import CsrMatrix
from repro.taskgraph import ConfigurationBuilder, Workload
from repro.taskgraph.generators import chain_configuration, random_dag_configuration

scipy_sparse = pytest.importorskip("scipy.sparse")


def make_workload(app_count: int, seed: int = 3) -> Workload:
    applications = [
        random_dag_configuration(
            task_count=4,
            processor_count=4,
            seed=seed + index,
            wcet_range=(0.3, 0.9),
        )
        for index in range(app_count)
    ]
    workload = Workload(applications[0].platform, name=f"sparse-{app_count}")
    for index, application in enumerate(applications):
        workload.add_application(f"app{index}", application)
    return workload


def compiled_workload(app_count: int, seed: int = 3):
    formulation = WorkloadSocpFormulation(make_workload(app_count, seed=seed))
    return formulation.build().compile()


def dense_reference(program):
    """A fresh compile of ``program`` without its block structure.

    The solver treats it as a single block, so it takes the direct solve.
    """
    reference = program.compile()
    reference.block_structure = None
    return reference


def workload_program(app_count: int, seed: int = 3):
    return WorkloadSocpFormulation(make_workload(app_count, seed=seed)).build()


def assert_same_optimum(structured, dense, atol: float = 1e-8) -> None:
    assert structured.is_optimal and dense.is_optimal
    assert structured.objective == pytest.approx(dense.objective, abs=atol)
    point_s, point_d = structured.by_name(), dense.by_name()
    for name, value in point_s.items():
        assert value == pytest.approx(point_d[name], abs=atol), name


class TestSparseCompilation:
    def test_compiled_matrices_are_csr(self):
        """``G``, ``P`` and ``Q`` compile to numpy CSR records whose arrays
        are scipy's ``csr_matrix`` arrays after ``sort_indices()``."""
        compiled = compiled_workload(2)
        hyp = compiled.hyperbolic
        for matrix in (compiled.G_sparse, hyp.P, hyp.Q):
            assert isinstance(matrix, CsrMatrix)
            for start, stop in zip(matrix.indptr[:-1], matrix.indptr[1:]):
                assert np.all(np.diff(matrix.indices[start:stop]) > 0)
            reference = scipy_sparse.csr_matrix(
                (matrix.data, matrix.indices, matrix.indptr), shape=matrix.shape
            )
            reference.sort_indices()
            for field in ("data", "indices", "indptr"):
                mine, theirs = getattr(matrix, field), getattr(reference, field)
                assert mine.dtype == theirs.dtype, field
                assert mine.tobytes() == theirs.tobytes(), field
        # The dense properties stay available (scipy/linprog backends, tests)
        # and agree entry-for-entry with the sparse originals.
        np.testing.assert_array_equal(compiled.G, compiled.G_sparse.toarray())

    def test_constraint_nnz_counts_both_matrices(self):
        compiled = compiled_workload(2)
        expected = int(np.count_nonzero(compiled.G))
        assert compiled.constraint_nnz == expected
        assert compiled.constraint_nnz > 0

    def test_sparsity_grows_much_slower_than_dense_size(self):
        """The point of the CSR path: nnz is linear in applications while the
        dense matrix area is quadratic."""
        small = compiled_workload(2)
        large = compiled_workload(8)
        dense_growth = (
            large.num_variables * len(large.inequality_names)
        ) / (small.num_variables * len(small.inequality_names))
        nnz_growth = large.constraint_nnz / small.constraint_nnz
        assert nnz_growth < dense_growth / 2


class TestSparseTelemetry:
    def test_solve_stats_carry_sparse_fields(self):
        compiled = compiled_workload(3)
        first = solve_compiled(compiled, backend="barrier")
        assert first.is_optimal
        assert first.stats["structured"] is True
        assert first.stats["sparse_nnz"] == compiled.constraint_nnz
        assert first.stats["factorization_time"] >= 0.0
        assert first.stats["schur_time"] >= 0.0
        assert first.stats["block_factorizations"] > 0
        assert first.stats["pieces_cache_reused"] is False
        second = solve_compiled(compiled, backend="barrier")
        # The second solve of the same compiled problem reuses the cached
        # reduction pieces (CSR slices, supports, projected bases).
        assert second.stats["pieces_cache_reused"] is True

    def test_dense_solves_report_nnz_and_time_split(self):
        """A one-block solve reports nnz and, since its direct solve runs on
        the same kernel, the kernel time split — but none of the
        multi-block counters."""
        compiled = dense_reference(workload_program(2))
        dense = solve_compiled(compiled, backend="barrier")
        assert dense.stats["structured"] is False
        assert dense.stats["sparse_nnz"] == compiled.constraint_nnz
        assert dense.stats["factorization_time"] > 0.0
        assert dense.stats["assembly_time"] > 0.0
        assert dense.stats["schur_time"] == 0.0
        assert dense.stats["block_factorizations"] > 0
        assert "structured_fallback_iterations" not in dense.stats
        assert "pieces_cache_reused" not in dense.stats

    def test_metrics_registry_engagement_counters(self):
        program = workload_program(2)
        with obs.capture() as capture:
            solve_compiled(program.compile(), backend="barrier")
            solve_compiled(dense_reference(program), backend="barrier")
        metrics = capture.metrics
        assert metrics["solver.sparse_solves"]["value"] == 1.0
        assert metrics["solver.dense_solves"]["value"] == 1.0
        assert metrics["solver.block_factorizations"]["value"] > 0
        assert metrics["solver.sparse_nnz"]["count"] == 2
        assert metrics["solver.factorization_seconds"]["count"] == 2

    def test_session_stats_aggregate_sparse_reuse(self):
        workload = make_workload(2)
        allocator = JointAllocator(
            options=AllocatorOptions(verify=False, run_simulation=False)
        )
        session = allocator.workload_session(workload)
        application = workload.applications[0]
        buffers = application.configuration.task_graphs[0].buffers
        for limit in (8, 7, 6):
            session.allocate(
                capacity_limits={
                    application.name: {buffer.name: limit for buffer in buffers}
                }
            )
        stats = session.stats
        assert stats.solves == stats.sparse_solves == 3
        assert stats.rebuilds == 0
        # The first solve builds the reduction pieces; the re-solves reuse.
        assert stats.sparse_pieces_reused == 2
        assert stats.block_factorizations > 0
        as_dict = stats.as_dict()
        assert as_dict["sparse_solves"] == 3
        assert as_dict["sparse_pieces_reused"] == 2


class TestSparseEdgeCases:
    def test_single_application_keeps_dense_special_case(self):
        compiled = compiled_workload(1)
        solution = solve_compiled(compiled, backend="barrier")
        assert solution.is_optimal
        assert solution.stats["structured"] is False
        # The CSR matrices are still there; only the solve path is dense.
        assert compiled.constraint_nnz > 0

    def test_zero_buffer_application(self):
        """An application with a single task and no buffers contributes a
        block without capacity variables or hyperbolic storage rows."""
        solo = (
            ConfigurationBuilder(name="solo", granularity=1.0)
            .processor("p1", replenishment_interval=40.0)
            .memory("m1")
            .task_graph("solo", period=10.0)
            .task("only", wcet=1.0, processor="p1")
            .build()
        )
        chain = chain_configuration(stages=2)
        workload = Workload(chain.platform, name="mixed")
        workload.add_application("chain", chain)
        workload.add_application("nobuf", solo)
        program = WorkloadSocpFormulation(workload).build()
        compiled = program.compile()
        assert compiled.block_structure is not None
        assert compiled.block_structure.num_blocks == 2
        structured = solve_compiled(compiled, backend="barrier")
        dense = solve_compiled(dense_reference(program), backend="barrier")
        assert structured.stats["structured"] is True
        assert_same_optimum(structured, dense)

    def test_pinned_bound_block_eliminates_blockwise(self):
        """A capacity limit landing on a buffer's lower bound substitutes the
        capacity out; the per-block solve must agree with the one-block
        reference on the resulting narrower block."""
        workload = make_workload(2)
        application = workload.applications[0]
        buffer = application.configuration.task_graphs[0].buffers[0]
        pinned = int(np.ceil(buffer.smallest_feasible_capacity))
        formulation = WorkloadSocpFormulation(
            workload,
            capacity_limits={application.name: {buffer.name: pinned}},
        )
        program = formulation.build()
        structured = solve_compiled(program.compile(), backend="barrier")
        dense = solve_compiled(dense_reference(program), backend="barrier")
        assert structured.stats["structured"] is True
        assert_same_optimum(structured, dense)

    def test_fallback_on_singular_factorization(self, monkeypatch):
        """When every arrow factorisation fails, each iteration takes the
        dense step on the assembled system — same optimum, and the fallback
        is visible in the stats."""
        program = workload_program(2)
        dense = solve_compiled(dense_reference(program), backend="barrier")

        def always_singular(self, *args):
            raise np.linalg.LinAlgError("forced singular block factor")

        monkeypatch.setattr(
            _StructuredWorkspace, "_arrow_direction", always_singular
        )
        fallback = solve_compiled(program.compile(), backend="barrier")
        assert fallback.is_optimal
        assert fallback.stats["structured"] is True
        assert fallback.stats["structured_fallback_iterations"] > 0
        assert_same_optimum(fallback, dense)

