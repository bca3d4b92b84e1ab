"""Sparse block-Newton backend tests: CSR compilation, telemetry, edge cases.

The sparse rebuild of the block-Newton core (CSR constraint assembly,
QR-based blockwise elimination, batched/`splu` block factorisations, CSR
merit bundle) must be a pure performance change.  These tests pin:

* the compiled problem carries CSR constraint matrices that agree exactly
  with the lazily densified ``G``/``A`` properties;
* per-solve sparse telemetry (nnz, factorisation/Schur time split, block
  factorisation counts, pieces-cache reuse) lands in the solve stats, the
  metrics registry and the session aggregates;
* the `BlockStructure` edge cases survive the sparse path: a 1-app workload
  runs the dense kernel, a zero-buffer application solves, pinned
  (equality-collapsed) blocks eliminate blockwise, and a failing block
  factorisation falls back to the dense kernel with the same optimum;

The dense reference is a fresh compile of the same program with its block
structure dropped, which the solver treats as a single block.
* `CompiledProblem.elimination_seed` stays bounded over a long add/remove
  admission trace (seeds are consumed by the first elimination, and removed
  applications never transfer).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.core import AllocatorOptions, JointAllocator
from repro.core.formulation import WorkloadSocpFormulation
from repro.exceptions import FormulationError
from repro.solver import barrier
from repro.solver.backends import solve_compiled
from repro.solver.barrier import _StructuredWorkspace
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

    The solver treats it as a single block, so it runs the dense kernel.
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
        compiled = compiled_workload(2)
        assert scipy_sparse.issparse(compiled.G_sparse)
        assert compiled.G_sparse.format == "csr"
        # The dense properties stay available (scipy/linprog backends, tests)
        # and agree entry-for-entry with the sparse originals.
        np.testing.assert_array_equal(compiled.G, compiled.G_sparse.toarray())
        if compiled.A_sparse is not None and compiled.A_sparse.shape[0]:
            np.testing.assert_array_equal(
                compiled.A, compiled.A_sparse.toarray()
            )

    def test_constraint_nnz_counts_both_matrices(self):
        compiled = compiled_workload(2)
        expected = int(np.count_nonzero(compiled.G)) + int(
            np.count_nonzero(compiled.A)
        )
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

    def test_dense_solves_report_nnz_but_no_split(self):
        compiled = dense_reference(workload_program(2))
        dense = solve_compiled(compiled, backend="barrier")
        assert dense.stats["sparse_nnz"] == compiled.constraint_nnz
        assert "factorization_time" not in dense.stats

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
        assert metrics["solver.factorization_seconds"]["count"] == 1

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
        assert stats.sparse_solves == 3
        # The first solve builds the reduction pieces; the re-solves reuse.
        assert stats.sparse_pieces_reused == 2
        assert stats.block_factorizations > 0
        as_dict = stats.as_dict()
        assert as_dict["sparse_solves"] == 3
        assert as_dict["sparse_pieces_reused"] == 2


class TestRetiredOptions:
    @pytest.mark.parametrize(
        "option", [{"structured": True}, {"sparse_block_width": 1}]
    )
    def test_kernel_options_are_rejected(self, option):
        """The Newton kernel follows from the input, never from an option."""
        with pytest.raises(FormulationError, match="unknown solver option"):
            solve_compiled(compiled_workload(2), backend="barrier", options=option)


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
        """A capacity limit landing on a buffer's lower bound compiles to an
        equality row; the QR blockwise elimination must agree with the
        one-block reference on the resulting collapsed block."""
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

    def test_wide_blocks_use_splu(self, monkeypatch):
        """Dropping the splu width threshold to 1 routes every block through
        the sparse LU factorisation; the optimum must not move."""
        program = workload_program(2)
        dense = solve_compiled(dense_reference(program), backend="barrier")
        factorisations = []

        def counting_splu(matrix):
            factorisations.append(matrix.shape)
            return scipy_splu(matrix)

        scipy_splu = barrier._sp_splu
        monkeypatch.setattr(barrier, "_sp_splu", counting_splu)
        monkeypatch.setattr(barrier, "_SPLU_BLOCK_WIDTH", 1)
        splu = solve_compiled(program.compile(), backend="barrier")
        assert factorisations
        assert splu.stats["structured"] is True
        assert splu.stats.get("structured_fallback_iterations", 0) == 0
        assert_same_optimum(splu, dense)

    def test_fallback_on_singular_factorization(self, monkeypatch):
        """When every block factorisation fails, the structured kernel
        silently hands each iteration to its dense twin — same optimum, and
        the fallback is visible in the stats."""
        program = workload_program(2)
        dense = solve_compiled(dense_reference(program), backend="barrier")

        def always_singular(self, z, grad_objective):
            raise np.linalg.LinAlgError("forced singular block factor")

        monkeypatch.setattr(
            _StructuredWorkspace, "_arrow_direction", always_singular
        )
        fallback = solve_compiled(program.compile(), backend="barrier")
        assert fallback.is_optimal
        assert fallback.stats["structured"] is True
        assert fallback.stats["structured_fallback_iterations"] > 0
        assert_same_optimum(fallback, dense)


def pinned_pipeline(name: str, period: float = 10.0):
    """A two-stage pipeline with a pinned first budget (an equality row per
    block, so every application participates in the blockwise elimination)."""
    return (
        ConfigurationBuilder(name=name, granularity=1.0)
        .processor("p1", replenishment_interval=40.0)
        .processor("p2", replenishment_interval=40.0)
        .memory("m1")
        .task_graph(name, period=period)
        .task(f"{name}_in", wcet=1.0, processor="p1", min_budget=6.0, max_budget=6.0)
        .task(f"{name}_out", wcet=1.0, processor="p2")
        .buffer(f"{name}_b", source=f"{name}_in", target=f"{name}_out", memory="m1")
        .build()
    )


class TestEliminationSeedEviction:
    def test_seed_bounded_over_long_add_remove_trace(self):
        """Regression: over a long admission trace the compiled problem must
        not accumulate per-block elimination state.  The transfer seed is
        consumed by the first solve's elimination (then dropped), it never
        carries blocks of removed applications, and the per-edit elimination
        work stays at one freshly computed block."""
        base = pinned_pipeline("anchor")
        workload = Workload(base.platform, name="trace")
        workload.add_application("anchor", base)
        allocator = JointAllocator(
            options=AllocatorOptions(verify=False, run_simulation=False)
        )
        session = allocator.workload_session(workload)
        session.allocate()

        for round_index in range(6):
            name = f"guest{round_index}"
            session.add_application(name, pinned_pipeline(name, period=12.0))
            compiled = session._session.parametric.compiled
            seed = compiled.elimination_seed
            # Right after the edit: one seed entry per *transferred* block,
            # never more blocks than the new problem has.
            assert seed is not None
            assert len(seed) <= compiled.block_structure.num_blocks
            assert all(
                0 <= index < compiled.block_structure.num_blocks
                for index in seed
            )
            mapped = session.allocate()
            # The solve's elimination consumed the seed; nothing is retained.
            assert compiled.elimination_seed is None
            solve_stats = mapped.solver_info["solve_stats"]
            assert solve_stats["elimination_blocks_computed"] <= 1
            session.remove_application(name)
            session.allocate()
            assert (
                session._session.parametric.compiled.elimination_seed is None
            )

        stats = session.stats
        # 13 solves: 1 initial + 2 per round; every edit recomputes at most
        # the edited block (the trace would blow up quadratically if removed
        # blocks kept transferring).
        assert stats.solves == 13
        assert stats.elimination_blocks_computed <= 1 + 2 * 6
        assert stats.elimination_blocks_reused >= 6

    def test_repeat_solve_still_reuses_elimination_cache(self):
        compiled = compiled_workload(2)
        first = solve_compiled(compiled, backend="barrier")
        second = solve_compiled(compiled, backend="barrier")
        assert first.stats["elimination_computed"] is True
        assert second.stats["elimination_computed"] is False
        assert compiled.elimination_seed is None
