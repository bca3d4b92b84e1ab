"""Benchmark: block-structured Newton solves vs dense solves on N-app workloads.

The barrier solver's structured path factorises each application's diagonal
Hessian block independently and folds the shared capacity rows in through a
Schur complement, so one Newton step costs the sum of per-application cubes
instead of the cube of the whole variable count.  This benchmark pins the
scaling win on workloads of 1, 2, 4 and 8 applications sharing one platform:

* the structured and dense kernels must return **identical optima** (every
  variable within 1e-8) — the structure is a pure performance change;
* from two applications on, the structured solve must **never hand a
  full-width system** to the Cholesky solve: the widest one it factorises
  is a block, the border or the coupling Schur matrix, while the dense
  reference factorises its whole ``k×k`` system — a deterministic count,
  not a wall-clock race (best-of-``REPEATS`` wall times are recorded
  beside it);
* the structured kernel must engage automatically for workloads of two or
  more applications.

The dense reference is a fresh compile of the same program with its block
structure dropped, which the solver treats as a single block.

The per-size timings ride along in ``benchmark.extra_info`` so that
``--benchmark-json`` artifacts record the dense/structured trajectory.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.core.formulation import WorkloadSocpFormulation
from repro.solver import barrier
from repro.solver.backends import solve_compiled
from repro.taskgraph import Workload
from repro.taskgraph.generators import random_dag_configuration

#: Workload sizes of the scaling series.
SIZES = (1, 2, 4, 8)
#: Best-of-REPEATS wall times, recorded for trend inspection: three
#: repetitions absorb one-off noise spikes.
REPEATS = 3


#: The sparse-core scaling curve (tens to hundreds of applications).  Each
#: application is deliberately light (short WCETs on a fine granularity) so
#: the shared processors admit hundreds of them; the dense reference is
#: solved only up to DENSE_UPTO applications — its per-solve cost grows with
#: the cube of the variable count and is minutes-long at 128 apps, which is
#: exactly what the sparse path removes.  Both knobs are env-tunable so the
#: CI smoke job can run a small curve (16/32) with the same assertions.
SCALING_SIZES = tuple(
    int(size)
    for size in os.environ.get("REPRO_BENCH_SCALING_SIZES", "8,16,32,64,128").split(",")
    if size.strip()
)
DENSE_UPTO = int(os.environ.get("REPRO_BENCH_DENSE_UPTO", "32"))
#: Near-linear reference for the recorded per-Newton-iteration growth across
#: the curve: apps^LINEARITY_EXPONENT (1.0 = perfectly linear; the slack
#: covers cache effects and the O(m²·n) coupling term).
LINEARITY_EXPONENT = 1.35


def _workload(app_count: int, light: bool = False) -> Workload:
    wcet_range = (0.02, 0.05) if light else (0.2, 0.8)
    granularity = 0.01 if light else 1.0
    applications = [
        random_dag_configuration(
            task_count=6,
            processor_count=6,
            seed=3 + index,
            wcet_range=wcet_range,
            granularity=granularity,
        )
        for index in range(app_count)
    ]
    workload = Workload(applications[0].platform, name=f"bench-{app_count}-apps")
    for index, application in enumerate(applications):
        workload.add_application(f"app{index}", application)
    return workload


def _compiled(app_count: int, light: bool = False):
    """The workload's compiled program, its dense reference and a start point."""
    formulation = WorkloadSocpFormulation(_workload(app_count, light=light))
    program = formulation.build()
    compiled = program.compile()
    dense = program.compile()
    dense.block_structure = None
    initial = formulation.initial_point()
    return compiled, dense, initial


def _solve(compiled, initial):
    return solve_compiled(compiled, backend="barrier", initial_point=initial)


def _best_time(compiled, initial):
    """Best-of-REPEATS wall time and the last solution."""
    best = float("inf")
    solution = None
    for _ in range(REPEATS):
        start = time.perf_counter()
        solution = _solve(compiled, initial)
        best = min(best, time.perf_counter() - start)
    return best, solution


def _solve_widths(compiled, initial):
    """The first solve of ``compiled``, with the kernel's Cholesky solves
    wrapped: LAPACK's ``dposv``, which factors the blocks and the one-block
    system in place, and ``_spd_solve``, which takes the Schur matrices and
    every system wider than ``_DPOSV_MAX_WIDTH``.

    Returns the solution, the widest system handed to either, the widest
    one an arrow solve may hand them (a block, the border or the coupling
    Schur matrix) and the widest phase ``k``, both read from the kernel
    layout the solve built for each phase it ran.
    """
    received = [0]
    dposv, spd_solve = barrier._dposv, barrier._spd_solve

    def recording_dposv(matrix, rhs, *flags, **options):
        received[0] = max(received[0], matrix.shape[0])
        return dposv(matrix, rhs, *flags, **options)

    def recording_solve(matrix, rhs):
        received[0] = max(received[0], matrix.shape[0])
        return spd_solve(matrix, rhs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(barrier, "_dposv", recording_dposv)
        patch.setattr(barrier, "_spd_solve", recording_solve)
        solution = _solve(compiled, initial)
    built = compiled.kernel_layout.__dict__
    phases = [built[name] for name in ("phase_two", "phase_one") if name in built]
    bound = max(
        max(phase.widths.tolist() + [phase.border, phase.coupling.shape[0]])
        for phase in phases
    )
    return solution, received[0], bound, max(phase.k for phase in phases)


def _assert_no_full_width_solve(structured_widths, dense_widths):
    """The structured solve factorises nothing wider than a block, the
    border or the coupling rows, and takes no dense or least-squares step;
    the one-block reference factorises its full ``k×k`` system.  Both
    arguments are :func:`_solve_widths` results."""
    structured, widest, bound, k = structured_widths
    assert widest <= bound < k, (widest, bound, k)
    assert structured.stats["structured_fallback_iterations"] == 0
    assert structured.stats["lstsq_steps"] == 0
    dense, dense_widest, _, dense_k = dense_widths
    assert dense_widest == dense_k
    assert dense.stats["lstsq_steps"] == 0
    return widest, dense_widest


def _newton_total(solution):
    return int(solution.stats.get("newton_iterations", 0)) + int(
        solution.stats.get("phase1_newton_iterations", 0)
    )


@pytest.mark.parametrize("app_count", SIZES)
def test_bench_block_newton_scaling(app_count, benchmark, record_series):
    compiled, dense_compiled, initial = _compiled(app_count)
    # Prime both kernel layouts so both kernels time the
    # Newton work, not the one-off layout build; the priming solves also
    # record the widths the kernel factorises.
    structured_widths = _solve_widths(compiled, initial)
    dense_widths = _solve_widths(dense_compiled, initial)

    dense_time, dense = _best_time(dense_compiled, initial)
    structured_time, structured = _best_time(compiled, initial)

    assert dense.is_optimal and structured.is_optimal
    assert dense.stats["structured"] is False
    # Auto engagement: the structured path switches on from 2 applications.
    assert structured.stats["structured"] is (app_count >= 2)

    # Identical optima: the structure only changes how the Newton systems are
    # solved, never what they converge to.
    point_s, point_d = structured.by_name(), dense.by_name()
    assert structured.objective == pytest.approx(dense.objective, abs=1e-8)
    for name, value in point_s.items():
        assert value == pytest.approx(point_d[name], abs=1e-8), name

    if app_count >= 2:
        widest, dense_widest = _assert_no_full_width_solve(
            structured_widths, dense_widths
        )
        record_series(benchmark, "widest_structured_solve", widest)
        record_series(benchmark, "widest_dense_solve", dense_widest)

    record_series(benchmark, "variables", compiled.num_variables)
    record_series(benchmark, "dense_seconds", dense_time)
    record_series(benchmark, "structured_seconds", structured_time)
    record_series(benchmark, "speedup", dense_time / max(structured_time, 1e-12))
    record_series(benchmark, "newton_iterations_dense", _newton_total(dense))
    record_series(
        benchmark, "newton_iterations_structured", _newton_total(structured)
    )
    benchmark(lambda: _solve(compiled, initial))


def test_bench_sparse_scaling_curve(benchmark, record_series):
    """The sparse block-Newton core across 16..128 applications.

    Two gates and one recorded curve:

    * **parity** — wherever the dense reference is solved (up to DENSE_UPTO
      applications), the sparse backend returns the identical optimum, every
      variable within 1e-8.  This assertion always runs, CI included.
    * **no full-width solve** — wherever the dense reference is solved, the
      sparse solve hands the Cholesky solve nothing wider than a block, the
      border or the coupling rows, and takes no dense or least-squares
      step, while the reference factorises its full ``k×k`` system (both
      wall times are recorded, not compared).
    * **per-iteration cost** — wall time per Newton iteration at every size,
      and its growth from the smallest to the largest size next to
      apps^LINEARITY_EXPONENT (the dense path is ~cubic here), are recorded,
      not asserted: wall times race on a shared machine.
    """
    curve = []
    for app_count in SCALING_SIZES:
        compiled, dense_compiled, initial = _compiled(app_count, light=True)
        # Prime the kernel layout with one cheap sparse solve
        # so every timed solve measures the Newton work.
        primed_widths = _solve_widths(compiled, initial)
        primed = primed_widths[0]
        assert primed.is_optimal
        assert primed.stats["structured"] is (app_count >= 2)

        sparse_time, sparse = _best_time(compiled, initial)
        assert sparse.is_optimal
        per_iteration = sparse_time / max(_newton_total(sparse), 1)

        dense_time = None
        if app_count <= DENSE_UPTO:
            start = time.perf_counter()
            dense_widths = _solve_widths(dense_compiled, initial)
            dense_time = time.perf_counter() - start
            dense = dense_widths[0]
            assert dense.is_optimal
            # Parity gate: the sparse core never moves the optimum.
            point_s, point_d = sparse.by_name(), dense.by_name()
            assert sparse.objective == pytest.approx(dense.objective, abs=1e-8)
            for name, value in point_s.items():
                assert value == pytest.approx(point_d[name], abs=1e-8), (
                    f"{app_count} apps: {name}"
                )
            if app_count >= 2:
                widest, dense_widest = _assert_no_full_width_solve(
                    primed_widths, dense_widths
                )
                record_series(benchmark, f"widest_sparse_solve_{app_count}", widest)
                record_series(
                    benchmark, f"widest_dense_solve_{app_count}", dense_widest
                )

        curve.append((app_count, sparse_time, per_iteration))
        record_series(benchmark, f"sparse_seconds_{app_count}", sparse_time)
        record_series(benchmark, f"per_iteration_seconds_{app_count}", per_iteration)
        record_series(benchmark, f"sparse_nnz_{app_count}", sparse.stats["sparse_nnz"])
        if dense_time is not None:
            record_series(benchmark, f"dense_seconds_{app_count}", dense_time)
            record_series(
                benchmark, f"speedup_{app_count}", dense_time / max(sparse_time, 1e-12)
            )

    if len(curve) >= 2:
        base_apps, _, base_per_iter = curve[0]
        top_apps, _, top_per_iter = curve[-1]
        record_series(
            benchmark, "per_iteration_growth", top_per_iter / max(base_per_iter, 1e-12)
        )
        record_series(
            benchmark,
            "per_iteration_growth_linear_bound",
            (top_apps / base_apps) ** LINEARITY_EXPONENT,
        )

    # ``compiled``/``initial`` still hold the largest size from the loop
    # (caches primed); report its sparse solve as the benchmark sample.
    benchmark(lambda: _solve(compiled, initial))
