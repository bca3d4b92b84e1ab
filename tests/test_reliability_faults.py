"""Tests of the fault-injection harness and the degradation ladder.

Every seeded chaos scenario must end in a *structured* outcome — an error
verdict, a fallback solution, an evicted cache entry — never an unhandled
exception, and the injected faults must surface as ``reliability.*``
counters in the metrics snapshot.
"""

from __future__ import annotations

import os
import signal
import threading

import pytest

from repro import obs
from repro.core import AdmissionController, AllocatorOptions, JointAllocator
from repro.exceptions import FaultInjected, JournalError, NumericalError
from repro.reliability import (
    FaultPlan,
    armed,
    graceful_interrupts,
    maybe_fail,
    replay_trace_durably,
)
from repro.reliability.faults import FaultSpec, active_plan, install, uninstall
from repro.taskgraph import Workload
from repro.taskgraph.generators import chain_configuration


def options() -> AllocatorOptions:
    return AllocatorOptions(verify=False, run_simulation=False)


@pytest.fixture(autouse=True)
def disarm():
    yield
    uninstall()


class TestFaultPlan:
    def test_inert_without_a_plan(self):
        assert maybe_fail("anything") is None

    def test_fires_on_the_nth_hit_only(self):
        plan = FaultPlan(seed=3).arm("site", "raise", nth=3)
        with armed(plan):
            maybe_fail("site")
            maybe_fail("site")
            with pytest.raises(FaultInjected):
                maybe_fail("site")
            # times=1: the window has passed.
            maybe_fail("site")
        assert plan.fired("site") == 1

    def test_label_match_filters_hits(self):
        plan = FaultPlan().arm("site", "raise", match="item-7")
        with armed(plan):
            maybe_fail("site", label="item-3")
            with pytest.raises(FaultInjected):
                maybe_fail("site", label="item-7")

    def test_times_fires_a_window_of_hits(self):
        plan = FaultPlan().arm("site", "numerical-error", nth=1, times=2)
        with armed(plan):
            with pytest.raises(NumericalError):
                maybe_fail("site")
            with pytest.raises(NumericalError):
                maybe_fail("site")
            maybe_fail("site")
        assert plan.fired() == 2

    def test_roundtrips_through_dicts(self):
        plan = FaultPlan(seed=42).arm(
            "executor.worker", "exit", nth=2, match="slow", seconds=0.5
        )
        clone = FaultPlan.from_dict(plan.to_dict())
        assert clone.seed == 42
        assert clone.specs[0].site == "executor.worker"
        assert clone.specs[0].nth == 2
        assert clone.specs[0].match == "slow"

    def test_unknown_action_is_rejected(self):
        with pytest.raises(ValueError, match="unknown fault action"):
            FaultSpec(site="s", action="explode")

    def test_armed_restores_the_previous_plan(self):
        outer = FaultPlan(seed=1)
        install(outer)
        with armed(FaultPlan(seed=2)):
            assert active_plan().seed == 2
        assert active_plan() is outer
        with armed(None):
            assert active_plan() is outer

    def test_fired_faults_surface_in_the_metrics_snapshot(self):
        plan = FaultPlan().arm("site", "raise")
        with obs.capture() as captured:
            with armed(plan):
                with pytest.raises(FaultInjected):
                    maybe_fail("site")
        assert captured.metrics["reliability.faults.injected"]["value"] >= 1
        assert captured.metrics["reliability.faults.site"]["value"] >= 1


class TestGracefulInterrupts:
    def test_sigterm_becomes_keyboard_interrupt(self):
        with pytest.raises(KeyboardInterrupt):
            with graceful_interrupts():
                os.kill(os.getpid(), signal.SIGTERM)
                # The handler fires at the next interpreter checkpoint.
                for _ in range(1000):
                    pass

    def test_previous_handler_is_restored(self):
        previous = signal.getsignal(signal.SIGTERM)
        with graceful_interrupts():
            assert signal.getsignal(signal.SIGTERM) is not previous
        assert signal.getsignal(signal.SIGTERM) is previous

    def test_noop_off_the_main_thread(self):
        outcome = {}

        def worker():
            with graceful_interrupts():
                outcome["ok"] = True

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        assert outcome["ok"]


class TestChaosScenarios:
    """Seeded end-to-end scenarios: every fault ends in a structured outcome."""

    def _controller(self) -> AdmissionController:
        video = chain_configuration(stages=2)
        controller = AdmissionController(
            video.platform, allocator=JointAllocator(options=options())
        )
        assert controller.admit("video", video).admitted
        return controller

    def test_transient_solver_fault_is_retried_and_admits(self):
        from repro.core.admission import STAGE_ADMITTED

        controller = self._controller()
        plan = FaultPlan(seed=5).arm("admission.solve", "numerical-error", nth=1)
        with obs.capture() as captured, armed(plan):
            decision = controller.admit(
                "audio", chain_configuration(stages=2, period=20.0)
            )
        assert decision.admitted
        assert decision.stage == STAGE_ADMITTED
        assert plan.fired("admission.solve") == 1
        assert captured.metrics["reliability.fallbacks"]["value"] == 1

    def test_persistent_solver_fault_ends_in_an_error_verdict(self):
        from repro.core.admission import STAGE_ERROR

        controller = self._controller()
        # Fire on every attempt: incremental and from-scratch fallback.
        plan = FaultPlan(seed=6).arm(
            "admission.solve", "numerical-error", nth=1, times=99
        )
        with obs.capture() as captured, armed(plan):
            decision = controller.admit(
                "audio", chain_configuration(stages=2, period=20.0)
            )
        assert not decision.admitted
        assert decision.stage == STAGE_ERROR
        assert controller.running == ["video"]
        assert captured.metrics["reliability.fallbacks"]["value"] >= 1
        assert captured.metrics["reliability.faults.injected"]["value"] >= 2
        # The controller survives the chaos window and keeps admitting.
        assert controller.admit(
            "audio", chain_configuration(stages=2, period=20.0)
        ).admitted

    def test_linalg_fault_degrades_to_the_dense_newton_step(self):
        """An injected factorisation failure in the direct solve (a single
        configuration) is absorbed by its least-squares step: the site fires,
        the step is counted (solve stat and registry counter) and the solve
        still lands on the optimum."""
        video = chain_configuration(stages=2)
        baseline = JointAllocator(options=options()).allocate(video)
        assert baseline.solver_info["solve_stats"]["lstsq_steps"] == 0
        plan = FaultPlan(seed=7).arm("newton.linalg", "linalg-error", nth=1)
        with obs.capture() as captured, armed(plan):
            perturbed = JointAllocator(options=options()).allocate(video)
        assert plan.fired("newton.linalg") == 1
        assert perturbed.solver_info["solve_stats"]["lstsq_steps"] > 0
        assert captured.metrics["solver.lstsq_steps"]["value"] > 0
        assert perturbed.objective_value == pytest.approx(
            baseline.objective_value, abs=1e-6
        )

    def test_linalg_fault_in_block_factorisation_uses_the_dense_twin(self):
        """An injected block-factorisation failure in the structured kernel
        (two applications) hands that iteration to the dense step: the
        fallback is counted and the optimum does not move."""
        workload = Workload(chain_configuration(stages=2).platform, name="duo")
        workload.add_application("video", chain_configuration(stages=2))
        workload.add_application(
            "audio", chain_configuration(stages=2, period=20.0)
        )
        baseline = JointAllocator(options=options()).allocate_workload(workload)
        plan = FaultPlan(seed=7).arm("newton.linalg", "linalg-error", nth=1)
        with armed(plan):
            perturbed = JointAllocator(options=options()).allocate_workload(
                workload
            )
        assert plan.fired("newton.linalg") == 1
        stats = perturbed.solver_info["solve_stats"]
        assert stats["structured"] is True
        assert stats["structured_fallback_iterations"] >= 1
        assert stats["lstsq_steps"] == 0
        assert perturbed.objective_value == pytest.approx(
            baseline.objective_value, abs=1e-6
        )

    def test_lstsq_step_inside_the_dense_twin_is_counted(self):
        """Two consecutive injected failures: the block factorisation hands
        the iteration to the dense step on the assembled system, whose
        Cholesky then fails too — its least-squares step counts in
        ``lstsq_steps``."""
        workload = Workload(chain_configuration(stages=2).platform, name="duo")
        workload.add_application("video", chain_configuration(stages=2))
        workload.add_application(
            "audio", chain_configuration(stages=2, period=20.0)
        )
        baseline = JointAllocator(options=options()).allocate_workload(workload)
        plan = FaultPlan(seed=7).arm("newton.linalg", "linalg-error", nth=1, times=2)
        with armed(plan):
            perturbed = JointAllocator(options=options()).allocate_workload(
                workload
            )
        assert plan.fired("newton.linalg") == 2
        stats = perturbed.solver_info["solve_stats"]
        assert stats["structured_fallback_iterations"] == 1
        assert stats["lstsq_steps"] == 1
        assert perturbed.objective_value == pytest.approx(
            baseline.objective_value, abs=1e-6
        )

    def test_cache_corruption_costs_one_resolve_not_a_crash(self, tmp_path):
        from repro.batch.cache import ResultCache

        cache = ResultCache(tmp_path / "cache")
        plan = FaultPlan(seed=8).arm("cache.corrupt", "corrupt", nth=1)
        with armed(plan):
            cache.put("a" * 64, {"status": "ok"})
        assert plan.fired("cache.corrupt") == 1
        # The corrupted entry reads as a miss and is evicted.
        assert cache.get("a" * 64) is None
        assert cache.stats()["evictions"] == 1
        cache.put("a" * 64, {"status": "ok"})
        assert cache.get("a" * 64) == {"status": "ok"}

    def test_journal_write_failure_is_a_journal_error(self, tmp_path):
        from repro.core import random_trace

        trace = random_trace(event_count=3, seed=7, task_count=3, processor_count=3)
        plan = FaultPlan(seed=9).arm("journal.write", "oserror", nth=2)
        with armed(plan):
            with pytest.raises(JournalError, match="journal append"):
                replay_trace_durably(
                    trace,
                    tmp_path / "run.journal",
                    allocator=JointAllocator(options=options()),
                )
