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
    CircuitBreaker,
    FaultPlan,
    RetryPolicy,
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


class TestRetryPolicy:
    def test_retries_then_succeeds(self):
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise NumericalError("transient")
            return "done"

        assert RetryPolicy(attempts=3).run(flaky, retryable=(NumericalError,)) == "done"
        assert calls["n"] == 3

    def test_exhaustion_reraises_the_last_error(self):
        with pytest.raises(NumericalError, match="always"):
            RetryPolicy(attempts=2).run(
                lambda: (_ for _ in ()).throw(NumericalError("always")),
                retryable=(NumericalError,),
            )

    def test_non_retryable_propagates_immediately(self):
        calls = {"n": 0}

        def definite():
            calls["n"] += 1
            raise ValueError("definite answer")

        with pytest.raises(ValueError):
            RetryPolicy(attempts=5).run(definite, retryable=(NumericalError,))
        assert calls["n"] == 1

    def test_on_retry_counts_every_retry(self):
        seen = []
        with pytest.raises(NumericalError):
            RetryPolicy(attempts=3).run(
                lambda: (_ for _ in ()).throw(NumericalError("x")),
                retryable=(NumericalError,),
                on_retry=lambda attempt, error: seen.append(attempt),
            )
        assert seen == [1, 2]

    def test_delays_follow_the_backoff_factor(self):
        policy = RetryPolicy(attempts=4, backoff=0.1, backoff_factor=2.0)
        assert list(policy.delays()) == pytest.approx([0.1, 0.2, 0.4])

    def test_at_least_one_attempt_is_required(self):
        with pytest.raises(ValueError):
            RetryPolicy(attempts=0)


class TestCircuitBreaker:
    def test_opens_after_threshold_and_half_opens_after_reset(self):
        now = {"t": 0.0}
        breaker = CircuitBreaker(
            failure_threshold=2, reset_after=10.0, clock=lambda: now["t"]
        )
        assert breaker.allow("barrier")
        breaker.record_failure("barrier")
        assert breaker.allow("barrier")
        breaker.record_failure("barrier")
        assert not breaker.allow("barrier")
        assert breaker.is_open("barrier")
        now["t"] = 11.0
        # Half-open: one probe is allowed; its failure re-opens the circuit.
        assert breaker.allow("barrier")
        breaker.record_failure("barrier")
        assert not breaker.allow("barrier")

    def test_success_closes_the_circuit(self):
        breaker = CircuitBreaker(failure_threshold=1, reset_after=1000.0)
        breaker.record_failure("scipy")
        assert not breaker.allow("scipy")
        breaker.record_success("scipy")
        assert breaker.allow("scipy")

    def test_keys_are_independent(self):
        breaker = CircuitBreaker(failure_threshold=1, reset_after=1000.0)
        breaker.record_failure("barrier")
        assert not breaker.allow("barrier")
        assert breaker.allow("scipy")

    def test_is_open_is_a_pure_query(self):
        """Status checks must not consume the half-open probe."""
        now = {"t": 0.0}
        breaker = CircuitBreaker(
            failure_threshold=2, reset_after=10.0, clock=lambda: now["t"]
        )
        breaker.record_failure("barrier")
        breaker.record_failure("barrier")
        assert breaker.is_open("barrier")
        now["t"] = 11.0
        # Half-open: any number of status checks leave the probe available.
        for _ in range(5):
            assert not breaker.is_open("barrier")
        assert breaker.allow("barrier")
        breaker.record_failure("barrier")
        assert breaker.is_open("barrier")
        assert not breaker.allow("barrier")


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
        assert captured.metrics["reliability.retries"]["value"] >= 1

    def test_persistent_solver_fault_ends_in_an_error_verdict(self):
        from repro.core.admission import STAGE_ERROR

        controller = self._controller()
        # Fire on every attempt: incremental, retry, and from-scratch fallback.
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
        """An injected factorisation failure in the dense kernel (a single
        configuration) is absorbed by its least-squares step: the site fires
        and the solve still lands on the optimum."""
        video = chain_configuration(stages=2)
        baseline = JointAllocator(options=options()).allocate(video)
        plan = FaultPlan(seed=7).arm("newton.linalg", "linalg-error", nth=1)
        with armed(plan):
            perturbed = JointAllocator(options=options()).allocate(video)
        assert plan.fired("newton.linalg") == 1
        assert perturbed.objective_value == pytest.approx(
            baseline.objective_value, abs=1e-6
        )

    def test_linalg_fault_in_block_factorisation_uses_the_dense_twin(self):
        """An injected block-factorisation failure in the structured kernel
        (two applications) hands that iteration to the dense twin: the
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
