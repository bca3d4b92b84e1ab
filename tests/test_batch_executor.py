"""Tests of the parallel batch allocation engine.

The determinism guarantees asserted here are the contract of the batch
layer: a campaign produces identical deterministic results with one worker
and with N workers, and a warm cache reproduces a cold run exactly.
"""

from __future__ import annotations

import json

import pytest

from repro.batch import (
    BatchExecutor,
    CampaignItem,
    CampaignSpec,
    ExecutorConfig,
    ResultCache,
    aggregate_results,
    run_campaign,
)
from repro.batch.executor import (
    STATUS_ERROR,
    STATUS_INFEASIBLE,
    STATUS_OK,
    ItemResult,
    _solve_payload,
    resolve_weights,
)
from repro.batch.cache import cache_key
from repro.core import AllocatorOptions, JointAllocator
from repro.taskgraph import serialization
from repro.taskgraph.generators import (
    chain_configuration,
    producer_consumer_configuration,
)


@pytest.fixture
def small_spec():
    return CampaignSpec.from_dict(
        {
            "name": "small",
            "seed": 9,
            "entries": [
                {"generator": "chain", "sweep": {"stages": [2, 3]}},
                {
                    "generator": "random_dag",
                    "params": {
                        "task_count": 6,
                        "processor_count": 6,
                        "max_capacity": 8,
                    },
                    "count": 2,
                },
            ],
        }
    )


class TestSerialExecution:
    def test_matches_direct_allocator(self):
        configuration = producer_consumer_configuration(max_capacity=5)
        items = [CampaignItem(label="pc", configuration=configuration)]
        results = BatchExecutor().run(items)
        assert len(results) == 1
        result = results[0]
        assert result.status == STATUS_OK
        direct = JointAllocator(
            options=AllocatorOptions(run_simulation=False)
        ).allocate(configuration)
        assert result.budgets == direct.budgets
        assert result.buffer_capacities == direct.buffer_capacities

    def test_infeasible_item_is_reported_not_raised(self):
        feasible = producer_consumer_configuration(max_capacity=5)
        infeasible = producer_consumer_configuration(period=2.0, max_capacity=1)
        items = [
            CampaignItem(label="ok", configuration=feasible),
            CampaignItem(label="bad", configuration=infeasible),
        ]
        results = BatchExecutor().run(items)
        assert [result.status for result in results] == [STATUS_OK, STATUS_INFEASIBLE]
        assert results[1].error

    def test_capacity_limits_are_applied(self):
        configuration = producer_consumer_configuration()
        items = [
            CampaignItem(
                label="cap3",
                configuration=configuration,
                capacity_limits={"bab": 3},
            )
        ]
        result = BatchExecutor().run(items)[0]
        assert result.status == STATUS_OK
        assert result.buffer_capacities["bab"] <= 3

    def test_progress_callback_streams_results(self, small_spec):
        seen = []
        BatchExecutor().run(
            small_spec.expand(), progress=lambda index, result: seen.append(index)
        )
        assert sorted(seen) == [0, 1, 2, 3]


class TestFallbackAndErrors:
    def test_exhausted_fallbacks_become_an_error_result(self):
        configuration = producer_consumer_configuration(max_capacity=5)
        payload = {
            "label": "pc",
            "key": "k",
            "configuration": serialization.configuration_to_dict(configuration),
            "capacity_limits": None,
            "options": {
                "backend": "bogus-backend",
                "weights": "prefer-budgets",
                "verify": True,
                "run_simulation": False,
            },
        }
        result = _solve_payload(payload)
        assert result["status"] == STATUS_ERROR
        assert "bogus-backend" in result["error"]

    def test_failing_item_result_does_not_depend_on_process_history(self):
        """The same failing payload solved inline, again and again, gets the
        same error every time: no state carries over between items."""
        configuration = producer_consumer_configuration(max_capacity=5)
        payload = {
            "label": "pc",
            "key": "k",
            "configuration": serialization.configuration_to_dict(configuration),
            "capacity_limits": None,
            "options": {
                "backend": "bogus",
                "weights": "prefer-budgets",
                "verify": True,
                "run_simulation": False,
            },
        }
        for _ in range(4):
            result = _solve_payload(payload)
            assert result["status"] == STATUS_ERROR
            assert result["error"].startswith("bogus: unknown backend")

    def test_unknown_weights_preset_is_an_item_error(self):
        configuration = producer_consumer_configuration(max_capacity=5)
        payload = {
            "label": "pc",
            "key": "k",
            "configuration": serialization.configuration_to_dict(configuration),
            "capacity_limits": None,
            "options": {
                "backend": "auto",
                "weights": "nonsense",
                "verify": True,
                "run_simulation": False,
            },
        }
        result = _solve_payload(payload)
        assert result["status"] == STATUS_ERROR
        assert "nonsense" in result["error"]

    def test_resolve_weights_rejects_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown objective preset"):
            resolve_weights("nope")

    def test_non_finite_item_payload_is_an_item_error_not_a_campaign_abort(self):
        # A non-finite float reaching the cache-key computation (e.g. a
        # 1e999 literal in hand-written campaign JSON) must fail that one
        # item, not the whole run.
        items = [
            CampaignItem(
                label="bad",
                configuration=producer_consumer_configuration(max_capacity=5),
                capacity_limits={"bab": float("inf")},
            ),
            CampaignItem(
                label="good",
                configuration=producer_consumer_configuration(max_capacity=5),
            ),
        ]
        results = BatchExecutor().run(items)
        assert [result.status for result in results] == [STATUS_ERROR, STATUS_OK]
        assert "non-finite" in results[0].error

    def test_errors_are_never_cached(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        executor = BatchExecutor(
            config=ExecutorConfig(backend="bogus"),
            cache=cache,
        )
        items = [
            CampaignItem(
                label="pc",
                configuration=producer_consumer_configuration(max_capacity=5),
            )
        ]
        results = executor.run(items)
        assert results[0].status == STATUS_ERROR
        assert len(cache) == 0


class TestDeterminismAndCache:
    def test_parallel_matches_serial_byte_for_byte(self, small_spec):
        """The same campaign must agree between 1 worker and N workers."""
        items = small_spec.expand()
        serial = BatchExecutor(config=ExecutorConfig(workers=1)).run(items)
        parallel = BatchExecutor(
            config=ExecutorConfig(workers=2, chunk_size=1)
        ).run(items)
        serial_json = json.dumps(
            [result.deterministic_dict() for result in serial], sort_keys=True
        )
        parallel_json = json.dumps(
            [result.deterministic_dict() for result in parallel], sort_keys=True
        )
        assert serial_json == parallel_json
        serial_summary = aggregate_results("small", serial).deterministic_dict()
        parallel_summary = aggregate_results("small", parallel).deterministic_dict()
        assert json.dumps(serial_summary, sort_keys=True) == json.dumps(
            parallel_summary, sort_keys=True
        )

    def test_warm_cache_reproduces_cold_run(self, small_spec, tmp_path):
        """A warm cache must return identical results while solving nothing."""
        cold_results, cold_summary = run_campaign(
            small_spec, cache_dir=tmp_path / "cache"
        )
        warm_results, warm_summary = run_campaign(
            small_spec, cache_dir=tmp_path / "cache"
        )
        assert warm_summary.cache_hits == len(cold_results)
        assert warm_summary.solved == 0
        assert all(result.from_cache for result in warm_results)
        # bit-for-bit identical payloads (including solver timings, which the
        # cache preserves from the cold run)
        assert [result.to_dict() for result in warm_results] == [
            result.to_dict() for result in cold_results
        ]
        assert json.dumps(
            cold_summary.deterministic_dict(), sort_keys=True
        ) == json.dumps(warm_summary.deterministic_dict(), sort_keys=True)

    def test_cache_payload_matches_result(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        executor = BatchExecutor(cache=cache)
        items = [
            CampaignItem(
                label="pc",
                configuration=producer_consumer_configuration(max_capacity=5),
            )
        ]
        result = executor.run(items)[0]
        key = cache_key(
            items[0].configuration_dict(), executor.config.result_options(), None
        )
        assert result.key == key
        assert cache.get(key) == result.to_dict()

    def test_duplicate_keys_solved_once_per_run(self, monkeypatch):
        """Overlapping entries with identical configurations solve once."""
        import repro.batch.executor as executor_module

        calls = []
        original = executor_module._solve_payload

        def counting_solve(payload):
            calls.append(payload["key"])
            return original(payload)

        monkeypatch.setattr(executor_module, "_solve_payload", counting_solve)
        configuration = chain_configuration(stages=3)
        items = [
            CampaignItem(label="first", configuration=configuration),
            CampaignItem(label="second", configuration=configuration),
        ]
        results = BatchExecutor().run(items)
        assert len(calls) == 1
        assert [result.label for result in results] == ["first", "second"]
        assert results[0].budgets == results[1].budgets

    def test_cache_hit_carries_current_label_not_stored_label(self, tmp_path):
        """A cache entry written under one campaign's label must not leak
        into another campaign's reports."""
        configuration = producer_consumer_configuration(max_capacity=5)
        cache = ResultCache(tmp_path / "cache")
        BatchExecutor(cache=cache).run(
            [CampaignItem(label="campaign-a/0", configuration=configuration)]
        )
        warm = BatchExecutor(cache=cache).run(
            [CampaignItem(label="campaign-b/7", configuration=configuration)]
        )
        assert warm[0].from_cache is True
        assert warm[0].label == "campaign-b/7"

    def test_inline_timeout_warns_that_it_is_not_enforced(self, small_spec):
        with pytest.warns(RuntimeWarning, match="not enforced in inline mode"):
            BatchExecutor(config=ExecutorConfig(workers=1, timeout=5.0)).run(
                small_spec.expand()
            )

    def test_no_cache_always_solves(self, small_spec):
        first, summary1 = run_campaign(small_spec, use_cache=False)
        second, summary2 = run_campaign(small_spec, use_cache=False)
        assert summary1.cache_hits == 0 and summary2.cache_hits == 0
        assert [result.deterministic_dict() for result in first] == [
            result.deterministic_dict() for result in second
        ]

    def test_cache_keys_are_pinned(self):
        # Literal digests of one configuration item, one workload item and
        # one sweep family: a key that moves silently drops every cached
        # result of that shape.
        from repro.taskgraph import Workload

        video = chain_configuration(stages=2)
        workload = Workload(video.platform, name="duo")
        workload.add_application("video", video)
        workload.add_application("audio", chain_configuration(stages=2, period=20.0))
        executor = BatchExecutor()
        configuration_item, workload_item = executor.run(
            [
                CampaignItem(
                    label="configuration",
                    configuration=producer_consumer_configuration(),
                    capacity_limits={"bab": 4},
                ),
                CampaignItem(
                    label="workload",
                    workload=workload,
                    workload_capacity_limits={"video": {"bab": 3}},
                ),
            ]
        )
        sweep = executor.run_sweep(producer_consumer_configuration(), [2, 3, 4])
        assert configuration_item.status == workload_item.status == STATUS_OK
        assert sweep.status == STATUS_OK
        assert configuration_item.key == (
            "9f74ffe50958a9b256cffd257199ea0ed5e27fa61d7b0cc99104133a614cffa2"
        )
        assert workload_item.key == (
            "ec5b0b893239971b16638d6f691650d0842b5f5c269932d5dd084424b69332d6"
        )
        assert sweep.key == (
            "478e3bf29758d8eb37e0731d74dccffb1bf26b9c47b8f63ccf9b00c9054c6f2f"
        )


def _sleepy_solve_payload(payload):
    """Worker function of the timeout regression test (module level so it
    pickles across the process pool).  Items labelled ``stuck`` sleep far
    beyond the configured per-item timeout; everything else solves normally."""
    import time as _time

    if payload["label"] == "stuck":
        _time.sleep(60.0)
    return _solve_payload(payload)


class TestTimeoutPoolRecovery:
    def test_stuck_worker_is_replaced_and_does_not_block_the_run(self, monkeypatch):
        """After an un-cancellable per-item timeout the stuck worker used to
        keep occupying a pool slot (and ``shutdown(wait=True)`` blocked on it
        for the payload's full duration); the pool must be recreated instead,
        so later windows run at full parallelism and the run ends promptly."""
        import multiprocessing
        import time

        if multiprocessing.get_start_method() != "fork":
            pytest.skip("the slow-payload monkeypatch needs fork inheritance")
        import repro.batch.executor as executor_module

        monkeypatch.setattr(executor_module, "_solve_payload", _sleepy_solve_payload)
        items = [
            CampaignItem(label="stuck", configuration=chain_configuration(stages=2)),
            CampaignItem(label="a", configuration=chain_configuration(stages=3)),
            CampaignItem(label="b", configuration=chain_configuration(stages=4)),
            CampaignItem(label="c", configuration=chain_configuration(stages=5)),
        ]
        executor = BatchExecutor(
            config=ExecutorConfig(workers=2, chunk_size=1, timeout=1.0)
        )
        start = time.perf_counter()
        with pytest.warns(RuntimeWarning, match="recreating the process pool"):
            results = executor.run(items)
        elapsed = time.perf_counter() - start

        assert [result.label for result in results] == ["stuck", "a", "b", "c"]
        assert results[0].status == "timeout"
        assert all(result.status == STATUS_OK for result in results[1:])
        # The 60 s payload must neither serialise the later windows nor block
        # the pool shutdown; a generous bound still catches both regressions.
        assert elapsed < 30.0, f"run took {elapsed:.1f} s behind a stuck worker"


class TestChaos:
    """Seeded fault plans against the executor: structured outcomes only."""

    def _items(self):
        return [
            CampaignItem(label="boom", configuration=chain_configuration(stages=2)),
            CampaignItem(label="a", configuration=chain_configuration(stages=3)),
            CampaignItem(label="b", configuration=chain_configuration(stages=4)),
        ]

    def test_injected_worker_crash_is_contained(self):
        """A payload that kills its worker (twice — the plan is re-armed per
        attempt) becomes one error item; the pool is recreated and every
        other item still solves."""
        import multiprocessing

        if multiprocessing.get_start_method() != "fork":
            pytest.skip("worker-crash injection relies on fork workers")
        from repro.reliability import FaultPlan

        plan = FaultPlan(seed=1).arm("executor.worker", "exit", match="boom")
        executor = BatchExecutor(
            config=ExecutorConfig(
                workers=2, chunk_size=1, fault_plan=plan.to_dict()
            )
        )
        try:
            with pytest.warns(RuntimeWarning, match="recreating the process pool"):
                results = executor.run(self._items())
        finally:
            executor.close()
        assert [result.label for result in results] == ["boom", "a", "b"]
        assert results[0].status == STATUS_ERROR
        assert "died while solving this item (twice)" in results[0].error
        assert all(result.status == STATUS_OK for result in results[1:])
        assert executor.metrics.counter("batch.worker_crashes").value >= 2

    @pytest.mark.parametrize("action", ["oserror", "linalg-error", "raise"])
    def test_any_raising_action_at_a_chaos_site_is_an_item_error(self, action):
        """Every raising action the framework supports — not just the two
        solver-shaped ones — must fail the one item, never the campaign."""
        from repro.reliability import FaultPlan

        plan = FaultPlan(seed=7).arm("executor.worker", action, match="boom")
        results = BatchExecutor(
            config=ExecutorConfig(workers=1, fault_plan=plan.to_dict())
        ).run(self._items())
        assert [result.status for result in results] == [
            STATUS_ERROR,
            STATUS_OK,
            STATUS_OK,
        ]
        assert results[0].error

    def test_raising_action_in_pool_mode_does_not_abort_the_campaign(self):
        """An armed oserror in a pool worker propagates as a per-item error
        result, not an exception out of run()."""
        import multiprocessing

        if multiprocessing.get_start_method() != "fork":
            pytest.skip("fault-plan transport test relies on fork workers")
        from repro.reliability import FaultPlan

        plan = FaultPlan(seed=8).arm("executor.worker", "oserror", match="boom")
        executor = BatchExecutor(
            config=ExecutorConfig(
                workers=2, chunk_size=1, fault_plan=plan.to_dict()
            )
        )
        try:
            results = executor.run(self._items())
        finally:
            executor.close()
        assert [result.status for result in results] == [
            STATUS_ERROR,
            STATUS_OK,
            STATUS_OK,
        ]
        assert "OSError" in results[0].error

    def test_injected_inline_fault_is_an_item_error(self):
        """In inline mode a raising fault at the worker site is a terminal
        item error, never a campaign abort."""
        from repro.reliability import FaultPlan

        plan = FaultPlan(seed=2).arm(
            "executor.worker", "numerical-error", match="boom"
        )
        results = BatchExecutor(
            config=ExecutorConfig(workers=1, fault_plan=plan.to_dict())
        ).run(self._items())
        assert [result.status for result in results] == [
            STATUS_ERROR,
            STATUS_OK,
            STATUS_OK,
        ]
        assert "NumericalError" in results[0].error

    def test_injected_faults_are_never_cached(self, tmp_path):
        from repro.reliability import FaultPlan

        cache = ResultCache(tmp_path / "cache")
        plan = FaultPlan(seed=3).arm(
            "executor.worker", "numerical-error", match="boom"
        )
        BatchExecutor(
            config=ExecutorConfig(workers=1, fault_plan=plan.to_dict()),
            cache=cache,
        ).run(self._items())
        # Only the two healthy items were stored; a rerun without the plan
        # re-solves the faulted item and gets a clean result.
        assert len(cache) == 2
        results = BatchExecutor(
            config=ExecutorConfig(workers=1), cache=cache
        ).run(self._items())
        assert all(result.status == STATUS_OK for result in results)

    def test_interrupt_mid_run_drains_the_pool(self):
        """A KeyboardInterrupt between yielded results must shut the pool
        down (no orphaned workers) and propagate."""
        import multiprocessing

        if multiprocessing.get_start_method() != "fork":
            pytest.skip("pool-teardown check relies on fork workers")
        executor = BatchExecutor(config=ExecutorConfig(workers=2, chunk_size=1))
        iterator = executor.run_iter(self._items())
        next(iterator)
        pool = executor._pool
        assert pool is not None
        with pytest.raises(KeyboardInterrupt):
            iterator.throw(KeyboardInterrupt)
        assert executor._pool is None
        executor.close()


class TestItemResult:
    def test_round_trip(self):
        result = ItemResult(
            label="x",
            key="k",
            status=STATUS_OK,
            budgets={"wa": 18.0},
            buffer_capacities={"bab": 4},
            relaxed_budgets={"wa": 17.5},
            relaxed_capacities={"bab": 3.4},
            objective_value=17.5,
            backend_used="barrier",
            solve_seconds=0.01,
        )
        clone = ItemResult.from_dict(result.to_dict(), from_cache=True)
        assert clone.from_cache is True
        assert clone.to_dict() == result.to_dict()
        assert clone.total_budget == pytest.approx(18.0)
        assert clone.total_capacity == 4

    def test_row_shape(self):
        result = ItemResult(label="x", key="k", status=STATUS_INFEASIBLE)
        row = result.row()
        assert row["status"] == STATUS_INFEASIBLE
        assert row["total_budget"] is None

    def test_run_returns_results_in_campaign_order(self):
        configurations = [
            chain_configuration(stages=stages) for stages in (4, 2, 3)
        ]
        items = [
            CampaignItem(label=f"chain{index}", configuration=configuration)
            for index, configuration in enumerate(configurations)
        ]
        results = BatchExecutor(
            config=ExecutorConfig(workers=2, chunk_size=1)
        ).run(items)
        assert [result.label for result in results] == ["chain0", "chain1", "chain2"]
