"""Parallel batch allocation engine.

:class:`BatchExecutor` turns the single-shot :class:`~repro.core.allocator.
JointAllocator` into a high-throughput batch service: campaign items are
checked against the persistent :mod:`result cache <repro.batch.cache>`,
cache misses are fanned out over a :class:`concurrent.futures.
ProcessPoolExecutor` (workers and submission window configurable), each item
is bounded by an optional per-item timeout, every item is solved exactly once
with the configured backend (choosing between methods is the ``auto``
backend's job), and structured :class:`ItemResult` records stream back as
they complete.

Determinism guarantees:

* every item is solved independently with a deterministic solver, so the same
  campaign produces identical per-item results with one worker and with
  ``N`` workers — only wall-clock fields (``solve_seconds``) differ;
* :meth:`BatchExecutor.run` returns results in campaign order regardless of
  completion order, so downstream aggregation is order-stable;
* cached payloads round-trip through JSON exactly, so a warm run reproduces a
  cold run bit-for-bit (modulo the ``from_cache`` flag).
"""

from __future__ import annotations

import warnings
from concurrent.futures import ProcessPoolExecutor, TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro import obs
from repro.core.allocator import AllocatorOptions, JointAllocator
from repro.core.objective import resolve_weights
from repro.exceptions import InfeasibleProblemError
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import span as obs_span
from repro.batch.cache import NullCache, ResultCache, cache_key
from repro.batch.campaign import CampaignItem
from repro.reliability.faults import FaultPlan, armed, maybe_fail
from repro.taskgraph import serialization

#: Item statuses (terminal, mutually exclusive).
STATUS_OK = "ok"
STATUS_INFEASIBLE = "infeasible"
STATUS_ERROR = "error"
STATUS_TIMEOUT = "timeout"


@dataclass
class ExecutorConfig:
    """Operational knobs of the batch engine.

    Only ``backend``, ``weights``, ``verify`` and ``run_simulation``
    influence the computed results (and therefore the cache key);
    ``workers``, ``chunk_size`` and ``timeout`` are pure throughput knobs.
    ``backend`` is used as given: ``"barrier"`` means the barrier solver
    only, and ``"auto"`` (the default) is the one that falls back to scipy.
    """

    workers: int = 1                   #: processes; 1 solves inline (no pool)
    backend: str = "auto"              #: primary solver backend per item
    weights: str = "prefer-budgets"    #: objective preset name
    verify: bool = True                #: run analytical verification per item
    run_simulation: bool = False       #: include self-timed simulation (slow)
    #: Per-item wait bound in seconds, pool mode only.  This bounds how long
    #: the collector waits for an item once it is that item's turn — a bound
    #: on *stuck workers*, not an exact execution limit: items that finished
    #: before their turn are never timed out retroactively, and items that
    #: never started are solved inline instead of being reported as timeouts.
    timeout: Optional[float] = None
    chunk_size: int = 16               #: submission window is workers * chunk_size
    #: Capture per-item span trees and metrics inside the workers and ship
    #: them back on each :class:`ItemResult`.  A pure observability knob:
    #: telemetry stays out of :meth:`result_options` (and thus out of cache
    #: keys), out of cached payloads and out of deterministic output.
    telemetry: bool = False
    #: A serialised :class:`repro.reliability.faults.FaultPlan`
    #: (``FaultPlan.to_dict()``) armed inside every worker for the duration
    #: of each item — the chaos-testing transport.  Arming is per item, so
    #: ``nth``/``times`` triggers count an item's own calls regardless of
    #: which worker process it lands on.  Operational only: fault plans stay
    #: out of :meth:`result_options` and therefore out of cache keys.
    fault_plan: Optional[Dict[str, object]] = None

    def result_options(self) -> Dict[str, object]:
        """The result-relevant subset, canonical for cache keying."""
        return {
            "backend": self.backend,
            "weights": self.weights,
            "verify": self.verify,
            "run_simulation": self.run_simulation,
        }


@dataclass
class ItemResult:
    """The structured outcome of one campaign item."""

    label: str
    key: str
    status: str
    budgets: Dict[str, float] = field(default_factory=dict)
    buffer_capacities: Dict[str, int] = field(default_factory=dict)
    relaxed_budgets: Dict[str, float] = field(default_factory=dict)
    relaxed_capacities: Dict[str, float] = field(default_factory=dict)
    objective_value: Optional[float] = None
    backend_used: Optional[str] = None
    solve_seconds: float = 0.0
    error: Optional[str] = None
    from_cache: bool = False
    #: Deterministic solver statistics (phase-I skipped, Newton iterations,
    #: outer iterations) — everything needed by ``repro-map batch --stats``.
    stats: Dict[str, object] = field(default_factory=dict)
    #: Worker-captured telemetry (span trees + metrics snapshot, the
    #: :meth:`repro.obs.Capture.as_dict` payload) when the executor ran with
    #: ``telemetry=True``.  Transport-only: excluded from :meth:`to_dict`
    #: (so it is never cached) and from :meth:`deterministic_dict`.
    telemetry: Optional[Dict[str, object]] = None

    @property
    def feasible(self) -> bool:
        return self.status == STATUS_OK

    @property
    def total_budget(self) -> float:
        return sum(self.budgets.values())

    @property
    def total_capacity(self) -> int:
        return sum(self.buffer_capacities.values())

    def to_dict(self) -> Dict[str, object]:
        """The cached/streamed payload (``from_cache`` is a load-time flag)."""
        return {
            "label": self.label,
            "key": self.key,
            "status": self.status,
            "budgets": dict(self.budgets),
            "buffer_capacities": dict(self.buffer_capacities),
            "relaxed_budgets": dict(self.relaxed_budgets),
            "relaxed_capacities": dict(self.relaxed_capacities),
            "objective_value": self.objective_value,
            "backend_used": self.backend_used,
            "solve_seconds": self.solve_seconds,
            "error": self.error,
            "stats": dict(self.stats),
        }

    def deterministic_dict(self) -> Dict[str, object]:
        """The payload without wall-clock fields (for equivalence checks)."""
        data = self.to_dict()
        del data["solve_seconds"]
        # Telemetry (span trees, timing quantiles) is wall-clock through and
        # through; to_dict() already excludes it, but strip defensively so a
        # payload that carried it stays comparable across worker counts.
        data.pop("telemetry", None)
        data["stats"] = {
            key: value
            for key, value in dict(data["stats"]).items()
            # The barrier backend reports wall-clock per-phase timings
            # (*_time) alongside its deterministic counters; drop them all.
            if key != "solve_time" and not key.endswith("_time")
        }
        return data

    @classmethod
    def from_dict(
        cls, data: Dict[str, object], from_cache: bool = False
    ) -> "ItemResult":
        return cls(
            label=str(data["label"]),
            key=str(data["key"]),
            status=str(data["status"]),
            budgets={str(k): float(v) for k, v in dict(data.get("budgets", {})).items()},
            buffer_capacities={
                str(k): int(v) for k, v in dict(data.get("buffer_capacities", {})).items()
            },
            relaxed_budgets={
                str(k): float(v) for k, v in dict(data.get("relaxed_budgets", {})).items()
            },
            relaxed_capacities={
                str(k): float(v)
                for k, v in dict(data.get("relaxed_capacities", {})).items()
            },
            objective_value=(
                None if data.get("objective_value") is None else float(data["objective_value"])
            ),
            backend_used=(
                None if data.get("backend_used") is None else str(data["backend_used"])
            ),
            solve_seconds=float(data.get("solve_seconds", 0.0)),
            error=None if data.get("error") is None else str(data["error"]),
            from_cache=from_cache,
            stats=dict(data.get("stats", {})),
            telemetry=(
                dict(data["telemetry"]) if data.get("telemetry") else None
            ),
        )

    def row(self) -> Dict[str, object]:
        """One table row for :func:`repro.analysis.report.render_table`."""
        return {
            "item": self.label,
            "status": self.status,
            "total_budget": self.total_budget if self.feasible else None,
            "containers": self.total_capacity if self.feasible else None,
            "backend": self.backend_used,
            "cached": self.from_cache,
            "seconds": round(self.solve_seconds, 4),
        }


def _solve_payload(payload: Dict[str, object]) -> Dict[str, object]:
    """Solve one serialised item; runs inside a worker process.

    Must stay importable at module top level so it pickles across the
    process pool.  Never raises: every failure mode maps to a terminal
    status so a single bad item cannot abort a campaign.

    Every shape solves once with exactly the configured backend.  Four
    payload shapes are accepted:

    * a single item (``capacity_limits``) — solved through
      :meth:`JointAllocator.allocate`;
    * a *workload* item (``workload``) — a multi-application workload solved
      jointly through :meth:`JointAllocator.allocate_workload` (per-app
      budgets/capacities are reported flattened as
      ``"<application>/<name>"``);
    * a *sweep family* (``capacity_sweep``) — a whole capacity sweep over one
      configuration, solved through the session API
      (:meth:`~repro.core.tradeoff.TradeoffExplorer.sweep_capacity_limit`),
      each point at its own bound.  The result carries
      per-point payloads under ``"points"``
      plus the aggregate session statistics;
    * an *admission trace* (``trace``) — an arrival/departure event sequence
      replayed through one incremental admission session
      (:func:`repro.core.admission.replay_trace`); the per-event verdicts
      ride under ``stats["events"]`` and the final platform state fills the
      item fields.
    """
    plan = (
        None
        if payload.get("faults") is None
        else FaultPlan.from_dict(payload["faults"])
    )
    with obs_span("batch-item", label=str(payload["label"])) as item_span, armed(plan):
        label = str(payload["label"])
        injected: Optional[BaseException] = None
        try:
            # Chaos sites: ``executor.worker`` with an ``exit`` action kills
            # this worker process mid-item (→ BrokenProcessPool recovery in
            # run_iter); ``item.timeout`` with a ``sleep`` action stalls the
            # item past its per-item timeout.  Any raising action (injected
            # fault, numerical blow-up, linalg failure, OSError, …) becomes
            # a terminal item error, same as any other solver breakdown —
            # never a campaign abort.
            maybe_fail("executor.worker", label=label)
            maybe_fail("item.timeout", label=label)
        except Exception as error:  # noqa: BLE001 - see comment above
            injected = error
        if injected is not None:
            base = {
                "label": payload["label"],
                "key": payload["key"],
                "budgets": {},
                "buffer_capacities": {},
                "relaxed_budgets": {},
                "relaxed_capacities": {},
                "objective_value": None,
                "backend_used": None,
                "error": f"{type(injected).__name__}: {injected}",
                "stats": {},
                "status": STATUS_ERROR,
            }
        elif payload.get("telemetry"):
            with obs.capture() as captured:
                base = _solve_item(payload)
            base["telemetry"] = captured.as_dict()
        else:
            base = _solve_item(payload)
    # The one place per-item wall-clock is measured: every payload shape and
    # every failure mode below reports through this single span.
    base["solve_seconds"] = item_span.seconds
    return base


def _solve_item(payload: Dict[str, object]) -> Dict[str, object]:
    """Dispatch one payload to its solve branch (timing handled by the caller)."""
    options = payload["options"]
    base = {
        "label": payload["label"],
        "key": payload["key"],
        "budgets": {},
        "buffer_capacities": {},
        "relaxed_budgets": {},
        "relaxed_capacities": {},
        "objective_value": None,
        "backend_used": None,
        "error": None,
        "stats": {},
    }
    if payload.get("trace") is not None:
        return _solve_trace_payload(payload, base)
    is_workload = payload.get("workload") is not None
    try:
        if is_workload:
            from repro.taskgraph.workload import workload_from_dict

            subject = workload_from_dict(payload["workload"])
        else:
            subject = serialization.configuration_from_dict(payload["configuration"])
        allocator = _allocator(options)
    except Exception as error:  # noqa: BLE001 - malformed payloads become item errors
        base.update(status=STATUS_ERROR, error=str(error))
        return base

    if payload.get("capacity_sweep") is not None:
        from repro.core.tradeoff import TradeoffExplorer

        explorer = TradeoffExplorer(
            weights=allocator.weights, allocator_options=allocator.options
        )
        try:
            curve = explorer.sweep_capacity_limit(
                subject, [int(value) for value in payload["capacity_sweep"]]
            )
        except Exception as error:  # noqa: BLE001 - solver failures become family errors
            base.update(status=STATUS_ERROR, error=f"{options['backend']}: {error}")
            return base
        base.update(
            status=STATUS_OK,
            backend_used=options["backend"],
            stats=dict(curve.solver_stats),
        )
        base["points"] = [
            {
                "capacity_limit": point.capacity_limit,
                "feasible": point.feasible,
                "budgets": dict(point.budgets),
                "relaxed_budgets": dict(point.relaxed_budgets),
                "capacities": dict(point.capacities),
                "objective_value": point.objective_value,
                "stats": dict(point.solve_stats),
            }
            for point in curve.points
        ]
        return base

    allocate = allocator.allocate_workload if is_workload else allocator.allocate

    def solve() -> Dict[str, object]:
        # A workload's per-application results are flattened to
        # "<application>/<name>" keys, so ItemResult and the aggregation layer
        # read both shapes alike.
        mapped = allocate(subject, capacity_limits=payload.get("capacity_limits"))
        return {
            "budgets": mapped.flattened("budgets"),
            "buffer_capacities": mapped.flattened("buffer_capacities"),
            "relaxed_budgets": mapped.flattened("relaxed_budgets"),
            "relaxed_capacities": mapped.flattened("relaxed_capacities"),
            "objective_value": mapped.objective_value,
            "backend_used": str(mapped.solver_info.get("backend", options["backend"])),
            "stats": dict(mapped.solver_info.get("solve_stats", {})),
        }

    return _run_solve(base, options["backend"], solve)


def _allocator(options: Dict[str, object]) -> JointAllocator:
    """The allocator a payload's result-relevant options describe."""
    return JointAllocator(
        weights=resolve_weights(options["weights"]),
        options=AllocatorOptions(
            backend=options["backend"],
            verify=options["verify"],
            run_simulation=options["run_simulation"],
        ),
    )


def _run_solve(
    base: Dict[str, object],
    backend: str,
    solve: Callable[[], Dict[str, object]],
) -> Dict[str, object]:
    """Run ``solve()`` once and map its outcome to a terminal status.

    The single definition of the per-item outcome contract, shared by the
    single-configuration and workload payload shapes: infeasibility
    (including the validation screens' :class:`~repro.exceptions.
    InfeasibleModelError`) is a definite answer; any other failure is an
    item error naming the configured backend.  There is no retry and no
    backend chain: the solve is deterministic, so repeating it cannot change
    the outcome, and switching method is the ``auto`` backend's job.
    ``solve`` returns the result fields merged into ``base`` on success.
    """
    try:
        fields = solve()
    except InfeasibleProblemError as error:
        base.update(status=STATUS_INFEASIBLE, error=str(error), backend_used=backend)
    except Exception as error:  # noqa: BLE001 - solver failures become item errors
        base.update(status=STATUS_ERROR, error=f"{backend}: {error}")
    else:
        base.update(status=STATUS_OK, **fields)
    return base


def _solve_trace_payload(
    payload: Dict[str, object], base: Dict[str, object]
) -> Dict[str, object]:
    """Replay one serialised admission trace (run-time arrival/departure events).

    The whole trace is one unit of work and of caching: its incremental
    session is inherently sequential, so it runs inline in the worker.
    Per-event verdicts are reported
    under ``stats["events"]``; the item-level fields carry the *final*
    platform state (empty when the last application departed).
    """
    from repro.core.admission import replay_trace, trace_from_dict

    options = payload["options"]
    try:
        trace = trace_from_dict(payload["trace"])
        allocator = _allocator(options)
    except Exception as error:  # noqa: BLE001 - malformed payloads become item errors
        base.update(status=STATUS_ERROR, error=str(error))
        return base

    try:
        result = replay_trace(trace, allocator=allocator)
    except Exception as error:  # noqa: BLE001 - solver failures become item errors
        base.update(status=STATUS_ERROR, error=f"{options['backend']}: {error}")
        return base

    final = result.final_mapped
    base.update(
        status=STATUS_OK,
        backend_used=options["backend"],
        budgets=final.flattened("budgets") if final else {},
        buffer_capacities=final.flattened("buffer_capacities") if final else {},
        relaxed_budgets=final.flattened("relaxed_budgets") if final else {},
        relaxed_capacities=final.flattened("relaxed_capacities") if final else {},
        objective_value=None if final is None else final.objective_value,
        stats={
            **dict(result.solver_stats),
            "events": [record.as_dict() for record in result.records],
            "admitted": result.admitted,
            "rejected": result.rejected,
            "departed": result.departed,
        },
    )
    return base


@dataclass
class SweepResult:
    """The structured outcome of one capacity-sweep family.

    ``points`` holds one payload per swept capacity bound (in sweep order)
    with the same fields a :class:`~repro.core.tradeoff.TradeoffPoint`
    carries; ``solver_stats`` is the aggregate of the solve session that
    produced the family (compiles, phase-I skips, Newton iterations, …).
    """

    label: str
    key: str
    status: str
    points: List[Dict[str, object]] = field(default_factory=list)
    solver_stats: Dict[str, object] = field(default_factory=dict)
    backend_used: Optional[str] = None
    solve_seconds: float = 0.0
    error: Optional[str] = None
    from_cache: bool = False
    #: Captured telemetry of the family solve (see :attr:`ItemResult.telemetry`).
    telemetry: Optional[Dict[str, object]] = None

    @classmethod
    def from_dict(
        cls, data: Dict[str, object], label: str, key: str, from_cache: bool = False
    ) -> "SweepResult":
        return cls(
            label=label,
            key=key,
            status=str(data["status"]),
            points=[dict(point) for point in data.get("points", [])],
            solver_stats=dict(data.get("stats", {})),
            backend_used=(
                None if data.get("backend_used") is None else str(data["backend_used"])
            ),
            solve_seconds=float(data.get("solve_seconds", 0.0)),
            error=None if data.get("error") is None else str(data["error"]),
            from_cache=from_cache,
            telemetry=(
                dict(data["telemetry"]) if data.get("telemetry") else None
            ),
        )


class BatchExecutor:
    """Fan a campaign out over the cache and a process pool."""

    def __init__(
        self,
        config: Optional[ExecutorConfig] = None,
        cache: Optional[object] = None,
    ) -> None:
        self.config = config or ExecutorConfig()
        self.cache = cache if cache is not None else NullCache()
        #: Campaign-level aggregate: executor-side counters (cache hits,
        #: solved items, timeouts) plus — with ``telemetry=True`` — every
        #: worker's metric snapshot merged in.  Always enabled: it is local
        #: to this executor and costs nothing unless a campaign runs.
        self.metrics = MetricsRegistry(enabled=True)
        # The worker pool persists across run()/run_iter() calls: it is
        # created lazily on the first parallel run and reused until close(),
        # so back-to-back campaigns pay the process start-up cost once.
        self._pool: Optional[ProcessPoolExecutor] = None

    # -- public API -------------------------------------------------------------
    def close(self) -> None:
        """Shut down the persistent worker pool (if one was ever created).

        Idempotent; the executor stays usable — the next parallel run simply
        creates a fresh pool.
        """
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "BatchExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.config.workers)
        return self._pool
    def run(
        self,
        items: Sequence[CampaignItem],
        progress: Optional[Callable[[int, ItemResult], None]] = None,
    ) -> List[ItemResult]:
        """Solve every item and return results in campaign order."""
        results: List[Optional[ItemResult]] = [None] * len(items)
        for index, result in self.run_iter(items):
            results[index] = result
            if progress is not None:
                progress(index, result)
        return [result for result in results if result is not None]

    def run_iter(
        self, items: Sequence[CampaignItem]
    ) -> Iterator[Tuple[int, ItemResult]]:
        """Stream ``(campaign_index, result)`` pairs as items finish.

        Cache hits are yielded first (they cost microseconds); misses follow
        in submission order as the pool completes them.  Items with identical
        cache keys (overlapping entries) are solved once per run, and every
        result carries the *current* item's label — never a label stored by
        an earlier campaign that happened to populate the cache.
        """
        options = self.config.result_options()
        pending: List[Tuple[str, Dict[str, object]]] = []
        waiters: Dict[str, List[Tuple[int, str]]] = {}
        for index, item in enumerate(items):
            configuration_dict = item.configuration_dict()
            try:
                key = cache_key(configuration_dict, options, item.limits())
            except ValueError as error:
                # Non-finite floats in the item's payload have no canonical
                # JSON form (and no meaningful cache identity).  Like every
                # other malformed payload, this is a per-item error, never a
                # campaign abort.
                yield index, ItemResult(
                    label=item.label,
                    key="",
                    status=STATUS_ERROR,
                    error=str(error),
                )
                continue
            if key in waiters:
                waiters[key].append((index, item.label))
                continue
            cached = self.cache.get(key)
            if cached is not None:
                self.metrics.counter("batch.cache_hits").inc()
                yield index, self._load(cached, item.label, key, from_cache=True)
                continue
            waiters[key] = [(index, item.label)]
            payload: Dict[str, object] = {
                "label": item.label,
                "key": key,
                "capacity_limits": item.limits(),
                "options": options,
            }
            if self.config.telemetry:
                payload["telemetry"] = True
            if self.config.fault_plan is not None:
                payload["faults"] = self.config.fault_plan
            if item.trace is not None:
                payload["trace"] = configuration_dict
            elif item.workload is not None:
                payload["workload"] = configuration_dict
            else:
                payload["configuration"] = configuration_dict
            pending.append((key, payload))

        if self.config.workers <= 1 or len(pending) <= 1:
            if self.config.timeout is not None and pending:
                warnings.warn(
                    "the per-item timeout is not enforced in inline mode "
                    "(workers <= 1, or nothing left to parallelise); "
                    "use workers >= 2 to bound per-item time",
                    RuntimeWarning,
                )
            for key, payload in pending:
                result_dict = self._absorb(self._store(_solve_payload(payload)))
                for index, label in waiters[key]:
                    yield index, self._load(result_dict, label, key)
            return

        window = max(1, self.config.chunk_size) * self.config.workers
        pool = self._ensure_pool()
        pool_stuck = False
        try:
            for start in range(0, len(pending), window):
                batch = pending[start : start + window]
                futures = [
                    (key, payload, pool.submit(_solve_payload, payload))
                    for key, payload in batch
                ]
                for key, payload, future in futures:
                    try:
                        result_dict = future.result(timeout=self.config.timeout)
                    except BrokenProcessPool:
                        # A worker process died mid-item (crash, OOM kill,
                        # injected ``executor.worker`` exit).  The pool is
                        # unusable; replace it and give the item one retry on
                        # the fresh pool — a second death means the payload
                        # itself kills workers, which becomes a terminal
                        # per-item error rather than a campaign abort.
                        self.metrics.counter("batch.worker_crashes").inc()
                        pool = self._ensure_healthy_pool(pool)
                        try:
                            result_dict = pool.submit(
                                _solve_payload, payload
                            ).result(timeout=self.config.timeout)
                        except BrokenProcessPool:
                            self.metrics.counter("batch.worker_crashes").inc()
                            pool = self._ensure_healthy_pool(pool)
                            for index, label in waiters[key]:
                                yield index, ItemResult(
                                    label=label,
                                    key=key,
                                    status=STATUS_ERROR,
                                    error=(
                                        "worker process died while solving "
                                        "this item (twice); not retried again"
                                    ),
                                )
                            continue
                        except FutureTimeoutError:
                            pool_stuck = True
                            self.metrics.counter("batch.timeouts").inc()
                            for index, label in waiters[key]:
                                yield index, ItemResult(
                                    label=label,
                                    key=key,
                                    status=STATUS_TIMEOUT,
                                    error=(
                                        f"item exceeded the per-item timeout "
                                        f"of {self.config.timeout} s"
                                    ),
                                )
                            continue
                    except FutureTimeoutError:
                        if future.cancel():
                            # The item never started (workers were starved by
                            # slow neighbours), so it has not violated its own
                            # timeout — solve it inline rather than reporting
                            # a spurious timeout.
                            result_dict = _solve_payload(payload)
                        else:
                            # The worker process keeps running (POSIX offers
                            # no safe per-task kill inside a shared pool); the
                            # item is reported as timed out and never cached,
                            # and the pool is replaced after this window so
                            # the stuck worker does not occupy a slot (or
                            # block the shutdown) for the rest of the run.
                            pool_stuck = True
                            self.metrics.counter("batch.timeouts").inc()
                            for index, label in waiters[key]:
                                yield index, ItemResult(
                                    label=label,
                                    key=key,
                                    status=STATUS_TIMEOUT,
                                    error=(
                                        f"item exceeded the per-item timeout "
                                        f"of {self.config.timeout} s"
                                    ),
                                )
                            continue
                    result_dict = self._absorb(self._store(result_dict))
                    for index, label in waiters[key]:
                        yield index, self._load(result_dict, label, key)
                if pool_stuck:
                    pool = self._replace_stuck_pool(pool)
                    pool_stuck = False
        except (KeyboardInterrupt, SystemExit):
            # Graceful shutdown (Ctrl-C, or SIGTERM converted by
            # ``graceful_interrupts``): waiting for in-flight items could
            # take arbitrarily long, so release the pool without waiting and
            # kill its workers — nothing of this run is reusable, results
            # already yielded (and cached) stay valid, and no worker process
            # is left orphaned.
            pool_stuck = False
            if self._pool is pool:
                self._pool = None
            self._drain_stuck_pool(pool)
            raise
        finally:
            # The pool persists across runs (see close()); only a pool left
            # with a stuck worker is torn down here, so the next run starts
            # with full parallelism again.
            if pool_stuck:
                if self._pool is pool:
                    self._pool = None
                self._drain_stuck_pool(pool)

    def _ensure_healthy_pool(self, pool: ProcessPoolExecutor) -> ProcessPoolExecutor:
        """Replace ``pool`` if it is broken (a worker died); else keep it.

        Safe to call once per failed future: after the first replacement the
        surviving futures of the dead pool fail fast with
        :class:`BrokenProcessPool`, find the *current* pool healthy, and only
        resubmit — no pool churn.
        """
        if self._pool is not None and not getattr(self._pool, "_broken", False):
            return self._pool
        warnings.warn(
            "a batch worker process died unexpectedly; recreating the "
            "process pool and retrying the item once",
            RuntimeWarning,
        )
        if self._pool is pool:
            self._pool = None
        self._drain_stuck_pool(pool)
        return self._ensure_pool()

    @staticmethod
    def _drain_stuck_pool(pool: ProcessPoolExecutor) -> None:
        """Tear down a pool with a worker stuck on a timed-out item.

        ``shutdown(wait=True)`` would block until the un-cancellable payload
        finishes (it already blew its timeout, so that can be arbitrarily
        long); instead the pool is released without waiting and any worker
        still running is killed — every non-stuck future of the pool has been
        collected by the time this is called, so only timed-out payloads die.
        """
        pool.shutdown(wait=False, cancel_futures=True)
        processes = getattr(pool, "_processes", None) or {}
        for process in list(processes.values()):
            process.kill()

    def _replace_stuck_pool(self, pool: ProcessPoolExecutor) -> ProcessPoolExecutor:
        """Swap a pool whose worker is stuck on a timed-out item for a new one.

        After an un-cancellable per-item timeout the worker process keeps
        executing the old payload, leaving every later window of the run one
        worker short (or queued behind it).  Recreating the pool restores the
        configured parallelism; the replacement is per *window*, so one stuck
        item costs one pool restart, not one per item.
        """
        warnings.warn(
            "a worker exceeded the per-item timeout and cannot be cancelled; "
            "recreating the process pool to restore full parallelism",
            RuntimeWarning,
        )
        if self._pool is pool:
            self._pool = None
        self._drain_stuck_pool(pool)
        return self._ensure_pool()

    def run_sweep(
        self,
        configuration,
        capacity_sweep: Sequence[int],
        label: Optional[str] = None,
    ) -> SweepResult:
        """Solve a whole capacity sweep over one configuration as a family.

        The family is the unit of work *and* of caching: its cache key covers
        the configuration, the result-relevant options and the full sweep, so
        a cached family reproduces the original run bit-for-bit.  The sweep
        itself goes through the session API, inline rather than through the
        process pool: one family is one unit of work.
        """
        from repro.taskgraph import serialization as taskgraph_serialization

        options = self.config.result_options()
        configuration_dict = taskgraph_serialization.configuration_to_dict(configuration)
        sweep = [int(value) for value in capacity_sweep]
        label = label or f"{configuration.name}@sweep"
        try:
            key = cache_key(
                configuration_dict, options, {"__capacity_sweep__": sweep}
            )
        except ValueError as error:
            # Non-finite floats in the configuration: a per-family error,
            # consistent with run_iter's per-item handling.
            return SweepResult(
                label=label, key="", status=STATUS_ERROR, error=str(error)
            )
        cached = self.cache.get(key)
        if cached is not None:
            return SweepResult.from_dict(cached, label, key, from_cache=True)
        payload = {
            "label": label,
            "key": key,
            "configuration": configuration_dict,
            "capacity_limits": None,
            "capacity_sweep": sweep,
            "options": options,
        }
        if self.config.telemetry:
            payload["telemetry"] = True
        result_dict = self._absorb(self._store(_solve_payload(payload)))
        return SweepResult.from_dict(result_dict, label, key)

    # -- helpers ----------------------------------------------------------------
    def _store(self, result_dict: Dict[str, object]) -> Dict[str, object]:
        if result_dict["status"] in (STATUS_OK, STATUS_INFEASIBLE):
            # Errors and timeouts may be transient; never cache them.
            # Telemetry is transport-only wall-clock data: cached payloads
            # must stay byte-identical across telemetry settings.
            cacheable = {
                key: value
                for key, value in result_dict.items()
                if key != "telemetry"
            }
            self.cache.put(str(result_dict["key"]), cacheable)
        return result_dict

    def _absorb(self, result_dict: Dict[str, object]) -> Dict[str, object]:
        """Fold one solved (non-cached) result into the campaign aggregates."""
        self.metrics.counter("batch.solved").inc()
        telemetry = result_dict.get("telemetry")
        if telemetry:
            self.metrics.merge_snapshot(telemetry.get("metrics", {}))
        return result_dict

    @staticmethod
    def _load(
        payload: Dict[str, object], label: str, key: str, from_cache: bool = False
    ) -> ItemResult:
        result = ItemResult.from_dict(payload, from_cache=from_cache)
        result.label = label
        result.key = key
        return result


def make_cache(directory: Optional[object], enabled: bool = True):
    """Build the cache for a batch run: a :class:`ResultCache` or a no-op."""
    if not enabled or directory is None:
        return NullCache()
    return ResultCache(directory)
