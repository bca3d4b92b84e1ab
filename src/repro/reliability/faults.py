"""Deterministic, seeded fault injection for chaos tests.

A :class:`FaultPlan` arms *named injection sites* — fixed points in the
production code (``executor.worker``, ``newton.linalg``, ``cache.corrupt``,
``item.timeout``, ``journal.write``, ``admission.solve``, ``replay.event``)
that call :func:`maybe_fail` on every pass.  With no plan armed the call is
one module-attribute read and a ``None`` check, so production runs pay
nothing.  With a plan armed, each site counts its hits and fires the
configured action on the configured hit — the *nth* pass, optionally filtered
by a label substring — which makes a chaos scenario a deterministic,
replayable CI citizen instead of a race.

Plans serialise to plain dicts (:meth:`FaultPlan.to_dict` /
:meth:`FaultPlan.from_dict`) so they can cross process boundaries: the
batch executor ships the armed plan to its pool workers inside the item
payload.

Actions
-------

``raise``
    Raise :class:`repro.exceptions.FaultInjected`.
``numerical-error``
    Raise :class:`repro.exceptions.NumericalError` (a solver blow-up).
``linalg-error``
    Raise :class:`numpy.linalg.LinAlgError` (a factorisation failure inside
    a Newton iteration; at ``newton.linalg`` the dense kernel then takes a
    least-squares step and the structured kernel hands the iteration to its
    dense twin).
``oserror``
    Raise :class:`OSError` (a failed journal/cache write).
``exit``
    Terminate the process immediately with ``os._exit`` — a worker crash or
    a kill mid-replay.  Bypasses ``finally`` blocks on purpose: that is what
    a real ``SIGKILL`` does.
``sleep``
    Stall for ``seconds`` (per-item timeout scenarios).
``corrupt``
    No exception; :func:`maybe_fail` returns the firing spec and the call
    site performs its own corruption (e.g. the result cache writing torn
    bytes).  Sites that do not understand ``corrupt`` ignore the return.

This module deliberately imports nothing heavy (numpy only inside the
``linalg-error`` action) so arming a site in :mod:`repro.solver.barrier` or
:mod:`repro.batch.cache` cannot create an import cycle.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional

from repro.exceptions import FaultInjected, NumericalError

__all__ = [
    "ACTIONS",
    "FaultSpec",
    "FaultPlan",
    "armed",
    "active_plan",
    "install",
    "uninstall",
    "maybe_fail",
]

#: Exit status used by the ``exit`` action, distinctive enough to assert on.
EXIT_STATUS = 23

ACTIONS = (
    "raise",
    "numerical-error",
    "linalg-error",
    "oserror",
    "exit",
    "sleep",
    "corrupt",
)


@dataclass
class FaultSpec:
    """One armed injection: fire ``action`` on the ``nth`` hit of ``site``."""

    site: str
    action: str
    nth: int = 1            #: 1-based hit index at which the spec starts firing
    times: int = 1          #: how many consecutive hits fire from ``nth`` on
    match: Optional[str] = None   #: only hits whose label contains this fire
    seconds: float = 0.0    #: stall duration for the ``sleep`` action
    message: str = "injected fault"
    hits: int = 0           #: matching passes seen so far (mutated at run time)
    fired: int = 0          #: times this spec actually fired

    def __post_init__(self) -> None:
        if self.action not in ACTIONS:
            raise ValueError(
                f"unknown fault action {self.action!r}; expected one of {ACTIONS}"
            )
        if self.nth < 1:
            raise ValueError(f"nth must be >= 1, got {self.nth}")

    def to_dict(self) -> Dict[str, object]:
        return {
            "site": self.site,
            "action": self.action,
            "nth": self.nth,
            "times": self.times,
            "match": self.match,
            "seconds": self.seconds,
            "message": self.message,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "FaultSpec":
        return cls(
            site=str(data["site"]),
            action=str(data["action"]),
            nth=int(data.get("nth", 1)),
            times=int(data.get("times", 1)),
            match=None if data.get("match") is None else str(data["match"]),
            seconds=float(data.get("seconds", 0.0)),
            message=str(data.get("message", "injected fault")),
        )


@dataclass
class FaultPlan:
    """A named, seeded set of armed injection specs.

    The ``seed`` does not drive randomness — every firing decision is a
    deterministic hit count — it *names* the scenario, so a failing chaos
    run can be reproduced exactly from its logged plan.
    """

    seed: int = 0
    specs: List[FaultSpec] = field(default_factory=list)

    def arm(
        self,
        site: str,
        action: str,
        nth: int = 1,
        times: int = 1,
        match: Optional[str] = None,
        seconds: float = 0.0,
        message: Optional[str] = None,
    ) -> "FaultPlan":
        self.specs.append(
            FaultSpec(
                site=site,
                action=action,
                nth=nth,
                times=times,
                match=match,
                seconds=seconds,
                message=message or f"injected {action} at {site} (seed {self.seed})",
            )
        )
        return self

    def fired(self, site: Optional[str] = None) -> int:
        """Total firings, optionally restricted to one site."""
        return sum(
            spec.fired
            for spec in self.specs
            if site is None or spec.site == site
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "specs": [spec.to_dict() for spec in self.specs],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "FaultPlan":
        return cls(
            seed=int(data.get("seed", 0)),
            specs=[FaultSpec.from_dict(spec) for spec in data.get("specs", [])],
        )


#: The process-global armed plan; ``None`` keeps every site inert.
_ACTIVE: Optional[FaultPlan] = None
_LOCK = threading.Lock()


def active_plan() -> Optional[FaultPlan]:
    return _ACTIVE


def install(plan: Optional[FaultPlan]) -> None:
    """Arm ``plan`` process-wide (``None`` disarms)."""
    global _ACTIVE
    _ACTIVE = plan


def uninstall() -> None:
    install(None)


@contextmanager
def armed(plan: Optional[FaultPlan]) -> Iterator[Optional[FaultPlan]]:
    """Arm ``plan`` for the duration of the block, then restore what was armed.

    ``None`` is a no-op (the surrounding plan, if any, stays armed) so call
    sites can wrap unconditionally: ``with armed(maybe_plan): ...``.
    """
    if plan is None:
        yield None
        return
    previous = _ACTIVE
    install(plan)
    try:
        yield plan
    finally:
        install(previous)


def _record_fired(spec: FaultSpec) -> None:
    spec.fired += 1
    # Injected-fault counters surface in the obs metrics snapshot so a chaos
    # run can assert every armed fault actually fired.  Imported lazily: the
    # inert path (no plan armed) never touches the metrics module.
    from repro.obs.metrics import get_registry

    registry = get_registry()
    if registry.enabled:
        registry.counter("reliability.faults.injected").inc()
        registry.counter(f"reliability.faults.{spec.site}").inc()


def maybe_fail(site: str, label: Optional[str] = None) -> Optional[FaultSpec]:
    """The injection-site hook: fire any armed spec that matches this pass.

    Returns the firing spec for the cooperative ``corrupt`` action (the call
    site performs the corruption) and ``None`` otherwise.  With no plan
    armed this is a single attribute read.
    """
    plan = _ACTIVE
    if plan is None:
        return None
    with _LOCK:
        firing: Optional[FaultSpec] = None
        for spec in plan.specs:
            if spec.site != site:
                continue
            if spec.match is not None and (label is None or spec.match not in label):
                continue
            spec.hits += 1
            if firing is None and spec.nth <= spec.hits < spec.nth + spec.times:
                firing = spec
        if firing is None:
            return None
        _record_fired(firing)
    return _execute(firing)


def _execute(spec: FaultSpec) -> Optional[FaultSpec]:
    if spec.action == "raise":
        raise FaultInjected(spec.message)
    if spec.action == "numerical-error":
        raise NumericalError(spec.message)
    if spec.action == "linalg-error":
        import numpy as np

        raise np.linalg.LinAlgError(spec.message)
    if spec.action == "oserror":
        raise OSError(spec.message)
    if spec.action == "exit":
        os._exit(EXIT_STATUS)
    if spec.action == "sleep":
        time.sleep(spec.seconds)
        return None
    # "corrupt": cooperative — the call site corrupts its own write.
    return spec
