"""Retry policies, a circuit breaker and graceful-interrupt helpers.

The degradation ladder every solver-adjacent failure path follows is
*bounded retry → fallback → structured error*:

* :class:`RetryPolicy` bounds the retries (attempt count plus an optional
  geometric backoff) and is deliberately dumb — *what* is retryable is the
  caller's decision, because infeasibility is a definite answer that must
  never be retried while a numerical blow-up or a dead worker may be
  transient (and under fault injection, provably is).
* :class:`CircuitBreaker` stops re-trying a backend that keeps failing: after
  ``failure_threshold`` consecutive failures of one key the circuit opens
  and :meth:`CircuitBreaker.allow` answers ``False`` until ``reset_after``
  seconds of quiet, so a campaign with a systematically broken backend pays
  the failure cost once per window instead of once per item.
* :func:`graceful_interrupts` converts ``SIGTERM`` into
  :class:`KeyboardInterrupt` for the duration of a block, so the executor's
  ``finally``-based worker teardown runs on an external termination request
  exactly as it does on Ctrl-C — no orphaned pool workers, caches and JSONL
  logs left in their (truncation-tolerant) valid states.
"""

from __future__ import annotations

import signal
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, Optional, Tuple, Type

__all__ = ["RetryPolicy", "CircuitBreaker", "graceful_interrupts"]


@dataclass
class RetryPolicy:
    """Bounded retry with optional geometric backoff.

    ``attempts`` counts *total* tries: the default of 2 means one retry
    after the first failure.  ``backoff`` seconds are slept before each
    retry, multiplied by ``backoff_factor`` per further retry; the default
    of zero keeps tests and admission paths instant.
    """

    attempts: int = 2
    backoff: float = 0.0
    backoff_factor: float = 2.0

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError(f"attempts must be >= 1, got {self.attempts}")

    def delays(self) -> Iterator[float]:
        """The sleep before each retry (``attempts - 1`` values)."""
        delay = self.backoff
        for _ in range(self.attempts - 1):
            yield delay
            delay *= self.backoff_factor

    def run(
        self,
        call: Callable[[], object],
        retryable: Tuple[Type[BaseException], ...] = (Exception,),
        on_retry: Optional[Callable[[int, BaseException], None]] = None,
    ) -> object:
        """Call ``call`` up to ``attempts`` times; re-raise the last failure.

        Only ``retryable`` exceptions trigger a retry — anything else
        propagates immediately (a definite verdict such as infeasibility
        must never be re-asked).  ``on_retry(attempt, error)`` fires before
        each retry, which is where callers count ``reliability.retries``.
        """
        last: Optional[BaseException] = None
        for attempt, delay in enumerate(list(self.delays()) + [None]):
            try:
                return call()
            except retryable as error:
                last = error
                if delay is None:
                    break
                if on_retry is not None:
                    on_retry(attempt + 1, error)
                if delay > 0.0:
                    time.sleep(delay)
        assert last is not None
        raise last


class CircuitBreaker:
    """Per-key consecutive-failure circuit with a monotonic-clock reset.

    Thread-safe; one instance can be shared by every item of a campaign.
    A key's circuit opens after ``failure_threshold`` consecutive
    :meth:`record_failure` calls and closes again ``reset_after`` seconds
    after the last failure (half-open: the next caller gets one probe).
    """

    def __init__(
        self,
        failure_threshold: int = 3,
        reset_after: float = 60.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        self.failure_threshold = failure_threshold
        self.reset_after = reset_after
        self._clock = clock
        self._lock = threading.Lock()
        #: key -> (consecutive failures, last failure instant)
        self._state: Dict[str, Tuple[int, float]] = {}

    def allow(self, key: str) -> bool:
        """Whether a call under ``key`` should be attempted right now.

        A try-acquire, not a pure query: in the half-open window the one
        probe is *consumed* by the caller who asks (its
        :meth:`record_success`/:meth:`record_failure` outcome then decides
        the circuit's fate).  Status checks that will not be followed by a
        real call must use :meth:`is_open` instead.
        """
        with self._lock:
            state = self._state.get(key)
            if state is None:
                return True
            failures, last_failure = state
            if failures < self.failure_threshold:
                return True
            if self._clock() - last_failure >= self.reset_after:
                # Half-open: allow one probe; its outcome decides the state.
                self._state[key] = (self.failure_threshold - 1, last_failure)
                return True
            return False

    def record_success(self, key: str) -> None:
        with self._lock:
            self._state.pop(key, None)

    def record_failure(self, key: str) -> None:
        with self._lock:
            failures, _ = self._state.get(key, (0, 0.0))
            self._state[key] = (failures + 1, self._clock())

    def is_open(self, key: str) -> bool:
        """Whether the circuit for ``key`` is currently open (calls blocked).

        A pure query: unlike :meth:`allow` it never consumes the half-open
        probe, so any number of status checks leave the breaker's state
        untouched.  In the half-open window it reports the circuit as not
        open (a call would be allowed).
        """
        with self._lock:
            state = self._state.get(key)
            if state is None:
                return False
            failures, last_failure = state
            if failures < self.failure_threshold:
                return False
            return self._clock() - last_failure < self.reset_after


@contextmanager
def graceful_interrupts() -> Iterator[None]:
    """Convert ``SIGTERM`` to :class:`KeyboardInterrupt` inside the block.

    An external ``kill`` then unwinds the Python stack instead of dropping
    the process: pool teardown, cache writes and JSONL flushes in
    ``finally`` blocks all run.  A no-op outside the main thread (signal
    handlers can only be installed there) and on platforms without
    ``SIGTERM``.
    """
    if threading.current_thread() is not threading.main_thread() or not hasattr(
        signal, "SIGTERM"
    ):
        yield
        return

    def _raise_interrupt(signum, frame):  # noqa: ARG001 - signal handler shape
        raise KeyboardInterrupt("terminated by SIGTERM")

    previous = signal.signal(signal.SIGTERM, _raise_interrupt)
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)
