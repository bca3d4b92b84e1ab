"""Graceful interrupts: turn ``SIGTERM`` into a Python-level unwind.

:func:`graceful_interrupts` converts ``SIGTERM`` into
:class:`KeyboardInterrupt` for the duration of a block, so the executor's
``finally``-based worker teardown runs on an external termination request
exactly as it does on Ctrl-C — no orphaned pool workers, caches and JSONL
logs left in their (truncation-tolerant) valid states.
"""

from __future__ import annotations

import signal
import threading
from contextlib import contextmanager
from typing import Iterator

__all__ = ["graceful_interrupts"]


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
