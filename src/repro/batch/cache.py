"""Persistent, content-addressed result cache.

Repeated campaigns and overlapping sweeps solve many identical instances.
The cache keys every allocation by a SHA-256 hash of the *canonical JSON* of
the configuration, the extra capacity limits, and the allocator options that
influence the result (backend, weights, verification settings) — so a cache
hit is guaranteed to be the result the solver would have produced, and
operational knobs such as the worker count never fragment the cache.

Entries are JSON files sharded by the first two hex digits of the key, and
writes go through a temporary file followed by an atomic :func:`os.replace`,
which makes the cache safe to share between the worker processes of a
parallel batch run (and between concurrent batch runs on the same machine).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Dict, Mapping, Optional, Union

#: Bump when the cached payload layout changes; part of every cache key.
CACHE_FORMAT_VERSION = 1


def canonical_json(payload: Mapping[str, object]) -> str:
    """Serialise a payload to canonical JSON (sorted keys, no whitespace).

    Non-finite floats are rejected: ``json.dumps`` would emit the
    non-standard ``NaN``/``Infinity`` literals, which strict parsers refuse
    and which make hashes meaningless as identity (``NaN != NaN``).
    """
    try:
        return json.dumps(
            payload, sort_keys=True, separators=(",", ":"), allow_nan=False
        )
    except ValueError as error:
        raise ValueError(
            f"payload contains a non-finite float (NaN or infinity), which has "
            f"no canonical JSON form: {error}"
        ) from None


def cache_key(
    configuration: Mapping[str, object],
    options: Mapping[str, object],
    capacity_limits: Optional[Mapping[str, int]] = None,
) -> str:
    """The content hash identifying one allocation problem.

    Parameters
    ----------
    configuration:
        The configuration as its canonical dictionary form
        (:func:`repro.taskgraph.serialization.configuration_to_dict`).
    options:
        The result-relevant allocator options (backend, weights, verify,
        run_simulation).
    capacity_limits:
        Extra per-buffer capacity bounds applied on top of the configuration.
    """
    document = {
        "cache_format": CACHE_FORMAT_VERSION,
        "configuration": configuration,
        "capacity_limits": dict(capacity_limits) if capacity_limits else None,
        "options": dict(options),
    }
    return hashlib.sha256(canonical_json(document).encode("utf-8")).hexdigest()


class NullCache:
    """A cache that stores nothing (``--no-cache``)."""

    def get(self, key: str) -> Optional[Dict[str, object]]:
        return None

    def put(self, key: str, payload: Mapping[str, object]) -> None:
        return None

    def stats(self) -> Dict[str, int]:
        return {"hits": 0, "misses": 0, "stores": 0, "evictions": 0}

    def __len__(self) -> int:
        return 0


class ResultCache:
    """A directory of canonical-hash-keyed JSON result payloads."""

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.evictions = 0

    def _path(self, key: str) -> Path:
        return self.directory / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[Dict[str, object]]:
        """Return the stored payload, or ``None`` on a miss.

        An entry that exists but cannot be parsed back into a JSON object —
        a torn write from a killed process, bit rot, or an injected
        corruption — is a miss *and is evicted*, so one bad file costs a
        single re-solve instead of a failed read on every future campaign.
        """
        path = self._path(key)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:
            self.misses += 1
            return None
        try:
            payload = json.loads(text)
        except json.JSONDecodeError:
            self._evict(path)
            self.misses += 1
            return None
        if not isinstance(payload, dict):
            self._evict(path)
            self.misses += 1
            return None
        self.hits += 1
        return payload

    def _evict(self, path: Path) -> None:
        try:
            path.unlink()
            self.evictions += 1
        except OSError:
            pass

    def put(self, key: str, payload: Mapping[str, object]) -> None:
        """Store a payload atomically (safe under concurrent writers).

        Payloads containing non-finite floats are *not* stored: serialising
        them would write the non-standard ``NaN``/``Infinity`` JSON literals,
        producing cache files strict parsers reject.  The cache is
        best-effort, so such payloads are silently skipped (the item's result
        still reaches the caller; it just never becomes a cache hit).
        """
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        descriptor, temp_name = tempfile.mkstemp(
            prefix=f".{key[:8]}-", suffix=".tmp", dir=str(path.parent)
        )
        try:
            with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
                json.dump(dict(payload), handle, sort_keys=True, allow_nan=False)
            os.replace(temp_name, path)
            # Cooperative chaos site: an armed ``cache.corrupt`` fault
            # truncates the just-written entry mid-record, simulating a torn
            # write for the eviction path in :meth:`get` to absorb.
            from repro.reliability.faults import maybe_fail

            if maybe_fail("cache.corrupt", label=key) is not None:
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write('{"truncated": ')
        except ValueError:
            try:
                os.unlink(temp_name)
            except OSError:
                pass
            # Only the non-finite-float case is best-effort; any other
            # ValueError (e.g. a circular reference) is a caller bug and must
            # stay loud.  Re-serialising with the default lenient mode tells
            # the two apart without matching stdlib message strings.
            json.dumps(dict(payload))
            return
        except BaseException:
            try:
                os.unlink(temp_name)
            except OSError:
                pass
            raise
        self.stores += 1

    def stats(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
        }

    def __len__(self) -> int:
        return sum(1 for _ in self.directory.glob("*/*.json"))

    def clear(self) -> int:
        """Delete every entry; returns the number of entries removed."""
        removed = 0
        for entry in self.directory.glob("*/*.json"):
            try:
                entry.unlink()
                removed += 1
            except OSError:
                pass
        return removed
