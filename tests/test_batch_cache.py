"""Tests of the persistent content-addressed result cache."""

from __future__ import annotations

import json

from repro.batch.cache import NullCache, ResultCache, cache_key, canonical_json
from repro.taskgraph import serialization
from repro.taskgraph.generators import chain_configuration, producer_consumer_configuration

OPTIONS = {
    "backend": "auto",
    "weights": "prefer-budgets",
    "verify": True,
    "run_simulation": False,
}


def config_dict(**kwargs):
    return serialization.configuration_to_dict(
        producer_consumer_configuration(**kwargs)
    )


class TestCacheKey:
    def test_key_is_stable_across_dict_ordering(self):
        base = config_dict()
        reordered = json.loads(canonical_json(base))  # same content, new dict
        assert cache_key(base, OPTIONS) == cache_key(reordered, OPTIONS)

    def test_key_depends_on_configuration(self):
        assert cache_key(config_dict(), OPTIONS) != cache_key(
            config_dict(period=12.0), OPTIONS
        )
        other = serialization.configuration_to_dict(chain_configuration())
        assert cache_key(config_dict(), OPTIONS) != cache_key(other, OPTIONS)

    def test_key_depends_on_result_relevant_options(self):
        scipy_options = {**OPTIONS, "backend": "scipy"}
        assert cache_key(config_dict(), OPTIONS) != cache_key(
            config_dict(), scipy_options
        )

    def test_key_depends_on_capacity_limits(self):
        assert cache_key(config_dict(), OPTIONS) != cache_key(
            config_dict(), OPTIONS, capacity_limits={"bab": 3}
        )
        assert cache_key(config_dict(), OPTIONS, capacity_limits={"bab": 3}) == cache_key(
            config_dict(), OPTIONS, capacity_limits={"bab": 3}
        )


class TestNonFinitePayloads:
    """NaN/inf handling: canonical JSON and cache files must stay strict.

    ``json.dumps`` would happily emit the non-standard ``NaN``/``Infinity``
    literals, producing cache keys that are not stable identities and cache
    files strict parsers reject; both surfaces reject non-finite floats.
    """

    def test_cache_key_rejects_nan_configuration(self):
        import pytest

        bad = {**config_dict(), "period": float("nan")}
        with pytest.raises(ValueError, match="non-finite"):
            cache_key(bad, OPTIONS)

    def test_cache_key_rejects_infinite_limits(self):
        import pytest

        with pytest.raises(ValueError, match="non-finite"):
            cache_key(config_dict(), OPTIONS, capacity_limits={"bab": float("inf")})

    def test_canonical_json_rejects_nested_non_finite(self):
        import pytest

        for value in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match="non-finite"):
                canonical_json({"a": {"b": [1.0, value]}})

    def test_put_declines_non_finite_payload(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        key = cache_key(config_dict(), OPTIONS)
        cache.put(key, {"status": "ok", "objective_value": float("nan")})
        # Nothing stored, nothing half-written, and the miss is clean.
        assert cache.get(key) is None
        assert len(cache) == 0
        assert cache.stores == 0
        assert not list((tmp_path / "cache").rglob("*.tmp"))

    def test_put_still_raises_on_genuine_serialisation_bugs(self, tmp_path):
        import pytest

        cache = ResultCache(tmp_path / "cache")
        circular = {"status": "ok"}
        circular["self"] = circular
        with pytest.raises(ValueError, match="[Cc]ircular"):
            cache.put(cache_key(config_dict(), OPTIONS), circular)
        assert len(cache) == 0

    def test_stored_entries_parse_under_a_strict_parser(self, tmp_path):
        def reject_constant(text):
            raise AssertionError(f"non-standard JSON constant {text!r}")

        cache = ResultCache(tmp_path / "cache")
        key = cache_key(config_dict(), OPTIONS)
        cache.put(key, {"status": "ok", "objective_value": 17.5})
        path = tmp_path / "cache" / key[:2] / f"{key}.json"
        payload = json.loads(path.read_text(), parse_constant=reject_constant)
        assert payload["objective_value"] == 17.5


class TestResultCache:
    def test_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        key = cache_key(config_dict(), OPTIONS)
        assert cache.get(key) is None
        cache.put(key, {"status": "ok", "budgets": {"wa": 18.0}})
        assert cache.get(key) == {"status": "ok", "budgets": {"wa": 18.0}}
        assert cache.stats() == {"hits": 1, "misses": 1, "stores": 1, "evictions": 0}
        assert len(cache) == 1

    def test_entries_are_sharded_json_files(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        key = cache_key(config_dict(), OPTIONS)
        cache.put(key, {"status": "ok"})
        path = tmp_path / "cache" / key[:2] / f"{key}.json"
        assert path.is_file()
        assert json.loads(path.read_text())["status"] == "ok"

    def test_corrupt_entry_is_a_miss_and_is_evicted(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        key = cache_key(config_dict(), OPTIONS)
        cache.put(key, {"status": "ok"})
        path = tmp_path / "cache" / key[:2] / f"{key}.json"
        path.write_text("{not json")
        assert cache.get(key) is None
        assert not path.exists()
        assert cache.stats()["evictions"] == 1
        # The slot is reusable: a fresh put hits again.
        cache.put(key, {"status": "ok"})
        assert cache.get(key) == {"status": "ok"}

    def test_truncated_entry_is_a_miss_and_is_evicted(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        key = cache_key(config_dict(), OPTIONS)
        cache.put(key, {"status": "ok", "budgets": {"wa": 18.0}})
        path = tmp_path / "cache" / key[:2] / f"{key}.json"
        complete = path.read_text()
        path.write_text(complete[: len(complete) // 2])
        assert cache.get(key) is None
        assert not path.exists()
        assert cache.stats()["evictions"] == 1

    def test_non_object_entry_is_a_miss_and_is_evicted(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        key = cache_key(config_dict(), OPTIONS)
        path = tmp_path / "cache" / key[:2] / f"{key}.json"
        path.parent.mkdir(parents=True)
        path.write_text("[1, 2, 3]")
        assert cache.get(key) is None
        assert not path.exists()

    def test_clear_removes_entries(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        for index in range(3):
            cache.put(cache_key(config_dict(period=10.0 + index), OPTIONS), {"i": index})
        assert len(cache) == 3
        assert cache.clear() == 3
        assert len(cache) == 0

    def test_shared_directory_between_instances(self, tmp_path):
        writer = ResultCache(tmp_path / "cache")
        key = cache_key(config_dict(), OPTIONS)
        writer.put(key, {"status": "ok"})
        reader = ResultCache(tmp_path / "cache")
        assert reader.get(key) == {"status": "ok"}


class TestNullCache:
    def test_null_cache_stores_nothing(self):
        cache = NullCache()
        cache.put("abc", {"status": "ok"})
        assert cache.get("abc") is None
        assert len(cache) == 0
        assert cache.stats() == {"hits": 0, "misses": 0, "stores": 0, "evictions": 0}
