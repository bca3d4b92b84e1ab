"""The package imports no third-party module beyond its declared dependencies."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SOURCE_ROOT = Path(__file__).resolve().parents[1] / "src"

#: Refuses every top-level module installed under site-packages except the
#: declared dependencies, then drives the CLI and the analyses that walk
#: graphs: allocation with verification and simulation, throughput with
#: critical cycles, and latency.  A hidden import, eager or lazy, raises.
_SCRIPT = """
import sys
import sysconfig
from importlib.machinery import PathFinder

DECLARED = {"numpy", "scipy", "repro"}
SITE = tuple({sysconfig.get_paths()["purelib"], sysconfig.get_paths()["platlib"]})


class UndeclaredBlocker:
    @staticmethod
    def find_spec(name, path=None, target=None):
        if "." in name or name in DECLARED:
            return None
        spec = PathFinder.find_spec(name)
        if spec is not None and (spec.origin or "").startswith(SITE):
            raise ImportError(f"{name} is not a declared dependency")
        return None


sys.meta_path.insert(0, UndeclaredBlocker)

import repro.cli
from repro.analysis import analyse_latency, analyse_throughput
from repro.core import AllocatorOptions, JointAllocator
from repro.taskgraph import serialization
from repro.taskgraph.generators import chain_configuration, ring_configuration

path = sys.argv[1]
serialization.save_configuration(chain_configuration(stages=3, max_capacity=5), path)
assert repro.cli.main(["allocate", path]) == 0

allocator = JointAllocator(options=AllocatorOptions(verify=True, run_simulation=True))
mapped = allocator.allocate(ring_configuration(stages=3))
for report in analyse_throughput(mapped).values():
    assert report.meets_requirement and report.critical
for report in analyse_latency(mapped).values():
    assert report.self_timed_latency > 0.0
print("ok")
"""


def test_allocation_and_analysis_need_only_declared_dependencies(tmp_path):
    environment = dict(os.environ)
    environment["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SOURCE_ROOT), environment.get("PYTHONPATH")])
    )
    completed = subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(tmp_path / "config.json")],
        capture_output=True,
        text=True,
        env=environment,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.splitlines()[-1] == "ok"


#: Modules ``repro-map allocate`` never runs: the builder, workloads and
#: generators, parametric re-solve, telemetry export and progress,
#: schedules, monotonicity checks, the TDM and latency-rate models and
#: table rendering.
_UNUSED_ON_ALLOCATE = (
    "repro.taskgraph.generators",
    "repro.taskgraph.workload",
    "repro.taskgraph.builder",
    "repro.solver.parametric",
    "repro.obs.export",
    "repro.obs.progress",
    "repro.dataflow.schedule",
    "repro.dataflow.monotonicity",
    "repro.scheduling.tdm",
    "repro.scheduling.latency_rate",
    "repro.analysis.report",
)

_ALLOCATE_SCRIPT = """
import json
import sys

import repro.cli

config, output = sys.argv[1], sys.argv[2]
assert repro.cli.main(["allocate", config, "--output", output, "--stats"]) == 0
print(json.dumps(sorted(name for name in sys.modules if name.startswith("repro"))))
"""


def test_cli_allocate_leaves_unused_modules_unimported(tmp_path):
    from repro.taskgraph import serialization
    from repro.taskgraph.generators import producer_consumer_configuration

    config = tmp_path / "config.json"
    serialization.save_configuration(producer_consumer_configuration(max_capacity=5), config)
    environment = dict(os.environ)
    environment["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SOURCE_ROOT), environment.get("PYTHONPATH")])
    )
    completed = subprocess.run(
        [sys.executable, "-c", _ALLOCATE_SCRIPT, str(config), str(tmp_path / "out.json")],
        capture_output=True,
        text=True,
        env=environment,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    loaded = set(json.loads(completed.stdout.splitlines()[-1]))
    assert "repro.solver.barrier" in loaded
    assert loaded.isdisjoint(_UNUSED_ON_ALLOCATE), sorted(loaded & set(_UNUSED_ON_ALLOCATE))
