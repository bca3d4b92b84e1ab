"""The package imports no third-party module beyond its declared dependencies."""

from __future__ import annotations

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
