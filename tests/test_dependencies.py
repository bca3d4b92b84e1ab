"""The package imports no third-party module beyond its declared dependencies."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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

#: Third-party modules ``repro-map allocate`` never loads.  The barrier takes
#: ``dposv`` from scipy's compiled LAPACK extension and the compiled rows are
#: numpy arrays, so neither the ``scipy.linalg`` package nor ``scipy.sparse``
#: is imported; both would pull in ``scipy._lib._util``, whose vendored
#: array-API clone of numpy loads ``numpy.f2py``, ``numpy.testing`` and
#: ``numpy.ma`` (a few hundred milliseconds of start-up).
_UNUSED_THIRD_PARTY_ON_ALLOCATE = (
    "scipy.linalg",
    "scipy.sparse",
    "scipy._lib._util",
    "numpy.f2py",
    "numpy.testing",
    "numpy.ma",
)

_ALLOCATE_SCRIPT = """
import json
import sys

import repro.cli

config, output = sys.argv[1], sys.argv[2]
assert repro.cli.main(["allocate", config, "--output", output, "--stats"]) == 0
print(json.dumps(sorted(sys.modules)))
"""


def _environment():
    environment = dict(os.environ)
    environment["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SOURCE_ROOT), environment.get("PYTHONPATH")])
    )
    return environment


def _configuration_file(directory: Path) -> Path:
    from repro.taskgraph import serialization
    from repro.taskgraph.generators import producer_consumer_configuration

    config = directory / "config.json"
    serialization.save_configuration(producer_consumer_configuration(max_capacity=5), config)
    return config


@pytest.fixture(scope="module")
def allocate_modules(tmp_path_factory):
    """Every module a fresh ``repro-map allocate`` process has loaded at exit."""
    directory = tmp_path_factory.mktemp("allocate")
    completed = subprocess.run(
        [
            sys.executable,
            "-c",
            _ALLOCATE_SCRIPT,
            str(_configuration_file(directory)),
            str(directory / "out.json"),
        ],
        capture_output=True,
        text=True,
        env=_environment(),
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    return set(json.loads(completed.stdout.splitlines()[-1]))


def test_cli_allocate_leaves_unused_modules_unimported(allocate_modules):
    assert "repro.solver.barrier" in allocate_modules
    unused = allocate_modules & set(_UNUSED_ON_ALLOCATE)
    assert not unused, sorted(unused)


def test_cli_allocate_loads_only_scipys_lapack_extension(allocate_modules):
    """The start-up import set: scipy's LAPACK extension, not its packages."""
    assert "scipy.linalg._flapack" in allocate_modules
    unused = allocate_modules & set(_UNUSED_THIRD_PARTY_ON_ALLOCATE)
    assert not unused, sorted(unused)


#: After an allocation has loaded the LAPACK extension on its own, the rest
#: of scipy still imports and works in the same process: the public
#: ``dposv`` is the kernel's and solves identically, and the scipy (SLSQP)
#: and HiGHS paths run.
_AFTER_ALLOCATE_SCRIPT = """
import sys

import numpy as np

import repro.cli

assert repro.cli.main(["allocate", sys.argv[1], "--output", sys.argv[2]]) == 0
assert "scipy.linalg" not in sys.modules

import scipy.linalg
import scipy.optimize
from scipy.linalg.lapack import dposv

from repro import allocate
from repro.baselines.buffer_sizing import minimal_buffer_capacities
from repro.solver.barrier import _dposv
from repro.taskgraph.generators import producer_consumer_configuration

rng = np.random.default_rng(0)
factor = rng.standard_normal((6, 6))
matrix = factor @ factor.T + 6.0 * np.eye(6)
rhs = rng.standard_normal((6, 2))
ours, theirs = _dposv(matrix, rhs, lower=1), dposv(matrix, rhs, lower=1)
assert ours[2] == theirs[2] == 0
assert ours[1].tobytes() == theirs[1].tobytes()
np.testing.assert_allclose(matrix @ theirs[1], rhs)
np.testing.assert_allclose(scipy.linalg.solve(matrix, rhs), theirs[1])

configuration = producer_consumer_configuration(max_capacity=5)
mapped = allocate(configuration, backend="scipy")
assert mapped.solver_info["backend"] == "scipy", mapped.solver_info
capacities = minimal_buffer_capacities(configuration, mapped.budgets)
assert capacities and all(value >= 1 for value in capacities.values()), capacities
print("ok")
"""


def test_scipy_works_after_allocate_loaded_its_lapack_extension(tmp_path):
    completed = subprocess.run(
        [
            sys.executable,
            "-c",
            _AFTER_ALLOCATE_SCRIPT,
            str(_configuration_file(tmp_path)),
            str(tmp_path / "out.json"),
        ],
        capture_output=True,
        text=True,
        env=_environment(),
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.splitlines()[-1] == "ok"
