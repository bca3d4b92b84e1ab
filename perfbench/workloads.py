"""The four benchmark workloads: seeded inputs, one operation, output checks.

Every workload draws its inputs from a fixed, finite *pool* of named
instances.  ``select(seed)`` picks one pass of pool keys for a seed, so any
seed is covered by the committed reference outcomes (``reference.json``),
which are recorded once per pool key.  A workload object exposes:

* ``select(seed)`` / ``generate(keys)`` — the seeded pass and its inputs,
  built before the timed loop;
* ``prepare(item, traced)`` / ``run(item, traced, op_id)`` — one operation
  (``prepare`` runs outside the timed region);
* ``check(item, outcome)`` — ``None`` when the output is correct, otherwise
  the reason it is not;
* ``describe(item, outcome)`` — the outcome in the reference format.
"""

from __future__ import annotations

import json
import os
import random
import re
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

from repro import (
    AdmissionController,
    AllocatorOptions,
    InfeasibleProblemError,
    JointAllocator,
    allocate,
    random_trace,
    random_workload,
)
from repro.core.admission import apply_trace_event
from repro.experiments import figure2, figure3
from repro.obs import read_records
from repro.taskgraph import save_workload, serialization
from repro.taskgraph.generators import (
    chain_configuration,
    csdf_chain_configuration,
    heterogeneous_random_configuration,
    random_dag_configuration,
)

#: Relative slack of the one-sided objective check.
OBJECTIVE_RTOL = 1e-6

INFEASIBLE = "infeasible"
OPTIMAL = "optimal"


def objective_ok(value: Optional[float], recorded: Optional[float]) -> bool:
    """One-sided objective check: a lower (better) optimum is never a failure."""
    if value is None or recorded is None:
        return value is None and recorded is None
    return value <= recorded + OBJECTIVE_RTOL * max(1.0, abs(recorded))


@dataclass
class Failed:
    """An operation that raised instead of returning."""

    error: str


@dataclass
class Subject:
    """One distinct input of the separate layer calls: its JSON file, its
    model (configuration or workload) and its rounded mappings."""

    path: Path
    model: object
    mappings: list


def _capacity_keys(prefix: str) -> List[str]:
    return [f"{prefix}-{k}" for k in range(1, 11)] + [f"{prefix}-free"]


def _paper_configuration(key: str):
    """``fig2-<k>`` / ``fig3-<k>``: a Figure 2/3 sweep point (``free`` = unbounded)."""
    figure, bound = key.split("-")
    module = figure2 if figure == "fig2" else figure3
    return module.build_configuration(None if bound == "free" else int(bound))


class Workload:
    name = ""
    #: Time statistics over completed passes only.  Needed where an
    #: operation's cost depends on its position in the pass (admission
    #: events late in a trace cost more), so that a partial last pass would
    #: skew the mix; elsewhere a partial pass is a random subset of
    #: independent inputs and counting it adds samples without bias.
    whole_passes = False

    def __init__(self, reference: Dict[str, object], workdir: Path, src: Path) -> None:
        self.reference = reference.get(self.name, {})
        self.workdir = workdir

    def pool(self) -> List[str]:
        raise NotImplementedError

    def select(self, seed: int) -> List[str]:
        raise NotImplementedError

    def generate(self, keys: List[str]) -> list:
        raise NotImplementedError

    def warm_up(self) -> None:
        """One operation on the pool's first member, the same for every seed,
        so that lazy imports and caches are settled before the timed loop."""
        item = self.generate(self.pool()[:1])[0]
        self.prepare(item, False)
        self.run(item, False, -1)

    def prepare(self, item, traced: bool) -> None:
        pass

    def run(self, item, traced: bool, op_id: int):
        raise NotImplementedError

    def check(self, item, outcome) -> Optional[str]:
        raise NotImplementedError

    def describe(self, item, outcome):
        raise NotImplementedError

    def newton(self, outcome) -> Optional[int]:
        """Newton iterations of one operation when the outcome carries them
        (``None``: counted through the metrics registry instead)."""
        return None

    def telemetry(self, outcome, spans: list, metrics: dict):
        """Program spans and registry snapshot of one traced operation."""
        return spans, metrics

    def subjects(self, pairs: list) -> List[Subject]:
        """Distinct inputs (with their first-pass results) for the separate layer calls."""
        subjects = []
        for number, (item, outcome) in enumerate(pairs):
            mappings = []
            if not isinstance(outcome, Failed) and outcome != INFEASIBLE:
                mappings = self.mappings(outcome)
            path = save_model(item[1], self.workdir / f"subject-{number}.json")
            subjects.append(Subject(path, item[1], mappings))
        return subjects

    def mappings(self, outcome) -> list:
        return [outcome]


# -- config-stream -----------------------------------------------------------------
class ConfigStream(Workload):
    """One ``repro.allocate(config)`` per operation, verification included."""

    name = "config-stream"
    RANDOM_POOL = 180
    #: per pass: (family, count).  The proportions are fixed and each seed
    #: draws most of each random family, so the median and the tail (set by
    #: the few heaviest instances) barely depend on the seed.
    MIX = (("fig2", 4), ("fig3", 4), ("chain8", 1), ("csdf", 3), ("rdag", 160), ("het", 160))

    def pool(self) -> List[str]:
        keys = _capacity_keys("fig2") + _capacity_keys("fig3") + ["chain8"]
        keys += [f"csdf-{s}x{p}" for s in range(2, 6) for p in (2, 3)]
        keys += [f"rdag-{i}" for i in range(self.RANDOM_POOL)]
        keys += [f"het-{i}" for i in range(self.RANDOM_POOL)]
        return keys

    def select(self, seed: int) -> List[str]:
        rng = random.Random(f"{self.name}:{seed}")
        pool = self.pool()
        keys: List[str] = []
        for family, count in self.MIX:
            members = [key for key in pool if key.split("-")[0] == family]
            keys += rng.sample(members, count)
        rng.shuffle(keys)
        return keys

    @staticmethod
    def configuration(key: str):
        family, _, rest = key.partition("-")
        if family in ("fig2", "fig3"):
            return _paper_configuration(key)
        if family == "chain8":
            return chain_configuration(stages=8)
        if family == "csdf":
            stages, phases = rest.split("x")
            return csdf_chain_configuration(stages=int(stages), phases_per_task=int(phases))
        if family == "rdag":
            return random_dag_configuration(task_count=6, processor_count=4, seed=int(rest))
        if family == "het":
            return heterogeneous_random_configuration(seed=int(rest))
        raise ValueError(f"unknown config-stream key {key!r}")

    def generate(self, keys: List[str]) -> list:
        return [(key, self.configuration(key)) for key in keys]

    def run(self, item, traced: bool, op_id: int):
        try:
            return allocate(item[1])
        except InfeasibleProblemError:
            return INFEASIBLE

    def describe(self, item, outcome):
        if outcome == INFEASIBLE:
            return {"status": INFEASIBLE, "objective": None}
        return {"status": OPTIMAL, "objective": outcome.objective_value}

    def check(self, item, outcome) -> Optional[str]:
        recorded = self.reference.get(item[0])
        if recorded is None:
            return f"{item[0]}: no recorded outcome"
        got = self.describe(item, outcome)
        if got["status"] != recorded["status"]:
            return f"{item[0]}: status {got['status']}, recorded {recorded['status']}"
        if not objective_ok(got["objective"], recorded["objective"]):
            return f"{item[0]}: objective {got['objective']!r} > recorded {recorded['objective']!r}"
        return None


# -- paper-cli ---------------------------------------------------------------------
@dataclass
class CliOutcome:
    returncode: int
    maxrss_kb: int
    stdout_path: Path
    output_path: Path
    log_path: Optional[Path]


_NEWTON_LINE = re.compile(r"Newton iterations:\s+(\d+) \(\+(\d+) in phase I\)")


def child_environment(src: Path) -> Dict[str, str]:
    """The environment of every child interpreter: the checkout's ``src`` first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(args: List[str], env: Dict[str, str], stdout_path: Path):
    """Run one child interpreter to completion; returns (exit code, peak RSS in KB)."""
    with open(stdout_path, "wb") as stdout:
        process = subprocess.Popen(
            [sys.executable, *args], env=env, stdout=stdout, stderr=subprocess.STDOUT
        )
    try:
        _, status, usage = os.wait4(process.pid, 0)
    except BaseException:
        process.kill()
        process.wait()
        raise
    process.returncode = os.waitstatus_to_exitcode(status)
    return process.returncode, usage.ru_maxrss


class PaperCli(Workload):
    """One fresh ``python -m repro.cli allocate <config> --output F --stats`` child per operation."""

    name = "paper-cli"

    def __init__(self, reference, workdir, src) -> None:
        super().__init__(reference, workdir, src)
        self.env = child_environment(src)

    def pool(self) -> List[str]:
        return _capacity_keys("fig2")

    def select(self, seed: int) -> List[str]:
        keys = self.pool()
        random.Random(f"{self.name}:{seed}").shuffle(keys)
        return keys

    def generate(self, keys: List[str]) -> list:
        items = []
        for key in keys:
            path = self.workdir / f"cli-{key}.json"
            serialization.save_configuration(_paper_configuration(key), path)
            items.append((key, path))
        return items

    def _paths(self, op_id: int):
        tag = f"op{op_id}"
        return (
            self.workdir / f"{tag}.stdout",
            self.workdir / f"{tag}.out.json",
            self.workdir / f"{tag}.telemetry.jsonl",
        )

    def run(self, item, traced: bool, op_id: int):
        stdout_path, output_path, log_path = self._paths(op_id)
        for path in (output_path, log_path):
            if path.exists():
                path.unlink()
        args = ["-m", "repro.cli", "allocate", str(item[1]), "--output", str(output_path), "--stats"]
        if traced:
            args += ["--telemetry-log", str(log_path)]
        returncode, maxrss = run_child(args, self.env, stdout_path)
        return CliOutcome(returncode, maxrss, stdout_path, output_path, log_path if traced else None)

    def describe(self, item, outcome: CliOutcome):
        data = json.loads(outcome.output_path.read_text(encoding="utf-8"))
        return {"budgets": data["budgets"], "capacities": data["buffer_capacities"]}

    def check(self, item, outcome) -> Optional[str]:
        if outcome.returncode != 0:
            return f"{item[0]}: exit code {outcome.returncode}"
        recorded = self.reference.get(item[0])
        if recorded is None:
            return f"{item[0]}: no recorded outcome"
        try:
            got = self.describe(item, outcome)
        except (OSError, ValueError, KeyError) as error:
            return f"{item[0]}: unreadable output ({error})"
        if got != recorded:
            return f"{item[0]}: allocation {got} differs from recorded {recorded}"
        if self.newton(outcome) is None:
            return f"{item[0]}: no Newton iteration count in the --stats output"
        return None

    def newton(self, outcome) -> Optional[int]:
        if not isinstance(outcome, CliOutcome):
            return None
        match = _NEWTON_LINE.search(outcome.stdout_path.read_text(encoding="utf-8", errors="replace"))
        return None if match is None else int(match.group(1)) + int(match.group(2))

    def telemetry(self, outcome, spans: list, metrics: dict):
        """The span trees and metrics snapshot the traced child wrote."""
        spans, metrics = [], {}
        if isinstance(outcome, CliOutcome) and outcome.log_path.exists():
            for record in read_records(outcome.log_path):
                if record["kind"] == "span":
                    spans.append(record["span"])
                else:
                    metrics = record["metrics"]
        return spans, metrics

    def subjects(self, pairs: list) -> List[Subject]:
        subjects = []
        for item, _ in pairs:
            configuration = serialization.load_configuration(item[1])
            subjects.append(Subject(item[1], configuration, [allocate(configuration)]))
        return subjects


# -- admission-replay --------------------------------------------------------------
@dataclass
class TraceEnd:
    """Outcome of a trace's last event: its record plus the controller."""

    record: object
    controller: AdmissionController


class AdmissionReplay(Workload):
    """One event of a seeded ``random_trace``, applied through ``admit``/``depart``."""

    name = "admission-replay"
    #: Every pass replays the same twelve traces; the seed only orders them.
    #: Events are bimodal (departures and first arrivals are cheap, later
    #: arrivals are not) and one trace can carry a seventh of a pass's Newton
    #: iterations, so any seed-dependent choice of traces moves the median
    #: event time by more than the bound.
    TRACE_POOL = 12
    whole_passes = True

    def __init__(self, reference, workdir, src) -> None:
        super().__init__(reference, workdir, src)
        self.controllers: Dict[bool, AdmissionController] = {}

    def pool(self) -> List[str]:
        return [f"trace-{i}" for i in range(self.TRACE_POOL)]

    def select(self, seed: int) -> List[str]:
        keys = self.pool()
        random.Random(f"{self.name}:{seed}").shuffle(keys)
        return keys

    def generate(self, keys: List[str]) -> list:
        items = []
        for key in keys:
            trace = random_trace(seed=int(key.split("-")[1]))
            last = len(trace.events) - 1
            items += [(key, trace, index, event, index == last) for index, event in enumerate(trace.events)]
        return items

    def warm_up(self) -> None:
        """The first three events of the pool's first trace, the same for every seed."""
        items = self.generate(self.pool()[:1])
        controller = AdmissionController(items[0][1].platform)
        for key, trace, index, event, _ in items[:3]:
            apply_trace_event(controller, index, event)

    def prepare(self, item, traced: bool) -> None:
        if item[2] == 0:
            self.controllers[traced] = AdmissionController(item[1].platform)

    def run(self, item, traced: bool, op_id: int):
        controller = self.controllers[traced]
        record = apply_trace_event(controller, item[2], item[3])
        return TraceEnd(record, controller) if item[4] else record

    def describe(self, item, outcome):
        record = outcome.record if isinstance(outcome, TraceEnd) else outcome
        return {"status": record.status, "stage": record.stage, "objective": record.objective_value}

    def check(self, item, outcome) -> Optional[str]:
        key, index = item[0], item[2]
        events = self.reference.get(key)
        if events is None or index >= len(events):
            return f"{key}[{index}]: no recorded outcome"
        recorded, got = events[index], self.describe(item, outcome)
        if (got["status"], got["stage"]) != (recorded["status"], recorded["stage"]):
            return (
                f"{key}[{index}]: {got['status']}/{got['stage']}, "
                f"recorded {recorded['status']}/{recorded['stage']}"
            )
        if not objective_ok(got["objective"], recorded["objective"]):
            return f"{key}[{index}]: objective {got['objective']!r} > recorded {recorded['objective']!r}"
        if isinstance(outcome, TraceEnd) and outcome.controller.mapped is not None:
            controller = outcome.controller
            report = controller.allocator.verify_workload(controller.mapped)
            if not report.is_valid:
                return f"{key}: final mapping fails verification: {report.summary()}"
        return None

    def subjects(self, pairs: list) -> List[Subject]:
        """Each trace's final running workload with its joint mapping."""
        subjects = []
        for item, outcome in pairs:
            if not isinstance(outcome, TraceEnd) or outcome.controller.mapped is None:
                continue
            controller = outcome.controller
            path = save_model(controller.workload, self.workdir / f"subject-{item[0]}.json")
            subjects.append(Subject(path, controller.workload, list(controller.mapped.applications.values())))
        return subjects


# -- workload-scale ----------------------------------------------------------------
class WorkloadScale(Workload):
    """One joint ``allocate_workload`` of a fresh seeded multi-application workload."""

    name = "workload-scale"
    APPLICATIONS = 32
    WORKLOAD_POOL = 48
    WORKLOADS_PER_PASS = 12

    def __init__(self, reference, workdir, src) -> None:
        super().__init__(reference, workdir, src)
        self.allocator = JointAllocator(options=AllocatorOptions(verify=False))
        self.verifier = JointAllocator()

    def pool(self) -> List[str]:
        return [f"wl-{i}" for i in range(self.WORKLOAD_POOL)]

    def select(self, seed: int) -> List[str]:
        return random.Random(f"{self.name}:{seed}").sample(self.pool(), self.WORKLOADS_PER_PASS)

    def generate(self, keys: List[str]) -> list:
        return [
            (key, random_workload(
                application_count=self.APPLICATIONS, granularity=0.05, seed=int(key.split("-")[1])
            ))
            for key in keys
        ]

    def run(self, item, traced: bool, op_id: int):
        try:
            return self.allocator.allocate_workload(item[1])
        except InfeasibleProblemError:
            return INFEASIBLE

    def describe(self, item, outcome):
        if outcome == INFEASIBLE:
            return {"status": INFEASIBLE, "objective": None}
        return {"status": OPTIMAL, "objective": outcome.objective_value}

    def mappings(self, outcome) -> list:
        return list(outcome.applications.values())

    def check(self, item, outcome) -> Optional[str]:
        recorded = self.reference.get(item[0])
        if recorded is None:
            return f"{item[0]}: no recorded outcome"
        got = self.describe(item, outcome)
        if got["status"] != OPTIMAL or recorded["status"] != OPTIMAL:
            return f"{item[0]}: status {got['status']}, recorded {recorded['status']}"
        if not objective_ok(got["objective"], recorded["objective"]):
            return f"{item[0]}: objective {got['objective']!r} > recorded {recorded['objective']!r}"
        report = self.verifier.verify_workload(outcome)
        if not report.is_valid:
            return f"{item[0]}: mapping fails verification: {report.summary()}"
        return None


WORKLOADS = {
    cls.name: cls for cls in (PaperCli, ConfigStream, AdmissionReplay, WorkloadScale)
}


def save_model(model, path: Path) -> Path:
    """Write a configuration or workload as JSON (the taskgraph loaders' input)."""
    if hasattr(model, "applications"):
        save_workload(model, path)
    else:
        serialization.save_configuration(model, path)
    return path
