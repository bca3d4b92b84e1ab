"""Self-test of the benchmark's output checks and statistics.

    python3 perfbench/run.py --self-test

Shows that an injected worse objective, a flipped admission verdict and a
raising operation each count as a failed operation, that a better
objective does not, and that the tail percentile and the compare verdicts
follow their stated rules.  Exits 0 when every check holds.
"""

from __future__ import annotations

from types import SimpleNamespace


def expect(condition: bool, message: object) -> None:
    """A check that holds under ``python -O`` too."""
    if not condition:
        raise AssertionError(message)


def _record(status, stage, objective):
    return SimpleNamespace(status=status, stage=stage, objective_value=objective)


def check_objectives() -> None:
    from workloads import INFEASIBLE, ConfigStream, WorkloadScale

    reference = {"optimal": {"status": "optimal", "objective": 10.0}}
    for cls in (ConfigStream, WorkloadScale):
        workload = cls({cls.name: reference}, None, None)
        item = ("optimal", None)
        expect(workload.check(item, SimpleNamespace(objective_value=10.5)) is not None, "worse objective passed")
        expect(workload.check(item, INFEASIBLE) is not None, "flipped status passed")
    stream = ConfigStream({ConfigStream.name: reference}, None, None)
    expect(stream.check(("optimal", None), SimpleNamespace(objective_value=9.5)) is None, "better objective failed")
    expect(stream.check(("optimal", None), SimpleNamespace(objective_value=10.0 + 1e-6)) is None, "slack not applied")


def check_admission() -> None:
    from workloads import AdmissionReplay

    events = [
        {"status": "admitted", "stage": None, "objective": 5.0},
        {"status": "rejected", "stage": "solver", "objective": 5.0},
    ]
    workload = AdmissionReplay({AdmissionReplay.name: {"trace-0": events}}, None, None)
    first, second = ("trace-0", None, 0, None, False), ("trace-0", None, 1, None, False)
    expect(workload.check(first, _record("admitted", None, 4.0)) is None, "better objective failed")
    expect(workload.check(first, _record("admitted", None, 5.1)) is not None, "worse objective passed")
    expect(workload.check(first, _record("rejected", "solver", 5.0)) is not None, "flipped verdict passed")
    expect(workload.check(second, _record("rejected", "load-screen", 5.0)) is not None, "changed stage passed")
    expect(workload.check(second, _record("rejected", "solver", 5.0)) is None, "recorded rejection failed")


def check_failure_accounting() -> None:
    from run import Op, check_ops
    from workloads import ConfigStream, Failed

    workload = ConfigStream({ConfigStream.name: {"k": {"status": "optimal", "objective": 10.0}}}, None, None)
    outcomes = [
        SimpleNamespace(objective_value=9.0),
        SimpleNamespace(objective_value=11.0),
        Failed("NumericalError: injected"),
    ]
    ops = [Op(0, 0, False, 0.01, outcome) for outcome in outcomes]
    failures = check_ops(workload, [("k", None)], ops)
    expect(len(failures) == 2, failures)


def check_statistics() -> None:
    from compare import verdict
    from run import tail

    value, percentile = tail([float(v) for v in range(1, 101)])
    expect((value, percentile) == (90.0, 90.0), (value, percentile))
    parent = [100.0, 101.0, 99.0, 100.5, 99.5]
    faster = [80.0, 81.0, 79.0, 80.5, 79.5]
    slower = [130.0, 131.0, 129.0, 130.5, 129.5]
    same = [100.2, 100.8, 99.4, 100.1, 99.9]
    noisy = [50.0, 150.0, 100.0, 60.0, 140.0]
    for base, change, expected in (
        (parent, faster, "improved"),
        (parent, slower, "regressed"),
        (parent, same, "unchanged"),
        (noisy, same, "unresolved"),
    ):
        got = verdict(base, change, list(zip(base, change)), "lower", 0.1)[0]
        expect(got == expected, f"verdict {got}, expected {expected}")


def main() -> int:
    for check in (check_objectives, check_admission, check_failure_accounting, check_statistics):
        check()
        print(f"ok  {check.__name__}")
    return 0
