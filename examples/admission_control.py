"""Run-time admission control: applications arriving at and leaving a platform.

The DATE 2010 setting is a run-time one: applications start and stop on a
shared MPSoC, and budgets and buffer capacities must be re-allocated on the
fly.  This example streams an evening of events at a set-top box — the video
decoder starts, audio joins, a picture-in-picture decoder asks to join (and
is admitted), a heavyweight transcode job asks to join (and is *rejected*
with a structured reason), the main video stops, after which the transcode
fits — through an :class:`~repro.core.admission.AdmissionController`.

Every event edits one running session: the program is rebuilt for the new
membership, and the applications that keep running keep their share of the
previous optimum, so an admission decision is a warm-started re-solve that
usually skips phase I.
"""

from __future__ import annotations

from repro.core import AdmissionController
from repro.taskgraph import ConfigurationBuilder


def pipeline(name: str, stages: int, wcet: float, period: float, pin: float = None):
    """A chain of ``stages`` tasks over the two shared processors.

    ``pin`` fixes the first task's budget exactly (a firm contract), which
    compilation substitutes out of the program.
    """
    builder = (
        ConfigurationBuilder(name=name, granularity=1.0)
        .processor("p1", replenishment_interval=40.0)
        .processor("p2", replenishment_interval=40.0)
        .memory("m1")
        .task_graph(name, period=period)
    )
    for index in range(stages):
        bound = pin if index == 0 else None
        builder.task(
            f"{name}_t{index}",
            wcet=wcet,
            processor=f"p{index % 2 + 1}",
            min_budget=bound,
            max_budget=bound,
        )
    for index in range(stages - 1):
        builder.buffer(
            f"{name}_b{index}",
            source=f"{name}_t{index}",
            target=f"{name}_t{index + 1}",
            memory="m1",
        )
    return builder.build()


def describe(decision) -> str:
    if decision.admitted:
        return "admitted"
    return f"REJECTED at the {decision.stage} stage: {decision.reason.splitlines()[0]}"


def main() -> None:
    video = pipeline("video", stages=3, wcet=2.0, period=10.0, pin=10.0)
    controller = AdmissionController(video.platform, name="set-top-box")

    print("Run-time admission control on a shared two-processor platform")
    print("=" * 62)

    events = [
        ("arrive", "video", video),
        ("arrive", "audio", pipeline("audio", stages=2, wcet=1.0, period=20.0, pin=3.0)),
        ("arrive", "pip", pipeline("pip", stages=2, wcet=1.5, period=10.0, pin=7.0)),
        ("arrive", "transcode", pipeline("transcode", stages=3, wcet=2.0, period=8.0, pin=12.0)),
        ("depart", "video", None),
        ("arrive", "transcode", pipeline("transcode", stages=3, wcet=2.0, period=8.0, pin=12.0)),
    ]
    for action, name, configuration in events:
        if action == "arrive":
            decision = controller.admit(name, configuration)
            print(f"\narrive {name!r}: {describe(decision)}")
        else:
            controller.depart(name)
            print(f"\ndepart {name!r}")
        print(f"  running: {sorted(controller.running)}")
        if controller.mapped is not None:
            for row in controller.mapped.budget_split_rows():
                shares = ", ".join(
                    f"{app}={row[f'budget[{app}]']:.0f}"
                    for app in controller.running
                )
                print(
                    f"  {row['processor']}: {shares}  "
                    f"(utilisation {row['utilisation']:.0%})"
                )

    stats = controller.session_stats
    print(
        f"\n{stats.solves} joint solves across the evening: "
        f"{stats.warm_started} warm-started, phase I skipped "
        f"{stats.phase1_skipped}x"
    )


if __name__ == "__main__":
    main()
