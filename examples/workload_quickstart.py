"""Workload quickstart: several applications jointly allocated on one platform.

The budget schedulers of the paper's MPSoC exist because several applications
share the processors.  This example builds exactly that scenario: a video
decoder and an audio pipeline — two independent applications with their own
throughput requirements — mapped onto one shared three-processor platform.

One block-structured cone program allocates both applications at once: each
application contributes its own variables and throughput constraints, and the
applications meet only in the shared processor/memory capacity rows.  The
result reports budgets and buffer capacities per application plus the budget
split on every shared processor, and a capacity sweep shows how much
processor budget the video application gives back as *its* buffers grow while
the audio application keeps running untouched.
"""

from __future__ import annotations

from repro.core import AllocatorOptions, JointAllocator, TradeoffExplorer
from repro.taskgraph import ConfigurationBuilder, Workload


def video_application():
    """A three-stage decode pipeline spread over all three processors."""
    return (
        ConfigurationBuilder(name="video", granularity=1.0)
        .processor("p1", replenishment_interval=40.0)
        .processor("p2", replenishment_interval=40.0)
        .processor("p3", replenishment_interval=40.0)
        .memory("m1")
        .task_graph("decode", period=10.0)
        .task("parse", wcet=1.0, processor="p1")
        .task("idct", wcet=1.5, processor="p2")
        .task("render", wcet=1.0, processor="p3")
        .buffer("b_parse_idct", source="parse", target="idct", memory="m1")
        .buffer("b_idct_render", source="idct", target="render", memory="m1")
        .build()
    )


def audio_application():
    """A two-stage audio pipeline sharing processors p1 and p2 with the video."""
    return (
        ConfigurationBuilder(name="audio", granularity=1.0)
        .processor("p1", replenishment_interval=40.0)
        .processor("p2", replenishment_interval=40.0)
        .processor("p3", replenishment_interval=40.0)
        .memory("m1")
        .task_graph("playback", period=20.0)
        .task("decode", wcet=1.0, processor="p1")
        .task("mix", wcet=1.0, processor="p2")
        .buffer("b_decode_mix", source="decode", target="mix", memory="m1")
        .build()
    )


def main() -> None:
    video = video_application()
    workload = Workload(video.platform, name="set-top-box")
    workload.add_application("video", video)
    workload.add_application("audio", audio_application())

    allocator = JointAllocator(options=AllocatorOptions(run_simulation=True))
    mapped = allocator.allocate_workload(workload)

    print("Joint allocation of the set-top-box workload")
    print("=" * 52)
    for app_name, app_mapped in mapped.applications.items():
        print(f"\napplication {app_name!r}:")
        for task_name, budget in sorted(app_mapped.budgets.items()):
            print(f"  budget  {task_name:<12} {budget:6.2f} Mcycles")
        for buffer_name, capacity in sorted(app_mapped.buffer_capacities.items()):
            print(f"  buffer  {buffer_name:<14} {capacity:3d} containers")

    print("\nbudget split on the shared processors:")
    for row in mapped.budget_split_rows():
        shares = ", ".join(
            f"{name}={row[f'budget[{name}]']:.1f}"
            for name in workload.application_names
        )
        print(
            f"  {row['processor']}: {shares}  "
            f"(total {row['total']:.1f}, utilisation {row['utilisation']:.0%})"
        )
    print(f"\nverification: {mapped.solver_info['verification']}")

    # Sweep the video application's buffer bound while the audio app stays
    # fixed: the admission-style question of a loaded shared platform.
    explorer = TradeoffExplorer(
        allocator_options=AllocatorOptions(run_simulation=False)
    )
    curve = explorer.sweep_application_capacity(workload, "video", range(2, 7))
    print("\nvideo buffer bound vs video budget (audio untouched):")
    for point in curve.feasible_points():
        video_budget = sum(
            budget
            for name, budget in point.relaxed_budgets.items()
            if name.startswith("video/")
        )
        print(
            f"  <= {point.capacity_limit} containers/buffer: "
            f"video needs {video_budget:6.2f} Mcycles"
        )
    stats = curve.solver_stats
    print(
        f"\nsweep solved through one warm-started session: "
        f"{stats['compiles']} compilation(s), {stats['solves']} solves, "
        f"phase I skipped {stats['phase1_skipped']}x"
    )


if __name__ == "__main__":
    main()
