"""Pipeline schedules as timing models: GPipe and 1F1B.

Both schedules do the same work — ``M`` microbatches through ``P`` stages
— and share the bubble fraction ``(P-1)/(M+P-1)``; they differ in *when*
backward work interleaves, which bounds how many microbatches' activations
are live at once (``M`` for GPipe, ``<= P`` for 1F1B: the memory win).

:func:`pipeline_step_time` builds the chosen schedule as a DES task graph
(one resource per stage, boundary transfers on explicit link resources)
and returns the simulated makespan, so bubble arithmetic and communication
exposure come from the same machinery as the attention overlap models.

Relevance to the paper (the ``ext-pp`` experiment): pipeline
microbatching needs many *independent* microbatches, but a 1M-token
sequence is one sample, so long-context training cannot slice its way to
pipeline efficiency.
"""

from __future__ import annotations

from repro.perf.des import Simulator


def gpipe_bubble_fraction(num_stages: int, num_microbatches: int) -> float:
    """Idle fraction of the classic synchronous pipeline."""
    if num_stages < 1 or num_microbatches < 1:
        raise ValueError("stages and microbatches must be >= 1")
    p, m = num_stages, num_microbatches
    return (p - 1) / (m + p - 1)


def in_flight_microbatches(num_stages: int, num_microbatches: int,
                           schedule: str = "1f1b") -> int:
    """Peak number of microbatches whose activations are live on stage 0."""
    if schedule == "gpipe":
        return num_microbatches
    if schedule == "1f1b":
        return min(num_stages, num_microbatches)
    raise ValueError(f"unknown schedule {schedule!r}")


def _build(sim: Simulator, p: int, m: int, t_fwd: float, t_bwd: float,
           t_comm: float, one_f_one_b: bool) -> None:
    """Emit fwd/bwd tasks for every (stage, microbatch) pair.

    Dependencies: a microbatch's forward on stage ``s`` needs its forward
    on ``s-1`` (+ transfer); its backward on ``s`` needs its backward on
    ``s+1`` (+ transfer) and its own forward.  1F1B additionally forces
    stage ``p-1`` to run each backward as soon as its forward completes
    (FIFO per-stage resources then produce the interleaving); GPipe delays
    every backward behind all forwards of its stage.
    """
    for j in range(m):
        for s in range(p):
            deps = []
            if s > 0:
                deps.append(f"cf{s-1}.{j}")
            if j > 0:
                pass  # ordering within a stage is enforced by the resource
            sim.add(f"f{s}.{j}", t_fwd, resources=(f"stage{s}",), deps=deps)
            if s > 0:
                sim.add(f"cf{s-1}.{j}", t_comm, resources=(f"link{s-1}",),
                        deps=[f"f{s-1}.{j}"])
    for j in range(m):
        for s in reversed(range(p)):
            deps = [f"f{s}.{j}"]
            if s < p - 1:
                deps.append(f"cb{s}.{j}")
            if not one_f_one_b:
                # GPipe: all forwards of this stage precede any backward.
                deps.append(f"f{s}.{m-1}")
            sim.add(f"b{s}.{j}", t_bwd, resources=(f"stage{s}",), deps=deps)
            if s > 0:
                sim.add(f"cb{s-1}.{j}", t_comm, resources=(f"link{s-1}",),
                        deps=[f"b{s}.{j}"])


def pipeline_step_time(
    num_stages: int,
    num_microbatches: int,
    t_stage_fwd: float,
    t_stage_bwd: float | None = None,
    t_comm: float = 0.0,
    schedule: str = "1f1b",
) -> float:
    """Simulated makespan of one pipeline-parallel training step."""
    if schedule not in ("1f1b", "gpipe"):
        raise ValueError(f"unknown schedule {schedule!r}")
    t_bwd = t_stage_bwd if t_stage_bwd is not None else 2.0 * t_stage_fwd
    sim = Simulator()
    _build(sim, num_stages, num_microbatches, t_stage_fwd, t_bwd, t_comm,
           one_f_one_b=(schedule == "1f1b"))
    return sim.run()


def pipeline_efficiency(
    num_stages: int, num_microbatches: int, t_stage_fwd: float,
    t_stage_bwd: float | None = None, t_comm: float = 0.0,
    schedule: str = "1f1b",
) -> float:
    """Useful-work fraction: ideal time / simulated makespan."""
    t_bwd = t_stage_bwd if t_stage_bwd is not None else 2.0 * t_stage_fwd
    ideal = num_microbatches * (t_stage_fwd + t_bwd)
    return ideal / pipeline_step_time(
        num_stages, num_microbatches, t_stage_fwd, t_bwd, t_comm, schedule
    )
