"""Predicted critical-path summaries for ring-family attention passes.

One attention pass (forward or backward) of a ring-family method is a
small task graph: per-step compute on the ``compute`` resource overlapped
with ring transitions on the ``intra`` / ``inter`` link resources (plus
their ``-rev`` twins under the bidirectional mode), ending — on a backward
pass — with the return-to-owner hop.  The graph has one builder,
:func:`repro.perf.schedules.attention.attention_pass_sim`; this module
reduces its runs to the quantities the attribution gate compares.

:func:`summarize_sim` gives makespan, compute-busy and comm-busy seconds,
and the *exposed* communication time (makespan minus compute busy — the
comm seconds the overlap failed to hide, Fig. 5's whole argument).
:func:`closed_form_pass_comm` gives the serialized comm seconds of one
unidirectional pass straight from the bytes of its hops — the whole
bundle per transition, the carried slots on the return hop, at the
workload's head count — with no simulation at all.
"""

from __future__ import annotations

from repro.perf.cost import link_time
from repro.perf.des import Simulator
from repro.perf.schedules.attention import attention_pass_hops

__all__ = [
    "closed_form_pass_comm",
    "summarize_sim",
]


def summarize_sim(sim: Simulator) -> dict[str, float]:
    """Critical-path summary of a run pass simulator.

    ``exposed_comm_s`` is the communication time the overlap failed to
    hide — makespan minus compute-busy; ``overlapped_comm_s`` is the rest
    of the comm-busy seconds.  All values are modeled (A800) seconds.
    """
    makespan = sim.makespan
    compute_busy = 0.0
    comm_busy = 0.0
    for task in sim.timeline():
        if "compute" in task.resources:
            compute_busy += task.duration
        elif task.resources:
            comm_busy += task.duration
    exposed = max(0.0, makespan - compute_busy)
    return {
        "makespan_s": makespan,
        "compute_busy_s": compute_busy,
        "comm_busy_s": comm_busy,
        "exposed_comm_s": exposed,
        "overlapped_comm_s": max(0.0, comm_busy - exposed),
        "exposed_comm_frac": exposed / makespan if makespan else 0.0,
    }


def closed_form_pass_comm(
    method: str,
    topology,
    workload,
    *,
    backward: bool,
    ring_window: int | None = None,
) -> float:
    """Serialized comm seconds of one *unidirectional* pass, closed-form.

    Prices every hop of the method's ring as one message of the bytes it
    ships (:func:`attention_pass_hops`): the ``G - 1`` transitions at the
    whole bundle the pass circulates (the executed size, one D and one Lse
    row per head) and, on a backward pass, the return hop at its carried
    slots — no DES involved, so an observed trace's comm-busy seconds can
    be cross-checked against the paper's Table-1 cost terms independently
    of the overlap model.
    """
    hops, _ = attention_pass_hops(
        method, topology, workload, backward=backward, ring_window=ring_window
    )
    return sum(
        link_time(topology, sum(messages), cls) for cls, messages in hops
    )
