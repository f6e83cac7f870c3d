"""Critical-path attribution over observed traces.

Walks the causal structure of one observed Chrome trace (duration spans
plus the flow edges of :mod:`repro.obs.flow`) and answers three questions:

1. **Where did the step's wall time go?**  :func:`attribute_steps` sweeps
   every ``train.step`` window and buckets each instant, per rank, into
   *compute* (compute-phase spans only), *comm-exposed* (communication
   with no compute under it — the time Fig. 5's overlap failed to hide),
   *overlapped* (both at once) and *idle* (neither).  The four buckets
   partition the window by construction, which
   :func:`check_conservation` verifies to ``CONSERVATION_RTOL``.

2. **Does the observed overlap match the model?**  :func:`attribute_trace`
   replays the first observed attention pass through the *same* DES graph
   that prices the prediction (:func:`repro.perf.schedules.attention
   .attention_pass_sim`), substituting hop durations priced from the bytes
   each observed ``ring.transition`` actually carried — the return hop and
   the reverse seed included, each on the link row the model prices it
   on — and pins the
   resulting exposed-communication fraction against the modeled one — and,
   under the unidirectional mode, the replayed comm-busy seconds against
   the closed form of the pass's executed bundle layout
   (:func:`repro.perf.criticalpath.closed_form_pass_comm`).

3. **Who is slow?**  :func:`straggler_ranking` aggregates the simulated
   stall seconds of ``lease.wait`` / ``failure.detect`` spans per rank,
   and :func:`critical_spans` ranks individual spans by cost (simulated
   wait seconds when present, wall time otherwise) — the table a
   post-mortem bundle leads with.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Any

from repro.obs.export import ATTRIBUTION_SCHEMA
from repro.obs.flow import ROUNDING_SLACK_US
from repro.obs.report import as_payload, merged_intervals, x_events

__all__ = [
    "COMM_PHASES",
    "COMPUTE_PHASES",
    "CONSERVATION_RTOL",
    "attribute_steps",
    "attribute_trace",
    "check_conservation",
    "critical_spans",
    "render_attribution",
    "step_windows",
    "straggler_ranking",
]

#: Span phases whose occupancy counts as computation.
COMPUTE_PHASES = frozenset({"compute", "ckpt-recompute", "lmhead"})

#: Span phases whose occupancy counts as communication.
COMM_PHASES = frozenset({"comm", "intra-ring", "inter-ring"})

#: Relative tolerance of the bucket-conservation gate.
CONSERVATION_RTOL = 1e-9

#: Span names carrying simulated stall seconds (``args.sim_wait_s``).
_STALL_SPANS = ("lease.wait", "failure.detect")


# --------------------------------------------------------------------------
# per-step, per-rank wall-time attribution
# --------------------------------------------------------------------------

def step_windows(payload: dict | str) -> list[tuple[int, float, float]]:
    """``(step, start_us, end_us)`` of every ``train.step`` span, by time."""
    windows = []
    for e in x_events(payload):
        if e.get("name") != "train.step":
            continue
        step = e.get("args", {}).get("step", len(windows))
        windows.append((step, e["ts"], e["ts"] + e["dur"]))
    windows.sort(key=lambda w: w[1])
    return windows


def _covered(merged: list[tuple[float, float]], x: float) -> bool:
    i = bisect_right(merged, (x, float("inf"))) - 1
    return i >= 0 and merged[i][1] > x


def _trace_ranks(payload: dict, events: list[dict]) -> list[int | None]:
    world = payload.get("metadata", {}).get("world_size")
    if world:
        return list(range(int(world)))
    seen = sorted(
        {e.get("args", {}).get("rank") for e in events} - {None}
    )
    return list(seen) or [None]


def attribute_steps(payload: dict | str) -> list[dict[str, Any]]:
    """Per-step, per-rank wall-time buckets over every ``train.step``.

    Each instant of a step window lands in exactly one bucket —
    ``compute_us`` / ``comm_exposed_us`` / ``overlapped_us`` / ``idle_us``
    — determined by whether a compute-phase and/or comm-phase span covers
    it.  Spans carrying ``args.rank`` count only toward that rank; the SPMD
    simulator's rank-less spans count for every rank.  The buckets sum to
    the window's wall time by construction (an elementary-interval sweep:
    every boundary is a span edge, membership decided at midpoints).
    """
    payload = as_payload(payload)
    events = x_events(payload)
    ranks = _trace_ranks(payload, events)
    out: list[dict[str, Any]] = []
    for step, t0, t1 in step_windows(payload):
        per_rank: dict[str, dict[str, float]] = {}
        for rank in ranks:
            compute: list[tuple[float, float]] = []
            comm: list[tuple[float, float]] = []
            for e in events:
                args = e.get("args", {})
                phase = args.get("phase")
                if phase in COMPUTE_PHASES:
                    bucket = compute
                elif phase in COMM_PHASES:
                    bucket = comm
                else:
                    continue
                er = args.get("rank")
                if er is not None and rank is not None and er != rank:
                    continue
                s = max(e["ts"], t0)
                end = min(e["ts"] + e["dur"], t1)
                if end > s:
                    bucket.append((s, end))
            mc, mm = merged_intervals(compute), merged_intervals(comm)
            bounds = sorted(
                {t0, t1}
                | {b for iv in mc for b in iv}
                | {b for iv in mm for b in iv}
            )
            buckets = {
                "compute_us": 0.0,
                "comm_exposed_us": 0.0,
                "overlapped_us": 0.0,
                "idle_us": 0.0,
            }
            for a, b in zip(bounds, bounds[1:]):
                if b <= a:
                    continue
                mid = (a + b) / 2
                in_c, in_m = _covered(mc, mid), _covered(mm, mid)
                key = (
                    "overlapped_us" if in_c and in_m
                    else "compute_us" if in_c
                    else "comm_exposed_us" if in_m
                    else "idle_us"
                )
                buckets[key] += b - a
            per_rank["all" if rank is None else str(rank)] = buckets
        out.append({
            "step": step,
            "ts_us": t0,
            "wall_us": t1 - t0,
            "ranks": per_rank,
        })
    return out


def check_conservation(
    steps: list[dict[str, Any]], rtol: float = CONSERVATION_RTOL
) -> tuple[bool, float]:
    """Verify the four buckets sum to each step's wall time on every rank.

    Returns ``(ok, max_relative_error)``.
    """
    max_err = 0.0
    for step in steps:
        wall = step["wall_us"]
        for buckets in step["ranks"].values():
            total = (
                buckets["compute_us"] + buckets["comm_exposed_us"]
                + buckets["overlapped_us"] + buckets["idle_us"]
            )
            err = abs(total - wall) / wall if wall else abs(total - wall)
            max_err = max(max_err, err)
    return max_err <= rtol, max_err


# --------------------------------------------------------------------------
# stragglers and critical spans
# --------------------------------------------------------------------------

def straggler_ranking(payload: dict | str) -> list[dict[str, Any]]:
    """Rank ranks by simulated stall seconds charged against them.

    ``lease.wait`` and ``failure.detect`` spans carry ``args.sim_wait_s``
    (the detector-clock seconds the slowest participant held everyone up)
    and ``args.rank`` (who); ``lease.extend`` spans count lease extensions
    granted.  Returns one record per implicated rank, worst first; an
    empty list means no rank ever exceeded the nominal op time.
    """
    stats: dict[Any, dict[str, Any]] = {}
    for e in x_events(payload):
        name = e.get("name")
        if name not in _STALL_SPANS and name != "lease.extend":
            continue
        args = e.get("args", {})
        rank = args.get("rank")
        rec = stats.setdefault(
            rank, {"rank": rank, "stall_s": 0.0, "extensions": 0, "waits": 0}
        )
        if name == "lease.extend":
            rec["extensions"] += 1
        else:
            rec["stall_s"] += float(args.get("sim_wait_s", 0.0))
            rec["waits"] += 1
    return sorted(
        stats.values(), key=lambda r: (-r["stall_s"], -r["extensions"])
    )


def critical_spans(payload: dict | str, k: int = 5) -> list[dict[str, Any]]:
    """Top-``k`` spans by cost: the table a post-mortem leads with.

    Cost is ``args.sim_wait_s`` when the span carries one (detector stalls
    dominate at simulated-seconds scale) and wall duration otherwise.
    Umbrella spans that merely contain other work (``train.step``, the
    ``attn`` pass wrappers, ``resilient.*`` delivery wrappers) are
    excluded so the ranking points at actual leaves.
    """
    entries = []
    for e in x_events(payload):
        name = e.get("name", "")
        args = e.get("args", {})
        if (
            name == "train.step"
            or name.startswith("resilient.")
            or args.get("phase") in ("step", "attn")
        ):
            continue
        if "sim_wait_s" in args:
            cost, kind = float(args["sim_wait_s"]), "sim-wait"
        else:
            cost, kind = e["dur"] / 1e6, "wall"
        entries.append({
            "name": name,
            "phase": args.get("phase"),
            "rank": args.get("rank"),
            "ts_us": e["ts"],
            "dur_us": e["dur"],
            "cost_s": cost,
            "kind": kind,
        })
    entries.sort(key=lambda r: -r["cost_s"])
    return entries[:k]


# --------------------------------------------------------------------------
# observed-pass replay and the exposed-comm pin
# --------------------------------------------------------------------------

def _observed_hop_bytes(
    transition: dict, events: list[dict], channel: str
) -> float:
    """Per-hop payload bytes of one observed ring hop.

    A ``ring.transition`` span wraps one ``comm.ring_shift`` per concurrent
    ring, or one ``comm.exchange`` for the reverse seed and the return hop;
    each logs the summed bytes over its hops, so bytes-per-transfer of any
    comm span inside the window is the circulating bundle size.
    ``events`` are the pass's logical phase only.
    """
    t0 = transition["ts"] - ROUNDING_SLACK_US
    t1 = transition["ts"] + transition["dur"] + ROUNDING_SLACK_US
    best = 0.0
    for e in events:
        if e.get("name") not in ("comm.ring_shift", "comm.exchange"):
            continue
        args = e["args"]
        if args.get("channel", "fwd") != channel:
            continue
        if e["ts"] < t0 or e["ts"] + e["dur"] > t1:
            continue
        transfers = max(int(args.get("transfers", 1)), 1)
        best = max(best, float(args.get("nbytes", 0.0)) / transfers)
    return best


def _price_transitions(
    observed: list[dict],
    modeled: list[tuple[str, float]],
    events: list[dict],
    topology,
    logical: str,
    channel: str,
) -> tuple[list[tuple[str, float]], list[str]]:
    """Price observed hops at their logged bytes on modeled links.

    Returns the ``(resource, duration)`` list to substitute into the DES
    replay, plus any structural mismatches (an observed hop's link row
    disagreeing with the modeled link class, or a hop containing no
    byte-carrying comm span).  Every hop's row is checked.
    """
    from repro.topology import LinkClass

    priced: list[tuple[str, float]] = []
    problems: list[str] = []
    for i, (tr, (res, _)) in enumerate(zip(observed, modeled)):
        row = tr.get("args", {}).get("phase", "")
        kind = "inter" if row == "inter-ring" else "intra"
        if kind != res:
            problems.append(
                f"{logical}/{channel} transition {i}: observed {kind} "
                f"link, schedule models {res}"
            )
        hop = _observed_hop_bytes(tr, events, channel)
        if hop <= 0:
            problems.append(
                f"{logical}/{channel} transition {i}: no byte-carrying "
                "comm span inside the transition window"
            )
        priced.append((res, topology.transfer_time(hop, LinkClass(res))))
    return priced, problems


def _pass_stall_s(events: list[dict]) -> float:
    return sum(
        float(e["args"].get("sim_wait_s", 0.0))
        for e in events if e.get("name") in _STALL_SPANS
    )


def _pin_pass(
    payload: dict,
    method: str,
    topology,
    workload,
    *,
    logical: str,
    backward: bool,
    ring_mode: str,
    tolerance: float,
) -> dict[str, Any]:
    """Pin one observed attention pass against its DES prediction.

    Replays the first observed pass through the method's own task graph
    with hop durations priced from observed bytes, then compares
    (a) the exposed-communication fraction — stall-adjusted, so detector
    waits count as exposed — against the modeled fraction, and (b) under
    the unidirectional mode, the replayed comm-busy seconds against the
    Table-1 closed forms.
    """
    from repro.perf.criticalpath import closed_form_pass_comm, summarize_sim
    from repro.perf.schedules.attention import (
        attention_pass_sim,
        attention_pass_transitions,
    )

    pin: dict[str, Any] = {"logical": logical, "ok": False}
    fwd_model, rev_model = attention_pass_transitions(
        method, topology, workload, backward=backward, ring_mode=ring_mode
    )
    events = sorted(
        (e for e in x_events(payload)
         if e.get("args", {}).get("logical") == logical),
        key=lambda e: e["ts"],
    )
    trans = [e for e in events if e.get("name") == "ring.transition"]
    fwd_ev = [e for e in trans if e["args"].get("direction", "fwd") != "rev"]
    rev_ev = [e for e in trans if e["args"].get("direction") == "rev"]
    # a backward pass's forward stream ends with its return hop
    n_f, n_r = len(fwd_model), len(rev_model)
    if n_f == 0:
        pin["error"] = f"{method} models no transitions for {logical}"
        return pin
    passes = len(fwd_ev) // n_f
    if not fwd_ev or len(fwd_ev) != passes * n_f or len(rev_ev) != passes * n_r:
        pin["error"] = (
            f"observed {len(fwd_ev)} fwd / {len(rev_ev)} rev hops for "
            f"{logical}; expected equal multiples of {n_f} / {n_r} per pass"
        )
        return pin
    fwd_obs, problems = _price_transitions(
        fwd_ev[:n_f], fwd_model, events, topology, logical, "fwd"
    )
    rev_obs = None
    if n_r:
        rev_obs, rev_problems = _price_transitions(
            rev_ev[:n_r], rev_model, events, topology, logical, "rev"
        )
        problems += rev_problems
    if problems:
        pin["error"] = "; ".join(problems)
        return pin
    obs_sim = summarize_sim(attention_pass_sim(
        method, topology, workload, backward=backward, ring_mode=ring_mode,
        fwd_durations=fwd_obs, rev_durations=rev_obs,
    ))
    pred_sim = summarize_sim(attention_pass_sim(
        method, topology, workload, backward=backward, ring_mode=ring_mode,
    ))
    stall_pp = _pass_stall_s(events) / passes
    denom = obs_sim["makespan_s"] + stall_pp
    obs_frac = (obs_sim["exposed_comm_s"] + stall_pp) / denom if denom else 0.0
    pred_frac = pred_sim["exposed_comm_frac"]
    frac_ok = abs(obs_frac - pred_frac) <= tolerance
    closed = replay_comm = None
    closed_ok = True
    if ring_mode != "bidirectional":
        closed = closed_form_pass_comm(
            method, topology, workload, backward=backward
        )
        replay_comm = obs_sim["comm_busy_s"]
        closed_ok = closed > 0 and abs(replay_comm - closed) <= tolerance * closed
    pin.update({
        "passes": passes,
        "observed_frac": obs_frac,
        "predicted_frac": pred_frac,
        "stall_s_per_pass": stall_pp,
        "replay": obs_sim,
        "predicted": pred_sim,
        "closed_form_comm_s": closed,
        "replay_comm_s": replay_comm,
        "frac_ok": frac_ok,
        "closed_form_ok": closed_ok,
        "ok": frac_ok and closed_ok,
    })
    return pin


# --------------------------------------------------------------------------
# the full attribution document
# --------------------------------------------------------------------------

def attribute_trace(
    payload: dict | str, *, tolerance: float = 0.05, top: int = 5
) -> dict[str, Any]:
    """Full causal attribution of one observed trace.

    Combines the per-step/per-rank wall-time buckets (with conservation
    check), the straggler ranking, the top-``top`` critical spans, and —
    for ring-family methods whose metadata names the config — the
    per-pass exposed-communication pins against the DES prediction and
    closed forms.  The document's ``ok`` is the overall gate: buckets
    conserve, every pin holds, and no rank stalled the detector clock.
    """
    payload = as_payload(payload)
    meta = dict(payload.get("metadata", {}))
    steps = attribute_steps(payload)
    cons_ok, max_err = check_conservation(steps)
    stragglers = straggler_ranking(payload)
    doc: dict[str, Any] = {
        "schema": ATTRIBUTION_SCHEMA,
        "metadata": meta,
        "steps": steps,
        "conservation": {
            "ok": cons_ok, "max_rel_err": max_err, "rtol": CONSERVATION_RTOL,
        },
        "stragglers": stragglers,
        "critical_spans": critical_spans(payload, k=top),
        "pins": {},
        "pin_skipped": None,
        "tolerance": tolerance,
    }
    from repro.perf.schedules.attention import METHOD_DES_FLAGS

    method = meta.get("method")
    needed = ("world_size", "gpus_per_node", "seq_len", "hidden", "n_heads")
    missing = [k for k in needed if meta.get(k) is None]
    pin_ok = True
    if method not in METHOD_DES_FLAGS:
        doc["pin_skipped"] = (
            f"method {method!r} has no ring-family DES pass graph; "
            "bucket attribution only"
        )
    elif missing:
        doc["pin_skipped"] = f"trace metadata missing {missing}"
    else:
        from repro.perf.schedules.attention import AttentionWorkload
        from repro.topology import a800_node, make_cluster

        topology = make_cluster(
            int(meta["world_size"]), node=a800_node(int(meta["gpus_per_node"]))
        )
        # The SPMD engine computes in float64, so pricing the closed forms
        # at 8 bytes/elem makes healthy observed bytes match them exactly.
        workload = AttentionWorkload(
            seq_len=int(meta["seq_len"]),
            hidden=int(meta["hidden"]),
            n_heads=int(meta["n_heads"]),
            bytes_per_elem=8,
        )
        ring_mode = meta.get("ring_mode", "unidirectional")
        for logical, backward in (("attn-fwd", False), ("attn-bwd", True)):
            pin = _pin_pass(
                payload, method, topology, workload,
                logical=logical, backward=backward,
                ring_mode=ring_mode, tolerance=tolerance,
            )
            doc["pins"][logical] = pin
            pin_ok = pin_ok and pin["ok"]
    straggler_ok = not any(s["stall_s"] > 0 for s in stragglers)
    doc["conservation_ok"] = cons_ok
    doc["pin_ok"] = pin_ok
    doc["straggler_ok"] = straggler_ok
    doc["ok"] = bool(cons_ok and pin_ok and straggler_ok)
    return doc


def render_attribution(doc: dict[str, Any]) -> str:
    """Plain-text rendering of an attribution document."""
    meta = doc.get("metadata", {})
    lines = [
        "critical-path attribution"
        + (
            f" — method={meta['method']}, world={meta.get('world_size', '?')}"
            f", ring_mode={meta.get('ring_mode', '?')}"
            if meta.get("method") else ""
        )
    ]
    for step in doc["steps"]:
        lines.append(
            f"step {step['step']} (wall {step['wall_us'] / 1e3:.3f} ms):"
        )
        for rank in sorted(step["ranks"], key=lambda r: (r != "all", str(r))):
            b = step["ranks"][rank]
            wall = step["wall_us"] or 1.0
            lines.append(
                f"  rank {rank:<4} compute {b['compute_us'] / wall:6.1%}  "
                f"comm-exposed {b['comm_exposed_us'] / wall:6.1%}  "
                f"overlapped {b['overlapped_us'] / wall:6.1%}  "
                f"idle {b['idle_us'] / wall:6.1%}"
            )
    cons = doc["conservation"]
    lines.append(
        f"conservation: {'OK' if cons['ok'] else 'FAIL'} "
        f"(max rel err {cons['max_rel_err']:.3e}, rtol {cons['rtol']:.0e})"
    )
    if doc.get("pin_skipped"):
        lines.append(f"exposed-comm pin: skipped — {doc['pin_skipped']}")
    for logical, pin in doc.get("pins", {}).items():
        if "error" in pin:
            lines.append(f"  {logical}: FAIL — {pin['error']}")
            continue
        lines.append(
            f"  {logical}: observed exposed-comm frac "
            f"{pin['observed_frac']:.3f} vs predicted "
            f"{pin['predicted_frac']:.3f} over {pin['passes']} pass(es)"
            + (
                f", replay comm {pin['replay_comm_s']:.3e}s vs closed form "
                f"{pin['closed_form_comm_s']:.3e}s"
                if pin.get("closed_form_comm_s") is not None else ""
            )
            + f"  {'OK' if pin['ok'] else 'FAIL'}"
        )
    stallers = [s for s in doc["stragglers"] if s["stall_s"] > 0]
    if stallers:
        lines.append("stragglers (simulated stall seconds):")
        for s in stallers:
            lines.append(
                f"  rank {s['rank']}: stalled {s['stall_s']:.3f}s over "
                f"{s['waits']} wait(s), {s['extensions']} lease extension(s)"
            )
    if doc["critical_spans"]:
        lines.append("top critical spans:")
        for e in doc["critical_spans"]:
            where = f" rank={e['rank']}" if e["rank"] is not None else ""
            lines.append(
                f"  {e['name']:<18} phase={e['phase']}{where} "
                f"cost={e['cost_s']:.3e}s ({e['kind']})"
            )
    lines.append("attribution: " + ("OK" if doc["ok"] else "FAIL"))
    return "\n".join(lines)
