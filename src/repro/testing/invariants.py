"""Invariant cross-checks: simulated traffic vs the paper's closed forms.

The Table 1 reproduction (:func:`repro.perf.cost.table1_comm_times`) is
analytic — it plugs per-step payload sizes from
:func:`repro.perf.cost.attention_step_sizes` into the paper's three
formulas.  Nothing would stop a communication refactor from changing what
the simulator *actually sends* while the closed-form math silently keeps
reporting the old numbers.  These checks close that gap: they run the real
methods through a :class:`~repro.comm.SimCommunicator`, read the
:class:`~repro.comm.TrafficLog`, and assert

* every forward hop carries exactly ``attention_step_sizes(...)["fwd"]``
  bytes, every backward transition exactly the bundle of its algorithm
  (``4·(S/G)·h`` for Algorithm 1, ``(3h + 2H)·(S/G)`` for Algorithm 2)
  and every return hop exactly that bundle's carried slots — the sizes
  of the layouts declared in :mod:`repro.comm.ring`, which is also where
  a method's backward algorithm and schedule are looked up
  (:data:`~repro.comm.ring.RING_METHODS`);
* per-rank totals land exactly on the paper's ``4Nd`` (flat/double ring)
  and ``3Nd + 2N`` (burst) element counts less one hop's read-only share,
  which the return hop does not ship, for any topology;
* re-evaluating Table 1 with the *observed* transition payloads
  reproduces ``table1_comm_times`` bit-for-bit, so the timing claims are
  anchored to simulated bytes, not to a formula resembling the code.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.attention import get_method
from repro.comm import SimCommunicator, TrafficLog
from repro.comm.ring import ALG2_BUNDLE, KV_BUNDLE, RING_METHODS, backward_bundle
from repro.masks import MaskPattern
from repro.perf.cost import (
    attention_step_sizes,
    flat_ring_step_time,
    ring_phase_cost,
    table1_comm_times,
)
from repro.topology import ClusterTopology

_F64_BYTES = 8  # the simulator's numerics are float64


@dataclass
class InvariantReport:
    """Outcome of one invariant cross-check."""

    name: str
    passed: bool = True
    checks: list[str] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)

    def record(self, ok: bool, description: str) -> None:
        (self.checks if ok else self.failures).append(description)
        if not ok:
            self.passed = False

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        lines = [f"[{status}] {self.name}: {len(self.checks)} ok, "
                 f"{len(self.failures)} failed"]
        lines += [f"  FAIL {f}" for f in self.failures]
        return "\n".join(lines)


# --- closed forms -------------------------------------------------------------


def expected_forward_elems(seq_len: int, head_dim: int, n_heads: int = 1) -> int:
    """Per-rank forward send volume in elements: ``(G-1)/G · 2Nd`` summed
    over the ring — K and V each travel G-1 hops.  Returned as the exact
    integer for one rank (multiply of the paper's ``2Nd`` by (G-1)/G is
    applied by the caller, which knows G)."""
    return KV_BUNDLE.elems(seq_len, n_heads, n_heads, head_dim)


def expected_backward_elems(
    algorithm: str, seq_len: int, head_dim: int, n_heads: int = 1
) -> int:
    """The paper's per-rank backward send volume in elements, ``G``
    whole-bundle hops (a rank sends one hop's read-only share less).

    * ``alg1``: ``4Nd`` per head slot (K, V, dK, dV circulate G hops).
    * ``alg2``: ``3Nd + 2N`` per head slot (Q, dQ, dO + the two
      scalar-per-row statistics D and Lse).
    """
    return backward_bundle(algorithm).elems(seq_len, n_heads, n_heads, head_dim)


def _run_method(
    method_name: str,
    topology: ClusterTopology,
    seq_len: int,
    head_dim: int,
    n_heads: int,
    mask: MaskPattern | None,
    seed: int = 0,
):
    rng = np.random.default_rng(seed)
    shape = (n_heads, seq_len, head_dim)
    q, k, v, do = (rng.normal(size=shape) for _ in range(4))
    method = get_method(method_name, block_size=max(4, seq_len // 8))
    comm = SimCommunicator(topology)
    method.run(topology, q, k, v, mask=mask, do=do, comm=comm)
    return comm.log


# --- cross-checks -------------------------------------------------------------


def check_traffic_invariants(
    method_name: str,
    topology: ClusterTopology,
    seq_len: int,
    head_dim: int = 8,
    n_heads: int = 1,
    mask: MaskPattern | None = None,
    seed: int = 0,
) -> InvariantReport:
    """Simulated per-hop and per-rank traffic vs the analytic formulas.

    Works for the three ring-family methods.  ``n_heads > 1`` checks the
    head-folded generalisation; at ``n_heads == 1`` the assertions are the
    paper's literal ``2Nd`` / ``4Nd`` / ``3Nd + 2N``.
    """
    if method_name not in RING_METHODS:
        raise ValueError(
            f"traffic invariants cover ring-family methods, got {method_name!r}"
        )
    bundle = RING_METHODS[method_name].backward
    algorithm = bundle.name
    g = topology.world_size
    report = InvariantReport(
        name=f"traffic[{method_name}, G={g}, N={seq_len}, d={head_dim}, "
             f"H={n_heads}]"
    )
    log = _run_method(
        method_name, topology, seq_len, head_dim, n_heads, mask, seed
    )

    # (1) Per-hop payloads match attention_step_sizes exactly: one whole
    # bundle per transition, its carried slots on the return hop; heads are
    # folded into the hidden size.  Algorithm 2's "+2" rows (D, Lse) are
    # per-head scalars, hence the (3h + 2H) generalisation.
    sizes = {
        which: attention_step_sizes(
            seq_len, n_heads * head_dim, g, bytes_per_elem=_F64_BYTES,
            n_heads=n_heads, which=which,
        )
        for which in ("all", "carried")
    }
    hops = {}
    for r in log.records:
        hops.setdefault(r.tag, set()).add(r.nbytes)
    for tag, key, which in [
        (KV_BUNDLE.tag, "fwd", "all"),
        (bundle.tag, f"bwd_{algorithm}", "all"),
        (f"{bundle.tag}-return", f"bwd_{algorithm}", "carried"),
    ]:
        want = int(sizes[which][key])
        report.record(
            hops.get(tag) == {want},
            f"{tag!r} hop bytes {sorted(hops.get(tag, ()))} == {want} "
            f"(attention_step_sizes {key}, {which} slots)",
        )

    # (2) Per-rank element totals: the paper's headline accounting.
    fwd_elems = log.per_rank_send_elems(phase="attn-fwd")
    expected_fwd = (g - 1) * expected_forward_elems(
        seq_len, head_dim, n_heads
    ) // g
    ok = set(fwd_elems) == set(range(g)) and all(
        v == expected_fwd for v in fwd_elems.values()
    )
    report.record(
        ok, f"per-rank forward elems == (G-1)/G * 2Nd*H = {expected_fwd}",
    )

    bwd_elems = log.per_rank_send_elems(phase="attn-bwd")
    expected = expected_backward_elems(
        algorithm, seq_len, head_dim, n_heads
    ) - bundle.elems(seq_len // g, n_heads, n_heads, head_dim, "read-only")
    for r in range(g):
        report.record(
            bwd_elems.get(r, 0) == expected,
            f"rank {r} backward elems {bwd_elems.get(r, 0)} == {expected} "
            f"({'4Nd' if algorithm == 'alg1' else '3Nd + 2N'} minus the "
            "read-only slots the return hop leaves out)",
        )
    return report


def check_table1_consistency(
    topology: ClusterTopology,
    seq_len: int,
    hidden: int,
    seed: int = 0,
) -> InvariantReport:
    """Re-derive Table 1 from *observed* traffic and compare bit-for-bit.

    Runs the three ring-family methods with ``H = 1`` heads of dimension
    ``hidden`` (the cost model folds heads into the hidden size), reads the
    per-transition payload bytes each method actually put on the wire
    (the paper prices all ``G`` hops at the whole bundle, so the return
    hop, which ships the carried slots alone, is not read), rescales
    them to the model's ``bytes_per_elem = 2`` (bf16 on hardware vs the
    simulator's float64), and evaluates the paper's three formulas with
    those observed payloads.  The result must equal
    :func:`repro.perf.cost.table1_comm_times` exactly — if a refactor
    changes what any method sends per step, this is the check that trips.
    """
    g = topology.world_size
    report = InvariantReport(
        name=f"table1[G={g}, N={seq_len}, h={hidden}]"
    )
    analytic = table1_comm_times(topology, seq_len, hidden, bytes_per_elem=2)

    observed_hop = {}
    for name, ring in RING_METHODS.items():
        log = _run_method(
            name, topology, seq_len, hidden, 1, mask=None, seed=seed
        )
        fwd = {r.nbytes for r in log.records if r.phase == "attn-fwd"}
        bwd = {r.nbytes for r in log.records if r.tag == ring.backward.tag}
        report.record(
            len(fwd) == 1 and len(bwd) == 1,
            f"{name}: uniform per-hop payloads (fwd {sorted(fwd)}, "
            f"bwd {sorted(bwd)})",
        )
        if len(fwd) != 1 or len(bwd) != 1:
            return report
        # Simulated arrays are float64; Table 1 is stated for 2-byte elems.
        observed_hop[name] = (
            fwd.pop() * 2 // _F64_BYTES, bwd.pop() * 2 // _F64_BYTES
        )

    # One shard-sized buffer as each method's forward actually sends it.
    p_shard = {n: fwd_b / 2 for n, (fwd_b, _) in observed_hop.items()}
    rounds_bwd = {
        n: bwd_b / p_shard[n] for n, (_, bwd_b) in observed_hop.items()
    }
    report.record(
        rounds_bwd["megatron-cp"] == 4.0 and rounds_bwd["loongtrain-double"] == 4.0,
        f"Alg.1 backward rounds observed {rounds_bwd['megatron-cp']} == 4",
    )
    paper_rounds = ALG2_BUNDLE.elems(1, 1, 1, hidden) / hidden  # H = 1
    report.record(
        abs(rounds_bwd["burst"] - paper_rounds) < 1e-12,
        f"Alg.2 backward rounds observed {rounds_bwd['burst']} == "
        f"{paper_rounds} (the H = 1 bundle)",
    )

    rederived = {
        "ring": 6 * g * flat_ring_step_time(topology, p_shard["megatron-cp"]),
    }
    phase_dbl = ring_phase_cost(topology, p_shard["loongtrain-double"])
    rederived["double_ring"] = 4 * phase_dbl.overlapped + 2 * phase_dbl.serialized
    phase_burst = ring_phase_cost(topology, p_shard["burst"])
    rederived["burst"] = (2 + rounds_bwd["burst"]) * phase_burst.overlapped

    for name, value in analytic.items():
        # 1-ulp slack: observed payload rounds come from a different (but
        # mathematically equal) division order than the analytic formula.
        close = value == rederived[name] or (
            abs(rederived[name] - value) <= 1e-12 * abs(value)
        )
        report.record(
            close,
            f"table1[{name}] from observed bytes {rederived[name]:.6e} == "
            f"analytic {value:.6e}",
        )
    return report


def check_tile_plan_invariants(
    seq_len: int = 256,
    block_q: int | None = None,
    block_k: int | None = None,
    head_dim: int = 8,
    n_heads: int = 2,
    window: int | None = None,
    mask_block: int | None = None,
    seed: int = 0,
) -> InvariantReport:
    """Measured kernel tile counts vs the ``repro.perf.cost`` closed forms.

    For causal, sliding-window, and block-sparse masks over ``[0,
    seq_len)``: builds a :class:`~repro.kernels.TilePlan`, runs the
    plan-driven forward+backward with the global tile counters reset, and
    asserts

    * the plan's ``full``/``partial``/``empty`` census equals the
      closed-form census (``causal_tile_counts`` etc.) exactly;
    * the executed counters equal twice the plan census (one traversal
      each for forward and backward);
    * pair accounting is conservative and complete: computed + skipped
      pairs tile the full ``N x N`` score matrix, and every allowed pair
      (``mask.total_allowed``) lies inside a computed sub-tile.

    This mirrors the traffic invariants: nothing stops a kernel refactor
    from silently computing skipped tiles (or skipping computed ones)
    unless the measured counts are pinned to independent arithmetic.
    """
    from repro.kernels import TilePlan, counters, get_backend, tile_size
    from repro.masks import CausalMask, SlidingWindowMask, sliding_window_block_mask
    from repro.perf.cost import (
        block_sparse_tile_counts,
        causal_tile_counts,
        sliding_window_tile_counts,
    )

    block_q = tile_size(block_q, n_heads, seq_len)
    block_k = tile_size(block_k, n_heads, seq_len)
    window = window or seq_len // 4
    mask_block = mask_block or seq_len // 8
    report = InvariantReport(
        name=f"tileplan[N={seq_len}, bq={block_q}, bk={block_k}]"
    )
    bs_mask = sliding_window_block_mask(seq_len, mask_block, 2)
    cases = [
        ("causal", CausalMask(),
         causal_tile_counts(seq_len, block_q, block_k)),
        ("sliding-window", SlidingWindowMask(window),
         sliding_window_tile_counts(seq_len, window, block_q, block_k)),
        ("block-sparse", bs_mask,
         block_sparse_tile_counts(
             seq_len, mask_block, bs_mask.block_mask,
             bs_mask.intra_block_causal, block_q, block_k)),
    ]
    rng = np.random.default_rng(seed)
    shape = (n_heads, seq_len, head_dim)
    q, k, v, do = (rng.normal(size=shape) for _ in range(4))
    idx = np.arange(seq_len)

    for name, mask, closed in cases:
        plan = TilePlan.build(mask, idx, idx, block_q, block_k)
        census = {
            "full": plan.num_full, "partial": plan.num_partial,
            "empty": plan.num_empty, "total": plan.num_tiles,
        }
        report.record(
            census == closed,
            f"{name}: plan census {census} == closed form {closed}",
        )
        counters.reset()
        backend = get_backend()
        o, lse = backend.flash_forward(q, k, v, plan=plan)
        backend.flash_backward(q, k, v, o, lse, do, plan=plan)
        computed = closed["full"] + closed["partial"]
        report.record(
            counters.computed == 2 * computed
            and counters.skipped_empty == 2 * closed["empty"],
            f"{name}: executed tiles (fwd+bwd) {counters.computed} computed"
            f" / {counters.skipped_empty} skipped == 2x closed form "
            f"({computed} / {closed['empty']})",
        )
        total_pairs = counters.computed_pairs + counters.skipped_pairs
        report.record(
            total_pairs == 2 * seq_len * seq_len,
            f"{name}: pair accounting tiles the score matrix "
            f"({total_pairs} == 2*N^2)",
        )
        allowed = mask.total_allowed(seq_len)
        report.record(
            counters.computed_pairs >= 2 * allowed,
            f"{name}: computed pairs {counters.computed_pairs} cover all "
            f"2x{allowed} allowed pairs",
        )
    return report


def check_all_invariants(
    topologies, shard_mult: int = 3, head_dim: int = 4, hidden: int = 16
) -> list[InvariantReport]:
    """Run every cross-check over a collection of topologies.

    The per-topology sequence length is ``2 · G · shard_mult`` — divisible
    by ``2G`` as the zigzag partitioner requires, and deliberately not a
    power of two for ``shard_mult = 3``.
    """
    reports = []
    for topo in topologies:
        seq_len = 2 * topo.world_size * shard_mult
        for name in RING_METHODS:
            reports.append(
                check_traffic_invariants(
                    name, topo, seq_len=seq_len, head_dim=head_dim
                )
            )
        reports.append(check_table1_consistency(topo, seq_len, hidden))
    return reports
