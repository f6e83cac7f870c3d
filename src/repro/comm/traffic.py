"""Traffic accounting for the simulated communicator.

Every transfer performed by :class:`repro.comm.SimCommunicator` is recorded
as a :class:`TransferRecord`.  Tests assert paper-level invariants directly
against these logs — e.g. that BurstAttention's backward pass moves
``3Nd + 2N`` elements per rank where RingAttention's moves ``4Nd``, each
less the read-only slots the return hop leaves out.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from repro.topology import ClusterTopology, LinkClass


@dataclass(frozen=True)
class TransferRecord:
    """One point-to-point transfer.

    ``nbytes`` counts payload bytes; ``nelems`` counts array elements so that
    volume formulas stated in elements (as in the paper) can be checked
    without caring about dtype width.  ``phase`` is a free-form label such as
    ``"attn-fwd"`` or ``"attn-bwd"`` used to slice the log.  ``channel``
    distinguishes the two directions of a bidirectional ring: ``"fwd"``
    (the default, also used by every non-ring collective) or ``"rev"``
    for transfers riding the counter-rotating stream.
    """

    src: int
    dst: int
    nbytes: int
    nelems: int
    link: LinkClass
    phase: str
    tag: str = ""
    channel: str = "fwd"


@dataclass
class TrafficLog:
    """Append-only log of transfers with aggregation helpers."""

    records: list[TransferRecord] = field(default_factory=list)

    def add(self, record: TransferRecord) -> None:
        self.records.append(record)

    def clear(self) -> None:
        self.records.clear()

    # --- aggregations -------------------------------------------------------

    def _filtered(
        self,
        phase: str | None = None,
        link: LinkClass | None = None,
        rank: int | None = None,
        direction: str = "send",
        channel: str | None = None,
    ) -> list[TransferRecord]:
        if direction not in ("send", "recv"):
            raise ValueError(f"direction must be 'send' or 'recv', got {direction!r}")
        out = []
        for r in self.records:
            if phase is not None and r.phase != phase:
                continue
            if link is not None and r.link != link:
                continue
            if channel is not None and r.channel != channel:
                continue
            if rank is not None:
                endpoint = r.src if direction == "send" else r.dst
                if endpoint != rank:
                    continue
            out.append(r)
        return out

    def total_bytes(self, **kw) -> int:
        return sum(r.nbytes for r in self._filtered(**kw))

    def total_elems(self, **kw) -> int:
        return sum(r.nelems for r in self._filtered(**kw))

    def num_transfers(self, **kw) -> int:
        return len(self._filtered(**kw))

    def per_rank_send_elems(
        self, phase: str | None = None, channel: str | None = None
    ) -> dict[int, int]:
        """Elements sent by each rank (the paper's per-GPU volume metric)."""
        acc: dict[int, int] = defaultdict(int)
        for r in self._filtered(phase=phase, channel=channel):
            acc[r.src] += r.nelems
        return dict(acc)

    def per_channel_elems(self, phase: str | None = None) -> dict[str, int]:
        """Total elements moved on each ring direction ("fwd" / "rev")."""
        acc: dict[str, int] = defaultdict(int)
        for r in self._filtered(phase=phase):
            acc[r.channel] += r.nelems
        return dict(acc)

    def per_link_bytes(self, phase: str | None = None) -> dict[LinkClass, int]:
        acc: dict[LinkClass, int] = defaultdict(int)
        for r in self._filtered(phase=phase):
            acc[r.link] += r.nbytes
        return dict(acc)

    def phases(self) -> list[str]:
        seen: dict[str, None] = {}
        for r in self.records:
            seen.setdefault(r.phase, None)
        return list(seen)

    def summary(self) -> str:
        """Multi-line human-readable summary grouped by phase and link."""
        lines = []
        for phase in self.phases():
            per_link = self.per_link_bytes(phase=phase)
            parts = ", ".join(
                f"{link.value}: {nbytes / 1e6:.2f} MB"
                for link, nbytes in sorted(per_link.items(), key=lambda kv: kv[0].value)
            )
            lines.append(f"{phase}: {parts}")
        return "\n".join(lines) if lines else "(no traffic)"
