"""A small discrete-event simulator for overlap analysis.

Tasks have a fixed duration, a set of dependencies, and a set of
unit-capacity resources (e.g. ``"compute"``, ``"intra"``, ``"inter"`` for
one representative GPU in an SPMD program).  A task starts as soon as all
dependencies have finished *and* all its resources are free; ties are
broken by insertion order (FIFO), which matches how a CUDA stream executes
enqueued work.

The simulator returns the makespan and a per-task timeline that
:func:`repro.obs.export.sims_to_chrome_json` exports as a Chrome trace for
inspection.  This is the machinery that turns the paper's overlap diagrams
(Fig. 5) into numbers: the same task durations under different dependency
structures yield RingAttention vs DoubleRing vs BurstAttention timings.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Task:
    """One unit of work.

    Attributes
    ----------
    name:
        Unique identifier (also used in traces).
    duration:
        Simulated seconds the task occupies its resources.
    resources:
        Resource names this task needs exclusively while running.
    deps:
        Names of tasks that must finish first.
    """

    name: str
    duration: float
    resources: tuple[str, ...] = ()
    deps: tuple[str, ...] = ()
    start: float | None = None
    end: float | None = None

    def __post_init__(self) -> None:
        if self.duration < 0:
            raise ValueError(f"task {self.name!r} has negative duration")
        self.resources = tuple(self.resources)
        self.deps = tuple(self.deps)


class Resource:
    """Unit-capacity resource; busy-until timestamp."""

    def __init__(self, name: str):
        self.name = name
        self.free_at = 0.0


class Simulator:
    """Dependency- and resource-aware list scheduler."""

    def __init__(self):
        self.tasks: dict[str, Task] = {}
        self.makespan: float = 0.0  # of the last :meth:`run`
        self._order: int = 0
        self._insertion: dict[str, int] = {}

    def add(
        self,
        name: str,
        duration: float,
        resources: tuple[str, ...] | list[str] = (),
        deps: tuple[str, ...] | list[str] = (),
    ) -> Task:
        """Add a task; dependencies may be added before their targets."""
        if name in self.tasks:
            raise ValueError(f"duplicate task name {name!r}")
        task = Task(name, duration, tuple(resources), tuple(deps))
        self.tasks[name] = task
        self._insertion[name] = self._order
        self._order += 1
        return task

    def run(self) -> float:
        """Execute the graph; returns the makespan.

        Greedy event-driven scheduling: at each point in virtual time, all
        ready tasks whose resources are free are started in insertion
        order.  Raises on unknown dependencies or dependency cycles.
        """
        for task in self.tasks.values():
            for dep in task.deps:
                if dep not in self.tasks:
                    raise ValueError(
                        f"task {task.name!r} depends on unknown {dep!r}"
                    )

        resources: dict[str, Resource] = {}
        for task in self.tasks.values():
            for r in task.resources:
                resources.setdefault(r, Resource(r))

        pending = set(self.tasks)
        done_at: dict[str, float] = {}
        now = 0.0
        makespan = 0.0

        while pending:
            started_any = False
            # Ready = all deps complete by `now`.
            ready = sorted(
                (
                    name
                    for name in pending
                    if all(
                        dep in done_at and done_at[dep] <= now
                        for dep in self.tasks[name].deps
                    )
                ),
                key=self._insertion.__getitem__,
            )
            for name in ready:
                task = self.tasks[name]
                if any(resources[r].free_at > now for r in task.resources):
                    continue
                task.start = now
                task.end = now + task.duration
                for r in task.resources:
                    resources[r].free_at = task.end
                done_at[name] = task.end
                makespan = max(makespan, task.end)
                pending.discard(name)
                started_any = True
            if not pending:
                break
            if started_any:
                continue
            # Advance time to the next event: a resource freeing or a
            # dependency completing strictly after `now`.
            horizon = [t for t in done_at.values() if t > now]
            horizon += [r.free_at for r in resources.values() if r.free_at > now]
            if not horizon:
                cycle = sorted(pending)
                raise ValueError(f"deadlock / dependency cycle among {cycle}")
            now = min(horizon)
        self.makespan = makespan
        return makespan

    def timeline(self) -> list[Task]:
        """Tasks sorted by start time (call after :meth:`run`)."""
        return sorted(
            (t for t in self.tasks.values() if t.start is not None),
            key=lambda t: (t.start, self._insertion[t.name]),
        )

    def critical_path_lower_bound(self) -> float:
        """Longest dependency chain ignoring resources (sanity bound)."""
        memo: dict[str, float] = {}

        def longest(name: str, visiting: set[str]) -> float:
            if name in memo:
                return memo[name]
            if name in visiting:
                raise ValueError(f"dependency cycle through {name!r}")
            visiting.add(name)
            task = self.tasks[name]
            best = max((longest(d, visiting) for d in task.deps), default=0.0)
            visiting.discard(name)
            memo[name] = best + task.duration
            return memo[name]

        return max((longest(n, set()) for n in self.tasks), default=0.0)
