"""Load balancing of circuit evaluations over processes.

The paper highlights an "adapted dynamical load balancing algorithm" for
distributing Pauli-string circuits (Sec. III-C).  Pauli strings have uneven
costs on an MPS (cost ~ support span), so naive block assignment leaves
processes idle.  We provide static block assignment and greedy LPT
(longest-processing-time-first), whose makespan is provably within
(4/3 - 1/3m) of optimal - effectively the offline version of the paper's
dynamic work stealing.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from repro.common.errors import ValidationError


@dataclass(frozen=True)
class Task:
    """A unit of schedulable work (e.g. one Pauli-string circuit)."""

    task_id: int
    cost: float

    def __post_init__(self) -> None:
        if self.cost < 0:
            raise ValidationError(f"negative task cost: {self.cost}")


def schedule_static(tasks: list[Task], n_workers: int) -> list[list[Task]]:
    """Contiguous block assignment (the naive baseline)."""
    if n_workers < 1:
        raise ValidationError("need at least one worker")
    out: list[list[Task]] = [[] for _ in range(n_workers)]
    size = (len(tasks) + n_workers - 1) // n_workers if tasks else 0
    for w in range(n_workers):
        out[w] = tasks[w * size:(w + 1) * size]
    return out


def schedule_lpt(tasks: list[Task], n_workers: int) -> list[list[Task]]:
    """Greedy longest-processing-time-first assignment."""
    if n_workers < 1:
        raise ValidationError("need at least one worker")
    out: list[list[Task]] = [[] for _ in range(n_workers)]
    heap = [(0.0, w) for w in range(n_workers)]
    heapq.heapify(heap)
    for task in sorted(tasks, key=lambda t: t.cost, reverse=True):
        load, w = heapq.heappop(heap)
        out[w].append(task)
        heapq.heappush(heap, (load + task.cost, w))
    return out


def makespan(assignment: list[list[Task]]) -> float:
    """Maximum per-worker load of an assignment."""
    return max((sum(t.cost for t in worker) for worker in assignment),
               default=0.0)


def load_imbalance(assignment: list[list[Task]]) -> float:
    """makespan / mean load - 1 (0 = perfectly balanced)."""
    loads = [sum(t.cost for t in worker) for worker in assignment]
    total = sum(loads)
    if total == 0.0:
        return 0.0
    mean = total / len(loads)
    return max(loads) / mean - 1.0
