"""Timing utilities used by the benchmark harness and the parallel runtime.

Real wall-clock time, measured with :class:`Timer` / :func:`timed`, is used
by the single-node micro-benchmarks (Figs. 8-11 of the paper) and by the
cost-model calibration behind the strong/weak scaling replay (Figs. 12-13,
:mod:`repro.parallel.perfmodel`).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator


@dataclass
class Timer:
    """Accumulating named timer.

    All measurements come from :func:`time.perf_counter` - the monotonic
    clock - so totals can never go backwards under system clock
    adjustments.  Re-entering a section that is already running (nested
    timer reuse, e.g. a recursive solver timing itself) accumulates the
    *outermost* interval exactly once instead of double-counting the
    inner stretch; every entry still increments the call count.

    Example
    -------
    >>> t = Timer()
    >>> with t.section("svd"):
    ...     pass
    >>> t.total("svd") >= 0.0
    True
    """

    totals: dict[str, float] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)
    _depth: dict[str, int] = field(default_factory=dict)

    @contextmanager
    def section(self, name: str) -> Iterator[None]:
        depth = self._depth.get(name, 0)
        self._depth[name] = depth + 1
        start = time.perf_counter() if depth == 0 else 0.0
        try:
            yield
        finally:
            self._depth[name] -= 1
            if depth == 0:
                elapsed = time.perf_counter() - start
                self.totals[name] = self.totals.get(name, 0.0) + elapsed
            self.counts[name] = self.counts.get(name, 0) + 1

    def total(self, name: str) -> float:
        """Accumulated seconds spent in ``name`` (0.0 if never entered)."""
        return self.totals.get(name, 0.0)

    def count(self, name: str) -> int:
        """Number of times ``name`` was entered."""
        return self.counts.get(name, 0)

    def reset(self) -> None:
        self.totals.clear()
        self.counts.clear()
        self._depth.clear()

    def report(self) -> str:
        """Human-readable breakdown sorted by descending total time."""
        lines = ["section                        total(s)    calls"]
        for name in sorted(self.totals, key=self.totals.get, reverse=True):
            lines.append(f"{name:<28} {self.totals[name]:>10.4f} {self.counts[name]:>8d}")
        return "\n".join(lines)


def timed(fn: Callable, *args, repeat: int = 1, **kwargs) -> tuple[float, object]:
    """Run ``fn`` ``repeat`` times; return (best wall seconds, last result)."""
    best = float("inf")
    result = None
    for _ in range(max(1, repeat)):
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        best = min(best, time.perf_counter() - start)
    return best, result
