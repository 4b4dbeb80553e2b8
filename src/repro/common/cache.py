"""The one content-addressed, byte-bounded store of memoised artifacts.

Compiled observables (:mod:`repro.simulators.pauli_kernels`), sweep plans
and compressed MPOs (:mod:`repro.simulators.mps_measure`) and the job
service's results and prepared systems (:mod:`repro.serve.service`) are
pure functions of their content key, built once and "kept constant
afterwards" (paper Sec. III-D).  They all live in the process's current
:class:`ServeCache`
(:func:`current`), so only this module knows the eviction policy and the
byte budget:

* **content-addressed** - every entry is keyed by ``(namespace, key)``
  where ``key`` is the producer's content hash (the
  ``observable_cache_key`` tuples), so identical requests land on one
  entry whoever makes them;
* **size-bounded** - one byte budget across all namespaces, enforced by
  least-recently-used eviction (:func:`sizeof` estimates entry payloads
  by walking numpy buffers);
* **observable** - an always-on per-namespace tally of hits, misses and
  evictions plus the byte footprint (:meth:`ServeCache.stats`), which the
  per-request ``obs.collect()`` resets of the job service never touch;
  each producer counts its own lookups once more, by outcome, in the
  ``{outcome}`` counter it hands to :meth:`ServeCache.get_or_build`.

:func:`install` swaps the current store and returns the one it replaced;
a :class:`repro.serve.JobService` installs its own for its lifetime and
puts the previous one back on close.  Which store is current never
changes *what* is computed - only where the memoised artifact lives.
"""

from __future__ import annotations

import sys
import threading
from collections import OrderedDict
from typing import Callable

import numpy as np

from repro.common.errors import ValidationError

#: default byte budget of a store (256 MiB)
DEFAULT_MAX_BYTES = 256 << 20

#: overhead charged per entry on top of the payload estimate (dict slots,
#: key tuples, bookkeeping) so zero-byte payloads still consume budget
ENTRY_OVERHEAD = 256


def sizeof(obj, _seen: set | None = None) -> int:
    """Recursive byte estimate of a cached artifact.

    Walks numpy arrays (``nbytes``), containers and plain-attribute
    objects; shared buffers are counted once per entry (an ``id`` guard
    breaks cycles).  This is an *estimate* for budget enforcement, not an
    exact allocator audit - the cached artifacts are dominated by their
    numpy payloads, which are counted exactly.
    """
    if _seen is None:
        _seen = set()
    oid = id(obj)
    if oid in _seen:
        return 0
    if isinstance(obj, np.ndarray):
        _seen.add(oid)
        return int(obj.nbytes) + 128
    if isinstance(obj, (int, float, complex, bool)) or obj is None:
        return 32
    if isinstance(obj, (str, bytes)):
        return sys.getsizeof(obj)
    if isinstance(obj, dict):
        _seen.add(oid)
        return sys.getsizeof(obj) + sum(
            sizeof(k, _seen) + sizeof(v, _seen) for k, v in obj.items())
    if isinstance(obj, (list, tuple, set, frozenset)):
        _seen.add(oid)
        return sys.getsizeof(obj) + sum(sizeof(item, _seen) for item in obj)
    slots = getattr(obj, "__slots__", None)
    if slots is not None:
        _seen.add(oid)
        return 64 + sum(
            sizeof(getattr(obj, name, None), _seen)
            for name in slots if isinstance(name, str))
    attrs = getattr(obj, "__dict__", None)
    if attrs is not None:
        _seen.add(oid)
        return 64 + sizeof(attrs, _seen)
    return sys.getsizeof(obj)


class ServeCache:
    """Content-addressed LRU store shared across requests and namespaces.

    Parameters
    ----------
    max_bytes:
        Total byte budget across every namespace.  Inserting beyond it
        evicts least-recently-used entries (any namespace) until the new
        entry fits; an entry larger than the whole budget is simply not
        stored (the build result is still returned to the caller).
    """

    def __init__(self, max_bytes: int = DEFAULT_MAX_BYTES):
        if max_bytes <= 0:
            raise ValidationError(
                f"cache byte budget must be positive (got {max_bytes})")
        self.max_bytes = int(max_bytes)
        self._lock = threading.RLock()
        #: (namespace, key) -> [value, nbytes]; insertion/touch order = LRU
        self._entries: "OrderedDict[tuple, list]" = OrderedDict()
        self._bytes = 0
        #: namespace -> {"hits": int, "misses": int, "evictions": int}
        self._stats: dict[str, dict[str, int]] = {}

    # -- core protocol --------------------------------------------------------

    def _tally(self, namespace: str) -> dict[str, int]:
        slot = self._stats.get(namespace)
        if slot is None:
            slot = {"hits": 0, "misses": 0, "evictions": 0}
            self._stats[namespace] = slot
        return slot

    def lookup(self, namespace: str, key) -> tuple[object, bool]:
        """``(value, True)`` on a hit, ``(None, False)`` on a miss.

        A hit moves the entry to most-recently-used position.  Both
        outcomes are tallied per namespace (:meth:`stats`).
        """
        full = (namespace, key)
        with self._lock:
            entry = self._entries.get(full)
            if entry is not None:
                self._entries.move_to_end(full)
                self._tally(namespace)["hits"] += 1
                return entry[0], True
            self._tally(namespace)["misses"] += 1
            return None, False

    def insert(self, namespace: str, key, value, *,
               nbytes: int | None = None) -> bool:
        """Store ``value``; returns False when it exceeds the whole budget.

        ``nbytes`` overrides the :func:`sizeof` estimate (producers that
        know their payload exactly can pass it).  Re-inserting an
        existing key replaces the entry (budget adjusted).
        """
        size = (sizeof(value) if nbytes is None else int(nbytes)) \
            + ENTRY_OVERHEAD
        full = (namespace, key)
        with self._lock:
            if size > self.max_bytes:
                return False
            old = self._entries.pop(full, None)
            if old is not None:
                self._bytes -= old[1]
            while self._bytes + size > self.max_bytes:
                (ev_ns, _), (_, ev_size) = self._entries.popitem(last=False)
                self._bytes -= ev_size
                self._tally(ev_ns)["evictions"] += 1
            self._entries[full] = [value, size]
            self._bytes += size
            return True

    def get_or_build(self, namespace: str, key,
                     build: Callable[[], object], outcomes=None) -> object:
        """Return the cached value, building (and caching) it on a miss.

        ``outcomes`` is the producer's ``repro.obs`` counter; the lookup is
        booked there as ``outcome="hit"`` or ``"miss"``.
        """
        value, found = self.lookup(namespace, key)
        if outcomes is not None:
            outcomes.inc(outcome="hit" if found else "miss")
        if found:
            return value
        value = build()
        self.insert(namespace, key, value)
        return value

    # -- introspection --------------------------------------------------------

    @property
    def nbytes(self) -> int:
        """Current byte footprint (payload estimates + entry overhead)."""
        with self._lock:
            return self._bytes

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def keys(self) -> list[tuple]:
        """``(namespace, key)`` pairs in LRU order (oldest first)."""
        with self._lock:
            return list(self._entries)

    def stats(self) -> dict:
        """Always-on tally: per-namespace hits/misses/evictions + totals.

        Never reset by ``obs.collect()`` scopes, so the service can report
        lifetime hit rates no matter how per-request metrics are scoped.
        """
        with self._lock:
            per_ns = {ns: dict(t) for ns, t in sorted(self._stats.items())}
            totals = {"hits": 0, "misses": 0, "evictions": 0}
            for tally in per_ns.values():
                for field in totals:
                    totals[field] += tally[field]
            lookups = totals["hits"] + totals["misses"]
            return {
                "namespaces": per_ns,
                "totals": totals,
                "entries": len(self._entries),
                "bytes": self._bytes,
                "max_bytes": self.max_bytes,
                "hit_rate": (totals["hits"] / lookups) if lookups else 0.0,
            }

    def clear(self) -> None:
        """Drop every entry (the tally is kept - it is a lifetime record)."""
        with self._lock:
            self._entries.clear()
            self._bytes = 0


# -- the process-wide current store -------------------------------------------

_current = ServeCache()


def current() -> ServeCache:
    """The store every memoising producer reads and writes right now."""
    return _current


def install(store: ServeCache) -> ServeCache:
    """Make ``store`` the current store; returns the one it replaced.

    The caller that installs a store owns putting the returned one back
    (``install(previous)``) when it is done.
    """
    global _current
    previous, _current = _current, store
    return previous


__all__ = [
    "DEFAULT_MAX_BYTES",
    "ENTRY_OVERHEAD",
    "ServeCache",
    "current",
    "install",
    "sizeof",
]
