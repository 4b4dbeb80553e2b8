"""Chrome trace-event export: span timelines loadable in Perfetto.

Converts the span tracer's records (:class:`repro.obs.trace.SpanRecord`
dicts, as embedded in ``repro.obs/2`` documents) into the Chrome
trace-event JSON format - the ``{"traceEvents": [...]}`` shape that
``chrome://tracing`` and https://ui.perfetto.dev load directly.  This is
the timeline view the paper's performance sections are built from:
per-phase bars per process, nested by call depth.

Mapping:

* every completed span becomes one complete (``"ph": "X"``) event with
  microsecond ``ts``/``dur``;
* ``pid`` comes from the cross-process merge - spans tagged
  ``attrs.worker`` by :meth:`Tracer.merge` land in track ``worker+1``,
  parent-recorded spans in track 0;
* ``tid`` is a stable small integer per (pid, recording thread name),
  assigned in sorted-name order so the export is deterministic for a
  given span set;
* ``"M"`` metadata events name every process and thread track.

Clock caveat: each process stamps ``start_s`` off its own
``time.perf_counter`` origin, so timestamps are normalized per-pid
(every track starts at its own earliest span).  Within a process the
timeline is exact; across processes only durations are comparable.
"""

from __future__ import annotations

import json

from repro.obs.trace import TRACER

#: value for the ``otherData.generator`` field of every export
GENERATOR = "repro.obs.timeline"


def _span_dicts(source) -> list[dict]:
    """Span dicts from a tracer snapshot, an obs document, or None."""
    if source is None:
        return TRACER.snapshot()
    if isinstance(source, dict):        # a repro.obs/2 document
        return list(source.get("spans") or [])
    out = []
    for rec in source:
        out.append(rec.to_dict() if hasattr(rec, "to_dict") else dict(rec))
    return out


def _pid_of(span: dict) -> int:
    worker = (span.get("attrs") or {}).get("worker")
    return 0 if worker is None else int(worker) + 1


def chrome_trace(source=None) -> dict:
    """Build a Chrome trace-event document from ``source``.

    ``source`` may be ``None`` (the global tracer), a ``repro.obs/2``
    document (its ``spans`` list is used), or an iterable of span
    records / dicts.  Returns the JSON-ready trace object.
    """
    spans = _span_dicts(source)

    # per-pid time origin: earliest span start in that process
    origins: dict[int, float] = {}
    for span in spans:
        pid = _pid_of(span)
        start = float(span.get("start_s", 0.0))
        if pid not in origins or start < origins[pid]:
            origins[pid] = start

    # stable tid assignment: sorted thread names within each pid
    threads: dict[int, list[str]] = {}
    for span in spans:
        pid = _pid_of(span)
        name = span.get("thread", "MainThread")
        names = threads.setdefault(pid, [])
        if name not in names:
            names.append(name)
    tids = {
        (pid, name): tid
        for pid, names in threads.items()
        for tid, name in enumerate(sorted(names))
    }

    events: list[dict] = []
    for pid in sorted(threads):
        events.append({
            "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
            "args": {"name": "parent" if pid == 0 else f"worker {pid - 1}"},
        })
        for name in sorted(threads[pid]):
            events.append({
                "ph": "M", "name": "thread_name", "pid": pid,
                "tid": tids[(pid, name)], "args": {"name": name},
            })

    for span in spans:
        pid = _pid_of(span)
        tid = tids[(pid, span.get("thread", "MainThread"))]
        args = {
            "span_id": span.get("span_id"),
            "parent_id": span.get("parent_id"),
            "depth": span.get("depth"),
            "cpu_s": span.get("cpu_s"),
        }
        for key, value in (span.get("attrs") or {}).items():
            if key != "worker":         # already encoded as the pid
                args[key] = value
        name = span["name"]
        events.append({
            "ph": "X",
            "name": name,
            "cat": name.split(".", 1)[0],
            "ts": (float(span.get("start_s", 0.0)) - origins[pid]) * 1e6,
            "dur": float(span.get("wall_s", 0.0)) * 1e6,
            "pid": pid,
            "tid": tid,
            "args": args,
        })

    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"generator": GENERATOR},
    }


def write_chrome_trace(path, source=None) -> dict:
    """Write :func:`chrome_trace` of ``source`` to ``path``; return it."""
    doc = chrome_trace(source)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return doc


__all__ = ["GENERATOR", "chrome_trace", "write_chrome_trace"]
