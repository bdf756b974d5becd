"""In-memory span recorder used by the traced benchmark run.

A span is one call into a wrapped library function: name, start, end, the
span that was open when it began (its parent), the run id, and the process
that made it.  Timestamps come from ``time.perf_counter``, which on Linux is
the system-wide monotonic clock, so spans of forked pool workers line up with
the parent's.

Forked workers inherit the wrappers and a copy of the recorder.  A worker
drops the copied records on its first span and appends its own to a spool
file (``spans-<pid>.jsonl``) each time a span with no open parent in that
worker ends; ``collect`` reads the spool files back in the parent.

Spans closed with ``excluded=True`` (the twin decoder run) time the
benchmark's own extra work, which the trace-overhead figure leaves out.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import time
from pathlib import Path


class _Frame:
    __slots__ = ("id", "name", "start", "pid", "parent", "scratch")

    def __init__(self, span_id, name, start, pid, parent):
        self.id = span_id
        self.name = name
        self.start = start
        self.pid = pid
        self.parent = parent
        self.scratch = {}  # per-call data shared between nested wrappers


class Tracer:
    """Records spans in memory; ``collect`` returns them as dicts."""

    def __init__(self, run_id: str, spool_dir: Path):
        self.run_id = run_id
        self.spool_dir = Path(spool_dir)
        self._pid = os.getpid()
        self._owner = self._pid
        self._ids = itertools.count()
        self._stack: list[_Frame] = []
        self._records: list[dict] = []

    def _check_fork(self, pid: int):
        if pid != self._pid:  # first span in a forked worker
            self._pid = pid
            self._ids = itertools.count()
            self._records = []

    def open(self, name: str) -> _Frame:
        pid = os.getpid()
        self._check_fork(pid)
        parent = self._stack[-1].id if self._stack else None
        frame = _Frame(f"{pid}.{next(self._ids)}", name, time.perf_counter(), pid, parent)
        self._stack.append(frame)
        return frame

    def close(self, frame: _Frame, counts: dict | None = None, excluded: bool = False,
              end: float | None = None):
        """End ``frame`` (the innermost open span) and record it."""
        if end is None:
            end = time.perf_counter()
        top = self._stack.pop()
        if top is not frame:
            raise RuntimeError(f"span {frame.name} closed out of order (open: {top.name})")
        self._records.append({
            "name": frame.name, "start": frame.start, "end": end,
            "parent": frame.parent, "id": frame.id, "run": self.run_id,
            "pid": frame.pid, "excluded": excluded, "counts": counts or {},
        })
        if frame.pid != self._owner and (not self._stack or self._stack[-1].pid != frame.pid):
            self._spool()

    def innermost(self, name: str) -> _Frame | None:
        """The innermost open span called ``name`` in this process, if any."""
        pid = os.getpid()
        for frame in reversed(self._stack):
            if frame.pid == pid and frame.name == name:
                return frame
        return None

    def _spool(self):
        self.spool_dir.mkdir(parents=True, exist_ok=True)
        path = self.spool_dir / f"spans-{self._pid}.jsonl"
        with open(path, "a") as fh:
            for rec in self._records:
                fh.write(json.dumps(rec) + "\n")
        self._records = []

    def collect(self) -> list[dict]:
        """All spans of the run: this process's plus every worker's spool."""
        records = list(self._records)
        if self.spool_dir.is_dir():
            for path in sorted(self.spool_dir.glob("spans-*.jsonl")):
                with open(path) as fh:
                    records.extend(json.loads(line) for line in fh if line.strip())
        return records


def traced(tracer: Tracer, name, fn, on_return=None):
    """Wrap ``fn`` so each call is a span.

    ``name`` is a string or a function of the call's arguments.  ``on_return``
    receives ``(frame, args, kwargs, result)`` and returns the span's counts;
    it runs after the span's end time is taken.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = tracer.open(name if isinstance(name, str) else name(*args, **kwargs))
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.close(frame, {"raised": 1})
            raise
        end = time.perf_counter()
        counts = on_return(frame, args, kwargs, result) if on_return else None
        tracer.close(frame, counts, end=end)
        return result

    return wrapper


def merged_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class SpanTree:
    """Index over collected spans: children, ancestors, self and group time."""

    def __init__(self, records: list[dict]):
        self.records = records
        self.by_id = {r["id"]: r for r in records}
        self.children: dict[str, list[dict]] = {}
        for r in records:
            if r["parent"] is not None:
                self.children.setdefault(r["parent"], []).append(r)

    @staticmethod
    def duration(rec: dict) -> float:
        return rec["end"] - rec["start"]

    def self_time(self, rec: dict) -> float:
        """Duration minus the part of it that child spans cover."""
        kids = [(c["start"], c["end"]) for c in self.children.get(rec["id"], [])]
        return self.duration(rec) - merged_length(kids, rec["start"], rec["end"])

    def named(self, names) -> list[dict]:
        names = {names} if isinstance(names, str) else set(names)
        return [r for r in self.records if r["name"] in names]

    def has_ancestor_in(self, rec: dict, names: set) -> bool:
        parent = self.by_id.get(rec["parent"])
        while parent is not None:
            if parent["name"] in names:
                return True
            parent = self.by_id.get(parent["parent"])
        return False

    def group_time(self, names) -> float:
        """Time covered by a group of span names, nested calls counted once."""
        names = {names} if isinstance(names, str) else set(names)
        return sum(self.duration(r) for r in self.named(names)
                   if not self.has_ancestor_in(r, names))

    def self_time_sum(self, names) -> float:
        return sum(self.self_time(r) for r in self.named(names))
