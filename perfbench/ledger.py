"""Span tree and layer self times of a traced benchmark run.

All spans live on one ``repro.obs.tracer.Tracer``, kept in memory
until the run ends: the program's own spans (``bound.*``, ``spmv.*``,
``cg.*``, ``ooc.*``, ``serve.request``) and the benchmark's, which
are an ``op`` span per end-to-end op (attribute ``op``: its number)
and a ``call.*`` span around a public call made inside an op.
:func:`build` turns the tracer's events into spans with parents and op
ids; :func:`self_times` splits each op's time into span self times.

Spans on one thread nest by containment. Spans that overlap siblings
on their own thread (the requests of concurrent asyncio clients, and
the server's ``serve.request`` spans) never contain others; the
serving workloads attach them to their ops with :meth:`SpanTree.adopt`.
A span's self time is its duration minus the part of that interval
its children cover. The self time of an ``op`` span is op time that no
program span or public call covers: the unattributed remainder.
"""

from __future__ import annotations

import json
from collections import defaultdict
from typing import Iterable

#: Span name -> layer (one layer per program module). ``op`` spans
#: have no layer: their self time is unattributed.
LAYER_OF = {
    "call.apply": "parallel",
    "bound.apply": "parallel",
    "bound.zero": "parallel",
    "spmv.mult": "parallel",
    "spmv.reduce": "parallel",
    "call.checkpointed_cg": "solvers",
    "cg.bind": "solvers",
    "cg.spmv": "solvers",
    "cg.vecops": "solvers",
    "cg.checkpoint": "solvers",
    "serve.request": "serve",
    "call.checkpoint_save": "ooc",
    "ooc.apply": "ooc",
    "ooc.shard_load": "ooc",
    "ooc.checkpoint_save": "ooc",
    "bench.probe": "bench",
}

#: Spans that overlap siblings on their own thread.
CONCURRENT = frozenset({"serve.request"})


class Span:
    __slots__ = ("name", "start", "end", "thread", "op", "parents", "nest")

    def __init__(self, name, start, end, thread, op, nest):
        self.name = name
        self.start = start
        self.end = end
        self.thread = thread
        self.op = op
        self.parents: list[int] = []
        self.nest = nest

    @property
    def dur(self) -> int:
        return self.end - self.start


class SpanTree:
    """The spans of one traced run, linked to parents and ops."""

    def __init__(self, spans: list[Span]):
        self.spans = spans

    def named(self, name: str) -> list[int]:
        return [i for i, s in enumerate(self.spans) if s.name == name]

    def durations_ms(self, name: str) -> list[float]:
        return [s.dur / 1e6 for s in self.spans if s.name == name]

    def adopt(self, parent: int, child: int) -> None:
        """Make ``child`` (on another thread, or concurrent) a child of
        ``parent``, in ``parent``'s op."""
        self.spans[child].parents.append(parent)
        if self.spans[child].op is None:
            self.spans[child].op = self.spans[parent].op

    def self_times(self, roots: Iterable[int]) -> tuple[dict, int]:
        """Self time (ns) per span name summed over the trees under
        ``roots``, clipped to each root's interval, and the summed root
        durations."""
        kids: dict[int, list[int]] = defaultdict(list)
        for i, s in enumerate(self.spans):
            for p in s.parents:
                kids[p].append(i)
        totals: dict[str, int] = defaultdict(int)
        op_ns = 0
        for root in roots:
            op_ns += self.spans[root].dur
            todo = [(root, self.spans[root].start, self.spans[root].end)]
            while todo:
                i, lo, hi = todo.pop()
                s = self.spans[i]
                lo, hi = max(lo, s.start), min(hi, s.end)
                if hi <= lo:
                    continue
                covered = _union(
                    (max(lo, self.spans[c].start), min(hi, self.spans[c].end))
                    for c in kids[i]
                )
                totals[s.name] += (hi - lo) - covered
                todo.extend((c, lo, hi) for c in kids[i])
        return dict(totals), op_ns

    def dump(self, path) -> None:
        """Write every span as one JSON line: id, name, start and end
        in ns, thread, op id, parent span ids."""
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps([
                    i, s.name, s.start, s.end, s.thread, s.op, s.parents,
                ]) + "\n")


def build(tracer) -> SpanTree:
    """Spans of ``tracer`` that are ops or belong to a layer. Each
    nesting span gets the innermost nesting span containing it on its
    own thread as its parent, and that parent's op id if it has none."""
    spans = []
    for buf, ev in tracer.events():
        if ev.is_instant or (ev.name != "op" and ev.name not in LAYER_OF):
            continue
        attrs = ev.attrs or {}
        spans.append(Span(
            ev.name, ev.start_ns, ev.start_ns + ev.dur_ns, buf.ident,
            attrs.get("op"),
            ev.name not in CONCURRENT and not attrs.get("concurrent"),
        ))
    by_thread = defaultdict(list)
    for i, s in enumerate(spans):
        if s.nest:
            by_thread[s.thread].append(i)
    for idxs in by_thread.values():
        idxs.sort(key=lambda i: (spans[i].start, -spans[i].end))
        stack: list[int] = []
        for i in idxs:
            s = spans[i]
            while stack and spans[stack[-1]].end < s.end:
                stack.pop()
            s.parents = stack[-1:]
            if s.op is None and stack:
                s.op = spans[stack[-1]].op
            stack.append(i)
    return SpanTree(spans)


def _union(intervals) -> int:
    """Total length covered by half-open ``(lo, hi)`` intervals."""
    total, end = 0, None
    for lo, hi in sorted(iv for iv in intervals if iv[1] > iv[0]):
        if end is None or lo >= end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


def layer_table(totals: dict[str, int], op_ns: int, n_ops: int) -> list:
    """Rows ``(layer, span, self ms per op, share of op time)``, the
    unattributed remainder (self time of the ``op`` spans) last."""
    rows = [
        (LAYER_OF[name], name, ns / 1e6 / n_ops, ns / op_ns)
        for name, ns in totals.items() if name in LAYER_OF
    ]
    rows.sort()
    unattributed = totals.get("op", 0)
    rows.append(("-", "unattributed", unattributed / 1e6 / n_ops,
                 unattributed / op_ns))
    return rows
