"""In-memory span recorder wrapped around the program's layer boundaries.

The program itself carries no tracing: ``install`` replaces selected
public callables of its modules with thin wrappers that time each call,
and ``uninstall`` puts the originals back, so an untraced phase runs the
unmodified program.  Each span is ``(id, parent, op, name, start, end)``
on ``time.perf_counter``; the parent is the innermost enclosing wrapped
call on the same thread and ``op`` is the benchmark operation (or, with
none set, the id of the outermost span) the call belongs to.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Tuple

#: (span name, "module:attribute" or "module:Class.method") — every
#: layer boundary the traced run times.  The names are the per-layer
#: metric prefixes in BENCHMARK.json.
TARGETS: Tuple[Tuple[str, str], ...] = (
    ("graph.dataset", "repro.api.session:build_dataset"),
    ("graph.edge_export", "repro.graph.digraph:DiGraph.edge_arrays"),
    ("diffusion.sample", "repro.diffusion.worlds:sample_ic_world"),
    ("diffusion.sample", "repro.diffusion.worlds:sample_lt_world"),
    ("influence.store_build", "repro.influence.ensemble:make_backend"),
    # RR pools are sampled lazily, once per horizon, on first query.
    ("influence.rr_sample", "repro.influence.rrsets:RRSetEstimator._build_index"),
    ("influence.first_round", "repro.influence.ensemble:WorldEnsemble.candidate_gains_batch"),
    ("influence.first_round", "repro.influence.rrsets:RRSetEstimator.candidate_gains_batch"),
    ("influence.reeval", "repro.influence.ensemble:WorldEnsemble.candidate_group_utilities"),
    ("influence.reeval", "repro.influence.rrsets:RRSetEstimator.candidate_group_utilities"),
    ("influence.repair", "repro.influence.ensemble:WorldEnsemble.apply_delta"),
    ("core.solve", "repro.api.session:solve_budget_spec"),
    ("core.solve", "repro.api.session:solve_cover_spec"),
    ("api.solve", "repro.api.session:Session.solve"),
    ("api.solve", "repro.api.session:Session.resolve"),
    ("sweep.cell", "repro.sweep.runner:solve_cell"),
    ("baselines.seeds", "repro.sweep.runner:baseline_seeds"),
)

Span = Tuple[int, Optional[int], Optional[int], str, float, float]


class Recorder:
    """Collects spans from every thread; thread-safe by construction
    (``list.append`` and ``next`` on a counter are atomic in CPython)."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: List[Tuple[object, str, object]] = []

    # -- span bookkeeping ------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_op(self, op: Optional[int]) -> None:
        """Tag this thread's following spans with benchmark op ``op``."""
        self._local.op = op

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name`` (benchmark-side spans)."""
        return self.wrap(name, fn)(*args, **kwargs)

    def wrap(self, name: str, fn):
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = recorder._stack()
            if stack and stack[-1][1] == name:
                # Re-entry into the same layer (Session.resolve without a
                # delta calls Session.solve): one span, not two.
                return fn(*args, **kwargs)
            span_id = next(recorder._ids)
            parent = stack[-1][0] if stack else None
            op = getattr(recorder._local, "op", None)
            if op is None:
                op = stack[0][0] if stack else span_id
            stack.append((span_id, name))
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                recorder.spans.append((span_id, parent, op, name, start, end))

        return traced

    # -- installation ----------------------------------------------------
    def install(self, targets: Sequence[Tuple[str, str]] = TARGETS) -> None:
        if self._undo:
            return
        for name, where in targets:
            module_name, path = where.split(":")
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            # Class attributes are read from __dict__ so the original
            # descriptor (not a bound method) is what gets restored.
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._undo.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def dump(self, path: str) -> None:
        """Write the spans, one JSON array per line."""
        with open(path, "w", encoding="utf-8") as sink:
            for span in self.spans:
                sink.write(json.dumps(span) + "\n")


def load_spans(path: str) -> List[Span]:
    with open(path, encoding="utf-8") as source:
        return [tuple(json.loads(line)) for line in source if line.strip()]


def summarize(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls``, ``busy_s`` and ``self_s``.

    A span's self time is its duration minus that of its direct
    children; children of one span run on its thread, one after the
    other, so their durations never overlap.
    """
    child_time: Dict[int, float] = defaultdict(float)
    for _, parent, _, _, start, end in spans:
        if parent is not None:
            child_time[parent] += end - start
    table: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
    )
    for span_id, _, _, name, start, end in spans:
        row = table[name]
        row["calls"] += 1
        row["busy_s"] += end - start
        row["self_s"] += end - start - child_time.get(span_id, 0.0)
    return dict(table)


def covered_seconds(spans: Sequence[Span], start: float, end: float) -> float:
    """Length of the union of root-span intervals clipped to [start, end]."""
    intervals = sorted(
        (max(s, start), min(e, end))
        for _, parent, _, _, s, e in spans
        if parent is None and e > start and s < end
    )
    total = 0.0
    cursor = start
    for s, e in intervals:
        if e <= cursor:
            continue
        total += e - max(s, cursor)
        cursor = e
    return total
