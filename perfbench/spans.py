"""Layer spans of the traced run, kept on the program's own tracer.

The benchmark opens a span around each call it makes into a layer, on
the round's :class:`repro.obs.Tracer` (the one it also passes in
``AnalysisOptions``).  A layer span is named ``<layer>.<what>`` and
carries the layer as its phase (``parsers``, ``netlist``, ``core``,
``kernel``, ``scenarios``, ``server``); the operation it serves is bound
with ``tracer.context(op)``.  Records stay in memory and are written at
the end with ``repro.obs.export.write_chrome_trace``, which
``tools/trace_analyze.py`` reads.
"""

from __future__ import annotations

from collections import defaultdict

LAYERS = ("parsers", "netlist", "core", "kernel", "scenarios", "server")


def span(tracer, name: str):
    """Time one call into the layer ``name`` starts with."""
    return tracer.span(name, phase=name.split(".", 1)[0])


def _layer_spans(records):
    return [
        r for r in records
        if r.kind == "span" and r.phase in LAYERS
        and r.name.startswith(r.phase + ".")
    ]


def layer_seconds(records) -> dict[str, float]:
    """Total duration per layer span name."""
    totals: dict[str, float] = defaultdict(float)
    for r in _layer_spans(records):
        totals[r.name] += r.seconds
    return dict(totals)


def self_seconds(records) -> dict[str, float]:
    """Self time per span name (the program's spans too): duration
    minus that of the spans nested in it."""
    spans = [r for r in records if r.kind == "span"]
    child_time: dict[int, float] = defaultdict(float)
    for r in spans:
        if r.parent_id:
            child_time[r.parent_id] += r.seconds
    totals: dict[str, float] = defaultdict(float)
    for r in spans:
        totals[r.name] += r.seconds - child_time.get(r.span_id, 0.0)
    return dict(totals)


def unattributed(records, start: float, end: float) -> float:
    """Seconds of [start, end] (tracer time) covered by no layer span."""
    intervals = sorted(
        (max(r.t, start), min(r.t + r.seconds, end))
        for r in _layer_spans(records)
        if r.t + r.seconds > start and r.t < end
    )
    covered = 0.0
    cur_s = cur_e = None
    for s, e in intervals:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                covered += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        covered += cur_e - cur_s
    return (end - start) - covered
