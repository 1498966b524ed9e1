"""The run loop every workload shares, and the result line.

A workload module provides:

* ``SETUPS``: how many times set-up is repeated (``setup_s`` reports
  the median, plus the one-off import time);
* ``SETUP_PER_ROUND``: set up afresh before every round (for a server,
  whose per-instance state would otherwise be sampled once per run);
* ``setup(ctx) -> state``, ``close(state)``;
* ``round(ctx, state, tracer) -> Round``: the workload's fixed amount
  of work, always the same operations; ``tracer`` is a
  ``repro.obs.Tracer`` in a traced round and ``NULL_TRACER`` otherwise;
* ``check(ctx, state, rnd) -> {op: [failure, ...]}`` and
  ``check_all(ctx, state, rounds) -> [failure, ...]``;
* ``end_to_end(ctx, state, rounds) -> {name: (value, unit)}`` for the
  metrics beyond ``setup_s``/``job_s``/``peak_rss_mb``;
* ``probe_design(state) -> str``: the Verilog text the layer probe
  (``probe.py``) measures every per-layer metric on;
* ``per_layer(ctx, state, traced, untraced) -> {name: (value, unit)}``:
  the per-layer metrics the traced rounds measure themselves, which
  replace the probe's.

An untraced run repeats rounds until they add up to ``--seconds`` (at
least one).  A traced run alternates an untraced and a traced round
for as long, so ``tracing_overhead_s`` compares the same work.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

from repro.obs import NULL_TRACER, RingBufferSink, Tracer
from repro.obs.export import write_chrome_trace

import spans
from oracle import xbd0

#: Records a traced round keeps (far more than any round emits).
RECORDS = 1 << 20


@dataclass
class Context:
    workload: str
    seed: int
    seconds: float
    trace: bool
    root: object  # checkout root (pathlib.Path)
    t_process: float  # perf_counter at interpreter start
    #: Facts a workload gathers across set-ups (e.g. server peak memory).
    notes: dict = field(default_factory=dict)


@dataclass
class Round:
    wall: float
    ops: list[str]
    out: dict = field(default_factory=dict)
    tracer: object = None
    records: tuple = ()
    #: The round's start and end in tracer time (traced rounds).
    job: tuple[float, float] = (0.0, 0.0)
    errors: dict = field(default_factory=dict)


def over(rounds, f) -> float:
    """Median over rounds of ``f(round)``."""
    return statistics.median(f(r) for r in rounds)


def layer(name: str):
    """Seconds a round spent in spans named ``name``."""
    return lambda r: spans.layer_seconds(r.records).get(name, 0.0)


def counter(name: str):
    """A program counter's value at the end of a traced round."""
    return lambda r: r.tracer.metrics.counter(name).value


def timed_window(rnd: Round, answer, arrivals, key: str) -> None:
    """Answer each arrival vector with ``answer``, each call timed: the
    times become one window of ``rnd.out["query_ms"]`` (see
    :func:`window_p50`), the answers go to ``rnd.out[key]``."""
    window = []
    for a in arrivals:
        t0 = time.perf_counter()
        result = answer(a)
        window.append((time.perf_counter() - t0) * 1e3)
        rnd.out[key].append(result)
    rnd.out["query_ms"].append(window)


def window_p50(windows) -> float:
    """Mean over windows of consecutive queries of each window's median
    latency.  The median drops a window's outliers; the mean over
    windows spread across the run follows the host's speed evenly,
    where one median over all queries jumps between its fast and slow
    spells."""
    return statistics.fmean(statistics.median(w) for w in windows)


def tail_percentile(n: int) -> float:
    """The highest percentile with at least ten samples beyond it."""
    if n < 40:
        raise ValueError("no tail percentile below 40 samples")
    return 100.0 * (1.0 - 10.0 / n)


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 100])."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def peak_rss_mb(who=resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def _one_round(wl, ctx, state, traced: bool) -> Round:
    sink = RingBufferSink(capacity=RECORDS)
    tracer = Tracer(sinks=[sink]) if traced else NULL_TRACER
    start = tracer.elapsed_seconds()
    t0 = time.perf_counter()
    rnd = wl.round(ctx, state, tracer)
    rnd.wall = time.perf_counter() - t0
    rnd.job = (start, tracer.elapsed_seconds())
    rnd.tracer = tracer
    rnd.records = sink.records()
    if sink.emitted > len(rnd.records):
        raise RuntimeError(f"a traced round emitted over {RECORDS} records")
    return rnd


def run(wl, ctx: Context, t_imported: float) -> dict:
    """Set up, measure, check; returns the result object."""
    setup_times = []
    state = None

    def set_up():
        nonlocal state
        if state is not None:
            wl.close(state)
            state = None
        t0 = time.perf_counter()
        state = wl.setup(ctx)
        setup_times.append(time.perf_counter() - t0)

    try:
        if not wl.SETUP_PER_ROUND:
            for _ in range(wl.SETUPS):
                set_up()
        untraced: list[Round] = []
        traced: list[Round] = []
        failures: dict[str, list[str]] = {}
        attempted = failed = 0
        rss = None

        def measure(is_traced: bool) -> None:
            nonlocal attempted, failed, rss
            rnd = _one_round(wl, ctx, state, is_traced)
            if rss is None:
                rss = peak_rss_mb()  # set-up and one round, before checks
            (traced if is_traced else untraced).append(rnd)
            try:
                found = wl.check(ctx, state, rnd)
            except Exception:  # noqa: BLE001 - a crashed check fails its round
                traceback.print_exc(file=sys.stderr)
                found = {op: ["check raised"] for op in rnd.ops}
            for op, errs in rnd.errors.items():
                found.setdefault(op, []).extend(errs)
            attempted += len(rnd.ops)
            bad = [op for op in rnd.ops if found.get(op)]
            failed += len(bad)
            for op in bad:
                failures[f"round {len(untraced) + len(traced) - 1} {op}"] = found[op]
            if len(untraced) + len(traced) > 1:
                # later rounds keep only their small summaries, so memory
                # does not grow with the number of rounds
                rnd.out = {k: v for k, v in rnd.out.items() if k in wl.KEEP}

        while True:  # --seconds of measured rounds; checks do not count
            if wl.SETUP_PER_ROUND:
                set_up()
            measure(False)
            if ctx.trace:
                measure(True)
            if sum(r.wall for r in untraced) >= ctx.seconds and (
                len(setup_times) >= wl.SETUPS
            ):
                break
        setup_s = (t_imported - ctx.t_process) + statistics.median(setup_times)
        rounds = untraced + traced
        global_failures = wl.check_all(ctx, state, rounds)
        try:
            xbd0.self_check()  # the oracles against the paper's Figure 3
        except AssertionError as exc:
            global_failures.append(f"oracle self-check: {exc}")
        if ctx.trace:
            import probe  # imports this module, so not at the top

            metrics = probe.measure(ctx.root, ctx.seed, wl.probe_design(state))
            metrics.update(wl.per_layer(ctx, state, traced, untraced))
            metrics["unattributed_s"] = (
                statistics.median(spans.unattributed(r.records, *r.job)
                                  for r in traced), "s"
            )
            metrics["tracing_overhead_s"] = (
                statistics.median(r.wall for r in traced)
                - statistics.median(r.wall for r in untraced), "s"
            )
            last = traced[-1]
            out = ctx.root / ".perfbench"
            out.mkdir(exist_ok=True)
            write_chrome_trace(out / f"trace-{ctx.workload}-{ctx.seed}.json",
                               last.records, metrics=last.tracer.metrics)
            for name, sec in sorted(spans.self_seconds(last.records).items()):
                print(f"self time {name}: {sec:.4f} s", file=sys.stderr)
        else:
            print("round walls: " + ", ".join(f"{r.wall:.3f}" for r in untraced),
                  file=sys.stderr)
            metrics = {
                "setup_s": (setup_s, "s"),
                "job_s": (statistics.median(r.wall for r in untraced), "s"),
                "peak_rss_mb": (rss, "MB"),
            }
            metrics.update(wl.end_to_end(ctx, state, untraced))
    finally:
        if state is not None:
            wl.close(state)
    if not ctx.trace and hasattr(wl, "peak_rss"):
        metrics["peak_rss_mb"] = (wl.peak_rss(ctx), "MB")
    spec = json.loads((ctx.root / "BENCHMARK.json").read_text())
    for m in spec["per_layer" if ctx.trace else "end_to_end"]:
        if m["name"] not in metrics:
            global_failures.append(f"metric {m['name']} was not measured")
    for name, errs in list(failures.items())[:20]:
        print(f"FAILED {name}: {'; '.join(errs)}", file=sys.stderr)
    for err in global_failures:
        print(f"FAILED {err}", file=sys.stderr)
    return {
        "correct": not global_failures and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }


def emit(result: dict) -> None:
    print(json.dumps(result), flush=True)
