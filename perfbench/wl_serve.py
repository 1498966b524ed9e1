"""``serve``: the ``serve`` subprocess answering single-scenario requests.

Set-up starts ``python -m repro.cli serve``, registers csa2048.8
through ``POST /designs`` and sends a few warm-up requests.  A round is
a closed loop of 2 keep-alive connections (one per core) sending 500
``/analyze`` requests with sparse seeded arrivals; each connection
waits for its reply before its next request.  Every round runs on a
fresh server, three per run.
"""

from __future__ import annotations

import http.client
import json
import random
import statistics
import threading
import time

from repro.core.hier import HierarchicalAnalyzer
from repro.obs import NULL_TRACER
from repro.parsers.verilog import loads_verilog

import checks
import gen
from harness import Round, over, percentile, tail_percentile, window_p50
from oracle import verilog as ov
from probe import Server, analyze_body, post, register, sequential
from spans import span

SETUPS = 3
#: Each round runs on a fresh server: latency varies more between server
#: instances than between rounds on one.
SETUP_PER_ROUND = True
#: Round outputs kept after the round is checked.
KEEP = ("latencies", "windows", "queue_ms")
BITS, BLOCK = 2048, 8
REQUESTS = 500
#: Consecutive requests per latency window (``harness.window_p50``).
WINDOW = 50
CONNECTIONS = 2
#: Requests sent during set-up so that the first timed round finds the
#: server's per-design caches (kernel executors, coalescer) filled.
WARMUP = 64
#: Requests timed one at a time for the per-layer shell figure (fewer
#: than the server's flight recorder keeps, 512).
SEQUENTIAL = 200


def setup(ctx) -> dict:
    rng = random.Random(ctx.seed)
    text = gen.cascade(BITS, BLOCK)
    inputs = ["c_in"] + [f"{x}{i}" for i in range(BITS) for x in ("a", "b")]
    arrivals = [gen.arrivals(rng, inputs, 4) for _ in range(REQUESTS)]
    warmup = [gen.arrivals(rng, inputs, 4) for _ in range(WARMUP)]
    server = Server(ctx.root)
    try:
        design, register_s = register(server.port, text, "csa2048_8.v")
        bodies = [analyze_body(design, a) for a in warmup + arrivals]
        _closed_loop(server.port, bodies[:WARMUP], NULL_TRACER)
        # the served answer at zero arrivals, for pessimism_removed
        zero = _closed_loop(server.port, [analyze_body(design, {})], NULL_TRACER)
        if zero[0][1] != 200:
            raise RuntimeError(f"zero-arrival /analyze answered {zero[0][1]}")
        ctx.notes.setdefault("zero_delays", []).append(
            json.loads(zero[0][2])["delay"]
        )
    except BaseException:
        server.stop()
        raise
    bodies = bodies[WARMUP:]
    return {
        "server": server, "peaks": ctx.notes.setdefault("server_peaks", []),
        "text": text, "arrivals": arrivals,
        "bodies": bodies, "register_s": register_s,
    }


def close(state) -> None:
    server = state["server"]
    peak = server.peak_mb()
    if peak is not None:
        state["peaks"].append(peak)
    server.stop()


def peak_rss(ctx) -> float:
    """Peak resident memory of the server processes.  Read from the
    server itself: a forked child's rusage also counts the pages it
    shared with the benchmark before exec."""
    return max(ctx.notes["server_peaks"])


def _client(port, indices, bodies, results, tracer) -> None:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        for i in indices:
            t0 = time.perf_counter()
            try:
                with tracer.context(f"req-{i}"), span(tracer, "server.analyze"):
                    status, body = post(conn, "/analyze", bodies[i])
            except (OSError, http.client.HTTPException) as exc:
                results[i] = (time.perf_counter() - t0, 0, str(exc).encode())
                conn.close()
                conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
                continue
            results[i] = (time.perf_counter() - t0, status, body)
    finally:
        conn.close()


def _closed_loop(port, bodies, tracer) -> list:
    """Send ``bodies`` over CONNECTIONS keep-alive connections, each
    waiting for a reply before its next request."""
    results: list = [None] * len(bodies)
    threads = [
        threading.Thread(
            target=_client,
            args=(port, range(c, len(bodies), CONNECTIONS), bodies, results,
                  tracer),
        )
        for c in range(CONNECTIONS)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return results


def round(ctx, state, tracer) -> Round:
    results = _closed_loop(state["server"].port, state["bodies"], tracer)
    rnd = Round(wall=0.0, ops=[f"req-{i}" for i in range(REQUESTS)])
    rnd.out["results"] = results
    rnd.out["latencies"] = [r[0] for r in results if r is not None and r[1] == 200]
    rnd.out["windows"] = [
        [r[0] for r in results[i:i + WINDOW] if r is not None and r[1] == 200]
        for i in range(0, REQUESTS, WINDOW)
    ]
    return rnd


def _expected(ctx, state):
    """In-process rows and topological bounds, shared by every set-up
    (they all serve the same seeded requests)."""
    cached = ctx.notes.get("expected")
    if cached is None:
        handle = HierarchicalAnalyzer(loads_verilog(state["text"])).compile()
        rows = handle.propagate_rows(state["arrivals"], nets=handle.outputs)
        ref = ov.read(state["text"])
        pins = {n: ov.leaf_pin_delays(l) for n, l in ref.leaves.items()}
        topo0 = ov.topological_delay(ref, {}, pins)
        exact = [ov.topological_delay(ref, a, pins) for a in state["arrivals"][:8]]
        cached = ctx.notes["expected"] = {
            "outputs": handle.outputs, "rows": rows, "topo0": topo0,
            "exact": exact,
            "zero": max(handle.propagate_rows([{}], nets=handle.outputs)[0]),
        }
    return cached


def check(ctx, state, rnd) -> dict:
    want = _expected(ctx, state)
    failures = {}
    queue = rnd.out["queue_ms"] = []
    for i, res in enumerate(rnd.out["results"]):
        errs = []
        if res is None:
            errs.append("no reply")
        else:
            _lat, status, body = res
            if status != 200:
                errs.append(f"status {status}: {body[:120]!r}")
            else:
                doc = json.loads(body)
                queue.append(doc["queue_ms"])
                row = [doc["outputs"][o] for o in want["outputs"]]
                if row != want["rows"][i]:
                    errs.append("row differs from in-process propagate")
                arrival = state["arrivals"][i]
                bound = (
                    want["exact"][i] if i < len(want["exact"])
                    else want["topo0"] + max(arrival.values())
                )
                errs += checks.at_most("served delay", doc["delay"], bound)
        failures[f"req-{i}"] = errs
    return failures


def check_all(ctx, state, rounds) -> list[str]:
    """Every server answered the zero-arrival request as the in-process
    handle does."""
    want = _expected(ctx, state)["zero"]
    return [
        f"served zero-arrival delay {d:g} != in-process {want:g}"
        for d in ctx.notes["zero_delays"] if d != want
    ]


def _tail_ms(rounds) -> float | None:
    """Median over rounds of each round's highest percentile with 10
    samples beyond it (p98 at 500 requests)."""
    rounds = [r for r in rounds if len(r.out["latencies"]) >= 40]
    if not rounds:
        return None
    return over(rounds, lambda r: percentile(
        r.out["latencies"], tail_percentile(len(r.out["latencies"])))) * 1e3


def end_to_end(ctx, state, rounds) -> dict:
    removed = _expected(ctx, state)["topo0"] - max(ctx.notes["zero_delays"])
    metrics = {"pessimism_removed": (removed, "delay")}
    windows = [w for r in rounds for w in r.out["windows"] if w]
    if windows:
        metrics["req_p50_ms"] = (window_p50(windows) * 1e3, "ms")
    return metrics


def probe_design(state) -> str:
    return state["text"]


def per_layer(ctx, state, traced, untraced) -> dict:
    metrics = {"server.register_s": (state["register_s"], "s")}
    # the same requests over one socket, one at a time, to the server
    _client, shell = sequential(state["server"].port,
                                state["bodies"][:SEQUENTIAL])
    if shell:
        metrics["server.shell_p50_ms"] = (statistics.median(shell), "ms")
    queue = [q for rnd in traced for q in rnd.out["queue_ms"]]
    if queue:
        metrics["server.queue_p50_ms"] = (statistics.median(queue), "ms")
    tail = _tail_ms(untraced)
    if tail is not None:
        metrics["server.req_tail_ms"] = (tail, "ms")
    return metrics
