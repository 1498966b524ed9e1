"""The layer probe: every layer's public calls timed on one design.

A workload's traced rounds time the layers its own work goes through
(``signoff`` never compiles, ``sweep`` never parses inside a round).
So that a traced run reports every per-layer metric, the probe then
calls each layer once, in process, on the workload's probe design with
seeded arrivals, and a ``serve`` subprocess for the server metrics.
Where a workload's rounds measure a metric themselves, their figure
replaces the probe's (README, "Per-layer metrics").
"""

from __future__ import annotations

import http.client
import json
import os
import random
import selectors
import signal
import statistics
import subprocess
import sys
import time

from repro.api import AnalysisOptions, AnalysisSession
from repro.core.demand import DemandDrivenAnalyzer
from repro.core.hier import HierarchicalAnalyzer, IncrementalAnalyzer
from repro.library.store import ModelLibrary
from repro.obs import Tracer
from repro.parsers.verilog import loads_verilog
from repro.scenarios import MonteCarlo, ParametricSweep, Scenario, ScenarioSet
from repro.scenarios.engine import analyze_family
from repro.server import TimingServerApp

import gen
from harness import percentile, tail_percentile
from oracle import verilog as ov

#: Single-scenario requests sent in process and to the server (enough
#: for a tail percentile), and the batch of the wide kernel probe.
REQUESTS = 64
#: Repetitions of each kernel probe.
KERNEL_REPEATS = 8
#: Members of each scenario family.
FAMILY = 32
#: Scenarios of the demand-driven batch.
DEMAND_BATCH = 2
START_TIMEOUT = 60.0


class Server:
    """One ``serve`` subprocess; :meth:`stop` always reaps it."""

    def __init__(self, root):
        env = dict(os.environ)
        src = str(root / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--host", "127.0.0.1", "--port", "0"],
            cwd=str(root), env=env, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True,
        )
        try:
            self.port = self._await_port()
        except BaseException:
            self.stop()
            raise

    def _await_port(self) -> int:
        sel = selectors.DefaultSelector()
        sel.register(self.proc.stdout, selectors.EVENT_READ)
        deadline = time.monotonic() + START_TIMEOUT
        try:
            while time.monotonic() < deadline:
                if not sel.select(timeout=deadline - time.monotonic()):
                    break
                line = self.proc.stdout.readline()
                if not line:
                    break
                if line.startswith("serving "):
                    return int(line.rsplit(":", 1)[1].strip().rstrip("/"))
        finally:
            sel.close()
        raise RuntimeError("server did not announce its port")

    def peak_mb(self) -> float | None:
        """The server's peak resident memory (VmHWM), while it runs."""
        try:
            with open(f"/proc/{self.proc.pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1]) / 1024.0
        except OSError:
            pass
        return None

    def stop(self) -> None:
        proc = self.proc
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        if proc.stdout is not None:
            proc.stdout.close()


def post(conn, path: str, body: bytes) -> tuple[int, bytes]:
    conn.request("POST", path, body=body,
                 headers={"Content-Type": "application/json"})
    resp = conn.getresponse()
    return resp.status, resp.read()


def get(conn, path: str) -> tuple[int, bytes]:
    conn.request("GET", path)
    resp = conn.getresponse()
    return resp.status, resp.read()


def register(port: int, text: str, filename: str) -> tuple[str, float]:
    """``POST /designs``; returns the design id and the seconds taken."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        t0 = time.perf_counter()
        status, body = post(
            conn, "/designs",
            json.dumps({"source": text, "filename": filename}).encode(),
        )
        seconds = time.perf_counter() - t0
    finally:
        conn.close()
    if status != 200:
        raise RuntimeError(f"POST /designs answered {status}: {body[:200]!r}")
    return json.loads(body)["design"], seconds


def analyze_body(design: str, arrival: dict) -> bytes:
    return json.dumps(
        {"design": design, "arrival": arrival, "include": ["outputs"]}
    ).encode()


def sequential(port: int, bodies) -> tuple[list[float], list[float]]:
    """Send ``bodies`` over one connection, one at a time.  Returns the
    client latencies (s) and, per request, the client latency minus the
    handler latency the same server's flight recorder kept for it (ms):
    the HTTP shell and socket."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        timed = []
        for b in bodies:
            t0 = time.perf_counter()
            status, body = post(conn, "/analyze", b)
            if status == 200:
                timed.append((time.perf_counter() - t0,
                              json.loads(body)["trace_id"]))
        shell = []
        for client_s, trace_id in timed:
            status, body = get(conn, f"/debug/requests?trace_id={trace_id}")
            if status == 200:
                record = json.loads(body)["record"]
                shell.append(client_s * 1e3 - record["latency_ms"])
        return [c for c, _ in timed], shell
    finally:
        conn.close()


def kernel_ms(handle, scenarios, backend) -> float:
    """Median ms per scenario of ``propagate_rows`` on one backend."""
    times = []
    for _ in range(KERNEL_REPEATS):
        t0 = time.perf_counter()
        handle.propagate_rows(scenarios, backend=backend, nets=handle.outputs)
        times.append((time.perf_counter() - t0) / len(scenarios))
    return statistics.median(times) * 1e3


def _since(t0: float) -> float:
    return time.perf_counter() - t0


def measure(root, seed: int, text: str) -> dict:
    """Every per-layer metric but ``unattributed_s`` and
    ``tracing_overhead_s``, measured once on the design ``text``."""
    rng = random.Random(seed)
    inputs = ov.read(text).top.inputs
    arrivals = [gen.arrivals(rng, inputs, min(8, len(inputs)))
                for _ in range(REQUESTS)]
    first = arrivals[0]
    tracer = Tracer()
    m = {}

    t0 = time.perf_counter()
    design = loads_verilog(text)
    m["parsers.read_verilog_s"] = (_since(t0), "s")
    t0 = time.perf_counter()
    design.validate()
    m["netlist.validate_s"] = (_since(t0), "s")

    t0 = time.perf_counter()
    inc = IncrementalAnalyzer(design, options=AnalysisOptions(tracer=tracer))
    inc.characterize_all()
    m["core.characterize_s"] = (_since(t0), "s")
    for name, key in (("core.stability_checks", "xbd0.stability_checks"),
                      ("sat.calls", "xbd0.sat_calls"),
                      ("core.encodings_reused", "xbd0.encodings_reused")):
        m[name] = (tracer.metrics.counter(key).value, "count")
    t0 = time.perf_counter()
    inc.analyze(first)
    m["core.propagate_s"] = (_since(t0), "s")

    t0 = time.perf_counter()
    dres = DemandDrivenAnalyzer(design).analyze(first)
    m["core.demand_s"] = (_since(t0), "s")
    m["core.refinement_checks"] = (dres.refinement_checks, "count")
    t0 = time.perf_counter()
    AnalysisSession(design).analyze_batch(
        ScenarioSet([Scenario(arrival=a) for a in arrivals[1:1 + DEMAND_BATCH]]),
        method="demand",
    )
    m["core.demand_batch_ms"] = (_since(t0) / DEMAND_BATCH * 1e3, "ms/scenario")

    library = ModelLibrary()
    HierarchicalAnalyzer(design, library=library).compile()  # warms it
    warm = Tracer()
    t0 = time.perf_counter()
    handle = HierarchicalAnalyzer(
        design, library=library, options=AnalysisOptions(tracer=warm)
    ).compile()
    m["kernel.compile_warm_s"] = (_since(t0), "s")
    m["library.hits"] = (warm.metrics.counter("library.hits").value, "count")
    for backend in ("python", "numpy"):
        for b in (1, REQUESTS):
            m[f"kernel.{backend}_b{b}_ms"] = (
                kernel_ms(handle, arrivals[:b], backend), "ms/scenario"
            )
    values = [-1.0 + 2.0 * i / (FAMILY - 1) for i in range(FAMILY)]
    for name, family in (
        ("scenarios.mc_member_ms",
         MonteCarlo(FAMILY, seed=seed, sigma_rel=0.05, arrival=first)),
        ("scenarios.parametric_member_ms",
         ParametricSweep("vdd", values, sensitivity=0.2, arrival=first)),
    ):
        t0 = time.perf_counter()
        analyze_family(handle, family)
        m[name] = (_since(t0) / FAMILY * 1e3, "ms")

    module = gen.last_module(text)
    edited = loads_verilog(gen.eco_edit(text, module)[0])
    t0 = time.perf_counter()
    inc.replace_module(module, edited)
    inc.analyze(first)
    m["core.eco_reanalyze_s"] = (_since(t0), "s")

    app = TimingServerApp()
    try:
        _status, _ctype, body = app.handle(
            "POST", "/designs",
            json.dumps({"source": text, "filename": "probe.v"}).encode(),
        )
        design_id = json.loads(body)["design"]
        inproc, queue = [], []
        for a in arrivals:
            req = analyze_body(design_id, a)
            t0 = time.perf_counter()
            _status, _ctype, body = app.handle("POST", "/analyze", req)
            inproc.append(_since(t0))
            queue.append(json.loads(body)["queue_ms"])
    finally:
        app.registry.close()
    m["server.inproc_p50_ms"] = (statistics.median(inproc) * 1e3, "ms")
    m["server.queue_p50_ms"] = (statistics.median(queue), "ms")

    server = Server(root)
    try:
        design_id, register_s = register(server.port, text, "probe.v")
        client, shell = sequential(
            server.port, [analyze_body(design_id, a) for a in arrivals]
        )
    finally:
        server.stop()
    m["server.register_s"] = (register_s, "s")
    m["server.shell_p50_ms"] = (statistics.median(shell), "ms")
    m["server.req_tail_ms"] = (
        percentile(client, tail_percentile(len(client))) * 1e3, "ms"
    )
    return m
