"""``scale``: a ladder of carry-skip cascades with warm leaf models.

Set-up warms an in-memory model library with the 8-bit block, so no
rung characterizes.  Each rung is parsed, validated and compiled, then
propagated at B=1 and B=64 and analysed demand-driven.  The structure
layers (parsers, netlist, kernel.plan) carry the work here.  Rungs
run largest first; once compiled, the largest answers single-scenario
queries (``CompiledDesign.propagate``), each timed: 4 after each later
stage, so that they sample the whole round.
"""

from __future__ import annotations

import random

from repro.api import AnalysisOptions
from repro.core.demand import DemandDrivenAnalyzer
from repro.core.hier import HierarchicalAnalyzer
from repro.library.store import ModelLibrary
from repro.parsers.verilog import loads_verilog

import checks
import gen
from harness import Round, counter, layer, over, timed_window, window_p50
from oracle import verilog as ov
from spans import span

SETUPS = 3
SETUP_PER_ROUND = False
#: Round outputs kept after the round is checked.
KEEP = ("last_carry", "query_ms")

#: Bits of each rung (block width 8): a doubling ladder spanning 8x.
#: csa8192.8 is left out: at this commit its round alone takes ~30 s.
RUNGS = (512, 1024, 2048, 4096)
BLOCK = 8
BATCH = 64
#: Queries the largest rung answers after each stage (parse, validate,
#: compile, propagate, demand) once it is compiled: after the last
#: three of its own stages and all five of every other rung's.
QUERY_CHUNK = 4
CHUNKS = 5 * len(RUNGS) - 2


def label(n: int) -> str:
    return f"csa{n}.{BLOCK}"


def setup(ctx) -> dict:
    rng = random.Random(ctx.seed)
    rungs = []
    for n in RUNGS:
        inputs = ["c_in"] + [f"{x}{i}" for i in range(n) for x in ("a", "b")]
        batch = [{}] + [gen.arrivals(rng, inputs, 8) for _ in range(BATCH - 1)]
        rungs.append({
            "n": n,
            "text": gen.cascade(n, BLOCK),
            "arrival": gen.arrivals(rng, inputs, 8),
            "batch": batch,
        })
    queries = [gen.arrivals(rng, inputs, 8)  # the largest rung's inputs
               for _ in range(QUERY_CHUNK * CHUNKS)]
    library = ModelLibrary()
    warm = HierarchicalAnalyzer(
        loads_verilog(gen.cascade(BLOCK, BLOCK)), library=library
    )
    warm.compile()
    return {"rungs": rungs, "library": library, "queries": queries}


def close(state) -> None:
    return None


def round(ctx, state, tracer) -> Round:
    options = AnalysisOptions(tracer=tracer)
    rnd = Round(wall=0.0, ops=[])
    rnd.out["query_ms"], rnd.out["query_rows"] = [], []
    chunks = iter([state["queries"][i:i + QUERY_CHUNK]
                   for i in range(0, len(state["queries"]), QUERY_CHUNK)])
    answering = None  # the largest rung's handle, once compiled

    def ask():
        if answering is not None:
            with span(tracer, "kernel.query"):
                timed_window(rnd, lambda a: answering.propagate(
                    [a], nets=answering.outputs)[0], next(chunks), "query_rows")

    for rung in reversed(state["rungs"]):
        name = label(rung["n"])
        rnd.ops.append(name)
        try:
            with tracer.context(name):
                with span(tracer, "parsers.read_verilog"):
                    design = loads_verilog(rung["text"])
                ask()
                with span(tracer, "netlist.validate"):
                    design.validate()
                ask()
                with span(tracer, "kernel.compile_warm"):
                    analyzer = HierarchicalAnalyzer(
                        design, library=state["library"], options=options
                    )
                    handle = analyzer.compile()
                if rung["n"] == RUNGS[-1]:
                    answering = handle
                ask()
                outputs = handle.outputs
                with span(tracer, "core.propagate"):
                    one = handle.propagate_rows(
                        [rung["arrival"]], nets=outputs, tracer=options.effective_tracer
                    )
                    rows = handle.propagate_rows(
                        rung["batch"], nets=outputs, tracer=options.effective_tracer
                    )
                ask()
                with span(tracer, "core.demand"):
                    demand = DemandDrivenAnalyzer(design, options=options)
                    dres = demand.analyze(rung["arrival"])
                ask()
        except Exception as exc:  # noqa: BLE001 - a crash fails the rung
            rnd.errors[name] = [f"{type(exc).__name__}: {exc}"]
            continue
        rnd.out[name] = {
            "one": one[0],
            "rows": rows,
            "topological": dres.topological_delay,
            "demand": dres.delay,
            "models": analyzer.models_for(gen.block_name(BLOCK)),
            "misses": state["library"].stats.misses,
            "handle": handle,
        }
    rnd.out["last_carry"] = {
        name: out["rows"][0][-1] for name, out in rnd.out.items()
        if name in rnd.ops
    }
    return rnd


def _reference(state):
    cached = state.get("reference")
    if cached is None:
        cached = state["reference"] = {}
        for rung in state["rungs"]:
            ref = ov.read(rung["text"])
            pins = {n: ov.leaf_pin_delays(l) for n, l in ref.leaves.items()}
            cached[label(rung["n"])] = (ref, pins)
    return cached


def check(ctx, state, rnd) -> dict:
    failures = {}
    reference = _reference(state)
    for rung in state["rungs"]:
        name = label(rung["n"])
        out = rnd.out.get(name)
        if out is None:
            continue
        ref, pins = reference[name]
        errs = []
        topo = ov.topological_delay(ref, rung["arrival"], pins)
        if out["topological"] != topo:
            errs.append(f"program topological {out['topological']:g} != {topo:g}")
        errs += checks.at_most("demand delay", out["demand"], topo)
        errs += checks.at_most("B=1 delay", max(out["one"]), topo)
        topo0 = ov.topological_delay(ref, {}, pins)
        for i, (row, arrival) in enumerate(zip(out["rows"], rung["batch"])):
            # exact bound on a sample, the sound shifted bound on all
            bound = (
                ov.topological_delay(ref, arrival, pins) if i < 4
                else topo0 + max(arrival.values(), default=0.0)
            )
            errs += checks.at_most(f"B={BATCH} row {i}", max(row), bound)
        if out["misses"] != 1:  # the one miss is set-up's warming
            errs.append(f"model library missed {out['misses'] - 1} times")
        errs += checks.skip_delay(out["models"], BLOCK)
        x = sorted(rung["arrival"])[0]
        raised = dict(rung["arrival"], **{x: rung["arrival"][x] + 3.0})
        after = out["handle"].propagate_rows([raised], nets=out["handle"].outputs)
        errs += checks.monotone(out["one"], after[0], 3.0, f"raise {x}")
        if rung["n"] == RUNGS[-1]:
            rows = rnd.out["query_rows"]
            if len(rows) != len(state["queries"]):
                errs.append(f"{len(rows)} of {len(state['queries'])} queries ran")
            for i, (row, a) in enumerate(zip(rows, state["queries"])):
                errs += checks.at_most(
                    f"query {i}", max(row.values()), topo0 + max(a.values())
                )
        failures[name] = errs
    return failures


def check_all(ctx, state, rounds) -> list[str]:
    """Figure 4's 2n+6 generalised: the last carry grows by exactly 2
    per added block along the ladder."""
    errors = []
    for rnd in rounds:
        last = rnd.out["last_carry"]
        if len(last) != len(RUNGS):
            continue  # a failed rung is already counted
        carries = [(n, last[label(n)]) for n in RUNGS]
        for (n0, c0), (n1, c1) in zip(carries, carries[1:]):
            if c1 - c0 != 2 * (n1 - n0) / BLOCK:
                errors.append(
                    f"last carry {c0:g} -> {c1:g} from {label(n0)} to {label(n1)}"
                )
    return errors


def end_to_end(ctx, state, rounds) -> dict:
    reference = _reference(state)
    out = rounds[0].out
    removed = sum(
        ov.topological_delay(ref, {}, pins) - max(out[name]["rows"][0])
        for name, (ref, pins) in reference.items() if name in out
    )
    metrics = {"pessimism_removed": (removed, "delay")}
    windows = [w for r in rounds for w in r.out["query_ms"]]
    if windows:
        metrics["req_p50_ms"] = (window_p50(windows), "ms")
    return metrics


def probe_design(state) -> str:
    return state["rungs"][0]["text"]


def per_layer(ctx, state, traced, untraced) -> dict:
    return {
        "parsers.read_verilog_s": (over(traced, layer("parsers.read_verilog")), "s"),
        "netlist.validate_s": (over(traced, layer("netlist.validate")), "s"),
        "kernel.compile_warm_s": (over(traced, layer("kernel.compile_warm")), "s"),
        "library.hits": (
            over(traced, counter("library.hits")), "count"
        ),
        "core.propagate_s": (over(traced, layer("core.propagate")), "s"),
        "core.demand_s": (over(traced, layer("core.demand")), "s"),
    }
