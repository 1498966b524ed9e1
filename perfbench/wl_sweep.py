"""``sweep``: in-process scenario work on one compiled csa2048.8.

A round runs a Monte-Carlo family and a parametric family of 300
members each, a 256-scenario ``analyze_batch``, a 4-scenario
``analyze_batch(method="demand")`` on a fresh session (so no round
reuses an earlier round's refinements), and single-scenario queries
(``CompiledDesign.propagate``), each timed: 16 after each of the four
calls, so that they sample the whole round.
"""

from __future__ import annotations

import random
import time

from repro.api import AnalysisOptions, AnalysisSession
from repro.parsers.verilog import loads_verilog
from repro.scenarios import MonteCarlo, ParametricSweep, Scenario, ScenarioSet

import checks
import gen
from harness import Round, over, timed_window, window_p50
from oracle import verilog as ov
from spans import span

SETUPS = 2
SETUP_PER_ROUND = False
#: Round outputs kept after the round is checked.
KEEP = ("monte-carlo_s", "parametric_s", "batch_s", "demand_s", "query_ms")
BITS, BLOCK = 2048, 8
MEMBERS = 300
BATCH = 256
DEMAND = 4
#: Queries after each of the four calls.
QUERY_CHUNK = 16


def setup(ctx) -> dict:
    rng = random.Random(ctx.seed)
    text = gen.cascade(BITS, BLOCK)
    inputs = ["c_in"] + [f"{x}{i}" for i in range(BITS) for x in ("a", "b")]
    base = gen.arrivals(rng, inputs, 8)
    batch = [gen.arrivals(rng, inputs, 8) for _ in range(BATCH)]
    demand = [gen.arrivals(rng, inputs, 8) for _ in range(DEMAND)]
    design = loads_verilog(text)
    session = AnalysisSession(design)
    handle = session.compile()
    # fill the handle's per-backend executor caches before timing
    session.analyze_family(MonteCarlo(16, seed=1, sigma_rel=0.05))
    session.analyze_batch(ScenarioSet([Scenario(arrival=a) for a in batch[:16]]))
    handle.propagate_rows(batch[:1], nets=handle.outputs)
    return {
        "text": text, "design": design, "session": session, "handle": handle,
        "base": base, "batch": batch, "demand": demand,
        "mc_seed": rng.randrange(1 << 30),
        "values": sorted(rng.uniform(-1.0, 1.0) for _ in range(MEMBERS)),
        "queries": [gen.arrivals(rng, inputs, 8) for _ in range(4 * QUERY_CHUNK)],
    }


def close(state) -> None:
    return None


def round(ctx, state, tracer) -> Round:
    options = AnalysisOptions(tracer=tracer)
    session, handle = state["session"], state["handle"]
    rnd = Round(wall=0.0, ops=["monte-carlo", "parametric", "batch", "demand",
                               "queries"])
    calls = {
        "monte-carlo": ("scenarios.monte_carlo", lambda: session.analyze_family(
            MonteCarlo(MEMBERS, seed=state["mc_seed"], sigma_rel=0.05,
                       arrival=state["base"]))),
        "parametric": ("scenarios.parametric", lambda: session.analyze_family(
            ParametricSweep("vdd", state["values"], sensitivity=0.2,
                            arrival=state["base"]))),
        "batch": ("kernel.batch", lambda: session.analyze_batch(
            ScenarioSet([Scenario(arrival=a) for a in state["batch"]]))),
        "demand": ("core.demand_batch", lambda: AnalysisSession(
            state["design"], options).analyze_batch(
                ScenarioSet([Scenario(arrival=a) for a in state["demand"]]),
                method="demand")),
    }
    rnd.out["queries"], rnd.out["query_ms"] = [], []
    for i, (op, (layer, call)) in enumerate(calls.items()):
        try:
            with tracer.context(op), span(tracer, layer):
                t0 = time.perf_counter()
                result = call()
                rnd.out[op + "_s"] = time.perf_counter() - t0
            rnd.out[op] = result
        except Exception as exc:  # noqa: BLE001 - a crash fails the op
            rnd.errors[op] = [f"{type(exc).__name__}: {exc}"]
        chunk = state["queries"][i * QUERY_CHUNK:(i + 1) * QUERY_CHUNK]
        try:
            with tracer.context("queries"), span(tracer, "kernel.query"):
                timed_window(rnd, lambda a: handle.propagate(
                    [a], nets=handle.outputs)[0], chunk, "queries")
        except Exception as exc:  # noqa: BLE001 - a crash fails the op
            rnd.errors.setdefault("queries", []).append(
                f"{type(exc).__name__}: {exc}"
            )
    return rnd


def _expected(state) -> dict:
    """Reference rows, bounds and the checks that do not depend on a
    round's outputs, computed once per run."""
    cached = state.get("expected")
    if cached is not None:
        return cached
    ref = ov.read(state["text"])
    pins = {n: ov.leaf_pin_delays(l) for n, l in ref.leaves.items()}
    topo0 = ov.topological_delay(ref, {}, pins)
    handle = state["handle"]
    outputs = handle.outputs
    rows = handle.propagate_rows(state["batch"], backend="numpy", nets=outputs)
    py = handle.propagate_rows(state["batch"], backend="python", nets=outputs)
    batch_errs = [] if rows == py else ["numpy and python rows differ"]
    x = sorted(state["base"])[0]
    raised = dict(state["base"], **{x: state["base"][x] + 2.5})
    before, after = handle.propagate_rows([state["base"], raised], nets=outputs)
    batch_errs += checks.monotone(before, after, 2.5, f"raise {x}")
    flat = state["session"].analyze_family(
        MonteCarlo(8, seed=state["mc_seed"], arrival=state["base"])
    )
    mc_errs = []
    if any(d != max(before) for d in flat.delays()):
        mc_errs.append("sigma=0 Monte-Carlo differs from propagation")
    cached = state["expected"] = {
        "rows": rows,
        "topo0": topo0,
        "query_rows": handle.propagate_rows(
            state["queries"], backend="python", nets=outputs
        ),
        # exact topological bounds on a sample, the sound shifted one after
        "bounds": [
            ov.topological_delay(ref, a, pins) if i < 4
            else topo0 + max(a.values())
            for i, a in enumerate(state["batch"])
        ],
        "demand_bounds": [
            ov.topological_delay(ref, a, pins) for a in state["demand"]
        ],
        "batch_errs": batch_errs,
        "mc_errs": mc_errs,
    }
    return cached


def check(ctx, state, rnd) -> dict:
    want = _expected(state)
    outputs = state["handle"].outputs
    failures = {op: [] for op in rnd.ops}
    if "batch" in rnd.out:
        errs = failures["batch"]
        errs += want["batch_errs"]
        for i, (res, row, bound) in enumerate(
            zip(rnd.out["batch"].scenarios, want["rows"], want["bounds"])
        ):
            if [res.output_times[o] for o in outputs] != row:
                errs.append(f"scenario {i} differs from propagate_rows")
                break
            errs += checks.at_most(f"scenario {i}", res.delay, bound)
    if "monte-carlo" in rnd.out:
        failures["monte-carlo"] += want["mc_errs"]
        if rnd.out["monte-carlo"].count != MEMBERS:
            failures["monte-carlo"].append("Monte-Carlo member count")
    if "parametric" in rnd.out and rnd.out["parametric"].count != MEMBERS:
        failures["parametric"].append("parametric member count")
    if "demand" in rnd.out:
        for res, bound in zip(rnd.out["demand"].scenarios, want["demand_bounds"]):
            failures["demand"] += checks.at_most("demand delay", res.delay, bound)
    if len(rnd.out["queries"]) != len(state["queries"]):
        failures["queries"].append(
            f"{len(rnd.out['queries'])} of {len(state['queries'])} queries ran"
        )
    if "queries" in rnd.out:
        for i, (res, row, a) in enumerate(
            zip(rnd.out["queries"], want["query_rows"], state["queries"])
        ):
            if [res[o] for o in outputs] != row:
                failures["queries"].append(f"query {i} differs from a batch row")
                break
            failures["queries"] += checks.at_most(
                f"query {i}", max(row), want["topo0"] + max(a.values())
            )
    return failures


def check_all(ctx, state, rounds) -> list[str]:
    return []


def end_to_end(ctx, state, rounds) -> dict:
    handle = state["handle"]
    zero = handle.propagate_rows([{}], nets=handle.outputs)[0]
    return {
        "req_p50_ms": (
            window_p50([w for r in rounds for w in r.out["query_ms"]]), "ms"
        ),
        "pessimism_removed": (_expected(state)["topo0"] - max(zero), "delay"),
    }


def probe_design(state) -> str:
    return state["text"]


def per_layer(ctx, state, traced, untraced) -> dict:
    def med(key):
        return over(traced, lambda r: r.out[key])

    return {
        "scenarios.mc_member_ms": (med("monte-carlo_s") / MEMBERS * 1e3, "ms"),
        "scenarios.parametric_member_ms": (
            med("parametric_s") / MEMBERS * 1e3, "ms"
        ),
        "core.demand_batch_ms": (med("demand_s") / DEMAND * 1e3, "ms/scenario"),
    }
