"""``signoff``: cold sign-off of a fixed design mix from Verilog text.

Each design is parsed, validated, analysed demand-driven (Section 5)
under seeded non-zero arrivals, fully characterized and propagated
(Sections 3.1/3.2), then edited once (ECO) and re-analysed
incrementally (Section 3.3).  No model library is used, so every
characterization is cold.  Once signed off, csa32.8 (the first
design) answers single-scenario queries (``IncrementalAnalyzer.analyze``),
each timed: 8 after each later sign-off stage, so that they sample the
whole round.
"""

from __future__ import annotations

import random

from repro.api import AnalysisOptions
from repro.core.demand import DemandDrivenAnalyzer
from repro.core.hier import HierarchicalAnalyzer, IncrementalAnalyzer
from repro.parsers.verilog import loads_verilog

import checks
import gen
from harness import Round, counter, layer, over, timed_window, window_p50
from oracle import verilog as ov
from spans import span

SETUPS = 3
SETUP_PER_ROUND = False
#: Round outputs kept after the round is checked.
KEEP = ("refinement_checks", "query_ms")

#: (label, bits, block width) of the carry-skip cascades.
CASCADES = (("csa32.8", 32, 8), ("csa24.12", 24, 12), ("csa32.16", 32, 16))

#: Designs whose ECO is also checked against a cold analysis of the
#: edited design.  A cold check costs one more full characterization,
#: so the 12- and 16-bit blocks (3 s and 7 s) are left out of it.
COLD_CHECKED = ("csa32.8",) + gen.DATAPATH
#: The design that answers the timed queries (signed off first), how
#: many follow each later stage, and the stages of a sign-off after
#: which they run (demand, characterization, propagation, ECO).
QUERY_DESIGN = "csa32.8"
QUERY_CHUNK = 8
STAGES = 4


def setup(ctx) -> dict:
    rng = random.Random(ctx.seed)
    designs = []
    for label, n, m in CASCADES:
        designs.append((label, gen.cascade(n, m), m))
    for name in gen.DATAPATH:
        designs.append((name, gen.datapath(name), 0))
    items = []
    for label, text, m in designs:
        ref = ov.read(text)
        module = gen.last_module(text)
        eco_module, eco_text = gen.eco_edit(text, module)
        k = max(2, len(ref.top.inputs) // 4)
        items.append({
            "label": label,
            "text": text,
            "block": m,
            "module": module,
            "eco_module": eco_module,
            "eco_text": eco_text,
            "arrival": gen.arrivals(rng, ref.top.inputs, k),
        })
    query_inputs = ov.read(items[0]["text"]).top.inputs
    chunks = 1 + STAGES * (len(items) - 1)
    queries = [gen.arrivals(rng, query_inputs, len(query_inputs) // 4)
               for _ in range(QUERY_CHUNK * chunks)]
    return {"items": items, "queries": queries}


def close(state) -> None:
    return None


def round(ctx, state, tracer) -> Round:
    options = AnalysisOptions(tracer=tracer)
    rnd = Round(wall=0.0, ops=[])
    rnd.out["query_ms"], rnd.out["query_delays"] = [], []
    chunks = iter([state["queries"][i:i + QUERY_CHUNK]
                   for i in range(0, len(state["queries"]), QUERY_CHUNK)])
    answering = None  # the analyzer of QUERY_DESIGN, once signed off

    def ask():
        if answering is not None:
            with span(tracer, "core.query"):
                timed_window(rnd, lambda a: answering.analyze(a).delay,
                             next(chunks), "query_delays")

    for item in state["items"]:
        label = item["label"]
        rnd.ops.append(label)
        arrival = item["arrival"]
        try:
            with tracer.context(label):
                with span(tracer, "parsers.read_verilog"):
                    design = loads_verilog(item["text"])
                with span(tracer, "netlist.validate"):
                    design.validate()
                with span(tracer, "core.demand"):
                    demand = DemandDrivenAnalyzer(design, options=options)
                    dres = demand.analyze(arrival)
                ask()
                with span(tracer, "core.characterize"):
                    inc = IncrementalAnalyzer(design, options=options)
                    inc.characterize_all()
                ask()
                with span(tracer, "core.propagate"):
                    hres = inc.analyze(arrival)
                    hzero = inc.analyze({})
                ask()
                models = {m: inc.models_for(m) for m in design.modules}
                with span(tracer, "parsers.read_verilog"):
                    edited = loads_verilog(item["eco_module"])
                with span(tracer, "core.eco_reanalyze"):
                    inc.replace_module(item["module"], edited)
                    eres = inc.analyze(arrival)
                if label == QUERY_DESIGN:
                    answering = inc
                ask()
        except Exception as exc:  # noqa: BLE001 - a crash fails the design
            rnd.errors[label] = [f"{type(exc).__name__}: {exc}"]
            continue
        rnd.out[label] = {
            "topological": dres.topological_delay,
            "demand": dres.delay,
            "checks": dres.refinement_checks,
            "hier": hres.delay,
            "hier_outputs": hres.output_times,
            "zero": hzero.delay,
            "eco": eres.delay,
            "eco_outputs": eres.output_times,
            "models": models,
            "recharacterized": dict(inc.recharacterizations),
        }
    rnd.out["refinement_checks"] = sum(
        rnd.out[label]["checks"] for label in rnd.ops if label in rnd.out
    )
    return rnd


def _reference(state):
    cached = state.get("reference")
    if cached is None:
        cached = state["reference"] = {}
        for item in state["items"]:
            ref = ov.read(item["text"])
            eco_ref = ov.read(item["eco_text"])
            cached[item["label"]] = (ref, eco_ref)
    return cached


def check(ctx, state, rnd) -> dict:
    failures = {}
    reference = _reference(state)
    for item in state["items"]:
        label = item["label"]
        out = rnd.out.get(label)
        if out is None:
            continue
        ref, eco_ref = reference[label]
        arrival = item["arrival"]
        topo = ov.topological_delay(ref, arrival)
        errs = []
        if out["topological"] != topo:
            errs.append(
                f"program topological {out['topological']:g} != {topo:g}"
            )
        errs += checks.at_most("demand delay", out["demand"], topo)
        errs += checks.at_most("hierarchical delay", out["hier"], topo)
        errs += checks.at_most(
            "zero-arrival delay", out["zero"], ov.topological_delay(ref)
        )
        errs += checks.at_most(
            "ECO delay", out["eco"], ov.topological_delay(eco_ref, arrival)
        )
        if label == QUERY_DESIGN:
            delays = rnd.out["query_delays"]
            if len(delays) != len(state["queries"]):
                errs.append(f"{len(delays)} of {len(state['queries'])} queries ran")
            for i, (delay, a) in enumerate(zip(delays, state["queries"])):
                errs += checks.at_most(
                    f"query {i}", delay, ov.topological_delay(eco_ref, a)
                )
        if item["block"]:
            errs += checks.skip_delay(
                out["models"][gen.block_name(item["block"])], item["block"]
            )
        for name, leaf in ref.leaves.items():
            errs += checks.leaf_vs_oracle(leaf, out["models"][name], ctx.seed)
        want = {m: 1 for m in ref.leaves}
        want[item["module"]] = 2
        if out["recharacterized"] != want:
            errs.append(
                f"ECO re-characterized {out['recharacterized']}, not {want}"
            )
        if label in COLD_CHECKED and out["eco_outputs"] != _cold(state, item):
            errs.append("ECO re-analysis differs from a cold analysis")
        # the work is deterministic: every round must repeat the first
        first = state.setdefault("first", {}).setdefault(label, out)
        if out["hier_outputs"] != first["hier_outputs"]:
            errs.append("hierarchical outputs differ between rounds")
        failures[label] = errs
    return failures


def _cold(state, item) -> dict:
    """Output times of a cold analysis of the edited design."""
    cold = state.setdefault("cold", {})
    if item["label"] not in cold:
        analyzer = HierarchicalAnalyzer(loads_verilog(item["eco_text"]))
        cold[item["label"]] = analyzer.analyze(item["arrival"]).output_times
    return cold[item["label"]]


def check_all(ctx, state, rounds) -> list[str]:
    return []


def end_to_end(ctx, state, rounds) -> dict:
    reference = _reference(state)
    out = rounds[0].out
    removed = sum(
        ov.topological_delay(ref) - out[label]["zero"]
        for label, (ref, _eco) in reference.items() if label in out
    )
    metrics = {"pessimism_removed": (removed, "delay")}
    windows = [w for r in rounds for w in r.out["query_ms"]]
    if windows:
        metrics["req_p50_ms"] = (window_p50(windows), "ms")
    return metrics


def probe_design(state) -> str:
    return state["items"][0]["text"]  # csa32.8


def per_layer(ctx, state, traced, untraced) -> dict:
    return {
        "parsers.read_verilog_s": (over(traced, layer("parsers.read_verilog")), "s"),
        "netlist.validate_s": (over(traced, layer("netlist.validate")), "s"),
        "core.characterize_s": (over(traced, layer("core.characterize")), "s"),
        "core.stability_checks": (over(traced, counter("xbd0.stability_checks")), "count"),
        "sat.calls": (over(traced, counter("xbd0.sat_calls")), "count"),
        "core.encodings_reused": (over(traced, counter("xbd0.encodings_reused")), "count"),
        "core.propagate_s": (over(traced, layer("core.propagate")), "s"),
        "core.demand_s": (over(traced, layer("core.demand")), "s"),
        "core.refinement_checks": (
            over(traced, lambda r: r.out["refinement_checks"]), "count"
        ),
        "core.eco_reanalyze_s": (over(traced, layer("core.eco_reanalyze")), "s"),
    }
