"""Reader for the structural Verilog subset and a longest-path pass.

The subset is the one the benchmark generates and the program reads:
primitive gates ``and/or/nand/nor/xor/xnor/not/buf`` with positional
``(out, in...)`` connections in leaf modules, and named ``.port(net)``
module instances in the last (top) module.  Every primitive has delay 1
except ``buf`` (delay 0), the program's convention for this subset.

:func:`leaf_pin_delays` gives a leaf's pin-to-pin longest paths and
:func:`topological_times` propagates arrivals through the top module
with them, which is the topological (path-sensitization-free) delay the
functional analyses must never exceed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

NEG_INF = float("-inf")

#: Gate keywords of the subset (the oracle in :mod:`oracle.xbd0` also
#: takes ``mux``, for the paper's Figure 1 block, which Verilog cannot
#: express as a primitive).
PRIMITIVES = ("and", "or", "nand", "nor", "xor", "xnor", "not", "buf")

_MODULE_RE = re.compile(
    r"\bmodule\s+([A-Za-z_][\w$]*)\s*\((.*?)\)\s*;(.*?)\bendmodule", re.S
)
_INST_RE = re.compile(r"([A-Za-z_][\w$]*)\s+([A-Za-z_][\w$]*)\s*\((.*)\)\s*$", re.S)
_NAMED_RE = re.compile(r"\.([A-Za-z_][\w$]*)\s*\(\s*([A-Za-z_][\w$]*)\s*\)")


@dataclass
class Leaf:
    """A gate-level module: gates as ``(out, kind, ins, delay)``."""

    name: str
    inputs: list[str]
    outputs: list[str]
    gates: list[tuple[str, str, tuple[str, ...], float]] = field(
        default_factory=list
    )

    def ordered_gates(self) -> list[tuple[str, str, tuple[str, ...], float]]:
        """Gates in an order where every fanin is defined first."""
        defined = set(self.inputs)
        pending = list(self.gates)
        ordered = []
        while pending:
            rest = [g for g in pending if not all(i in defined for i in g[2])]
            ready = [g for g in pending if all(i in defined for i in g[2])]
            if not ready:
                raise ValueError(f"{self.name}: combinational cycle")
            ordered.extend(ready)
            defined.update(g[0] for g in ready)
            pending = rest
        return ordered


@dataclass
class Top:
    """The top module: instances as ``(module, name, {port: net})``."""

    name: str
    inputs: list[str]
    outputs: list[str]
    instances: list[tuple[str, str, dict[str, str]]] = field(
        default_factory=list
    )


@dataclass
class Design:
    leaves: dict[str, Leaf]
    top: Top


def _names(text: str) -> list[str]:
    return [n.strip() for n in text.split(",") if n.strip()]


def read(text: str) -> Design:
    """Parse generated structural Verilog into leaves plus a top module."""
    text = re.sub(r"/\*.*?\*/", " ", text, flags=re.S)
    text = re.sub(r"//[^\n]*", " ", text)
    modules = _MODULE_RE.findall(text)
    if not modules:
        raise ValueError("no module found")
    leaves: dict[str, Leaf] = {}
    parsed = []
    for name, _ports, body in modules:
        inputs: list[str] = []
        outputs: list[str] = []
        cells = []
        for stmt in body.split(";"):
            stmt = stmt.strip()
            if not stmt:
                continue
            head = stmt.split(None, 1)[0]
            if head == "input":
                inputs.extend(_names(stmt[len(head):]))
            elif head == "output":
                outputs.extend(_names(stmt[len(head):]))
            elif head == "wire":
                continue
            else:
                match = _INST_RE.match(stmt)
                if match is None:
                    raise ValueError(f"{name}: cannot read {stmt[:60]!r}")
                cells.append(match.groups())
        parsed.append((name, inputs, outputs, cells))
    *leaf_mods, top_mod = parsed
    for name, inputs, outputs, cells in leaf_mods:
        leaf = Leaf(name, inputs, outputs)
        for kind, _inst, conns in cells:
            if kind not in PRIMITIVES:
                raise ValueError(f"{name}: unknown primitive {kind!r}")
            out, *ins = _names(conns)
            leaf.gates.append((out, kind, tuple(ins), 0.0 if kind == "buf" else 1.0))
        leaves[name] = leaf
    name, inputs, outputs, cells = top_mod
    top = Top(name, inputs, outputs)
    for kind, inst, conns in cells:
        if kind not in leaves:
            raise ValueError(f"{name}: unknown module {kind!r}")
        top.instances.append((kind, inst, dict(_NAMED_RE.findall(conns))))
    return Design(leaves, top)


def leaf_pin_delays(leaf: Leaf) -> dict[str, dict[str, float]]:
    """``delays[out][inp]``: longest path from ``inp`` to ``out``
    (``-inf`` where no path exists)."""
    gates = leaf.ordered_gates()
    delays: dict[str, dict[str, float]] = {o: {} for o in leaf.outputs}
    for source in leaf.inputs:
        at = {source: 0.0}
        for out, _kind, ins, delay in gates:
            best = max((at[i] for i in ins if i in at), default=None)
            if best is not None:
                at[out] = best + delay
        for o in leaf.outputs:
            delays[o][source] = at.get(o, NEG_INF)
    return delays


def topological_times(
    design: Design,
    arrival: dict[str, float] | None = None,
    pin_delays: dict[str, dict[str, dict[str, float]]] | None = None,
) -> dict[str, float]:
    """Topological arrival time of every top-level net."""
    arrival = arrival or {}
    if pin_delays is None:
        pin_delays = {n: leaf_pin_delays(l) for n, l in design.leaves.items()}
    at = {x: float(arrival.get(x, 0.0)) for x in design.top.inputs}
    for module, _inst, conns in ordered_instances(design):
        leaf = design.leaves[module]
        table = pin_delays[module]
        for out in leaf.outputs:
            row = table[out]
            at[conns[out]] = max(
                (at[conns[i]] + d for i, d in row.items() if d != NEG_INF),
                default=NEG_INF,
            )
    return at


def ordered_instances(design: Design) -> list[tuple[str, str, dict[str, str]]]:
    """Top-level instances in dependency order."""
    ready = set(design.top.inputs)
    pending = list(design.top.instances)
    ordered = []
    while pending:
        rest = []
        for item in pending:
            module, _inst, conns = item
            leaf = design.leaves[module]
            if all(conns[i] in ready for i in leaf.inputs):
                ordered.append(item)
                ready.update(conns[o] for o in leaf.outputs)
            else:
                rest.append(item)
        if len(rest) == len(pending):
            raise ValueError(f"{design.top.name}: instance graph has a cycle")
        pending = rest
    return ordered


def topological_delay(design: Design, arrival: dict[str, float] | None = None,
                      pin_delays=None) -> float:
    """Latest primary-output arrival under topological delays."""
    at = topological_times(design, arrival, pin_delays)
    return max(at[o] for o in design.top.outputs)
