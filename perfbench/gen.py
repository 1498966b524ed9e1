"""Seeded benchmark inputs: structural Verilog text and arrival vectors.

Nothing here imports ``repro``; the program sees only the text and the
arrival dictionaries made here.  The carry-skip cascades are written
directly (Figure 1 blocks chained as in Figure 2, with the skip
multiplexer spelled as NOT/AND/OR because the Verilog subset has no
mux primitive).  The Table 3 datapath cascades are fixed files under
``data/`` (written by ``data/make_datapath.py``).
"""

from __future__ import annotations

import random
import re
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"

#: Table 3 rows kept as two-module cascades (files under ``data/``).
DATAPATH = ("mul4x4", "csel8_2", "alu8", "bshift8")


def block_name(m: int) -> str:
    return f"csa_block{m}"


def block_ports(m: int) -> tuple[list[str], list[str]]:
    inputs = ["c_in"]
    for i in range(m):
        inputs += [f"a{i}", f"b{i}"]
    return inputs, [f"s{i}" for i in range(m)] + ["c_out"]


def carry_skip_block(m: int) -> str:
    """An m-bit carry-skip block (Figure 1 generalised) as Verilog."""
    inputs, outputs = block_ports(m)
    lines = [
        f"module {block_name(m)} ({', '.join(inputs + outputs)});",
        f"  input {', '.join(inputs)};",
        f"  output {', '.join(outputs)};",
    ]
    wires = [f"{w}{i}" for i in range(m) for w in ("p", "g", "t")]
    wires += [f"c{i}" for i in range(1, m + 1)] + ["skip", "nskip", "m0", "m1"]
    lines.append(f"  wire {', '.join(wires)};")
    k = 0

    def gate(kind: str, out: str, *ins: str) -> None:
        nonlocal k
        lines.append(f"  {kind} G{k} ({out}, {', '.join(ins)});")
        k += 1

    carry = "c_in"
    for i in range(m):
        gate("xor", f"p{i}", f"a{i}", f"b{i}")
        gate("and", f"g{i}", f"a{i}", f"b{i}")
        gate("xor", f"s{i}", f"p{i}", carry)
        gate("and", f"t{i}", f"p{i}", carry)
        gate("or", f"c{i + 1}", f"g{i}", f"t{i}")
        carry = f"c{i + 1}"
    gate("and", "skip", *[f"p{i}" for i in range(m)])
    # c_out = skip ? c_in : c_m
    gate("not", "nskip", "skip")
    gate("and", "m0", "nskip", carry)
    gate("and", "m1", "skip", "c_in")
    gate("or", "c_out", "m0", "m1")
    lines.append("endmodule")
    return "\n".join(lines) + "\n"


def cascade(n: int, m: int) -> str:
    """``csa n.m``: n/m carry-skip blocks chained through c_in/c_out."""
    if n % m:
        raise ValueError(f"{n} bits is not a multiple of {m}")
    inputs = ["c_in"] + [f"{x}{i}" for i in range(n) for x in ("a", "b")]
    outputs = [f"s{i}" for i in range(n)] + [f"c{n}"]
    blocks = n // m
    lines = [
        carry_skip_block(m),
        f"module {design_name(n, m)} ({', '.join(inputs + outputs)});",
        f"  input {', '.join(inputs)};",
        f"  output {', '.join(outputs)};",
    ]
    if blocks > 1:
        lines.append(
            "  wire " + ", ".join(f"c{(b + 1) * m}" for b in range(blocks - 1)) + ";"
        )
    carry = "c_in"
    for b in range(blocks):
        conns = [f".c_in({carry})"]
        for i in range(m):
            bit = b * m + i
            conns += [f".a{i}(a{bit})", f".b{i}(b{bit})"]
        conns += [f".s{i}(s{b * m + i})" for i in range(m)]
        carry = f"c{(b + 1) * m}"
        conns.append(f".c_out({carry})")
        lines.append(f"  {block_name(m)} u{b} ({', '.join(conns)});")
    lines.append("endmodule")
    return "\n".join(lines) + "\n"


def design_name(n: int, m: int) -> str:
    return f"csa{n}_{m}"


def datapath(name: str) -> str:
    return (DATA / f"{name}.v").read_text()


_MODULE_RE = r"(module\s+{name}\s*\(.*?endmodule\n?)"
_GATE_RE = re.compile(
    r"^(\s*)(and|or|xor)\s+([\w$]+)\s*\(([\w$]+),\s*(.*?)\);", re.M
)
_COMPLEMENT = {"and": "nand", "or": "nor", "xor": "xnor"}


def module_text(text: str, module: str) -> str:
    """The ``module ... endmodule`` block of one module."""
    match = re.search(_MODULE_RE.format(name=re.escape(module)), text, re.S)
    if match is None:
        raise ValueError(f"no module {module!r}")
    return match.group(1)


def eco_edit(text: str, module: str) -> tuple[str, str]:
    """The engineering change every sign-off applies.

    The module's first AND, OR or XOR gate is re-implemented as its
    complement followed by NOT: the same function, one more gate delay
    on every path through it.
    Returns ``(edited module text, edited whole-design text)``.
    """
    old = module_text(text, module)
    match = _GATE_RE.search(old)
    if match is None:
        raise ValueError(f"module {module!r} has no gate to edit")
    indent, kind, inst, out, ins = match.groups()
    new_gate = (
        f"{indent}wire {out}$eco;\n"
        f"{indent}{_COMPLEMENT[kind]} {inst} ({out}$eco, {ins});\n"
        f"{indent}not {inst}$eco ({out}, {out}$eco);"
    )
    new = old[: match.start()] + new_gate + old[match.end():]
    return new, text.replace(old, new)


def last_module(text: str) -> str:
    """Name of the last leaf module (the one before the top)."""
    names = re.findall(r"\bmodule\s+([\w$]+)", text)
    return names[-2]


def arrivals(rng: random.Random, inputs: list[str], k: int,
             high: int = 6) -> dict[str, float]:
    """``k`` distinct inputs with integer arrival times in [1, high]."""
    return {x: float(rng.randint(1, high)) for x in rng.sample(inputs, k)}
