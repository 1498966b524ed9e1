"""Write the Table 3 datapath cascades used by the sign-off workload.

The files are committed so that the benchmark's inputs do not change
when the program's generators do.  Regenerate (from the repository
root) with::

    PYTHONPATH=src python3 perfbench/data/make_datapath.py
"""

from pathlib import Path

from repro.bench.table3 import TABLE3_ROWS
from repro.circuits.partition import cascade_bipartition
from repro.netlist.network import Network
from repro.parsers.verilog import dumps_verilog


def barrel_rotator(stages: int) -> Network:
    """Table 3's barrel shifter with wrap-around instead of zero fill
    (the structural subset has no constants)."""
    width = 1 << stages
    net = Network(f"bshift{width}")
    shamt = [net.add_input(f"s{k}") for k in range(stages)]
    current = [net.add_input(f"d{i}") for i in range(width)]
    for k, sel in enumerate(shamt):
        offset = 1 << k
        current = [
            net.add_gate(f"m{k}_{i}", "MUX",
                         [sel, current[i], current[(i - offset) % width]], 1.0)
            for i in range(width)
        ]
    net.set_outputs(current)
    return net


ROWS = {"mul4x4": "mul4x4", "csel8.2": "csel8_2", "alu8": "alu8",
        "bshift8": "bshift8"}
FACTORIES = {row: TABLE3_ROWS[row] for row in ROWS if row in TABLE3_ROWS}
FACTORIES["bshift8"] = (lambda: barrel_rotator(3), 0.5)


def main() -> None:
    here = Path(__file__).resolve().parent
    for row, name in ROWS.items():
        factory, cut = FACTORIES[row]
        design = cascade_bipartition(factory(), cut_fraction=cut)
        design.name = name
        for module in design.modules.values():
            module.network.name = module.network.name.replace(row, name)
        text = dumps_verilog(design).replace(f"{row}_", f"{name}_")
        (here / f"{name}.v").write_text(text)
        print(name, len(text))


if __name__ == "__main__":
    main()
