"""Output checks shared by the workloads.

Each returns a list of failure messages (empty when the check holds).
The references come from :mod:`oracle`, which does not import the
program.
"""

from __future__ import annotations

import random

from oracle import verilog as ov
from oracle import xbd0

#: Tolerance for comparing sums of unit gate delays (exact in floats).
EPS = 1e-9


def at_most(what: str, value: float, bound: float) -> list[str]:
    if value > bound + EPS:
        return [f"{what} {value:g} exceeds topological {bound:g}"]
    return []


def skip_delay(models, m: int) -> list[str]:
    """c_in -> c_out of a carry-skip block is the skip path's 2 (Figure 3,
    with the multiplexer spelled as AND then OR)."""
    model = models["c_out"]
    late = 1000.0
    arrival = {x: 0.0 for x in model.inputs}
    arrival["c_in"] = late
    got = model.stable_time(arrival) - late
    if got != 2.0:
        return [f"csa_block{m} c_in->c_out is {got:g}, not 2"]
    return []


def leaf_vs_oracle(leaf: ov.Leaf, models, seed: int) -> list[str]:
    """Theorem 1 at leaf level: no model output time is below the exact
    per-vector XBD0 time, at zero and at seeded arrivals."""
    if len(leaf.inputs) > xbd0.MAX_INPUTS:
        return []
    rng = random.Random(seed)
    errors = []
    for arrival in ({}, {x: float(rng.randint(0, 4)) for x in leaf.inputs}):
        exact = xbd0.functional_delays(leaf, arrival)
        for out in leaf.outputs:
            model_t = models[out].stable_time(
                {x: arrival.get(x, 0.0) for x in models[out].inputs}
            )
            if model_t < exact[out] - EPS:
                errors.append(
                    f"{leaf.name}.{out}: model {model_t:g} < XBD0 {exact[out]:g}"
                )
    return errors


def monotone(before: list[float], after: list[float], delta: float,
             what: str) -> list[str]:
    """Raising one arrival by ``delta`` moves each output by [0, delta]."""
    for i, (a, b) in enumerate(zip(before, after)):
        if not (-EPS <= b - a <= delta + EPS):
            return [f"{what}: output {i} moved {b - a:g} for +{delta:g}"]
    return []
