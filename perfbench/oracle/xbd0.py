"""Per-vector XBD0 stable times, for leaves small enough to enumerate.

Under XBD0 a gate output is stable ``d`` after the earliest moment some
set of its inputs that fixes the output value (for the vector applied)
has become stable.  For one input vector that gives a stable time per
net; a leaf's functional delay under given arrivals is the maximum over
all ``2**n`` vectors.

The vectors are simulated together, one bit per vector of a Python
integer.  ``stable[g](t)`` is the set of vectors under which net ``g`` is
stable by time ``t``; the stable times of ``g`` can only take the values
in ``candidates[g]`` (input arrivals plus path delays), so each net is a
short step function of such bit sets.  The functional delay of an
output is the first candidate at which its set holds every vector.

:func:`self_check` compares this against the paper's published
Figure 3 models of the 2-bit carry-skip block under the Section 4
delays.
"""

from __future__ import annotations

from bisect import bisect_right

from oracle.verilog import Leaf

#: Largest leaf (in inputs) the oracle enumerates: 2**17 bits per set.
MAX_INPUTS = 17

NEG_INF = float("-inf")


def _input_pattern(index: int, n: int) -> int:
    """Bit ``v`` set iff bit ``index`` of vector ``v`` is 1."""
    half = 1 << index
    pattern = ((1 << half) - 1) << half
    width = half << 1
    total = 1 << n
    while width < total:
        pattern |= pattern << width
        width <<= 1
    return pattern


def _value(kind: str, vals: list[int], full: int) -> int:
    if kind in ("and", "nand"):
        out = full
        for v in vals:
            out &= v
    elif kind in ("or", "nor"):
        out = 0
        for v in vals:
            out |= v
    elif kind in ("xor", "xnor"):
        out = 0
        for v in vals:
            out ^= v
    elif kind in ("not", "buf"):
        out = vals[0]
    elif kind == "mux":  # (select, d0, d1)
        sel, d0, d1 = vals
        out = (sel & d1) | (~sel & full & d0)
    else:
        raise ValueError(f"unknown gate kind {kind!r}")
    if kind in ("nand", "nor", "xnor", "not"):
        out ^= full
    return out


def _stable(kind: str, vals: list[int], sets: list[int], full: int) -> int:
    """Vectors whose gate output is fixed by the inputs stable so far."""
    every = full
    for s in sets:
        every &= s
    if kind in ("and", "nand", "or", "nor"):
        controlling = 0 if kind in ("and", "nand") else full
        out = every
        for v, s in zip(vals, sets):
            out |= s & (v ^ controlling ^ full)
        return out
    if kind == "mux":
        sel, d0, d1 = vals
        s_sel, s_d0, s_d1 = sets
        agree = (d0 ^ d1) ^ full
        return (
            (s_sel & ~sel & full & s_d0)
            | (s_sel & sel & s_d1)
            | (s_d0 & s_d1 & agree)
        )
    return every  # xor/xnor/not/buf need every input


def functional_delays(
    leaf: Leaf, arrival: dict[str, float] | None = None
) -> dict[str, float]:
    """Exact XBD0 stable time of each output: max over all vectors."""
    n = len(leaf.inputs)
    if n > MAX_INPUTS:
        raise ValueError(f"{leaf.name}: {n} inputs is too many to enumerate")
    arrival = arrival or {}
    full = (1 << (1 << n)) - 1
    value: dict[str, int] = {}
    # step functions: sorted candidate times and the stable set at each
    times: dict[str, list[float]] = {}
    sets: dict[str, list[int]] = {}
    for i, x in enumerate(leaf.inputs):
        value[x] = _input_pattern(i, n)
        times[x] = [float(arrival.get(x, 0.0))]
        sets[x] = [full]

    def stable_at(net: str, t: float) -> int:
        k = bisect_right(times[net], t)
        return sets[net][k - 1] if k else 0

    for out, kind, ins, delay in leaf.ordered_gates():
        vals = [value[i] for i in ins]
        value[out] = _value(kind, vals, full)
        cands = sorted({t + delay for i in ins for t in times[i]})
        times[out] = cands
        sets[out] = [
            _stable(kind, vals, [stable_at(i, t - delay) for i in ins], full)
            for t in cands
        ]
    result = {}
    for o in leaf.outputs:
        done = [t for t, s in zip(times[o], sets[o]) if s == full]
        result[o] = done[0] if done else NEG_INF
    return result


def model_time(tuples: list[tuple[float, ...]], inputs: list[str],
               arrival: dict[str, float]) -> float:
    """Min over tuples of max over inputs of ``arrival + delay``."""
    best = float("inf")
    for tup in tuples:
        worst = max(
            (arrival.get(x, 0.0) + d for x, d in zip(inputs, tup) if d != NEG_INF),
            default=NEG_INF,
        )
        best = min(best, worst)
    return best


def figure1_block() -> Leaf:
    """The paper's 2-bit carry-skip block with the Section 4 delays
    (AND/OR 1, XOR/MUX 2)."""
    leaf = Leaf("figure1", ["c_in", "a0", "b0", "a1", "b1"], ["s0", "s1", "c_out"])
    leaf.gates = [
        ("p0", "xor", ("a0", "b0"), 2.0),
        ("g0", "and", ("a0", "b0"), 1.0),
        ("s0", "xor", ("p0", "c_in"), 2.0),
        ("t0", "and", ("p0", "c_in"), 1.0),
        ("c1", "or", ("g0", "t0"), 1.0),
        ("p1", "xor", ("a1", "b1"), 2.0),
        ("g1", "and", ("a1", "b1"), 1.0),
        ("s1", "xor", ("p1", "c1"), 2.0),
        ("t1", "and", ("p1", "c1"), 1.0),
        ("c2", "or", ("g1", "t1"), 1.0),
        ("skip", "and", ("p0", "p1"), 1.0),
        ("c_out", "mux", ("skip", "c2", "c_in"), 2.0),
    ]
    return leaf


#: Figure 3: one delay tuple per output over (c_in, a0, b0, a1, b1).
FIGURE3 = {
    "s0": (2.0, 4.0, 4.0, NEG_INF, NEG_INF),
    "s1": (4.0, 6.0, 6.0, 4.0, 4.0),
    "c_out": (2.0, 8.0, 8.0, 6.0, 6.0),
}

#: Topological pin-to-pin delays of the same block: Figure 3 everywhere
#: except the false ripple path c_in -> c_out (1+1+1+1+2 = 6, not 2).
FIGURE3_TOPOLOGICAL = dict(FIGURE3, c_out=(6.0, 8.0, 8.0, 6.0, 6.0))


def self_check() -> None:
    """Raise unless both oracles reproduce the paper's Figure 3."""
    from oracle.verilog import leaf_pin_delays

    leaf = figure1_block()
    pins = leaf_pin_delays(leaf)
    for out, tup in FIGURE3_TOPOLOGICAL.items():
        got = tuple(pins[out][x] for x in leaf.inputs)
        if got != tup:
            raise AssertionError(f"longest path {out}: {got} != {tup}")
    # arrival vectors fixed here, apart from any workload seed
    vectors = [{}, {"c_in": 5.0}, {"c_in": 9.0}, {"a0": 3.0, "b1": 1.0},
               {"c_in": 1.0, "a0": 2.0, "b0": 0.5, "a1": 4.0, "b1": 3.0},
               {"a1": 7.0}, {"c_in": -3.0, "a0": 1.0}]
    for arrival in vectors:
        got = functional_delays(leaf, arrival)
        for out, tup in FIGURE3.items():
            want = model_time([tup], leaf.inputs, arrival)
            if got[out] != want:
                raise AssertionError(
                    f"XBD0 {out} under {arrival}: {got[out]} != {want}"
                )
