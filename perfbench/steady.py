"""Steadiness check: two sets of runs of every workload, compared.

Usage (from the repository root)::

    python3 perfbench/steady.py --runs 10

Each run is a fresh interpreter started with the command in
``BENCHMARK.json``.  Set 1 uses seeds 1..runs and set 2 seeds
runs+1..2*runs; the workload order alternates between repetitions.  For
each end-to-end metric the table gives, per set, the median and the
spread ``(q3 - q1) / median`` (quartiles as
``statistics.quantiles(values, n=4)`` gives them), then ``drift``, how
much worse set 2's median is than set 1's as a share of set 1's, and
the metric's bound from ``BENCHMARK.json``.  ``held`` is ``yes`` when
both spreads and the drift are within the bound, and ``steady`` when
the spreads are also under a third of it.  The share of failed
operations must be the same in both sets.  Raw results are written to
``.perfbench/steady.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(spec: dict, workload: str, seed: int) -> dict:
    cmd = list(spec["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0",
    ]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["run_wall_s"] = wall
    print(f"seed {seed} {workload} ({wall:.1f} s): "
          f"{json.dumps(result['metrics'])}", file=sys.stderr, flush=True)
    return result


def spread(values: list[float]) -> tuple[float, float]:
    """Median and (q3 - q1) / median."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10,
                        help="runs per workload in each set (at least 2)")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    sets: list[dict[str, list[dict]]] = [{n: [] for n in names} for _ in (1, 2)]
    for i in range(2 * args.runs):
        order = names if i % 2 == 0 else list(reversed(names))
        for workload in order:
            sets[i // args.runs][workload].append(run_once(spec, workload, i + 1))
    out = ROOT / ".perfbench" / "steady.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(sets, indent=1))
    header = (f"{'workload':<9} {'metric':<18} {'unit':<6} {'median 1':>11} "
              f"{'spread 1':>8} {'median 2':>11} {'spread 2':>8} {'drift':>7} "
              f"{'bound':>6} held steady")
    print(header)
    print("-" * len(header))
    for workload in names:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [[r["metrics"][name]["value"] for r in s[workload]
                       if name in r["metrics"]] for s in sets]
            if not values[0]:
                continue
            (m1, s1), (m2, s2) = spread(values[0]), spread(values[1])
            sign = 1 if metric["better"] == "lower" else -1
            drift = sign * (m2 - m1) / m1 if m1 else 0.0
            held = max(s1, s2, drift) <= bound
            steady = held and max(s1, s2) < bound / 3
            print(f"{workload:<9} {name:<18} {metric['unit']:<6} {m1:>11.4f} "
                  f"{s1:>8.3f} {m2:>11.4f} {s2:>8.3f} {drift:>+7.3f} "
                  f"{bound:>6.2f} {'yes' if held else 'NO':<4} "
                  f"{'yes' if steady else 'no'}")
        shares = [
            sum(r["failed"] for r in s[workload])
            / sum(r["attempted"] for r in s[workload]) for s in sets
        ]
        walls = [r["run_wall_s"] for s in sets for r in s[workload]]
        print(f"{workload:<9} failed share {shares[0]:.4f} / {shares[1]:.4f}"
              f" ({'same' if shares[0] == shares[1] else 'DIFFERENT'}); "
              f"run wall median {statistics.median(walls):.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
