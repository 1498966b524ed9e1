"""Run one benchmark workload and print its result as the last line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload signoff --seed 1 --seconds 5 --trace 0

Workloads: ``signoff``, ``scale``, ``serve``, ``sweep`` (see README.md).
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs traced
rounds beside untraced ones and prints the per-layer metrics, writing
the spans to ``.perfbench/trace-<workload>-<seed>.json``.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exit code 0 means the run
completed; a checkout without the program's sources exits 2 without a
result.
"""

import time

T_PROCESS = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("signoff", "scale", "serve", "sweep")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so servers started are stopped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"error: no program sources under {ROOT / 'src'}; run from a "
            "checkout of the repository",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import harness

    wl = importlib.import_module(f"wl_{args.workload}")  # imports the program
    t_imported = time.perf_counter()
    ctx = harness.Context(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        root=ROOT,
        t_process=T_PROCESS,
    )
    result = harness.run(wl, ctx, t_imported)
    harness.emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
