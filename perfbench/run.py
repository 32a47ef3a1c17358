"""The repository benchmark: one command, three workloads, one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload plan-psg --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` wraps the program's public entry points (see
``perfbench/layers.py``), alternates untraced and traced units of the
same instance, and reports the per-layer metrics plus the tracing
overhead; its spans are written to ``.perfbench-out/``.

Every output is checked (see ``perfbench/README.md``).  The last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``;
the exit code is 0 only when every check passed, and 2 when there is no
program source to measure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("plan-psg", "mission-stream", "fleet-large")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import bench

    return bench.main(args.workload, args.seed, args.seconds,
                      bool(args.trace), ROOT)


if __name__ == "__main__":
    sys.exit(main())
