"""Entry point of the repository benchmark.

    python3 perfbench/run.py --workload fib_actors --seed 1 --seconds 10 --trace 0

Run it from the repository root; it imports the runtime from ``src/``
of the checkout it sits in.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``
(end-to-end metrics with ``--trace 0``, the per-layer ledger with
``--trace 1``); the line before it holds the host record and the
figures that are printed for information only.  The exit code is 0 only
when every checked result was right.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Hard limit on one invocation, below the 180 s a run may take.
RUN_LIMIT_S = 170
WORKLOAD_NAMES = ("fib_actors", "stream_mp", "rpc_tcp")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="small inputs and few set-ups (self-test)")
    ap.add_argument("--inject-fault", action="store_true",
                    help="corrupt one expected result or drop one hop on the "
                         "driver side, so the run must fail (self-test)")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def _timeout(signum, frame):
    raise TimeoutError(f"benchmark exceeded {RUN_LIMIT_S} s")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no runtime sources at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(RUN_LIMIT_S)
    from perfbench import bench

    result, info, correct = bench.run(args, ROOT)
    signal.alarm(0)
    print(json.dumps({"info": info}))
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
