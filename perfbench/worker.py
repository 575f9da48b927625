"""One benchmark repetition in a fresh process (started by ``run.py``).

Usage::

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1 \
        --mode run|setup|preflight --out RESULT.json --tmp DIR

``--mode setup`` stops after set-up (import, design generation and, for
``explore-serve``, service boot); ``--mode preflight`` only imports the
program and reports the environment.  Outside preflight a
:class:`pace.SpeedProbe` samples the machine's speed from the start of the
process, and the workload reports its times in reference seconds.  The
outcome is written as JSON to ``--out``; an exception is recorded there as
``error`` and the exit code is non-zero.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

from pace import SpeedProbe  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("run", "setup", "preflight"), default="run")
    parser.add_argument("--out", required=True)
    parser.add_argument("--tmp", required=True)
    args = parser.parse_args(argv)

    status = 0
    speed = SpeedProbe().start() if args.mode != "preflight" else None
    try:
        import workloads

        if args.mode == "preflight":
            outcome = {"environment": workloads.environment()}
            # Import what the workload runs, so later set-up timings start
            # from compiled modules.
            import repro.api  # noqa: F401
            import repro.serve  # noqa: F401
        else:
            outcome = workloads.execute(
                args.workload, args.seed, bool(args.trace), args.mode == "setup",
                args.tmp, T0, speed,
            )
    except Exception:
        outcome = {"error": traceback.format_exc()}
        status = 1
    finally:
        if speed is not None:
            speed.stop()
    with open(args.out, "w") as handle:
        json.dump(outcome, handle)
    return status


if __name__ == "__main__":
    sys.exit(main())
