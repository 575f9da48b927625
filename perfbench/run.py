"""End-to-end benchmark of the PUFFER flow: place, pad, legalize, evaluate.

Usage (from the repository root)::

    python3 perfbench/run.py --workload or1200-route --seed 7 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Each repetition runs in a fresh worker process with its own temporary,
cache and progress directories and BLAS/OpenMP pinned to one thread.
Untraced (``--trace 0``), repetitions run until ``--seconds`` would be
exceeded (at least one), set-up is also measured in set-up-only workers,
and every end-to-end metric of ``BENCHMARK.json`` is reported as the median
over repetitions; times are in reference seconds, wall seconds divided by
the machine's slowdown that a speed probe in each worker measures
(``pace.py``).  Traced (``--trace 1``), one untraced and one traced
repetition run and the per-layer metrics come from the traced one.

Human-readable lines come first; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The exit
code is 0 when every output check passed, 1 when one failed, and 2 when
the program under test cannot be found or imported (then no result line is
printed).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from summarize import count_failures, median, percentile, tail_percentile  # noqa: E402

DEFAULT_SEED = 7
#: A seed the benchmark's settings were not tuned on, for re-checking claims.
HELD_OUT_SEED = 11
#: Set-up-only workers per untraced run, besides each repetition's own set-up.
SETUP_PROBES = 3
#: Hard wall-clock budget of one workload measurement, seconds.
DEADLINE_S = 170.0
#: Time kept free for the set-up probes when deciding on another repetition.
PROBE_RESERVE_S = 30.0
PIN_THREADS = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
}


class Unavailable(Exception):
    """The program under test is missing or does not import."""


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


class Runner:
    """Spawns workers under a scratch directory inside the checkout."""

    def __init__(self, scratch: str, deadline: float) -> None:
        self.scratch = scratch
        self.deadline = deadline
        self.count = 0

    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    def spawn(self, workload: str, seed: int, trace: int, mode: str) -> dict:
        self.count += 1
        rep_dir = os.path.join(self.scratch, f"rep-{self.count}")
        os.makedirs(rep_dir)
        out = os.path.join(rep_dir, "result.json")
        log = os.path.join(rep_dir, "worker.log")
        env = dict(os.environ, **PIN_THREADS, TMPDIR=rep_dir, PYTHONPATH=os.path.join(ROOT, "src"))
        env.pop("REPRO_KERNELS", None)
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
               "--seed", str(seed), "--trace", str(trace), "--mode", mode,
               "--out", out, "--tmp", rep_dir]
        start = time.perf_counter()
        with open(log, "w") as log_handle:
            proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=log_handle,
                                    stderr=subprocess.STDOUT, start_new_session=True)
            try:
                proc.wait(timeout=max(self.remaining(), 1.0))
            except subprocess.TimeoutExpired:
                pass
            finally:
                # The worker's own children (service shards) share its
                # session; stop any that outlived it.
                try:
                    os.killpg(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                proc.wait()
        try:
            with open(out) as handle:
                outcome = json.load(handle)
        except (OSError, ValueError):
            with open(log) as handle:
                tail = handle.read()[-2000:]
            outcome = {"error": f"worker exited {proc.returncode} without a result\n{tail}"}
        outcome["process_s"] = time.perf_counter() - start
        return outcome


def measure(runner: Runner, workload: str, seed: int, seconds: int, trace: bool) -> tuple:
    """Run one workload; returns ``(metrics, attempted, failed, report)``."""
    outcomes = []
    if trace:
        plain = runner.spawn(workload, seed, 0, "run")
        traced = runner.spawn(workload, seed, 1, "run")
        outcomes = [plain, traced]
        setups = [o["setup_s"] for o in outcomes if "setup_s" in o]
    else:
        started = time.monotonic()
        while True:
            outcome = runner.spawn(workload, seed, 0, "run")
            outcomes.append(outcome)
            elapsed = time.monotonic() - started
            last = outcome["process_s"]
            if elapsed + last > seconds or last > runner.remaining() - PROBE_RESERVE_S:
                break
        setups = [o["setup_s"] for o in outcomes if "setup_s" in o]
        for _ in range(SETUP_PROBES):
            if runner.remaining() < PROBE_RESERVE_S:
                break
            probe = runner.spawn(workload, seed, 0, "setup")
            if "setup_s" not in probe:
                outcomes.append(probe)
                break
            setups.append(probe["setup_s"])
    attempted, failed = count_failures(outcomes)
    good = [o for o in outcomes if "metrics" in o and not o.get("error")]
    report = {"outcomes": outcomes, "reps": len([o for o in outcomes if "wall_s" in o])}
    metrics = {}
    if trace:
        if "layers" in outcomes[1] and "wall_s" in plain:
            metrics = dict(outcomes[1]["layers"])
            metrics["trace_overhead_pct"] = 100.0 * (outcomes[1]["wall_s"] / plain["wall_s"] - 1.0)
    elif good and setups:
        metrics["setup_s"] = median(setups)
        metrics["wall_s"] = median(o["wall_s"] for o in good)
        for name in good[0]["metrics"]:
            metrics[name] = median(o["metrics"][name] for o in good)
    report["setup_samples"] = len(setups)
    return metrics, attempted, failed, report


def print_report(workload: str, seed: int, trace: bool, metrics: dict, units: dict,
                 attempted: int, failed: int, report: dict) -> None:
    print(f"workload {workload}  seed {seed}  trace {int(trace)}  "
          f"repetitions {report['reps']}  set-up samples {report['setup_samples']}  "
          f"attempted {attempted}  failed {failed}")
    for name, unit in units.items():
        value = metrics.get(name)
        shown = "missing" if value is None else f"{value:.6g}"
        print(f"  {name:<28} {shown:>14} {unit}")
    for outcome in report["outcomes"]:
        if outcome.get("error") or outcome.get("check_failures") or outcome.get("verify_errors"):
            print("  FAILED:", outcome.get("error") or outcome.get("check_failures")
                  or f"{outcome['verify_errors']} verify errors: {outcome['verify_messages']}")
        for key in ("fingerprint", "diagnostics"):
            if outcome.get(key):
                print(f"  {key}", " ".join(f"{k}={v}" for k, v in outcome[key].items()))
        if "unattributed" in outcome:
            print("  unattributed share of wrapped parents",
                  " ".join(f"{k}={v:.3f}" for k, v in outcome["unattributed"].items()))
    if trace and all("wall_s" in o for o in report["outcomes"]):
        plain, traced = report["outcomes"]
        print(f"  wall_s untraced {plain['wall_s']:.4g} s  traced {traced['wall_s']:.4g} s")
    latencies = [x for o in report["outcomes"] for x in o.get("trial_latencies", ())]
    if latencies:
        tail = tail_percentile(len(latencies))
        line = f"  trial latency p50 {median(latencies):.4g} s"
        if tail is not None and tail > 50:
            line += f"  p{tail:g} {percentile(latencies, tail):.4g} s"
        print(line + f"  (n={len(latencies)})")


def _terminate(signum, frame):
    # Unwind through the ``finally`` blocks that stop the workers, which
    # run in their own sessions and would not see the signal.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description="PUFFER end-to-end benchmark")
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    family = bench["per_layer"] if args.trace else bench["end_to_end"]
    units = {m["name"]: m["unit"] for m in family}
    selected = names if args.workload == "all" else [args.workload]
    scratch = os.path.join(ROOT, ".perfbench", f"run-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    try:
        if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
            raise Unavailable(f"no program source under {os.path.join(ROOT, 'src')}")
        runner = Runner(scratch, time.monotonic() + DEADLINE_S * len(selected))
        pre = runner.spawn(selected[0], args.seed, 0, "preflight")
        if "environment" not in pre:
            raise Unavailable(pre.get("error", "preflight failed"))
        print("environment", " ".join(f"{k}={v}" for k, v in pre["environment"].items()))
        print(f"seeds default={DEFAULT_SEED} held-out={HELD_OUT_SEED}")
        correct, attempted, failed, combined = True, 0, 0, {}
        for workload in selected:
            metrics, att, fail, report = measure(runner, workload, args.seed, args.seconds,
                                                 bool(args.trace))
            print_report(workload, args.seed, bool(args.trace), metrics, units, att, fail, report)
            complete = all(name in metrics for name in units)
            correct = correct and fail == 0 and complete
            attempted += att
            failed += fail
            for name in units:
                if name in metrics:
                    key = name if len(selected) == 1 else f"{workload}/{name}"
                    combined[key] = {"value": metrics[name], "unit": units[name]}
    except Unavailable as exc:
        print(f"perfbench: program unavailable: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(scratch))
        except OSError:
            pass
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": combined}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
