"""The benchmark's workloads: one repetition of each, run inside a worker.

Every function here runs in a fresh worker process (``worker.py``) and
imports the program lazily, so the import is part of the measured set-up.

Seeds.  The single-run workloads place the canonical design (generation
offset 0, the ROADMAP run) and take the benchmark seed as the initial-
placement RNG seed.  A design-generation offset would change the circuit:
over six offsets the routed VOF of OR1200 spread by 36% of its median,
more than any bound can hold, while initial-placement seeds keep HOF and
VOF within about 1%.  ``explore-serve`` runs fixed inputs whatever the
seed (TPE seed 7): a different TPE seed suggests different strategies, and over
five TPE seeds trials per second ranged from 0.64 to 0.90.
"""

from __future__ import annotations

import asyncio
import inspect
import math
import os
import resource
import sys
import time
from dataclasses import dataclass

from layers import WRAPS, Recorder, layer_metrics, serve_metrics
from pace import probe_children, read_samples, slowdown
from summarize import FAILED_TRIAL_LOSS, coverage, median, unattributed_shares


@dataclass(frozen=True)
class Workload:
    design: str
    scale: float
    route: bool = False
    explore: bool = False


WORKLOADS = {
    "or1200-route": Workload("OR1200", 0.03, route=True),
    "media-place": Workload("MEDIA_SUBSYS", 0.008),
    "explore-serve": Workload("OR1200", 0.004, explore=True),
}

#: The exploration of ``explore-serve``: a closed loop of waves of two
#: trials on two process shards.
EXPLORE = dict(budget=8, seed=7, batch_size=2, priors="off")
SHARDS = 2


def estimate_routability(design):
    """Congestion-estimator evaluation of a placed design: ``(hof, vof)`` in %.

    ``media-place`` never routes; one estimator pass on the legalized
    placement is its routability evaluation.  It calls the estimator
    unwrapped so that, in a traced run, the pass is one ``eval.estimate``
    span instead of counting into the flow's ``core.estimate``.
    """
    from repro.core.congestion import CongestionEstimator

    estimate = inspect.unwrap(CongestionEstimator.estimate)
    cmap, _, _ = estimate(CongestionEstimator(design))
    return cmap.overflow_ratio()


def _peak_rss_mb(children: bool = False) -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def _finite(*values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def environment() -> dict:
    import numpy

    from repro import kernels

    return {
        "kernels": kernels.current(),
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }


def execute(name: str, seed: int, trace: bool, setup_only: bool, tmp: str, t0: float,
            speed) -> dict:
    """Run one repetition of workload ``name``.

    ``t0`` is the process start and ``speed`` the process's running
    :class:`pace.SpeedProbe`; every time reported as a metric is in its
    reference seconds, and the wall seconds print as diagnostics.
    """
    spec = WORKLOADS[name]
    run = _explore if spec.explore else _single
    return run(spec, seed, trace, setup_only, tmp, t0, speed)


def _speed_diagnostics(speed, t0, setup_end, start, end) -> dict:
    return {
        "setup_wall_s": setup_end - t0,
        "wall_wall_s": end - start,
        "slowdown": slowdown(speed.samples, start, end),
        "probes": len(speed.samples),
    }


def _single(spec, seed, trace, setup_only, tmp, t0, speed):
    from repro import api, benchgen
    from repro.placer import PlacementParams

    recorder = None
    if trace:
        recorder = Recorder().install(
            WRAPS + (("workloads", "estimate_routability", "eval.estimate"),)
        )
    design = benchgen.make_design(spec.design, spec.scale)
    setup_end = time.perf_counter()
    setup_s = speed.seconds(t0, setup_end)
    if setup_only:
        return {"setup_s": setup_s}

    config = api.RunConfig(
        scale=spec.scale, placement=PlacementParams(seed=seed), verify="full"
    )
    start = time.perf_counter()
    result = api.run(design, "puffer", config, route=spec.route)
    report = result.route_report
    if spec.route:
        hof, vof = report.hof, report.vof
    else:
        hof, vof = estimate_routability(design)
    end = time.perf_counter()

    flow = result.flow_result
    checks = []
    if not (_finite(result.hpwl) and result.hpwl > 0):
        checks.append(f"hpwl {result.hpwl!r} is not a positive number")
    if not (_finite(hof, vof) and hof >= 0 and vof >= 0):
        checks.append(f"overflow ({hof!r}, {vof!r}) is not a pair of non-negative numbers")
    if spec.route and not (_finite(report.wirelength) and report.wirelength > 0):
        checks.append(f"routed wirelength {report.wirelength!r} is not positive")
    fingerprint = {
        "gp_iterations": flow.global_place.iterations,
        "grad_evals": flow.global_place.grad_evals,
        "padding_rounds": flow.padding_rounds,
    }
    diagnostics = _speed_diagnostics(speed, t0, setup_end, start, end)
    diagnostics["place_wall_s"] = result.place_seconds
    if spec.route:
        fingerprint.update(
            route_segments=report.num_segments,
            rrr_rounds=report.rounds,
            routed_wl=report.wirelength,
        )
        diagnostics["route_wall_s"] = report.runtime
    outcome = {
        "setup_s": setup_s,
        "wall_s": speed.seconds(start, end),
        "metrics": {
            "place_s": speed.seconds(start, start + result.place_seconds),
            "peak_rss_mb": _peak_rss_mb(),
            "hpwl": result.hpwl,
            "hof_pct": hof,
            "vof_pct": vof,
        },
        "fingerprint": fingerprint,
        "diagnostics": diagnostics,
        "verify_errors": len(result.verify_report.errors),
        "verify_messages": [str(error) for error in result.verify_report.errors[:5]],
        "check_failures": checks,
    }
    if recorder is not None:
        spans = recorder.closed_spans()
        layers = layer_metrics(recorder, spans)
        layers.update(serve_metrics([], []))
        layers["tpe.trials"] = 0
        layers["trace_coverage_pct"] = 100.0 * coverage(spans, start, end)
        outcome["layers"] = layers
        outcome["unattributed"] = unattributed_shares(spans)
    return outcome


async def _job_wires(service) -> list:
    return [job.to_wire() for job in service.jobs()]


def _explore(spec, seed, trace, setup_only, tmp, t0, speed):
    del seed  # fixed inputs, see the module docstring
    from repro import api, benchgen
    from repro.core.strategy import StrategyParams
    from repro.serve import LocalServiceHost, ServiceConfig

    recorder = Recorder().install() if trace else None
    benchgen.make_design(spec.design, spec.scale)
    shard_speed = os.path.join(tmp, "shard-speed")
    os.makedirs(shard_speed)
    probe_children(shard_speed)
    # Progress files go to a temporary directory under TMPDIR, which the
    # runner points at the repetition's own directory.
    service = ServiceConfig(shards=SHARDS, cache_dir=os.path.join(tmp, "cache"))
    config = api.ExploreConfig(design=spec.design, scale=spec.scale, **EXPLORE)
    with LocalServiceHost(service) as host:
        setup_end = time.perf_counter()
        setup_s = speed.seconds(t0, setup_end)
        if setup_only:
            return {"setup_s": setup_s}
        clock_offset = time.time() - time.perf_counter()
        start = time.perf_counter()
        outcome = api.run_exploration(config, evaluator=host.evaluator(config))
        end = time.perf_counter()
        jobs = asyncio.run_coroutine_threadsafe(_job_wires(host.service), host.loop).result(60)
    trials = outcome.trials
    losses = [trial.loss for trial in trials]

    # A trial whose job failed scores FAILED_TRIAL_LOSS and is counted by
    # the runner; the checks here are for results that contradict each other.
    checks = []
    done = [j for j in jobs if j["state"] == "done"]
    if not done:
        checks.append("no trial job finished")
    if len(jobs) != len(trials):
        checks.append(f"{len(jobs)} service jobs for {len(trials)} trials")
    else:
        for trial, job in zip(trials, jobs):
            if StrategyParams.from_dict(trial.params).to_dict() != job["request"]["config"]["strategy"]:
                checks.append(f"{job['id']} does not run trial {trial.index}'s strategy")
            elif (job["state"] == "done") != (trial.loss < FAILED_TRIAL_LOSS):
                checks.append(f"{job['id']} is {job['state']} but trial {trial.index} scored {trial.loss}")
    good = [loss for loss in losses if loss < FAILED_TRIAL_LOSS]
    if good and outcome.wire.best_loss != min(good):
        checks.append(f"best_loss {outcome.wire.best_loss} is not the least trial loss")
    if checks:
        return {"setup_s": setup_s, "wall_s": speed.seconds(start, end),
                "trial_losses": losses, "check_failures": checks}

    results = [j["result"] for j in done]
    routes = [r["route"] for r in results]
    # Trials run in shard processes: a trial's placement time is divided by
    # the slowdown the shards' probes saw while its job ran, and place_s is
    # the mean over trials, which varies less than their median.  Cache hits
    # replay an earlier job's time and are left out.
    shard_samples = read_samples(shard_speed) or speed.samples
    ran = [j for j in done if j["started_at"] is not None and not j["cache_hit"]]
    trial_place = [
        j["result"]["place_seconds"]
        / slowdown(shard_samples, j["started_at"] - clock_offset, j["finished_at"] - clock_offset)
        for j in ran
    ]
    metrics = {
        "place_s": sum(trial_place) / len(trial_place),
        "peak_rss_mb": _peak_rss_mb(children=True),
        "hpwl": median(r["hpwl"] for r in results),
        "hof_pct": median(r["hof"] for r in routes),
        "vof_pct": median(r["vof"] for r in routes),
    }
    if not all(_finite(v) and v >= 0 for v in metrics.values()):
        checks.append(f"non-finite or negative trial metrics: {metrics}")
    latencies = [j["finished_at"] - j["submitted_at"] for j in done]
    diagnostics = _speed_diagnostics(speed, t0, setup_end, start, end)
    diagnostics.update(
        place_wall_s=sum(j["result"]["place_seconds"] for j in ran) / len(ran),
        shard_slowdown=slowdown(shard_samples, start, end),
        trials_per_s=len(trials) / (end - start),
        trial_p50_s=median(latencies),
    )
    result = {
        "setup_s": setup_s,
        "wall_s": speed.seconds(start, end),
        "metrics": metrics,
        "fingerprint": {
            "trials": len(trials),
            "cache_hits": sum(bool(j["cache_hit"]) for j in jobs),
            "best_loss": outcome.wire.best_loss,
        },
        "diagnostics": diagnostics,
        "trial_latencies": latencies,
        "trial_losses": losses,
        "check_failures": checks,
    }
    if recorder is not None:
        spans = recorder.closed_spans()
        layers = layer_metrics(recorder, spans)
        waves = [(s[1] + clock_offset, s[2] + clock_offset) for s in spans if s[0] == "serve.wave"]
        layers.update(serve_metrics(jobs, waves))
        layers["tpe.trials"] = len(trials)
        layers["trace_coverage_pct"] = 100.0 * coverage(spans, start, end)
        result["layers"] = layers
        result["unattributed"] = unattributed_shares(spans)
    return result
