"""Outside-in tracing of the program's layers.

:class:`Recorder` replaces public functions and methods of ``repro`` modules
with timing wrappers that record one span per call, with a link to the span
that was open on the same thread when the call began.  Each function is
wrapped at the attribute its caller resolves at call time: a function that a
caller imported by name (``from .maze import maze_route``) is wrapped in the
caller's module, a method on its class, a kernel on ``repro.kernels``.

:func:`layer_metrics` turns the spans of one traced repetition into the
per-layer metrics listed in ``BENCHMARK.json``.
"""

from __future__ import annotations

import importlib
import threading
import time

from summarize import by_name, median

#: ``(module, attribute path, span name)`` of every wrapped callable.
WRAPS = (
    ("repro.benchgen", "make_design", "benchgen.generate"),
    ("repro.placer.engine", "GlobalPlacer.run", "placer.gp"),
    ("repro.kernels", "bin_overlap", "kernels.bin_overlap"),
    ("repro.core.optimizer", "RoutabilityOptimizer.__call__", "core.hook"),
    ("repro.core.congestion", "CongestionEstimator.estimate", "core.estimate"),
    ("repro.core.congestion", "build_topologies", "core.topologies"),
    ("repro.core.congestion", "accumulate_demand", "core.demand"),
    ("repro.core.congestion", "expand_demand", "core.expansion"),
    ("repro.core.features", "FeatureExtractor.extract", "core.features"),
    ("repro.core.padding", "PaddingEngine.run_round", "core.padding"),
    ("repro.kernels", "rect_add", "kernels.rect_add"),
    ("repro.core.puffer", "padded_widths", "legalizer.padded_widths"),
    ("repro.core.puffer", "legalize_abacus", "legalizer.abacus"),
    ("repro.kernels", "abacus_trial", "kernels.abacus_trial"),
    ("repro.router.router", "GlobalRouter.run", "router.run"),
    ("repro.router.router", "build_net_segments", "router.rsmt"),
    ("repro.router.router", "best_pattern_route", "router.pattern"),
    ("repro.router.router", "maze_route", "router.maze"),
    ("repro.router.router", "commit_route", "router.commit"),
    ("repro.router.router", "select_victims", "router.victims"),
    ("repro.kernels", "maze_search", "kernels.maze_search"),
    ("repro.kernels", "steiner_batch", "kernels.steiner_batch"),
    ("repro.api", "_verify_run", "verify.check"),
    ("repro.api", "run_exploration", "tpe.run"),
    ("repro.serve.exploration", "DistributedEvaluator.__call__", "serve.wave"),
)

#: ``span name -> reducer`` of the return values the metrics need.
KEEP = {
    "placer.gp": lambda r: (r.iterations, r.grad_evals),
    "core.hook": bool,
    "legalizer.abacus": lambda r: r.total_displacement,
    "router.run": lambda r: (r.rounds, r.wirelength),
    "router.maze": lambda r: r is None,
}

def _resolve(module_name: str, path: str) -> tuple:
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, attr


class Recorder:
    """In-memory span recorder over wrapped callables.

    Spans are ``[name, start, end, parent]`` lists (``parent`` indexes this
    recorder's :attr:`spans`).  For the span names in :data:`KEEP`, the
    reduced return value of every call is appended to :attr:`results`.
    """

    def __init__(self) -> None:
        self.spans: list = []
        self.results: dict = {name: [] for name in KEEP}
        self._local = threading.local()
        self._lock = threading.Lock()

    def wrap(self, owner, attr: str, name: str) -> None:
        original = getattr(owner, attr)
        spans, local, lock = self.spans, self._local, self._lock
        kept = self.results.get(name)
        reduce = KEEP.get(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            record = [name, clock(), None, stack[-1] if stack else None]
            with lock:
                index = len(spans)
                spans.append(record)
            stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if kept is not None:
                kept.append(reduce(result))
            return result

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)

    def install(self, wraps=WRAPS) -> "Recorder":
        for module_name, path, name in wraps:
            owner, attr = _resolve(module_name, path)
            self.wrap(owner, attr, name)
        return self

    def closed_spans(self) -> list:
        """Every span as a ``(name, start, end, parent)`` tuple.

        Call once the traced work has returned: a span still open then
        (a wrapped call running on another thread) is an error.
        """
        spans = [tuple(s) for s in self.spans]
        if any(s[2] is None for s in spans):
            raise RuntimeError("a traced call is still running")
        return spans


def serve_metrics(jobs, waves) -> dict:
    """Service-side layer metrics from public job timestamps.

    ``jobs`` are wire dicts (``submitted_at``/``started_at``/``finished_at``,
    ``cache_hit``); ``waves`` are ``(start, end)`` wall-clock intervals of
    the evaluator calls, each owning the jobs submitted inside it.  A job
    served from the result cache never starts; it counts as starting when
    it finished.
    """
    if not jobs:
        return {"serve.queue_wait_p50_s": 0.0, "serve.job_run_p50_s": 0.0,
                "serve.cache_hit_frac": 0.0, "serve.wave_s": 0.0, "serve.wave_idle_s": 0.0}
    starts = [j["finished_at"] if j["started_at"] is None else j["started_at"] for j in jobs]
    runs = [j["finished_at"] - start for j, start in zip(jobs, starts)]
    idle = 0.0
    for lo, hi in waves:
        members = [r for j, r in zip(jobs, runs) if lo <= j["submitted_at"] <= hi]
        if members:
            idle += (hi - lo) - sum(members) / len(members)
    return {
        "serve.queue_wait_p50_s": median(
            start - j["submitted_at"] for j, start in zip(jobs, starts)
        ),
        "serve.job_run_p50_s": median(runs),
        "serve.cache_hit_frac": sum(bool(j["cache_hit"]) for j in jobs) / len(jobs),
        "serve.wave_s": sum(hi - lo for lo, hi in waves),
        "serve.wave_idle_s": idle,
    }


def layer_metrics(recorder: Recorder, spans) -> dict:
    """Per-layer metrics of one traced repetition (zero for layers that did
    not run)."""
    stats = by_name(spans)

    def total(name):
        return stats.get(name, {}).get("total", 0.0)

    def calls(name):
        return stats.get(name, {}).get("calls", 0)

    gp = recorder.results["placer.gp"]
    maze = recorder.results["router.maze"]
    routed = recorder.results["router.run"]
    legal = recorder.results["legalizer.abacus"]
    return {
        "benchgen.generate_s": total("benchgen.generate"),
        "placer.gp_self_s": stats.get("placer.gp", {}).get("self", 0.0),
        "placer.iterations": sum(r[0] for r in gp),
        "placer.grad_evals": sum(r[1] for r in gp),
        "kernels.bin_overlap_s": total("kernels.bin_overlap"),
        "kernels.bin_overlap_calls": calls("kernels.bin_overlap"),
        "core.hook_s": total("core.hook"),
        "core.padding_rounds": sum(recorder.results["core.hook"]),
        "core.estimate_s": total("core.estimate"),
        "core.topologies_s": total("core.topologies"),
        "core.demand_s": total("core.demand"),
        "core.expansion_s": total("core.expansion"),
        "core.features_s": total("core.features"),
        "core.padding_s": total("core.padding"),
        "kernels.rect_add_s": total("kernels.rect_add"),
        "legalizer.padded_widths_s": total("legalizer.padded_widths"),
        "legalizer.abacus_s": total("legalizer.abacus"),
        "kernels.abacus_trial_calls": calls("kernels.abacus_trial"),
        "legalizer.displacement": sum(legal),
        "router.run_s": total("router.run"),
        "router.self_s": stats.get("router.run", {}).get("self", 0.0),
        "router.rsmt_s": total("router.rsmt"),
        "router.pattern_s": total("router.pattern"),
        "router.pattern_calls": calls("router.pattern"),
        "router.maze_s": total("router.maze"),
        "router.maze_calls": len(maze),
        "router.maze_fallback_frac": (sum(maze) / len(maze)) if maze else 0.0,
        "router.commit_s": total("router.commit"),
        "router.commit_calls": calls("router.commit"),
        "router.victims_s": total("router.victims"),
        "router.rrr_rounds": sum(r[0] for r in routed),
        "router.routed_wl": sum(r[1] for r in routed),
        "kernels.maze_search_s": total("kernels.maze_search"),
        "kernels.steiner_batch_s": total("kernels.steiner_batch"),
        "verify.check_s": total("verify.check"),
        "tpe.suggest_s": stats.get("tpe.run", {}).get("self", 0.0),
    }
