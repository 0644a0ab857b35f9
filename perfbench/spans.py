"""Spans and counts around freqalloc's public functions, for the traced run.

The tracer replaces each listed function with a wrapper in its defining
module and in every module that imported the name (cli, solve, assembly,
yield_mc), records one span per call in memory, and restores the originals
on uninstall.  A function missing from the package (renamed or removed by a
later refactor) is skipped, and its layer reports zero.

A span's self time is its duration minus the time covered by its direct
child spans, so the self times of all spans under the per-command root
spans add up to the traced wall time of the commands.
"""
from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

IMPORTERS = ("freqalloc.cli", "freqalloc.solve", "freqalloc.assembly", "freqalloc.yield_mc")

# (defining module, function) pairs wrapped in the traced run.
TRACED = (
    ("freqalloc.constraints", "enumerate_records"),
    ("freqalloc.constraints", "check"),
    ("freqalloc.assembly", "tile"),
    ("freqalloc.assembly", "chip_check"),
    ("freqalloc.assembly", "seam_violations"),
    ("freqalloc.model", "build"),
    ("freqalloc.model", "export_lp"),
    ("freqalloc.model", "import_solution"),
    ("freqalloc.solve", "solve_external"),
    ("freqalloc.solve", "verify"),
    ("freqalloc.solve", "solve_anneal"),
    ("freqalloc.yield_mc", "estimate_yield"),
    ("freqalloc.yield_mc", "threshold_dispersion"),
)

# Per-layer self-time metrics: metric name -> span name.
SELF_TIME_METRICS = {
    "constraints.enumerate_records_s": "constraints.enumerate_records",
    "constraints.check_s": "constraints.check",
    "assembly.tile_s": "assembly.tile",
    "assembly.chip_check_s": "assembly.chip_check",
    "assembly.seam_violations_s": "assembly.seam_violations",
    "model.build_s": "model.build",
    "model.export_lp_s": "model.export_lp",
    "model.import_solution_s": "model.import_solution",
    "solve.solve_external_s": "solve.solve_external",
    "solve.verify_s": "solve.verify",
    "solve.solve_anneal_s": "solve.solve_anneal",
    "yield_mc.estimate_yield_s": "yield_mc.estimate_yield",
    "yield_mc.threshold_dispersion_s": "yield_mc.threshold_dispersion",
}

# Spans run after a command, outside its wall time: the in-process LP re-solve
# and the tracemalloc re-run of the command's largest estimate_yield call
# (tracemalloc slows the per-trial loop several times, so it stays out of the
# timed call).
RESOLVE_SPAN = "milp_adapter.solve_lp"
MEMORY_SPAN = "yield_mc.peak_alloc_probe"
OUTSIDE = (RESOLVE_SPAN, MEMORY_SPAN)

_COUNTS = (
    "constraints.enumerate_records_calls", "constraints.records",
    "constraints.check_instances", "assembly.tile_calls", "model.rows", "model.binaries",
    "solve.verify_instances", "yield_mc.estimate_yield_calls", "yield_mc.trials",
    "yield_mc.instances", "yield_mc.threshold_probes", "yield_mc.threshold_trials",
    "topology.qubits", "topology.edges",
)

# Every per-layer metric with its unit.
UNITS = {
    **{name: "s" for name in SELF_TIME_METRICS},
    "cli.self_s": "s",
    "milp_adapter.solve_lp_s": "s",
    "solve.spawn_overhead_s": "s",
    **{name: "count" for name in _COUNTS},
    "model.lp_bytes": "bytes",
    "yield_mc.peak_alloc_mb": "MB",
    "solve.anneal_moves_per_s": "computed-moves/s",
    "yield_mc.instance_evals_per_s": "evals/s",
    "trace.self_sum_s": "s",
    "trace.traced_wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
}


def anneal_moves(anneal: dict, final_temp: float) -> int:
    """Moves the annealer's geometric schedule makes, computed, not counted."""
    temp, levels = float(anneal["init_temp"]), 0
    while temp > final_temp:
        levels += 1
        temp *= float(anneal["cooling_rate"])
    return levels * int(anneal["moves_per_temp"])


def yield_instances(enumerate_records, topo, assignment, params) -> int:
    """Base-bound check instances per Monte Carlo trial (fixed orientation, no DIFF)."""
    from freqalloc.constraints import realized_orientation

    fixed = dataclasses.replace(topo, orientation=realized_orientation(topo, assignment))
    base = dataclasses.replace(params, eps_tol={}, delta_diff=0.0)
    return len(enumerate_records(fixed, "fixed", base))


class Tracer:
    """In-memory span recorder with per-layer counters."""

    def __init__(self, workload: str, run_id: str):
        self.workload = workload
        self.run_id = run_id
        self.spans: list[dict] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._pending_lp: list[str] = []
        self._yield_jobs: list[tuple] = []
        self._largest_yield: tuple | None = None
        self._paused = False
        self._threshold_sigmas: set[float] | None = None
        self._last_lp: str | None = None

    # -- spans ---------------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "workload": self.workload,
            "run_id": self.run_id,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> dict[str, float]:
        """Sum of self time per span name."""
        child_time: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s["name"]] += (s["end"] - s["start"]) - child_time[s["id"]]
        return out

    def total_time(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    # -- wrappers ------------------------------------------------------------

    def install(self) -> None:
        # Imported here so that SciPy's import cost stays out of the first re-solve.
        from freqalloc import constraints, milp_adapter, solve, yield_mc

        self._enumerate = constraints.enumerate_records
        self._estimate = yield_mc.estimate_yield
        self._solve_lp = milp_adapter.solve_lp
        self._final_temp = getattr(solve, "_FINAL_TEMP", 1e-3)
        for module, name in TRACED:
            self._wrap(module, name)

    def uninstall(self) -> None:
        for target, name, orig in reversed(self._patches):
            setattr(target, name, orig)
        self._patches.clear()

    def _wrap(self, module: str, name: str) -> None:
        orig = getattr(importlib.import_module(module), name, None)
        if orig is None:
            return
        span_name = f"{module.rsplit('.', 1)[1]}.{name}"
        hook = getattr(self, "_after_" + name, None)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if self._paused:
                return orig(*args, **kwargs)
            if name == "threshold_dispersion":
                self._threshold_sigmas = set()
            with self.span(span_name):
                result = orig(*args, **kwargs)
            if hook is not None:
                hook(result, *args, **kwargs)
            return result

        for mod_name in (module, *IMPORTERS):
            target = importlib.import_module(mod_name)
            if getattr(target, name, None) is orig:
                setattr(target, name, wrapper)
                self._patches.append((target, name, orig))

    def _size(self, topo) -> None:
        self.counts["topology.qubits"] = max(self.counts["topology.qubits"], topo.n_qubits)
        self.counts["topology.edges"] = max(self.counts["topology.edges"], len(topo.edges))

    def _after_enumerate_records(self, result, *args, **kwargs) -> None:
        self.counts["constraints.enumerate_records_calls"] += 1
        self.counts["constraints.records"] += len(result)

    def _after_check(self, result, *args, **kwargs) -> None:
        self.counts["constraints.check_instances"] += result.n_instances

    def _after_tile(self, result, *args, **kwargs) -> None:
        self.counts["assembly.tile_calls"] += 1
        self._size(result.chip_topology)

    def _after_build(self, result, topo, *args, **kwargs) -> None:
        self.counts["model.rows"] += len(result.rows)
        self.counts["model.binaries"] += len(result.binaries())
        self._size(topo)

    def _after_export_lp(self, result, *args, **kwargs) -> None:
        self.counts["model.lp_bytes"] += len(result.encode())
        self._last_lp = result

    def _after_solve_external(self, result, *args, **kwargs) -> None:
        if self._last_lp is not None:
            self._pending_lp.append(self._last_lp)
        self._last_lp = None

    def _after_verify(self, result, *args, **kwargs) -> None:
        self.counts["solve.verify_instances"] += result.n_instances

    def _after_solve_anneal(self, result, records, params, cfg, *args, **kwargs) -> None:
        self.counts["solve.anneal_moves"] += anneal_moves(cfg.anneal, self._final_temp)

    def _after_estimate_yield(self, result, assignment, topo, params, *args, **kwargs) -> None:
        self.counts["yield_mc.estimate_yield_calls"] += 1
        self.counts["yield_mc.trials"] += result.trials
        self._size(topo)
        self._yield_jobs.append((topo, assignment, params, result.trials))
        size = result.trials * topo.n_qubits
        if self._largest_yield is None or size > self._largest_yield[0]:
            self._largest_yield = (size, (assignment, topo, params, *args), kwargs)
        if self._threshold_sigmas is not None:
            self._threshold_sigmas.add(result.sigma)
            self.counts["yield_mc.threshold_trials"] += result.trials

    def _after_threshold_dispersion(self, result, *args, **kwargs) -> None:
        self.counts["yield_mc.threshold_probes"] += len(self._threshold_sigmas or ())
        self._threshold_sigmas = None

    def after_command(self) -> None:
        """Work deferred out of the command's span: LP re-solves, instance counts
        and the memory probe.  Wrapped functions it reaches are not traced."""
        self._paused = True
        try:
            self._deferred()
        finally:
            self._paused = False

    def _deferred(self) -> None:
        for lp in self._pending_lp:
            with self.span(RESOLVE_SPAN):
                self._solve_lp(lp)
        self._pending_lp.clear()
        sizes: dict[int, int] = {}
        for topo, assignment, params, trials in self._yield_jobs:
            if id(topo) not in sizes:
                sizes[id(topo)] = yield_instances(self._enumerate, topo, assignment, params)
            n = sizes[id(topo)]
            self.counts["yield_mc.instances"] = max(self.counts["yield_mc.instances"], n)
            self.counts["yield_mc.instance_evals"] += n * trials
        self._yield_jobs.clear()
        if self._largest_yield is not None:
            _, args, kwargs = self._largest_yield
            self._largest_yield = None
            with self.span(MEMORY_SPAN):
                tracemalloc.start()
                try:
                    self._estimate(*args, **kwargs)
                    peak = tracemalloc.get_traced_memory()[1] / 2**20
                finally:
                    tracemalloc.stop()
            key = "yield_mc.peak_alloc_mb"
            self.counts[key] = max(self.counts[key], peak)

    # -- results -------------------------------------------------------------

    def layer_metrics(self, traced_wall: float, untraced_wall: float) -> dict[str, float]:
        """Per-layer metrics; self times of command spans add up to traced_wall."""
        self_t = self.self_times()
        m = {metric: self_t.get(span, 0.0) for metric, span in SELF_TIME_METRICS.items()}
        m["cli.self_s"] = sum(t for name, t in self_t.items() if name.startswith("cli."))
        resolve = self.total_time(RESOLVE_SPAN)
        m["milp_adapter.solve_lp_s"] = resolve
        m["solve.spawn_overhead_s"] = m["solve.solve_external_s"] - resolve
        for key in (*_COUNTS, "model.lp_bytes", "yield_mc.peak_alloc_mb"):
            m[key] = self.counts.get(key, 0)
        anneal_time = self.total_time("solve.solve_anneal")
        m["solve.anneal_moves_per_s"] = (
            self.counts["solve.anneal_moves"] / anneal_time if anneal_time else 0.0
        )
        yield_time = self.total_time("yield_mc.estimate_yield")
        m["yield_mc.instance_evals_per_s"] = (
            self.counts["yield_mc.instance_evals"] / yield_time if yield_time else 0.0
        )
        m["trace.self_sum_s"] = sum(t for name, t in self_t.items() if name not in OUTSIDE)
        m["trace.traced_wall_s"] = traced_wall
        m["trace.untraced_wall_s"] = untraced_wall
        m["trace.overhead_s"] = traced_wall - untraced_wall
        return m

    def write(self, path: Path, extra: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = dict(extra, run_id=self.run_id, workload=self.workload,
                   counts=dict(self.counts), spans=self.spans)
        path.write_text(json.dumps(doc, indent=1) + "\n")
