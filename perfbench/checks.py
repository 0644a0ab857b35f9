"""Correctness checks that do not trust the code path they check.

The yield check draws its own perturbations with a NumPy PCG64 generator
(not the package's Philox trial streams) through
``yield_mc.sample_perturbation`` and judges each draw with the checker's
per-instance evaluation at base bounds (``solve.verify`` with tol 0 over the
instances ``constraints.check`` enumerates, enumerated once per topology).
It is therefore independent of the Monte Carlo estimator and of its random
stream, and a change to that stream does not trip it.

The package functions are bound at import, before the traced run wraps
them, so the checks add no spans.
"""
from __future__ import annotations

import dataclasses
import functools
import json
import math
from pathlib import Path

import numpy as np
from freqalloc.constraints import default_params, enumerate_records, realized_orientation
from freqalloc.model import Solution
from freqalloc.solve import verify
from freqalloc.topology import Topology
from freqalloc.yield_mc import sample_perturbation

# Two-sided 99.99 % normal quantile: the agreement test runs several times in
# every benchmark run, so a wide interval keeps false alarms negligible while a
# broken estimator still shows as disjoint intervals.
Z_AGREE = 3.8906


def wilson(successes: int, trials: int, z: float = Z_AGREE) -> tuple[float, float]:
    if trials == 0:
        return 0.0, 1.0
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2.0 * trials)) / denom
    half = z / denom * math.sqrt(p * (1.0 - p) / trials + z * z / (4.0 * trials * trials))
    return center - half, center + half


def wilson_overlap(s1: int, n1: int, s2: int, n2: int) -> bool:
    lo1, hi1 = wilson(s1, n1)
    lo2, hi2 = wilson(s2, n2)
    return lo1 <= hi2 and lo2 <= hi1


def objective_matches(objective, reference: float) -> bool:
    """Within HiGHS's default relative MIP gap (1e-4) of the solver objective,
    which is the slack sum: the reported objective plus the base bounds (~190 MHz)."""
    if objective is None:
        return False
    return abs(objective - reference) <= 1e-4 * (abs(reference) + 200.0)


def curve_crossing(rows: list[dict], target: float) -> tuple[float | None, float]:
    """Sigma where the yield curve first drops through target, by linear
    interpolation, and the curve's step there."""
    pts = sorted((float(r["sigma"]), float(r["yield"])) for r in rows)
    for (s0, y0), (s1, y1) in zip(pts, pts[1:]):
        if y0 >= target > y1:
            return s0 + (y0 - target) / (y0 - y1) * (s1 - s0), s1 - s0
    return None, 0.0


@functools.lru_cache(maxsize=4)
def _checker(topo_path: str, sol_path: str):
    topo = Topology.from_json(Path(topo_path).read_text())
    assignment = Solution.from_json_dict(json.loads(Path(sol_path).read_text())).as_assignment()
    orient = realized_orientation(topo, assignment)
    base = dataclasses.replace(default_params(), eps_tol={}, delta_diff=0.0)
    fixed = dataclasses.replace(topo, orientation=orient)
    return assignment, orient, enumerate_records(fixed, "fixed", base), base


def independent_successes(topo_path: Path, sol_path: Path, sigma: float, draws: int,
                          seed: int) -> tuple[int, int]:
    """(clean draws, draws) at sigma from the benchmark's own generator."""
    assignment, orient, records, base = _checker(str(topo_path), str(sol_path))
    rng = np.random.default_rng([seed, round(sigma * 1000), 7919])
    ok = 0
    for _ in range(draws):
        pert = sample_perturbation(assignment, sigma, rng)
        sol = Solution("feasible", frequencies=pert.frequencies, orientations=orient)
        ok += verify(sol, records, base, tightened=False, tol=0.0).ok
    return ok, draws
