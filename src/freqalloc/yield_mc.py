"""Monte Carlo yield under Gaussian fabrication dispersion.

A chip counts as good only when every collision instance holds at base
bounds; there is no partial credit, but the mean number of violated
instances per trial is reported alongside as a separate statistic.

Trial t draws its perturbation from an independent Philox substream keyed
by (seed, counter = t * 2^64), so success counts are identical whether
trials run serially, in blocks, or across processes, and a smaller sigma
reuses the same standard normals (common random numbers) scaled down.
Exact streams are not part of the contract; confidence intervals are.

Each trial is drawn once per command: one generator, its counter reset per
trial, serves a whole trial range; a yield curve scales each trial block by
every sigma; and a threshold escalation draws only the new trials.

Memory is bounded: trials run in blocks of about _WORK_BYTES of noise, and
each block walks the instances in chunks of the same size, so the working
set grows with n_qubits x block, not with instances x trials.  The chunking
does not change any count.

A block evaluates only the rows its largest shift dev from base can break.
A row's reach, the largest shift of every qubit it survives, is (|expr| -
bound - r) / sum|coef|, or (C1 margin - r) / 2, with r = 1e-9 x the row's
magnitude for rounding; each term moves by at most |coef| * dev, so a row
with reach >= dev cannot fail and skipping it changes no count.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .constraints import ConstraintParams, FrequencyAssignment, realized_table
from .topology import Topology


class BracketError(ValueError):
    """The sigma bracket does not straddle the target yield."""


def wilson_ci(successes: int, trials: int, z: float = 1.959963984540054) -> tuple[float, float]:
    """Wilson score 95 pct interval for a binomial fraction."""
    if trials == 0:
        return (0.0, 1.0)
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2.0 * trials)) / denom
    half = (z / denom) * math.sqrt(p * (1.0 - p) / trials + z * z / (4.0 * trials * trials))
    # the interval contains p mathematically; keep that true under rounding
    return (max(0.0, min(center - half, p)), min(1.0, max(center + half, p)))


@dataclass
class YieldEstimate:
    """One Monte Carlo run at a single dispersion value."""

    sigma: float
    trials: int
    successes: int
    yield_fraction: float
    ci95: tuple[float, float]
    seed: int
    mean_violations: float

    def __post_init__(self) -> None:
        if not 0 <= self.successes <= self.trials:
            raise ValueError("successes must lie in [0, trials]")
        if not 0.0 <= self.yield_fraction <= 1.0:
            raise ValueError("yield must lie in [0, 1]")
        lo, hi = self.ci95
        if not lo <= self.yield_fraction <= hi:
            raise ValueError("yield must lie inside its confidence interval")


# Bytes per float64 temporary of the trial kernel: one noise block, or one
# instance chunk of a block.  Small enough to stay in cache.
_WORK_BYTES = 1 << 18

CSV_HEADER = "sigma,trials,successes,yield,ci_lo,ci_hi"


def csv_row(est: YieldEstimate) -> str:
    return "%.6g,%d,%d,%.8g,%.8g,%.8g" % (
        est.sigma, est.trials, est.successes, est.yield_fraction, est.ci95[0], est.ci95[1]
    )


def _check_sigma(sigma: float) -> None:
    # a NaN sigma would fail no comparison and report every trial a success
    if not (math.isfinite(sigma) and sigma >= 0):
        raise ValueError("sigma must be finite and >= 0")


def sample_perturbation(
    assignment: FrequencyAssignment, sigma: float, rng: np.random.Generator
) -> FrequencyAssignment:
    """Shift every frequency by an independent Normal(0, sigma^2) draw.

    Draws are consumed in ascending qubit-id order; orientations pass
    through untouched.
    """
    _check_sigma(sigma)
    qubits = sorted(assignment.frequencies)
    noise = rng.standard_normal(len(qubits))
    freqs = {q: assignment.frequencies[q] + sigma * float(noise[i]) for i, q in enumerate(qubits)}
    return FrequencyAssignment(frequencies=freqs, orientations=dict(assignment.orientations))


@dataclass
class _Compiled:
    """Base-bound instances flattened into numpy arrays for block checks."""

    n_qubits: int
    base: np.ndarray       # (n_qubits,) unperturbed frequencies
    abs_idx: np.ndarray    # (n_abs, 3) qubit columns, padded with 0
    abs_coef: np.ndarray   # (n_abs, 3) matching coefficients, padded with 0
    abs_const: np.ndarray  # (n_abs,)
    abs_bound: np.ndarray  # (n_abs,)
    c1_ctrl: np.ndarray    # (n_c1,)
    c1_tgt: np.ndarray     # (n_c1,)
    alpha: float
    abs_reach: np.ndarray  # (n_abs,) largest per-qubit shift each row survives
    c1_reach: np.ndarray   # (n_c1,)


def _compile(topo: Topology, assignment: FrequencyAssignment, params: ConstraintParams) -> _Compiled:
    """A view of the realized instance table: its bounded rows, its C1 rows, their reaches."""
    t, base = realized_table(topo, assignment, params)
    c1, bounded = t.c1, ~t.c1
    terms, const, bound = base[t.idx[bounded]] * t.coef[bounded], t.const[bounded], t.bound[bounded]
    expr = np.abs(terms[:, 0] + terms[:, 1] + terms[:, 2] + const)
    allow = 1e-9 * (np.abs(terms).sum(axis=1) + np.abs(const) + bound)
    fc, ft = base[t.parts[c1, 0]], base[t.parts[c1, 1]]
    return _Compiled(
        n_qubits=topo.n_qubits,
        base=base,
        abs_idx=t.idx[bounded],
        abs_coef=t.coef[bounded],
        abs_const=const,
        abs_bound=bound,
        c1_ctrl=t.parts[c1, 0],
        c1_tgt=t.parts[c1, 1],
        alpha=params.alpha,
        abs_reach=(expr - bound - allow) / np.abs(t.coef[bounded]).sum(axis=1),
        c1_reach=(np.minimum(fc - ft, ft - fc - params.alpha)
                  - 1e-9 * (np.abs(fc) + np.abs(ft) + abs(params.alpha))) / 2,
    )


def _eval_block(comp: _Compiled, freqs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(success flags, violated-instance counts) for a (B, n_qubits) block.

    The block is held qubit-major and the instances are walked in chunks
    whose float64 temporaries take about _WORK_BYTES each, so the working
    set does not grow with the instance count.  Each expression is summed
    in the order ((c0*x0 + c1*x1) + c2*x2) + const.  The indices come from
    _compile and are in range, so take may skip its buffered bounds check.
    Only rows whose reach is not >= the block's shift dev (so all, if NaN) are priced.
    """
    x = np.ascontiguousarray(freqs.T)
    b = x.shape[1]
    viol = np.zeros(b, dtype=np.int64)
    step = max(1, _WORK_BYTES // (8 * b))
    expr, term = np.empty((step, b)), np.empty((step, b))
    dev = np.abs(freqs - comp.base).max(initial=0.0)
    rows = np.flatnonzero(~(comp.abs_reach >= dev))
    for lo in range(0, len(rows), step):
        sel = rows[lo:lo + step]
        idx, coef = comp.abs_idx[sel], comp.abs_coef[sel]
        e, t = expr[:len(idx)], term[:len(idx)]
        np.take(x, idx[:, 0], axis=0, out=e, mode="clip")
        e *= coef[:, 0, None]
        for j in (1, 2):
            np.take(x, idx[:, j], axis=0, out=t, mode="clip")
            t *= coef[:, j, None]
            e += t
        e += comp.abs_const[sel, None]
        viol += np.count_nonzero(np.abs(e, out=e) < comp.abs_bound[sel, None], axis=0)
    rows = np.flatnonzero(~(comp.c1_reach >= dev))
    for lo in range(0, len(rows), step):
        ctrl, tgt = comp.c1_ctrl[rows[lo:lo + step]], comp.c1_tgt[rows[lo:lo + step]]
        fc = np.take(x, ctrl, axis=0, out=expr[:len(ctrl)], mode="clip")
        ft = np.take(x, tgt, axis=0, out=term[:len(tgt)], mode="clip")
        viol += np.count_nonzero(np.minimum(fc - ft, ft - fc - comp.alpha) < 0.0, axis=0)
    return viol == 0, viol


def _trial_noise(seed: int, n_qubits: int, start: int, count: int):
    """Standard normals of trials [start, start+count), in blocks of about _WORK_BYTES.

    Row t holds the first n_qubits draws of Philox(key=seed, counter=t * 2^64):
    resetting the counter, buffer empty, matches a new generator at less cost.
    """
    block = max(1, _WORK_BYTES // (8 * n_qubits))
    rng = np.random.Generator(np.random.Philox(key=seed))
    state = rng.bit_generator.state
    for lo in range(start, start + count, block):
        noise = np.empty((min(block, start + count - lo), n_qubits))
        for t, row in enumerate(noise, lo):
            state["state"]["counter"][1] = t
            rng.bit_generator.state = state
            rng.standard_normal(out=row)
        yield noise


def _run_trials(
    comp: _Compiled, sigmas: list[float], seed: int, start: int, count: int, n_jobs: int = 1,
) -> list[tuple[int, int]]:
    """Trials [start, start+count) at each sigma: (successes, total violated instances).

    n_jobs, capped at the CPU count, shards the range across processes.
    """
    if count < 1:
        raise ValueError("trials must be >= 1")
    if n_jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {n_jobs}")
    n_jobs = min(n_jobs, count, os.cpu_count() or 1)
    if n_jobs > 1:
        ends = [start + count * i // n_jobs for i in range(n_jobs + 1)]
        with ProcessPoolExecutor(max_workers=n_jobs) as pool:
            futures = [
                pool.submit(_run_trials, comp, sigmas, seed, a, b - a)
                for a, b in zip(ends, ends[1:])
            ]
            shards = [fut.result() for fut in futures]
        return [tuple(map(sum, zip(*per_sigma))) for per_sigma in zip(*shards)]
    totals = [(0, 0)] * len(sigmas)
    for noise in _trial_noise(seed, comp.n_qubits, start, count):
        for k, sigma in enumerate(sigmas):
            ok, viol = _eval_block(comp, comp.base + sigma * noise)
            totals[k] = (totals[k][0] + int(ok.sum()), totals[k][1] + int(viol.sum()))
    return totals


def yield_curve(
    assignment: FrequencyAssignment,
    topo: Topology,
    params: ConstraintParams,
    sigmas: list[float],
    trials: int,
    seed: int = 0,
    n_jobs: int = 1,
) -> list[YieldEstimate]:
    """estimate_yield at each sigma, from one draw of the trials.

    Entry k equals estimate_yield(..., sigmas[k], trials, seed, n_jobs): each
    trial block is drawn once and scaled by every sigma.
    """
    for sigma in sigmas:
        _check_sigma(sigma)
    comp = _compile(topo, assignment, params)
    return [
        YieldEstimate(
            sigma=sigma,
            trials=trials,
            successes=successes,
            yield_fraction=successes / trials,
            ci95=wilson_ci(successes, trials),
            seed=seed,
            mean_violations=viol / trials,
        )
        for sigma, (successes, viol) in zip(
            sigmas, _run_trials(comp, sigmas, seed, 0, trials, n_jobs))
    ]


def estimate_yield(
    assignment: FrequencyAssignment,
    topo: Topology,
    params: ConstraintParams,
    sigma: float,
    trials: int,
    seed: int = 0,
    n_jobs: int = 1,
) -> YieldEstimate:
    """Fraction of perturbed copies with zero base-bound violations.

    Per-trial substreams make the result a pure function of (seed, sigma,
    trials): n_jobs, capped at the CPU count, only shards the trial range
    across processes.  An infeasible unperturbed assignment is fine; its
    yield is just low.
    """
    return yield_curve(assignment, topo, params, [sigma], trials, seed, n_jobs)[0]


def composed_yield(local_yield: float, replicas: int) -> float:
    """Chip yield from replica yield under the independence approximation.

    This is an estimate: replicas of a unit share no fabrication randomness
    by assumption, and seam constraints are ignored.  Full-chip Monte Carlo
    is authoritative whenever wrap or seam constraints exist.  Its bias was
    measured at the wrap-bisected sigma against 16k chip trials: on 8x8
    tilings of the 4x4 fixtures it fell 2-12 % below the chip's 95 %
    interval in 5 of 6 runs, and on the 3x3 PBC1 unit tiled 11x11 it was
    about 1.8x the chip's yield.  It can seed a bracket; it is not a bound.
    """
    if not 0.0 <= local_yield <= 1.0:
        raise ValueError("local_yield must lie in [0, 1]")
    if replicas < 1:
        raise ValueError("replicas must be >= 1")
    return local_yield ** replicas


def threshold_dispersion(
    assignment: FrequencyAssignment,
    topo: Topology,
    params: ConstraintParams,
    target_yield: float,
    trials: int,
    sigma_bracket: tuple[float, float],
    tol_mhz: float = 0.1,
    seed: int = 0,
    max_trials: int = 400_000,
    n_jobs: int = 1,
) -> float:
    """Dispersion at which yield crosses the target, by bisection.

    Yield is treated as monotone nonincreasing in sigma.  At each probe the
    trial count is escalated (x4 up to max_trials) until the Wilson CI
    excludes the target; if it still straddles at the cap, the point
    estimate decides; an escalation runs only the new trials.  Same-seed
    probes share random numbers across sigma, so the bisection path is
    deterministic for a fixed seed.

    Raises:
        BracketError: the bracket endpoints do not straddle target_yield.
    """
    if not 0.0 < target_yield < 1.0:
        raise ValueError("target_yield must lie in (0, 1)")
    lo, hi = sigma_bracket
    if not (math.isfinite(hi) and 0.0 <= lo < hi):
        raise ValueError("sigma_bracket must be finite with 0 <= lo < hi")
    if not (math.isfinite(tol_mhz) and tol_mhz > 0):
        raise ValueError("tol_mhz must be finite and > 0")
    comp = _compile(topo, assignment, params)

    def probe(sigma: float) -> str:
        t = successes = 0
        while True:
            end = min(max_trials, 4 * t) if t else trials  # an escalation adds trials [t, end)
            successes += _run_trials(comp, [sigma], seed, t, end - t, n_jobs)[0][0]
            t = end
            ci_lo, ci_hi = wilson_ci(successes, t)
            if ci_lo > target_yield:
                return "above"
            if ci_hi < target_yield:
                return "below"
            if t >= max_trials:
                return "above" if successes / t >= target_yield else "below"

    if probe(lo) == "below":
        raise BracketError(f"yield at sigma={lo} is below the target {target_yield}")
    if probe(hi) == "above":
        raise BracketError(f"yield at sigma={hi} is above the target {target_yield}")

    while hi - lo > tol_mhz:
        mid = 0.5 * (lo + hi)
        if probe(mid) == "above":
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
