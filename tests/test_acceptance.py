"""Release gate: one test per acceptance criterion, run by plain pytest.

Every check here states its own tolerance and prints a single summary line,
so `pytest -v tests/test_acceptance.py` reads as a pass/fail scorecard.
The tests deliberately re-derive expectations through the independent
reference implementations in tests/oracles.py (naive margin loops, the
exhaustive grid search, Gaussian quadrature) instead of trusting any
package code path being graded.

The external-solver criteria use the bundled HiGHS adapter as the wrapper
command, exercising the same LP-file/solution-file round trip a production
solver would.
"""
from __future__ import annotations

import dataclasses
import itertools
import json
import pathlib
import random
import time

import pytest

from freqalloc.assembly import PRESET_TABLE, preset_bc, tile, chip_check
from freqalloc.constraints import (
    TABLE_FAMILIES,
    ConstraintParams,
    FrequencyAssignment,
    check,
    default_params,
    enumerate_records,
    uniform_tightening,
)
from freqalloc.model import Solution, build
from freqalloc.solve import SolverConfig, solve_anneal, solve_external, verify
from freqalloc.topology import Topology, square_grid, uniform_orientation, wrap
from freqalloc.yield_mc import composed_yield, estimate_yield, threshold_dispersion

from .oracles import gaussian_pair_success, grid_search_optimum, naive_margins, naive_violations

ADAPTER_CMD = "python3 -m freqalloc.milp_adapter {lp} {out}"
EXTERNAL = SolverConfig(backend="external", command_template=ADAPTER_CMD, time_budget=600.0)
UNITS_DIR = pathlib.Path(__file__).parent / "fixtures" / "units"


def path_graph(n: int) -> Topology:
    return Topology(n_qubits=n, edges=[(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Topology:
    edges = sorted(tuple(sorted((i, (i + 1) % n))) for i in range(n))
    return Topology(n_qubits=n, edges=edges)


def star_graph(n_leaves: int) -> Topology:
    return Topology(n_qubits=n_leaves + 1, edges=[(0, i + 1) for i in range(n_leaves)])


def solved_external(topo: Topology, params: ConstraintParams, mode: str) -> Solution:
    sol = solve_external(build(topo, enumerate_records(topo, mode, params), params, mode), EXTERNAL)
    assert sol.status in ("optimal", "feasible"), sol.status
    return sol


def merged_assignment(topo: Topology, sol: Solution) -> FrequencyAssignment:
    orient = dict(topo.orientation or {})
    orient.update(sol.orientations)
    return FrequencyAssignment(frequencies=dict(sol.frequencies), orientations=orient)


@pytest.fixture(scope="module")
def suite():
    """Solved instances reused across criteria: paths, cycles, small grids.

    Ten topologies, each solved in fixed and free mode through the external
    adapter, plus four annealed solutions, so both backends are represented.
    """
    params = dataclasses.replace(default_params(), eps_tol=uniform_tightening(10.0))
    topologies = [
        ("P2", path_graph(2)), ("P3", path_graph(3)), ("P4", path_graph(4)), ("P5", path_graph(5)),
        ("C3", cycle_graph(3)), ("C4", cycle_graph(4)), ("C5", cycle_graph(5)), ("C6", cycle_graph(6)),
        ("G2x2", square_grid(2, 2)), ("G3x3", square_grid(3, 3)),
    ]
    entries = []
    for name, topo in topologies:
        fixed_topo = dataclasses.replace(topo, orientation=uniform_orientation(topo, 0))
        for mode, t in (("fixed", fixed_topo), ("free", topo)):
            sol = solved_external(t, params, mode)
            recs = enumerate_records(t, mode, params)
            entries.append((f"{name}/{mode}/external", t, params, recs, sol))
    for name, topo in (("P4", path_graph(4)), ("C4", cycle_graph(4)), ("G2x2", square_grid(2, 2))):
        recs = enumerate_records(topo, "free", params)
        sol = None
        for seed in range(5):
            cand = solve_anneal(recs, params, SolverConfig(backend="anneal", seed=seed))
            if cand.status == "feasible":
                sol = cand
                break
        assert sol is not None, f"anneal found no feasible point for {name}"
        entries.append((f"{name}/free/anneal", topo, params, recs, sol))
    fixed_p3 = dataclasses.replace(path_graph(3), orientation=uniform_orientation(path_graph(3), 0))
    recs = enumerate_records(fixed_p3, "fixed", params)
    sol = solve_anneal(recs, params, SolverConfig(backend="anneal", seed=0))
    assert sol.status == "feasible"
    entries.append(("P3/fixed/anneal", fixed_p3, params, recs, sol))
    return entries


def test_c01_checker_agrees_with_naive_reference() -> None:
    """1000 random 3x3-grid assignments: zero mismatches against the naive
    margin loops, and both routes see the same instance count; under 5 s."""
    rng = random.Random(20260822)
    topo = square_grid(3, 3)
    pairs = sorted(topo.edge_pairs())
    params = default_params()
    t0 = time.perf_counter()
    for trial in range(1000):
        freqs = {q: rng.uniform(4900.0, 5600.0) for q in range(topo.n_qubits)}
        orient = {p: rng.randint(0, 1) for p in pairs}
        rep = check(topo, FrequencyAssignment(freqs, orient), params)
        got = sorted((v.family, v.participants, round(v.margin, 9)) for v in rep.violations)
        want = naive_violations(topo.edges, orient, freqs)
        assert got == want, f"mismatch on trial {trial}"
        assert rep.n_instances == len(naive_margins(topo.edges, orient, freqs))
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    print(f"[c01] PASS: 1000/1000 random assignments agree with the naive checker ({elapsed:.2f}s)")


def test_c02_every_solution_verifies_clean(suite) -> None:
    """Every feasible/optimal solution from either backend shows zero
    violations under verify() at the tightened bounds (tol 1e-6 MHz)."""
    assert len(suite) >= 20
    for label, _topo, params, recs, sol in suite:
        rep = verify(sol, recs, params, tightened=True)
        assert rep.ok, f"{label}: {len(rep.violations)} violations, worst {rep.min_margin}"
    print(f"[c02] PASS: {len(suite)} solutions verified clean at tightened bounds")


# Grid-search optima over all orientations, 1 MHz grid, window 5000..5100,
# recomputed live below and pinned here so a silent oracle change also fails.
BRUTE_FORCE_OPTIMA = {
    "edge2": (2, [(0, 1)], 879.0),
    "path3": (3, [(0, 1), (1, 2)], 1803.0),
    "tri3": (3, [(0, 1), (0, 2), (1, 2)], 1335.0),
    "path4": (4, [(0, 1), (1, 2), (2, 3)], 1420.0),
    "star4": (4, [(0, 1), (0, 2), (0, 3)], 1920.0),
}


def test_c03_milp_matches_exhaustive_search() -> None:
    """Every connected instance shape with at most three couplers: the
    external MILP optimum matches the exhaustive 1 MHz grid search over all
    orientations within 1.0 MHz; well under the 10 minute budget."""
    params = dataclasses.replace(default_params(), f_window=(5000.0, 5100.0))
    t0 = time.perf_counter()
    for name, (n, edges, frozen) in BRUTE_FORCE_OPTIMA.items():
        topo = Topology(n_qubits=n, edges=edges)
        sol = solved_external(topo, params, "free")
        obj, _, _ = grid_search_optimum(
            n, edges, params.alpha, params.base_bounds, {}, 0.0,
            window=params.f_window, step=1.0,
        )
        assert obj == pytest.approx(frozen, abs=1e-9), f"{name}: oracle drifted to {obj}"
        assert abs(sol.objective_value - obj) <= 1.0, (
            f"{name}: milp {sol.objective_value} vs grid {obj}"
        )
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    print(f"[c03] PASS: 5 instance shapes, MILP within 1.0 MHz of grid search ({elapsed:.1f}s)")


def test_c04_free_orientation_dominates_fixed() -> None:
    """4-coupler star and 4-cycle: the free-orientation optimum is at least
    the best over all 16 fixed orientations (tolerance 1e-6 MHz).

    Fixed orientations that admit no assignment at all (a directed cycle of
    drive windows, for instance) are skipped; they have no optimum to beat.
    A fixed-mode model also creates no slack variable for a family with no
    instances, while the free model keeps that slack and lets it float to
    its upper bound, so each fixed objective is lifted by the headroom of
    its absent families before comparing.  That makes the two accountings
    identical and the dominance check meaningful rather than vacuous.
    """
    params = default_params()
    for name, topo in (("star", star_graph(4)), ("cycle", cycle_graph(4))):
        free_model = build(topo, enumerate_records(topo, "free", params), params, "free")
        slack_headroom = {
            v.name[1:]: v.ub - params.base_bound(v.name[1:])
            for v in free_model.variables
            if v.name.startswith("s")
        }
        free_sol = solve_external(free_model, EXTERNAL)
        assert free_sol.status in ("optimal", "feasible")
        free_obj = free_sol.objective_value

        best_fixed = -float("inf")
        infeasible = 0
        for bits in itertools.product((0, 1), repeat=len(topo.edges)):
            oriented = dataclasses.replace(
                topo, orientation={e: b for e, b in zip(topo.edges, bits)}
            )
            recs = enumerate_records(oriented, "fixed", params)
            sol = solve_external(build(oriented, recs, params, "fixed"), EXTERNAL)
            if sol.status == "infeasible":
                infeasible += 1
                continue
            assert sol.status in ("optimal", "feasible"), sol.status
            absent = set(slack_headroom) - {TABLE_FAMILIES[f] for f in recs.family.tolist()}
            lifted = sol.objective_value + sum(slack_headroom[f] for f in absent)
            best_fixed = max(best_fixed, lifted)
        assert best_fixed > -float("inf"), f"{name}: every fixed orientation infeasible"
        assert free_obj >= best_fixed - 1e-6, f"{name}: free {free_obj} < fixed {best_fixed}"
        print(
            f"[c04] {name}: free {free_obj:.1f} >= best fixed {best_fixed:.1f} "
            f"({infeasible}/16 fixed orientations infeasible)"
        )
    print("[c04] PASS: free orientation dominates all feasible fixed orientations")


# Quadrature values for P(|gap + sqrt(2) sigma Z| >= 17) at sigma = 10,
# pinned from tests.oracles.gaussian_pair_success.
PAIR_SUCCESS = {0.0: 0.5080988828, 10.0: 0.7611781674, 50.0: 0.9998048874}


def test_c05_monte_carlo_matches_quadrature() -> None:
    """Two-qubit system with only the pair-distance rule: at margins 0, 10
    and 50 MHz the 1e5-trial Monte Carlo yield's 95% CI contains the
    integrated Gaussian success probability; under 30 s."""
    params = ConstraintParams(base_bounds={"A1": 17.0}, c1_enabled=False)
    topo = path_graph(2)
    t0 = time.perf_counter()
    for margin, frozen in PAIR_SUCCESS.items():
        gap = 17.0 + margin
        exact = gaussian_pair_success(gap, 17.0, 10.0)
        assert exact == pytest.approx(frozen, abs=5e-5)
        asn = FrequencyAssignment({0: 5100.0, 1: 5100.0 + gap}, {(0, 1): 0})
        est = estimate_yield(asn, topo, params, sigma=10.0, trials=100_000, seed=11)
        lo, hi = est.ci95
        assert lo <= exact <= hi, f"margin {margin}: CI ({lo}, {hi}) misses {exact}"
        print(f"[c05] margin {margin:>4}: mc {est.yield_fraction:.5f} in CI around {exact:.5f}")
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"[c05] PASS: Monte Carlo matches quadrature at all three margins ({elapsed:.1f}s)")


def test_c06_composed_yield_reference_point() -> None:
    """composed_yield(0.965, 62) lands in [0.105, 0.115]."""
    value = composed_yield(0.965, 62)
    assert 0.105 <= value <= 0.115, value
    print(f"[c06] PASS: composed_yield(0.965, 62) = {value:.4f}")


def test_c07_tightening_raises_yield() -> None:
    """4x4 grid, every coupler driven low-to-high: solving with a 10 MHz
    tightening margin gives strictly higher Monte Carlo yield at sigma = 10
    than solving with none, with non-overlapping 95% CIs at 1e5 trials."""
    topo = square_grid(4, 4)
    topo = dataclasses.replace(topo, orientation=uniform_orientation(topo, 0))
    t0 = time.perf_counter()
    results = {}
    for eps in (0.0, 10.0):
        params = dataclasses.replace(default_params(), eps_tol=uniform_tightening(eps))
        recs = enumerate_records(topo, "fixed", params)
        sol = solve_external(build(topo, recs, params, "fixed"), EXTERNAL)
        assert sol.status in ("optimal", "feasible"), sol.status
        assert verify(sol, recs, params, tightened=True).ok
        est = estimate_yield(
            merged_assignment(topo, sol), topo, params, sigma=10.0, trials=100_000, seed=7
        )
        results[eps] = est
        print(f"[c07] eps {eps:>4}: yield {est.yield_fraction:.5f} CI {est.ci95}")
    slack0, slack10 = results[0.0], results[10.0]
    assert slack10.yield_fraction > slack0.yield_fraction
    assert slack10.ci95[0] > slack0.ci95[1], (
        f"CIs overlap: {slack0.ci95} vs {slack10.ci95}"
    )
    elapsed = time.perf_counter() - t0
    assert elapsed < 3600.0
    print(f"[c07] PASS: tightened yield beats untightened with separated CIs ({elapsed:.1f}s)")


def load_unit(preset: str, size: int) -> tuple[Topology, Solution]:
    doc = json.loads((UNITS_DIR / f"{preset.lower()}_{size}x{size}.json").read_text())
    return square_grid(doc["rows"], doc["cols"]), Solution.from_json_dict(doc["solution"])


def test_c08_seam_equivalence_full_sweep() -> None:
    """Every preset boundary condition, every committed wrap-feasible 3x3
    and 4x4 unit solution, every tiling count in {1,2,3}^2: the assembled
    chip checks out with zero violations at base bounds."""
    params = default_params()
    t0 = time.perf_counter()
    tilings = 0
    for preset in PRESET_TABLE:
        bc = preset_bc(preset)
        for size in (3, 4):
            unit, sol = load_unit(preset, size)
            for nx, ny in itertools.product((1, 2, 3), repeat=2):
                chip = tile(unit, sol, bc, nx=nx, ny=ny, params=params)
                rep = chip_check(chip, params)
                assert rep.ok, (
                    f"{preset} {size}x{size} x({nx},{ny}): "
                    f"{len(rep.violations)} violations, worst {rep.min_margin}"
                )
                tilings += 1
    elapsed = time.perf_counter() - t0
    assert tilings == len(PRESET_TABLE) * 2 * 9
    print(f"[c08] PASS: {tilings} tilings, zero violations everywhere ({elapsed:.1f}s)")


def test_c09_yield_monotone_in_dispersion(suite) -> None:
    """Common random numbers: for every lattice solution in the suite the
    estimated yield is nonincreasing across sigma = 2, 4, ..., 20 MHz.

    The claim is about the estimator: shared draws across sigma must not
    introduce sampling inversions into a curve that is truly decaying.  It
    holds on lattices, where hundreds of instances make aggregate failure
    dominate.  It is genuinely false on near-empty graphs: the centering
    rule forbids only a narrow band, so a lone instance sitting close to
    that band recovers at large sigma (the chance of landing inside a
    4 MHz window shrinks once the noise spreads far past it), and with no
    other instances left to fail the true curve turns back up.  Paths and
    stars are therefore out of scope here by construction, not by tuning.
    """
    sigmas = list(range(2, 21, 2))
    lattice = [
        (label, topo, params, sol)
        for label, topo, params, _recs, sol in suite
        if label.startswith("G")
    ]
    stock = default_params()
    for preset in PRESET_TABLE:
        for size in (3, 4):
            unit, sol = load_unit(preset, size)
            lattice.append((f"{preset}-{size}x{size}", wrap(unit, preset_bc(preset)), stock, sol))
    assert len(lattice) == 5 + 12  # grid solves (incl. one annealed) + unit fixtures

    t0 = time.perf_counter()
    for label, topo, params, sol in lattice:
        asn = merged_assignment(topo, sol)
        ys = [
            estimate_yield(asn, topo, params, sigma=float(s), trials=20_000, seed=5).yield_fraction
            for s in sigmas
        ]
        for a, b in zip(ys, ys[1:]):
            assert b <= a, f"{label}: yields not monotone: {ys}"
    elapsed = time.perf_counter() - t0
    print(
        f"[c09] PASS: {len(lattice)} lattice solutions monotone over "
        f"{len(sigmas)} dispersions ({elapsed:.1f}s)"
    )


def test_c10_full_pipeline_runs_end_to_end() -> None:
    """Build a twice-shifted periodic 4x4 unit with a 20 MHz tightening
    margin, solve it, tile 8x8 into a 1024-qubit chip, and bisect for the
    dispersion where chip yield crosses 10%.  The gate is that the pipeline
    completes with a clean chip and a bracketed crossing; the crossing value
    itself depends on how hard the solver pushes the margins, so it is
    reported, not asserted.  Trial counts are kept modest for runtime."""
    t0 = time.perf_counter()
    unit = square_grid(4, 4)
    bc = preset_bc("PBC3")
    params = dataclasses.replace(default_params(), eps_tol=uniform_tightening(20.0))
    recs = enumerate_records(wrap(unit, bc), "free", params)
    sol = None
    for seed in range(6):
        cand = solve_anneal(recs, params, SolverConfig(backend="anneal", seed=seed))
        if cand.status == "feasible":
            sol = cand
            break
    assert sol is not None, "no feasible unit solution in 6 anneal seeds"
    assert verify(sol, recs, params, tightened=True).ok

    chip = tile(unit, sol, bc, nx=8, ny=8, params=params)
    assert chip.chip_topology.n_qubits == 1024
    rep = chip_check(chip, params)
    assert rep.ok, f"chip has {len(rep.violations)} violations"

    sigma_star = threshold_dispersion(
        chip.chip_assignment, chip.chip_topology, params,
        target_yield=0.10, trials=512, sigma_bracket=(0.05, 10.0),
        tol_mhz=0.5, seed=2, max_trials=2048,
    )
    assert 0.05 < sigma_star < 10.0
    elapsed = time.perf_counter() - t0
    print(
        f"[c10] PASS: 1024-qubit chip clean, yield crosses 10% at "
        f"sigma ~ {sigma_star:.2f} MHz ({elapsed:.1f}s)"
    )
