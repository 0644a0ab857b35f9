"""Monte Carlo yield, threshold search, and composition."""
import dataclasses
import json
import math
import pathlib
import tracemalloc
from concurrent.futures import Future, ThreadPoolExecutor

import numpy as np
import pytest

from freqalloc import yield_mc
from freqalloc.assembly import preset_bc, tile
from freqalloc.constraints import (
    TABLE_FAMILIES,
    FrequencyAssignment,
    check,
    default_params,
    enumerate_records,
    realized_table,
)
from freqalloc.milp_adapter import solve_lp
from freqalloc.model import Solution, build, export_lp, import_solution
from freqalloc.topology import Topology, square_grid, wrap
from freqalloc.yield_mc import (
    CSV_HEADER,
    BracketError,
    YieldEstimate,
    composed_yield,
    csv_row,
    estimate_yield,
    sample_perturbation,
    threshold_dispersion,
    wilson_ci,
    yield_curve,
)

from .oracles import gaussian_pair_success, wilson_interval


def a1_only_params():
    return dataclasses.replace(
        default_params(), base_bounds={"A1": 17.0}, c1_enabled=False
    )


def a1_pair(gap):
    topo = Topology(n_qubits=2, edges=[(0, 1)], orientation={(0, 1): 0})
    asg = FrequencyAssignment(
        frequencies={0: 5100.0, 1: 5100.0 + gap}, orientations={(0, 1): 0}
    )
    return topo, asg


def full_pair():
    # wide margins in every family: A1 103, A2 200, C1 120, E1 103, E2 200, D1 53
    topo = Topology(n_qubits=2, edges=[(0, 1)])
    asg = FrequencyAssignment(
        frequencies={0: 5100.0, 1: 5220.0}, orientations={(0, 1): 1}
    )
    return topo, asg


def pbc1_4x4_unit():
    path = pathlib.Path(__file__).parent / "fixtures" / "units" / "pbc1_4x4.json"
    d = json.loads(path.read_text())
    return square_grid(4, 4), Solution.from_json_dict(d["solution"])


def solved_2x2():
    p = default_params()
    grid = square_grid(2, 2)
    m = build(grid, enumerate_records(grid, "free", p), p, "free")
    sol = import_solution(json.dumps(solve_lp(export_lp(m))), m)
    assert sol.status == "optimal"
    return grid, sol.as_assignment(), p


# -- sample_perturbation ---------------------------------------------------------


def test_perturbation_sigma_zero_is_identity():
    _, asg = a1_pair(40.0)
    rng = np.random.default_rng(0)
    out = sample_perturbation(asg, 0.0, rng)
    assert out.frequencies == asg.frequencies
    assert out.orientations == asg.orientations


def test_perturbation_reproducible_for_fixed_seed():
    _, asg = a1_pair(40.0)
    a = sample_perturbation(asg, 10.0, np.random.default_rng(9))
    b = sample_perturbation(asg, 10.0, np.random.default_rng(9))
    assert a.frequencies == b.frequencies


def test_perturbation_rejects_negative_sigma():
    _, asg = a1_pair(40.0)
    with pytest.raises(ValueError):
        sample_perturbation(asg, -1.0, np.random.default_rng(0))


def test_perturbation_empirical_stddev():
    asg = FrequencyAssignment(frequencies={0: 5000.0})
    rng = np.random.default_rng(123)
    draws = np.array(
        [sample_perturbation(asg, 10.0, rng).frequencies[0] - 5000.0 for _ in range(100_000)]
    )
    assert draws.std() == pytest.approx(10.0, abs=0.2)


# -- estimate_yield ---------------------------------------------------------------


def test_yield_exactly_one_at_sigma_zero():
    topo, asg = a1_pair(40.0)
    est = estimate_yield(asg, topo, a1_only_params(), sigma=0.0, trials=500, seed=1)
    assert est.yield_fraction == 1.0
    assert est.successes == 500
    assert est.mean_violations == 0.0


def test_yield_matches_quadrature_at_tight_margin():
    topo, asg = a1_pair(17.0)
    est = estimate_yield(asg, topo, a1_only_params(), sigma=10.0, trials=100_000, seed=7)
    expected = gaussian_pair_success(17.0, 17.0, 10.0)
    assert est.ci95[0] <= expected <= est.ci95[1]
    # margin 0 means barely half the perturbations survive
    assert est.yield_fraction < 0.52


def test_yield_near_one_with_wide_margins():
    topo, asg = full_pair()
    est = estimate_yield(asg, topo, default_params(), sigma=5.0, trials=20_000, seed=11)
    assert est.yield_fraction >= 0.999


def test_infeasible_assignment_allowed():
    topo, asg = a1_pair(10.0)  # 7 MHz short of the A1 bound
    est = estimate_yield(asg, topo, a1_only_params(), sigma=0.0, trials=100, seed=2)
    assert est.yield_fraction == 0.0
    assert est.mean_violations == 1.0
    est2 = estimate_yield(asg, topo, a1_only_params(), sigma=10.0, trials=20_000, seed=2)
    assert est2.yield_fraction > 0.0


def test_parallel_equals_serial():
    topo, asg = full_pair()
    p = default_params()
    a = estimate_yield(asg, topo, p, sigma=15.0, trials=10_000, seed=7)
    b = estimate_yield(asg, topo, p, sigma=15.0, trials=10_000, seed=7, n_jobs=3)
    assert a.successes == b.successes
    assert a.mean_violations == b.mean_violations


def test_deterministic_per_seed():
    topo, asg = full_pair()
    p = default_params()
    a = estimate_yield(asg, topo, p, sigma=15.0, trials=5_000, seed=7)
    b = estimate_yield(asg, topo, p, sigma=15.0, trials=5_000, seed=7)
    c = estimate_yield(asg, topo, p, sigma=15.0, trials=5_000, seed=8)
    assert a == b
    assert a.successes != c.successes


def test_common_random_numbers_monotone_in_sigma():
    topo, asg = full_pair()
    p = default_params()
    ys = [
        estimate_yield(asg, topo, p, sigma=s, trials=20_000, seed=3).yield_fraction
        for s in (2.0, 5.0, 10.0, 15.0, 20.0)
    ]
    assert all(a >= b for a, b in zip(ys, ys[1:]))


def test_yield_cross_checks_slow_check_route():
    # the compiled fast path must agree with check() trial by trial
    from freqalloc.constraints import check
    from freqalloc.yield_mc import _compile, _eval_block

    topo, asg, p = solved_2x2()
    comp = _compile(topo, asg, p)
    rng = np.random.default_rng(17)
    for _ in range(200):
        perturbed = sample_perturbation(asg, 25.0, rng)
        row = np.array([[perturbed.frequencies[q] for q in range(topo.n_qubits)]])
        ok_fast, viol = _eval_block(comp, row)
        rep = check(topo, perturbed, p)
        assert bool(ok_fast[0]) == rep.ok
        assert int(viol[0]) == len(rep.violations)


def test_estimate_validation():
    topo, asg = full_pair()
    p = default_params()
    with pytest.raises(ValueError):
        estimate_yield(asg, topo, p, sigma=-1.0, trials=10)
    with pytest.raises(ValueError):
        estimate_yield(asg, topo, p, sigma=1.0, trials=0)
    incomplete = FrequencyAssignment(frequencies={0: 5100.0}, orientations={(0, 1): 1})
    with pytest.raises(ValueError):
        estimate_yield(incomplete, topo, p, sigma=1.0, trials=10)


def test_sigma_must_be_finite():
    topo, asg = full_pair()
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            estimate_yield(asg, topo, default_params(), sigma=bad, trials=10)
        with pytest.raises(ValueError):
            sample_perturbation(asg, bad, np.random.default_rng(0))


def test_jobs_capped_at_cpu_count(monkeypatch):
    workers = []

    class InlinePool:
        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            fut = Future()
            fut.set_result(fn(*args))
            return fut

    monkeypatch.setattr(yield_mc, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(yield_mc.os, "cpu_count", lambda: 3)
    topo, asg = full_pair()
    p = default_params()
    serial = estimate_yield(asg, topo, p, sigma=15.0, trials=1000, seed=7)
    sharded = estimate_yield(asg, topo, p, sigma=15.0, trials=1000, seed=7, n_jobs=5000)
    assert workers == [3]
    assert sharded == serial


def test_chunked_kernel_matches_einsum_and_check(monkeypatch):
    unit, sol = pbc1_4x4_unit()
    topo, asg, p = wrap(unit, preset_bc("PBC1")), sol.as_assignment(), default_params()
    comp = yield_mc._compile(topo, asg, p)
    rng = np.random.default_rng(25)
    perturbed = [asg] + [sample_perturbation(asg, 25.0, rng) for _ in range(39)]
    freqs = np.array([[a.frequencies[q] for q in range(topo.n_qubits)] for a in perturbed])
    unchunked = estimate_yield(asg, topo, p, sigma=25.0, trials=40, seed=3)

    # 5-instance chunks for a 40-trial block; 12-trial blocks of 16 qubits (12, 12, 12, 4)
    monkeypatch.setattr(yield_mc, "_WORK_BYTES", 5 * 8 * 40)
    table = realized_table(topo, asg, p)[0]
    families = [TABLE_FAMILIES[f] for f in table.family[~table.c1]]
    assert any(len(set(families[i:i + 5])) > 1 for i in range(0, len(families), 5))
    assert len(comp.abs_bound) % 5 and len(comp.c1_ctrl) % 5
    ok, viol = yield_mc._eval_block(comp, freqs)

    expr = np.einsum("bij->bi", freqs[:, comp.abs_idx] * comp.abs_coef) + comp.abs_const
    fc, ft = freqs[:, comp.c1_ctrl], freqs[:, comp.c1_tgt]
    einsum_viol = ((np.abs(expr) < comp.abs_bound).sum(axis=1)
                   + (np.minimum(fc - ft, ft - fc - comp.alpha) < 0.0).sum(axis=1))
    assert viol.tolist() == einsum_viol.tolist()
    reports = [check(topo, a, p) for a in perturbed]
    assert viol.tolist() == [len(r.violations) for r in reports]
    assert ok.tolist() == [r.ok for r in reports] and ok[0] and not ok[1:].all()
    assert estimate_yield(asg, topo, p, sigma=25.0, trials=40, seed=3) == unchunked


def test_chip_yield_memory_is_bounded():
    unit, sol = pbc1_4x4_unit()
    p = default_params()
    chip = tile(unit, sol, preset_bc("PBC1"), 8, 8, p)
    assert chip.chip_topology.n_qubits == 1024
    tracemalloc.start()
    try:
        estimate_yield(chip.chip_assignment, chip.chip_topology, p,
                       sigma=1.75, trials=1024, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * 2**20


@pytest.mark.parametrize("n_qubits", [16, 1024])
def test_reused_generator_draws_match_fresh_generators(n_qubits):
    block = yield_mc._WORK_BYTES // (8 * n_qubits)
    for seed in (0, 1, 2**40):
        first = np.concatenate(list(yield_mc._trial_noise(seed, n_qubits, 0, block + 2)))
        far = next(yield_mc._trial_noise(seed, n_qubits, 2**32 + 1, 1))
        for t, row in [(0, first[0]), (1, first[1]), (block - 1, first[block - 1]),
                       (block, first[block]), (block + 1, first[block + 1]),
                       (2**32 + 1, far[0])]:
            fresh = np.random.Generator(np.random.Philox(key=seed, counter=t * 2**64))
            assert np.array_equal(row, fresh.standard_normal(n_qubits)), (seed, t)


def test_yield_curve_matches_per_sigma_estimates(monkeypatch):
    unit, sol = pbc1_4x4_unit()
    topo, asg, p = wrap(unit, preset_bc("PBC1")), sol.as_assignment(), default_params()
    sigmas = [2.0, 4.0, 6.0, 10.0, 20.0]
    # 3000 trials span two blocks of 16 qubits; counts recorded before the draws were shared
    curve = yield_curve(asg, topo, p, sigmas, trials=3000, seed=3)
    assert [e.successes for e in curve] == [2966, 2180, 1127, 207, 7]
    assert curve == [estimate_yield(asg, topo, p, s, trials=3000, seed=3) for s in sigmas]
    monkeypatch.setattr(yield_mc, "ProcessPoolExecutor", ThreadPoolExecutor)
    monkeypatch.setattr(yield_mc.os, "cpu_count", lambda: 3)
    assert yield_curve(asg, topo, p, sigmas, trials=3000, seed=3, n_jobs=3) == curve


# -- safe-row skip: a block prices only the rows its largest shift can break ------


def einsum_violations(comp, freqs):
    """Violated rows per trial, every row priced at once: no chunks, no skip."""
    expr = np.einsum("bij->bi", freqs[:, comp.abs_idx] * comp.abs_coef) + comp.abs_const
    fc, ft = freqs[:, comp.c1_ctrl], freqs[:, comp.c1_tgt]
    return ((np.abs(expr) < comp.abs_bound).sum(axis=1)
            + (np.minimum(fc - ft, ft - fc - comp.alpha) < 0.0).sum(axis=1)).tolist()


def assert_skip_is_exact(comp, freqs):
    ok, viol = yield_mc._eval_block(comp, freqs)
    no_skip = dataclasses.replace(comp, abs_reach=np.full_like(comp.abs_reach, -np.inf),
                                  c1_reach=np.full_like(comp.c1_reach, -np.inf))
    ok_all, viol_all = yield_mc._eval_block(no_skip, freqs)
    assert viol.tolist() == viol_all.tolist() == einsum_violations(comp, freqs)
    assert ok.tolist() == ok_all.tolist() == (viol == 0).tolist()
    return viol.tolist()


@pytest.fixture(scope="module")
def chip_1024():
    unit, sol = pbc1_4x4_unit()
    p = default_params()
    chip = tile(unit, sol, preset_bc("PBC1"), 8, 8, p)
    return yield_mc._compile(chip.chip_topology, chip.chip_assignment, p)


@pytest.mark.parametrize("sigma, least_skipped, most_skipped", [
    (0.0, 1.0, 1.0), (1.75, 0.9, 1.0), (2.25, 0.9, 1.0), (25.0, 0.01, 0.5), (100.0, 0.0, 0.0),
])
def test_row_skip_is_exact_on_the_chip(chip_1024, sigma, least_skipped, most_skipped):
    comp = chip_1024
    assert comp.n_qubits == 1024
    reach = np.concatenate([comp.abs_reach, comp.c1_reach])
    for noise in yield_mc._trial_noise(1, comp.n_qubits, 0, 64):  # two 32-trial blocks
        freqs = comp.base + sigma * noise
        skipped = np.mean(reach >= np.abs(freqs - comp.base).max())
        assert least_skipped <= skipped <= most_skipped
        viol = assert_skip_is_exact(comp, freqs)
        assert (sum(viol) == 0) == (sigma == 0.0)


def t1_trap(offset):
    """One T1 row, drive 0 -> 1 with spectator 2, 3.5 MHz over its bound at base.

    Moving qubit 0 up and qubits 1, 2 down by dev = 1 MHz takes 4 MHz off it,
    so the row fails; a reach that divided the 3.5 MHz by max|coef| = 2 or by
    ||coef||_2 = 2.45 instead of sum|coef| = 4 would exceed dev and skip it.
    """
    p = dataclasses.replace(default_params(), base_bounds={"T1": 17.0}, c1_enabled=False)
    topo = Topology(n_qubits=3, edges=[(0, 1), (1, 2)])
    asg = FrequencyAssignment(
        frequencies={0: offset + 5000.0, 1: offset + 4835.25, 2: offset + 4835.25},
        orientations={(0, 1): 0, (1, 2): 0},
    )
    comp = yield_mc._compile(topo, asg, p)
    assert comp.abs_coef.tolist() == [[1.0, 1.0, -2.0]] and comp.abs_bound.tolist() == [17.0]
    return comp, comp.base + np.array([[0.0, 0.0, 0.0], [1.0, -1.0, -1.0], [-1.0, 1.0, 1.0]])


def test_row_skip_keeps_a_t1_row_that_sum_coef_reaches():
    comp, freqs = t1_trap(0.0)
    assert 0.5 < comp.abs_reach[0] < 1.0
    assert assert_skip_is_exact(comp, freqs) == [0, 1, 0]


def test_row_skip_rounding_allowance_at_large_frequencies():
    comp, freqs = t1_trap(1e9)
    assert assert_skip_is_exact(comp, freqs) == [0, 1, 0]
    # found by search: the exact margin, 4 x the computed shift, covers it, but the
    # rounded perturbed expression falls just below the bound
    p = dataclasses.replace(default_params(), base_bounds={"T1": 17.0}, c1_enabled=False)
    topo = Topology(n_qubits=3, edges=[(0, 1), (1, 2)])
    base = [1000005000.0840154, 1000004835.5856807, 1000004835.5856806]
    asg = FrequencyAssignment(frequencies=dict(enumerate(base)),
                              orientations={(0, 1): 0, (1, 2): 0})
    comp = yield_mc._compile(topo, asg, p)
    dev = 1.0008326441476534
    freqs = comp.base + np.array([[0.0, 0.0, 0.0], [dev, -dev, -dev]])
    margin = abs(base[1] + base[2] - 2 * base[0] + comp.abs_const[0]) - 17.0
    assert margin / 4 >= np.abs(freqs - comp.base).max() > comp.abs_reach[0]
    assert assert_skip_is_exact(comp, freqs) == [0, 1]


def test_row_skip_counts_every_violation_of_an_infeasible_assignment():
    unit, sol = pbc1_4x4_unit()
    topo, p = wrap(unit, preset_bc("PBC1")), default_params()
    asg = sol.as_assignment()
    asg.frequencies[0] = asg.frequencies[1] + 5.0
    report = check(topo, asg, p)
    assert not report.ok
    comp = yield_mc._compile(topo, asg, p)
    assert (np.concatenate([comp.abs_reach, comp.c1_reach]) < 0).sum() == len(report.violations)
    assert assert_skip_is_exact(comp, comp.base[None]) == [len(report.violations)]
    est = estimate_yield(asg, topo, p, sigma=0.0, trials=50, seed=2)
    assert est.successes == 0 and est.mean_violations == len(report.violations)


# -- YieldEstimate container ------------------------------------------------------


def test_estimate_invariants_enforced():
    with pytest.raises(ValueError):
        YieldEstimate(sigma=1.0, trials=10, successes=11, yield_fraction=1.1,
                      ci95=(0.0, 1.0), seed=0, mean_violations=0.0)
    with pytest.raises(ValueError):
        YieldEstimate(sigma=1.0, trials=10, successes=5, yield_fraction=0.9,
                      ci95=(0.0, 0.8), seed=0, mean_violations=0.0)


def test_estimate_json_and_csv():
    est = YieldEstimate(sigma=10.0, trials=1000, successes=900, yield_fraction=0.9,
                        ci95=wilson_ci(900, 1000), seed=4, mean_violations=0.15)
    assert CSV_HEADER == "sigma,trials,successes,yield,ci_lo,ci_hi"
    row = csv_row(est)
    assert row.split(",")[0] == "10" and row.split(",")[3] == "0.9"


def test_wilson_matches_reference_formula():
    for n, k in [(10, 0), (10, 10), (100, 50), (1000, 999), (100_000, 50_810)]:
        assert wilson_ci(k, n) == pytest.approx(wilson_interval(k, n), abs=1e-12)
    lo, hi = wilson_ci(1000, 1000)
    assert hi == 1.0 and lo < 1.0


# -- composed_yield ---------------------------------------------------------------


def test_composed_yield_values():
    assert composed_yield(1.0, 64) == 1.0
    assert composed_yield(0.965, 62) == pytest.approx(0.1097, abs=5e-4)
    assert composed_yield(0.965, 62) > 0.10
    assert composed_yield(0.965, 64) == pytest.approx(0.1022, abs=5e-4)
    with pytest.raises(ValueError):
        composed_yield(1.5, 2)
    with pytest.raises(ValueError):
        composed_yield(0.5, 0)


# -- threshold_dispersion ----------------------------------------------------------


def test_threshold_bisection_reproducible():
    grid, asg, p = solved_2x2()
    kwargs = dict(target_yield=0.8, trials=1000, sigma_bracket=(5.0, 40.0),
                  tol_mhz=0.5, seed=5, max_trials=16_000)
    a = threshold_dispersion(asg, grid, p, **kwargs)
    b = threshold_dispersion(asg, grid, p, **kwargs)
    assert a == b
    assert 5.0 < a < 40.0
    # the crossing must actually separate the yields
    y_lo = estimate_yield(asg, grid, p, sigma=a - 2.0, trials=4000, seed=5).yield_fraction
    y_hi = estimate_yield(asg, grid, p, sigma=a + 2.0, trials=4000, seed=5).yield_fraction
    assert y_lo > y_hi


def test_threshold_bracket_errors():
    grid, asg, p = solved_2x2()
    with pytest.raises(BracketError):
        threshold_dispersion(asg, grid, p, target_yield=0.8, trials=1000,
                             sigma_bracket=(30.0, 40.0), seed=5, max_trials=4000)
    with pytest.raises(BracketError):
        threshold_dispersion(asg, grid, p, target_yield=0.8, trials=1000,
                             sigma_bracket=(1.0, 10.0), seed=5, max_trials=4000)


def test_threshold_argument_validation():
    grid, asg, p = solved_2x2()
    with pytest.raises(ValueError):
        threshold_dispersion(asg, grid, p, target_yield=1.5, trials=100,
                             sigma_bracket=(1.0, 10.0))
    with pytest.raises(ValueError):
        threshold_dispersion(asg, grid, p, target_yield=0.5, trials=100,
                             sigma_bracket=(10.0, 1.0))
    with pytest.raises(ValueError):
        threshold_dispersion(asg, grid, p, target_yield=0.5, trials=100,
                             sigma_bracket=(1.0, 10.0), tol_mhz=0.0)


def test_threshold_rejects_non_finite_arguments():
    # an infinite endpoint used to bisect forever: the midpoint stays inf
    topo, asg = full_pair()
    for bracket, tol in [((1.0, math.inf), 0.1), ((math.nan, 10.0), 0.1),
                         ((1.0, 10.0), math.nan), ((1.0, 10.0), math.inf)]:
        with pytest.raises(ValueError):
            threshold_dispersion(asg, topo, default_params(), target_yield=0.5, trials=100,
                                 sigma_bracket=bracket, tol_mhz=tol)


# a run on the wrapped 4x4 PBC1 unit whose probes at 5.15625 and 5.08203125 escalate
# 1000 -> 4000 -> 16000 trials; sigma* recorded before escalations extended the range
ESCALATING = dict(target_yield=0.5, trials=1000, sigma_bracket=(1.0, 20.0), tol_mhz=0.1,
                  seed=2, max_trials=16_000)


def escalating_unit():
    unit, sol = pbc1_4x4_unit()
    return sol.as_assignment(), wrap(unit, preset_bc("PBC1")), default_params()


def test_threshold_pinned_where_probes_escalate_to_the_cap():
    assert threshold_dispersion(*escalating_unit(), **ESCALATING) == 5.119140625


def test_threshold_escalation_draws_only_new_trials(monkeypatch):
    ranges, rows, compiles = [], [], []
    trial_noise, compile_ = yield_mc._trial_noise, yield_mc._compile

    def counting(seed, n_qubits, start, count):
        ranges.append((start, count))
        for noise in trial_noise(seed, n_qubits, start, count):
            rows.append(len(noise))
            yield noise

    def counting_compile(*args):
        compiles.append(args)
        return compile_(*args)

    monkeypatch.setattr(yield_mc, "_trial_noise", counting)
    monkeypatch.setattr(yield_mc, "_compile", counting_compile)
    assert threshold_dispersion(*escalating_unit(), **ESCALATING) == 5.119140625

    probes = []
    for start, count in ranges:
        if start == 0:
            probes.append([])
        probes[-1].append((start, count))
    escalated = [(0, 1000), (1000, 3000), (4000, 12000)]
    assert probes == [[(0, 1000)]] * 6 + [escalated] + [[(0, 1000)]] * 2 + [escalated]
    assert sum(rows) == 8 * 1000 + 2 * 16_000  # restarting at 0 drew 50,000
    assert len(compiles) == 1
