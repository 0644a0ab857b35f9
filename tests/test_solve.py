"""External-solver plumbing, the annealing fallback, and verify()."""
import dataclasses
import itertools
import json
import os
import pathlib
import signal
import time
import tracemalloc

import pytest

from freqalloc.assembly import preset_bc, tile
from freqalloc.constraints import (
    ConstraintParams,
    check,
    default_params,
    enumerate_records,
    uniform_tightening,
)
from freqalloc.model import Solution, SolutionParseError, build
from freqalloc import solve as solve_module
from freqalloc.solve import (
    DEFAULT_ANNEAL,
    SolverConfig,
    SolverFailure,
    solve_anneal,
    solve_external,
    verify,
)
from freqalloc.topology import Topology, square_grid, uniform_orientation

ADAPTER = "python3 -m freqalloc.milp_adapter {lp} {out}"


def ext_cfg(template=ADAPTER, budget=60.0):
    return SolverConfig(backend="external", command_template=template, time_budget=budget)


def no_instances():
    """An instance table without rows: a coupler, but no family enabled."""
    params = ConstraintParams(base_bounds={}, c1_enabled=False)
    return enumerate_records(Topology(2, [(0, 1)]), "free", params)


def free_model(topo, params):
    return build(topo, enumerate_records(topo, "free", params), params, "free")


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(backend="cplex")
    with pytest.raises(ValueError):
        SolverConfig(time_budget=0.0)
    with pytest.raises(ValueError):
        SolverConfig(anneal={"cooling_rate": 1.0})
    with pytest.raises(ValueError):
        SolverConfig(anneal={"temperature": 5.0})
    cfg = SolverConfig(anneal={"init_temp": 10.0})
    assert cfg.anneal["cooling_rate"] == DEFAULT_ANNEAL["cooling_rate"]


def test_config_json_round_trip():
    cfg = SolverConfig(backend="anneal", seed=7, anneal={"moves_per_temp": 50})
    again = SolverConfig.from_json_dict({"backend": "anneal", "command_template": "",
                                         "time_budget_s": 60.0, "seed": 7,
                                         "anneal": {"moves_per_temp": 50}})
    assert again == cfg
    with pytest.raises(ValueError):
        SolverConfig.from_json_dict({"solver": "x"})


def test_external_requires_placeholders():
    m = free_model(Topology(n_qubits=2, edges=[(0, 1)]), default_params())
    with pytest.raises(ValueError):
        solve_external(m, ext_cfg(template="mysolver --in {lp}"))
    with pytest.raises(ValueError):
        solve_anneal(no_instances(), default_params(), ext_cfg())


def test_external_solves_and_verifies_single_edge():
    p = default_params()
    topo = Topology(n_qubits=2, edges=[(0, 1)])
    recs = enumerate_records(topo, "free", p)
    sol = solve_external(build(topo, recs, p, "free"), ext_cfg())
    assert sol.status == "optimal"
    assert verify(sol, recs, p, tightened=True).ok
    assert check(topo, sol.as_assignment(), p).ok


def test_external_infeasible_status():
    # a 10 MHz window cannot hold the 17 MHz same-frequency separation
    p = dataclasses.replace(default_params(), f_window=(5000.0, 5010.0))
    sol = solve_external(free_model(Topology(n_qubits=2, edges=[(0, 1)]), p), ext_cfg())
    assert sol.status == "infeasible"
    assert sol.frequencies == {}


def test_external_command_not_found():
    m = free_model(Topology(n_qubits=2, edges=[(0, 1)]), default_params())
    with pytest.raises(SolverFailure):
        solve_external(m, ext_cfg(template="no-such-solver-xyz {lp} {out}"))


def test_external_nonzero_exit_without_file():
    m = free_model(Topology(n_qubits=2, edges=[(0, 1)]), default_params())
    with pytest.raises(SolverFailure):
        solve_external(m, ext_cfg(template='python3 -c "import sys; sys.exit(3)" {lp} {out}'))


def test_external_malformed_output():
    m = free_model(Topology(n_qubits=2, edges=[(0, 1)]), default_params())
    tpl = 'python3 -c "import sys; open(sys.argv[2], \'w\').write(\'junk\')" {lp} {out}'
    with pytest.raises(SolutionParseError):
        solve_external(m, ext_cfg(template=tpl))


def test_external_budget_placeholder_and_timeout_status():
    # wrapper honors the time limit; an 8x8 free model cannot finish in 50 ms,
    # but whatever comes back must not claim optimality it cannot prove
    p = default_params()
    topo = square_grid(8, 8)
    m = free_model(topo, p)
    tpl = ADAPTER + " --time-limit {budget}"
    sol = solve_external(m, ext_cfg(template=tpl, budget=0.05))
    assert sol.status in ("timeout", "feasible", "optimal")
    if sol.status != "timeout":
        recs = enumerate_records(topo, "free", p)
        assert verify(sol, recs, p, tightened=True).ok


def test_timeout_kills_the_wrappers_process_group(tmp_path, monkeypatch):
    # the wrapper's solver (here a sleep) runs on unless the whole group is killed
    monkeypatch.setattr(solve_module, "TIMEOUT_GRACE_S", 0.5)
    pid_file = tmp_path / "pid"
    tpl = f"sh -c 'sleep 25 & echo $! > {pid_file}; wait' {{lp}} {{out}}"
    m = free_model(Topology(n_qubits=2, edges=[(0, 1)]), default_params())
    t0 = time.monotonic()
    status = solve_external(m, ext_cfg(template=tpl, budget=0.1)).status
    took = time.monotonic() - t0
    pid = int(pid_file.read_text())
    stat = pathlib.Path(f"/proc/{pid}/stat")
    state = None
    for _ in range(50):
        # the container's init may never reap it, so a zombie counts as gone
        state = stat.read_text().rsplit(")", 1)[1].split()[0] if stat.exists() else None
        if state in (None, "Z"):
            break
        time.sleep(0.1)
    else:
        os.kill(pid, signal.SIGKILL)
    assert state in (None, "Z")
    # killing only the wrapper would leave the sleep holding the output pipe
    assert took < 10.0
    assert status == "timeout"


def pin_orientation(model, bits):
    pins = [
        dataclasses.replace(
            model.rows[0],
            name=f"pin_{name}",
            coeffs={name: 1.0},
            sense="=",
            rhs=float(bit),
        )
        for name, bit in bits.items()
    ]
    return dataclasses.replace(model, rows=model.rows + pins)


def test_free_dominates_every_fixed_orientation():
    # fixed-mode models may carry fewer slack terms (a family whose
    # instances all vanish has no slack), so the guarantee is one-sided
    p = dataclasses.replace(default_params(), f_window=(5000.0, 5100.0))
    topo = Topology(n_qubits=3, edges=[(0, 1), (1, 2)])
    free_obj = solve_external(free_model(topo, p), ext_cfg()).objective_value
    best_fixed = -float("inf")
    for bits in itertools.product((0, 1), repeat=2):
        orient = {(0, 1): bits[0], (1, 2): bits[1]}
        t = Topology(n_qubits=3, edges=[(0, 1), (1, 2)], orientation=orient)
        recs = enumerate_records(t, "fixed", p)
        sol = solve_external(build(t, recs, p, "fixed"), ext_cfg())
        if sol.status == "optimal":
            assert sol.objective_value <= free_obj + 1e-6
            best_fixed = max(best_fixed, sol.objective_value)
    assert best_fixed <= free_obj + 1e-6


def test_free_equals_best_pinned_orientation():
    # pinning the orientation binaries inside the free model keeps the
    # objective comparable, so the free optimum is exactly the best pin
    p = dataclasses.replace(default_params(), f_window=(5000.0, 5100.0))
    topo = Topology(n_qubits=3, edges=[(0, 1), (1, 2)])
    m = free_model(topo, p)
    free_obj = solve_external(m, ext_cfg()).objective_value
    best = -float("inf")
    for bits in itertools.product((0, 1), repeat=2):
        pinned = pin_orientation(m, {"o_0_1": bits[0], "o_1_2": bits[1]})
        sol = solve_external(pinned, ext_cfg())
        if sol.status == "optimal":
            assert sol.objective_value <= free_obj + 1e-6
            best = max(best, sol.objective_value)
    assert free_obj == pytest.approx(best, abs=1e-6)


# -- verify -------------------------------------------------------------------


def tight_pair():
    # orientation bit 1: qubit 1 controls, target 0 is driven at f_0
    topo = Topology(n_qubits=2, edges=[(0, 1)], orientation={(0, 1): 1})
    freqs = {0: 5000.0, 1: 5017.0}
    return topo, freqs


def test_verify_flags_constructed_a1_violation():
    p = default_params()
    topo, freqs = tight_pair()
    recs = enumerate_records(topo, "fixed", p)
    sol = Solution(status="feasible", frequencies=dict(freqs),
                   orientations={(0, 1): 1})
    assert verify(sol, recs, p, tightened=False).ok
    sol.frequencies[1] -= 17.0
    rep = verify(sol, recs, p, tightened=False)
    assert "A1" in rep.family_counts()


def test_verify_base_never_stricter_than_tightened():
    from freqalloc.constraints import uniform_tightening

    p = dataclasses.replace(default_params(), eps_tol=uniform_tightening(10.0))
    topo = Topology(n_qubits=2, edges=[(0, 1)], orientation={(0, 1): 1})
    recs = enumerate_records(topo, "fixed", p)
    for f1 in (5017.0, 5022.0, 5025.0, 5350.0, 5380.0):
        sol = Solution(status="feasible", frequencies={0: 5000.0, 1: f1},
                       orientations={(0, 1): 1})
        base = {(v.family, v.participants) for v in verify(sol, recs, p, False).violations}
        tight = {(v.family, v.participants) for v in verify(sol, recs, p, True).violations}
        assert base <= tight


def test_verify_counts_only_active_direction():
    p = default_params()
    topo = Topology(n_qubits=2, edges=[(0, 1)])
    recs = enumerate_records(topo, "free", p)  # both cases present
    sol = Solution(status="feasible", frequencies={0: 5000.0, 1: 5017.0},
                   orientations={(0, 1): 1})
    rep = verify(sol, recs, p, tightened=False)
    fixed_topo = Topology(n_qubits=2, edges=[(0, 1)], orientation={(0, 1): 1})
    fixed_recs = enumerate_records(fixed_topo, "fixed", p)
    assert rep.n_instances == len(fixed_recs)


def test_verify_tolerance_swallows_solver_noise():
    p = default_params()
    topo, freqs = tight_pair()
    recs = enumerate_records(topo, "fixed", p)
    sol = Solution(status="optimal", frequencies={0: 5000.0, 1: 5017.0 - 1e-9},
                   orientations={(0, 1): 1})
    assert verify(sol, recs, p, tightened=False).ok
    assert not verify(sol, recs, p, tightened=False, tol=0.0).ok


def test_verify_missing_inputs_rejected():
    p = default_params()
    topo = Topology(n_qubits=2, edges=[(0, 1)])
    recs = enumerate_records(topo, "free", p)
    with pytest.raises(ValueError):
        verify(Solution(status="feasible", frequencies={0: 5000.0, 1: 5100.0}),
               recs, p, tightened=False)
    with pytest.raises(ValueError):
        verify(Solution(status="feasible", frequencies={0: 5000.0},
                        orientations={(0, 1): 0}), recs, p, tightened=False)


def test_chip_diff_verify_memory_is_bounded():
    # the 8x8 tiling of the 4x4 PBC1 unit: 29,220 active rows and 1,961,372 DIFF pairs
    doc = json.loads((pathlib.Path(__file__).parent / "fixtures" / "units" / "pbc1_4x4.json")
                     .read_text())
    chip = tile(square_grid(4, 4), Solution.from_json_dict(doc["solution"]), preset_bc("PBC1"),
                8, 8, default_params())
    sol = Solution("feasible", chip.chip_assignment.frequencies, chip.chip_assignment.orientations)
    p = dataclasses.replace(default_params(), delta_diff=1000.0, diff_separation=False)
    tracemalloc.start()
    try:
        report = verify(sol, enumerate_records(chip.chip_topology, "free", p), p, tightened=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok and report.n_instances == 1_990_592
    assert peak <= 128 * 2**20  # 74 MB measured


# -- anneal ---------------------------------------------------------------------


def test_anneal_no_records_trivially_feasible():
    table = no_instances()
    assert len(table) == 0
    sol = solve_anneal(table, default_params(), SolverConfig(backend="anneal", seed=1))
    assert sol.status == "feasible"
    assert sol.frequencies == {}


def test_anneal_separates_a1_pair():
    p = dataclasses.replace(
        default_params(), base_bounds={"A1": 17.0}, eps_tol={"A1": 5.0}, c1_enabled=False
    )
    topo = Topology(n_qubits=2, edges=[(0, 1)])
    recs = enumerate_records(topo, "free", p)
    sol = solve_anneal(recs, p, SolverConfig(backend="anneal", seed=3))
    assert sol.status == "feasible"
    assert abs(sol.frequencies[0] - sol.frequencies[1]) >= 22.0
    assert verify(sol, recs, p, tightened=True).ok


def test_anneal_2x2_grid_seed_42_feasible():
    p = default_params()
    grid = square_grid(2, 2)
    recs = enumerate_records(grid, "free", p)
    sol = solve_anneal(recs, p, SolverConfig(backend="anneal", seed=42))
    assert sol.status == "feasible"
    assert verify(sol, recs, p, tightened=True).ok
    assert check(grid, sol.as_assignment(), p).ok


def test_anneal_deterministic():
    p = default_params()
    topo = Topology(n_qubits=3, edges=[(0, 1), (1, 2)])
    recs = enumerate_records(topo, "free", p)
    a = solve_anneal(recs, p, SolverConfig(backend="anneal", seed=11))
    b = solve_anneal(recs, p, SolverConfig(backend="anneal", seed=11))
    assert a == b
    c = solve_anneal(recs, p, SolverConfig(backend="anneal", seed=12))
    assert a.frequencies != c.frequencies


def test_anneal_respects_fixed_orientation_records():
    p = default_params()
    topo = Topology(n_qubits=2, edges=[(0, 1)], orientation={(0, 1): 1})
    recs = enumerate_records(topo, "fixed", p)
    sol = solve_anneal(recs, p, SolverConfig(backend="anneal", seed=5))
    assert sol.orientations == {(0, 1): 1}
    if sol.status == "feasible":
        assert verify(sol, recs, p, tightened=True).ok


def test_anneal_frequencies_on_grid_and_in_window():
    p = default_params()
    grid = square_grid(2, 2)
    recs = enumerate_records(grid, "free", p)
    cfg = SolverConfig(backend="anneal", seed=42, anneal={"freq_step_mhz": 5.0})
    sol = solve_anneal(recs, p, cfg)
    for f in sol.frequencies.values():
        assert 5000.0 <= f <= 5500.0
        assert (f - 5000.0) % 5.0 == pytest.approx(0.0, abs=1e-9)


# (status, objective, frequencies, orientations) of the annealer on off-grid
# settings: window ends, alpha, tightening, gap separation and grid steps that
# are not exact in binary, where the order of the incremental violation-sum
# updates decides which moves are accepted
PINNED_PATH3 = [
    ("feasible", 734.95, {0: 5029.0, 1: 5174.200000000001, 2: 5242.6}, {(0, 1): 1, (1, 2): 1}),
    ("feasible", 1077.6500000000005, {0: 5197.0, 1: 5105.5, 2: 4943.8}, {(0, 1): 0, (1, 2): 0}),
    ("timeout", None, {0: 4910.200000000001, 1: 5164.900000000001, 2: 5291.200000000001},
     {(0, 1): 1, (1, 2): 1}),
    ("feasible", 208.34999999999965, {0: 4960.0, 1: 5105.200000000001, 2: 5043.400000000001},
     {(0, 1): 1, (1, 2): 0}),
]
PINNED_GRID22 = [
    ("timeout", None, {0: 5136.1, 1: 4963.200000000001, 2: 5240.400000000001, 3: 4989.1},
     {(0, 1): 0, (0, 2): 1, (1, 3): 1, (2, 3): 0}),
    ("timeout", None, {0: 5131.200000000001, 1: 4951.3, 2: 5104.6, 3: 4853.3},
     {(0, 1): 0, (0, 2): 0, (1, 3): 0, (2, 3): 0}),
    ("timeout", None, {0: 5133.3, 1: 5157.8, 2: 4880.6, 3: 4978.6},
     {(0, 1): 1, (0, 2): 0, (1, 3): 0, (2, 3): 1}),
]


@pytest.mark.parametrize("topo, anneal, pinned", [
    (square_grid(1, 3), {"cooling_rate": 0.97, "freq_step_mhz": 0.3}, PINNED_PATH3),
    (square_grid(2, 2), {"freq_step_mhz": 0.7}, PINNED_GRID22),
], ids=["path3", "grid2x2"])
def test_anneal_results_pinned_on_off_grid_settings(topo, anneal, pinned):
    p = dataclasses.replace(default_params(), eps_tol=uniform_tightening(7.3),
                            f_window=(4800.1, 5300.7), alpha=-217.3, delta_diff=2.7)
    recs = enumerate_records(topo, "free", p)
    for seed, expected in enumerate(pinned):
        sol = solve_anneal(recs, p, SolverConfig(backend="anneal", seed=seed, anneal=anneal))
        assert (sol.status, sol.objective_value, sol.frequencies, sol.orientations) == expected
