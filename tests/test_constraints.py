"""Constraint enumeration and the physical collision check."""
from __future__ import annotations

import dataclasses
import random

import pytest

from freqalloc.constraints import (
    ConstraintParams,
    FrequencyAssignment,
    check,
    default_params,
    edge_difference_pairs,
    enumerate_records,
    uniform_tightening,
)
from freqalloc.model import Solution
from freqalloc.solve import verify
from freqalloc.topology import Topology, square_grid, uniform_orientation, wrap, BoundaryCondition
from freqalloc.yield_mc import estimate_yield

from .oracles import naive_violations
from .table_rows import table_rows


def path(n: int) -> Topology:
    return Topology(n_qubits=n, edges=[(i, i + 1) for i in range(n - 1)], geometry={"kind": "path"})


def assignment(freqs, orient) -> FrequencyAssignment:
    return FrequencyAssignment(frequencies=dict(enumerate(freqs)), orientations=dict(orient))


# -- frozen check examples ---------------------------------------------------


def test_check_close_pair_flags_a1() -> None:
    topo = path(2)
    rep = check(topo, assignment([5000.0, 5010.0], {(0, 1): 0}), default_params())
    by_family = {v.family: v for v in rep.violations}
    assert by_family["A1"].margin == pytest.approx(-7.0)
    assert not rep.ok


def test_check_clean_pair() -> None:
    topo = path(2)
    rep = check(topo, assignment([5100.0, 5000.0], {(0, 1): 0}), default_params())
    assert rep.ok
    margins = {v.family for v in rep.violations}
    assert margins == set()
    # A1 instance sits at margin 100 - 17 = 83
    assert rep.min_margin <= 100.0 - 17.0


def test_check_e2_collision_at_alpha() -> None:
    # drive lands exactly on the control's 1-2 transition
    topo = path(2)
    rep = check(topo, assignment([5000.0, 4650.0], {(0, 1): 0}), default_params())
    assert [v.family for v in rep.violations] == ["E2"]
    assert rep.violations[0].margin == pytest.approx(-30.0)


def test_check_matches_oracle_on_spec_examples() -> None:
    topo = path(2)
    for freqs in ([5000.0, 5010.0], [5100.0, 5000.0], [5000.0, 4650.0]):
        rep = check(topo, assignment(freqs, {(0, 1): 0}), default_params())
        got = sorted((v.family, v.participants, round(v.margin, 9)) for v in rep.violations)
        want = naive_violations(topo.edges, {(0, 1): 0}, dict(enumerate(freqs)))
        assert got == want


def test_check_orientation_changes_verdict() -> None:
    # 0 above 1 by 100 MHz: control must be the higher qubit for C1
    topo = path(2)
    ok = check(topo, assignment([5100.0, 5000.0], {(0, 1): 0}), default_params())
    bad = check(topo, assignment([5100.0, 5000.0], {(0, 1): 1}), default_params())
    assert ok.ok
    assert "C1" in {v.family for v in bad.violations}


def test_check_equals_oracle_random_sweep() -> None:
    rng = random.Random(123)
    topo = square_grid(3, 3)
    pairs = sorted(topo.edge_pairs())
    for _ in range(200):
        freqs = {q: rng.uniform(4900.0, 5600.0) for q in range(topo.n_qubits)}
        orient = {p: rng.randint(0, 1) for p in pairs}
        rep = check(topo, FrequencyAssignment(freqs, orient), default_params())
        got = sorted((v.family, v.participants, round(v.margin, 9)) for v in rep.violations)
        assert got == naive_violations(topo.edges, orient, freqs)


def test_check_on_wrapped_lattice_matches_oracle() -> None:
    rng = random.Random(5)
    topo = wrap(square_grid(3, 3), BoundaryCondition("PBC1"))
    pairs = sorted(topo.edge_pairs())
    for _ in range(50):
        freqs = {q: rng.uniform(5000.0, 5500.0) for q in range(topo.n_qubits)}
        orient = {p: rng.randint(0, 1) for p in pairs}
        rep = check(topo, FrequencyAssignment(freqs, orient), default_params())
        got = sorted((v.family, v.participants, round(v.margin, 9)) for v in rep.violations)
        assert got == naive_violations(topo.edges, orient, freqs)


def test_check_requires_orientation() -> None:
    topo = path(2)
    with pytest.raises(ValueError):
        check(topo, FrequencyAssignment({0: 5000.0, 1: 5100.0}, {}), default_params())


def test_check_and_yield_reject_an_unpriced_qubit_alike() -> None:
    topo = Topology(2, [(0, 1)], orientation={(0, 1): 0})
    partial = FrequencyAssignment({0: 5300.0})
    message = r"^assignment lacks frequencies for qubits \[1\]$"
    with pytest.raises(ValueError, match=message):
        check(topo, partial, default_params())
    with pytest.raises(ValueError, match=message):
        estimate_yield(partial, topo, default_params(), sigma=1.0, trials=10)
    # a qubit outside every coupler needs a frequency as well
    isolated = Topology(3, [(0, 1)], orientation={(0, 1): 0})
    with pytest.raises(ValueError, match=r"qubits \[2\]$"):
        check(isolated, FrequencyAssignment({0: 5300.0, 1: 5000.0}), default_params())


# -- record enumeration ------------------------------------------------------


def test_single_edge_fixed_records() -> None:
    topo = path(2)
    topo.orientation = {(0, 1): 0}
    recs = table_rows(enumerate_records(topo, "fixed", default_params()))
    assert [fam for fam, *_ in recs] == ["A1", "A2", "C1", "E1", "E2", "D1"]
    directed = [r for r in recs if r[0] in ("C1", "E1", "E2", "D1")]
    assert all(p == (0, 1) for _, p, _, _ in directed)
    assert all(case == 0 for _, _, case, _ in directed)


def test_single_edge_free_records() -> None:
    table = enumerate_records(path(2), "free", default_params())
    assert len(table) == 10
    c1 = [(p, case) for fam, p, case, _ in table_rows(table) if fam == "C1"]
    assert c1 == [((0, 1), 0), ((1, 0), 1)]


def test_path3_free_record_census() -> None:
    table = enumerate_records(path(3), "free", default_params())
    recs = table_rows(table)
    fams = {}
    for fam, *_ in recs:
        fams[fam] = fams.get(fam, 0) + 1
    assert fams == {
        "A1": 2, "A2": 2,
        "C1": 4, "E1": 4, "E2": 4, "D1": 4,
        "S1": 2, "S2": 2, "T1": 2,
    }
    assert len(table) == 26
    triples = sorted((p, case) for fam, p, case, _ in recs if fam == "S1")
    assert triples == [((0, 1, 2), 0), ((2, 1, 0), 1)]


def test_free_mode_c1_count_is_two_per_edge() -> None:
    params = default_params()
    for topo in (path(4), square_grid(2, 3), square_grid(3, 3)):
        recs = table_rows(enumerate_records(topo, "free", params))
        assert sum(1 for r in recs if r[0] == "C1") == 2 * len(topo.edges)


def test_fixed_mode_spectator_counts() -> None:
    topo = square_grid(3, 3)
    topo.orientation = uniform_orientation(topo)
    recs = table_rows(enumerate_records(topo, "fixed", default_params()))
    for pair in topo.edge_pairs():
        ctrl, tgt = pair  # bit 0: low id controls
        n_s1 = sum(1 for fam, p, _, _ in recs if fam == "S1" and p[:2] == (ctrl, tgt))
        assert n_s1 == topo.degree(tgt) - 1


def test_mirror_symmetry_fixed_vs_free() -> None:
    """Fixed-mode records are the matching-case half of the free-mode records.

    Flipping every orientation bit therefore selects exactly the opposite
    orientation_case records, and the two halves partition the directed
    free-mode records.
    """
    params = default_params()
    for topo in (path(3), square_grid(2, 2), square_grid(2, 3)):
        free = {(fam, p, case)
                for fam, p, case, _ in table_rows(enumerate_records(topo, "free", params))
                if case is not None}
        halves = []
        for bit in (0, 1):
            topo.orientation = uniform_orientation(topo, bit)
            fixed = {(fam, p, case)
                     for fam, p, case, _ in table_rows(enumerate_records(topo, "fixed", params))
                     if case is not None}
            assert all(case == bit for (_, _, case) in fixed)
            assert fixed <= free
            halves.append(fixed)
        assert halves[0] | halves[1] == free
        assert not halves[0] & halves[1]
        # swapping the (control, target) roles of one half lands in the other
        swapped = {(fam, (p[1], p[0]) + p[2:], 1 - case) for fam, p, case in halves[0]
                   if fam in ("C1", "E1", "E2", "D1")}
        assert swapped <= halves[1]
        topo.orientation = None


def test_fixed_mode_requires_orientation() -> None:
    with pytest.raises(ValueError):
        enumerate_records(path(2), "fixed", default_params())
    with pytest.raises(ValueError):
        enumerate_records(path(2), "nope", default_params())


def test_family_scoping_respects_bounds_map() -> None:
    params = ConstraintParams(base_bounds={"A1": 17.0}, c1_enabled=False)
    recs = table_rows(enumerate_records(path(3), "free", params))
    assert {fam for fam, *_ in recs} == {"A1"}


# -- DIFF family -------------------------------------------------------------


def test_edge_difference_pairs_path4() -> None:
    topo = path(4)
    assert edge_difference_pairs(topo).tolist() == [[0, 2]]  # (0,1) vs (2,3)


def test_diff_records_emitted_only_when_enabled() -> None:
    topo = path(4)
    none = enumerate_records(topo, "free", default_params())
    assert all(fam != "DIFF" for fam, *_ in table_rows(none)) and len(none.diff) == 0
    params = ConstraintParams(delta_diff=2.0)
    table = enumerate_records(topo, "free", params)
    recs = [r for r in table_rows(table) if r[0] == "DIFF"]
    assert len(recs) == 1
    assert recs[0][1] == (0, 1, 2, 3)
    assert table.diff.tolist() == [[0, 2]]


def test_diff_margin_both_comparators() -> None:
    # the DIFF pair is the only instance, so the report's margins are its own
    rec_params = ConstraintParams(base_bounds={}, c1_enabled=False, delta_diff=2.0)
    sol = Solution("feasible", {0: 5000.0, 1: 5040.0, 2: 5300.0, 3: 5339.0})  # gaps 40 and 39
    rep = verify(sol, enumerate_records(path(4), "free", rec_params), rec_params, tightened=True)
    assert rep.n_instances == 1 and rep.violations[0].participants == (0, 1, 2, 3)
    assert rep.violations[0].measured == pytest.approx(1.0)
    assert rep.min_margin == pytest.approx(-1.0)  # separation mode wants >= 2
    prox = dataclasses.replace(rec_params, diff_separation=False)
    rep = verify(sol, enumerate_records(path(4), "free", prox), prox, tightened=True)
    assert rep.ok and rep.min_margin == pytest.approx(1.0)  # proximity mode wants <= 2


def test_check_never_includes_diff() -> None:
    params = ConstraintParams(delta_diff=5.0)
    topo = path(4)
    freqs = [5000.0, 5060.0, 5270.0, 5330.0]  # equal gaps of 60
    rep = check(topo, assignment(freqs, {(0, 1): 0, (1, 2): 0, (2, 3): 0}), params)
    assert all(v.family != "DIFF" for v in rep.violations)


# -- params and margins -------------------------------------------------------


def test_default_params_frozen_bounds() -> None:
    p = default_params()
    assert p.base_bounds == {
        "A1": 17.0, "A2": 30.0, "E1": 17.0, "E2": 30.0,
        "D1": 2.0, "S1": 17.0, "S2": 25.0, "T1": 17.0,
    }
    assert p.alpha == -350.0
    assert p.f_window == (5000.0, 5500.0)
    assert p.delta_diff == 0.0


def test_uniform_tightening_skips_d1() -> None:
    eps = uniform_tightening(10.0)
    assert "D1" not in eps
    assert eps["A1"] == 10.0
    assert set(eps) == {"A1", "A2", "E1", "E2", "S1", "S2", "T1"}


def test_tightened_bounds() -> None:
    p = ConstraintParams(eps_tol=uniform_tightening(10.0))
    assert p.tightened_bound("A1") == 27.0
    assert p.tightened_bound("D1") == 2.0
    assert p.base_bound("A1") == 17.0


def test_params_json_roundtrip_and_unknown_keys() -> None:
    p = ConstraintParams(eps_tol={"A1": 5.0}, delta_diff=2.0, f_window=(4800.0, 5300.0))
    q = ConstraintParams.from_json_dict(p.to_json_dict())
    assert q == p
    with pytest.raises(ValueError):
        ConstraintParams.from_json_dict({"bogus": 1})
    with pytest.raises(ValueError):
        ConstraintParams(base_bounds={"F9": 1.0})
    with pytest.raises(ValueError):
        ConstraintParams(f_window=(5100.0, 5000.0))


def test_measured_value_t1_uses_control_twice() -> None:
    # T1 alone, bounded far above its value: the one active instance is reported
    p = ConstraintParams(base_bounds={"T1": 1000.0}, c1_enabled=False)
    recs = enumerate_records(path(3), "free", p)
    # (control, target, spectator) = (0, 1, 2); the (1, 2) coupler drives 2, which has no spectator
    sol = Solution("feasible", {0: 5100.0, 1: 5000.0, 2: 4950.0}, {(0, 1): 0, (1, 2): 0})
    rep = verify(sol, recs, p, tightened=False)
    assert rep.n_instances == 1 and rep.violations[0].participants == (0, 1, 2)
    assert rep.violations[0].measured == pytest.approx(abs(5000 + 4950 - 2 * 5100 + 350))


@pytest.mark.parametrize("window, alpha", [((5000.0, 5500.0), -350.0), ((4800.0, 5650.0), -217.0)])
def test_max_measure_matches_hand_formulas(window, alpha) -> None:
    p = ConstraintParams(f_window=window, alpha=alpha)
    w, a = window[1] - window[0], abs(alpha)
    want = {
        "A1": w, "E1": w, "S1": w,
        "A2": w + a, "E2": w + a, "S2": w + a,
        "D1": w + a / 2.0,
        "T1": 2.0 * w + a,
    }
    assert {fam: p.max_measure(fam) for fam in want} == want
