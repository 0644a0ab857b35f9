"""The array-built instance table against scalar, independently written references."""
from __future__ import annotations

import dataclasses
import json
import pathlib
import random
import re

import numpy as np
import pytest

from freqalloc import yield_mc
from freqalloc.assembly import PRESET_TABLE, preset_bc, tile
from freqalloc.constraints import (
    LINEAR_FORMS,
    ConstraintParams,
    FrequencyAssignment,
    check,
    default_params,
    edge_difference_pairs,
    enumerate_records,
    realized_orientation,
    uniform_tightening,
)
from freqalloc.model import Solution
from freqalloc.solve import verify
from freqalloc.topology import Topology, hex_rings, square_grid, wrap

from .oracles import naive_family_min, naive_margins, naive_violations
from .table_rows import table_rows

UNIT_DIR = pathlib.Path(__file__).parent / "fixtures" / "units"

# an off-grid alpha and bounds, with the drive window off
OFF_GRID = ConstraintParams(
    base_bounds={"A1": 12.5, "A2": 30.0, "E1": 17.3, "E2": 31.1, "D1": 2.0, "S1": 9.7,
                 "S2": 25.0, "T1": 20.3},
    alpha=-217.3,
    c1_enabled=False,
)


def unit_solution(preset: str, n: int) -> Solution:
    doc = json.loads((UNIT_DIR / f"{preset.lower()}_{n}x{n}.json").read_text())
    return Solution.from_json_dict(doc["solution"])


def perturbed_cases():
    """(label, topology, assignment): every preset wrap of the 3x3 and 4x4 units,
    hex --rings 2 and an 8x8 tiling of the 4x4 PBC1 unit, each with its
    frequencies perturbed by 20 MHz and about 30 % of its orientations flipped."""
    rng = random.Random(2024)
    base = []
    for n in (3, 4):
        for preset in PRESET_TABLE:
            topo = wrap(square_grid(n, n), preset_bc(preset))
            base.append((f"{preset}_{n}x{n}", topo, unit_solution(preset, n).as_assignment()))
    hexa = hex_rings(2)
    base.append(("hex2", hexa, FrequencyAssignment(
        {q: rng.uniform(5000.0, 5500.0) for q in range(hexa.n_qubits)},
        {pair: rng.randint(0, 1) for pair in sorted(hexa.edge_pairs())})))
    chip = tile(square_grid(4, 4), unit_solution("PBC1", 4), preset_bc("PBC1"), 8, 8,
                default_params())
    base.append(("chip8x8", chip.chip_topology, chip.chip_assignment))
    cases = []
    for label, topo, asg in base:
        orient = realized_orientation(topo, asg)
        cases.append((label, topo, FrequencyAssignment(
            {q: f + rng.gauss(0.0, 20.0) for q, f in sorted(asg.frequencies.items())},
            {pair: bit ^ (rng.random() < 0.3) for pair, bit in sorted(orient.items())})))
    return cases


CASES = perturbed_cases()


def scalar_margin(rec, freqs: dict, params: ConstraintParams, tightened: bool):
    """(measured, bound, margin) of one table_rows instance, one float operation at a time."""
    fam, p = rec[:2]
    if fam == "C1":
        fc, ft = freqs[p[0]], freqs[p[1]]
        measured = min(fc - ft, ft - fc - params.alpha)
    elif fam == "DIFF":
        measured = abs(abs(freqs[p[0]] - freqs[p[1]]) - abs(freqs[p[2]] - freqs[p[3]]))
    else:
        terms, k = LINEAR_FORMS[fam]
        value = 0.0
        for role, c in terms:
            value += c * freqs[p[role]]
        measured = abs(value + k * params.alpha)
    bound = params.tightened_bound(fam) if tightened else params.base_bound(fam)
    if fam == "DIFF" and not params.diff_separation:
        return measured, bound, bound - measured
    return measured, bound, measured - bound


def scalar_report(instances, freqs: dict, params: ConstraintParams, tightened: bool,
                  tol: float = 0.0) -> dict:
    """The report of the instances' margins, violated below -tol, as JSON."""
    margins = [scalar_margin(r, freqs, params, tightened) for r in instances]
    violations = [
        {"family": r[0], "participants": list(r[1]),
         "measured_mhz": m, "bound_mhz": b, "margin_mhz": g}
        for r, (m, b, g) in zip(instances, margins) if g < -tol
    ]
    counts: dict[str, int] = {}
    for v in violations:
        counts[v["family"]] = counts.get(v["family"], 0) + 1
    return {
        "ok": not violations,
        "n_instances": len(instances),
        "n_violations": len(violations),
        "min_margin_mhz": min((g for _, _, g in margins), default=None),
        "family_counts": counts,
        "violations": violations,
    }


def reference_report(topo: Topology, asg: FrequencyAssignment, params: ConstraintParams) -> dict:
    """check()'s report, rebuilt one instance at a time; the instance list and its
    order are first matched against the naive oracle."""
    orient = realized_orientation(topo, asg)
    freqs = asg.frequencies
    fixed = dataclasses.replace(topo, orientation=orient)
    instances = table_rows(enumerate_records(fixed, "fixed", params))
    naive = naive_margins(topo.edges, orient, freqs, params.alpha, params.base_bounds,
                          params.c1_enabled)
    assert [r[:2] for r in instances] == [(f, p) for f, p, _ in naive]
    report = scalar_report(instances, freqs, params, tightened=False)
    margins = [scalar_margin(r, freqs, params, False)[2] for r in instances]
    assert margins == pytest.approx([m for _, _, m in naive], abs=1e-9)
    return report


@pytest.mark.parametrize("params", [default_params(), OFF_GRID], ids=["default", "offgrid"])
@pytest.mark.parametrize("label,topo,asg", CASES, ids=[c[0] for c in CASES])
def test_check_matches_the_scalar_reference(label, topo, asg, params):
    report = check(topo, asg, params)
    lines = [json.dumps(doc, indent=1).splitlines()
             for doc in (report.to_json_dict(), reference_report(topo, asg, params))]
    assert lines[0] == lines[1]  # a list, so that a failure names the first differing line
    orient = realized_orientation(topo, asg)
    assert sorted((v.family, v.participants, round(v.margin, 9)) for v in report.violations) == \
        naive_violations(topo.edges, orient, asg.frequencies, params.alpha, params.base_bounds,
                         params.c1_enabled)


# (bounds, DIFF) settings verify is priced under: base bounds, tightened bounds,
# and delta_diff 2 in separation (tightened) and proximity (base) mode
EPS_5_C1_3 = {**uniform_tightening(5.0), "C1": 3.0}
VERIFY_SETTINGS = {
    "base": (False, {}),
    "tightened": (True, {"eps_tol": EPS_5_C1_3}),
    "diff_separation": (True, {"delta_diff": 2.0, "eps_tol": EPS_5_C1_3}),
    "diff_proximity": (False, {"delta_diff": 2.0, "diff_separation": False}),
}


def naive_diff_pairs(topo: Topology) -> list[tuple[int, ...]]:
    edges = topo.edges
    return [edges[i] + edges[j] for i in range(len(edges)) for j in range(i + 1, len(edges))
            if not set(edges[i]) & set(edges[j])]


# The 8x8 chip's 1,990,592 DIFF pairs, one tuple each, outgrow the scalar
# reference's memory; test_solve bounds verify's own memory on them.
VERIFY_CASES = [(*case, setting) for case in CASES for setting in VERIFY_SETTINGS
                if not (case[0] == "chip8x8" and setting.startswith("diff"))]


@pytest.mark.parametrize("base_params", [default_params(), OFF_GRID], ids=["default", "offgrid"])
@pytest.mark.parametrize("label,topo,asg,setting", VERIFY_CASES,
                         ids=[f"{c[0]}-{c[3]}" for c in VERIFY_CASES])
def test_verify_matches_the_scalar_reference(label, topo, asg, setting, base_params):
    tightened, changes = VERIFY_SETTINGS[setting]
    params = dataclasses.replace(base_params, **changes)
    orient = realized_orientation(topo, asg)
    sol = Solution("feasible", asg.frequencies, orient)
    table = enumerate_records(topo, "free", params)
    report = verify(sol, table, params, tightened)
    # the reference prices the active instances: the realized orientation's instances
    # (matched against the naive oracle by reference_report), then every DIFF pair
    active = [r for r in table_rows(table) if r[2] in (None, orient.get(r[3]))]
    fixed = table_rows(enumerate_records(dataclasses.replace(topo, orientation=orient), "fixed",
                                         params))
    assert [r[:2] for r in active] == \
        [r[:2] for r in fixed if r[0] != "DIFF"] + \
        [("DIFF", p) for p in (naive_diff_pairs(topo) if params.delta_diff else [])]
    reference = scalar_report(active, asg.frequencies, params, tightened, tol=1e-6)
    lines = [json.dumps(doc, indent=1).splitlines()
             for doc in (report.to_json_dict(), reference)]
    assert lines[0] == lines[1]


@pytest.mark.parametrize("label,topo,asg", CASES[::4], ids=[c[0] for c in CASES[::4]])
def test_verify_names_the_one_missing_input(label, topo, asg):
    params = dataclasses.replace(default_params(), delta_diff=2.0)
    table = enumerate_records(topo, "free", params)
    orient = realized_orientation(topo, asg)
    rng = random.Random(label)
    for pair in rng.sample(sorted(orient), 3):
        sol = Solution("feasible", asg.frequencies, {k: b for k, b in orient.items() if k != pair})
        with pytest.raises(ValueError, match=re.escape(f"orientation for coupler {pair}") + "$"):
            verify(sol, table, params, tightened=True)
    for q in rng.sample(range(topo.n_qubits), 3):
        freqs = {k: f for k, f in asg.frequencies.items() if k != q}
        with pytest.raises(ValueError, match=f"frequency for qubit {q}$"):
            verify(Solution("feasible", freqs, orient), table, params, tightened=True)


def test_verify_lacking_inputs_of_inactive_instances():
    # qubit 3 has no coupler, and the drive window is the only directed family:
    # neither its frequency nor, without C1, any orientation is needed
    params = ConstraintParams(c1_enabled=False, base_bounds={"A1": 17.0}, delta_diff=2.0)
    topo = Topology(4, [(0, 1), (1, 2)])
    report = verify(Solution("feasible", {0: 5000.0, 1: 5020.0, 2: 5050.0}),
                    enumerate_records(topo, "free", params), params, tightened=True)
    assert report.ok and report.n_instances == 2 and report.min_margin == 3.0
    # the first DIFF participant in instance order lacks its frequency
    topo = Topology(4, [(0, 1), (2, 3)])
    with pytest.raises(ValueError, match="frequency for qubit 2$"):
        verify(Solution("feasible", {0: 5000.0, 1: 5020.0}),
               enumerate_records(topo, "free", params), params, tightened=True)


@pytest.mark.parametrize("mode", ["free", "fixed"])
@pytest.mark.parametrize("params", [
    default_params(), OFF_GRID, ConstraintParams(base_bounds={"T1": 17.0, "A2": 30.0, "D1": 2.0}),
], ids=["default", "offgrid", "three_families"])
@pytest.mark.parametrize("label,topo,asg", CASES, ids=[c[0] for c in CASES])
def test_verify_family_min_matches_the_naive_oracle(label, topo, asg, params, mode):
    orient = realized_orientation(topo, asg)
    if mode == "fixed":
        topo = dataclasses.replace(topo, orientation=orient)
    report = verify(Solution("feasible", asg.frequencies, orient),
                    enumerate_records(topo, mode, params), params, tightened=True)
    naive = naive_family_min(topo.edges, orient, asg.frequencies, params.alpha,
                             params.base_bounds)
    assert list(report.family_min) == list(naive) == sorted(params.base_bounds)
    assert report.family_min == naive  # the same operations in the same order: exact


def test_verify_names_the_lowest_missing_qubit():
    # the first row, A1 of (1, 2), reads qubit 1 before the second row reads qubit 0
    topo = Topology(3, [(1, 2), (0, 1)])
    with pytest.raises(ValueError, match="frequency for qubit 0$"):
        verify(Solution("feasible", {2: 5000.0}, {(1, 2): 0, (0, 1): 0}),
               enumerate_records(topo, "free", default_params()), default_params(),
               tightened=True)


def test_table_length_and_diff_pairs_in_order():
    topo = wrap(square_grid(3, 3), preset_bc("PBC1"))
    params = dataclasses.replace(default_params(), delta_diff=2.0)
    table = enumerate_records(topo, "free", params)
    assert len(table_rows(table)) == len(table) == len(table.family) + len(table.diff)
    assert len(table.diff) and table_rows(table)[-1][0] == "DIFF"
    edges = table.edges
    assert [edges[i] + edges[j] for i, j in table.diff.tolist()] == naive_diff_pairs(topo)


def test_reference_cases_hold_violations():
    # the comparison above only means something if the cases violate many families
    families = set()
    for _, topo, asg in CASES:
        families |= set(check(topo, asg, default_params()).family_counts())
    assert families == {"A1", "A2", "C1", "E1", "E2", "D1", "S1", "S2", "T1"}


@pytest.mark.parametrize("params", [default_params(), OFF_GRID], ids=["default", "offgrid"])
@pytest.mark.parametrize("label,topo,asg", CASES, ids=[c[0] for c in CASES])
def test_compile_equals_a_per_record_rebuild(label, topo, asg, params):
    fixed = dataclasses.replace(topo, orientation=realized_orientation(topo, asg))
    idx, coef, const, bound, c1_ctrl, c1_tgt = [], [], [], [], [], []
    for fam, p, _, _ in table_rows(enumerate_records(fixed, "fixed", params)):
        if fam == "C1":
            c1_ctrl.append(p[0])
            c1_tgt.append(p[1])
            continue
        roles, k = LINEAR_FORMS[fam]
        terms = [(p[role], c) for role, c in roles] + [(0, 0.0)] * (3 - len(roles))
        idx.append([q for q, _ in terms])
        coef.append([c for _, c in terms])
        const.append(k * params.alpha)
        bound.append(params.base_bound(fam))
    comp = yield_mc._compile(topo, asg, params)
    expected = {
        "base": np.array([asg.frequencies[q] for q in range(topo.n_qubits)]),
        "abs_idx": np.array(idx, dtype=np.intp).reshape(-1, 3),
        "abs_coef": np.array(coef, dtype=float).reshape(-1, 3),
        "abs_const": np.array(const, dtype=float),
        "abs_bound": np.array(bound, dtype=float),
        "c1_ctrl": np.array(c1_ctrl, dtype=np.intp),
        "c1_tgt": np.array(c1_tgt, dtype=np.intp),
    }
    for name, want in expected.items():
        got = getattr(comp, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name


@pytest.mark.parametrize("topo", [
    Topology(6, [(i, i + 1) for i in range(5)]),
    square_grid(4, 4),
    wrap(square_grid(4, 4), preset_bc("PBC1")),
    hex_rings(2),
    wrap(square_grid(2, 3), preset_bc("PBC1")),  # parallel couplers
], ids=["path6", "grid4x4", "pbc1_4x4", "hex2", "parallel"])
def test_edge_difference_pairs_match_the_naive_loop(topo):
    edges = topo.edges
    naive = [[i, j] for i in range(len(edges)) for j in range(i + 1, len(edges))
             if not set(edges[i]) & set(edges[j])]
    assert edge_difference_pairs(topo).tolist() == naive


def test_check_with_no_instances():
    for topo, params in [
        (Topology(1, []), default_params()),
        (Topology(2, [(0, 1)], orientation={(0, 1): 0}),
         ConstraintParams(base_bounds={}, c1_enabled=False)),
    ]:
        report = check(topo, FrequencyAssignment({q: 5000.0 for q in range(topo.n_qubits)}), params)
        assert report.ok and report.n_instances == 0 and report.min_margin == float("inf")
        assert report.to_json_dict()["min_margin_mhz"] is None


def test_a_margin_of_exactly_zero_holds():
    # A1 and E1 sit exactly on their 17 MHz bound; every other margin is positive
    topo = Topology(2, [(0, 1)], orientation={(0, 1): 0})
    asg = FrequencyAssignment({0: 5017.0, 1: 5000.0})
    report = check(topo, asg, default_params())
    assert report.ok and report.n_instances == 6 and report.min_margin == 0.0
    assert report.to_json_dict() == reference_report(topo, asg, default_params())
