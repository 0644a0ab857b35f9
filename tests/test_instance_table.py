"""The array-built instance table against scalar, independently written references."""
from __future__ import annotations

import dataclasses
import json
import pathlib
import random

import numpy as np
import pytest

from freqalloc import yield_mc
from freqalloc.assembly import PRESET_TABLE, preset_bc, tile
from freqalloc.constraints import (
    ConstraintParams,
    FrequencyAssignment,
    check,
    default_params,
    edge_difference_pairs,
    enumerate_records,
    linear_form,
    realized_orientation,
    record_margin,
)
from freqalloc.model import Solution
from freqalloc.topology import Topology, hex_rings, square_grid, wrap

from .oracles import naive_margins, naive_violations

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


def reference_report(topo: Topology, asg: FrequencyAssignment, params: ConstraintParams) -> dict:
    """check()'s report, rebuilt one record at a time with record_margin; the
    instance list and its order are first matched against the naive oracle."""
    orient = realized_orientation(topo, asg)
    freqs = asg.frequencies
    records = enumerate_records(dataclasses.replace(topo, orientation=orient), "fixed", params)
    naive = naive_margins(topo.edges, orient, freqs, params.alpha, params.base_bounds,
                          params.c1_enabled)
    assert [(r.family, r.participants) for r in records] == [(f, p) for f, p, _ in naive]
    margins = [record_margin(r, freqs, params, tightened=False) for r in records]
    assert [g for _, _, g in margins] == pytest.approx([m for _, _, m in naive], abs=1e-9)
    violations = [
        {"family": r.family, "participants": list(r.participants),
         "measured_mhz": m, "bound_mhz": b, "margin_mhz": g}
        for r, (m, b, g) in zip(records, margins) if g < 0
    ]
    counts: dict[str, int] = {}
    for v in violations:
        counts[v["family"]] = counts.get(v["family"], 0) + 1
    return {
        "ok": not violations,
        "n_instances": len(records),
        "n_violations": len(violations),
        "min_margin_mhz": min((g for _, _, g in margins), default=None),
        "family_counts": counts,
        "violations": violations,
    }


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
    for rec in enumerate_records(fixed, "fixed", params):
        if rec.family == "C1":
            c1_ctrl.append(rec.participants[0])
            c1_tgt.append(rec.participants[1])
            continue
        terms, constant = linear_form(rec, params.alpha)
        terms += [(0, 0.0)] * (3 - len(terms))
        idx.append([q for q, _ in terms])
        coef.append([c for _, c in terms])
        const.append(constant)
        bound.append(params.base_bound(rec.family))
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
