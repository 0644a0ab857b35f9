"""Model construction, LP export, adapter solve, and solution import."""
import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from freqalloc.constraints import (
    ConstraintParams,
    check,
    default_params,
    enumerate_records,
    uniform_tightening,
)
from freqalloc.assembly import preset_bc
from freqalloc.milp_adapter import LPParseError, parse_lp, solve_lp
from freqalloc.milp_adapter import main as adapter_main
from freqalloc.model import (
    IntegralityError,
    RowDef,
    Solution,
    SolutionParseError,
    build,
    default_big_m,
    export_lp,
    import_solution,
    linearize_abs_geq,
)
from freqalloc.topology import Topology, parse_edge_key, square_grid, wrap

from .oracles import grid_search_optimum

GOLDEN = Path(__file__).parent / "golden"
UNIT_DIR = Path(__file__).parent / "fixtures" / "units"


def single_edge(orientation=None):
    return Topology(n_qubits=2, edges=[(0, 1)], orientation=orientation)


def build_for(topo, params, mode):
    return build(topo, enumerate_records(topo, mode, params), params, mode)


def solve_model(model):
    return import_solution(json.dumps(solve_lp(export_lp(model))), model)


def test_single_edge_fixed_counts():
    m = build_for(single_edge({(0, 1): 0}), default_params(), "fixed")
    assert len(m.variables) == 8  # 2 freqs + 5 slacks + the D1 binary
    assert len(m.rows) == 8       # one row each for A1, A2, E1, E2, a D1 pair, 2 window rows
    assert m.binaries() == ["b_0"]
    assert sorted(m.slack_vars) == ["A1", "A2", "D1", "E1", "E2"]


def test_single_edge_free_counts():
    m = build_for(single_edge(), default_params(), "free")
    assert len(m.variables) == 10  # + o_0_1 and one D1 binary per case
    assert len(m.rows) == 15       # A1 pair on o_0_1, A2, both C1 cases, both directed case sets
    assert m.binaries() == ["o_0_1", "b_0", "b_1"]


def test_default_big_m_dominates_worst_expression():
    p = default_params()
    # T1 reaches 2*window + |alpha| and its slack can sit at the same value,
    # so the inert branch needs M >= twice that
    assert default_big_m(p) >= 2.0 * p.max_measure("T1")


def test_golden_lp_fixed():
    m = build_for(single_edge({(0, 1): 0}), default_params(), "fixed")
    assert export_lp(m) == (GOLDEN / "single_edge_fixed.lp").read_text()


def test_golden_lp_free():
    m = build_for(single_edge(), default_params(), "free")
    assert export_lp(m) == (GOLDEN / "single_edge_free.lp").read_text()


def test_golden_lp_free_without_c1_keeps_every_disjunction():
    # without the drive window no sign is known: one binary per absolute-value record
    p = dataclasses.replace(default_params(), c1_enabled=False)
    m = build_for(single_edge(), p, "free")
    assert export_lp(m) == (GOLDEN / "single_edge_free_c1off.lp").read_text()


def test_export_is_deterministic():
    a = export_lp(build_for(single_edge(), default_params(), "free"))
    b = export_lp(build_for(single_edge(), default_params(), "free"))
    assert a == b


def test_one_qubit_model_is_empty_but_exportable():
    topo = Topology(n_qubits=1, edges=[])
    m = build_for(topo, default_params(), "free")  # the one-qubit table has no rows
    text = export_lp(m)
    assert text == (GOLDEN / "one_qubit.lp").read_text()
    parsed = parse_lp(text)
    assert parsed["rows"] == []
    assert parsed["bounds"] == {"f_0": (5000.0, 5500.0)}
    sol = import_solution(json.dumps(solve_lp(text)), m)
    assert sol.status == "optimal"
    assert sol.frequencies == {0: 5000.0}
    assert sol.objective_value == 0.0


def test_empty_records_with_couplers_rejected():
    no_families = ConstraintParams(base_bounds={}, c1_enabled=False)
    empty = enumerate_records(single_edge(), "free", no_families)
    assert len(empty) == 0
    with pytest.raises(ValueError):
        build(single_edge(), empty, default_params(), "free")


def test_fixed_build_requires_orientation():
    p = default_params()
    recs = enumerate_records(single_edge({(0, 1): 0}), "fixed", p)
    with pytest.raises(ValueError):
        build(single_edge(), recs, p, "fixed")


def test_fixed_build_rejects_mismatched_records():
    p = default_params()
    recs = enumerate_records(single_edge({(0, 1): 0}), "fixed", p)
    with pytest.raises(ValueError):
        build(single_edge({(0, 1): 1}), recs, p, "fixed")


def test_linearize_abs_geq_branches():
    rows = linearize_abs_geq("t", {"x": 1.0, "y": -1.0}, -5.0, "s", 1000.0, ("b", 0))
    assert [r.name for r in rows] == ["t_p", "t_n"]

    def sat(row: RowDef, point: dict) -> bool:
        lhs = sum(c * {"s": 10.0, **point}[v] for v, c in row.coeffs.items())
        return lhs >= row.rhs - 1e-9

    # x - y - 5 = 20: positive branch b=0 holds, negative branch is relaxed
    assert sat(rows[0], {"x": 25.0, "y": 0.0, "b": 0.0})
    assert sat(rows[1], {"x": 25.0, "y": 0.0, "b": 0.0})
    # x - y - 5 = -20: needs b=1
    assert not sat(rows[0], {"x": -15.0, "y": 0.0, "b": 0.0})
    assert sat(rows[0], {"x": -15.0, "y": 0.0, "b": 1.0})
    assert sat(rows[1], {"x": -15.0, "y": 0.0, "b": 1.0})
    # |x - y - 5| = 5 < 10 violates both branches
    assert not sat(rows[0], {"x": 10.0, "y": 0.0, "b": 0.0})
    assert not sat(rows[1], {"x": 10.0, "y": 0.0, "b": 1.0})


def test_gated_rows_inert_for_other_case():
    rows = linearize_abs_geq(
        "t", {"x": 1.0}, 0.0, "s", 2800.0, ("b", 0), gate=("o", 1)
    )
    # gate case 1 binds only when o = 1; with o = 0 any in-window x passes
    for x in (-850.0, 0.0, 850.0):
        for b in (0.0, 1.0):
            point = {"x": x, "b": b, "o": 0.0, "s": 17.0}
            lhs_p = sum(c * point[v] for v, c in rows[0].coeffs.items())
            lhs_n = sum(c * point[v] for v, c in rows[1].coeffs.items())
            assert lhs_p >= rows[0].rhs or lhs_n >= rows[1].rhs
            if b == 0.0:
                assert lhs_p >= rows[0].rhs
            else:
                assert lhs_n >= rows[1].rhs


def test_diff_model_shape():
    p = dataclasses.replace(default_params(), delta_diff=2.0)
    topo = Topology(n_qubits=4, edges=[(0, 1), (1, 2), (2, 3)])
    recs = enumerate_records(topo, "free", p)
    base = build_for(topo, dataclasses.replace(p, delta_diff=0.0), "free")
    m = build(topo, recs, p, "free")
    names = [v.name for v in m.variables]
    assert "d_0_1" in names and "d_2_3" in names and "d_1_2" not in names
    # two gap-linking binaries plus one disjunction binary
    assert len(m.binaries()) == len(base.binaries()) + 3
    assert len(m.rows) == len(base.rows) + 4 * 2 + 2


def test_diff_literal_mode_has_no_extra_binary():
    p = dataclasses.replace(default_params(), delta_diff=2.0, diff_separation=False)
    topo = Topology(n_qubits=4, edges=[(0, 1), (1, 2), (2, 3)])
    m = build_for(topo, p, "free")
    hi = [r for r in m.rows if r.name == "DIFF_0_hi"]
    lo = [r for r in m.rows if r.name == "DIFF_0_lo"]
    assert len(hi) == 1 and len(lo) == 1
    assert all("b_" not in v for v in hi[0].coeffs)
    sep = build_for(topo, dataclasses.replace(p, diff_separation=True), "free")
    assert len(sep.binaries()) == len(m.binaries()) + 1


def test_lp_round_trip_through_parser():
    m = build_for(single_edge(), default_params(), "free")
    text = export_lp(m)
    parsed = parse_lp(text)
    assert sorted(parsed["objective"]) == sorted(m.objective)
    assert len(parsed["rows"]) == len(m.rows)
    by_name = {r.name: r for r in m.rows}
    for name, coeffs, op, rhs in parsed["rows"]:
        row = by_name[name]
        assert op == row.sense
        assert rhs == pytest.approx(row.rhs)
        assert {v: c for v, c in row.coeffs.items() if c != 0} == pytest.approx(coeffs)
    assert set(parsed["binaries"]) == set(m.binaries())


def test_parser_rejects_junk():
    with pytest.raises(LPParseError):
        parse_lp("Subject To\n r1: x + y >= 0\nEnd\n")  # no objective sense
    with pytest.raises(LPParseError):
        parse_lp("Maximize\n obj: x\nSubject To\n x + y >= 0\nEnd\n")  # unnamed row
    with pytest.raises(LPParseError):
        parse_lp("Maximize\n obj: x\nBounds\n x >= 1e\nEnd\n")
    with pytest.raises(LPParseError):
        parse_lp("Minimize\n obj: x\nSubject To\n r1: x >= 0\nEnd\n")  # not the Maximize dialect
    with pytest.raises(LPParseError):  # a header word it does not know is not a variable
        parse_lp("Maximize\n obj: x\nMinimize\n obj: y\nSubject To\n r1: x >= 0\nEnd\n")


@pytest.mark.parametrize("rhs", ["abc", "nan", "inf", "-Infinity", "1e999"])
def test_adapter_rejects_bad_right_hand_side(tmp_path, capsys, rhs):
    lp = tmp_path / "bad.lp"
    lp.write_text(f"Maximize\n obj: x\nSubject To\n c1: x <= {rhs}\nBounds\n 0 <= x <= 1\nEnd\n")
    assert adapter_main([str(lp), str(tmp_path / "out.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("milp_adapter: right-hand side is not a finite number")
    assert "Traceback" not in err
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("line", ["0 <= x <= 1e999", "0 <= x <= -1e999", "1e999 <= x <= 1e999",
                                  "-1e999 <= x <= 1", "x <= 1e999", "x <= -1e999"])
def test_adapter_rejects_non_finite_bound(tmp_path, capsys, line):
    lp = tmp_path / "bad.lp"
    lp.write_text(f"Maximize\n obj: x\nSubject To\n c1: x <= 1\nBounds\n {line}\nEnd\n")
    assert adapter_main([str(lp), str(tmp_path / "out.json")]) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == [f"milp_adapter: bound is not a finite number: {line!r}"]
    assert not (tmp_path / "out.json").exists()


def test_adapter_reports_search_figures_in_the_lp_sense():
    p = dataclasses.replace(default_params(), eps_tol=uniform_tightening(10.0))
    m = build_for(Topology(n_qubits=3, edges=[(0, 1), (1, 2)]), p, "free")
    doc = solve_lp(export_lp(m))
    assert doc["status"] == "optimal"
    assert isinstance(doc["mip_node_count"], int) and doc["mip_node_count"] >= 0
    assert doc["mip_gap"] == pytest.approx(0.0, abs=1e-4)
    # a Maximize model: the dual bound is an upper bound on the LP objective
    lp_objective = sum(doc["values"][name] for name in m.objective)
    assert doc["mip_dual_bound"] == pytest.approx(lp_objective, rel=1e-4)
    sol = import_solution(json.dumps(doc), m)
    assert sol.solver_stats["mip_dual_bound"] == pytest.approx(sol.objective_value, rel=1e-4)
    assert sol.solver_stats["mip_node_count"] == doc["mip_node_count"]
    # optional figures that are not finite numbers are ignored
    doc.update(mip_gap=None, mip_dual_bound=True, mip_node_count=10 ** 400)
    assert import_solution(json.dumps(doc), m).solver_stats == {}


def test_solve_and_check_fixed():
    p = default_params()
    topo = single_edge({(0, 1): 0})
    sol = solve_model(build_for(topo, p, "fixed"))
    assert sol.status == "optimal"
    assert sol.orientations == {(0, 1): 0}
    rep = check(topo, sol.as_assignment(), p)
    assert rep.ok
    assert all(f >= 5000.0 - 1e-9 and f <= 5500.0 + 1e-9 for f in sol.frequencies.values())


def test_solution_objective_recomputed_from_slacks():
    p = default_params()
    sol = solve_model(build_for(single_edge({(0, 1): 0}), p, "fixed"))
    total = sum(sol.slacks[f] - p.base_bound(f) for f in sol.slacks)
    assert sol.objective_value == pytest.approx(total)


def test_big_m_inert(monkeypatch):
    p = default_params()
    topo = Topology(n_qubits=3, edges=[(0, 1), (1, 2)])
    recs = enumerate_records(topo, "free", p)
    model_a = build(topo, recs, p, "free")
    monkeypatch.setattr("freqalloc.model.default_big_m", lambda params: 2.0 * default_big_m(params))
    model_b = build(topo, recs, p, "free")
    assert export_lp(model_b) != export_lp(model_a)  # the doubled M reached the rows
    a, b = solve_model(model_a), solve_model(model_b)
    assert a.objective_value == pytest.approx(b.objective_value, abs=1e-6)


def test_free_matches_grid_oracle_small():
    p = dataclasses.replace(default_params(), f_window=(5000.0, 5100.0))
    for n, edges in [(2, [(0, 1)]), (3, [(0, 1), (1, 2)]), (3, [(0, 1), (0, 2), (1, 2)])]:
        topo = Topology(n_qubits=n, edges=edges)
        sol = solve_model(build_for(topo, p, "free"))
        obj, _, _ = grid_search_optimum(n, edges, p.alpha, p.base_bounds, {}, 0.0,
                                        window=p.f_window, step=1.0)
        assert sol.objective_value == pytest.approx(obj, abs=1.0)


def test_tightened_slack_lower_bounds():
    p = dataclasses.replace(default_params(), eps_tol=uniform_tightening(10.0))
    m = build_for(single_edge({(0, 1): 0}), p, "fixed")
    lbs = {v.name: v.lb for v in m.variables}
    assert lbs["sA1"] == 27.0
    assert lbs["sA2"] == 40.0
    assert lbs["sD1"] == 2.0  # D1 is never tightened
    # objective offset still uses base bounds
    sol = solve_model(m)
    assert sol.objective_value == pytest.approx(
        sum(sol.slacks[f] - p.base_bound(f) for f in sol.slacks)
    )


def test_c1_eps_shrinks_window_rows():
    p = dataclasses.replace(default_params(), eps_tol={"C1": 5.0})
    m = build_for(single_edge({(0, 1): 0}), p, "fixed")
    rows = {r.name: r for r in m.rows}
    assert rows["C1_0_hi"].rhs == -5.0
    assert rows["C1_0_lo"].rhs == -345.0


def test_import_rejects_missing_variable():
    m = build_for(single_edge({(0, 1): 0}), default_params(), "fixed")
    doc = solve_lp(export_lp(m))
    del doc["values"]["sA1"]
    with pytest.raises(SolutionParseError):
        import_solution(json.dumps(doc), m)


def test_import_rejects_fractional_binary():
    m = build_for(single_edge(), default_params(), "free")
    doc = solve_lp(export_lp(m))
    doc["values"]["o_0_1"] = 0.5
    with pytest.raises(IntegralityError):
        import_solution(json.dumps(doc), m)


def test_import_rejects_unknown_status():
    m = build_for(single_edge(), default_params(), "free")
    with pytest.raises(SolutionParseError):
        import_solution(json.dumps({"status": "solved", "values": {}}), m)
    with pytest.raises(SolutionParseError):
        import_solution("not json", m)


def test_import_passes_through_unsolved_statuses():
    m = build_for(single_edge(), default_params(), "free")
    sol = import_solution(json.dumps({"status": "infeasible"}), m)
    assert sol.status == "infeasible"
    assert sol.frequencies == {}
    assert sol.objective_value is None
    sol = import_solution(json.dumps({"status": "timeout"}), m)
    assert sol.status == "timeout"


def test_infeasible_window_reported():
    # a window narrower than the A1 bound cannot separate two coupled qubits
    p = dataclasses.replace(default_params(), f_window=(5000.0, 5010.0))
    m = build_for(single_edge(), p, "free")
    doc = solve_lp(export_lp(m))
    assert doc["status"] == "infeasible"


def test_solution_json_round_trip():
    m = build_for(single_edge(), default_params(), "free")
    sol = solve_model(m)
    again = Solution.from_json_dict(sol.to_json_dict())
    assert again.frequencies == sol.frequencies
    assert again.orientations == sol.orientations
    assert again.slacks == sol.slacks


def pbc1_3x3_unit():
    """The wrapped 3x3 PBC1 grid in the committed PBC1 unit's orientation."""
    doc = json.loads((UNIT_DIR / "pbc1_3x3.json").read_text())
    orientation = {parse_edge_key(k): v for k, v in doc["solution"]["orientations"].items()}
    return dataclasses.replace(wrap(square_grid(3, 3), preset_bc("PBC1")), orientation=orientation)


def lp_case(name):
    """(topology, mode, params) of a pinned LP."""
    p = default_params()
    eps10 = dataclasses.replace(p, eps_tol=uniform_tightening(10.0))
    return {
        # the four MILP models the benchmark solves
        "p5_eps10": (square_grid(1, 5), "free", eps10),
        "g2x3_eps10": (square_grid(2, 3), "free", eps10),
        "w3x3_pbc1_fixed_eps10": (pbc1_3x3_unit(), "fixed", eps10),
        "g3x3_eps10": (square_grid(3, 3), "free", eps10),
        "w4x4_pbc1_diff2": (wrap(square_grid(4, 4), preset_bc("PBC1")), "free",
                            dataclasses.replace(p, delta_diff=2.0)),
        "g2x2_c1off_proximity": (square_grid(2, 2), "free",
                                 dataclasses.replace(p, c1_enabled=False, delta_diff=3.0,
                                                     diff_separation=False)),
        "w3x3_pbc1_fixed": (pbc1_3x3_unit(), "fixed", p),
        "g2x2_alpha_positive": (square_grid(2, 2), "free", dataclasses.replace(p, alpha=350.0)),
    }[name]


LP_SHA256 = {
    "p5_eps10":
        "e2afe5ded680ef585ce4b90706623fca4c3fe53dd053106e52dbbca63ada4c79",
    "g2x3_eps10":
        "d3328973eff24c0267504900ed8363263aa5474f597a2df8b9a4811a3922fadf",
    "w3x3_pbc1_fixed_eps10":
        "d421947526ce4a901dd9c853decf1de147fb35ebd8b0dddb7f31b26b4f85ca81",
    "g3x3_eps10":
        "290361408db9d0627eddc491c6ce7dd97321847b2baa720f78449136dfba9622",
    "w4x4_pbc1_diff2":
        "bc1de1f2ed27f6425e6508151cfc49dfcce5adac63fefdd9d09a6da253abe174",
    "g2x2_c1off_proximity":
        "0625dc0cede31328c1a2be340398e0ad4009f344775145043fb7d7a6c9fba0b1",
    "w3x3_pbc1_fixed":
        "fb71e40172694e13d9b334eab85e330714ad58537d552ab84e601774731b9b32",
    "g2x2_alpha_positive":
        "18d828d9722f17992bb8b62dbde82845df7cff8a21a4158840f116fa1f686d45",
}


@pytest.mark.parametrize("name", LP_SHA256)
def test_lp_bytes_pinned(name):
    topo, mode, params = lp_case(name)
    text = export_lp(build_for(topo, params, mode))
    assert hashlib.sha256(text.encode()).hexdigest() == LP_SHA256[name]
