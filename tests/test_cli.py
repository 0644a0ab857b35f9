"""End-to-end command-line pipelines over temp files."""
import argparse
import json
import pathlib
import re
import shlex
import warnings

import pytest

from freqalloc.assembly import ChipAssembly
from freqalloc import cli
from freqalloc.cli import ConfigError, main, parse_budget, parse_pair, parse_sigmas
from freqalloc.constraints import default_params, enumerate_records, uniform_tightening
from freqalloc.model import Solution, build, export_lp
from freqalloc.topology import Topology, square_grid, uniform_orientation

import dataclasses

ADAPTER = "python3 -m freqalloc.milp_adapter {lp} {out}"
UNIT_DIR = pathlib.Path(__file__).parent / "fixtures" / "units"
ROOT = pathlib.Path(__file__).resolve().parent.parent


def write_unit_solution(tmp_path, preset="pbc1"):
    d = json.loads((UNIT_DIR / f"{preset}_3x3.json").read_text())
    path = tmp_path / "unit_sol.json"
    path.write_text(json.dumps(d["solution"]) + "\n")
    return path


@pytest.fixture
def grid22(tmp_path):
    path = tmp_path / "t.json"
    assert main(["topo", "--kind", "square", "--rows", "2", "--cols", "2",
                 "--out", str(path)]) == 0
    return path


def solve22(tmp_path, grid22):
    out = tmp_path / "s.json"
    code = main(["solve", "--topology", str(grid22), "--mode", "free",
                 "--eps-tol", "10", "--cmd", ADAPTER, "--out", str(out)])
    assert code == 0
    return out


# -- flag parsing helpers -----------------------------------------------------


def test_budget_formats():
    assert parse_budget("300") == 300.0
    assert parse_budget("30s") == 30.0
    assert parse_budget("5m") == 300.0
    assert parse_budget("1h") == 3600.0
    assert parse_budget("0.05s") == 0.05
    for bad in ("", "abc", "-3s", "0"):
        with pytest.raises(ConfigError):
            parse_budget(bad)


def test_pair_and_sigma_parsing():
    assert parse_pair("5000:5500", "window") == (5000.0, 5500.0)
    assert parse_sigmas("5,10,15") == [5.0, 10.0, 15.0]
    with pytest.raises(ConfigError):
        parse_pair("5000", "window")
    with pytest.raises(ConfigError):
        parse_sigmas("a,b")


# -- topo ----------------------------------------------------------------------


def test_topo_square_and_wrap(tmp_path):
    out = tmp_path / "sq.json"
    assert main(["topo", "--kind", "square", "--rows", "4", "--cols", "4",
                 "--out", str(out)]) == 0
    topo = Topology.from_json(out.read_text())
    assert topo.n_qubits == 16 and len(topo.edges) == 24

    wrapped = tmp_path / "wrapped.json"
    assert main(["topo", "--kind", "square", "--rows", "2", "--cols", "2",
                 "--bc", "PBC1", "--out", str(wrapped)]) == 0
    topo = Topology.from_json(wrapped.read_text())
    assert len(topo.edges) == 8 and len(topo.wrap_tags) == 4


def test_topo_hex_rings(tmp_path):
    out = tmp_path / "hex.json"
    assert main(["topo", "--kind", "hex", "--rings", "1", "--out", str(out)]) == 0
    topo = Topology.from_json(out.read_text())
    assert topo.geometry["kind"] == "hex_rings"
    assert max(topo.degree(q) for q in range(topo.n_qubits)) <= 3


def test_topo_bad_dims_exit_2(tmp_path):
    assert main(["topo", "--kind", "square", "--rows", "0", "--cols", "4",
                 "--out", str(tmp_path / "x.json")]) == 2
    assert main(["topo", "--kind", "hex", "--out", str(tmp_path / "x.json")]) == 2


# -- build ---------------------------------------------------------------------


def test_build_matches_library_export(tmp_path, grid22):
    out = tmp_path / "m.lp"
    assert main(["build", "--topology", str(grid22), "--mode", "free",
                 "--eps-tol", "10", "--out", str(out)]) == 0
    params = dataclasses.replace(default_params(), eps_tol=uniform_tightening(10.0))
    topo = Topology.from_json(grid22.read_text())
    model = build(topo, enumerate_records(topo, "free", params), params, "free")
    assert out.read_text() == export_lp(model)


def test_build_fixed_without_orientation_exit_2(tmp_path, grid22):
    assert main(["build", "--topology", str(grid22), "--mode", "fixed",
                 "--out", str(tmp_path / "m.lp")]) == 2


def test_build_config_params_override_window(tmp_path):
    topo_path = tmp_path / "one.json"
    one = square_grid(1, 1)
    topo_path.write_text(one.to_json())
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"params": {"f_window": [5000, 5010]}}))
    out = tmp_path / "m.lp"
    assert main(["build", "--topology", str(topo_path), "--window", "4000:9000",
                 "--config", str(cfg), "--out", str(out)]) == 0
    assert "5000 <= f_0 <= 5010" in out.read_text()


def test_big_m_has_no_override(tmp_path, grid22):
    with pytest.raises(SystemExit) as exc:
        main(["build", "--topology", str(grid22), "--big-m", "4000", "--out", str(tmp_path / "m.lp")])
    assert exc.value.code == 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": {"big_m": 4000}}))
    assert main(["build", "--topology", str(grid22), "--config", str(cfg),
                 "--out", str(tmp_path / "m.lp")]) == 2
    assert not (tmp_path / "m.lp").exists()


def test_sidecar_names_the_running_package(tmp_path, grid22):
    meta = json.loads((tmp_path / "t.json.meta.json").read_text())
    version = re.search(r'^version = "(.+)"$', (ROOT / "pyproject.toml").read_text(), re.M)[1]
    assert meta["package"] == f"freqalloc {version}"


def test_readme_commands_use_exact_flags():
    """Each --flag of a README command is an option of its subcommand, not a prefix of one."""
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction)).choices
    blocks = re.findall(r"```sh\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    commands = [line for block in blocks for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("freqalloc ")]
    assert len(commands) >= 7
    for line in commands:
        _, command, *words = shlex.split(line)
        options = subparsers[command]._option_string_actions
        for word in words:
            if word.startswith("--"):
                assert word.split("=")[0] in options, (line, word)


# -- solve / verify --------------------------------------------------------------


def test_solve_external_and_verify(tmp_path, grid22):
    sol_path = solve22(tmp_path, grid22)
    sol = Solution.from_json_dict(json.loads(sol_path.read_text()))
    assert sol.status == "optimal"
    assert sol.objective_value == pytest.approx(1570.0, abs=1e-6)
    assert main(["verify", "--topology", str(grid22), "--solution", str(sol_path),
                 "--eps-tol", "10"]) == 0
    report_path = tmp_path / "rep.json"
    assert main(["verify", "--topology", str(grid22), "--solution", str(sol_path),
                 "--eps-tol", "10", "--bounds", "base", "--out", str(report_path)]) == 0
    assert json.loads(report_path.read_text())["ok"] is True


def test_solve_sidecar_reports_model_size_and_search(tmp_path, grid22):
    sol_path = solve22(tmp_path, grid22)
    meta = json.loads((tmp_path / "s.json.meta.json").read_text())
    params = dataclasses.replace(default_params(), eps_tol=uniform_tightening(10.0))
    topo = Topology.from_json_dict(json.loads(grid22.read_text()))
    model = build(topo, enumerate_records(topo, "free", params), params, "free")
    assert meta["model"] == {"variables": len(model.variables), "rows": len(model.rows),
                             "binaries": len(model.binaries())}
    solver = meta["solver"]
    assert sorted(solver) == ["mip_dual_bound", "mip_gap", "mip_node_count"]
    assert isinstance(solver["mip_node_count"], int)
    # shifted by the base bounds, the dual bound reads on the objective's scale
    objective = json.loads(sol_path.read_text())["objective_mhz"]
    assert solver["mip_dual_bound"] == pytest.approx(objective, rel=1e-4)
    # the solution file itself carries none of it
    assert "solver" not in sol_path.read_text() and "mip_" not in sol_path.read_text()


def test_verify_flags_violation_exit_4(tmp_path, grid22):
    sol_path = solve22(tmp_path, grid22)
    d = json.loads(sol_path.read_text())
    qubits = sorted(d["frequencies_mhz"])
    d["frequencies_mhz"] = {q: 5100.0 for q in qubits}  # every pair collides
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(d))
    assert main(["verify", "--topology", str(grid22), "--solution", str(bad),
                 "--eps-tol", "10"]) == 4


def test_report_without_instances_is_strict_json(tmp_path):
    topo, sol, report = (tmp_path / name for name in ("t.json", "s.json", "r.json"))
    assert main(["topo", "--rows", "1", "--cols", "1", "--out", str(topo)]) == 0
    assert main(["solve", "--topology", str(topo), "--backend", "anneal", "--out", str(sol)]) == 0
    assert main(["verify", "--topology", str(topo), "--solution", str(sol),
                 "--out", str(report)]) == 0

    def reject(name):
        raise ValueError(f"{name} is not JSON")

    doc = json.loads(report.read_text(), parse_constant=reject)
    assert doc["n_instances"] == 0 and doc["min_margin_mhz"] is None


def test_solve_missing_command_exit_2(tmp_path, grid22, monkeypatch):
    monkeypatch.delenv("FREQALLOC_SOLVER_CMD", raising=False)
    assert main(["solve", "--topology", str(grid22),
                 "--out", str(tmp_path / "s.json")]) == 2


def test_solve_command_from_env(tmp_path, grid22, monkeypatch):
    monkeypatch.setenv("FREQALLOC_SOLVER_CMD", ADAPTER)
    out = tmp_path / "s.json"
    assert main(["solve", "--topology", str(grid22), "--mode", "free",
                 "--eps-tol", "10", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["status"] == "optimal"


def test_solve_broken_command_exit_3(tmp_path, grid22):
    assert main(["solve", "--topology", str(grid22),
                 "--cmd", "no_such_solver_binary {lp} {out}",
                 "--out", str(tmp_path / "s.json")]) == 3


def test_solve_anneal_backend_deterministic(tmp_path):
    topo_path = tmp_path / "t3.json"
    assert main(["topo", "--kind", "square", "--rows", "3", "--cols", "3",
                 "--out", str(topo_path)]) == 0
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    common = ["solve", "--topology", str(topo_path), "--mode", "free",
              "--eps-tol", "10", "--backend", "anneal", "--seed", "3"]
    assert main(common + ["--out", str(a)]) == 0
    assert main(common + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert json.loads(a.read_text())["status"] == "feasible"
    assert main(["verify", "--topology", str(topo_path), "--solution", str(a),
                 "--eps-tol", "10"]) == 0


def test_solve_anneal_parks_isolated_qubits(tmp_path):
    topo = Topology(n_qubits=3, edges=[(0, 1)])
    topo_path = tmp_path / "iso.json"
    topo_path.write_text(topo.to_json())
    out = tmp_path / "s.json"
    assert main(["solve", "--topology", str(topo_path), "--mode", "free",
                 "--backend", "anneal", "--out", str(out)]) == 0
    freqs = json.loads(out.read_text())["frequencies_mhz"]
    assert freqs["2"] == 5000.0  # window floor


# -- yield / threshold ------------------------------------------------------------


def test_yield_stdout_and_file_determinism(tmp_path, grid22, capsys):
    sol_path = solve22(tmp_path, grid22)
    base = ["yield", "--topology", str(grid22), "--solution", str(sol_path),
            "--sigma", "0,10", "--trials", "2000"]
    capsys.readouterr()
    assert main(base) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "sigma,trials,successes,yield,ci_lo,ci_hi"
    assert lines[1].startswith("0,2000,2000,1,")
    y1, y2 = tmp_path / "y1.csv", tmp_path / "y2.csv"
    assert main(base + ["--out", str(y1)]) == 0
    assert main(base + ["--out", str(y2)]) == 0
    assert y1.read_bytes() == y2.read_bytes()
    meta = json.loads((tmp_path / "y1.csv.meta.json").read_text())
    assert "created_utc" in meta and meta["argv"][0] == "yield"
    assert "created_utc" not in y1.read_text()


def test_yield_config_overrides_flags(tmp_path, grid22, capsys):
    sol_path = solve22(tmp_path, grid22)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"yield": {"sigma": [3.0], "trials": 500}}))
    capsys.readouterr()
    assert main(["yield", "--topology", str(grid22), "--solution", str(sol_path),
                 "--sigma", "99", "--trials", "9", "--config", str(cfg)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2 and lines[1].startswith("3,500,")


def test_config_schema_rejected(tmp_path, grid22):
    sol = solve22(tmp_path, grid22)
    bad1 = tmp_path / "bad1.json"
    bad1.write_text(json.dumps({"bogus": {}}))
    assert main(["yield", "--topology", str(grid22), "--solution", str(sol),
                 "--sigma", "5", "--config", str(bad1)]) == 2
    bad2 = tmp_path / "bad2.json"
    bad2.write_text(json.dumps({"yield": {"sugma": 5}}))
    assert main(["yield", "--topology", str(grid22), "--solution", str(sol),
                 "--sigma", "5", "--config", str(bad2)]) == 2


def test_threshold_writes_csv(tmp_path, grid22, capsys):
    sol_path = solve22(tmp_path, grid22)
    capsys.readouterr()
    assert main(["threshold", "--topology", str(grid22), "--solution", str(sol_path),
                 "--target", "0.8", "--bracket", "5:40", "--tol", "0.5",
                 "--trials", "1000", "--max-trials", "16000", "--seed", "5"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "target,sigma_star,bracket_lo,bracket_hi,trials,seed"
    target, sigma_star, lo, hi, trials, seed = lines[1].split(",")
    assert float(lo) < float(sigma_star) < float(hi)
    assert (target, trials, seed) == ("0.8", "1000", "5")


def test_threshold_bad_bracket_exit_2(tmp_path, grid22):
    sol_path = solve22(tmp_path, grid22)
    assert main(["threshold", "--topology", str(grid22), "--solution", str(sol_path),
                 "--target", "0.8", "--bracket", "30:40", "--trials", "500",
                 "--max-trials", "2000"]) == 2


def test_non_finite_sigma_and_bracket_exit_2(tmp_path):
    topo = tmp_path / "unit.json"
    assert main(["topo", "--kind", "square", "--rows", "4", "--cols", "4",
                 "--bc", "PBC1", "--out", str(topo)]) == 0
    sol = tmp_path / "unit_sol.json"
    sol.write_text(json.dumps(json.loads((UNIT_DIR / "pbc1_4x4.json").read_text())["solution"]))
    common = ["--topology", str(topo), "--solution", str(sol), "--trials", "100"]
    assert main(["yield", *common, "--sigma", "nan"]) == 2
    assert main(["threshold", *common, "--target", "0.5", "--bracket", "1:inf"]) == 2


@pytest.mark.parametrize("command, flags", [
    ("verify", ["--solution", "nan_sol.json"]),
    ("yield", ["--solution", "nan_sol.json", "--sigma", "1", "--trials", "100"]),
    ("build", ["--eps-tol", "nan", "--out", "m.lp"]),
    ("build", ["--window", "5000:inf", "--out", "m.lp"]),
    ("build", ["--params", "nan_params.json", "--out", "m.lp"]),
    ("verify", ["--solution", "unit_sol.json", "--eps-tol", "nan"]),
], ids=["verify-nan-frequency", "yield-nan-frequency", "build-nan-eps", "build-inf-window",
        "build-nan-alpha", "verify-nan-eps"])
def test_non_finite_inputs_exit_2(tmp_path, monkeypatch, command, flags):
    monkeypatch.chdir(tmp_path)
    assert main(["topo", "--rows", "3", "--cols", "3", "--bc", "PBC1", "--out", "t.json"]) == 0
    doc = json.loads(write_unit_solution(tmp_path).read_text())
    doc["frequencies_mhz"]["0"] = float("nan")
    (tmp_path / "nan_sol.json").write_text(json.dumps(doc))
    (tmp_path / "nan_params.json").write_text(json.dumps({"alpha": float("nan")}))
    assert main([command, "--topology", "t.json", *flags]) == 2


def test_non_finite_solver_value_exit_3(tmp_path):
    topo = tmp_path / "p2.json"
    assert main(["topo", "--rows", "1", "--cols", "2", "--out", str(topo)]) == 0
    wrapper = tmp_path / "nan_wrapper.py"
    wrapper.write_text(
        "import json, sys\n"
        "from freqalloc.milp_adapter import main\n"
        "main(sys.argv[1:3])\n"
        "with open(sys.argv[2]) as fh:\n"
        "    doc = json.load(fh)\n"
        "doc['values']['f_0'] = float('nan')\n"
        "with open(sys.argv[2], 'w') as fh:\n"
        "    json.dump(doc, fh)\n"
    )
    out = tmp_path / "s.json"
    assert main(["solve", "--topology", str(topo), "--cmd", f"python3 {wrapper} {{lp}} {{out}}",
                 "--out", str(out)]) == 3
    assert not out.exists()


def test_oversized_integer_solver_value_exit_3(tmp_path):
    # 1 followed by 400 zeros parses as a Python int that float() cannot hold
    topo = tmp_path / "p2.json"
    assert main(["topo", "--rows", "1", "--cols", "2", "--out", str(topo)]) == 0
    wrapper = tmp_path / "huge_wrapper.py"
    wrapper.write_text(
        "import json, sys\n"
        "from freqalloc.milp_adapter import main\n"
        "main(sys.argv[1:3])\n"
        "with open(sys.argv[2]) as fh:\n"
        "    doc = json.load(fh)\n"
        "doc['values']['f_0'] = 10 ** 400\n"
        "with open(sys.argv[2], 'w') as fh:\n"
        "    json.dump(doc, fh)\n"
    )
    out = tmp_path / "s.json"
    assert main(["solve", "--topology", str(topo), "--cmd", f"python3 {wrapper} {{lp}} {{out}}",
                 "--out", str(out)]) == 3
    assert not out.exists()


def test_null_frequencies_exit_2(tmp_path, grid22):
    sol = tmp_path / "null.json"
    sol.write_text(json.dumps({"status": "optimal", "frequencies_mhz": None}))
    assert main(["verify", "--topology", str(grid22), "--solution", str(sol)]) == 2


# the valid solution of the 1x2 path that two_qubit_inputs writes by default
SOLUTION_DOC = {"status": "feasible", "frequencies_mhz": {"0": 5000.0, "1": 5100.0},
                "orientations": {"0-1": 0}}

# (topology file, solution file, --params file, --config file, extra flags);
# None keeps the valid default
MALFORMED_INPUTS = {
    "topology_root_list": ([], None, None, None, []),
    "topology_wrap_tags_list":
        ({"n_qubits": 2, "edges": [[0, 1]], "wrap_tags": []}, None, None, None, []),
    "params_root_list": (None, None, [], None, []),
    "config_params_list": (None, None, None, {"params": []}, ["--eps-tol", "5"]),
    "params_base_bounds_list": (None, None, {"base_bounds": [1, 2]}, None, []),
    "params_eps_tol_number": (None, None, {"eps_tol": 5}, None, []),
    "params_f_window_number": (None, None, {"f_window": 5}, None, []),
    "config_solver_list": (None, None, None, {"solver": []}, []),
    "config_anneal_string": (None, None, None, {"solver": {"anneal": {"cooling_rate": "x"}}}, []),
    "params_alpha_list": (None, None, {"alpha": [1]}, None, []),
    "params_bound_string": (None, None, {"base_bounds": {"A1": "17"}}, None, []),
    "params_eps_tol_bool": (None, None, {"eps_tol": {"A1": True}}, None, []),
    "params_f_window_strings": (None, None, {"f_window": ["5000", "5500"]}, None, []),
    "params_c1_enabled_string": (None, None, {"c1_enabled": "false"}, None, []),
    "params_diff_separation_number": (None, None, {"diff_separation": 0}, None, []),
    "config_params_delta_diff_null": (None, None, None, {"params": {"delta_diff": None}}, []),
    "config_seed_list": (None, None, None, {"solver": {"seed": []}}, []),
    "config_seed_fraction": (None, None, None, {"solver": {"seed": 1.5}}, []),
    "config_time_budget_string": (None, None, None, {"solver": {"time_budget_s": "60"}}, []),
    "config_time_budget_infinite":
        (None, None, None, {"solver": {"time_budget_s": float("inf")}}, []),
    "config_command_template_number": (None, None, None, {"solver": {"command_template": 5}}, []),
    "jobs_zero": (None, None, None, None, ["--jobs", "0"]),
    "jobs_negative": (None, None, None, None, ["--jobs", "-3"]),
    "config_trials_fraction": (None, None, None, {"yield": {"trials": 1.5}}, []),
    "config_trials_null": (None, None, None, {"yield": {"trials": None}}, []),
    "config_sigma_bool_list": (None, None, None, {"yield": {"sigma": [True]}}, []),
    "config_yield_seed_bool": (None, None, None, {"yield": {"seed": True}}, []),
    "config_moves_per_temp_fraction":
        (None, None, None, {"solver": {"backend": "anneal",
                                       "anneal": {"moves_per_temp": 1.5, "cooling_rate": 0.5}}}, []),
    "topology_n_qubits_fraction": ({"n_qubits": 2.7, "edges": [[0, 1]]}, None, None, None, []),
    "topology_edge_fraction": ({"n_qubits": 2, "edges": [[0, 1.9]]}, None, None, None, []),
    "topology_unknown_key":
        ({"n_qubits": 2, "edges": [[0, 1]], "couplers": [[0, 1]]}, None, None, None, []),
    "topology_orientation_null":
        ({"n_qubits": 2, "edges": [[0, 1]], "orientation": None}, None, None, None, []),
    "solution_frequency_bool": (None, {**SOLUTION_DOC, "frequencies_mhz": {"0": True, "1": 5100.0}},
                                None, None, []),
    "solution_frequency_string":
        (None, {**SOLUTION_DOC, "frequencies_mhz": {"0": "5300", "1": 5100.0}}, None, None, []),
    "solution_orientation_fraction":
        (None, {**SOLUTION_DOC, "orientations": {"0-1": 0.6}}, None, None, []),
    "solution_orientation_two": (None, {**SOLUTION_DOC, "orientations": {"0-1": 2}}, None, None, []),
    # a reader that skipped the misspelt key would price the coupler with the topology's bit
    "solution_orientation_key_misspelt":
        ({"n_qubits": 2, "edges": [[0, 1]], "orientation": {"0-1": 0}},
         {"status": "feasible", "frequencies_mhz": {"0": 5000.0, "1": 5100.0},
          "orientation": {"0-1": 1}}, None, None, []),
    "seed_negative": (None, None, None, None, ["--seed", "-3"]),
    "seed_beyond_philox_key": (None, None, None, None, ["--seed", str(2**128)]),
    "config_yield_seed_negative": (None, None, None, {"yield": {"seed": -3}}, []),
    "config_params_null": (None, None, None, {"params": None}, []),
    "solution_frequency_key_letter":
        (None, {**SOLUTION_DOC, "frequencies_mhz": {"x": 5000.0, "1": 5100.0}}, None, None, []),
    "solution_frequency_key_leading_zero":
        (None, {**SOLUTION_DOC, "frequencies_mhz": {"0": 5000.0, "01": 5100.0}}, None, None, []),
    # read as one coupler, the second key would silently override the first
    "solution_orientation_key_reversed":
        (None, {**SOLUTION_DOC, "orientations": {"0-1": 0, "1-0": 1}}, None, None, []),
    "topology_orientation_key_reversed":
        ({"n_qubits": 2, "edges": [[0, 1]], "orientation": {"1-0": 0}}, None, None, None, []),
    "topology_wrap_tags_key_letter":
        ({"n_qubits": 2, "edges": [[0, 1]], "wrap_tags": {"a": {}}}, None, None, None, []),
}

# the location that the error line of a case must name
ERROR_NAMES = {
    "topology_n_qubits_fraction": "topology.n_qubits",
    "topology_edge_fraction": "topology.edges[0][1]",
    "topology_unknown_key": "topology.couplers",
    "topology_orientation_null": "topology.orientation",
    "solution_frequency_bool": "solution.frequencies_mhz['0']",
    "solution_frequency_string": "solution.frequencies_mhz['0']",
    "solution_orientation_fraction": "solution.orientations['0-1']",
    "solution_orientation_two": "solution.orientations['0-1']",
    "solution_orientation_key_misspelt": "solution.orientation",
    "seed_negative": "--seed",
    "seed_beyond_philox_key": "--seed",
    "config_yield_seed_negative": "config.yield.seed",
    "config_params_null": "config.params",
    "solution_frequency_key_letter": 'solution.frequencies_mhz key "x"',
    "solution_frequency_key_leading_zero": 'solution.frequencies_mhz key "01"',
    "solution_orientation_key_reversed": 'solution.orientations key "1-0"',
    "topology_orientation_key_reversed": 'topology.orientation key "1-0"',
    "topology_wrap_tags_key_letter": 'topology.wrap_tags key "a"',
}

# a solution of another topology: the 1x2 path's plus a qubit and a coupler it lacks
FOREIGN_KEYS = {
    "frequency": ({**SOLUTION_DOC, "frequencies_mhz": {"0": 5000.0, "1": 4800.0, "7": 1.0}},
                  'solution.frequencies_mhz key "7"'),
    "orientation": ({**SOLUTION_DOC, "orientations": {"0-1": 0, "5-9": 1}},
                    'solution.orientations key "5-9"'),
}


@pytest.mark.parametrize("command", [
    ["verify"], ["yield", "--sigma", "1", "--trials", "10"],
    ["threshold", "--target", "0.5", "--trials", "10", "--max-trials", "10"],
], ids=["verify", "yield", "threshold"])
@pytest.mark.parametrize("case", FOREIGN_KEYS)
def test_solution_must_fit_the_topology(tmp_path, capsys, command, case):
    sol_doc, name = FOREIGN_KEYS[case]
    assert main([*command, *two_qubit_inputs(tmp_path, sol_doc=sol_doc)]) == 2
    assert name in assert_one_error_line(capsys)


# a text flag's value is parsed with the flag, before any input file is read
@pytest.mark.parametrize("argv, name", [
    (["threshold", "--topology", "missing.json", "--solution", "missing.json",
      "--target", "0.5", "--bracket", "1:x"], "--bracket"),
    (["yield", "--topology", "missing.json", "--solution", "missing.json",
      "--sigma", "2,abc"], "--sigma"),
    (["build", "--topology", "missing.json", "--window", "5000"], "--window"),
    (["solve", "--topology", "missing.json", "--budget", "5 min"], "--budget"),
    (["yield", "--topology", "missing.json", "--solution", "missing.json",
      "--config", "c.json"], "config.yield.sigma"),
], ids=["bracket", "sigma", "window", "budget", "config_sigma"])
def test_text_flags_fail_before_inputs_are_read(tmp_path, monkeypatch, capsys, argv, name):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.json").write_text(json.dumps({"yield": {"sigma": "2,abc"}}))
    assert main(argv) == 2
    assert name in assert_one_error_line(capsys)


# (command, --config document) for the commands the table above does not run
MALFORMED_CONFIGS = {
    "topo_rows_fraction": ("topo", {"topology": {"rows": 2.7}}),
    "topo_rows_null": ("topo", {"topology": {"rows": None}}),
    "topo_bc_flip_string": ("topo", {"topology": {"bc": {"name": "c", "x": {"flip": "false"}}}}),
    "topo_bc_shift_fraction": ("topo", {"topology": {"bc": {"name": "c", "x": {"shift": 1.7}}}}),
    "topo_bc_without_name": ("topo", {"topology": {"bc": {"x": {"shift": 1}}}}),
    "topo_bc_axis_list": ("topo", {"topology": {"bc": {"name": "c", "x": []}}}),
    "topo_bc_axis_unknown_key": ("topo", {"topology": {"bc": {"name": "c", "x": {"flipp": True}}}}),
    "topo_bc_unknown_key": ("topo", {"topology": {"bc": {"name": "c", "z": {"shift": 1}}}}),
    "threshold_bracket_one_value": ("threshold", {"yield": {"bracket": [1]}}),
    "threshold_tol_null": ("threshold", {"yield": {"tol_mhz": None}}),
}


def two_qubit_inputs(tmp_path, topo_doc=None, sol_doc=None) -> list[str]:
    """--topology and --solution flags for the 1x2 path (or topo_doc, sol_doc) in tmp_path."""
    topo = tmp_path / "t.json"
    topo.write_text(json.dumps(topo_doc if topo_doc is not None
                               else {"n_qubits": 2, "edges": [[0, 1]]}))
    sol = tmp_path / "s.json"
    sol.write_text(json.dumps(sol_doc if sol_doc is not None else SOLUTION_DOC))
    return ["--topology", str(topo), "--solution", str(sol)]


def assert_one_error_line(capsys) -> str:
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    return err[0]


@pytest.mark.parametrize("case", MALFORMED_INPUTS)
def test_malformed_input_exit_2(tmp_path, capsys, case):
    topo_doc, sol_doc, params_doc, config_doc, flags = MALFORMED_INPUTS[case]
    argv = ["yield", *two_qubit_inputs(tmp_path, topo_doc, sol_doc), "--sigma", "1",
            "--trials", "10", *flags]
    for flag, doc in (("--params", params_doc), ("--config", config_doc)):
        if doc is not None:
            (tmp_path / "in.json").write_text(json.dumps(doc))
            argv += [flag, str(tmp_path / "in.json")]
    assert main(argv) == 2
    assert ERROR_NAMES.get(case, "") in assert_one_error_line(capsys)


@pytest.mark.parametrize("case", MALFORMED_CONFIGS)
def test_malformed_config_exit_2(tmp_path, capsys, case):
    command, doc = MALFORMED_CONFIGS[case]
    (tmp_path / "in.json").write_text(json.dumps(doc))
    argv = {
        "topo": ["topo", "--rows", "3", "--cols", "3", "--out", str(tmp_path / "x.json")],
        "threshold": ["threshold", *two_qubit_inputs(tmp_path), "--target", "0.5",
                      "--trials", "10"],
    }[command]
    assert main([*argv, "--config", str(tmp_path / "in.json")]) == 2
    assert_one_error_line(capsys)


# -- config files ------------------------------------------------------------------

QUICK_ANNEAL = {"anneal": {"cooling_rate": 0.9}}
UNIT_INPUTS = ["--topology", "unit.json", "--solution", "unit_sol.json"]

# (command and its inputs, options as flags, the same options as config sections);
# between them the cases set every key of the topology, model, yield and output sections
CONFIG_EQUALS_FLAGS = {
    "topo_square": (["topo"], ["--kind", "square", "--rows", "3", "--cols", "4", "--bc", "PBC2"],
                    {"topology": {"kind": "square", "rows": 3, "cols": 4, "bc": "PBC2"}}),
    "topo_hex_rings": (["topo"], ["--kind", "hex", "--rings", "2"],
                       {"topology": {"kind": "hex", "rings": 2}}),
    "topo_hex_cells": (["topo"], ["--kind", "hex", "--cells-x", "2", "--cells-y", "3"],
                       {"topology": {"kind": "hex", "cells_x": 2, "cells_y": 3}}),
    "build_fixed": (["build", "--topology", "o2x2.json"], ["--mode", "fixed"],
                    {"model": {"mode": "fixed"}}),
    "solve_fixed": (["solve", "--topology", "o2x2.json", "--backend", "anneal"],
                    ["--mode", "fixed"], {"model": {"mode": "fixed"}}),
    "verify": (["verify", *UNIT_INPUTS], [], {}),
    "yield": (["yield", *UNIT_INPUTS], ["--sigma", "2,5", "--trials", "300", "--seed", "4",
                                        "--jobs", "2"],
              {"yield": {"sigma": [2, 5], "trials": 300, "seed": 4, "jobs": 2}}),
    "threshold": (["threshold", *UNIT_INPUTS],
                  ["--target", "0.5", "--bracket", "1:20", "--tol", "0.5", "--trials", "500",
                   "--seed", "3", "--max-trials", "4000"],
                  {"yield": {"target": 0.5, "bracket": [1, 20], "tol_mhz": 0.5, "trials": 500,
                             "seed": 3, "max_trials": 4000}}),
    "assemble": (["assemble", "--unit", "u3x3.json", "--solution", "unit_sol.json",
                  "--nx", "2", "--ny", "2", "--fill-orientation", "0"],
                 ["--bc", "PBC3", "--sigma", "3,4", "--trials", "200", "--seed", "2"],
                 {"topology": {"bc": "PBC3"}, "yield": {"sigma": "3,4", "trials": 200, "seed": 2}}),
}


@pytest.mark.parametrize("case", CONFIG_EQUALS_FLAGS)
def test_config_equals_flags(tmp_path, monkeypatch, case):
    monkeypatch.chdir(tmp_path)
    assert main(["topo", "--rows", "3", "--cols", "3", "--bc", "PBC1", "--out", "unit.json"]) == 0
    assert main(["topo", "--rows", "3", "--cols", "3", "--out", "u3x3.json"]) == 0
    write_unit_solution(tmp_path)
    oriented = square_grid(2, 2)
    oriented.orientation = uniform_orientation(oriented)
    pathlib.Path("o2x2.json").write_text(oriented.to_json())

    command, flags, sections = CONFIG_EQUALS_FLAGS[case]
    pathlib.Path("flags.cfg").write_text(json.dumps({"solver": QUICK_ANNEAL}))
    pathlib.Path("sections.cfg").write_text(
        json.dumps({"solver": QUICK_ANNEAL, **sections, "output": {"out": "by_config"}}))
    code = main([*command, *flags, "--config", "flags.cfg", "--out", "by_flags"])
    # output.out overrides the --out flag
    assert main([*command, "--config", "sections.cfg", "--out", "ignored"]) == code
    assert not list(tmp_path.glob("ignored*"))

    def artifacts(prefix):
        return {p.name[len(prefix):]: p.read_bytes() for p in tmp_path.glob(prefix + "*")
                if not p.name.endswith(".meta.json")}

    assert artifacts("by_flags") and artifacts("by_config") == artifacts("by_flags")


def test_solve_ignores_the_yield_section(tmp_path, monkeypatch):
    # solve takes its seed from --seed or solver.seed; yield.seed is for yield, threshold, assemble
    monkeypatch.chdir(tmp_path)
    assert main(["topo", "--rows", "1", "--cols", "3", "--out", "p3.json"]) == 0
    runs = {"plain": ({}, []), "yield_seed": ({"yield": {"seed": 5}}, []),
            "seed_flag": ({}, ["--seed", "5"])}
    for name, (sections, flags) in runs.items():
        pathlib.Path(f"{name}.cfg").write_text(json.dumps({"solver": QUICK_ANNEAL, **sections}))
        assert main(["solve", "--topology", "p3.json", "--backend", "anneal", *flags,
                     "--config", f"{name}.cfg", "--out", f"{name}.json"]) == 0
    plain = pathlib.Path("plain.json").read_bytes()
    assert pathlib.Path("yield_seed.json").read_bytes() == plain
    assert pathlib.Path("seed_flag.json").read_bytes() != plain


def test_integer_output_path_names_a_file(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    pathlib.Path("out.cfg").write_text(json.dumps({"output": {"out": 987}}))
    assert main(["topo", "--rows", "2", "--cols", "2", "--config", "out.cfg"]) == 0
    assert Topology.from_json(pathlib.Path("987").read_text()).n_qubits == 4


def test_solve_reverifies_an_imported_solution(tmp_path, capsys):
    # a wrapper that reports both qubits of a coupler at 5000 MHz as optimal
    topo = tmp_path / "p2.json"
    assert main(["topo", "--rows", "1", "--cols", "2", "--out", str(topo)]) == 0
    wrapper = tmp_path / "liar_wrapper.py"
    wrapper.write_text(
        "import json, sys\n"
        "from freqalloc.milp_adapter import main\n"
        "main(sys.argv[1:3])\n"
        "with open(sys.argv[2]) as fh:\n"
        "    doc = json.load(fh)\n"
        "doc['status'] = 'optimal'\n"
        "doc['values'].update(f_0=5000.0, f_1=5000.0)\n"
        "with open(sys.argv[2], 'w') as fh:\n"
        "    json.dump(doc, fh)\n"
    )
    out = tmp_path / "s.json"
    capsys.readouterr()
    assert main(["solve", "--topology", str(topo), "--cmd", f"python3 {wrapper} {{lp}} {{out}}",
                 "--out", str(out)]) == 4
    assert json.loads(out.read_text())["frequencies_mhz"] == {"0": 5000.0, "1": 5000.0}
    assert re.search(r"^FAIL: \d+ of \d+ instances violated at tightened bounds",
                     capsys.readouterr().out, re.M)


# -- assemble ----------------------------------------------------------------------


def test_assemble_clean_exit_0(tmp_path):
    unit_path = tmp_path / "unit.json"
    assert main(["topo", "--kind", "square", "--rows", "3", "--cols", "3",
                 "--out", str(unit_path)]) == 0
    sol_path = write_unit_solution(tmp_path)
    prefix = str(tmp_path / "chip")
    assert main(["assemble", "--unit", str(unit_path), "--solution", str(sol_path),
                 "--bc", "PBC1", "--nx", "2", "--ny", "2", "--sigma", "5",
                 "--trials", "1000", "--out", prefix]) == 0
    asm = ChipAssembly.from_json_dict(json.loads((tmp_path / "chip.chip.json").read_text()))
    assert asm.chip_topology.n_qubits == 36
    report = json.loads((tmp_path / "chip.report.json").read_text())
    assert report["unit_wrap_feasible"] is True
    assert report["check"]["ok"] is True
    yield_lines = (tmp_path / "chip.yield.csv").read_text().strip().splitlines()
    assert len(yield_lines) == 2


def test_assemble_mismatched_bc_exit_4(tmp_path):
    unit_path = tmp_path / "unit.json"
    assert main(["topo", "--kind", "square", "--rows", "3", "--cols", "3",
                 "--out", str(unit_path)]) == 0
    sol_path = write_unit_solution(tmp_path)
    prefix = str(tmp_path / "chip")
    # novel wrap couplers with no direction: usage error
    assert main(["assemble", "--unit", str(unit_path), "--solution", str(sol_path),
                 "--bc", "PBC3", "--nx", "2", "--ny", "2", "--out", prefix]) == 2
    assert main(["assemble", "--unit", str(unit_path), "--solution", str(sol_path),
                 "--bc", "PBC3", "--nx", "2", "--ny", "2",
                 "--fill-orientation", "0", "--out", prefix]) == 4
    report = json.loads((tmp_path / "chip.report.json").read_text())
    assert report["unit_wrap_feasible"] is False
    assert report["check"]["n_violations"] > 0
    assert report["all_violations_on_seams"] is True


def test_assemble_tiles_a_feasible_unit_once(tmp_path, monkeypatch):
    unit_path = tmp_path / "unit.json"
    assert main(["topo", "--kind", "square", "--rows", "3", "--cols", "3",
                 "--out", str(unit_path)]) == 0
    sol_path = write_unit_solution(tmp_path)
    real_tile = cli.tile
    calls = []

    def counting_tile(*args, **kwargs):
        calls.append(args)
        return real_tile(*args, **kwargs)

    monkeypatch.setattr(cli, "tile", counting_tile)
    assert main(["assemble", "--unit", str(unit_path), "--solution", str(sol_path),
                 "--bc", "PBC1", "--nx", "2", "--ny", "2",
                 "--out", str(tmp_path / "chip")]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("flags", [["--sigma", "-1"], ["--trials", "0"], ["--jobs", "0"],
                                   ["--sigma", "2,abc"]], ids=["sigma", "trials", "jobs", "parse"])
def test_assemble_bad_yield_inputs_write_nothing(tmp_path, flags):
    unit_path = tmp_path / "unit.json"
    assert main(["topo", "--kind", "square", "--rows", "3", "--cols", "3",
                 "--out", str(unit_path)]) == 0
    sol_path = write_unit_solution(tmp_path)
    assert main(["assemble", "--unit", str(unit_path), "--solution", str(sol_path),
                 "--nx", "2", "--ny", "2", "--sigma", "5", *flags,
                 "--out", str(tmp_path / "chip")]) == 2
    assert not list(tmp_path.glob("chip.*"))


def test_assemble_rejects_wrapped_unit(tmp_path):
    wrapped_path = tmp_path / "wrapped.json"
    assert main(["topo", "--kind", "square", "--rows", "3", "--cols", "3",
                 "--bc", "PBC1", "--out", str(wrapped_path)]) == 0
    sol_path = write_unit_solution(tmp_path)
    assert main(["assemble", "--unit", str(wrapped_path), "--solution", str(sol_path),
                 "--bc", "PBC1", "--nx", "2", "--ny", "2",
                 "--out", str(tmp_path / "chip")]) == 2


@pytest.mark.parametrize("extra, name", [
    ({"frequencies_mhz": {"42": 1.0}}, 'solution.frequencies_mhz key "42" is not a qubit'),
    ({"orientations": {"7-40": 1}}, 'solution.orientations key "7-40" is not a pair of qubits'),
], ids=["frequency", "orientation"])
def test_assemble_rejects_keys_beyond_the_unit(tmp_path, capsys, extra, name):
    unit_path = tmp_path / "unit.json"
    assert main(["topo", "--rows", "3", "--cols", "3", "--out", str(unit_path)]) == 0
    sol_doc = json.loads(write_unit_solution(tmp_path).read_text())
    for key, entries in extra.items():
        sol_doc[key].update(entries)
    (tmp_path / "unit_sol.json").write_text(json.dumps(sol_doc))
    capsys.readouterr()
    assert main(["assemble", "--unit", str(unit_path), "--solution", str(tmp_path / "unit_sol.json"),
                 "--bc", "PBC1", "--nx", "2", "--ny", "2", "--out", str(tmp_path / "chip")]) == 2
    assert name + " of the unit" in assert_one_error_line(capsys)
    assert not list(tmp_path.glob("chip.*"))


def test_assemble_keeps_in_range_pairs_the_wrap_lacks(tmp_path):
    # a solution of another wrap of the same unit orients couplers this wrap lacks
    unit_path = tmp_path / "unit.json"
    assert main(["topo", "--rows", "3", "--cols", "3", "--out", str(unit_path)]) == 0
    sol_doc = json.loads(write_unit_solution(tmp_path).read_text())
    sol_doc["orientations"]["0-4"] = 1
    (tmp_path / "unit_sol.json").write_text(json.dumps(sol_doc))
    assert main(["assemble", "--unit", str(unit_path), "--solution", str(tmp_path / "unit_sol.json"),
                 "--bc", "PBC1", "--nx", "2", "--ny", "2", "--out", str(tmp_path / "chip")]) == 0


@pytest.mark.parametrize("source", ["flag", "params_file", "config_params"])
def test_assemble_refuses_diff(tmp_path, capsys, source):
    # chip_check does not price DIFF, so a chip report could not cover it
    unit_path = tmp_path / "unit.json"
    assert main(["topo", "--kind", "square", "--rows", "4", "--cols", "4",
                 "--out", str(unit_path)]) == 0
    sol_path = tmp_path / "unit_sol.json"
    unit_doc = json.loads((UNIT_DIR / "pbc1_4x4.json").read_text())
    sol_path.write_text(json.dumps(unit_doc["solution"]))
    diff_params = {**default_params().to_json_dict(), "delta_diff": 2.0}
    (tmp_path / "diff.params.json").write_text(json.dumps(diff_params))
    (tmp_path / "diff.config.json").write_text(json.dumps({"params": diff_params}))
    flags = {"flag": ["--diff", "2"],
             "params_file": ["--params", str(tmp_path / "diff.params.json")],
             "config_params": ["--config", str(tmp_path / "diff.config.json")]}[source]
    capsys.readouterr()
    assert main(["assemble", "--unit", str(unit_path), "--solution", str(sol_path),
                 "--bc", "PBC1", "--nx", "2", "--ny", "2", "--sigma", "2", "--trials", "10",
                 *flags, "--out", str(tmp_path / "chip")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "DIFF" in err[0]
    assert not list(tmp_path.glob("chip.*"))


def test_loading_inputs_closes_files(tmp_path, grid22):
    sol_path = write_unit_solution(tmp_path)
    params_path = tmp_path / "params.json"
    params_path.write_text(json.dumps(default_params().to_json_dict()))
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"yield": {"trials": 10}}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cli._load(str(grid22), "topology", Topology.from_json_dict)
        cli._load(str(sol_path), "solution", Solution.from_json_dict)
        cli.RunConfig.load(str(config_path))
        cli._effective_params(argparse.Namespace(params=str(params_path)), cli.RunConfig())
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


def test_missing_files_exit_2(tmp_path):
    assert main(["build", "--topology", str(tmp_path / "absent.json"),
                 "--out", str(tmp_path / "m.lp")]) == 2
    assert main(["verify", "--topology", str(tmp_path / "absent.json"),
                 "--solution", str(tmp_path / "also_absent.json")]) == 2
