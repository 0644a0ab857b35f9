"""The sign presolve of model.build: the sign table, and optima that must not move."""
import dataclasses
import json
import pathlib

import numpy as np
import pytest

from freqalloc.assembly import preset_bc
from freqalloc.constraints import (
    LINEAR_FORMS,
    ConstraintParams,
    default_params,
    enumerate_records,
    uniform_tightening,
)
from freqalloc.milp_adapter import solve_lp
from freqalloc.model import build, export_lp, import_solution, sign_branch
from freqalloc.topology import Topology, parse_edge_key, square_grid, wrap

from .table_rows import table_rows

UNIT_DIR = pathlib.Path(__file__).parent / "fixtures" / "units"


def pbc1_3x3() -> Topology:
    return wrap(square_grid(3, 3), preset_bc("PBC1"))


def c1_draws(topo: Topology, eps_c1: float, seed: int, want: int):
    """In-window frequencies on a 5 MHz grid with an orientation under which C1 holds.

    Each coupler's control is its higher-frequency qubit, and a random bit
    when the two tie; a draw is kept when every C1 instance of that
    orientation meets its tightened window.
    """
    params = dataclasses.replace(default_params(), eps_tol={"C1": eps_c1})
    rng = np.random.default_rng(seed)
    steps = int(params.window_width // 5) + 1
    kept = []
    while len(kept) < want:
        grid = rng.integers(0, steps, topo.n_qubits) * 5 + params.f_window[0]
        freqs = {q: float(f) for q, f in enumerate(grid)}
        orientation = {}
        for a, b in topo.edges:
            tie = int(rng.integers(2))
            orientation[(a, b)] = tie if freqs[a] == freqs[b] else int(freqs[b] > freqs[a])
        fixed = dataclasses.replace(topo, orientation=orientation)
        c1 = [p for fam, p, _, _ in table_rows(enumerate_records(fixed, "fixed", params))
              if fam == "C1"]
        if all(min(freqs[c] - freqs[t], freqs[t] - freqs[c] - params.alpha) >= eps_c1
               for c, t in c1):
            kept.append((freqs, orientation))
    return kept


def expected_sign(fam, p, orientation) -> int:
    """+1: the form is >= 0, -1: it is <= 0, 0: either; written out per family."""
    if fam in ("A2", "E2", "S2"):
        return 1
    if fam == "E1":
        return -1
    if fam == "A1":  # a < b: a is the control when the bit is 0
        return 1 if orientation[p] == 0 else -1
    if fam == "S1":  # f_t - f_k >= 0 exactly when t drives the (t, k) coupler
        t, k = p[1], p[2]
        t_controls = orientation[(min(t, k), max(t, k))] == (0 if t < k else 1)
        return 1 if t_controls else -1
    return 0


@pytest.mark.parametrize("eps_c1", [0.0, 10.0])
@pytest.mark.parametrize("name, topo", [("grid3x3", square_grid(3, 3)), ("pbc1_3x3", pbc1_3x3())])
def test_sign_table_holds_wherever_c1_does(name, topo, eps_c1):
    params = default_params()
    instances = [r for r in table_rows(enumerate_records(topo, "free", params)) if r[0] != "C1"]
    o_vars = {pair: f"o_{pair[0]}_{pair[1]}" for pair in topo.edges}
    pair_of = {var: pair for pair, var in o_vars.items()}
    seen = {"A1": 0, "A2": 0, "E1": 0, "E2": 0, "S1 t<k": 0, "S1 t>k": 0, "S2": 0}
    for freqs, orientation in c1_draws(topo, eps_c1, seed=20261018, want=150):
        for fam, p, rec_case, pair in instances:
            if rec_case is not None and orientation[pair] != rec_case:
                continue  # the coupler points the other way: the instance is inactive
            roles, k = LINEAR_FORMS[fam]
            value = sum(c * freqs[p[role]] for role, c in roles) + k * params.alpha
            sign = expected_sign(fam, p, orientation)
            branch = sign_branch(fam, p, orientation)
            if sign == 0:
                assert branch is None and sign_branch(fam, p, o_vars) is None
                continue
            assert value * sign >= 0.0, (fam, p, value)
            # fixed mode: only the _p row (0) or only the _n row (1) binds
            assert branch == (0 if sign > 0 else 1)
            # free mode: the row that binds is read off the coupler's o_* bit
            if fam in ("A1", "S1"):
                var, case = sign_branch(fam, p, o_vars)
                assert int(orientation[pair_of[var]] != case) == branch
            else:
                assert sign_branch(fam, p, o_vars) == branch
            if fam == "S1":
                seen["S1 t>k" if p[1] > p[2] else "S1 t<k"] += 1
            else:
                seen[fam] += 1
    assert all(seen.values()), seen


def test_no_presolve_without_c1_or_with_positive_alpha():
    topo = square_grid(2, 2)
    for params in (dataclasses.replace(default_params(), c1_enabled=False),
                   dataclasses.replace(default_params(), alpha=350.0)):
        table = enumerate_records(topo, "free", params)
        m = build(topo, table, params, "free")
        bounded = [r for r in table_rows(table) if r[0] != "C1"]
        assert len(m.binaries()) == len(topo.edges) + len(bounded)


def unit_3x3_fixed() -> Topology:
    doc = json.loads((UNIT_DIR / "pbc1_3x3.json").read_text())
    topo = pbc1_3x3()
    topo.orientation = {parse_edge_key(k): v for k, v in doc["solution"]["orientations"].items()}
    return topo


EPS10 = dataclasses.replace(default_params(), eps_tol=uniform_tightening(10.0))

# (case, topology, params, mode, optimum recorded with one binary per absolute-value
# instance, binaries with the sign presolve); the models had 54, 123, 240, 252, 66
# and 60 binaries without it.  The last three optima were recorded with the
# presolve in place and M = default_big_m; an M of 880 MHz (window + |alpha| +
# the largest base bound) gave 3300, 3770 and 1960 on them.
PINNED = [
    ("p5_free_eps10", lambda: square_grid(1, 5), EPS10, "free", 1870.0, 18),
    ("g2x3_free_eps10", lambda: square_grid(2, 3), EPS10, "free", 1386.6666666666665, 41),
    ("g3x3_free_eps10", lambda: square_grid(3, 3), EPS10, "free", 1365.9999999999998, 80),
    ("pbc1_3x3_unit_fixed_eps10", unit_3x3_fixed, EPS10, "fixed", 1041.9999999999989, 72),
    ("g2x2_diff2", lambda: square_grid(2, 2),
     dataclasses.replace(default_params(), delta_diff=2.0), "free", 1566.0, 26),
    ("g2x2_c1tight", lambda: square_grid(2, 2),
     ConstraintParams.from_json_dict({"eps_tol": {"C1": 6.0, "S1": 2.5}}), "free",
     1570.0000000000077, 20),
    ("p3_free", lambda: Topology(3, [(0, 1), (1, 2)]), default_params(), "free", 3403.0, 8),
    ("star4_free", lambda: Topology(4, [(0, 1), (0, 2), (0, 3)]), default_params(), "free",
     4030.0, 15),
    ("p5_free_c1off", lambda: square_grid(1, 5),
     dataclasses.replace(default_params(), c1_enabled=False), "free", 4720.000000000001, 54),
]


@pytest.mark.parametrize("case, make_topo, params, mode, optimum, binaries",
                         PINNED, ids=[c[0] for c in PINNED])
def test_presolved_optima_pinned(case, make_topo, params, mode, optimum, binaries):
    topo = make_topo()
    model = build(topo, enumerate_records(topo, mode, params), params, mode)
    assert len(model.binaries()) == binaries
    sol = import_solution(json.dumps(solve_lp(export_lp(model))), model)
    assert sol.status == "optimal"
    assert sol.objective_value == pytest.approx(optimum, abs=1e-6)
