"""MILP construction for collision-free frequency assignment.

The model maximizes the sum of per-family slack variables.  Every bounded
family F present in the instance table gets one slack sF, lower-bounded by
its tightened bound and upper-bounded by the largest value its expression
can take inside the frequency window.  Each absolute-value instance
|expr| >= sF, with expr its row's idx/coef/const columns (the family's
LINEAR_FORMS entry), turns into the disjunction

    expr + M*b >= sF        and        -expr + M*(1-b) >= sF

on a binary b; the inactive branch must stay satisfiable for every
in-window point, which is why M (default_big_m) is twice the largest
attainable expression magnitude (ConstraintParams.max_measure) plus margin.
In free-orientation mode each directed instance additionally carries a gate
term M*o or M*(1-o) on its coupler's orientation bit, so only the realized
direction binds.  C1 is a pair of plain window rows (no slack), and DIFF
links auxiliary gap variables d_e = |f_p - f_q| via four big-M rows per
coupler plus one disjunction (or two proximity rows) per coupler pair.

Sign presolve: with C1 enabled and alpha < 0 the drive window fixes the
sign of A2, E2, S2 and E1, which keep one row and no binary, and ties A1
and S1 to a coupler's orientation bit, which replaces b (sign_branch).
Only D1 and T1 keep a fresh binary.

Variable naming is part of the file contract: f_<q> frequencies, s<FAM>
slacks, o_<a>_<b> orientation bits, d_<p>_<q> detuning gaps, b_<k> all other
binaries, numbered in emission order.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .constraints import (
    ASSIGNMENT_FIELDS,
    BOUNDED_FAMILIES,
    TABLE_FAMILIES,
    ConstraintParams,
    FrequencyAssignment,
    InstanceTable,
)
from .jsonio import fields, mapping, number, text
from .topology import Edge, Topology


class SolutionParseError(ValueError):
    """Solver output that does not meet the solution-file contract."""


class IntegralityError(SolutionParseError):
    """A binary variable came back materially non-integral."""


@dataclass
class VarDef:
    name: str
    lb: float
    ub: float
    kind: str  # 'C' continuous, 'B' binary


@dataclass
class RowDef:
    name: str
    coeffs: dict[str, float]
    sense: str  # '>=', '<=', '='
    rhs: float


@dataclass
class Solution:
    """A solved assignment plus the slack values that priced it.

    solver_stats (see import_solution) is not part of the solution file.
    """

    status: str  # optimal | feasible | infeasible | timeout
    frequencies: dict[int, float] = field(default_factory=dict)
    orientations: dict[Edge, int] = field(default_factory=dict)
    slacks: dict[str, float] = field(default_factory=dict)
    objective_value: float | None = None
    solver_stats: dict[str, float] = field(default_factory=dict)

    def as_assignment(self) -> FrequencyAssignment:
        return FrequencyAssignment(
            frequencies=dict(self.frequencies),
            orientations=dict(self.orientations),
        )

    def to_json_dict(self) -> dict:
        return {
            "status": self.status,
            **self.as_assignment().to_json_dict(),
            "slacks_mhz": dict(sorted(self.slacks.items())),
            "objective_mhz": self.objective_value,
        }

    @property
    def solved(self) -> bool:
        """Whether the status carries an assignment (optimal or feasible)."""
        return self.status in ("optimal", "feasible")

    @staticmethod
    def from_json_dict(d: dict, where: str = "solution") -> "Solution":
        # unsolved statuses may omit the assignment part
        f = fields(d, where, _SOLUTION_FIELDS, required=("status",))
        return Solution(f["status"], f.get("frequencies_mhz", {}), f.get("orientations", {}),
                        f.get("slacks_mhz", {}), f.get("objective_mhz"))


_SOLUTION_FIELDS = {**ASSIGNMENT_FIELDS, "status": text, "slacks_mhz": mapping(number),
                    "objective_mhz": lambda v, where: None if v is None else number(v, where)}


@dataclass
class ModelIR:
    """Solver-agnostic model: variables, linear rows, maximize objective."""

    mode: str
    n_qubits: int
    variables: list[VarDef]
    rows: list[RowDef]
    objective: list[str]                # variables maximized with unit weight
    slack_vars: dict[str, str]          # family -> variable name
    slack_base: dict[str, float]        # family -> base bound (objective offset)
    orientation_vars: dict[Edge, str]   # free mode
    orientation_fixed: dict[Edge, int]  # fixed mode

    def binaries(self) -> list[str]:
        return [v.name for v in self.variables if v.kind == "B"]


def default_big_m(params: ConstraintParams) -> float:
    """Safe default: twice the largest expression magnitude plus margin."""
    return 2.0 * max(params.max_measure(fam) for fam in BOUNDED_FAMILIES) + 100.0


def _gated(row: RowDef, gate: tuple[str, int] | None, big_m: float) -> RowDef:
    """Relax the row by M*o (case 0) or M*(1-o) (case 1) in the direction of its sense."""
    if gate is not None:
        ovar, case = gate
        relax = big_m if row.sense == ">=" else -big_m
        if case == 0:
            row.coeffs[ovar] = relax
        else:
            row.coeffs[ovar] = -relax
            row.rhs -= relax
    return row


def linearize_abs_geq(
    name: str,
    expr: dict[str, float],
    const: float,
    slack: str,
    big_m: float,
    branch: tuple[str, int] | int,
    gate: tuple[str, int] | None = None,
) -> list[RowDef]:
    """Rows enforcing |expr + const| >= slack.

    branch = (var, c): the _p row (expr + const >= slack) binds when the
    binary var is c and the _n row when it is 1 - c.  branch = 0 or 1 keeps
    only the _p or only the _n row, for an expression of known sign.
    gate = (orientation var, case): case 0 relaxes the rows by M*o, case 1
    by M*(1-o), so they only bind when the coupler points the instance's way.
    """
    rows = []
    for suffix, sign, case in (("_p", 1.0, 0), ("_n", -1.0, 1)):
        if isinstance(branch, int) and branch != case:
            continue
        row = RowDef(name + suffix, {v: sign * c for v, c in expr.items()}, ">=", -sign * const)
        if not isinstance(branch, int):
            _gated(row, (branch[0], branch[1] ^ case), big_m)
        row.coeffs[slack] = -1.0
        rows.append(_gated(row, gate, big_m))
    return rows


# Family -> the branch C1 fixes (alpha < 0), or the roles (p, q) of a pair
# whose orientation fixes it; D1 and T1 take either sign.
_SIGN_RULES = {"A2": 0, "E2": 0, "S2": 0, "E1": 1, "A1": (0, 1), "S1": (1, 2)}


def sign_branch(family: str, parts, bits: dict[Edge, int] | dict[Edge, str]):
    """The linearize_abs_geq branch of an instance whose sign C1 fixes (alpha < 0), else None.

    parts are the instance's participants in role order.  On a realized
    coupler |f_p - f_q| <= |alpha|, so A2, E2 and S2 are >= 0, E1 is <= 0,
    and A1 = f_a - f_b and S1 = f_t - f_k are >= 0 exactly when their first
    qubit drives the coupler.  bits maps each coupler pair to its
    orientation: 0/1 (fixed mode) or its o_* variable (free mode).
    """
    rule = _SIGN_RULES.get(family)
    if not isinstance(rule, tuple):
        return rule
    a, b = parts[rule[0]], parts[rule[1]]
    bit, case = bits[(min(a, b), max(a, b))], int(a > b)
    return (bit, case) if isinstance(bit, str) else int(bit != case)


def build(
    topo: Topology,
    table: InstanceTable,
    params: ConstraintParams,
    mode: str,
) -> ModelIR:
    """Assemble the MILP for the given instance table.

    Args:
        topo: coupler graph (provides the qubit count and, in fixed mode,
            the orientation used to reconstruct solutions).
        table: output of enumerate_records(topo, mode, params).
        params: bounds, tightenings, window, and DIFF settings.
        mode: "fixed" or "free"; must match how the table was enumerated.

    Rows follow the table: each row's expression is its idx/coef/const
    columns (padding terms skipped), a directed row in free mode is gated on
    the o_* bit of its edge in its case, and the DIFF pairs come last.
    Every disjunction uses M = default_big_m(params).

    Raises:
        ValueError: an empty table for a coupled topology, or a mode
            mismatch with the table.
    """
    if mode not in ("fixed", "free"):
        raise ValueError(f"mode must be 'fixed' or 'free', got {mode!r}")
    if not len(table) and topo.edges:
        raise ValueError("empty instance table for a topology with couplers")
    if mode == "fixed" and topo.edges and topo.orientation is None:
        raise ValueError("fixed mode requires topo.orientation")
    directed = table.case >= 0
    if mode == "fixed" and directed.any():
        bit = np.array([(topo.orientation or {}).get(pair, -1) for pair in table.edges])
        if (bit[table.edge[directed]] != table.case[directed]).any():
            raise ValueError("table carries orientation cases not matching the fixed orientation")

    lo, hi = params.f_window
    M = default_big_m(params)

    present = {TABLE_FAMILIES[c] for c in np.unique(table.family).tolist()}
    fams_present = [fam for fam in BOUNDED_FAMILIES if fam in present]
    slack_vars = {fam: f"s{fam}" for fam in fams_present}
    slack_base = {fam: params.base_bound(fam) for fam in fams_present}

    orientation_vars: dict[Edge, str] = {}
    if mode == "free":
        orientation_vars = {pair: f"o_{pair[0]}_{pair[1]}" for pair in topo.edges}
    presolve = params.c1_enabled and params.alpha < 0
    bits = orientation_vars if mode == "free" else topo.orientation

    rows: list[RowDef] = []
    binaries: list[str] = []
    d_vars: dict[Edge, str] = {}
    fam_counter: dict[str, int] = {}

    def next_binary() -> str:
        name = f"b_{len(binaries)}"
        binaries.append(name)
        return name

    def row_index(fam: str) -> int:
        fam_counter[fam] = fam_counter.get(fam, 0) + 1
        return fam_counter[fam] - 1

    def ensure_gap_var(pair: Edge) -> str:
        if pair in d_vars:
            return d_vars[pair]
        name = f"d_{pair[0]}_{pair[1]}"
        d_vars[pair] = name
        p, q = pair
        b = next_binary()
        fp, fq = f"f_{p}", f"f_{q}"
        tag = f"dabs_{p}_{q}"
        rows.extend([
            RowDef(tag + "_1", {name: 1.0, fp: -1.0, fq: 1.0}, ">=", 0.0),
            RowDef(tag + "_2", {name: 1.0, fp: 1.0, fq: -1.0}, ">=", 0.0),
            RowDef(tag + "_3", {name: 1.0, fp: -1.0, fq: 1.0, b: -M}, "<=", 0.0),
            RowDef(tag + "_4", {name: 1.0, fp: 1.0, fq: -1.0, b: M}, "<=", M),
        ])
        return name

    for fam, parts, edge, case, idx, coef, const in zip(
            np.array(TABLE_FAMILIES, dtype=object)[table.family].tolist(), table.parts.tolist(),
            table.edge.tolist(), table.case.tolist(), table.idx.tolist(), table.coef.tolist(),
            table.const.tolist()):
        gate = (orientation_vars[table.edges[edge]], case) if mode == "free" and case >= 0 else None
        if fam == "C1":
            ctrl, tgt = parts[:2]
            eps = params.tightening("C1")
            i = row_index("C1")
            drive = {f"f_{tgt}": 1.0, f"f_{ctrl}": -1.0}
            rows.append(_gated(RowDef(f"C1_{i}_hi", dict(drive), "<=", -eps), gate, M))
            rows.append(_gated(RowDef(f"C1_{i}_lo", drive, ">=", params.alpha + eps), gate, M))
        else:
            # padding terms (qubit 0, coefficient 0) would overwrite a real f_0 entry
            expr = {f"f_{q}": c for q, c in zip(idx, coef) if c}
            branch = sign_branch(fam, parts, bits) if presolve else None
            rows.extend(
                linearize_abs_geq(
                    f"{fam}_{row_index(fam)}",
                    expr,
                    const,
                    slack_vars[fam],
                    M,
                    (next_binary(), 0) if branch is None else branch,
                    gate,
                )
            )
    for e_k, e_l in table.diff.tolist():
        dk = ensure_gap_var(table.edges[e_k])
        dl = ensure_gap_var(table.edges[e_l])
        i = row_index("DIFF")
        delta = params.delta_diff
        if params.diff_separation:
            b = next_binary()
            rows.append(RowDef(f"DIFF_{i}_p", {dk: 1.0, dl: -1.0, b: M}, ">=", delta))
            rows.append(RowDef(f"DIFF_{i}_n", {dl: 1.0, dk: -1.0, b: -M}, ">=", delta - M))
        else:
            rows.append(RowDef(f"DIFF_{i}_hi", {dk: 1.0, dl: -1.0}, "<=", delta))
            rows.append(RowDef(f"DIFF_{i}_lo", {dl: 1.0, dk: -1.0}, "<=", delta))

    variables: list[VarDef] = [VarDef(f"f_{q}", lo, hi, "C") for q in range(topo.n_qubits)]
    for fam in fams_present:
        variables.append(
            VarDef(slack_vars[fam], params.tightened_bound(fam), params.max_measure(fam), "C")
        )
    for pair in orientation_vars:
        variables.append(VarDef(orientation_vars[pair], 0.0, 1.0, "B"))
    for pair, name in d_vars.items():
        variables.append(VarDef(name, 0.0, params.window_width, "C"))
    for name in binaries:
        variables.append(VarDef(name, 0.0, 1.0, "B"))

    return ModelIR(
        mode=mode,
        n_qubits=topo.n_qubits,
        variables=variables,
        rows=rows,
        objective=list(slack_vars.values()),
        slack_vars=slack_vars,
        slack_base=slack_base,
        orientation_vars=orientation_vars,
        orientation_fixed=dict(topo.orientation or {}) if mode == "fixed" else {},
    )


# -- LP export ----------------------------------------------------------------


def _num(x: float) -> str:
    return format(x + 0.0 if x else 0.0, ".12g")


def _terms(coeffs: dict[str, float]) -> str:
    parts: list[str] = []
    for var, c in coeffs.items():
        body = var if abs(c) == 1 else f"{_num(abs(c))} {var}"
        parts.append(("- " if c < 0 else "+ " if parts else "") + body)
    return " ".join(parts)


def export_lp(model: ModelIR) -> str:
    """Serialize the model in the CPLEX-LP dialect subset.

    Sections: Maximize (the objective variables, unit weights) / Subject To
    / Bounds / Binary / End.  Output is a pure function of the model, so
    repeated exports are byte-identical.
    """
    out: list[str] = ["\\ frequency assignment model", "Maximize"]
    out.append(f" obj: {' + '.join(model.objective)}".rstrip())
    out.append("Subject To")
    for row in model.rows:
        out.append(f" {row.name}: {_terms(row.coeffs)} {row.sense} {_num(row.rhs)}")
    out.append("Bounds")
    for v in model.variables:
        if v.kind == "B":
            continue
        out.append(f" {_num(v.lb)} <= {v.name} <= {_num(v.ub)}")
    binaries = [v.name for v in model.variables if v.kind == "B"]
    if binaries:
        out.append("Binary")
        for name in binaries:
            out.append(f" {name}")
    out.append("End")
    return "\n".join(out) + "\n"


# -- solution import -----------------------------------------------------------


VALID_STATUSES = ("optimal", "feasible", "infeasible", "timeout")
SOLVER_STATS = ("mip_node_count", "mip_gap", "mip_dual_bound")


def _finite_number(raw) -> int | float | None:
    """raw if it is a finite JSON number (not a bool), else None."""
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        return None
    try:
        return raw if math.isfinite(raw) else None
    except OverflowError:  # a JSON integer beyond the float range
        return None


def import_solution(text: str, model: ModelIR) -> Solution:
    """Parse a solver wrapper's JSON output against the model.

    The wrapper contract is {"status": <optimal|feasible|infeasible|timeout>,
    "values": {variable name: number}}.  For solved statuses every model
    variable must be present and binaries must sit within 1e-6 of an
    integer; orientation bits are read from o_* variables in free mode and
    from the model's fixed orientation otherwise.  Finite SOLVER_STATS keys
    go to solver_stats, the dual bound shifted onto the objective's scale;
    other values of them are ignored.

    Raises:
        SolutionParseError: malformed JSON, unknown status, missing variables,
            a value that is not a finite number.
        IntegralityError: a binary farther than 1e-6 from {0, 1}.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SolutionParseError(f"solution is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "status" not in doc:
        raise SolutionParseError("solution JSON must be an object with a 'status' key")
    status = doc["status"]
    if status not in VALID_STATUSES:
        raise SolutionParseError(f"unknown status {status!r}")
    stats = {k: x for k in SOLVER_STATS if (x := _finite_number(doc.get(k))) is not None}
    if "mip_dual_bound" in stats:
        stats["mip_dual_bound"] -= sum(model.slack_base.values())
    if status in ("infeasible", "timeout") and not doc.get("values"):
        return Solution(status=status, solver_stats=stats)

    values = doc.get("values")
    if not isinstance(values, dict):
        raise SolutionParseError("'values' must be an object of variable assignments")
    missing = [v.name for v in model.variables if v.name not in values]
    if missing:
        raise SolutionParseError(f"solution lacks variables: {missing[:5]}")

    parsed: dict[str, float] = {}
    for v in model.variables:
        x = _finite_number(values[v.name])
        if x is None:
            raise SolutionParseError(f"value of {v.name} is not a finite number")
        x = float(x)
        if v.kind == "B":
            nearest = round(x)
            if abs(x - nearest) > 1e-6 or nearest not in (0, 1):
                raise IntegralityError(f"binary {v.name} = {x} is not integral")
            x = float(nearest)
        parsed[v.name] = x

    frequencies = {q: parsed[f"f_{q}"] for q in range(model.n_qubits)}
    if model.mode == "free":
        orientations = {pair: int(parsed[name]) for pair, name in model.orientation_vars.items()}
    else:
        orientations = dict(model.orientation_fixed)
    slacks = {fam: parsed[name] for fam, name in model.slack_vars.items()}
    objective = sum(slacks[fam] - model.slack_base[fam] for fam in slacks)
    return Solution(
        status=status,
        frequencies=frequencies,
        orientations=orientations,
        slacks=slacks,
        objective_value=objective,
        solver_stats=stats,
    )
