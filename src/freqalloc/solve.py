"""Solution backends and independent verification.

Two ways to obtain a Solution: hand the exported LP file to an external
MILP solver through a subprocess wrapper, or run the built-in simulated
annealing fallback for desk-scale instances.  Either way, verify() is the
single source of truth for feasibility: it prices every instance the
solution activates, with exact absolute values and no big-M encoding.
"""
from __future__ import annotations

import math
import os
import random
import shlex
import signal
import subprocess
import tempfile
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path

import numpy as np

from .constraints import (
    ConstraintParams,
    InstanceTable,
    TABLE_FAMILIES,
    ViolationReport,
    price,
)
from .jsonio import fields, integer, number, text
from .model import ModelIR, Solution, export_lp, import_solution
from .topology import Edge


class SolverFailure(RuntimeError):
    """The external solver did not produce a usable solution file."""


DEFAULT_ANNEAL = {
    "init_temp": 50.0,
    "cooling_rate": 0.99,
    "moves_per_temp": 100,
    "freq_step_mhz": 5.0,
}
_FINAL_TEMP = 1e-3

TIMEOUT_GRACE_S = 10.0  # seconds a wrapper may run past its time budget


@dataclass
class SolverConfig:
    """How to obtain solutions.

    backend "external" shells out to command_template, a string with {lp}
    and {out} placeholders (an optional {budget} placeholder receives
    time_budget in seconds).  backend "anneal" runs the built-in local
    search; its schedule is fixed by the anneal settings, so results are a
    deterministic function of the seed, and time_budget is not consulted.
    """

    backend: str = "external"
    command_template: str = ""
    time_budget: float = 60.0
    seed: int = 0
    anneal: dict = field(default_factory=lambda: dict(DEFAULT_ANNEAL))

    def __post_init__(self) -> None:
        if self.backend not in ("external", "anneal"):
            raise ValueError(f"unknown backend {self.backend!r}")
        if not self.time_budget > 0:
            raise ValueError("time_budget must be > 0")
        unknown = sorted(set(self.anneal) - set(DEFAULT_ANNEAL))
        if unknown:
            raise ValueError(f"unknown anneal settings {unknown}")
        self.anneal = {**DEFAULT_ANNEAL, **self.anneal}
        if not 0.0 < self.anneal["cooling_rate"] < 1.0:
            raise ValueError("cooling_rate must be in (0, 1)")
        if self.anneal["init_temp"] <= 0:
            raise ValueError("init_temp must be > 0")
        moves = self.anneal["moves_per_temp"]
        if not isinstance(moves, int) or moves < 1:
            raise ValueError(f"moves_per_temp must be an integer >= 1, got {moves!r}")
        if self.anneal["freq_step_mhz"] <= 0:
            raise ValueError("freq_step_mhz must be > 0")

    @staticmethod
    def from_json_dict(d: dict, where: str = "solver") -> "SolverConfig":
        f = fields(d, where, _SOLVER_FIELDS)
        if "time_budget_s" in f:
            f["time_budget"] = f.pop("time_budget_s")
        return SolverConfig(**f)


_ANNEAL_FIELDS = {"init_temp": number, "cooling_rate": number, "moves_per_temp": integer,
                  "freq_step_mhz": number}
_SOLVER_FIELDS = {"backend": text, "command_template": text, "time_budget_s": number,
                  "seed": integer, "anneal": partial(fields, spec=_ANNEAL_FIELDS)}


def solve_external(model: ModelIR, cfg: SolverConfig) -> Solution:
    """Write the LP, run the wrapper command, parse its solution file.

    The wrapper is invoked as the shell-split command_template with {lp}
    and {out} substituted (and {budget} if present).  Temp files live in a
    private directory under the usual TMPDIR rules.  A wrapper that exits
    nonzero but still writes a solution file is trusted (solvers often exit
    nonzero on infeasible models); no file means SolverFailure.  A wrapper
    that outlives time_budget by TIMEOUT_GRACE_S, or whose wait is
    interrupted, is killed with its whole process group; after a timeout
    whatever solution file exists is used, else status is timeout.
    """
    if cfg.backend != "external":
        raise ValueError("solve_external needs backend 'external'")
    if "{lp}" not in cfg.command_template or "{out}" not in cfg.command_template:
        raise ValueError("command template must contain {lp} and {out}")

    with tempfile.TemporaryDirectory(prefix="freqalloc-") as tmp:
        lp_path = Path(tmp) / "model.lp"
        out_path = Path(tmp) / "solution.json"
        lp_path.write_text(export_lp(model), encoding="utf-8")
        tokens = [
            tok.replace("{lp}", str(lp_path))
            .replace("{out}", str(out_path))
            .replace("{budget}", format(cfg.time_budget, ".6g"))
            for tok in shlex.split(cfg.command_template)
        ]
        try:
            proc = subprocess.Popen(tokens, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                    text=True, start_new_session=True)
        except FileNotFoundError as exc:
            raise SolverFailure(f"solver command not found: {tokens[0]}") from exc
        timed_out = False
        try:
            stdout, stderr = proc.communicate(timeout=cfg.time_budget + TIMEOUT_GRACE_S)
        except subprocess.TimeoutExpired:
            timed_out = True
        finally:
            # the wrapper's own children (the solver itself) share its process group
            if proc.returncode is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()

        if not out_path.exists():
            if timed_out:
                return Solution(status="timeout")
            tail = (stderr or stdout or "").strip()[-500:]
            raise SolverFailure(
                f"solver exited {proc.returncode} without a solution file: {tail}"
            )
        return import_solution(out_path.read_text(encoding="utf-8"), model)


# -- independent verification ---------------------------------------------------


def verify(solution: Solution, table: InstanceTable, params: ConstraintParams, tightened: bool,
           tol: float = 1e-6) -> ViolationReport:
    """Price every instance of the table that the solution activates.

    Directed rows count only when the solution's orientation selects their
    case.  tightened=True checks the optimization-time bounds (base + eps,
    C1 window shrunk, DIFF at delta_diff); False checks the physical base
    bounds.  MILP solvers satisfy constraints only to their feasibility
    tolerance, so an instance counts as violated when its margin drops
    below -tol; pass tol=0 for the strict reading.  Raises ValueError for the
    first directed row's coupler without an orientation, then for the
    lowest-numbered qubit without a frequency that an active row or a DIFF
    pair reads.
    """
    bits = [solution.orientations.get(pair) for pair in table.edges]
    directed = table.case >= 0
    unset = directed & np.array([b is None for b in bits], dtype=bool)[table.edge]
    if unset.any():
        pair = table.edges[table.edge[unset.argmax()]]
        raise ValueError(f"solution lacks an orientation for coupler {pair}")
    # a bit other than 0 and 1 selects neither case
    rows = ~directed | (np.array([b if b in (0, 1) else 2 for b in bits])[table.edge] == table.case)

    freqs = solution.frequencies
    lacking = np.array([q not in freqs for q in range(table.n_qubits)], dtype=bool)
    if lacking.any():
        read = np.zeros_like(lacking)  # the qubits an active row or a DIFF pair reads
        read[table.parts[rows][np.arange(3) < table.n_parts[rows][:, None]]] = True
        read[np.array(table.edges, dtype=np.intp).reshape(-1, 2)[table.diff.ravel()]] = True
        if (lacking & read).any():
            raise ValueError(f"solution lacks a frequency for qubit {(lacking & read).argmax()}")
    x = np.array([freqs.get(q, 0.0) for q in range(table.n_qubits)], dtype=float)
    return price(table, x, rows, params, tightened, tol)


# -- simulated annealing fallback ------------------------------------------------


def _snap(value: float, lo: float, hi: float, step: float) -> float:
    snapped = lo + round((value - lo) / step) * step
    return min(hi, max(lo, snapped))


class _AnnealState:
    """Current assignment plus per-instance margins, updated incrementally.

    Instance i is row i of the table, then DIFF pair i - (number of rows).
    A move is a list of (container, key, new value) edits of freqs (keyed by
    qubit) or orient (keyed by coupler pair); touches maps each such key to
    the instances whose margin the edit can change.  The per-instance data
    are plain Python lists, so a move prices its instances without NumPy
    scalars.
    """

    def __init__(
        self,
        table: InstanceTable,
        params: ConstraintParams,
        rng: random.Random,
        step: float,
    ):
        self.params = params
        edges = table.edges
        self.parts = [tuple(p[:n]) for p, n in zip(table.parts.tolist(), table.n_parts.tolist())]
        self.parts += [edges[e_k] + edges[e_l] for e_k, e_l in table.diff.tolist()]
        self.qubits = sorted({q for p in self.parts for q in p})
        lo, hi = params.f_window
        self.freqs = {q: _snap(rng.uniform(lo, hi), lo, hi, step) for q in self.qubits}

        # the coupler pair and case that gate each directed instance, None otherwise
        self.gates = [(edges[e], c) if c >= 0 else None
                      for e, c in zip(table.edge.tolist(), table.case.tolist())]
        self.gates += [None] * len(table.diff)
        cases: dict[Edge, set[int]] = {}
        self.touches: dict[int | Edge, list[int]] = {}
        for i, (parts, gate) in enumerate(zip(self.parts, self.gates)):
            keys = list(parts)
            if gate is not None:
                cases.setdefault(gate[0], set()).add(gate[1])
                keys.append(gate[0])
            for key in keys:
                self.touches.setdefault(key, []).append(i)
        self.orient: dict[Edge, int] = {}
        self.flippable: list[Edge] = []
        for pair in sorted(cases):
            options = cases[pair]
            if len(options) == 2:
                self.orient[pair] = rng.randint(0, 1)
                self.flippable.append(pair)
            else:
                self.orient[pair] = next(iter(options))

        # (qubit terms, constant, tightened bound); C1 and DIFF have no terms
        tightening = np.array([params.tightening(f) for f in TABLE_FAMILIES])
        self.forms = [
            (None if c1 else [(q, c) for q, c in zip(idx, coef) if c], const, bound)
            for c1, idx, coef, const, bound in zip(
                table.c1.tolist(), table.idx.tolist(), table.coef.tolist(), table.const.tolist(),
                (table.bound + tightening[table.family]).tolist())
        ]
        self.forms += [(None, 0.0, params.tightened_bound("DIFF"))] * len(table.diff)
        self.margins = [0.0] * len(self.parts)
        self.viol_sum = 0.0
        for i in range(len(self.parts)):
            self.margins[i] = self._margin(i)
            if self.margins[i] < 0:
                self.viol_sum += -self.margins[i]

    def _margin(self, i: int) -> float:
        gate = self.gates[i]
        if gate is not None and self.orient[gate[0]] != gate[1]:
            return float("inf")  # inactive instances never contribute
        terms, const, bound = self.forms[i]
        f = self.freqs
        if terms is None:
            p = self.parts[i]
            if len(p) == 2:  # C1
                fc, ft = f[p[0]], f[p[1]]
                return min(fc - ft, ft - fc - self.params.alpha) - bound
            gap = abs(abs(f[p[0]] - f[p[1]]) - abs(f[p[2]] - f[p[3]]))  # DIFF
            return gap - bound if self.params.diff_separation else bound - gap
        value = 0.0
        for q, c in terms:
            value += c * f[q]
        return abs(value + const) - bound

    def energy(self) -> float:
        if self.viol_sum > 0:
            return self.viol_sum
        return -1e-3 * min(self.margins)

    def apply(self, edits: list[tuple]) -> tuple[list[tuple], float]:
        """Make the edits, re-evaluate the instances they touch, and return the undo."""
        touched: set[int] = set()
        for _, key, _ in edits:
            touched.update(self.touches[key])
        undo = [(c, key, c[key]) for c, key, _ in edits]
        undo += [(self.margins, i, self.margins[i]) for i in touched]
        viol_before = self.viol_sum
        for c, key, value in edits:
            c[key] = value
        for i in touched:
            old = self.margins[i]
            new = self._margin(i)
            if old < 0:
                self.viol_sum -= -old
            if new < 0:
                self.viol_sum += -new
            self.margins[i] = new
        # incremental float drift must never fake (in)feasibility near zero
        if self.viol_sum < 1e-9:
            self.viol_sum = sum(-m for m in self.margins if m < 0)
        return undo, viol_before

    def undo(self, edits: list[tuple], viol_sum: float) -> None:
        for c, key, value in edits:
            c[key] = value
        self.viol_sum = viol_sum


def solve_anneal(
    table: InstanceTable,
    params: ConstraintParams,
    cfg: SolverConfig,
) -> Solution:
    """Simulated annealing over grid frequencies and orientation bits.

    Energy is the total violation magnitude at tightened bounds; once that
    reaches zero a small reward proportional to the minimum margin keeps
    pushing instances apart.  Moves are single-qubit Gaussian frequency
    jumps (snapped to the freq_step grid), orientation flips for couplers
    whose instances carry both cases, and frequency swaps between two qubits,
    accepted by the Metropolis rule under a geometric temperature schedule.
    The schedule is fixed by the config, so the result is a deterministic
    function of the seed; status is "feasible" only when the best state has
    zero violations, "timeout" otherwise (the search proves nothing about
    infeasibility).  Status, slacks (verify's family_min) and objective come
    from one verify of the best state.
    """
    if cfg.backend != "anneal":
        raise ValueError("solve_anneal needs backend 'anneal'")
    rng = random.Random(cfg.seed)
    step = float(cfg.anneal["freq_step_mhz"])
    lo, hi = params.f_window

    state = _AnnealState(table, params, rng, step)
    if not state.qubits:
        return Solution(status="feasible", frequencies={}, orientations={}, slacks={},
                        objective_value=0.0)

    energy = state.energy()
    best_energy = energy
    best_freqs = dict(state.freqs)
    best_orient = dict(state.orient)

    temp = float(cfg.anneal["init_temp"])
    cooling = float(cfg.anneal["cooling_rate"])
    per_level = cfg.anneal["moves_per_temp"]

    while temp > _FINAL_TEMP:
        for _ in range(per_level):
            kind = rng.random()
            if kind < 0.7 or (len(state.qubits) < 2 and not state.flippable):
                q = rng.choice(state.qubits)
                new = _snap(state.freqs[q] + rng.gauss(0.0, step), lo, hi, step)
                if new == state.freqs[q]:
                    continue
                edits = [(state.freqs, q, new)]
            elif kind < 0.85 and state.flippable:
                pair = rng.choice(state.flippable)
                edits = [(state.orient, pair, 1 - state.orient[pair])]
            elif len(state.qubits) >= 2:
                qa, qb = rng.sample(state.qubits, 2)
                fa, fb = state.freqs[qa], state.freqs[qb]
                if fa == fb:
                    continue
                edits = [(state.freqs, qa, fb), (state.freqs, qb, fa)]
            else:
                continue

            saved = state.apply(edits)
            new_energy = state.energy()
            delta = new_energy - energy
            if delta <= 0 or rng.random() < math.exp(-delta / temp):
                energy = new_energy
                if energy < best_energy:
                    best_energy = energy
                    best_freqs = dict(state.freqs)
                    best_orient = dict(state.orient)
            else:
                state.undo(*saved)
        temp *= cooling

    best = Solution(status="feasible", frequencies=best_freqs, orientations=best_orient)
    report = verify(best, table, params, tightened=True, tol=0.0)
    objective = (sum(v - params.base_bound(f) for f, v in report.family_min.items())
                 if report.ok else None)
    return replace(best, status="feasible" if report.ok else "timeout",
                   slacks=report.family_min, objective_value=objective)
