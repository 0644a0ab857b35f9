"""Collision constraint families for cross-resonance transmon lattices.

All frequencies are in MHz.  A gate on the directed coupler control -> target
drives the control qubit at the target's frequency, so the drive frequency
tracks the target.  The families and their measured expressions are:

    A1  |f_a - f_b|                coupled pair addressable (undirected)
    A2  |f_a - f_b - alpha|        pair vs two-photon transition (undirected)
    C1  f_c + alpha <= f_t <= f_c  drive inside the control's band (window)
    E1  |f_t - f_c|                drive off the control's 0-1 line
    E2  |f_t - f_c - alpha|        drive off the control's 1-2 line
    D1  |f_t - f_c - alpha/2|      drive off the control's two-photon point
    S1  |f_t - f_k|                drive vs spectator 0-1
    S2  |f_t - f_k - alpha|        drive vs spectator 1-2
    T1  |f_t + f_k - 2 f_c - alpha|  drive+spectator two-photon process
    DIFF ||f_p - f_q| - |f_u - f_v||  detuning gaps of disjoint couplers

Undirected families use the canonical stored order (low id first).  Spectators
k of a drive control -> target are the distinct neighbors of the target other
than the control.  This convention is unchecked against the source paper, whose
collision table was not available offline; Hertzberg et al. (2021) and Morvan
et al. (2022) are recalled, not checked, to take the control's other neighbors
(ROADMAP, Finding 4).  Every family except C1 and DIFF is a lower bound on an
absolute value; C1 is a hard window (no slack) and DIFF separates (or, with
diff_separation=False, pins together) the absolute detunings of vertex-disjoint
coupler pairs.

LINEAR_FORMS is the single encoding of the bounded families' expressions:
model building, checking, verification, the annealer and the yield sampler
all read it.  Its term order fixes the variable order of the LP rows and the
summation order of the yield sums, so reordering terms changes artifacts.

instance_table lays out every instance except DIFF as array columns in one
pass, and enumerate_records adds the DIFF pairs as an edge-index column.
The table is the one form of a constraint instance: price prices it for
check and solve.verify, and the yield sampler, the model builder and the
annealer read its columns.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .jsonio import array, bit, boolean, fields, index_key, mapping, number
from .topology import Edge, Topology, edge_key, parse_edge_key

# Families carrying a slack lower bound, in canonical emission order.
BOUNDED_FAMILIES = ("A1", "A2", "E1", "E2", "D1", "S1", "S2", "T1")

DEFAULT_BOUNDS = {
    "A1": 17.0,
    "A2": 30.0,
    "E1": 17.0,
    "E2": 30.0,
    "D1": 2.0,
    "S1": 17.0,
    "S2": 25.0,
    "T1": 17.0,
}

# Bounded family -> ((participant role, coefficient), ...) and the constant as
# a multiple of alpha: the record bounds |sum(coef * f[role]) + k * alpha|.
LINEAR_FORMS: dict[str, tuple[tuple[tuple[int, float], ...], float]] = {
    "A1": (((0, 1.0), (1, -1.0)), 0.0),
    "A2": (((0, 1.0), (1, -1.0)), -1.0),
    "E1": (((1, 1.0), (0, -1.0)), 0.0),
    "E2": (((1, 1.0), (0, -1.0)), -1.0),
    "D1": (((1, 1.0), (0, -1.0)), -0.5),
    "S1": (((1, 1.0), (2, -1.0)), 0.0),
    "S2": (((1, 1.0), (2, -1.0)), -1.0),
    "T1": (((1, 1.0), (2, 1.0), (0, -2.0)), -1.0),
}


@dataclass
class ConstraintParams:
    """Numeric knobs shared by model building, checking, and sampling.

    Attributes:
        base_bounds: family -> minimum separation in MHz; families absent
            from the map are not enforced.  C1 never appears here (windowed,
            not bounded).
        alpha: transmon anharmonicity in MHz (negative).
        eps_tol: family -> constraint tightening in MHz added on top of the
            base bound at optimization time; a C1 entry shrinks the drive
            window symmetrically.
        delta_diff: detuning-gap separation in MHz; 0 disables the DIFF
            family entirely.
        f_window: inclusive frequency window (lo, hi) in MHz.
        c1_enabled: drop the drive window entirely when False.
        diff_separation: True keeps |gap_k - gap_l| >= delta_diff; False
            restores the proximity reading |gap_k - gap_l| <= delta_diff.
    """

    base_bounds: dict[str, float] = field(default_factory=lambda: dict(DEFAULT_BOUNDS))
    alpha: float = -350.0
    eps_tol: dict[str, float] = field(default_factory=dict)
    delta_diff: float = 0.0
    f_window: tuple[float, float] = (5000.0, 5500.0)
    c1_enabled: bool = True
    diff_separation: bool = True

    def __post_init__(self) -> None:
        numbers = [*self.base_bounds.values(), *self.eps_tol.values(),
                   self.alpha, self.delta_diff, *self.f_window]
        if not all(math.isfinite(x) for x in numbers):
            raise ValueError("bounds, tightenings, alpha, delta_diff and f_window must be finite")
        for fam, b in self.base_bounds.items():
            if fam not in BOUNDED_FAMILIES:
                raise ValueError(f"unknown bounded family {fam!r}")
            if b < 0:
                raise ValueError(f"negative bound for {fam}")
        for fam, e in self.eps_tol.items():
            if fam not in BOUNDED_FAMILIES + ("C1",):
                raise ValueError(f"unknown family {fam!r} in eps_tol")
            if e < 0:
                raise ValueError(f"negative tightening for {fam}")
        if self.alpha == 0:
            raise ValueError("alpha must be nonzero")
        if self.delta_diff < 0:
            raise ValueError("delta_diff must be >= 0")
        lo, hi = self.f_window
        if not lo < hi:
            raise ValueError("f_window must satisfy lo < hi")
        self.f_window = (float(lo), float(hi))

    @property
    def window_width(self) -> float:
        return self.f_window[1] - self.f_window[0]

    def base_bound(self, family: str) -> float:
        if family == "C1":
            return 0.0
        if family == "DIFF":
            return self.delta_diff
        return self.base_bounds[family]

    def tightening(self, family: str) -> float:
        return self.eps_tol.get(family, 0.0)

    def tightened_bound(self, family: str) -> float:
        return self.base_bound(family) + self.tightening(family)

    def max_measure(self, family: str) -> float:
        """Largest value the family's absolute expression can take in-window."""
        # the coefficients sum to zero, so the terms span sum|c|/2 window widths
        terms, k = LINEAR_FORMS[family]
        return sum(abs(c) for _, c in terms) / 2.0 * self.window_width + abs(k * self.alpha)

    # -- serialization ----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "base_bounds": dict(sorted(self.base_bounds.items())),
            "alpha": self.alpha,
            "eps_tol": dict(sorted(self.eps_tol.items())),
            "delta_diff": self.delta_diff,
            "f_window": list(self.f_window),
            "c1_enabled": self.c1_enabled,
            "diff_separation": self.diff_separation,
        }

    @staticmethod
    def from_json_dict(d: dict, where: str = "params") -> "ConstraintParams":
        return ConstraintParams(**fields(d, where, _PARAMS_FIELDS))


_PARAMS_FIELDS = {"base_bounds": mapping(number), "alpha": number, "eps_tol": mapping(number),
                  "delta_diff": number, "f_window": array(number, 2), "c1_enabled": boolean,
                  "diff_separation": boolean}


def default_params() -> ConstraintParams:
    """Stock bounds: A1 17, A2 30, E1 17, E2 30, D1 2, S1 17, S2 25, T1 17 MHz."""
    return ConstraintParams()


def uniform_tightening(eps: float) -> dict[str, float]:
    """Tightening map applying eps to every bounded family except D1."""
    return {fam: eps for fam in BOUNDED_FAMILIES if fam != "D1"}


@dataclass
class FrequencyAssignment:
    """Qubit frequencies in MHz plus realized coupler directions."""

    frequencies: dict[int, float]
    orientations: dict[Edge, int] = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "frequencies_mhz": {str(q): f for q, f in sorted(self.frequencies.items())},
            "orientations": {edge_key(*e): bit for e, bit in sorted(self.orientations.items())},
        }

    @staticmethod
    def from_json_dict(d: dict, where: str = "assignment") -> "FrequencyAssignment":
        f = fields(d, where, ASSIGNMENT_FIELDS, required=("frequencies_mhz",))
        return FrequencyAssignment(f["frequencies_mhz"], f.get("orientations", {}))


# the assignment part of assignment and solution files
ASSIGNMENT_FIELDS = {"frequencies_mhz": mapping(number, index_key),
                     "orientations": mapping(bit, parse_edge_key)}


# -- enumeration -------------------------------------------------------------

# Family codes of the instance table: its family column indexes this tuple.
TABLE_FAMILIES = ("A1", "A2", "C1", "E1", "E2", "D1", "S1", "S2", "T1")

# LINEAR_FORMS per family code: term roles and coefficients padded to three
# with (role 0, coefficient 0), and the constant's multiple of alpha; C1 has none.
_FORMS = [LINEAR_FORMS.get(fam, ((), 0.0)) for fam in TABLE_FAMILIES]
_ROLE = np.array([[r for r, _ in terms] + [0] * (3 - len(terms)) for terms, _ in _FORMS])
_COEF = np.array([[c for _, c in terms] + [0.0] * (3 - len(terms)) for terms, _ in _FORMS])
_K = np.array([k for _, k in _FORMS])


@dataclass(frozen=True, eq=False)  # arrays have no single truth value
class InstanceTable:
    """Every instance as array columns: one row per instance except DIFF, then the DIFF pairs.

    family indexes TABLE_FAMILIES; parts holds the participants in role order
    (the first n_parts are real, the rest 0); case is the orientation case,
    -1 for undirected rows.  Each row's expression is sum(coef * f[idx]) +
    const, the LINEAR_FORMS entry with padding qubit 0 and coefficient 0 (all
    zero for C1), and bound is the family's base bound (0 for C1).  edge is
    the index into edges of the row's coupler; a directed row is active when
    that coupler's orientation bit equals its case.  diff rows are the edge
    indexes (i, j) of two vertex-disjoint couplers, whose DIFF participants
    are edges[i] + edges[j].
    """

    family: np.ndarray   # (n,)
    parts: np.ndarray    # (n, 3)
    n_parts: np.ndarray  # (n,)
    edge: np.ndarray     # (n,)
    case: np.ndarray     # (n,)
    idx: np.ndarray      # (n, 3)
    coef: np.ndarray     # (n, 3)
    const: np.ndarray    # (n,)
    bound: np.ndarray    # (n,)
    diff: np.ndarray     # (n_diff, 2)
    edges: list[Edge]
    n_qubits: int

    @property
    def c1(self) -> np.ndarray:
        return self.family == TABLE_FAMILIES.index("C1")

    def __len__(self) -> int:
        return len(self.family) + len(self.diff)


def instance_table(
    topo: Topology, orientation: dict[Edge, int] | None, params: ConstraintParams
) -> InstanceTable:
    """Build the instance table in one array pass.

    orientation selects one orientation case per coupler pair; None emits
    both cases of every coupler.  Per edge index the rows are A1, A2, then
    per case C1, E1, E2, D1 and S1, S2, T1 for each spectator in ascending
    order: the target's distinct neighbors other than the control.
    """
    n, edges = topo.n_qubits, np.array(topo.edges, dtype=np.intp).reshape(-1, 2)
    n_cases = 2 if orientation is None else 1
    # the distinct neighbors of qubit q, ascending, are nbr[ptr[q]:ptr[q + 1]]
    key = np.unique(np.concatenate((edges, edges[:, ::-1])) @ np.array([n, 1]))
    nbr, ptr = key % n, np.searchsorted(key // n, np.arange(n + 1))
    undirected = [f for f in ("A1", "A2") if f in params.base_bounds]
    direct = ["C1"] * params.c1_enabled + [f for f in ("E1", "E2", "D1") if f in params.base_bounds]
    spect = [f for f in ("S1", "S2", "T1") if f in params.base_bounds]

    # one block of directed rows per (edge, case), edge-major
    blk_edge = np.repeat(np.arange(len(edges)), n_cases)
    case = (np.tile([0, 1], len(edges)) if orientation is None
            else np.array([orientation[pair] for pair in topo.edges], dtype=np.intp))
    a, b = edges[blk_edge, 0], edges[blk_edge, 1]
    ctrl, tgt = np.where(case == 0, a, b), np.where(case == 0, b, a)
    deg = np.diff(ptr)[tgt]
    # per edge a segment of undirected rows, then one segment per block; the
    # first row of each segment is the number of rows before it
    seg = np.column_stack((np.full(len(edges), len(undirected)),
                           (len(direct) + len(spect) * (deg - 1)).reshape(-1, n_cases)))
    start = (np.cumsum(seg) - seg.ravel()).reshape(seg.shape)
    rows = int(seg.sum())
    family, n_parts, edge = (np.zeros(rows, np.intp) for _ in range(3))
    parts, cases = np.zeros((rows, 3), np.intp), np.full(rows, -1)

    def put(pos, fams, cols, e, c):
        family[pos] = [TABLE_FAMILIES.index(f) for f in fams]
        for j, col in enumerate(cols):
            parts[pos, j] = col[:, None]
        n_parts[pos], edge[pos], cases[pos] = len(cols), e[:, None], c[:, None]

    put(start[:, :1] + np.arange(len(undirected)), undirected, edges.T,
        np.arange(len(edges)), np.full(len(edges), -1))
    blk_start = start[:, 1:].ravel()
    put(blk_start[:, None] + np.arange(len(direct)), direct, (ctrl, tgt), blk_edge, case)
    # spectator k of a block: each neighbor of its target but the control; s
    # numbers the spectators within the block
    blk = np.repeat(np.arange(len(tgt)), deg)
    k = nbr[np.arange(len(blk)) + np.repeat(ptr[tgt] - (np.cumsum(deg) - deg), deg)]
    keep = k != ctrl[blk]
    blk, k = blk[keep], k[keep]
    s = np.arange(len(blk)) - np.repeat(np.cumsum(deg - 1) - (deg - 1), deg - 1)
    put((blk_start[blk] + len(direct) + s * len(spect))[:, None] + np.arange(len(spect)),
        spect, (ctrl[blk], tgt[blk], k), blk_edge[blk], case[blk])

    coef = _COEF[family]
    bounds = np.array([params.base_bounds.get(fam, 0.0) for fam in TABLE_FAMILIES])
    return InstanceTable(
        family, parts, n_parts, edge, cases,
        idx=np.where(coef != 0, np.take_along_axis(parts, _ROLE[family], axis=1), 0),
        coef=coef, const=_K[family] * params.alpha, bound=bounds[family],
        diff=np.empty((0, 2), np.intp), edges=topo.edges, n_qubits=n,
    )


def enumerate_records(topo: Topology, mode: str, params: ConstraintParams) -> InstanceTable:
    """Every constraint instance of the topology, as one instance table.

    Args:
        topo: coupler graph; fixed mode requires topo.orientation to cover
            every coupler pair.
        mode: "fixed" emits directed instances only for the given
            orientation; "free" emits both orientation cases of every
            directed instance so a model can gate them on orientation bits.
        params: families, bounds, and the DIFF setting.

    Returns:
        The rows of instance_table, then, when delta_diff > 0, every
        vertex-disjoint coupler pair as a DIFF instance, lexicographically.
    """
    if mode not in ("fixed", "free"):
        raise ValueError(f"mode must be 'fixed' or 'free', got {mode!r}")
    if mode == "fixed":
        if topo.orientation is None:
            raise ValueError("fixed mode requires topo.orientation")
        missing = topo.edge_pairs() - set(topo.orientation)
        if missing:
            raise ValueError(f"fixed mode lacks orientation for {sorted(missing)}")

    t = instance_table(topo, topo.orientation if mode == "fixed" else None, params)
    return replace(t, diff=edge_difference_pairs(topo)) if params.delta_diff > 0 else t


def edge_difference_pairs(topo: Topology) -> np.ndarray:
    """Vertex-disjoint coupler pairs as rows (edge_index, edge_index), i < j, ascending."""
    a, b = np.array(topo.edges, dtype=np.intp).reshape(-1, 2).T
    apart = (a[:, None] != a) & (a[:, None] != b) & (b[:, None] != a) & (b[:, None] != b)
    return np.argwhere(np.triu(apart, 1))


# -- checking ---------------------------------------------------------------


@dataclass
class Violation:
    family: str
    participants: tuple[int, ...]
    measured: float
    bound: float
    margin: float

    def to_json_dict(self) -> dict:
        return {
            "family": self.family,
            "participants": list(self.participants),
            "measured_mhz": self.measured,
            "bound_mhz": self.bound,
            "margin_mhz": self.margin,
        }


@dataclass
class ViolationReport:
    n_instances: int
    violations: list[Violation]
    min_margin: float
    family_min: dict[str, float] = field(default_factory=dict)  # price's; not serialized

    @property
    def ok(self) -> bool:
        return not self.violations

    def family_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for v in self.violations:
            counts[v.family] = counts.get(v.family, 0) + 1
        return counts

    def to_json_dict(self) -> dict:
        return {
            "ok": self.ok,
            "n_instances": self.n_instances,
            "n_violations": len(self.violations),
            "min_margin_mhz": self.min_margin if self.n_instances else None,
            "family_counts": self.family_counts(),
            "violations": [v.to_json_dict() for v in self.violations],
        }


def realized_orientation(topo: Topology, assignment: FrequencyAssignment) -> dict[Edge, int]:
    """Orientation per coupler pair, assignment bits overriding topology bits."""
    merged: dict[Edge, int] = dict(topo.orientation or {})
    merged.update(assignment.orientations)
    missing = topo.edge_pairs() - set(merged)
    if missing:
        raise ValueError(f"no orientation for couplers {sorted(missing)}")
    return merged


def realized_table(
    topo: Topology, assignment: FrequencyAssignment, params: ConstraintParams
) -> tuple[InstanceTable, np.ndarray]:
    """The instance table in the realized orientation, and the frequencies by qubit id.

    Raises:
        ValueError: a qubit, isolated ones included, without a frequency, or
            a coupler without an orientation.
    """
    missing = [q for q in range(topo.n_qubits) if q not in assignment.frequencies]
    if missing:
        raise ValueError(f"assignment lacks frequencies for qubits {missing[:5]}")
    freqs = np.array([assignment.frequencies[q] for q in range(topo.n_qubits)], dtype=float)
    return instance_table(topo, realized_orientation(topo, assignment), params), freqs


def price(t: InstanceTable, x: np.ndarray, rows, params: ConstraintParams, tightened: bool,
          tol: float = 0.0) -> ViolationReport:
    """The report of the selected rows (a mask, or slice(None)) and all DIFF pairs of t.

    x holds every qubit's frequency by id; bounds are base, or base + eps when
    tightened.  A row measures abs(((c0*x0 + c1*x1) + c2*x2) + const), C1
    min(fc - ft, ft - fc - alpha), DIFF abs(abs(fp - fq) - abs(fu - fv)).  The
    margin is measured - bound (bound - measured for DIFF in proximity mode),
    violated below -tol; the minimum is the first smallest.  family_min holds each
    bounded family's smallest measured value among the selected rows.
    """
    family, parts, n_parts = t.family[rows], t.parts[rows], t.n_parts[rows]
    # a padding term (qubit 0, coefficient 0) only sets the sign of a zero sum, which abs drops
    fc, ft = x[parts[:, 0]], x[parts[:, 1]]
    terms = x[t.idx[rows]] * t.coef[rows]
    measured = np.where(t.c1[rows], np.minimum(fc - ft, ft - fc - params.alpha),
                        np.abs(terms[:, 0] + terms[:, 1] + terms[:, 2] + t.const[rows]))
    lowest = np.full(len(TABLE_FAMILIES), np.inf)  # stays inf for a family without rows
    np.minimum.at(lowest, family, measured)
    family_min = {fam: m for fam, m in sorted(zip(TABLE_FAMILIES, lowest.tolist()))
                  if fam != "C1" and m < np.inf}
    bound = t.bound[rows]
    if tightened:
        bound = bound + np.array([params.tightening(f) for f in TABLE_FAMILIES])[family]
    margin = measured - bound
    bad = np.flatnonzero(margin < -tol)
    violations = [
        Violation(TABLE_FAMILIES[f], tuple(p[:n]), m, b, g)
        for f, p, n, m, b, g in zip(family[bad].tolist(), parts[bad].tolist(),
                                    n_parts[bad].tolist(), measured[bad].tolist(),
                                    bound[bad].tolist(), margin[bad].tolist())
    ]
    margins = [margin]
    if len(t.diff):
        ends = np.array(t.edges, dtype=np.intp)
        gap = np.abs(x[ends[:, 0]] - x[ends[:, 1]])
        measured = np.abs(gap[t.diff[:, 0]] - gap[t.diff[:, 1]])
        bound = params.tightened_bound("DIFF") if tightened else params.base_bound("DIFF")
        margin = measured - bound if params.diff_separation else bound - measured
        bad = np.flatnonzero(margin < -tol)
        violations += [
            Violation("DIFF", tuple(p), m, bound, g)
            for p, m, g in zip(ends[t.diff[bad]].reshape(-1, 4).tolist(),
                               measured[bad].tolist(), margin[bad].tolist())
        ]
        margins.append(margin)
    min_margin = min((float(m[m.argmin()]) for m in margins if len(m)), default=float("inf"))
    return ViolationReport(sum(map(len, margins)), violations, min_margin, family_min)


def check(topo: Topology, assignment: FrequencyAssignment, params: ConstraintParams) -> ViolationReport:
    """Physical collision check: every instance but DIFF at base bounds, violated iff margin < 0.

    Orientations come from the assignment, falling back to the topology.
    """
    t, x = realized_table(topo, assignment, params)
    return price(t, x, slice(None), params, tightened=False)
