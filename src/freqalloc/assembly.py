"""Boundary-condition presets and tiling of unit solutions into chips.

BoundaryCondition.site reduces every plane site to a site of the rows x
cols unit, and wrap(unit, bc) is the graph it makes of the plane's
couplers.  tile() lifts a unit solution solved on that wrap through the
same map into an nx x ny chip, so every chip edge images a wrapped-unit
edge and each chip constraint takes exactly the value of the unit
constraint it images: a wrap-feasible unit stays feasible on the chip.

The image argument needs neighbor images to stay distinct, which holds for
units of at least 3 rows and 3 columns; tile() rejects smaller units.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .constraints import (
    ConstraintParams,
    FrequencyAssignment,
    ViolationReport,
    check,
    enumerate_records,
)
from .jsonio import array, fields, index_key, integer, mapping
from .model import Solution
from .solve import verify
from .topology import AxisWrap, BoundaryCondition, Topology, square_grid, wrap


class PreconditionError(ValueError):
    """The unit solution is not feasible for the wrapped unit model."""


# The x wrap of each preset; the y wrap is plain for all of them.  Provisional
# twist offsets: data, not code, so they can be corrected against a reference
# layout without touching the tiling logic.
PRESET_TABLE: dict[str, AxisWrap] = {
    "PBC1": AxisWrap(shift=0), "PBC2": AxisWrap(shift=1), "PBC3": AxisWrap(shift=2),
    "MBC1": AxisWrap(shift=0, flip=True), "MBC2": AxisWrap(shift=1, flip=True),
    "MBC3": AxisWrap(shift=2, flip=True),
}


def preset_bc(name: str) -> BoundaryCondition:
    """Named boundary condition; y wrap is plain for every preset.

    Raises:
        ValueError: unknown name, or "custom" (custom conditions carry
            explicit parameters and are built directly).
    """
    if name == "custom":
        raise ValueError("custom boundary conditions need explicit parameters")
    if name not in PRESET_TABLE:
        raise ValueError(f"unknown boundary condition {name!r}; presets: {sorted(PRESET_TABLE)}")
    return BoundaryCondition(name, x=PRESET_TABLE[name])


@dataclass
class ChipAssembly:
    """A tiled chip plus the bookkeeping tying it back to its unit cell.

    seam_edges index chip_topology.edges; an edge is a seam when its
    endpoints lie in different tiles.  edge_image maps every chip edge
    index to the wrapped-unit edge index it replicates.
    """

    chip_topology: Topology
    chip_assignment: FrequencyAssignment
    unit_geometry: tuple[int, int]
    reps: tuple[int, int]
    bc: BoundaryCondition
    seam_edges: list[int] = field(default_factory=list)
    edge_image: dict[int, int] = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "topology": self.chip_topology.to_json_dict(),
            "assignment": self.chip_assignment.to_json_dict(),
            "unit_geometry": list(self.unit_geometry),
            "reps": list(self.reps),
            "bc": self.bc.to_json_dict(),
            "seam_edges": list(self.seam_edges),
            "edge_image": {str(k): v for k, v in sorted(self.edge_image.items())},
        }

    @staticmethod
    def from_json_dict(d: dict, where: str = "chip") -> "ChipAssembly":
        f = fields(d, where, _CHIP_FIELDS, required=tuple(_CHIP_FIELDS))
        return ChipAssembly(f["topology"], f["assignment"], tuple(f["unit_geometry"]),
                            tuple(f["reps"]), f["bc"], f["seam_edges"], f["edge_image"])


_CHIP_FIELDS = {"topology": Topology.from_json_dict, "unit_geometry": array(integer, 2),
                "assignment": FrequencyAssignment.from_json_dict, "reps": array(integer, 2),
                "bc": BoundaryCondition.from_json_dict, "seam_edges": array(integer),
                "edge_image": mapping(integer, index_key)}


def _validate_tiling_args(unit: Topology, bc: BoundaryCondition, nx: int, ny: int) -> tuple[int, int]:
    if unit.geometry.get("kind") != "square":
        raise ValueError("tiling supports square-lattice units only")
    rows, cols = unit.geometry["rows"], unit.geometry["cols"]
    if rows < 3 or cols < 3:
        raise ValueError("tiling needs a unit of at least 3 rows and 3 columns")
    if nx < 1 or ny < 1:
        raise ValueError("nx and ny must be at least 1")
    if not bc.x.enabled:
        raise ValueError("tiling requires an enabled x wrap")
    # shifted copies roll rows through the y wrap, so it must close plainly
    if not (bc.y.enabled and bc.y.shift == 0):
        raise ValueError("tiling requires a plain enabled y wrap")
    return rows, cols


def tile(
    unit: Topology,
    unit_solution: Solution,
    bc: BoundaryCondition,
    nx: int,
    ny: int,
    params: ConstraintParams,
    require_feasible: bool = True,
    fill_orientation: int | None = None,
) -> ChipAssembly:
    """Stamp a wrap-feasible unit solution into an nx x ny chip.

    The unit solution must cover every qubit and every coupler pair of
    wrap(unit, bc); with require_feasible it must also pass verification
    at the tightened bounds.  Chip orientations carry the unit control and
    target roles through the placement map.  Retiling under a bc the unit
    was not solved for introduces wrap couplers the solution never
    oriented; fill_orientation supplies their bit (it never overrides a
    solved one).

    Raises:
        ValueError: non-square or too-small unit, bad reps, a boundary
            condition the placement cannot realize, or a solution missing
            frequencies or orientations.
        PreconditionError: unsolved or wrap-infeasible unit solution.
    """
    rows, cols = _validate_tiling_args(unit, bc, nx, ny)
    if fill_orientation not in (None, 0, 1):
        raise ValueError("fill_orientation must be None, 0, or 1")
    if not unit_solution.solved:
        raise PreconditionError(f"unit solution status is {unit_solution.status!r}")

    wrapped = wrap(unit, bc)
    missing_q = [q for q in range(wrapped.n_qubits) if q not in unit_solution.frequencies]
    if missing_q:
        raise ValueError(f"unit solution lacks frequencies for qubits {missing_q[:5]}")
    orient = dict(unit_solution.orientations)
    missing_p = sorted(wrapped.edge_pairs() - set(orient))
    if missing_p and fill_orientation is None:
        raise ValueError(f"unit solution lacks orientations for couplers {missing_p[:5]}")
    orient.update(dict.fromkeys(missing_p, fill_orientation))
    if require_feasible:
        table = enumerate_records(wrapped, "free", params)
        oriented = replace(unit_solution, orientations=dict(orient))
        report = verify(oriented, table, params, tightened=True)
        if not report.ok:
            raise PreconditionError(
                f"unit solution violates {len(report.violations)} wrapped-unit "
                f"constraints (worst margin {report.min_margin:.3f} MHz)"
            )

    big_rows, big_cols = rows * ny, cols * nx
    chip = square_grid(big_rows, big_cols)
    chip_r, chip_c = np.divmod(np.arange(chip.n_qubits), big_cols)
    site = bc.site(chip_r, chip_c, rows, cols)
    frequencies = {q: unit_solution.frequencies[u] for q, u in enumerate(site.tolist())}

    # each chip edge images the first wrapped-unit edge with its unit pair
    n_unit = wrapped.n_qubits
    unit_edges = np.array(wrapped.edges)
    keys, first = np.unique(unit_edges[:, 0] * n_unit + unit_edges[:, 1], return_index=True)
    ends = np.array(chip.edges)
    ua, ub = site[ends[:, 0]], site[ends[:, 1]]
    low, high = np.minimum(ua, ub), np.maximum(ua, ub)
    pair_key = low * n_unit + high
    at = np.minimum(np.searchsorted(keys, pair_key), len(keys) - 1)
    unmapped = np.flatnonzero(keys[at] != pair_key)
    if unmapped.size:
        raise RuntimeError(f"chip edge {chip.edges[unmapped[0]]} has no wrapped-unit image")
    image = first[at]
    unit_bit = np.array([orient[pair] for pair in wrapped.edges])
    control = np.where(unit_bit[image] == 0, low, high)
    orientations = dict(zip(chip.edges, (ua != control).astype(int).tolist()))
    tile_of = _tile_of(np.arange(chip.n_qubits), rows, cols, nx)
    seam_edges = np.flatnonzero(tile_of[ends[:, 0]] != tile_of[ends[:, 1]]).tolist()

    geometry = {**chip.geometry, "tiled_from": {"rows": rows, "cols": cols,
                                                 "bc": bc.to_json_dict(), "reps": [nx, ny]}}
    return ChipAssembly(
        chip_topology=Topology(chip.n_qubits, chip.edges, geometry, orientation=orientations),
        chip_assignment=FrequencyAssignment(frequencies, dict(orientations)),
        unit_geometry=(rows, cols), reps=(nx, ny), bc=bc, seam_edges=seam_edges,
        edge_image=dict(enumerate(image.tolist())),
    )


def chip_check(chip: ChipAssembly, params: ConstraintParams) -> ViolationReport:
    """Revalidate the assembled chip at the physical base bounds: every family but DIFF."""
    return check(chip.chip_topology, chip.chip_assignment, params)


def _tile_of(q, rows: int, cols: int, nx: int):
    """The tile (numbered row-major) that chip qubit q lies in; q may be an int or an array."""
    r, c = divmod(q, cols * nx)
    return r // rows * nx + c // cols


def seam_violations(chip: ChipAssembly, report: ViolationReport) -> list:
    """Violations touching a seam coupler: their participants, joined by chip
    couplers, lie in more than one tile."""
    (rows, cols), nx = chip.unit_geometry, chip.reps[0]
    return [v for v in report.violations
            if len({_tile_of(q, rows, cols, nx) for q in v.participants}) > 1]
