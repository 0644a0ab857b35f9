"""Boundary-condition presets and tiling of unit solutions into chips.

A unit cell solved on wrap(unit, bc) can be stamped nx x ny times into one
flat chip.  Stepping one tile to the right applies the x-wrap row transform
X(r) = ((rows-1-r if flip else r) + shift) % rows to the copy; vertical
stacking is plain.  Under that placement every chip edge is the image of an
edge of the wrapped unit: intra-tile horizontal edges map to interior edges,
x seams map to x-wrap edges, and vertical edges map to interior or y-wrap
edges (shifted copies roll rows through the y wrap).  A wrap-feasible unit
pattern therefore stays feasible on the whole chip, because each chip
constraint takes exactly the value of the unit constraint it images.

The image argument needs neighbor images to stay distinct, which holds for
units of at least 3 rows and 3 columns; tile() rejects smaller units.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

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
from .topology import AxisWrap, BoundaryCondition, Edge, Topology, square_grid, wrap


class PreconditionError(ValueError):
    """The unit solution is not feasible for the wrapped unit model."""


# Provisional twist offsets; data, not code, so they can be corrected
# against a reference layout without touching the tiling logic.
PRESET_TABLE: dict[str, dict] = {
    "PBC1": {"x_shift": 0, "x_flip": False},
    "PBC2": {"x_shift": 1, "x_flip": False},
    "PBC3": {"x_shift": 2, "x_flip": False},
    "MBC1": {"x_shift": 0, "x_flip": True},
    "MBC2": {"x_shift": 1, "x_flip": True},
    "MBC3": {"x_shift": 2, "x_flip": True},
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
    entry = PRESET_TABLE[name]
    return BoundaryCondition(
        name=name,
        x=AxisWrap(shift=entry["x_shift"], flip=entry["x_flip"]),
        y=AxisWrap(),
    )


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
    if not (bc.y.enabled and bc.y.shift == 0 and not bc.y.flip):
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
    if missing_p and fill_orientation is not None:
        orient.update({pair: fill_orientation for pair in missing_p})
        missing_p = []
    if missing_p:
        raise ValueError(f"unit solution lacks orientations for couplers {missing_p[:5]}")
    if require_feasible:
        table = enumerate_records(wrapped, "free", params)
        oriented = replace(unit_solution, orientations=dict(orient))
        report = verify(oriented, table, params, tightened=True)
        if not report.ok:
            raise PreconditionError(
                f"unit solution violates {len(report.violations)} wrapped-unit "
                f"constraints (worst margin {report.min_margin:.3f} MHz)"
            )

    # row_map[k] is the unit row occupied by local row r after k boundary
    # crossings to the right
    row_map = [list(range(rows))]
    for _ in range(1, nx):
        row_map.append([bc.x.image(r, rows) for r in row_map[-1]])

    big_rows, big_cols = rows * ny, cols * nx

    def unit_site(chip_r: int, chip_c: int) -> int:
        return row_map[chip_c // cols][chip_r % rows] * cols + (chip_c % cols)

    unit_edge_index = {}
    for idx, pair in enumerate(wrapped.edges):
        unit_edge_index.setdefault(pair, idx)

    chip = square_grid(big_rows, big_cols)
    frequencies = {
        r * big_cols + c: unit_solution.frequencies[unit_site(r, c)]
        for r in range(big_rows)
        for c in range(big_cols)
    }

    orientations: dict[Edge, int] = {}
    seam_edges: list[int] = []
    edge_image: dict[int, int] = {}
    for idx, (a, b) in enumerate(chip.edges):
        ra, ca = divmod(a, big_cols)
        rb, cb = divmod(b, big_cols)
        ua, ub = unit_site(ra, ca), unit_site(rb, cb)
        upair = (ua, ub) if ua < ub else (ub, ua)
        uidx = unit_edge_index.get(upair)
        if uidx is None:
            raise RuntimeError(f"chip edge {(a, b)} has no wrapped-unit image")
        edge_image[idx] = uidx
        if (ra // rows, ca // cols) != (rb // rows, cb // cols):
            seam_edges.append(idx)
        unit_control = upair[0] if orient[upair] == 0 else upair[1]
        orientations[(a, b)] = 0 if ua == unit_control else 1

    geometry = dict(chip.geometry)
    geometry["tiled_from"] = {
        "rows": rows, "cols": cols, "bc": bc.to_json_dict(), "reps": [nx, ny],
    }
    chip_topo = Topology(
        n_qubits=chip.n_qubits,
        edges=chip.edges,
        geometry=geometry,
        orientation=orientations,
    )
    return ChipAssembly(
        chip_topology=chip_topo,
        chip_assignment=FrequencyAssignment(frequencies=frequencies, orientations=dict(orientations)),
        unit_geometry=(rows, cols),
        reps=(nx, ny),
        bc=bc,
        seam_edges=seam_edges,
        edge_image=edge_image,
    )


def chip_check(chip: ChipAssembly, params: ConstraintParams) -> ViolationReport:
    """Revalidate the assembled chip at the physical base bounds: every family but DIFF."""
    return check(chip.chip_topology, chip.chip_assignment, params)


def seam_violations(chip: ChipAssembly, report: ViolationReport) -> list:
    """Violations touching at least one seam coupler."""
    seams = {chip.chip_topology.edges[i] for i in chip.seam_edges}

    def pairs_of(parts: tuple[int, ...]) -> list[Edge]:
        if len(parts) == 2:
            couplers = [(parts[0], parts[1])]
        else:
            couplers = [(parts[0], parts[1]), (parts[1], parts[2])]
        return [(a, b) if a < b else (b, a) for a, b in couplers]

    return [v for v in report.violations if any(p in seams for p in pairs_of(v.participants))]
