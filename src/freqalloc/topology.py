"""Lattice topologies for fixed-frequency transmon layouts.

Qubits are integer vertex ids; couplers are undirected edges stored in
canonical (low, high) order.  Square grids are numbered row-major
(qubit(r, c) = r * cols + c).  Honeycomb lattices are built on an integer
"brick wall" coordinate grid and numbered by sorting corner coordinates
(y, then x), so ids are reproducible across runs and platforms.

Edges are kept as an indexed list that may contain parallel pairs: closing
a 2-wide lattice onto a torus duplicates a coupler, and the duplicate must
stay visible for edge/degree accounting.  Wrap metadata is therefore keyed
by edge index, while orientation bits are keyed by qubit pair (parallel
edges share the one physical coupler direction).
"""
from __future__ import annotations

import json
import re
from dataclasses import asdict, dataclass, field

from .jsonio import array, bit, boolean, fields, index_key, integer, mapping, obj, text

Edge = tuple[int, int]


def _canon(a: int, b: int) -> Edge:
    return (a, b) if a < b else (b, a)


def edge_key(a: int, b: int) -> str:
    """Serialize an edge as the JSON map key 'low-high'."""
    a, b = _canon(a, b)
    return f"{a}-{b}"


def parse_edge_key(key: str, where: str = "edge") -> Edge:
    """The inverse of edge_key, a key reader: 'low-high' with low < high, no other form."""
    m = re.fullmatch(r"(0|[1-9][0-9]*)-(0|[1-9][0-9]*)", key)
    if not m or int(m[1]) >= int(m[2]):
        raise ValueError(f"{where} key {json.dumps(key)} must be a coupler like \"0-1\" "
                         "(low id first)")
    return int(m[1]), int(m[2])


@dataclass(frozen=True)
class AxisWrap:
    """How one axis closes onto itself.

    shift: rows (x axis) or columns (y axis) of offset applied while
    crossing the boundary; flip mirrors the transverse coordinate first.
    """

    shift: int = 0
    flip: bool = False
    enabled: bool = True

    def image(self, i, n: int, k=1):
        """Where transverse coordinate i (of n) lands after k boundary crossings.

        One crossing maps i to ((n-1-i if flip else i) + shift) % n.  A flip
        undoes itself, so only the parity of k counts.  i, k: ints or arrays.
        """
        if self.flip:
            return (i + k % 2 * (n - 1 - 2 * i + self.shift)) % n
        return (i + k * self.shift) % n


@dataclass(frozen=True)
class BoundaryCondition:
    """Wrap rules for both axes of a rectangular unit cell."""

    name: str
    x: AxisWrap = AxisWrap()
    y: AxisWrap = AxisWrap()

    def __post_init__(self) -> None:
        if self.y.flip:
            raise ValueError("y-axis flip is not supported in any boundary condition")

    def site(self, r, c, rows: int, cols: int):
        """The unit site id that plane site (r, c) reduces to; ints or integer arrays.

        Each exit through the unit's right edge applies the x wrap to the row,
        each exit through its bottom edge the y wrap to the column.
        """
        ky, r = divmod(r, rows)
        kx, c = divmod(c, cols)
        return self.x.image(r, rows, kx) * cols + self.y.image(c, cols, ky)

    def to_json_dict(self) -> dict:
        return {"name": self.name, "x": asdict(self.x), "y": asdict(self.y)}

    @staticmethod
    def from_json_dict(d: dict, where: str = "bc") -> "BoundaryCondition":
        return BoundaryCondition(**fields(d, where, _BC_FIELDS, required=("name",)))


def _axis(value, where: str) -> AxisWrap:
    return AxisWrap(**fields(value, where, {"shift": integer, "flip": boolean, "enabled": boolean}))


_BC_FIELDS = {"name": text, "x": _axis, "y": _axis}


@dataclass
class Topology:
    """An undirected coupler graph plus layout metadata.

    Attributes:
        n_qubits: number of vertices; ids are 0..n_qubits-1.
        edges: indexed list of canonical (low, high) pairs; parallel pairs
            are allowed (torus closures of 2-wide lattices), self loops are not.
        geometry: free-form layout metadata (kind, rows/cols or cell data, bc).
        orientation: optional fixed drive directions keyed by canonical pair;
            0 means low-id qubit is the control, 1 means high-id is.
        wrap_tags: edge index -> {"axis": "x"|"y", "via_bc": True} for edges
            added by wrap().
    """

    n_qubits: int
    edges: list[Edge]
    geometry: dict = field(default_factory=dict)
    orientation: dict[Edge, int] | None = None
    wrap_tags: dict[int, dict] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.n_qubits < 1:
            raise ValueError("topology needs at least one qubit")
        canon = []
        for a, b in self.edges:
            if a == b:
                raise ValueError(f"self loop on qubit {a}")
            if not (0 <= a < self.n_qubits and 0 <= b < self.n_qubits):
                raise ValueError(f"edge ({a},{b}) out of range for {self.n_qubits} qubits")
            canon.append(_canon(a, b))
        self.edges = canon
        if self.orientation is not None:
            pairs = set(self.edges)
            for pair, bit in self.orientation.items():
                if _canon(*pair) not in pairs:
                    raise ValueError(f"orientation for non-edge {pair}")
                if bit not in (0, 1):
                    raise ValueError(f"orientation bit must be 0 or 1, got {bit!r}")
        for idx in self.wrap_tags:
            if not (0 <= idx < len(self.edges)):
                raise ValueError(f"wrap tag for non-existent edge index {idx}")

    # -- queries ---------------------------------------------------------

    def degree(self, q: int) -> int:
        """Coupler count at q; parallel edges each contribute."""
        return sum(1 for a, b in self.edges if q in (a, b))

    def edge_pairs(self) -> set[Edge]:
        return set(self.edges)

    # -- serialization ---------------------------------------------------

    def to_json_dict(self) -> dict:
        d: dict = {
            "n_qubits": self.n_qubits,
            "edges": [[a, b] for a, b in self.edges],
            "geometry": self.geometry,
        }
        if self.orientation is not None:
            d["orientation"] = {edge_key(*e): bit for e, bit in sorted(self.orientation.items())}
        if self.wrap_tags:
            d["wrap_tags"] = {str(i): tag for i, tag in sorted(self.wrap_tags.items())}
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"

    @staticmethod
    def from_json_dict(d: dict, where: str = "topology") -> "Topology":
        f = fields(d, where, _TOPOLOGY_FIELDS, required=("n_qubits", "edges"))
        return Topology(f["n_qubits"], f["edges"], f.get("geometry", {}), f.get("orientation"),
                        f.get("wrap_tags", {}))

    @staticmethod
    def from_json(text: str) -> "Topology":
        return Topology.from_json_dict(json.loads(text))


_TOPOLOGY_FIELDS = {"n_qubits": integer, "edges": array(array(integer, 2)), "geometry": obj,
                    "orientation": mapping(bit, parse_edge_key),
                    "wrap_tags": mapping(obj, index_key)}


# -- generators ------------------------------------------------------------


def square_grid(rows: int, cols: int) -> Topology:
    """Rectangular grid with row-major ids and nearest-neighbor couplers.

    Args:
        rows, cols: lattice extent, both >= 1.

    Returns:
        Topology with rows*cols qubits and rows*(cols-1) + cols*(rows-1)
        edges, listed row-major (right coupler then down coupler per site).
    """
    if rows < 1 or cols < 1:
        raise ValueError("rows and cols must be >= 1")

    def qid(r: int, c: int) -> int:
        return r * cols + c

    edges: list[Edge] = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append(_canon(qid(r, c), qid(r, c + 1)))
            if r + 1 < rows:
                edges.append(_canon(qid(r, c), qid(r + 1, c)))
    return Topology(
        n_qubits=rows * cols,
        edges=edges,
        geometry={"kind": "square", "rows": rows, "cols": cols},
    )


def _brick_cell_corners(x0: int, y0: int) -> list[tuple[int, int]]:
    # One hexagon drawn as a 2x1 brick with mid-wall corners.
    return [
        (x0, y0), (x0 + 1, y0), (x0 + 2, y0),
        (x0, y0 + 1), (x0 + 1, y0 + 1), (x0 + 2, y0 + 1),
    ]


_BRICK_CELL_WALLS = [(0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (2, 5)]


def _hex_from_cells(anchors: list[tuple[int, int]], geometry: dict) -> Topology:
    corner_set: set[tuple[int, int]] = set()
    for x0, y0 in anchors:
        corner_set.update(_brick_cell_corners(x0, y0))
    corners = sorted(corner_set, key=lambda p: (p[1], p[0]))
    ids = {p: i for i, p in enumerate(corners)}
    edge_set: set[Edge] = set()
    for x0, y0 in anchors:
        pts = _brick_cell_corners(x0, y0)
        for a, b in _BRICK_CELL_WALLS:
            edge_set.add(_canon(ids[pts[a]], ids[pts[b]]))
    geometry = dict(geometry)
    geometry["cell_anchors"] = [list(a) for a in anchors]
    geometry["corner_coords"] = [list(p) for p in corners]
    return Topology(n_qubits=len(corners), edges=sorted(edge_set), geometry=geometry)


def hex_grid(cells_x: int, cells_y: int) -> Topology:
    """Honeycomb patch of cells_x by cells_y hexagonal cells.

    Cells sit on a brick-wall grid: cell (i, j) anchors at
    (2*i + (j % 2), j), so odd rows are offset by one corner and adjacent
    cells share a full wall.

    Returns:
        Topology whose vertex count is 2*cx*cy + 2*(cx + cy) and edge count
        3*cx*cy + 2*(cx + cy) - 1.
    """
    if cells_x < 1 or cells_y < 1:
        raise ValueError("cells_x and cells_y must be >= 1")
    anchors = [(2 * i + (j % 2), j) for j in range(cells_y) for i in range(cells_x)]
    return _hex_from_cells(anchors, {"kind": "hex", "cells_x": cells_x, "cells_y": cells_y})


def hex_rings(rings: int) -> Topology:
    """Hexagonal flower: a center cell plus rings-1 concentric cell rings.

    Cells are the axial-coordinate ball of radius rings-1; cell (q, r)
    anchors at brick coordinate (2*q + r, r).
    """
    if rings < 1:
        raise ValueError("rings must be >= 1")
    radius = rings - 1
    anchors = []
    for r in range(-radius, radius + 1):
        for q in range(-radius, radius + 1):
            if max(abs(q), abs(r), abs(q + r)) <= radius:
                anchors.append((2 * q + r, r))
    anchors.sort(key=lambda p: (p[1], p[0]))
    return _hex_from_cells(anchors, {"kind": "hex_rings", "rings": rings})


# -- boundary wraps --------------------------------------------------------


def wrap(topo: Topology, bc: BoundaryCondition) -> Topology:
    """Close a square unit cell onto itself according to bc.

    Each boundary coupler joins an edge site to the unit site that its
    plane neighbour across the edge reduces to under bc.site: the x wrap
    joins (r, cols-1) to site(r, cols), the y wrap joins (rows-1, c) to
    site(rows, c).  New edges carry wrap tags keyed by their index.

    Raises:
        ValueError: non-square geometry, extents < 2, or a wrap that would
            create a self loop.
    """
    if topo.geometry.get("kind") != "square":
        raise ValueError("wrap() supports square-lattice geometry only")
    rows, cols = topo.geometry["rows"], topo.geometry["cols"]
    if rows < 2 or cols < 2:
        raise ValueError("wrapping needs rows >= 2 and cols >= 2")

    edges = list(topo.edges)
    wrap_tags = dict(topo.wrap_tags)
    # per axis: the (edge site, plane site beyond it) pairs along its boundary
    boundaries = (("x", bc.x, "row", [((r, cols - 1), (r, cols)) for r in range(rows)]),
                  ("y", bc.y, "column", [((rows - 1, c), (rows, c)) for c in range(cols)]))
    for axis, axis_wrap, line, crossings in boundaries:
        if not axis_wrap.enabled:
            continue
        for i, ((r, c), beyond) in enumerate(crossings):
            a, b = r * cols + c, bc.site(*beyond, rows, cols)
            if a == b:
                raise ValueError(f"{axis} wrap maps {line} {i} onto itself")
            wrap_tags[len(edges)] = {"axis": axis, "via_bc": True}
            edges.append(_canon(a, b))

    geometry = dict(topo.geometry)
    geometry["bc"] = bc.to_json_dict()
    return Topology(
        n_qubits=topo.n_qubits,
        edges=edges,
        geometry=geometry,
        orientation=dict(topo.orientation) if topo.orientation is not None else None,
        wrap_tags=wrap_tags,
    )


def uniform_orientation(topo: Topology, bit: int = 0) -> dict[Edge, int]:
    """One orientation bit per distinct coupler pair; bit 0 drives low->high."""
    if bit not in (0, 1):
        raise ValueError("bit must be 0 or 1")
    return {pair: bit for pair in sorted(topo.edge_pairs())}
