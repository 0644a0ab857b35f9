"""Topology generators, wraps, and serialization."""
from __future__ import annotations

import random

import pytest

from freqalloc.topology import (
    AxisWrap,
    BoundaryCondition,
    Topology,
    hex_grid,
    hex_rings,
    square_grid,
    uniform_orientation,
    wrap,
)

PBC1 = BoundaryCondition("PBC1")


def test_square_grid_frozen_counts() -> None:
    cases = {(2, 2): (4, 4), (4, 4): (16, 24), (1, 3): (3, 2)}
    for (rows, cols), (nv, ne) in cases.items():
        t = square_grid(rows, cols)
        assert t.n_qubits == nv
        assert len(t.edges) == ne


def test_square_grid_edge_formula_sweep() -> None:
    for rows in range(1, 13):
        for cols in range(1, 13):
            t = square_grid(rows, cols)
            assert t.n_qubits == rows * cols
            assert len(t.edges) == rows * (cols - 1) + cols * (rows - 1)
            # simple graph: no duplicates, no self loops, canonical order
            assert len(set(t.edges)) == len(t.edges)
            assert all(a < b for a, b in t.edges)


def test_square_grid_row_major_ids() -> None:
    t = square_grid(2, 3)
    # qubit(r, c) = r*cols + c; the coupled neighbors of the middle of row 0
    assert sorted(b if a == 1 else a for a, b in t.edges if 1 in (a, b)) == [0, 2, 4]


def test_square_grid_rejects_bad_extent() -> None:
    with pytest.raises(ValueError):
        square_grid(0, 3)


def test_hex_grid_frozen_counts() -> None:
    t = hex_grid(1, 1)
    assert (t.n_qubits, len(t.edges)) == (6, 6)
    t = hex_grid(2, 1)
    assert (t.n_qubits, len(t.edges)) == (10, 11)


def test_hex_grid_4x5_golden_and_euler() -> None:
    t = hex_grid(4, 5)
    assert (t.n_qubits, len(t.edges)) == (58, 77)
    # planar connected: faces = E - V + 2 = hexagonal cells + outer face
    assert len(t.edges) - t.n_qubits + 2 == 4 * 5 + 1


def test_hex_grid_euler_sweep() -> None:
    for cx in range(1, 6):
        for cy in range(1, 6):
            t = hex_grid(cx, cy)
            assert len(t.edges) - t.n_qubits + 2 == cx * cy + 1
            assert max(t.degree(q) for q in range(t.n_qubits)) <= 3
            assert len(set(t.edges)) == len(t.edges)


def test_hex_rings_frozen_counts() -> None:
    t = hex_rings(2)
    assert (t.n_qubits, len(t.edges)) == (24, 30)
    assert len(t.geometry["cell_anchors"]) == 7
    # rings=1 is a single cell
    t1 = hex_rings(1)
    assert (t1.n_qubits, len(t1.edges)) == (6, 6)


def test_hex_rings_euler_sweep() -> None:
    for rings in range(1, 7):
        t = hex_rings(rings)
        cells = 1 + 3 * rings * (rings - 1)
        assert len(t.geometry["cell_anchors"]) == cells
        assert len(t.edges) - t.n_qubits + 2 == cells + 1


def test_wrap_pbc1_2x2_counts() -> None:
    w = wrap(square_grid(2, 2), PBC1)
    assert len(w.edges) == 8
    assert all(w.degree(q) == 4 for q in range(4))
    assert sum(1 for tag in w.wrap_tags.values() if tag["axis"] == "x") == 2
    assert sum(1 for tag in w.wrap_tags.values() if tag["axis"] == "y") == 2


def test_wrap_pbc1_4x4_counts() -> None:
    w = wrap(square_grid(4, 4), PBC1)
    assert len(w.edges) == 24 + 8
    assert all(w.degree(q) == 4 for q in range(16))


def test_wrap_pbc1_degree_sweep() -> None:
    for rows in range(3, 7):
        for cols in range(3, 7):
            w = wrap(square_grid(rows, cols), PBC1)
            assert all(w.degree(q) == 4 for q in range(w.n_qubits))
            assert len(set(w.edges)) == len(w.edges)


def test_wrap_mbc1_mirrors_rows() -> None:
    rows = cols = 4
    bc = BoundaryCondition("MBC1", x=AxisWrap(flip=True))
    w = wrap(square_grid(rows, cols), bc)
    x_edges = {e for i, e in enumerate(w.edges) if w.wrap_tags.get(i, {}).get("axis") == "x"}
    for r in range(rows):
        a = r * cols + (cols - 1)
        b = (rows - 1 - r) * cols
        assert (min(a, b), max(a, b)) in x_edges


def test_wrap_shift_twists_rows() -> None:
    bc = BoundaryCondition("PBC3", x=AxisWrap(shift=2))
    w = wrap(square_grid(4, 4), bc)
    x_edges = {e for i, e in enumerate(w.edges) if w.wrap_tags.get(i, {}).get("axis") == "x"}
    for r in range(4):
        a = r * 4 + 3
        b = ((r + 2) % 4) * 4
        assert (min(a, b), max(a, b)) in x_edges


def test_wrap_rejects_hex_and_small() -> None:
    with pytest.raises(ValueError):
        wrap(hex_grid(2, 2), PBC1)
    with pytest.raises(ValueError):
        wrap(square_grid(1, 4), PBC1)


def test_y_flip_rejected() -> None:
    with pytest.raises(ValueError):
        BoundaryCondition("bad", y=AxisWrap(flip=True))


def test_topology_json_roundtrip_bit_exact() -> None:
    w = wrap(square_grid(4, 4), PBC1)
    w.orientation = uniform_orientation(w)
    text = w.to_json()
    again = Topology.from_json(text)
    assert again.to_json() == text
    assert again.wrap_tags == w.wrap_tags
    assert again.orientation == w.orientation


def test_topology_json_roundtrip_random_graphs() -> None:
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(2, 12)
        pool = [(a, b) for a in range(n) for b in range(a + 1, n)]
        edges = rng.sample(pool, k=rng.randint(1, len(pool)))
        t = Topology(n_qubits=n, edges=edges, geometry={"kind": "adhoc"})
        assert Topology.from_json(t.to_json()).to_json() == t.to_json()


def test_topology_validation() -> None:
    with pytest.raises(ValueError):
        Topology(n_qubits=2, edges=[(0, 0)])
    with pytest.raises(ValueError):
        Topology(n_qubits=2, edges=[(0, 5)])
    with pytest.raises(ValueError):
        Topology(n_qubits=2, edges=[(0, 1)], orientation={(0, 1): 2})
