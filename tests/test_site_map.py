"""The one site map, BoundaryCondition.site, against crossings taken one at a time.

wrap, tile and seam_violations are compared with naive references in
oracles.py that apply one boundary crossing at a time, as the row map and
per-edge loop of the earlier tile did.
"""
import dataclasses
import json
import pathlib

import numpy as np
import pytest

from freqalloc.assembly import PRESET_TABLE, chip_check, preset_bc, seam_violations, tile
from freqalloc.constraints import default_params
from freqalloc.model import Solution
from freqalloc.topology import AxisWrap, BoundaryCondition, square_grid, wrap

from .oracles import naive_crossings, naive_seam_violations, naive_tile, naive_wrap

UNIT_DIR = pathlib.Path(__file__).parent / "fixtures" / "units"
FIXTURES = sorted(UNIT_DIR.glob("*.json"))
# every preset, plus a custom condition whose y wrap shifts
CONDITIONS = [preset_bc(name) for name in PRESET_TABLE] + [
    BoundaryCondition("twist", x=AxisWrap(shift=1, flip=True), y=AxisWrap(shift=2))]
CROSSINGS = range(6)


def load(path: pathlib.Path) -> tuple[int, int, Solution]:
    d = json.loads(path.read_text())
    return d["rows"], d["cols"], Solution.from_json_dict(d["solution"])


@pytest.mark.parametrize("bc", CONDITIONS, ids=lambda bc: bc.name)
def test_image_is_k_single_crossings(bc):
    for axis in (bc.x, bc.y):
        spec = dataclasses.asdict(axis)
        for n in (3, 4, 5):
            coords = np.arange(-2 * n, 3 * n)
            for k in CROSSINGS:
                expect = [naive_crossings(spec, i, n, k) for i in coords.tolist()]
                scalar = [axis.image(i, n, k) for i in coords.tolist()]
                assert scalar == expect and all(type(v) is int for v in scalar)
                assert axis.image(coords, n, k).tolist() == expect
                assert axis.image(coords, n, np.full(coords.shape, k)).tolist() == expect


@pytest.mark.parametrize("bc", CONDITIONS, ids=lambda bc: bc.name)
def test_site_is_k_single_crossings(bc):
    spec = bc.to_json_dict()
    for rows, cols in ((3, 3), (3, 4), (4, 3), (4, 5)):
        r, c = np.divmod(np.arange(rows * len(CROSSINGS) * cols * len(CROSSINGS)),
                         cols * len(CROSSINGS))
        expect = []
        for pr, pc in zip(r.tolist(), c.tolist()):
            ky, kx = pr // rows, pc // cols
            expect.append(naive_crossings(spec["x"], pr, rows, kx) * cols
                          + naive_crossings(spec["y"], pc, cols, ky))
        scalar = [bc.site(pr, pc, rows, cols) for pr, pc in zip(r.tolist(), c.tolist())]
        assert scalar == expect and all(type(v) is int for v in scalar)
        assert bc.site(r, c, rows, cols).tolist() == expect


def test_wrap_matches_single_crossings():
    cases = 0
    for rows in range(2, 6):
        for cols in range(2, 6):
            for x in (AxisWrap(s, f) for s in range(4) for f in (False, True)):
                for y in (AxisWrap(s, enabled=e) for s in range(3) for e in (True, False)):
                    bc = BoundaryCondition("c", x=x, y=y)
                    try:
                        expect = naive_wrap(rows, cols, bc.to_json_dict())
                    except ValueError as exc:
                        with pytest.raises(ValueError, match=f"^{exc}$"):
                            wrap(square_grid(rows, cols), bc)
                        continue
                    w = wrap(square_grid(rows, cols), bc)
                    assert w.edges == expect[0]
                    assert {i: t["axis"] for i, t in w.wrap_tags.items()} == expect[1]
                    cases += 1
    assert cases > 500


@pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
def test_tile_matches_the_row_map_lift(path):
    rows, cols, sol = load(path)
    params = default_params()
    for name in PRESET_TABLE:
        bc = preset_bc(name)
        for nx in range(1, 6):
            for ny in range(1, 4):
                asm = tile(square_grid(rows, cols), sol, bc, nx, ny, params,
                           require_feasible=False, fill_orientation=1)
                assert asm.to_json_dict() == naive_tile(
                    rows, cols, bc.to_json_dict(), nx, ny, sol.frequencies,
                    sol.orientations, 1), f"{name} {nx}x{ny}"


def test_seam_violations_match_the_coupler_pair_rule():
    params = default_params()
    on, off = 0, 0
    for path in FIXTURES:
        rows, cols, sol = load(path)
        # qubit 1 takes qubit 0's frequency, so every tile also breaks inside
        collided = Solution(sol.status, {**sol.frequencies, 1: sol.frequencies[0]},
                            sol.orientations)
        for name in PRESET_TABLE:
            for unit_sol, (nx, ny) in ((sol, (2, 1)), (sol, (3, 2)), (collided, (2, 2))):
                asm = tile(square_grid(rows, cols), unit_sol, preset_bc(name), nx, ny, params,
                           require_feasible=False, fill_orientation=0)
                report = chip_check(asm, params)
                hits = naive_seam_violations(asm.chip_topology.edges, asm.seam_edges,
                                             [v.participants for v in report.violations])
                assert seam_violations(asm, report) == [report.violations[i] for i in hits]
                on, off = on + len(hits), off + len(report.violations) - len(hits)
    assert on > 0 and off > 0
