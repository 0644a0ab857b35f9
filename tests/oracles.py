"""Independent reference implementations used only by tests.

Everything here is written directly from the family definitions with plain
loops, deliberately sharing no code with the package, so tests can compare
two routes to the same numbers.
"""
from __future__ import annotations

import itertools
from collections import defaultdict

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


def naive_margins(edges, orient, freqs, alpha=-350.0, bounds=None, c1_enabled=True):
    """All collision-rule margins as (family, participants, margin) triples.

    edges: iterable of (a, b) pairs (a < b), possibly with repeats.
    orient: {(a, b): bit}; bit 0 means a controls, 1 means b controls.
    """
    bounds = DEFAULT_BOUNDS if bounds is None else bounds
    nbr = defaultdict(set)
    for a, b in edges:
        nbr[a].add(b)
        nbr[b].add(a)
    out = []
    for a, b in edges:
        if "A1" in bounds:
            out.append(("A1", (a, b), abs(freqs[a] - freqs[b]) - bounds["A1"]))
        if "A2" in bounds:
            out.append(("A2", (a, b), abs(freqs[a] - freqs[b] - alpha) - bounds["A2"]))
        c, t = (a, b) if orient[(a, b)] == 0 else (b, a)
        fd = freqs[t]  # the drive sits on the target's frequency
        if c1_enabled:
            out.append(("C1", (c, t), min(freqs[c] - fd, fd - freqs[c] - alpha)))
        if "E1" in bounds:
            out.append(("E1", (c, t), abs(fd - freqs[c]) - bounds["E1"]))
        if "E2" in bounds:
            out.append(("E2", (c, t), abs(fd - freqs[c] - alpha) - bounds["E2"]))
        if "D1" in bounds:
            out.append(("D1", (c, t), abs(fd - freqs[c] - alpha / 2.0) - bounds["D1"]))
        for k in sorted(nbr[t] - {c}):
            if "S1" in bounds:
                out.append(("S1", (c, t, k), abs(fd - freqs[k]) - bounds["S1"]))
            if "S2" in bounds:
                out.append(("S2", (c, t, k), abs(fd - freqs[k] - alpha) - bounds["S2"]))
            if "T1" in bounds:
                out.append(
                    ("T1", (c, t, k), abs(fd + freqs[k] - 2.0 * freqs[c] - alpha) - bounds["T1"])
                )
    return out


def naive_violations(edges, orient, freqs, alpha=-350.0, bounds=None, c1_enabled=True):
    """Sorted (family, participants, margin) for margins < 0."""
    return sorted(
        (fam, parts, round(m, 9))
        for fam, parts, m in naive_margins(edges, orient, freqs, alpha, bounds, c1_enabled)
        if m < 0
    )


def naive_family_min(edges, orient, freqs, alpha=-350.0, bounds=None):
    """{family: smallest measured value} over every bounded family's instances, sorted by name.

    A measured value is the absolute expression of naive_margins before its bound
    is subtracted; only the families in bounds count (C1 and DIFF are not bounded).
    """
    bounds = DEFAULT_BOUNDS if bounds is None else bounds
    nbr = defaultdict(set)
    for a, b in edges:
        nbr[a].add(b)
        nbr[b].add(a)
    values = defaultdict(list)
    for a, b in edges:
        values["A1"].append(abs(freqs[a] - freqs[b]))
        values["A2"].append(abs(freqs[a] - freqs[b] - alpha))
        c, t = (a, b) if orient[(a, b)] == 0 else (b, a)
        fd = freqs[t]
        values["E1"].append(abs(fd - freqs[c]))
        values["E2"].append(abs(fd - freqs[c] - alpha))
        values["D1"].append(abs(fd - freqs[c] - alpha / 2.0))
        for k in nbr[t] - {c}:
            values["S1"].append(abs(fd - freqs[k]))
            values["S2"].append(abs(fd - freqs[k] - alpha))
            values["T1"].append(abs(fd + freqs[k] - 2.0 * freqs[c] - alpha))
    return {fam: min(vals) for fam, vals in sorted(values.items()) if fam in bounds}


def wilson_interval(successes: int, total: int, z: float = 1.959963984540054):
    """Wilson score interval, the standard 95 pct default."""
    n = total
    if n == 0:
        return (0.0, 1.0)
    p = successes / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = (z / denom) * ((p * (1 - p) / n + z * z / (4 * n * n)) ** 0.5)
    return (max(0.0, center - half), min(1.0, center + half))



def grid_search_optimum(
    n_qubits,
    edges,
    alpha=-350.0,
    bounds=None,
    eps_tol=None,
    c1_eps=0.0,
    window=(5000.0, 5100.0),
    step=1.0,
):
    """Exhaustive grid optimum over all orientations.

    Returns (best_objective, best_freqs, best_orient) maximizing the sum of
    per-family slack headroom sum(min_measure_F - base_F) subject to every
    active instance clearing base + eps, the drive windows, and the
    frequency window.  Families whose instances are all inactive under an
    orientation contribute their maximum attainable measure (matching the
    slack upper bounds of the optimization model).

    Measures depend only on frequency differences, so qubit 0 is pinned and
    the others range over integer grid offsets in [-width, width]; any
    candidate whose spread fits the window is shifted back into it.  The
    offset grids are evaluated with numpy in blocks, but each family value
    is still written straight from its definition.
    """
    import numpy as np

    bounds = DEFAULT_BOUNDS if bounds is None else bounds
    eps_tol = {} if eps_tol is None else eps_tol
    lo, hi = window
    width = hi - lo
    nsteps = int(round(width / step))
    offs = np.arange(-nsteps, nsteps + 1, dtype=np.float64) * step

    nbr = defaultdict(set)
    for a, b in edges:
        nbr[a].add(b)
        nbr[b].add(a)

    if not edges:
        return 0.0, {q: lo for q in range(n_qubits)}, {}

    max_measure = {
        "A1": width, "E1": width, "S1": width,
        "A2": width + abs(alpha), "E2": width + abs(alpha), "S2": width + abs(alpha),
        "D1": width + abs(alpha) / 2.0,
        "T1": 2.0 * width + abs(alpha),
    }
    need = {fam: bounds[fam] + eps_tol.get(fam, 0.0) for fam in bounds}
    pairs = sorted(set((min(a, b), max(a, b)) for a, b in edges))

    best_obj = -float("inf")
    best_freqs = None
    best_orient = None

    for bits in itertools.product((0, 1), repeat=len(pairs)):
        orient = dict(zip(pairs, bits))
        insts = []  # (family, ((qubit, coef), ...), const)
        c1_rows = []  # (control, target)
        for a, b in edges:
            c, t = (a, b) if orient[(a, b)] == 0 else (b, a)
            if "A1" in bounds:
                insts.append(("A1", ((a, 1.0), (b, -1.0)), 0.0))
            if "A2" in bounds:
                insts.append(("A2", ((a, 1.0), (b, -1.0)), -alpha))
            if "E1" in bounds:
                insts.append(("E1", ((t, 1.0), (c, -1.0)), 0.0))
            if "E2" in bounds:
                insts.append(("E2", ((t, 1.0), (c, -1.0)), -alpha))
            if "D1" in bounds:
                insts.append(("D1", ((t, 1.0), (c, -1.0)), -alpha / 2.0))
            c1_rows.append((c, t))
            for k in sorted(nbr[t] - {c}):
                if "S1" in bounds:
                    insts.append(("S1", ((t, 1.0), (k, -1.0)), 0.0))
                if "S2" in bounds:
                    insts.append(("S2", ((t, 1.0), (k, -1.0)), -alpha))
                if "T1" in bounds:
                    insts.append(("T1", ((t, 1.0), (k, 1.0), (c, -2.0)), -alpha))
        fams_here = sorted(set(f for f, _, _ in insts))
        absent_term = sum(
            max_measure[f] - bounds[f]
            for f in bounds
            if f not in fams_here and _family_has_records(f, edges, nbr, orient)
        )

        # offset columns for qubits 1..n-1; the last two are a meshgrid block,
        # any further ones are looped over
        n_free = n_qubits - 1
        blockdims = min(n_free, 2)
        outer_dims = n_free - blockdims
        g = np.meshgrid(*([offs] * blockdims), indexing="ij")
        block_cols = [x.ravel() for x in g]
        nrows = block_cols[0].shape[0] if block_cols else 1

        for outer in itertools.product(offs, repeat=outer_dims):
            cols = [np.zeros(nrows)]
            cols += [np.full(nrows, v) for v in outer]
            cols += block_cols
            d = np.stack(cols, axis=1)  # (nrows, n_qubits)

            mask = (d.max(axis=1) - d.min(axis=1)) <= width
            for c, t in c1_rows:
                mask &= (d[:, c] - d[:, t]) >= c1_eps
                mask &= (d[:, t] - d[:, c] - alpha) >= c1_eps
            if not mask.any():
                continue

            fam_min = {}
            for fam, coefs, const in insts:
                v = np.full(nrows, const)
                for q, cf in coefs:
                    v += cf * d[:, q]
                np.abs(v, out=v)
                fam_min[fam] = v if fam not in fam_min else np.minimum(fam_min[fam], v)

            obj = np.full(nrows, absent_term, dtype=np.float64)
            for fam in fams_here:
                mask &= fam_min[fam] >= need[fam]
                obj += fam_min[fam] - bounds[fam]
            if not mask.any():
                continue
            obj[~mask] = -np.inf
            i = int(np.argmax(obj))
            if obj[i] > best_obj:
                best_obj = float(obj[i])
                row = d[i]
                shift = lo - row.min()
                best_freqs = {q: float(row[q] + shift) for q in range(n_qubits)}
                best_orient = dict(orient)

    return best_obj, best_freqs, best_orient


def _family_has_records(fam, edges, nbr, orient):
    """Whether a free-orientation model would carry a slack for this family.

    Slack variables exist per family present in the record list; in free
    mode S/T records exist whenever either direction of an edge sees a
    spectator, regardless of the realized orientation.
    """
    if fam in ("A1", "A2", "E1", "E2", "D1"):
        return bool(edges)
    for a, b in set(edges):
        if len(nbr[b] - {a}) > 0 or len(nbr[a] - {b}) > 0:
            return True
    return False


def gaussian_pair_success(gap, bound, sigma):
    """P(|gap + e1 - e2| >= bound) with e_i ~ Normal(0, sigma^2).

    The difference of the two perturbations is Normal(0, 2 sigma^2), so the
    failure probability is the Gaussian mass of the open interval
    (-bound - gap, bound - gap) scaled by that standard deviation.
    """
    import math

    if sigma == 0:
        return 1.0 if abs(gap) >= bound else 0.0
    s = sigma * math.sqrt(2.0)

    def cdf(x):
        return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))

    z_hi = (bound - gap) / s
    z_lo = (-bound - gap) / s
    return 1.0 - (cdf(z_hi) - cdf(z_lo))


# -- boundary wraps and tiling ---------------------------------------------
# A boundary condition is read as its JSON dict: {"name", "x": {"shift",
# "flip", "enabled"}, "y": {...}}.


def _cross(axis, i, n):
    """Transverse coordinate i (of n) after one crossing of a wrapped axis."""
    return ((n - 1 - i if axis["flip"] else i) + axis["shift"]) % n


def naive_crossings(axis, i, n, k):
    """Transverse coordinate i (of n) after k >= 0 crossings, taken one at a time."""
    i %= n
    for _ in range(k):
        i = _cross(axis, i, n)
    return i


def naive_grid_edges(rows, cols):
    """Row-major grid couplers: the right, then the down coupler of each site."""
    edges = []
    for r in range(rows):
        for c in range(cols):
            q = r * cols + c
            if c + 1 < cols:
                edges.append((q, q + 1))
            if r + 1 < rows:
                edges.append((q, q + cols))
    return edges


def naive_wrap(rows, cols, bc):
    """(edges, {edge index: axis}) of a rows x cols grid closed by bc, one boundary at a time.

    The x wrap joins (r, cols-1) to (x crossing of r, 0), the y wrap joins
    (rows-1, c) to (0, y crossing of c); a joined pair that is one site raises
    ValueError.
    """
    edges = naive_grid_edges(rows, cols)
    tags = {}
    if bc["x"]["enabled"]:
        for r in range(rows):
            a, b = r * cols + cols - 1, _cross(bc["x"], r, rows) * cols
            if a == b:
                raise ValueError(f"x wrap maps row {r} onto itself")
            tags[len(edges)] = "x"
            edges.append((min(a, b), max(a, b)))
    if bc["y"]["enabled"]:
        for c in range(cols):
            a, b = (rows - 1) * cols + c, _cross(bc["y"], c, cols)
            if a == b:
                raise ValueError(f"y wrap maps column {c} onto itself")
            tags[len(edges)] = "y"
            edges.append((min(a, b), max(a, b)))
    return edges, tags


def naive_tile(rows, cols, bc, nx, ny, frequencies, orientations, fill):
    """A tiled chip in the JSON shape of a chip file, placed one tile column at a time.

    row_map[k] holds the unit row of each local row after k x crossings; the
    y wrap is taken to be plain.  Every chip edge images the first wrapped
    unit edge with its unit pair, and takes the direction of that edge's
    control (fill for a wrapped pair that orientations lacks).
    """
    unit_edges, _ = naive_wrap(rows, cols, bc)
    orient = {**{pair: fill for pair in unit_edges}, **orientations}
    row_map = [list(range(rows))]
    for _ in range(1, nx):
        row_map.append([_cross(bc["x"], r, rows) for r in row_map[-1]])
    big_rows, big_cols = rows * ny, cols * nx

    def unit_site(q):
        r, c = divmod(q, big_cols)
        return row_map[c // cols][r % rows] * cols + c % cols

    def tile_of(q):
        r, c = divmod(q, big_cols)
        return r // rows, c // cols

    unit_edge_index = {}
    for idx, pair in enumerate(unit_edges):
        unit_edge_index.setdefault(pair, idx)
    chip_edges = naive_grid_edges(big_rows, big_cols)
    chip_orient, seams, image = {}, [], {}
    for idx, (a, b) in enumerate(chip_edges):
        ua, ub = unit_site(a), unit_site(b)
        upair = (min(ua, ub), max(ua, ub))
        image[str(idx)] = unit_edge_index[upair]
        if tile_of(a) != tile_of(b):
            seams.append(idx)
        control = upair[0] if orient[upair] == 0 else upair[1]
        chip_orient[f"{a}-{b}"] = 0 if ua == control else 1
    freqs = {str(q): frequencies[unit_site(q)] for q in range(big_rows * big_cols)}
    geometry = {"kind": "square", "rows": big_rows, "cols": big_cols,
                "tiled_from": {"rows": rows, "cols": cols, "bc": bc, "reps": [nx, ny]}}
    return {
        "topology": {"n_qubits": big_rows * big_cols, "edges": [list(e) for e in chip_edges],
                     "geometry": geometry, "orientation": chip_orient},
        "assignment": {"frequencies_mhz": freqs, "orientations": chip_orient},
        "unit_geometry": [rows, cols], "reps": [nx, ny], "bc": bc,
        "seam_edges": seams, "edge_image": image,
    }


def naive_seam_violations(chip_edges, seam_edges, participants):
    """Indexes of the participant tuples with a coupler pair on a seam edge.

    A pair rule reads the coupler (p0, p1); a three-qubit rule reads
    (p0, p1) and (p1, p2).
    """
    seams = {tuple(chip_edges[i]) for i in seam_edges}
    hits = []
    for n, parts in enumerate(participants):
        pairs = [parts[:2]] if len(parts) == 2 else [parts[:2], parts[1:3]]
        if any((min(a, b), max(a, b)) in seams for a, b in pairs):
            hits.append(n)
    return hits
