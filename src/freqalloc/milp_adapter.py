"""Reference MILP solver wrapper: LP file in, JSON solution out.

Speaks the same CPLEX-LP dialect subset that model.export_lp emits
(Maximize / Subject To / Bounds / Binary / End) and solves with HiGHS via
scipy.optimize.milp.  Meant to be wired in as the external solver command:

    python -m freqalloc.milp_adapter {lp} {out} [--time-limit S] [--gap G]

The JSON written to {out} is {"status": ..., "values": {name: value}} with
every variable present for solved statuses, plus HiGHS's branch-and-bound
node count, relative gap and dual bound (in the LP's own sense) when they
are finite.
"""
from __future__ import annotations

import argparse
import json
import math
import re
import sys

import numpy as np
from scipy import optimize, sparse


class LPParseError(ValueError):
    pass


_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_TERM_RE = re.compile(rf"([+-]?)\s*(\d+\.?\d*(?:[eE][+-]?\d+)?)?\s*({_NAME})")
_NUM_RE = re.compile(r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")


def _parse_terms(text: str) -> dict[str, float]:
    coeffs: dict[str, float] = {}
    pos = 0
    text = text.strip()
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        if not m:
            raise LPParseError(f"cannot parse linear terms at: {text[pos:pos + 40]!r}")
        sign, mag, var = m.groups()
        c = float(mag) if mag else 1.0
        if sign == "-":
            c = -c
        coeffs[var] = coeffs.get(var, 0.0) + c
        pos = m.end()
        while pos < len(text) and text[pos] in " \t":
            pos += 1
    return coeffs


def _finite(text: str, what: str, line: str) -> float:
    value = float(text) if _NUM_RE.fullmatch(text) else math.nan
    if not math.isfinite(value):
        raise LPParseError(f"{what} is not a finite number: {line!r}")
    return value


def parse_lp(text: str) -> dict:
    """Parse the dialect subset into {sense, objective, rows, bounds, binaries}."""
    lines: list[str] = []
    for raw in text.splitlines():
        line = raw.split("\\", 1)[0].strip()
        if line:
            lines.append(line)

    sections = ("maximize", "minimize", "subject to", "bounds", "binary", "end")
    sense = None
    objective: dict[str, float] = {}
    rows: list[tuple[str, dict[str, float], str, float]] = []
    bounds: dict[str, tuple[float, float]] = {}
    binaries: list[str] = []

    i = 0
    section = None
    while i < len(lines):
        low = lines[i].lower()
        if low in sections:
            section = low
            if low in ("maximize", "minimize"):
                sense = low
            if low == "end":
                break
            i += 1
            continue
        if section in ("maximize", "minimize"):
            body = lines[i].split(":", 1)[1] if ":" in lines[i] else lines[i]
            if body.strip():
                for var, c in _parse_terms(body).items():
                    objective[var] = objective.get(var, 0.0) + c
        elif section == "subject to":
            if ":" not in lines[i]:
                raise LPParseError(f"constraint without a name: {lines[i]!r}")
            name, body = lines[i].split(":", 1)
            m = re.search(r"(<=|>=|=)", body)
            if not m:
                raise LPParseError(f"constraint without a sense: {lines[i]!r}")
            lhs, op, rhs = body[: m.start()], m.group(1), body[m.end():].strip()
            rows.append((name.strip(), _parse_terms(lhs), op,
                         _finite(rhs, "right-hand side", lines[i])))
        elif section == "bounds":
            # lo <= x <= hi, or x <= hi with lo = 0
            m = re.match(
                rf"^(?:({_NUM_RE.pattern})\s*<=\s*)?({_NAME})\s*<=\s*({_NUM_RE.pattern})$",
                lines[i],
            )
            if not m:
                raise LPParseError(f"unsupported bounds line: {lines[i]!r}")
            lo, var, hi = m.groups()
            bounds[var] = (_finite(lo or "0", "bound", lines[i]), _finite(hi, "bound", lines[i]))
        elif section == "binary":
            for tok in lines[i].split():
                if not re.fullmatch(_NAME, tok):
                    raise LPParseError(f"bad binary name: {tok!r}")
                binaries.append(tok)
        else:
            raise LPParseError(f"content outside any section: {lines[i]!r}")
        i += 1

    if sense is None:
        raise LPParseError("no Maximize/Minimize section")
    return {
        "sense": sense,
        "objective": objective,
        "rows": rows,
        "bounds": bounds,
        "binaries": binaries,
    }


def solve_lp(text: str, time_limit: float | None = None, gap: float | None = None) -> dict:
    """Solve a parsed LP/MILP and return the wrapper JSON document."""
    prob = parse_lp(text)

    names: list[str] = []
    index: dict[str, int] = {}

    def vid(name: str) -> int:
        if name not in index:
            index[name] = len(names)
            names.append(name)
        return index[name]

    for var in prob["objective"]:
        vid(var)
    for _, coeffs, _, _ in prob["rows"]:
        for var in coeffs:
            vid(var)
    for var in prob["bounds"]:
        vid(var)
    for var in prob["binaries"]:
        vid(var)

    n = len(names)
    c = np.zeros(n)
    for var, coef in prob["objective"].items():
        c[index[var]] = coef
    if prob["sense"] == "maximize":
        c = -c

    lb = np.zeros(n)
    ub = np.full(n, np.inf)
    for var, (lo, hi) in prob["bounds"].items():
        lb[index[var]] = lo
        ub[index[var]] = hi
    integrality = np.zeros(n)
    for var in prob["binaries"]:
        integrality[index[var]] = 1
        lb[index[var]] = 0.0
        ub[index[var]] = 1.0

    constraints = []
    if prob["rows"]:
        data, ri, ci = [], [], []
        bl = np.empty(len(prob["rows"]))
        bu = np.empty(len(prob["rows"]))
        for r, (_, coeffs, op, rhs) in enumerate(prob["rows"]):
            for var, coef in coeffs.items():
                data.append(coef)
                ri.append(r)
                ci.append(index[var])
            if op == ">=":
                bl[r], bu[r] = rhs, np.inf
            elif op == "<=":
                bl[r], bu[r] = -np.inf, rhs
            else:
                bl[r] = bu[r] = rhs
        a = sparse.csr_matrix((data, (ri, ci)), shape=(len(prob["rows"]), n))
        constraints = [optimize.LinearConstraint(a, bl, bu)]

    options: dict = {}
    if time_limit is not None:
        options["time_limit"] = float(time_limit)
    if gap is not None:
        options["mip_rel_gap"] = float(gap)

    res = optimize.milp(
        c,
        constraints=constraints,
        bounds=optimize.Bounds(lb, ub),
        integrality=integrality,
        options=options,
    )

    if res.status == 0:
        status = "optimal"
    elif res.status == 1:
        status = "feasible" if res.x is not None else "timeout"
    elif res.status == 2:
        status = "infeasible"
    else:
        raise RuntimeError(f"solver failed: status {res.status} ({res.message})")

    doc: dict = {"status": status}
    if res.x is not None:
        doc["values"] = {name: float(res.x[index[name]]) for name in names}
    for key in ("mip_node_count", "mip_gap", "mip_dual_bound"):
        value = getattr(res, key, None)
        if value is not None and math.isfinite(value):
            # HiGHS minimizes the negated objective of a Maximize model
            flip = key == "mip_dual_bound" and prob["sense"] == "maximize"
            doc[key] = -value if flip else value
    return doc


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m freqalloc.milp_adapter",
        description="Solve an exported LP file and write the JSON solution.",
    )
    ap.add_argument("lp_file")
    ap.add_argument("out_file")
    ap.add_argument("--time-limit", type=float, default=None, help="seconds")
    ap.add_argument("--gap", type=float, default=None, help="relative MIP gap")
    args = ap.parse_args(argv)

    try:
        with open(args.lp_file, encoding="utf-8") as fh:
            text = fh.read()
        doc = solve_lp(text, time_limit=args.time_limit, gap=args.gap)
    except (OSError, LPParseError, RuntimeError) as exc:
        print(f"milp_adapter: {exc}", file=sys.stderr)
        return 1
    with open(args.out_file, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
