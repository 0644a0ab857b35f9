"""Reference MILP solver wrapper: LP file in, JSON solution out.

Speaks the same CPLEX-LP dialect subset that model.export_lp emits
(Maximize / Subject To / Bounds / Binary / End; Maximize only) and solves
with HiGHS via scipy.optimize.milp.  Meant to be wired in as the external
solver command:

    python -m freqalloc.milp_adapter {lp} {out} [--time-limit S]

The JSON written to {out} is {"status": ..., "values": {name: value}} with
every variable present for solved statuses, plus HiGHS's branch-and-bound
node count, relative gap and dual bound (an upper bound on the maximized
objective) when they are finite.
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
    """Parse the dialect subset into {objective, rows, bounds, binaries}.

    The file must open with its Maximize section, and every objective and
    constraint line must carry its "name:" label; a Minimize file, one with
    no objective section, or an unlabelled line raises LPParseError.
    """
    lines: list[str] = []
    for raw in text.splitlines():
        line = raw.split("\\", 1)[0].strip()
        if line:
            lines.append(line)
    if not lines or lines[0].lower() != "maximize":
        raise LPParseError("the LP does not open with a Maximize section")

    sections = ("maximize", "subject to", "bounds", "binary", "end")
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
            if low == "end":
                break
            i += 1
            continue
        if section == "maximize":
            if ":" not in lines[i]:
                raise LPParseError(f"objective without a name: {lines[i]!r}")
            body = lines[i].split(":", 1)[1]
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
        else:  # binary; the first line opened the Maximize section
            for tok in lines[i].split():
                if not re.fullmatch(_NAME, tok):
                    raise LPParseError(f"bad binary name: {tok!r}")
                binaries.append(tok)
        i += 1

    return {"objective": objective, "rows": rows, "bounds": bounds, "binaries": binaries}


def solve_lp(text: str, time_limit: float | None = None) -> dict:
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
    c = np.zeros(n)  # HiGHS minimizes, so the Maximize objective is negated
    for var, coef in prob["objective"].items():
        c[index[var]] = -coef

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
            doc[key] = -value if key == "mip_dual_bound" else value
    return doc


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m freqalloc.milp_adapter",
        description="Solve an exported LP file and write the JSON solution.",
    )
    ap.add_argument("lp_file")
    ap.add_argument("out_file")
    ap.add_argument("--time-limit", type=float, default=None, help="seconds")
    args = ap.parse_args(argv)

    try:
        with open(args.lp_file, encoding="utf-8") as fh:
            text = fh.read()
        doc = solve_lp(text, time_limit=args.time_limit)
    except (OSError, LPParseError, RuntimeError) as exc:
        print(f"milp_adapter: {exc}", file=sys.stderr)
        return 1
    with open(args.out_file, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
