"""The benchmark's workloads: input generation, one pass of CLI commands, checks.

Every workload runs the README pipeline (solve, verify, anneal, yield,
threshold, assemble) through ``freqalloc.cli.main``, so that every
end-to-end metric exists on every workload; each workload makes a
different stage heavy.  Inputs depend on the seed only through the
annealer seeds, the Monte Carlo seeds and the independent check's draws.
"""
from __future__ import annotations

import csv
import json
import statistics
from pathlib import Path

from checks import (
    curve_crossing,
    independent_successes,
    objective_matches,
    wilson_overlap,
)

EPS = 10  # MHz tightening of every MILP and anneal solve
TARGET = 0.5
BRACKET = (1.0, 20.0)
TOL = 0.5
UNIT_SIGMAS = [2, 4, 6, 8, 10, 12, 14, 16, 18, 20]
CHIP_SIGMAS = [1.75, 2.25]


class Workload:
    """A named input set: ``prepare`` writes the inputs, ``run_pass`` times one pass."""

    name = ""

    def __init__(self, root: Path):
        self.root = root
        self.fixtures = root / "tests" / "fixtures" / "units"

    def prepare(self, r, work: Path) -> None:
        raise NotImplementedError

    def run_pass(self, r, work: Path, seed: int) -> dict[str, float]:
        raise NotImplementedError

    # -- input helpers ---------------------------------------------------------

    def topo(self, r, work: Path, name: str, rows: int, cols: int, bc: str | None = None) -> None:
        argv = ["topo", "--rows", rows, "--cols", cols, "--out", work / f"{name}.json"]
        if bc:
            argv[1:1] = ["--bc", bc]
        r.setup_cli(*argv)

    def fixture(self, work: Path, name: str, out: str) -> dict:
        """Write a committed unit fixture's solution as a CLI solution file."""
        doc = json.loads((self.fixtures / f"{name}.json").read_text())
        (work / out).write_text(json.dumps(doc["solution"], indent=1) + "\n")
        return doc["solution"]


# -- steps -----------------------------------------------------------------------


class Pass:
    """One pass: steps run round-robin, each adding a sample.

    Running the queues round-robin spreads each metric's samples over the
    whole pass, and each metric reports the median of its samples.
    """

    def __init__(self, r, work: Path, seed: int):
        self.r, self.work, self.seed = r, work, seed
        self.milp: dict[str, list[float]] = {}
        self.anneal: list[tuple[float, float | None, str, Path]] = []
        self.yield_rates: list[float] = []
        self.curve: list[dict] = []
        self.thresholds: list[tuple[int, float, float]] = []
        self.assemble: list[float] = []

    def run(self, *queues) -> None:
        queues = [list(q) for q in queues]
        while any(queues):
            for q in queues:
                if q:
                    step, *args = q.pop(0)
                    step(self, *args)

    def metrics(self) -> dict[str, float]:
        """End-to-end metrics of the pass; checks that need every step run here."""
        r = self.r
        crossing, step = curve_crossing(self.curve, TARGET)
        for s, star, _ in self.thresholds:
            r.check(BRACKET[0] < star < BRACKET[1] and crossing is not None
                    and abs(star - crossing) <= step,
                    f"threshold seed {s}: sigma* {star} vs curve crossing {crossing}")
        # a restart may end infeasible; the best one must be feasible and verify
        best = max((a for a in self.anneal if a[1] is not None), default=None,
                   key=lambda a: a[1])
        r.check(best is not None, "no anneal restart reached a feasible point")
        if best is not None:
            r.cli("verify", "--topology", self.work / f"{best[2]}.json", "--solution", best[3],
                  "--eps-tol", EPS, "--bounds", "tightened")
        return {
            "milp_solve_s": sum(statistics.median(t) for t in self.milp.values()),
            "anneal_s": statistics.median(a[0] for a in self.anneal),
            "anneal_objective_mhz": best[1] if best is not None else 0.0,
            "yield_trials_per_s": statistics.median(self.yield_rates),
            "threshold_s": statistics.median(t[2] for t in self.thresholds),
            "assemble_s": statistics.median(self.assemble),
        }


def solve(p: Pass, label: str, mode: str, reference: float) -> None:
    """External-backend solve of work/label.json, then verify at tightened bounds."""
    topo, sol = p.work / f"{label}.json", p.work / f"{label}.sol.json"
    dt = p.r.cli("solve", "--topology", topo, "--mode", mode, "--eps-tol", EPS, "--out", sol)
    p.milp.setdefault(label, []).append(dt)
    obj = read_json(sol).get("objective_mhz")
    p.r.check(objective_matches(obj, reference),
              f"{label} {mode}: objective {obj} differs from the reference {reference}")
    p.r.cli("verify", "--topology", topo, "--solution", sol, "--eps-tol", EPS,
            "--bounds", "tightened")


def anneal(p: Pass, label: str, seed: int, *extra) -> None:
    sol = p.work / f"{label}.anneal{seed}.sol.json"
    dt = p.r.cli("solve", "--topology", p.work / f"{label}.json", "--mode", "free",
                 "--eps-tol", EPS, "--backend", "anneal", "--seed", seed, *extra, "--out", sol)
    p.anneal.append((dt, read_json(sol).get("objective_mhz"), label, sol))


def yield_curve(p: Pass, topo: str, sol: str, sigmas, trials: int, check_sigmas=(),
                draws: int = 0, timed: bool = True) -> None:
    """One yield command at the pass seed; its rows extend the pass's curve.

    The estimate at each sigma in check_sigmas must agree with an independent
    estimate drawn with the benchmark's own generator.
    """
    out = p.work / f"yield{len(p.curve)}.csv"
    dt = p.r.cli("yield", "--topology", p.work / topo, "--solution", p.work / sol,
                 "--sigma", ",".join(str(s) for s in sigmas), "--trials", trials,
                 "--seed", p.seed, "--out", out)
    rows = read_csv(out)
    p.r.check([float(row["sigma"]) for row in rows] == [float(s) for s in sigmas]
              and all(int(row["trials"]) == trials for row in rows),
              f"yield CSV rows do not match sigma {sigmas} x {trials} trials")
    p.curve.extend(rows)
    ys = [int(row["successes"]) for row in p.curve]
    p.r.check(all(b <= a for a, b in zip(ys, ys[1:])),
              f"yield curve is not nonincreasing in sigma: {ys}")
    if timed:
        p.yield_rates.append(len(sigmas) * trials / dt)
    for row in rows:
        if float(row["sigma"]) in check_sigmas:
            ok, n = independent_successes(p.work / topo, p.work / sol, float(row["sigma"]),
                                          draws, p.seed)
            succ = int(row["successes"])
            p.r.check(wilson_overlap(succ, trials, ok, n),
                      f"yield at sigma {row['sigma']}: {succ}/{trials} disagrees with the "
                      f"independent estimate {ok}/{n}")


def threshold(p: Pass, topo: str, sol: str, seed: int, trials: int, max_trials: int) -> None:
    """With max_trials equal to trials no probe escalates, so every seed does
    the same work; otherwise the work depends on how close the probes land to
    the crossing, which the median over seeds evens out."""
    out = p.work / f"threshold{seed}.csv"
    dt = p.r.cli("threshold", "--topology", p.work / topo, "--solution", p.work / sol,
                 "--target", TARGET, "--bracket", f"{BRACKET[0]}:{BRACKET[1]}",
                 "--trials", trials, "--tol", TOL, "--max-trials", max_trials,
                 "--seed", seed, "--out", out)
    rows = read_csv(out)
    p.thresholds.append((seed, float(rows[0]["sigma_star"]) if rows else float("nan"), dt))


def assemble(p: Pass, unit: str, sol: str, n: int, *extra) -> None:
    """Assemble an n x n tiling of the PBC1 unit; the chip report must be clean."""
    out = p.work / f"chip{n}"
    dt = p.r.cli("assemble", "--unit", p.work / unit, "--solution", p.work / sol, "--bc", "PBC1",
                 "--nx", n, "--ny", n, *extra, "--out", out)
    report = read_json(Path(f"{out}.report.json"))
    check = report.get("check", {})
    p.r.check(report.get("unit_wrap_feasible") is True and check.get("ok") is True
              and check.get("n_violations") == 0,
              f"{n}x{n} chip report is not clean: {check.get('n_violations')} violations")
    p.assemble.append(dt)


def derived(seed: int, count: int) -> list[int]:
    """count seeds for the workload seed, disjoint across workload seeds."""
    return [count * seed + i for i in range(count)]


# -- workloads -------------------------------------------------------------------


class UnitSolve(Workload):
    """The design loop: four MILP solves through the external adapter, then anneals."""

    name = "unit_solve"
    MILP = (  # label, mode, reference optimum at eps 10 (MHz)
        ("p5", "free", 1870.0),
        ("g2x3", "free", 4160.0 / 3.0),
        ("w3x3f", "fixed", 1042.0),
        ("g3x3", "free", 1366.0),
    )

    def prepare(self, r, work):
        self.topo(r, work, "p5", 1, 5)
        self.topo(r, work, "g2x3", 2, 3)
        self.topo(r, work, "g3x3", 3, 3)
        self.topo(r, work, "g2x2", 2, 2)
        self.topo(r, work, "w3x3", 3, 3, "PBC1")
        # the wrapped 3x3 in the fixed orientation of the committed PBC1 unit
        doc = read_json(work / "w3x3.json")
        doc["orientation"] = self.fixture(work, "pbc1_3x3", "fixture.sol.json")["orientations"]
        (work / "w3x3f.json").write_text(json.dumps(doc, indent=1) + "\n")

    def run_pass(self, r, work, seed):
        p = Pass(r, work, seed)
        unit = ("w3x3f.json", "w3x3f.sol.json")
        p.run([(solve, *case) for case in self.MILP],
              [(anneal, "g2x2", s) for s in derived(seed, 3)])
        p.run([(yield_curve, *unit, UNIT_SIGMAS[i:i + 2], 8000, {4, 8}, 400)
               for i in range(0, 6, 2)],
              [(threshold, *unit, s, 3000, 3000) for s in derived(seed, 4)],
              [(assemble, "g3x3.json", unit[1], 10, "--eps-tol", EPS)] * 5)
        return p.metrics()


class UnitYield(Workload):
    """README characterization of the committed 4x4 PBC1 unit: curve and threshold."""

    name = "unit_yield"

    def prepare(self, r, work):
        self.topo(r, work, "u4x4", 4, 4)
        self.topo(r, work, "w4x4", 4, 4, "PBC1")
        self.topo(r, work, "p5", 1, 5)
        self.topo(r, work, "p2", 1, 2)
        self.fixture(work, "pbc1_4x4", "u4x4.sol.json")

    def run_pass(self, r, work, seed):
        p = Pass(r, work, seed)
        unit = ("w4x4.json", "u4x4.sol.json")
        r.cli("verify", "--topology", work / unit[0], "--solution", work / unit[1],
              "--bounds", "tightened")
        # the README curve, sigma 2..20 x 20000 trials, in five pieces
        p.run([(yield_curve, *unit, UNIT_SIGMAS[i:i + 2], 20000, {4, 6, 10}, 400)
               for i in range(0, 10, 2)],
              [(threshold, *unit, s, 2000, 32000) for s in derived(seed, 5)],
              *light_queues(p),
              [(assemble, "u4x4.json", unit[1], 8)] * 5)
        return p.metrics()


class ChipScale(Workload):
    """The 4x4 PBC1 unit tiled to 4096 qubits, and chip yield on the 1024-qubit tiling."""

    name = "chip_scale"

    def prepare(self, r, work):
        UnitYield.prepare(self, r, work)
        prefix = work / "chip8"
        r.setup_cli("assemble", "--unit", work / "u4x4.json", "--solution", work / "u4x4.sol.json",
                    "--bc", "PBC1", "--nx", 8, "--ny", 8, "--out", prefix)
        chip = read_json(Path(f"{prefix}.chip.json"))
        (work / "chip8.topo.json").write_text(json.dumps(chip["topology"]) + "\n")
        sol = dict(chip["assignment"], status="feasible")
        (work / "chip8.sol.json").write_text(json.dumps(sol) + "\n")

    def run_pass(self, r, work, seed):
        p = Pass(r, work, seed)
        chip = ("chip8.topo.json", "chip8.sol.json")
        unit = ("w4x4.json", "u4x4.sol.json")
        p.run([(assemble, "u4x4.json", unit[1], 16)],
              [(yield_curve, *chip, [s], 2048, {s}, 32) for s in CHIP_SIGMAS],
              *light_queues(p, anneals=16))
        # a unit curve, untimed, to judge the light thresholds against
        p.curve = []
        p.run([(yield_curve, *unit, UNIT_SIGMAS[:5], 4000, (), 0, False)])
        p.run([(threshold, *unit, s, 2000, 2000) for s in derived(seed, 8)])
        return p.metrics()


def light_queues(p: Pass, anneals: int = 8) -> list[list[tuple]]:
    """The design loop at its smallest, for workloads that stress other stages:
    three P5 solves, and the best of several quick anneals of the 2-qubit path."""
    config = p.work / "quick_anneal.json"
    config.write_text(json.dumps({"solver": {"anneal": {"cooling_rate": 0.97}}}) + "\n")
    return [[(solve, *UnitSolve.MILP[0])] * 3,
            [(anneal, "p2", s, "--config", config) for s in derived(p.seed, anneals)]]


WORKLOADS = {w.name: w for w in (UnitSolve, UnitYield, ChipScale)}


def read_json(path: Path) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError):
        return {}


def read_csv(path: Path) -> list[dict]:
    try:
        with open(path, newline="") as fh:
            return list(csv.DictReader(fh))
    except OSError:
        return []
