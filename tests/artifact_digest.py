"""Write a fixed set of CLI artifacts, so two source trees can be diffed byte for byte.

Run from the repository root:

    PYTHONPATH=src python -m tests.artifact_digest OUTDIR

Every command runs in process through freqalloc.cli.main inside OUTDIR.
The artifacts are LP files (among them the four models the benchmark
solves), anneal solutions (including windows, alpha, gap separations and
grid steps that are not exact in binary), verify reports at base and
tightened bounds (one of them with DIFF on a 256-qubit chip), yield and
threshold CSVs (some sharded with --jobs 2, one threshold escalating to its
trial cap), two topologies and one threshold CSV whose options all come from
--config (a preset and a custom boundary condition, a bracket list), the
chip, report and yield files of three tilings, the chip and report of a
fourth whose seams collide, and the chip and report of a Möbius (flip)
tiling.  The .meta.json sidecars, which
hold wall-clock data, are deleted; transcript.txt keeps each command's exit
code, stdout and stderr.  A last step reads every topology, solution, chip,
params and config file back through its library reader and writes one
readback.txt line per file: "ok", or the error the reader raised.
Outputs from two trees then compare with

    diff -r OLD_OUTDIR NEW_OUTDIR

An empty diff proves that the two trees write identical artifacts for
these commands.  The whole set takes well under a minute.

tests/golden/artifact_digest.sha256 holds one SHA-256 per artifact and the
NumPy and SciPy versions it was written with; tests/test_digest.py checks
the tree against it.  After an intended artifact change, rewrite it with

    PYTHONPATH=src python -m tests.artifact_digest --manifest OUTDIR
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import pathlib
import sys

import numpy
import scipy

from freqalloc.assembly import ChipAssembly, preset_bc, tile
from freqalloc.cli import RunConfig, main
from freqalloc.constraints import ConstraintParams, default_params
from freqalloc.model import Solution
from freqalloc.topology import Topology, square_grid, uniform_orientation, wrap

UNIT_DIR = pathlib.Path(__file__).resolve().parent / "fixtures" / "units"
MANIFEST = pathlib.Path(__file__).resolve().parent / "golden" / "artifact_digest.sha256"

# parameters whose window ends, alpha, tightening and gap separation are not exact in binary
OFF_GRID_PARAMS = {
    "f_window": [4800.1, 5300.7],
    "alpha": -217.3,
    "eps_tol": {fam: 7.3 for fam in ("A1", "A2", "E1", "E2", "S1", "S2", "T1")},
    "delta_diff": 2.7,
}


def write_inputs() -> None:
    """Parameter, config, fixed-orientation topology and unit solution files."""
    files = {
        "offgrid.params.json": OFF_GRID_PARAMS,
        "c1off.params.json": {"c1_enabled": False, "diff_separation": False,
                              "delta_diff": 3.0, "eps_tol": {"C1": 5.0, "A1": 4.0}},
        "c1tight.params.json": {"eps_tol": {"C1": 6.0, "S1": 2.5}},
        "quick.config.json": {"solver": {"anneal": {"cooling_rate": 0.97}}},
        "p3step.config.json":
            {"solver": {"anneal": {"cooling_rate": 0.97, "freq_step_mhz": 0.3}}},
        "g2x2step.config.json":
            {"solver": {"anneal": {"cooling_rate": 0.97, "freq_step_mhz": 0.7}}},
        # topo and threshold runs whose every option comes from the config
        "g4x4_pbc2.config.json":
            {"topology": {"kind": "square", "rows": 4, "cols": 4, "bc": "PBC2"},
             "output": {"out": "g4x4_pbc2_config.json"}},
        "g3x4_custom.config.json":
            {"topology": {"rows": 3, "cols": 4,
                          "bc": {"name": "twist", "x": {"shift": 1, "flip": True},
                                 "y": {"shift": 2, "enabled": True}}},
             "output": {"out": "g3x4_custom_config.json"}},
        "threshold.config.json":
            {"yield": {"target": 0.8, "bracket": [0.5, 30], "tol_mhz": 0.3, "trials": 1500,
                       "seed": 9, "max_trials": 12000, "jobs": 1},
             "output": {"out": "pbc1_4x4_config.threshold.csv"}},
        "pbc1_4x4.sol.json": json.loads((UNIT_DIR / "pbc1_4x4.json").read_text())["solution"],
        "mbc2_4x4.sol.json": json.loads((UNIT_DIR / "mbc2_4x4.json").read_text())["solution"],
    }
    for name, obj in files.items():
        pathlib.Path(name).write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n")
    for name, topo in (("g2x2_fixed.json", square_grid(2, 2)),
                       ("g3x3_pbc1_fixed.json", wrap(square_grid(3, 3), preset_bc("PBC1")))):
        topo.orientation = uniform_orientation(topo)
        pathlib.Path(name).write_text(topo.to_json())
    # the benchmark's fixed-mode model: the wrapped 3x3 in the committed PBC1 unit's orientation
    unit = wrap(square_grid(3, 3), preset_bc("PBC1")).to_json_dict()
    unit["orientation"] = json.loads((UNIT_DIR / "pbc1_3x3.json").read_text())["solution"]["orientations"]
    pathlib.Path("w3x3_pbc1_unit.json").write_text(json.dumps(unit, indent=1) + "\n")
    # the 4x4 tiling of the PBC1 unit (256 qubits) as plain topology and solution files
    chip = tile(square_grid(4, 4), Solution.from_json_dict(files["pbc1_4x4.sol.json"]),
                preset_bc("PBC1"), 4, 4, default_params())
    pathlib.Path("chip4x4_topo.json").write_text(chip.chip_topology.to_json())
    sol = Solution("feasible", chip.chip_assignment.frequencies, chip.chip_assignment.orientations)
    pathlib.Path("chip4x4.sol.json").write_text(json.dumps(sol.to_json_dict(), indent=1) + "\n")


# (solution name, topology, seed, parameter flags, solver flags)
ANNEALS = (
    [(f"g2x2_eps10_s{s}", "g2x2", s, ["--eps-tol", "10"], []) for s in range(3)]
    + [(f"p2_quick_s{s}", "p2", s, ["--eps-tol", "10"], ["--config", "quick.config.json"])
       for s in range(8)]
    + [(f"p3_offgrid_s{s}", "p3", s, ["--params", "offgrid.params.json"],
        ["--config", "p3step.config.json"]) for s in range(4)]
    + [("g2x2_offgrid_s0", "g2x2", 0, ["--params", "offgrid.params.json"],
        ["--config", "g2x2step.config.json"]),
       ("g2x2_fixed_s1", "g2x2_fixed", 1, ["--eps-tol", "5"], ["--mode", "fixed"])]
)


def commands() -> list[list[str]]:
    """The digest's CLI commands, in order; later ones read earlier outputs."""
    cmds = [
        ["topo", "--rows", "2", "--cols", "2", "--out", "g2x2.json"],
        ["topo", "--rows", "1", "--cols", "2", "--out", "p2.json"],
        ["topo", "--rows", "1", "--cols", "3", "--out", "p3.json"],
        ["topo", "--rows", "3", "--cols", "3", "--bc", "PBC1", "--out", "g3x3_pbc1.json"],
        ["topo", "--rows", "4", "--cols", "4", "--bc", "MBC2", "--out", "g4x4_mbc2.json"],
        ["topo", "--rows", "4", "--cols", "4", "--bc", "PBC1", "--out", "g4x4_pbc1.json"],
        ["topo", "--rows", "4", "--cols", "4", "--out", "u4x4.json"],
        ["topo", "--kind", "hex", "--rings", "2", "--out", "hex2.json"],
        ["topo", "--rows", "1", "--cols", "5", "--out", "p5.json"],
        ["topo", "--rows", "2", "--cols", "3", "--out", "g2x3.json"],
        ["topo", "--rows", "3", "--cols", "3", "--out", "g3x3.json"],
        ["topo", "--config", "g4x4_pbc2.config.json"],
        ["topo", "--config", "g3x4_custom.config.json"],
    ]
    for name, topo, flags in [
        ("pbc1_free_eps10_diff3", "g3x3_pbc1", ["--eps-tol", "10", "--diff", "3"]),
        ("hex2_free", "hex2", []),
        ("g2x2_window", "g2x2", ["--window", "4800:5300", "--diff", "2"]),
        ("mbc2_free_eps20", "g4x4_mbc2", ["--eps-tol", "20"]),
        ("pbc1_fixed", "g3x3_pbc1_fixed", ["--mode", "fixed"]),
        ("g2x2_c1off_proximity", "g2x2", ["--params", "c1off.params.json"]),
        ("pbc1_c1tight", "g3x3_pbc1", ["--params", "c1tight.params.json"]),
        ("pbc1_fixed_c1tight", "g3x3_pbc1_fixed",
         ["--mode", "fixed", "--params", "c1tight.params.json"]),
        ("g2x2_offgrid", "g2x2", ["--params", "offgrid.params.json"]),
        # the four MILP models the benchmark solves
        ("unit_p5_eps10", "p5", ["--eps-tol", "10"]),
        ("unit_g2x3_eps10", "g2x3", ["--eps-tol", "10"]),
        ("unit_w3x3_pbc1_fixed_eps10", "w3x3_pbc1_unit", ["--mode", "fixed", "--eps-tol", "10"]),
        ("unit_g3x3_eps10", "g3x3", ["--eps-tol", "10"]),
        ("pbc1_4x4_free_diff2", "g4x4_pbc1", ["--diff", "2"]),
    ]:
        cmds.append(["build", "--topology", f"{topo}.json", *flags, "--out", f"{name}.lp"])

    # a timed-out anneal makes its verify commands exit 2, which the transcript records
    verified = [(name, topo, pflags) for name, topo, _, pflags, _ in ANNEALS]
    verified.append(("pbc1_4x4", "g4x4_pbc1", ["--diff", "2"]))
    for name, topo, seed, pflags, sflags in ANNEALS:
        cmds.append(["solve", "--topology", f"{topo}.json", "--backend", "anneal",
                     "--seed", str(seed), *pflags, *sflags, "--out", f"{name}.sol.json"])
    for name, topo, pflags in verified:
        for bounds in ("tightened", "base"):
            cmds.append(["verify", "--topology", f"{topo}.json", "--solution", f"{name}.sol.json",
                         *pflags, "--bounds", bounds, "--out", f"{name}.verify_{bounds}.json"])
    # DIFF at chip size: 120,548 instances at tightened bounds, some of them violated
    cmds.append(["verify", "--topology", "chip4x4_topo.json", "--solution", "chip4x4.sol.json",
                 "--diff", "2", "--eps-tol", "5", "--bounds", "tightened",
                 "--out", "chip4x4_diff.verify.json"])

    unit = ["--topology", "g4x4_pbc1.json", "--solution", "pbc1_4x4.sol.json"]
    cmds += [
        ["yield", "--topology", "g2x2.json", "--solution", "g2x2_eps10_s0.sol.json",
         "--sigma", "2,5,10,20", "--trials", "2000", "--seed", "3", "--out", "g2x2.yield.csv"],
        ["yield", *unit, "--sigma", "2,4,6,8,10", "--trials", "4000", "--seed", "5",
         "--out", "pbc1_4x4.yield.csv"],
        ["threshold", *unit, "--target", "0.5", "--bracket", "1:20", "--tol", "0.5",
         "--trials", "2000", "--seed", "2", "--max-trials", "16000",
         "--out", "pbc1_4x4.threshold.csv"],
        ["yield", *unit, "--sigma", "2,4,6,8,10,15,20", "--trials", "5000", "--seed", "7",
         "--jobs", "2", "--out", "pbc1_4x4_jobs2.yield.csv"],
        # the probe at 5.15625 escalates 2000 -> 8000 -> 32000 trials
        ["threshold", *unit, "--target", "0.5", "--bracket", "1:20", "--tol", "0.25",
         "--trials", "2000", "--seed", "4", "--max-trials", "32000",
         "--out", "pbc1_4x4_cap.threshold.csv"],
        ["threshold", *unit, "--config", "threshold.config.json"],
        ["assemble", "--unit", "u4x4.json", "--solution", "pbc1_4x4.sol.json", "--bc", "PBC1",
         "--nx", "4", "--ny", "4", "--sigma", "1.75,2.25", "--trials", "600", "--seed", "2",
         "--jobs", "2", "--out", "chip4x4_jobs2"],
    ]
    for n, trials in ((4, "1000"), (8, "256")):
        cmds.append(["assemble", "--unit", "u4x4.json", "--solution", "pbc1_4x4.sol.json",
                     "--bc", "PBC1", "--nx", str(n), "--ny", str(n), "--sigma", "1.75,2.25",
                     "--trials", trials, "--seed", "1", "--out", f"chip{n}x{n}"])
    # a PBC1 unit tiled under PBC2: the seams collide, so the report lists violations
    cmds.append(["assemble", "--unit", "u4x4.json", "--solution", "pbc1_4x4.sol.json",
                 "--bc", "PBC2", "--nx", "4", "--ny", "4", "--fill-orientation", "0",
                 "--out", "chip4x4_pbc2"])
    # an odd number of flipped seams per row of tiles: the flip parity reaches the chip
    cmds.append(["assemble", "--unit", "u4x4.json", "--solution", "mbc2_4x4.sol.json",
                 "--bc", "MBC2", "--nx", "3", "--ny", "2", "--out", "chip3x2_mbc2"])
    return cmds


def _document(reader):
    """A path reader that parses the file's JSON and hands it to reader."""
    return lambda path: reader(json.loads(pathlib.Path(path).read_text()))


def readback_files() -> list[tuple[str, object]]:
    """(file, reader) for every JSON input and artifact the library reads back."""
    topologies = ["g2x2", "p2", "p3", "g3x3_pbc1", "g4x4_mbc2", "g4x4_pbc1", "u4x4", "hex2",
                  "p5", "g2x3", "g3x3", "g4x4_pbc2_config", "g3x4_custom_config", "g2x2_fixed",
                  "g3x3_pbc1_fixed", "w3x3_pbc1_unit", "chip4x4_topo"]
    solutions = ["pbc1_4x4", "chip4x4", *(name for name, *_ in ANNEALS)]
    chips = ["chip4x4_jobs2", "chip4x4", "chip8x8", "chip4x4_pbc2", "chip3x2_mbc2"]
    return ([(f"{name}.json", _document(Topology.from_json_dict)) for name in topologies]
            + [(f"{name}.sol.json", _document(Solution.from_json_dict)) for name in solutions]
            + [(f"{name}.chip.json", _document(ChipAssembly.from_json_dict)) for name in chips]
            + [(f"{name}.params.json", _document(ConstraintParams.from_json_dict))
               for name in ("offgrid", "c1off", "c1tight")]
            + [(f"{name}.config.json", RunConfig.load)
               for name in ("quick", "p3step", "g2x2step", "g4x4_pbc2", "g3x4_custom",
                            "threshold")])


def readback() -> str:
    lines = []
    for name, reader in readback_files():
        try:
            reader(name)
            lines.append(f"{name}: ok")
        except Exception as exc:  # the line records whatever the reader raised
            lines.append(f"{name}: {type(exc).__name__}: {exc}")
    return "\n".join(lines) + "\n"


def run(outdir: pathlib.Path) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    cwd = os.getcwd()
    os.chdir(outdir)
    try:
        write_inputs()
        transcript = []
        for cmd in commands():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(cmd)
            transcript.append(f"$ freqalloc {' '.join(cmd)}\nexit {code}\n"
                              f"{out.getvalue()}{err.getvalue()}")
        for meta in pathlib.Path(".").glob("*.meta.json"):
            meta.unlink()
        pathlib.Path("transcript.txt").write_text("\n".join(transcript))
        pathlib.Path("readback.txt").write_text(readback())
    finally:
        os.chdir(cwd)


def library_versions() -> dict[str, str]:
    """The versions of the libraries whose arithmetic the artifacts depend on."""
    return {"numpy": numpy.__version__, "scipy": scipy.__version__}


def manifest(outdir: pathlib.Path) -> str:
    """The library versions as comment lines, then one sha256sum line per file of outdir."""
    lines = [f"# {name} {version}" for name, version in library_versions().items()]
    for path in sorted(outdir.rglob("*")):
        if path.is_file():
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            lines.append(f"{digest}  {path.relative_to(outdir).as_posix()}")
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    args = sys.argv[1:]
    write_manifest = args[:1] == ["--manifest"]
    if len(args) != 1 + write_manifest:
        sys.exit("usage: python -m tests.artifact_digest [--manifest] OUTDIR")
    run(pathlib.Path(args[-1]))
    if write_manifest:
        MANIFEST.write_text(manifest(pathlib.Path(args[-1])))
