"""Command-line pipelines from topology generation to chip assembly.

Subcommands compose through files only: topo writes a topology JSON,
build turns it into an LP file, solve produces a solution JSON, and
verify / yield / threshold / assemble consume the pair.  Every output is
byte-deterministic for a given config and seed; wall-clock metadata goes
to a sidecar FILE.meta.json, never into the artifact itself.

Exit codes: 0 success, 2 usage or config error, 3 solver failure,
4 infeasible precondition (failed verification, also of a solution that
solve imported, or a dirty chip report).

Every JSON input file is read by _load through the typed readers of
freqalloc.jsonio, and a --config file overrides command-line flags: an
unknown key, or a value of the wrong JSON type or one its flag's type
rejects, exits 2 with one line naming it before any work happens.  The
params and solver sections are JSON-typed blocks; every key of the
topology, model, yield and output sections sets the flag with the same
dest (yield.tol_mhz sets --tol) of the commands that read the section,
through that flag's own type and choices.  The external solver command
template may also come from the FREQALLOC_SOLVER_CMD environment variable.
"""
from __future__ import annotations

import argparse
import datetime
import json
import os
import re
import sys
from dataclasses import dataclass, field, replace
from functools import partial

from . import __version__
from .assembly import PreconditionError, chip_check, preset_bc, seam_violations, tile
from .constraints import (
    ConstraintParams,
    default_params,
    enumerate_records,
    uniform_tightening,
)
from .jsonio import fields
from .model import Solution, SolutionParseError, build, export_lp
from .solve import SolverConfig, SolverFailure, solve_anneal, solve_external, verify
from .topology import BoundaryCondition, Topology, edge_key, hex_grid, hex_rings, square_grid, wrap
from .yield_mc import (
    CSV_HEADER,
    BracketError,
    csv_row,
    threshold_dispersion,
    yield_curve,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_SOLVER = 3
EXIT_INFEASIBLE = 4

SOLVER_CMD_ENV = "FREQALLOC_SOLVER_CMD"

THRESHOLD_CSV_HEADER = "target,sigma_star,bracket_lo,bracket_hi,trials,seed"


class ConfigError(ValueError, argparse.ArgumentTypeError):
    """A config file, flag value or flag combination that fails validation."""


# -- run configuration -------------------------------------------------------

# flag-backed config sections: their keys, and the commands that read them (None: all)
_FLAG_SECTIONS = {
    "topology": ({"kind", "rows", "cols", "rings", "cells_x", "cells_y", "bc"},
                 {"topo", "assemble"}),
    "model": ({"mode"}, {"build", "solve"}),
    "yield": ({"sigma", "trials", "seed", "jobs", "target", "bracket", "tol_mhz", "max_trials"},
              {"yield", "threshold", "assemble"}),
    "output": ({"out"}, None),
}
_LIST_SEPARATORS = {"sigma": ",", "bracket": ":"}


def _solver_block(value, where: str) -> dict:
    SolverConfig.from_json_dict(value, where)  # schema and range check up front
    return value


# a flag-backed key keeps its value, which fold_into reads with the flag's own type
_CONFIG_FIELDS = {"params": ConstraintParams.from_json_dict, "solver": _solver_block,
                  **{name: partial(fields, spec=dict.fromkeys(keys, lambda value, where: value))
                     for name, (keys, _) in _FLAG_SECTIONS.items()}}


@dataclass
class RunConfig:
    """Validated contents of a --config file.

    params is the parsed params block, solver the checked solver block;
    flags maps each flag-backed section to its {key: value} object.
    """

    params: ConstraintParams | None = None
    solver: dict = field(default_factory=dict)
    flags: dict = field(default_factory=dict)

    @staticmethod
    def load(path: str | None) -> "RunConfig":
        if path is None:
            return RunConfig()
        doc = _load(path, "config", partial(fields, where="config", spec=_CONFIG_FIELDS))
        return RunConfig(doc.pop("params", None), doc.pop("solver", {}), flags=doc)

    def fold_into(self, args: argparse.Namespace) -> None:
        """Set the command's flags from the sections it reads, each value as its flag would."""
        for name, values in self.flags.items():
            commands = _FLAG_SECTIONS[name][1]
            if commands is not None and args.command not in commands:
                continue
            for key, value in values.items():
                action = args.flag_actions.get("tol" if key == "tol_mhz" else key)
                if action is not None:  # a key whose flag the command lacks is ignored
                    setattr(args, action.dest, _flag_value(action, value, f"config.{name}.{key}"))


def _flag_value(action: argparse.Action, value, where: str):
    """value converted by the flag's type and checked against its choices."""
    if action.dest == "bc" and isinstance(value, dict):
        return BoundaryCondition.from_json_dict(value, where)  # a custom boundary condition
    if action.dest in _LIST_SEPARATORS and isinstance(value, list):
        value = _LIST_SEPARATORS[action.dest].join(map(str, value))
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise ConfigError(f"{where}: expected a string or a number, got {json.dumps(value)}")
    try:
        converted = action.type(str(value)) if action.type else str(value)
    except argparse.ArgumentTypeError as exc:
        raise ConfigError(f"{where}: {exc}") from None
    except ValueError:
        raise ConfigError(f"{where}: invalid {action.type.__name__} value {value!r}") from None
    if action.choices is not None and converted not in action.choices:
        raise ConfigError(f"{where}: {value!r} is not one of {list(action.choices)}")
    return converted


# -- small parsers ------------------------------------------------------------

_BUDGET_RE = re.compile(r"^(\d+(?:\.\d+)?)\s*([smh]?)$")


def parse_budget(text: str) -> float:
    """Seconds from '300', '30s', '5m', or '1h'."""
    m = _BUDGET_RE.match(text.strip())
    if not m:
        raise ConfigError(f"cannot parse budget {text!r} (use e.g. 30s, 5m, 1h)")
    value = float(m.group(1)) * {"": 1.0, "s": 1.0, "m": 60.0, "h": 3600.0}[m.group(2)]
    if value <= 0:
        raise ConfigError("budget must be positive")
    return value


def parse_sigmas(text: str) -> list[float]:
    try:
        sigmas = [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"cannot parse sigma list {text!r}") from exc
    if not sigmas:
        raise ConfigError("sigma list is empty")
    return sigmas


def seed(text: str) -> int:
    """A Monte Carlo seed, the key of a Philox generator: an integer in [0, 2**128)."""
    value = int(text)
    if not 0 <= value < 2**128:
        raise argparse.ArgumentTypeError(f"must be in [0, 2**128), got {value}")
    return value


def parse_pair(text: str, what: str) -> tuple[float, float]:
    parts = text.split(":")
    if len(parts) != 2:
        raise ConfigError(f"{what} must look like LO:HI, got {text!r}")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise ConfigError(f"cannot parse {what} {text!r}") from exc


def _write_text(path: str, text: str, argv: list[str], extra: dict | None = None) -> None:
    """Write the artifact, and its wall-clock and run data (extra) to the sidecar."""
    with open(path, "w") as fh:
        fh.write(text)
    meta = {
        "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "argv": argv,
        "package": f"freqalloc {__version__}",
        **(extra or {}),
    }
    with open(path + ".meta.json", "w") as fh:
        json.dump(meta, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _write_json(path: str, obj: dict, argv: list[str], extra: dict | None = None) -> None:
    _write_text(path, json.dumps(obj, indent=1, sort_keys=True) + "\n", argv, extra)


def _load(path: str, what: str, reader):
    """reader's object from the JSON file at path; a file it cannot read is a ConfigError."""
    try:
        with open(path) as fh:
            return reader(json.load(fh))
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc


def _effective_params(args: argparse.Namespace, cfg: RunConfig) -> ConstraintParams:
    """defaults < --params file < convenience flags < config params block."""
    if cfg.params is not None:
        return cfg.params
    if getattr(args, "params", None):
        params = _load(args.params, "params", ConstraintParams.from_json_dict)
    else:
        params = default_params()
    if getattr(args, "eps_tol", None) is not None:
        params = replace(params, eps_tol=uniform_tightening(args.eps_tol))
    if getattr(args, "diff", None) is not None:
        params = replace(params, delta_diff=args.diff)
    if getattr(args, "window", None) is not None:
        params = replace(params, f_window=args.window)
    return params


def _resolve_bc(value: str | BoundaryCondition) -> BoundaryCondition:
    """A preset named by --bc, or the custom boundary condition read from topology.bc."""
    return value if isinstance(value, BoundaryCondition) else preset_bc(value)


def _out_path(args: argparse.Namespace) -> str:
    if args.out is None:
        raise ConfigError("no output path: pass --out or set output.out in the config")
    return args.out


def _fill_isolated(topo: Topology, sol: Solution, params: ConstraintParams) -> Solution:
    """Qubits outside every coupler of a solved solution get parked at the window floor."""
    floor = {q: params.f_window[0] for q in range(topo.n_qubits) if q not in sol.frequencies}
    return replace(sol, frequencies={**sol.frequencies, **floor})


def _solved_inputs(args, cfg: RunConfig, purpose: str):
    """The topology, parameters and solved solution that verify, yield and threshold read.

    A frequency of a qubit, or an orientation of a pair, that the topology lacks is a ConfigError.
    """
    topo = _load(args.topology, "topology", Topology.from_json_dict)
    params = _effective_params(args, cfg)
    sol = _load(args.solution, "solution", Solution.from_json_dict)
    if not sol.solved:
        raise ConfigError(f"solution status is {sol.status!r}; nothing to {purpose}")
    pairs = topo.edge_pairs()
    foreign = [f'frequencies_mhz key "{q}" is not a qubit' for q in sol.frequencies
               if q >= topo.n_qubits]
    foreign += [f'orientations key "{edge_key(*e)}" is not a coupler' for e in sol.orientations
                if e not in pairs]
    if foreign:
        raise ConfigError(f"solution.{foreign[0]} of the topology")
    return topo, params, sol


def _analysis_inputs(args, cfg: RunConfig):
    """The topology, parameters and solved assignment that yield and threshold price."""
    topo, params, sol = _solved_inputs(args, cfg, "analyze")
    return topo, params, _fill_isolated(topo, sol, params).as_assignment()


# -- subcommands --------------------------------------------------------------

def cmd_topo(args, cfg: RunConfig, argv: list[str]) -> int:
    if args.kind == "square":
        topo = square_grid(args.rows or 0, args.cols or 0)
    elif args.rings is not None:
        topo = hex_rings(args.rings)
    elif args.cells_x is None or args.cells_y is None:
        raise ConfigError("hex topology needs --rings or --cells-x/--cells-y")
    else:
        topo = hex_grid(args.cells_x, args.cells_y)
    if args.bc is not None:
        topo = wrap(topo, _resolve_bc(args.bc))
    out = _out_path(args)
    _write_json(out, topo.to_json_dict(), argv)
    print(f"wrote {out}: {topo.n_qubits} qubits, {len(topo.edges)} couplers")
    return EXIT_OK


def cmd_build(args, cfg: RunConfig, argv: list[str]) -> int:
    topo = _load(args.topology, "topology", Topology.from_json_dict)
    params = _effective_params(args, cfg)
    table = enumerate_records(topo, args.mode, params)
    model = build(topo, table, params, args.mode)
    out = _out_path(args)
    _write_text(out, export_lp(model), argv)
    print(f"wrote {out}: {len(model.variables)} variables, {len(model.rows)} rows, "
          f"{len(model.binaries())} binaries")
    return EXIT_OK


def _solver_config(args, cfg: RunConfig) -> SolverConfig:
    scfg = SolverConfig.from_json_dict({
        "backend": args.backend, "command_template": args.cmd or os.environ.get(SOLVER_CMD_ENV, ""),
        "time_budget_s": args.budget, "seed": args.seed, **cfg.solver})
    if scfg.backend == "external" and not scfg.command_template:
        raise ConfigError(
            f"external backend needs a command template: pass --cmd, set "
            f"solver.command_template in the config, or export {SOLVER_CMD_ENV}"
        )
    return scfg


def cmd_solve(args, cfg: RunConfig, argv: list[str]) -> int:
    topo = _load(args.topology, "topology", Topology.from_json_dict)
    params = _effective_params(args, cfg)
    table = enumerate_records(topo, args.mode, params)
    scfg = _solver_config(args, cfg)
    extra = {}
    if scfg.backend == "external":
        model = build(topo, table, params, args.mode)
        sol = solve_external(model, scfg)
        extra = {"model": {"variables": len(model.variables), "rows": len(model.rows),
                           "binaries": len(model.binaries())},
                 "solver": sol.solver_stats}
    else:
        sol = solve_anneal(table, params, scfg)
    if sol.solved:
        sol = _fill_isolated(topo, sol, params)
    out = _out_path(args)
    _write_json(out, sol.to_json_dict(), argv, extra)
    obj = "none" if sol.objective_value is None else f"{sol.objective_value:.6g}"
    print(f"wrote {out}: status {sol.status}, objective {obj}")
    if scfg.backend == "external" and sol.solved:
        report = verify(sol, table, params, tightened=True)
        if not report.ok:
            return _verdict(report, "tightened")
    return EXIT_OK


def _verdict(report, bounds: str) -> int:
    """Print verify's OK or FAIL line and return its exit code."""
    if report.ok:
        print(f"OK: {report.n_instances} instances at {bounds} bounds, "
              f"min margin {report.min_margin:.6g} MHz")
        return EXIT_OK
    print(f"FAIL: {len(report.violations)} of {report.n_instances} instances violated "
          f"at {bounds} bounds (worst margin {report.min_margin:.6g} MHz)")
    return EXIT_INFEASIBLE


def cmd_verify(args, cfg: RunConfig, argv: list[str]) -> int:
    topo, params, sol = _solved_inputs(args, cfg, "verify")
    sol = replace(sol, orientations={**(topo.orientation or {}), **sol.orientations})
    report = verify(sol, enumerate_records(topo, "free", params), params,
                    tightened=(args.bounds == "tightened"))
    if args.out:
        _write_json(args.out, report.to_json_dict(), argv)
    return _verdict(report, args.bounds)


def _yield_csv(assignment, topo: Topology, params: ConstraintParams, args) -> str:
    """The yield CSV, one row per dispersion level of --sigma."""
    curve = yield_curve(assignment, topo, params, args.sigma,
                        trials=args.trials, seed=args.seed, n_jobs=args.jobs)
    return "\n".join([CSV_HEADER, *map(csv_row, curve)]) + "\n"


def cmd_yield(args, cfg: RunConfig, argv: list[str]) -> int:
    topo, params, assignment = _analysis_inputs(args, cfg)
    if args.sigma is None:
        raise ConfigError("no dispersion levels: pass --sigma or set yield.sigma")
    text = _yield_csv(assignment, topo, params, args)
    if args.out:
        _write_text(args.out, text, argv)
        levels = len(text.splitlines()) - 1
        print(f"wrote {args.out}: {levels} dispersion levels x {args.trials} trials")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_threshold(args, cfg: RunConfig, argv: list[str]) -> int:
    topo, params, assignment = _analysis_inputs(args, cfg)
    if args.target is None:
        raise ConfigError("no target yield: pass --target or set yield.target")
    sigma_star = threshold_dispersion(
        assignment, topo, params, target_yield=args.target, trials=args.trials,
        sigma_bracket=args.bracket, tol_mhz=args.tol, seed=args.seed,
        max_trials=args.max_trials, n_jobs=args.jobs,
    )
    row = "%.8g,%.8g,%.6g,%.6g,%d,%d" % (
        args.target, sigma_star, *args.bracket, args.trials, args.seed)
    text = THRESHOLD_CSV_HEADER + "\n" + row + "\n"
    if args.out:
        _write_text(args.out, text, argv)
        print(f"wrote {args.out}: threshold dispersion {sigma_star:.6g} MHz")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_assemble(args, cfg: RunConfig, argv: list[str]) -> int:
    unit = _load(args.unit, "topology", Topology.from_json_dict)
    if unit.wrap_tags:
        raise ConfigError("pass the unwrapped unit topology; tiling applies the wrap itself")
    params = _effective_params(args, cfg)
    if params.delta_diff > 0:  # chip_check does not price DIFF
        raise ConfigError(f"assemble cannot check DIFF on the chip: delta_diff is "
                          f"{params.delta_diff:g} MHz, it must be 0")
    sol = _load(args.solution, "solution", Solution.from_json_dict)
    bc = _resolve_bc(args.bc)
    fill = args.fill_orientation

    try:
        asm = tile(unit, sol, bc, args.nx, args.ny, params, fill_orientation=fill)
        unit_feasible = True
    except PreconditionError:
        unit_feasible = False
        asm = tile(unit, sol, bc, args.nx, args.ny, params,
                   require_feasible=False, fill_orientation=fill)
    report = chip_check(asm, params)
    on_seams = seam_violations(asm, report)
    # the yield inputs are checked before any artifact is written
    csv = None if args.sigma is None else _yield_csv(
        asm.chip_assignment, asm.chip_topology, params, args)

    prefix = args.out
    _write_json(prefix + ".chip.json", asm.to_json_dict(), argv)
    _write_json(prefix + ".report.json", {
        "unit_wrap_feasible": unit_feasible,
        "check": report.to_json_dict(),
        "seam_violations": [v.to_json_dict() for v in on_seams],
        "all_violations_on_seams": len(on_seams) == len(report.violations),
    }, argv)

    if csv is not None:
        _write_text(prefix + ".yield.csv", csv, argv)

    big_rows = asm.unit_geometry[0] * asm.reps[1]
    big_cols = asm.unit_geometry[1] * asm.reps[0]
    print(f"wrote {prefix}.chip.json: {big_rows}x{big_cols} chip "
          f"({asm.chip_topology.n_qubits} qubits, {len(asm.seam_edges)} seam couplers), "
          f"{len(report.violations)} violations")
    if report.ok and unit_feasible:
        return EXIT_OK
    return EXIT_INFEASIBLE


# -- argument parsing ----------------------------------------------------------

def _add_params_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--params", help="constraint parameter JSON file")
    p.add_argument("--eps-tol", type=float, dest="eps_tol",
                   help="uniform constraint tightening in MHz")
    p.add_argument("--diff", type=float,
                   help="edgewise detuning-gap separation delta_diff in MHz")
    p.add_argument("--window", type=partial(parse_pair, what="window"),
                   help="frequency window LO:HI in MHz")


def _add_analysis_flags(p: argparse.ArgumentParser, trials_default: int) -> None:
    p.add_argument("--trials", type=int, default=trials_default)
    p.add_argument("--seed", type=seed, default=0)
    p.add_argument("--jobs", type=int, default=1, help="worker processes for trials")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="freqalloc",
        description="Collision-aware frequency assignment for qubit lattices",
        exit_on_error=False,
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("topo", help="generate a topology file")
    p.add_argument("--kind", choices=("square", "hex"), default="square")
    p.add_argument("--rows", type=int)
    p.add_argument("--cols", type=int)
    p.add_argument("--rings", type=int, help="hex: concentric cell rings")
    p.add_argument("--cells-x", type=int, dest="cells_x", help="hex: cell columns")
    p.add_argument("--cells-y", type=int, dest="cells_y", help="hex: cell rows")
    p.add_argument("--bc", help="wrap a square grid with this boundary condition preset")
    p.add_argument("--out")
    p.set_defaults(func=cmd_topo)

    p = sub.add_parser("build", help="export the MILP as an LP file")
    p.add_argument("--topology", required=True)
    p.add_argument("--mode", choices=("fixed", "free"), default="free")
    _add_params_flags(p)
    p.add_argument("--out")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("solve", help="solve the model and write a solution file")
    p.add_argument("--topology", required=True)
    p.add_argument("--mode", choices=("fixed", "free"), default="free")
    _add_params_flags(p)
    p.add_argument("--backend", choices=("external", "anneal"), default="external")
    p.add_argument("--cmd", help="external wrapper template with {lp} {out} [{budget}]")
    p.add_argument("--budget", type=parse_budget, default="60s",
                   help="time budget, e.g. 30s / 5m / 1h")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="re-check a solution constraint by constraint")
    p.add_argument("--topology", required=True)
    p.add_argument("--solution", required=True)
    _add_params_flags(p)
    p.add_argument("--bounds", choices=("tightened", "base"), default="tightened")
    p.add_argument("--out", help="optional violation report JSON")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("yield", help="Monte Carlo yield under fabrication dispersion")
    p.add_argument("--topology", required=True)
    p.add_argument("--solution", required=True)
    _add_params_flags(p)
    p.add_argument("--sigma", type=parse_sigmas, help="comma-separated dispersion levels in MHz")
    _add_analysis_flags(p, trials_default=10_000)
    p.add_argument("--out", help="CSV path (default: stdout)")
    p.set_defaults(func=cmd_yield)

    p = sub.add_parser("threshold", help="dispersion level where yield crosses a target")
    p.add_argument("--topology", required=True)
    p.add_argument("--solution", required=True)
    _add_params_flags(p)
    p.add_argument("--target", type=float, help="target yield fraction in (0,1)")
    p.add_argument("--bracket", type=partial(parse_pair, what="bracket"), default="0.5:60",
                   help="sigma search bracket LO:HI in MHz")
    p.add_argument("--tol", type=float, default=0.1, help="bisection tolerance in MHz")
    p.add_argument("--max-trials", type=int, dest="max_trials", default=400_000)
    _add_analysis_flags(p, trials_default=10_000)
    p.add_argument("--out", help="CSV path (default: stdout)")
    p.set_defaults(func=cmd_threshold)

    p = sub.add_parser("assemble", help="tile a unit solution into a chip and recheck it")
    p.add_argument("--unit", required=True, help="unwrapped unit topology JSON")
    p.add_argument("--solution", required=True, help="solution solved on the wrapped unit")
    p.add_argument("--bc", default="PBC1")
    p.add_argument("--nx", type=int, required=True)
    p.add_argument("--ny", type=int, required=True)
    p.add_argument("--fill-orientation", type=int, choices=(0, 1), dest="fill_orientation",
                   help="direction for wrap couplers the solution never oriented")
    _add_params_flags(p)
    p.add_argument("--sigma", type=parse_sigmas,
                   help="optional dispersion levels for whole-chip yield")
    _add_analysis_flags(p, trials_default=10_000)
    p.add_argument("--out", required=True, help="output prefix for .chip.json/.report.json")
    p.set_defaults(func=cmd_assemble)

    for sp in sub.choices.values():
        sp.exit_on_error = False  # main reports a flag that fails its type in one line
        sp.add_argument("--config", help="JSON config overriding these flags")
        sp.set_defaults(flag_actions={action.dest: action for action in sp._actions})
    return ap


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = RunConfig.load(args.config)
        cfg.fold_into(args)
        return args.func(args, cfg, argv)
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (SolverFailure, SolutionParseError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (ConfigError, BracketError, ValueError, OSError, argparse.ArgumentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
