"""Benchmark of the freqalloc pipeline, run in process through freqalloc.cli.main.

    python3 perfbench/run.py --workload unit_solve --seed 1 --seconds 30 --trace 0

Run from the repository root.  A run imports the package from ``src/``,
writes its inputs and the CLI's outputs under ``.perfbench/``, runs whole
passes of the workload (another pass starts only while it is predicted to
end within --seconds; the first always runs), checks every output, and
prints one JSON line last: the end-to-end metrics (medians over passes)
with --trace 0, or the per-layer metrics with --trace 1.  A traced run makes
one untraced pass, then one pass with every public layer function wrapped,
and reports the difference in command wall time as the tracing overhead.
Spans of a traced run are written to ``.perfbench/spans/``.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shlex
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 3

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import freqalloc.cli; "
    "print(time.perf_counter() - t)"
)

E2E_UNITS = {
    "setup_s": "s",
    "milp_solve_s": "s",
    "anneal_s": "s",
    "anneal_objective_mhz": "MHz",
    "yield_trials_per_s": "trials/s",
    "threshold_s": "s",
    "assemble_s": "s",
    "peak_rss_mb": "MB",
}


class Runner:
    """Runs CLI commands in process, times them, and counts operations."""

    def __init__(self, cli_main):
        self.main = cli_main
        self.tracer = None
        self.attempted = 0
        self.failed = 0
        self.wall = 0.0  # summed wall time of timed commands

    def _invoke(self, argv: list[str]) -> tuple[int | str, str]:
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
                rc = self.main(argv)
        except (Exception, SystemExit) as exc:  # a crash is a failed operation
            rc = repr(exc)
        return rc, buf.getvalue()

    def cli(self, *args) -> float:
        """One timed command; a nonzero exit fails the operation."""
        argv = [str(a) for a in args]
        gc.collect()
        t0 = time.perf_counter()
        if self.tracer is None:
            rc, text = self._invoke(argv)
        else:
            with self.tracer.span("cli." + argv[0]):
                rc, text = self._invoke(argv)
        dt = time.perf_counter() - t0
        self.wall += dt
        if self.tracer is not None:
            self.tracer.after_command()
        self.check(rc == 0, f"freqalloc {' '.join(argv)} exited {rc}: {text.strip()[-400:]}")
        return dt

    def setup_cli(self, *args) -> None:
        """An untimed input-generating command; failures still count."""
        argv = [str(a) for a in args]
        rc, text = self._invoke(argv)
        self.check(rc == 0, f"setup: freqalloc {' '.join(argv)} exited {rc}: {text.strip()[-400:]}")

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED: {what}", file=sys.stderr)


def import_seconds(env: dict) -> float:
    """Import time of freqalloc.cli in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                         capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def peak_rss_mb() -> float:
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) / 1024.0


def run_passes(workload, r: Runner, work: Path, seed: int, seconds: float) -> list[dict]:
    deadline = time.perf_counter() + seconds
    passes = []
    while True:
        t0 = time.perf_counter()
        passes.append(workload.run_pass(r, work, seed))
        if time.perf_counter() + (time.perf_counter() - t0) > deadline:
            return passes


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "freqalloc" / "cli.py").is_file():
        print(f"error: no freqalloc package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    env["FREQALLOC_SOLVER_CMD"] = (
        f"{shlex.quote(sys.executable)} -m freqalloc.milp_adapter {{lp}} {{out}}"
    )
    os.environ.update(env)
    tempfile.tempdir = str(tmp)

    from freqalloc.cli import main as cli_main
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](ROOT)
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-pid{os.getpid()}"
    base = OUT / run_id
    r = Runner(cli_main)
    try:
        setups = []
        for i in range(SETUP_REPEATS):
            work = base / f"setup{i}"
            work.mkdir(parents=True)
            t_import = import_seconds(env)
            t0 = time.perf_counter()
            workload.prepare(r, work)
            setups.append(t_import + time.perf_counter() - t0)

        if args.trace == 0:
            passes = run_passes(workload, r, work, args.seed, args.seconds)
            metrics = {k: statistics.median(p[k] for p in passes) for k in passes[0]}
            metrics["setup_s"] = statistics.median(setups)
            metrics["peak_rss_mb"] = peak_rss_mb()
            units = E2E_UNITS
        else:
            from spans import Tracer
            from spans import UNITS as units

            workload.run_pass(r, work, args.seed)
            untraced = r.wall
            tracer = Tracer(args.workload, run_id)
            tracer.install()
            r.wall, r.tracer = 0.0, tracer
            try:
                workload.run_pass(r, work, args.seed)
            finally:
                tracer.uninstall()
                r.tracer = None
            metrics = tracer.layer_metrics(r.wall, untraced)
            # self times of the command spans must account for their wall time
            r.check(abs(metrics["trace.self_sum_s"] - r.wall) <= 1e-3 * r.wall + 1e-3,
                    f"span self times {metrics['trace.self_sum_s']} != traced wall {r.wall}")
            tracer.write(OUT / "spans" / f"{run_id}.json", {"seed": args.seed})
    finally:
        shutil.rmtree(base, ignore_errors=True)

    result = {
        "correct": r.failed == 0,
        "attempted": r.attempted,
        "failed": r.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
