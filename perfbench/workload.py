"""One benchmark workload, run in a fresh interpreter started by run.py.

The process imports contestlab from the checkout's ``src/``, builds the
workload's inputs from the seed and reports when it is ready (set-up
ends there).  It then repeats the workload's operation list, always
at least once, while one more repetition still fits in ``--seconds`` of
operation time, and times each repetition.  Correctness checks, and the
replay of the first repetition's manifest, run outside the timed
interval.  With ``--trace
1`` one more repetition runs with the layer hooks installed.  The
result goes to ``--result`` as JSON.

    python3 perfbench/workload.py --workload solve --seed 1 --seconds 24 \
        --trace 0 --work .perfbench/w --result .perfbench/r.json
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import inspect
import io
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

EQ_TOL = 1e-4          # acceptance criterion 3: monotone, above baseline, residual
TRAJ_LENGTH = 10
PANEL_VALUES = (2.0, 10.0, 40.0)


# ---------------------------------------------------------------------------
# Bookkeeping


class Ledger:
    """Operations attempted, and the reasons each failed one failed."""

    def __init__(self):
        self.ops = {}

    def attempt(self, op):
        self.ops.setdefault(op, [])

    def fail(self, op, why):
        self.ops.setdefault(op, []).append(why)

    @property
    def failed(self):
        return sum(1 for why in self.ops.values() if why)

    def failures(self, limit=10):
        return [f"{op}: {why[0]}" for op, why in self.ops.items() if why][:limit]


class ProfileTap:
    """Keeps every profile ``solve_equilibrium`` returns, with its ``tol``.

    The CLI commands solve internally; the tap lets the checks see those
    equilibria.  It costs one signature bind per solve.
    """

    MODULES = ("cli", "golden", "hacking", "simulate")

    def __init__(self, contestlab):
        self.solves = []
        orig = contestlab.equilibrium.solve_equilibrium
        sig = inspect.signature(orig)

        def tapped(*args, **kwargs):
            profile = orig(*args, **kwargs)
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            self.solves.append((profile, bound.arguments.get("tol")))
            return profile

        for name in self.MODULES:
            module = getattr(contestlab, name)
            if hasattr(module, "solve_equilibrium"):
                module.solve_equilibrium = tapped


class Rep:
    """One repetition of a workload's operation list."""

    def __init__(self, cl, ledger, tap, tag, work):
        self.cl = cl
        self.ledger = ledger
        self.tap = tap
        self.tag = tag
        self.work = work
        self.steps = {}
        self.cli_runs = []        # (output dir, measured wall seconds)
        self.profiles = {}        # op id -> profiles solved by that op
        self.values = {}
        self.coverage = 0.0

    def op(self, name, fn, *args, step=None, **kwargs):
        op_id = f"{self.tag}.{name}"
        self.ledger.attempt(op_id)
        first = len(self.tap.solves)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception:       # an operation that raises is a failed operation
            self.ledger.fail(op_id, traceback.format_exc(limit=-2).strip().splitlines()[-1])
            result = None
        elapsed = time.perf_counter() - t0
        if step:
            self.steps.setdefault(step, []).append(elapsed)
        self.profiles[op_id] = self.tap.solves[first:]
        return op_id, result, elapsed

    def cli(self, name, *argv, step=None):
        out_dir = self.work / name
        argv = [*argv, "--out", str(out_dir)]
        stdout = io.StringIO()

        def call():
            with contextlib.redirect_stdout(stdout):
                return self.cl.cli.main(argv)

        op_id, code, elapsed = self.op(name, call, step=step)
        if code is not None and code != 0:
            self.ledger.fail(op_id, f"exit code {code}")
        self.cli_runs.append((out_dir, elapsed))
        return op_id, out_dir

    def fail_unless(self, op_id, ok, why):
        if not ok:
            self.ledger.fail(op_id, why)


# ---------------------------------------------------------------------------
# Checks shared by the workloads


def check_profiles(rep, np):
    """Criterion 3's bounds on every equilibrium an operation solved."""
    for op_id, solves in rep.profiles.items():
        for profile, _ in solves:
            mu = profile.mu_star
            base = rep.cl.baseline.baseline_grid(profile.scenario, profile.theta_grid)
            rep.fail_unless(op_id, bool(np.all(np.diff(mu) >= -EQ_TOL)), "mu* not monotone")
            rep.fail_unless(op_id, bool(np.all(mu >= base.mu - EQ_TOL)), "mu* below baseline")
            rep.fail_unless(op_id, profile.residual < EQ_TOL,
                            f"residual {profile.residual:.3e} >= {EQ_TOL}")


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def check_panel(rep, op_id, np, cols, rows, expected_prizes):
    """Row count, finite columns, |mk_S| <= n(n-1)/2, prize columns per cell.

    ``expected_prizes(contest_ids)`` gives the (prize_value, prize_skew)
    arrays each row's contest should carry.
    """
    for name, col in cols.items():
        col = np.asarray(col, dtype=float)
        rep.fail_unless(op_id, col.shape == (rows,), f"{name}: {col.shape[0]} rows, want {rows}")
        rep.fail_unless(op_id, bool(np.all(np.isfinite(col))), f"{name}: non-finite values")
    if rep.ledger.ops[op_id]:
        return
    bound = TRAJ_LENGTH * (TRAJ_LENGTH - 1) // 2
    rep.fail_unless(op_id, bool(np.all(np.abs(cols["mk_S"]) <= bound)), "|mk_S| out of range")
    value, skew = expected_prizes(np.asarray(cols["contest_id"]))
    rep.fail_unless(op_id, bool(np.array_equal(np.asarray(cols["prize_value"], dtype=float), value)),
                    "prize_value does not match the contest's cell")
    rep.fail_unless(op_id, bool(np.array_equal(np.asarray(cols["prize_skew"], dtype=float), skew)),
                    "prize_skew does not match the contest's cell")


def read_panel_csv(path, np):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        data = np.array([[float(v) for v in row] for row in reader])
    return {name: data[:, j] for j, name in enumerate(header)}


def check_regress_cli(rep, op_id, out_dir, rows, np):
    if rep.ledger.ops[op_id]:
        return
    doc = read_json(out_dir / "regress.json")
    values = [*doc["coefficients"].values(), *doc["standard_errors"].values()]
    rep.fail_unless(op_id, bool(values) and all(math.isfinite(float(v)) for v in values),
                    "non-finite regression coefficients")
    rep.fail_unless(op_id, doc["nobs"] == rows, f"regression used {doc['nobs']} rows, want {rows}")


def replay(rep, name):
    """Replay CLI run ``name`` from its manifest into a fresh directory and
    byte-compare every output."""
    out_dir = rep.work / name
    manifest = out_dir / "run_manifest.json"
    op_id, fresh = rep.cli(f"{name}.replay", "replay", str(manifest))
    if rep.ledger.ops[op_id]:
        return
    for output in read_json(manifest)["outputs"]:
        same = (out_dir / output).read_bytes() == (fresh / output).read_bytes()
        rep.fail_unless(op_id, same, f"replayed {output} differs")


# ---------------------------------------------------------------------------
# Workloads


class Solve:
    """Six two-player solves at grid 201 through the CLI (seed unused)."""

    steps = ("sweep_s",)
    replays = ("sweep",)

    def __init__(self, cl, seed):
        self.prizes = "1,0;2,0;4,0"     # steeper gradients, pairwise comparable

    def run(self, rep):
        rep.cli("examples", "examples")
        rep.cli("equilibrium", "equilibrium", "--scenario", "example4", "--grid", "201")
        rep.cli("sweep", "sweep", "--scenario", "example3", "--prizes", self.prizes,
                "--grid", "201", step="sweep_s")

    def check(self, rep, np):
        op_id = f"{rep.tag}.examples"
        if not rep.ledger.ops[op_id]:
            worst = 0.0
            for check in read_json(rep.work / "examples" / "examples.json"):
                rep.fail_unless(op_id, check["passed"], f"golden check failed: {check['check']}")
                found = re.search(r"err ([0-9.eE+-]+) \(tol ([0-9.eE+-]+)\)", check["detail"])
                if found:
                    worst = max(worst, float(found[1]) / float(found[2]))
            rep.values["golden.err_ratio"] = worst
        op_id = f"{rep.tag}.sweep"
        if not rep.ledger.ops[op_id]:
            doc = read_json(rep.work / "sweep" / "sweep.json")
            rep.fail_unless(op_id, doc["dominance_violations"] == [], "sweep dominance violations")
            rep.fail_unless(op_id, doc["measure_violations"] == [], "sweep measure violations")


class Panel:
    """Acceptance criterion 6's panel pipeline for seeds S, S+1, S+2."""

    steps = ("cells_s", "panel_s", "regress_s", "csv_write_s", "regress_cli_s")
    replays = ()
    contests, players = 500, 200

    def __init__(self, cl, seed):
        self.scenario = cl.presets.example_scenario(
            "example3",
            types={"kind": "uniform", "support": [0.5, 1.5]},
            noise={"kind": "normal", "dispersion": 3.0},
        )
        self.seeds = (seed, seed + 1, seed + 2)

    def run(self, rep):
        sim = rep.cl.simulate
        _, cells, _ = rep.op("cells", lambda: sim.panel_cells(
            self.scenario, players=self.players, prize_values=PANEL_VALUES,
            skew_weights=(0.5, 0.3, 0.2)), step="cells_s")
        if cells is None:
            return
        edges = sim.type_bin_edges(self.scenario, bins=5)
        rep.values["panels"] = []
        panel = None
        for seed in self.seeds:
            op_id, panel, _ = rep.op(f"panel{seed}", lambda: sim.synthetic_panel(
                self.scenario, n_contests=self.contests, players=self.players, seed=seed,
                cells=cells, traj_length=TRAJ_LENGTH, drift_scale=0.3, noise_scale=2.0,
                score_base=60.0, score_gain=1.0), step="panel_s")
            if panel is None:
                continue
            rep.values["panels"].append((op_id, panel))
            op_id, regs, _ = rep.op(f"regress{seed}", sim.panel_regressions,
                                    panel.columns, edges, step="regress_s")
            rep.values.setdefault("regressions", []).append((op_id, regs))
        if panel is None:
            return
        csv_path = rep.work / "panel.csv"
        rep.values["csv"] = rep.op("csv_write", panel.to_csv, csv_path, step="csv_write_s")[0]
        rep.values["regress_cli"] = rep.cli(
            "regress", "regress", "--input", str(csv_path), "--outcome", "mu",
            "--dummies", "type", step="regress_cli_s")

    def check(self, rep, np):
        rows = self.contests * self.players

        def expected(contest_ids):
            # contest j runs in cell j mod 6; cells go value by value, skewed first
            cell = contest_ids % (2 * len(PANEL_VALUES))
            return np.asarray(PANEL_VALUES)[cell // 2], (1 - cell % 2).astype(float)

        for op_id, panel in rep.values.get("panels", []):
            check_panel(rep, op_id, np, panel.columns, rows, expected)
        for op_id, regs in rep.values.get("regressions", []):
            if regs is None:
                continue
            finite = all(np.all(np.isfinite(r.coef)) and np.all(np.isfinite(r.se))
                         for r in regs.values())
            rep.fail_unless(op_id, bool(finite), "non-finite regression coefficients")
        if "csv" in rep.values and not rep.ledger.ops[rep.values["csv"]]:
            with open(rep.work / "panel.csv") as fh:
                lines = sum(1 for _ in fh)
            rep.fail_unless(rep.values["csv"], lines == rows + 1,
                            f"panel.csv has {lines} lines, want {rows + 1}")
        if "regress_cli" in rep.values:
            op_id, out_dir = rep.values["regress_cli"]
            check_regress_cli(rep, op_id, out_dir, rows, np)


class Cli:
    """The README pipeline: simulate 5000 example1 contests, then regress."""

    steps = ("simulate_s",)
    replays = ("simulate",)
    contests = 5000

    def __init__(self, cl, seed):
        self.seed = seed
        prizes = cl.presets.example_scenario("example1").prizes
        self.cell = (prizes.total, 1.0 if len(prizes) <= 3 else 0.0)

    def run(self, rep):
        rep.values["simulate"] = rep.cli(
            "simulate", "simulate", "--scenario", "example1", "--seed", str(self.seed),
            "--contests", str(self.contests), step="simulate_s")
        panel_csv = rep.values["simulate"][1] / "panel.csv"
        rep.values["regress"] = rep.cli(
            "regress", "regress", "--input", str(panel_csv), "--outcome", "mu",
            "--dummies", "type")

    def check(self, rep, np):
        rows = 2 * self.contests
        op_id, out_dir = rep.values["simulate"]
        if not rep.ledger.ops[op_id]:
            cols = read_panel_csv(out_dir / "panel.csv", np)

            def expected(contest_ids):
                return (np.full(contest_ids.shape, self.cell[0]),
                        np.full(contest_ids.shape, self.cell[1]))

            check_panel(rep, op_id, np, cols, rows, expected)
            contests = read_panel_csv(out_dir / "contests.csv", np)
            rep.fail_unless(op_id, contests["rank"].size == rows,
                            f"contests.csv has {contests['rank'].size} rows, want {rows}")
        op_id, out_dir = rep.values["regress"]
        check_regress_cli(rep, op_id, out_dir, rows, np)


WORKLOADS = {"solve": Solve, "panel": Panel, "cli": Cli}


# ---------------------------------------------------------------------------
# Main


def machine(np, scipy):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "arch": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(np),
        "CONTESTLAB_THREADS": os.environ.get("CONTESTLAB_THREADS", "unset (all cores)"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
    }


def blas_threads(np):
    """OpenBLAS's thread count as numpy's bundled library reports it."""
    import ctypes
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            func = getattr(handle, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                return func()
    return None


def timed_rep(workload, cl, ledger, tap, tag, work):
    rep = Rep(cl, ledger, tap, tag, work)
    work.mkdir(parents=True)
    gc.collect()
    c0 = time.process_time()
    t0 = time.perf_counter()
    workload.run(rep)
    rep.job_s = time.perf_counter() - t0
    rep.cpu_s = time.process_time() - c0
    return rep


def verify(workload, rep, np, first):
    """Check a repetition (and replay the first one) outside its timing.

    A check that raises counts as a failed operation.
    """
    try:
        workload.check(rep, np)
        check_profiles(rep, np)
        if first:
            rep.coverage = manifest_coverage(rep)
            for name in workload.replays:
                replay(rep, name)
    except Exception:           # a broken output can break its check
        rep.ledger.fail(f"{rep.tag}.checks", traceback.format_exc(limit=-2).strip().splitlines()[-1])
    shutil.rmtree(rep.work)


def manifest_coverage(rep):
    """Manifest ``duration_seconds`` over measured wall time, CLI commands."""
    recorded = measured = 0.0
    for out_dir, elapsed in rep.cli_runs:
        manifest = out_dir / "run_manifest.json"
        if manifest.exists():
            recorded += read_json(manifest)["duration_seconds"]
            measured += elapsed
    return recorded / measured if measured else 0.0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--trace-out", type=Path)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import numpy as np
    import scipy

    import contestlab
    import contestlab.cli
    import contestlab.simulate
    if not Path(contestlab.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"contestlab imported from {contestlab.__file__}, not {SRC}")
    workload = WORKLOADS[args.workload](contestlab, args.seed)
    ready = time.monotonic()
    if args.setup_only:
        args.result.write_text(json.dumps({"ready": ready}))
        return 0

    ledger = Ledger()
    tap = ProfileTap(contestlab)
    reps = []
    peak_rss_mb = None
    # repeat while one more repetition still fits in --seconds of operation time
    while not reps or sum(r.job_s for r in reps) * (1 + 1 / len(reps)) <= args.seconds:
        tag = f"rep{len(reps)}"
        rep = timed_rep(workload, contestlab, ledger, tap, tag, args.work / tag)
        if peak_rss_mb is None:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        verify(workload, rep, np, first=not reps)
        reps.append(rep)

    def median_step(name, source):
        per_rep = [statistics.median(r.steps[name]) for r in source if name in r.steps]
        return statistics.median(per_rep) if per_rep else 0.0

    solves = [s for r in reps for solved in r.profiles.values() for s in solved]
    result = {
        "ready": ready,
        "job_s": [r.job_s for r in reps],
        "cpu_s": [r.cpu_s for r in reps],
        "steps": {name: median_step(name, reps) for name in workload.steps},
        "peak_rss_mb": peak_rss_mb,
        "residual_max": max((p.residual for p, _ in solves), default=0.0),
        "machine": machine(np, scipy),
    }

    if args.trace:
        import layers
        all_steps = ("sweep_s", "cells_s", "panel_s", "regress_s", "csv_write_s",
                     "regress_cli_s", "simulate_s")
        traced = layers.LayerTrace()
        traced.install()
        try:
            rep = timed_rep(workload, contestlab, ledger, tap, "traced", args.work / "traced")
        finally:
            traced.uninstall()
        verify(workload, rep, np, first=False)
        traced_solves = [s for solved in rep.profiles.values() for s in solved]
        extra = {
            "equilibrium.false_converged": sum(
                1 for p, tol in traced_solves if p.converged and tol is not None and p.residual > tol),
            "cli.manifest_coverage": reps[0].coverage,
            "golden.err_ratio": reps[0].values.get("golden.err_ratio", 0.0),
            "trace.overhead": rep.job_s / statistics.median(result["job_s"]),
            **{f"step.{name}": result["steps"].get(name, 0.0) for name in all_steps},
        }
        result["layers"] = traced.metrics(extra)
        if args.trace_out:
            traced.tracer.dump(args.trace_out, {"workload": args.workload, "seed": args.seed,
                                                "job_s": rep.job_s})

    result["attempted"] = len(ledger.ops)
    result["failed"] = ledger.failed
    result["failures"] = ledger.failures()
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
