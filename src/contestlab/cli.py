"""Command-line interface: one subcommand per solver, CSV/JSON artifacts.

Every run writes its outputs plus a ``run_manifest.json`` recording the
resolved parameters; ``contestlab replay <manifest> --out <dir>`` re-runs
the same command and must reproduce the CSV/JSON outputs byte for byte.

Exit codes: 0 success, 1 input error, 2 usage error, 3 numerical
non-convergence.  Every failure, including an equilibrium that did not
converge, reaches :func:`dispatch` as an exception and prints one
``error:`` line.  ``--out`` is created with the first artifact, and
:func:`dispatch` writes the manifest of every run that wrote one.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from ._tables import read_csv_columns, write_csv
from .baseline import baseline_grid, baseline_thresholds
from .costmin import CASE_NAMES, allocate_grid
from .equilibrium import solve_equilibrium
from .errors import ContestLabError, DomainError, SolverError
from .golden import golden_suite
from .hacking import hacking_threshold, hacking_verdicts, skewness_sweep
from .model import PrizeVector, load_scenario, validate_assumptions
from .presets import EXAMPLE_CONFIGS, example_scenario
from .simulate import (
    PanelCell,
    fe_ols,
    mann_kendall,
    panel_cells,
    synthetic_panel,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_USAGE = 2
EXIT_NO_CONVERGENCE = 3

MANIFEST_NAME = "run_manifest.json"


# ---------------------------------------------------------------------------
# Manifest plumbing


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.bool_, bool)):   # before int: bool is an int subclass
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        if math.isnan(x):
            return "nan"
        return x
    return obj


def _write_json(path: Path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(_jsonable(payload), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _manifest_arguments(args) -> tuple[dict, list[str]]:
    """The parameters and replay argv of a run, from its parser's options.

    Every option but ``--out`` is recorded, in parser order; a flag only
    when it is set.  :func:`dispatch` stores the resolved scenario and
    ``--input`` path on ``args`` first, so a replay reads the same file.
    """
    params = {}
    argv = [args.command]
    for action in args.parser._actions:
        if not action.option_strings or action.dest in ("help", "out"):
            continue
        value = getattr(args, action.dest)
        params[action.dest] = value
        if action.nargs == 0:   # a store_true flag
            argv += [action.option_strings[0]] if value else []
        else:
            argv += [action.option_strings[0], str(value)]
    return params, argv


class _Run:
    """A command's output directory: its artifacts, then the manifest.

    ``--out`` is created by the first :meth:`path` call, so a command that
    fails before its first artifact leaves nothing on disk.
    """

    def __init__(self, args, started: float):
        self.args = args
        self.out = Path(args.out)
        self.outputs: list[str] = []
        self.started = started

    def path(self, name: str) -> Path:
        self.out.mkdir(parents=True, exist_ok=True)
        self.outputs.append(name)
        return self.out / name

    def finish(self) -> None:
        """Write the manifest of the artifacts written, if there are any."""
        if not self.outputs:
            return
        params, replay_argv = _manifest_arguments(self.args)
        manifest = {
            "tool": "contestlab",
            "version": __version__,
            "command": self.args.command,
            "parameters": params,
            "replay_argv": replay_argv,
            "outputs": sorted(self.outputs),
            "duration_seconds": round(time.monotonic() - self.started, 6),
            "created_utc": datetime.now(timezone.utc).isoformat(),
        }
        _write_json(self.out / MANIFEST_NAME, manifest)


def _load_scenario_arg(value: str):
    """A scenario is a JSON file path or the name of a shipped example."""
    path = Path(value)
    if path.exists():
        return load_scenario(path), str(path.resolve())
    if value in EXAMPLE_CONFIGS:
        return example_scenario(value), value
    raise DomainError(f"scenario {value!r}: no such file or example name")


def _parse_prize_list(text: str) -> list[PrizeVector]:
    """Parse '1,0;2,0;4,0' into prize vectors (semicolons split vectors)."""
    vectors = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            values = tuple(float(v) for v in chunk.split(","))
        except ValueError:
            raise DomainError(f"bad prize vector {chunk!r}") from None
        vectors.append(PrizeVector(values))
    if not vectors:
        raise DomainError("no prize vectors given")
    return vectors


def _case_column(codes: np.ndarray) -> np.ndarray:
    """The names of least-cost case codes, for a CSV column."""
    return np.asarray([CASE_NAMES[c] for c in codes.tolist()], dtype=object)


def _solve(args, scenario):
    return solve_equilibrium(scenario, grid_size=args.grid, tol=args.tol)


# ---------------------------------------------------------------------------
# Subcommand handlers


def _cmd_validate(args, scenario, run) -> int:
    report = validate_assumptions(scenario)
    _write_json(run.path("validation.json"), report.to_dict())
    print(report.summary())
    if not report.ok:
        print("validation failed", file=sys.stderr)
        return EXIT_INPUT
    return EXIT_OK


def _cmd_cost(args, scenario, run) -> int:
    scenario.check_theta(args.theta)
    if args.mu_max <= 0:
        raise DomainError(f"--mu-max must be positive, got {args.mu_max}")
    if args.points < 1:
        raise DomainError(f"--points must be at least 1, got {args.points}")
    mus = np.linspace(0.0, args.mu_max, args.points)
    thetas = np.full(mus.shape, args.theta)
    grid = allocate_grid(scenario, mus, thetas)
    write_csv(run.path("cost.csv"), {
        "mu": mus, "theta": thetas, "a": grid.a, "b": grid.b,
        "case": _case_column(grid.case), "cost": grid.cost,
        "shadow_price": grid.shadow_price, "marginal_cost": grid.marginal_cost,
    })
    print(f"wrote cost curve for theta={args.theta} ({args.points} points)")
    return EXIT_OK


def _cmd_baseline(args, scenario, run) -> int:
    grid = baseline_grid(scenario, scenario.types.grid(args.grid))
    th = baseline_thresholds(scenario)
    write_csv(run.path("baseline.csv"), {
        "theta": grid.theta, "a": grid.a, "b": grid.b, "mu": grid.mu,
        "case": _case_column(grid.case), "payoff": grid.payoff,
    })
    _write_json(run.path("baseline.json"), {
        "mech_upper": th.mech_upper, "create_lower": th.create_lower,
        "grid": args.grid, "scenario_id": scenario.scenario_id,
    })
    print(f"thresholds: mech_upper={th.mech_upper:.6g} create_lower={th.create_lower:.6g}")
    return EXIT_OK


def _cmd_equilibrium(args, scenario, run) -> int:
    profile = _solve(args, scenario)
    alloc = allocate_grid(scenario, profile.mu_star, profile.theta_grid)
    write_csv(run.path("equilibrium.csv"), {
        "theta": profile.theta_grid, "mu_star": profile.mu_star,
        "a": alloc.a, "b": alloc.b, "case": _case_column(alloc.case),
        "mu_baseline": profile.baseline.mu,
    })
    _write_json(run.path("equilibrium.json"), {
        "converged": profile.converged, "iterations": profile.iterations,
        "residual": profile.residual, "grid": args.grid, "tol": args.tol,
        "scenario_id": scenario.scenario_id,
    })
    profile.require_converged()   # after the artifacts, which record the failure
    print(f"converged in {profile.iterations} iterations "
          f"(residual {profile.residual:.3e})")
    return EXIT_OK


def _cmd_hacking(args, scenario, run) -> int:
    verdicts = hacking_verdicts(_solve(args, scenario))
    profile, alloc = verdicts.profile, verdicts.allocation
    base, th = profile.baseline, baseline_thresholds(scenario)
    write_csv(run.path("hacking.csv"), {
        "theta": profile.theta_grid, "hacks": verdicts.hacks.astype(int),
        "band": verdicts.band, "a_star": alloc.a, "b_star": alloc.b,
        "a_baseline": base.a, "b_baseline": base.b,
        "mu_star": profile.mu_star, "mu_baseline": base.mu,
    })
    _write_json(run.path("hacking.json"), {
        "theta_star": verdicts.theta_star,
        "mech_upper": th.mech_upper, "create_lower": th.create_lower,
        "hacking_measure": verdicts.measure,
        "scenario_id": scenario.scenario_id,
    })
    print(f"theta_star={verdicts.theta_star:.6g} "
          f"measure={verdicts.measure:.6g}")
    return EXIT_OK


def _cmd_sweep(args, scenario, run) -> int:
    vectors = _parse_prize_list(args.prizes)
    result = skewness_sweep(scenario, vectors, grid_size=args.grid, tol=args.tol)
    verdicts = result.verdicts
    profiles = [v.profile for v in verdicts]
    allocs = [v.allocation for v in verdicts]
    write_csv(run.path("sweep.csv"), {
        "prizes": np.repeat(np.arange(len(verdicts)),
                            [p.theta_grid.size for p in profiles]),
        "theta": np.concatenate([p.theta_grid for p in profiles]),
        "mu_star": np.concatenate([p.mu_star for p in profiles]),
        "a_star": np.concatenate([a.a for a in allocs]),
        "b_star": np.concatenate([a.b for a in allocs]),
        "hacks": np.concatenate([v.hacks for v in verdicts]).astype(int),
        "band": np.concatenate([v.band for v in verdicts]),
    })
    _write_json(run.path("sweep.json"), {
        "prize_vectors": [list(pv.values) for pv in result.prize_vectors],
        "relations": [list(r) for r in result.relations],
        "hack_measures": list(result.hack_measures),
        "theta_stars": [v.theta_star for v in verdicts],
        "dominance_violations": result.dominance_violations(),
        "measure_violations": result.measure_violations(),
    })
    measures = ", ".join(f"{m:.4f}" for m in result.hack_measures)
    print(f"swept {len(vectors)} prize vectors; hacking measures: {measures}")
    return EXIT_OK


def _cmd_simulate(args, scenario, run) -> int:
    if args.panel_cells:
        cells = panel_cells(scenario, players=scenario.players, grid_size=args.grid,
                            tol=args.tol)
    else:   # the scenario's own prizes as one cell; few prizes mean skewed
        skew = 1 if len(scenario.prizes) <= 3 else 0
        cells = (PanelCell(scenario.prizes.total, skew, _solve(args, scenario)),)
    panel = synthetic_panel(
        scenario,
        n_contests=args.contests,
        players=scenario.players,
        seed=args.seed,
        cells=cells,
        traj_length=args.traj_length,
        drift_scale=args.drift_scale,
        noise_scale=args.noise_scale,
    )
    panel.contests_to_csv(run.path("contests.csv"))
    panel.to_csv(run.path("panel.csv"))
    print(f"simulated {args.contests} contests x {scenario.players} players "
          f"(panel rows: {panel.n_rows})")
    return EXIT_OK


def _cmd_mk(args, scenario, run) -> int:
    columns = read_csv_columns(args.input, [args.column])
    if args.column not in columns:
        raise DomainError(f"{args.input}: no column {args.column!r} "
                          f"(have {sorted(read_csv_columns(args.input))})")
    result = mann_kendall(columns[args.column])
    _write_json(run.path("mk.json"), {
        "column": args.column, "n": result.n, "S": result.s,
        "var_S": result.var_s, "Z": result.z,
    })
    print(f"S={result.s} Z={result.z:.6g} (n={result.n})")
    return EXIT_OK


def _cmd_regress(args, scenario, run) -> int:
    regressors = [s for s in f"{args.dummies},{args.interactions}".split(",") if s]
    columns = read_csv_columns(args.input, {args.outcome, *regressors, args.group})
    result = fe_ols(columns, args.outcome, regressors, group=args.group)
    _write_json(run.path("regress.json"), result.to_dict())
    for name, coef, se in zip(result.names, result.coef, result.se):
        print(f"{name:16s} {coef: .6g} (se {se:.6g})")
    print(f"R2 {result.r_squared:.6g}, {result.nobs} rows, "
          f"{result.n_groups} groups")
    return EXIT_OK


def _cmd_examples(args, scenario, run) -> int:
    checks = golden_suite()
    failed = [c for c in checks if not c.passed]
    _write_json(run.path("examples.json"), [
        {"example": c.example, "check": c.name, "passed": c.passed,
         "detail": c.detail} for c in checks
    ])
    for c in checks:
        print(f"[{'PASS' if c.passed else 'FAIL'}] {c.example}: {c.name} ({c.detail})")
    print(f"{len(checks) - len(failed)}/{len(checks)} checks passed")
    return EXIT_OK if not failed else EXIT_INPUT


def _cmd_replay(args, scenario, run) -> int:
    manifest_path = Path(args.manifest)
    try:
        with open(manifest_path) as fh:
            manifest = json.load(fh)
    except FileNotFoundError:
        raise DomainError(f"no manifest at {manifest_path}") from None
    except json.JSONDecodeError as exc:
        raise DomainError(f"{manifest_path}: not valid JSON ({exc})") from None
    argv = manifest.get("replay_argv")
    if not isinstance(argv, list) or not argv:
        raise DomainError(f"{manifest_path}: missing replay_argv")
    return dispatch([str(v) for v in argv] + ["--out", args.out])


# ---------------------------------------------------------------------------
# Parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="contestlab",
        description="Contest-design lab: effort allocation, equilibria, "
                    "benchmark hacking, simulation.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, scenario=True, solver=False):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func, parser=p)
        if scenario:
            p.add_argument("--scenario", required=True,
                           help="scenario JSON file or shipped example name")
        p.add_argument("--out", default=".", help="output directory")
        if solver:
            p.add_argument("--grid", type=int, default=201, help="type grid size")
            p.add_argument("--tol", type=float, default=1e-5,
                           help="fixed-point tolerance (finite, >= 0)")
        return p

    add("validate", _cmd_validate, "check model assumptions on a scenario")

    p = add("cost", _cmd_cost, "tabulate the least-cost allocation curve")
    p.add_argument("--theta", type=float, required=True, help="type to profile")
    p.add_argument("--mu-max", type=float, default=4.0, help="top fitness target")
    p.add_argument("--points", type=int, default=201, help="curve resolution")

    p = add("baseline", _cmd_baseline, "solve the no-contest baseline")
    p.add_argument("--grid", type=int, default=201, help="type grid size")

    add("equilibrium", _cmd_equilibrium, "solve the symmetric equilibrium",
        solver=True)
    add("hacking", _cmd_hacking, "classify benchmark hacking types", solver=True)

    p = add("sweep", _cmd_sweep, "compare equilibria across prize vectors",
            solver=True)
    p.add_argument("--prizes", required=True,
                   help="semicolon-separated prize vectors, e.g. '1,0;2,0;4,0'")

    p = add("simulate", _cmd_simulate, "Monte Carlo contests and panel export",
            solver=True)
    p.add_argument("--seed", type=int, default=0, help="base RNG seed")
    p.add_argument("--contests", type=int, default=100, help="replication count")
    p.add_argument("--traj-length", type=int, default=10,
                   help="submissions per trajectory")
    p.add_argument("--drift-scale", type=float, default=0.3,
                   help="trend points per submission at full creative share")
    p.add_argument("--noise-scale", type=float, default=2.0,
                   help="score noise at full mechanistic share")
    p.add_argument("--panel-cells", action="store_true",
                   help="vary prize value and skew across built-in cells "
                        "instead of using the scenario's own prizes; the "
                        "skewed cells pay three ranks, so the scenario needs "
                        "at least 3 players")

    p = add("mk", _cmd_mk, "Mann-Kendall trend test on a CSV column",
            scenario=False)
    p.add_argument("--input", required=True, help="CSV file")
    p.add_argument("--column", required=True, help="column to test")

    p = add("regress", _cmd_regress, "fixed-effects OLS on a panel CSV",
            scenario=False)
    p.add_argument("--input", required=True, help="panel CSV file")
    p.add_argument("--outcome", required=True, help="outcome column")
    p.add_argument("--dummies", required=True, help="comma-separated dummy columns")
    p.add_argument("--interactions", default="",
                   help="comma-separated interaction columns")
    p.add_argument("--group", default="contest_id", help="fixed-effect column")

    add("examples", _cmd_examples, "verify the shipped canonical examples",
        scenario=False)

    p = add("replay", _cmd_replay, "re-run a command from its manifest",
            scenario=False)
    p.add_argument("manifest", help="path to a run_manifest.json")

    return parser


def dispatch(argv) -> int:
    """Parse and run one command, mapping failures to exit codes.

    The scenario is loaded here, and its resolved path or name and the
    resolved ``--input`` path are stored on ``args``.  The manifest is
    written when the handler returns, and when it raises a
    ContestLabError after writing artifacts that record the failure (an
    unconverged ``equilibrium``); a failed write leaves none.
    """
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:   # argparse already printed the message
        return int(exc.code or 0)
    run = _Run(args, time.monotonic())
    try:
        scenario = None
        if hasattr(args, "scenario"):
            scenario, args.scenario = _load_scenario_arg(args.scenario)
        if hasattr(args, "input"):
            args.input = str(Path(args.input).resolve())
        try:
            code = args.func(args, scenario, run)
        except ContestLabError:
            run.finish()
            raise
        run.finish()
        return code
    except (ContestLabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE if isinstance(exc, SolverError) else EXIT_INPUT


def main(argv=None) -> int:
    return dispatch(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
