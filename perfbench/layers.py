"""Layer boundaries of contestlab that the traced run wraps, and the
per-layer metrics derived from them.

Each hook names ``module:attribute`` as one module calls it in another,
so the wrapper sees exactly the calls that cross that boundary.  A
metric whose hook target no longer exists (a later change renamed or
removed it) is reported as missing (``None``), never as zero.
"""

from __future__ import annotations

import os
import threading

from tracer import Tracer

FORM_METHODS = [
    "ProductionForm.value", "ProductionForm.deriv_a", "ProductionForm.invert",
    "MechanizationForm.value", "MechanizationForm.deriv", "MechanizationForm.invert",
    "CostForm.value", "CostForm.deriv",
]

# layer name -> (records spans?, hook targets)
HOOKS = {
    "equilibrium.solve": (True, ["contestlab.cli:solve_equilibrium",
                                 "contestlab.golden:solve_equilibrium",
                                 "contestlab.hacking:solve_equilibrium",
                                 "contestlab.simulate:solve_equilibrium"]),
    "equilibrium.best_response": (True, ["contestlab.equilibrium:_best_response_grid"]),
    "equilibrium.gain_table.build": (True, ["contestlab.equilibrium:GainTable.__init__"]),
    "equilibrium.gain_table.eval": (False, ["contestlab.equilibrium:GainTable.gain"]),
    "isotonic.projection": (True, ["contestlab.equilibrium:isotonic_projection"]),
    "baseline.grid": (True, ["contestlab.equilibrium:baseline_grid",
                             "contestlab.hacking:baseline_grid",
                             "contestlab.golden:baseline_grid",
                             "contestlab.cli:baseline_grid"]),
    "baseline.thresholds": (True, ["contestlab.golden:baseline_thresholds",
                                   "contestlab.cli:baseline_thresholds"]),
    "hacking.verdicts": (True, ["contestlab.hacking:hacking_verdicts",
                                "contestlab.cli:hacking_verdicts"]),
    "hacking.threshold": (True, ["contestlab.golden:hacking_threshold",
                                 "contestlab.cli:hacking_threshold"]),
    "hacking.sweep": (True, ["contestlab.cli:skewness_sweep"]),
    "golden.suite": (True, ["contestlab.cli:golden_suite"]),
    "costmin.allocate_grid": (False, ["contestlab.equilibrium:allocate_grid",
                                      "contestlab.simulate:allocate_grid",
                                      "contestlab.hacking:allocate_grid",
                                      "contestlab.golden:allocate_grid",
                                      "contestlab.cli:allocate_grid",
                                      "contestlab.costmin:allocate_grid"]),
    "rootfind.bisect_vec": (False, ["contestlab.costmin:bisect_vec",
                                    "contestlab.baseline:bisect_vec"]),
    "model.form": (False, [f"contestlab.model:{m}" for m in FORM_METHODS]),
    "simulate.run_contests": (True, ["contestlab.cli:run_contests"]),
    "simulate.run_contest": (False, ["contestlab.simulate:run_contest"]),
    "simulate.mk_batch": (False, ["contestlab.simulate:_mk_batch"]),
    "simulate.panel_cells": (True, ["contestlab.simulate:panel_cells"]),
    "simulate.synthetic_panel": (True, ["contestlab.simulate:synthetic_panel",
                                        "contestlab.cli:synthetic_panel"]),
    "simulate.panel_regressions": (True, ["contestlab.simulate:panel_regressions"]),
    "simulate.fe_ols": (True, ["contestlab.simulate:fe_ols", "contestlab.cli:fe_ols"]),
    "tables.write": (True, ["contestlab.simulate:write_csv", "contestlab.cli:write_csv"]),
    "tables.read": (True, ["contestlab.cli:read_csv_columns"]),
    "cli.command": (True, ["contestlab.cli:main"]),
}


class LayerTrace:
    """A tracer with contestlab's hooks and the counters they feed."""

    def __init__(self):
        self.tracer = Tracer()
        self.contest_keys = set()
        self.pool_threads = set()
        self.main_contests = 0
        self._main = threading.get_ident()
        import contestlab.costmin as costmin
        self._interior = getattr(costmin, "INTERIOR", None)

    def install(self):
        t = self.tracer
        observers = {
            "equilibrium.solve": self._on_solve,
            "equilibrium.gain_table.eval": self._on_gain,
            "costmin.allocate_grid": self._on_allocate,
            "simulate.run_contest": self._on_contest,
            "simulate.mk_batch": self._on_mk_batch,
            "simulate.fe_ols": self._on_fe_ols,
            "tables.write": self._on_file("tables.write.bytes"),
            "tables.read": self._on_file("tables.read.bytes"),
        }
        for name, (span, targets) in HOOKS.items():
            for target in targets:
                t.patch(target, name, span=span, observe=observers.get(name))

    def uninstall(self):
        self.tracer.uninstall()

    # -- observers (run after the call, outside its timed interval) --------

    def _on_solve(self, args, kwargs, profile):
        self.tracer.count("equilibrium.iterations", int(profile.iterations))

    def _on_gain(self, args, kwargs, result):
        self.tracer.count("equilibrium.gain_table.eval_points", int(result.size))

    def _on_allocate(self, args, kwargs, grid):
        t = self.tracer
        t.count("costmin.elements", int(grid.cost.size))
        if self._interior is not None:
            t.count("costmin.interior", int((grid.case == self._interior).sum()))
        if t.active("equilibrium.best_response"):
            t.count("equilibrium.payoff_evals")

    def _on_contest(self, args, kwargs, out):
        self.contest_keys.add((out.scenario_id, out.seed, out.replication))
        ident = threading.get_ident()
        if ident == self._main:
            self.main_contests += 1
        else:
            self.pool_threads.add(ident)

    def _on_mk_batch(self, args, kwargs, result):
        self.tracer.count("simulate.mk_batch.rows", int(args[0].shape[0]))

    def _on_fe_ols(self, args, kwargs, result):
        self.tracer.count("simulate.fe_ols.rows", int(result.nobs))

    def _on_file(self, key):
        def observe(args, kwargs, result):
            self.tracer.count(key, os.path.getsize(args[0]))
        return observe

    # -- metrics -------------------------------------------------------------

    def metrics(self, extra):
        """Per-layer metrics; ``extra`` supplies values measured outside
        the tracer (false convergences, manifest coverage, step times)."""
        stats = self.tracer.stats()
        counts = self.tracer.counts()
        missing = self.tracer.missing
        if self._interior is None:
            missing = missing | {"costmin.interior"}

        def calls(name):
            return stats.get(name, [0, 0.0, 0.0])[0]

        def busy(name):
            return stats.get(name, [0, 0.0, 0.0])[1]

        def own(name):
            return stats.get(name, [0, 0.0, 0.0])[2]

        def ratio(num, den):
            return num / den if den else 0.0

        elements = counts.get("costmin.elements", 0)
        mb_w = counts.get("tables.write.bytes", 0) / 1e6
        mb_r = counts.get("tables.read.bytes", 0) / 1e6
        contests = calls("simulate.run_contest")
        threads = len(self.pool_threads) or (1 if self.main_contests else 0)
        table = {
            "costmin.allocate_grid.calls": (calls("costmin.allocate_grid"), ["costmin.allocate_grid"]),
            "costmin.allocate_grid.elements": (elements, ["costmin.allocate_grid"]),
            "costmin.allocate_grid.self_s": (own("costmin.allocate_grid"), ["costmin.allocate_grid"]),
            "costmin.allocate_grid.ns_per_element": (
                ratio(busy("costmin.allocate_grid") * 1e9, elements), ["costmin.allocate_grid"]),
            "costmin.interior_share": (
                ratio(counts.get("costmin.interior", 0), elements),
                ["costmin.allocate_grid", "costmin.interior"]),
            "rootfind.bisect_vec.calls": (calls("rootfind.bisect_vec"), ["rootfind.bisect_vec"]),
            "rootfind.bisect_vec.self_s": (own("rootfind.bisect_vec"), ["rootfind.bisect_vec"]),
            "model.form_calls": (calls("model.form"), ["model.form"]),
            "model.form_self_s": (own("model.form"), ["model.form"]),
            "equilibrium.solves": (calls("equilibrium.solve"), ["equilibrium.solve"]),
            "equilibrium.iterations": (counts.get("equilibrium.iterations", 0), ["equilibrium.solve"]),
            "equilibrium.self_s": (own("equilibrium.solve"), ["equilibrium.solve"]),
            "equilibrium.payoff_evals": (counts.get("equilibrium.payoff_evals", 0),
                                         ["costmin.allocate_grid", "equilibrium.best_response"]),
            "equilibrium.gain_table.builds": (calls("equilibrium.gain_table.build"),
                                              ["equilibrium.gain_table.build"]),
            "equilibrium.gain_table.build_s": (busy("equilibrium.gain_table.build"),
                                               ["equilibrium.gain_table.build"]),
            "equilibrium.gain_table.eval_points": (
                counts.get("equilibrium.gain_table.eval_points", 0), ["equilibrium.gain_table.eval"]),
            "equilibrium.gain_table.eval_s": (busy("equilibrium.gain_table.eval"),
                                              ["equilibrium.gain_table.eval"]),
            "equilibrium.best_response.sweeps": (calls("equilibrium.best_response"),
                                                 ["equilibrium.best_response"]),
            "equilibrium.best_response.s": (busy("equilibrium.best_response"),
                                            ["equilibrium.best_response"]),
            "isotonic.calls": (calls("isotonic.projection"), ["isotonic.projection"]),
            "isotonic.s": (busy("isotonic.projection"), ["isotonic.projection"]),
            "baseline.calls": (calls("baseline.grid") + calls("baseline.thresholds"),
                               ["baseline.grid", "baseline.thresholds"]),
            "baseline.s": (busy("baseline.grid") + busy("baseline.thresholds"),
                           ["baseline.grid", "baseline.thresholds"]),
            "hacking.calls": (calls("hacking.verdicts") + calls("hacking.threshold"),
                              ["hacking.verdicts", "hacking.threshold"]),
            "hacking.s": (busy("hacking.verdicts") + busy("hacking.threshold"),
                          ["hacking.verdicts", "hacking.threshold"]),
            "simulate.run_contest.calls": (contests, ["simulate.run_contest"]),
            "simulate.run_contest.self_s": (own("simulate.run_contest"), ["simulate.run_contest"]),
            "simulate.unique_contest_ratio": (ratio(len(self.contest_keys), contests),
                                              ["simulate.run_contest"]),
            "simulate.mk_batch.calls": (calls("simulate.mk_batch"), ["simulate.mk_batch"]),
            "simulate.mk_batch.rows": (counts.get("simulate.mk_batch.rows", 0), ["simulate.mk_batch"]),
            "simulate.mk_batch.s": (busy("simulate.mk_batch"), ["simulate.mk_batch"]),
            "simulate.synthetic_panel.self_s": (own("simulate.synthetic_panel"),
                                                ["simulate.synthetic_panel"]),
            "simulate.threads": (threads, ["simulate.run_contest"]),
            "simulate.fe_ols.calls": (calls("simulate.fe_ols"), ["simulate.fe_ols"]),
            "simulate.fe_ols.rows": (counts.get("simulate.fe_ols.rows", 0), ["simulate.fe_ols"]),
            "simulate.fe_ols.s": (busy("simulate.fe_ols"), ["simulate.fe_ols"]),
            "tables.write.mb": (mb_w, ["tables.write"]),
            "tables.write.s": (busy("tables.write"), ["tables.write"]),
            "tables.write.mb_per_s": (ratio(mb_w, busy("tables.write")), ["tables.write"]),
            "tables.read.mb": (mb_r, ["tables.read"]),
            "tables.read.s": (busy("tables.read"), ["tables.read"]),
            "tables.read.mb_per_s": (ratio(mb_r, busy("tables.read")), ["tables.read"]),
            "cli.self_s": (own("cli.command"), ["cli.command"]),
        }
        out = {name: (None if missing.intersection(needs) else value)
               for name, (value, needs) in table.items()}
        out.update(extra)
        return out
