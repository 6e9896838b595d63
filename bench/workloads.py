"""The benchmark's workloads: their inputs, how a job runs them, and how
much useful work a job does.

Each workload is one closed-loop client: one job at a time, in a fresh
interpreter, the next only after the previous one exits.  A job goes
through the library's entry points as a user would: the ``adiabat`` CLI
(``cli.main``) for ``holonomy-export``, the sweep path the sweep presets
share (``runner.sweep``, the presets' invariant assertions,
``cli.write_sweep_csv``) for ``random-sweep``, and the function behind the
``check-gauge`` preset for ``check-gauge``.  See README.md for why each
workload was chosen.
"""
from __future__ import annotations

import csv
import json
import os
import sys

# The fig-sweep-random gammas.
RANDOM_GAMMAS = [0.0, 0.002, 0.004, 0.006, 0.008, 0.01]
# Random-model seeds whose seed-commit outputs are recorded under
# reference/.  A benchmark seed picks POOL[seed % len(POOL)]; HELD_OUT is
# recorded but reached only by asking for it explicitly, so a claimed gain
# can be re-checked on a model that was not used while the change was
# written.
POOL = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9]
HELD_OUT = 1009
DEFAULT_SEED = 7


def model_seed(seed):
    return HELD_OUT if seed == HELD_OUT else POOL[seed % len(POOL)]


def _config_steps(config):
    """Steps of one integration per T, times gammas and the two
    generators: every point the outputs need, integrated once."""
    dt = config["dt"]
    per_gamma = sum(int(round(T / dt)) for T in config["T_list"])
    return 2 * len(config["gamma_list"]) * per_gamma


class HolonomyExport:
    """``adiabat run --config`` on the holonomy gate, with trajectory CSVs."""

    name = "holonomy-export"

    def inputs(self, seed, smoke):
        return {"smoke": smoke, "config": {
            "model": "holonomy",
            "gauge": "north_pole",
            "T_list": [1.0, 2.0] if smoke else [10.0, 20.0],
            "gamma_list": [0.0, 0.1],
            "dt": 0.1 if smoke else 0.01,
        }}

    def reference_key(self, inputs):
        return self.name + ("-smoke" if inputs["smoke"] else "")

    def useful_steps(self, inputs):
        return _config_steps(inputs["config"])

    def prepare(self, adiabat, inputs, work):
        cfg_path = os.path.join(work, "config.json")
        adiabat.cli.ExperimentConfig.from_dict(inputs["config"])
        with open(cfg_path, "w") as fh:
            json.dump(inputs["config"], fh)

        def run(out):
            return adiabat.cli.main(["run", "--config", cfg_path, "--out", out,
                                     "--no-timestamp", "--workers", "1"])
        return run


class RandomSweep:
    """A sweep of the random rotating model; writes ``sweep.csv`` only."""

    name = "random-sweep"

    def inputs(self, seed, smoke):
        return {"smoke": smoke, "config": {
            "model": "random_rotating",
            "seed": model_seed(seed),
            "T_list": [1.0, 2.0] if smoke else [5.0, 10.0],
            "gamma_list": RANDOM_GAMMAS,
            "dt": 0.1 if smoke else 0.01,
        }}

    def reference_key(self, inputs):
        return (f"{self.name}-seed{inputs['config']['seed']}"
                + ("-smoke" if inputs["smoke"] else ""))

    def useful_steps(self, inputs):
        return _config_steps(inputs["config"])

    def prepare(self, adiabat, inputs, work):
        cli, runner = adiabat.cli, adiabat.runner
        cfg = cli.ExperimentConfig.from_dict(inputs["config"])

        def run(out):
            rows = runner.sweep(cfg.tasks(), 1)
            try:
                cli._assert_invariants(rows)
            except adiabat.errors.AssertionFailed as exc:
                print(f"assertion failed: {exc}", file=sys.stderr)
                return 1
            cli.write_sweep_csv(rows, os.path.join(out, "sweep.csv"), timestamp=False)
            return 0
        return run


class CheckGauge:
    """The computation behind the ``check-gauge`` preset,
    ``cli.gauge_check_rows``, at T=2 and gamma=0.1 as in the preset but at
    dt=8e-4 instead of 1e-4.

    At the preset's dt one job takes 45 to 80 s on a 2-core shared host,
    so a traced run (one untraced and one traced job) would not fit in the
    180 s a run may take; at 8e-4 a 42 s run holds three or four jobs.
    The preset's 1e-8 direct-vs-rotated bound holds only from about 12,500
    steps (the deviation grows as (dt/T)^2 whatever T is; it reads 2.5e-7
    here), so the job does not assert it; the rows are gated against the
    seed commit's rows at 1e-12 instead, which any change that moved the
    measured deviations would fail.
    """

    name = "check-gauge"

    def inputs(self, seed, smoke):
        return {"smoke": smoke, "T": 0.2 if smoke else 2.0, "gamma": 0.1,
                "dt": 1e-3 if smoke else 8e-4}

    def reference_key(self, inputs):
        return self.name + ("-smoke" if inputs["smoke"] else "")

    def useful_steps(self, inputs):
        # two gauges x (exact, approximate) in the rotated frame, plus the
        # lab-frame approximate integration
        return 5 * int(round(inputs["T"] / inputs["dt"]))

    def prepare(self, adiabat, inputs, work):
        cli = adiabat.cli
        cli.ExperimentConfig(T_list=(inputs["T"],), gamma_list=(inputs["gamma"],),
                             dt=inputs["dt"]).validate()

        def run(out):
            rows = cli.gauge_check_rows(T=inputs["T"], gamma=inputs["gamma"],
                                        dt=inputs["dt"])
            # the preset's gauge_check.csv format
            with open(os.path.join(out, "gauge_check.csv"), "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["check", "value", "bound"])
                for row in rows:
                    writer.writerow([f"{v:.17g}" if isinstance(v, float) else str(v)
                                     for v in (row["check"], row["value"], row["bound"])])
            return 0
        return run


WORKLOADS = {w.name: w for w in (HolonomyExport(), RandomSweep(), CheckGauge())}
