"""Experiment runner CLI: presets, JSON configs, CSV output.

Usage:

    adiabat run --preset fig-element [--out DIR] [--dt X] [--seed N]
                [--no-timestamp] [--workers N]
    adiabat run --config experiment.json [...]
    adiabat check --all

Exit codes: 0 on success, 1 when an embedded assertion fails, 2 on config
errors, a ``dt`` over the step budget or the step count budget included.
``--workers``, or else ``ADIABAT_THREADS``, sets the worker pool size.

Output files are deterministic for a fixed config and seed: rows are sorted
by (gamma, T), floats are printed with 17 significant digits, and the only
non-reproducible line is a leading timestamp comment that ``--no-timestamp``
suppresses.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

from . import models, runner
from .errors import (
    AdiabatError,
    AssertionFailed,
    BadSplit,
    ConfigInvalid,
    FrameDiscontinuity,
    StepTooLarge,
)
from .generators import ApproximateGenerator, lindblad_factorize
from .linalg import frobenius
from .propagation import intensity_loss, propagate_piecewise_exp
from .resonance import compute_resonance_tensor
from .spectral import build_transport_frame, geometric_term, vectorized

__all__ = ["ExperimentConfig", "run_preset", "run_config", "main", "PRESETS"]

SWEEP_COLUMNS = ["model", "gamma", "T", "dt", "elem11_exact", "elem11_approx",
                 "fidelity_norm", "loss_exact", "loss_approx", "end_hs_error",
                 "max_hs_error"]

# largest Hilbert-space dimension a config may ask for
_MAX_DIM = 16
# largest max(T)/dt: a T slot peaks at ~3.2 KB per step (1.6 GB here), mostly its frame
_MAX_STEPS = 500_000
# run-time fractions of the orange-slice legs when a config gives none
_DEFAULT_SPLIT = (0.4, 0.2, 0.4, 0.0)

_GAUGES = {
    "north_pole": models.Gauge.NORTH_POLE_REGULAR,
    "equator": models.Gauge.EQUATOR_REGULAR,
}


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def _number(name, value):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigInvalid(f"{name} must be a number, got {value!r}", field=name)
    try:
        return float(value)
    except OverflowError:   # an integer beyond the float range
        raise ConfigInvalid(f"{name} is out of range", field=name) from None


def _numbers(name, value):
    if not isinstance(value, (list, tuple)):
        raise ConfigInvalid(f"{name} must be a list of numbers, got {value!r}",
                            field=name)
    return tuple(_number(name, v) for v in value)


def _integer(name, value):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigInvalid(f"{name} must be an integer, got {value!r}", field=name)
    return value


def _text(name, value):
    if not isinstance(value, str):
        raise ConfigInvalid(f"{name} must be a string, got {value!r}", field=name)
    return value


def _object(**parse):
    """Parser of a JSON object whose listed keys are parsed by ``parse``."""
    def parser(name, value):
        if not isinstance(value, dict):
            raise ConfigInvalid(f"{name} must be a JSON object, got {value!r}",
                                field=name)
        return {k: parse[k](name, v) if k in parse else v for k, v in value.items()}
    return parser


# JSON field -> parser raising ConfigInvalid on a badly typed value
_PARSERS = {
    "model": _text,
    "gamma_list": _numbers,
    "T_list": _numbers,
    "dt": _number,
    "initial_state": _object(x=_number, y=_number),
    "path": _object(delta_phi=_number, split=_numbers),
    "gauge": _text,
    "seed": _integer,
    "dim": _integer,
    "outputs": _text,
}


@dataclass
class ExperimentConfig:
    """Validated sweep description; see the README for the JSON schema."""

    model: str = "holonomy"
    gamma_list: tuple = (0.0, 0.01, 0.1)
    T_list: tuple = (20.0, 100.0)
    dt: float = 0.01
    initial_state: dict = field(default_factory=lambda: {"x": math.pi / 5,
                                                         "y": 3 * math.pi / 4})
    path: dict = field(default_factory=lambda: {"delta_phi": math.pi / 4,
                                                "split": _DEFAULT_SPLIT})
    gauge: str = "north_pole"
    seed: int = 7
    dim: int = 4
    outputs: str = "out"

    @classmethod
    def from_dict(cls, data):
        unknown = set(data) - set(_PARSERS)
        if unknown:
            name = sorted(unknown)[0]
            raise ConfigInvalid(f"unknown config field {name!r}", field=name)
        cfg = cls()
        for key, value in data.items():
            setattr(cfg, key, _PARSERS[key](key, value))
        cfg.validate()
        return cfg

    def validate(self):
        if self.model not in ("holonomy", "random_rotating"):
            raise ConfigInvalid(f"unknown model {self.model!r}", field="model")
        if self.gauge not in _GAUGES:
            raise ConfigInvalid(f"unknown gauge {self.gauge!r}", field="gauge")
        for name, values in (("gamma_list", self.gamma_list), ("T_list", self.T_list)):
            if not values:
                raise ConfigInvalid(f"{name} must not be empty", field=name)
            if not all(math.isfinite(v) for v in values):
                raise ConfigInvalid(f"{name} contains non-finite values", field=name)
        if any(g < 0 for g in self.gamma_list):
            raise ConfigInvalid("gamma values must be >= 0", field="gamma_list")
        if any(t <= 0 for t in self.T_list):
            raise ConfigInvalid("run-times must be positive", field="T_list")
        if not math.isfinite(self.dt) or self.dt <= 0:
            raise ConfigInvalid("dt must be positive and finite", field="dt")
        if self.dt > min(self.T_list) / 10.0:
            raise ConfigInvalid("dt must be at most min(T)/10", field="dt")
        for T in self.T_list:
            if not runner.divides(self.dt, T):
                raise ConfigInvalid(f"dt={self.dt:g} does not divide T={T:g}", field="dt")
        if max(self.T_list) / self.dt > _MAX_STEPS:
            raise ConfigInvalid(f"dt={self.dt:g} gives more than {_MAX_STEPS} steps "
                                f"at T={max(self.T_list):g}", field="dt")
        if self.seed < 0:
            raise ConfigInvalid("seed must be >= 0", field="seed")
        if self.dim < 2:
            raise ConfigInvalid("dim must be >= 2", field="dim")
        if self.dim > _MAX_DIM:
            # superoperators are dim^2 x dim^2
            raise ConfigInvalid(f"dim must be <= {_MAX_DIM}", field="dim")
        if self.model == "holonomy":
            for key in ("x", "y"):
                if key not in self.initial_state or not math.isfinite(self.initial_state[key]):
                    raise ConfigInvalid("initial_state needs finite Bloch angles x, y",
                                        field="initial_state")
            if "delta_phi" not in self.path:
                raise ConfigInvalid("path needs delta_phi", field="path")
            try:
                models.build_orange_path(self.path["delta_phi"], 1.0,
                                         self.path.get("split", _DEFAULT_SPLIT))
            except BadSplit as exc:
                raise ConfigInvalid(f"path: {exc}", field="path") from None

    def tasks(self):
        """One runner task per T slot (gammas share the frame build)."""
        if self.model == "holonomy":
            model = dict(
                delta_phi=float(self.path["delta_phi"]),
                split=tuple(self.path.get("split", _DEFAULT_SPLIT)),
                gauge=_GAUGES[self.gauge],
                x=float(self.initial_state["x"]),
                y=float(self.initial_state["y"]),
            )
        else:
            model = dict(seed=int(self.seed), dim=int(self.dim))
        return [dict(model, kind=self.model, T=float(T), dt=float(self.dt),
                     gamma_list=list(self.gamma_list))
                for T in self.T_list]


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------

def _write_table(columns, rows, path, timestamp):
    """Write one CSV table: the optional ``# generated`` line, the header,
    then one line per row of values in column order, each made by a single
    ``%``-format.  Floats print as ``%.17g`` (enough digits to read back
    exactly), anything else as ``str``; lines end in ``\\r\\n``, as
    :mod:`csv` writes them.  No value may contain a comma or a quote."""
    with open(path, "w", newline="") as fh:
        if timestamp:
            fh.write(f"# generated {datetime.now(timezone.utc).isoformat()}\n")
        fh.write(",".join(columns) + "\r\n")
        for row in rows:
            fmt = ",".join("%.17g" if isinstance(v, float) else "%s" for v in row)
            fh.write(fmt % tuple(row) + "\r\n")


def _records(rows, columns):
    return [[row[c] for c in columns] for row in rows]


def write_sweep_csv(rows, path, timestamp=True):
    _write_table(SWEEP_COLUMNS, _records(rows, SWEEP_COLUMNS), path, timestamp)


def write_trajectory_csv(trajectory, p_comp, path, timestamp=True):
    """One row per sample: s, trace, loss, purity, then Re/Im of the
    column-stacked state components."""
    states = trajectory.states
    vecs = np.transpose(states, (0, 2, 1)).reshape(len(states), -1)
    table = np.column_stack([trajectory.grid, trajectory.traces(),
                             intensity_loss(states, p_comp),
                             trajectory.purities(), vecs.real, vecs.imag])
    header = ["s", "trace", "loss", "purity"] + [
        f"{part}_{i}" for part in ("re", "im") for i in range(vecs.shape[1])]
    _write_table(header, (row.tolist() for row in table), path, timestamp)


# ---------------------------------------------------------------------------
# embedded assertions
# ---------------------------------------------------------------------------

def _require(name, ok, measured, bound):
    if not ok:
        raise AssertionFailed(name, measured, bound)


def _assert_invariants(rows):
    for row in rows:
        inv = row.get("_invariants", {})
        for gen_name, (trace_dev, herm_dev, min_eig) in inv.items():
            tag = f"{row['model']} g={row['gamma']} T={row['T']} {gen_name}"
            _require(f"trace[{tag}]", trace_dev <= 1e-7, trace_dev, 1e-7)
            _require(f"hermiticity[{tag}]", herm_dev <= 1e-8, herm_dev, 1e-8)
            _require(f"positivity[{tag}]", min_eig >= -1e-6, min_eig, -1e-6)


def _by_gamma(rows):
    out = {}
    for row in rows:
        out.setdefault(row["gamma"], []).append(row)
    for series in out.values():
        series.sort(key=lambda r: r["T"])
    return out


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

def _sweep_preset_config(T_list, model="holonomy", gamma_list=(0.0, 0.01, 0.1)):
    return ExperimentConfig(model=model, gamma_list=tuple(gamma_list),
                            T_list=tuple(T_list))


def _sweep(cfg, out_dir, timestamp, workers, export=None):
    """Integrate every point of ``cfg``, check the invariants, write
    ``sweep.csv``; the step every sweep preset and config run share."""
    rows = runner.sweep(cfg.tasks(), workers, export)
    _assert_invariants(rows)
    write_sweep_csv(rows, os.path.join(out_dir, "sweep.csv"), timestamp)
    return rows


def _export_point(out_dir, timestamp, ctx, metrics, exact, approx):
    """Trajectory CSVs of one point, once its invariants hold; runs in the
    process that integrated the point."""
    _assert_invariants([metrics])
    for gen_name, traj in (("exact", exact), ("approx", approx)):
        fname = f"trajectory_{gen_name}_g{metrics['gamma']:g}_T{metrics['T']:g}.csv"
        write_trajectory_csv(traj, ctx.p_comp, os.path.join(out_dir, fname), timestamp)


def _config_sweep(cfg, out_dir, timestamp, workers):
    return _sweep(cfg, out_dir, timestamp, workers,
                  export=functools.partial(_export_point, out_dir, timestamp))


def _preset_fig_element(cfg, out_dir, timestamp, workers):
    rows = _sweep(cfg, out_dir, timestamp, workers)
    expected = len(cfg.gamma_list) * len(cfg.T_list)
    _require("sweep-row-count", len(rows) == expected, len(rows), expected)
    return rows


def _preset_fig_fidelity(cfg, out_dir, timestamp, workers):
    rows = _sweep(cfg, out_dir, timestamp, workers)
    for gamma, series in _by_gamma(rows).items():
        fids = [r["fidelity_norm"] for r in series]
        _require(f"fidelity-range[g={gamma}]",
                 all(0.0 <= f <= 1.0 + 1e-9 for f in fids), min(fids), (0.0, 1.0))
        increasing = all(b > a for a, b in zip(fids, fids[1:]))
        _require(f"fidelity-monotone[g={gamma}]", increasing, fids, "increasing in T")
    return rows


def _preset_fig_loss(cfg, out_dir, timestamp, workers):
    rows = _sweep(cfg, out_dir, timestamp, workers)
    by_gamma = _by_gamma(rows)
    gammas = sorted(by_gamma)
    for row in by_gamma.get(0.0, []):
        _require("loss-approx-vanishes[g=0]", abs(row["loss_approx"]) <= 1e-10,
                 row["loss_approx"], 1e-10)
    # ordering in gamma at the largest common T
    t_ref = max(r["T"] for r in rows)
    outcol = {}
    for gamma in gammas:
        match = [r for r in by_gamma[gamma] if r["T"] == t_ref]
        outcol[gamma] = (match[0]["loss_exact"], match[0]["loss_approx"])
    for a, b in zip(gammas, gammas[1:]):
        _require(f"loss-ordering[{a}<{b}]",
                 outcol[a][0] < outcol[b][0] and outcol[a][1] < outcol[b][1],
                 (outcol[a], outcol[b]), "increasing in gamma")
    return rows


def _preset_fig_sweep_random(cfg, out_dir, timestamp, workers):
    rows = _sweep(cfg, out_dir, timestamp, workers)
    for gamma, series in _by_gamma(rows).items():
        errs = [r["max_hs_error"] for r in series]
        if gamma == 0.0:
            decreasing = all(b < a for a, b in zip(errs, errs[1:]))
            _require("maxerr-decreasing[g=0]", decreasing, errs, "decreasing in T")
        else:
            k = int(np.argmin(errs))
            _require(f"maxerr-interior-min[g={gamma}]",
                     0 < k < len(errs) - 1, errs, "interior minimum over T grid")
    return rows


def _lindblad_check_rows():
    samples = np.linspace(0.05, 0.95, 10)
    random_model = models.make_random_model(7)
    cases = (
        ("holonomy",
         models.holonomy_family(models.build_orange_path(math.pi / 4, 100.0)),
         models.holonomy_dissipator()),
        ("random_rotating", random_model.family(), random_model.dissipator()),
    )
    rows = []
    for model_id, fam, diss in cases:
        tensor = compute_resonance_tensor(fam.spectrum, np.linspace(0, 1, 201))
        for s in samples:
            decomp = fam.spectrum(s)
            fact = lindblad_factorize(diss, tensor, decomp, s)
            err = fact.reconstruction_error(diss, tensor, decomp, s)
            rows.append({"model": model_id, "s": float(s),
                         "reconstruction_error": err,
                         "lambda_min": float(fact.g_eigenvalues.min())})
    return rows


def _preset_check_lindblad(cfg, out_dir, timestamp, workers):
    rows = _lindblad_check_rows()
    columns = ["model", "s", "reconstruction_error", "lambda_min"]
    _write_table(columns, _records(rows, columns),
                 os.path.join(out_dir, "lindblad_check.csv"), timestamp)
    for row in rows:
        tag = f"{row['model']} s={row['s']:.3f}"
        _require(f"lindblad-reconstruction[{tag}]",
                 row["reconstruction_error"] <= 1e-9,
                 row["reconstruction_error"], 1e-9)
        _require(f"g-spectrum[{tag}]", row["lambda_min"] >= -1e-10,
                 row["lambda_min"], -1e-10)
    return rows


def gauge_check_rows(T=2.0, gamma=0.1, dt=1e-4):
    """Frame- and gauge-equivalence measurements on the gate model.

    Compares (a) the lab-frame approximate evolution against the rotated
    block evolution and (b) the two gauges against each other, block by
    block at ten checkpoints, plus the frame-discontinuity behaviour of the
    two gauges on a pole-crossing path.
    """
    x, y, dphi, split = math.pi / 5, 3 * math.pi / 4, math.pi / 4, _DEFAULT_SPLIT
    rows = []

    ctx_np = runner.holonomy_context(dphi, split, models.Gauge.NORTH_POLE_REGULAR,
                                     T, dt, x, y)
    # the spectrum, hence the resonance tensor, does not depend on the
    # gauge: only the frame and the generator assembly are rebuilt
    ctx_eq = dataclasses.replace(ctx_np, family=models.holonomy_family(
        models.build_orange_path(dphi, T, split), models.Gauge.EQUATOR_REGULAR))
    approx_np = runner.integrate(ctx_np, gamma, approximate=True)
    approx_eq = runner.integrate(ctx_eq, gamma, approximate=True)

    fam = ctx_np.family
    q_of_s = vectorized(functools.partial(geometric_term, fam, h=1e-3, richardson=True))
    gen_lab = ApproximateGenerator(fam, ctx_np.dissipator, ctx_np.tensor, T, gamma,
                                   q_of_s=q_of_s)
    traj_lab = propagate_piecewise_exp(gen_lab, ctx_np.rho0, dt, T)

    n = len(traj_lab.grid) - 1
    checkpoints = [max(1, (n * (j + 1)) // 10) for j in range(10)]
    worst_direct = 0.0
    worst_gauge = 0.0
    for idx in checkpoints:
        s = traj_lab.grid[idx]
        spec = fam.spectrum(s)
        for pk in spec.projectors:
            for pl in spec.projectors:
                block = lambda rho: pk @ rho @ pl
                worst_direct = max(worst_direct, frobenius(
                    block(traj_lab.states[idx]) - block(approx_np.states[idx])))
                worst_gauge = max(worst_gauge, frobenius(
                    block(approx_eq.states[idx]) - block(approx_np.states[idx])))
    rows.append({"check": "direct-vs-rotated", "value": worst_direct, "bound": 1e-8})
    rows.append({"check": "gauge-equivalence", "value": worst_gauge, "bound": 1e-8})

    # the smooth pole-crossing path: fine in the north-pole gauge, a jump
    # in the equator gauge
    pole_path = models.build_pole_crossing_path()
    grid = np.linspace(0.0, 1.0, 801)
    fam_np = models.holonomy_family(pole_path, models.Gauge.NORTH_POLE_REGULAR)
    build_transport_frame(fam_np, grid, basis=fam_np.analytic_basis)
    rows.append({"check": "north-pole-gauge-continuous", "value": 0.0, "bound": 1.0})
    fam_eq = models.holonomy_family(pole_path, models.Gauge.EQUATOR_REGULAR)
    try:
        build_transport_frame(fam_eq, grid, basis=fam_eq.analytic_basis)
        rows.append({"check": "equator-gauge-discontinuity-detected",
                     "value": 0.0, "bound": "must raise"})
    except FrameDiscontinuity:
        rows.append({"check": "equator-gauge-discontinuity-detected",
                     "value": 1.0, "bound": "must raise"})
    return rows


def _preset_check_gauge(cfg, out_dir, timestamp, workers):
    rows = gauge_check_rows()
    columns = ["check", "value", "bound"]
    _write_table(columns, _records(rows, columns),
                 os.path.join(out_dir, "gauge_check.csv"), timestamp)
    for row in rows:
        if isinstance(row["bound"], float):
            _require(row["check"], row["value"] <= row["bound"],
                     row["value"], row["bound"])
        else:
            _require(row["check"], row["value"] == 1.0, row["value"], row["bound"])
    return rows


PRESETS = {
    "fig-element": (_preset_fig_element,
                    lambda: _sweep_preset_config(tuple(float(t) for t in range(20, 201, 20)))),
    "fig-fidelity": (_preset_fig_fidelity,
                     lambda: _sweep_preset_config((5.0, 10.0, 20.0, 40.0, 60.0, 100.0))),
    "fig-loss": (_preset_fig_loss,
                 lambda: _sweep_preset_config(tuple(float(t) for t in range(20, 201, 20)))),
    "fig-sweep-random": (_preset_fig_sweep_random,
                         lambda: _sweep_preset_config(
                             (10.0, 20.0, 40.0, 80.0, 160.0, 320.0),
                             model="random_rotating",
                             gamma_list=(0.0, 0.002, 0.004, 0.006, 0.008, 0.01))),
    "check-lindblad": (_preset_check_lindblad, ExperimentConfig),
    "check-gauge": (_preset_check_gauge, ExperimentConfig),
}

CHECKS = ("check-lindblad", "check-gauge")


def _execute(func, cfg, overrides):
    """Apply the command-line overrides to ``cfg``, validate it, run
    ``func(cfg, out_dir, timestamp, workers)``; returns (exit_code, rows)."""
    overrides = overrides or {}
    if overrides.get("dt") is not None:
        cfg.dt = float(overrides["dt"])
    if overrides.get("seed") is not None:
        cfg.seed = int(overrides["seed"])
    cfg.validate()
    workers = runner.worker_count(overrides.get("workers"))
    out_dir = overrides.get("out") or cfg.outputs
    os.makedirs(out_dir, exist_ok=True)
    timestamp = not overrides.get("no_timestamp", False)
    try:
        rows = func(cfg, out_dir, timestamp, workers)
    except AssertionFailed as exc:
        print(f"assertion failed: {exc}", file=sys.stderr)
        return 1, None
    except StepTooLarge as exc:
        # the step budget is a property of the config: a smaller dt meets it
        raise ConfigInvalid(f"dt={cfg.dt:g} is too large: {exc}", field="dt") from None
    return 0, rows


def run_preset(name, overrides=None):
    """Execute a named preset; returns (exit_code, rows)."""
    if name not in PRESETS:
        raise ConfigInvalid(f"unknown preset {name!r}", field="preset")
    func, make_cfg = PRESETS[name]
    return _execute(func, make_cfg(), overrides)


def run_config(path, overrides=None):
    """Execute a user-specified JSON config; returns (exit_code, rows).

    Each point is integrated once; its trajectory CSVs are written as soon
    as its invariants hold, so an assertion failure can leave the files of
    points that passed."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigInvalid(f"cannot read config: {exc}", field="config")
    except json.JSONDecodeError as exc:
        raise ConfigInvalid(f"config is not valid JSON: line {exc.lineno}: {exc.msg}",
                            field="config")
    if not isinstance(data, dict):
        raise ConfigInvalid("config root must be a JSON object", field="config")
    return _execute(_config_sweep, ExperimentConfig.from_dict(data), overrides)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="adiabat",
        description="Adiabatic approximation experiments for weakly open systems")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a preset or a JSON config")
    group = run_p.add_mutually_exclusive_group(required=True)
    group.add_argument("--preset", choices=sorted(PRESETS))
    group.add_argument("--config", metavar="FILE")
    run_p.add_argument("--out", metavar="DIR", default=None)
    run_p.add_argument("--dt", type=float, default=None)
    run_p.add_argument("--seed", type=int, default=None)
    run_p.add_argument("--no-timestamp", action="store_true")
    run_p.add_argument("--workers", type=int, default=None)

    check_p = sub.add_parser("check", help="run verification presets")
    check_p.add_argument("--all", action="store_true")
    check_p.add_argument("names", nargs="*", metavar="NAME",
                         help=f"one of {', '.join(CHECKS)} (default: all)")
    check_p.add_argument("--out", metavar="DIR", default=None)
    check_p.add_argument("--no-timestamp", action="store_true")
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "check":
        unknown = [n for n in args.names if n not in CHECKS]
        if unknown:
            parser.error(f"unknown check {unknown[0]!r} (choose from {', '.join(CHECKS)})")
    overrides = {name: getattr(args, name, None)
                 for name in ("out", "dt", "seed", "no_timestamp", "workers")}
    try:
        if args.command == "run":
            if args.preset:
                code, _ = run_preset(args.preset, overrides)
            else:
                code, _ = run_config(args.config, overrides)
            return code
        names = list(args.names)
        if args.all or not names:
            names = list(CHECKS)
        worst = 0
        for name in names:
            code, _ = run_preset(name, overrides)
            worst = max(worst, code)
        return worst
    except ConfigInvalid as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except AdiabatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
