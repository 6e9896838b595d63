"""Experiment runner CLI: presets, JSON configs, CSV output.

Usage:

    adiabat run --preset fig-element [--out DIR] [--dt X] [--seed N]
                [--no-timestamp] [--workers N]
    adiabat run --config experiment.json [...]
    adiabat check --all

Exit codes: 0 on success, 1 when an embedded assertion fails, 2 on config
errors, a ``dt`` over a step budget or too coarse for the transport frame
and an output directory or CSV file that cannot be created included.
``--workers``, or else ``ADIABAT_THREADS``, sets the worker pool size.

Output files are deterministic for a fixed config and seed: rows are sorted
by (gamma, T), floats are printed with 17 significant digits, and the only
non-reproducible line is a leading timestamp comment that ``--no-timestamp``
suppresses.
"""
from __future__ import annotations

import argparse
import contextlib
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
from .propagation import (
    Trajectory,
    block_length,
    divides,
    intensity_loss,
    propagate_piecewise_exp,
)
from .resonance import compute_resonance_tensor
from .spectral import build_transport_frame, geometric_term, vectorized

__all__ = ["ExperimentConfig", "run_preset", "run_config", "main", "PRESETS"]

SWEEP_COLUMNS = ["model", "gamma", "T", "dt", "elem11_exact", "elem11_approx",
                 "fidelity_norm", "loss_exact", "loss_approx", "end_hs_error",
                 "max_hs_error"]

# largest Hilbert-space dimension a config may ask for
_MAX_DIM = 16
# largest max(T)/dt.  A T slot grows by ~32 B per step (its frame goes a
# window at a time, its pass keeps no trajectory, an export streams its rows)
_MAX_STEPS = 500_000


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def _number(name, value):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigInvalid(f"{name} must be a number, got {value!r}", field=name)
    try:
        # -0.0 is 0.0, so that it prints, and names files, as 0 does
        return float(value) or 0.0
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
    """Parser of a JSON object whose keys are those of ``parse``, each parsed by it."""
    def parser(name, value):
        if not isinstance(value, dict):
            raise ConfigInvalid(f"{name} must be a JSON object, got {value!r}",
                                field=name)
        unknown = sorted(set(value) - set(parse))
        if unknown:
            raise ConfigInvalid(f"unknown {name} field {unknown[0]!r}", field=name)
        return {k: parse[k](name, v) for k, v in value.items()}
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
                                                "split": models.DEFAULT_SPLIT})
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
        if self.gauge not in {g.value for g in models.Gauge}:
            raise ConfigInvalid(f"unknown gauge {self.gauge!r}", field="gauge")
        for name, values in (("gamma_list", self.gamma_list), ("T_list", self.T_list)):
            if not values:
                raise ConfigInvalid(f"{name} must not be empty", field=name)
            if not all(math.isfinite(v) for v in values):
                raise ConfigInvalid(f"{name} contains non-finite values", field=name)
            # a repeated value would integrate one sweep point twice (-0.0 == 0.0)
            if len(set(values)) < len(values):
                raise ConfigInvalid(f"{name} repeats a value", field=name)
            # two values that print alike (%g) would share a point's trajectory files
            if len({_trajectory_name("exact", v, v) for v in values}) < len(values):
                raise ConfigInvalid(f"{name} has two values that share a trajectory file name",
                                    field=name)
        if any(g < 0 for g in self.gamma_list):
            raise ConfigInvalid("gamma values must be >= 0", field="gamma_list")
        if any(t <= 0 for t in self.T_list):
            raise ConfigInvalid("run-times must be positive", field="T_list")
        if not math.isfinite(self.dt) or self.dt <= 0:
            raise ConfigInvalid("dt must be positive and finite", field="dt")
        if self.dt > min(self.T_list) / 10.0:
            raise ConfigInvalid("dt must be at most min(T)/10", field="dt")
        for T in self.T_list:
            if not divides(self.dt, T):
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
                models.build_orange_path(self.path["delta_phi"],
                                         self.path.get("split", models.DEFAULT_SPLIT))
            except BadSplit as exc:
                raise ConfigInvalid(f"path: {exc}", field="path") from None

    def tasks(self):
        """One runner task per T slot (gammas share the frame build)."""
        if self.model == "holonomy":
            model = dict(
                delta_phi=float(self.path["delta_phi"]),
                split=tuple(self.path.get("split", models.DEFAULT_SPLIT)),
                gauge=models.Gauge(self.gauge),
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

# 10^k for k in [_POW10_LOW, 341], each the long double nearest it (strtold
# rounds correctly): the scales 10^(16 - e) of the block formatter, e from
# the smallest subnormal's -324 to DBL_MAX's 308, and one past either end
_POW10_LOW = -293
_POW10 = np.array([np.longdouble(f"1e{k}") for k in range(_POW10_LOW, 342)])
# the rounding bound of _csv_lines needs a 64-bit long double mantissa
# (x86-64); with fewer bits every nonzero value takes the exact path
_FAST_DIGITS = np.finfo(np.longdouble).nmant >= 63
# "0000" to "9999", four ASCII bytes each
_FOUR_DIGITS = (np.arange(10000, dtype=np.uint16)[:, None]
                // np.array([1000, 100, 10, 1], dtype=np.uint16) % 10
                + ord("0")).astype(np.uint8).view(np.uint32).ravel()
# the 46 byte slots of one value's cell: the sign, the "0." and up to three
# zeros that lead 1e-4 <= |x| < 0.1, the 17 digits with a point slot after
# each of the first 16, the exponent "e+XXX" and the separator
_DIGITS, _POINTS = slice(6, 39, 2), slice(7, 38, 2)
_E_MIN = -324


def _cells():
    """The cells of the exponents ``e = _E_MIN..308``, then of the same
    negated, with their digits left out: NUL bytes mark the slots that the
    ``%.17g`` text of such a value does not use."""
    e = np.arange(_E_MIN, 309)
    fixed = (e >= -4) & (e < 17)
    cells = np.zeros((2, len(e), 46), dtype=np.uint8)
    cells[1, :, 0] = ord("-")
    lead = np.where(fixed & (e < 0), 1 - e, 0)      # "0." and -1 - e zeros
    cells[:, :, 1:6] = np.where(np.arange(5) < lead[:, None],
                                np.frombuffer(b"0.000", dtype=np.uint8), 0)
    point = np.where(fixed, e, 0)   # the point follows digit e (none when e < 0)
    cells[:, :, _POINTS] = np.where(np.arange(16) == point[:, None], ord("."), 0)
    cells[:, ~fixed, 39:44] = np.array([b"e%+03d" % k for k in e[~fixed].tolist()],
                                       dtype="S5").view(np.uint8).reshape(-1, 5)
    cells[:, :, 44] = ord(",")
    return cells.reshape(-1, 46)


_CELLS = _cells()


def _csv_lines(table):
    """The CSV lines of a 2-D float array, as bytes: each value exactly as
    ``'%.17g' % v`` prints it, ``,`` between the values of a row and
    ``\\r\\n`` after each row.

    A finite nonzero ``x`` with ``e = floor(log10|x|)`` takes its 17
    significant digits from ``q = |x| 10^(16 - e)``, computed in long double
    and renormalised once into ``[1e16, 1e17)``: the digits are
    ``floor(q) + (frac(q) > 1/2)``.  The table entry of ``10^(16 - e)`` and
    the product are each rounded once, so with a 64-bit mantissa ``q`` is
    within ``2 * 2^-64 * 1e17 < 0.011`` of its exact value, and the rounding
    is certain unless ``frac(q)`` lies within 1/64 of 1/2 (ties included).
    Those values, any ``q`` within 1 of either end of the interval (exact
    powers of ten, and all that could round up to the next one), non-finite
    values, and every nonzero value when the long double has fewer than 64
    mantissa bits (``_FAST_DIGITS``), take the exact path: Python's own
    ``%.17g``.
    Zeros print as ``0`` and ``-0``.

    The text follows ``%g``: fixed notation for exponents ``-4 <= e < 17``
    with trailing zeros and a bare point dropped, else ``d.ddd`` and
    ``e+XX``/``e-XX`` with at least two exponent digits.  Each value fills
    a copy of its exponent's ``_CELLS`` row, and one pass over the block
    deletes the NUL bytes of the unused slots."""
    x = np.ascontiguousarray(table, dtype=float)
    shape = x.shape + (_CELLS.shape[1],)
    x = x.ravel()
    fast = np.isfinite(x) & (x != 0.0) & _FAST_DIGITS
    ax = np.where(fast, np.abs(x), 1.0)
    e = np.floor(np.log10(ax)).astype(np.int64)
    ax = ax.astype(np.longdouble)
    q = ax * _POW10[16 - e - _POW10_LOW]
    e += (q >= 1e17).astype(np.int64) - (q < 1e16)
    q = ax * _POW10[16 - e - _POW10_LOW]
    m = q.astype(np.int64)      # floor(q); frac(q) needs no long double outside the band
    frac = (q - m).astype(float)
    fast &= (m > 10**16) & (m < 10**17 - 1) & (np.abs(frac - 0.5) > 1 / 64)
    m += frac > 0.5

    cells = np.take(_CELLS, e - _E_MIN + len(_CELLS) // 2 * np.signbit(x), axis=0)
    groups = np.empty((len(x), 5), dtype=np.int64)      # the first digit, then 4 x 4
    for j, scale in enumerate((10**16, 10**12, 10**8, 10**4)):
        groups[:, j] = m // scale
        m -= groups[:, j] * scale
    groups[:, 4] = m
    digits = _FOUR_DIGITS[groups].view(np.uint8)[:, 3:]
    cells[:, _DIGITS] = digits
    # trailing zeros go, and the point with them when no digit follows it
    tail = np.flatnonzero(digits[:, -1] == ord("0"))
    if tail.size:
        part, et = cells[tail], e[tail]
        last = 16 - np.argmax(part[:, _DIGITS][:, ::-1] != ord("0"), axis=1)
        keep = np.maximum(last, np.where((et >= 0) & (et < 17), et, 0))
        part[:, _DIGITS] *= np.arange(17) <= keep[:, None]
        part[:, _POINTS] *= np.arange(16) < last[:, None]
        cells[tail] = part
    zero = np.flatnonzero(x == 0.0)    # "0", or "-0" from the sign slot
    cells[zero, 1:-2] = 0
    cells[zero, 1] = ord("0")
    exact = np.flatnonzero(~fast & (x != 0.0))
    if exact.size:
        text = np.array(["%.17g" % v for v in x[exact].tolist()], dtype=f"S{shape[-1] - 2}")
        cells[exact, :-2] = text.view(np.uint8).reshape(len(exact), -1)

    cells = cells.reshape(shape)
    cells[:, -1, -2:] = np.frombuffer(b"\r\n", dtype=np.uint8)
    return cells.tobytes().translate(None, b"\0")


def _write_table(columns, rows, path, timestamp):
    """Write one CSV table: the optional ``# generated`` line, the header,
    then a line per dict row, its values in column order.  Floats print as
    ``%.17g`` (enough digits to read back exactly), through
    :func:`_csv_lines`, whose long double digits are certain outside a band
    of 1/64 around each rounding tie and which sends that band, non-finite
    values and, without a 64-bit long double mantissa, every nonzero value
    to Python's own conversion; anything else prints as ``str`` and may
    contain no comma or quote.  Lines end in ``\\r\\n``, as :mod:`csv`
    writes them."""
    records = [[row[c] for c in columns] for row in rows]
    floats = [v for record in records for v in record if isinstance(v, float)]
    text = iter(_csv_lines(np.reshape(floats, (-1, 1))).split(b"\r\n"))
    with open(path, "wb") as fh:
        if timestamp:
            fh.write(f"# generated {datetime.now(timezone.utc).isoformat()}\n".encode())
        fh.write((",".join(columns) + "\r\n").encode())
        fh.write(b"".join(b",".join(next(text) if isinstance(v, float) else str(v).encode()
                                    for v in record) + b"\r\n" for record in records))


def write_sweep_csv(rows, path, timestamp=True):
    _write_table(SWEEP_COLUMNS, rows, path, timestamp)


def _trajectory_name(kind, gamma, T):
    """The file name of a point's ``exact`` or ``approx`` trajectory CSV."""
    return f"trajectory_{kind}_g{gamma:g}_T{T:g}.csv"


def _trajectory_columns(dim):
    return ["s", "trace", "loss", "purity"] + [
        f"{part}_{i}" for part in ("re", "im") for i in range(dim ** 2)]


def write_trajectory_csv(trajectory, p_comp, path):
    """Append one row per sample to the trajectory CSV at ``path``: s,
    trace, loss, purity, then Re/Im of the column-stacked state components
    (:func:`_trajectory_columns`).  The rows are formatted half a block at
    a time (:func:`.propagation.block_length`): formatting a block holds a
    few copies of its cells."""
    grid, states = trajectory.grid, trajectory.states
    rows = block_length(2 * _CELLS.shape[1] * (4 + 2 * trajectory.dim ** 2))
    with open(path, "ab") as fh:
        for i in range(0, len(grid), rows):
            part = Trajectory(grid[i:i + rows], states[i:i + rows])
            vecs = np.transpose(part.states, (0, 2, 1)).reshape(len(part.grid), -1)
            fh.write(_csv_lines(np.column_stack([
                part.grid, part.traces(), intensity_loss(part.states, p_comp),
                part.purities(), vecs.real, vecs.imag])))


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
    """Rows by gamma, in the (gamma, T) order of :func:`.runner.sweep`."""
    out = {}
    for row in rows:
        out.setdefault(row["gamma"], []).append(row)
    return out


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

def _sweep(cfg, out_dir, timestamp, workers, export=None):
    """Integrate every point of ``cfg``, check the invariants, write
    ``sweep.csv``; the step every sweep preset and config run share."""
    rows = runner.sweep(cfg.tasks(), workers, export)
    _assert_invariants(rows)
    write_sweep_csv(rows, os.path.join(out_dir, "sweep.csv"), timestamp)
    return rows


class _TrajectoryFiles:
    """Writer of the trajectory CSVs of one T slot (see
    :func:`.runner.run_sweep_task`), made in the process that runs it.

    Each point's two files are streamed: entering creates
    ``<name>.partial`` with the optional ``# generated`` line and the
    header, each lab-frame block is appended to it as the pass flushes it
    (:func:`write_trajectory_csv`), and :meth:`commit` moves a point's
    files into place once its invariants hold, in row order.  Leaving
    removes every ``.partial`` file left: those of the point that failed
    its invariants and of the points after it, or of every point when the
    pass raised."""

    def __init__(self, out_dir, timestamp, ctx, gammas):
        self.timestamp, self.p_comp = timestamp, ctx.p_comp
        self.columns = _trajectory_columns(ctx.rho0.shape[-1])
        self.paths = {gamma: [os.path.join(out_dir, _trajectory_name(kind, gamma, ctx.T))
                              for kind in ("exact", "approx")] for gamma in gammas}

    def __enter__(self):
        try:
            for paths in self.paths.values():
                for path in paths:
                    _write_table(self.columns, (), path + ".partial", self.timestamp)
        except BaseException:
            self.__exit__()
            raise
        return self

    def __call__(self, gamma, exact, approx):
        for trajectory, path in zip((exact, approx), self.paths[gamma]):
            write_trajectory_csv(trajectory, self.p_comp, path + ".partial")

    def commit(self, rows):
        for row in rows:
            _assert_invariants([row])
            for path in self.paths.pop(row["gamma"]):
                os.replace(path + ".partial", path)

    def __exit__(self, *exc):
        for paths in self.paths.values():
            for path in paths:
                with contextlib.suppress(FileNotFoundError):
                    os.remove(path + ".partial")
        self.paths = {}


def _config_sweep(cfg, out_dir, timestamp, workers):
    return _sweep(cfg, out_dir, timestamp, workers,
                  export=functools.partial(_TrajectoryFiles, out_dir, timestamp))


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


def _lindblad_check_rows(seed=7):
    samples = np.linspace(0.05, 0.95, 10)
    random_model = models.make_random_model(seed)
    gate = ExperimentConfig().path      # the sweep's gate path
    cases = (
        ("holonomy",
         models.holonomy_family(models.build_orange_path(gate["delta_phi"], gate["split"])),
         models.holonomy_dissipator()),
        ("random_rotating", random_model.family(), random_model.dissipator()),
    )
    rows = []
    for model_id, fam, diss in cases:
        tensor = compute_resonance_tensor(fam.spectrum, runner._TENSOR_GRID)
        for s in samples:
            decomp = fam.spectrum(s)
            fact = lindblad_factorize(diss, tensor, decomp, s)
            err = fact.reconstruction_error(diss, tensor, decomp, s)
            rows.append({"model": model_id, "s": float(s),
                         "reconstruction_error": err,
                         "lambda_min": float(fact.g_eigenvalues.min())})
    return rows


def _preset_check_lindblad(cfg, out_dir, timestamp, workers):
    rows = _lindblad_check_rows(cfg.seed)
    _write_table(["model", "s", "reconstruction_error", "lambda_min"], rows,
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
    gate = ExperimentConfig()       # the sweep's gate: its path and input state
    dphi, split = gate.path["delta_phi"], gate.path["split"]
    rows = []

    ctx_np = runner.holonomy_context(dphi, split, models.Gauge.NORTH_POLE_REGULAR,
                                     T, dt, gate.initial_state["x"], gate.initial_state["y"])
    # the spectrum, hence the resonance tensor, does not depend on the
    # gauge: only the frame and the generator assembly are rebuilt
    ctx_eq = dataclasses.replace(ctx_np, family=models.holonomy_family(
        models.build_orange_path(dphi, split), models.Gauge.EQUATOR_REGULAR))
    points = ctx_np.frame.grid[::2]
    n = len(points) - 1
    checkpoints = [max(1, (n * (j + 1)) // 10) for j in range(10)]

    def checkpoint_states(integrate, generator, rho0, gammas=None):
        """The states of one integration at the checkpoints only."""
        kept = np.empty((len(checkpoints),) + rho0.shape, dtype=complex)

        def sink(i, states):
            for j, idx in enumerate(checkpoints):
                if i <= idx < i + len(states):
                    kept[j] = states[idx - i, 0]
        integrate(generator, rho0, dt, T, gammas=gammas, sink=sink)
        return kept

    # under runner's name, where the benchmark tracer counts rotated-frame integrations
    approx_np, approx_eq = (ctx.to_lab(Trajectory(points[checkpoints], checkpoint_states(
        runner.propagate_piecewise_exp,
        functools.partial(ctx.generator.pieces, kinds=(True,), dissipative=gamma != 0.0),
        ctx.initial_components(), gammas=[gamma]))).states for ctx in (ctx_np, ctx_eq))

    fam = ctx_np.family
    # the geometric term's spectra at s serve the dissipator filter too
    q_of_s = vectorized(functools.partial(geometric_term, fam, h=1e-3, richardson=True,
                                          with_spectrum=True))
    gen_lab = ApproximateGenerator(fam, ctx_np.dissipator, ctx_np.tensor, T, gamma,
                                   q_of_s=q_of_s)
    lab = checkpoint_states(propagate_piecewise_exp, gen_lab, ctx_np.rho0)

    worst_direct = 0.0
    worst_gauge = 0.0
    for j, idx in enumerate(checkpoints):
        spec = fam.spectrum(points[idx])
        for pk in spec.projectors:
            for pl in spec.projectors:
                block = lambda rho: pk @ rho @ pl
                worst_direct = max(worst_direct, frobenius(
                    block(lab[j]) - block(approx_np[j])))
                worst_gauge = max(worst_gauge, frobenius(
                    block(approx_eq[j]) - block(approx_np[j])))
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
    (T,), (gamma,) = cfg.T_list, cfg.gamma_list
    rows = gauge_check_rows(T, gamma, cfg.dt)
    _write_table(["check", "value", "bound"], rows,
                 os.path.join(out_dir, "gauge_check.csv"), timestamp)
    for row in rows:
        if isinstance(row["bound"], float):
            _require(row["check"], row["value"] <= row["bound"],
                     row["value"], row["bound"])
        else:
            _require(row["check"], row["value"] == 1.0, row["value"], row["bound"])
    return rows


_FIG_T = tuple(float(t) for t in range(20, 201, 20))

# name -> (preset, config factory); unnamed fields keep ExperimentConfig's defaults
PRESETS = {
    "fig-element": (_preset_fig_element, lambda: ExperimentConfig(T_list=_FIG_T)),
    "fig-fidelity": (_preset_fig_fidelity, lambda: ExperimentConfig(
        T_list=(5.0, 10.0, 20.0, 40.0, 60.0, 100.0))),
    "fig-loss": (_preset_fig_loss, lambda: ExperimentConfig(T_list=_FIG_T)),
    "fig-sweep-random": (_preset_fig_sweep_random, lambda: ExperimentConfig(
        model="random_rotating", T_list=(10.0, 20.0, 40.0, 80.0, 160.0, 320.0),
        gamma_list=(0.0, 0.002, 0.004, 0.006, 0.008, 0.01))),
    "check-lindblad": (_preset_check_lindblad, ExperimentConfig),
    "check-gauge": (_preset_check_gauge, lambda: ExperimentConfig(
        T_list=(2.0,), gamma_list=(0.1,), dt=1e-4)),
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
    name = "out" if overrides.get("out") else "outputs"
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigInvalid(f"cannot create {name} directory {out_dir!r}: {exc.strerror}",
                            field=name) from None
    timestamp = not overrides.get("no_timestamp", False)
    try:
        rows = func(cfg, out_dir, timestamp, workers)
    except AssertionFailed as exc:
        print(f"assertion failed: {exc}", file=sys.stderr)
        return 1, None
    except (StepTooLarge, FrameDiscontinuity) as exc:
        # the step budget and a frame grid that follows the eigenbasis are
        # properties of the config: a smaller dt meets them
        raise ConfigInvalid(f"dt={cfg.dt:g} is too large: {exc}", field="dt") from None
    except OSError as exc:
        if exc.filename is None:    # the only files a run opens are its CSVs
            raise
        # os.replace names its target second: a trajectory CSV's final path
        raise ConfigInvalid(f"cannot open {name} file {exc.filename2 or exc.filename!r}: "
                            f"{exc.strerror}", field=name) from None
    return 0, rows


def run_preset(name, overrides=None):
    """Execute a named preset; returns (exit_code, rows)."""
    if name not in PRESETS:
        raise ConfigInvalid(f"unknown preset {name!r}", field="preset")
    func, make_cfg = PRESETS[name]
    return _execute(func, make_cfg(), overrides)


def _unique_members(pairs):
    """A JSON object's members; a name given twice is an error, not its last value."""
    members = {}
    for name, value in pairs:
        if name in members:
            raise ConfigInvalid(f"config gives {name!r} twice", field=name)
        members[name] = value
    return members


def run_config(path, overrides=None):
    """Execute a user-specified JSON config; returns (exit_code, rows).

    Each point is integrated once.  Its trajectory CSVs are streamed to
    ``.partial`` files while its T slot's pass runs, a lab-frame block at a
    time, and moved into place once its invariants hold, so an assertion
    failure can leave the files of points that passed, and no ``.partial``
    file is left when the run stops."""
    try:
        with open(path, "rb") as fh:    # JSON text is UTF-8 (RFC 8259 8.1)
            data = json.loads(fh.read().decode("utf-8"), object_pairs_hook=_unique_members)
    except OSError as exc:
        raise ConfigInvalid(f"cannot read config: {exc}", field="config")
    except UnicodeDecodeError as exc:
        raise ConfigInvalid(f"config is not UTF-8 at byte {exc.start}", field="config")
    except RecursionError:
        raise ConfigInvalid("config is nested too deeply", field="config")
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
