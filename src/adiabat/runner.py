"""Sweep execution engine behind the CLI presets and the acceptance suite.

A run integrates the exact and the approximate master equation for one
``(model, gamma, T)`` point and reports endpoint metrics.  Both equations
are stepped in the rotated frame (instantaneous-eigenbasis components),
which is the representation the piecewise-exponential scheme handles most
accurately and cheaply: the exact generator there is

    -iT [diag(E), .] - i [Z(s), .] + Gamma T D~(s)

and the approximate one replaces ``Z`` by its block-diagonal part and masks
the dissipator with the resonance tensor.  Both come from the one
assembly :class:`.generators.RotatedFrameGenerator`, which a
:class:`RunContext` builds once; :func:`integrate` steps one equation and
rotates the states back to the lab frame, where :func:`run_point` takes
the metrics.  Direct lab-frame integration of the same equations is
available in :mod:`.generators` and is checked against this
representation by the frame-equivalence tests.
"""
from __future__ import annotations

import functools
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import models
from .errors import ConfigInvalid
from .generators import RotatedFrameGenerator
from .linalg import dag, frobenius
from .propagation import (
    Trajectory,
    hs_error_max,
    intensity_loss,
    normalized_fidelity,
    propagate_piecewise_exp,
)
from .resonance import compute_resonance_tensor
from .spectral import build_transport_frame, vectorized

__all__ = [
    "RunPoint",
    "RunContext",
    "holonomy_context",
    "integrate",
    "random_context",
    "run_point",
    "run_sweep_task",
    "sweep",
    "worker_count",
]

_TENSOR_GRID = np.linspace(0.0, 1.0, 201)


@dataclass
class RunContext:
    """Everything shared by runs at one (model, T, dt): family, frame on the
    half-step grid, tensor, dissipator, and the rotated-frame generator
    assembly built from them."""

    family: object
    dissipator: object
    tensor: object
    frame: object
    T: float
    dt: float
    p_comp: np.ndarray
    rho0: np.ndarray
    model_id: str
    generator: RotatedFrameGenerator = field(init=False, repr=False)

    def __post_init__(self):
        self.generator = RotatedFrameGenerator(self.family, self.dissipator,
                                               self.tensor, self.frame, self.T)

    # the generators take a chunk's array of midpoints
    def exact_generator(self, gamma):
        return vectorized(functools.partial(self.generator, gamma=gamma, approximate=False))

    def approximate_generator(self, gamma):
        return vectorized(functools.partial(self.generator, gamma=gamma, approximate=True))

    def to_lab(self, trajectory):
        """Rotate a component-coordinate trajectory back to the lab frame."""
        w = self.frame.rotation(trajectory.grid)
        return Trajectory(grid=trajectory.grid,
                          states=dag(w) @ trajectory.states @ w,
                          metadata=dict(trajectory.metadata))


def _half_step_grid(dt, T):
    ds = dt / T
    n = int(round(T / dt))
    if abs(n * dt - T) > 1e-9 * max(T, 1.0):
        raise ValueError(f"dt={dt} does not divide T={T}")
    return np.linspace(0.0, 1.0, 2 * n + 1), ds


def holonomy_context(delta_phi, split, gauge, T, dt, x, y):
    path = models.build_orange_path(delta_phi, T, split)
    family = models.holonomy_family(path, gauge)
    grid, _ = _half_step_grid(dt, T)
    frame = build_transport_frame(family, grid, basis=family.analytic_basis)
    tensor = compute_resonance_tensor(family.spectrum, _TENSOR_GRID)
    psi = models.initial_state(x, y)
    return RunContext(
        family=family,
        dissipator=models.holonomy_dissipator(),
        tensor=tensor,
        frame=frame,
        T=T,
        dt=dt,
        p_comp=models.computational_projector(),
        rho0=np.outer(psi, np.conj(psi)),
        model_id="holonomy",
    )


def random_context(seed, T, dt, dim=4):
    model = models.make_random_model(seed, dim)
    family = model.family()
    grid, _ = _half_step_grid(dt, T)
    frame = build_transport_frame(family, grid, basis=family.analytic_basis)
    tensor = compute_resonance_tensor(family.spectrum, _TENSOR_GRID)
    return RunContext(
        family=family,
        dissipator=model.dissipator(),
        tensor=tensor,
        frame=frame,
        T=T,
        dt=dt,
        p_comp=np.eye(dim, dtype=complex),
        rho0=model.initial_density(),
        model_id="random_rotating",
    )


@dataclass
class RunPoint:
    """One sweep point: trajectories (lab frame) plus endpoint metrics."""

    gamma: float
    T: float
    dt: float
    model_id: str
    exact: Trajectory
    approx: Trajectory
    metrics: dict


def integrate(ctx, gamma, approximate):
    """Integrate the exact or the approximate equation at one coupling
    strength in the rotated frame; returns the lab-frame trajectory."""
    # initial state in frame components (U(0) need not be the identity for
    # a general basis permutation, so rotate explicitly)
    w0 = ctx.frame.rotation(0.0)
    name = "approximate" if approximate else "exact"
    make = ctx.approximate_generator if approximate else ctx.exact_generator
    trajectory = propagate_piecewise_exp(
        make(gamma), w0 @ ctx.rho0 @ dag(w0), ctx.dt, ctx.T,
        metadata={"generator": name, "model": ctx.model_id, "gamma": gamma})
    return ctx.to_lab(trajectory)


def run_point(ctx, gamma, keep_states=True):
    """Integrate both equations at one coupling strength and collect the
    sweep metrics."""
    exact = integrate(ctx, gamma, approximate=False)
    approx = integrate(ctx, gamma, approximate=True)

    rho_e, rho_a = exact.final_state(), approx.final_state()
    metrics = {
        "model": ctx.model_id,
        "gamma": gamma,
        "T": ctx.T,
        "dt": ctx.dt,
        "elem11_exact": float(rho_e[1, 1].real),
        "elem11_approx": float(rho_a[1, 1].real),
        "fidelity_norm": normalized_fidelity(rho_e, rho_a, ctx.p_comp),
        "loss_exact": intensity_loss(rho_e, ctx.p_comp),
        "loss_approx": intensity_loss(rho_a, ctx.p_comp),
        "end_hs_error": frobenius(rho_e - rho_a),
        "max_hs_error": hs_error_max(exact, approx),
        "_invariants": {
            name: (float(np.abs(traj.traces() - 1.0).max()),
                   float(traj.hermiticity_defects().max()),
                   float(traj.min_eigenvalues().min()))
            for name, traj in (("exact", exact), ("approximate", approx))
        },
    }
    if not keep_states:
        exact = approx = None
    return RunPoint(gamma=gamma, T=ctx.T, dt=ctx.dt, model_id=ctx.model_id,
                    exact=exact, approx=approx, metrics=metrics)


# ---------------------------------------------------------------------------
# sweep orchestration
# ---------------------------------------------------------------------------

def run_sweep_task(task, export=None):
    """Process-pool entry point: build the context and run every gamma of
    one T slot.  ``task`` is a plain dict so it pickles cheaply.

    ``export(ctx, point)``, when given, runs in the process that integrated
    the point, right after ``run_point``; the point's states are dropped
    afterwards, so only the metric rows travel back.
    """
    kind = task["kind"]
    if kind == "holonomy":
        ctx = holonomy_context(task["delta_phi"], task["split"], task["gauge"],
                               task["T"], task["dt"], task["x"], task["y"])
    elif kind == "random_rotating":
        ctx = random_context(task["seed"], task["T"], task["dt"], task["dim"])
    else:
        raise ValueError(f"unknown model kind {kind!r}")
    out = []
    for gamma in task["gamma_list"]:
        point = run_point(ctx, gamma, keep_states=export is not None)
        if export is not None:
            export(ctx, point)
        out.append(point.metrics)
    return out


def worker_count(requested=None):
    """Validated worker count: ``requested`` if given, else
    ``ADIABAT_THREADS`` if set, else the CPU count."""
    name = "workers"
    if requested is None:
        env = os.environ.get("ADIABAT_THREADS", "").strip()
        if not env:
            return os.cpu_count() or 1
        name, requested = "ADIABAT_THREADS", env
    try:
        count = int(requested)
    except ValueError:
        count = 0
    if count < 1:
        raise ConfigInvalid(f"{name} must be an integer >= 1, got {requested!r}",
                            field=name)
    return count


def sweep(tasks, workers=None, export=None):
    """Run tasks (one per T slot), in a worker pool when available, and
    return the metric rows sorted by (gamma, T) for stable output files.

    The pool never exceeds the task count or the CPU count.  ``export`` is
    handed to :func:`run_sweep_task`; with a pool it must pickle.
    """
    workers = min(worker_count(workers), len(tasks), os.cpu_count() or 1)
    run = functools.partial(run_sweep_task, export=export)
    rows = []
    if workers <= 1:
        for task in tasks:
            rows.extend(run(task))
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for result in pool.map(run, tasks):
                rows.extend(result)
    rows.sort(key=lambda r: (r["gamma"], r["T"]))
    return rows
