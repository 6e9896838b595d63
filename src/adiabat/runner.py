"""Sweep execution engine behind the CLI presets and the acceptance suite.

A run integrates the exact and the approximate master equation for one
``(model, gamma, T)`` point and reports endpoint metrics.  Both equations
are stepped in the rotated frame (instantaneous-eigenbasis components),
which is the representation the piecewise-exponential scheme handles most
accurately and cheaply: the exact generator there is

    -iT [diag(E(s)), .] - i [Z(s), .] + Gamma T D~(s)

and the approximate one replaces ``Z`` by its block-diagonal part and masks
the dissipator with the resonance tensor.  Both come from the one assembly
:class:`.generators.RotatedFrameGenerator`.  A model factory returns a
:class:`RunContext`, which builds the half-step grid, the frame and the
assembly once per T slot; :func:`run_point` integrates both equations with
:func:`integrate`, hands the lab-frame trajectories to an optional
``export`` and returns the metrics row.  Direct lab-frame integration of
the same equations is available in :mod:`.generators` and is checked
against this representation by the frame-equivalence tests.
"""
from __future__ import annotations

import functools
import inspect
import math
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
    "RunContext",
    "divides",
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
    """Everything shared by runs at one (model, T, dt): the model the
    factories give, and the frame on the half-step grid and the
    rotated-frame generator assembly that it builds from them."""

    family: object
    dissipator: object
    tensor: object
    T: float
    dt: float
    p_comp: np.ndarray
    rho0: np.ndarray
    model_id: str
    frame: object = field(init=False, repr=False)
    generator: RotatedFrameGenerator = field(init=False, repr=False)

    def __post_init__(self):
        if not divides(self.dt, self.T):
            raise ValueError(f"dt={self.dt} does not divide T={self.T}")
        grid = np.linspace(0.0, 1.0, 2 * int(round(self.T / self.dt)) + 1)
        self.frame = build_transport_frame(self.family, grid,
                                           basis=self.family.analytic_basis)
        self.generator = RotatedFrameGenerator(self.dissipator, self.tensor,
                                               self.frame, self.T)

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


def divides(dt, T):
    """Whether ``dt`` divides ``T``, to 1e-9 of max(T, 1); validation uses it too."""
    n = T / dt
    return math.isfinite(n) and abs(round(n) * dt - T) <= 1e-9 * max(T, 1.0)


def holonomy_context(delta_phi, split, gauge, T, dt, x, y):
    family = models.holonomy_family(models.build_orange_path(delta_phi, T, split), gauge)
    psi = models.initial_state(x, y)
    return RunContext(
        family=family,
        dissipator=models.holonomy_dissipator(),
        tensor=compute_resonance_tensor(family.spectrum, _TENSOR_GRID),
        T=T, dt=dt,
        p_comp=models.computational_projector(),
        rho0=np.outer(psi, np.conj(psi)),
        model_id="holonomy",
    )


def random_context(seed, T, dt, dim=4):
    model = models.make_random_model(seed, dim)
    family = model.family()
    return RunContext(
        family=family,
        dissipator=model.dissipator(),
        tensor=compute_resonance_tensor(family.spectrum, _TENSOR_GRID),
        T=T, dt=dt,
        p_comp=np.eye(dim, dtype=complex),
        rho0=model.initial_density(),
        model_id="random_rotating",
    )


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


def run_point(ctx, gamma, export=None):
    """Integrate both equations at one coupling strength and return the
    sweep metrics.  ``export(ctx, metrics, exact, approx)``, when given,
    receives the lab-frame trajectories before they are dropped."""
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
    if export is not None:
        export(ctx, metrics, exact, approx)
    return metrics


# ---------------------------------------------------------------------------
# sweep orchestration
# ---------------------------------------------------------------------------

def run_sweep_task(task, export=None):
    """Process-pool entry point: build the context and run every gamma of
    one T slot.  ``task`` is a plain dict so it pickles cheaply: ``kind``,
    ``gamma_list``, and every parameter of the ``kind``'s context factory.

    ``export``, when given, is handed to :func:`run_point` and runs in the
    process that integrated the point; only the metric rows travel back.
    """
    factory = {"holonomy": holonomy_context, "random_rotating": random_context}[task["kind"]]
    # passed by position: the benchmark's tracer tells contexts apart by them
    ctx = factory(*(task[name] for name in inspect.signature(factory).parameters))
    return [run_point(ctx, gamma, export) for gamma in task["gamma_list"]]


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
