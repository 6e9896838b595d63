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
assembly once per T slot.  :func:`run_sweep_task` takes the slot's gammas
two at a time: :func:`integrate_pairs` steps the exact and the approximate
equation of both in one lockstep pass, whose generators share their
gamma-independent pieces chunk by chunk, and :func:`run_point` receives
each gamma's two lab-frame trajectories, hands them to an optional
``export`` and returns the metrics row; :func:`integrate_pairs` is the one
integration entry.  Direct lab-frame integration of the same equations is
available in :mod:`.generators` and is checked against this representation
by the frame-equivalence tests.
"""
from __future__ import annotations

import functools
import inspect
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
    sample_grid,
)
from .resonance import compute_resonance_tensor
from .spectral import build_transport_frame, vectorized

__all__ = [
    "RunContext",
    "holonomy_context",
    "integrate_pairs",
    "random_context",
    "run_point",
    "run_sweep_task",
    "sweep",
    "worker_count",
]

_TENSOR_GRID = np.linspace(0.0, 1.0, 201)
# gammas integrated in one pass of a T slot: their four equations hold about
# as much state as the frame they read
_GAMMAS_PER_PASS = 2


@dataclass
class RunContext:
    """Everything shared by runs at one (model, T, dt): the model the
    factories give, and the frame on the integrator's half-step grid and
    the rotated-frame generator assembly that it builds from them; that
    grid raises ``ValueError`` naming a ``dt`` that does not divide ``T``."""

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
        self.frame = build_transport_frame(self.family, sample_grid(self.dt, self.T)[0],
                                           basis=self.family.analytic_basis)
        self.generator = RotatedFrameGenerator(self.dissipator, self.tensor,
                                               self.frame, self.T)

    # the generators take a chunk's array of midpoints
    def exact_generator(self, gamma):
        return vectorized(functools.partial(self.generator, gamma=gamma, approximate=False))

    def approximate_generator(self, gamma):
        return vectorized(functools.partial(self.generator, gamma=gamma, approximate=True))

    def to_lab(self, trajectory):
        """Rotate a component-coordinate trajectory back to the lab frame,
        a block of samples at a time (:meth:`.Trajectory.blocks`)."""
        states = np.empty_like(trajectory.states)
        for block in trajectory.blocks():
            w = self.frame.rotation(trajectory.grid[block])
            states[block] = dag(w) @ trajectory.states[block] @ w
        return Trajectory(grid=trajectory.grid, states=states,
                          metadata=dict(trajectory.metadata))


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


def integrate_pairs(ctx, pairs):
    """Integrate the equations of several ``(gamma, approximate)`` pairs in
    one lockstep pass in the rotated frame; returns their lab-frame
    trajectories in order, each rotated back as soon as it exists."""
    # initial state in frame components (U(0) need not be the identity for
    # a general basis permutation, so rotate explicitly)
    w0 = ctx.frame.rotation(0.0)
    rho0 = w0 @ ctx.rho0 @ dag(w0)
    names = ["approximate" if approximate else "exact" for _, approximate in pairs]
    gammas = [gamma for gamma, _ in pairs]
    # gamma = 0 pairs keep the Pade rule: the recorded gamma = 0 references
    # pin its rounding, which fidelity_norm amplifies about 1e8-fold.  This
    # split goes away once those references are re-derived.
    rotated = propagate_piecewise_exp(
        vectorized(functools.partial(ctx.generator.stack, pairs=pairs)),
        np.stack([rho0] * len(pairs)), ctx.dt, ctx.T,
        metadata={"generator": names, "model": ctx.model_id, "gamma": gammas},
        action=[gamma != 0.0 for gamma in gammas])
    states = rotated.states
    return [ctx.to_lab(Trajectory(grid=rotated.grid, states=states.pop(0),
                                  metadata={**rotated.metadata, "generator": name,
                                            "gamma": gamma}))
            for name, gamma in zip(names, gammas)]


def run_point(ctx, gamma, export=None, trajectories=None):
    """The sweep metrics of both equations at one coupling strength, from
    their lab-frame ``trajectories`` ``(exact, approx)``, integrated here
    when not given.  ``export(ctx, metrics, exact, approx)``, when given,
    receives the lab-frame trajectories before they are dropped."""
    exact, approx = trajectories or integrate_pairs(ctx, [(gamma, False), (gamma, True)])

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
    gammas, rows = list(task["gamma_list"]), []
    for first in range(0, len(gammas), _GAMMAS_PER_PASS):
        group = gammas[first:first + _GAMMAS_PER_PASS]
        labs = integrate_pairs(ctx, [(gamma, approximate) for gamma in group
                                     for approximate in (False, True)])
        for gamma in group:     # each pair's trajectories go once its row is made
            rows.append(run_point(ctx, gamma, export, (labs.pop(0), labs.pop(0))))
    return rows


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
