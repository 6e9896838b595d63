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
assembly once per T slot.  :func:`run_sweep_task` steps all the slot's
gammas in one pass: :func:`integrate_pairs`, the sweep's one integration
entry, steps the exact and the approximate equation of every gamma in
lockstep, each chunk's generators given as the pieces that every gamma
shares (``base + gamma T D^``).  Its :class:`LabPass`, the one place that
cuts lab-frame states into blocks, rotates each block to the lab frame with
the frame's ``U`` read chunk by chunk, keeps the endpoints and running
monitors and hands each block to the slot's writer, when an ``export``
builds one; :func:`run_point` turns one gamma's into the metrics row.  One
equation alone, such as each of ``check-gauge``'s, steps a generator of the
context's factories from :meth:`RunContext.initial_components` and is
rotated by :meth:`RunContext.to_lab`.  Direct lab-frame integration of the
same equations is available in :mod:`.generators` and is checked against
this representation by the frame-equivalence tests.
"""
from __future__ import annotations

import contextlib
import functools
import inspect
import os
from dataclasses import dataclass, field

import numpy as np

from . import models
from .errors import ConfigInvalid
from .generators import RotatedFrameGenerator
from .linalg import dag, frobenius
from .propagation import (
    Trajectory,
    block_length,
    hs_error_max,
    intensity_loss,
    normalized_fidelity,
    propagate_piecewise_exp,
    sample_grid,
)
from .resonance import compute_resonance_tensor
from .spectral import build_transport_frame, vectorized

__all__ = [
    "LabPass",
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

    def initial_components(self):
        """``rho0`` in frame components: ``U(0)`` need not be the identity."""
        w0 = self.frame.rotation(0.0)
        return w0 @ self.rho0 @ dag(w0)

    def to_lab(self, trajectory, u=None):
        """Rotate a component-coordinate trajectory back to the lab frame in
        one expression over its states; a pass's equations, on a leading
        axis, go together.  ``u``, when given, is the frame's ``U`` at the
        trajectory's samples, read while the frame's window held them;
        otherwise :meth:`.TransportFrame.rotation` gives them."""
        w = (self.frame.rotation(trajectory.grid) if u is None
             else dag(self.frame.basis0) @ u)
        return Trajectory(grid=trajectory.grid, states=dag(w) @ trajectory.states @ w)


def holonomy_context(delta_phi, split, gauge, T, dt, x, y):
    family = models.holonomy_family(models.build_orange_path(delta_phi, split), gauge)
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


class LabPass:
    """Sink of one rotated-frame pass (see :func:`.propagation.propagate_piecewise_exp`)
    of the exact and the approximate equation of each of ``gammas``, pairs
    ``2 g`` and ``2 g + 1`` those of ``gammas[g]``.

    The one place where lab-frame states are cut into blocks: it gathers
    them in one buffer of half a block over all pairs
    (:func:`.propagation.block_length`), with the frame's ``U`` read as
    each chunk comes, while the frame's window still holds it.  Each flushed
    buffer goes whole to :meth:`RunContext.to_lab`, the :class:`.Trajectory`
    monitors and :func:`.propagation.hs_error_max`, and it keeps per pair
    the endpoint (``final``) and the running worst trace, Hermiticity and
    positivity deviations (``invariants``), and per gamma the running
    ``max_hs_error``.  No more of a trajectory is held: ``writer``, when
    given, gets each gamma's block once the monitors have seen it, as
    ``writer(gamma, exact, approx)`` with two lab-frame :class:`.Trajectory`
    blocks, in grid order."""

    def __init__(self, ctx, gammas, writer=None):
        self.ctx, self.gammas, self.writer = ctx, list(gammas), writer
        self.grid = ctx.frame.grid[::2]      # the frame's half-step grid
        pairs, d = 2 * len(self.gammas), ctx.rho0.shape[-1]
        self.block = block_length(32 * d * d * pairs)
        self.store = np.empty((pairs, self.block, d, d), dtype=complex)
        self.u = np.empty((self.block, d, d), dtype=complex)
        self.start = self.filled = 0        # grid[start:start + filled] wait in the store
        self.invariants = np.array([[0.0, 0.0, np.inf]] * pairs)
        self.max_hs_error = np.zeros(len(self.gammas))
        self.final = None

    def __call__(self, i, states):
        states = np.moveaxis(states, 0, 1)
        u = self.ctx.frame.u(slice(2 * i, 2 * (i + states.shape[1]), 2))
        while states.shape[1]:
            take = min(states.shape[1], self.block - self.filled)
            self.store[:, self.filled:self.filled + take] = states[:, :take]
            self.u[self.filled:self.filled + take] = u[:take]
            self.filled += take
            states, u = states[:, take:], u[take:]
            if self.filled == self.block or self.start + self.filled == len(self.grid):
                self._flush()

    def _flush(self):
        window = slice(self.start, self.start + self.filled)
        lab = self.ctx.to_lab(Trajectory(grid=self.grid[window],
                                         states=self.store[:, :self.filled]),
                              u=self.u[:self.filled])
        inv = self.invariants
        inv[:, 0] = np.maximum(inv[:, 0], np.abs(lab.traces() - 1.0).max(axis=-1))
        inv[:, 1] = np.maximum(inv[:, 1], lab.hermiticity_defects().max(axis=-1))
        inv[:, 2] = np.minimum(inv[:, 2], lab.min_eigenvalues().min(axis=-1))
        for g, gamma in enumerate(self.gammas):
            exact, approx = (Trajectory(lab.grid, lab.states[2 * g + k]) for k in (0, 1))
            self.max_hs_error[g] = np.maximum(self.max_hs_error[g], hs_error_max(exact, approx))
            if self.writer is not None:
                self.writer(gamma, exact, approx)
        self.final = lab.final_state()
        self.start, self.filled = window.stop, 0


def integrate_pairs(ctx, gammas, writer=None):
    """Step the exact and the approximate equation of every gamma in one
    pass in the rotated frame, the gamma = 0 ones first, and return its
    :class:`LabPass`, which hands ``writer`` the lab-frame blocks.  Every
    generator is built from the same pieces
    (:meth:`.generators.RotatedFrameGenerator.pieces`), a chunk of steps at a
    time; with one gamma the pass steps the formed generators."""
    gammas = sorted(gammas, key=lambda gamma: gamma != 0.0)
    sink = LabPass(ctx, gammas, writer)
    # gamma = 0 pairs keep the Pade rule: the recorded gamma = 0 references
    # pin its rounding, which fidelity_norm amplifies about 1e8-fold.  This
    # split goes away once those references are re-derived.
    pieces = functools.partial(ctx.generator.pieces, kinds=(False, True), dissipative=any(gammas))
    generator, rule = pieces, {"gammas": gammas}
    if len(gammas) == 1:    # one gamma shares no pieces: step its own generators
        def generator(s):
            base, dhat = pieces(s)
            return base if dhat is None else base + gammas[0] * dhat
        rule = {"action": gammas[0] != 0.0}
    propagate_piecewise_exp(
        vectorized(generator), np.stack([ctx.initial_components()] * 2 * len(gammas)),
        ctx.dt, ctx.T, sink=sink, **rule)
    return sink


def run_point(ctx, gamma, done):
    """The sweep metrics of both equations at one coupling strength, from
    the :class:`LabPass` ``done`` of the (exact, approximate) pass that
    stepped them."""
    g = done.gammas.index(gamma)
    e, a = 2 * g, 2 * g + 1
    rho_e, rho_a = done.final[e], done.final[a]
    return {
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
        "max_hs_error": float(done.max_hs_error[g]),
        "_invariants": {name: tuple(float(v) for v in done.invariants[p])
                        for name, p in (("exact", e), ("approximate", a))},
    }


# ---------------------------------------------------------------------------
# sweep orchestration
# ---------------------------------------------------------------------------

def run_sweep_task(task, export=None):
    """Process-pool entry point: build the context and run every gamma of
    one T slot in one pass.  ``task`` is a plain dict so it pickles cheaply:
    ``kind``, ``gamma_list``, and every parameter of the ``kind``'s context
    factory.

    ``export``, when given, is called as ``export(ctx, gamma_list)`` in the
    process that runs the slot, and builds its writer: a context manager
    that :class:`LabPass` hands each lab-frame block as it is flushed, and
    whose ``commit(rows)`` gets the metric rows once the pass is done.
    Only the metric rows travel back.
    """
    factory = {"holonomy": holonomy_context, "random_rotating": random_context}[task["kind"]]
    # passed by position: the benchmark's tracer tells contexts apart by them
    ctx = factory(*(task[name] for name in inspect.signature(factory).parameters))
    gammas = task["gamma_list"]
    with export(ctx, gammas) if export else contextlib.nullcontext() as writer:
        done = integrate_pairs(ctx, gammas, writer)
        rows = [run_point(ctx, gamma, done) for gamma in gammas]
        if writer is not None:
            writer.commit(rows)
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

    The pool never exceeds the task count or the CPU count and gets the
    slots with the most steps first.  ``export`` is handed to
    :func:`run_sweep_task`; with a pool it must pickle.
    """
    workers = min(worker_count(workers), len(tasks), os.cpu_count() or 1)
    run = functools.partial(run_sweep_task, export=export)
    rows = []
    if workers <= 1:
        for task in tasks:
            rows.extend(run(task))
    else:
        # imported here: a run that starts no pool does not pay for it
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            longest_first = sorted(tasks, key=lambda t: t["T"] / t["dt"], reverse=True)
            for result in pool.map(run, longest_first):
                rows.extend(result)
    rows.sort(key=lambda r: (r["gamma"], r["T"]))
    return rows
