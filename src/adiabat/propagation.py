"""Time evolution of vectorized density operators and trajectory metrics.

The workhorse integrator freezes the generator on each step and applies its
exponential, sampling the generator at the step midpoint:

    rho_{k+1} = exp(h_k M(s_k + h_k/2)) rho_k,   h_k = dt / T

(the last step is shortened to land on the end of the span).  For
generators in Lindblad form each step is exactly a completely positive
trace-preserving map, so the discrete flow inherits both properties up to
rounding.

Steps are taken in chunks (64 steps for ``D = 16``; see ``_CHUNK_BYTES``):
the generators at a chunk's midpoints are built as one ``(n, D, D)`` stack, each step's ``h ||M||`` is
checked against ``_STEP_NORM_BUDGET``, and the stack goes through one
batched :func:`.linalg.matrix_exponential` before a plain loop of
matrix-vector (or matrix-matrix) products applies the step maps in order.
A generator marked ``vectorized`` (the rotated-frame ones that
:class:`.runner.RunContext` hands out from its
:class:`.generators.RotatedFrameGenerator`, and the lab-frame
:class:`.generators.ExactGenerator` and
:class:`.generators.ApproximateGenerator`) takes the array of midpoints at
once; any other callable ``s -> M(s)`` is called once per midpoint.  A
classical fixed-step fourth-order Runge-Kutta integrator is provided as an
independent cross-check.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    EmptySubspace,
    GridMismatch,
    InvalidInitialState,
    StepTooLarge,
)
from .linalg import (
    dag,
    frobenius,
    hermitian_eigendecompose,
    matrix_exponential,
    psd_sqrt,
    unvec,
    vec,
)
from .spectral import evaluate_on

__all__ = [
    "Trajectory",
    "propagate_piecewise_exp",
    "propagate_rk4",
    "evolve_vector_piecewise_exp",
    "piecewise_exp_propagator",
    "intensity_loss",
    "normalized_fidelity",
    "hs_error_max",
]

_STEP_NORM_BUDGET = 20.0
# Bytes of one chunk's (n, D, D) complex generator stack, which is built
# and exponentiated at once: 64 steps of the 16x16 generators of both
# shipped models.  Longer chunks gain little, and the exponential holds
# about ten such stacks at a time, so chunks are sized by bytes, not steps,
# to bound memory at any dimension.
_CHUNK_BYTES = 64 * 16 * 16 * 16


@dataclass
class Trajectory:
    """States on a parameter grid plus run metadata.

    ``states`` has shape (n_samples, d, d); entry 0 is the initial state.
    """

    grid: np.ndarray
    states: np.ndarray
    metadata: dict = field(default_factory=dict)

    @property
    def dim(self):
        return self.states.shape[1]

    def final_state(self):
        return self.states[-1]

    def traces(self):
        return np.einsum("nii->n", self.states).real

    def hermiticity_defects(self):
        return np.linalg.norm(self.states - np.conj(np.transpose(self.states, (0, 2, 1))),
                              axis=(1, 2))

    def min_eigenvalues(self):
        herm = 0.5 * (self.states + np.conj(np.transpose(self.states, (0, 2, 1))))
        return np.linalg.eigvalsh(herm)[:, 0]

    def purities(self):
        return np.einsum("nij,nji->n", self.states, self.states).real


def _grid_steps(s_span, ds):
    """Uniform steps of size ``ds`` covering ``s_span``; the last step is
    shortened to land exactly on the right endpoint."""
    s0, s1 = s_span
    span = s1 - s0
    n_full = int(np.floor(span / ds + 1e-9))
    steps = [ds] * n_full
    rest = span - n_full * ds
    if rest > 1e-12 * ds:
        steps.append(rest)
    return steps


def _check_density(rho, tol=1e-10):
    rho = np.asarray(rho, dtype=complex)
    if frobenius(rho - dag(rho)) > tol:
        raise InvalidInitialState("initial operator is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > tol or abs(np.trace(rho).imag) > tol:
        raise InvalidInitialState("initial operator does not have unit trace")
    w, _ = hermitian_eigendecompose(rho, tol)
    if w.min() < -tol:
        raise InvalidInitialState(
            f"initial operator has eigenvalue {w.min():.3e} below -{tol:.0e}"
        )
    return rho


def _step_maps(generator, dt, T, s_span):
    """Grid of the midpoint scheme and an iterator over its step maps.

    The iterator yields ``(k, maps)`` per chunk of steps:
    ``maps[j] = exp(h M(s + h/2))`` advances the state from ``grid[k + j]``
    to ``grid[k + j + 1]``.
    """
    steps = np.asarray(_grid_steps(s_span, dt / T))
    grid = np.cumsum(np.concatenate(([float(s_span[0])], steps)))

    def chunks():
        k, n = 0, 1     # a first chunk of one step gives the generator's size
        while k < len(steps):
            h = steps[k:k + n]
            m = np.asarray(evaluate_on(generator, grid[k:k + len(h)] + 0.5 * h))
            # an overflowing norm is an infinite size, over budget
            with np.errstate(over="ignore"):
                size = h * np.linalg.norm(m, axis=(-2, -1))
            # the first step over budget raises; a NaN norm goes on to the
            # exponential, which raises NonFinite
            bad = np.flatnonzero(~(size <= _STEP_NORM_BUDGET))
            if bad.size and size[bad[0]] > _STEP_NORM_BUDGET:
                raise StepTooLarge(
                    f"step {h[bad[0]]:.3e} times generator norm exceeds {_STEP_NORM_BUDGET}"
                )
            yield k, matrix_exponential(h[:, None, None] * m)
            k += len(h)
            n = max(1, _CHUNK_BYTES // (16 * m.shape[-1] ** 2))
    return grid, chunks()


def evolve_vector_piecewise_exp(generator, v0, dt, T, s_span=(0.0, 1.0)):
    """Raw piecewise-exponential engine for any linear system
    ``dv/ds = M(s) v``.  Returns ``(grid, vectors)``."""
    grid, chunks = _step_maps(generator, dt, T, s_span)
    v0 = np.asarray(v0, dtype=complex)
    out = np.empty((len(grid),) + v0.shape, dtype=complex)
    out[0] = v0
    for k, maps in chunks:
        for j, step in enumerate(maps, k):
            out[j + 1] = step @ out[j]
    return grid, out


def propagate_piecewise_exp(generator, rho0, dt, T, s_span=(0.0, 1.0),
                            metadata=None):
    """Propagate a density operator with the midpoint piecewise-exponential
    scheme; ``dt`` is the physical step, mapped to ``ds = dt/T`` in scaled
    time."""
    rho0 = _check_density(rho0)
    grid, vectors = evolve_vector_piecewise_exp(generator, vec(rho0), dt, T, s_span)
    states = np.ascontiguousarray(unvec(vectors, rho0.shape[0]))
    meta = {"dt": dt, "T": T, "integrator": "piecewise_exp"}
    if metadata:
        meta.update(metadata)
    return Trajectory(grid=grid, states=states, metadata=meta)


def propagate_rk4(generator, rho0, steps, T, s_span=(0.0, 1.0), metadata=None):
    """Classical fixed-step RK4 on the vectorized equation; independent
    cross-check for the exponential integrator."""
    rho0 = _check_density(rho0)
    s0, s1 = s_span
    h = (s1 - s0) / steps
    v = vec(rho0)
    d = rho0.shape[0]
    grid = np.linspace(s0, s1, steps + 1)
    states = np.empty((steps + 1, d, d), dtype=complex)
    states[0] = rho0
    for n in range(steps):
        s = grid[n]
        m1 = np.asarray(generator(s))
        if h * np.linalg.norm(m1) > _STEP_NORM_BUDGET:
            raise StepTooLarge("rk4 step exceeds the generator norm budget")
        mm = np.asarray(generator(s + 0.5 * h))
        m2 = np.asarray(generator(s + h))
        k1 = m1 @ v
        k2 = mm @ (v + 0.5 * h * k1)
        k3 = mm @ (v + 0.5 * h * k2)
        k4 = m2 @ (v + h * k3)
        v = v + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states[n + 1] = unvec(v, d)
    meta = {"steps": steps, "T": T, "integrator": "rk4"}
    if metadata:
        meta.update(metadata)
    return Trajectory(grid=grid, states=states, metadata=meta)


def piecewise_exp_propagator(generator, dt, T, s_span=(0.0, 1.0),
                             checkpoints=None):
    """Accumulate the flow map of the piecewise-exponential scheme.

    Returns a list of ``(s, propagator)`` pairs at the requested checkpoint
    values (grid-aligned within one step) plus always the final endpoint.
    """
    grid, chunks = _step_maps(generator, dt, T, s_span)
    wanted = sorted(checkpoints) if checkpoints else []
    out = []
    prop = None
    for k, maps in chunks:
        if prop is None:
            prop = np.eye(maps.shape[-1], dtype=complex)
        for j, step in enumerate(maps, k):
            prop = step @ prop
            while wanted and wanted[0] <= grid[j + 1] + 1e-12:
                out.append((wanted.pop(0), prop.copy()))
    out.append((grid[-1], prop))
    return out


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def intensity_loss(rho, p_comp):
    """Population leaked out of the subspace: ``1 - Tr(P rho)``, for one
    state or, element by element, for a stack of states ``(..., d, d)``."""
    prod = np.asarray(p_comp) @ np.asarray(rho)
    return 1.0 - np.trace(prod, axis1=-2, axis2=-1).real


def normalized_fidelity(rho_a, rho_b, p_comp, eps_norm=1e-12):
    """Uhlmann fidelity between the subspace-projected, renormalized states.

    ``D = Tr sqrt(sqrt(s1) s2 sqrt(s1))`` with ``s_i = P rho_i P / Tr(P rho_i)``.
    Raises :class:`EmptySubspace` when a projected trace is at most
    ``eps_norm``.  Mild negative eigenvalues from integration error are
    clamped inside the square roots.
    """
    p = np.asarray(p_comp)
    sigma = []
    for rho in (rho_a, rho_b):
        proj = p @ np.asarray(rho) @ p
        tr = np.trace(proj).real
        if tr <= eps_norm:
            raise EmptySubspace(f"projected trace {tr:.3e} below {eps_norm:.0e}")
        sigma.append(proj / tr)
    root = psd_sqrt(0.5 * (sigma[0] + dag(sigma[0])), tol=1e-6)
    inner = root @ sigma[1] @ root
    core = psd_sqrt(0.5 * (inner + dag(inner)), tol=1e-6)
    return float(np.trace(core).real)


def hs_error_max(traj_a, traj_b):
    """Maximum Hilbert-Schmidt (Frobenius) distance over a shared grid."""
    if traj_a.grid.shape != traj_b.grid.shape:
        raise GridMismatch("trajectories have different sample counts")
    if np.max(np.abs(traj_a.grid - traj_b.grid)) > 1e-12:
        raise GridMismatch("trajectories are sampled on different grids")
    diffs = np.linalg.norm(traj_a.states - traj_b.states, axis=(1, 2))
    return float(diffs.max())
