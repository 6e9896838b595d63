"""Time evolution of vectorized density operators and trajectory metrics.

The workhorse integrator freezes the generator on each step and applies its
exponential, sampling the generator at the step midpoint:

    rho_{k+1} = exp(h M(s_k + h/2)) rho_k,   h = dt / T

on the half-step grid of :func:`sample_grid`, the one place that decides
where a run samples ``s``.  Every step is whole: a ``dt`` that does not
divide the span is a ``ValueError``.  For generators in Lindblad form each
step is exactly a completely positive trace-preserving map, so the
discrete flow inherits both properties up to rounding.

One loop steps every entry point: one equation, a pass of ``P`` equations
stacked on one grid, or the flow map started from the identity at ``s0``.
It goes in chunks whose length the stack's size fixes before the first step
(64 steps of one ``D = 16`` equation, 16 of a pass of four; see
``_CHUNK_BYTES``): a chunk's generators are built as one ``(n, P, D, D)``
stack, and each step's ``h ||M||`` is checked against ``_STEP_NORM_BUDGET``.
The Pade rule (the default) exponentiates the chunk's step generators in one
batched :func:`.linalg.matrix_exponential` call; the action rule
(``action=True``) applies :func:`.linalg.expm_action`, whose Taylor degree
comes from the chunk's largest ``||h M||_1``.  Each step moves the whole
stack at once, each equation by its own rule.
A generator marked ``vectorized`` (the rotated-frame ones that
:class:`.runner.RunContext` hands out from its
:class:`.generators.RotatedFrameGenerator`, and the lab-frame
:class:`.generators.ExactGenerator` and
:class:`.generators.ApproximateGenerator`) takes the array of midpoints at
once; any other callable ``s -> M(s)`` is called once per midpoint.  A
classical fixed-step fourth-order Runge-Kutta integrator is provided as an
independent cross-check; it samples the same grid and passes the same
step-size check.
"""
from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    EmptySubspace,
    GridMismatch,
    InvalidInitialState,
    NonFinite,
    StepTooLarge,
)
from .linalg import (
    dag,
    expm_action,
    frobenius,
    hermitian_eigendecompose,
    matrix_exponential,
    psd_sqrt,
    taylor_degree,
    unvec,
    vec,
)
from .spectral import evaluate_on

__all__ = [
    "Trajectory",
    "divides",
    "propagate_piecewise_exp",
    "propagate_rk4",
    "evolve_vector_piecewise_exp",
    "piecewise_exp_propagator",
    "intensity_loss",
    "normalized_fidelity",
    "hs_error_max",
]

_STEP_NORM_BUDGET = 20.0
# Bytes of one chunk's complex generator stack over all the equations it
# steps, which is built and exponentiated at once: 64 steps of one 16x16
# generator of the shipped models, 16 steps of a pass of four.  Longer
# chunks gain little, and the exponential holds about ten such stacks at a
# time, so chunks are sized by bytes, not steps, to bound memory at any
# dimension and any number of equations.  Per-sample work on a trajectory
# takes that many bytes of states at once: 1,024 states of a 4x4 one.
_CHUNK_BYTES = 64 * 16 * 16 * 16
_EMPTY_TRACE = 1e-12
_DENSITY_TOL = 1e-10    # initial states: Hermitian, unit trace, eigenvalues >= -tol


@dataclass
class Trajectory:
    """States on a parameter grid plus run metadata.

    ``states`` has shape (n_samples, d, d); entry 0 is the initial state.
    A pass of several equations (:func:`propagate_piecewise_exp` of a stack
    of initial states) holds a list of such arrays, one per equation.
    """

    grid: np.ndarray
    states: np.ndarray
    metadata: dict = field(default_factory=dict)

    @property
    def dim(self):
        return self.states.shape[1]

    def final_state(self):
        return self.states[-1]

    def blocks(self):
        """Slices of at most ``_CHUNK_BYTES`` of states covering the trajectory."""
        n = _CHUNK_BYTES // (16 * self.dim ** 2)
        return [slice(i, i + n) for i in range(0, len(self.grid), n)]

    def traces(self):
        return np.einsum("nii->n", self.states).real

    def hermiticity_defects(self):
        blocks = (self.states[b] for b in self.blocks())
        return np.concatenate([np.linalg.norm(rho - dag(rho), axis=(1, 2)) for rho in blocks])

    def min_eigenvalues(self):
        blocks = (self.states[b] for b in self.blocks())
        return np.concatenate([np.linalg.eigvalsh(0.5 * (rho + dag(rho)))[:, 0]
                               for rho in blocks])

    def purities(self):
        return np.einsum("nij,nji->n", self.states, self.states).real


def divides(dt, T):
    """Whether ``dt`` divides ``T``, to 1e-9 of max(T, 1): the one whole-step
    test, which config validation and :func:`sample_grid` use."""
    n = T / dt
    return math.isfinite(n) and abs(round(n) * dt - T) <= 1e-9 * max(T, 1.0)


def sample_grid(dt, T, s_span=(0.0, 1.0), steps=None):
    """Half-step grid ``linspace(s0, s1, 2n + 1)`` of the midpoint scheme over
    ``s_span`` and its step size ``dt / T``: step ``k`` goes from
    ``grid[2k]`` to ``grid[2k + 2]`` with its midpoint at ``grid[2k + 1]``.

    ``steps``, when given, replaces ``dt`` and ``T`` by that many steps
    (``dt = (s1 - s0) / steps``, ``T = 1``).  An empty span (``s0 == s1``)
    is one sample and no step.  A reversed or non-finite span, a ``dt`` or
    ``T`` that is not finite and positive, a ``dt`` that does not divide the
    span ``T (s1 - s0)`` (:func:`divides`), or ``steps`` that is not a
    positive integer raises ``ValueError`` naming it.
    """
    s0, s1 = s_span
    if not (math.isfinite(s0) and math.isfinite(s1) and s0 <= s1):
        raise ValueError(f"s_span must be finite and increasing, got {tuple(s_span)}")
    if steps is not None:
        if not (isinstance(steps, numbers.Integral) and steps > 0):
            raise ValueError(f"steps must be a positive integer, got {steps!r}")
        dt, T = (s1 - s0) / steps, 1.0
    else:
        for name, value in (("dt", dt), ("T", T)):
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value!r}")
        if not divides(dt, T * (s1 - s0)):
            raise ValueError(f"dt={dt!r} does not divide T (s1 - s0) = {T * (s1 - s0)!r}")
        steps = round(T * (s1 - s0) / dt)
    if s0 == s1:
        steps = 0
    return np.linspace(s0, s1, 2 * steps + 1), dt / T


def _check_density(rho):
    rho = np.asarray(rho, dtype=complex)
    if frobenius(rho - dag(rho)) > _DENSITY_TOL:
        raise InvalidInitialState("initial operator is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > _DENSITY_TOL or abs(np.trace(rho).imag) > _DENSITY_TOL:
        raise InvalidInitialState("initial operator does not have unit trace")
    w, _ = hermitian_eigendecompose(rho, _DENSITY_TOL)
    if w.min() < -_DENSITY_TOL:
        raise InvalidInitialState(
            f"initial operator has eigenvalue {w.min():.3e} below -{_DENSITY_TOL:.0e}"
        )
    return rho


def _check_step_sizes(h, m):
    """The step-size check of both integrators: the first step whose
    ``h ||M||`` exceeds ``_STEP_NORM_BUDGET``, in ``s`` order, raises
    :class:`StepTooLarge`, or :class:`NonFinite` if it is NaN.  ``h`` is the
    step size and ``m`` a stack of step generators, each step's possibly
    holding several equations'."""
    with np.errstate(over="ignore"):    # an overflowing norm is an infinite size
        size = (h * np.linalg.norm(m, axis=(-2, -1))).ravel()
    bad = np.flatnonzero(~(size <= _STEP_NORM_BUDGET))
    if bad.size and np.isnan(size[bad[0]]):
        raise NonFinite("generator contains NaN entries")
    if bad.size:
        raise StepTooLarge(f"step times generator norm is {size[bad[0]]:.3e}, "
                           f"over {_STEP_NORM_BUDGET}")


def _stepped(generator, v0, dt, T, s_span, action=False):
    """The step loop of every piecewise-exponential entry point: steps a
    stack ``v0`` of ``P`` states ``(P, D, c)`` (``c = 1`` for vectors,
    ``c = D`` for flow maps) over :func:`sample_grid`, each equation by the
    step rule ``action`` picks for it (see the module docstring).  Returns
    the step points and an iterator yielding ``(k, states)`` per chunk,
    ``states[j]`` the stack at ``points[k + j + 1]``."""
    grid, h = sample_grid(dt, T, s_span)
    mid = grid[1::2]
    act = np.broadcast_to(action, len(v0))
    pade, taylor = np.flatnonzero(~act), np.flatnonzero(act)
    n = max(1, _CHUNK_BYTES // (16 * len(v0) * v0.shape[1] ** 2))

    def chunks(x):
        for k in range(0, len(mid), n):
            m = np.asarray(evaluate_on(generator, mid[k:k + n]))
            _check_step_sizes(h, m)
            hm = (h * m).reshape((len(m), len(act)) + m.shape[-2:])
            if pade.size:   # maps[j, q]: step j of pade[q]
                maps = matrix_exponential(hm[:, pade].reshape((-1,) + hm.shape[-2:]))
                maps = maps.reshape((len(hm), len(pade)) + hm.shape[-2:])
            if taylor.size:
                a = hm[:, taylor]
                degree = taylor_degree(np.abs(a).sum(axis=-2).max())
            out = np.empty((len(hm),) + x.shape, dtype=complex)
            for j in range(len(hm)):
                if pade.size:
                    out[j, pade] = maps[j] @ x[pade]
                if taylor.size:
                    out[j, taylor] = expm_action(a[j], x[taylor], degree)
                x = out[j]
            yield k, out
    return grid[::2], chunks(v0)


def evolve_vector_piecewise_exp(generator, v0, dt, T, s_span=(0.0, 1.0),
                                action=False):
    """Raw piecewise-exponential engine for any linear system
    ``dv/ds = M(s) v``.  Returns ``(grid, vectors)``.

    A stack ``v0`` of ``P`` vectors ``(P, D)`` steps ``P`` equations
    together: the generator then returns ``(n, P, D, D)`` at ``n``
    midpoints, and ``vectors`` is a list of ``P`` ``(n_samples, D)``
    arrays.  ``action``, one boolean per equation or one for all, picks
    each equation's step rule, the Pade rule (False) or the action rule
    (True) of the module docstring.
    """
    v0 = np.asarray(v0, dtype=complex)
    stack = np.atleast_2d(v0)
    grid, chunks = _stepped(generator, stack[:, :, None], dt, T, s_span, action)
    outs = [np.empty((len(grid), stack.shape[1]), dtype=complex) for _ in stack]
    for out, v in zip(outs, stack):
        out[0] = v
    for k, states in chunks:
        for p, out in enumerate(outs):
            out[k + 1:k + 1 + len(states)] = states[:, p, :, 0]
    return grid, outs[0] if v0.ndim == 1 else outs


def propagate_piecewise_exp(generator, rho0, dt, T, s_span=(0.0, 1.0),
                            metadata=None, action=False):
    """Propagate a density operator with the midpoint piecewise-exponential
    scheme; ``dt`` is the physical step, mapped to ``ds = dt/T`` in scaled
    time.

    A stack ``rho0`` of ``P`` initial states ``(P, d, d)`` steps ``P``
    equations together, with ``action`` their step rules (see
    :func:`evolve_vector_piecewise_exp`); ``states`` is then a list of
    ``P`` ``(n_samples, d, d)`` arrays, one per equation.
    """
    rho0 = np.asarray(rho0, dtype=complex)
    d = rho0.shape[-1]
    rhos = [_check_density(rho) for rho in rho0.reshape(-1, d, d)]
    grid, chunks = _stepped(generator, np.stack([vec(rho)[:, None] for rho in rhos]),
                            dt, T, s_span, action)
    states = [np.empty((len(grid), d, d), dtype=complex) for _ in rhos]
    for out, rho in zip(states, rhos):
        out[0] = rho
    for k, chunk in chunks:
        for p, out in enumerate(states):
            out[k + 1:k + 1 + len(chunk)] = unvec(chunk[:, p, :, 0], d)
    meta = {"dt": dt, "T": T, "integrator": "piecewise_exp"}
    if metadata:
        meta.update(metadata)
    return Trajectory(grid=grid, states=states if rho0.ndim == 3 else states[0],
                      metadata=meta)


def propagate_rk4(generator, rho0, steps, T, s_span=(0.0, 1.0), metadata=None):
    """Classical fixed-step RK4 on the vectorized equation; independent
    cross-check for the exponential integrator, sampling the generator on the
    points of :func:`sample_grid` (``steps`` steps over the span) and
    checking each step's three generators as that integrator does."""
    rho0 = _check_density(rho0)
    grid, h = sample_grid(None, None, s_span, steps=steps)
    v = vec(rho0)
    d = rho0.shape[0]
    states = np.empty((len(grid) // 2 + 1, d, d), dtype=complex)
    states[0] = rho0
    m2 = np.asarray(generator(grid[0]))     # each step's end is the next one's start
    for n in range(len(states) - 1):
        m1 = m2
        mm = np.asarray(generator(grid[2 * n + 1]))
        m2 = np.asarray(generator(grid[2 * n + 2]))
        _check_step_sizes(h, np.stack((m1, mm, m2)))
        k1 = m1 @ v
        k2 = mm @ (v + 0.5 * h * k1)
        k3 = mm @ (v + 0.5 * h * k2)
        k4 = m2 @ (v + h * k3)
        v = v + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states[n + 1] = unvec(v, d)
    meta = {"steps": steps, "T": T, "integrator": "rk4"}
    if metadata:
        meta.update(metadata)
    return Trajectory(grid=grid[::2], states=states, metadata=meta)


def piecewise_exp_propagator(generator, dt, T, s_span=(0.0, 1.0),
                             checkpoints=None):
    """Accumulate the flow map of the piecewise-exponential scheme from the
    identity at ``s0`` (sized by one generator call there).

    Returns ``(s, propagator)`` at each checkpoint (the first grid point at
    or after it, within 1e-12), then at the end point.  A checkpoint outside
    ``s_span`` raises ``ValueError`` naming ``checkpoints``."""
    grid, _ = sample_grid(dt, T, s_span)
    points, wanted = grid[::2], sorted(checkpoints or [])
    if wanted and not points[0] - 1e-12 <= wanted[0] <= wanted[-1] <= points[-1] + 1e-12:
        raise ValueError(f"checkpoints must lie in s_span {tuple(s_span)}, got {wanted}")
    eye = np.eye(np.shape(evaluate_on(generator, grid[:1]))[-1], dtype=complex)
    _, chunks = _stepped(generator, eye[None], dt, T, s_span)
    flow = ((s, prop) for k, props in chunks for s, prop in zip(points[k + 1:], props[:, 0]))
    out = []
    for s, prop in itertools.chain([(points[0], eye)], flow):
        while wanted and wanted[0] <= s + 1e-12:
            out.append((wanted.pop(0), prop.copy()))
    out.append((points[-1], prop))
    return out


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def intensity_loss(rho, p_comp):
    """Population leaked out of the subspace: ``1 - Tr(P rho)``, for one
    state or, element by element, for a stack of states ``(..., d, d)``."""
    prod = np.asarray(p_comp) @ np.asarray(rho)
    return 1.0 - np.trace(prod, axis1=-2, axis2=-1).real


def normalized_fidelity(rho_a, rho_b, p_comp):
    """Uhlmann fidelity between the subspace-projected, renormalized states.

    ``D = Tr sqrt(sqrt(s1) s2 sqrt(s1))`` with ``s_i = P rho_i P / Tr(P rho_i)``.
    Raises :class:`EmptySubspace` when a projected trace is at most
    ``_EMPTY_TRACE``.  Mild negative eigenvalues from integration error are
    clamped inside the square roots.
    """
    p = np.asarray(p_comp)
    sigma = []
    for rho in (rho_a, rho_b):
        proj = p @ np.asarray(rho) @ p
        tr = np.trace(proj).real
        if tr <= _EMPTY_TRACE:
            raise EmptySubspace(f"projected trace {tr:.3e} below {_EMPTY_TRACE:.0e}")
        sigma.append(proj / tr)
    root = psd_sqrt(0.5 * (sigma[0] + dag(sigma[0])), tol=1e-6)
    inner = root @ sigma[1] @ root
    core = psd_sqrt(0.5 * (inner + dag(inner)), tol=1e-6)
    return float(np.trace(core).real)


def hs_error_max(traj_a, traj_b):
    """Maximum Hilbert-Schmidt (Frobenius) distance over a shared grid,
    a block of samples at a time (:meth:`Trajectory.blocks`)."""
    if traj_a.grid.shape != traj_b.grid.shape:
        raise GridMismatch("trajectories have different sample counts")
    if np.max(np.abs(traj_a.grid - traj_b.grid)) > 1e-12:
        raise GridMismatch("trajectories are sampled on different grids")
    a, b = traj_a.states, traj_b.states
    return float(np.max([np.linalg.norm(a[k] - b[k], axis=(1, 2)).max()
                         for k in traj_a.blocks()]))
