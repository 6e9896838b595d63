"""Time evolution of vectorized density operators and trajectory metrics.

The workhorse integrator freezes the generator on each step and applies its
exponential, sampling the generator at the step midpoint:

    rho_{k+1} = exp(h_k M(s_k + h_k/2)) rho_k,   h_k = dt / T

on the half-step grid of :func:`sample_grid`, the one place that decides
where a run samples ``s``.  For generators in Lindblad form each step is
exactly a completely positive trace-preserving map, so the discrete flow
inherits both properties up to rounding.

One equation, or a pass of ``P`` equations stacked on one grid, is stepped
in chunks (64 steps of one ``D = 16`` equation, 16 of a pass of four; see
``_CHUNK_BYTES``): the generators at a chunk's midpoints are built as one
``(n, D, D)`` stack (``(n, P, D, D)`` for a pass), and each step's
``h ||M||`` is checked against ``_STEP_NORM_BUDGET``.  Each equation then
takes one of two step rules.  The Pade rule sends the chunk's step
generators through one batched :func:`.linalg.matrix_exponential`, and a
plain loop of matrix-vector (or matrix-matrix) products applies each
equation's step maps in order; it is the default.  The action rule
(``action=True``) never forms the exponential: its equations move
together, one step at a time, by :func:`.linalg.expm_action`, whose
Taylor degree comes from the chunk's largest ``||h M||_1``.
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
# dimension and any number of equations.
_CHUNK_BYTES = 64 * 16 * 16 * 16


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


def divides(dt, T):
    """Whether ``dt`` divides ``T``, to 1e-9 of max(T, 1): the one whole-step
    test, which config validation and :class:`.runner.RunContext` use too."""
    n = T / dt
    return math.isfinite(n) and abs(round(n) * dt - T) <= 1e-9 * max(T, 1.0)


def sample_grid(dt, T, s_span=(0.0, 1.0), steps=None):
    """Half-step grid of the midpoint scheme over ``s_span`` and its step
    sizes: step ``k`` goes from ``grid[2k]`` to ``grid[2k + 2]`` with its
    midpoint at ``grid[2k + 1]``.

    Every whole step is ``dt / T``; ``steps``, when given, replaces both by
    that many whole steps (``dt = (s1 - s0) / steps``, ``T = 1``).  When
    ``dt`` divides the physical span ``T (s1 - s0)`` the grid is
    ``linspace(s0, s1, 2n + 1)``; otherwise the ``n`` whole steps are
    followed by one shortened step that lands on ``s1``.  An empty span
    (``s0 == s1``) is one sample and no step.  A reversed or non-finite
    span, a ``dt`` or ``T`` that is not finite and positive, or ``steps``
    that is not a positive integer raises ``ValueError`` naming it.
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
    if s0 == s1:
        return np.array([float(s0)]), np.zeros(0)
    ds = dt / T
    if divides(dt, T * (s1 - s0)):
        n = int(round(T * (s1 - s0) / dt))
        return np.linspace(s0, s1, 2 * n + 1), np.full(n, ds)
    n = int((s1 - s0) // ds)
    end = s0 + n * ds
    return (np.append(np.linspace(s0, end, 2 * n + 1), [0.5 * (end + s1), s1]),
            np.append(np.full(n, ds), s1 - end))


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


def _check_step_sizes(h, m):
    """The step-size check of both integrators: the first step whose
    ``h ||M||`` exceeds ``_STEP_NORM_BUDGET``, in ``s`` order, raises
    :class:`StepTooLarge`, or :class:`NonFinite` if it is NaN.  ``h`` is
    one size for the whole stack ``m`` or one per step, and each step may
    hold several equations' generators."""
    h = np.reshape(h, np.shape(h) + (1,) * (m.ndim - 2 - np.ndim(h)))
    with np.errstate(over="ignore"):    # an overflowing norm is an infinite size
        size = (h * np.linalg.norm(m, axis=(-2, -1))).ravel()
    bad = np.flatnonzero(~(size <= _STEP_NORM_BUDGET))
    if bad.size and np.isnan(size[bad[0]]):
        raise NonFinite("generator contains NaN entries")
    if bad.size:
        raise StepTooLarge(f"step times generator norm is {size[bad[0]]:.3e}, "
                           f"over {_STEP_NORM_BUDGET}")


def _step_generators(generator, dt, T, s_span):
    """Step points (the even points of :func:`sample_grid`) and an iterator
    yielding ``(k, hm)`` per chunk of steps: ``hm[j] = h M(mid)``, with
    ``mid`` the step's odd grid point, generates the step from
    ``points[k + j]`` to ``points[k + j + 1]``; for several equations it is
    their ``(P, D, D)`` stack.
    """
    grid, steps = sample_grid(dt, T, s_span)
    mid = grid[1::2]

    def chunks():
        k, n = 0, 1     # a first chunk of one step gives the generator's size
        while k < len(steps):
            h = steps[k:k + n]
            m = np.asarray(evaluate_on(generator, mid[k:k + len(h)]))
            _check_step_sizes(h, m)
            yield k, h.reshape((-1,) + (1,) * (m.ndim - 1)) * m
            k += len(h)
            n = max(1, _CHUNK_BYTES // (16 * m[0].size))
    return grid[::2], chunks()


def evolve_vector_piecewise_exp(generator, v0, dt, T, s_span=(0.0, 1.0),
                                action=False):
    """Raw piecewise-exponential engine for any linear system
    ``dv/ds = M(s) v``.  Returns ``(grid, vectors)``.

    A stack ``v0`` of ``P`` vectors ``(P, D)`` steps ``P`` equations
    together: the generator then returns ``(n, P, D, D)`` at ``n``
    midpoints, and ``vectors`` is a list of ``P`` ``(n_samples, D)``
    arrays.  ``action``, one boolean per equation or one for all, picks
    each equation's step rule.  False (the Pade rule): the chunk's step
    maps go through one :func:`.linalg.matrix_exponential` and each
    equation applies its own, step by step.  True (the action rule): all
    such equations move together, one step at a time, by
    :func:`.linalg.expm_action` at the degree that the chunk's largest
    ``||h M||_1`` needs.
    """
    v0 = np.asarray(v0, dtype=complex)
    stack = np.atleast_2d(v0)
    act = np.broadcast_to(action, len(stack))
    pade, taylor = np.flatnonzero(~act), np.flatnonzero(act)
    grid, chunks = _step_generators(generator, dt, T, s_span)
    outs = [np.empty((len(grid), stack.shape[1]), dtype=complex) for _ in stack]
    for out, v in zip(outs, stack):
        out[0] = v
    v = stack[taylor, :, None]      # the action rule's columns
    for k, hm in chunks:
        hm = hm.reshape((len(hm), len(stack)) + hm.shape[-2:])
        if pade.size:   # maps[j * len(pade) + q]: step j of pade[q]
            maps = matrix_exponential(hm[:, pade].reshape((-1,) + hm.shape[-2:]))
        for q, p in enumerate(pade):
            out = outs[p]
            for j, step in enumerate(maps[q::len(pade)], k):
                out[j + 1] = step @ out[j]
        if taylor.size:
            a = hm[:, taylor]
            degree = taylor_degree(np.abs(a).sum(axis=-2).max())
            moved = np.empty((len(a),) + v.shape, dtype=complex)
            for j, step in enumerate(a):
                v = moved[j] = expm_action(step, v, degree)
            for q, p in enumerate(taylor):
                outs[p][k + 1:k + 1 + len(a)] = moved[:, q, :, 0]
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
    rhos = [_check_density(rho) for rho in rho0.reshape((-1,) + rho0.shape[-2:])]
    grid, vectors = evolve_vector_piecewise_exp(
        generator, np.stack([vec(rho) for rho in rhos]), dt, T, s_span, action)
    # one equation's states at a time, dropping its vectors
    states = [np.ascontiguousarray(unvec(vectors.pop(0), rho0.shape[-1])) for _ in rhos]
    meta = {"dt": dt, "T": T, "integrator": "piecewise_exp"}
    if metadata:
        meta.update(metadata)
    return Trajectory(grid=grid, states=states if rho0.ndim == 3 else states[0],
                      metadata=meta)


def propagate_rk4(generator, rho0, steps, T, s_span=(0.0, 1.0), metadata=None):
    """Classical fixed-step RK4 on the vectorized equation; independent
    cross-check for the exponential integrator, sampling the generator on the
    points of :func:`sample_grid` (``steps`` whole steps over the span) and
    checking each step's three generators as that integrator does."""
    rho0 = _check_density(rho0)
    grid, hs = sample_grid(None, None, s_span, steps=steps)
    v = vec(rho0)
    d = rho0.shape[0]
    states = np.empty((len(hs) + 1, d, d), dtype=complex)
    states[0] = rho0
    m2 = np.asarray(generator(grid[0]))     # each step's end is the next one's start
    for n, h in enumerate(hs):
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
    """Accumulate the flow map of the piecewise-exponential scheme.

    Returns a list of ``(s, propagator)`` pairs at the requested checkpoint
    values (grid-aligned within one step) plus always the final endpoint.
    """
    grid, chunks = _step_generators(generator, dt, T, s_span)
    wanted = sorted(checkpoints) if checkpoints else []
    out = []
    prop = None
    for k, hm in chunks:
        maps = matrix_exponential(hm)
        if prop is None:
            prop = np.eye(maps.shape[-1], dtype=complex)
        for j, step in enumerate(maps, k):
            prop = step @ prop
            while wanted and wanted[0] <= grid[j + 1] + 1e-12:
                out.append((wanted.pop(0), prop.copy()))
    if prop is None:    # an empty span: no step, the generator at s0 gives the size
        prop = np.eye(np.shape(evaluate_on(generator, grid[:1]))[-1], dtype=complex)
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
