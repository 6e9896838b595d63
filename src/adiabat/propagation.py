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
It steps a pencil: the pieces ``b`` and ``d`` of ``K`` kinds of equation,
each ``(n, K, D, D)``, shared by the equations ``b + gamma d`` of every
gamma (see :func:`_stepped`); a plain generator ``s -> M(s)`` is the
gamma = 0 pencil ``(M, None)``.  It goes in chunks whose length the
pieces' size fixes before the first step (64 steps of one ``D = 16``
equation; see :func:`block_length`), and checks each step's ``h ||M||``
against ``_STEP_NORM_BUDGET``.  The gamma = 0 equations, which come first,
take the Pade rule, one batched :func:`.linalg.matrix_exponential` call
per chunk; those at gamma > 0 take the action rule,
:func:`.linalg.expm_action`, whose Taylor degree comes from the chunk's
bound ``||h b||_1 + max(gamma) ||h d||_1``, so that their outputs depend on
the chunk length at the rounding level.  Each step moves the whole stack
at once, each rule a slice of it.  The states go, a chunk at a time, into
the trajectory or to a ``sink`` that keeps what it needs.  A plain
generator marked ``vectorized`` (:class:`.generators.ExactGenerator`,
:class:`.generators.ApproximateGenerator` and those that
:class:`.runner.RunContext` hands out) takes the array of midpoints at
once, as a pencil does; any other is called once per midpoint.  A
classical fixed-step fourth-order Runge-Kutta integrator is provided as an
independent cross-check; it samples the same grid and passes the same
step-size check.
"""
from __future__ import annotations

import ctypes
import functools
import itertools
import math
import numbers
from dataclasses import dataclass

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
    "block_length",
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
_CHUNK_BYTES = 64 * 16 * 16 * 16      # read only by block_length
_EMPTY_TRACE = 1e-12
_DENSITY_TOL = 1e-10    # initial states: Hermitian, unit trace, eigenvalues >= -tol
# glibc's mallopt M_TRIM_THRESHOLD (-1) and M_MMAP_THRESHOLD (-3), see _keep_chunk_heap
_HEAP_THRESHOLDS = {-1: 16 << 20, -3: 4 << 20}


def block_length(item_bytes):
    """How many items of ``item_bytes`` bytes make one block: as many as
    ``_CHUNK_BYTES`` holds, and at least one; the package's one block rule.
    A chunk of steps takes its generator stacks over all the equations it
    steps (64 steps of one 16x16 generator, 16 of a sweep's pencil), of
    which the exponential holds about ten at a time: sizing chunks by bytes
    bounds memory at any dimension and number of equations, and longer ones
    gain little.  The lab pass takes every equation's states, held in a few
    copies at once and so counted twice (85 samples of six 4x4 ones)."""
    return max(1, _CHUNK_BYTES // item_bytes)


@dataclass
class Trajectory:
    """States on a parameter grid.

    ``states`` has shape (n_samples, d, d); entry 0 is the initial state.
    A pass of ``P`` equations (:func:`propagate_piecewise_exp` of a stack
    of initial states) holds ``(P, n_samples, d, d)``, and the monitors
    (:meth:`traces`, :meth:`hermiticity_defects`, :meth:`min_eigenvalues`)
    then give one row per equation.  Each monitor is one numpy expression
    over the states it is handed and sees each state alone, so any cut
    gives the same bits: :class:`.runner.LabPass` hands them one block of
    lab states at a time.
    """

    grid: np.ndarray
    states: np.ndarray

    @property
    def dim(self):
        return self.states.shape[-1]

    def final_state(self):
        return self.states[..., -1, :, :]

    def traces(self):
        return np.einsum("...ii->...", self.states).real

    def hermiticity_defects(self):
        return np.linalg.norm(self.states - dag(self.states), axis=(-2, -1))

    def min_eigenvalues(self):
        return np.linalg.eigvalsh(0.5 * (self.states + dag(self.states)))[..., 0]

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


def _check_step_sizes(h, b, d=None, gammas=None):
    """The step-size check of both integrators: the first step whose
    ``h ||M||`` exceeds ``_STEP_NORM_BUDGET``, in ``s`` order, raises
    :class:`StepTooLarge`, or :class:`NonFinite` if it is NaN.  ``h`` is the
    step size and ``b`` a stack of step generators, each step's possibly
    holding several equations'.  With the pencil pieces ``d`` and its
    ``gammas`` (see :func:`_stepped`), equation ``(g, k)`` is
    ``b[:, k] + gammas[g] d[:, k]``, whose norm comes without forming it from
    ``||b||^2 + 2 gamma Re<b, d> + gamma^2 ||d||^2``."""
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is an infinite size
        if d is None:
            size = (h * np.linalg.norm(b, axis=(-2, -1))).ravel()
        else:       # Re<x, y> is the dot product of the float views
            def dot(x, y):      # (n, 1, K), against gammas (G, 1)
                return np.einsum("...ij,...ij->...", x.view(float), y.view(float))[:, None]
            g = np.asarray(gammas)[:, None]
            cross = np.where(g != 0.0, g * (2.0 * dot(b, d) + g * dot(d, d)), 0.0)
            size = (h * np.sqrt(dot(b, b) + cross)).ravel()
    bad = np.flatnonzero(~(size <= _STEP_NORM_BUDGET))
    if bad.size and np.isnan(size[bad[0]]):
        raise NonFinite("generator contains NaN entries")
    if bad.size:
        raise StepTooLarge(f"step times generator norm is {size[bad[0]]:.3e}, "
                           f"over {_STEP_NORM_BUDGET}")


@functools.cache
def _keep_chunk_heap():
    """Let the C allocator keep a chunk's temporaries between chunks, once
    per process.  glibc serves blocks from 128 KiB up by ``mmap`` and gives
    the top of its heap back once 128 KiB of it is free, and raises both
    thresholds only when a large ``mmap``-ed block is freed; a chunk's
    temporaries take a few MB, so with nothing larger freed before (a
    windowed frame frees nothing large) every chunk faults its pages in
    again: a ``check-gauge`` job at the benchmark's size takes about 36,600
    minor page faults without these thresholds and 600 with them.  Blocks
    up to 4 MiB then come from the heap, which keeps up to 16 MiB free.  A C
    library without ``mallopt`` is left as it is."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    for param, value in _HEAP_THRESHOLDS.items():
        mallopt(param, value)


def _one_norm(a):
    """The largest 1-norm in a stack of matrices."""
    return np.abs(a).sum(axis=-2).max()


def _pade_pencil(generator, equations):
    """A plain generator ``s -> M(s)`` of ``equations`` stacked equations as
    the gamma = 0 pencil ``(M, None)``: the Pade rule steps it."""
    def pencil(s):
        b = np.asarray(evaluate_on(generator, s))
        return b.reshape((len(b), equations) + b.shape[-2:]), None
    return pencil


def _stepped(pencil, gammas, v0, dt, T, s_span):
    """The step loop of every piecewise-exponential entry point: steps a
    stack ``v0`` of ``P`` states ``(P, D, c)`` (``c = 1`` for vectors,
    ``c = D`` for flow maps) over :func:`sample_grid`.

    Called with an array of ``n`` midpoints, ``pencil`` returns the pieces
    ``(b, d)``, each ``(n, K, D, D)`` with ``K = P / G`` for the ``G``
    values of ``gammas`` (``d`` may be None when every gamma is 0), and
    equation ``g K + k`` is ``b[:, k] + gammas[g] d[:, k]``.  Its rule is
    the Pade rule at gamma = 0, which only the first gamma may be, and the
    action rule otherwise, its generators formed a few steps at a time
    (see the module docstring).

    Returns the step points and an iterator yielding ``(k, states)`` per
    chunk, ``states[j]`` the stack at ``points[k + j + 1]``."""
    grid, h = sample_grid(dt, T, s_span)
    mid = grid[1::2]
    _keep_chunk_heap()
    gammas = np.asarray(gammas, dtype=float)
    if 0.0 in gammas[1:]:
        raise ValueError("the Pade-rule equations (gamma = 0) must come first")
    kinds = len(v0) // len(gammas)
    npade = kinds if gammas[0] == 0.0 else 0
    rows = gammas[int(npade > 0):, None, None, None]    # the action-rule ones
    n = block_length(16 * kinds * (2 if len(rows) else 1) * v0.shape[1] ** 2)
    # the action-rule generators are formed m steps at a time, in at most
    # the bytes of the base pieces
    m = max(1, n // max(1, len(rows)))

    def chunks(x):
        for k in range(0, len(mid), n):
            b, d = pencil(mid[k:k + n])
            _check_step_sizes(h, b, d, gammas)
            hb = h * b
            if npade:       # maps[j, p]: step j of equation p
                maps = matrix_exponential(hb.reshape((-1,) + hb.shape[-2:])).reshape(hb.shape)
            if len(rows):
                degree = taylor_degree(_one_norm(hb) + h * np.abs(rows).max() * _one_norm(d))
            out = np.empty((len(hb),) + x.shape, dtype=complex)
            for j in range(len(hb)):
                if npade:
                    out[j, :npade] = maps[j] @ x[:npade]
                if len(rows):
                    if j % m == 0:      # the action-rule generators of steps j..j+m
                        a = (hb[j:j + m, None] + h * rows * d[j:j + m, None]).reshape(
                            (-1, len(x) - npade) + hb.shape[-2:])
                    out[j, npade:] = expm_action(a[j % m], x[npade:], degree)
                x = out[j]
            yield k, out
    return grid[::2], chunks(v0)


def evolve_vector_piecewise_exp(generator, v0, dt, T, s_span=(0.0, 1.0)):
    """Raw piecewise-exponential engine for any linear system
    ``dv/ds = M(s) v``, stepped by the Pade rule.  Returns ``(grid, vectors)``.

    A stack ``v0`` of ``P`` vectors ``(P, D)`` steps ``P`` equations
    together: the generator then returns ``(n, P, D, D)`` at ``n``
    midpoints, and ``vectors`` is ``(P, n_samples, D)``.
    """
    v0 = np.asarray(v0, dtype=complex)
    stack = np.atleast_2d(v0)
    grid, chunks = _stepped(_pade_pencil(generator, len(stack)), [0.0],
                            stack[:, :, None], dt, T, s_span)
    out = np.empty((len(stack), len(grid), stack.shape[1]), dtype=complex)
    out[:, 0] = stack
    for k, states in chunks:
        out[:, k + 1:k + 1 + len(states)] = np.moveaxis(states[..., 0], 0, 1)
    return grid, out[0] if v0.ndim == 1 else out


def propagate_piecewise_exp(generator, rho0, dt, T, s_span=(0.0, 1.0),
                            gammas=None, sink=None):
    """Propagate a density operator with the midpoint piecewise-exponential
    scheme; ``dt`` is the physical step, mapped to ``ds = dt/T`` in scaled
    time.

    A stack ``rho0`` of ``P`` initial states ``(P, d, d)`` steps ``P``
    equations together, of a plain generator (see
    :func:`evolve_vector_piecewise_exp`) or, with ``gammas``, of a pencil
    (see :func:`_stepped`); ``states`` is then ``(P, n_samples, d, d)``.

    ``sink(i, states)``, when given, receives the states as they are made,
    a block ``(m, P, d, d)`` at the points ``grid[i:i + m]`` at a time, the
    initial stack first; the trajectory then holds no states (None).
    """
    rho0 = np.asarray(rho0, dtype=complex)
    d = rho0.shape[-1]
    rhos = rho0.reshape(-1, d, d)
    # each distinct state once, in stack order: a pass repeats one state
    for rho in {rho.tobytes(): rho for rho in rhos}.values():
        _check_density(rho)
    if gammas is None:
        generator, gammas = _pade_pencil(generator, len(rhos)), [0.0]
    grid, chunks = _stepped(generator, gammas, np.stack([vec(rho)[:, None] for rho in rhos]),
                            dt, T, s_span)
    states = None
    if sink is None:
        states = np.empty((len(rhos), len(grid), d, d), dtype=complex)

        def sink(i, block):
            states[:, i:i + len(block)] = np.moveaxis(block, 0, 1)
    sink(0, rhos[None])
    for k, chunk in chunks:
        sink(k + 1, unvec(chunk[..., 0], d))
    if states is not None and rho0.ndim == 2:
        states = states[0]
    return Trajectory(grid=grid, states=states)


def propagate_rk4(generator, rho0, steps, s_span=(0.0, 1.0)):
    """Classical fixed-step RK4 on the vectorized equation; independent
    cross-check for the exponential integrator, sampling the generator on the
    points of :func:`sample_grid` (``steps`` steps over the span) and
    checking each step's three generators as that integrator does.

    The generator is evaluated (:func:`.spectral.evaluate_on`) a slice of
    steps at a time, as many as take one block of generators; each
    slice starts from the end point of the one before, so every grid point
    is sampled once, in order."""
    rho0 = _check_density(rho0)
    grid, h = sample_grid(None, None, s_span, steps=steps)
    v = vec(rho0)
    d = rho0.shape[0]
    states = np.empty((len(grid) // 2 + 1, d, d), dtype=complex)
    states[0] = rho0
    n = block_length(32 * len(v) ** 2)
    ends = np.asarray(evaluate_on(generator, grid[:1]))
    for k in range(0, len(states) - 1, n):
        # the midpoint and end point of each step of the slice
        pts = np.asarray(evaluate_on(generator, grid[2 * k + 1:2 * (k + n) + 1]))
        starts, mids, ends = np.concatenate((ends[-1:], pts[1:-1:2])), pts[0::2], pts[1::2]
        _check_step_sizes(h, np.stack((starts, mids, ends), axis=1))
        for j, (m1, mm, m2) in enumerate(zip(starts, mids, ends)):
            k1 = m1 @ v
            k2 = mm @ (v + 0.5 * h * k1)
            k3 = mm @ (v + 0.5 * h * k2)
            k4 = m2 @ (v + h * k3)
            v = v + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            states[k + j + 1] = unvec(v, d)
    return Trajectory(grid=grid[::2], states=states)


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
    _, chunks = _stepped(_pade_pencil(generator, 1), [0.0], eye[None], dt, T, s_span)
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
    """Maximum Hilbert-Schmidt (Frobenius) distance over a shared grid."""
    if traj_a.grid.shape != traj_b.grid.shape:
        raise GridMismatch("trajectories have different sample counts")
    if np.max(np.abs(traj_a.grid - traj_b.grid)) > 1e-12:
        raise GridMismatch("trajectories are sampled on different grids")
    return float(np.linalg.norm(traj_a.states - traj_b.states, axis=(-2, -1)).max())
