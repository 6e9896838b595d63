import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adiabat import propagation, runner

from adiabat.errors import (
    EmptySubspace,
    GridMismatch,
    InvalidInitialState,
    StepTooLarge,
)
from adiabat.generators import (
    ExactGenerator,
    LindbladDissipator,
    cp_check,
    hamiltonian_superop,
)
from adiabat.linalg import dag, frobenius, matrix_exponential, vec
from adiabat.models import (
    Gauge,
    build_orange_path,
    holonomy_dissipator,
    holonomy_family,
    initial_state,
    make_random_model,
)
from adiabat.propagation import (
    Trajectory,
    evolve_vector_piecewise_exp,
    hs_error_max,
    intensity_loss,
    normalized_fidelity,
    piecewise_exp_propagator,
    propagate_piecewise_exp,
    propagate_rk4,
)
from adiabat.spectral import HamiltonianFamily

from conftest import random_density, random_hermitian


def fidelity_2x2_closed_form(s1, s2):
    """2x2 Uhlmann fidelity identity, the independent oracle:
    D = sqrt(Tr(s1 s2) + 2 sqrt(det s1 det s2))."""
    cross = np.trace(s1 @ s2).real
    dets = np.linalg.det(s1).real * np.linalg.det(s2).real
    return float(np.sqrt(cross + 2.0 * np.sqrt(max(dets, 0.0))))


@pytest.fixture
def qubit_rho(rng):
    return random_density(rng, 2)


class TestPiecewiseExp:
    def test_zero_generator_constant(self, qubit_rho):
        traj = propagate_piecewise_exp(lambda s: np.zeros((4, 4)), qubit_rho,
                                       0.1, 1.0)
        assert max(frobenius(st - qubit_rho) for st in traj.states) == 0.0

    def test_closed_constant_hamiltonian(self, rng):
        h = random_hermitian(rng, 3)
        fam = HamiltonianFamily(dim=3, evaluate=lambda s: h)
        diss = LindbladDissipator.constant([np.zeros((3, 3))])
        T = 10.0
        rho0 = random_density(rng, 3)
        traj = propagate_piecewise_exp(ExactGenerator(fam, diss, T, 0.0),
                                       rho0, 0.01, T)
        for i in (300, 700, 1000):
            s = traj.grid[i]
            u = matrix_exponential(-1j * T * h * s)
            assert frobenius(traj.states[i] - u @ rho0 @ dag(u)) <= 1e-8

    def test_pure_dephasing_closed_form(self):
        z = np.diag([1.0, -1.0]).astype(complex)
        fam = HamiltonianFamily(dim=2, evaluate=lambda s: np.zeros((2, 2)))
        diss = LindbladDissipator.double_commutator(z)
        T, gamma = 5.0, 0.3
        rho0 = np.array([[0.6, 0.2 - 0.1j], [0.2 + 0.1j, 0.4]])
        traj = propagate_piecewise_exp(ExactGenerator(fam, diss, T, gamma),
                                       rho0, 0.01, T)
        for i in (100, 250, 500):
            s = traj.grid[i]
            decay = np.exp(-4.0 * gamma * T * s)
            assert abs(traj.states[i][0, 1] - rho0[0, 1] * decay) <= 1e-8
            assert abs(traj.states[i][0, 0] - rho0[0, 0]) <= 1e-10

    def test_last_step_shortened(self, qubit_rho):
        traj = propagate_piecewise_exp(lambda s: np.zeros((4, 4)), qubit_rho,
                                       0.3, 1.0)
        assert traj.grid[-1] == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.diff(traj.grid) > 0)

    def test_invalid_initial_state(self, rng):
        gen = lambda s: np.zeros((4, 4))
        with pytest.raises(InvalidInitialState):
            propagate_piecewise_exp(gen, np.eye(2) * 0.7, 0.1, 1.0)
        with pytest.raises(InvalidInitialState):
            bad = random_hermitian(rng, 2)
            bad = bad / np.trace(bad).real  # unit trace, indefinite
            propagate_piecewise_exp(gen, bad, 0.1, 1.0)

    def test_step_too_large(self, qubit_rho):
        gen = lambda s: 1e4 * np.eye(4)
        with pytest.raises(StepTooLarge):
            propagate_piecewise_exp(gen, qubit_rho, 0.1, 1.0)

    def test_composition_of_flows(self, rng):
        # propagating [0, s1] then [s1, 1] equals one pass over [0, 1]
        model = make_random_model(9)
        fam = model.family()
        gen = ExactGenerator(fam, model.dissipator(), 4.0, 0.2)
        rho0 = model.initial_density()
        full = propagate_piecewise_exp(gen, rho0, 0.01, 4.0)
        first = propagate_piecewise_exp(gen, rho0, 0.01, 4.0, s_span=(0.0, 0.5))
        second = propagate_piecewise_exp(gen, first.final_state(), 0.01, 4.0,
                                         s_span=(0.5, 1.0))
        assert frobenius(second.final_state() - full.final_state()) <= 1e-9

    def test_propagator_matches_state_evolution(self, rng):
        model = make_random_model(2)
        gen = ExactGenerator(model.family(), model.dissipator(), 3.0, 0.1)
        rho0 = model.initial_density()
        traj = propagate_piecewise_exp(gen, rho0, 0.01, 3.0)
        checkpoints = piecewise_exp_propagator(gen, 0.01, 3.0,
                                               checkpoints=[0.5, 1.0])
        from adiabat.linalg import unvec, vec
        for s, prop in checkpoints:
            i = int(np.argmin(np.abs(traj.grid - s)))
            assert frobenius(unvec(prop @ vec(rho0)) - traj.states[i]) <= 1e-12


def step_by_step(generator, v0, dt, T, s_span=(0.0, 1.0)):
    """The scheme one step at a time: the reference for the chunked engine."""
    v = np.asarray(v0, dtype=complex)
    s, out = s_span[0], [v]
    for h in propagation._grid_steps(s_span, dt / T):
        v = matrix_exponential(h * np.asarray(generator(s + 0.5 * h))) @ v
        s += h
        out.append(v)
    return np.asarray(out)


@functools.lru_cache(maxsize=None)
def small_context(model, T=1.0, dt=0.1):
    if model == "holonomy":
        return runner.holonomy_context(math.pi / 4, (0.4, 0.2, 0.4, 0.0),
                                       Gauge.NORTH_POLE_REGULAR, T, dt,
                                       math.pi / 5, 3 * math.pi / 4)
    return runner.random_context(3, T, dt)


class TestChunkedSteps:
    @pytest.mark.parametrize("model", ["holonomy", "random_rotating"])
    def test_chunks_equal_step_by_step(self, model):
        # 157 steps: two full chunks and a partial one
        T, dt = 1.57, 0.01
        ctx = small_context(model, T, dt)
        gen = ctx.approximate_generator(0.1)
        v0 = vec(ctx.rho0)
        grid, vectors = evolve_vector_piecewise_exp(gen, v0, dt, T)
        assert len(grid) == 158
        assert np.array_equal(vectors, step_by_step(gen, v0, dt, T))
        # a generator that takes one s at a time goes through the same steps
        one_at_a_time = lambda s: gen(s)
        assert np.array_equal(evolve_vector_piecewise_exp(one_at_a_time, v0, dt, T)[1],
                              vectors)

    def test_shortened_last_step_equals_step_by_step(self):
        model = make_random_model(6)
        gen = ExactGenerator(model.family(), model.dissipator(), 1.0, 0.2)
        v0 = vec(model.initial_density())
        grid, vectors = evolve_vector_piecewise_exp(gen, v0, 0.0127, 1.0)
        assert len(grid) == 80 and grid[-1] == pytest.approx(1.0, abs=1e-12)
        assert np.array_equal(vectors, step_by_step(gen, v0, 0.0127, 1.0))

    @pytest.mark.parametrize("vectorized", [False, True])
    def test_oversized_step_inside_chunk(self, qubit_rho, vectorized):
        def gen(s):
            s = np.asarray(s)
            big = (s > 0.3)[..., None, None]
            return np.where(big, 1e4 * np.eye(4), np.zeros((4, 4))) + 0j
        gen.vectorized = vectorized
        # step 30 of 100 is the first oversized one: inside the second chunk,
        # which holds every step after the first
        assert propagation._CHUNK_BYTES // (16 * 4 * 4) >= 99
        with pytest.raises(StepTooLarge):
            propagate_piecewise_exp(gen, qubit_rho, 0.01, 1.0)
        with pytest.raises(StepTooLarge):
            piecewise_exp_propagator(gen, 0.01, 1.0)

    @pytest.mark.parametrize("dim, sizes", [(16, [1, 64, 64, 29]), (128, [1] * 5)])
    def test_chunks_bounded_in_bytes(self, dim, sizes):
        # 64 steps of a 16x16 generator per chunk, one step of a 128x128
        seen = []

        def gen(s):
            seen.append(len(s))
            return np.zeros((len(s), dim, dim), dtype=complex)
        gen.vectorized = True
        steps = sum(sizes)
        piecewise_exp_propagator(gen, 1.0 / steps, 1.0)
        assert seen == sizes

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(["holonomy", "random_rotating"]), st.booleans(),
           st.sampled_from([0.0, 0.01, 0.3]),
           st.lists(st.integers(0, 20), min_size=1, max_size=12))
    def test_run_context_generator_on_arrays(self, model, approximate, gamma, idx):
        ctx = small_context(model)
        gen = (ctx.approximate_generator if approximate else ctx.exact_generator)(gamma)
        s = ctx.frame.grid[idx]
        stack = gen(s)
        assert stack.shape == (len(idx), 16, 16)
        assert np.array_equal(stack, np.stack([gen(float(x)) for x in s]))

    @pytest.mark.parametrize("off", [0.07, -0.05, 1.05])
    def test_run_context_off_grid_entry_raises(self, off):
        ctx = small_context("random_rotating")
        gen = ctx.exact_generator(0.1)
        with pytest.raises(KeyError):
            gen(np.array([0.05, 0.15, off]))


def random_lindbladian(rng, dim, n_jumps):
    h = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    jumps = [rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
             for _ in range(n_jumps)]
    diss = LindbladDissipator.constant(jumps)
    return hamiltonian_superop(h + dag(h)) + diss.superoperator(0.0)


class TestCompletePositivity:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 3), st.integers(1, 3), st.floats(0.01, 15.0),
           st.integers(0, 2**32 - 1))
    def test_one_step_is_cptp(self, dim, n_jumps, size, seed):
        gen = random_lindbladian(np.random.default_rng(seed), dim, n_jumps)
        gen *= size / np.linalg.norm(gen)
        # dt = T: one step over [0, 1]
        [(s, prop)] = piecewise_exp_propagator(lambda s: gen, 1.0, 1.0)
        assert s == 1.0
        row = vec(np.eye(dim)).conj()
        assert np.abs(row @ prop - row).max() <= 1e-12
        min_eig, _ = cp_check(prop)
        assert min_eig >= -1e-10


class TestRk4:
    def test_zero_generator(self, qubit_rho):
        traj = propagate_rk4(lambda s: np.zeros((4, 4)), qubit_rho, 10, 1.0)
        assert max(frobenius(st - qubit_rho) for st in traj.states) == 0.0

    def test_cross_validation_gate_model(self):
        # the two integrators are independent; at matched resolution they
        # must agree at the stated preset point
        path = build_orange_path(np.pi / 4, 100.0)
        fam = holonomy_family(path)
        gen = ExactGenerator(fam, holonomy_dissipator(), 100.0, 0.01)
        psi = initial_state(np.pi / 5, 3 * np.pi / 4)
        rho0 = np.outer(psi, np.conj(psi))
        t_exp = propagate_piecewise_exp(gen, rho0, 0.005, 100.0)
        t_rk4 = propagate_rk4(gen, rho0, 20000, 100.0)
        assert hs_error_max(t_exp, t_rk4) <= 1e-6

    def test_cross_validation_random_model(self):
        model = make_random_model(7)
        gen = ExactGenerator(model.family(), model.dissipator(), 160.0, 0.01)
        rho0 = model.initial_density()
        t_exp = propagate_piecewise_exp(gen, rho0, 0.01, 160.0)
        t_rk4 = propagate_rk4(gen, rho0, 16000, 160.0)
        assert hs_error_max(t_exp, t_rk4) <= 1e-6


class TestTrajectoryMonitors:
    def test_monitors(self, rng):
        model = make_random_model(4)
        gen = ExactGenerator(model.family(), model.dissipator(), 5.0, 0.3)
        traj = propagate_piecewise_exp(gen, model.initial_density(), 0.01, 5.0)
        assert np.abs(traj.traces() - 1.0).max() <= 1e-7
        assert traj.hermiticity_defects().max() <= 1e-8
        assert traj.min_eigenvalues().min() >= -1e-6
        assert np.all(traj.purities() <= 1.0 + 1e-9)


class TestMetrics:
    def test_intensity_loss_extremes(self):
        p = np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex)
        inside = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
        outside = np.diag([0.0, 0.0, 1.0, 0.0]).astype(complex)
        assert intensity_loss(inside, p) == pytest.approx(0.0, abs=1e-12)
        assert intensity_loss(outside, p) == pytest.approx(1.0, abs=1e-12)

    def test_fidelity_identical_states(self, rng):
        rho = random_density(rng, 4)
        p = np.eye(4, dtype=complex)
        assert normalized_fidelity(rho, rho, p) == pytest.approx(1.0, abs=1e-9)

    def test_fidelity_orthogonal_pure_states(self):
        p = np.eye(2, dtype=complex)
        a = np.diag([1.0, 0.0]).astype(complex)
        b = np.diag([0.0, 1.0]).astype(complex)
        assert normalized_fidelity(a, b, p) == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("seed", range(5))
    def test_fidelity_2x2_closed_form_oracle(self, seed):
        rng = np.random.default_rng(seed)
        s1 = random_density(rng, 2)
        s2 = random_density(rng, 2)
        p = np.eye(2, dtype=complex)
        got = normalized_fidelity(s1, s2, p)
        assert got == pytest.approx(fidelity_2x2_closed_form(s1, s2), abs=1e-9)
        # symmetric under swapping the arguments
        assert got == pytest.approx(normalized_fidelity(s2, s1, p), abs=1e-9)

    def test_fidelity_projected_subspace(self, rng):
        # projection and renormalization happen before the overlap
        rho_a = random_density(rng, 4)
        rho_b = random_density(rng, 4)
        p = np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex)
        got = normalized_fidelity(rho_a, rho_b, p)
        s = []
        for rho in (rho_a, rho_b):
            blk = (p @ rho @ p)[:2, :2]
            s.append(blk / np.trace(blk).real)
        assert got == pytest.approx(fidelity_2x2_closed_form(*s), abs=1e-9)

    def test_empty_subspace(self):
        p = np.diag([1.0, 0.0]).astype(complex)
        rho = np.diag([0.0, 1.0]).astype(complex)
        with pytest.raises(EmptySubspace):
            normalized_fidelity(rho, rho, p)

    def test_hs_error_max(self, rng):
        grid = np.linspace(0.0, 1.0, 5)
        states = np.stack([random_density(rng, 2) for _ in grid])
        a = Trajectory(grid=grid, states=states)
        b = Trajectory(grid=grid, states=states.copy())
        assert hs_error_max(a, b) == 0.0
        bump = np.array([[0.25, 0.0], [0.0, 0.0]])
        b.states[2] = b.states[2] + bump
        assert hs_error_max(a, b) == pytest.approx(0.25, abs=1e-12)

    def test_grid_mismatch(self, rng):
        states = np.stack([random_density(rng, 2) for _ in range(3)])
        a = Trajectory(grid=np.array([0.0, 0.5, 1.0]), states=states)
        b = Trajectory(grid=np.array([0.0, 0.4, 1.0]), states=states)
        with pytest.raises(GridMismatch):
            hs_error_max(a, b)
        c = Trajectory(grid=np.array([0.0, 1.0]), states=states[:2])
        with pytest.raises(GridMismatch):
            hs_error_max(a, c)
