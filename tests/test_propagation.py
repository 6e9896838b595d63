import dataclasses
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
    NonFinite,
    StepTooLarge,
)
from adiabat.generators import (
    ExactGenerator,
    LindbladDissipator,
    cp_check,
    hamiltonian_superop,
)
from adiabat.linalg import (
    block_length,
    dag,
    frobenius,
    matrix_exponential,
    sandwich_superop,
    unvec,
    vec,
)
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
from adiabat.spectral import HamiltonianFamily, vectorized

from conftest import lab_trajectories, random_density, random_hermitian


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

    def test_invalid_initial_state(self, rng):
        gen = lambda s: np.zeros((4, 4))
        with pytest.raises(InvalidInitialState):
            propagate_piecewise_exp(gen, np.eye(2) * 0.7, 0.1, 1.0)
        with pytest.raises(InvalidInitialState):
            bad = random_hermitian(rng, 2)
            bad = bad / np.trace(bad).real  # unit trace, indefinite
            propagate_piecewise_exp(gen, bad, 0.1, 1.0)

    def test_each_distinct_initial_state_checked_once(self, monkeypatch):
        # a pass stacks copies of one state: one eigendecomposition checks
        # them all, and the first bad state in stack order still raises
        calls = []
        decompose = propagation.hermitian_eigendecompose
        monkeypatch.setattr(propagation, "hermitian_eigendecompose",
                            lambda m, tol: calls.append(m) or decompose(m, tol))
        good = np.array([[0.6, 0.2 - 0.1j], [0.2 + 0.1j, 0.4]])
        gen = vectorized(lambda s: np.zeros(np.shape(s) + (12, 4, 4)))
        propagate_piecewise_exp(gen, np.stack([good] * 12), 0.1, 1.0)
        assert len(calls) == 1
        indefinite = np.diag([1.5, -0.5]).astype(complex)
        for stack in ([good, indefinite, good, np.eye(2) * 0.7],
                      [good, np.eye(2) * 0.7, indefinite]):
            with pytest.raises(InvalidInitialState) as raised:
                propagate_piecewise_exp(gen, np.stack(stack), 0.1, 1.0)
            with pytest.raises(InvalidInitialState) as first:
                propagate_piecewise_exp(gen, stack[1], 0.1, 1.0)
            assert str(raised.value) == str(first.value)

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

    def test_propagator_equals_step_by_step_product(self):
        # 157 steps: chunks of 64, 64 and 29; a checkpoint inside each
        model = make_random_model(2)
        gen = ExactGenerator(model.family(), model.dissipator(), 1.57, 0.1)
        grid, h = propagation.sample_grid(0.01, 1.57)
        prop, products = np.eye(16, dtype=complex), []
        for mid in grid[1::2]:
            prop = matrix_exponential(h * gen(mid)) @ prop
            products.append(prop)
        wanted = [0.005, 0.3, 0.75, 0.99]
        got = piecewise_exp_propagator(gen, 0.01, 1.57, checkpoints=wanted)
        assert [s for s, _ in got] == wanted + [1.0]
        for (s, prop), step in zip(got, [1, 48, 118, 156, 157]):
            assert np.array_equal(prop, products[step - 1])

    def test_checkpoint_at_start_is_identity(self):
        gen = lambda s: np.diag([1.0, -1.0]) + 0j
        got = piecewise_exp_propagator(gen, 0.1, 1.0, checkpoints=[1.0 + 5e-13, 0.0, -5e-13])
        assert [s for s, _ in got] == [-5e-13, 0.0, 1.0 + 5e-13, 1.0]
        assert np.array_equal(got[0][1], np.eye(2)) and np.array_equal(got[1][1], np.eye(2))
        assert np.array_equal(got[2][1], got[3][1])
        assert np.allclose(got[3][1], np.diag([math.e, 1 / math.e]), rtol=1e-12)

    @pytest.mark.parametrize("name, dt, T, s_span, wanted", [
        ("checkpoints", 0.1, 1.0, (0.0, 1.0), [0.0, -1.0, 2.0]),
        ("checkpoints", 0.1, 1.0, (0.0, 1.0), [-1e-9]),
        ("checkpoints", 0.1, 1.0, (0.5, 1.0), [0.25]),
        ("checkpoints", 0.1, 1.0, (0.0, 1.0), [1.0 + 1e-9]),
        ("s_span", 0.1, 1.0, (1.0, 0.0), [2.0]),
        ("dt", 0.0, 1.0, (0.0, 1.0), [2.0]),
        ("T", 0.1, math.nan, (0.0, 1.0), [2.0]),
    ], ids=["both-sides", "before-start", "before-late-start", "after-end", "bad-span",
            "bad-dt", "bad-T"])
    def test_bad_checkpoint_named_before_the_generator_runs(self, name, dt, T, s_span,
                                                              wanted):
        def gen(s):
            raise AssertionError("generator called")
        with pytest.raises(ValueError, match=f"^{name}"):
            piecewise_exp_propagator(gen, dt, T, s_span, checkpoints=wanted)


def step_by_step(generator, v0, dt, T, s_span=(0.0, 1.0)):
    """The scheme one step at a time on the shared grid: the reference for
    the chunked engine."""
    grid, h = propagation.sample_grid(dt, T, s_span)
    v = np.asarray(v0, dtype=complex)
    out = [v]
    for mid in grid[1::2]:
        v = matrix_exponential(h * np.asarray(generator(mid))) @ v
        out.append(v)
    return np.asarray(out)


@functools.lru_cache(maxsize=None)
def small_context(model, T=1.0, dt=0.1):
    if model == "holonomy":
        return runner.holonomy_context(math.pi / 4, (0.4, 0.2, 0.4, 0.0),
                                       Gauge.NORTH_POLE_REGULAR, T, dt,
                                       math.pi / 5, 3 * math.pi / 4)
    return runner.random_context(3, T, dt)


def zero_generator(s):
    return np.zeros(np.shape(s) + (4, 4), dtype=complex)


zero_generator.vectorized = True


class TestSampleGrid:
    def test_whole_steps_end_at_one(self):
        # 14,600 steps of 0.005/73 add up to 1 - 1.1e-16, not 1: the grid, not
        # a sum of steps, decides the end point, and no sliver step follows
        grid, vectors = evolve_vector_piecewise_exp(zero_generator, np.ones(4), 0.005, 73.0)
        assert len(grid) == 14601 and grid[-1] == 1.0

    @pytest.mark.parametrize("dt, T, s_span", [(0.005, 73.0, (0.0, 1.0)),
                                               (0.01, 4.0, (0.5, 1.0))])
    def test_steps_and_points(self, dt, T, s_span):
        grid, h = propagation.sample_grid(dt, T, s_span)
        n = round((s_span[1] - s_span[0]) * T / dt)
        assert h == dt / T
        assert np.array_equal(grid, np.linspace(*s_span, 2 * n + 1))

    @pytest.mark.parametrize("dt, T, s_span", [(0.0127, 1.0, (0.0, 1.0)),
                                               (0.3, 1.0, (0.0, 1.0)),
                                               (0.01, 4.0, (0.5, 0.9999)),
                                               (2.0, 1.0, (0.0, 1.0))])
    def test_dt_not_dividing_the_span_named(self, qubit_rho, dt, T, s_span):
        # no shortened last step: every entry point refuses such a dt
        gen = lambda s: np.zeros((4, 4))
        for run in (lambda: propagation.sample_grid(dt, T, s_span),
                    lambda: evolve_vector_piecewise_exp(gen, vec(qubit_rho), dt, T, s_span),
                    lambda: propagate_piecewise_exp(gen, qubit_rho, dt, T, s_span),
                    lambda: piecewise_exp_propagator(gen, dt, T, s_span)):
            with pytest.raises(ValueError, match="^dt=.* does not divide"):
                run()

    def test_empty_span_is_one_sample(self, qubit_rho):
        gen = lambda s: np.zeros((4, 4))
        grid, h = propagation.sample_grid(0.1, 1.0, (0.5, 0.5))
        assert grid.tolist() == [0.5]
        for traj in (propagate_rk4(gen, qubit_rho, 10, s_span=(0.5, 0.5)),
                     propagate_piecewise_exp(gen, qubit_rho, 0.1, 1.0, s_span=(0.5, 0.5))):
            assert traj.grid.tolist() == [0.5]
            assert np.array_equal(traj.states, qubit_rho[None])
        [(s, prop)] = piecewise_exp_propagator(gen, 0.1, 1.0, s_span=(0.5, 0.5))
        assert s == 0.5 and np.array_equal(prop, np.eye(4))

    @pytest.mark.parametrize("s_span", [(1.0, 0.0), (0.0, math.nan), (0.0, math.inf)])
    def test_bad_span_named(self, qubit_rho, s_span):
        gen = lambda s: np.zeros((4, 4))
        for run in (lambda: propagate_rk4(gen, qubit_rho, 10, s_span=s_span),
                    lambda: propagate_piecewise_exp(gen, qubit_rho, 0.1, 1.0, s_span=s_span),
                    lambda: piecewise_exp_propagator(gen, 0.1, 1.0, s_span=s_span)):
            with pytest.raises(ValueError, match="s_span"):
                run()

    @pytest.mark.parametrize("name, run", [
        ("dt", lambda gen, rho: propagate_piecewise_exp(gen, rho, 0.0, 1.0)),
        ("T", lambda gen, rho: propagate_piecewise_exp(gen, rho, 0.1, 0.0)),
        ("dt", lambda gen, rho: propagate_piecewise_exp(gen, rho, -0.1, 1.0)),
        ("dt", lambda gen, rho: propagate_piecewise_exp(gen, rho, math.nan, 1.0)),
        ("steps", lambda gen, rho: propagate_rk4(gen, rho, 0)),
        ("steps", lambda gen, rho: propagate_rk4(gen, rho, -5)),
        ("steps", lambda gen, rho: propagate_rk4(gen, rho, 2.5)),
    ], ids=["dt-zero", "T-zero", "dt-negative", "dt-nan", "steps-zero",
            "steps-negative", "steps-fractional"])
    def test_bad_step_input_named(self, qubit_rho, name, run):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            run(zero_generator, qubit_rho)

    @pytest.mark.parametrize("model", ["holonomy", "random_rotating"])
    def test_integrator_samples_the_frame_grid(self, model, monkeypatch):
        # the generator sees exactly the frame's odd points (step midpoints)
        # and the trajectory carries its even points
        ctx = small_context(model, 20.0, 0.01)
        pieces, seen = ctx.generator.pieces, []

        def record(s, kinds, dissipative):
            seen.append(np.atleast_1d(s))
            return pieces(s, kinds, dissipative)
        monkeypatch.setattr(ctx.generator, "pieces", record)
        _, (traj, _) = lab_trajectories(ctx, [0.1])
        assert np.array_equal(np.concatenate(seen), ctx.frame.grid[1::2])
        assert np.array_equal(traj.grid, ctx.frame.grid[::2])


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

    @pytest.mark.parametrize("vectorized", [False, True])
    def test_oversized_step_inside_chunk(self, qubit_rho, vectorized):
        def gen(s):
            s = np.asarray(s)
            big = (s > 0.3)[..., None, None]
            return np.where(big, 1e4 * np.eye(4), np.zeros((4, 4))) + 0j
        gen.vectorized = vectorized
        # step 30 of 100 is the first oversized one: inside the one chunk,
        # which holds every step
        assert block_length(16 * 4 * 4) >= 99
        with pytest.raises(StepTooLarge):
            propagate_piecewise_exp(gen, qubit_rho, 0.01, 1.0)
        with pytest.raises(StepTooLarge):
            piecewise_exp_propagator(gen, 0.01, 1.0)

    @pytest.mark.parametrize("dim, sizes", [(16, [1, 64, 64, 30]), (128, [1] * 6)])
    def test_chunks_bounded_in_bytes(self, dim, sizes):
        # the call at s0 that sizes the identity, then 64 steps of a 16x16
        # generator per chunk, one step of a 128x128
        seen = []

        def gen(s):
            seen.append(len(s))
            return np.zeros((len(s), dim, dim), dtype=complex)
        gen.vectorized = True
        steps = sum(sizes) - 1
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


PASS = [(0.0, False), (0.0, True), (0.1, False), (0.1, True)]


def stacked_pass(ctx, pencil):
    """Every pair's states of one lockstep pass of ``ctx``'s equations of
    ``PASS``: as the runner's pencil, by the Pade rule at gamma = 0 and the
    action rule at gamma > 0, or else each generator formed, by the Pade
    rule."""
    rho0 = np.stack([ctx.rho0] * len(PASS))
    if pencil:
        gen = functools.partial(ctx.generator.pieces, kinds=(False, True))
        return propagate_piecewise_exp(gen, rho0, ctx.dt, ctx.T, gammas=[0.0, 0.1]).states
    gens = [functools.partial(ctx.generator, gamma=gamma, approximate=approximate)
            for gamma, approximate in PASS]
    gen = vectorized(lambda s: np.stack([g(s) for g in gens], axis=-3))
    return propagate_piecewise_exp(gen, rho0, ctx.dt, ctx.T).states


class TestStackedPass:
    @pytest.mark.parametrize("model", ["holonomy", "random_rotating"])
    def test_pade_pairs_equal_one_equation_runs(self, model):
        # 157 steps: chunks of 16 steps for the pass, of 64 for one
        # equation; gamma = 0 pairs next to action-rule ones
        ctx = small_context(model, 1.57, 0.01)
        states = stacked_pass(ctx, True)
        assert states.shape[1] == 158
        for (gamma, approximate), got in zip(PASS[:2], states):
            gen = (ctx.approximate_generator if approximate else ctx.exact_generator)(gamma)
            alone = evolve_vector_piecewise_exp(gen, vec(ctx.rho0), ctx.dt, ctx.T)[1]
            assert np.array_equal(got, unvec(alone))
            assert np.array_equal(got, unvec(step_by_step(gen, vec(ctx.rho0), ctx.dt, ctx.T)))
        # the Pade rule at gamma > 0 too, whatever else the pass holds
        for (gamma, approximate), got in zip(PASS, stacked_pass(ctx, False)):
            gen = (ctx.approximate_generator if approximate else ctx.exact_generator)(gamma)
            assert np.array_equal(got, unvec(step_by_step(gen, vec(ctx.rho0), ctx.dt, ctx.T)))

    @pytest.mark.parametrize("model", ["holonomy", "random_rotating"])
    def test_action_rule_within_rounding_of_pade(self, model):
        ctx = small_context(model, 1.0, 0.01)
        assert np.abs(stacked_pass(ctx, True) - stacked_pass(ctx, False)).max() <= 1e-13

    def test_rotated_pass_matches_lab_frame_runs(self):
        # the runner's pass: gamma = 0 by the Pade rule, gamma > 0 by the
        # action rule, each pair's lab-frame trajectory in order, against
        # each equation stepped alone as its one-gamma pencil
        ctx = small_context("random_rotating", 1.0, 0.01)
        _, labs = lab_trajectories(ctx, [0.1, 0.0])
        for (gamma, approximate), lab in zip(PASS, labs):
            pencil = functools.partial(ctx.generator.pieces, kinds=(approximate,),
                                       dissipative=gamma != 0.0)
            alone = ctx.to_lab(propagate_piecewise_exp(
                pencil, ctx.initial_components(), ctx.dt, ctx.T, gammas=[gamma]))
            assert np.array_equal(lab.grid, alone.grid)
            if gamma == 0.0:
                assert np.array_equal(lab.states, alone.states)
            else:
                assert np.abs(lab.states - alone.states).max() <= 1e-13

    @pytest.mark.parametrize("first, error", [("big", StepTooLarge), ("nan", NonFinite)])
    def test_one_bad_pair_stops_the_pass(self, qubit_rho, first, error):
        # pair 1 goes bad at s > 0.3 and pair 0 at s > 0.6; the first bad
        # step in s order decides the error
        bad = {"big": 1e4 * np.eye(4), "nan": np.full((4, 4), np.nan)}
        other = "nan" if first == "big" else "big"

        def gen(s):
            s = np.asarray(s)[..., None, None, None]
            out = np.zeros(s.shape[:-3] + (2, 4, 4), dtype=complex)
            out[..., 0, :, :] = np.where(s[..., 0, :, :] > 0.6, bad[other], 0.0)
            out[..., 1, :, :] = np.where(s[..., 0, :, :] > 0.3, bad[first], 0.0)
            return out
        gen.vectorized = True
        with pytest.raises(error):
            propagate_piecewise_exp(gen, np.stack([qubit_rho] * 2), 0.01, 1.0)

    @pytest.mark.parametrize("first, error", [("big", StepTooLarge), ("nan", NonFinite)])
    def test_pair_bad_only_through_its_dissipator_stops_the_pass(self, qubit_rho, first,
                                                                 error):
        # a pencil of two kinds: every base is harmless, and the dissipator
        # piece of kind 1 goes bad at s > 0.3 and that of kind 0 at s > 0.6,
        # so only the gamma > 0 pairs go bad, first in s order
        bad = {"big": 1e4 * np.eye(4), "nan": np.full((4, 4), np.nan)}
        other = "nan" if first == "big" else "big"

        def pencil(s):
            s = np.asarray(s)[:, None, None, None]
            b = np.broadcast_to(0.1j * np.eye(4), (len(s), 2, 4, 4))
            d = np.concatenate([np.where(s > 0.6, bad[other], 0.0),
                                np.where(s > 0.3, bad[first], 0.0)], axis=1) + 0j
            return b, d
        rho0 = np.stack([qubit_rho] * 4)
        with pytest.raises(error):
            propagate_piecewise_exp(pencil, rho0, 0.01, 1.0, gammas=[0.0, 0.5])
        # the gamma = 0 pairs alone never read the bad pieces
        traj = propagate_piecewise_exp(pencil, rho0[:2], 0.01, 1.0, gammas=[0.0])
        assert np.isfinite(traj.states).all()
        with pytest.raises(ValueError, match="Pade-rule equations"):
            propagate_piecewise_exp(pencil, rho0, 0.01, 1.0, gammas=[0.5, 0.0])

    def test_stacked_states_are_one_list_entry_per_equation(self, qubit_rho):
        gen = vectorized(lambda s: np.zeros(np.shape(s) + (3, 4, 4), dtype=complex))
        traj = propagate_piecewise_exp(gen, np.stack([qubit_rho] * 3), 0.1, 1.0)
        assert len(traj.states) == 3 and len(traj.grid) == 11
        for states in traj.states:
            assert states.shape == (11, 2, 2) and states.flags.c_contiguous
            assert np.array_equal(states, np.broadcast_to(qubit_rho, states.shape))


def s_dependent_context(model):
    """A small context whose dissipator has an s-dependent Hamiltonian part
    and an s-dependent jump operator, called one s at a time."""
    rng = np.random.default_rng(11)
    a, b = (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            for _ in range(2))
    f = random_hermitian(rng, 4)
    diss = LindbladDissipator(dim=4, hamiltonian_part=lambda s: (1.0 - s) * f,
                              jump_operators=[lambda s: a + 3.0 * s * b])
    return dataclasses.replace(small_context(model), dissipator=diss)


class TestRotatedDissipator:
    @pytest.mark.parametrize("model", ["holonomy", "random_rotating"])
    def test_s_dependent_dissipator_in_frame(self, model):
        # the dissipator part of both generators is D(s) conjugated into
        # the frame, S(W, W^dag) D(s) S(W^dag, W) with W = C0^dag U(s)
        ctx = s_dependent_context(model)
        gamma = 0.3
        lab = ctx.frame.labels
        pair = [(lab[p % 4], lab[p // 4]) for p in range(16)]
        mask = np.array([[ctx.tensor.g[pair[p] + pair[q]] for q in range(16)]
                         for p in range(16)])
        for i in (1, 5, 12, 19):
            s = ctx.frame.grid[i]
            w = dag(ctx.frame.basis0) @ ctx.frame.u(i)
            conj = (sandwich_superop(w, dag(w)) @ ctx.dissipator.superoperator(s)
                    @ sandwich_superop(dag(w), w))
            for make, expected in ((ctx.exact_generator, conj),
                                   (ctx.approximate_generator, np.where(mask, conj, 0.0))):
                part = (make(gamma)(s) - make(0.0)(s)) / (gamma * ctx.T)
                assert np.abs(part - expected).max() <= 1e-12

    @pytest.mark.parametrize("approximate", [False, True])
    def test_s_dependent_dissipator_on_arrays(self, approximate):
        ctx = s_dependent_context("random_rotating")
        gen = (ctx.approximate_generator if approximate else ctx.exact_generator)(0.3)
        s = ctx.frame.grid[[1, 3, 4, 19]]
        assert np.array_equal(gen(s), np.stack([gen(float(x)) for x in s]))


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
        traj = propagate_rk4(lambda s: np.zeros((4, 4)), qubit_rho, 10)
        assert max(frobenius(st - qubit_rho) for st in traj.states) == 0.0

    def test_samples_the_shared_grid(self, qubit_rho):
        # each step's end sample is the next step's start: 2 steps + 1 calls
        seen = []

        def gen(s):
            seen.append(s)
            return np.zeros((4, 4))
        traj = propagate_rk4(gen, qubit_rho, 10, s_span=(0.25, 1.0))
        grid, _ = propagation.sample_grid(0.075, 1.0, (0.25, 1.0))
        assert seen == grid.tolist()
        assert np.array_equal(traj.grid, grid[::2])

    def test_nan_generator_raises(self, qubit_rho):
        # the exponential integrator's check: NaN is NonFinite, not a NaN state
        nan = lambda s: np.full((4, 4), np.nan)
        with pytest.raises(NonFinite):
            propagate_rk4(nan, qubit_rho, 10)
        with pytest.raises(NonFinite):
            propagate_piecewise_exp(nan, qubit_rho, 0.1, 1.0)

    def test_budget_checks_every_stage(self, qubit_rho):
        # only the first step's midpoint generator is over budget
        gen = lambda s: 1e4 * np.eye(4) if s == 0.05 else np.zeros((4, 4))
        with pytest.raises(StepTooLarge):
            propagate_rk4(gen, qubit_rho, 10)

    def test_cross_validation_gate_model(self):
        # the two integrators are independent; at matched resolution they
        # must agree at the stated preset point
        path = build_orange_path(np.pi / 4)
        fam = holonomy_family(path)
        gen = ExactGenerator(fam, holonomy_dissipator(), 100.0, 0.01)
        psi = initial_state(np.pi / 5, 3 * np.pi / 4)
        rho0 = np.outer(psi, np.conj(psi))
        t_exp = propagate_piecewise_exp(gen, rho0, 0.005, 100.0)
        t_rk4 = propagate_rk4(gen, rho0, 20000)
        assert hs_error_max(t_exp, t_rk4) <= 1e-6

    def test_cross_validation_random_model(self):
        model = make_random_model(7)
        gen = ExactGenerator(model.family(), model.dissipator(), 160.0, 0.01)
        rho0 = model.initial_density()
        t_exp = propagate_piecewise_exp(gen, rho0, 0.01, 160.0)
        t_rk4 = propagate_rk4(gen, rho0, 16000)
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

    def test_monitors_of_states_larger_than_a_block(self):
        # one 129x129 state is larger than a block (block_length)
        rng = np.random.default_rng(5)
        a = rng.standard_normal((2, 129, 129)) + 1j * rng.standard_normal((2, 129, 129))
        rho = a @ dag(a)
        rho /= np.trace(rho, axis1=1, axis2=2).real[:, None, None]
        traj = Trajectory(grid=np.array([0.0, 1.0]), states=rho)
        assert np.array_equal(traj.hermiticity_defects(),
                              np.linalg.norm(rho - dag(rho), axis=(1, 2)))
        assert np.array_equal(traj.min_eigenvalues(),
                              np.linalg.eigvalsh(0.5 * (rho + dag(rho)))[:, 0])
        assert hs_error_max(traj, Trajectory(grid=traj.grid, states=rho[::-1])) == (
            np.linalg.norm(rho - rho[::-1], axis=(1, 2)).max())

    def test_blockwise_monitors_equal_one_shot(self):
        # a whole trajectory of 4,001 samples in one call
        model = make_random_model(3)
        gen = ExactGenerator(model.family(), model.dissipator(), 40.0, 0.03)
        traj = propagate_piecewise_exp(gen, model.initial_density(), 0.01, 40.0)
        rho = traj.states
        assert np.array_equal(traj.hermiticity_defects(),
                              np.linalg.norm(rho - dag(rho), axis=(1, 2)))
        assert np.array_equal(traj.min_eigenvalues(),
                              np.linalg.eigvalsh(0.5 * (rho + dag(rho)))[:, 0])
        reversed_traj = Trajectory(grid=traj.grid, states=rho[::-1].copy())
        assert hs_error_max(traj, reversed_traj) == np.linalg.norm(rho - rho[::-1],
                                                                   axis=(1, 2)).max()


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
