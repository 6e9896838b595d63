import numpy as np
import pytest

from adiabat.errors import BadSplit, GaugeSingularity
from adiabat.linalg import dag, frobenius
from adiabat.models import (
    Gauge,
    analytic_eigenbasis,
    approximate_block_matrix,
    build_orange_path,
    closed_form_output,
    computational_projector,
    holonomy_family,
    holonomy_gate,
    holonomy_hamiltonian,
    initial_state,
    make_random_model,
)
from adiabat.propagation import evolve_vector_piecewise_exp

X, Y, DPHI = np.pi / 5, 3 * np.pi / 4, np.pi / 4


class TestHamiltonian:
    def test_north_pole_couples_a_only(self):
        h = holonomy_hamiltonian(0.0, 0.0)
        expected = np.zeros((4, 4), dtype=complex)
        expected[3, 2] = expected[2, 3] = 1.0
        assert np.allclose(h, expected)

    def test_equator_phi_zero_couples_one(self):
        h = holonomy_hamiltonian(np.pi / 2, 0.0)
        expected = np.zeros((4, 4), dtype=complex)
        expected[3, 1] = expected[1, 3] = 1.0
        assert np.allclose(h, expected)

    @pytest.mark.parametrize("seed", range(5))
    def test_spectrum_everywhere(self, seed):
        rng = np.random.default_rng(seed)
        th, ph = rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)
        h = holonomy_hamiltonian(th, ph)
        assert np.allclose(np.linalg.eigvalsh(h), [-1.0, 0.0, 0.0, 1.0], atol=1e-12)
        assert np.allclose(np.sort(np.linalg.eigvalsh(h @ h)), [0, 0, 1, 1],
                           atol=1e-12)


class TestEigenbasis:
    def test_printed_formulas_at_equator(self):
        c = analytic_eigenbasis(np.pi / 2, 0.0, Gauge.EQUATOR_REGULAR)
        assert np.allclose(c[:, 0], [1, 0, 0, 0])          # chi1 = |0>
        assert np.allclose(c[:, 1], [0, 0, -1, 0])         # chi2 = -|a>
        assert np.allclose(c[:, 2], [0, 1 / np.sqrt(2), 0, 1 / np.sqrt(2)])
        assert np.allclose(c[:, 3], [0, 1 / np.sqrt(2), 0, -1 / np.sqrt(2)])

    def test_dark_state_property_random_points(self):
        rng = np.random.default_rng(0)
        worst = 0.0
        for _ in range(100):
            th, ph = rng.uniform(0, 0.95 * np.pi), rng.uniform(0, 2 * np.pi)
            h = holonomy_hamiltonian(th, ph)
            for gauge in Gauge:
                c = analytic_eigenbasis(th, ph, gauge)
                worst = max(worst,
                            frobenius(h @ c[:, :2]),
                            frobenius(h @ c[:, 2] - c[:, 2]),
                            frobenius(h @ c[:, 3] + c[:, 3]),
                            frobenius(dag(c) @ c - np.eye(4)))
        assert worst <= 1e-12

    def test_gauges_share_dark_projector(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            th, ph = rng.uniform(0, 0.95 * np.pi), rng.uniform(0, 2 * np.pi)
            pes = []
            for gauge in Gauge:
                c = analytic_eigenbasis(th, ph, gauge)
                pes.append(c[:, :2] @ dag(c[:, :2]))
            assert frobenius(pes[0] - pes[1]) <= 1e-12

    def test_north_pole_gauge_is_azimuth_free_at_pole(self):
        ref = analytic_eigenbasis(0.0, 0.0, Gauge.NORTH_POLE_REGULAR)
        for ph in (0.5, 2.0, 5.0):
            c = analytic_eigenbasis(0.0, ph, Gauge.NORTH_POLE_REGULAR)
            assert frobenius(c[:, :2] - ref[:, :2]) <= 1e-12

    def test_south_pole_singularity(self):
        with pytest.raises(GaugeSingularity):
            analytic_eigenbasis(np.pi, 0.3, Gauge.NORTH_POLE_REGULAR)
        analytic_eigenbasis(np.pi, 0.3, Gauge.EQUATOR_REGULAR)  # fine


class TestOrangePath:
    def test_segment_boundaries(self):
        path = build_orange_path(DPHI, 100.0)
        assert path.breakpoints == pytest.approx((0.4, 0.6))
        assert path.runtimes == pytest.approx((40.0, 20.0, 40.0, 0.0))

    def test_vertices_visited(self):
        path = build_orange_path(DPHI, 100.0)
        half_pi = np.pi / 2
        assert path.angles(0.0) == pytest.approx((0.0, 0.0))
        assert path.angles(0.4) == pytest.approx((half_pi, 0.0))
        assert path.angles(0.6) == pytest.approx((half_pi, DPHI))
        assert path.angles(1.0) == pytest.approx((0.0, DPHI))

    def test_linear_interpolation(self):
        path = build_orange_path(DPHI, 100.0)
        assert path.theta(0.2) == pytest.approx(np.pi / 4)

    def test_continuity(self):
        path = build_orange_path(DPHI, 50.0)
        grid = np.linspace(0, 1, 1001)
        th = np.array([path.theta(s) for s in grid])
        ph = np.array([path.phi(s) for s in grid])
        assert np.abs(np.diff(th)).max() < 0.01
        assert np.abs(np.diff(ph)).max() < 0.01

    def test_degenerate_path(self):
        path = build_orange_path(0.0, 10.0)
        assert path.degenerate
        assert np.allclose(holonomy_gate(0.0), np.eye(2))

    def test_bad_split(self):
        with pytest.raises(BadSplit):
            build_orange_path(DPHI, 10.0, split=(0.5, 0.5, 0.5, 0.0))
        with pytest.raises(BadSplit):
            build_orange_path(DPHI, 10.0, split=(-0.1, 0.5, 0.6, 0.0))
        with pytest.raises(BadSplit):
            build_orange_path(7.0, 10.0)

    @pytest.mark.parametrize("split", [(np.nan, 0.2, 0.4, 0.4), (0.4, np.inf, 0.4, 0.2),
                                       (0.4, 0.2, 0.4, -np.inf)])
    def test_non_finite_split(self, split):
        # a NaN fraction passes the sign and sum comparisons
        with pytest.raises(BadSplit):
            build_orange_path(DPHI, 10.0, split=split)

    def test_nonzero_fourth_segment(self):
        path = build_orange_path(DPHI, 100.0, split=(0.35, 0.15, 0.35, 0.15))
        assert path.angles(1.0) == pytest.approx((0.0, 0.0))
        assert len(path.segments) == 4


class TestGate:
    def test_identity_at_zero(self):
        assert np.allclose(holonomy_gate(0.0), np.eye(2))

    def test_hadamard_angle(self):
        r = np.sqrt(2) / 2
        assert np.allclose(holonomy_gate(np.pi / 4), [[r, -r], [r, r]])

    def test_quarter_turn(self):
        assert np.allclose(holonomy_gate(np.pi / 2), [[0, -1], [1, 0]])

    def test_unitary_real(self):
        u = holonomy_gate(1.234)
        assert np.allclose(u.imag, 0.0)
        assert frobenius(dag(u) @ u - np.eye(2)) < 1e-12


class TestBlockMatrix:
    def test_equator_point(self):
        path = build_orange_path(DPHI, 100.0)
        gt = 0.1 * 100.0
        m = approximate_block_matrix(path, 0.1, 100.0, 0.5)
        assert np.allclose(m, np.diag([0.0, -gt / 2, -gt / 2, 0.0, 0.0, 0.0]))

    def test_pole_point(self):
        path = build_orange_path(DPHI, 100.0)
        gt = 0.1 * 100.0
        m = approximate_block_matrix(path, 0.1, 100.0, 0.2)  # theta = pi/4 line
        m0 = approximate_block_matrix(path, 0.1, 100.0, 0.0)  # theta = 0
        # dark block dead at the pole, bright 2x2 block as printed
        assert np.allclose(m0[:4, :4], 0.0)
        assert np.allclose(m0[4:, 4:], [[-gt / 4, gt / 4], [gt / 4, -gt / 4]])
        assert not np.allclose(m[:4, :4], 0.0)

    def test_closed_case_only_skew_terms(self):
        # on the shipped path the azimuth only changes on the equator, so at
        # gamma = 0 the matrix vanishes there; on a slanted test path the
        # skew rotation terms survive
        path = build_orange_path(DPHI, 100.0)
        m = approximate_block_matrix(path, 0.0, 100.0, 0.5)
        assert np.allclose(m, 0.0)
        from adiabat.models import HolonomyPath, _Segment
        slant = HolonomyPath(segments=(
            _Segment(0.0, 1.0, np.pi / 4, np.pi / 4, 0.0, np.pi / 2),))
        m = approximate_block_matrix(slant, 0.0, 100.0, 0.5)
        assert np.allclose(m, -m.T)
        assert not np.allclose(m, 0.0)

    def test_gauge_singularity_guard(self):
        from adiabat.models import HolonomyPath, _Segment
        polar_spin = HolonomyPath(segments=(
            _Segment(0.0, 1.0, 0.0, 0.0, 0.0, np.pi),))
        with pytest.raises(GaugeSingularity):
            approximate_block_matrix(polar_spin, 0.1, 10.0, 0.5)
        # one singular sample in an array is enough
        equator_then_pole = HolonomyPath(segments=(
            _Segment(0.0, 0.5, 0.5 * np.pi, 0.5 * np.pi, 0.0, 0.0),
            _Segment(0.5, 1.0, 0.0, 0.0, 0.0, np.pi)))
        approximate_block_matrix(equator_then_pole, 0.1, 10.0, np.array([0.1, 0.4]))
        with pytest.raises(GaugeSingularity):
            approximate_block_matrix(equator_then_pole, 0.1, 10.0, np.array([0.1, 0.7]))

    @pytest.mark.parametrize("gamma", [0.0, 0.1])
    def test_stack_equals_per_sample_calls(self, gamma):
        path = build_orange_path(DPHI, 100.0)
        s = np.concatenate([np.linspace(0.0, 1.0, 501), path.breakpoints])
        stack = approximate_block_matrix(path, gamma, 100.0, s)
        assert stack.shape == (len(s), 6, 6)
        assert np.array_equal(stack, np.stack(
            [approximate_block_matrix(path, gamma, 100.0, x) for x in s.tolist()]))


class TestClosedForm:
    def test_frozen_decay_factors(self):
        # direct evaluation of the printed factors at gamma=0.1, T=100,
        # segment times (40, 20, 40)
        gamma, t1, t2, t3 = 0.1, 40.0, 20.0, 40.0
        out = closed_form_output(X, Y, DPHI, gamma, t1, t2, t3)
        u = holonomy_gate(DPHI)
        rho_prime = dag(u) @ out @ u
        f1 = rho_prime[0, 1]
        assert abs(f1) == pytest.approx(0.5 * np.sin(X) * np.exp(-3.0), abs=1e-12)
        f2_expected = 1.0 / 3.0 + (2.0 / 3.0) * np.exp(-1.5)
        assert rho_prime[1, 1].real == pytest.approx(
            (0.5 - 0.5 * np.cos(X)) * f2_expected, abs=1e-12)
        trace = 0.5 + 0.5 * np.cos(X) + (0.5 - 0.5 * np.cos(X)) * f2_expected
        assert np.trace(out).real == pytest.approx(trace, abs=1e-12)
        assert np.trace(out).real <= 1.0

    def test_closed_limit_pure(self):
        out = closed_form_output(X, Y, DPHI, 0.0, 40.0, 20.0, 40.0)
        assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)
        assert np.trace(out @ out).real == pytest.approx(1.0, abs=1e-12)

    def test_block_ode_reproduces_closed_form(self):
        # the module's central oracle: integrate the 6x6 block generator
        # over the path and compare with the closed form
        gamma, T = 0.1, 100.0
        path = build_orange_path(DPHI, T)
        v0 = np.array([np.cos(X / 2) ** 2,
                       0.5 * np.sin(X) * np.exp(-1j * Y),
                       0.5 * np.sin(X) * np.exp(+1j * Y),
                       np.sin(X / 2) ** 2, 0.0, 0.0], dtype=complex)
        gen = lambda s: approximate_block_matrix(path, gamma, T, s)
        _, vecs = evolve_vector_piecewise_exp(gen, v0, 0.002, T)
        dark = vecs[-1][:4].reshape(2, 2)
        u = holonomy_gate(DPHI)
        out = u @ dark @ dag(u)
        ref = closed_form_output(X, Y, DPHI, gamma, *path.runtimes[:3])
        assert np.abs(out - ref).max() <= 1e-6


class TestHolonomyIndependence:
    def test_output_depends_on_angle_only_through_gate(self):
        # undoing the holonomy rotation leaves an angle-independent state
        from adiabat import runner
        outs = []
        for dphi in (np.pi / 4, np.pi / 3):
            ctx = runner.holonomy_context(dphi, (0.4, 0.2, 0.4, 0.0),
                                          Gauge.NORTH_POLE_REGULAR,
                                          50.0, 0.01, X, Y)
            approx = runner.integrate(ctx, 0.1, approximate=True)
            comp = approx.final_state()[:2, :2]
            u = holonomy_gate(dphi)
            outs.append(u @ comp @ dag(u))
        assert frobenius(outs[0] - outs[1]) <= 1e-6


class TestRandomModel:
    def test_deterministic_per_seed(self):
        a = make_random_model(42)
        b = make_random_model(42)
        assert np.array_equal(a.h0, b.h0)
        assert np.array_equal(a.z, b.z)
        assert np.array_equal(a.a, b.a)
        assert np.array_equal(a.psi0, b.psi0)
        c = make_random_model(43)
        assert not np.array_equal(a.h0, c.h0)

    def test_hermitian_draws(self):
        m = make_random_model(5)
        for mat in (m.h0, m.z, m.a):
            assert frobenius(mat - dag(mat)) <= 1e-15

    def test_unit_initial_state(self):
        m = make_random_model(5)
        assert np.linalg.norm(m.psi0) == pytest.approx(1.0, abs=1e-12)
        rho = m.initial_density()
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)

    def test_isospectral_family(self):
        m = make_random_model(5)
        fam = m.family()
        e0 = np.linalg.eigvalsh(fam.hamiltonian(0.0))
        for s in np.linspace(0.0, 1.0, 20):
            e = np.linalg.eigvalsh(fam.hamiltonian(s))
            assert np.abs(e - e0).max() <= 1e-10


def boundary_samples(path):
    """A grid plus every segment boundary and points just around each."""
    edges = [seg.s0 for seg in path.segments] + [1.0]
    near = [e + d for e in edges for d in (-1e-3, -5e-4, -1e-12, 0.0, 1e-12, 5e-4, 1e-3)]
    return np.unique(np.clip(np.concatenate([np.linspace(0.0, 1.0, 37), near]), 0.0, 1.0))


PATHS = [build_orange_path(DPHI, 10.0), build_orange_path(DPHI, 10.0, (0.3, 0.2, 0.3, 0.2))]


class TestArrays:
    """Array calls equal the stack of scalar calls bit for bit."""

    @pytest.mark.parametrize("path", PATHS)
    def test_angles(self, path):
        s = boundary_samples(path)
        theta, phi = path.angles(s)
        scalar = np.array([path.angles(x) for x in s.tolist()])
        assert np.array_equal(theta, scalar[:, 0])
        assert np.array_equal(phi, scalar[:, 1])

    @pytest.mark.parametrize("path", PATHS)
    @pytest.mark.parametrize("gauge", list(Gauge))
    def test_hamiltonian_basis_spectrum(self, path, gauge):
        s = boundary_samples(path)
        theta, phi = path.angles(s)
        scalar_angles = [path.angles(x) for x in s.tolist()]
        assert np.array_equal(holonomy_hamiltonian(theta, phi),
                              np.stack([holonomy_hamiltonian(*a) for a in scalar_angles]))
        assert np.array_equal(analytic_eigenbasis(theta, phi, gauge),
                              np.stack([analytic_eigenbasis(*a, gauge) for a in scalar_angles]))
        fam = holonomy_family(path, gauge)
        batched = fam.spectrum(s)
        singles = [fam.spectrum(x) for x in s.tolist()]
        assert batched.ranks == singles[0].ranks
        assert np.array_equal(batched.energies, np.stack([d.energies for d in singles]))
        for k in range(3):
            assert np.array_equal(batched.projectors[k],
                                  np.stack([d.projectors[k] for d in singles]))

    @pytest.mark.parametrize("seed", [0, 7])
    def test_random_model(self, seed):
        m = make_random_model(seed)
        fam = m.family()
        s = np.linspace(0.0, 1.0, 29)
        scalar = s.tolist()
        assert np.array_equal(m.rotation(s), np.stack([m.rotation(x) for x in scalar]))
        assert np.array_equal(fam.hamiltonian(s), np.stack([fam.hamiltonian(x) for x in scalar]))
        assert np.array_equal(fam.analytic_basis(s),
                              np.stack([fam.analytic_basis(x) for x in scalar]))
        batched = fam.spectrum(s)
        for k in range(4):
            assert np.array_equal(batched.projectors[k],
                                  np.stack([fam.spectrum(x).projectors[k] for x in scalar]))

    def test_south_pole_in_array(self):
        theta = np.array([0.2, np.pi, 1.0])
        phi = np.zeros(3)
        with pytest.raises(GaugeSingularity):
            analytic_eigenbasis(theta, phi, Gauge.NORTH_POLE_REGULAR)
        analytic_eigenbasis(theta, phi, Gauge.EQUATOR_REGULAR)


class TestInitialState:
    def test_embedding(self):
        psi = initial_state(X, Y)
        assert psi[2] == 0.0 and psi[3] == 0.0
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)
        assert psi[0] == pytest.approx(np.cos(X / 2))
        assert psi[1] == pytest.approx(np.exp(-1j * Y) * np.sin(X / 2))

    def test_projector(self):
        p = computational_projector()
        assert np.allclose(p, np.diag([1, 1, 0, 0]))
