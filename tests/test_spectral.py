import numpy as np
import pytest

from adiabat.errors import (
    AmbiguousClustering,
    DegeneracyChange,
    FrameDiscontinuity,
)
from adiabat.linalg import dag, frobenius, matrix_exponential
from adiabat.models import (
    Gauge,
    build_orange_path,
    build_pole_crossing_path,
    holonomy_family,
    make_random_model,
)
from adiabat import spectral
from adiabat.spectral import (
    HamiltonianFamily,
    SpectralDecomposition,
    build_transport_frame,
    decompose_at,
    decompose_on_grid,
    geometric_term,
    projector_derivative,
)

from conftest import reversed_spectrum_family



def constant_family(h, n_eigenspaces=None):
    h = np.asarray(h, dtype=complex)
    return HamiltonianFamily(dim=h.shape[0], evaluate=lambda s: h,
                             n_eigenspaces=n_eigenspaces)


@pytest.fixture(scope="module")
def rotating():
    return make_random_model(3)


class TestDecompose:
    def test_constant_diagonal(self):
        d = decompose_at(constant_family(np.diag([0.0, 1.0])), 0.3)
        assert d.nspaces == 2
        assert np.allclose(d.energies, [0.0, 1.0])
        assert np.allclose(d.projectors[0], np.diag([1.0, 0.0]))
        assert np.allclose(d.projectors[1], np.diag([0.0, 1.0]))
        d.validate()

    @pytest.mark.parametrize("point", [(0.3, 0.9), (1.2, 4.0), (2.8, 5.5)])
    def test_holonomy_structure(self, point):
        path = build_orange_path(np.pi / 4, 10.0)
        fam = holonomy_family(path)
        # evaluate the numeric decomposition at a synthetic family fixed to
        # the angles of interest
        from adiabat.models import holonomy_hamiltonian
        fixed = constant_family(holonomy_hamiltonian(*point))
        d = decompose_at(fixed, 0.0)
        assert d.nspaces == 3
        assert np.allclose(d.energies, [-1.0, 0.0, 1.0], atol=1e-12)
        assert d.ranks == (1, 2, 1)
        d.validate()

    def test_rotating_matches_direct_diagonalization(self, rotating):
        fam = rotating.family()
        e0 = fam.spectrum(0.0).energies
        for s in np.linspace(0.0, 1.0, 50):
            numeric = decompose_at(fam, s)
            analytic = fam.spectrum(s)
            assert np.max(np.abs(numeric.energies - e0)) < 1e-10
            for p, q in zip(numeric.projectors, analytic.projectors):
                assert frobenius(p - q) < 1e-9

    def test_ambiguous_clustering(self):
        h = np.diag([0.0, 5e-9, 1.0])
        with pytest.raises(AmbiguousClustering):
            decompose_at(constant_family(h), 0.0, degeneracy_tol=1e-8)

    def test_degeneracy_change(self):
        fam = constant_family(np.diag([0.0, 0.0, 1.0]), n_eigenspaces=3)
        with pytest.raises(DegeneracyChange):
            decompose_at(fam, 0.0)

    def test_grid_scan_label_stability(self, rotating):
        holonomy = holonomy_family(build_orange_path(np.pi / 4, 100.0))
        for fam in (rotating.family(), holonomy):
            grid = np.linspace(0.0, 1.0, 41)
            decs = decompose_on_grid(fam, grid)
            for a, b in zip(decs, decs[1:]):
                for k in range(a.nspaces):
                    overlap = np.trace(a.projectors[k] @ b.projectors[k]).real
                    assert overlap >= a.ranks[k] - 0.1


class TestDerivatives:
    def test_constant_family_zero(self):
        fam = constant_family(np.diag([0.0, 1.0, 3.0]))
        ders = projector_derivative(fam, 0.5, h=1e-4)
        assert max(frobenius(d) for d in ders) < 1e-10
        assert frobenius(geometric_term(fam, 0.5)) < 1e-10

    def test_rotating_commutator_oracle(self, rotating):
        fam = rotating.family()
        z = rotating.z
        for s in (0.25, 0.7):
            ders = projector_derivative(fam, s, h=1e-4)
            decomp = fam.spectrum(s)
            for pd, p in zip(ders, decomp.projectors):
                assert frobenius(pd - (-1j) * (z @ p - p @ z)) < 1e-6

    def test_derivative_sum_vanishes(self, rotating):
        fam = rotating.family()
        ders = projector_derivative(fam, 0.4, h=1e-4)
        assert frobenius(sum(ders)) < 1e-8

    def test_holonomy_equator_symbolic_oracle(self):
        # chain-rule differentiation of the closed-form eigenbasis
        path = build_orange_path(np.pi / 4, 100.0)
        fam = holonomy_family(path, Gauge.EQUATOR_REGULAR)
        s = 0.5
        th, ph = path.angles(s)
        dth, dph = path.theta_rate(s), path.phi_rate(s)
        st, ct, sp, cp = np.sin(th), np.cos(th), np.sin(ph), np.cos(ph)
        chi1 = np.array([cp, -sp, 0, 0], complex)
        dchi1 = dph * np.array([-sp, -cp, 0, 0], complex)
        chi2 = np.array([sp * ct, cp * ct, -st, 0], complex)
        dchi2 = (dph * np.array([cp * ct, -sp * ct, 0, 0], complex)
                 + dth * np.array([-sp * st, -cp * st, -ct, 0], complex))
        chi3 = np.array([sp * st, cp * st, ct, 1], complex) / np.sqrt(2)
        dbr = (dph * np.array([cp * st, -sp * st, 0, 0], complex)
               + dth * np.array([sp * ct, cp * ct, -st, 0], complex)) / np.sqrt(2)
        chi4 = np.array([sp * st, cp * st, ct, -1], complex) / np.sqrt(2)

        def outer_d(c, dc):
            return np.outer(dc, np.conj(c)) + np.outer(c, np.conj(dc))

        expected = [
            outer_d(chi4, dbr),                       # energy -1
            outer_d(chi1, dchi1) + outer_d(chi2, dchi2),  # dark
            outer_d(chi3, dbr),                       # energy +1
        ]
        ders = projector_derivative(fam, s, h=1e-4)
        for got, ref in zip(ders, expected):
            assert frobenius(got - ref) < 1e-6

    def test_geometric_term_hermiticity(self, rotating):
        fam = rotating.family()
        q = geometric_term(fam, 0.3, h=1e-4)
        assert frobenius(q - dag(q)) <= max(1e-8, 10 * (1e-4) ** 2)
        # analytic: Q = Z - sum_k P_k Z P_k
        decomp = fam.spectrum(0.3)
        q_ref = rotating.z - sum(p @ rotating.z @ p for p in decomp.projectors)
        assert frobenius(q - q_ref) < 1e-6

    def test_holonomy_equator_hermiticity(self):
        path = build_orange_path(np.pi / 4, 100.0)
        fam = holonomy_family(path, Gauge.EQUATOR_REGULAR)
        q = geometric_term(fam, 0.5, h=1e-5)
        assert frobenius(q - dag(q)) <= 1e-8
        q = geometric_term(fam, 0.5, h=1e-4, richardson=True)
        assert frobenius(q - dag(q)) <= 1e-10


def kink_samples(fam, h):
    """A grid plus points that force every stencil shape at step ``h``."""
    special = [0.0, 1.0, h / 2, 1.0 - h / 2]
    for b in fam.breakpoints:
        special += [b - 1.5 * h, b - h / 2, b, b + h / 2, b + 1.5 * h]
    return np.unique(np.concatenate([np.linspace(0.0, 1.0, 23), special]))


class TestArrayDerivatives:
    """Array calls equal the stack of scalar calls bit for bit."""

    @pytest.mark.parametrize("h", [1e-3, 1e-4])
    @pytest.mark.parametrize("richardson", [False, True])
    @pytest.mark.parametrize("model", ["north_pole", "equator", "random"])
    def test_geometric_term_matches_scalar(self, h, richardson, model):
        if model == "random":
            fam = make_random_model(7).family()
        else:
            fam = holonomy_family(build_orange_path(np.pi / 4, 10.0, (0.3, 0.2, 0.3, 0.2)),
                                  Gauge(model))
        s = kink_samples(fam, h)
        kinds = set(spectral._stencil_kinds(fam, s, h))
        assert kinds == {"central", "forward", "backward"}
        batched = geometric_term(fam, s, h=h, richardson=richardson)
        assert np.array_equal(batched, np.stack(
            [geometric_term(fam, x, h=h, richardson=richardson) for x in s.tolist()]))
        derivs = projector_derivative(fam, s, h=h, richardson=richardson)
        singles = [projector_derivative(fam, x, h=h, richardson=richardson)
                   for x in s.tolist()]
        for k, dp in enumerate(derivs):
            assert np.array_equal(dp, np.stack([d[k] for d in singles]))

    def test_unmarked_spectrum_is_stacked(self, rotating):
        fam = rotating.family()
        plain = HamiltonianFamily(dim=4, evaluate=lambda s: fam.evaluate(s),
                                  analytic_spectrum=lambda s: fam.analytic_spectrum(s))
        s = np.linspace(0.0, 1.0, 11)
        assert np.array_equal(geometric_term(plain, s), geometric_term(fam, s))
        assert np.array_equal(plain.hamiltonian(s), fam.hamiltonian(s))

    def test_rank_change_in_relabel(self):
        # the same projectors, but the declared ranks swap at s = 0.5
        p = [np.diag([1.0, 1.0, 0.0]).astype(complex), np.diag([0.0, 0.0, 1.0]).astype(complex)]

        def spectrum(s):
            ranks = (2, 1) if s < 0.5 else (1, 2)
            return SpectralDecomposition(energies=np.array([0.0, 1.0]), projectors=p,
                                         ranks=ranks)

        fam = HamiltonianFamily(dim=3, evaluate=lambda s: np.diag([0.0, 0.0, 1.0]),
                                analytic_spectrum=spectrum)
        geometric_term(fam, np.array([0.2, 0.3]), h=1e-3)
        with pytest.raises(DegeneracyChange):
            geometric_term(fam, np.array([0.2, 0.5 - 5e-4]), h=1e-3)
        with pytest.raises(DegeneracyChange):
            geometric_term(fam, 0.5 - 5e-4, h=1e-3)

    @pytest.mark.parametrize("ranks", [((2, 1), (1, 2)), ((2, 1), (1, 1, 1))])
    def test_stack_rejects_rank_change(self, ranks):
        def decomp(r):
            return SpectralDecomposition(energies=np.arange(len(r), dtype=float),
                                         projectors=[np.eye(3, dtype=complex)] * len(r),
                                         ranks=r)
        assert SpectralDecomposition.stack([decomp(ranks[0])] * 2).ranks == ranks[0]
        with pytest.raises(DegeneracyChange):
            SpectralDecomposition.stack([decomp(r) for r in ranks])


class TestTransportFrame:
    def test_constant_family(self):
        fam = constant_family(np.diag([0.0, 1.0, 2.0]))
        grid = np.linspace(0.0, 1.0, 11)
        fr = build_transport_frame(fam, grid)
        assert max(frobenius(u - np.eye(3)) for u in fr.U) < 1e-12
        assert max(frobenius(z) for z in fr.Z) < 1e-9

    def test_rotating_numeric_continuation(self, rotating):
        fam = rotating.family()
        grid = np.linspace(0.0, 1.0, 201)
        fam_numeric = HamiltonianFamily(dim=4, evaluate=fam.evaluate,
                                        n_eigenspaces=4)
        fr = build_transport_frame(fam_numeric, grid)
        assert fr.transport_defect(fam_numeric) <= 1e-8
        for i in (0, 100, 200):
            assert frobenius(dag(fr.U[i]) @ fr.U[i] - np.eye(4)) <= 1e-9
        # oracle: U(s) = exp(isZ) up to block-diagonal gauge
        p0 = fam.spectrum(0.0).projectors
        m = fr.U[100] @ dag(matrix_exponential(1j * grid[100] * rotating.z))
        for k in range(4):
            for l in range(4):
                if k != l:
                    assert frobenius(p0[k] @ m @ p0[l]) < 1e-8

    def test_transport_condition_analytic_bases(self):
        path = build_orange_path(np.pi / 4, 10.0)
        grid = np.linspace(0.0, 1.0, 501)
        for gauge in Gauge:
            fam = holonomy_family(path, gauge)
            fr = build_transport_frame(fam, grid, basis=fam.analytic_basis)
            assert fr.transport_defect(fam) <= 1e-9

    def test_gauge_covariance_block_diagonal_mismatch(self):
        # two valid frames differ by unitaries commuting with every P_k(0)
        path = build_orange_path(np.pi / 4, 10.0)
        grid = np.linspace(0.0, 1.0, 201)
        frames = []
        for gauge in Gauge:
            fam = holonomy_family(path, gauge)
            frames.append(build_transport_frame(fam, grid, basis=fam.analytic_basis))
        p0 = holonomy_family(path).spectrum(0.0).projectors
        for i in (50, 120, 200):
            m = frames[0].U[i] @ dag(frames[1].U[i])
            for k in range(3):
                for l in range(3):
                    if k != l:
                        assert frobenius(p0[k] @ m @ p0[l]) <= 1e-8

    def test_pole_crossing_gauges(self):
        path = build_pole_crossing_path()
        grid = np.linspace(0.0, 1.0, 801)
        fam_np = holonomy_family(path, Gauge.NORTH_POLE_REGULAR)
        fr = build_transport_frame(fam_np, grid, basis=fam_np.analytic_basis)
        assert fr.max_jump() < 0.1
        fam_eq = holonomy_family(path, Gauge.EQUATOR_REGULAR)
        with pytest.raises(FrameDiscontinuity):
            build_transport_frame(fam_eq, grid, basis=fam_eq.analytic_basis)

    @pytest.mark.parametrize("gauge", list(Gauge))
    def test_unmarked_basis_gives_same_frame(self, gauge):
        fam = holonomy_family(build_orange_path(np.pi / 4, 10.0), gauge)
        grid = np.linspace(0.0, 1.0, 401)
        marked = build_transport_frame(fam, grid, basis=fam.analytic_basis)
        plain = build_transport_frame(fam, grid, basis=lambda s: fam.analytic_basis(s))
        for name in ("U", "Z", "basis0"):
            assert np.array_equal(getattr(marked, name), getattr(plain, name))


def shipped_families():
    path = build_orange_path(np.pi / 4, 10.0)
    return [holonomy_family(path, gauge) for gauge in Gauge] + [make_random_model(7).family()]


class TestFrameLabelsAndEnergies:
    @pytest.mark.parametrize("fam", shipped_families(), ids=["north_pole", "equator", "random"])
    def test_energies_are_the_spectrum(self, fam, monkeypatch):
        grid = np.linspace(0.0, 1.0, 301)
        want = fam.spectrum(grid).energies
        frame = build_transport_frame(fam, grid, basis=fam.analytic_basis)
        assert np.array_equal(frame.energies, want)
        # evaluated in slices of a few samples: the same table
        monkeypatch.setattr(spectral, "_SPECTRUM_SLICE_BYTES", 7 * 16 * fam.dim ** 3)
        sliced = build_transport_frame(fam, grid, basis=fam.analytic_basis)
        assert np.array_equal(sliced.energies, want)
        assert np.array_equal(sliced.U, frame.U)

    @pytest.mark.parametrize("fam", shipped_families(), ids=["north_pole", "equator", "random"])
    def test_columns_grouped_by_spectrum_labels(self, fam):
        rev = reversed_spectrum_family(fam)
        grid = np.linspace(0.0, 1.0, 51)
        frame = build_transport_frame(rev, grid, basis=rev.analytic_basis)
        p0 = rev.spectrum(0.0).projectors
        for k, sl in enumerate(frame.block_slices):
            cols = frame.basis0[:, sl]
            assert frobenius(p0[k] @ cols - cols) <= 1e-12
        assert np.array_equal(frame.energies[:, ::-1], fam.spectrum(grid).energies)

    def test_basis_across_eigenspaces_rejected(self):
        fam = make_random_model(7).family()
        mix = np.eye(4, dtype=complex)
        mix[:2, :2] = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
        with pytest.raises(ValueError):
            build_transport_frame(fam, np.linspace(0.0, 1.0, 11),
                                  basis=lambda s: fam.analytic_basis(s) @ mix)


class TestFrameLookups:
    @pytest.fixture(scope="class")
    def uneven(self):
        # a non-uniform grid: quadratic spacing, dense near s = 0
        grid = np.linspace(0.0, 1.0, 41) ** 2
        fam = make_random_model(3).family()
        return build_transport_frame(fam, grid, basis=fam.analytic_basis)

    def test_index_of_array_equals_scalar_calls(self, uneven):
        grid = uneven.grid
        idx = np.array([0, 40, 1, 2, 17, 17, 39, 5])
        s = grid[idx] + np.array([0.0, 0.0, 4e-10, -4e-10, 0.0, 5e-10, 0.0, -1e-10])
        got = uneven.index_of(s)
        assert np.array_equal(got, idx)
        assert [uneven.index_of(float(x)) for x in s] == idx.tolist()
        assert isinstance(uneven.index_of(float(s[3])), int)
        assert np.array_equal(uneven.index_of(s.reshape(2, 4)), idx.reshape(2, 4))

    @pytest.mark.parametrize("bad", [0.5 * (0.0025 + 0.01), 1.0 + 1e-6, -1e-6, np.nan])
    def test_index_of_raises_off_grid_and_out_of_range(self, uneven, bad):
        with pytest.raises(KeyError):
            uneven.index_of(bad)
        with pytest.raises(KeyError):
            uneven.index_of(np.array([0.0, 0.25, bad]))

    def test_labels_and_rotation(self, uneven):
        labels = uneven.labels
        for k, sl in enumerate(uneven.block_slices):
            assert (labels[sl] == k).all()
        assert len(labels) == uneven.dim
        s = uneven.grid[[3, 0, 40]]
        w = uneven.rotation(s)
        assert np.array_equal(w, np.stack([uneven.rotation(float(x)) for x in s]))
        assert np.array_equal(w[1], dag(uneven.basis0) @ uneven.U[0])

