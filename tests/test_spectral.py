import dataclasses

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
    vectorized,
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
        path = build_orange_path(np.pi / 4)
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
        holonomy = holonomy_family(build_orange_path(np.pi / 4))
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
        path = build_orange_path(np.pi / 4)
        fam = holonomy_family(path, Gauge.EQUATOR_REGULAR)
        s = 0.5
        th, ph = path.angles(s)
        dth, dph = path.rates(s)
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
        path = build_orange_path(np.pi / 4)
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
            fam = holonomy_family(build_orange_path(np.pi / 4, (0.3, 0.2, 0.3, 0.2)),
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
        assert max(frobenius(u - np.eye(3)) for u in fr.u(slice(None))) < 1e-12
        assert max(frobenius(z) for z in fr.z(slice(None))) < 1e-9

    def test_rotating_numeric_continuation(self, rotating):
        fam = rotating.family()
        grid = np.linspace(0.0, 1.0, 201)
        fam_numeric = HamiltonianFamily(dim=4, evaluate=fam.evaluate,
                                        n_eigenspaces=4)
        fr = build_transport_frame(fam_numeric, grid)
        assert fr.transport_defect(fam_numeric) <= 1e-8
        for i in (0, 100, 200):
            assert frobenius(dag(fr.u(i)) @ fr.u(i) - np.eye(4)) <= 1e-9
        # oracle: U(s) = exp(isZ) up to block-diagonal gauge
        p0 = fam.spectrum(0.0).projectors
        m = fr.u(100) @ dag(matrix_exponential(1j * grid[100] * rotating.z))
        for k in range(4):
            for l in range(4):
                if k != l:
                    assert frobenius(p0[k] @ m @ p0[l]) < 1e-8

    def test_transport_condition_analytic_bases(self):
        path = build_orange_path(np.pi / 4)
        grid = np.linspace(0.0, 1.0, 501)
        for gauge in Gauge:
            fam = holonomy_family(path, gauge)
            fr = build_transport_frame(fam, grid, basis=fam.analytic_basis)
            assert fr.transport_defect(fam) <= 1e-9

    def test_gauge_covariance_block_diagonal_mismatch(self):
        # two valid frames differ by unitaries commuting with every P_k(0)
        path = build_orange_path(np.pi / 4)
        grid = np.linspace(0.0, 1.0, 201)
        frames = []
        for gauge in Gauge:
            fam = holonomy_family(path, gauge)
            frames.append(build_transport_frame(fam, grid, basis=fam.analytic_basis))
        p0 = holonomy_family(path).spectrum(0.0).projectors
        for i in (50, 120, 200):
            m = frames[0].u(i) @ dag(frames[1].u(i))
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
        fam = holonomy_family(build_orange_path(np.pi / 4), gauge)
        grid = np.linspace(0.0, 1.0, 401)
        marked = build_transport_frame(fam, grid, basis=fam.analytic_basis)
        plain = build_transport_frame(fam, grid, basis=lambda s: fam.analytic_basis(s))
        assert np.array_equal(marked.basis0, plain.basis0)
        for name in ("u", "z", "energies"):
            assert np.array_equal(getattr(marked, name)(slice(None)),
                                  getattr(plain, name)(slice(None)))


    def test_basis_needs_analytic_spectrum(self, rotating):
        # the energies would take one numeric decomposition per grid sample
        fam = rotating.family()
        basis_only = HamiltonianFamily(dim=4, evaluate=fam.evaluate,
                                       analytic_basis=fam.analytic_basis)
        with pytest.raises(ValueError, match="basis"):
            build_transport_frame(basis_only, np.linspace(0.0, 1.0, 11),
                                  basis=basis_only.analytic_basis)


def shipped_families():
    path = build_orange_path(np.pi / 4)
    return [holonomy_family(path, gauge) for gauge in Gauge] + [make_random_model(7).family()]


class TestFrameLabelsAndEnergies:
    @pytest.mark.parametrize("fam", shipped_families(), ids=["north_pole", "equator", "random"])
    def test_energies_are_the_spectrum(self, fam, monkeypatch):
        grid = np.linspace(0.0, 1.0, 301)
        want = fam.spectrum(grid).energies
        frame = build_transport_frame(fam, grid, basis=fam.analytic_basis)
        assert np.array_equal(frame.energies(slice(None)), want)
        # evaluated in windows of a few samples: the same table
        monkeypatch.setattr(spectral, "_window_length", lambda dim: 7)
        sliced = build_transport_frame(fam, grid, basis=fam.analytic_basis)
        assert np.array_equal(sliced.energies(slice(None)), want)
        assert np.array_equal(sliced.u(slice(None)), frame.u(slice(None)))

    @pytest.mark.parametrize("fam", shipped_families(), ids=["north_pole", "equator", "random"])
    def test_columns_grouped_by_spectrum_labels(self, fam):
        rev = reversed_spectrum_family(fam)
        grid = np.linspace(0.0, 1.0, 51)
        frame = build_transport_frame(rev, grid, basis=rev.analytic_basis)
        p0 = rev.spectrum(0.0).projectors
        for k, sl in enumerate(frame.block_slices):
            cols = frame.basis0[:, sl]
            assert frobenius(p0[k] @ cols - cols) <= 1e-12
        assert np.array_equal(frame.energies(slice(None))[:, ::-1], fam.spectrum(grid).energies)

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
        assert np.array_equal(w[1], dag(uneven.basis0) @ uneven.u(0))



def whole_grid_frame(family, grid, frame):
    """``U``, ``Z`` and the energies on the whole grid, as a frame held them
    before it went a window at a time: the basis on every sample at once,
    ``np.gradient`` and the one-sided kink stencils."""
    c = np.asarray(family.analytic_basis(grid), dtype=complex)
    # the frame's column grouping: basis0 is the basis at grid[0], regrouped
    order = [next(j for j in range(frame.dim) if np.array_equal(c[0, :, j], col))
             for col in frame.basis0.T]
    u = frame.basis0 @ dag(c[:, :, order])
    du = np.gradient(u, grid, axis=0, edge_order=2)
    n, spacing = len(grid), np.diff(grid)
    lo = np.concatenate((grid[:1], grid[:-1]))
    hi = np.concatenate((grid[1:], grid[-1:]))
    near = [((lo < b) & (b < hi)) | (np.abs(b - grid) < 1e-15) for b in family.breakpoints]
    for i in np.flatnonzero(np.any(near, axis=0)) if near else ():
        b = next(b for b, hit in zip(family.breakpoints, near) if hit[i])
        if grid[i] <= b and i >= 2:
            du[i] = (3 * u[i] - 4 * u[i - 1] + u[i - 2]) / (2 * spacing[i - 1])
        elif i + 2 < n:
            du[i] = (-3 * u[i] + 4 * u[i + 1] - u[i + 2]) / (2 * spacing[i])
    z = np.einsum("nij,nkj->nik", 1j * du, np.conj(u))
    z = 0.5 * (z + np.conj(np.transpose(z, (0, 2, 1))))
    return u, z, family.spectrum(grid).energies


def kinked_family():
    # the gate's path at T = 10: kinks at s = 0.4 and 0.6, and 0.8 with
    # split (0.4, 0.2, 0.2, 0.2)
    return holonomy_family(build_orange_path(np.pi / 4, (0.4, 0.2, 0.2, 0.2)))


class TestWindowedFrame:
    """The frame goes a window of samples at a time and gives the bits of
    the whole-grid construction whatever the window size and lookup order."""

    @pytest.mark.parametrize("length", [1, 2, 3, 4, 5, 6, 7, None])
    @pytest.mark.parametrize("model", ["holonomy", "random"])
    @pytest.mark.parametrize("steps", [250, 1024])
    def test_window_sizes_give_whole_grid_bits(self, model, steps, length, monkeypatch):
        # 250 steps: spacings that differ in the last bit, np.gradient's
        # non-uniform branch; 1,024 steps: bit-equal spacings, its uniform one
        fam = kinked_family() if model == "holonomy" else make_random_model(7).family()
        grid = np.linspace(0.0, 1.0, 2 * steps + 1)
        spacing = np.diff(grid)
        assert (spacing == spacing[0]).all() == (steps == 1024)
        if length is not None:
            monkeypatch.setattr(spectral, "_window_length", lambda dim: length)
        frame = build_transport_frame(fam, grid, basis=fam.analytic_basis)
        u, z, e = whole_grid_frame(fam, grid, frame)
        assert np.array_equal(frame.u(slice(None)), u)
        assert np.array_equal(frame.z(slice(None)), z)
        assert np.array_equal(frame.energies(slice(None)), e)

    @pytest.mark.parametrize("offset", [-2, -1, 0, 1, 2])
    def test_kink_on_a_window_boundary(self, offset, monkeypatch):
        # windows sit on the multiples of the length
        fam = kinked_family()
        grid = np.linspace(0.0, 1.0, 2 * 250 + 1)
        kink = int(np.argmin(np.abs(grid - fam.breakpoints[0])))
        monkeypatch.setattr(spectral, "_window_length", lambda dim: kink + offset)
        frame = build_transport_frame(fam, grid, basis=fam.analytic_basis)
        u, z, e = whole_grid_frame(fam, grid, frame)
        assert np.array_equal(frame.z(slice(None)), z)
        assert np.array_equal(frame.u(slice(None)), u)

    def test_pass_lookup_order(self, monkeypatch):
        # a pass: Z, energies and U at a chunk's midpoints, then U at its
        # states, chunk after chunk; and lookups in any order
        fam = kinked_family()
        grid = np.linspace(0.0, 1.0, 2 * 300 + 1)
        monkeypatch.setattr(spectral, "_window_length", lambda dim: 37)
        frame = build_transport_frame(fam, grid, basis=fam.analytic_basis)
        u, z, e = whole_grid_frame(fam, grid, frame)
        for k in range(0, 300, 16):
            mid = np.arange(2 * k + 1, min(2 * (k + 16), 600), 2)
            assert np.array_equal(frame.z(mid), z[mid])
            assert np.array_equal(frame.energies(mid), e[mid])
            assert np.array_equal(frame.u(mid), u[mid])
            assert np.array_equal(frame.u(mid + 1), u[mid + 1])
        idx = np.random.default_rng(0).permutation(len(grid))[:200].reshape(10, 20)
        assert np.array_equal(frame.z(idx), z[idx])
        assert np.array_equal(frame.u(idx), u[idx])
        assert np.array_equal(frame.energies(-1), e[-1])
        assert frame.z(np.array([], dtype=int)).shape == (0, 4, 4)

    def test_pass_makes_each_window_once(self, monkeypatch):
        # a pass's lookups straddle window ends (Z, energies and U at a
        # chunk's midpoints, then U at its states): with the latest two
        # windows kept, each window of the grid is made once
        fam = kinked_family()
        grid = np.linspace(0.0, 1.0, 2 * 300 + 1)
        monkeypatch.setattr(spectral, "_window_length", lambda dim: 37)
        frame = build_transport_frame(fam, grid, basis=fam.analytic_basis)
        starts = []

        class Window(spectral._Window):
            def __init__(self, start, *args):
                super().__init__(start, *args)
                starts.append(start)

        monkeypatch.setattr(spectral, "_Window", Window)
        for k in range(0, 300, 16):
            mid = np.arange(2 * k + 1, min(2 * (k + 16), 600), 2)
            frame.z(mid)
            frame.energies(mid)
            frame.u(mid)
            frame.u(mid + 1)
        assert len(starts) == 17 and starts == list(range(0, len(grid), 37))

    def test_one_evaluation_per_window(self, monkeypatch):
        # the basis is evaluated once per window made, on its halo range,
        # and the spectrum at most once per window, on its samples, whatever
        # the parity of the indices asked for
        fam = kinked_family()
        grid = np.linspace(0.0, 1.0, 2 * 300 + 1)
        monkeypatch.setattr(spectral, "_window_length", lambda dim: 37)
        windows, current, calls = [], [-1], {"basis": [], "spectrum": []}

        class Window(spectral._Window):
            def __init__(self, *args):
                super().__init__(*args)
                self.j = current[0] = len(windows)
                windows.append(self)

            def value(self, name, fn):
                current[0] = self.j
                return super().value(name, fn)

        def counted(name, fn):
            @vectorized
            def call(s):        # the samples asked for, and the window made or read then
                calls[name].append((s, current[0]))
                return fn(s)
            return call

        monkeypatch.setattr(spectral, "_Window", Window)
        counting = dataclasses.replace(
            fam, analytic_spectrum=counted("spectrum", fam.analytic_spectrum))
        frame = build_transport_frame(counting, grid, basis=counted("basis", fam.analytic_basis))
        # the build: grid[0] twice (labels and basis0), then the jump check
        # through every window
        assert len(calls["basis"]) == 2 + -(-len(grid) // 37)
        assert len(calls["spectrum"]) == 1
        assert [w.start for w in windows] == list(range(0, len(grid), 37))
        built = len(windows)
        u, z, e = whole_grid_frame(fam, grid, frame)
        calls = {"basis": [], "spectrum": []}
        for k in range(0, 300, 16):
            mid = np.arange(2 * k + 1, min(2 * (k + 16), 600), 2)
            assert np.array_equal(frame.z(mid), z[mid])
            assert np.array_equal(frame.energies(mid), e[mid])
            assert np.array_equal(frame.u(mid), u[mid])
            assert np.array_equal(frame.u(mid + 1), u[mid + 1])
        # any order: both parities in one window
        idx = np.random.default_rng(0).permutation(len(grid))[:200].reshape(10, 20)
        assert np.array_equal(frame.z(idx), z[idx])
        assert np.array_equal(frame.energies(idx), e[idx])
        assert np.array_equal(frame.u(idx), u[idx])
        assert [(s.tolist(), j) for s, j in calls["basis"]] == [
            (grid[w.lo:w.hi].tolist(), j) for j, w in enumerate(windows) if j >= built]
        made = [j for _, j in calls["spectrum"]]
        assert made == sorted(set(made))
        assert all(np.array_equal(s, grid[windows[j].start:windows[j].stop])
                   for s, j in calls["spectrum"])

    def test_numeric_continuation_windows(self, rotating, monkeypatch):
        fam = rotating.family()
        numeric = HamiltonianFamily(dim=4, evaluate=fam.evaluate, n_eigenspaces=4)
        grid = np.linspace(0.0, 1.0, 61)
        whole = build_transport_frame(numeric, grid)
        monkeypatch.setattr(spectral, "_window_length", lambda dim: 3)
        windowed = build_transport_frame(numeric, grid)
        for name in ("u", "z", "energies"):
            assert np.array_equal(getattr(windowed, name)(slice(None)),
                                  getattr(whole, name)(slice(None)))

    @pytest.mark.parametrize("length", [1, 5, None])
    def test_first_jump_raised_in_s_order(self, length, monkeypatch):
        # the equator gauge jumps where the path crosses the pole; the
        # message names the first jumping pair whatever the window size
        path = build_pole_crossing_path()
        grid = np.linspace(0.0, 1.0, 801)
        fam = holonomy_family(path, Gauge.EQUATOR_REGULAR)
        c = fam.analytic_basis(grid)
        jumps = np.linalg.norm(np.diff(c[0] @ dag(c), axis=0), axis=(1, 2))
        first = np.flatnonzero(jumps > 0.5)[0]
        if length is not None:
            monkeypatch.setattr(spectral, "_window_length", lambda dim: length)
        with pytest.raises(FrameDiscontinuity, match=f"between s={grid[first]:.6g} and "
                                                     f"s={grid[first + 1]:.6g}"):
            build_transport_frame(fam, grid, basis=fam.analytic_basis)
