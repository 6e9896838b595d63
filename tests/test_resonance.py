import re

import numpy as np
import pytest

from adiabat.errors import DegeneracyChange, TangentialCrossing
from adiabat.models import build_orange_path, holonomy_family, make_random_model
from adiabat.resonance import (
    CrossingCase,
    ResonanceTensor,
    compute_resonance_tensor,
    gap_function,
)
from adiabat.spectral import SpectralDecomposition

GRID = np.linspace(0.0, 1.0, 201)


def energy_map(fn):
    """Synthetic decomposition provider from a closed-form energy list."""
    def decomp_at(s):
        e = np.asarray(fn(s), dtype=float)
        k = len(e)
        projs = [np.diag([1.0 + 0j if i == j else 0.0 for i in range(k)])
                 for j in range(k)]
        return SpectralDecomposition(energies=e, projectors=projs, ranks=(1,) * k)
    return decomp_at


def brute_force_tensor(energies, grid):
    """Direct enumeration of all K^4 coincidences from an energy schedule."""
    k = len(energies(0.0))
    g = np.zeros((k, k, k, k), dtype=bool)
    samples = np.stack([np.asarray(energies(s), dtype=float) for s in grid])
    for a in range(k):
        for b in range(k):
            for c in range(k):
                for e in range(k):
                    diff = (samples[:, a] - samples[:, b]
                            - samples[:, c] + samples[:, e])
                    g[a, b, c, e] = bool(np.abs(diff).max() <= 1e-9)
    return g


class TestGapFunction:
    def test_self_gap_zero(self):
        d = gap_function(energy_map(lambda s: [0.0, 1.0]), 1, 1)
        assert d(0.3) == 0.0

    def test_antisymmetry_exact(self):
        decomp_at = energy_map(lambda s: [0.0, 1.0, 2.0 - 2.0 * s])
        dpq = gap_function(decomp_at, 0, 2)
        dqp = gap_function(decomp_at, 2, 0)
        for s in np.linspace(0, 1, 7):
            assert dpq(s) == -dqp(s)

    def test_holonomy_bright_gap_constant(self):
        path = build_orange_path(np.pi / 4)
        fam = holonomy_family(path)
        # labels ascending: 0 -> -1, 1 -> dark, 2 -> +1
        d = gap_function(fam.spectrum, 2, 0)
        vals = [d(s) for s in np.linspace(0, 1, 100)]
        assert np.max(np.abs(np.asarray(vals) - 2.0)) <= 1e-10

    def test_rotating_gaps_constant(self):
        fam = make_random_model(5).family()
        d = gap_function(fam.spectrum, 0, 3)
        vals = np.array([d(s) for s in np.linspace(0, 1, 100)])
        assert vals.max() - vals.min() <= 1e-10


class TestResonanceTensor:
    def test_two_level(self):
        t = compute_resonance_tensor(energy_map(lambda s: [0.0, 1.0]), GRID)
        t.validate_identities()
        assert t.g[0, 1, 0, 1]
        assert not t.g[0, 1, 1, 0]

    def test_holonomy_brute_force(self):
        path = build_orange_path(np.pi / 4)
        fam = holonomy_family(path)
        t = compute_resonance_tensor(fam.spectrum, GRID)
        t.validate_identities()
        ref = brute_force_tensor(lambda s: [-1.0, 0.0, 1.0], GRID)
        assert np.array_equal(t.g, ref)
        # the coupled off-diagonal pair: Delta(dark,+) = Delta(-,dark) = -1
        assert t.g[1, 2, 0, 1]
        assert t.g[2, 1, 1, 0]
        # the +- coherence couples to nothing else
        for a in range(3):
            for b in range(3):
                if (a, b) != (2, 0):
                    assert not t.g[2, 0, a, b]

    def test_random_model_identities(self):
        fam = make_random_model(7).family()
        t = compute_resonance_tensor(fam.spectrum, GRID)
        t.validate_identities()
        # generic spectrum: off-diagonal blocks couple only to themselves
        for a in range(4):
            for b in range(4):
                if a == b:
                    continue
                for c in range(4):
                    for e in range(4):
                        assert t.g[a, b, c, e] == ((a, b) == (c, e))

    def test_induced_matrix_symmetric(self):
        fam = make_random_model(7).family()
        t = compute_resonance_tensor(fam.spectrum, GRID)
        m = t.g_matrix()
        assert np.array_equal(m, m.T)

    def test_isolated_crossing_bisection(self):
        decomp_at = energy_map(lambda s: [0.0, 1.0, 2.0 - 2.0 * s])
        t = compute_resonance_tensor(decomp_at, GRID)
        assert not t.g[0, 2, 0, 1]
        hits = [s for (p, q, s) in t.crossing_points
                if {p, q} == {(0, 2), (0, 1)}]
        assert len(hits) == 1
        assert abs(hits[0] - 0.5) <= 1e-6
        assert t.case_of((0, 2), (0, 1)) is CrossingCase.CASE_II
        assert t.case_of((0, 1), (1, 0)) is CrossingCase.CASE_I
        t.validate_identities()

    def test_rank_change_in_per_sample_spectrum(self):
        two = energy_map(lambda s: [0.0, 1.0])(0.0)
        merged = SpectralDecomposition(energies=np.array([0.0, 1.0]),
                                       projectors=two.projectors, ranks=(2, 0))
        with pytest.raises(DegeneracyChange):
            compute_resonance_tensor(lambda s: two if s < 0.5 else merged, GRID)

    def test_grid_refinement_never_flips_coupling(self):
        for fam in (holonomy_family(build_orange_path(np.pi / 4)),
                    make_random_model(7).family()):
            coarse = compute_resonance_tensor(fam.spectrum, GRID)
            fine = compute_resonance_tensor(fam.spectrum,
                                            np.linspace(0.0, 1.0, 401))
            assert not np.any(coarse.g & ~fine.g)

    def test_tangential_crossing_raises(self):
        # Delta_12 - Delta_23 has a double root at s = 0.5
        decomp_at = energy_map(lambda s: [0.0, 1.0, 2.0 - (s - 0.5) ** 2])
        with pytest.raises(TangentialCrossing):
            compute_resonance_tensor(decomp_at, GRID)

    def test_subinterval_coincidence_flagged(self):
        # E3 sticks to E2 + 1 on [0.2, 0.4] only: outside both cases
        def energies(s):
            bump = 0.0
            if s < 0.2:
                bump = 0.2 - s
            elif s > 0.4:
                bump = s - 0.4
            return [0.0, 1.0, 2.0 + bump]
        t = compute_resonance_tensor(energy_map(energies), GRID)
        assert t.flagged
        for (pa, pb) in t.flagged:
            assert not t.g[pa[0], pa[1], pb[0], pb[1]]

    def test_schedule_crossings_pinned(self):
        # E2 falls through the levels 2 and 1 between grid samples, rests at
        # 0.5 on [0.61, 0.71] and rises through 1 and then 2 at the grid
        # sample s = 0.91
        def energies(s):
            return [0.0, 1.0, np.interp(s, [0.0, 0.61, 0.71, 0.91, 1.0],
                                        [2.3, 0.5, 0.5, 2.0, 2.675])]
        t = compute_resonance_tensor(energy_map(energies), GRID)
        down2, down1, up1 = 0.3 * 0.61 / 1.8, 1.3 * 0.61 / 1.8, 0.71 + 0.5 / 7.5

        def level1(*pairs):
            return [(pa, pb, s) for pa, pb in pairs for s in (down1, up1)]

        def level2(pa, pb):
            # the touch at a grid sample comes before the pair's sign change
            return [(pa, pb, 0.91), (pa, pb, down2)]
        expected = (level1(((0, 0), (1, 2)), ((0, 0), (2, 1)), ((0, 1), (0, 2)))
                    + level2((0, 1), (1, 2))
                    + level1(((1, 0), (2, 0)))
                    + level2((1, 0), (2, 1))
                    + level1(((1, 1), (1, 2)), ((1, 1), (2, 1)), ((1, 2), (2, 1)),
                             ((1, 2), (2, 2)), ((2, 1), (2, 2))))
        assert [c[:2] for c in t.crossing_points] == [c[:2] for c in expected]
        assert np.allclose([c[2] for c in t.crossing_points], [c[2] for c in expected],
                           rtol=0.0, atol=1e-6)
        assert t.crossing_points[6][2] == GRID[182]
        assert t.flagged == [((0, 2), (2, 1)), ((1, 2), (2, 0))]

    def test_minimum_grid_size(self):
        with pytest.raises(ValueError):
            compute_resonance_tensor(energy_map(lambda s: [0.0, 1.0]),
                                     np.linspace(0, 1, 20))

    def test_csv_dump(self, tmp_path):
        t = compute_resonance_tensor(energy_map(lambda s: [0.0, 1.0]), GRID)
        out = tmp_path / "tensor.csv"
        t.to_csv(out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "k,l,kp,lp,g"
        assert len(lines) == 1 + 2 ** 4
        assert "0,1,0,1,1" in lines
        assert "0,1,1,0,0" in lines


def generic_tensor(k):
    """The tensor of a spectrum with no gap coincidences but the forced ones."""
    a, b, c, e = np.indices((k, k, k, k))
    return ResonanceTensor(nspaces=k, g=((a == b) & (c == e)) | ((a == c) & (b == e)))


class TestTensorAlgebra:
    def test_g_matrix_index_definition(self):
        k = 3
        g = np.random.default_rng(5).random((k, k, k, k)) < 0.5
        m = ResonanceTensor(nspaces=k, g=g).g_matrix()
        for a, b, c, e in np.ndindex(g.shape):
            assert m[a * k + c, b * k + e] == float(g[a, b, c, e])

    # each tensor breaks the named identity and passes every one checked before it
    @pytest.mark.parametrize("identity, entries", [
        ("g[k,l,k',l] = delta[k,k']", [(0, 1, 2, 1)]),
        ("g[k,l,k,l'] = delta[l,l']", [(1, 0, 1, 2)]),
        ("g[k,k,k',l'] = delta[k',l']", [(0, 0, 1, 2)]),
        ("g[k,l,k',k'] = delta[k,l]", [(1, 2, 0, 0)]),
        ("g[k,l,k',l'] = g[k',l',k,l]", [(0, 1, 1, 2), (1, 0, 2, 1)]),
        ("g[k,l,k',l'] = g[l,k,l',k']", [(0, 1, 1, 2), (1, 2, 0, 1)]),
    ])
    def test_validate_identities_catches_each(self, identity, entries):
        t = generic_tensor(3)
        t.validate_identities()
        for index in entries:
            t.g[index] = not t.g[index]
        with pytest.raises(AssertionError, match=re.escape(identity)):
            t.validate_identities()
