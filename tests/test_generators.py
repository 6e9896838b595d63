import functools
import itertools

import numpy as np
import pytest

from adiabat import runner

from adiabat.errors import (
    AmbiguousClustering,
    BlockNotClosed,
    DimensionMismatch,
    NegativeGSpectrum,
)
from adiabat.generators import (
    ApproximateGenerator,
    ExactGenerator,
    LindbladDissipator,
    approximate_generator,
    block_component_indices,
    choi_matrix,
    cp_check,
    exact_generator,
    filtered_dissipator_superop,
    hamiltonian_superop,
    lindblad_factorize,
    rotated_block_generator,
    trace_preservation_defect,
)
from adiabat.linalg import (
    dag,
    frobenius,
    matrix_exponential,
    sandwich_superop,
    unvec,
    vec,
)
from adiabat.models import (
    Gauge,
    HolonomyPath,
    _Segment,
    approximate_block_matrix,
    build_orange_path,
    holonomy_dissipator,
    holonomy_family,
    make_random_model,
)
from adiabat.propagation import evolve_vector_piecewise_exp, propagate_piecewise_exp
from adiabat.resonance import ResonanceTensor, compute_resonance_tensor
from adiabat.spectral import (
    HamiltonianFamily,
    SpectralDecomposition,
    build_transport_frame,
    geometric_term,
    vectorized,
)

from conftest import random_density, random_hermitian, reversed_spectrum_family

GRID = np.linspace(0.0, 1.0, 201)


def constant_family(h, **kw):
    h = np.asarray(h, dtype=complex)
    return HamiltonianFamily(dim=h.shape[0], evaluate=lambda s: h, **kw)


@pytest.fixture(scope="module")
def holonomy_setup():
    path = build_orange_path(np.pi / 4)
    fam = holonomy_family(path, Gauge.EQUATOR_REGULAR)
    diss = holonomy_dissipator()
    tensor = compute_resonance_tensor(fam.spectrum, GRID)
    return path, fam, diss, tensor


@pytest.fixture(scope="module")
def random_setup():
    model = make_random_model(7)
    fam = model.family()
    return model, fam, model.dissipator(), compute_resonance_tensor(fam.spectrum, GRID)


class TestDissipator:
    def test_double_commutator_equivalence(self, rng):
        a = random_hermitian(rng, 3)
        diss = LindbladDissipator.double_commutator(a)
        rho = random_density(rng, 3)
        expected = -(a @ (a @ rho - rho @ a) - (a @ rho - rho @ a) @ a)
        assert frobenius(unvec(diss.superoperator(0.0) @ vec(rho)) - expected) < 1e-12

    def test_traceless_action(self, rng):
        v = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        diss = LindbladDissipator.constant([v], f=random_hermitian(rng, 4))
        for _ in range(5):
            rho = random_density(rng, 4)
            assert abs(np.trace(unvec(diss.superoperator(0.3) @ vec(rho)))) < 1e-12


class TestExactGenerator:
    def test_closed_diagonal_hamiltonian(self):
        fam = constant_family(np.diag([0.0, 1.0, 2.5]))
        diss = LindbladDissipator.constant([np.zeros((3, 3))])
        T = 4.0
        g = exact_generator(fam, diss, T, 0.0, 0.2)
        # anti-Hermitian superoperator with eigenvalues -iT(E_row - E_col)
        assert frobenius(g + dag(g)) < 1e-12
        e = np.array([0.0, 1.0, 2.5])
        for i in range(3):
            for j in range(3):
                unit = np.zeros((3, 3), dtype=complex)
                unit[i, j] = 1.0
                out = unvec(g @ vec(unit))
                assert frobenius(out - (-1j) * T * (e[i] - e[j]) * unit) < 1e-12

    def test_qubit_dephasing_rate(self):
        # D(rho) = -[Z,[Z,rho]] via the jump sqrt(2) Z: coherences damp at 4*Gamma*T
        z = np.diag([1.0, -1.0]).astype(complex)
        fam = constant_family(np.zeros((2, 2)))
        diss = LindbladDissipator.double_commutator(z)
        T, gamma = 3.0, 0.2
        g = exact_generator(fam, diss, T, gamma, 0.0)
        unit = np.zeros((2, 2), dtype=complex)
        unit[0, 1] = 1.0
        out = unvec(g @ vec(unit))
        assert frobenius(out - (-4.0 * gamma * T) * unit) < 1e-12

    def test_dimension_mismatch(self):
        fam = constant_family(np.zeros((3, 3)))
        diss = LindbladDissipator.constant([np.zeros((2, 2))])
        with pytest.raises(DimensionMismatch):
            exact_generator(fam, diss, 1.0, 0.1, 0.0)

    def test_dark_coherence_damping_rate(self, holonomy_setup):
        # at the equator the instantaneous-basis dark coherence damps at
        # Gamma*T/2, matching the closed-form block generator
        path, fam, diss, tensor = holonomy_setup
        T, gamma, s = 100.0, 0.1, 0.5
        g = exact_generator(fam, diss, T, gamma, s)
        c = fam.analytic_basis(s)
        w = dag(c)
        ghat = sandwich_superop(w, dag(w)) @ g @ sandwich_superop(dag(w), w)
        # component (dark1, dark2) = basis columns 0, 1 -> vec index 1*4+0
        idx = 4
        rate = ghat[idx, idx]
        assert abs(rate - (-0.5 * gamma * T)) < 1e-9
        m = approximate_block_matrix(path, gamma, T, s)
        assert abs(m[1, 1] - rate) < 1e-9


class TestGeneratorProperties:
    @pytest.mark.parametrize("which", ["exact", "approximate"])
    def test_trace_preservation(self, which, holonomy_setup, random_setup):
        for setup, s in ((holonomy_setup, 0.37), (random_setup, 0.61)):
            fam, diss, tensor = setup[1], setup[2], setup[3]
            if which == "exact":
                g = exact_generator(fam, diss, 7.0, 0.3, s)
            else:
                g = approximate_generator(fam, diss, tensor, 7.0, 0.3, s)
            assert trace_preservation_defect(g) <= 1e-9

    def test_hermiticity_preservation(self, rng, random_setup):
        # evolving rho^dagger must equal the adjoint of evolving rho
        model, fam, diss, tensor = random_setup
        q = lambda s: geometric_term(fam, s, h=1e-4, richardson=True)
        for g in (exact_generator(fam, diss, 5.0, 0.2, 0.3),
                  approximate_generator(fam, diss, tensor, 5.0, 0.2, 0.3, q)):
            x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            lhs = unvec(g @ vec(dag(x)))
            rhs = dag(unvec(g @ vec(x)))
            assert frobenius(lhs - rhs) < 1e-9


class TestApproximateGenerator:
    def test_closed_limit_is_coherent_part(self, random_setup):
        model, fam, diss, tensor = random_setup
        s = 0.42
        q = lambda s_: geometric_term(fam, s_, h=1e-4)
        g = approximate_generator(fam, diss, tensor, 9.0, 0.0, s, q)
        ref = hamiltonian_superop(9.0 * fam.hamiltonian(s) + q(s))
        assert frobenius(g - ref) < 1e-12

    def test_single_eigenspace_keeps_full_dissipator(self, rng):
        # H proportional to the identity: all projector filters collapse and
        # the approximate dissipator equals the exact one
        fam = constant_family(2.5 * np.eye(2), n_eigenspaces=1)
        v = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        diss = LindbladDissipator.constant([v])
        tensor = compute_resonance_tensor(fam.spectrum, GRID)
        assert tensor.g.shape == (1, 1, 1, 1) and tensor.g[0, 0, 0, 0]
        T, gamma, s = 3.0, 0.4, 0.2
        g_app = approximate_generator(fam, diss, tensor, T, gamma, s)
        g_ex = exact_generator(fam, diss, T, gamma, s)
        q = geometric_term(fam, s)
        assert frobenius(g_app - (g_ex + hamiltonian_superop(q))) < 1e-10


@pytest.fixture(scope="module")
def slanted():
    # constant-latitude sweep: nonzero azimuth rate away from the equator
    # exercises every term of the block generator
    seg = _Segment(0.0, 1.0, np.pi / 4, np.pi / 4, 0.0, np.pi / 2)
    path = HolonomyPath(segments=(seg,))
    fam = holonomy_family(path, Gauge.EQUATOR_REGULAR)
    frame = build_transport_frame(fam, np.linspace(0.0, 1.0, 100001),
                                  basis=fam.analytic_basis)
    tensor = compute_resonance_tensor(fam.spectrum, GRID)
    return path, fam, holonomy_dissipator(), tensor, frame


def lab_case(model):
    """Family, dissipator, tensor and samples crossing every breakpoint."""
    if model == "random":
        m = make_random_model(7)
        fam = m.family()
        diss = m.dissipator()
    else:
        fam = holonomy_family(build_orange_path(np.pi / 4), Gauge(model))
        diss = holonomy_dissipator()
    s = np.unique(np.concatenate([np.linspace(0.0, 1.0, 21), [1e-4, 1.0 - 1e-4],
                                  [b + d for b in fam.breakpoints
                                   for d in (-5e-4, 0.0, 5e-4)]]))
    return fam, diss, compute_resonance_tensor(fam.spectrum, GRID), s


class TestLabGeneratorArrays:
    """The lab-frame generators on an array equal the stack of scalar calls
    bit for bit, and scalar-only families integrate to the same bits."""

    @pytest.mark.parametrize("model", ["north_pole", "equator", "random"])
    @pytest.mark.parametrize("gamma", [0.0, 0.05])
    def test_generators_match_scalar(self, model, gamma):
        fam, diss, tensor, s = lab_case(model)
        q_of_s = vectorized(lambda x: geometric_term(fam, x, h=1e-3, richardson=True))
        for gen in (ExactGenerator(fam, diss, 10.0, gamma),
                    ApproximateGenerator(fam, diss, tensor, 10.0, gamma),
                    ApproximateGenerator(fam, diss, tensor, 10.0, gamma, q_of_s=q_of_s)):
            assert gen.vectorized
            assert np.array_equal(gen(s), np.stack([gen(x) for x in s.tolist()]))

    def test_filtered_dissipator_stack(self, holonomy_setup):
        path, fam, diss, tensor = holonomy_setup
        s = np.array([0.1, 0.45, 0.8])
        stacked = filtered_dissipator_superop(diss, tensor, fam.spectrum(s), s)
        for i, x in enumerate(s.tolist()):
            assert np.array_equal(
                stacked[i], filtered_dissipator_superop(diss, tensor, fam.spectrum(x), x))

    @pytest.mark.parametrize("model", ["north_pole", "random"])
    def test_unmarked_family_same_bits(self, model):
        fam, diss, tensor, _ = lab_case(model)
        plain = HamiltonianFamily(dim=fam.dim, evaluate=lambda x: fam.evaluate(x),
                                  analytic_spectrum=lambda x: fam.analytic_spectrum(x),
                                  n_eigenspaces=fam.n_eigenspaces,
                                  breakpoints=fam.breakpoints)
        plain_diss = LindbladDissipator(dim=diss.dim, jump_operators=[
            (lambda x, v=v: v(x)) for v in diss.jump_operators])
        rho0 = np.diag([0.5, 0.3, 0.2, 0.0]).astype(complex)
        q_plain = lambda x: geometric_term(plain, x, h=1e-3, richardson=True)
        q_marked = vectorized(lambda x: geometric_term(fam, x, h=1e-3, richardson=True))
        for gamma in (0.0, 0.1):
            pairs = [(ExactGenerator(plain, plain_diss, 2.0, gamma),
                      ExactGenerator(fam, diss, 2.0, gamma)),
                     (ApproximateGenerator(plain, plain_diss, tensor, 2.0, gamma, q_plain),
                      ApproximateGenerator(fam, diss, tensor, 2.0, gamma, q_marked))]
            for gen_plain, gen_marked in pairs:
                a = propagate_piecewise_exp(gen_plain, rho0, 0.02, 2.0)
                b = propagate_piecewise_exp(gen_marked, rho0, 0.02, 2.0)
                assert np.array_equal(a.states, b.states)


def defining_sum(diss, tensor, decomp, s):
    """``sum g_abk'l' P_a D_s(P_k' E_ij P_l') P_b`` on every matrix unit
    ``E_ij``, written out term by term, as a superoperator."""
    d, projs, superop = decomp.dim, decomp.projectors, diss.superoperator(s)
    out = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            unit = np.zeros((d, d), dtype=complex)
            unit[i, j] = 1.0
            image = np.zeros((d, d), dtype=complex)
            for a, b, kp, lp in np.argwhere(tensor.g):
                image += projs[a] @ unvec(superop @ vec(projs[kp] @ unit @ projs[lp])) @ projs[b]
            out[:, j * d + i] = vec(image)
    return out


def filtered_case(name):
    """Family, dissipator and tensor of a named filtered-dissipator case."""
    if name in ("north_pole", "equator"):
        gauge = Gauge.EQUATOR_REGULAR if name == "equator" else Gauge.NORTH_POLE_REGULAR
        fam = holonomy_family(build_orange_path(np.pi / 4), gauge)
        diss = holonomy_dissipator()
    elif name == "single":
        rng = np.random.default_rng(5)
        fam = constant_family(2.5 * np.eye(3), n_eigenspaces=1)
        diss = LindbladDissipator.constant(
            [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))],
            f=random_hermitian(rng, 3))
    else:
        model = make_random_model(3 if name == "random_3" else 7)
        fam, diss = model.family(), model.dissipator()
    tensor = compute_resonance_tensor(fam.spectrum, GRID)
    if name == "random_pair_cut":
        # drop the population transfer between eigenspaces 0 and 2
        g = tensor.g.copy()
        assert g[0, 0, 2, 2] and g[2, 2, 0, 0]
        g[0, 0, 2, 2] = g[2, 2, 0, 0] = False
        tensor = ResonanceTensor(nspaces=tensor.nspaces, g=g)
    return fam, diss, tensor


class TestFilteredDissipator:
    """The masked change of basis equals the defining projector sum, takes
    its labels from the decomposition's order and refuses projectors that
    do not resolve the identity."""

    @pytest.mark.parametrize("name", ["north_pole", "equator", "random_7", "random_3",
                                      "single", "random_pair_cut"])
    def test_equals_defining_sum(self, name):
        fam, diss, tensor = filtered_case(name)
        for s in (0.13, 0.5, 0.86):
            decomp = fam.spectrum(s)
            want = defining_sum(diss, tensor, decomp, s)
            got = filtered_dissipator_superop(diss, tensor, decomp, s)
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_cut_pair_changes_result(self):
        # the reference case above is not vacuous: the cut coupling matters
        fam, diss, cut = filtered_case("random_pair_cut")
        full = compute_resonance_tensor(fam.spectrum, GRID)
        decomp = fam.spectrum(0.5)
        diff = (filtered_dissipator_superop(diss, full, decomp, 0.5)
                - filtered_dissipator_superop(diss, cut, decomp, 0.5))
        assert np.abs(diff).max() > 1e-3

    @pytest.mark.parametrize("name", ["north_pole", "random_pair_cut"])
    def test_labels_follow_decomposition_order(self, name):
        fam, diss, tensor = filtered_case(name)
        s = np.array([0.2, 0.55, 0.9])
        decomp = fam.spectrum(s)
        want = filtered_dissipator_superop(diss, tensor, decomp, s)
        for perm in itertools.permutations(range(decomp.nspaces)):
            perm = list(perm)
            permuted = SpectralDecomposition(
                energies=decomp.energies[..., perm],
                projectors=[decomp.projectors[k] for k in perm],
                ranks=tuple(decomp.ranks[k] for k in perm))
            g = tensor.g[np.ix_(perm, perm, perm, perm)]
            got = filtered_dissipator_superop(
                diss, ResonanceTensor(nspaces=tensor.nspaces, g=g), permuted, s)
            # the result is a lab-frame superoperator: it carries no labels
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("case", ["overlapping", "incomplete", "wrong_ranks"])
    def test_projectors_must_resolve_identity(self, case):
        e0 = np.diag([1.0, 0.0, 0.0]).astype(complex)
        e1 = np.diag([0.0, 1.0, 0.0]).astype(complex)
        e2 = np.diag([0.0, 0.0, 1.0]).astype(complex)
        projectors, ranks = {
            "overlapping": ([e0 + e1, e1, e2], (2, 1, 1)),
            "incomplete": ([e0, e1], (1, 1)),
            "wrong_ranks": ([e0, e1 + e2], (2, 1)),
        }[case]
        decomp = SpectralDecomposition(energies=np.arange(len(ranks), dtype=float),
                                       projectors=projectors, ranks=ranks)
        tensor = ResonanceTensor(nspaces=len(ranks),
                                 g=np.ones((len(ranks),) * 4, dtype=bool))
        diss = LindbladDissipator.constant([np.diag([1.0, 2.0, 3.0])])
        with pytest.raises(AmbiguousClustering, match="off its label"):
            filtered_dissipator_superop(diss, tensor, decomp, 0.0)


class TestRotatedBlocks:
    def test_matches_printed_block_matrix(self, slanted):
        path, fam, diss, tensor, frame = slanted
        T, gamma = 3.0, 0.2
        sl = frame.block_slices
        dk0, dk1 = sl[1].start, sl[1].start + 1
        pl, mn = sl[2].start, sl[0].start
        order = [dk0 + 4 * dk0, dk0 + 4 * dk1, dk1 + 4 * dk0, dk1 + 4 * dk1,
                 pl + 4 * pl, mn + 4 * mn]
        for s in (0.25, 0.5):
            g = rotated_block_generator(diss, tensor, frame, T, gamma, s,
                                        "diagonal")
            got = g[np.ix_(order, order)]
            assert frobenius(got - approximate_block_matrix(path, gamma, T, s)) <= 1e-9

    def test_block_not_closed(self, slanted):
        path, fam, diss, tensor, frame = slanted
        # the (dark, +) coherence couples to (-, dark); omitting it must fail
        with pytest.raises(BlockNotClosed):
            rotated_block_generator(diss, tensor, frame, 3.0, 0.2, 0.5,
                                    [(1, 2)])
        g = rotated_block_generator(diss, tensor, frame, 3.0, 0.2, 0.5,
                                    [(1, 2), (0, 1)])
        assert g.shape == (16, 16)

    def test_custom_block_set(self, slanted):
        path, fam, diss, tensor, frame = slanted
        labels, d = frame.labels, frame.dim
        chosen = [(1, 2), (0, 1)]
        expected = [p for p in range(d * d) if (labels[p % d], labels[p // d]) in chosen]
        assert block_component_indices(frame, chosen) == expected
        assert block_component_indices(frame, np.array(chosen)) == expected
        assert block_component_indices(frame, "all") == list(range(d * d))
        assert block_component_indices(frame, []) == []
        with pytest.raises(BlockNotClosed,
                           match=r"block \(1,2\) couples to omitted block \(0,1\)"):
            rotated_block_generator(diss, tensor, frame, 3.0, 0.2, 0.5, [(1, 2)])
        g = rotated_block_generator(diss, tensor, frame, 3.0, 0.2, 0.5, chosen)
        dropped = [p for p in range(d * d) if p not in expected]
        assert not g[dropped, :].any() and not g[:, dropped].any()

    def test_structural_autonomy(self, slanted):
        # couplings from off-diagonal into diagonal blocks are exactly zero
        path, fam, diss, tensor, frame = slanted
        g = rotated_block_generator(diss, tensor, frame, 3.0, 0.2, 0.5, "all")
        diag_idx = block_component_indices(frame, "diagonal")
        off_idx = [p for p in range(16) if p not in diag_idx]
        assert np.abs(g[np.ix_(diag_idx, off_idx)]).max() == 0.0

    def test_closed_blocks_evolve_unitarily(self, slanted):
        # Gamma = 0: each diagonal block evolves by a commutator with a
        # Hermitian Z-block, conserving its Hilbert-Schmidt norm
        path, fam, diss, tensor, frame = slanted
        g = rotated_block_generator(diss, tensor, frame, 4.0, 0.0, 0.5,
                                    "diagonal")
        rho = np.zeros((4, 4), dtype=complex)
        sl = frame.block_slices[1]
        rho[sl, sl] = [[0.7, 0.1 + 0.2j], [0.1 - 0.2j, 0.3]]
        v = vec(rho)
        step = matrix_exponential(0.05 * g)
        before = np.linalg.norm(v)
        for _ in range(20):
            v = step @ v
        assert abs(np.linalg.norm(v) - before) < 1e-10

    def test_component_roundtrip(self, slanted):
        path, fam, diss, tensor, frame = slanted
        rng = np.random.default_rng(0)
        rho = random_density(rng, 4)
        s = frame.grid[40000]
        w = frame.rotation(s)
        out = dag(w) @ (w @ rho @ dag(w)) @ w
        assert frobenius(out - rho) < 1e-12


@functools.lru_cache(maxsize=None)
def small_context(model):
    if model == "holonomy":
        return runner.holonomy_context(np.pi / 4, (0.4, 0.2, 0.4, 0.0),
                                       Gauge.NORTH_POLE_REGULAR, 1.0, 0.1,
                                       np.pi / 5, 3 * np.pi / 4)
    return runner.random_context(3, 1.0, 0.1)


class TestOneRotatedAssembly:
    @pytest.mark.parametrize("model", ["holonomy", "random_rotating"])
    @pytest.mark.parametrize("gamma", [0.0, 0.2])
    def test_block_generator_is_the_context_generator(self, model, gamma):
        ctx = small_context(model)
        frame = ctx.frame
        args = (ctx.dissipator, ctx.tensor, frame, ctx.T, gamma)
        kept = block_component_indices(frame, "diagonal")
        dropped = [p for p in range(16) if p not in kept]
        for s in frame.grid[[1, 7, 20]]:
            full = ctx.approximate_generator(gamma)(s)
            assert np.array_equal(rotated_block_generator(*args, s, "all"), full)
            diag = rotated_block_generator(*args, s, "diagonal")
            assert np.array_equal(diag[np.ix_(kept, kept)], full[np.ix_(kept, kept)])
            assert not diag[dropped, :].any() and not diag[:, dropped].any()

    def test_block_generator_on_arrays(self):
        ctx = small_context("holonomy")
        args = (ctx.dissipator, ctx.tensor, ctx.frame, ctx.T, 0.2)
        s = ctx.frame.grid[[1, 3, 19]]
        for block_set in ("all", "diagonal"):
            stack = rotated_block_generator(*args, s, block_set)
            assert np.array_equal(stack, np.stack([
                rotated_block_generator(*args, float(x), block_set) for x in s]))


@pytest.fixture(scope="module")
def three_level():
    """``H(s) = R(s) diag(-1 - s, 0.2, 1 + 2s) R(s)^dagger`` with the
    rotation of the 3-level random model: a numeric spectrum whose gaps
    vary with ``s``, and the double-commutator dissipator of its ``A``."""
    model = make_random_model(3, 3)

    @vectorized
    def evaluate(s):
        s = np.asarray(s, dtype=float)
        r = model.rotation(s)
        e = np.stack([-1.0 - s, np.full_like(s, 0.2), 1.0 + 2.0 * s], axis=-1)
        return (r * e[..., None, :]) @ dag(r)

    fam = HamiltonianFamily(dim=3, evaluate=evaluate, n_eigenspaces=3)
    return model, fam, compute_resonance_tensor(fam.spectrum, GRID)


class TestFrameLabelsAndGaps:
    """The frame decides eigenspace labels and gaps; the rotated-frame
    generators read them from it."""

    @pytest.mark.parametrize("basis", [True, False], ids=["analytic", "numeric"])
    def test_descending_spectrum_same_metrics(self, basis, monkeypatch):
        model = make_random_model(7)
        fam = model.family()
        if not basis:
            fam = HamiltonianFamily(dim=4, evaluate=fam.evaluate,
                                    analytic_spectrum=fam.analytic_spectrum, n_eigenspaces=4)

        def metrics(family):
            def context(seed, T, dt, dim):
                return runner.RunContext(
                    family=family, dissipator=model.dissipator(),
                    tensor=compute_resonance_tensor(family.spectrum, GRID),
                    T=T, dt=dt, p_comp=np.eye(dim, dtype=complex),
                    rho0=model.initial_density(), model_id="random_rotating")
            task = {"kind": "random_rotating", "seed": 7, "T": 5.0, "dt": 0.01, "dim": 4,
                    "gamma_list": [0.004]}
            monkeypatch.setattr(runner, "random_context", context)
            [row] = runner.run_sweep_task(task)
            return row

        want = metrics(fam)
        got = metrics(reversed_spectrum_family(fam, basis))
        for name, value in want.items():
            if isinstance(value, float):
                assert abs(got[name] - value) <= 1e-12, name

    def test_s_dependent_gaps_rotated_equals_lab(self, three_level):
        model, fam, tensor = three_level
        T, dt, gamma = 5.0, 0.005, 0.05
        diss = LindbladDissipator.double_commutator(model.a)
        frame = build_transport_frame(fam, np.linspace(0.0, 1.0, 2 * int(round(T / dt)) + 1))
        s = frame.grid
        exact = np.stack([-1.0 - s, np.full_like(s, 0.2), 1.0 + 2.0 * s], axis=-1)
        assert np.abs(frame.energies(slice(None)) - exact).max() <= 1e-12
        rho0 = model.initial_density()
        gen = vectorized(functools.partial(rotated_block_generator, diss, tensor, frame, T,
                                           gamma, block_set="all"))
        w0, w1 = frame.rotation(0.0), frame.rotation(1.0)
        _, v = evolve_vector_piecewise_exp(gen, vec(w0 @ rho0 @ dag(w0)), dt, T)
        lab = propagate_piecewise_exp(ApproximateGenerator(fam, diss, tensor, T, gamma),
                                      rho0, dt, T)
        assert frobenius(dag(w1) @ unvec(v[-1]) @ w1 - lab.final_state()) <= 1e-6


class TestFactorization:
    def test_single_eigenspace_trivial(self, rng):
        fam = constant_family(1.5 * np.eye(3), n_eigenspaces=1)
        v = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        diss = LindbladDissipator.constant([v])
        tensor = compute_resonance_tensor(fam.spectrum, GRID)
        decomp = fam.spectrum(0.0)
        fact = lindblad_factorize(diss, tensor, decomp, 0.0)
        assert np.allclose(fact.g_eigenvalues, [1.0])
        assert len(fact.lindblad_ops) == 1
        assert frobenius(fact.lindblad_ops[0] - v) < 1e-12
        assert fact.reconstruction_error(diss, tensor, decomp, 0.0) < 1e-12

    def test_holonomy_reconstruction(self, holonomy_setup):
        path, fam, diss, tensor = holonomy_setup
        for s in (0.45, 0.5, 0.55):
            decomp = fam.spectrum(s)
            fact = lindblad_factorize(diss, tensor, decomp, s)
            assert fact.g_eigenvalues.min() >= -1e-10
            assert len(fact.lindblad_ops) <= 9
            assert fact.reconstruction_error(diss, tensor, decomp, s) <= 1e-10

    def test_random_model_reconstruction(self, random_setup):
        model, fam, diss, tensor = random_setup
        rng = np.random.default_rng(11)
        for s in rng.uniform(0.0, 1.0, 10):
            decomp = fam.spectrum(s)
            fact = lindblad_factorize(diss, tensor, decomp, s)
            assert fact.reconstruction_error(diss, tensor, decomp, s) <= 1e-9

    def test_filtered_hamiltonian_part(self, rng):
        # a Hamiltonian disturbance filters to its block-diagonal part
        fam = constant_family(np.diag([0.0, 1.0, 3.0]))
        f = random_hermitian(rng, 3)
        diss = LindbladDissipator.constant([np.zeros((3, 3))], f=f)
        tensor = compute_resonance_tensor(fam.spectrum, GRID)
        decomp = fam.spectrum(0.0)
        fact = lindblad_factorize(diss, tensor, decomp, 0.0)
        expected = sum(p @ f @ p for p in decomp.projectors)
        assert frobenius(fact.effective_hamiltonian - expected) < 1e-12
        assert fact.reconstruction_error(diss, tensor, decomp, 0.0) < 1e-10

    def test_negative_spectrum_aborts(self):
        # synthetic, identity-violating tensor whose coupling matrix is a
        # hollow all-ones matrix (eigenvalues K-1 and -1)
        g = np.ones((2, 2, 2, 2), dtype=bool)
        g[0, 0, 0, 0] = g[0, 1, 0, 1] = g[1, 0, 1, 0] = g[1, 1, 1, 1] = False
        bad = ResonanceTensor(nspaces=2, g=g)
        fam = constant_family(np.diag([0.0, 1.0]))
        diss = LindbladDissipator.constant([np.eye(2)])
        with pytest.raises(NegativeGSpectrum):
            lindblad_factorize(diss, bad, fam.spectrum(0.0), 0.0)


class TestChoi:
    def test_identity_channel(self):
        d = 3
        j = choi_matrix(np.eye(d * d, dtype=complex))
        assert abs(np.trace(j) - d) < 1e-12
        w = np.linalg.eigvalsh(j)
        assert abs(w[-1] - d) < 1e-12
        assert np.abs(w[:-1]).max() < 1e-12

    def test_unitary_conjugation_rank_one(self, rng):
        u = matrix_exponential(1j * random_hermitian(rng, 3))
        channel = sandwich_superop(u, dag(u))
        j = choi_matrix(channel)
        w = np.linalg.eigvalsh(j)
        assert w.min() >= -1e-12
        assert np.sum(w > 1e-9) == 1
        min_eig, ok = cp_check(channel)
        assert ok and min_eig >= -1e-12

    def test_lindblad_step_is_cp_tp(self, rng):
        v = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        diss = LindbladDissipator.constant([v], f=random_hermitian(rng, 3))
        channel = matrix_exponential(0.7 * diss.superoperator(0.0))
        min_eig, ok = cp_check(channel)
        assert ok
        j = choi_matrix(channel)
        assert abs(np.trace(j) - 3.0) < 1e-8

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_reshuffle_equals_unit_loop(self, rng, d):
        channel = rng.standard_normal((d * d, d * d)) + 1j * rng.standard_normal((d * d, d * d))
        loop = np.zeros((d * d, d * d), dtype=complex)
        for i in range(d):
            for j in range(d):
                unit = np.zeros((d, d), dtype=complex)
                unit[i, j] = 1.0
                loop[i * d:(i + 1) * d, j * d:(j + 1) * d] = unvec(channel @ vec(unit), d)
        assert np.array_equal(choi_matrix(channel), loop)

    def test_transpose_map_not_cp(self):
        d = 2
        channel = np.zeros((4, 4), dtype=complex)
        for i in range(d):
            for j in range(d):
                unit = np.zeros((d, d), dtype=complex)
                unit[i, j] = 1.0
                channel[:, j * d + i] = vec(unit.T)
        min_eig, ok = cp_check(channel)
        assert not ok and min_eig < -0.5


class TestGeometricSpectraReused:
    @pytest.mark.parametrize("model", ["north_pole", "random"])
    @pytest.mark.parametrize("h,richardson", [(1e-4, False), (1e-3, True)])
    def test_filter_reads_the_geometric_term_spectra(self, model, h, richardson,
                                                     monkeypatch):
        # a q_of_s that also returns its spectra gives the same generator
        # bits with one family.spectrum call per evaluation, not two
        fam, diss, tensor, s = lab_case(model)
        plain = vectorized(lambda x: geometric_term(fam, x, h=h, richardson=richardson))
        paired = vectorized(lambda x: geometric_term(fam, x, h=h, richardson=richardson,
                                                     with_spectrum=True))
        calls = []
        spectrum = type(fam).spectrum
        monkeypatch.setattr(type(fam), "spectrum", vectorized(
            lambda self, x: calls.append(x) or spectrum(self, x)))
        for x in (s, float(s[3])):
            want = ApproximateGenerator(fam, diss, tensor, 10.0, 0.05, q_of_s=plain)(x)
            assert len(calls) == 2
            del calls[:]
            assert np.array_equal(
                ApproximateGenerator(fam, diss, tensor, 10.0, 0.05, q_of_s=paired)(x), want)
            assert len(calls) == 1
            del calls[:]
        q, spec = geometric_term(fam, float(s[3]), with_spectrum=True)
        assert q.shape == (fam.dim, fam.dim) and spec.projectors[0].shape == q.shape
