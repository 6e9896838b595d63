"""Time-dependent Hamiltonian families and their spectral structure.

A :class:`HamiltonianFamily` wraps a map ``s in [0, 1] -> H(s)`` whose
eigenspace dimensions do not change along the parameter.  This module
provides the instantaneous spectral decomposition with stable eigenspace
labels, finite-difference projector derivatives, the Hermitian geometric
term ``Q(s) = i sum_k dP_k/ds P_k``, and transport frames ``U(s)`` with
``U(s) P_k(s) U(s)^dagger = P_k(0)`` together with their generator
``Z = i dU/ds U^dagger``.

Labels: a single numeric decomposition labels eigenspaces by ascending
energy at ``s``; an analytic spectrum may list them in any order.  Label
consistency along ``s`` is the job of :func:`decompose_on_grid` (overlap
propagation), and a transport frame takes labels and energies from
``family.spectrum``.

Arrays of ``s``: :meth:`HamiltonianFamily.hamiltonian`,
:meth:`HamiltonianFamily.spectrum`, :func:`projector_derivative` and
:func:`geometric_term` also take a 1-D array of parameter values and return
stacks along a leading axis (a stacked decomposition holds one ``(n, d, d)``
stack per eigenspace), and :func:`build_transport_frame` evaluates an
analytic basis on the whole grid at once.  A callable marked with
:func:`vectorized` takes the array in one call; any other callable is
called once per sample and the results are stacked.  Each sample of a
stack gets the same floating-point operations as a scalar call.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import (
    AmbiguousClustering,
    DegeneracyChange,
    FrameDiscontinuity,
    NotHermitian,
)
from .linalg import dag, frobenius, hermitian_eigendecompose

__all__ = [
    "HamiltonianFamily",
    "SpectralDecomposition",
    "TransportFrame",
    "decompose_at",
    "decompose_on_grid",
    "projector_derivative",
    "geometric_term",
    "build_transport_frame",
    "vectorized",
    "evaluate_on",
]

_HERMITICITY_TOL = 1e-12
# bytes of projectors per slice of a frame's grid spectrum (d^3 complex per sample)
_SPECTRUM_SLICE_BYTES = 2 ** 20


def vectorized(fn):
    """Mark ``fn`` as taking a 1-D array of ``s`` and returning a stack."""
    fn.vectorized = True
    return fn


def evaluate_on(fn, s):
    """``fn`` at ``s``: a number, or a 1-D array whose results are stacked
    along a leading axis.  A callable marked :func:`vectorized` gets the
    array in one call; any other is called once per sample."""
    if np.ndim(s) == 0 or getattr(fn, "vectorized", False):
        return fn(s)
    return np.stack([np.asarray(fn(x)) for x in np.asarray(s).tolist()])


@dataclass
class SpectralDecomposition:
    """Clustered eigenstructure ``H = sum_k E_k P_k`` at one parameter value,
    or at each of ``n`` values: then ``energies`` is ``(n, K)`` and each
    projector an ``(n, d, d)`` stack.  ``ranks`` is one tuple, shared by
    every sample."""

    energies: np.ndarray          # (K,) real, one value per eigenspace
    projectors: list              # K projectors, each (d, d)
    ranks: tuple

    @property
    def nspaces(self):
        return len(self.ranks)

    @property
    def dim(self):
        return self.projectors[0].shape[-1]

    def take(self, index):
        """The samples ``index`` of a stacked decomposition."""
        return SpectralDecomposition(energies=self.energies[index],
                                     projectors=[p[index] for p in self.projectors],
                                     ranks=self.ranks)

    @classmethod
    def stack(cls, decomps):
        """One stacked decomposition of per-sample ones; raises
        :class:`DegeneracyChange` when their ranks differ."""
        ranks = {d.ranks for d in decomps}
        if len(ranks) > 1:
            raise DegeneracyChange(f"eigenspace ranks changed between samples: {sorted(ranks)}")
        return cls(energies=np.stack([d.energies for d in decomps]),
                   projectors=[np.stack(p) for p in zip(*(d.projectors for d in decomps))],
                   ranks=ranks.pop())

    def validate(self, tol=1e-10, degeneracy_tol=1e-8):
        """Check projector algebra, completeness, distinctness and rank sum."""
        d = self.dim
        total = np.zeros((d, d), dtype=complex)
        for k, p in enumerate(self.projectors):
            total += p
            for l, q in enumerate(self.projectors):
                expected = p if k == l else 0.0
                if frobenius(p @ q - expected) > tol:
                    raise AssertionError(f"projector algebra violated for pair ({k}, {l})")
        if frobenius(total - np.eye(d)) > tol:
            raise AssertionError("projectors do not resolve the identity")
        if sum(self.ranks) != d:
            raise AssertionError("ranks do not sum to the dimension")
        e = np.sort(self.energies)
        if len(e) > 1 and np.min(np.diff(e)) <= degeneracy_tol:
            raise AssertionError("eigenspace energies are not pairwise distinct")


@dataclass
class HamiltonianFamily:
    """A family ``s -> H(s)`` with fixed eigenspace structure.

    ``analytic_spectrum`` / ``analytic_basis`` let a model supply closed-form
    eigenstructure; ``breakpoints`` are parameter values where ``H`` is
    continuous but not smooth (piecewise-defined schedules), which the
    finite-difference helpers must not straddle.
    """

    dim: int
    evaluate: Callable[[float], np.ndarray]
    analytic_spectrum: Optional[Callable[[float], SpectralDecomposition]] = None
    analytic_basis: Optional[Callable[[float], np.ndarray]] = None
    n_eigenspaces: Optional[int] = None
    breakpoints: tuple = ()
    degeneracy_tol: float = 1e-8

    def hamiltonian(self, s):
        """``H(s)``, or a stack of them for a 1-D array ``s``."""
        h = np.asarray(evaluate_on(self.evaluate, s), dtype=complex)
        defect = np.linalg.norm(h - dag(h), axis=(-2, -1))
        bad = np.flatnonzero(defect > _HERMITICITY_TOL)
        if bad.size:
            raise NotHermitian(f"H({np.ravel(s)[bad[0]]}) deviates from Hermitian "
                               f"by {np.ravel(defect)[bad[0]]:.3e}")
        return h

    @vectorized
    def spectrum(self, s):
        """Instantaneous decomposition, analytic when the model provides
        one; stacked for a 1-D array ``s``."""
        one = self.analytic_spectrum
        if one is None:
            one = functools.partial(decompose_at, self, degeneracy_tol=self.degeneracy_tol)
        if np.ndim(s) == 0 or getattr(one, "vectorized", False):
            return one(s)
        return SpectralDecomposition.stack([one(x) for x in np.asarray(s).tolist()])


def _cluster_eigenvalues(w, degeneracy_tol):
    """Group ascending eigenvalues into eigenspace clusters.

    Adjacent gaps below ``0.1 * degeneracy_tol`` merge, gaps of at least
    ``degeneracy_tol`` split; anything in between is ambiguous.
    """
    boundaries = [0]
    for i in range(len(w) - 1):
        gap = w[i + 1] - w[i]
        if gap >= degeneracy_tol:
            boundaries.append(i + 1)
        elif gap > 0.1 * degeneracy_tol:
            raise AmbiguousClustering(
                f"eigenvalue gap {gap:.3e} falls inside "
                f"({0.1 * degeneracy_tol:.1e}, {degeneracy_tol:.1e})"
            )
    boundaries.append(len(w))
    clusters = [range(boundaries[i], boundaries[i + 1]) for i in range(len(boundaries) - 1)]
    for idx in clusters:
        if w[idx[-1]] - w[idx[0]] >= degeneracy_tol:
            raise AmbiguousClustering(
                f"cluster spread {w[idx[-1]] - w[idx[0]]:.3e} reaches the clustering tolerance"
            )
    return clusters


def _eigencolumns(family, s, degeneracy_tol):
    """Cluster-grouped orthonormal eigencolumns at ``s`` (ascending energy)."""
    h = family.hamiltonian(s)
    w, v = hermitian_eigendecompose(h, _HERMITICITY_TOL * 10)
    clusters = _cluster_eigenvalues(w, degeneracy_tol)
    energies = np.array([w[list(idx)].mean() for idx in clusters])
    columns = [v[:, list(idx)] for idx in clusters]
    return energies, columns


def _decomposition(energies, columns):
    """The decomposition spanned by cluster-grouped eigencolumns."""
    return SpectralDecomposition(energies=energies,
                                 projectors=[c @ dag(c) for c in columns],
                                 ranks=tuple(c.shape[1] for c in columns))


def decompose_at(family, s, degeneracy_tol=1e-8):
    """Numerically diagonalize ``H(s)`` and cluster into eigenspaces.

    Eigenspace labels are assigned by ascending energy at ``s``.  Raises
    :class:`DegeneracyChange` if the family declares a different eigenspace
    count, :class:`AmbiguousClustering` when the gap structure cannot be
    resolved at the given tolerance.
    """
    decomp = _decomposition(*_eigencolumns(family, s, degeneracy_tol))
    if family.n_eigenspaces is not None and decomp.nspaces != family.n_eigenspaces:
        raise DegeneracyChange(
            f"found {decomp.nspaces} eigenspaces at s={s}, expected {family.n_eigenspaces}"
        )
    return decomp


def _match_order(decomp, reference):
    """Permutation aligning ``decomp`` labels to ``reference`` by maximal
    projector overlap (greedy over the largest entries; K <= 4 here); one
    per sample, shape ``(..., K)``, for stacked decompositions."""
    k = reference.nspaces
    if decomp.nspaces != k:
        raise DegeneracyChange(
            f"eigenspace count changed from {k} to {decomp.nspaces}"
        )
    overlap = np.einsum("...iab,...jba->...ij", np.stack(reference.projectors, axis=-3),
                        np.stack(decomp.projectors, axis=-3)).real
    lead = overlap.shape[:-2]
    ranking = np.argsort(-overlap.reshape(-1, k * k), axis=-1)
    rows = np.arange(len(ranking))
    order = np.full((len(ranking), k), -1)
    taken = np.zeros((len(ranking), k), dtype=bool)
    for i, j in zip(*np.divmod(ranking.T, k)):
        free = (order[rows, i] < 0) & ~taken[rows, j]
        order[rows[free], i[free]] = j[free]
        taken[rows[free], j[free]] = True
    if (np.asarray(decomp.ranks)[order] != reference.ranks).any():
        raise DegeneracyChange("eigenspace ranks changed between samples")
    return order.reshape(lead + (k,))


def _relabel(decomp, reference, order=None):
    """Permute ``decomp`` labels to maximize overlap with ``reference``, or
    by ``order`` when :func:`_match_order` already gave it."""
    if order is None:
        order = _match_order(decomp, reference)
    projectors = np.take_along_axis(np.stack(decomp.projectors, axis=-3),
                                    order[..., None, None], axis=-3)
    return SpectralDecomposition(
        energies=np.take_along_axis(
            np.broadcast_to(decomp.energies, order.shape), order, -1),
        projectors=list(np.moveaxis(projectors, -3, 0)),
        ranks=reference.ranks,
    )


def decompose_on_grid(family, grid, degeneracy_tol=1e-8):
    """Decompose along ``grid`` with labels propagated by maximal overlap."""
    out = []
    for s in grid:
        d = decompose_at(family, s, degeneracy_tol)
        out.append(_relabel(d, out[-1]) if out else d)
    return out


# ---------------------------------------------------------------------------
# finite-difference derivatives
# ---------------------------------------------------------------------------

_STENCILS = ("central", "forward", "backward")


def _samples(s):
    return np.atleast_1d(np.asarray(s, dtype=float))


def _stencil_kinds(family, s, h):
    """Stencil shape per sample of the 1-D array ``s``: central unless it
    would leave [0, 1] or straddle a kink of the schedule."""
    lo, hi = s - h, s + h
    crosses = np.zeros(s.shape, dtype=bool)
    kink_ahead = np.zeros(s.shape, dtype=bool)
    for b in family.breakpoints:
        crosses |= ((lo < b) & (b < hi)) | (np.abs(b - s) < 1e-15)
        kink_ahead |= (s < b) & (b < s + 2 * h)
    central = ~crosses & (lo >= 0.0) & (hi <= 1.0)
    forward = ~central & (s + 2 * h <= 1.0) & ~kink_ahead
    return np.where(central, "central", np.where(forward, "forward", "backward"))


def _stencil_points(kind, s, h):
    if kind == "central":
        return (s - h, s + h), (-0.5 / h, 0.5 / h)
    if kind == "forward":
        return (s, s + h, s + 2 * h), (-1.5 / h, 2.0 / h, -0.5 / h)
    return (s - 2 * h, s - h, s), (0.5 / h, -2.0 / h, 1.5 / h)


def _projector_derivatives(family, s, h, richardson):
    """Spectra at the 1-D array ``s`` and their projector derivatives.

    The spectra at every stencil point of every sample come from one
    ``family.spectrum`` call and are relabeled against the spectra at
    ``s`` at once.  The stencil shape is fixed at step ``h`` so a
    Richardson pair shares the same truncation-error structure.
    """
    kinds = _stencil_kinds(family, s, h)
    steps = (h, h / 2) if richardson else (h,)
    groups = []         # (sample indices, samples, [(points, weights) per step])
    moving = []         # stencil points other than s itself, with their samples
    for kind in _STENCILS:
        idx = np.flatnonzero(kinds == kind)
        if idx.size:
            si = s[idx]
            stencils = [_stencil_points(kind, si, step) for step in steps]
            groups.append((idx, si, stencils))
            moving += [(idx, p) for points, _ in stencils for p in points if p is not si]
    n = len(s)
    spec = family.spectrum(np.concatenate([s] + [p for _, p in moving]))
    base = spec.take(slice(0, n))
    moved = _relabel(spec.take(slice(n, None)),
                     base.take(np.concatenate([idx for idx, _ in moving])))
    d = family.dim
    derivs = [np.empty((n, d, d), dtype=complex) for _ in base.projectors]
    offset = 0
    for idx, si, stencils in groups:
        coarse = None
        for points, weights in stencils:
            acc = [np.zeros((len(idx), d, d), dtype=complex) for _ in derivs]
            for point, weight in zip(points, weights):
                if point is si:
                    at = base.take(idx)
                else:
                    at = moved.take(slice(offset, offset + len(idx)))
                    offset += len(idx)
                for k, p in enumerate(at.projectors):
                    acc[k] += weight * p
            coarse = acc if coarse is None else [(4.0 * f - c) / 3.0
                                                 for f, c in zip(acc, coarse)]
        for k, dp in enumerate(coarse):
            derivs[k][idx] = dp
    return base, derivs


def projector_derivative(family, s, h=1e-4, richardson=False):
    """Finite-difference eigenprojector derivatives with label-consistent
    stencils; ``(n, d, d)`` stacks for a 1-D array ``s``.

    Central differences (O(h^2)) away from endpoints and schedule kinks,
    second-order one-sided otherwise.  ``richardson=True`` combines steps
    ``h`` and ``h/2`` of the same stencil shape for two extra orders.
    """
    _, derivs = _projector_derivatives(family, _samples(s), h, richardson)
    return [dp.reshape(np.shape(s) + dp.shape[1:]) for dp in derivs]


def geometric_term(family, s, h=1e-4, richardson=False):
    """The coherent correction ``Q(s) = i sum_k dP_k/ds P_k``; an
    ``(n, d, d)`` stack for a 1-D array ``s``.

    Hermitian up to the finite-difference truncation error; the residual is
    a useful self-check and is asserted (not enforced) by the test suite.
    """
    base, derivs = _projector_derivatives(family, _samples(s), h, richardson)
    q = np.zeros_like(derivs[0])
    for pd, p in zip(derivs, base.projectors):
        q += 1j * (pd @ p)
    return q.reshape(np.shape(s) + q.shape[1:])


# ---------------------------------------------------------------------------
# transport frames
# ---------------------------------------------------------------------------

@dataclass
class TransportFrame:
    """Grid-sampled unitaries ``U(s)`` mapping instantaneous projectors to
    their initial values, with ``Z = i dU/ds U^dagger`` from grid differences.

    ``basis0`` holds the eigencolumns at ``grid[0]`` that generated the
    frame, grouped per eigenspace as recorded in ``block_slices``; rotated
    component representations are expressed in these columns.  Eigenspace
    ``k`` is that of ``family.spectrum``, with energy ``energies[i, k]`` at
    ``grid[i]``.  The lookups by ``s`` take a number or an array of grid
    points.
    """

    grid: np.ndarray
    U: np.ndarray                 # (n, d, d)
    Z: np.ndarray                 # (n, d, d)
    basis0: np.ndarray            # (d, d) columns
    block_slices: tuple           # per-eigenspace column ranges in basis0
    energies: np.ndarray          # (n, K)

    @property
    def dim(self):
        return self.U.shape[1]

    @property
    def labels(self):
        """Eigenspace label of each column of ``basis0``."""
        return np.repeat(np.arange(len(self.block_slices)),
                         [sl.stop - sl.start for sl in self.block_slices])

    def index_of(self, s, tol=1e-9):
        """Index of the grid point at ``s``, or an index array for an array
        ``s``.  Raises ``KeyError`` if an entry is more than ``tol`` from
        every grid point (off the grid, out of range or NaN)."""
        grid = self.grid
        s = np.asarray(s, dtype=float)
        hi = np.clip(np.searchsorted(grid, s), 1, len(grid) - 1)
        i = np.where(s - grid[hi - 1] <= grid[hi] - s, hi - 1, hi)
        bad = ~(np.abs(grid[i] - s) <= tol)
        if bad.any():
            raise KeyError(f"s={np.ravel(s)[np.ravel(bad)][0]} is not a frame grid point")
        return i if i.ndim else int(i)

    def u_at(self, s):
        return self.U[self.index_of(s)]

    def z_at(self, s):
        return self.Z[self.index_of(s)]

    def rotation(self, s):
        """``W = basis0^dagger U(s)``: maps lab-frame operators at the grid
        point(s) ``s`` to frame components, ``rho_hat = W rho W^dagger``."""
        return dag(self.basis0) @ self.u_at(s)

    def max_jump(self):
        return float(np.linalg.norm(np.diff(self.U, axis=0), axis=(1, 2)).max())

    def transport_defect(self, family, stride=None):
        """Worst deviation of ``U P_k(s) U^dagger`` from ``P_k(0)`` over the
        grid (labels chained sample to sample)."""
        if stride is None:
            stride = max(1, len(self.grid) // 32)
        prev = family.spectrum(self.grid[0])
        p0 = prev.projectors
        worst = 0.0
        for i in range(0, len(self.grid), stride):
            d = _relabel(family.spectrum(self.grid[i]), prev)
            u = self.U[i]
            for k, p in enumerate(d.projectors):
                worst = max(worst, frobenius(u @ p @ dag(u) - p0[k]))
            prev = d
        return worst


def _polar_unitary(m):
    """Unitary factor of the polar decomposition of a small square matrix."""
    w, v = hermitian_eigendecompose(dag(m) @ m, 1e-9)
    if w.min() < 1e-12:
        raise FrameDiscontinuity(
            "overlap between consecutive eigenbases is singular; the basis "
            "cannot be continued smoothly"
        )
    inv_sqrt = (v / np.sqrt(w)) @ dag(v)
    return m @ inv_sqrt


def _continued_columns(family, grid, degeneracy_tol):
    """Numerically gauge-continued eigencolumns and their energies along the
    grid, labelled by an overlap chain from ``family.spectrum(grid[0])``."""
    prev = family.spectrum(grid[0])
    frames, energies = [], []
    for s in grid:
        e, raw = _eigencolumns(family, s, degeneracy_tol)
        d = _decomposition(e, raw)
        order = _match_order(d, prev)
        cols = [raw[j] for j in order]
        if frames:      # rotate each degenerate block onto the previous sample's
            cols = [x @ _polar_unitary(dag(x) @ x_prev) for x_prev, x in zip(frames[-1], cols)]
        frames.append(cols)
        prev = _relabel(d, prev, order)
        energies.append(prev.energies)
    return np.stack([np.hstack(f) for f in frames]), np.stack(energies), prev.ranks


def _grouped_analytic_columns(family, grid, basis):
    """Evaluate an analytic basis on the whole grid, its columns grouped by
    the eigenspace of ``family.spectrum(grid[0])`` that holds them, and the
    spectrum's energies on the grid, evaluated in slices of bounded size."""
    step = max(1, _SPECTRUM_SLICE_BYTES // (16 * family.dim ** 3))
    spec0 = family.spectrum(grid[:step])
    energies = np.concatenate([spec0.energies] + [family.spectrum(grid[i:i + step]).energies
                                                  for i in range(step, len(grid), step)])
    c = np.asarray(evaluate_on(basis, grid), dtype=complex)
    # weight[k, j] = <c_j|P_k|c_j> at grid[0]
    weight = np.einsum("aj,kab,bj->kj", np.conj(c[0]), np.stack(spec0.take(0).projectors),
                       c[0]).real
    label = weight.argmax(axis=0)
    sizes = tuple(np.bincount(label, minlength=spec0.nspaces).tolist())
    if sizes != spec0.ranks or (np.abs(weight.max(axis=0) - 1.0) > 1e-6).any():
        raise ValueError("analytic basis columns do not match the eigenspace structure")
    return c[:, :, np.argsort(label, kind="stable")], energies, spec0.ranks


def build_transport_frame(family, grid, basis=None, frame_jump_tol=0.5,
                          degeneracy_tol=None):
    """Construct a transport frame ``U(s) = sum_k |chi_k(0)><chi_k(s)|``.

    ``basis`` is an optional callable returning the model's analytic
    instantaneous eigenbasis as matrix columns (called once on the whole
    grid when it is marked :func:`vectorized`); without it, a numerically
    phase/gauge-continued eigenbasis is built (successive samples aligned
    cluster-by-cluster via polar decomposition of the overlap).

    Labels are those of ``family.spectrum(grid[0])``: an analytic column
    joins the eigenspace whose projector holds it (``ValueError`` unless
    within 1e-6), a numeric continuation starts its overlap chain there.

    Raises :class:`FrameDiscontinuity` when consecutive unitaries jump by
    more than ``frame_jump_tol`` in Frobenius norm, which signals a gauge
    singularity on the sampled path.
    """
    grid = np.asarray(grid, dtype=float)
    if degeneracy_tol is None:
        degeneracy_tol = family.degeneracy_tol
    if basis is None:
        cols, energies, ranks = _continued_columns(family, grid, degeneracy_tol)
    else:
        cols, energies, ranks = _grouped_analytic_columns(family, grid, basis)

    c0 = cols[0]
    n = len(grid)
    u = c0 @ dag(cols)
    jumps = np.linalg.norm(np.diff(u, axis=0), axis=(1, 2))
    over = np.flatnonzero(jumps > frame_jump_tol)
    if over.size:
        i = over[0]
        raise FrameDiscontinuity(
            f"frame jump {jumps[i]:.3e} between s={grid[i]:.6g} and "
            f"s={grid[i + 1]:.6g} exceeds {frame_jump_tol}"
        )

    du = np.gradient(u, grid, axis=0, edge_order=2)
    # near a schedule kink the symmetric stencil mixes two smooth pieces;
    # redo those samples one-sided (the kink samples themselves keep the
    # forward value)
    if family.breakpoints and n >= 3:
        spacing = np.diff(grid)
        lo = np.concatenate((grid[:1], grid[:-1]))
        hi = np.concatenate((grid[1:], grid[-1:]))
        near = [((lo < b) & (b < hi)) | (np.abs(b - grid) < 1e-15)
                for b in family.breakpoints]
        for i in np.flatnonzero(np.any(near, axis=0)):
            b = next(b for b, hit in zip(family.breakpoints, near) if hit[i])
            if grid[i] <= b and i >= 2:
                h = spacing[i - 1]
                du[i] = (3 * u[i] - 4 * u[i - 1] + u[i - 2]) / (2 * h)
            elif i + 2 < n:
                h = spacing[i]
                du[i] = (-3 * u[i] + 4 * u[i + 1] - u[i + 2]) / (2 * h)
    z = np.einsum("nij,nkj->nik", 1j * du, np.conj(u))
    # i dU/ds U^dagger is exactly Hermitian; drop the finite-difference
    # anti-Hermitian residue so downstream generators preserve Hermiticity
    z = 0.5 * (z + np.conj(np.transpose(z, (0, 2, 1))))

    offsets = np.cumsum((0,) + ranks)
    block_slices = tuple(slice(offsets[i], offsets[i + 1]) for i in range(len(ranks)))
    return TransportFrame(grid, u, z, c0, block_slices, energies)
