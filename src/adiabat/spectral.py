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
stack per eigenspace), and a :class:`TransportFrame` evaluates an
analytic basis a window of grid samples at a time.  A callable marked with
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
from .linalg import block_length, dag, frobenius, hermitian_eigendecompose

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
_HALO = 2                       # frame window samples either side: Z's stencils reach +-2
_GRID_TOL = 1e-9
_FRAME_JUMP_TOL = 0.5
_PROJECTOR_TOL = 1e-10          # SpectralDecomposition.validate
_DISTINCT_ENERGY_TOL = 1e-8
_DEFECT_SAMPLES = 32            # grid samples TransportFrame.transport_defect checks


def vectorized(fn):
    """Mark ``fn`` as taking a 1-D array of ``s`` and returning a stack."""
    fn.vectorized = True
    return fn


def evaluate_on(fn, s):
    """``fn`` at ``s``: a number, or a 1-D array whose results are stacked
    along a leading axis (decompositions by :meth:`SpectralDecomposition.stack`).
    A callable marked :func:`vectorized` gets the array in one call; any
    other is called once per sample."""
    if np.ndim(s) == 0 or getattr(fn, "vectorized", False):
        return fn(s)
    results = [fn(x) for x in np.asarray(s).tolist()]
    if results and isinstance(results[0], SpectralDecomposition):
        return SpectralDecomposition.stack(results)
    return np.stack(results)


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

    def validate(self):
        """Check projector algebra, completeness, distinctness and rank sum."""
        d = self.dim
        total = np.zeros((d, d), dtype=complex)
        for k, p in enumerate(self.projectors):
            total += p
            for l, q in enumerate(self.projectors):
                expected = p if k == l else 0.0
                if frobenius(p @ q - expected) > _PROJECTOR_TOL:
                    raise AssertionError(f"projector algebra violated for pair ({k}, {l})")
        if frobenius(total - np.eye(d)) > _PROJECTOR_TOL:
            raise AssertionError("projectors do not resolve the identity")
        if sum(self.ranks) != d:
            raise AssertionError("ranks do not sum to the dimension")
        e = np.sort(self.energies)
        if len(e) > 1 and np.min(np.diff(e)) <= _DISTINCT_ENERGY_TOL:
            raise AssertionError("eigenspace energies are not pairwise distinct")


@dataclass
class HamiltonianFamily:
    """A family ``s -> H(s)`` with fixed eigenspace structure.

    ``analytic_spectrum`` / ``analytic_basis`` let a model supply closed-form
    eigenstructure, and ``analytic_energies`` its eigenspace energies alone
    (:meth:`energies`), which a transport frame reads without building
    projectors; ``breakpoints`` are parameter values where ``H`` is
    continuous but not smooth (piecewise-defined schedules), which the
    finite-difference helpers must not straddle.
    """

    dim: int
    evaluate: Callable[[float], np.ndarray]
    analytic_spectrum: Optional[Callable[[float], SpectralDecomposition]] = None
    analytic_basis: Optional[Callable[[float], np.ndarray]] = None
    analytic_energies: Optional[Callable[[float], np.ndarray]] = None
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
        return evaluate_on(self.analytic_spectrum or functools.partial(
            decompose_at, self, degeneracy_tol=self.degeneracy_tol), s)

    def energies(self, s):
        """The energies of :meth:`spectrum`, ``(K,)`` or ``(n, K)`` for a
        1-D array ``s``: the model's ``analytic_energies`` when given."""
        if self.analytic_energies is None:
            return self.spectrum(s).energies
        return evaluate_on(self.analytic_energies, s)


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

# Stencil shapes: the offsets (in steps) of the two points other than the
# sample, and the weights (per step) of (sample, point, point, sample) in
# the order they are summed; a zero weight adds exact zeros.
_STENCILS = {
    "central": ((-1.0, 1.0), (0.0, -0.5, 0.5, 0.0)),
    "forward": ((1.0, 2.0), (-1.5, 2.0, -0.5, 0.0)),
    "backward": ((-2.0, -1.0), (0.0, 0.5, -2.0, 1.5)),
}


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


def _projector_derivatives(family, s, h, richardson):
    """Spectra at the 1-D array ``s`` and their projector derivatives.

    The spectra at every stencil point of every sample come from one
    ``family.spectrum`` call and are relabeled against the spectra at
    ``s`` at once.  The stencil shape is fixed at step ``h`` so a
    Richardson pair shares the same truncation-error structure.
    """
    # each sample's row of the stencil table
    names, row = np.unique(_stencil_kinds(family, s, h), return_inverse=True)
    offsets, weights = (np.array(col)[row] for col in zip(*(_STENCILS[k] for k in names)))
    steps = (h, h / 2) if richardson else (h,)
    n = len(s)
    spec = family.spectrum(np.concatenate([s] + [s + off * step for step in steps
                                                 for off in offsets.T]))
    base = spec.take(slice(0, n))
    moved = _relabel(spec.take(slice(n, None)),
                     base.take(np.tile(np.arange(n), 2 * len(steps))))
    derivs = None
    for i, step in enumerate(steps):
        points = (base, moved.take(slice(2 * i * n, (2 * i + 1) * n)),
                  moved.take(slice((2 * i + 1) * n, (2 * i + 2) * n)), base)
        acc = [np.zeros(p.shape, dtype=complex) for p in base.projectors]
        for weight, point in zip((weights / step).T, points):
            for k, p in enumerate(point.projectors):
                acc[k] += weight[:, None, None] * p
        derivs = acc if derivs is None else [(4.0 * f - c) / 3.0 for f, c in zip(acc, derivs)]
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


def geometric_term(family, s, h=1e-4, richardson=False, with_spectrum=False):
    """The coherent correction ``Q(s) = i sum_k dP_k/ds P_k``; an
    ``(n, d, d)`` stack for a 1-D array ``s``.  ``with_spectrum=True``
    returns ``(Q, spectrum)``, the spectrum at ``s`` (stacked over the
    samples of ``s``) that the stencils were built around.

    Hermitian up to the finite-difference truncation error; the residual is
    a useful self-check and is asserted (not enforced) by the test suite.
    """
    base, derivs = _projector_derivatives(family, _samples(s), h, richardson)
    q = np.zeros_like(derivs[0])
    for pd, p in zip(derivs, base.projectors):
        q += 1j * (pd @ p)
    q = q.reshape(np.shape(s) + q.shape[1:])
    if not with_spectrum:
        return q
    return q, (base.take(0) if np.ndim(s) == 0 else base)


# ---------------------------------------------------------------------------
# transport frames
# ---------------------------------------------------------------------------

class TransportFrame:
    """Unitaries ``U(s)`` on a grid mapping instantaneous projectors to their
    initial values, with ``Z = i dU/ds U^dagger`` from grid differences and
    the eigenspace energies, evaluated a window of samples at a time.

    ``basis0`` holds the eigencolumns at ``grid[0]`` that generated the
    frame, grouped per eigenspace as recorded in ``block_slices``; rotated
    component representations are expressed in these columns.  Eigenspace
    ``k`` is that of ``family.spectrum``, with energy ``energies(i)[k]`` at
    ``grid[i]``.  :meth:`u`, :meth:`z` and :meth:`energies` take grid
    indices (a number, an array or a slice); the lookups by ``s`` take a
    number or an array of grid points.

    No whole-grid ``U`` or ``Z`` is held.  Window ``k`` is the samples
    ``[kL, (k+1)L)``, ``L = _window_length(d)``, its ``U`` with a halo of
    ``_HALO`` samples either side for ``Z``'s stencils (+-1, +-2 one-sided)
    and the jump check's pair across its end.  Index ``i`` is read from
    window ``i // L``, and the latest two windows made are kept.  ``Z`` and
    the energies are evaluated once per window, at all its samples.  ``Z``
    is ``np.gradient`` on the window's haloed ``U`` (see :meth:`_z`), with
    the bits of ``np.gradient(U, grid, axis=0, edge_order=2)`` on the whole
    grid, so any window size gives the same bits.
    """

    def __init__(self, grid, columns, energies, basis0, block_slices, breakpoints):
        self.grid = grid
        self.basis0 = basis0
        self.block_slices = block_slices
        self._columns = columns         # (start, stop) -> grouped columns on grid[start:stop]
        self._energies = energies       # slice of grid indices -> (m, K) energies
        self._breakpoints = tuple(breakpoints)
        self._length = _window_length(self.dim)
        spacing = np.diff(grid)
        # np.gradient's uniform branch: one scalar step, when every spacing is equal
        self._step = spacing[0] if (spacing == spacing[0]).all() else None
        self._windows = ()
        self._max_jump = 0.0

    @property
    def dim(self):
        return self.basis0.shape[0]

    @property
    def labels(self):
        """Eigenspace label of each column of ``basis0``."""
        return np.repeat(np.arange(len(self.block_slices)),
                         [sl.stop - sl.start for sl in self.block_slices])

    def index_of(self, s):
        """Index of the grid point at ``s``, or an index array for an array
        ``s``.  Raises ``KeyError`` if an entry is more than ``_GRID_TOL``
        from every grid point (off the grid, out of range or NaN)."""
        grid = self.grid
        s = np.asarray(s, dtype=float)
        hi = np.clip(np.searchsorted(grid, s), 1, len(grid) - 1)
        i = np.where(s - grid[hi - 1] <= grid[hi] - s, hi - 1, hi)
        bad = ~(np.abs(grid[i] - s) <= _GRID_TOL)
        if bad.any():
            raise KeyError(f"s={np.ravel(s)[np.ravel(bad)][0]} is not a frame grid point")
        return i if i.ndim else int(i)

    def u(self, index):
        """``U`` at the grid indices ``index``: ``(d, d)``, or a stack."""
        return self._lookup(index, lambda w, i: w.u[i - w.lo])

    def z(self, index):
        """``Z = i dU/ds U^dagger`` at the grid indices ``index``."""
        return self._lookup(index, lambda w, i: w.value("z", self._z)[i - w.start])

    def energies(self, index):
        """Eigenspace energies ``(K,)`` at the grid indices ``index``, or a stack."""
        return self._lookup(index, lambda w, i: w.value(
            "energies", lambda w: self._energies(slice(w.start, w.stop)))[i - w.start])

    def rotation(self, s):
        """``W = basis0^dagger U(s)``: maps lab-frame operators at the grid
        point(s) ``s`` to frame components, ``rho_hat = W rho W^dagger``."""
        return dag(self.basis0) @ self.u(self.index_of(s))

    def max_jump(self):
        """Largest Frobenius norm of ``U(s_{i+1}) - U(s_i)`` over the grid,
        from the build's jump check."""
        return self._max_jump

    def transport_defect(self, family):
        """Worst deviation of ``U P_k(s) U^dagger`` from ``P_k(0)`` over the
        grid (labels chained sample to sample)."""
        samples = np.arange(0, len(self.grid), max(1, len(self.grid) // _DEFECT_SAMPLES))
        prev = family.spectrum(self.grid[0])
        p0 = prev.projectors
        worst = 0.0
        for i, u in zip(samples, self.u(samples)):
            d = _relabel(family.spectrum(self.grid[i]), prev)
            for k, p in enumerate(d.projectors):
                worst = max(worst, frobenius(u @ p @ dag(u) - p0[k]))
            prev = d
        return worst

    # -- windows ------------------------------------------------------------

    def _check_jumps(self):
        """Raise :class:`FrameDiscontinuity` at the first consecutive pair of
        unitaries, in ``s`` order, more than ``_FRAME_JUMP_TOL`` apart.  Window
        ``k`` checks the pairs that start on its samples, the last of them
        reaching into its halo.  Records :meth:`max_jump`."""
        grid = self.grid
        for k in range(-(-len(grid) // self._length)):
            w = self._window(k)
            u = w.u[w.start - w.lo:w.stop - w.lo + 1]
            jumps = np.linalg.norm(np.diff(u, axis=0), axis=(1, 2))
            over = np.flatnonzero(jumps > _FRAME_JUMP_TOL)
            if over.size:
                i = w.start + over[0]
                raise FrameDiscontinuity(
                    f"frame jump {jumps[over[0]]:.3e} between s={grid[i]:.6g} and "
                    f"s={grid[i + 1]:.6g} exceeds {_FRAME_JUMP_TOL}")
            if jumps.size:
                self._max_jump = max(self._max_jump, float(jumps.max()))

    def _lookup(self, index, read):
        """``read(window, i)`` at the grid indices ``index``, in their shape,
        each index ``i`` read from window ``i // L``, ``L`` the window length."""
        idx, first, last = self._indices(index)
        flat, length = idx.ravel(), self._length
        if first // length == last // length:
            out = read(self._window(first // length), flat)
        else:
            home, out = flat // length, None
            for k in range(first // length, last // length + 1):
                sel = np.flatnonzero(home == k)
                if sel.size:
                    values = read(self._window(k), flat[sel])
                    if out is None:
                        out = np.empty((len(flat),) + values.shape[1:], dtype=values.dtype)
                    out[sel] = values
        return out.reshape(idx.shape + out.shape[1:])

    def _indices(self, index):
        """Grid indices as an integer array, their least and largest (0, 0 if none)."""
        n = len(self.grid)
        idx = np.arange(*index.indices(n)) if isinstance(index, slice) else np.asarray(index)
        if idx.dtype.kind not in "iu":
            raise IndexError(f"grid indices must be integers, got {idx.dtype}")
        if not idx.size:
            return idx, 0, 0
        first, last = idx.min(), idx.max()
        if first < 0:
            idx = np.where(idx < 0, idx + n, idx)
            first, last = idx.min(), idx.max()
        if first < 0 or last >= n:
            raise IndexError(f"grid index out of range for {n} samples")
        return idx, first, last

    def _window(self, k):
        """Window ``k``: the samples ``[kL, (k+1)L)`` of window length ``L``,
        made here and nowhere else; the latest two made are kept."""
        start = int(k) * self._length
        for w in self._windows:
            if w.start == start:
                return w
        n = len(self.grid)
        w = _Window(start, min(n, start + self._length), n)
        w.u = self.basis0 @ dag(self._columns(w.lo, w.hi))     # U = basis0 cols^dagger
        self._windows = self._windows[-1:] + (w,)
        return w

    def _z(self, w):
        """``Z`` on the samples ``[start, stop)`` of the window ``w``:
        ``np.gradient(U, grid, axis=0, edge_order=2)`` on its haloed ``U``,
        one-sided near kinks.

        The window's rows get the bits of the whole-grid call: its scalar
        step when every spacing of the grid is bit-equal, else coordinates.
        ``np.gradient`` takes bit-equal coordinate spacings as one scalar
        step, so a window short of the whole grid gets one more coordinate,
        three spacings past a halo end that is not a grid end, with a copy of
        that end's ``U``: it and its neighbour are halo rows, never read."""
        x, n, u = self.grid, len(self.grid), w.u
        xs, f, first = x[w.lo:w.hi], u, w.start - w.lo    # f's row of sample start
        if self._step is not None:
            xs = self._step
        elif w.hi < n:
            xs, f = np.append(xs, xs[-1] + 3 * (xs[-1] - xs[-2])), np.concatenate((u, u[-1:]))
        elif w.lo > 0:
            xs, f = np.insert(xs, 0, xs[0] - 3 * (xs[1] - xs[0])), np.concatenate((u[:1], u))
            first += 1
        du = np.gradient(f, xs, axis=0, edge_order=2)[first:first + w.stop - w.start]
        i = np.arange(w.start, w.stop)
        k = i - w.lo                    # rows of u
        # near a schedule kink the symmetric stencil mixes two smooth pieces;
        # redo those samples one-sided (a sample exactly on a kink takes the
        # backward value)
        if self._breakpoints:
            lo, hi = x[np.maximum(i - 1, 0)], x[np.minimum(i + 1, n - 1)]
            near = [((lo < b) & (b < hi)) | (np.abs(b - x[i]) < 1e-15)
                    for b in self._breakpoints]
            for j in np.flatnonzero(np.any(near, axis=0)):
                b = next(b for b, hit in zip(self._breakpoints, near) if hit[j])
                r = k[j]
                if x[i[j]] <= b and i[j] >= 2:
                    dx = x[i[j]] - x[i[j] - 1]
                    du[j] = (3 * u[r] - 4 * u[r - 1] + u[r - 2]) / (2 * dx)
                elif i[j] + 2 < n:
                    dx = x[i[j] + 1] - x[i[j]]
                    du[j] = (-3 * u[r] + 4 * u[r + 1] - u[r + 2]) / (2 * dx)
        z = np.einsum("nij,nkj->nik", 1j * du, np.conj(u[k]))
        # i dU/ds U^dagger is exactly Hermitian; drop the finite-difference
        # anti-Hermitian residue so downstream generators preserve Hermiticity
        return 0.5 * (z + np.conj(np.transpose(z, (0, 2, 1))))


class _Window:
    """Grid samples ``[start, stop)`` of a frame, ``start`` a multiple of the
    window length, its ``U`` on the halo range ``[lo, hi)`` and the values
    made on ``[start, stop)``."""

    def __init__(self, start, stop, n):
        self.start, self.stop = start, stop
        self.lo, self.hi = max(0, start - _HALO), min(n, stop + _HALO)
        self.u = None
        self.cache = {}

    def value(self, name, fn):
        """``fn(self)``, made once per window and kept under ``name``."""
        if name not in self.cache:
            self.cache[name] = fn(self)
        return self.cache[name]


def _window_length(dim):
    """Grid samples per frame window, four ``(d, d)`` complex stacks each:
    256 at d = 4, fewer at larger ``d``."""
    return block_length(64 * dim * dim)


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


def _continued_columns(family, grid):
    """Numerically gauge-continued eigencolumns and their energies along the
    grid, labelled by an overlap chain from ``family.spectrum(grid[0])``."""
    prev = family.spectrum(grid[0])
    frames, energies = [], []
    for s in grid:
        e, raw = _eigencolumns(family, s, family.degeneracy_tol)
        d = _decomposition(e, raw)
        order = _match_order(d, prev)
        cols = [raw[j] for j in order]
        if frames:      # rotate each degenerate block onto the previous sample's
            cols = [x @ _polar_unitary(dag(x) @ x_prev) for x_prev, x in zip(frames[-1], cols)]
        frames.append(cols)
        prev = _relabel(d, prev, order)
        energies.append(prev.energies)
    return np.stack([np.hstack(f) for f in frames]), np.stack(energies), prev.ranks


def _analytic_columns(family, grid, basis):
    """An analytic basis on ``grid[start:stop]``, its columns grouped by the
    eigenspace of ``family.spectrum(grid[0])`` that holds them, and the
    family's energies at grid indices (:meth:`HamiltonianFamily.energies`),
    as two callables."""
    spec0 = family.spectrum(grid[:1]).take(0)
    c0 = np.asarray(evaluate_on(basis, grid[:1]), dtype=complex)[0]
    # weight[k, j] = <c_j|P_k|c_j> at grid[0]
    weight = np.einsum("aj,kab,bj->kj", np.conj(c0), np.stack(spec0.projectors), c0).real
    label = weight.argmax(axis=0)
    sizes = tuple(np.bincount(label, minlength=spec0.nspaces).tolist())
    if sizes != spec0.ranks or (np.abs(weight.max(axis=0) - 1.0) > 1e-6).any():
        raise ValueError("analytic basis columns do not match the eigenspace structure")
    order = np.argsort(label, kind="stable")

    def columns(start, stop):
        return np.asarray(evaluate_on(basis, grid[start:stop]), dtype=complex)[:, :, order]

    def energies(index):
        return family.energies(grid[index])

    return columns, energies, spec0.ranks


def build_transport_frame(family, grid, basis=None):
    """Construct a transport frame ``U(s) = sum_k |chi_k(0)><chi_k(s)|``.

    ``basis`` is an optional callable returning the model's analytic
    instantaneous eigenbasis as matrix columns (called once per window of
    grid samples when it is marked :func:`vectorized`); without it, a
    numerically phase/gauge-continued eigenbasis is built (successive
    samples aligned cluster-by-cluster via polar decomposition of the
    overlap) and its columns and energies are kept on the whole grid.

    Labels are those of ``family.spectrum(grid[0])``: an analytic column
    joins the eigenspace whose projector holds it (``ValueError`` unless
    within 1e-6), a numeric continuation starts its overlap chain there.
    A ``basis`` needs an ``analytic_spectrum`` too (``ValueError`` otherwise),
    and the grid at least three samples.

    Raises :class:`FrameDiscontinuity` when consecutive unitaries jump by
    more than ``_FRAME_JUMP_TOL`` in Frobenius norm, which signals a gauge
    singularity on the sampled path; every pair is checked here, a window
    at a time.  A numeric continuation clusters eigenvalues at
    ``family.degeneracy_tol``.
    """
    grid = np.asarray(grid, dtype=float)
    if basis is not None and family.analytic_spectrum is None:
        raise ValueError("basis needs a family with an analytic_spectrum")
    if len(grid) < 3:
        raise ValueError(f"a transport frame needs at least 3 grid samples, got {len(grid)}")
    if basis is None:
        cols, table, ranks = _continued_columns(family, grid)
        columns, energies = (lambda start, stop: cols[start:stop]), table.__getitem__
    else:
        columns, energies, ranks = _analytic_columns(family, grid, basis)

    offsets = np.cumsum((0,) + ranks)
    block_slices = tuple(slice(offsets[i], offsets[i + 1]) for i in range(len(ranks)))
    frame = TransportFrame(grid, columns, energies, columns(0, 1)[0], block_slices,
                           family.breakpoints)
    frame._check_jumps()
    return frame
