"""Gap functions and the resonance tensor.

For an eigenspace family with energies ``E_k(s)`` the gap functions are
``Delta_kl(s) = E_k(s) - E_l(s)``.  The boolean tensor ``g[k, l, k', l']``
records which pairs of gap functions coincide for *all* ``s`` in [0, 1];
only those pairs stay coupled in the adiabatic approximation.  Pairs whose
gap functions merely cross at isolated points are classified separately and
the crossing locations are refined by bisection.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import TangentialCrossing
from .spectral import evaluate_on

__all__ = [
    "CrossingCase",
    "ResonanceTensor",
    "gap_function",
    "compute_resonance_tensor",
]

_COINCIDE_TOL = 1e-9
_SLOPE_TOL = 1e-6


class CrossingCase(enum.Enum):
    CASE_I = "case_i"      # gap functions coincide everywhere or never meet
    CASE_II = "case_ii"    # transversal crossings at isolated points


@dataclass
class ResonanceTensor:
    """0/1 coincidence tensor over eigenspace index pairs.

    ``crossing_points`` holds ``((k, l), (kp, lp), s_star)`` for isolated
    transversal crossings; ``flagged`` records pairs whose gap functions
    coincide on a sub-interval of positive measure without coinciding
    systematically (outside both supported cases, reported with ``g = 0``).
    """

    nspaces: int
    g: np.ndarray                       # bool, shape (K, K, K, K)
    crossing_points: list = field(default_factory=list)
    flagged: list = field(default_factory=list)

    def case_of(self, pair_a, pair_b):
        key = frozenset((tuple(pair_a), tuple(pair_b)))
        for (p, q, _s) in self.crossing_points:
            if frozenset((p, q)) == key:
                return CrossingCase.CASE_II
        return CrossingCase.CASE_I

    def g_matrix(self):
        """The induced real symmetric matrix ``G[(k,kp), (l,lp)] = g[k,l,kp,lp]``."""
        k = self.nspaces
        return self.g.transpose(0, 2, 1, 3).reshape(k * k, k * k).astype(float)

    def validate_identities(self):
        """Exhaustive check of the delta and symmetry identities; raises
        ``AssertionError`` naming the first one that fails."""
        g, i = self.g, np.arange(self.nspaces)
        delta = np.eye(self.nspaces, dtype=bool)
        # the diagonals below have axes (l, k, k'), (k, l, l'), (k, k', l')
        # and (k, l, k'); delta broadcasts over the free one
        for name, lhs, rhs in (
                ("g[k,l,k',l] = delta[k,k']", g[:, i, :, i], delta),
                ("g[k,l,k,l'] = delta[l,l']", g[i, :, i, :], delta),
                ("g[k,k,k',l'] = delta[k',l']", g[i, i], delta),
                ("g[k,l,k',k'] = delta[k,l]", g[:, :, i, i], delta[..., None]),
                ("g[k,l,k',l'] = g[k',l',k,l]", g, g.transpose(2, 3, 0, 1)),
                ("g[k,l,k',l'] = g[l,k,l',k']", g, g.transpose(1, 0, 3, 2))):
            if not (lhs == rhs).all():
                raise AssertionError(f"resonance tensor breaks {name}")

    def to_csv(self, path):
        """Audit dump, one row per tensor entry (0-based indices)."""
        index = np.indices(self.g.shape).reshape(self.g.ndim, -1).T
        np.savetxt(path, np.column_stack([index, self.g.reshape(-1)]).astype(int),
                   fmt="%d", delimiter=",", newline="\r\n", header="k,l,kp,lp,g",
                   comments="")


def gap_function(decomp_at, k, l):
    """The gap map ``s -> E_k(s) - E_l(s)``; antisymmetric in (k, l) exactly."""
    def delta(s):
        e = decomp_at(s).energies
        return float(e[k] - e[l])
    return delta


def _bisect_root(h, lo, hi, tol=1e-6):
    flo = h(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo <= tol:
            return mid
        fmid = h(mid)
        if fmid == 0.0:
            return mid
        if (flo < 0) == (fmid < 0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def compute_resonance_tensor(decomp_at, grid=np.linspace(0.0, 1.0, 201)):
    """Classify every pair of gap functions over ``grid``, by default 201
    samples of [0, 1].

    ``g[k, l, kp, lp]`` is 1 iff ``max_s |Delta_kl(s) - Delta_kplp(s)|``
    over the grid is at most ``_COINCIDE_TOL``.  Sign changes of the
    difference are refined by bisection to 1e-6 and recorded as isolated
    crossings; a crossing whose local slope falls below ``_SLOPE_TOL``
    raises :class:`TangentialCrossing` because the transversality premise
    behind the classification fails there.  The energies on the grid come
    from :func:`.spectral.evaluate_on`: one call of a ``decomp_at`` marked
    :func:`.spectral.vectorized`, else one per sample.
    """
    grid = np.asarray(grid, dtype=float)
    if len(grid) < 33:
        raise ValueError("resonance classification needs at least 33 grid samples")
    energies = evaluate_on(decomp_at, grid).energies     # (n, K)
    k = energies.shape[1]
    g = np.zeros((k, k, k, k), dtype=bool)
    crossings, flagged = [], []

    pairs = [(a, b) for a in range(k) for b in range(k)]
    deltas = [energies[:, a] - energies[:, b] for a, b in pairs]
    for i, j in zip(*np.triu_indices(len(pairs))):
        pa, pb = pairs[i], pairs[j]
        diff = deltas[i] - deltas[j]
        near = np.abs(diff) <= _COINCIDE_TOL
        if near.all():
            g[pa + pb] = g[pb + pa] = True
            continue
        # a run of near-zero samples: coincidence on a sub-interval,
        # neither systematic nor an isolated crossing
        if (near[:-1] & near[1:]).any():
            flagged.append((pa, pb))
            continue
        da, db = gap_function(decomp_at, *pa), gap_function(decomp_at, *pb)
        h = lambda s: da(s) - db(s)
        # an isolated touch at a grid sample: a tangential touch fails the
        # slope check, a transversal one is a valid crossing
        for t in np.flatnonzero(near):
            _check_slope(h, grid[t], pa, pb)
            crossings.append((pa, pb, float(grid[t])))
        signs = np.where(near, 0, np.sign(diff)).astype(int)
        change = (signs[:-1] != 0) & (signs[1:] != 0) & (signs[:-1] != signs[1:])
        for t in np.flatnonzero(change):
            s_star = _bisect_root(h, grid[t], grid[t + 1])
            _check_slope(h, s_star, pa, pb)
            crossings.append((pa, pb, float(s_star)))
    return ResonanceTensor(nspaces=k, g=g, crossing_points=crossings, flagged=flagged)


def _check_slope(h, s, pa, pb):
    step = 1e-6
    lo = max(s - step, 0.0)
    hi = min(s + step, 1.0)
    slope = (h(hi) - h(lo)) / (hi - lo)
    if abs(slope) < _SLOPE_TOL:
        raise TangentialCrossing(
            f"gap functions {pa} and {pb} touch at s={s:.6f} with slope "
            f"{slope:.3e} below {_SLOPE_TOL:.1e}"
        )
