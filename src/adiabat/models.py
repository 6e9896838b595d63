"""The two concrete model systems shipped with the library.

Holonomic gate model: a four-level system with ground states ``0, 1, a``
coupled to an excited state ``e`` through a unit-length coupling vector
parametrized by sphere angles ``(theta, phi)``.  The doubly degenerate
zero-energy (dark) subspace carries the computational qubit; transporting
it around a closed "orange slice" on the parameter sphere enacts a rotation
gate.  Decoherence enters through the jump operator ``|a><a|``.

Random rotating model: ``H(s) = exp(-isZ) H0 exp(isZ)`` with fixed random
Hermitian ``H0, Z`` and a double-commutator decoherence term built from a
fixed random Hermitian ``A``.

Units: couplings are scaled to unit length, energies are measured in units
of the bright-state splitting and times in its inverse; a run is always
parametrized by ``s = t/T`` on [0, 1].

Basis order for the holonomy model: ``|0>, |1>, |a>, |e>``.

Arrays: :func:`holonomy_hamiltonian`, :func:`analytic_eigenbasis`,
:meth:`HolonomyPath.angles` (and ``rates``),
:meth:`RandomRotatingModel.rotation` also take arrays of angles or of
``s`` and return stacks along the leading axes, and the families built
here are marked :func:`.spectral.vectorized`.
"""
from __future__ import annotations

import enum
import functools
from dataclasses import astuple, dataclass

import numpy as np

from .errors import BadSplit, GaugeSingularity
from .generators import LindbladDissipator
from .linalg import dag, hermitian_eigendecompose
from .spectral import HamiltonianFamily, SpectralDecomposition, vectorized

__all__ = [
    "Gauge",
    "holonomy_hamiltonian",
    "analytic_eigenbasis",
    "HolonomyPath",
    "build_orange_path",
    "build_pole_crossing_path",
    "holonomy_gate",
    "holonomy_family",
    "holonomy_dissipator",
    "computational_projector",
    "initial_state",
    "approximate_block_matrix",
    "closed_form_output",
    "RandomRotatingModel",
    "make_random_model",
]


class Gauge(enum.Enum):
    """Choice of instantaneous dark eigenbasis.

    ``EQUATOR_REGULAR`` is the plain sphere-angle basis; its connection is
    singular at both poles.  ``NORTH_POLE_REGULAR`` rotates the dark pair
    by the azimuth so the connection is well defined everywhere except the
    south pole.
    """

    EQUATOR_REGULAR = "equator"
    NORTH_POLE_REGULAR = "north_pole"


# ---------------------------------------------------------------------------
# Hamiltonian and eigenbasis
# ---------------------------------------------------------------------------

def holonomy_hamiltonian(theta, phi):
    """Four-level coupling Hamiltonian at sphere angles ``(theta, phi)``;
    a stack ``(..., 4, 4)`` for arrays of angles."""
    w0 = np.sin(theta) * np.sin(phi)
    w1 = np.sin(theta) * np.cos(phi)
    wa = np.cos(theta)
    h = np.zeros(np.shape(w0) + (4, 4), dtype=complex)
    h[..., 3, 0] = h[..., 0, 3] = w0
    h[..., 3, 1] = h[..., 1, 3] = w1
    h[..., 3, 2] = h[..., 2, 3] = wa
    return h


_SOUTH_POLE_TOL = 1e-12


def analytic_eigenbasis(theta, phi, gauge=Gauge.EQUATOR_REGULAR):
    """Closed-form instantaneous eigenbasis as matrix columns.

    Columns 0, 1 span the dark subspace, column 2 has energy +1 and
    column 3 energy -1.  In the north-pole-regular gauge the dark pair is
    rotated by ``-phi`` in its own plane, which makes the columns
    azimuth-independent at ``theta = 0``; that gauge is undefined at the
    south pole.  Arrays of angles give a stack ``(..., 4, 4)``.
    """
    st, ct = np.sin(theta), np.cos(theta)
    sp, cp = np.sin(phi), np.cos(phi)
    zero, one = np.zeros_like(ct), np.ones_like(ct)

    def column(*entries):
        return np.stack(entries, axis=-1).astype(complex)

    chi1 = column(cp, -sp, zero, zero)
    chi2 = column(sp * ct, cp * ct, -st, zero)
    chi3 = column(sp * st, cp * st, ct, one) / np.sqrt(2.0)
    chi4 = column(sp * st, cp * st, ct, -one) / np.sqrt(2.0)
    if gauge is Gauge.NORTH_POLE_REGULAR:
        if np.any(np.abs(theta - np.pi) < _SOUTH_POLE_TOL):
            raise GaugeSingularity(
                "north-pole-regular gauge is undefined at the south pole"
            )
        cp, sp = cp[..., None], sp[..., None]
        chi1, chi2 = cp * chi1 + sp * chi2, -sp * chi1 + cp * chi2
    return np.stack([chi1, chi2, chi3, chi4], axis=-1)


# ---------------------------------------------------------------------------
# parameter paths
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Segment:
    s0: float
    s1: float
    theta0: float
    theta1: float
    phi0: float
    phi1: float

    def angles(self, s):
        frac = (s - self.s0) / (self.s1 - self.s0)
        return (self.theta0 + (self.theta1 - self.theta0) * frac,
                self.phi0 + (self.phi1 - self.phi0) * frac)

    def rates(self):
        return ((self.theta1 - self.theta0) / (self.s1 - self.s0),
                (self.phi1 - self.phi0) / (self.s1 - self.s0))


@dataclass(frozen=True)
class HolonomyPath:
    """Piecewise-linear schedule ``s -> (theta(s), phi(s))`` on [0, 1]."""

    segments: tuple

    @property
    def breakpoints(self):
        return tuple(seg.s0 for seg in self.segments[1:])

    @functools.cached_property
    def _table(self):
        return np.array([astuple(seg) for seg in self.segments])

    def _which(self, s):
        """The segment holding ``s``, whose fields are arrays of the shape of
        ``s`` for an array: the first one with ``s0 <= s < s1``, else the
        last one.  The segments tile [0, 1] in order, so that is the last one
        with ``s0 <= s``; index -1 (``s`` before the first) is the last one."""
        table = self._table
        return _Segment(*table[np.searchsorted(table[:, 0], s, side="right") - 1].T)

    def angles(self, s):
        """``(theta, phi)`` at ``s``: numbers for a number, arrays of the
        shape of ``s`` for an array, each sample on its own segment."""
        return self._which(s).angles(s)

    def rates(self, s):
        """``(dtheta/ds, dphi/ds)`` at ``s``, shaped as :meth:`angles`."""
        return self._which(s).rates()


DEFAULT_SPLIT = (0.4, 0.2, 0.4, 0.0)     # run-time fractions of the four legs


def build_orange_path(delta_phi, split=DEFAULT_SPLIT):
    """Orange-slice loop: down the zero meridian, along the equator by
    ``delta_phi``, back up the ``delta_phi`` meridian, plus an optional
    zero-length return at the pole.

    ``split`` distributes the run-time over the four legs, leg ``i`` taking
    ``split[i] T`` of a run of length ``T``; the default weights the three
    circle segments by arc length and drops the fourth (it degenerates to
    the pole point and costs no adiabaticity).
    """
    split = tuple(float(f) for f in split)
    if (len(split) != 4 or not all(0.0 <= f < np.inf for f in split)
            or abs(sum(split) - 1.0) > 1e-12):
        raise BadSplit(f"segment fractions {split} must be four finite numbers >= 0 "
                       f"summing to 1")
    if not 0.0 <= delta_phi < 2.0 * np.pi:
        raise BadSplit(f"opening angle {delta_phi} outside [0, 2*pi)")

    half_pi = 0.5 * np.pi
    vertices = [(0.0, 0.0), (half_pi, 0.0), (half_pi, delta_phi),
                (0.0, delta_phi), (0.0, 0.0)]
    bounds = np.concatenate([[0.0], np.cumsum(split)])
    bounds[-1] = 1.0
    segments = []
    for i in range(4):
        if bounds[i + 1] - bounds[i] <= 0.0:
            continue
        (t0, p0), (t1, p1) = vertices[i], vertices[i + 1]
        segments.append(_Segment(bounds[i], bounds[i + 1], t0, t1, p0, p1))
    return HolonomyPath(segments=tuple(segments))


def build_pole_crossing_path():
    """A geodesic through the north pole: physically smooth, but the
    azimuth jumps by pi at the crossing.  Exposes the equator-gauge
    singularity as a transport-frame discontinuity."""
    segments = (
        _Segment(0.0, 0.5, 0.5 * np.pi, 0.0, 0.0, 0.0),
        _Segment(0.5, 1.0, 0.0, 0.5 * np.pi, np.pi, np.pi),
    )
    return HolonomyPath(segments=segments)


# ---------------------------------------------------------------------------
# model assembly
# ---------------------------------------------------------------------------

def holonomy_gate(delta_phi):
    """Rotation gate associated with a swept solid angle ``delta_phi``,
    in the dark computational basis."""
    c, s = np.cos(delta_phi), np.sin(delta_phi)
    return np.array([[c, -s], [s, c]], dtype=complex)


def computational_projector():
    return np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex)


def holonomy_dissipator():
    """Environment sensitive to population of the auxiliary level ``a``."""
    v = np.zeros((4, 4), dtype=complex)
    v[2, 2] = 1.0
    return LindbladDissipator.constant([v])


def initial_state(x, y):
    """Computational qubit state with Bloch angles (x, y), embedded in the
    four-level space."""
    psi = np.zeros(4, dtype=complex)
    psi[0] = np.cos(0.5 * x)
    psi[1] = np.exp(-1j * y) * np.sin(0.5 * x)
    return psi


@vectorized
def _holonomy_energies(s):
    return np.broadcast_to([-1.0, 0.0, 1.0], np.shape(s) + (3,)).copy()


def _holonomy_spectrum(path):
    @vectorized
    def spectrum(s):
        theta, phi = path.angles(s)
        c = analytic_eigenbasis(theta, phi, Gauge.EQUATOR_REGULAR)
        dark = c[..., :2] @ dag(c[..., :2])
        plus = c[..., :, 2, None] * np.conj(c[..., None, :, 2])
        minus = c[..., :, 3, None] * np.conj(c[..., None, :, 3])
        return SpectralDecomposition(
            energies=_holonomy_energies(s),
            projectors=[minus, dark, plus],
            ranks=(1, 2, 1),
        )
    return spectrum


def holonomy_family(path, gauge=Gauge.NORTH_POLE_REGULAR):
    """Hamiltonian family along a path, with analytic spectrum and basis."""
    return HamiltonianFamily(
        dim=4,
        evaluate=vectorized(lambda s: holonomy_hamiltonian(*path.angles(s))),
        analytic_spectrum=_holonomy_spectrum(path),
        analytic_basis=vectorized(lambda s: analytic_eigenbasis(*path.angles(s), gauge)),
        analytic_energies=_holonomy_energies,
        n_eigenspaces=3,
        breakpoints=path.breakpoints,
    )


def approximate_block_matrix(path, gamma, T, s):
    """Closed-form 6x6 generator of the diagonal blocks in the equator
    gauge, for the component order
    ``(rho_11, rho_12, rho_21, rho_22, rho_33, rho_44)`` (dark block, then
    the two bright populations); an ``(n, 6, 6)`` stack for an array ``s``."""
    theta, _ = path.angles(s)
    _, dphi = path.rates(s)
    if np.any((np.abs(np.sin(theta)) < 1e-12) & (dphi != 0.0)):
        raise GaugeSingularity(
            "equator gauge is singular where the azimuth varies at a pole"
        )
    # products, not powers: ct ** 4 of an array and of a number can differ
    st, ct = np.sin(theta), np.cos(theta)
    st2, ct2 = st * st, ct * ct
    gt = gamma * T
    f = gt * st2 * ct2
    g = gt * (1.0 + st2) * ct2
    p = dphi * ct
    m = np.zeros(np.shape(s) + (6, 6), dtype=complex)
    m[..., 0, 1] = m[..., 0, 2] = m[..., 1, 3] = m[..., 2, 3] = -p
    m[..., 1, 0] = m[..., 2, 0] = m[..., 3, 1] = m[..., 3, 2] = p
    m[..., 1, 1] = m[..., 2, 2] = -0.5 * gt * st2
    m[..., 3, 3] = -f
    m[..., 3, 4] = m[..., 3, 5] = m[..., 4, 3] = m[..., 5, 3] = 0.5 * f
    m[..., 4, 4] = m[..., 5, 5] = -0.25 * g
    m[..., 4, 5] = m[..., 5, 4] = 0.25 * gt * (ct2 * ct2)
    return m


def closed_form_output(x, y, delta_phi, gamma, t1, t2, t3):
    """Closed-form computational-block output of the approximate evolution
    over the orange-slice path (segment runtimes ``t1, t2, t3``)."""
    f1 = 0.5 * np.exp(-0.25 * gamma * (t3 + 2.0 * t2 + t1)) * np.exp(-1j * y) * np.sin(x)
    f2 = 1.0 / 3.0 + (2.0 / 3.0) * np.exp(-3.0 * gamma * (t3 + t1) / 16.0)
    rho = np.array([
        [0.5 + 0.5 * np.cos(x), f1],
        [np.conj(f1), (0.5 - 0.5 * np.cos(x)) * f2],
    ], dtype=complex)
    u = holonomy_gate(delta_phi)
    return u @ rho @ dag(u)


# ---------------------------------------------------------------------------
# random rotating-frame model
# ---------------------------------------------------------------------------

@dataclass
class RandomRotatingModel:
    """Isospectral family ``H(s) = exp(-isZ) H0 exp(isZ)`` with a fixed
    decoherence direction ``A`` (double-commutator dissipator)."""

    dim: int
    h0: np.ndarray
    z: np.ndarray
    a: np.ndarray
    psi0: np.ndarray

    def __post_init__(self):
        self._z_eig = hermitian_eigendecompose(self.z, 1e-12)
        self._h0_eig = hermitian_eigendecompose(self.h0, 1e-12)

    def rotation(self, s):
        """``exp(-isZ)``; a stack ``(..., d, d)`` for an array ``s``."""
        wz, vz = self._z_eig
        phase = np.exp((-1j * np.asarray(s))[..., None] * wz)
        return (vz * phase[..., None, :]) @ dag(vz)

    def family(self):
        w0, v0 = self._h0_eig
        projs0 = [np.outer(v0[:, k], np.conj(v0[:, k])) for k in range(self.dim)]

        @vectorized
        def evaluate(s):
            r = self.rotation(s)
            return r @ self.h0 @ dag(r)

        @vectorized
        def energies(s):
            return np.broadcast_to(w0, np.shape(s) + w0.shape).copy()

        @vectorized
        def spectrum(s):
            r = self.rotation(s)
            return SpectralDecomposition(
                energies=energies(s),
                projectors=[r @ p @ dag(r) for p in projs0],
                ranks=(1,) * self.dim,
            )

        return HamiltonianFamily(
            dim=self.dim,
            evaluate=evaluate,
            analytic_spectrum=spectrum,
            analytic_basis=vectorized(lambda s: self.rotation(s) @ v0),
            analytic_energies=energies,
            n_eigenspaces=self.dim,
        )

    def dissipator(self):
        return LindbladDissipator.double_commutator(self.a)

    def initial_density(self):
        return np.outer(self.psi0, np.conj(self.psi0))


def _random_hermitian(rng, dim):
    g = (rng.standard_normal((dim, dim))
         + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    return 0.5 * (g + dag(g))


def make_random_model(seed, dim=4):
    """Draw ``H0, Z, A`` and the pure initial state from a PCG64 stream.

    Entries of the pre-symmetrization matrices are standard complex
    Gaussians (real and imaginary parts N(0, 1/2)); the draw order is
    ``H0, Z, A, state`` and the construction is deterministic per seed.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    h0 = _random_hermitian(rng, dim)
    z = _random_hermitian(rng, dim)
    a = _random_hermitian(rng, dim)
    psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    psi = psi / np.linalg.norm(psi)
    return RandomRotatingModel(dim=dim, h0=h0, z=z, a=a, psi0=psi)
