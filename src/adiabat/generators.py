"""Evolution generators as superoperator matrices.

Builds the exact generator ``-iT[H(s), .] + Gamma T D_s`` and its adiabatic
approximation with the projector-filtered dissipator, the rotated-frame
block form of the approximate equation, the factorization of the filtered
dissipator back into Lindblad form, and Choi-matrix complete-positivity
certification for propagators.

The lab-frame pieces take a 1-D array of ``s`` as well as a number and
then return ``(n, d^2, d^2)`` stacks: :meth:`LindbladDissipator.superoperator`,
:func:`hamiltonian_superop` (of an operator stack),
:func:`exact_generator`, :func:`filtered_dissipator_superop` (of a stacked
decomposition) and :func:`approximate_generator`.  :class:`ExactGenerator`
and :class:`ApproximateGenerator` are marked ``vectorized``, so the
integrator hands them a chunk's midpoints at once.  Operator callables
(jump operators, ``q_of_s``) marked :func:`.spectral.vectorized` are
called once per array, any other once per sample.

All superoperators use the column-stacking convention of :mod:`.linalg`.
In a basis with the eigenspaces in block order, the projector filter of
the approximate equation is a 0/1 mask on the dissipator's components.
The rotated frame uses the transport frame's initial eigenbasis
(``frame.basis0``); the lab-frame filter uses an eigenbasis of
``sum_k (k + 1) P_k(s)`` and changes back.  One assembly,
:class:`RotatedFrameGenerator`, builds both rotated-frame generators, and
one Lindblad formula serves every dissipator.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import AmbiguousClustering, BlockNotClosed, DimensionMismatch, NegativeGSpectrum
from .linalg import (
    dag,
    frobenius,
    hermitian_eigendecompose,
    sandwich_superop,
    vec,
)
from .spectral import evaluate_on, geometric_term, vectorized

__all__ = [
    "LindbladDissipator",
    "hamiltonian_superop",
    "trace_preservation_defect",
    "exact_generator",
    "approximate_generator",
    "filtered_dissipator_superop",
    "ExactGenerator",
    "ApproximateGenerator",
    "RotatedFrameGenerator",
    "rotated_block_generator",
    "block_component_indices",
    "LindbladFactorization",
    "lindblad_factorize",
    "choi_matrix",
    "cp_check",
]

_G_EIGENVALUE_CUTOFF = 1e-12
_LABEL_TOL = 1e-8               # filtered_dissipator_superop's eigenvalue labels


# ---------------------------------------------------------------------------
# dissipators
# ---------------------------------------------------------------------------

@dataclass
class LindbladDissipator:
    """Time-dependent Lindblad dissipator ``D_s``.

    ``D_s(rho) = -i[F(s), rho] + sum_n V_n rho V_n^dag
                 - (1/2) {V_n^dag V_n, rho}``

    ``hamiltonian_part`` may be None for a purely dissipative process.
    The operators are callables of ``s``; the ones of :meth:`constant` are
    marked :func:`.spectral.vectorized`.
    """

    dim: int
    hamiltonian_part: Optional[Callable[[float], np.ndarray]] = None
    jump_operators: Sequence[Callable[[float], np.ndarray]] = ()

    @classmethod
    def constant(cls, jumps, f=None):
        """Dissipator with s-independent operators."""
        jumps = [np.asarray(v, dtype=complex) for v in jumps]
        dim = jumps[0].shape[0] if jumps else np.asarray(f).shape[0]
        fham = None if f is None else _constant(np.asarray(f, dtype=complex))
        return cls(dim=dim,
                   hamiltonian_part=fham,
                   jump_operators=[_constant(v) for v in jumps])

    @classmethod
    def double_commutator(cls, a):
        """The pure-decoherence process ``rho -> -[A, [A, rho]]`` in Lindblad
        form: no Hamiltonian part, single jump ``sqrt(2) A``."""
        a = np.asarray(a, dtype=complex)
        return cls.constant([np.sqrt(2.0) * a])

    def f_at(self, s):
        if self.hamiltonian_part is None:
            return np.zeros(np.shape(s) + (self.dim, self.dim), dtype=complex)
        return np.asarray(evaluate_on(self.hamiltonian_part, s), dtype=complex)

    def jumps_at(self, s):
        return [np.asarray(evaluate_on(v, s), dtype=complex) for v in self.jump_operators]

    def superoperator(self, s, w=None):
        """``D_s`` as a ``(d^2, d^2)`` matrix; a stack for an array ``s``.
        With a unitary ``w`` (a stack for an array ``s``), the dissipator of
        ``w F w^dagger`` and ``w V_n w^dagger`` instead."""
        conj = (lambda m: m) if w is None else (lambda m: w @ m @ dag(w))
        # a zero F only when there is nothing else to build
        f = (None if self.hamiltonian_part is None and self.jump_operators
             else conj(self.f_at(s)))
        return _lindblad_superop(f, [conj(v) for v in self.jumps_at(s)])


def _lindblad_superop(f, jumps):
    """Superoperator of ``rho -> -i[F, rho] + sum_n V_n rho V_n^dag
    - (1/2) {V_n^dag V_n, rho}``, stacked for stacked operators; ``f`` None
    skips the Hamiltonian part (then 0 if there are no jumps either)."""
    out = 0.0 if f is None else hamiltonian_superop(f)
    for v in jumps:
        eye = np.eye(v.shape[-1], dtype=complex)
        half = 0.5 * (dag(v) @ v)       # scaling by 0.5 is exact
        jump = sandwich_superop(v, dag(v))
        out = jump if np.ndim(out) == 0 else out + jump
        out -= sandwich_superop(half, eye)
        out -= sandwich_superop(eye, half)
    return out


def _constant(m):
    """The callable ``s -> m``, broadcast to a stack for an array ``s``."""
    return vectorized(lambda s: np.broadcast_to(m, np.shape(s) + m.shape))


def hamiltonian_superop(h):
    """Superoperator of ``rho -> -i[h, rho]``; a stack for a stack ``h``."""
    h = np.asarray(h, dtype=complex)
    eye = np.eye(h.shape[-1], dtype=complex)
    return -1j * (sandwich_superop(h, eye) - sandwich_superop(eye, h))


def trace_preservation_defect(superop):
    """``max |vec(I)^dag L|``; zero for trace-preserving generators."""
    d = int(round(np.sqrt(superop.shape[0])))
    row = vec(np.eye(d, dtype=complex)).conj() @ superop
    return float(np.abs(row).max())


# ---------------------------------------------------------------------------
# exact and approximate generators (lab frame)
# ---------------------------------------------------------------------------

def exact_generator(family, dissipator, T, gamma, s):
    """``-iT[H(s), .] + Gamma T D_s`` as a (d^2, d^2) matrix; a stack for
    an array ``s``."""
    if family.dim != dissipator.dim:
        raise DimensionMismatch(
            f"Hamiltonian dim {family.dim} != dissipator dim {dissipator.dim}"
        )
    g = T * hamiltonian_superop(family.hamiltonian(s))
    if gamma != 0.0:
        g = g + gamma * T * dissipator.superoperator(s)
    return g


def filtered_dissipator_superop(dissipator, tensor, decomp, s):
    """Projector-filtered dissipator
    ``sum_{klk'l'} g_klk'l' P_k D_s(P_k' . P_l') P_l`` as a superoperator;
    a stack for an array ``s`` with the decomposition stacked over it.

    In the eigenbasis ``W`` of ``sum_k (k + 1) P_k`` (labels ``k`` in block
    order) the sum is the tensor's coupling mask on ``D'``, the dissipator
    of ``W^dagger F W`` and ``W^dagger V_n W``.  The weights are positive,
    so eigenvalues ``k + 1`` prove that the projectors, of the stated ranks,
    resolve the identity orthogonally; else :class:`AmbiguousClustering`."""
    labels = np.repeat(np.arange(decomp.nspaces), decomp.ranks)
    weighted = sum((k + 1.0) * p for k, p in enumerate(decomp.projectors))
    values, w = np.linalg.eigh(0.5 * (weighted + dag(weighted)))
    worst = np.abs(values - labels - 1.0).max() if labels.size == decomp.dim else np.inf
    if not worst <= _LABEL_TOL:
        raise AmbiguousClustering(f"projectors do not resolve the identity: an eigenvalue"
                                  f" of sum (k+1) P_k is {worst:.3e} off its label plus one")
    masked = np.where(_coupling_mask(tensor, labels), dissipator.superoperator(s, dag(w)), 0.0)
    back = sandwich_superop(w, dag(w))      # X -> W X W^dagger; its adjoint rotates in
    return back @ masked @ dag(back)


def approximate_generator(family, dissipator, tensor, T, gamma, s, q_of_s=None):
    """Adiabatic approximation of the exact generator.

    ``-i[T H(s) + Q(s), .] + Gamma T sum g_klk'l' P_k D_s(P_k' . P_l') P_l``

    ``q_of_s`` supplies the geometric term; by default it is computed by
    finite differences of the eigenprojectors.  A ``q_of_s`` marked
    :func:`.spectral.vectorized` may return ``(Q, spectrum)`` instead, as
    :func:`.spectral.geometric_term` does with ``with_spectrum=True``; the
    filter then reads that spectrum at ``s`` rather than building it again.
    The resonance tensor must have been built from the same family (same
    eigenspace labels).
    """
    if family.dim != dissipator.dim:
        raise DimensionMismatch(
            f"Hamiltonian dim {family.dim} != dissipator dim {dissipator.dim}"
        )
    q = (geometric_term(family, s, with_spectrum=True) if q_of_s is None
         else evaluate_on(q_of_s, s))
    q, spectrum = q if isinstance(q, tuple) else (q, None)
    g = hamiltonian_superop(T * family.hamiltonian(s) + q)
    if gamma != 0.0:
        spectrum = family.spectrum(s) if spectrum is None else spectrum
        g = g + gamma * T * filtered_dissipator_superop(dissipator, tensor, spectrum, s)
    return g


@dataclass
class ExactGenerator:
    """Callable ``s -> exact generator matrix``; takes an array of ``s``."""

    vectorized = True

    family: object
    dissipator: LindbladDissipator
    T: float
    gamma: float

    def __call__(self, s):
        return exact_generator(self.family, self.dissipator, self.T, self.gamma, s)


@dataclass
class ApproximateGenerator:
    """Callable ``s -> approximate generator matrix`` (lab frame); takes an
    array of ``s``."""

    vectorized = True

    family: object
    dissipator: LindbladDissipator
    tensor: object
    T: float
    gamma: float
    q_of_s: Optional[Callable[[float], np.ndarray]] = None

    def __call__(self, s):
        return approximate_generator(self.family, self.dissipator, self.tensor,
                                     self.T, self.gamma, s, self.q_of_s)


# ---------------------------------------------------------------------------
# rotated-frame block form
# ---------------------------------------------------------------------------

def _block_table(frame, block_set):
    """A block set, ``"all"``, ``"diagonal"`` or ``(k, l)`` pairs, as a (K, K) boolean."""
    k = len(frame.block_slices)
    if isinstance(block_set, str):
        return {"all": np.ones((k, k), bool), "diagonal": np.eye(k, dtype=bool)}[block_set]
    blocks = np.zeros((k, k), dtype=bool)
    blocks[tuple(np.asarray(list(block_set), dtype=int).reshape(-1, 2).T)] = True
    return blocks


def _component_labels(labels):
    """Labels ``(k, l)`` of each vec component ``p = col*d + row`` of a basis
    with eigenspace ``labels``: two (d^2,) arrays."""
    return np.tile(labels, len(labels)), np.repeat(labels, len(labels))


def _coupling_mask(tensor, labels):
    """The tensor's couplings of vec components, ``mask[p, q] = g[k_p, l_p, k_q, l_q]``."""
    k, l = _component_labels(labels)
    return tensor.g[k[:, None], l[:, None], k[None, :], l[None, :]]


def block_component_indices(frame, block_set):
    """Vectorization indices carrying the selected ``(k, l)`` blocks, in
    column-stacking order, for states expressed in ``frame.basis0``."""
    return np.flatnonzero(_block_table(frame, block_set)[_component_labels(frame.labels)]).tolist()


@dataclass
class RotatedFrameGenerator:
    """Rotated-frame generators of one ``(dissipator, tensor, frame, T)``
    on the frame components (:meth:`.TransportFrame.rotation`), called as
    ``(s, gamma, approximate)`` with ``s`` a frame grid point or an array;
    :meth:`pieces` gives the parts that every gamma shares.

    Exact: ``-iT Delta(s) - i[Z^, .] + Gamma T D~_s``, with ``Delta`` the
    gaps of ``frame.energies`` at ``s``, ``Z^ = C0^dagger Z(s) C0`` and
    ``D~_s`` the Lindblad superoperator of ``W F W^dagger`` and
    ``W V_n W^dagger``, ``W = C0^dagger U(s)``.  Approximate: only the
    eigenspace blocks of ``Z^`` and the couplings of ``D~_s`` the resonance
    tensor allows.  No dissipator at ``gamma = 0``.
    """

    vectorized = True

    dissipator: LindbladDissipator
    tensor: object
    frame: object
    T: float

    def __post_init__(self):
        self._k, self._l = _component_labels(self.frame.labels)
        self._mask = _coupling_mask(self.tensor, self.frame.labels)
        self._same_block = np.equal.outer(self.frame.labels, self.frame.labels)

    def __call__(self, s, gamma, approximate):
        base, dhat = self.pieces(s, [approximate], gamma != 0.0)
        return (base if dhat is None else base + gamma * dhat)[..., 0, :, :]

    def pieces(self, s, kinds, dissipative=True):
        """The gamma-independent pieces of the generators at ``s`` of each
        kind in ``kinds`` (``approximate`` flags), stacked on the axis before
        the matrix axes: the base, and ``T D^``, the dissipator part (None
        unless ``dissipative``).  The generator of ``(gamma, approximate)``
        is ``base + gamma T D^``, so these pieces serve every gamma."""
        frame, c0 = self.frame, self.frame.basis0
        i = frame.index_of(s)       # one grid lookup serves E, Z and W
        e = frame.energies(i)
        gaps = -1j * self.T * (e[..., self._k] - e[..., self._l])
        diag = np.arange(gaps.shape[-1])
        delta = np.zeros(gaps.shape + gaps.shape[-1:], dtype=complex)
        delta[..., diag, diag] = gaps
        zhat = dag(c0) @ frame.z(i) @ c0
        base = np.stack([delta + hamiltonian_superop(
            np.where(self._same_block, zhat, 0.0) if approx else zhat) for approx in kinds],
            axis=-3)
        if not dissipative:
            return base, None
        w = dag(c0) @ frame.u(i)        # frame.rotation(s)
        dhat = self.T * self.dissipator.superoperator(s, w)
        return base, np.stack([np.where(self._mask, dhat, 0.0) if approx else dhat
                               for approx in kinds], axis=-3)


def rotated_block_generator(dissipator, tensor, frame, T, gamma, s, block_set="all"):
    """Approximate-equation generator in the rotated frame, restricted to a
    closed set of blocks.

    Acts on the frame components.  Implements,
    per block ``(k, l)`` of the selected set,

        d/ds rho^(kl) = -iT Delta_kl(s) rho^(kl) - i Z_k rho^(kl)
                        + i rho^(kl) Z_l
                        + Gamma T sum_{k'l'} g_klk'l' P_k(0) D~_s(rho^(k'l')) P_l(0)

    with ``Z_l`` the block-diagonal parts of the frame generator and
    ``D~_s`` the dissipator conjugated into the rotated frame: the
    approximate :class:`RotatedFrameGenerator` with omitted blocks zeroed,
    so couplings forbidden by the tensor are structurally zero.  Labels and
    gaps come from ``frame``.

    Raises :class:`BlockNotClosed` if the tensor couples a selected block to
    an omitted one.
    """
    blocks = _block_table(frame, block_set)
    leaks = np.argwhere(tensor.g & blocks[:, :, None, None] & ~blocks)
    if leaks.size:
        a, b, kp, lp = leaks[0]
        raise BlockNotClosed(f"block ({a},{b}) couples to omitted block ({kp},{lp})")

    gen = RotatedFrameGenerator(dissipator, tensor, frame, T)(s, gamma, approximate=True)
    keep = blocks[_component_labels(frame.labels)]
    gen[..., ~keep, :] = 0.0
    gen[..., :, ~keep] = 0.0
    return gen


# ---------------------------------------------------------------------------
# Lindblad re-factorization of the filtered dissipator
# ---------------------------------------------------------------------------

@dataclass
class LindbladFactorization:
    """Lindblad form of the projector-filtered dissipator at one ``s``.

    ``superoperator()`` rebuilds the dissipator from the factorized pieces,
    built from projector sandwiches; agreement with the independent basis
    and mask construction of :func:`filtered_dissipator_superop` certifies
    that the approximate equation generates completely positive dynamics.
    """

    effective_hamiltonian: np.ndarray
    lindblad_ops: list
    g_eigenvalues: np.ndarray

    def superoperator(self):
        return _lindblad_superop(self.effective_hamiltonian, self.lindblad_ops)

    def reconstruction_error(self, dissipator, tensor, decomp, s):
        target = filtered_dissipator_superop(dissipator, tensor, decomp, s)
        return frobenius(self.superoperator() - target)


def lindblad_factorize(dissipator, tensor, decomp, s):
    """Factorize the filtered dissipator back into Lindblad form.

    Diagonalizes the symmetric coupling matrix ``G[(k,k'), (l,l')] =
    g_klk'l'`` as ``G = sum_m lambda_m c^m (c^m)^dag`` and builds jump
    operators ``M_n^m = sqrt(lambda_m) sum_kk' c^m_kk' P_k V_n P_k'`` for
    every ``lambda_m`` above ``_G_EIGENVALUE_CUTOFF``; the Hamiltonian part
    filters to ``sum_k P_k F P_k``.

    Raises :class:`NegativeGSpectrum` if any ``lambda_m < -1e-10``: the
    complete-positivity argument fails for such a tensor.
    """
    gmat = tensor.g_matrix()
    lam, cvecs = hermitian_eigendecompose(gmat.astype(complex), 1e-12)
    if lam.min() < -1e-10:
        raise NegativeGSpectrum(
            f"coupling matrix has eigenvalue {lam.min():.3e} < -1e-10"
        )
    lam = np.clip(lam, 0.0, None)

    projs = decomp.projectors
    fmat = dissipator.f_at(s)

    ops = []
    for v in dissipator.jumps_at(s):
        # sandwich a * K + b is P_a V P_b, matching the rows of cvecs
        sandwiches = [pa @ v @ pb for pa in projs for pb in projs]
        for m in range(len(lam)):
            if lam[m] <= _G_EIGENVALUE_CUTOFF:
                continue
            op = sum(c * x for c, x in zip(cvecs[:, m], sandwiches))
            ops.append(np.sqrt(lam[m]) * op)
    return LindbladFactorization(
        effective_hamiltonian=sum(p @ fmat @ p for p in projs),
        lindblad_ops=ops,
        g_eigenvalues=lam,
    )


# ---------------------------------------------------------------------------
# complete positivity via Choi matrices
# ---------------------------------------------------------------------------

def choi_matrix(channel):
    """Choi matrix of a channel given as a superoperator matrix.

    Block ``(i, j)`` of the result is the channel applied to the matrix
    unit ``|i><j|``; the trace equals the Hilbert dimension for
    trace-preserving channels.
    """
    d = int(round(np.sqrt(channel.shape[0])))
    # J[i*d + a, j*d + b] = channel[b*d + a, j*d + i]
    return channel.reshape(d, d, d, d).transpose(3, 1, 2, 0).reshape(d * d, d * d)


def cp_check(channel, tol=1e-8):
    """Minimum Choi eigenvalue and the complete-positivity verdict."""
    j = choi_matrix(channel)
    j = 0.5 * (j + dag(j))
    w, _ = hermitian_eigendecompose(j, 1e-9)
    min_eig = float(w.min())
    return min_eig, min_eig >= -tol
