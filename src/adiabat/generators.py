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
The rotated-frame machinery expresses operators in the component
coordinates of the transport frame's initial eigenbasis (``frame.basis0``),
where eigenspace blocks are contiguous index ranges; this keeps the block
structure of the approximate equation exact in floating point.  One
assembly, :class:`RotatedFrameGenerator`, builds both rotated-frame
generators, and one Lindblad formula serves every dissipator.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import BlockNotClosed, DimensionMismatch, NegativeGSpectrum
from .linalg import (
    dag,
    frobenius,
    hermitian_eigendecompose,
    sandwich_superop,
    unvec,
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
    "frame_components",
    "frame_unpack",
    "LindbladFactorization",
    "lindblad_factorize",
    "choi_matrix",
    "cp_check",
]


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

    def superoperator(self, s):
        """``D_s`` as a ``(d^2, d^2)`` matrix; a stack for an array ``s``."""
        # a zero F only when there is nothing else to build
        f = None if self.hamiltonian_part is None and self.jump_operators else self.f_at(s)
        return _lindblad_superop(f, self.jumps_at(s))

    def apply(self, s, rho):
        return unvec(self.superoperator(s) @ vec(rho), self.dim)


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
    a stack for an array ``s`` with the decomposition stacked over it."""
    dsup = dissipator.superoperator(s)
    projs = decomp.projectors
    k = decomp.nspaces
    right = {}
    for kp in range(k):
        for lp in range(k):
            if tensor.g[:, :, kp, lp].any():
                right[(kp, lp)] = dsup @ sandwich_superop(projs[kp], projs[lp])
    out = np.zeros(dsup.shape, dtype=complex)
    for a in range(k):
        for b in range(k):
            inner = None
            for (kp, lp), mat in right.items():
                if tensor.g[a, b, kp, lp]:
                    inner = mat if inner is None else inner + mat
            if inner is not None:
                out += sandwich_superop(projs[a], projs[b]) @ inner
    return out


def approximate_generator(family, dissipator, tensor, T, gamma, s, q_of_s=None):
    """Adiabatic approximation of the exact generator.

    ``-i[T H(s) + Q(s), .] + Gamma T sum g_klk'l' P_k D_s(P_k' . P_l') P_l``

    ``q_of_s`` supplies the geometric term; by default it is computed by
    finite differences of the eigenprojectors.  The resonance tensor must
    have been built from the same family (same eigenspace labels).
    """
    if family.dim != dissipator.dim:
        raise DimensionMismatch(
            f"Hamiltonian dim {family.dim} != dissipator dim {dissipator.dim}"
        )
    q = geometric_term(family, s) if q_of_s is None else evaluate_on(q_of_s, s)
    g = hamiltonian_superop(T * family.hamiltonian(s) + q)
    if gamma != 0.0:
        decomp = family.spectrum(s)
        g = g + gamma * T * filtered_dissipator_superop(dissipator, tensor, decomp, s)
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


def _component_labels(frame):
    """Labels ``(k, l)`` of each vec component ``p = col*d + row``: two (d^2,) arrays."""
    labels = frame.labels
    return np.tile(labels, frame.dim), np.repeat(labels, frame.dim)


def block_component_indices(frame, block_set):
    """Vectorization indices carrying the selected ``(k, l)`` blocks, in
    column-stacking order, for states expressed in ``frame.basis0``."""
    return np.flatnonzero(_block_table(frame, block_set)[_component_labels(frame)]).tolist()


def frame_components(frame, rho_lab, s):
    """Vectorized components ``<chi_k(0)| U rho U^dag |chi_l(0)>`` of a lab
    state; these are the instantaneous-eigenbasis matrix elements of rho."""
    w = frame.rotation(s)
    return vec(w @ rho_lab @ dag(w))


def frame_unpack(frame, component_vec, s):
    """Inverse of :func:`frame_components`."""
    w = frame.rotation(s)
    return dag(w) @ unvec(component_vec, frame.dim) @ w


@dataclass
class RotatedFrameGenerator:
    """Rotated-frame generators of one ``(dissipator, tensor, frame, T)``
    on the component vector of :func:`frame_components`, called as
    ``(s, gamma, approximate)`` with ``s`` a frame grid point or an array.

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
        self._k, self._l = k, l = _component_labels(self.frame)
        self._mask = self.tensor.g[k[:, None], l[:, None], k[None, :], l[None, :]]
        self._same_block = np.equal.outer(self.frame.labels, self.frame.labels)

    def __call__(self, s, gamma, approximate):
        frame, c0 = self.frame, self.frame.basis0
        i = frame.index_of(s)       # one grid lookup serves E, Z and W
        e = frame.energies[i]
        gaps = -1j * self.T * (e[..., self._k] - e[..., self._l])
        diag = np.arange(gaps.shape[-1])
        delta = np.zeros(gaps.shape + gaps.shape[-1:], dtype=complex)
        delta[..., diag, diag] = gaps
        zhat = dag(c0) @ frame.Z[i] @ c0
        if approximate:
            zhat = np.where(self._same_block, zhat, 0.0)
        out = delta + hamiltonian_superop(zhat)
        if gamma != 0.0:
            w = dag(c0) @ frame.U[i]        # frame.rotation(s)
            diss = self.dissipator
            f = None if diss.hamiltonian_part is None else w @ diss.f_at(s) @ dag(w)
            dhat = _lindblad_superop(f, [w @ v @ dag(w) for v in diss.jumps_at(s)])
            if approximate:
                dhat = np.where(self._mask, dhat, 0.0)
            out = out + gamma * self.T * dhat
        return out


def rotated_block_generator(family, dissipator, tensor, frame, T, gamma, s,
                            block_set="all"):
    """Approximate-equation generator in the rotated frame, restricted to a
    closed set of blocks.

    Acts on the component vector of :func:`frame_components`.  Implements,
    per block ``(k, l)`` of the selected set,

        d/ds rho^(kl) = -iT Delta_kl(s) rho^(kl) - i Z_k rho^(kl)
                        + i rho^(kl) Z_l
                        + Gamma T sum_{k'l'} g_klk'l' P_k(0) D~_s(rho^(k'l')) P_l(0)

    with ``Z_l`` the block-diagonal parts of the frame generator and
    ``D~_s`` the dissipator conjugated into the rotated frame: the
    approximate :class:`RotatedFrameGenerator` with omitted blocks zeroed,
    so couplings forbidden by the tensor are structurally zero.  ``family``
    is not read: labels and gaps come from ``frame``.

    Raises :class:`BlockNotClosed` if the tensor couples a selected block to
    an omitted one.
    """
    blocks = _block_table(frame, block_set)
    leaks = np.argwhere(tensor.g & blocks[:, :, None, None] & ~blocks)
    if leaks.size:
        a, b, kp, lp = leaks[0]
        raise BlockNotClosed(f"block ({a},{b}) couples to omitted block ({kp},{lp})")

    gen = RotatedFrameGenerator(dissipator, tensor, frame, T)(s, gamma, approximate=True)
    keep = blocks[_component_labels(frame)]
    gen[..., ~keep, :] = 0.0
    gen[..., :, ~keep] = 0.0
    return gen


# ---------------------------------------------------------------------------
# Lindblad re-factorization of the filtered dissipator
# ---------------------------------------------------------------------------

@dataclass
class LindbladFactorization:
    """Lindblad form of the projector-filtered dissipator at one ``s``.

    ``superoperator()`` rebuilds the dissipator from the factorized pieces;
    agreement with :func:`filtered_dissipator_superop` certifies that the
    approximate equation generates completely positive dynamics.
    """

    effective_hamiltonian: np.ndarray
    lindblad_ops: list
    g_eigenvalues: np.ndarray
    g_vectors: np.ndarray

    def superoperator(self):
        return _lindblad_superop(self.effective_hamiltonian, self.lindblad_ops)

    def reconstruction_error(self, dissipator, tensor, decomp, s):
        target = filtered_dissipator_superop(dissipator, tensor, decomp, s)
        return frobenius(self.superoperator() - target)


def lindblad_factorize(dissipator, tensor, decomp, s, eigenvalue_cutoff=1e-12):
    """Factorize the filtered dissipator back into Lindblad form.

    Diagonalizes the symmetric coupling matrix ``G[(k,k'), (l,l')] =
    g_klk'l'`` as ``G = sum_m lambda_m c^m (c^m)^dag`` and builds jump
    operators ``M_n^m = sqrt(lambda_m) sum_kk' c^m_kk' P_k V_n P_k'``; the
    Hamiltonian part filters to ``sum_k P_k F P_k``.

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
    k = decomp.nspaces
    f_eff = np.zeros((dissipator.dim, dissipator.dim), dtype=complex)
    fmat = dissipator.f_at(s)
    for p in projs:
        f_eff += p @ fmat @ p

    ops = []
    for v in dissipator.jumps_at(s):
        sandwiches = [[projs[a] @ v @ projs[b] for b in range(k)] for a in range(k)]
        for m in range(len(lam)):
            if lam[m] <= eigenvalue_cutoff:
                continue
            op = np.zeros_like(v)
            for a in range(k):
                for b in range(k):
                    op += cvecs[a * k + b, m] * sandwiches[a][b]
            ops.append(np.sqrt(lam[m]) * op)
    return LindbladFactorization(
        effective_hamiltonian=f_eff,
        lindblad_ops=ops,
        g_eigenvalues=lam,
        g_vectors=cvecs,
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
