"""Dense complex linear algebra kernels.

Everything in the library passes plain ``numpy.ndarray`` values around;
operators and density matrices are ``(d, d)`` complex arrays, superoperators
are ``(d*d, d*d)`` complex arrays acting on column-stacked vectorizations.
:func:`dag`, :func:`unvec`, :func:`sandwich_superop` and
:func:`matrix_exponential` also take stacks ``(..., d, d)`` and act matrix
by matrix, with the same floating-point operations as on one matrix.
:func:`expm_action` applies ``exp(A)`` to vectors without forming it, by a
truncated Taylor series; it takes stacks too.

Vectorization convention (fixed project-wide, exposed in CSV dumps):
column stacking, ``vec(rho)[j*d + i] = rho[i, j]``, so that

    vec(X @ rho @ Y) == kron(Y.T, X) @ vec(rho).
"""
from __future__ import annotations

import numpy as np

from .errors import (
    DimensionMismatch,
    NoConvergence,
    NonFinite,
    NotHermitian,
    NotPSD,
)

__all__ = [
    "vec",
    "unvec",
    "dag",
    "frobenius",
    "is_hermitian",
    "is_unitary",
    "is_psd",
    "sandwich_superop",
    "hermitian_eigendecompose",
    "matrix_exponential",
    "taylor_degree",
    "expm_action",
    "psd_sqrt",
]


def vec(matrix):
    """Column-stack a matrix into a vector."""
    return np.asarray(matrix).T.reshape(-1)


def unvec(vector, dim=None):
    """Inverse of :func:`vec`, vector by vector along the last axis.
    ``dim`` defaults to the square root of its length."""
    vector = np.asarray(vector)
    if dim is None:
        dim = int(round(np.sqrt(vector.shape[-1])))
    return np.swapaxes(vector.reshape(vector.shape[:-1] + (dim, dim)), -1, -2)


def dag(a):
    return np.conj(np.swapaxes(np.asarray(a), -1, -2))


def frobenius(a):
    return float(np.linalg.norm(np.asarray(a)))


def is_hermitian(a, tol=1e-10):
    a = np.asarray(a)
    return frobenius(a - dag(a)) <= tol


def is_unitary(a, tol=1e-10):
    a = np.asarray(a)
    eye = np.eye(a.shape[0])
    return frobenius(dag(a) @ a - eye) <= tol


def is_psd(a, tol=1e-10):
    """Positive semidefinite within ``tol``. Implies Hermitian within ``tol``."""
    a = np.asarray(a)
    if not is_hermitian(a, tol):
        return False
    w, _ = hermitian_eigendecompose(a, tol)
    return bool(w.min() >= -tol)


def sandwich_superop(x, y):
    """Superoperator of ``rho -> X rho Y`` under column stacking: ``kron(Y.T, X)``.

    ``x`` and ``y`` may be stacks ``(..., d, d)`` that broadcast against
    each other.  The Kronecker product is a broadcast outer product,
    ``out[..., j*d + i, l*d + k] = Y[..., l, j] * X[..., i, k]``: the same
    products as ``np.kron``, without its per-call overhead.
    """
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    if (x.ndim < 2 or y.ndim < 2 or x.shape[-2:] != y.shape[-2:]
            or x.shape[-1] != x.shape[-2]):
        raise DimensionMismatch(
            f"sandwich factors must be square and equal-sized, got {x.shape} and {y.shape}"
        )
    d = x.shape[-1]
    out = np.swapaxes(y, -1, -2)[..., :, None, :, None] * x[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (d * d, d * d))


# ---------------------------------------------------------------------------
# Hermitian eigendecomposition: cyclic Jacobi with complex rotations
# ---------------------------------------------------------------------------

_JACOBI_MAX_SWEEPS = 60


def _offdiag_norm(a):
    off = a - np.diag(np.diag(a))
    return np.linalg.norm(off)


def hermitian_eigendecompose(a, tol=1e-10):
    """Eigendecompose a Hermitian matrix with the cyclic Jacobi method.

    Returns ``(w, v)`` with eigenvalues ``w`` ascending and orthonormal
    eigenvector columns ``v`` such that ``a ~= v @ diag(w) @ v.conj().T``.

    Each (p, q) rotation first absorbs the phase of ``a[p, q]`` into column q
    and then applies the classic real rotation, so Hermiticity is preserved
    exactly and the accumulated transform is unitary to machine precision.

    Raises
    ------
    NotHermitian
        if ``|a - a^dagger|_F > tol``.
    NoConvergence
        if the off-diagonal norm has not collapsed after 60 sweeps.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    defect = frobenius(a - dag(a))
    if defect > tol:
        raise NotHermitian(f"|A - A^dagger|_F = {defect:.3e} exceeds tol {tol:.3e}")

    n = a.shape[0]
    work = 0.5 * (a + dag(a))
    v = np.eye(n, dtype=complex)
    if n == 1:
        return np.array([work[0, 0].real]), v

    scale = max(np.linalg.norm(work), 1.0)
    target = 1e-14 * scale

    for _ in range(_JACOBI_MAX_SWEEPS):
        if _offdiag_norm(work) <= target:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                r = abs(work[p, q])
                if r <= 1e-18 * scale:
                    continue
                phase = work[p, q] / r
                # absorb the phase so the 2x2 pivot block is real symmetric
                work[:, q] *= np.conj(phase)
                work[q, :] *= phase
                v[:, q] *= np.conj(phase)

                app = work[p, p].real
                aqq = work[q, q].real
                theta = 0.5 * (aqq - app) / r
                t = np.sign(theta) / (abs(theta) + np.hypot(1.0, theta))
                if theta == 0.0:
                    t = 1.0
                c = 1.0 / np.hypot(1.0, t)
                s = t * c

                for m in (work, v):
                    col_p = m[:, p].copy()
                    m[:, p] = c * col_p - s * m[:, q]
                    m[:, q] = s * col_p + c * m[:, q]
                row_p = work[p, :].copy()
                work[p, :] = c * row_p - s * work[q, :]
                work[q, :] = s * row_p + c * work[q, :]
                work[p, q] = 0.0
                work[q, p] = 0.0
    else:
        if _offdiag_norm(work) > target:
            raise NoConvergence(
                f"Jacobi sweeps exhausted with off-diagonal norm {_offdiag_norm(work):.3e}"
            )

    w = np.diag(work).real.copy()
    order = np.argsort(w, kind="stable")
    return w[order], v[:, order]


# ---------------------------------------------------------------------------
# Matrix exponential: scaling and squaring with diagonal Pade approximants
# ---------------------------------------------------------------------------

_PADE_COEFFS = {
    3: (120.0, 60.0, 12.0, 1.0),
    5: (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0),
    7: (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0),
    9: (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
        2162160.0, 110880.0, 3960.0, 90.0, 1.0),
    13: (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
         1187353796428800.0, 129060195264000.0, 10559470521600.0,
         670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
         960960.0, 16380.0, 182.0, 1.0),
}

# 1-norm thresholds below which the order-m approximant meets double precision
_PADE_THETA = (
    (3, 1.495585217958292e-2),
    (5, 2.539398330063230e-1),
    (7, 9.504178996162932e-1),
    (9, 2.097847961257068e0),
    (13, 5.371920351148152e0),
)


def _pade_step(a, m):
    """Order-``m`` diagonal Pade approximant of exp on a stack ``(k, n, n)``."""
    c = _PADE_COEFFS[m]
    eye = np.eye(a.shape[-1], dtype=complex)
    a2 = a @ a
    if m == 13:
        a4 = a2 @ a2
        a6 = a2 @ a4
        u = a @ (a6 @ (c[13] * a6 + c[11] * a4 + c[9] * a2)
                 + c[7] * a6 + c[5] * a4 + c[3] * a2 + c[1] * eye)
        v = (a6 @ (c[12] * a6 + c[10] * a4 + c[8] * a2)
             + c[6] * a6 + c[4] * a4 + c[2] * a2 + c[0] * eye)
    else:
        pows = [eye, a2]
        for _ in range(m // 2 - 1):
            pows.append(pows[-1] @ a2)
        u = np.zeros_like(a)
        v = np.zeros_like(a)
        for k in range(m, 0, -2):
            u = u + c[k] * pows[k // 2]
        u = a @ u
        for k in range(m - 1, -1, -2):
            v = v + c[k] * pows[(k + 1) // 2]
    return np.linalg.solve(v - u, v + u)


def _scaled_pade(a, m, squarings):
    """exp(A) on a stack as the order-``m`` approximant of ``A / 2^squarings``,
    squared back ``squarings`` times."""
    f = _pade_step(a / 2.0 ** squarings if squarings else a, m)
    for _ in range(squarings):
        f = f @ f
    return f


def matrix_exponential(a):
    """exp(A) by scaling-and-squaring with diagonal Pade approximants
    (Higham, SIAM J. Matrix Anal. Appl. 26 (2005) 1179), for one matrix or
    a stack ``(..., n, n)``.

    Each matrix gets the lowest order whose 1-norm threshold it meets, or
    order 13 after the fewest squarings that bring it under the last
    threshold.  Matrices that share an (order, squarings) pair are evaluated
    together (Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 31 (2009) 970);
    a single matrix is the one-element stack, so a matrix gives the same
    bits alone as inside any stack.  Relative accuracy is at the rounding
    level for ``|A| <~ 10``, which covers every generator step this library
    takes.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DimensionMismatch(
            f"expected a square matrix or a stack of them, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise NonFinite("matrix contains NaN or Inf entries")

    # one memory layout, so that a matrix gives the same bits however it
    # is passed in
    stack = np.ascontiguousarray(a.reshape((-1,) + a.shape[-2:]))
    norms = np.abs(stack).sum(axis=-2).max(axis=-1)
    thetas = np.array([theta for _, theta in _PADE_THETA])
    pick = np.searchsorted(thetas, norms)       # first theta >= norm
    orders = np.array([m for m, _ in _PADE_THETA] + [13])[pick]
    squarings = np.zeros(len(stack), dtype=int)
    scaled = pick == len(thetas)
    squarings[scaled] = np.ceil(np.log2(norms[scaled] / thetas[-1]))
    groups = sorted(set(zip(orders.tolist(), squarings.tolist())))
    if len(groups) == 1:
        return _scaled_pade(stack, *groups[0]).reshape(a.shape)
    out = np.empty_like(stack)
    for m, s in groups:
        idx = np.flatnonzero((orders == m) & (squarings == s))
        out[idx] = _scaled_pade(stack[idx], m, s)
    return out.reshape(a.shape)


# ---------------------------------------------------------------------------
# Action of the matrix exponential: truncated Taylor series
# ---------------------------------------------------------------------------

# theta_m, m = 1..18: the largest 1-norm at which the degree-m Taylor
# polynomial of exp meets unit roundoff in backward error (Al-Mohy & Higham,
# SIAM J. Sci. Comput. 33 (2011) 488, Table 3.1)
_TAYLOR_THETA = np.array([
    2.29e-16, 2.58e-8, 1.39e-5, 3.40e-4, 2.40e-3, 9.07e-3, 2.38e-2, 5.00e-2,
    8.96e-2, 1.44e-1, 2.14e-1, 3.00e-1, 4.00e-1, 5.14e-1, 6.41e-1, 7.81e-1,
    9.31e-1, 1.09])


def taylor_degree(norm):
    """Degree ``m`` and scaling ``s`` for :func:`expm_action` at 1-norm
    ``norm``: the fewest products ``m s`` with ``norm / s <= theta_m``."""
    s = np.maximum(np.ceil(norm / _TAYLOR_THETA), 1.0)
    m = int(np.argmin(np.arange(1, len(s) + 1) * s))
    return m + 1, int(s[m])


def expm_action(a, v, degree=None):
    """``exp(A) v`` without forming ``exp(A)``, for anything ``a @ v``
    accepts (a stack of matrices and a stack of column vectors included):
    ``s`` times the degree-``m`` Taylor polynomial of ``A / s``, with
    ``(m, s)`` given or else :func:`taylor_degree` of the largest 1-norm
    in ``a`` (Al-Mohy & Higham, SIAM J. Sci. Comput. 33 (2011) 488)."""
    m, s = degree or taylor_degree(np.abs(a).sum(axis=-2).max())
    if s > 1:
        a = a / s
    for _ in range(s):
        term = v
        for i in range(1, m + 1):
            term = (a @ term) * (1.0 / i)
            v = v + term
    return v


def psd_sqrt(a, tol=1e-10):
    """Positive semidefinite square root via eigendecomposition.

    Eigenvalues in ``[-tol, 0)`` are clamped to zero; anything below ``-tol``
    raises :class:`NotPSD`.
    """
    a = np.asarray(a, dtype=complex)
    w, v = hermitian_eigendecompose(a, tol)
    if w.min() < -tol:
        raise NotPSD(f"minimum eigenvalue {w.min():.3e} below -tol")
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ dag(v)
