"""Zero-mean Gaussian states in covariance-matrix form.

Quadrature ordering is (q1, p1, ..., qN, pN) throughout, with shot noise 1/2,
i.e. the N-mode vacuum has covariance matrix I/2.  Symplectic spectra come
from a symmetric eigendecomposition; the fidelity, of one- or two-mode
states, is evaluated in 50-digit arithmetic, with the auxiliary spectrum read
from matrix invariants.
"""

from __future__ import annotations

import threading

import numpy as np

from .errors import DimensionMismatchError, GaussianStateError, NonPhysicalError, NonSymmetricError

SYMMETRY_TOL = 1e-12
PHYSICALITY_TOL = 1e-8

# rounding V's entries to double moves a symplectic eigenvalue by up to
# 0.82 eps lambda_max / lambda_min (V's eigenvalues), measured on Choi states
# of completely positive channels at squeezing up to 1e7; the physicality
# check allows this multiple of it
_ROUNDING_MULTIPLE = 2.0

_MP_DPS = 50

# mpmath's working precision is process-global state; serialise the
# extended-precision sections so the pure-function contract holds under
# concurrent callers
MP_LOCK = threading.Lock()


def symplectic_form(modes: int) -> np.ndarray:
    """Standard symplectic form, a direct sum of [[0, 1], [-1, 0]] blocks."""
    return np.kron(np.eye(modes), np.array([[0.0, 1.0], [-1.0, 0.0]]))


class CovarianceMatrix:
    """Validated second-moment matrix of a zero-mean Gaussian state.

    The input is symmetrised as (V + V^T)/2 before validation; asymmetry
    beyond ``SYMMETRY_TOL`` is rejected, and so are symplectic eigenvalues
    below 1/2 by more than the larger of ``PHYSICALITY_TOL`` and, for a
    positive-definite V with eigenvalues lambda_min ... lambda_max,
    ``_ROUNDING_MULTIPLE`` eps lambda_max / lambda_min, the rounding error
    of a strongly squeezed state.  Entries must be finite: the
    infinite-squeezing limit is always handled by extrapolation elsewhere,
    never by infinite matrix entries.
    """

    __slots__ = ("_matrix",)

    def __init__(self, matrix) -> None:
        arr = np.array(matrix, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] % 2:
            raise ValueError(f"covariance matrix must be square 2Nx2N, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise NonPhysicalError("covariance matrix has non-finite entries")
        gap = np.max(np.abs(arr - arr.T))
        if gap > SYMMETRY_TOL:
            raise NonSymmetricError(f"asymmetry {gap:.3e} exceeds tolerance")
        arr = 0.5 * (arr + arr.T)
        arr.setflags(write=False)
        self._matrix = arr
        w, nu = _spectra(arr)
        tol = PHYSICALITY_TOL
        if w[0] > 0:
            tol = max(tol, _ROUNDING_MULTIPLE * np.finfo(float).eps * w[-1] / w[0])
        if nu.min() < 0.5 - tol:
            raise NonPhysicalError(
                f"minimal symplectic eigenvalue {nu.min():.12g} below 1/2"
            )

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix


def _as_matrix(V) -> np.ndarray:
    if isinstance(V, CovarianceMatrix):
        return V.matrix
    return CovarianceMatrix(V).matrix


def _spectra(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(eigenvalues ascending, symplectic eigenvalues descending) of ``arr``."""
    # sqrt(V) Omega sqrt(V) is antisymmetric with singular values
    # {nu_1, nu_1, nu_2, nu_2, ...}; SVD of it is numerically stable.
    w, Q = np.linalg.eigh(arr)
    root = (Q * np.sqrt(np.clip(w, 0.0, None))) @ Q.T
    s = np.linalg.svd(root @ symplectic_form(len(arr) // 2) @ root, compute_uv=False)
    return w, s[::2]


def _fidelity_mp(V1, V2, dps: int = _MP_DPS) -> float:
    """Gaussian fidelity product form evaluated with ``dps`` significant
    digits; V1 and V2 are numpy arrays or ``mp.matrix`` objects.

    X = Omega^T (V1+V2)^-1 (Omega/4 + V2 Omega V1) Omega has eigenvalues +-i v_j.
    For N <= 2 modes, the only mode counts taken, the u_j = 4 v_j^2 - 1, double
    eigenvalues of Y = -4 X^2 - I, are the roots of u^2 - s u + p, s = tr(Y)/2,
    p = tr(Y)^2/8 - tr(Y^2)/4, taken without cancellation (Serafini, Illuminati
    and De Siena, J. Phys. B 37, L21 (2004)).  Product form: Banchi, Braunstein
    and Pirandola, PRL 115, 260501 (2015).
    """
    from mpmath import mp

    with MP_LOCK, mp.workdps(dps):
        A1, A2 = mp.matrix(V1), mp.matrix(V2)
        O = mp.matrix(symplectic_form(A1.rows // 2).tolist())
        S = A1 + A2
        X = O.T * (S ** -1) * (O / 4 + A2 * O * A1) * O
        Y = -4 * X * X - mp.eye(A1.rows)
        s = mp.fsum(Y[i, i] for i in range(A1.rows)) / 2
        p = s * s / 2 - mp.fdot(Y, Y.T) / 4
        t = (s + (mp.sign(s) or 1) * mp.sqrt(max(s * s - 4 * p, 0))) / 2
        us = (t, p / t) if A1.rows == 4 and t else (s,)
        prod = mp.fprod(mp.sqrt(1 + u) + mp.sqrt(max(u, 0)) for u in us)
        return float(mp.sqrt(prod) / mp.det(S) ** mp.mpf(0.25))


def gaussian_fidelity(V1, V2) -> float:
    """Bures fidelity F(rho1, rho2) = ||sqrt(rho1) sqrt(rho2)||_1 of two
    zero-mean Gaussian states.

    Uses the closed form built on the auxiliary matrix
    W = Omega^T (V1+V2)^{-1} (Omega/4 + V2 Omega V1): with the auxiliary
    symplectic eigenvalues v_j of W,

        F = prod_j sqrt(2 v_j + sqrt(4 v_j^2 - 1)) / det(V1+V2)^{1/4},

    evaluated in 50 digits on the double-precision matrices, so near-pure
    and strongly squeezed pairs lose nothing to cancellation.

    Args:
        V1, V2: covariance matrices (arrays or ``CovarianceMatrix``) of one or
            two modes, the same for both; both must be bona fide.

    Returns:
        Fidelity in [0, 1], symmetric in its arguments.
    """
    A1 = _as_matrix(V1)
    A2 = _as_matrix(V2)
    if A1.shape != A2.shape:
        raise DimensionMismatchError(f"mode mismatch: {A1.shape} vs {A2.shape}")
    if len(A1) > 4:
        raise GaussianStateError(f"fidelity takes one or two modes, got {len(A1) // 2}")
    return min(_fidelity_mp(A1, A2), 1.0)
