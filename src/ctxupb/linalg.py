"""Dense complex linear-algebra kernels (Kronecker products, Hermitian
eigendecompositions, partial trace and transpose) and the one tolerance.
All functions are pure; parties in bipartite operations are 0 (A) and 1 (B).

Tolerances holds the one threshold a caller sets (--tol, 1e-9 by default):
an overlap |<u|v>| at or below it is orthogonal, a residual norm at or below
it adds no direction to a span, and an eigenvalue at or above minus it is
non-negative. The other thresholds are fixed, as no caller needs another
value: UNIT_TOL (families, 1e-9) bounds | |v| - 1 | of a unit vector;
HERM_TOL (1e-12) bounds max|M - M^dagger| of a Hermitian matrix and
|tr rho - 1| of a density matrix; in entanglement, a state's eigenvalues at
or below EIG_FLOOR (1e-12) are dropped from its rank and decomposition
basis, decomposition states of weight at or below WEIGHT_FLOOR (1e-12) are
left out, and an LEE restart stops once an iteration lowers its value by
less than STOP_DECREASE (1e-10, absolute).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonHermitian

HERM_TOL = 1e-12


@dataclass(frozen=True)
class Tolerances:
    """The one threshold, atol: positive and finite, or ValueError."""

    atol: float = 1e-9

    def __post_init__(self):
        if not 0 < self.atol < math.inf:
            raise ValueError("tolerance must be positive and finite")


DEFAULT_TOL = Tolerances()


def as_vector(v) -> np.ndarray:
    a = np.asarray(v, dtype=complex)
    if a.ndim != 1:
        raise DimensionMismatch("expected a 1-D vector", shape=list(a.shape))
    return a


def as_matrix(m) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise DimensionMismatch("expected a 2-D matrix", shape=list(a.shape))
    return a


def kron(a, b) -> np.ndarray:
    """Kronecker product; also accepts 1-D vectors."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    return np.kron(a, b)


def kron_all(factors) -> np.ndarray:
    """Kronecker product along the last axis, one broadcast multiply per
    factor: a vector for 1-D factors, row-by-row products for (k, d_m)
    matrices; each entry is np.kron's, signed zeros included."""
    out = np.asarray(factors[0], dtype=complex)
    for f in factors[1:]:
        f = np.asarray(f, dtype=complex)
        out = (out[..., :, None] * f[..., None, :]).reshape(
            *out.shape[:-1], out.shape[-1] * f.shape[-1])
    return out


def check_hermitian(m: np.ndarray, error, message: str) -> None:
    """The Hermitian test: raises error(message, deviation=...) when
    max|M - M^dagger| of the square matrix m exceeds HERM_TOL."""
    dev = float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0
    if dev > HERM_TOL:
        raise error(message, deviation=dev)


def hermitian_eig(m) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues ascending, eigenvectors as columns). Raises
    NonHermitian when check_hermitian fails.
    """
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise DimensionMismatch("matrix not square", shape=list(m.shape))
    check_hermitian(m, NonHermitian, "matrix is not Hermitian")
    w, v = np.linalg.eigh(m)
    return w, v


def _check_bipartite(rho: np.ndarray, dims: tuple[int, int]) -> None:
    da, db = dims
    if rho.shape[0] != rho.shape[1] or rho.shape[0] != da * db:
        raise DimensionMismatch("matrix size does not match party dimensions",
                                shape=list(rho.shape), dims=[da, db])


def partial_trace(rho, dims: tuple[int, int], keep: int) -> np.ndarray:
    """Trace out one party of a bipartite matrix; ``keep`` is 0 (A) or 1 (B)."""
    rho = as_matrix(rho)
    _check_bipartite(rho, dims)
    da, db = dims
    r = rho.reshape(da, db, da, db)
    if keep == 0:
        return np.einsum('abcb->ac', r)
    if keep == 1:
        return np.einsum('abad->bd', r)
    raise DimensionMismatch("keep must be 0 or 1", keep=keep)


def partial_transpose(rho, dims: tuple[int, int], party: int) -> np.ndarray:
    """Transpose one tensor factor of a bipartite matrix."""
    rho = as_matrix(rho)
    _check_bipartite(rho, dims)
    da, db = dims
    r = rho.reshape(da, db, da, db)
    if party == 0:
        return np.einsum('abcd->cbad', r).reshape(da * db, da * db)
    if party == 1:
        return np.einsum('abcd->adcb', r).reshape(da * db, da * db)
    raise DimensionMismatch("party must be 0 or 1", party=party)
