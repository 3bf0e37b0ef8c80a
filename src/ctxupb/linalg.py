"""Dense complex linear-algebra kernels: Kronecker products, Hermitian
eigendecompositions, numerical rank, partial trace and partial transpose.

All functions are pure; vectors and matrices are numpy complex arrays.
Parties in bipartite operations are numbered 0 (A) and 1 (B).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonHermitian

HERM_TOL = 1e-12


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds: orthogonality, rank cutoff, PSD slack."""

    orth_tol: float = 1e-9
    rank_tol: float = 1e-9
    psd_tol: float = 1e-9

    def __post_init__(self):
        if min(self.orth_tol, self.rank_tol, self.psd_tol) <= 0:
            raise ValueError("tolerances must be strictly positive")


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
    out = np.asarray(factors[0], dtype=complex)
    for f in factors[1:]:
        out = np.kron(out, f)
    return out


def hermitian_eig(m) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues ascending, eigenvectors as columns). Raises
    NonHermitian when max|M - M^dagger| exceeds 1e-12.
    """
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise DimensionMismatch("matrix not square", shape=list(m.shape))
    dev = float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0
    if dev > HERM_TOL:
        raise NonHermitian("matrix is not Hermitian", deviation=dev)
    w, v = np.linalg.eigh(m)
    return w, v


def rank_of(vectors, tol: Tolerances = DEFAULT_TOL) -> int:
    """Numerical rank of a vector list via singular values.

    The cutoff is relative: sigma > rank_tol * sigma_max.
    """
    vecs = [as_vector(v) for v in vectors]
    if not vecs:
        return 0
    dim = vecs[0].shape[0]
    for v in vecs:
        if v.shape[0] != dim:
            raise DimensionMismatch("vectors differ in dimension",
                                    dims=sorted({x.shape[0] for x in vecs}))
    s = np.linalg.svd(np.array(vecs), compute_uv=False)
    if s.size == 0 or s[0] <= 0.0:
        return 0
    return int(np.count_nonzero(s > tol.rank_tol * s[0]))


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
