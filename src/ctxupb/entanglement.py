"""Linear entropy of entanglement via convex-roof minimization.

Decompositions of a rank-r state are parameterized as isometric mixings
X = U B of the scaled eigenvectors B (every decomposition of L states
arises this way from an L x r isometry U), and the convex-roof objective
sum_i (tr P_i - tr P_i^2 / tr P_i) over the reduced rows P_i is minimized
over the Stiefel manifold by Riemannian L-BFGS with its closed-form
gradient (Edelman, Arias & Smith 1998; Roethlisberger, Lehmann & Loss 2009).
All restarts run as one batch, each with its own line search and history.
Each iteration moves a restart's history to the new tangent space in two
stacked projections, one for the step history and the new step, one for the
gradient-change history and the old and new gradients; a projection of K
blocks multiplies by U^H and by U once, the blocks side by side, rather than
once per block.
Restart 0 starts from the identity embedding (the bare eigendecomposition),
the rest from seeded random isometries; restart r draws from the
counter-derived stream (seed, r), so any execution order enumerates
identical starting points, and the draws are retracted in one batched QR.
A zero row of U has zero gradient, so restart 0 never leaves the L = r
optimum: with restarts=1 the result is the L = r value whatever L is.
The reported value is an upper bound on the true convex roof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BadDecomposition, BadSize, DimensionMismatch
from .linalg import DEFAULT_TOL, Tolerances, as_matrix, as_vector, partial_trace

EIG_FLOOR = 1e-12
WEIGHT_FLOOR = 1e-12
STOP_DECREASE = 1e-10   # a restart stops once an iteration gains less
MAX_ITERATIONS = 500
LBFGS_MEMORY = 8        # stored (step, gradient change) pairs
ARMIJO = 1e-4           # sufficient-decrease factor of the line search
MAX_BACKTRACKS = 40     # step halvings before a line search gives up

# reference columns for the five-angle table (strength, lee)
TABLE1_ROWS = (
    ("acos((sqrt(5)-1)/2)", "Pyramid", math.acos((math.sqrt(5.0) - 1) / 2),
     math.sqrt(5.0), 0.07295),
    ("3pi/4", "Tiles", 3 * math.pi / 4, 2.2287, 0.06519),
    ("pi/3", "-", math.pi / 3, 2.2254, 0.06335),
    ("pi/6", "-", math.pi / 6, 2.1641, 0.01278),
    ("pi/12", "-", math.pi / 12, 2.0590, 0.00029),
)


@dataclass(frozen=True)
class Decomposition:
    weights: tuple
    states: tuple  # unit vectors in dim dA*dB

    @property
    def size(self) -> int:
        return len(self.weights)

    def mixture(self) -> np.ndarray:
        m = np.array(self.states)
        return (m.T * np.asarray(self.weights)) @ m.conj()

    def to_json(self) -> dict:
        return {
            "weights": [float(w) for w in self.weights],
            "states": [[[float(z.real), float(z.imag)] for z in s]
                       for s in self.states],
        }


@dataclass(frozen=True)
class LeeResult:
    value: float
    best: Decomposition
    restarts_used: int
    converged: bool
    seed: int
    # per restart, in restart order: final value and L-BFGS iterations run
    restart_values: tuple = field(default=(), repr=False, compare=False)
    iterations: tuple = field(default=(), repr=False, compare=False)

    def to_json(self) -> dict:
        return {"value": self.value, "restarts_used": self.restarts_used,
                "converged": self.converged, "seed": self.seed,
                "decomposition": self.best.to_json()}


def linear_entropy(rho) -> float:
    """1 - Tr[rho^2]."""
    m = as_matrix(rho)
    return float(1.0 - np.einsum('ab,ba->', m, m).real)


def pure_lee_term(psi, dims: tuple[int, int]) -> float:
    """Linear entropy of the reduced state of a pure bipartite vector."""
    v = as_vector(psi)
    da, db = dims
    if v.shape[0] != da * db:
        raise DimensionMismatch("vector does not match party dims",
                                dim=v.shape[0], dims=[da, db])
    red = partial_trace(np.outer(v, v.conj()), dims, keep=0)
    return linear_entropy(red)


def decomposition_value(rho, dims: tuple[int, int], d: Decomposition,
                        recon_tol: float = 1e-8) -> float:
    """Weighted average of pure-state terms; the decomposition must
    reconstruct rho within recon_tol in max-entry norm."""
    m = as_matrix(rho)
    resid = float(np.max(np.abs(d.mixture() - m)))
    if resid > recon_tol:
        raise BadDecomposition("decomposition does not reconstruct the state",
                               residual=resid)
    return float(sum(w * pure_lee_term(s, dims)
                     for w, s in zip(d.weights, d.states)))


def _tangent(U, Z):
    """Project every block Z_k of a stack Z (R, K, L, r) onto the tangent
    space of the Stiefel manifold at U (R, L, r): Z_k - U herm(U^H Z_k).
    All K blocks of a restart go through one product U^H [Z_1 ... Z_K], the
    blocks side by side as an L x K*r matrix, and one product U [H_1 ... H_K].
    Each entry is the same sum as in a per-block product, but a BLAS kernel
    may round it differently when r is not a multiple of its column blocking
    (4 in OpenBLAS's Haswell zgemm).
    """
    R, K, L, r = Z.shape
    side = Z.transpose(0, 2, 1, 3).reshape(R, L, K * r)
    A = (U.conj().swapaxes(-1, -2) @ side).reshape(R, r, K, r)
    H = (A + A.conj().transpose(0, 3, 2, 1)) / 2
    return Z - (U @ H.reshape(R, r, K * r)).reshape(R, L, K, r).swapaxes(1, 2)


def _inner(A, B):
    """Real inner product Re tr(A^H B) per leading index."""
    return np.einsum('...ij,...ij->...', A.conj(), B).real


def _retract(Y):
    """Phase-fixed QR: the isometry with a real positive R diagonal."""
    Q, R = np.linalg.qr(Y)
    d = np.diagonal(R, axis1=-2, axis2=-1)
    return Q * (d / np.abs(d))[..., None, :]


def _starts(seed: int, R: int, L: int, r: int):
    """Starting isometries (R, L, r): restart 0 is the identity embedding,
    restart i > 0 the retraction of a complex Gaussian L x r matrix drawn
    from the counter-derived stream (seed, i). The draws are retracted
    together, in one batched QR."""
    U = np.zeros((R, L, r), dtype=complex)
    U[0, :r, :r] = np.eye(r)
    for i in range(1, R):
        rng = np.random.default_rng([seed, i])
        U[i] = rng.normal(size=(L, r)) + 1j * rng.normal(size=(L, r))
    U[1:] = _retract(U[1:])
    return U


def _roof(U, B, da: int, db: int):
    """Convex-roof objective f(U) = sum_i g(X_i) at rows X = U B, and its
    Euclidean gradient in U.

    g(M) = t - s/t for the da x db reshaped row M with P = M M^H, t = tr P,
    s = tr P^2; dg/dM-bar = M (1 + s/t^2) - 2 P M / t. Rows with t <= 1e-30
    contribute 0 to both.
    """
    X = U @ B
    M = X.reshape(X.shape[:-1] + (da, db))
    P = M @ M.conj().swapaxes(-1, -2)
    t = np.einsum('...aa->...', P).real
    s = np.einsum('...ab,...ba->...', P, P).real
    live = t > 1e-30
    t = np.where(live, t, 1.0)
    f = np.where(live, t - s / t, 0.0).sum(axis=-1)
    dM = (M * (1 + s / t ** 2)[..., None, None]
          - 2 * (P @ M) / t[..., None, None])
    dM = np.where(live[..., None, None], dM, 0.0)
    return f, 2 * dM.reshape(X.shape) @ B.conj().T


def _lbfgs_direction(g, S, Y):
    """Two-loop recursion for -H g. S, Y hold the stored pairs, oldest
    first; pairs without positive curvature are skipped, and the initial
    scaling comes from the newest pair that has it (1 when none has)."""
    sy = _inner(S, Y)
    ok = sy > 1e-300
    rho = np.where(ok, 1 / np.where(ok, sy, 1.0), 0.0)
    ratio = sy / np.where(ok, _inner(Y, Y), 1.0)
    q = g.copy()
    alpha = np.zeros_like(rho)
    gamma = np.ones(len(g))
    for k in range(S.shape[1]):
        gamma = np.where(ok[:, k], ratio[:, k], gamma)
    for k in reversed(range(S.shape[1])):
        alpha[:, k] = rho[:, k] * _inner(S[:, k], q)
        q -= alpha[:, k, None, None] * Y[:, k]
    q *= gamma[:, None, None]
    for k in range(S.shape[1]):
        beta = rho[:, k] * _inner(Y[:, k], q)
        q += (alpha[:, k] - beta)[:, None, None] * S[:, k]
    return -q


def _minimize(U, B, da: int, db: int):
    """Batched Riemannian L-BFGS over isometries U (R, L, r).

    Each restart takes Armijo backtracking steps along its own two-loop
    direction, retracted by phase-fixed QR, and moves its history pairs to
    the new point by tangent projection. It stops once an iteration lowers
    its value by less than STOP_DECREASE, or after MAX_ITERATIONS. Every
    operation acts on each restart separately, so a restart's path does not
    depend on the rest of the batch.
    Returns the final isometries, values, iteration counts and converged
    flags.
    """
    R = U.shape[0]
    f, G = _roof(U, B, da, db)
    g = _tangent(U, G[:, None])[:, 0]
    S = np.zeros((R, LBFGS_MEMORY) + U.shape[1:], dtype=complex)
    Y = np.zeros_like(S)
    iterations = np.zeros(R, dtype=int)
    converged = np.zeros(R, dtype=bool)
    active = np.arange(R)
    for _ in range(MAX_ITERATIONS):
        Ua, fa, ga = U[active], f[active], g[active]
        d = _lbfgs_direction(ga, S[active], Y[active])
        slope = _inner(ga, d)
        step = np.ones(active.size)
        Un, fn, Gn = Ua.copy(), fa.copy(), np.zeros_like(Ua)
        todo = np.arange(active.size)
        for _ in range(MAX_BACKTRACKS):
            Ut = _retract(Ua[todo] + step[todo, None, None] * d[todo])
            ft, Gt = _roof(Ut, B, da, db)
            ok = ft <= fa[todo] + ARMIJO * step[todo] * slope[todo]
            acc = todo[ok]
            Un[acc], fn[acc], Gn[acc] = Ut[ok], ft[ok], Gt[ok]
            todo = todo[~ok]
            if todo.size == 0:
                break
            step[todo] /= 2
        # a restart whose search failed has fn == fa and stops below, so its
        # history and gradient are not used again
        S[active] = _tangent(Un, np.concatenate(
            [S[active, 1:], (step[:, None, None] * d)[:, None]], axis=1))
        Z = _tangent(Un, np.concatenate(
            [Y[active, 1:], ga[:, None], Gn[:, None]], axis=1))
        gn = Z[:, -1]
        Z[:, -2] = gn - Z[:, -2]
        Y[active] = Z[:, :-1]
        U[active], f[active], g[active] = Un, fn, gn
        iterations[active] += 1
        done = (fa - fn) < STOP_DECREASE
        converged[active[done]] = True
        active = active[~done]
        if active.size == 0:
            break
    return U, f, iterations, converged


def lee_upper_bound(rho, dims: tuple[int, int], L: int | None = None,
                    restarts: int = 64, seed: int = 7) -> LeeResult:
    """Convex-roof upper bound on the linear entropy of entanglement.

    L defaults to r^2 for a rank-r state. Every restart is minimized by
    Riemannian L-BFGS over isometries (see `_minimize`) until an iteration
    lowers its value by less than STOP_DECREASE or MAX_ITERATIONS is
    reached; the minimum over restarts wins, ties broken by lowest restart
    index. Restart 0, the identity embedding, stays at the L = r optimum
    (its rows r..L-1 are zero and get zero gradient), so restarts=1 gives
    the L = r value for any L.
    """
    m = as_matrix(rho)
    da, db = dims
    if m.shape != (da * db, da * db):
        raise DimensionMismatch("state does not match party dims",
                                shape=list(m.shape), dims=[da, db])
    if restarts < 1:
        raise BadSize("restarts below 1", restarts=restarts)
    lam, E = np.linalg.eigh(m)
    keep = lam > EIG_FLOOR
    lam = lam[keep]
    E = E[:, keep]
    r = len(lam)
    if L is None:
        L = r * r
    if L < r:
        raise BadSize("decomposition size below state rank", L=L, rank=r)
    base_rows = (np.sqrt(lam)[:, None] * E.T).astype(complex)

    R = restarts
    U, vals, iterations, converged = _minimize(_starts(seed, R, L, r),
                                               base_rows, da, db)
    vals = np.maximum(vals, 0.0)
    best_idx = int(vals.argmin())
    rows = U[best_idx] @ base_rows
    weights = np.linalg.norm(rows, axis=1) ** 2
    keep_rows = weights > WEIGHT_FLOOR
    states = tuple(rows[i] / math.sqrt(weights[i])
                   for i in range(L) if keep_rows[i])
    decomp = Decomposition(tuple(float(w) for w in weights[keep_rows]), states)
    return LeeResult(float(vals[best_idx]), decomp, R,
                     bool(converged[best_idx]), seed,
                     restart_values=tuple(float(v) for v in vals),
                     iterations=tuple(int(n) for n in iterations))


def table1(seed: int = 7, restarts: int = 64, L: int = 16,
           tol: Tolerances = DEFAULT_TOL) -> dict:
    """Strength and LEE upper bound for the five reference angles, with the
    published reference values and deviations."""
    from .contextuality import strength
    from .families import one_param_family
    from .upb import bound_entangled_state, one_param_upb, verify_upb

    rows = []
    for label, upb_type, theta, s_ref, lee_ref in TABLE1_ROWS:
        fam = one_param_family(theta)
        s = strength(fam.vectors, fam.label).value
        ps = one_param_upb(theta)
        verdict = verify_upb(ps, tol, method="exact")
        rho = bound_entangled_state(ps, verdict)
        res = lee_upper_bound(rho.matrix, (3, 3), L=L, restarts=restarts,
                              seed=seed)
        rows.append({
            "theta": label,
            "upb_type": upb_type,
            "strength": s,
            "strength_ref": s_ref,
            "strength_dev": abs(s - s_ref),
            "lee": res.value,
            "lee_ref": lee_ref,
            "lee_dev": abs(res.value - lee_ref),
            "converged": res.converged,
        })
    return {"seed": seed, "restarts": restarts, "L": L, "rows": rows}
