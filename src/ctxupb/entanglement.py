"""Linear entropy of entanglement via convex-roof minimization.

Decompositions of a rank-r state are parameterized as isometric mixings
X = U B of the scaled eigenvectors B (every decomposition of L states
arises this way from an L x r isometry U), and the convex-roof objective
sum_i (tr P_i - tr P_i^2 / tr P_i) over the reduced rows P_i is minimized
over the Stiefel manifold by Riemannian L-BFGS with its closed-form
gradient (Edelman, Arias & Smith 1998; Roethlisberger, Lehmann & Loss 2009).
All restarts run as one batch, each with its own line search and history;
the line search evaluates several halvings of its straggling restarts in
one call, and each restart accepts the step sequential halving accepts.
A restart keeps its L-BFGS pairs as they were formed, in the ambient space
C^{L x r}, flat float64 in a ring of the last LBFGS_MEMORY iterations, with
each pair's curvature <s, y> and <y, y> computed once, when it is stored.
Only the two-loop direction (Nocedal 1980) is projected onto the tangent
space at the current point: the projection is self-adjoint, so for a
tangent gradient g the projected direction d = -P H g still has slope
<g, d> = -<g, H g> < 0 (projection as vector transport, Absil, Mahony &
Sepulchre 2008, sec. 8.1; Huang, Gallivan & Absil 2015). An iteration
projects two blocks: the direction and the new gradient.
Every restart starts from a seeded random isometry; restart r draws from
the counter-derived stream (seed, r), so any execution order enumerates
identical starting points, and the draws are retracted in one batched QR.
The reported value is an upper bound on the true convex roof.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import BadDecomposition, BadSize, DimensionMismatch
from .linalg import DEFAULT_TOL, Tolerances, as_matrix, as_vector, partial_trace
from .record import Record, hidden

EIG_FLOOR = 1e-12
WEIGHT_FLOOR = 1e-12
STOP_DECREASE = 1e-10   # a restart stops once an iteration gains less
MAX_ITERATIONS = 500
LBFGS_MEMORY = 8        # stored (step, gradient change) pairs
ARMIJO = 1e-4           # sufficient-decrease factor of the line search
MAX_BACKTRACKS = 40     # trial steps before a line search gives up
TRIAL_POINTS = 16       # trial points per backtracking round after the first

# reference columns for the five-angle table (strength, lee)
TABLE1_ROWS = (
    ("acos((sqrt(5)-1)/2)", "Pyramid", math.acos((math.sqrt(5.0) - 1) / 2),
     math.sqrt(5.0), 0.07295),
    ("3pi/4", "Tiles", 3 * math.pi / 4, 2.2287, 0.06519),
    ("pi/3", "-", math.pi / 3, 2.2254, 0.06335),
    ("pi/6", "-", math.pi / 6, 2.1641, 0.01278),
    ("pi/12", "-", math.pi / 12, 2.0590, 0.00029),
)


class Decomposition(Record):
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


class LeeResult(Record):
    value: float
    best: Decomposition
    restarts_used: int
    converged: bool
    seed: int
    # per restart, in restart order: final value, L-BFGS iterations run and
    # roof evaluations of sequential halving (the start, then the trial steps)
    restart_values: tuple = hidden(())
    iterations: tuple = hidden(())
    evaluations: tuple = hidden(())

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


def decomposition_value(rho, dims: tuple[int, int], d: Decomposition) -> float:
    """Weighted average of pure-state terms; the decomposition must
    reconstruct rho within 1e-8 in max-entry norm."""
    m = as_matrix(rho)
    resid = float(np.max(np.abs(d.mixture() - m)))
    if resid > 1e-8:
        raise BadDecomposition("decomposition does not reconstruct the state",
                               residual=resid)
    return float(sum(w * pure_lee_term(s, dims)
                     for w, s in zip(d.weights, d.states)))


def _tangent(U, Z):
    """Project Z (R, L, r) onto the tangent space of the Stiefel manifold
    at U (R, L, r): Z - U herm(U^H Z), one block per restart."""
    A = U.conj().swapaxes(-1, -2) @ Z
    return Z - U @ ((A + A.conj().swapaxes(-1, -2)) / 2)


def _inner(A, B):
    """Real inner product Re tr(A^H B) per leading index: the dot product
    of the two float64 views, with no conjugate copy."""
    a = A.view(float).reshape(A.shape[:-2] + (-1,))
    return np.einsum('...i,...i->...', a, B.view(float).reshape(a.shape))


def _retract(Y):
    """Phase-fixed QR: the isometry with a real positive R diagonal."""
    Q, R = np.linalg.qr(Y)
    d = np.diagonal(R, axis1=-2, axis2=-1)
    return Q * (d / np.abs(d))[..., None, :]


def _starts(seed: int, R: int, L: int, r: int):
    """Starting isometries (R, L, r): restart i is the retraction of a
    complex Gaussian L x r matrix drawn from the counter-derived stream
    (seed, i). The draws are retracted together, in one batched QR."""
    U = np.empty((R, L, r), dtype=complex)
    for i in range(R):
        rng = np.random.default_rng([seed, i])
        U[i] = rng.normal(size=(L, r)) + 1j * rng.normal(size=(L, r))
    return _retract(U)


def _roof(U, B, da: int, db: int):
    """Convex-roof objective f(U) = sum_i g(X_i) at rows X = U B, and its
    Euclidean gradient in U.

    g(M) = t - s/t for the da x db reshaped row M with P = M M^H, t = tr P,
    s = tr P^2 = sum |P_ab|^2; dg/dM-bar = M (1 + s/t^2) - 2 P M / t. Rows
    with t <= 1e-30 contribute 0 to both. X and the gradient are 2-D
    products over all rows; P and P M are sums of elementwise products.
    """
    R, L, r = U.shape
    X = U.reshape(R * L, r) @ B
    M = X.reshape(R * L, da, db)
    Mc = M.conj()
    P = M[:, :, None, 0] * Mc[:, None, :, 0]
    for c in range(1, db):
        P += M[:, :, None, c] * Mc[:, None, :, c]
    PM = P[:, :, 0, None] * M[:, None, 0]
    for b in range(1, da):
        PM += P[:, :, b, None] * M[:, None, b]
    t = np.einsum('naa->n', P).real
    Pf = P.reshape(R * L, -1).view(float)
    s = np.einsum('ni,ni->n', Pf, Pf)
    live = t > 1e-30
    t = np.where(live, t, 1.0)
    f = np.where(live, t - s / t, 0.0).reshape(R, L).sum(axis=-1)
    # 2 dg/dM-bar, zero on dead rows
    c1 = np.where(live, 2 * (1 + s / t ** 2), 0.0)[:, None, None]
    c2 = np.where(live, -4 / t, 0.0)[:, None, None]
    dM = c1 * M + c2 * PM
    return f, (dM.reshape(R * L, da * db) @ B.conj().T).reshape(R, L, r)


def _lbfgs_direction(U, g, S, Y, rho, gam, slots):
    """Tangent descent direction at U: the two-loop recursion for -H g over
    the ring slots `slots` of the flat float64 pairs S, Y (LBFGS_MEMORY, R,
    2 L r), oldest first, projected onto the tangent space at U. Each slot
    carries its curvature as stored: rho (LBFGS_MEMORY, R) is 1/<s, y>, 0
    where <s, y> is not positive, and gam the scaling <s, y>/<y, y>. Pairs
    with rho = 0 drop out, and the initial scaling comes from the newest
    pair with rho > 0 (1 when none has it); with no slots the direction is
    -g."""
    R = len(g)
    q = g.view(float).reshape(R, -1).copy()
    gamma = np.ones(R)
    if slots:
        ok = rho[slots] > 0
        newest = len(slots) - 1 - ok[::-1].argmax(axis=0)
        gamma = np.where(ok.any(axis=0), gam[slots][newest, np.arange(R)],
                         gamma)
    alpha = {}
    for k in reversed(slots):
        alpha[k] = rho[k] * np.einsum('ij,ij->i', S[k], q)
        q -= alpha[k][:, None] * Y[k]
    q *= gamma[:, None]
    for k in slots:
        beta = rho[k] * np.einsum('ij,ij->i', Y[k], q)
        q += (alpha[k] - beta)[:, None] * S[k]
    return _tangent(U, -q.view(complex).reshape(g.shape))


def _line_search(Ua, fa, d, slope, B, da: int, db: int):
    """Armijo backtracking along d: each restart accepts the first step
    2^-j, j < MAX_BACKTRACKS, with f(retract(U + 2^-j d)) <= f + ARMIJO 2^-j
    slope. After a round of unit steps, each round evaluates the next
    max(1, TRIAL_POINTS // searching) halvings of every restart still
    searching in one `_retract` and `_roof` call. Returns the steps
    (2^-MAX_BACKTRACKS where none passed, with the old point and value and a
    zero gradient), points, values, Euclidean gradients, and the trial steps
    that sequential halving evaluates."""
    Un, fn, Gn = Ua.copy(), fa.copy(), np.zeros_like(Ua)
    halved = np.full(len(fa), MAX_BACKTRACKS)
    todo = np.arange(len(fa))
    tried = 0
    while todo.size and tried < MAX_BACKTRACKS:
        h = max(1, TRIAL_POINTS // todo.size) if tried else 1
        h = min(h, MAX_BACKTRACKS - tried)
        step = np.ldexp(1.0, -np.arange(tried, tried + h))
        Ut = _retract((Ua[todo, None] + step[:, None, None] * d[todo, None])
                      .reshape((-1,) + Ua.shape[1:]))
        ft, Gt = _roof(Ut, B, da, db)
        ok = ft.reshape(-1, h) <= (fa[todo, None]
                                   + ARMIJO * step * slope[todo, None])
        hit = ok.any(axis=1)
        first = ok.argmax(axis=1)[hit]
        rows = np.flatnonzero(hit) * h + first
        acc = todo[hit]
        Un[acc], fn[acc], Gn[acc] = Ut[rows], ft[rows], Gt[rows]
        halved[acc] = tried + first
        todo = todo[~hit]
        tried += h
    return (np.ldexp(1.0, -halved), Un, fn, Gn,
            np.minimum(halved + 1, MAX_BACKTRACKS))


def _minimize(U, B, da: int, db: int):
    """Batched Riemannian L-BFGS over isometries U (R, L, r).

    Each restart takes Armijo backtracking steps (`_line_search`, several
    halvings per call) along its own projected two-loop direction
    (`_lbfgs_direction`), retracted by phase-fixed QR. Its pairs s = step d
    and y = g+ - g of tangent gradients stay as formed, flat float64 in a
    ring of LBFGS_MEMORY slots indexed by iteration number, and each pair's
    curvature (1/<s, y> and <s, y>/<y, y>) is computed once, when it is
    stored. All restarts start together and a stopped restart never
    resumes, so one slot index serves the batch, and the ring and its
    curvatures keep only the active restarts' rows. A restart stops once
    an iteration lowers its value by less than STOP_DECREASE, or after
    MAX_ITERATIONS. Every operation acts on each restart separately, so a
    restart's path does not depend on the rest of the batch. Returns the
    final isometries, values, iteration and evaluation counts and
    converged flags.
    """
    R, L, r = U.shape
    f, G = _roof(U, B, da, db)
    g = _tangent(U, G)
    S = np.zeros((LBFGS_MEMORY, R, 2 * L * r))
    Y = np.zeros_like(S)
    rho = np.zeros((LBFGS_MEMORY, R))
    gam = np.ones_like(rho)
    iterations = np.zeros(R, dtype=int)
    evaluations = np.ones(R, dtype=int)
    converged = np.zeros(R, dtype=bool)
    active = np.arange(R)
    for it in range(MAX_ITERATIONS):
        Ua, fa, ga = U[active], f[active], g[active]
        slots = [k % LBFGS_MEMORY
                 for k in range(max(0, it - LBFGS_MEMORY), it)]
        d = _lbfgs_direction(Ua, ga, S, Y, rho, gam, slots)
        step, Un, fn, Gn, tries = _line_search(Ua, fa, d, _inner(ga, d),
                                               B, da, db)
        evaluations[active] += tries
        # a restart whose search failed has fn == fa and stops below, so its
        # pair and gradient are not used again
        gn = _tangent(Un, Gn)
        k = it % LBFGS_MEMORY
        S[k] = (step[:, None, None] * d).view(float).reshape(len(d), -1)
        Y[k] = (gn - ga).view(float).reshape(len(d), -1)
        sy = np.einsum('ij,ij->i', S[k], Y[k])
        ok = sy > 1e-300
        rho[k] = np.where(ok, 1 / np.where(ok, sy, 1.0), 0.0)
        gam[k] = sy / np.where(ok, np.einsum('ij,ij->i', Y[k], Y[k]), 1.0)
        U[active], f[active], g[active] = Un, fn, gn
        iterations[active] += 1
        done = (fa - fn) < STOP_DECREASE
        converged[active[done]] = True
        if done.any():
            active = active[~done]
            S, Y = S[:, ~done], Y[:, ~done]
            rho, gam = rho[:, ~done], gam[:, ~done]
        if active.size == 0:
            break
    return U, f, iterations, evaluations, converged


def lee_upper_bound(rho, dims: tuple[int, int], L: int | None = None,
                    restarts: int = 64, seed: int = 7) -> LeeResult:
    """Convex-roof upper bound on the linear entropy of entanglement.

    L defaults to r^2 for a rank-r state. Every restart is minimized by
    Riemannian L-BFGS over isometries (see `_minimize`) until an iteration
    lowers its value by less than STOP_DECREASE or MAX_ITERATIONS is
    reached; the minimum over restarts wins, ties broken by lowest restart
    index; `evaluations` counts the roof evaluations of sequential halving
    (see `_line_search`).
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
    U, vals, iterations, evaluations, converged = _minimize(
        _starts(seed, R, L, r), base_rows, da, db)
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
                     iterations=tuple(int(n) for n in iterations),
                     evaluations=tuple(int(n) for n in evaluations))


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
