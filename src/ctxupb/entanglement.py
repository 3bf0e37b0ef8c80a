"""Linear entropy of entanglement via convex-roof minimization.

Decompositions of a rank-r state are parameterized as isometric mixings of
the scaled eigenvectors (every decomposition arises this way), and optimized
by repeated two-element Jacobi mixing sweeps: each sweep mixes every row pair
once, in tournament rounds of disjoint pairs. A pair's complex 2x2 unitary
mixing is chosen over mixing angle and relative phase by a coarse grid, then
refined by a few safeguarded Newton steps on the angle and then on the phase,
each kept inside the grid cell and stopped at 1e-8 angular resolution.
Restart 0 starts from the identity embedding (the bare eigendecomposition),
the rest from seeded random isometries; restart r draws from the
counter-derived stream (seed, r), so any execution order enumerates
identical starting points. The reported value is an upper bound on the true
convex roof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BadDecomposition, BadSize, DimensionMismatch
from .linalg import DEFAULT_TOL, Tolerances, as_matrix, as_vector, partial_trace

GRID_ANGLES = 17
GRID_PHASES = 16
EIG_FLOOR = 1e-12
WEIGHT_FLOOR = 1e-12
FD_STEP = 1e-4
NEWTON_STEPS = 4

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
    # per restart, in restart order: final value and Jacobi sweeps run
    restart_values: tuple = field(default=(), repr=False, compare=False)
    sweeps: tuple = field(default=(), repr=False, compare=False)

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


def _round_robin(L: int):
    """Tournament schedule: every row pair exactly once, in rounds of
    disjoint pairs. Odd L plays the circle method on L+1 slots; pairs with
    the phantom row L are byes and are left out."""
    n = L + L % 2
    xs = list(range(n))
    rounds = []
    for _ in range(n - 1):
        rnd = [(min(a, b), max(a, b))
               for a, b in ((xs[k], xs[n - 1 - k]) for k in range(n // 2))
               if max(a, b) < L]
        if rnd:
            rounds.append(rnd)
        xs = [xs[0]] + [xs[-1]] + xs[1:-1]
    return rounds


def _newton_min(fun, x, lo, hi, tol):
    """Batched safeguarded Newton descent from x, kept inside [lo, hi]
    elementwise, in at most NEWTON_STEPS steps.

    f' and f'' are central differences of fun at x-h, x, x+h, taken in one
    stacked call. Where f'' <= 0 the step goes to the downhill end of the
    interval. An element stops once its step is at most tol, or undoes its
    last step and stops once that step did not lower fun; so each element's
    path does not depend on the rest of the batch.
    """
    h = FD_STEP
    offsets = np.array([-h, 0.0, h]).reshape((3,) + (1,) * x.ndim)
    live = np.ones(x.shape, dtype=bool)
    x_prev, f_prev = x, np.inf
    for _ in range(NEWTON_STEPS):
        fm, f0, fp = fun(x + offsets)
        undo = live & (f0 >= f_prev)
        x = np.where(undo, x_prev, x)
        live &= ~undo
        grad = (fp - fm) / (2 * h)
        curv = (fp - 2 * f0 + fm) / (h * h)
        convex = curv > 0
        newton = -grad / np.where(convex, curv, 1.0)
        downhill = np.where(grad > 0, lo, hi) - x
        xn = np.clip(x + np.where(convex, newton, downhill), lo, hi)
        live &= np.abs(xn - x) > tol
        x_prev, f_prev = x, f0
        x = np.where(live, xn, x)
        if not live.any():
            break
    return x


def _row_objective(X, da: int, db: int):
    """Per-row convex-roof contribution of unnormalized rows x:
    ||x||^2 * S_l of the normalized reduction, evaluated without dividing by
    the weight."""
    M = X.reshape(X.shape[:-1] + (da, db))
    P = M @ np.swapaxes(M.conj(), -1, -2)
    tr = np.einsum('...aa->...', P).real
    tr2 = np.einsum('...ab,...ba->...', P, P).real
    return np.where(tr > 1e-30, tr - tr2 / np.maximum(tr, 1e-300), 0.0)


def _jacobi_sweep(X, da, db, rounds, angs, phis, angle_tol):
    """One sweep of pairwise 2x2 mixings over the tournament schedule.

    X has shape (R, L, D) and is updated in place; each restart slice is
    treated independently, so results match one-at-a-time execution.
    """
    R = X.shape[0]
    nga, ngp = len(angs), len(phis)
    da_step = angs[1] - angs[0]
    dp_step = phis[1] - phis[0]
    cga, sga = np.cos(angs), np.sin(angs)
    czg, szg = np.cos(phis), np.sin(phis)
    for rnd in rounds:
        ii = np.array([p[0] for p in rnd])
        jj = np.array([p[1] for p in rnd])
        Mi = X[:, ii, :].reshape(R, len(rnd), da, db)
        Mj = X[:, jj, :].reshape(R, len(rnd), da, db)
        A = np.einsum('rpab,rpcb->rpac', Mi, Mi.conj())
        B = np.einsum('rpab,rpcb->rpac', Mj, Mj.conj())
        C = np.einsum('rpab,rpcb->rpac', Mi, Mj.conj())
        trA = np.einsum('rpaa->rp', A).real
        trB = np.einsum('rpaa->rp', B).real
        tC = np.einsum('rpaa->rp', C)
        trA2 = np.einsum('rpab,rpba->rp', A, A).real
        trB2 = np.einsum('rpab,rpba->rp', B, B).real
        trAB2 = 2 * np.einsum('rpab,rpba->rp', A, B).real
        tC2 = np.einsum('rpab,rpba->rp', C, C)
        trCC2 = 2 * np.einsum('rpab,rpab->rp', C, C.conj()).real
        tAC4 = 4 * np.einsum('rpab,rpba->rp', A, C)
        tBC4 = 4 * np.einsum('rpab,rpba->rp', B, C)
        S = trA + trB
        reC, imC = tC.real, tC.imag
        reC22, imC22 = 2 * tC2.real, 2 * tC2.imag
        reAC4, imAC4 = tAC4.real, tAC4.imag
        reBC4, imBC4 = tBC4.real, tBC4.imag

        def pair_obj(c, s, cz, sz, scal):
            (trA_, trB_, S_, trA2_, trB2_, trAB2_, trCC2_,
             reC_, imC_, reC22_, imC22_, reAC4_, imAC4_, reBC4_, imBC4_) = scal
            al = c * c
            be = s * s
            ga = c * s
            rZC = cz * reC_ + sz * imC_
            rZ2 = (cz * cz - sz * sz) * reC22_ + (2 * sz * cz) * imC22_
            rZAC = cz * reAC4_ + sz * imAC4_
            rZBC = cz * reBC4_ + sz * imBC4_
            trP = al * trA_ + be * trB_ + 2 * ga * rZC
            trQ = S_ - trP
            gam2 = ga * ga * (rZ2 + trCC2_)
            ab2 = al * be * trAB2_
            trP2 = al * al * trA2_ + be * be * trB2_ + gam2 + ab2 + ga * (al * rZAC + be * rZBC)
            trQ2 = be * be * trA2_ + al * al * trB2_ + gam2 + ab2 - ga * (be * rZAC + al * rZBC)
            fP = trP - trP2 / (trP + 1e-300)
            fQ = trQ - trQ2 / (trQ + 1e-300)
            return np.where(trP > 1e-30, fP, 0.0) + np.where(trQ > 1e-30, fQ, 0.0)

        flat_scal = (trA, trB, S, trA2, trB2, trAB2, trCC2,
                     reC, imC, reC22, imC22, reAC4, imAC4, reBC4, imBC4)
        grid_scal = tuple(x[:, :, None, None] for x in flat_scal)
        gv = pair_obj(cga[:, None], sga[:, None], czg[None, :], szg[None, :],
                      grid_scal)
        base = gv[:, :, nga // 2, 0]     # angle 0: identity mixing
        flat_gv = gv.reshape(R, len(rnd), -1)
        idx = flat_gv.argmin(axis=2)
        gmin = flat_gv.min(axis=2)
        a_g = angs[idx // ngp]
        p_g = phis[idx % ngp]
        # refine the angle at the grid phase, then the phase at that angle,
        # and keep the grid point where refining did not lower the objective
        czc, szc = np.cos(p_g), np.sin(p_g)
        a_c = _newton_min(
            lambda a: pair_obj(np.cos(a), np.sin(a), czc, szc, flat_scal),
            a_g, a_g - da_step, a_g + da_step, angle_tol)
        cac, sac = np.cos(a_c), np.sin(a_c)
        p_c = _newton_min(
            lambda ph: pair_obj(cac, sac, np.cos(ph), np.sin(ph), flat_scal),
            p_g, p_g - dp_step, p_g + dp_step, angle_tol)
        gopt = pair_obj(np.cos(a_c), np.sin(a_c), np.cos(p_c), np.sin(p_c),
                        flat_scal)
        worse = gopt > gmin
        a_c = np.where(worse, a_g, a_c)
        p_c = np.where(worse, p_g, p_c)
        gopt = np.minimum(gopt, gmin)
        do = (base - gopt) > 1e-15
        if np.any(do):
            c = np.cos(a_c)[..., None]
            s = np.sin(a_c)[..., None]
            z = np.exp(1j * p_c)[..., None]
            xi = X[:, ii, :]
            xj = X[:, jj, :]
            m3 = do[..., None]
            X[:, ii, :] = np.where(m3, c * xi + s * z * xj, xi)
            X[:, jj, :] = np.where(m3, -s * np.conj(z) * xi + c * xj, xj)


def lee_upper_bound(rho, dims: tuple[int, int], L: int | None = None,
                    restarts: int = 64, seed: int = 7,
                    sweep_tol: float = 1e-10, max_sweeps: int = 500,
                    angle_tol: float = 1e-8) -> LeeResult:
    """Convex-roof upper bound on the linear entropy of entanglement.

    L defaults to r^2 for a rank-r state. Each restart sweeps until its own
    last-sweep improvement drops below sweep_tol; the minimum over restarts
    wins, ties broken by lowest restart index. angle_tol is the angular
    resolution at which a pair's Newton refinement stops.
    """
    m = as_matrix(rho)
    da, db = dims
    if m.shape != (da * db, da * db):
        raise DimensionMismatch("state does not match party dims",
                                shape=list(m.shape), dims=[da, db])
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
    X = np.zeros((R, L, da * db), dtype=complex)
    for rr in range(R):
        if rr == 0:
            U = np.zeros((L, r), dtype=complex)
            U[:r, :r] = np.eye(r)
        else:
            rng = np.random.default_rng([seed, rr])
            G = rng.normal(size=(L, r)) + 1j * rng.normal(size=(L, r))
            U, _ = np.linalg.qr(G)
        X[rr] = U @ base_rows

    rounds = _round_robin(L)
    angs = np.linspace(-np.pi / 2, np.pi / 2, GRID_ANGLES)
    phis = np.linspace(0.0, 2 * np.pi, GRID_PHASES, endpoint=False)

    vals = _row_objective(X, da, db).sum(axis=1)
    converged = np.zeros(R, dtype=bool)
    sweeps = np.zeros(R, dtype=int)
    active = np.arange(R)
    for _ in range(max_sweeps):
        Xa = X[active]
        _jacobi_sweep(Xa, da, db, rounds, angs, phis, angle_tol)
        X[active] = Xa
        sweeps[active] += 1
        new = _row_objective(Xa, da, db).sum(axis=1)
        done = (vals[active] - new) < sweep_tol
        vals[active] = new
        converged[active[done]] = True
        active = active[~done]
        if active.size == 0:
            break

    vals = np.maximum(vals, 0.0)
    best_idx = int(vals.argmin())
    rows = X[best_idx]
    weights = np.linalg.norm(rows, axis=1) ** 2
    keep_rows = weights > WEIGHT_FLOOR
    states = tuple(rows[i] / math.sqrt(weights[i])
                   for i in range(L) if keep_rows[i])
    decomp = Decomposition(tuple(float(w) for w in weights[keep_rows]), states)
    return LeeResult(float(vals[best_idx]), decomp, R,
                     bool(converged[best_idx]), seed,
                     restart_values=tuple(float(v) for v in vals),
                     sweeps=tuple(int(n) for n in sweeps))


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
