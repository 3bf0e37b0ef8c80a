"""The three benchmark workloads: inputs generated from a seed, the CLI jobs
that consume them, and the check each job's output must pass.

Each workload lists in ``FAMILIES`` the product sets it builds with the
program's ``cli.build_upb``; that is the program's share of set-up and is
timed on its own. The builders in ``WORKLOADS`` take those sets and do the
runner's share: seeded rotations, input files and the reference data of the
checks.

Every job is an argv list for ``ctxupb.cli.run``. The program only ever sees
what is generated here: ``--seed`` values for ``lee`` and JSON files passed
with ``--in`` (or as ``equiv`` operands).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

ORTH_TOL = 1e-9       # the program's default orthogonality tolerance
VALUE_TOL = 1e-9      # slack on re-derived floating-point quantities

# best known convex-roof optima (Table 1 rows reached by every seed tried)
LEE_BEST = {"pyramid": 0.072949017, "pi/12": 0.0016354214}
LEE_SLACK = 1e-6
LEE_RESTARTS = 64
LEE_L = 5
LEE_SEEDS_PER_PASS = 4

# clique numbers of Paley graphs (self-complementary, so alpha = omega)
PALEY_ALPHA = {5: 2, 9: 3, 13: 3, 17: 3, 25: 5, 29: 4, 37: 4, 41: 5, 49: 7,
               53: 5, 61: 5}
ALPHA_PALEY_ORDERS = (29, 37, 41, 49, 53, 61)
TABLE2_ORDERS = (5, 9, 13, 17, 25, 29)
CYCLE_ORDERS = (41, 43)
CYCLE_RELABELINGS = 5
RANDOM_GRAPHS = 32
RANDOM_N, RANDOM_P = 48, 0.1


class CheckFailed(Exception):
    pass


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


@dataclass
class Job:
    argv: list
    check: Callable[[int, dict], None]   # (exit code, parsed stdout)

    @property
    def command(self) -> str:
        return self.argv[0]


# ------------------------------------------------------------- helpers

def _haar(rng, d: int) -> np.ndarray:
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _complex(pairs) -> np.ndarray:
    return np.array([complex(re, im) for re, im in pairs])


def _factors(ps) -> list:
    """Per-state lists of local factors of a ctxupb ProductSet."""
    return [[np.asarray(f, dtype=complex) for f in st] for st in ps.states]


def _full_vectors(states) -> np.ndarray:
    out = []
    for st in states:
        v = st[0]
        for f in st[1:]:
            v = np.kron(v, f)
        out.append(v)
    return np.array(out)


def _write_set(path: str, dims, states) -> None:
    doc = {"party_dims": list(dims),
           "states": [[[[float(z.real), float(z.imag)] for z in f]
                       for f in st] for st in states]}
    with open(path, "w") as fh:
        json.dump(doc, fh)


def _write_graph(path: str, n: int, edges) -> None:
    with open(path, "w") as fh:
        json.dump({"n": n, "edges": [list(e) for e in sorted(edges)]}, fh)


def _rotated(rng, dims, states) -> list:
    us = [_haar(rng, d) for d in dims]
    return [[u @ f for u, f in zip(us, st)] for st in states]


def _expect_ok(rc: int, doc: dict) -> dict:
    expect(rc == 0 and "result" in doc, f"exit code {rc}: {str(doc)[:200]}")
    return doc["result"]


def _colors(states) -> dict:
    """Party sets in which each state pair is orthogonal."""
    k = len(states)
    out = {}
    for i in range(k):
        for j in range(i + 1, k):
            out[(i, j)] = frozenset(
                m for m in range(len(states[i]))
                if abs(np.vdot(states[i][m], states[j][m])) <= ORTH_TOL)
    return out


def _independent(edges: set, witness) -> bool:
    return all((min(u, v), max(u, v)) not in edges
               for a, u in enumerate(witness) for v in witness[a + 1:])


# ------------------------------------------------------------- upb-verify

UPB_SETS = ([("gencontextual", {"n": n}) for n in (7, 11, 15, 19, 23)]
            + [("quadres", {"p": p}) for p in (5, 13, 17)]
            + [("pyramid", {}), ("genpyramid", {"m": 4, "t": 3})])
BES_SKIP = {"quadres-17"}   # repeats a 6 s certificate scan verify-upb has


def _tag(name: str, params: dict) -> str:
    return "-".join([name, *map(str, params.values())])


def _verdict_check(dims, states, extendible: bool, method: str):
    k = len(states)
    minimal = k == sum(d - 1 for d in dims) + 1
    full = _full_vectors(states)

    def check(rc, doc):
        res = _expect_ok(rc, doc)
        if extendible:
            expected = "Extendible"
        else:
            expected = "UPB" if method == "exact" else "CertifiedUnextendible"
        expect(res["status"] == expected,
               f"status {res['status']}, expected {expected}")
        expect(res["condition1"] is True, "condition1 is not true")
        expect(res["minimal"] is minimal, "minimal flag is wrong")
        cg = res["colored_graph"]
        expect(cg["n"] == k and len(cg["edges"]) == k * (k - 1) // 2,
               "colored graph does not cover every pair")
        if "certificate" in res:
            cert = res["certificate"]
            expect(len(cert) == len(dims), "certificate length")
            expect(sum(cert) < k, f"certificate {cert} does not sum below {k}")
            expect(all(c >= min(d - 1, k) for c, d in zip(cert, dims)),
                   f"certificate {cert} below the d-1 floor")
        if extendible:
            factors = [_complex(f) for f in res["witness"]]
            expect(all(abs(np.linalg.norm(f) - 1) <= VALUE_TOL
                       for f in factors), "witness factor is not unit norm")
            w = factors[0]
            for f in factors[1:]:
                w = np.kron(w, f)
            worst = float(np.max(np.abs(full.conj() @ w)))
            expect(worst <= ORTH_TOL,
                   f"witness overlap {worst:.3g} exceeds orth_tol")
    return check


def _bes_check(dims, states, extendible: bool):
    k = len(states)
    full = _full_vectors(states)
    D = full.shape[1]

    def check(rc, doc):
        if extendible:
            expect(rc == 1 and doc.get("error") == "NotUpb",
                   f"expected NotUpb, got exit {rc}: {str(doc)[:200]}")
            return
        res = _expect_ok(rc, doc)
        expect(res["status"] == "CertifiedUnextendible",
               f"status {res['status']}")
        expect(res["rank"] == D - k, f"rank {res['rank']}, expected {D - k}")
        expect(res["ppt"] is True, "state reported not PPT")
        rho = np.array([_complex(row) for row in res["matrix"]])
        expect(rho.shape == (D, D), "matrix shape")
        expect(float(np.max(np.abs(rho - rho.conj().T))) <= VALUE_TOL,
               "matrix is not Hermitian")
        expect(abs(np.trace(rho).real - 1) <= VALUE_TOL, "trace is not 1")
        member = np.abs(np.einsum("kd,de,ke->k", full.conj(), rho, full))
        expect(float(member.max()) <= ORTH_TOL,
               "state overlaps a member of the set")
        da, db = dims
        pt = rho.reshape(da, db, da, db).transpose(0, 3, 2, 1)
        low = float(np.linalg.eigvalsh(pt.reshape(D, D))[0])
        expect(low >= -ORTH_TOL, f"partial transpose eigenvalue {low:.3g}")
        expect(abs(res["min_pt_eigenvalue"] - low) <= 1e-8,
               "reported min_pt_eigenvalue differs")
    return check


def build_upb_verify(seed: int, workdir: str, built: dict) -> list:
    rng = np.random.default_rng([seed, 1])
    jobs = []
    for name, params in UPB_SETS:
        tag = _tag(name, params)
        base = built[tag]
        dims = base.party_dims
        states = _rotated(rng, dims, _factors(base))
        path = os.path.join(workdir, f"{tag}.json")
        _write_set(path, dims, states)
        extendible = name == "genpyramid"
        for method in ("auto", "exact"):
            jobs.append(Job(["verify-upb", "--in", path, "--method", method],
                            _verdict_check(dims, states, extendible, method)))
        if tag not in BES_SKIP:
            jobs.append(Job(["bes", "--in", path],
                            _bes_check(dims, states, extendible)))
    return jobs


# ------------------------------------------------------------- lee-roof

LEE_TARGETS = (("pyramid", "pyramid", {}),
               ("pi/12", "one-param", {"theta": "pi/12"}))


def _upb_state(ps) -> tuple:
    full = _full_vectors(_factors(ps))
    D, k = full.shape[1], full.shape[0]
    rho = (np.eye(D) - full.T @ full.conj()) / (D - k)
    return rho, ps.party_dims


def _lee_check(rho, dims, best: float):
    da, db = dims

    def check(rc, doc):
        res = _expect_ok(rc, doc)
        dec = res["decomposition"]
        w = np.array(dec["weights"])
        states = np.array([_complex(s) for s in dec["states"]])
        expect(bool(np.all(w > 0)) and abs(w.sum() - 1) <= VALUE_TOL,
               "weights are not a probability vector")
        mix = (states.T * w) @ states.conj()
        expect(float(np.max(np.abs(mix - rho))) <= 1e-8,
               "decomposition does not reconstruct the state")
        m = states.reshape(-1, da, db)
        red = m @ np.swapaxes(m.conj(), 1, 2)
        terms = 1 - np.einsum("kab,kba->k", red, red).real
        value = float(w @ terms)
        expect(abs(value - res["value"]) <= VALUE_TOL,
               f"reported value {res['value']} differs from {value}")
        expect(res["value"] <= best + LEE_SLACK,
               f"LEE {res['value']} above best known {best}")
    return check


def build_lee_roof(seed: int, workdir: str, built: dict) -> list:
    rng = np.random.default_rng([seed, 2])
    lee_seeds = [int(s) for s in rng.integers(0, 2 ** 31,
                                              size=LEE_SEEDS_PER_PASS)]
    jobs = []
    for label, name, kw in LEE_TARGETS:
        rho, dims = _upb_state(built[label])
        check = _lee_check(rho, dims, LEE_BEST[label])
        target = [name] + [a for k, v in kw.items() for a in (f"--{k}", v)]
        for s in lee_seeds:
            jobs.append(Job(["lee", *target, "--restarts",
                             str(LEE_RESTARTS), "--L", str(LEE_L),
                             "--seed", str(s)], check))
    return jobs


# ------------------------------------------------------------- graph-alpha

def _alpha_check(n: int, edges: set, alpha: int | None):
    def check(rc, doc):
        res = _expect_ok(rc, doc)
        expect(res["n"] == n, "vertex count")
        if alpha is not None:
            expect(res["alpha"] == alpha,
                   f"alpha {res['alpha']}, expected {alpha}")
        witness = res["witness"]
        expect(len(witness) == res["alpha"] == len(set(witness)),
               f"witness size {len(witness)} differs from alpha")
        expect(all(0 <= v < n for v in witness), "witness vertex out of range")
        expect(_independent(edges, witness), "witness is not independent")
        chosen = set(witness)
        free = [v for v in range(n) if v not in chosen
                and _independent(edges, witness + [v])]
        expect(not free, "witness is not maximal")
    return check


def _paley_edges(q: int) -> set:
    """Paley graph edges under the program's GF(q) encoding: a + b*p stands
    for a + b*x with x^2 = s, s the smallest non-residue mod p."""
    p = math.isqrt(q) if math.isqrt(q) ** 2 == q else q
    residues = {(x * x) % p for x in range(1, p)}
    if p == q:
        squares = residues
    else:
        s = min(x for x in range(2, p) if x not in residues)
        squares = {(a * a + s * b * b) % p + (2 * a * b) % p * p
                   for a in range(p) for b in range(p) if a or b}

    def diff(u, v):
        return (u % p - v % p) % p + (u // p - v // p) % p * p

    return {(i, j) for i in range(q) for j in range(i + 1, q)
            if diff(j, i) in squares}


def _table2_check(rc, doc):
    rows = _expect_ok(rc, doc)["rows"]
    expect([r["q"] for r in rows] == list(TABLE2_ORDERS), "table2 orders")
    for r in rows:
        q = r["q"]
        expect(r["alpha"] == PALEY_ALPHA[q], f"alpha of Paley {q}")
        expect(abs(r["theta"] - math.sqrt(q)) <= VALUE_TOL, f"theta {q}")
        expect(abs(r["ratio"] - math.sqrt(q) / PALEY_ALPHA[q]) <= VALUE_TOL,
               f"ratio {q}")


def _equiv_check(colors_a, colors_b):
    def check(rc, doc):
        res = _expect_ok(rc, doc)
        if colors_b is None:
            expect(res["equivalent"] is False and res["permutation"] is None,
                   "non-equivalent pair reported equivalent")
            return
        perm = res["permutation"]
        expect(res["equivalent"] is True and perm is not None,
               "permuted copy reported not equivalent")
        expect(sorted(perm) == list(range(len(perm))), "not a permutation")
        for (i, j), c in colors_a.items():
            a, b = perm[i], perm[j]
            expect(colors_b[(min(a, b), max(a, b))] == c,
                   f"permutation breaks the colors of pair {(i, j)}")
    return check


EQUIV_SETS = (("gencontextual:13", "gencontextual", {"n": 13}),
              ("gencontextual:15", "gencontextual", {"n": 15}),
              ("quadres:13", "quadres", {"p": 13}))


def build_graph_alpha(seed: int, workdir: str, built: dict) -> list:
    rng = np.random.default_rng([seed, 3])
    jobs = []
    for n in CYCLE_ORDERS:
        for r in range(CYCLE_RELABELINGS):
            perm = rng.permutation(n)
            edges = {tuple(sorted((int(perm[i]), int(perm[(i + 1) % n]))))
                     for i in range(n)}
            path = os.path.join(workdir, f"cycle-{n}-{r}.json")
            _write_graph(path, n, edges)
            jobs.append(Job(["alpha", "--in", path],
                            _alpha_check(n, edges, (n - 1) // 2)))
    for g in range(RANDOM_GRAPHS):
        adj = np.triu(rng.random((RANDOM_N, RANDOM_N)) < RANDOM_P, 1)
        edges = {(int(i), int(j)) for i, j in zip(*np.nonzero(adj))}
        path = os.path.join(workdir, f"gnp-{g}.json")
        _write_graph(path, RANDOM_N, edges)
        jobs.append(Job(["alpha", "--in", path],
                        _alpha_check(RANDOM_N, edges, None)))
    for q in ALPHA_PALEY_ORDERS:
        jobs.append(Job(["alpha", "paley", "--q", str(q)],
                        _alpha_check(q, _paley_edges(q), PALEY_ALPHA[q])))
    jobs.append(Job(["table2"], _table2_check))
    bases = {}
    for token, _, _ in EQUIV_SETS:
        ps = built[token]
        states = _factors(ps)
        order = rng.permutation(len(states))
        moved = _rotated(rng, ps.party_dims, [states[i] for i in order])
        path = os.path.join(workdir, f"perm-{token.replace(':', '-')}.json")
        _write_set(path, ps.party_dims, moved)
        bases[token] = _colors(states)
        jobs.append(Job(["equiv", token, path],
                        _equiv_check(bases[token], _colors(moved))))
    jobs.append(Job(["equiv", "gencontextual:13", "quadres:13"],
                    _equiv_check(bases["gencontextual:13"], None)))
    return jobs


FAMILIES = {   # workload -> [(tag, build_upb name, build_upb keywords)]
    "lee-roof": LEE_TARGETS,
    "upb-verify": tuple((_tag(n, p), n, p) for n, p in UPB_SETS),
    "graph-alpha": EQUIV_SETS,
}

WORKLOADS = {
    "lee-roof": build_lee_roof,
    "upb-verify": build_upb_verify,
    "graph-alpha": build_graph_alpha,
}
