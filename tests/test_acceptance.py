"""Acceptance suite: one test per criterion clause, each printing a
PASS/FAIL line (run with -s to stream them).

Criterion 2 reproduces Table 1 with the one-parameter UPB
a_j (x) a_{(2j+2) mod 5} (`one_param_upb`), which is the Tiles UPB at 3pi/4.
Criterion 4 includes the genpyramid assemblies at p=9 and p=25, which are
not UPBs: a composite p forces a non-unit multiplier whose party repeats
its factors with period 3 (or 5), so 6 (or 10) states lie in one plane and
the set has a product extension (DiVincenzo et al., CMP 238, 379 (2003),
Lemma 1). Their cases therefore expect `Extendible` with a checked witness
under the exact method (p=9) and an `Inconclusive` certificate under the
bound method plus a hand-built witness (p=25). The bound method never
searches; the exact and auto methods find a checked p=25 extension too
(tests/test_upb.py).
"""

import itertools
import math
import time

import numpy as np
import pytest

from ctxupb.contextuality import strength, table2, theta_cycle, \
    theta_cycle_complement
from ctxupb.entanglement import lee_upper_bound, table1
from ctxupb.errors import Inconclusive, NotOrthogonalSet
from ctxupb.families import (gen_kcbs, genpyramid_local, kcbs,
                             loor_cycle_complement, one_param_family, pyramid,
                             quadres_local, verify_loor)
from ctxupb.graphs import complement, cycle, graph, is_cycle
from ctxupb.linalg import (DEFAULT_TOL, hermitian_eig, kron_all,
                           partial_transpose)
from ctxupb.upb import (assemble_mapped, bound_entangled_state,
                        gencontextual_upb, one_param_upb, party_graphs,
                        quadres_upb, upb_graph_equivalent, verify_upb)

from conftest import genpyramid_25_upb, genpyramid_25_witness, witness_overlap

TABLE1_THETAS = [math.acos((math.sqrt(5) - 1) / 2), 3 * math.pi / 4,
                 math.pi / 3, math.pi / 6, math.pi / 12]
TABLE1_STRENGTH_REFS = [math.sqrt(5), 2.2287, 2.2254, 2.1641, 2.0590]
TABLE1_LEE_REFS = [0.07295, 0.06519, 0.06335, 0.01278, 0.00029]
ROW_NAMES = ["pyramid", "tiles", "pi/3", "pi/6", "pi/12"]


def report(criterion, name, ok):
    print(f"ACCEPTANCE {criterion} [{name}]: {'PASS' if ok else 'FAIL'}")


# ------------------------------------------------------------- criterion 1

def test_c1_table1_strength_column():
    t0 = time.monotonic()
    values = [strength(one_param_family(th).vectors).value
              for th in TABLE1_THETAS]
    again = [strength(one_param_family(th).vectors).value
             for th in TABLE1_THETAS]
    elapsed = time.monotonic() - t0
    ok = all(abs(v - ref) <= 1e-3
             for v, ref in zip(values, TABLE1_STRENGTH_REFS))
    ok = ok and values == again and elapsed < 1.0
    report(1, "strength column 1e-3, deterministic, <1s", ok)
    assert all(abs(v - r) <= 1e-3 for v, r in zip(values, TABLE1_STRENGTH_REFS)), values
    assert values == again
    assert elapsed < 1.0


# ------------------------------------------------------------- criterion 2

@pytest.fixture(scope="module")
def table1_run():
    t0 = time.monotonic()
    res = table1(seed=7, restarts=64, L=16)
    res["elapsed"] = time.monotonic() - t0
    return res


def test_c2_lee_runtime(table1_run):
    ok = table1_run["elapsed"] < 300.0
    report(2, f"LEE total runtime {table1_run['elapsed']:.0f}s < 5min", ok)
    assert ok


def test_c2_lee_ordering(table1_run):
    lees = [row["lee"] for row in table1_run["rows"]]
    ok = all(a > b for a, b in zip(lees, lees[1:]))
    report(2, "LEE strict monotone ordering", ok)
    assert ok, lees


@pytest.mark.parametrize("idx", range(5), ids=ROW_NAMES)
def test_c2_lee_reference_bands(table1_run, idx):
    row = table1_run["rows"][idx]
    ref = TABLE1_LEE_REFS[idx]
    one_sided = row["lee"] <= ref + 1e-3
    absolute = abs(row["lee"] - ref) <= 5e-3
    report(2, f"LEE row {ROW_NAMES[idx]}: {row['lee']:.5f} vs {ref}",
           one_sided and absolute)
    assert one_sided, (row["lee"], ref)
    assert absolute, (row["lee"], ref)


# ------------------------------------------------------------- criterion 3

def test_c3_table2():
    t0 = time.monotonic()
    rows = table2()
    elapsed = time.monotonic() - t0
    want_theta = [math.sqrt(5), 3.0, math.sqrt(13), math.sqrt(17), 5.0,
                  math.sqrt(29)]
    want_alpha = [2, 3, 3, 3, 5, 4]
    ok_theta = all(abs(r["theta"] - t) <= 1e-9
                   for r, t in zip(rows, want_theta))
    ok_alpha = [r["alpha"] for r in rows] == want_alpha
    ok = ok_theta and ok_alpha and elapsed < 30.0
    report(3, f"table2 theta 1e-9, alpha exact, {elapsed:.1f}s < 30s", ok)
    assert ok_theta
    assert ok_alpha
    assert elapsed < 30.0


# ------------------------------------------------------------- criterion 4

# (name, build, expected exact verdict)
EXACT_CASES = [
    ("pyramid", lambda: assemble_mapped(pyramid(), (1, 2)), "UPB"),
    ("tiles-rep", lambda: one_param_upb(3 * math.pi / 4), "UPB"),
    ("quadres-5", lambda: quadres_upb(5), "UPB"),
    ("quadres-13", lambda: quadres_upb(13), "UPB"),
    ("gencontextual-5", lambda: gencontextual_upb(5), "UPB"),
    ("gencontextual-7", lambda: gencontextual_upb(7), "UPB"),
    ("gencontextual-9", lambda: gencontextual_upb(9), "UPB"),
    ("genpyramid-2-2", lambda: assemble_mapped(genpyramid_local(2, 2),
                                               (1, 2)), "UPB"),
    ("genpyramid-4-3-p9", lambda: assemble_mapped(genpyramid_local(4, 3),
                                                  (1, 2, 3, 4)), "Extendible"),
]

# (name, build, extension): extension is None where the certificate must
# close, else (certificate sum, hand-built witness) for an extendible set
BOUND_CASES = [
    ("gencontextual-11", lambda: gencontextual_upb(11), None),
    ("gencontextual-13", lambda: gencontextual_upb(13), None),
    ("genpyramid-12-10-p25", genpyramid_25_upb, (40, genpyramid_25_witness)),
]


@pytest.fixture(scope="module")
def verified_upbs():
    """Product sets from criterion 4 that actually verify; used by 5/6."""
    out = {}
    for name, build, _ in EXACT_CASES:
        ps = build()
        try:
            verdict = verify_upb(ps, method="exact")
        except Exception:
            continue
        if verdict.status in ("UPB", "CertifiedUnextendible"):
            out[name] = (ps, verdict)
    for name, build, _ in BOUND_CASES:
        ps = build()
        try:
            verdict = verify_upb(ps, method="bound")
        except Inconclusive:
            continue
        out[name] = (ps, verdict)
    return out


@pytest.mark.parametrize("name,build,expected", EXACT_CASES,
                         ids=[c[0] for c in EXACT_CASES])
def test_c4_exact_verdicts(name, build, expected):
    ps = build()
    t0 = time.monotonic()
    verdict = verify_upb(ps, method="exact")
    elapsed = time.monotonic() - t0
    ok = verdict.status == expected and elapsed < 60.0
    if expected == "Extendible":
        overlap = witness_overlap(ps, verdict.witness)
        ok = ok and overlap <= DEFAULT_TOL.atol
    report(4, f"exact {name} -> {expected} ({verdict.status}, "
              f"{elapsed:.1f}s)", ok)
    assert elapsed < 60.0
    assert verdict.status == expected, verdict.status
    if expected == "Extendible":
        assert overlap <= DEFAULT_TOL.atol, overlap


@pytest.mark.parametrize("name,build,extension", BOUND_CASES,
                         ids=[c[0] for c in BOUND_CASES])
def test_c4_bound_certifications(name, build, extension):
    ps = build()
    t0 = time.monotonic()
    try:
        verdict = verify_upb(ps, method="bound")
        status, cert = verdict.status, list(verdict.certificate)
    except Inconclusive as e:
        status, cert = "Inconclusive", e.details["certificate"]
    elapsed = time.monotonic() - t0
    if extension is None:
        expected = "CertifiedUnextendible"
        ok = status == expected
    else:
        expected = "Inconclusive"
        cert_sum, witness = extension
        overlap = witness_overlap(ps, witness(ps))
        ok = (status == expected and sum(cert) == cert_sum >= ps.k
              and overlap <= DEFAULT_TOL.atol)
    ok = ok and elapsed < 60.0
    report(4, f"bound {name} -> {expected} ({status}{cert}, "
              f"{elapsed:.1f}s)", ok)
    assert elapsed < 60.0
    assert status == expected, (status, cert)
    if extension is not None:
        assert sum(cert) == cert_sum >= ps.k, cert
        assert overlap <= DEFAULT_TOL.atol, overlap


def test_c4_p15_non_upb_with_named_condition():
    ps = assemble_mapped(genpyramid_local(7, 4), tuple(range(1, 8)))
    t0 = time.monotonic()
    with pytest.raises(NotOrthogonalSet) as exc:
        verify_upb(ps, method="exact")
    elapsed = time.monotonic() - t0
    ok = exc.value.details.get("condition") == 1 and elapsed < 60.0
    report(4, "genpyramid p=15 -> non-UPB naming condition 1", ok)
    assert ok
    assert "pair" in exc.value.details


# ------------------------------------------------------------- criterion 5

def test_c5_bound_entangled_properties(verified_upbs):
    assert verified_upbs, "no verified UPBs collected"
    all_ok = True
    for name, (ps, verdict) in sorted(verified_upbs.items()):
        rho = bound_entangled_state(ps, verdict)
        D = ps.total_dim
        w = rho.eigenvalues()
        psd = w[0] >= -1e-9
        trace1 = abs(np.trace(rho.matrix).real - 1.0) <= 1e-12
        rank_ok = int(np.count_nonzero(w > 1e-9)) == D - ps.k
        pt_min = hermitian_eig(
            partial_transpose(rho.matrix, ps.party_dims, 1))[0][0]
        ppt = pt_min >= -1e-9
        member_overlap = max(
            abs(np.vdot(kron_all(st), rho.matrix @ kron_all(st)))
            for st in ps.states)
        orth = member_overlap <= 1e-12
        ok = psd and trace1 and rank_ok and ppt and orth
        all_ok = all_ok and ok
        report(5, f"bes {name}: psd/trace/rank/ppt/orth", ok)
        assert ok, (name, psd, trace1, rank_ok, ppt, member_overlap)
    assert all_ok


# ------------------------------------------------------------- criterion 6

def test_c6_equivalence_suite():
    pyr = assemble_mapped(pyramid(), (1, 2))
    suite = {
        "tiles-rep": one_param_upb(3 * math.pi / 4),
        "quadres-5": quadres_upb(5),
        "gencontextual-5": gencontextual_upb(5),
    }
    all_ok = True
    for name, ps in suite.items():
        perm = upb_graph_equivalent(pyr, ps)
        ok = perm is not None
        all_ok = all_ok and ok
        report(6, f"pyramid ~ {name}", ok)
        assert ok, name
    for name, ps in [("pyramid", pyr)] + list(suite.items()):
        graphs, _ = party_graphs(ps)
        ok = is_cycle(graphs[0])
        all_ok = all_ok and ok
        report(6, f"party-1 factor of {name} is a cycle", ok)
        assert ok, name
    assert all_ok


# ------------------------------------------------------------- criterion 7

@pytest.mark.parametrize("n", [5, 7, 9, 11])
def test_c7_loor_certificates(n):
    rep_c = verify_loor(gen_kcbs(n), cycle(n), theta_cycle(n).value)
    rep_cc = verify_loor(loor_cycle_complement(n), complement(cycle(n)),
                         theta_cycle_complement(n).value)
    ok = (rep_c.certificate and rep_cc.certificate
          and rep_c.theta_gap <= 1e-6 and rep_cc.theta_gap <= 1e-6)
    report(7, f"LOOR certificates n={n}", ok)
    assert ok, (rep_c, rep_cc)


@pytest.mark.parametrize("p", [5, 13, 17])
def test_c7_quadres_strength(p):
    s = strength(quadres_local(p).vectors).value
    ok = abs(s - math.sqrt(p)) <= 1e-9
    report(7, f"quadres strength p={p}", ok)
    assert ok, s


# ------------------------------------------------------------- criterion 8

def test_c8_oracle_equivalence():
    from test_oracle_random_sets import CASES, oracle_extendible
    disagreements = 0
    for ps in CASES:
        got = verify_upb(ps, method="exact").status == "Extendible"
        if got != oracle_extendible(ps):
            disagreements += 1
    ok = disagreements == 0 and len(CASES) == 200
    report(8, f"oracle agreement on {len(CASES)} random sets", ok)
    assert ok, disagreements


# ------------------------------------------------------------- criterion 9

def test_c9_property_suites():
    rng = np.random.default_rng(99)
    # complement involution
    for _ in range(20):
        n = int(rng.integers(1, 10))
        edges = [e for e in itertools.combinations(range(n), 2)
                 if rng.random() < 0.5]
        g = graph(n, edges)
        assert complement(complement(g)).edges == g.edges
    # Gram-moduli KCBS == Pyramid under relabeling
    k = np.array(kcbs().vectors)
    p = np.array(pyramid().vectors)
    perm = [(2 * j) % 5 for j in range(5)]
    assert np.max(np.abs(np.abs(k.conj() @ k.T)
                         - np.abs(p.conj() @ p.T)[np.ix_(perm, perm)])) <= 1e-9
    # strength unitary invariance
    vecs = one_param_family(0.8).vectors
    base = strength(vecs).value
    for _ in range(5):
        g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        q, r = np.linalg.qr(g)
        u = q * (np.diag(r) / np.abs(np.diag(r)))
        assert abs(strength([u @ v for v in vecs]).value - base) <= 1e-9
    # partial transpose involution
    g = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    rho = g @ g.conj().T
    assert np.array_equal(
        partial_transpose(partial_transpose(rho, (3, 3), 1), (3, 3), 1), rho)
    # LEE monotone in restarts
    ps = assemble_mapped(pyramid(), (1, 2))
    rho = bound_entangled_state(ps, verify_upb(ps, method="exact")).matrix
    v1 = lee_upper_bound(rho, (3, 3), restarts=1, seed=21).value
    v2 = lee_upper_bound(rho, (3, 3), restarts=2, seed=21).value
    ok = v2 <= v1 + 1e-12
    report(9, "property suites", ok)
    assert ok
