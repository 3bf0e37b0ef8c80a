"""Command-line surface.

Every command emits a single JSON object (default), CSV where a tabular
layout exists, or a human-readable rendering with --format pretty. Domain
errors exit 1 with a machine-readable error object; usage errors exit 2.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import contextuality, entanglement, families, graphs, jsonio, upb
from .errors import DomainError
from .expr import ExprError, parse_angle
from .linalg import Tolerances, hermitian_eig, partial_transpose

FAMILY_NAMES = ("one-param", "pyramid", "kcbs", "tiles-rep", "genpyramid",
                "genkcbs", "loor-complement", "quadres")
UPB_NAMES = ("one-param", "pyramid", "kcbs", "tiles-rep", "genpyramid",
             "quadres", "gencontextual")


class UsageError(Exception):
    pass


def _angle(text: str) -> float:
    try:
        return parse_angle(text)
    except ExprError as e:
        raise UsageError(f"bad angle expression: {e}")


def build_family(name: str, theta=None, n=None, m=None, t=None, p=None):
    if name == "one-param":
        if theta is None:
            raise UsageError("one-param needs --theta")
        return families.one_param_family(_angle(theta))
    if name == "tiles-rep":
        return families.one_param_family(3 * math.pi / 4)
    if name == "pyramid":
        return families.pyramid()
    if name == "kcbs":
        return families.kcbs()
    if name == "genpyramid":
        if m is None or t is None:
            raise UsageError("genpyramid needs --m and --t")
        return families.genpyramid_local(m, t)
    if name == "genkcbs":
        if n is None:
            raise UsageError("genkcbs needs --n")
        return families.gen_kcbs(n)
    if name == "loor-complement":
        if n is None:
            raise UsageError("loor-complement needs --n")
        return families.loor_cycle_complement(n)
    if name == "quadres":
        if p is None:
            raise UsageError("quadres needs --p")
        return families.quadres_local(p)
    raise UsageError(f"unknown family {name!r}; choose from {FAMILY_NAMES}")


def build_upb(name: str, theta=None, n=None, m=None, t=None, p=None):
    if name == "pyramid":
        return upb.assemble_mapped(families.pyramid(), (1, 2))
    if name == "kcbs":
        return upb.assemble_mapped(families.kcbs(), (1, 2))
    if name == "tiles-rep":
        return upb.one_param_upb(3 * math.pi / 4)
    if name == "one-param":
        if theta is None:
            raise UsageError("one-param needs --theta")
        return upb.one_param_upb(_angle(theta))
    if name == "genpyramid":
        if m is None or t is None:
            raise UsageError("genpyramid needs --m and --t")
        fam = families.genpyramid_local(m, t)
        return upb.assemble_mapped(fam, tuple(range(1, m + 1)))
    if name == "quadres":
        if p is None:
            raise UsageError("quadres needs --p")
        return upb.quadres_upb(p)
    if name == "gencontextual":
        if n is None:
            raise UsageError("gencontextual needs --n")
        return upb.gencontextual_upb(n)
    raise UsageError(f"unknown UPB {name!r}; choose from {UPB_NAMES}")


def _read_input(path: str, from_json):
    """Object decoded by from_json from a JSON input file; a file that cannot
    be read, is not JSON or lacks the expected fields is a usage error."""
    try:
        with open(path) as fh:
            doc = jsonio.loads(fh.read())
    except OSError as e:
        raise UsageError(f"cannot read {path}: {e.strerror}") from None
    except ValueError as e:
        raise UsageError(f"{path} is not valid JSON: {e}") from None
    try:
        return from_json(doc)
    except (KeyError, TypeError, ValueError) as e:
        raise UsageError(f"{path} does not hold the expected object: "
                         f"{e!r}") from None


def _token_int(name: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise UsageError(f"{name} token parameter {text!r} is not an "
                         "integer") from None


def _upb_from_token(token: str):
    """name[:params] or a JSON file path; used by equiv."""
    import os
    if os.path.exists(token) or token.endswith(".json"):
        return _read_input(token, upb.ProductSet.from_json)
    name, _, params = token.partition(":")
    args = [x for x in params.split(",") if x] if params else []
    kw = {}
    if name in ("one-param",):
        kw["theta"] = args[0] if args else None
    elif name == "genpyramid":
        if len(args) != 2:
            raise UsageError("genpyramid token needs m,t (e.g. genpyramid:4,3)")
        kw["m"], kw["t"] = (_token_int(name, x) for x in args)
    elif name == "quadres":
        kw["p"] = _token_int(name, args[0]) if args else None
    elif name == "gencontextual":
        kw["n"] = _token_int(name, args[0]) if args else None
    elif args:
        raise UsageError(f"{name} takes no token parameters")
    return build_upb(name, **kw)


def _family_from_args(a):
    if a.infile:
        return _read_input(a.infile, families.VectorFamily.from_json)
    if not a.name:
        raise UsageError("give a family name or --in FILE")
    return build_family(a.name, a.theta, a.n, a.m, a.t, a.p)


def _upb_from_args(a):
    if a.infile:
        return _read_input(a.infile, upb.ProductSet.from_json)
    if not a.name:
        raise UsageError("give a UPB name or --in FILE")
    return build_upb(a.name, a.theta, a.n, a.m, a.t, a.p)


def _tolerances(a) -> Tolerances:
    if a.tol is None:
        return Tolerances()
    if not a.tol > 0:
        raise UsageError("--tol must be positive")
    return Tolerances(orth_tol=a.tol, rank_tol=a.tol, psd_tol=a.tol)


# ---------------------------------------------------------------- commands

def cmd_family(a):
    fam = _family_from_args(a)
    return fam.to_json(), ("family", fam)


def cmd_graph(a):
    fam = _family_from_args(a)
    g = families.orthogonality_graph(fam.vectors, _tolerances(a))
    return g.to_json(), ("graph", g)


def cmd_verify(a):
    ps = _upb_from_args(a)
    verdict = upb.verify_upb(ps, _tolerances(a), a.method)
    out = verdict.to_json()
    out["minimal"] = upb.is_minimal(ps)
    out["colored_graph"] = verdict.colored_graph.to_json()
    return out, ("verdict", verdict)


def cmd_strength(a):
    fam = _family_from_args(a)
    rep = contextuality.strength(fam.vectors, fam.label)
    return rep.to_json(), ("strength", rep)


def cmd_theta(a):
    if a.family == "cycle":
        tv = contextuality.theta_cycle(_require(a.n, "--n"))
    elif a.family == "cycle-complement":
        tv = contextuality.theta_cycle_complement(_require(a.n, "--n"))
    else:
        tv = contextuality.theta_paley(_require(a.q, "--q"))
    return tv.to_json(), ("theta", tv)


def _require(v, flag):
    if v is None:
        raise UsageError(f"missing {flag}")
    return v


def _graph_from_args(a):
    if a.infile:
        return _read_input(a.infile, graphs.Graph.from_json)
    if a.family == "cycle":
        return graphs.cycle(_require(a.n, "--n"))
    if a.family == "paley":
        return graphs.paley(_require(a.q, "--q"))
    raise UsageError("give --in FILE or a graph family (cycle --n, paley --q)")


def cmd_alpha(a):
    g = _graph_from_args(a)
    size, witness = graphs.max_independent_set(g)
    out = {"n": g.n, "alpha": size, "witness": list(witness)}
    return out, ("alpha", out)


def cmd_bes(a):
    tol = _tolerances(a)
    ps = _upb_from_args(a)
    verdict = upb.verify_upb(ps, tol, a.method)
    rho = upb.bound_entangled_state(ps, verdict)
    if len(rho.party_dims) != 2:
        raise UsageError("bes needs a bipartite UPB")
    pt = partial_transpose(rho.matrix, rho.party_dims, 1)
    min_pt = float(hermitian_eig(pt)[0][0])
    overlaps = np.abs(np.einsum('kd,de,ke->k', ps.full_vectors().conj(),
                                rho.matrix, ps.full_vectors()).real)
    out = {
        "status": verdict.status,
        "party_dims": list(rho.party_dims),
        "rank": rho.rank(tol),
        "trace": float(np.trace(rho.matrix).real),
        "min_pt_eigenvalue": min_pt,
        "ppt": min_pt >= -tol.psd_tol,
        "max_member_overlap": float(np.max(overlaps)),
        "matrix": rho.to_json()["matrix"],
    }
    return out, ("bes", out)


def _require_search_args(a):
    if a.restarts < 1:
        raise UsageError("--restarts must be at least 1")
    if a.seed < 0:
        raise UsageError("--seed must be non-negative")


def cmd_lee(a):
    _require_search_args(a)
    tol = _tolerances(a)
    ps = _upb_from_args(a)
    verdict = upb.verify_upb(ps, tol, a.method)
    rho = upb.bound_entangled_state(ps, verdict)
    if len(rho.party_dims) != 2:
        raise UsageError("lee needs a bipartite UPB")
    res = entanglement.lee_upper_bound(rho.matrix, rho.party_dims, L=a.L,
                                       restarts=a.restarts, seed=a.seed)
    return res.to_json(), ("lee", res)


def cmd_equiv(a):
    ps_a = _upb_from_token(a.first)
    ps_b = _upb_from_token(a.second)
    perm = upb.upb_graph_equivalent(ps_a, ps_b, _tolerances(a))
    out = {"equivalent": perm is not None,
           "permutation": list(perm) if perm is not None else None}
    return out, ("equiv", out)


def cmd_table1(a):
    _require_search_args(a)
    res = entanglement.table1(seed=a.seed, restarts=a.restarts,
                              L=16 if a.L is None else a.L)
    return res, ("table1", res)


def cmd_table2(a):
    rows = contextuality.table2()
    return {"rows": rows}, ("table2", rows)


# ---------------------------------------------------------------- rendering

def _to_csv(kind, payload) -> str:
    lines = []
    if kind == "family":
        fam = payload
        dim = fam.dim
        header = ",".join(f"re{i},im{i}" for i in range(dim))
        lines.append(header)
        for v in fam.vectors:
            cells = []
            for z in v:
                cells.append(jsonio.format_float(float(z.real)))
                cells.append(jsonio.format_float(float(z.imag)))
            lines.append(",".join(cells))
    elif kind == "graph":
        lines.append("i,j")
        for (i, j) in payload.sorted_edges():
            lines.append(f"{i},{j}")
    elif kind == "table2":
        lines.append("q,theta,alpha,ratio")
        for row in payload:
            lines.append(",".join([str(row["q"]),
                                   jsonio.format_float(row["theta"]),
                                   str(row["alpha"]),
                                   jsonio.format_float(row["ratio"])]))
    elif kind == "table1":
        cols = ["theta", "upb_type", "strength", "strength_ref",
                "strength_dev", "lee", "lee_ref", "lee_dev"]
        lines.append(",".join(cols))
        for row in payload["rows"]:
            cells = []
            for c in cols:
                v = row[c]
                cells.append(jsonio.format_float(v) if isinstance(v, float)
                             else str(v))
            lines.append(",".join(cells))
    else:
        raise UsageError("csv output is not defined for this command")
    return "\n".join(lines) + "\n"


def _to_pretty(doc) -> str:
    lines = []

    def walk(obj, indent):
        pad = "  " * indent
        if isinstance(obj, dict):
            for k, v in obj.items():
                if isinstance(v, (dict, list)) and v and not _is_flat(v):
                    lines.append(f"{pad}{k}:")
                    walk(v, indent + 1)
                else:
                    lines.append(f"{pad}{k}: {_flat(v)}")
        elif isinstance(obj, list):
            for v in obj:
                if isinstance(v, (dict, list)) and v and not _is_flat(v):
                    lines.append(f"{pad}-")
                    walk(v, indent + 1)
                else:
                    lines.append(f"{pad}- {_flat(v)}")
        else:
            lines.append(f"{pad}{_flat(obj)}")

    def _is_flat(v):
        if isinstance(v, list):
            return all(not isinstance(x, (dict, list)) for x in v) and len(v) <= 8
        return False

    def _flat(v):
        if isinstance(v, float):
            return jsonio.format_float(v)
        if isinstance(v, list):
            return "[" + ", ".join(_flat(x) for x in v) + "]"
        return str(v)

    walk(doc, 0)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------- parser

def _add_common(sp, io=True, seeds=False, method=False):
    if io:
        sp.add_argument("--format", choices=("json", "csv", "pretty"),
                        default="json")
        sp.add_argument("--out", default=None)
        sp.add_argument("--tol", type=float, default=None)
    if seeds:
        sp.add_argument("--seed", type=int, default=7)
        sp.add_argument("--restarts", type=int, default=64)
        sp.add_argument("--L", type=int, default=None)
    if method:
        sp.add_argument("--method", choices=upb.METHODS, default="auto")


def _add_target(sp, names):
    sp.add_argument("name", nargs="?", choices=names, default=None)
    sp.add_argument("--in", dest="infile", default=None)
    sp.add_argument("--theta", default=None)
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--m", type=int, default=None)
    sp.add_argument("--t", type=int, default=None)
    sp.add_argument("--p", type=int, default=None)


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="ctxupb",
                                 description="contextual vector families, "
                                             "UPB verification, and bound "
                                             "entanglement analysis")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("family", help="emit a built-in vector family")
    _add_target(sp, FAMILY_NAMES)
    _add_common(sp)
    sp.set_defaults(fn=cmd_family)

    sp = sub.add_parser("graph", help="orthogonality graph of a family")
    _add_target(sp, FAMILY_NAMES)
    _add_common(sp)
    sp.set_defaults(fn=cmd_graph)

    sp = sub.add_parser("verify-upb", help="verify (un)extendibility")
    _add_target(sp, UPB_NAMES)
    _add_common(sp, method=True)
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("strength", help="contextual strength of a family")
    _add_target(sp, FAMILY_NAMES)
    _add_common(sp)
    sp.set_defaults(fn=cmd_strength)

    sp = sub.add_parser("theta", help="closed-form Lovasz number")
    sp.add_argument("family", choices=("cycle", "cycle-complement", "paley"))
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--q", type=int, default=None)
    _add_common(sp)
    sp.set_defaults(fn=cmd_theta)

    sp = sub.add_parser("alpha", help="exact independence number")
    sp.add_argument("family", nargs="?", choices=("cycle", "paley"),
                    default=None)
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--q", type=int, default=None)
    sp.add_argument("--in", dest="infile", default=None)
    _add_common(sp)
    sp.set_defaults(fn=cmd_alpha)

    sp = sub.add_parser("bes", help="bound entangled state of a UPB")
    _add_target(sp, UPB_NAMES)
    _add_common(sp, method=True)
    sp.set_defaults(fn=cmd_bes)

    sp = sub.add_parser("lee", help="linear entropy of entanglement bound")
    _add_target(sp, UPB_NAMES)
    _add_common(sp, seeds=True, method=True)
    sp.set_defaults(fn=cmd_lee)

    sp = sub.add_parser("equiv", help="UPB graph equivalence")
    sp.add_argument("first")
    sp.add_argument("second")
    _add_common(sp)
    sp.set_defaults(fn=cmd_equiv)

    sp = sub.add_parser("table1", help="strength and LEE for five angles")
    _add_common(sp, seeds=True)
    sp.set_defaults(fn=cmd_table1)

    sp = sub.add_parser("table2", help="Paley graph theta and alpha table")
    _add_common(sp)
    sp.set_defaults(fn=cmd_table2)

    return ap


def _config_echo(a) -> dict:
    cfg = {}
    for key in ("name", "infile", "theta", "n", "m", "t", "p", "q",
                "method", "seed", "restarts", "L", "tol", "format",
                "first", "second", "family"):
        if hasattr(a, key) and getattr(a, key) is not None:
            cfg[key] = getattr(a, key)
    return cfg


def run(argv) -> int:
    ap = make_parser()
    a = ap.parse_args(argv)
    try:
        result, (kind, payload) = a.fn(a)
        if a.format == "json":
            doc = {"command": a.command, "config": _config_echo(a),
                   "result": result}
            text = jsonio.dumps(doc) + "\n"
        elif a.format == "csv":
            text = _to_csv(kind, payload)
        else:
            text = _to_pretty({"command": a.command, "result": result})
        if a.out:
            with open(a.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return 0
    except UsageError as e:
        sys.stderr.write(f"usage error: {e}\n")
        return 2
    except DomainError as e:
        doc = {"error": e.name, "message": str(e), "details": e.details}
        sys.stdout.write(jsonio.dumps(doc) + "\n")
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
