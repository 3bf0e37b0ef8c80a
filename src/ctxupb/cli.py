"""Command-line surface, driven by two tables.

TARGETS maps each named construction to its parameters and to its family
and UPB builders; build_family, build_upb, the name/--in arguments and the
equiv name:p1,p2 tokens all resolve through it. COMMANDS gives each
subcommand its handler, help and arguments. A handler returns its JSON
result, with float arrays as numpy arrays; run() emits it as one JSON
object (default), as CSV where CSV_LAYOUTS has a layout, or rendered with
--format pretty. Domain errors, and arrays too large to allocate, exit 1
with a machine-readable error object; usage errors, a bad --tol among
them, exit 2.

run() parses a call that starts with a command by a parser for that
command alone; make_parser(), one subparser per command, parses the rest
(no command, -h, an unknown command, "--", leftover arguments), so help
and error text are the full parser's.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import contextuality, entanglement, families, graphs, jsonio, upb
from .errors import DomainError
from .expr import ExprError, parse_angle
from .linalg import Tolerances

# name: (parameters, family builder, UPB builder), None where the name is
# not a family or not a UPB. The builders look the layer functions up when
# called, so a wrapper bound in their place (bench/tracer.py) sees the call.
TARGETS = {
    "one-param": (("theta",), lambda th: families.one_param_family(th),
                  lambda th: upb.one_param_upb(th)),
    "pyramid": ((), lambda: families.pyramid(),
                lambda: upb.assemble_mapped(families.pyramid(), (1, 2))),
    "kcbs": ((), lambda: families.kcbs(),
             lambda: upb.assemble_mapped(families.kcbs(), (1, 2))),
    "tiles-rep": ((), lambda: families.one_param_family(3 * math.pi / 4),
                  lambda: upb.one_param_upb(3 * math.pi / 4)),
    "genpyramid": (("m", "t"), lambda m, t: families.genpyramid_local(m, t),
                   lambda m, t: upb.assemble_mapped(
                       families.genpyramid_local(m, t),
                       tuple(range(1, m + 1)))),
    "genkcbs": (("n",), lambda n: families.gen_kcbs(n), None),
    "loor-complement": (("n",), lambda n: families.loor_cycle_complement(n),
                        None),
    "quadres": (("p",), lambda p: families.quadres_local(p),
                lambda p: upb.quadres_upb(p)),
    "gencontextual": (("n",), None, lambda n: upb.gencontextual_upb(n)),
}
PARAMS = ("theta", "n", "m", "t", "p")   # every TARGETS parameter
FAMILY, UPB = 1, 2   # positions of the builders in a TARGETS entry
FAMILY_NAMES = tuple(k for k, v in TARGETS.items() if v[FAMILY])
UPB_NAMES = tuple(k for k, v in TARGETS.items() if v[UPB])
_KINDS = {FAMILY: ("family", FAMILY_NAMES, families.VectorFamily.from_json),
          UPB: ("UPB", UPB_NAMES, upb.ProductSet.from_json)}


class UsageError(Exception):
    pass


def _value(name: str, key: str, value):
    """Parameter key of target name: theta is an angle expression, the rest
    ints, given as flags or as equiv token text."""
    if key == "theta":
        try:
            return parse_angle(value)
        except ExprError as e:
            raise UsageError(f"bad angle expression: {e}")
    if isinstance(value, int):
        return value
    try:
        return int(value)
    except ValueError:
        raise UsageError(f"{name} token parameter {value!r} is not an "
                         "integer") from None


def _build(kind: int, name: str, values):
    """The family (kind FAMILY) or product set (kind UPB) that name denotes.
    values maps parameter names to flag values, or is the list of texts of
    an equiv token name:p1,p2,..."""
    entry = TARGETS.get(name, ((), None, None))
    params, builder = entry[0], entry[kind]
    label, names, _ = _KINDS[kind]
    if builder is None:
        raise UsageError(f"unknown {label} {name!r}; choose from {names}")
    if isinstance(values, list):
        if values and len(values) != len(params):
            form = ":".join([name, ",".join(params)]) if params else name
            raise UsageError(f"{name} token must be written {form}")
        values = dict(zip(params, values))
    if any(values.get(k) is None for k in params):
        raise UsageError(f"{name} needs "
                         + " and ".join(f"--{k}" for k in params))
    return builder(*(_value(name, k, values[k]) for k in params))


def build_family(name: str, **params):
    return _build(FAMILY, name, params)


def build_upb(name: str, **params):
    return _build(UPB, name, params)


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
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise UsageError(f"{path} does not hold the expected object: "
                         f"{e!r}") from None


def _from_token(token: str):
    """A product set from a JSON file path or a name[:params] token."""
    if os.path.exists(token) or token.endswith(".json"):
        return _read_input(token, upb.ProductSet.from_json)
    name, _, params = token.partition(":")
    return _build(UPB, name, [x for x in params.split(",") if x])


def _from_args(a, kind: int):
    """The family or product set named by a.name or read from a.infile; a
    name with --in, or a parameter flag the source does not take, is a
    usage error."""
    label, _, from_json = _KINDS[kind]
    flags = [f"--{k}" for k in PARAMS if getattr(a, k) is not None]
    if a.infile:
        if a.name:
            raise UsageError(f"give a {label} name or --in FILE, not both")
        if flags:
            raise UsageError(f"--in takes no {', '.join(flags)}")
        return _read_input(a.infile, from_json)
    if not a.name:
        raise UsageError(f"give a {label} name or --in FILE")
    surplus = [f for f in flags if f[2:] not in TARGETS[a.name][0]]
    if surplus:
        raise UsageError(f"{a.name} takes no {', '.join(surplus)}")
    return _build(kind, a.name, vars(a))


def _tolerances(a) -> Tolerances:
    try:
        return Tolerances() if a.tol is None else Tolerances(a.tol)
    except ValueError:
        raise UsageError("--tol must be positive and finite") from None


# ---------------------------------------------------------------- commands

def cmd_family(a):
    return _from_args(a, FAMILY).to_json()


def cmd_graph(a):
    fam = _from_args(a, FAMILY)
    return families.orthogonality_graph(fam.vectors, _tolerances(a)).to_json()


def cmd_verify(a):
    ps = _from_args(a, UPB)
    verdict = upb.verify_upb(ps, _tolerances(a), a.method)
    out = verdict.to_json()
    out["minimal"] = upb.is_minimal(ps)
    out["colored_graph"] = verdict.colored_graph.to_json()
    return out


def cmd_strength(a):
    fam = _from_args(a, FAMILY)
    return contextuality.strength(fam.vectors, fam.label).to_json()


def _graph_param(a):
    """The --n (cycle, cycle-complement) or --q (paley) value that a.family
    takes; missing it, or giving the other flag, is a usage error."""
    key, other = ("q", "n") if a.family == "paley" else ("n", "q")
    if getattr(a, other) is not None:
        raise UsageError(f"{a.family} takes no --{other}")
    if getattr(a, key) is None:
        raise UsageError(f"missing --{key}")
    return getattr(a, key)


def cmd_theta(a):
    return {"cycle": contextuality.theta_cycle,
            "cycle-complement": contextuality.theta_cycle_complement,
            "paley": contextuality.theta_paley}[a.family](
                _graph_param(a)).to_json()


def _graph_from_args(a):
    if a.infile:
        given = [a.family] + [f"--{k}" for k in ("n", "q")
                              if getattr(a, k) is not None]
        if any(given):
            raise UsageError(f"--in takes no {', '.join(filter(None, given))}")
        return _read_input(a.infile, graphs.Graph.from_json)
    if a.family == "cycle":
        return graphs.cycle(_graph_param(a))
    if a.family == "paley":
        return graphs.paley(_graph_param(a))
    raise UsageError("give --in FILE or a graph family (cycle --n, paley --q)")


def cmd_alpha(a):
    g = _graph_from_args(a)
    size, witness = graphs.max_independent_set(g)
    return {"n": g.n, "alpha": size, "witness": list(witness)}


def _bipartite(a, ps):
    """ps, which bes and lee need bipartite."""
    if len(ps.party_dims) != 2:
        raise UsageError(f"{a.command} needs a bipartite UPB")
    return ps


def _bound_entangled(a, ps, tol):
    """The verdict on ps and its bound entangled state."""
    verdict = upb.verify_upb(ps, tol, a.method)
    return verdict, upb.bound_entangled_state(ps, verdict)


def cmd_bes(a):
    tol = _tolerances(a)
    ps = _from_args(a, UPB)
    verdict, rho = _bound_entangled(a, ps, tol)
    # checked after verifying: an extendible multipartite set exits NotUpb
    _bipartite(a, ps)
    min_pt = upb.min_pt_eigenvalue(rho)
    vs = ps.full_vectors()
    overlaps = np.abs(np.einsum('kd,de,ke->k', vs.conj(), rho.matrix, vs).real)
    return {
        "status": verdict.status,
        "party_dims": list(rho.party_dims),
        "rank": rho.rank(tol),
        "trace": float(np.trace(rho.matrix).real),
        "min_pt_eigenvalue": min_pt,
        "ppt": min_pt >= -tol.atol,
        "max_member_overlap": float(np.max(overlaps)),
        "matrix": np.stack([rho.matrix.real, rho.matrix.imag], axis=-1),
    }


def _require_search_args(a):
    if a.restarts < 1:
        raise UsageError("--restarts must be at least 1")
    if a.seed < 0:
        raise UsageError("--seed must be non-negative")


def cmd_lee(a):
    _require_search_args(a)
    ps = _bipartite(a, _from_args(a, UPB))
    rho = _bound_entangled(a, ps, _tolerances(a))[1]
    return entanglement.lee_upper_bound(rho.matrix, rho.party_dims, L=a.L,
                                        restarts=a.restarts,
                                        seed=a.seed).to_json()


def cmd_equiv(a):
    perm = upb.upb_graph_equivalent(_from_token(a.first),
                                    _from_token(a.second), _tolerances(a))
    return {"equivalent": perm is not None,
            "permutation": list(perm) if perm is not None else None}


def cmd_table1(a):
    _require_search_args(a)
    return entanglement.table1(seed=a.seed, restarts=a.restarts,
                               L=16 if a.L is None else a.L,
                               tol=_tolerances(a))


def cmd_table2(a):
    return {"rows": contextuality.table2()}


# ---------------------------------------------------------------- rendering

def _columns(*cols):
    return lambda res: (cols, [[row[c] for c in cols] for row in res["rows"]])


CSV_LAYOUTS = {   # command: result -> (header cells, rows of cells)
    "family": lambda res: ([f"re{i},im{i}" for i in range(res["dim"])],
                           [[x for z in v for x in z] for v in res["vectors"]]),
    "graph": lambda res: (("i", "j"), res["edges"]),
    "table1": _columns("theta", "upb_type", "strength", "strength_ref",
                       "strength_dev", "lee", "lee_ref", "lee_dev"),
    "table2": _columns("q", "theta", "alpha", "ratio"),
}


def _to_csv(command: str, result) -> str:
    header, rows = CSV_LAYOUTS[command](result)
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(jsonio.format_float(v) if isinstance(v, float)
                              else str(v) for v in row))
    return "\n".join(lines) + "\n"


def _to_pretty(doc) -> str:
    """One "key: value" or "- value" line per entry; a non-empty dict, or a
    list (an array as its nested lists) longer than 8 or holding
    containers, opens an indented block."""
    lines = []

    def flat(v):
        if isinstance(v, float):
            return jsonio.format_float(v)
        if isinstance(v, list):
            return "[" + ", ".join(flat(x) for x in v) + "]"
        return str(v)

    def walk(obj, pad):
        for label, v in (((f"{k}:", v) for k, v in obj.items())
                         if isinstance(obj, dict) else (("-", v) for v in obj)):
            if isinstance(v, np.ndarray):
                v = v.tolist()
            if isinstance(v, dict) and v or isinstance(v, list) and (
                    len(v) > 8 or any(isinstance(x, (dict, list)) for x in v)):
                lines.append(pad + label)
                walk(v, pad + "  ")
            else:
                lines.append(f"{pad}{label} {flat(v)}")

    walk(doc, "")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------- parser

_INT = {"type": int}
_IO = (("--format", {"choices": ("json", "csv", "pretty"), "default": "json"}),
       ("--out", {}), ("--tol", {"type": float}))
_SEARCH = (("--seed", {"type": int, "default": 7}),
           ("--restarts", {"type": int, "default": 64}), ("--L", _INT))
_METHOD = (("--method", {"choices": upb.METHODS, "default": "auto"}),)
_IN = (("--in", {"dest": "infile"}),)
_NQ = (("--n", _INT), ("--q", _INT))


def _named(names):
    """A target name from names, or --in FILE, with the table's parameters."""
    return ((("name", {"nargs": "?", "choices": names}),) + _IN
            + tuple((f"--{k}", {} if k == "theta" else _INT) for k in PARAMS))


COMMANDS = {   # command: (handler, help, arguments in parser order)
    "family": (cmd_family, "emit a built-in vector family",
               _named(FAMILY_NAMES) + _IO),
    "graph": (cmd_graph, "orthogonality graph of a family",
              _named(FAMILY_NAMES) + _IO),
    "verify-upb": (cmd_verify, "verify (un)extendibility",
                   _named(UPB_NAMES) + _IO + _METHOD),
    "strength": (cmd_strength, "contextual strength of a family",
                 _named(FAMILY_NAMES) + _IO),
    "theta": (cmd_theta, "closed-form Lovasz number",
              (("family", {"choices": ("cycle", "cycle-complement",
                                       "paley")}),) + _NQ + _IO),
    "alpha": (cmd_alpha, "exact independence number",
              (("family", {"nargs": "?", "choices": ("cycle", "paley")}),)
              + _NQ + _IN + _IO),
    "bes": (cmd_bes, "bound entangled state of a UPB",
            _named(UPB_NAMES) + _IO + _METHOD),
    "lee": (cmd_lee, "linear entropy of entanglement bound",
            _named(UPB_NAMES) + _IO + _SEARCH + _METHOD),
    "equiv": (cmd_equiv, "UPB graph equivalence",
              (("first", {}), ("second", {})) + _IO),
    "table1": (cmd_table1, "strength and LEE for five angles", _IO + _SEARCH),
    "table2": (cmd_table2, "Paley graph theta and alpha table", _IO),
}


def _with_arguments(parser, command: str):
    """parser given command's arguments from COMMANDS and its defaults."""
    fn, _, arguments = COMMANDS[command]
    for flag, kw in arguments:
        parser.add_argument(flag, **kw)
    parser.set_defaults(fn=fn, command=command)
    return parser


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="ctxupb",
                                 description="contextual vector families, "
                                             "UPB verification, and bound "
                                             "entanglement analysis")
    sub = ap.add_subparsers(dest="command", required=True)
    for command, (_, text, _) in COMMANDS.items():
        _with_arguments(sub.add_parser(command, help=text), command)
    return ap


def _parse(argv):
    """The namespace make_parser().parse_args(argv) gives. When argv starts
    with a command, only that command's parser is built; if it leaves
    arguments over, the full parser re-parses argv so that the error reads
    as its own. argv holding "--" goes to the full parser too, so that how
    argparse hands "--" on to a subparser never has to be matched."""
    if argv and argv[0] in COMMANDS and "--" not in argv:
        command = argv[0]
        ap = argparse.ArgumentParser(prog=f"ctxupb {command}")
        a, rest = _with_arguments(ap, command).parse_known_args(argv[1:])
        if not rest:
            return a
    return make_parser().parse_args(argv)


def _config_echo(a) -> dict:
    cfg = {}
    for key in ("name", "infile", *PARAMS, "q", "method", "seed",
                "restarts", "L", "tol", "format", "first", "second",
                "family"):
        if hasattr(a, key) and getattr(a, key) is not None:
            cfg[key] = getattr(a, key)
    return cfg


def run(argv) -> int:
    a = _parse(argv)
    try:
        if a.format == "csv" and a.command not in CSV_LAYOUTS:
            raise UsageError("csv output is not defined for this command")
        _tolerances(a)   # a bad --tol fails every command, not just its users
        result = a.fn(a)
        if a.format == "json":
            doc = {"command": a.command, "config": _config_echo(a),
                   "result": result}
            text = jsonio.dumps(doc) + "\n"
        elif a.format == "csv":
            text = _to_csv(a.command, result)
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
        return _error(e.name, str(e), e.details)
    except MemoryError as e:   # an array too large to allocate
        return _error("OutOfMemory", str(e) or "out of memory", {})


def _error(name: str, message: str, details: dict) -> int:
    doc = {"error": name, "message": message, "details": details}
    sys.stdout.write(jsonio.dumps(doc) + "\n")
    return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
