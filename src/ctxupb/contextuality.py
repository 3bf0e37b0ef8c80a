"""Contextual strength, closed-form Lovasz numbers for the in-scope graph
families, the quantum-contextual-graph predicate, and the Paley-graph table.

No general-purpose Lovasz SDP: a theta value is only ever emitted for the
families where a closed form is available (odd cycles, their complements,
and Paley graphs); everything else gets a strength-based lower bound and an
honest Unknown verdict.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import BadOrder, DimensionMismatch
from .families import theta_cycle_value, theta_cycle_complement_value
from .graphs import (Graph, complement, galois_field,
                     independence_number, is_cycle, paley_independent_set,
                     paley_relabeling)
from .linalg import as_vector, hermitian_eig
from .record import Record

TABLE2_ORDERS = (5, 9, 13, 17, 25, 29)


class StrengthReport(Record):
    value: float
    handle: np.ndarray
    label: str

    def to_json(self) -> dict:
        return {
            "label": self.label,
            "value": self.value,
            "handle": [[float(z.real), float(z.imag)] for z in self.handle],
        }


class ThetaValue(Record):
    family: str     # cycle | cycle-complement | paley
    parameter: int
    value: float

    def to_json(self) -> dict:
        return {"family": self.family, "parameter": self.parameter,
                "value": self.value}


def _fix_phase(v: np.ndarray) -> np.ndarray:
    idx = int(np.argmax(np.abs(v)))
    ph = v[idx]
    if abs(ph) == 0:
        return v
    return v * (ph.conjugate() / abs(ph))


def strength(vectors, label: str = "") -> StrengthReport:
    """Largest eigenvalue of the projector sum, with the optimal handle.

    The maximum of sum_i |<psi|v_i>|^2 over unit psi is exactly the top
    eigenvalue of sum_i |v_i><v_i|; the handle phase is fixed by making its
    largest coordinate real positive.
    """
    vecs = [as_vector(v) for v in vectors]
    if not vecs:
        raise DimensionMismatch("empty vector list")
    d = vecs[0].shape[0]
    if any(v.shape[0] != d for v in vecs):
        raise DimensionMismatch("vectors differ in dimension")
    m = np.array(vecs)
    proj_sum = m.T @ m.conj()
    w, v = hermitian_eig(proj_sum)
    return StrengthReport(float(w[-1]), _fix_phase(v[:, -1]), label)


def theta_cycle(n: int) -> ThetaValue:
    if n < 3 or n % 2 == 0:
        raise BadOrder("need odd n >= 3", n=n)
    return ThetaValue("cycle", n, theta_cycle_value(n))


def theta_cycle_complement(n: int) -> ThetaValue:
    if n < 5 or n % 2 == 0:
        raise BadOrder("need odd n >= 5", n=n)
    return ThetaValue("cycle-complement", n, theta_cycle_complement_value(n))


def theta_paley(q: int) -> ThetaValue:
    """sqrt(q): Paley graphs are vertex-transitive and self-complementary, so
    theta(G) * theta(G-complement) = q collapses to theta = sqrt(q)."""
    if q % 4 != 1:
        raise BadOrder("Paley graph needs q = 1 mod 4", q=q)
    galois_field(q)  # validates q = p or p^2
    return ThetaValue("paley", q, math.sqrt(q))


QCG = "QCG"
NOT_QCG = "NotQCG"
UNKNOWN = "Unknown"


def _closed_form(g: Graph):
    """(theta, alpha) for the families with a closed-form theta, else None:
    an odd cycle (alpha = (n - 1) / 2), its complement (alpha = 2), and a
    Paley graph under any labels (alpha from paley_independent_set, which
    searches (n - 5) / 4 vertices, not n)."""
    if is_cycle(g) and g.n % 2 == 1:
        return (theta_cycle_value(g.n) if g.n >= 5 else 1.0), g.n // 2
    if g.n >= 5 and g.n % 2 == 1 and is_cycle(complement(g)):
        return theta_cycle_complement_value(g.n), 2
    if g.n % 4 == 1:
        try:
            if paley_relabeling(g) is not None:
                return math.sqrt(g.n), paley_independent_set(g.n)[0]
        except BadOrder:
            pass
    return None


def is_qcg(g: Graph, realized_strength: float | None = None) -> str:
    """Compare theta (closed form when available, else the supplied strength
    lower bound) against the exact independence number."""
    known = _closed_form(g)
    if known is not None:
        theta, alpha = known
        return QCG if theta > alpha + 1e-12 else NOT_QCG
    alpha = independence_number(g)
    if realized_strength is not None and realized_strength > alpha + 1e-9:
        return QCG
    return UNKNOWN


def table2() -> list[dict]:
    """Lovasz and independence numbers of the six in-scope Paley graphs."""
    rows = []
    for q in TABLE2_ORDERS:
        th = theta_paley(q).value
        alpha = paley_independent_set(q)[0]
        rows.append({"q": q, "theta": th, "alpha": alpha,
                     "ratio": th / alpha})
    return rows
