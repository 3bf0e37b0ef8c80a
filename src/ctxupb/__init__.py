"""Contextual vector families, unextendible product bases, and bound
entanglement toolkit."""

from .linalg import (Tolerances, DEFAULT_TOL, kron, hermitian_eig,
                     partial_trace, partial_transpose)
from .graphs import (Graph, EdgeColoredGraph, GaloisField, graph, cycle,
                     complement, is_cycle, independence_number,
                     max_independent_set, quadratic_residues, galois_field,
                     paley, colored_equivalence, edge_colored_graph)
from .families import (VectorFamily, one_param_family, pyramid, kcbs,
                       genpyramid_local, gen_kcbs, loor_cycle_complement,
                       quadres_local, orthogonality_graph, verify_loor)
from .upb import (ProductSet, UpbVerdict, DensityMatrix, product_set,
                  assemble_mapped, one_param_upb, gencontextual_upb,
                  quadres_upb, party_graphs, verify_upb, is_minimal,
                  bound_entangled_state, min_pt_eigenvalue,
                  upb_graph_equivalent)
from .contextuality import (StrengthReport, ThetaValue, strength, theta_cycle,
                            theta_cycle_complement, theta_paley, is_qcg,
                            table2)
from .entanglement import (Decomposition, LeeResult, linear_entropy,
                           pure_lee_term, decomposition_value,
                           lee_upper_bound, table1)

__version__ = "0.1.0"
