"""Exact-arithmetic MILP solving for small-treedepth constraint matrices."""

from .blocks import Block, BlockStructure, primal_decompose, structure_trace
from .fracbound import (FractionalityCertificate, StructuredInverseTrace, frac_bound,
                        structured_inverse)
from .families import (FamilySpec, MipDescriptor, VerificationReport, generate,
                       reduce_ilp_to_milp, verify_family)
from .fileformat import ParsedInstance, ParseError, parse_instance, serialize_instance
from .integralize import (FeasibilityError, MilpInstance, choose_scale,
                          integralize, pure_ilp, recover)
from .linalg import (DimensionError, LinalgError, Matrix, SingularMatrixError,
                     fractionality, mat_det, mat_inverse, mat_rank, parse_matrix,
                     rational)
from .simplex import SolveResult, SolveStats, SolverError, lp_solve_exact
from .solver import (PipelineOptions, PipelineReport, ilp_solve, milp_oracle,
                     milp_solve, vertex_enumerate)
from .structure import (CapExceededError, Graph, StructureError, TdDecomposition, TdStats,
                        connected_components, decomposition_for_matrix, dual_graph,
                        primal_graph, restrict_decomposition, td_compute, td_stats,
                        validate_td)

__all__ = [
    "Block", "BlockStructure", "CapExceededError", "DimensionError",
    "FamilySpec", "FeasibilityError", "FractionalityCertificate", "Graph",
    "LinalgError", "Matrix", "MilpInstance", "MipDescriptor",
    "ParseError", "ParsedInstance", "PipelineOptions", "PipelineReport",
    "SingularMatrixError", "SolveResult", "SolveStats", "SolverError", "StructureError",
    "StructuredInverseTrace", "TdDecomposition", "TdStats",
    "VerificationReport", "choose_scale", "connected_components",
    "decomposition_for_matrix", "dual_graph", "frac_bound",
    "fractionality", "generate",
    "ilp_solve", "integralize", "lp_solve_exact", "mat_det", "mat_inverse",
    "mat_rank", "milp_oracle", "milp_solve", "parse_instance", "parse_matrix",
    "primal_decompose", "primal_graph", "pure_ilp", "rational",
    "recover", "reduce_ilp_to_milp", "restrict_decomposition",
    "serialize_instance", "structure_trace", "structured_inverse",
    "td_compute", "td_stats", "validate_td", "vertex_enumerate",
    "verify_family",
]
