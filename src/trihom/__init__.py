"""Exact trivalent graph homology and surgery planning."""

from .errors import (
    BadEnvironment,
    DimensionTooSmall,
    LoopEdge,
    MalformedPairing,
    NoSolution,
    NotConnected,
    NotTrivalent,
    ResourceLimit,
    TrihomError,
    UnknownClass,
    WrongSize,
)
from .exactla import SparseIntMatrix, kernel, modular_rank, rank, solve_combinations
from .homology import (
    ClassBasis,
    DimensionReport,
    certify,
    class_basis,
    dimension,
    express,
    ihx_expand,
    relation_matrix,
)
from .multigraph import (
    DartGraph,
    TadpolePolicy,
    automorphisms,
    canonical_form,
    enumerate_trivalent,
    from_pairing,
)
from .orientation import ClassStatus, Convention, GraphClass, OrientedLabelling
from .surgery import SurgeryPlan, VertexType, assign_vertex_types, plan, y_link_report

__version__ = "0.1.0"

__all__ = [
    "BadEnvironment",
    "ClassBasis",
    "ClassStatus",
    "Convention",
    "DartGraph",
    "DimensionReport",
    "DimensionTooSmall",
    "GraphClass",
    "LoopEdge",
    "MalformedPairing",
    "NoSolution",
    "NotConnected",
    "NotTrivalent",
    "OrientedLabelling",
    "ResourceLimit",
    "SparseIntMatrix",
    "SurgeryPlan",
    "TadpolePolicy",
    "TrihomError",
    "UnknownClass",
    "VertexType",
    "WrongSize",
    "assign_vertex_types",
    "automorphisms",
    "canonical_form",
    "certify",
    "class_basis",
    "dimension",
    "enumerate_trivalent",
    "express",
    "from_pairing",
    "ihx_expand",
    "kernel",
    "modular_rank",
    "plan",
    "rank",
    "relation_matrix",
    "solve_combinations",
    "y_link_report",
]
