"""Exact enumeration of plane-curve invariants via labeled floor diagrams."""

from .core import DiagramError, FloorDiagram, Partition, diagram
from .enumeration import DiagramQuery, count_connected, count_filtered, enumerate_diagrams
from .invariants import gw, relative_gw, severi, welschinger
from .markings import count_markings, count_relative_markings
from .nodepoly import RatPolynomial, aj_polynomials, node_polynomial
from .sequences import (
    LabeledTree,
    closed_counts,
    diagram_to_tree,
    max_tangency_fixed,
    max_tangency_free,
    ode_residual,
    tree_to_diagram,
)
from .tropical import StretchedConfig, reconstruct, stretched_config, verify_curve

__all__ = [
    "DiagramError",
    "DiagramQuery",
    "FloorDiagram",
    "LabeledTree",
    "Partition",
    "RatPolynomial",
    "StretchedConfig",
    "aj_polynomials",
    "closed_counts",
    "count_connected",
    "count_filtered",
    "count_markings",
    "count_relative_markings",
    "diagram",
    "diagram_to_tree",
    "enumerate_diagrams",
    "gw",
    "max_tangency_fixed",
    "max_tangency_free",
    "node_polynomial",
    "ode_residual",
    "reconstruct",
    "relative_gw",
    "severi",
    "stretched_config",
    "tree_to_diagram",
    "verify_curve",
    "welschinger",
]
