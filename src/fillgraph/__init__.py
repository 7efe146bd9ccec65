"""Filling systems on closed orientable surfaces as decorated fat graphs."""

from .core import (
    BoundaryCycle,
    DegreeError,
    DisconnectedError,
    FatGraph,
    FatGraphError,
    InvariantError,
    MalformedGraphError,
    NotDecoratedError,
    StandardCycle,
    SurfaceSignature,
)
from .ops import (
    OperationError,
    OperationInvariantError,
    OperationReport,
    connected_sum,
    join,
    plumbing,
)
from .analysis import (
    WeightedIntersectionGraph,
    check_euler_identity,
    check_kn_bound,
    check_max_weight_bound,
    intersection_graph,
)
from .synthesis import (
    ImpossibleSignatureError,
    SynthesisPlan,
    SynthesisRangeError,
    TargetSignature,
    filling,
    max_filling,
    minimal_filling,
    search_filling,
    tight_omega_filling,
)
from . import families, formats, oracle

__version__ = "0.1.0"

__all__ = [
    "BoundaryCycle", "DegreeError", "DisconnectedError", "FatGraph",
    "FatGraphError", "InvariantError", "MalformedGraphError",
    "NotDecoratedError",
    "StandardCycle", "SurfaceSignature",
    "OperationError", "OperationInvariantError", "OperationReport",
    "connected_sum", "join", "plumbing",
    "WeightedIntersectionGraph", "check_euler_identity", "check_kn_bound",
    "check_max_weight_bound", "intersection_graph",
    "ImpossibleSignatureError", "SynthesisPlan", "SynthesisRangeError",
    "TargetSignature", "filling", "max_filling", "minimal_filling",
    "search_filling", "tight_omega_filling",
    "families", "formats", "oracle",
]
