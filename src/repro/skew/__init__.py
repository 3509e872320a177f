"""Write-skew detection, analysis and read-promotion (section 5)."""

from repro.skew.graph import (
    SkewReport,
    SkewWitness,
    find_write_skews,
)
from repro.skew.serialization import (
    is_conflict_serializable,
    precedence_graph,
    si_violation,
)
from repro.skew.static import (
    Footprint,
    FootprintAnalyzer,
    SkewCandidate,
    StaticReport,
)
from repro.skew.tool import Scenario, ToolResult, WriteSkewTool

__all__ = [
    "Footprint",
    "FootprintAnalyzer",
    "SkewCandidate",
    "StaticReport",
    "Scenario",
    "SkewReport",
    "SkewWitness",
    "ToolResult",
    "WriteSkewTool",
    "find_write_skews",
    "is_conflict_serializable",
    "precedence_graph",
    "si_violation",
]
