"""cutplan: overhead-aware partitioning of quantum circuits for cutting.

Circuits become doubly-weighted graphs whose edge cuts are gate or wire cuts;
a two-stage constrained clustering picks cut locations minimizing the worst
per-partition sampling overhead, and a Monte-Carlo harness verifies the shot
budget that overhead implies.
"""

from .clustering import (AuditError, Cluster, Clustering, InfeasibleCapError,
                         PipelineResult, StageMetrics, run_pipeline,
                         step1_modularity)
from .graph import (CutGraph, CutKind, CutWeights, Edge, Node, WeightTable,
                    build_cut_graph, contract, to_dot, DEFAULT_WEIGHTS)
from .overhead import (OverheadReport, build_report, partition_budgets,
                       partition_shots, prior_bound)
from .qasm import (CircuitIR, DuplicateOperandError, GateApp, QasmError,
                   QasmSyntaxError, UndeclaredRegisterError,
                   UnsupportedGateError, parse_qasm, parse_qasm_file, to_qasm)

__version__ = "0.1.0"

__all__ = [
    "AuditError", "Cluster", "Clustering", "InfeasibleCapError",
    "PipelineResult", "StageMetrics", "run_pipeline", "step1_modularity",
    "CutGraph", "CutKind", "CutWeights", "Edge", "Node", "WeightTable",
    "build_cut_graph", "contract", "to_dot", "DEFAULT_WEIGHTS",
    "OverheadReport", "build_report", "partition_budgets", "partition_shots",
    "prior_bound",
    "CircuitIR", "DuplicateOperandError", "GateApp", "QasmError",
    "QasmSyntaxError", "UndeclaredRegisterError", "UnsupportedGateError",
    "parse_qasm", "parse_qasm_file", "to_qasm",
    "__version__",
]
