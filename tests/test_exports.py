"""Export hygiene: what the packages export resolves, deleted API stays gone,
and the benchmark's view of the API keeps its names and signatures."""

import ast
import importlib
import inspect
import os

import pytest

import cutplan
import cutplan.cutsim
import cutplan.fixtures

PERFBENCH_RUN = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                             "perfbench", "run.py")

# (module, name) of API that had one caller or none outside the tests
DELETED = [
    ("cutplan.clustering", "ModularityState"),
    ("cutplan.clustering", "modularity_gain"),
    ("cutplan.clustering", "modularity"),
    ("cutplan.clustering", "qubit_feasible"),
    ("cutplan.clustering", "_gain"),
    ("cutplan.clustering", "step2_lq_min"),
    ("cutplan.clustering", "_step1_with_stats"),
    ("cutplan.clustering", "_step2_with_stats"),
    ("cutplan.overhead", "cluster_log_overhead"),
    ("cutplan.overhead", "max_log_overhead"),
    ("cutplan.overhead", "CutSummary"),
    ("cutplan.overhead", "cut_summary"),
    ("cutplan.overhead", "shot_budget"),
    ("cutplan.overhead", "_budget"),
    ("cutplan.cutsim.estimator", "_UnionFind"),
    ("cutplan.graph", "_make_edge"),
    ("cutplan.graph", "UnknownGateWeightError"),
    ("cutplan.overhead", "BENCH_CSV_HEADER"),
    ("cutplan.cutsim.decomp", "_zz_core_terms"),
    ("cutplan.clustering", "_cut_sums"),
    ("cutplan.clustering", "_worst_cluster"),
    ("cutplan.cutsim.decomp", "cx_decomposition"),
    ("cutplan.cutsim.decomp", "cz_decomposition"),
    ("cutplan.cutsim.decomp", "rzz_decomposition"),
    ("cutplan.cutsim.estimator", "_variant_generators"),
    ("cutplan.cutsim.estimator", "_sample_mean"),
    ("cutplan.cutsim.estimator", "_side_ops"),
    ("cutplan.cutsim.estimator", "_words"),
    ("cutplan.cutsim.estimator", "_hash_constants"),
    ("cutplan.cutsim.estimator", "_hashmix"),
    ("cutplan.cutsim.estimator", "_mix"),
    ("cutplan.cutsim.estimator", "_seed_words"),
    ("cutplan.cutsim.estimator", "_Words"),
    ("cutplan.cutsim.estimator", "_value_table"),
    ("cutplan.cutsim.estimator", "partition_variants"),
    ("cutplan.cutsim.estimator", "_leaf_arrays"),
    ("cutplan.cutsim.statevector", "apply_gate"),
    ("cutplan.overhead", "_check_integer"),
    ("cutplan.overhead", "_check_seed"),
    ("cutplan.overhead", "_check_r"),
    ("cutplan.overhead", "cubic_bound"),
]

# every name perfbench/run.py's import_cutplan binds, with its parameters
# (None: not a callable)
BENCHMARK_API = {
    "parse_qasm": ["text", "name"],
    "build_cut_graph": ["circuit"],
    "run_pipeline": ["graph", "max_qubits", "restarts", "seed", "audit"],
    "build_report": ["clustering", "graph", "eps"],
    "step1_modularity": ["graph", "max_qubits", "audit"],
    "contract": ["graph", "clustering"],
    "segment_flags": ["graph", "clustering"],
    "DEFAULT_WEIGHTS": None,
    "pauli_z_observable": ["qubits"],
    "ring_cuts": ["partitions"],
    "expectation_value": ["circuit", "obs"],
    "cut_estimate": ["circuit", "cuts", "obs", "eps", "seed"],
    "plan_partitions": ["circuit", "cuts", "obs"],
    "cut_specs": ["circuit", "cuts"],
    "allocate_shots": ["plans", "specs", "r", "eps"],
    "value_table": ["obs_factors", "num_qubits"],
    "variant_distribution": ["plan", "specs", "choice", "values"],
    "combine_means": ["plans", "specs", "means"],
}


@pytest.mark.parametrize("package", [cutplan, cutplan.cutsim])
def test_all_names_resolve(package):
    missing = [name for name in package.__all__ if not hasattr(package, name)]
    assert missing == []
    assert len(set(package.__all__)) == len(package.__all__)


@pytest.mark.parametrize("module, name", DELETED)
def test_deleted_names_are_gone(module, name):
    assert not hasattr(importlib.import_module(module), name)
    assert name not in cutplan.__all__
    assert not hasattr(cutplan, name)


def test_dead_helpers_are_gone():
    assert not hasattr(cutplan.Edge, "other")
    assert not hasattr(cutplan.CutGraph, "qubits")
    assert not hasattr(cutplan.Clustering, "singletons")
    assert not hasattr(cutplan.Node, "members")
    assert not hasattr(cutplan.Edge, "is_self_loop")
    assert not hasattr(cutplan.CutGraph, "total_w")
    assert not hasattr(cutplan.Clustering, "compacted")
    assert not hasattr(cutplan.CircuitIR, "two_qubit_gates")
    assert not hasattr(cutplan.OverheadReport, "csv_row")
    assert not hasattr(cutplan.qasm._Parser, "_next")
    assert "initial" not in inspect.signature(cutplan.cutsim.simulate_statevector).parameters
    assert "name" not in inspect.signature(cutplan.fixtures.ising_chain).parameters
    with pytest.raises(TypeError):
        cutplan.WeightTable(fallback=False)
    assert not hasattr(cutplan.cutsim.ProductObservable, "qubits")
    assert "qubit_map" not in inspect.signature(cutplan.cutsim.value_table).parameters
    assert not hasattr(cutplan.cutsim.ObsFactor, "from_function")
    assert not hasattr(cutplan.cutsim.TermSide, "matrices")
    plans, _ = cutplan.cutsim.plan_partitions(
        cutplan.CircuitIR(2, (cutplan.GateApp("cx", (0, 1)),)), [cutplan.cutsim.GateCut(0)],
        cutplan.cutsim.pauli_z_observable(range(2)))
    assert not any(hasattr(plan, "items") for plan in plans.values())


def _benchmark_bindings():
    """(bound name, module, attribute) of the ``SimpleNamespace`` that
    ``import_cutplan`` returns, read from the source so that nothing is
    imported a second time."""
    modules = {"cutplan": "cutplan", "cutsim": "cutplan.cutsim",
               "overhead": "cutplan.overhead"}
    with open(PERFBENCH_RUN, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    func = next(node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == "import_cutplan")
    call = next(node for node in ast.walk(func)
                if isinstance(node, ast.Call) and getattr(node.func, "id", "") == "SimpleNamespace")
    return [(kw.arg, modules[kw.value.value.id], kw.value.attr) for kw in call.keywords]


def test_benchmark_api_resolves_with_its_signatures():
    bindings = _benchmark_bindings()
    assert {name for name, _, _ in bindings} == set(BENCHMARK_API)
    for name, module, attr in bindings:
        obj = getattr(importlib.import_module(module), attr)
        params = BENCHMARK_API[name]
        if params is None:
            assert not callable(obj), name
        else:
            assert list(inspect.signature(obj).parameters) == params, name


def test_exact_moments_is_exported_beside_cut_estimate():
    """``exact_moments`` takes ``cut_estimate``'s inputs but the seed."""
    assert {"exact_moments", "ExactMoments"} <= set(cutplan.cutsim.__all__)
    params = list(inspect.signature(cutplan.cutsim.exact_moments).parameters)
    estimate_params = list(inspect.signature(cutplan.cutsim.cut_estimate).parameters)
    assert params == estimate_params[:-1]
