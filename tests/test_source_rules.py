"""Rules that hold for every module of the package source."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys

import cutplan
from cutplan.clustering import run_pipeline
from cutplan.fixtures import ising_chain
from cutplan.gates import GATES
from cutplan.graph import build_cut_graph
from cutplan.overhead import build_report
from cutplan.qasm import GateApp, parse_qasm, to_qasm

PACKAGE = os.path.dirname(os.path.abspath(cutplan.__file__))


def _modules():
    for root, _, files in os.walk(PACKAGE):
        for name in sorted(files):
            if name.endswith(".py"):
                yield os.path.join(root, name)


def test_no_assert_statements():
    """``python -O`` strips ``assert``, so checks must raise instead."""
    found = []
    modules = list(_modules())
    for path in modules:
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        found += [f"{os.path.relpath(path, PACKAGE)}:{node.lineno}"
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert len(modules) > 10
    assert found == []


def test_integer_checks_live_in_one_module():
    """``_checks._integer`` is the one integer check: no other module tests
    for ``numbers.Integral``, ``np.integer`` or ``operator.index``."""
    banned = {("numbers", "Integral"), ("np", "integer"), ("numpy", "integer"),
              ("operator", "index")}
    found = []
    for path in _modules():
        if os.path.relpath(path, PACKAGE) == "_checks.py":
            continue
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                names = {(node.value.id, node.attr)}
            elif isinstance(node, ast.ImportFrom):
                names = {(node.module, alias.name) for alias in node.names}
            else:
                continue
            if names & banned:
                found.append(f"{os.path.relpath(path, PACKAGE)}:{node.lineno}")
    assert found == []


def _kind_tables(source: str) -> list[int]:
    """Lines of ``source`` holding a dict or set display keyed by a kind of
    ``GATES``, or an ``==``/``!=``/``in``/``not in`` comparison with such a
    literal (alone, or in a tuple, list or set display)."""
    def kinds(node):
        items = node.elts if isinstance(node, (ast.Tuple, ast.List, ast.Set)) else [node]
        return any(isinstance(n, ast.Constant) and isinstance(n.value, str)
                   and n.value in GATES for n in items)

    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Dict):
            hit = any(key is not None and kinds(key) for key in node.keys)
        elif isinstance(node, ast.Set):
            hit = kinds(node)
        elif isinstance(node, ast.Compare):
            hit = (any(isinstance(op, (ast.Eq, ast.NotEq, ast.In, ast.NotIn)) for op in node.ops)
                   and any(map(kinds, [node.left, *node.comparators])))
        else:
            continue
        if hit:
            found.append(node.lineno)
    return found


def test_gate_kinds_live_in_one_module():
    """``gates.GATES`` is the one table of gate kinds: outside ``gates.py``
    no module keys a dict or set display by a kind or compares with a kind's
    name. Building gates from kind names is allowed."""
    assert _kind_tables('t = {"cx": 1}\ns = {"rz"}\nif kind in ("p", "u1"): pass\n'
                        'k == "id"\nd = {"U": "u3"}\ng = GateApp("cx", (0, 1))\n') == [1, 2, 3, 4]
    found = []
    for path in _modules():
        module = os.path.relpath(path, PACKAGE)
        if module != "gates.py":
            with open(path, encoding="utf-8") as fh:
                found += [f"{module}:{line}" for line in _kind_tables(fh.read())]
    assert found == []


def test_one_contraction():
    """``graph.collapse`` is the one contraction: no other function of the
    package calls ``merge_parallel_edges``."""
    found = []
    for path in _modules():
        module = os.path.relpath(path, PACKAGE)
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        for func in ast.walk(tree):
            if (isinstance(func, ast.FunctionDef)
                    and (module, func.name) != ("graph.py", "collapse")
                    and any(isinstance(node, ast.Call) and "merge_parallel_edges" in
                            (getattr(node.func, "id", None), getattr(node.func, "attr", None))
                            for node in ast.walk(func))):
                found.append(f"{module}:{func.name}")
    assert found == []


def test_no_module_level_caches():
    """No module keeps a process-wide memo such as ``functools.lru_cache``:
    what one call builds dies with it, and a call cannot depend on what an
    earlier call left behind. Methods of module classes count too."""
    found = []
    names = ["cutplan", *(m.name for m in pkgutil.walk_packages(cutplan.__path__, "cutplan."))]
    for module_name in names:
        for name, value in vars(importlib.import_module(module_name)).items():
            objs = [value, *vars(value).values()] if isinstance(value, type) else [value]
            if any(hasattr(obj, "cache_clear") for obj in objs):
                found.append(f"{module_name}.{name}")
    assert len(names) > 10
    assert found == []


def test_planner_import_stays_light():
    """``import cutplan`` loads the planner only: the simulator and the CLI
    add import time to every plan that never runs them."""
    code = ("import cutplan, sys; print(' '.join(m for m in sys.modules "
            "if m.startswith(('cutplan.cutsim', 'cutplan.cli'))))")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(PACKAGE))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == []


def test_plan_path_builds_no_graph_objects():
    """Parsing, a plan and its report read the circuit's and the graph's
    columns only: the ``GateApp``, ``Node`` and ``Edge`` views are built on
    first access, and nothing on the plan path asks for them."""
    circuit = parse_qasm(to_qasm(ising_chain(60, depth=2)))
    graph = build_cut_graph(circuit)
    build_report(run_pipeline(graph, 20).clustering, graph, eps=0.03)
    assert "gates" not in vars(circuit)
    assert "nodes" not in vars(graph)
    assert "edges" not in vars(graph)
    assert circuit.gates == tuple(GateApp(kind, qubits, params) for kind, qubits, params
                                  in zip(circuit.kind, circuit.qubits, circuit.params))
    assert len(circuit.gates) == len(circuit.kind) > 0
    assert len(graph.edges) == len(graph.u)
    assert "edges" in vars(graph)
