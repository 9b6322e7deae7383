"""Golden digests of ``run_pipeline`` output.

Each digest covers the final assignment and, per stage, ``lq``, ``moves``,
``passes``, ``gain_evals`` and ``lq_trace``. Floats enter with 12
significant digits, far tighter than any tolerance the planner uses, so a
change to a move decision, a visit order, a tie rule or a counter changes
the digest, while a last-bit difference between platform ``log``
implementations does not.
"""

import hashlib

import numpy as np
import pytest

from cutplan.clustering import run_pipeline
from cutplan.fixtures import ising_chain
from cutplan.graph import build_cut_graph

from conftest import random_graph


def _text(result) -> str:
    parts = [",".join(f"{n}:{c}" for n, c in sorted(result.clustering.assignment.items()))]
    for s in result.stages:
        trace = ",".join(f"{x:.12g}" for x in s.lq_trace)
        parts.append(f"{s.stage}|{s.lq:.12g}|{s.moves}|{s.passes}|{s.gain_evals}|{trace}")
    return "\n".join(parts)


def _digest(texts) -> str:
    return hashlib.sha256("\n#\n".join(texts).encode()).hexdigest()[:16]


CHAIN_DIGESTS = {
    (34, 1, 8): "ffd5ac2e860f0b69",
    (34, 1, 30): "bec2fa0ce19968b3",
    (34, 2, 8): "81800e6276b40031",
    (34, 2, 30): "c331209c068b371a",
    (100, 1, 12): "3bfaf8e5ebedfb80",
    (100, 1, 40): "8b13848d16af312e",
    (100, 2, 12): "e41a427f1037b9d4",
    (100, 2, 40): "1befcd840211b0c4",
    (420, 1, 25): "2f5d74138adbbc19",
    (420, 1, 50): "a23f34fe725ed67c",
    (420, 2, 25): "ae8deef8f526afd5",
    (420, 2, 50): "a8b9a504f8b4f51e",
}


@pytest.mark.parametrize("width,depth,cap", sorted(CHAIN_DIGESTS))
def test_chain_pipeline_digest(width, depth, cap):
    g = build_cut_graph(ising_chain(width, depth=depth, seed=width))
    result = run_pipeline(g, cap)
    assert _digest([_text(result)]) == CHAIN_DIGESTS[width, depth, cap]


def test_random_graph_pipeline_digest():
    """50 small random multigraphs, self-loops included, under audit."""
    rng = np.random.default_rng(4242)
    texts = []
    for _ in range(50):
        g = random_graph(rng)
        cap = int(rng.integers(1, 5))
        texts.append(_text(run_pipeline(g, cap, audit=True)))
    assert _digest(texts) == "8b52680b884b5ae7"


def test_random_order_restarts_digest():
    g = build_cut_graph(ising_chain(100, depth=2, seed=100))
    result = run_pipeline(g, 40, order="random", restarts=3, seed=7)
    assert _digest([_text(result)]) == "6d3204a0042002e3"
