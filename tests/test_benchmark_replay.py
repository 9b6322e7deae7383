"""The benchmark's traced ``verify_ring`` replay, run on a tiny corpus: it
binds the API through ``perfbench/run.py`` and replays every sampled
variant with ``variant_distribution``."""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_traced_ring_replay_runs_clean(monkeypatch):
    monkeypatch.syspath_prepend(ROOT)
    # run.py pins its process to one BLAS thread at import
    monkeypatch.setattr(os, "environ", os.environ.copy())
    from perfbench import gen, run, workloads
    from perfbench.trace import Tracer

    first = {k: m for k, m in sys.modules.items() if k.startswith("cutplan")}
    try:
        api = run.import_cutplan()
    finally:
        sys.modules.update(first)
    corpus = gen.ring_corpus(1, 0.02)
    out = workloads.run_estimates(api, corpus, Tracer())
    assert out.correct and out.failed == 0 and out.attempted == len(corpus)
    assert out.layers["estimator.variants"] > 0
