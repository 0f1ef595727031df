"""The counterexample study and the benchmark's tracer, loaded from their
files as their users run them."""

import importlib.util
from collections import Counter
from pathlib import Path

from lobexec import BlockShape, MarketParams, Resilience, solver

ROOT = Path(__file__).resolve().parent.parent


def _load(path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_counterexample_study_prints_its_refusal_and_forced_root(capsys):
    study = _load(ROOT / "scripts" / "counterexample_study.py")
    assert study.main([]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "validator: ok=False reason=h2_not_injective witness=0.8764037210048616" in lines
    assert "forced root schedule: xi0 = 2.220000, cost = 10.443333" in lines


def test_the_tracer_sees_each_layer_of_a_solve():
    # the tracer swaps solver's module attributes, so solve must look its
    # layers up when it is called, not bind them at import
    tracer = _load(ROOT / "benchmarks" / "tracing.py").Tracer().install()
    try:
        for mode in (Resilience.VOLUME, Resilience.SPREAD):
            p = MarketParams(x0=1e5, horizon=1.0, steps=10, rho=20.0, mode=mode)
            solver.solve(p, BlockShape(5000.0))
    finally:
        tracer.remove()
    solves = [i for i, span in enumerate(tracer.spans) if span[0] == "solver.solve"]
    assert len(solves) == 2
    for i in solves:
        children = Counter(span[0] for span in tracer.spans if span[3] == i)
        assert children == {"shapes.validate": 1, "numerics.root": 1, "costs.certificate": 1}
