"""perfbench/tracing.py still finds and wraps what it names.

The tracer wraps functions by module and attribute name, so moving a
function between modules would leave a traced benchmark pass with empty
spans and counters; these checks make such a move fail here instead.  The
benchmark directory is only read: tracing.py is imported from it, not
changed.
"""

import os
import sys

import pytest

from mplkit import coalgebra, numeval, reduction, symalg, verify

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import tracing

    return tracing


def _mplkit_bindings():
    """(module name, attribute) -> object of every mplkit module's globals."""
    return {
        (name, attr): value
        for name, module in list(sys.modules.items())
        if name == "mplkit" or name.startswith("mplkit.")
        for attr, value in vars(module).items()
    }


def test_every_traced_target_resolves(tracing):
    for name, module, attr in tracing.SPANS + tracing.COUNTED_ONLY:
        assert callable(getattr(module, attr)), name
    for name, cls, attr in tracing.METHOD_SPANS:
        assert callable(cls.__dict__[attr]), name


def test_traced_pass_counts_every_layer(tracing):
    before = _mplkit_bindings()
    instantiate = symalg.ArgMonomial.__dict__["instantiate"]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # reached through module attributes at call time, as the workloads do
        identity = reduction.reduce_li(2, 1)
        solves = tracer.counts["linalg.solve_calls"]
        report = verify.verify_identity(identity, verify.VerificationPlan(point_count=2))
        numeval.eval_li(numeval.EvalRequest(numeval.Composition((2, 1)), (0.5, 0.5), 1e-12))
        gens = tuple(coalgebra.GroupElement.generator(f"a{i}") for i in (1, 2))
        coalgebra.construct_preimage((3, 2), gens)  # isolates its slot-2 weight in closed form
    finally:
        tracer.uninstall()
    assert report.passed
    counts = tracer.counts
    for counter in ("symalg.eval_calls", "numeval.eval_li_calls", "coalgebra.construct_calls"):
        assert counts[counter] >= 1, counter
    assert counts["symalg.factor_evals"] > 0
    # reduce_li(2, 1) inverts its probe matrix once; nothing after it solves
    assert solves == 1
    assert counts["linalg.solve_calls"] == solves
    assert tracer.layer_metrics()["symalg.eval_s"] > 0.0
    after = _mplkit_bindings()
    assert after.keys() >= before.keys()
    assert all(after[key] is value for key, value in before.items())
    assert symalg.ArgMonomial.__dict__["instantiate"] is instantiate
