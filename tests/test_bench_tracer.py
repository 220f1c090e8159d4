"""The benchmark's tracer still finds every function and method it patches.

`bench/spans.py` names ample's functions and methods at import and at
install, so renaming or deleting one of them breaks only a traced benchmark
run; this test catches that in the ordinary suite.
"""

import importlib
import pathlib

import ample

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _namespaces(spans):
    """Every ample module and every traced class, as (owner, its attributes)."""
    owners = [m for m in vars(ample).values() if getattr(m, "__name__", "").startswith("ample.")]
    owners += [methods[0] for _, methods in spans.LAYERS.values() if methods]
    owners.append(spans.ts.SearchBudget)
    return [(owner, dict(vars(owner))) for owner in owners]


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    spans = importlib.import_module("spans")
    before = _namespaces(spans)
    tracer = spans.Tracer()
    try:
        tracer.install()
        patched = list(tracer.patches)
        assert patched
        for owner, attr, original, wrapper in patched:
            assert vars(owner)[attr] is wrapper is not original
    finally:
        tracer.uninstall()
    for owner, attrs in before:
        assert vars(owner).keys() == attrs.keys()
        for attr, value in attrs.items():
            assert vars(owner)[attr] is value, (owner, attr)
    assert {(owner, attr) for owner, attr, _, _ in patched} >= {
        (spans.stone, "clopen"), (spans.groupoid.Bisection, "preimage"),
        (spans.simplex, "verify_solution"), (spans.groupoid, "enumerate_bisections"),
    }
