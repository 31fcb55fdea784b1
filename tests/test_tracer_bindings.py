"""The benchmark's tracer patches kfsslab functions by (module, name); every
name it patches must stay bound where it looks for it."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_patches_and_restores_every_binding():
    tracing = _load_tracing()
    bindings = [(owner, attr) for _, owners, attr, _ in tracing._LAYERS for owner in owners]
    bindings += [(cls, attr) for _, cls, attr in tracing._CLASSMETHODS]
    bindings.append((tracing.solvers, "combinations"))
    missing = [f"{owner.__name__}.{attr}" for owner, attr in bindings if attr not in owner.__dict__]
    assert not missing
    before = [owner.__dict__[attr] for owner, attr in bindings]
    with tracing.Instrumentation(tracing.Recorder()):
        during = [owner.__dict__[attr] for owner, attr in bindings]
    after = [owner.__dict__[attr] for owner, attr in bindings]
    assert all(d is not b for d, b in zip(during, before))
    assert all(a is b for a, b in zip(after, before))
