"""The benchmark's tracer (perfbench/tracing.py) wraps crdgan's functions and
methods from outside and must leave every one of them as it found it."""

import importlib.util
from pathlib import Path

from crdgan import autodiff, relations

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("crdgan_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_then_uninstall_restores_every_wrapped_attribute():
    tracing = _load_tracing()
    traced = [(owner, attr) for owner, attr, _, _ in tracing.TRACED]
    traced += [(autodiff, "_result"), (relations, "sample_tuples")]
    # install reads each traced attribute from its owner's own __dict__
    for owner, attr in traced:
        assert attr in owner.__dict__, f"{owner.__name__}.{attr} is not its owner's own"
    attrs = sorted({attr for _, attr in traced})
    spaces = tracing._crdgan_modules() + [owner for owner, _ in traced if isinstance(owner, type)]

    def bindings():
        return {(ns, attr): ns.__dict__.get(attr) for ns in spaces for attr in attrs}

    before = bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert [key for key in traced if key[0].__dict__[key[1]] is before[key]] == []
    finally:
        tracer.uninstall()
    after = bindings()
    assert [key for key in before if after[key] is not before[key]] == []
