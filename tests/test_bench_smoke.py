"""Every perfbench workload driven once through the call forms the benchmark uses.

A change to a public call form that ``perfbench/workloads.py`` relies on
fails here, in the test suite, instead of only as a failed benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_workloads():
    name = "perfbench_workloads"
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module           # its dataclasses look their module up by name
    sys.path.insert(0, str(PERFBENCH))   # for its `import oracles`
    try:
        spec.loader.exec_module(module)
    except BaseException:
        del sys.modules[name]
        raise
    finally:
        sys.path.remove(str(PERFBENCH))
    return module


@pytest.mark.parametrize("name", sorted(_load_workloads().WORKLOADS))
def test_workload_runs_through_its_call_forms(name, tmp_path):
    run = _load_workloads().WORKLOADS[name].setup(1)
    for index in range(2):
        assert run.step(index) >= 0.0
    run.eval_pass(tmp_path)
    run.final_checks()
