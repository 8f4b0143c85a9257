"""The benchmark's tracer bindings and workload configs match the package:
a rename in segdetect fails here, not only under `perfbench/run.py --trace 1`."""

import copy
import importlib
import importlib.util
import os

import pytest

from segdetect import pipeline

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def load(name):
    """perfbench/<name>.py as a module; importing it runs nothing."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing, run = load("tracing"), load("run")


@pytest.mark.parametrize("module,attr", sorted({(m, a) for m, a, _ in tracing.BINDINGS}))
def test_traced_binding_resolves(module, attr):
    assert callable(getattr(importlib.import_module(f"segdetect.{module}"), attr, None))


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_workload_config_loads(name):
    pipeline.ExperimentConfig.from_dict(copy.deepcopy(run.WORKLOADS[name]["config"]))
