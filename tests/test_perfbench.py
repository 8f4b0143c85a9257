"""The benchmark's tracer bindings, workload configs, the stage calls of
`perfbench/run.py` and the run files `perfbench/checks.py` reads match the
package: a rename or a layout change in segdetect fails here, not only under
`perfbench/run.py`."""

import copy
import importlib
import importlib.util
import inspect
import os

import pytest

import numpy as np

from segdetect import metrics, model, pipeline

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def load(name):
    """perfbench/<name>.py as a module; importing it runs nothing."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing, run, checks = load("tracing"), load("run"), load("checks")


@pytest.mark.parametrize("module,attr", sorted({(m, a) for m, a, _ in tracing.BINDINGS}))
def test_traced_binding_resolves(module, attr):
    assert callable(getattr(importlib.import_module(f"segdetect.{module}"), attr, None))


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_workload_config_loads(name, tmp_path):
    """It loads, and passes check_run as it stands once `Bench.config` has set
    its seeds and out_dir."""
    pipeline.ExperimentConfig.from_dict(copy.deepcopy(run.WORKLOADS[name]["config"]))
    pipeline.check_run(run.Bench(name, 7919, None, pipeline, checks, None).config(str(tmp_path)))


@pytest.mark.parametrize("name,params", [
    ("stage_gen_data", ["cfg"]), ("stage_train_model", ["cfg", "train_set"]),
    ("stage_gradcheck", ["cfg", "model", "val_set"]), ("run_pipeline", ["cfg"])])
def test_called_function_keeps_its_parameters(name, params):
    """`run.py` calls these with these positional arguments."""
    signature = inspect.signature(getattr(pipeline, name))
    signature.bind(*params)
    assert list(signature.parameters)[:len(params)] == params


@pytest.mark.parametrize("unit,path", [
    ("gradcheck", "gradcheck.json"), ("gen-data", "data/manifest.json"),
    ("gen-data", "data/images/val_0000.ten"), ("attack/fgsm_e8", "attacks/fgsm_e8/attack.json"),
    ("attack/fgsm_e8", "attacks/fgsm_e8/images/val_0000.ten"), ("evaluate", "report/report.csv")])
def test_checked_file_is_a_unit_output(unit, path):
    """`checks.py` reads `path` of a run directory: `unit` writes it, or owns
    a directory it lies in."""
    out = os.path.join("runs", "x")
    path = os.path.join(out, path)
    assert any(p == path or p.endswith(os.sep) and path.startswith(p)
               for p in pipeline.unit_outputs(out, unit))


@pytest.mark.parametrize("config", [
    {"export_heatmaps": True}, *(run.WORKLOADS[name]["config"] for name in sorted(run.WORKLOADS))],
    ids=["default_heatmaps", *sorted(run.WORKLOADS)])
def test_no_two_units_share_a_path(config):
    """Every unit of the config resolves to its paths, and no path of one unit
    is, or lies under a directory of, another unit's."""
    cfg = pipeline.ExperimentConfig.from_dict(copy.deepcopy(config))
    owned = [(unit, path) for unit in pipeline.unit_keys(cfg)
             for path in pipeline.unit_outputs("run", unit)]
    assert [(a, p, b, q) for a, p in owned for b, q in owned
            if a != b and (p == q or q.endswith(os.sep) and p.startswith(q))] == []


def test_tracer_names_and_counts_the_conv_layers():
    """The tracer names each conv layer from its kernel and counts its flop
    from the shapes of what the model passes to the conv ops."""
    m = model.init_model(3, seed=0)
    rng = np.random.default_rng(0)
    h, w = 6, 7
    image = rng.uniform(0, 255, (h, w, 3)).astype(np.float32)
    labels = rng.integers(0, 3, (h, w)).astype(np.int32)
    ones = np.ones((h, w), np.float32)
    tracer = tracing.Tracer()
    tracer.instrument()
    try:
        model._param_grads(m, image, labels, ones)
        model.loss_input_grad(m, image, labels, ones)
    finally:
        tracer.restore()
    names = [span[0] for span in tracer.spans if span[0].startswith("autodiff.conv2d")]
    layers = ["L1", "L2", "L3"]
    assert sorted(names) == sorted([f"autodiff.conv2d_fwd.{layer}" for layer in layers] * 2
                                   + [f"autodiff.conv2d_bwd.{layer}" for layer in layers])
    # loss_input_grad's backward calls conv2d_input_grad, which is not traced
    macs = sum(h * w * k.shape[0] * k.shape[1] * k.shape[2] * k.shape[3] for k in m.kernels)
    assert tracer.counts["conv_flop"] == 2 * (2 * macs) + 4 * macs


@pytest.mark.parametrize("config", [
    *(run.WORKLOADS[name]["config"] for name in sorted(run.WORKLOADS)), {},
    {"attack_list": [{"kind": "fgsm", "eps": 8}], "folds": 2, "train_attack": "ifgsm_ll_e2"}],
    ids=[*sorted(run.WORKLOADS), "default", "train_attack_not_run"])
def test_checked_report_rows_are_the_rows_evaluate_writes(config, tmp_path):
    """`checks.py` writes out its own rule for which detectors report (lasso
    only when its training attack runs): it must name the rows stage_evaluate
    writes, the clean row and each train-detector unit's kind x each attack."""
    cfg = pipeline.ExperimentConfig.from_dict(copy.deepcopy(config))
    keys = pipeline.unit_keys(cfg)
    tags = [unit[len("attack/"):] for unit in keys if unit.startswith("attack/")]
    kinds = [unit[len("train-detector/"):] for unit in keys
             if unit.startswith("train-detector/")] if tags else []
    report = metrics.EvalReport([metrics.EvalRow("-", "clean", 0.0)] + [
        metrics.EvalRow(kind, tag, *[0.5] * 8) for kind in kinds for tag in tags])
    os.makedirs(tmp_path / "report")
    report.write_csv(tmp_path / "report" / "report.csv")
    assert checks.check_report(str(tmp_path), cfg.to_dict(), run.CLEAN_APSR_MAX) == []
