import dataclasses
import json
import os
import shutil
import subprocess
import sys
import threading
import time
import types

import numpy as np
import pytest

from segdetect import (attacks, cli, detectors, metrics, pipeline, synthdata, tensorio,
                       uncertainty, workers)
from segdetect.errors import AttackError, InputError
from segdetect.model import CheckReport, TrainConfig


class TestHeatmap:
    def read_pgm(self, path):
        data = path.read_bytes()
        header, rest = data.split(b"\n", 1)
        assert header == b"P5"
        dims, rest = rest.split(b"\n", 1)
        w, h = map(int, dims.split())
        maxval, pixels = rest.split(b"\n", 1)
        assert maxval == b"255"
        return np.frombuffer(pixels, np.uint8).reshape(h, w)

    def test_uniform_probs_white(self, tmp_path):
        probs = np.full((4, 6, 4), 0.25)
        path = tmp_path / "u.pgm"
        pipeline.export_entropy_heatmap(probs, path)
        gray = self.read_pgm(path)
        assert gray.shape == (4, 6)
        assert np.all(gray == 255)

    def test_one_hot_black(self, tmp_path):
        probs = np.zeros((3, 3, 4))
        probs[:, :, 2] = 1.0
        path = tmp_path / "o.pgm"
        pipeline.export_entropy_heatmap(probs, path)
        assert np.all(self.read_pgm(path) == 0)

    def test_half_entropy_mid_gray(self, tmp_path):
        # tune p in (p, (1-p)/3 x3) by bisection so E = 0.5 ln4; expected
        # pixel value floor(255 * 0.5 + 0.5) = 128
        def entropy(p):
            q = (1 - p) / 3
            return -(p * np.log(p) + 3 * q * np.log(q))

        lo, hi = 0.25 + 1e-9, 1 - 1e-9
        target = 0.5 * np.log(4)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if entropy(mid) > target:
                lo = mid
            else:
                hi = mid
        p = 0.5 * (lo + hi)
        probs = np.empty((2, 2, 4))
        probs[:, :] = [p, (1 - p) / 3, (1 - p) / 3, (1 - p) / 3]
        path = tmp_path / "h.pgm"
        pipeline.export_entropy_heatmap(probs, path)
        assert np.all(self.read_pgm(path) == 128)


def test_attack_tag():
    """Each spec's tag, taken under the config it runs in."""
    for spec, tag in [
        ({"kind": "fgsm", "eps": 8}, "fgsm_e8"),
        ({"kind": "fgsm", "eps": 4, "targeted": False}, "fgsm_e4"),
        ({"kind": "fgsm", "eps": 4, "targeted": True}, "fgsm_ll_e4"),
        ({"kind": "fgsm", "eps": 8, "targeted": False}, "fgsm_e8"),
        ({"kind": "fgsm", "eps": 8, "targeted": True}, "fgsm_ll_e8"),
        ({"kind": "fgsm", "eps": 16, "targeted": False}, "fgsm_e16"),
        ({"kind": "fgsm", "eps": 16, "targeted": True}, "fgsm_ll_e16"),
        ({"kind": "ifgsm", "eps": 2, "targeted": True}, "ifgsm_ll_e2"),
        ({"kind": "ifgsm", "eps": 4, "alpha": 1, "n_iter": 5, "targeted": True}, "ifgsm_ll_e4"),
        ({"kind": "ifgsm", "eps": 8, "alpha": 1, "n_iter": 10, "targeted": True}, "ifgsm_ll_e8"),
        ({"kind": "ssmm"}, "ssmm"),
        ({"kind": "ssmm", "n_iter": 3}, "ssmm"),
        ({"kind": "dnnm", "n_iter": 5}, "dnnm"),
    ]:
        assert pipeline._attack_spec(pipeline.ExperimentConfig(), spec)[2] == tag, spec
    # a patch larger than the default 64x64 image loads under a 96x96 dataset
    spec = {"kind": "patch", "height": 80, "width": 48}
    cfg = pipeline.ExperimentConfig(dataset=synthdata.DatasetConfig(height=96, width=96),
                                    attack_list=[spec])
    assert pipeline._attack_spec(cfg, spec)[2] == "patch"
    assert [unit for unit in pipeline.unit_keys(cfg) if unit.startswith("attack/")] == [
        "attack/patch"]


def test_default_attack_list_covers_families():
    cfg = pipeline.ExperimentConfig()
    tags = [pipeline._attack_spec(cfg, s)[2] for s in pipeline.default_attack_list()]
    for expect in ("fgsm_e8", "fgsm_ll_e16", "ifgsm_e4", "ifgsm_ll_e2",
                   "ssmm", "dnnm", "patch"):
        assert expect in tags
    assert len(tags) == len(set(tags))


# A small spec per registered attack kind; a new kind needs an entry here.
SMALL_SPECS = {
    "fgsm": {"eps": 4},
    "ifgsm": {"eps": 4, "n_iter": 2, "targeted": True},
    "ssmm": {"n_iter": 2},
    "dnnm": {"n_iter": 2},
    "patch": {"height": 8, "width": 8, "n_iter": 2, "placements": 2},
}


@pytest.mark.parametrize("kind", pipeline.ATTACKS)
def test_registered_attack_keeps_budget(kind, small_dataset, small_model, tmp_path):
    dcfg, train, val = small_dataset
    spec = dict(SMALL_SPECS[kind], kind=kind)
    cfg = pipeline.ExperimentConfig(dataset=dcfg, out_dir=str(tmp_path), ssmm_train_size=3,
                                    attack_list=[spec])
    tag = pipeline._attack_spec(cfg, spec)[2]
    assert pipeline.stage_attack(cfg, small_model, train, val[:3]) == [tag]
    adir, images = pipeline.unit_outputs(cfg.out_dir, f"attack/{tag}")[:2]

    def read_back():
        return {s.id: tensorio.load_tensor(os.path.join(images, f"{s.id}.ten")) for s in val[:3]}

    out = read_back()
    meta = json.load(open(os.path.join(adir, "attack.json")))
    assert meta["config"]["kind"] == kind
    assert sorted(os.listdir(images)) == [f"{sid}.ten" for sid in meta["ids"]]
    assert meta["ids"] == [s.id for s in val[:3]]
    for clean in val[:3]:
        image = out[clean.id]
        assert image.dtype == np.uint8 and image.shape == clean.image.shape
        delta = np.abs(image.astype(np.float64) - clean.image)
        assert delta.max() == meta["linf_norms"][clean.id]
        if kind == "patch":
            top, left = meta["windows"][clean.id]
            delta[top:top + spec["height"], left:left + spec["width"]] = 0.0
            assert delta.max() == 0
        else:
            assert delta.max() <= meta["config"]["eps"]
    # resuming with the same spec reuses the recorded outputs: no model needed
    assert pipeline.stage_attack(cfg, None, train, val[:3]) == [tag]
    for sid, image in read_back().items():
        assert image.dtype == np.uint8 and image.tobytes() == out[sid].tobytes()


# The attacks function that each kind's runner calls once per validation image.
PER_IMAGE = {"fgsm": "fgsm", "ifgsm": "ifgsm", "dnnm": "dnnm_attack",
             "ssmm": "apply_universal", "patch": "apply_patch"}


@pytest.mark.parametrize("kind", pipeline.ATTACKS)
def test_attack_writes_each_image_before_the_next(kind, small_dataset, small_model, tmp_path,
                                                  monkeypatch):
    """On one CPU the attack stage writes each image before it attacks the
    next; an image's error fails the stage, and its unit stays unrecorded."""
    dcfg, train, val = small_dataset
    assert sorted(PER_IMAGE) == sorted(pipeline.ATTACKS)
    spec = dict(SMALL_SPECS[kind], kind=kind)
    monkeypatch.setattr(workers, "cpu_count", lambda: 1)
    events, fail_on = [], [None]
    real_attack, real_save = getattr(attacks, PER_IMAGE[kind]), tensorio.save_tensor

    def attack(*args, **kw):
        events.append("attack")
        if events.count("attack") == fail_on[0]:
            raise AttackError("the second image")
        return real_attack(*args, **kw)

    def save(path, array):
        events.append(os.path.basename(path))
        return real_save(path, array)

    monkeypatch.setattr(attacks, PER_IMAGE[kind], attack)
    monkeypatch.setattr(tensorio, "save_tensor", save)
    cfg = pipeline.ExperimentConfig(dataset=dcfg, out_dir=str(tmp_path / "run"),
                                    ssmm_train_size=3, attack_list=[spec])
    unit = f"attack/{pipeline._attack_spec(cfg, spec)[2]}"
    pipeline.stage_attack(cfg, small_model, train, val[:3])
    assert events[events.index("attack"):] == [
        event for s in val[:3] for event in ("attack", f"{s.id}.ten")]
    assert unit in pipeline._keys(cfg.out_dir)

    events.clear()
    fail_on[0] = 2
    cfg = dataclasses.replace(cfg, out_dir=str(tmp_path / "fail"))
    with pytest.raises(AttackError, match="the second image"):
        pipeline.stage_attack(cfg, small_model, train, val[:3])
    assert events[events.index("attack"):] == ["attack", f"{val[0].id}.ten", "attack"]
    assert unit not in pipeline._keys(cfg.out_dir)


@pytest.mark.parametrize("spec,change,key", [
    ({"kind": "ifgsm", "eps": 4, "n_iter": 1}, lambda cfg: cfg.attack_list[0].update(n_iter=3),
     "n_iter"),
    # a default the runner fills in from the experiment config
    ({"kind": "patch", "height": 8, "width": 8, "n_iter": 1, "placements": 1},
     lambda cfg: setattr(cfg, "seed", 1), "seed"),
])
def test_changed_attack_config_recomputes(spec, change, key, small_dataset, small_model,
                                          tmp_path):
    dcfg, train, val = small_dataset
    cfg = pipeline.ExperimentConfig(dataset=dcfg, out_dir=str(tmp_path), ssmm_train_size=3,
                                    attack_list=[dict(spec)])
    path = tmp_path / "attacks" / pipeline._attack_spec(cfg, spec)[2] / "attack.json"
    pipeline.stage_attack(cfg, small_model, train, val[:2])
    before = json.loads(path.read_text())["config"]
    change(cfg)
    pipeline.stage_attack(cfg, small_model, train, val[:2])
    after = json.loads(path.read_text())["config"]
    assert before[key] == spec.get(key, 0) != after[key]
    assert dict(before, **{key: after[key]}) == after


def test_registered_attack_tags_unique():
    specs = [dict(spec, kind=kind) for kind, spec in SMALL_SPECS.items()]
    assert sorted(SMALL_SPECS) == sorted(pipeline.ATTACKS)
    cfg = pipeline.ExperimentConfig(attack_list=specs)
    tags = [pipeline._attack_spec(cfg, spec)[2] for spec in specs]
    assert tags == ["fgsm_e4", "ifgsm_ll_e4", "ssmm", "dnnm", "patch"]
    # each spec makes its own unit, so all of them load side by side
    keys = pipeline.unit_keys(cfg)
    assert [unit for unit in keys if unit.startswith("attack/")] == [f"attack/{t}" for t in tags]


@pytest.mark.parametrize("name", ["attack", "attack/.", "attack/a/b", "attack/ssmm/x",
                                  "gen-data/x", "train-detector/", "bogus"])
def test_unit_outputs_refuses_a_name_no_stage_makes(name):
    with pytest.raises(InputError, match="unknown unit"):
        pipeline.unit_outputs("run", name)


def test_unit_named_for_a_heatmaps_table_is_a_feature_table():
    assert pipeline.unit_outputs("run", "extract-features/heatmaps")[0] == os.path.join(
        "run", "features", "heatmaps.csv")


def test_fgsm_rejects_iteration_keys():
    for key in ("n_iter", "alpha"):
        with pytest.raises(InputError, match="fgsm"):
            pipeline._attack_spec(pipeline.ExperimentConfig(), {"kind": "fgsm", "eps": 8, key: 5})


@pytest.mark.parametrize("kind", pipeline.ATTACKS)
def test_unknown_attack_key_names_kind(kind, tmp_path):
    cfg = pipeline.ExperimentConfig(out_dir=str(tmp_path),
                                    attack_list=[{"kind": kind, "foo": 1}])
    with pytest.raises(InputError, match=f"'{kind}'.*foo"):
        pipeline.stage_attack(cfg, None, [], [])


def test_unknown_attack_kind_raises():
    with pytest.raises(InputError, match="unknown attack kind"):
        pipeline._attack_spec(pipeline.ExperimentConfig(), {"kind": "deepfool"})


def test_unknown_detector_key_names_kind(tmp_path):
    cfg = pipeline.ExperimentConfig(out_dir=str(tmp_path),
                                    detector_list=[{"kind": "entropy", "foo": 1}])
    with pytest.raises(InputError, match="'entropy'.*foo"):
        pipeline.stage_train_detectors(cfg, [], {})


def failing_report():
    return CheckReport(passed=False, frac_within=0.5, median_rel_err=0.3, h=0.1,
                       n_samples=200, radius=2, quantiles={0.5: 0.3})


def grad_check_failing_once(monkeypatch):
    """Makes the pipeline's next gradient check fail, and any later one an error."""
    reports = [failing_report()]
    monkeypatch.setattr(pipeline, "grad_check", lambda *args, **kw: reports.pop())


def test_gen_data_writes_and_reads_back_the_drawn_samples(tmp_path, monkeypatch):
    """The gen-data unit writes each drawn sample under its own directories and
    returns what it reads back; a second call draws nothing."""
    dcfg = synthdata.DatasetConfig(train_size=4, val_size=3, seed=11)
    cfg = pipeline.ExperimentConfig(dataset=dcfg, out_dir=str(tmp_path / "run"))
    images, labels = pipeline.unit_outputs(cfg.out_dir, "gen-data")[1:]

    def as_bytes(splits):
        return [[(s.id, s.image.dtype, s.image.tobytes(), s.labels.dtype, s.labels.tobytes())
                 for s in split] for split in splits]

    drawn = synthdata.generate_dataset(dcfg)
    assert as_bytes(pipeline.stage_gen_data(cfg)) == as_bytes(drawn)
    for s in drawn[0] + drawn[1]:
        image, lab = (tensorio.load_tensor(os.path.join(d, f"{s.id}.ten")) for d in (images, labels))
        assert image.dtype == np.uint8 and np.array_equal(image, s.image)
        assert lab.dtype == np.int32 and np.array_equal(lab, s.labels)
    assert len(os.listdir(images)) == len(os.listdir(labels)) == 7

    def draw(*args):
        raise AssertionError("a recorded dataset is drawn again")

    monkeypatch.setattr(synthdata, "generate_dataset", draw)
    assert as_bytes(pipeline.stage_gen_data(cfg)) == as_bytes(drawn)


def test_resumed_failed_gradcheck_raises(small_dataset, tmp_path, monkeypatch):
    _, _, val = small_dataset
    cfg = pipeline.ExperimentConfig(out_dir=str(tmp_path))
    grad_check_failing_once(monkeypatch)
    for _ in range(2):
        with pytest.raises(InputError, match="gradient check failed"):
            pipeline.stage_gradcheck(cfg, None, val)
    assert json.load(open(tmp_path / "gradcheck.json"))["quantiles"] == {"0.5": 0.3}


def test_config_dict_roundtrip():
    cfg = pipeline.ExperimentConfig(seed=3, folds=2, out_dir="x")
    back = pipeline.ExperimentConfig.from_dict(cfg.to_dict())
    assert back.to_dict() == cfg.to_dict()


# The numeric config fields that declare no rule of their own: the one rule of
# each spans fields. folds must leave MIN_CLEAN_SCORES of the validation images
# to each fold (pipeline.check_run).
CROSS_FIELD_ONLY = {(pipeline.ExperimentConfig, "folds")}


def config_sections():
    """(dataclass config, its spec or file section, its fields the kind fixes, a
    fragment that holds the section) of each config that declares field rules:
    the run's, its dataset's and training's, and each attack and detector kind's."""
    sections = [(pipeline.ExperimentConfig, None, (), lambda part: part),
                (synthdata.DatasetConfig, "dataset", (), lambda part: {"dataset": part}),
                (TrainConfig, "train", (), lambda part: {"train": part})]
    for kind, (config, _, _, _, fixed) in pipeline.ATTACKS.items():
        spec = {"kind": kind, "eps": 4} if config is attacks.AttackConfig else {"kind": kind}
        sections.append((config, kind, fixed,
                         lambda part, spec=spec: {"attack_list": [{**spec, **part}]}))
    for kind, (_, _, config) in detectors.DETECTORS.items():
        if config is not None:
            sections.append((config, kind, (), lambda part, kind=kind: {
                "detector_list": [{"kind": kind, **part}]}))
    return sections


def numeric_config_keys():
    """(name, default, fragment) of every number a config file sets, read from
    the rule declarations: fragment(v) is the config of that key set to v.
    Covers each field that declares a rule or is in CROSS_FIELD_ONLY, of
    every config_sections() config less the fields its kind fixes (ocsvm's
    gamma defaults to None)."""
    keys = []
    for config, section, fixed, fragment in config_sections():
        defaults = vars(config())
        keys += [(".".join(filter(None, [section, f.name])), defaults[f.name],
                  lambda v, key=f.name, fragment=fragment: fragment({key: v}))
                 for f in dataclasses.fields(config) if f.name not in fixed and (
                     "rule" in f.metadata or (config, f.name) in CROSS_FIELD_ONLY)]
    return keys


def test_every_numeric_config_field_declares_a_rule():
    """A number a config sets has its own rule, or its one rule spans fields
    and it is listed in CROSS_FIELD_ONLY."""
    def numeric(value):
        return isinstance(value, (int, float)) and not isinstance(value, bool)

    fields = [(config, f) for config, *_ in config_sections() for f in dataclasses.fields(config)]
    defaults = {config: vars(config()) for config, _ in fields}
    unruled = {(config, f.name) for config, f in fields
               if numeric(defaults[config][f.name]) and "rule" not in f.metadata}
    assert unruled == CROSS_FIELD_ONLY


@pytest.mark.parametrize("name,default,fragment", [pytest.param(*key, id=key[0])
                                                   for key in numeric_config_keys()])
def test_numeric_key_rejects_bool_nan_infinities_and_minus_one(name, default, fragment):
    """No number a config sets takes any of these values, so each must fail when
    the config loads, not in a stage. A value some key should accept would go on
    a commented allow-list here; none does. The key's default loads."""
    pipeline.ExperimentConfig.from_dict(fragment(default))
    loaded = []
    for value in (True, float("nan"), float("inf"), float("-inf"), -1):
        try:
            pipeline.ExperimentConfig.from_dict(fragment(value))
            loaded.append(value)
        except InputError:
            pass
    assert loaded == [], name


def test_numeric_key_sweep_covers_every_config():
    names = {name for name, _, _ in numeric_config_keys()}
    assert {"folds", "dataset.noise_std", "train.lr", "ifgsm.n_iter", "patch.seed",
            "dnnm.omega", "ssmm.tau", "lasso.tol", "ocsvm.gamma", "ellipse.shrinkage"} <= names
    assert not {"fgsm.alpha", "fgsm.targeted", "dataset.palette"} & names


def ruled_fields():
    """(config, field) of each field that declares a rule, of each config_sections() config."""
    configs = dict.fromkeys(config for config, *_ in config_sections())
    return [(config, f) for config in configs for f in dataclasses.fields(config)
            if "rule" in f.metadata]


@pytest.mark.parametrize("config,field", [pytest.param(config, f, id=f"{config.__name__}.{f.name}")
                                          for config, f in ruled_fields()])
def test_config_built_in_code_rejects_a_value_not_of_its_field_type(config, field):
    """A constructor checks the type a config file gets: an int field takes an
    integer, a float field a real number, and neither a bool, in one message
    form; an optional field (float | None) takes None as well. A numpy scalar
    of the default builds."""
    default = vars(config())[field.name]
    config(**{field.name: default})
    config(**{field.name: np.asarray(default)[()]})
    optional = isinstance(field.type, types.UnionType)
    annotation = field.type.__args__[0] if optional else field.type
    if optional:
        config(**{field.name: None})
    values = ([2.5] if annotation is int else []) + ["x", [1], True] + ([] if optional else [None])
    for value in values:
        message = f"key {field.name}: expected {annotation.__name__}, got {type(value).__name__}"
        with pytest.raises(InputError, match=rf"^\S+ {message}$"):
            config(**{field.name: value})


def test_ruled_fields_cover_every_section():
    assert {(config.__name__, f.name) for config, f in ruled_fields()} >= {
        ("ExperimentConfig", "seed"), ("DatasetConfig", "height"), ("TrainConfig", "epochs"),
        ("AttackConfig", "n_iter"), ("SsmmConfig", "tau"), ("DnnmConfig", "omega"),
        ("PatchConfig", "height"), ("LassoConfig", "lam"), ("OcsvmConfig", "gamma"),
        ("EllipseConfig", "shrinkage")}


def mini_config(out_dir):
    cfg = pipeline.ExperimentConfig(
        dataset=synthdata.DatasetConfig(height=32, width=32, train_size=30,
                                        val_size=40, seed=5),
        train=TrainConfig(epochs=8, seed=5),
        attack_list=[
            {"kind": "fgsm", "eps": 8},
            {"kind": "ifgsm", "eps": 2, "targeted": True},
            {"kind": "ssmm", "n_iter": 2},
            {"kind": "patch", "height": 12, "width": 12, "n_iter": 2, "placements": 2},
        ],
        folds=2,
        seed=5,
        out_dir=str(out_dir),
        ssmm_train_size=4,
    )
    return cfg


def file_owners(out_dir):
    """{path: the recorded units that own it} of each file under out_dir but
    config.json, keys.json and run.lock: a unit owns each of its unit_outputs
    paths and what lies under each of its directories."""
    units = {unit: pipeline.unit_outputs(out_dir, unit) for unit in pipeline._keys(out_dir)}

    def owners(path):
        return [unit for unit, paths in units.items()
                if any(p == path or p.endswith(os.sep) and path.startswith(p) for p in paths)]

    files = [os.path.join(d, name) for d, _, names in os.walk(out_dir) for name in names]
    return {path: owners(path) for path in files
            if os.path.relpath(path, out_dir) not in ("config.json", "keys.json", "run.lock")}


@pytest.fixture(scope="module")
def mini_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("mini") / "run"
    cfg = mini_config(out)
    csv_path = pipeline.run_pipeline(cfg)
    return cfg, csv_path


class TestMiniPipeline:
    def test_artifacts_exist(self, mini_run):
        cfg, csv_path = mini_run
        out = cfg.out_dir
        for rel in ("config.json", "data/manifest.json", "model.ten",
                    "gradcheck.json", "attacks/fgsm_e8/attack.json",
                    "attacks/patch/attack.json", "features/clean.csv",
                    "features/ifgsm_ll_e2.csv", "detectors/entropy.json",
                    "detectors/lasso.json", "report/report.csv", "report/report.json"):
            assert os.path.exists(os.path.join(out, rel)), rel

    def test_report_has_clean_row_and_all_detectors(self, mini_run):
        cfg, csv_path = mini_run
        lines = open(csv_path).read().splitlines()
        assert lines[0].startswith("detector,attack,")
        body = [ln.split(",") for ln in lines[1:]]
        assert body[0][0] == "-" and body[0][1] == "clean"
        detectors_seen = {row[0] for row in body[1:]}
        assert detectors_seen == {"entropy", "lasso", "ocsvm", "ellipse"}
        attacks_seen = {row[1] for row in body[1:]}
        assert attacks_seen == {"fgsm_e8", "ifgsm_ll_e2", "ssmm", "patch"}

    def test_attack_budgets_recorded(self, mini_run):
        cfg, _ = mini_run
        meta = json.load(open(os.path.join(cfg.out_dir, "attacks/fgsm_e8/attack.json")))
        assert len(meta["ids"]) == cfg.dataset.val_size
        assert all(v <= 8.0 for v in meta["linf_norms"].values())

    def test_patch_windows_recorded(self, mini_run):
        cfg, _ = mini_run
        meta = json.load(open(os.path.join(cfg.out_dir, "attacks/patch/attack.json")))
        assert set(meta["windows"]) == set(meta["ids"])
        for top, left in meta["windows"].values():
            assert 0 <= top <= 32 - 12 and 0 <= left <= 32 - 12

    def test_rerun_skips_and_is_byte_identical(self, mini_run):
        cfg, csv_path = mini_run
        before = open(csv_path, "rb").read()
        model_before = open(os.path.join(cfg.out_dir, "model.ten"), "rb").read()
        pipeline.run_pipeline(cfg)
        assert open(csv_path, "rb").read() == before
        assert open(os.path.join(cfg.out_dir, "model.ten"), "rb").read() == model_before

    def test_run_stages_yields_every_stage_in_order(self, mini_run):
        cfg, csv_path = mini_run
        stages = list(pipeline.run_stages(cfg))
        assert [name for name, _ in stages] == list(pipeline.STAGES)
        assert stages[-1][1] == csv_path

    def test_heatmap_export_writes_one_pgm_per_image(self, mini_run, tmp_path, monkeypatch):
        cfg, csv_path = mini_run
        out = tmp_path / "run"
        shutil.copytree(cfg.out_dir, out)
        calls = count_calls(monkeypatch, UNIT_WORK)
        hcfg = dataclasses.replace(cfg, out_dir=str(out), export_heatmaps=True)
        pipeline.run_pipeline(hcfg)
        # the heatmaps are units of their own: no feature, detector or report reruns
        assert {name for name, n in calls.items() if n} == {"export_entropy_heatmap"}
        ids = json.load(open(out / "data" / "manifest.json"))["val_ids"]
        names = ["clean"] + [pipeline._attack_spec(cfg, spec)[2] for spec in cfg.attack_list]
        assert sorted(p.relative_to(out / "heatmaps").as_posix()
                      for p in (out / "heatmaps").rglob("*") if p.is_file()) == sorted(
            f"{name}/{sid}.pgm" for name in names for sid in ids)
        assert (out / "report" / "report.csv").read_bytes() == open(csv_path, "rb").read()

    def test_features_load_each_image_once_from_its_unit(self, mini_run, tmp_path,
                                                         monkeypatch, shared_log):
        """The attack stage hands on its tags alone; extract-features loads
        every (table, id) image once, from the unit that wrote it, in
        whichever process."""
        cfg, csv_path = mini_run
        monkeypatch.setattr(workers, "cpu_count", lambda: 2)
        out = tmp_path / "run"
        shutil.copytree(cfg.out_dir, out)
        keys = json.loads((out / "keys.json").read_text())
        (out / "keys.json").write_text(json.dumps(
            {unit: key for unit, key in keys.items() if not unit.startswith("extract-features")}))
        stages = pipeline.run_stages(dataclasses.replace(cfg, out_dir=str(out)))
        for name, result in stages:
            if name == "attack":
                break
        tags = [pipeline._attack_spec(cfg, spec)[2] for spec in cfg.attack_list]
        assert result == tags
        (append, read), load = shared_log, tensorio.load_tensor
        monkeypatch.setattr(tensorio, "load_tensor",
                            lambda path: append(os.getpid(), path) or load(path))
        assert next(stages)[0] == "extract-features"
        units = ["gen-data"] + [f"attack/{tag}" for tag in tags]
        ids = json.load(open(out / "data" / "manifest.json"))["val_ids"]
        assert {str(os.getpid())} < {pid for pid, _ in read()}     # and the workers
        assert sorted(path for _, path in read()) == sorted(
            os.path.join(pipeline.unit_outputs(str(out), unit)[1], f"{sid}.ten")
            for unit in units for sid in ids)
        assert [name for name, _ in stages] == ["train-detector", "evaluate"]
        for name in ["clean", *tags]:
            assert ((out / "features" / f"{name}.csv").read_bytes() == open(
                os.path.join(cfg.out_dir, "features", f"{name}.csv"), "rb").read()), name
        assert (out / "report" / "report.csv").read_bytes() == open(csv_path, "rb").read()

    def test_every_file_belongs_to_one_recorded_unit(self, mini_run):
        """Each file but config.json, keys.json and run.lock is one of a
        recorded unit's unit_outputs paths, or lies under one of its
        directories, for exactly one unit; and each recorded unit owns a file."""
        cfg, _ = mini_run
        owned = file_owners(cfg.out_dir)
        assert {path: names for path, names in owned.items() if len(names) != 1} == {}
        assert {names[0] for names in owned.values()} == set(pipeline._keys(cfg.out_dir))

    def test_gradcheck_recorded_as_passed(self, mini_run):
        cfg, _ = mini_run
        doc = json.load(open(os.path.join(cfg.out_dir, "gradcheck.json")))
        assert doc["passed"] is True
        assert (doc["h"], doc["n_samples"], doc["radius"]) == (0.1, 200, 2)

    def test_report_apsr_is_the_feature_table_mean(self, mini_run):
        cfg, _ = mini_run
        rows = json.load(open(os.path.join(cfg.out_dir, "report", "report.json")))
        assert len(rows) == 1 + 4 * len(cfg.attack_list)
        for row in rows:
            feats = uncertainty.read_features(
                os.path.join(cfg.out_dir, "features", f"{row['attack']}.csv"))
            assert row["apsr_mean"] == float(np.mean([f.apsr for f in feats])), row

    def test_lasso_trains_on_clean_and_the_training_attack(self, mini_run, tmp_path):
        cfg, _ = mini_run
        clean, adv = (uncertainty.read_features(os.path.join(cfg.out_dir, "features", f"{n}.csv"))
                      for n in ("clean", cfg.train_attack))
        detectors.save_detector(detectors.train_detector("lasso", clean, adv), tmp_path / "l.json")
        assert ((tmp_path / "l.json").read_bytes()
                == open(os.path.join(cfg.out_dir, "detectors", "lasso.json"), "rb").read())

    def test_lasso_records_iterations(self, mini_run):
        cfg, _ = mini_run
        doc = json.load(open(os.path.join(cfg.out_dir, "detectors", "lasso.json")))
        assert 1 <= doc["params"]["iterations"] <= 10_000
        assert doc["params"]["kkt_residual"] < 1e-9


def test_empty_attack_list_reports_only_clean(tmp_path):
    cfg = mini_config(tmp_path / "noatk")
    cfg.attack_list = []
    csv_path = pipeline.run_pipeline(cfg)
    lines = open(csv_path).read().splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("-,clean,")


class TestCli:
    def test_report_command(self, mini_run, capsys):
        cfg, csv_path = mini_run
        rc = cli.main(["report", "--out", cfg.out_dir])
        assert rc == 0
        out = capsys.readouterr().out
        assert out == open(csv_path).read()

    def test_run_all_on_finished_dir(self, mini_run, capsys):
        cfg, _ = mini_run
        overrides = json.dumps(cfg.to_dict())
        rc = cli.main(["run-all", "--out", cfg.out_dir, "--stage-overrides", overrides])
        assert rc == 0
        assert "report written to" in capsys.readouterr().out

    def test_detect_command(self, mini_run, capsys):
        cfg, _ = mini_run
        rc = cli.main(["detect",
                       "--detector", os.path.join(cfg.out_dir, "detectors", "entropy.json"),
                       "--features", os.path.join(cfg.out_dir, "features", "clean.csv"),
                       "--kappa", "0.5"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == cfg.dataset.val_size
        for ln in lines:
            sid, p, verdict = ln.split(",")
            assert 0.0 <= float(p) <= 1.0
            assert verdict in ("clean", "perturbed")

    def test_detect_scores_all_rows_in_one_call(self, mini_run, capsys, monkeypatch):
        cfg, _ = mini_run
        calls = []
        real = detectors.score_many

        def counting(model, features):
            calls.append(len(features))
            return real(model, features)

        monkeypatch.setattr(detectors, "score_many", counting)
        rc = cli.main(["detect",
                       "--detector", os.path.join(cfg.out_dir, "detectors", "lasso.json"),
                       "--features", os.path.join(cfg.out_dir, "features", "fgsm_e8.csv")])
        assert rc == 0
        assert calls == [cfg.dataset.val_size]
        assert len(capsys.readouterr().out.splitlines()) == cfg.dataset.val_size

    # A case with an explicit id that quotes an older message keeps the name it
    # had before every value error took the one form "<section> key <key>: ...".
    @pytest.mark.parametrize("content,message", [
        (None, "No such file"),
        ("{not json", "Expecting property name"),
        pytest.param('{"train": {"lr": -1}}', "train key lr: must be finite and >= 0, got -1",
                     id='{"train": {"lr": -1}}-learning rate'),
        ('{"folz": 2}', "unknown config key(s) folz"),
        ('{"attack_list": [{"kind": "fgsm"}]}', "attack 'fgsm': missing key 'eps'"),
        pytest.param('{"attack_list": [{"kind": "ifgsm", "eps": -2}]}',
                     "fgsm/ifgsm key eps: must be finite and > 0, got -2",
                     id='{"attack_list": [{"kind": "ifgsm", "eps": -2}]}-eps must be a positive '
                        'integer for the iteration rule'),
        ('{"attack_list": [{"kind": "ifgsm", "eps": 2.5}]}',
         "fgsm/ifgsm key eps: must be a whole number >= 1 for the iteration rule, got 2.5"),
        ('{"attack_list": [{"kind": "ifgsm", "eps": 8, "n_iter": 0}]}',
         "fgsm/ifgsm key n_iter: must be >= 1, got 0"),
        ('{"detector_list": [{"kind": "svm"}]}', "unknown detector kind 'svm'"),
        ('{"dataset": {"foo": 1}}', "unknown dataset key(s) foo"),
        ('{"train": {"epochs": 2, "bar": 1}}', "unknown train key(s) bar"),
        ('{"folds": 3, "dataset": {"val_size": 40}}',
         "config key folds: must be >= 2, with 20 of the 40 validation images per fold, got 3"),
        pytest.param('{"folds": 0}',
                     "config key folds: must be >= 2, with 20 of the 100 validation images "
                     "per fold, got 0",
                     id='{"folds": 0}-need at least 2 folds'),
        ('{"train": {"epochs": "x"}}', "train key epochs: expected int, got str"),
        ('{"dataset": {"height": "64"}}', "dataset key height: expected int, got str"),
        ('{"folds": "2"}', "config key folds: expected int, got str"),
        pytest.param('{"attack_list": [{"kind": "ifgsm", "eps": "8"}]}',
                     "fgsm/ifgsm key eps: expected float, got str",
                     id='{"attack_list": [{"kind": "ifgsm", "eps": "8"}]}-attack \'ifgsm\' key eps: '
                        'expected float, got str'),
        ('{"dataset": {"val_size": 40.5}}', "dataset key val_size: expected int, got float"),
        ('{"train": {"epochs": true}}', "train key epochs: expected int, got bool"),
        ('{"export_heatmaps": 1}', "config key export_heatmaps: expected bool, got int"),
        pytest.param('{"detector_list": [{"kind": "lasso", "lam": "x"}]}',
                     "lasso key lam: expected float, got str",
                     id='{"detector_list": [{"kind": "lasso", "lam": "x"}]}-detector \'lasso\' key '
                        'lam: expected float, got str'),
        ('{"attack_list": "fgsm"}', "config key attack_list: expected list, got str"),
        ('{"attack_list": ["fgsm"]}', "attack_list item 'fgsm': expected object, got str"),
        ('{"detector_list": [3]}', "detector_list item 3: expected object, got int"),
        ('{"dataset": 5}', "config key dataset: expected object, got int"),
        ('{"train": null}', "config key train: expected object, got NoneType"),
        ('{"dataset": {"shapes_per_image": 3}}',
         "dataset key shapes_per_image: expected list, got int"),
        pytest.param('{"ssmm_train_size": -3}', "config key ssmm_train_size: must be >= 1, got -3",
                     id='{"ssmm_train_size": -3}-ssmm_train_size must be >= 1'),
        ('{"ssmm_train_size": 0, "attack_list": [{"kind": "patch"}]}',
         "config key ssmm_train_size: must be >= 1, got 0"),
        ('{"attack_list": [{"kind": "patch", "placements": 0}]}',
         "patch key placements: must be >= 1, got 0"),
        pytest.param('{"train": {"batch_size": 0}}', "train key batch_size: must be >= 1, got 0",
                     id='{"train": {"batch_size": 0}}-batch_size must be >= 1'),
        pytest.param('{"train": {"batch_size": -1}}', "train key batch_size: must be >= 1, got -1",
                     id='{"train": {"batch_size": -1}}-batch_size must be >= 1'),
        ('{"detector_list": [{"kind": "lasso", "lam": -1}]}',
         "lasso key lam: must be finite and >= 0, got -1"),
        ('{"detector_list": [{"kind": "lasso", "max_iter": 0}]}',
         "lasso key max_iter: must be >= 1, got 0"),
        ('{"detector_list": [{"kind": "ocsvm", "nu": 2.0}]}',
         "ocsvm key nu: must be in (0, 1), got 2.0"),
        ('{"detector_list": [{"kind": "ellipse", "shrinkage": -0.5}]}',
         "ellipse key shrinkage: must be finite and >= 0, got -0.5"),
        pytest.param('{"dataset": {"noise_std": -1}}',
                     "dataset key noise_std: must be finite and >= 0, got -1",
                     id='{"dataset": {"noise_std": -1}}-noise_std must be finite and >= 0, got -1'),
        pytest.param('{"dataset": {"noise_std": NaN}}',
                     "dataset key noise_std: must be finite and >= 0, got nan",
                     id='{"dataset": {"noise_std": NaN}}-noise_std must be finite and >= 0, '
                        'got nan'),
        ('{"attack_list": [{"kind": "fgsm", "eps": NaN}]}',
         "fgsm/ifgsm key eps: must be finite and > 0, got nan"),
        ('{"attack_list": [{"kind": "ifgsm", "eps": 8, "alpha": Infinity}]}',
         "fgsm/ifgsm key alpha: must be finite and > 0, got inf"),
        pytest.param('{"attack_list": [{"kind": "ifgsm", "eps": NaN}]}',
                     "fgsm/ifgsm key eps: must be finite and > 0, got nan",
                     id='{"attack_list": [{"kind": "ifgsm", "eps": NaN}]}-eps must be a positive '
                        'integer for the iteration rule'),
        ('{"attack_list": [{"kind": "patch", "alpha": NaN}]}',
         "patch key alpha: must be finite and > 0, got nan"),
        pytest.param('{"train": {"lr": NaN}}', "train key lr: must be finite and >= 0, got nan",
                     id='{"train": {"lr": NaN}}-learning rate must be finite and >= 0, got nan'),
        ('{"dataset": {"shapes_per_image": [-1, -1]}}',
         "dataset key shapes_per_image: must be [lo, hi] integers, 0 <= lo <= hi, got [-1, -1]"),
        ('{"dataset": {"shapes_per_image": [5, 2]}}',
         "dataset key shapes_per_image: must be [lo, hi] integers, 0 <= lo <= hi, got [5, 2]"),
        pytest.param('{"dataset": {"hidden_class": 7}}',
                     "dataset key hidden_class: must be < num_classes = 4, got 7",
                     id='{"dataset": {"hidden_class": 7}}-hidden_class must be in [1, 3], got 7'),
        pytest.param('{"dataset": {"hidden_class": 0}}',
                     "dataset key hidden_class: must be >= 1, got 0",
                     id='{"dataset": {"hidden_class": 0}}-hidden_class must be in [1, 3], got 0'),
        ('{"attack_list": [{"kind": "dnnm", "hidden_class": 4}]}',
         "dnnm key hidden_class: must be < num_classes = 4, got 4"),
        pytest.param('{"dataset": {"train_size": 0}}',
                     "dataset key train_size: must be >= 1, got 0",
                     id='{"dataset": {"train_size": 0}}-train_size and val_size must be >= 1'),
        ('{"attack_list": [], "dataset": {"val_size": -4}}',
         "dataset key val_size: must be >= 1, got -4"),
        pytest.param('{"seed": -1}', "config key seed: must be >= 0, got -1",
                     id='{"seed": -1}-seed must be >= 0, got -1'),
        pytest.param('{"train": {"seed": -2}}', "train key seed: must be >= 0, got -2",
                     id='{"train": {"seed": -2}}-train seed must be >= 0, got -2'),
        pytest.param('{"dataset": {"seed": -1}}', "dataset key seed: must be >= 0, got -1",
                     id='{"dataset": {"seed": -1}}-dataset seed must be >= 0, got -1'),
        ('{"dataset": {"palette": [[120, 120], [160, 110, 110], [110, 160, 110], '
         '[110, 110, 160]]}}', "dataset key palette: must be 4 or more colors, each three finite "
         "numbers, got [[120, 120], [160, 110, 110], [110, 160, 110], [110, 110, 160]]"),
        ('{"dataset": {"palette": [[120, 120, 120], [160, NaN, 110], [110, 160, 110], '
         '[110, 110, 160]]}}', "dataset key palette: must be 4 or more colors, each three finite "
         "numbers, got [[120, 120, 120], [160, nan, 110], [110, 160, 110], [110, 110, 160]]"),
        ('{"attack_list": [{"kind": "patch", "height": 65}]}',
         "patch key height: must be <= the image height 64, got 65"),
        ('{"attack_list": [{"kind": "patch", "seed": -1}]}',
         "patch key seed: must be >= 0, got -1"),
        pytest.param('{"detector_list": [{"kind": "ocsvm", "gamma": true}]}',
                     "ocsvm key gamma: expected float, got bool",
                     id='{"detector_list": [{"kind": "ocsvm", "gamma": true}]}-ocsvm key gamma: '
                        'must be None or finite and > 0, got True'),
        ('{"detector_list": [{"kind": "ocsvm", "tol": Infinity}]}',
         "ocsvm key tol: must be finite and > 0, got inf"),
        ('{"detector_list": [{"kind": "lasso", "tol": Infinity}]}',
         "lasso key tol: must be finite and > 0, got inf"),
        ('{"dataset": {"shapes_per_image": [1.5, 3]}}',
         "dataset key shapes_per_image: must be [lo, hi] integers, 0 <= lo <= hi, got [1.5, 3]"),
        ('{"dataset": {"shapes_per_image": [2, 2.5]}}',
         "dataset key shapes_per_image: must be [lo, hi] integers, 0 <= lo <= hi, got [2, 2.5]"),
        ('{"dataset": {"shapes_per_image": [true, 3]}}',
         "dataset key shapes_per_image: must be [lo, hi] integers, 0 <= lo <= hi, got [True, 3]"),
        ('{"dataset": {"shapes_per_image": ["1", "3"]}}',
         "dataset key shapes_per_image: must be [lo, hi] integers, 0 <= lo <= hi, got ['1', '3']"),
        ('{"dataset": {"shapes_per_image": [2.0, 5]}}',
         "dataset key shapes_per_image: must be [lo, hi] integers, 0 <= lo <= hi, got [2.0, 5]"),
        ("[]", "config: expected object, got list"),
        ('"x"', "config: expected object, got str"),
        # (file content, flags): each is checked before the flags merge into it
        pytest.param(("[]", "--seed", "3"), "config: expected object, got list", id="list-seed"),
        pytest.param(("[]", "--stage-overrides", '{"folds": 2}'),
                     "config: expected object, got list", id="list-overrides"),
        pytest.param(("{}", "--stage-overrides", "[1]"),
                     "stage-overrides: expected object, got list", id="overrides-list"),
        pytest.param(("{}", "--stage-overrides", "3"),
                     "stage-overrides: expected object, got int", id="overrides-int"),
        pytest.param(("{}", "--stage-overrides", "{not json"),
                     "stage-overrides: Expecting property name", id="overrides-not-json"),
    ])
    def test_config_errors_exit_cleanly(self, tmp_path, capsys, content, message):
        path = tmp_path / "config.json"
        content, *flags = content if isinstance(content, tuple) else (content,)
        if content is not None:
            path.write_text(content)
        rc = cli.main(["gen-data", "--config", str(path), "--out", str(tmp_path / "run"), *flags])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("segdetect: gen-data: ") and message in err
        assert not (tmp_path / "run").exists()

    def test_negative_seed_flag_fails_before_the_run(self, tmp_path, capsys):
        rc = cli.main(["gen-data", "--seed", "-1", "--out", str(tmp_path / "run")])
        assert rc == 1
        assert capsys.readouterr().err == (
            "segdetect: gen-data: dataset key seed: must be >= 0, got -1\n")
        assert not (tmp_path / "run").exists()

    def test_detect_on_old_feature_csv_errors(self, mini_run, tmp_path, capsys):
        cfg, _ = mini_run
        path = tmp_path / "old.csv"
        path.write_text("id,label,attack,E,V,M,P0,P1,P2,P3\n"
                        "val_0000,clean,,0.1,0.05,0.06,0.7,0.1,0.1,0.1\n")
        rc = cli.main(["detect",
                       "--detector", os.path.join(cfg.out_dir, "detectors", "entropy.json"),
                       "--features", str(path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("segdetect: detect: ") and "old.csv" in err and "--force" in err

    def test_unknown_detector_file_errors(self, tmp_path, capsys):
        rc = cli.main(["detect", "--detector", str(tmp_path / "nope.json"),
                       "--features", str(tmp_path / "nope.csv")])
        assert rc == 1
        assert "segdetect: detect:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["detect", "--detector", "d.json", "--features", "f.csv", "--out", "run"],
        ["detect", "--detector", "d.json", "--features", "f.csv", "--config", "c.json"],
        ["detect", "--detector", "d.json", "--features", "f.csv", "--force"],
        ["report", "--seed", "1"],
        ["report", "--force"],
        ["evaluate", "--kappa", "0.5"],
    ])
    def test_command_refuses_a_flag_it_does_not_read(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(argv)
        assert exc.value.code == 2 and "unrecognized arguments" in capsys.readouterr().err

    def test_detect_reads_no_config(self, mini_run, monkeypatch, capsys):
        cfg, _ = mini_run
        monkeypatch.setattr(pipeline.ExperimentConfig, "from_dict", None)
        rc = cli.main(["detect",
                       "--detector", os.path.join(cfg.out_dir, "detectors", "entropy.json"),
                       "--features", os.path.join(cfg.out_dir, "features", "clean.csv")])
        assert rc == 0 and len(capsys.readouterr().out.splitlines()) == cfg.dataset.val_size

    def test_out_flag_replaces_the_config_files_out_dir(self, tmp_path):
        """--out goes into the document before it is checked, as --seed does,
        so a config file's own out_dir need not be valid."""
        path = tmp_path / "config.json"
        path.write_text('{"out_dir": null}')
        cfg = cli.load_config(cli.build_parser().parse_args(
            ["gen-data", "--config", str(path), "--out", str(tmp_path / "run")]))
        assert cfg.out_dir == str(tmp_path / "run")

    def test_seed_flag_overrides_config(self, tmp_path):
        from segdetect.cli import build_parser, load_config
        args = build_parser().parse_args(["gen-data", "--seed", "9",
                                          "--out", str(tmp_path)])
        cfg = load_config(args)
        assert cfg.seed == 9 and cfg.dataset.seed == 9 and cfg.train.seed == 9
        assert cfg.out_dir == str(tmp_path)

    def test_int_accepted_where_default_is_float(self):
        cfg = pipeline.ExperimentConfig.from_dict(
            {"train": {"lr": 1}, "attack_list": [{"kind": "ifgsm", "eps": 8, "alpha": 2}]})
        assert cfg.train.lr == 1

    def test_stage_overrides_merge(self, tmp_path):
        from segdetect.cli import build_parser, load_config
        ov = json.dumps({"dataset": {"noise_std": 3.0}, "folds": 2})
        args = build_parser().parse_args(["gen-data", "--stage-overrides", ov,
                                          "--out", str(tmp_path)])
        cfg = load_config(args)
        assert cfg.dataset.noise_std == 3.0 and cfg.folds == 2
        assert cfg.dataset.height == 64   # untouched defaults survive the merge


# A fresh run of this config takes a few seconds and passes the gradient check.
TINY = {"dataset": {"height": 32, "width": 32, "train_size": 30, "val_size": 40, "seed": 5},
        "train": {"epochs": 8, "seed": 5}, "attack_list": [{"kind": "fgsm", "eps": 8}],
        "detector_list": [{"kind": "entropy"}], "folds": 2, "seed": 5}


# TINY with every detector kind, lasso trained on the one attack.
TINY_ALL_DETECTORS = dict(TINY, train_attack="fgsm_e8", detector_list=[
    {"kind": "entropy"}, {"kind": "lasso"}, {"kind": "ocsvm"}, {"kind": "ellipse"}])


# TINY with one small spec of every attack family.
TINY_ALL_ATTACKS = dict(TINY, ssmm_train_size=4, attack_list=[
    {"kind": "fgsm", "eps": 8}, {"kind": "ifgsm", "eps": 4, "n_iter": 2},
    {"kind": "dnnm", "n_iter": 2}, {"kind": "ssmm", "n_iter": 2},
    {"kind": "patch", "height": 8, "width": 8, "n_iter": 2, "placements": 2}])


def run_cli(command, out, *extra, config=TINY):
    return cli.main([command, "--out", str(out), "--stage-overrides", json.dumps(config), *extra])


@pytest.mark.parametrize("dataset,classes", [
    ({"train_size": 1, "shapes_per_image": [1, 1], "seed": 1}, 3),
    ({"train_size": 10, "shapes_per_image": [0, 0]}, 1)], ids=["one-image", "no-shapes"])
def test_model_short_of_dataset_classes_fails_train_model(dataset, classes, tmp_path, capsys,
                                                         monkeypatch):
    config = dict(TINY, dataset=dict(TINY["dataset"], **dataset), train={"epochs": 1, "seed": 5})
    out = tmp_path / "run"
    for resumed in (False, True):
        assert run_cli("run-all", out, config=config) == 1
        assert capsys.readouterr().err == (
            f"segdetect: run-all: model class count {classes} (its largest training label + 1) "
            "differs from the dataset's 4\n")
        assert not (out / "gradcheck.json").exists()
        monkeypatch.setattr(pipeline, "train", lambda *a: pytest.fail("trained again"))


def test_report_refuses_a_stale_report(tmp_path, capsys):
    out = tmp_path / "run"
    assert run_cli("run-all", out) == 0
    # a fresh run of 9 epochs fails the gradient check, before any later unit
    assert run_cli("run-all", out, config=dict(TINY, train=dict(TINY["train"], epochs=9))) == 1
    capsys.readouterr()
    assert cli.main(["report", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "segdetect: report: stale report: keys.json differs from config.json for attack/fgsm_e8, "
        "extract-features/clean, extract-features/fgsm_e8, train-detector/entropy, evaluate\n")


@pytest.mark.parametrize("exists", [True, False], ids=["empty", "missing"])
def test_report_on_a_directory_without_a_run_fails_and_writes_nothing(exists, tmp_path, capsys):
    out = tmp_path / "run"
    if exists:
        out.mkdir()
    assert cli.main(["report", "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"segdetect: report: {out} holds no run\n"
    assert list(tmp_path.rglob("*")) == ([out] if exists else [])


@pytest.mark.parametrize("change,unit", [
    ({"attack_list": [{"kind": "ifgsm", "eps": 4, "n_iter": 1},
                      {"kind": "ifgsm", "eps": 4, "n_iter": 2}]}, "attack/ifgsm_e4"),
    ({"detector_list": [{"kind": "entropy"}, {"kind": "entropy"}]}, "train-detector/entropy"),
], ids=["attack", "detector"])
def test_two_specs_of_one_unit_fail_at_load(change, unit, tmp_path, capsys):
    assert run_cli("run-all", tmp_path / "run", config=dict(TINY, **change)) == 1
    assert capsys.readouterr().err == f"segdetect: run-all: two specs make the one unit {unit}\n"
    assert not (tmp_path / "run").exists()


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("user,expected", [
    ({}, ("1", "1", "1")),
    # a name the CLI once read in place of the standard ones
    ({"SEGDETECT_THREADS": "3"}, ("1", "1", "1")),
    ({"OPENBLAS_NUM_THREADS": "2"}, ("2", "1", "1")),
])
def test_cli_import_defaults_unset_blas_variables_to_one(user, expected):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS + ("SEGDETECT_THREADS",)}
    env.update(user, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = f"import os, segdetect.cli; print(*(os.environ[v] for v in {BLAS_VARS!r}))"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert tuple(out.split()) == expected


def test_blas_thread_count_keeps_run_bytes(tmp_path):
    """run-all writes the same bytes with 1 and with 2 BLAS threads."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    runs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads, PYTHONPATH=pythonpath)
        out = tmp_path / f"threads{threads}"
        subprocess.run([sys.executable, "-m", "segdetect.cli", "run-all", "--out", str(out),
                        "--stage-overrides", json.dumps(TINY_ALL_ATTACKS)],
                       env=env, check=True, capture_output=True)
        files = {p.relative_to(out).as_posix(): p.read_bytes()
                 for p in out.rglob("*") if p.is_file()}
        config = json.loads(files.pop("config.json"))
        assert config.pop("out_dir") == str(out)
        runs.append((files, config))
    one, two = runs
    assert {rel.split("/")[1] for rel in one[0] if rel.startswith("attacks/")} == {
        "fgsm_e8", "ifgsm_e4", "dnnm", "ssmm", "patch"}
    assert one[1] == two[1]
    assert sorted(one[0]) == sorted(two[0])
    for rel, data in one[0].items():
        assert data == two[0][rel], rel


# TINY_ALL_ATTACKS with the heatmaps, which the feature workers write.
TINY_HEATMAPS = dict(TINY_ALL_ATTACKS, export_heatmaps=True)


# TINY_ALL_ATTACKS with every detector kind, lasso trained on fgsm_e8.
TINY_ALL = dict(TINY_ALL_ATTACKS, train_attack="fgsm_e8",
                detector_list=TINY_ALL_DETECTORS["detector_list"])


# TINY_ALL with the heatmaps.
TINY_HEATMAPS_ALL = dict(TINY_ALL, export_heatmaps=True)


@pytest.mark.parametrize("config", [TINY_ALL, TINY_HEATMAPS], ids=["all", "heatmaps"])
def test_fresh_run_records_the_unit_keys(config, tmp_path):
    assert run_cli("run-all", tmp_path / "run", config=config) == 0
    keys = json.loads((tmp_path / "run" / "keys.json").read_text())
    assert keys == pipeline.unit_keys(pipeline.ExperimentConfig.from_dict(config))


@pytest.mark.parametrize("config", [TINY_ALL, TINY_HEATMAPS], ids=["all", "heatmaps"])
def test_upstream_unit_keys_are_pinned(config):
    """Existing run directories keep reusing their data, model, gradient
    check and attacks: these keys must not move."""
    keys = pipeline.unit_keys(pipeline.ExperimentConfig.from_dict(config))
    assert {unit: key for unit, key in keys.items() if unit.split("/")[0] in (
        "gen-data", "train-model", "gradcheck", "attack")} == {
        "gen-data": "a4c785ef3c2939e230015ac5b90e9d0e13d6e9d0ddacfd7c36d44b65139621bb",
        "train-model": "80916e5e37b57dbca49a9e86428e8c28955bbbd0573e2cc7645c644d1faf2c52",
        "gradcheck": "4f8f3073cf69ecadeb02cef2cd5c5f28a22f744f60b0317da3266f7990c56a7f",
        "attack/fgsm_e8": "3a93336ec368aac8dcb799044de158a2a1b20691a7fcb2af63324ce43d6b5288",
        "attack/ifgsm_e4": "434be2e2211d7df02232faf5c4df92887b09691cef6f930b378e343bbe78d85a",
        "attack/dnnm": "8cd396464fcd0e970f88824edc1755f97b18eb1489996b69b39bb1e3bda228ec",
        "attack/ssmm": "542f089809e551d91d54239b490384d580dacc58e11a71d1064ff2651f0d9cd0",
        "attack/patch": "0e93f8d3c6c660b1c356ae984275570ca069fd322a5c3dd83410f4297cd577c9",
    }


def test_worker_count_keeps_run_bytes(tmp_path, monkeypatch):
    """run-all writes the same bytes with 1 and with 2 image workers."""
    runs = []
    for n in (1, 2):
        monkeypatch.setattr(workers, "cpu_count", lambda n=n: n)
        out = tmp_path / f"workers{n}"
        assert run_cli("run-all", out, config=TINY_HEATMAPS) == 0
        runs.append((run_files(out), (out / "keys.json").read_bytes()))
    (files, keys), (files2, keys2) = runs
    assert {rel.split("/")[0] for rel in files} >= {"attacks", "features", "heatmaps"}
    assert keys == keys2
    assert sorted(files) == sorted(files2)
    for rel, data in files.items():
        assert data == files2[rel], rel


def test_run_forks_from_one_thread_and_reaps_its_workers(tmp_path, monkeypatch, forks):
    """Forking is safe because the package starts no thread: run-all on two
    CPUs forks its workers from a one-thread process, and waits for them all."""
    forked = forks(2)
    monkeypatch.setattr(threading.Thread, "start", lambda self: pytest.fail("started a thread"))
    assert run_cli("run-all", tmp_path / "run", config=TINY_HEATMAPS_ALL) == 0
    assert forked and threading.active_count() == 1


def test_one_cpu_affinity_keeps_run_bytes(tmp_path):
    """run-all restricted to one CPU by its affinity mask writes the bytes of
    run-all on the default mask."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get(
        "PYTHONPATH")])))
    one_cpu = {min(os.sched_getaffinity(0))}
    runs = []
    for name, preexec in (("default", None), ("one", lambda: os.sched_setaffinity(0, one_cpu))):
        out = tmp_path / name
        subprocess.run([sys.executable, "-m", "segdetect.cli", "run-all", "--out", str(out),
                        "--stage-overrides", json.dumps(TINY_HEATMAPS)],
                       env=env, preexec_fn=preexec, check=True, capture_output=True)
        runs.append(run_files(out))
    assert sorted(runs[0]) == sorted(runs[1])
    for rel, data in runs[0].items():
        assert data == runs[1][rel], rel


@pytest.fixture(scope="module")
def tiny_model_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("tiny") / "run"
    assert run_cli("train-model", out) == 0
    return out


class TestStageCommands:
    @pytest.mark.parametrize("command,line", [
        ("gen-data", "generated 30 train / 40 val samples in {out}/data"),
        ("train-model", "model written to {out}/model.ten"),
        ("gradcheck", "gradcheck passed=True frac_within="),
        ("attack", "ran 1 attacks over 40 images"),
        ("extract-features", "extracted features: clean=40, attacks=1"),
        ("train-detector", "trained detectors: entropy"),
        ("evaluate", "report written to {out}/report/report.csv"),
    ])
    def test_stage_command_on_fresh_dir(self, command, line, tmp_path, capsys):
        out = tmp_path / "run"
        assert run_cli(command, out) == 0
        assert capsys.readouterr().out.startswith(line.format(out=out))
        # the chain runs up to and including the command's stage, no further
        done = [os.path.exists(out / rel) for rel in (
            "data/manifest.json", "model.ten", "gradcheck.json", "attacks/fgsm_e8/attack.json",
            "features/fgsm_e8.csv", "detectors/entropy.json", "report/report.csv")]
        n = pipeline.STAGES.index(command) + 1
        assert done == [True] * n + [False] * (len(done) - n)
        assert (out / "config.json").exists()

    def test_stage_commands_in_turn_match_run_all(self, tmp_path):
        # every command reads its units back from their files, as run-all does
        for command in pipeline.STAGES:
            assert run_cli(command, tmp_path / "staged", config=TINY_ALL_DETECTORS) == 0
        assert run_cli("run-all", tmp_path / "all", config=TINY_ALL_DETECTORS) == 0
        for sub, names in (("detectors", ["ellipse.json", "entropy.json", "lasso.json",
                                          "ocsvm.json"]),
                           ("report", ["report.csv", "report.json"])):
            assert sorted(os.listdir(tmp_path / "all" / sub)) == names
            for name in names:
                rel = os.path.join(sub, name)
                assert ((tmp_path / "staged" / rel).read_bytes()
                        == (tmp_path / "all" / rel).read_bytes()), rel

    def test_recorded_failed_gradcheck_stops_attack(self, tiny_model_dir, tmp_path, capsys,
                                                    monkeypatch):
        out = tmp_path / "run"
        shutil.copytree(tiny_model_dir, out)
        grad_check_failing_once(monkeypatch)
        assert run_cli("gradcheck", out) == 1
        assert run_cli("attack", out) == 1
        assert "segdetect: attack: gradient check failed" in capsys.readouterr().err
        assert not (out / "attacks").exists()

    def test_failing_image_fails_its_stage(self, tiny_model_dir, tmp_path, capsys,
                                           monkeypatch, shared_log, reaped):
        out = tmp_path / "run"
        shutil.copytree(tiny_model_dir, out)
        monkeypatch.setattr(workers, "cpu_count", lambda: 2)
        (append, read), real = shared_log, attacks.fgsm

        def fgsm(model, sample, cfg):
            append(os.getpid(), sample.id)
            if sample.id == "val_0000":
                append(os.getpid(), "failed")
                raise AttackError("non-finite loss gradient")
            time.sleep(0.05)
            return real(model, sample, cfg)

        monkeypatch.setattr(attacks, "fgsm", fgsm)
        assert run_cli("attack", out) == 1
        assert capsys.readouterr().err.startswith(
            "segdetect: attack: non-finite loss gradient")
        keys = json.loads((out / "keys.json").read_text())
        assert "gradcheck" in keys and "attack/fgsm_e8" not in keys
        # one image per process started; the other 38 never did
        log = read()
        ran = [sid for _, sid in log if sid != "failed"]
        assert "val_0000" in ran and set(ran) <= {"val_0000", "val_0001"}
        after = [pid for pid, sid in log[log.index([str(os.getpid()), "failed"]):]
                 if sid != "failed"]
        assert len(after) == len(set(after))    # at most one image per process after the failure

    def test_interrupted_attack_reaps_its_workers(self, tiny_model_dir, tmp_path, monkeypatch,
                                                  shared_log, reaped):
        """Ctrl-C in the calling process amid an attack unit: each worker
        finishes at most the image it is on, and none is left."""
        out = tmp_path / "run"
        shutil.copytree(tiny_model_dir, out)
        monkeypatch.setattr(workers, "cpu_count", lambda: 2)
        (append, read), real, caller = shared_log, attacks.fgsm, os.getpid()

        def fgsm(model, sample, cfg):
            append(os.getpid(), sample.id)
            if os.getpid() == caller and sample.id == "val_0002":   # the caller's second image
                append(caller, "interrupted")
                raise KeyboardInterrupt
            time.sleep(0.05)
            return real(model, sample, cfg)

        monkeypatch.setattr(attacks, "fgsm", fgsm)
        with pytest.raises(KeyboardInterrupt):
            run_cli("attack", out)
        assert "attack/fgsm_e8" not in json.loads((out / "keys.json").read_text())
        log = read()
        after = [pid for pid, sid in log[log.index([str(caller), "interrupted"]):]
                 if sid != "interrupted"]
        assert after == [] or len(after) == 1 and after[0] != str(caller)

    def test_bad_lasso_value_fails_its_stage(self, tiny_model_dir, tmp_path, capsys):
        out = tmp_path / "run"
        shutil.copytree(tiny_model_dir, out)
        config = dict(TINY, train_attack="fgsm_e8", detector_list=[{"kind": "lasso", "lam": -1.0}])
        assert run_cli("train-detector", out, config=config) == 1
        err = capsys.readouterr().err
        assert err.startswith(
            "segdetect: train-detector: lasso key lam: must be finite and >= 0, got -1.0")
        assert not (out / "detectors" / "lasso.json").exists()

    def test_each_unit_is_made_once_in_table_order(self, tiny_model_dir, tmp_path, monkeypatch):
        """run-all hands _unit every unit of unit_keys once, in the table's order."""
        out = tmp_path / "run"
        shutil.copytree(tiny_model_dir, out)
        config = TINY_HEATMAPS_ALL
        names, real = [], pipeline._unit
        monkeypatch.setattr(pipeline, "_unit", lambda cfg, name, key, compute: (
            names.append(name) or real(cfg, name, key, compute)))
        assert run_cli("run-all", out, config=config) == 0
        assert names == list(pipeline.unit_keys(pipeline.ExperimentConfig.from_dict(config)))

    def test_attack_force_recomputes_only_attacks(self, tiny_model_dir, tmp_path):
        out = tmp_path / "run"
        shutil.copytree(tiny_model_dir, out)
        assert run_cli("attack", out) == 0
        model_bytes = (out / "model.ten").read_bytes()
        meta = out / "attacks" / "fgsm_e8" / "attack.json"
        meta.write_text("{}")
        assert run_cli("attack", out, "--force") == 0
        assert (out / "model.ten").read_bytes() == model_bytes
        assert json.loads(meta.read_text())["config"]["eps"] == 8


def run_files(out):
    """{relative path: bytes} of a run directory, less config.json and keys.json."""
    return {p.relative_to(out).as_posix(): p.read_bytes() for p in out.rglob("*")
            if p.is_file() and p.name not in ("config.json", "keys.json")}


# TINY with 80 validation images, so that 4 folds keep 20 clean scores each.
TINY_80 = dict(TINY, dataset=dict(TINY["dataset"], val_size=80))


@pytest.fixture(scope="module")
def tiny_80_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("tiny80") / "run"
    assert run_cli("run-all", out, config=TINY_80) == 0
    return out


# The functions whose calls show which units a resume recomputes.
UNIT_WORK = {"generate_dataset": synthdata, "train": pipeline, "grad_check": pipeline,
             "fgsm": attacks, "ifgsm": attacks, "feature_vector": uncertainty,
             "export_entropy_heatmap": pipeline, "save_detector": detectors,
             "cross_validate": metrics}


def count_calls(monkeypatch, work):
    """{name: calls} of each function `name` of module `work[name]`, counted
    from now on."""
    calls = dict.fromkeys(work, 0)
    for name, module in work.items():
        def counted(*args, _name=name, _real=getattr(module, name), **kw):
            calls[_name] += 1
            return _real(*args, **kw)
        monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("change,recomputed", [
    # a fresh run of this config fails the gradient check
    ({"train": dict(TINY["train"], epochs=9)}, {"train", "grad_check"}),
    ({"attack_list": TINY["attack_list"] + [{"kind": "ifgsm", "eps": 4, "n_iter": 2}]},
     {"ifgsm", "feature_vector", "cross_validate"}),
    ({"detector_list": TINY["detector_list"] + [{"kind": "ellipse"}]},
     {"save_detector", "cross_validate"}),
    ({"export_heatmaps": True}, {"export_entropy_heatmap"}),
    ({"dataset": dict(TINY_80["dataset"], noise_std=20.0)},
     set(UNIT_WORK) - {"ifgsm", "export_entropy_heatmap"}),
    ({"folds": 4}, {"cross_validate"}),
    ({"dataset": dict(TINY_80["dataset"], val_size=40)},
     set(UNIT_WORK) - {"ifgsm", "export_entropy_heatmap"}),
    ({"attack_list": []}, set()),
], ids=["epochs", "attack", "detector", "heatmaps", "dataset", "folds", "val_size",
        "no_attacks"])
def test_resume_under_changed_config_equals_fresh_run(change, recomputed, tiny_80_run, tmp_path,
                                                      monkeypatch):
    config = dict(TINY_80, **change)
    fresh, resumed = tmp_path / "fresh", tmp_path / "resumed"
    rc = run_cli("run-all", fresh, config=config)
    shutil.copytree(tiny_80_run, resumed)
    calls = count_calls(monkeypatch, UNIT_WORK)
    assert run_cli("run-all", resumed, config=config) == rc
    assert {name for name, n in calls.items() if n} == recomputed
    files, fresh_files = run_files(resumed), run_files(fresh)
    # when the gradient check stops both runs, the later stages' old files stay
    assert files.items() >= fresh_files.items() if rc else files == fresh_files
    if not rc:
        assert (resumed / "keys.json").read_bytes() == (fresh / "keys.json").read_bytes()


def test_attack_force_forgets_the_later_units_with_their_files(tiny_80_run, tmp_path):
    """attack --force, which stops after the attack stage, leaves no key of a
    later stage, and no file that is not one recorded unit's."""
    out = tmp_path / "run"
    shutil.copytree(tiny_80_run, out)
    assert run_cli("attack", out, "--force", config=TINY_80) == 0
    keys = pipeline._keys(str(out))
    assert {unit.split("/")[0] for unit in keys} == set(pipeline.STAGES[:4])
    owned = file_owners(str(out))
    assert {path: names for path, names in owned.items() if len(names) != 1} == {}
    assert {names[0] for names in owned.values()} == set(keys)


def test_attack_force_then_run_all_rewrites_downstream(tiny_80_run, tmp_path):
    out = tmp_path / "run"
    shutil.copytree(tiny_80_run, out)
    assert run_cli("attack", out, "--force", config=TINY_80) == 0
    for rel in ("features/fgsm_e8.csv", "report/report.csv"):
        (out / rel).write_text("stale")
    assert run_cli("run-all", out, config=TINY_80) == 0
    assert run_files(out) == run_files(tiny_80_run)


def test_unit_that_raised_midway_is_recomputed(tiny_80_run, tmp_path, monkeypatch):
    out = tmp_path / "run"
    real = uncertainty.write_features

    def write_then_fail(path, feats):
        real(path, feats[:1])
        raise OSError("disk full")

    monkeypatch.setattr(uncertainty, "write_features", write_then_fail)
    assert run_cli("run-all", out, config=TINY_80) == 1
    monkeypatch.setattr(uncertainty, "write_features", real)
    assert run_cli("run-all", out, config=TINY_80) == 0
    assert run_files(out) == run_files(tiny_80_run)


@pytest.mark.parametrize("before,after", [
    (TINY_ALL_ATTACKS, dict(TINY_ALL_ATTACKS, attack_list=TINY["attack_list"])),
    (TINY_HEATMAPS, dict(TINY_HEATMAPS, attack_list=TINY["attack_list"])),
    (dict(TINY_80, export_heatmaps=True), dict(TINY, export_heatmaps=True)),
], ids=["attacks", "heatmaps", "val_size"])
def test_run_under_a_smaller_config_equals_fresh_run(before, after, tmp_path):
    """The units the config dropped, and the images it no longer has, are removed."""
    fresh, resumed = tmp_path / "fresh", tmp_path / "resumed"
    assert run_cli("run-all", fresh, config=after) == 0
    assert run_cli("run-all", resumed, config=before) == 0
    assert run_cli("run-all", resumed, config=after) == 0
    assert run_files(resumed) == run_files(fresh)
    assert (resumed / "keys.json").read_bytes() == (fresh / "keys.json").read_bytes()


@pytest.mark.parametrize("unit", ["attack/../../outside", "extract-features/heatmaps/..",
                                  "bogus/unit"])
def test_unknown_recorded_unit_fails_and_deletes_nothing(unit, tiny_model_dir, tmp_path, capsys):
    out, outside = tmp_path / "run", tmp_path / "outside"
    shutil.copytree(tiny_model_dir, out)
    for path in (outside / "keep", out / "attacks" / "ifgsm_e4" / "attack.json"):
        path.parent.mkdir(parents=True)
        path.write_text("keep")
    keys = json.loads((out / "keys.json").read_text())
    # a stale unit, which would be removed, and the unknown one
    (out / "keys.json").write_text(json.dumps(dict(keys, **{"attack/ifgsm_e4": "0", unit: "0"})))
    before = run_files(out), (out / "keys.json").read_bytes()
    assert run_cli("run-all", out) == 1
    assert capsys.readouterr().err == f"segdetect: run-all: unknown unit {unit!r}\n"
    assert (run_files(out), (out / "keys.json").read_bytes()) == before
    assert (outside / "keep").read_text() == "keep"


def tiny_config(out, **change):
    return dataclasses.replace(pipeline.ExperimentConfig.from_dict(dict(TINY, **change)),
                               out_dir=str(out))


def test_second_run_on_a_running_directory_fails_and_the_first_finishes_unmixed(
        tiny_model_dir, tmp_path, capsys):
    """Run B on run A's directory, between A's gradient check and its attacks,
    fails at once and touches nothing; A then finishes as a fresh run of A."""
    out, fresh = tmp_path / "run", tmp_path / "fresh"
    shutil.copytree(tiny_model_dir, out)
    stages = pipeline.run_stages(tiny_config(out))
    assert [next(stages)[0] for _ in range(3)] == ["gen-data", "train-model", "gradcheck"]
    before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
    run_b = tiny_config(out, dataset=dict(TINY["dataset"], seed=7))
    with pytest.raises(InputError, match=f"^{out} is in use by another run$"):
        pipeline.run_pipeline(run_b)
    assert run_cli("run-all", out, config=dict(TINY, seed=7)) == 1
    assert capsys.readouterr().err == f"segdetect: run-all: {out} is in use by another run\n"
    assert run_cli("report", out) == 1
    assert capsys.readouterr().err == f"segdetect: report: {out} is in use by another run\n"
    assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before
    assert [name for name, _ in stages] == ["attack", "extract-features", "train-detector",
                                            "evaluate"]
    assert run_cli("run-all", fresh) == 0
    assert run_files(out) == run_files(fresh)
    assert (out / "keys.json").read_bytes() == (fresh / "keys.json").read_bytes()
    assert run_cli("report", out) == 0    # a shared lock, once no run holds the directory


def test_a_forked_workers_exit_leaves_the_lock_held(tmp_path, monkeypatch):
    monkeypatch.setattr(workers, "cpu_count", lambda: 2)
    holder = pipeline.lock_run(str(tmp_path))
    with workers.forked_map(lambda arg, item: os.getpid(), 2) as run:
        assert len(set(run(None, range(2)))) == 2    # a worker ran, and has ended
    with pytest.raises(InputError, match="in use by another run"):
        pipeline.lock_run(str(tmp_path), shared=True)
    holder.close()
    pipeline.lock_run(str(tmp_path)).close()


def test_a_closed_or_killed_holder_releases_the_lock(tmp_path):
    out = tmp_path / "run"
    stages = pipeline.run_stages(dataclasses.replace(
        pipeline.ExperimentConfig(dataset=synthdata.DatasetConfig(
            height=32, width=32, train_size=2, val_size=2), attack_list=[]), out_dir=str(out)))
    assert next(stages)[0] == "gen-data"
    with pytest.raises(InputError, match="in use by another run"):
        pipeline.lock_run(str(out))
    stages.close()
    pipeline.lock_run(str(out)).close()

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        src, os.environ.get("PYTHONPATH")])))
    code = ("import sys; from segdetect import pipeline; lock = pipeline.lock_run(sys.argv[1]); "
            "print('locked', flush=True); sys.stdin.read()")
    holder = subprocess.Popen([sys.executable, "-c", code, str(out)], env=env, text=True,
                              stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    try:
        assert holder.stdout.readline() == "locked\n"
        with pytest.raises(InputError, match="in use by another run"):
            pipeline.lock_run(str(out))
    finally:
        holder.kill()
        holder.wait()
    pipeline.lock_run(str(out)).close()


def test_a_config_failing_a_spec_check_leaves_a_finished_run_as_it_was(tiny_model_dir, tmp_path,
                                                                        capsys):
    """A config built in code (no from_dict) whose patch spec does not fit its
    images raises before it writes config.json, locks or makes anything."""
    out = tmp_path / "run"
    shutil.copytree(tiny_model_dir, out)
    assert run_cli("run-all", out) == 0
    capsys.readouterr()
    assert run_cli("report", out) == 0
    report = capsys.readouterr().out
    before = {p: p.read_bytes() if p.is_file() else None for p in out.rglob("*")}
    bad = pipeline.ExperimentConfig(dataset=synthdata.DatasetConfig(height=40, width=40),
                                    attack_list=[{"kind": "patch"}], out_dir=str(out))
    with pytest.raises(InputError, match="^patch key height: must be <= the image height 40, "
                                         "got 48$"):
        pipeline.run_pipeline(bad)
    assert {p: p.read_bytes() if p.is_file() else None for p in out.rglob("*")} == before
    assert run_cli("report", out) == 0
    assert capsys.readouterr().out == report


# Changes to TINY (40 validation images) that no config may hold; a section's
# changes are to some of its keys.
BAD_RUNS = {"folds-1": {"folds": 1}, "folds-3": {"folds": 3}, "folds-2.5": {"folds": 2.5},
            "export_heatmaps-no": {"export_heatmaps": "no"}, "train_attack-3": {"train_attack": 3},
            "attack_list-str": {"attack_list": "fgsm"}, "out_dir-None": {"out_dir": None},
            "dataset.height-31": {"dataset": {"height": 31}},
            "dataset.hidden_class-9": {"dataset": {"hidden_class": 9}}}


@pytest.mark.parametrize("change", BAD_RUNS.values(), ids=BAD_RUNS)
def test_a_config_built_in_code_fails_as_its_file_does(change, tmp_path):
    """run_pipeline of the config built in code, without from_dict, and of a
    good config changed after it was built, raises the message from_dict gives
    its document, before out_dir is made."""
    good = {**TINY, "out_dir": str(tmp_path / "run")}
    doc = {**good, **{key: {**good[key], **value} if isinstance(value, dict) else value
                      for key, value in change.items()}}
    with pytest.raises(InputError) as loaded:
        pipeline.ExperimentConfig.from_dict(doc)
    sections = {"dataset": synthdata.DatasetConfig, "train": TrainConfig}
    with pytest.raises(InputError) as built:
        pipeline.run_pipeline(pipeline.ExperimentConfig(**{
            key: sections[key](**value) if key in sections else value for key, value in doc.items()}))
    cfg = pipeline.ExperimentConfig.from_dict(good)
    for key, value in change.items():
        if isinstance(value, dict):
            for field, v in value.items():
                setattr(getattr(cfg, key), field, v)
        else:
            setattr(cfg, key, value)
    with pytest.raises(InputError) as changed:
        pipeline.run_pipeline(cfg)
    assert str(built.value) == str(changed.value) == str(loaded.value)
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("section,config", [("dataset", synthdata.DatasetConfig),
                                            ("train", TrainConfig)])
def test_a_section_given_as_a_dict_in_code_names_its_config(section, config):
    """A dict where a nested config belongs, built or set in code, is named
    against the config's dataclass; a file's object is built into one."""
    message = f"^config key {section}: expected {config.__name__}, got dict$"
    with pytest.raises(InputError, match=message):
        pipeline.ExperimentConfig(**{section: {"seed": 1}})
    cfg = pipeline.ExperimentConfig()
    setattr(cfg, section, {"seed": 1})
    with pytest.raises(InputError, match=message):
        pipeline.check_run(cfg)


def test_each_stage_reads_the_unit_table_once(tmp_path, monkeypatch):
    """A run builds the unit table once to check the config and once per stage:
    fresh, resumed, forced from the attack stage and as `segdetect run-all`;
    reading the report builds it once."""
    cfg = dataclasses.replace(pipeline.ExperimentConfig.from_dict(TINY_ALL),
                              out_dir=str(tmp_path / "run"))
    builds, real = [], pipeline._units
    monkeypatch.setattr(pipeline, "_units", lambda *args: builds.append(args) or real(*args))
    counts = []
    for force in (None, None, "attack"):
        builds.clear()
        for _ in pipeline.run_stages(cfg, force):
            pass
        counts.append(len(builds))
    builds.clear()
    assert run_cli("run-all", cfg.out_dir, config=TINY_ALL) == 0
    counts.append(len(builds))
    assert max(counts) <= 1 + len(pipeline.STAGES), counts
    builds.clear()
    pipeline.read_report(cfg.out_dir)
    assert len(builds) == 1
