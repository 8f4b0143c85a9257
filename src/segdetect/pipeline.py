"""End-to-end experiment pipeline with resumable on-disk stages.

Stage order (STAGES, chained once in run_stages): gen-data -> train-model ->
gradcheck -> attack -> extract-features -> train-detector -> evaluate. Every
stage is a pure function of its inputs, the config and the seed. Its outputs
come in units (the stage, or one attack, feature table, heatmap set or
detector of it), declared once with their keys in _units; each stage loops over
its own, and _unit hands it their files, recomputed unless keys.json has the key.
"""

import fcntl
import hashlib
import json
import os
import shutil
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import attacks, detectors, metrics, synthdata, tensorio, uncertainty
from .errors import Config, InputError, at_least, build, check, check_object, ruled
from .model import TrainConfig, grad_check, load_model, predict, save_model, train
from .model import predicted_labels  # noqa: F401 - a binding the benchmark's tracer wraps
from .synthdata import DatasetConfig
from .workers import map_items

STAGES = ("gen-data", "train-model", "gradcheck", "attack", "extract-features",
          "train-detector", "evaluate")
CONFIG_FILE, KEYS_FILE, LOCK_FILE = "config.json", "keys.json", "run.lock"   # in no unit


def export_entropy_heatmap(probs, path):
    """Grayscale 8-bit PGM of the per-pixel entropy, scaled by 255 / ln C."""
    maps = uncertainty.dispersion_maps(probs)
    ln_c = np.log(probs.shape[2])
    # round half up
    gray = np.floor(255.0 * maps.entropy / ln_c + 0.5).clip(0, 255).astype(np.uint8)
    h, w = gray.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(gray.tobytes())


def default_attack_list():
    specs = []
    for eps in (4, 8, 16):
        for targeted in (False, True):
            specs.append({"kind": "fgsm", "eps": eps, "targeted": targeted})
            specs.append({"kind": "ifgsm", "eps": eps, "targeted": targeted})
    specs.append({"kind": "ifgsm", "eps": 2, "targeted": True})  # detector training attack
    specs.append({"kind": "ssmm"})
    specs.append({"kind": "dnnm"})
    specs.append({"kind": "patch"})
    return specs


@dataclass
class ExperimentConfig(Config, section="config"):
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    attack_list: list = field(default_factory=default_attack_list)
    detector_list: list = field(default_factory=lambda: [
        {"kind": "entropy"}, {"kind": "lasso"}, {"kind": "ocsvm"}, {"kind": "ellipse"},
    ])
    train_attack: str = "ifgsm_ll_e2"
    folds: int = 5
    seed: int = ruled(0, at_least(0))
    out_dir: str = "runs/default"
    export_heatmaps: bool = False
    ssmm_train_size: int = ruled(20, at_least(1))

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, d):
        """The config of JSON object d (errors.build), checked whole (check_run),
        so that bad config fails before any stage runs."""
        cfg = build(cls, d, "config")
        check_run(cfg)
        return cfg


def _spec_params(spec, section):
    """(kind, the other keys) of an attack or detector spec."""
    check_object(spec, f"{section} item {spec!r}")
    return spec.get("kind"), {k: v for k, v in spec.items() if k != "kind"}


def _keys(out_dir, keys=None):
    """{unit: key} that out_dir's keys.json records ({} without one); given `keys`,
    replaces the file whole with them instead, so a crash leaves either record."""
    path = os.path.join(out_dir, KEYS_FILE)
    if keys is None:
        return tensorio.read_json(path) if os.path.exists(path) else {}
    tensorio.write_json(path + ".tmp", keys)
    os.replace(path + ".tmp", path)


def _units(cfg, stage=None):
    """{unit: (key, what its stage needs)} under `cfg`, in run order, of every
    stage or of `stage`; a key is a SHA-256 over the config the unit reads and
    the keys of the units it reads from. Raises InputError on a bad spec, or
    when two specs make one unit."""
    units = {}

    def add(name, reads, upstream=(), needs=None):
        if name in units:
            raise InputError(f"two specs make the one unit {name}")
        blob = json.dumps([reads, [units[unit][0] for unit in upstream]], sort_keys=True)
        units[name] = hashlib.sha256(blob.encode()).hexdigest(), needs

    model = ("gen-data", "train-model")
    add("gen-data", asdict(cfg.dataset))
    add("train-model", asdict(cfg.train), model[:1])
    add("gradcheck", cfg.seed, model)
    specs = [(*_attack_spec(cfg, spec), spec["kind"]) for spec in cfg.attack_list]
    for run, acfg, tag, kind in specs:
        add(f"attack/{tag}", [asdict(acfg), cfg.seed, cfg.ssmm_train_size], model, (kind, run, acfg))
    tags = sorted(tag for _, _, tag, _ in specs)
    for name in ["clean", *tags]:
        source = f"attack/{name}" if name != "clean" else "gen-data"
        images = model + ((source,) if name != "clean" else ())
        add(f"extract-features/{name}", None, images, source)
        if cfg.export_heatmaps:
            add(f"extract-features/heatmaps/{name}", None, images, source)
    detector_specs = _detector_specs(cfg, tags)
    for kind, hyper, adv in detector_specs:
        add(f"train-detector/{kind}", [hyper, adv],
            [f"extract-features/{name}" for name in ["clean", *adv]], (kind, hyper, adv))
    add("evaluate", [cfg.detector_list, cfg.train_attack, cfg.folds, cfg.seed],
        [f"extract-features/{name}" for name in ["clean", *tags]], detector_specs)
    return {unit: entry for unit, entry in units.items() if stage in (None, unit.split("/")[0])}


def unit_keys(cfg):
    """{unit: key} of the table _units(cfg)."""
    return {unit: key for unit, (key, _) in _units(cfg).items()}


def check_run(cfg):
    """unit_keys(cfg), which checks every spec, once the fold rule holds as
    well; raises InputError on what no single field shows. The config and its
    sections are checked first as they stand, fields set since they were built too."""
    for config in (cfg, cfg.dataset, cfg.train):
        config.__post_init__()
    keys = unit_keys(cfg)
    if cfg.attack_list and cfg.detector_list:
        val, least = cfg.dataset.val_size, metrics.MIN_CLEAN_SCORES
        check("config", [("folds", cfg.folds, (lambda v: 2 <= v <= val // least,
            f">= 2, with {least} of the {val} validation images per fold"))])
    return keys


def read_report(out_dir):
    """out_dir's report.csv, read under a shared lock; raises if stale under config.json."""
    if not os.path.exists(os.path.join(out_dir, KEYS_FILE)):
        raise InputError(f"{out_dir} holds no run")
    with lock_run(out_dir, shared=True):
        doc = tensorio.read_json(os.path.join(out_dir, CONFIG_FILE))
        recorded, keys = _keys(out_dir), check_run(build(ExperimentConfig, doc, "config"))
        if recorded.get("evaluate") != keys["evaluate"]:
            stale = ", ".join(unit for unit, key in keys.items() if recorded.get(unit) != key)
            raise InputError(f"stale report: keys.json differs from config.json for {stale}")
        with open(unit_outputs(out_dir, "evaluate")[0]) as fh:
            return fh.read()


# A unit is its kind, plus one path component (a tag, table or detector) when "{}"
# stands for it in the kind's paths; a unit's own extra files sit under its name.
# A path ending "/" is a directory.
_OUTPUTS = {"gen-data": ["data/", "data/images/", "data/labels/"],
            "train-model": ["model.ten"], "gradcheck": ["gradcheck.json"],
            "attack": ["attacks/{}/", "attacks/{}/images/"],
            "attack/ssmm": ["ssmm_target.ten", "ssmm_noise.ten"], "attack/patch": ["patch.ten"],
            "extract-features": ["features/{}.csv"], "extract-features/heatmaps": ["heatmaps/{}/"],
            "train-detector": ["detectors/{}.json"],
            "evaluate": ["report/report.csv", "report/report.json"]}


def unit_outputs(out_dir, name):
    """The paths unit `name` writes under out_dir, from the name alone: a stale
    unit is not in the config. Raises InputError on a name no stage makes."""
    kind, _, part = name.rpartition("/")
    if "{}" not in "".join(_OUTPUTS.get(kind, [])) or part in ("", ".", ".."):
        kind, part = name, ""   # then the name is a kind that takes no component
        if "{}" in "".join(_OUTPUTS.get(kind, ["{}"])):
            raise InputError(f"unknown unit {name!r}")
    return [os.path.join(out_dir, path.format(part))
            for path in _OUTPUTS[kind] + (_OUTPUTS.get(name, []) if part else [])]


def _drop(out_dir, units):
    """Forgets `units`, the one way a recorded unit is forgotten: drops their
    keys, then their files; an unknown name raises first."""
    paths = [path for unit in units for path in unit_outputs(out_dir, unit)]
    keys = _keys(out_dir)
    if set(units) & set(keys):
        _keys(out_dir, {unit: key for unit, key in keys.items() if unit not in units})
    for path in paths:
        if os.path.isdir(path):
            shutil.rmtree(path)
        elif os.path.lexists(path):
            os.remove(path)


def _unit(cfg, name, key, compute):
    """The paths unit_outputs gives unit `name`. Unless keys.json records
    `key`, its key in the table its stage read, first drops the unit, makes
    its directories, runs compute(*paths) and records the key."""
    paths = unit_outputs(cfg.out_dir, name)
    if _keys(cfg.out_dir).get(name) != key:
        _drop(cfg.out_dir, [name])
        for path in paths:
            os.makedirs(os.path.dirname(path), exist_ok=True)
        compute(*paths)
        _keys(cfg.out_dir, {**_keys(cfg.out_dir), name: key})
    return paths


def stage_gen_data(cfg):
    """Draws the dataset and writes each sample as uint8 images/<id>.ten and
    int32 labels/<id>.ten, then manifest.json; returns (train, val) as read
    back by the manifest's ids."""
    def gen_data(data_dir, images, labels):
        train_set, val_set = synthdata.generate_dataset(cfg.dataset)
        for s in train_set + val_set:
            tensorio.save_tensor(os.path.join(images, f"{s.id}.ten"), s.image.astype(np.uint8))
            tensorio.save_tensor(os.path.join(labels, f"{s.id}.ten"), s.labels)
        tensorio.write_json(os.path.join(data_dir, "manifest.json"), {
            "config": asdict(cfg.dataset), "train_ids": [s.id for s in train_set],
            "val_ids": [s.id for s in val_set]})

    def load(sid):
        return synthdata.SegSample(
            tensorio.load_tensor(os.path.join(images, f"{sid}.ten")).astype(np.float32),
            tensorio.load_tensor(os.path.join(labels, f"{sid}.ten")), sid)

    key, _ = _units(cfg, "gen-data")["gen-data"]
    data_dir, images, labels = _unit(cfg, "gen-data", key, gen_data)
    ids = tensorio.read_json(os.path.join(data_dir, "manifest.json"))
    return [load(sid) for sid in ids["train_ids"]], [load(sid) for sid in ids["val_ids"]]


def stage_train_model(cfg, train_set):
    """The trained model; raises InputError, also on a resumed run, unless it
    has the dataset's classes (train sizes its head by the training labels)."""
    key, _ = _units(cfg, "train-model")["train-model"]
    model = load_model(*_unit(cfg, "train-model", key, lambda path: save_model(
        train([(s.image, s.labels) for s in train_set], cfg.train), path)))
    if model.num_classes != cfg.dataset.num_classes:
        raise InputError(f"model class count {model.num_classes} (its largest training label "
                         f"+ 1) differs from the dataset's {cfg.dataset.num_classes}")
    return model


def stage_gradcheck(cfg, model, val_set):
    """Finite-difference gradient check; raises InputError when it failed,
    also when the failure was recorded by an earlier run."""
    key, _ = _units(cfg, "gradcheck")["gradcheck"]
    path, = _unit(cfg, "gradcheck", key, lambda path: tensorio.write_json(
        path, asdict(grad_check(model, val_set[0].image, val_set[0].labels, seed=cfg.seed))))
    doc = tensorio.read_json(path)
    if not doc["passed"]:
        raise InputError("gradient check failed; see gradcheck.json")
    return doc


def _ifgsm_config(cfg, acfg, params):
    return acfg if "n_iter" in params else replace(acfg, n_iter=attacks.iteration_count(acfg.eps))


def _dnnm_config(cfg, dcfg, params):
    if "hidden_class" not in params:
        dcfg = replace(dcfg, hidden_class=cfg.dataset.hidden_class)
    synthdata.check_hidden_class("dnnm", dcfg.hidden_class, cfg.dataset.num_classes)
    return dcfg


def _patch_config(cfg, pcfg, params):
    if "seed" not in params:
        pcfg = replace(pcfg, seed=cfg.seed)
    attacks.check_patch_fits(pcfg, cfg.dataset.height, cfg.dataset.width)
    return pcfg


def sign_tag(kind, spec):
    """`<kind>_e<eps>`, or `<kind>_ll_e<eps>` when the spec targets the least likely class."""
    return f"{kind}{'_ll' if spec.get('targeted') else ''}_e{spec['eps']:g}"


def _per_image(attack):
    """The runner of attacks.<attack> (looked up per call) on one validation image."""
    return lambda cfg, model, acfg, train_set, val_set: (
        lambda s: getattr(attacks, attack)(model, s, acfg), {})


def _run_ssmm(cfg, model, scfg, train_set, val_set, target_path, noise_path):
    rng = np.random.default_rng([cfg.seed, 101])
    subset = train_set[:cfg.ssmm_train_size]
    candidates = train_set[cfg.ssmm_train_size:] or train_set
    target = attacks.pick_ssmm_target(candidates, rng)
    noise = attacks.ssmm_train(model, subset, target, scfg)
    tensorio.save_tensor(target_path, target)
    tensorio.save_tensor(noise_path, noise)
    return lambda s: attacks.apply_universal(s.image, noise), {}


def _run_patch(cfg, model, pcfg, train_set, val_set, patch_path):
    patch = attacks.patch_attack(model, train_set[:cfg.ssmm_train_size], pcfg)
    tensorio.save_tensor(patch_path, patch)
    rng = np.random.default_rng([cfg.seed, 202])
    windows = {s.id: [int(rng.integers(0, s.image.shape[0] - pcfg.height + 1)),
                      int(rng.integers(0, s.image.shape[1] - pcfg.width + 1))] for s in val_set}
    return lambda s: attacks.apply_patch(s.image, patch, *windows[s.id]), {"windows": windows}


# kind -> (config dataclass, config rule, runner, tag rule, config fields the
# runner sets itself; the spec keys are the other fields). The config rule
# maps (cfg, the config errors.build made of the spec, the spec's keys) to
# the attack config, the run's defaults set for the keys the spec leaves out;
# the runner (cfg, model, attack config, train_set, val_set, then the
# paths of the unit's own files in _OUTPUTS, if any) to the attack of one
# validation sample (sample -> float32 image) and its extra attack.json
# entries; the tag rule (kind, params) to the output tag (none: the kind).
ATTACKS = {
    "fgsm": (attacks.AttackConfig, lambda cfg, acfg, p: acfg, _per_image("fgsm"), sign_tag,
             ("alpha", "n_iter")),
    "ifgsm": (attacks.AttackConfig, _ifgsm_config, _per_image("ifgsm"), sign_tag, ()),
    "ssmm": (attacks.SsmmConfig, lambda cfg, scfg, p: scfg, _run_ssmm, None, ()),
    "dnnm": (attacks.DnnmConfig, _dnnm_config, _per_image("dnnm_attack"), None, ()),
    "patch": (attacks.PatchConfig, _patch_config, _run_patch, None, ()),
}


def _attack_spec(cfg, spec):
    """(runner, attack config, tag) of an attack spec under `cfg`; raises
    InputError on an unknown kind, an unknown or missing key or a bad value."""
    kind, params = _spec_params(spec, "attack_list")
    if kind not in ATTACKS:
        raise InputError(f"unknown attack kind {kind!r}")
    config, make, run, tag, fixed = ATTACKS[kind]
    acfg = make(cfg, build(config, params, f"attack {kind!r}", fixed), params)
    try:
        return run, acfg, tag(kind, params) if tag else kind
    except KeyError as exc:
        raise InputError(f"attack {kind!r}: missing key {exc}") from None


def stage_attack(cfg, model, train_set, val_set):
    """Runs each configured attack on the validation split one image at a time:
    writes it as uint8 images/<id>.ten, its l-inf norm to attack.json. Returns the tags."""
    units = _units(cfg, "attack")
    for unit, (key, (kind, run, acfg)) in units.items():
        def attack(adir, idir, *files):
            attacked, extras = run(cfg, model, acfg, train_set, val_set, *files)

            def write(s):
                image = attacked(s)
                tensorio.save_tensor(os.path.join(idir, f"{s.id}.ten"), image.astype(np.uint8))
                return s.id, float(np.abs(image - s.image).max())

            tensorio.write_json(os.path.join(adir, "attack.json"), dict(
                config=dict(asdict(acfg), kind=kind), ids=[s.id for s in val_set],
                linf_norms=dict(map_items(write, val_set)), **extras))

        _unit(cfg, unit, key, attack)
    return [unit.split("/")[1] for unit in units]


def stage_extract_features(cfg, model, val_set):
    """Each table's features, and heatmaps, from its source unit's images, one at a time."""
    feats = {}
    for unit, (key, source) in _units(cfg, "extract-features").items():
        name, clean = unit.split("/")[-1], source == "gen-data"
        images = unit_outputs(cfg.out_dir, source)[1]

        def predicted(s):   # predict casts the uint8 image to float32, exactly
            return predict(model, tensorio.load_tensor(os.path.join(images, f"{s.id}.ten")))

        def features(s):
            probs = predicted(s)
            f = uncertainty.feature_vector(probs, image_id=s.id, label="clean" if clean else "adv",
                                           attack="" if clean else name)
            f.apsr = metrics.apsr(np.argmax(probs, axis=2), s.labels)
            return f

        if unit.startswith("extract-features/heatmaps/"):
            _unit(cfg, unit, key, lambda hdir: map_items(
                lambda s: export_entropy_heatmap(predicted(s), os.path.join(hdir, f"{s.id}.pgm")),
                val_set))
        else:
            path, = _unit(cfg, unit, key, lambda path: uncertainty.write_features(
                path, map_items(features, val_set)))
            feats[name] = uncertainty.read_features(path)
    return feats.pop("clean"), feats


def _detector_specs(cfg, tags):
    """(kind, hyperparameters, training attacks) of each configured detector
    whose training attacks are among `tags`; its deployable and per-fold models
    train on them. Raises InputError on a spec detectors.train_detector refuses."""
    specs = [_spec_params(s, "detector_list") for s in cfg.detector_list]
    specs = [(kind, hyper, [cfg.train_attack] if detectors.is_supervised(kind, hyper) else [])
             for kind, hyper in specs]
    return [spec for spec in specs if set(spec[2]) <= set(tags)]


def stage_train_detectors(cfg, clean_feats, adv_feats):
    """Full-data detector models written to detectors/<kind>.json (the
    evaluation stage refits per fold; these are the deployable models)."""
    models = {}
    for unit, (key, (kind, hyper, adv)) in _units(cfg, "train-detector").items():
        adv_train = [f for tag in adv for f in adv_feats[tag]]
        path, = _unit(cfg, unit, key, lambda path: detectors.save_detector(
            detectors.train_detector(kind, clean_feats, adv_train, **hyper), path))
        models[kind] = detectors.load_detector(path)
    return models


def stage_evaluate(cfg, clean_feats, adv_feats):
    """The report, built from the feature table alone."""
    def evaluate(csv_path, json_path):
        apsr = {tag: float(np.mean([f.apsr for f in feats]))
                for tag, feats in {"clean": clean_feats, **adv_feats}.items()}
        report = metrics.EvalReport(rows=[metrics.EvalRow("-", "clean")])
        for kind, hyper, adv in specs if adv_feats else []:
            report.rows += metrics.cross_validate(clean_feats, adv_feats, kind, hyper, adv,
                                                  cfg.folds, cfg.seed)
        for row in report.rows:
            row.apsr_mean = apsr[row.attack]
        report.write_csv(csv_path)
        report.write_json(json_path)

    key, specs = _units(cfg, "evaluate")["evaluate"]
    return _unit(cfg, "evaluate", key, evaluate)[0]


def lock_run(out_dir, shared=False):
    """The open lock file of run directory out_dir, flock-ed exclusively, or
    shared for a reader. Raises InputError at once, having written nothing,
    when another run holds a conflicting lock."""
    fh = open(os.path.join(out_dir, LOCK_FILE), "a")
    try:
        fcntl.flock(fh, (fcntl.LOCK_SH if shared else fcntl.LOCK_EX) | fcntl.LOCK_NB)
    except BlockingIOError:
        fh.close()
        raise InputError(f"{out_dir} is in use by another run") from None
    return fh


def run_stages(cfg, force=None):
    """Runs the stages in STAGES order, yielding (stage name, result) after
    each; first one _drop forgets each recorded unit unit_keys(cfg) lacks or
    of stage `force` or a later one. Each stage reads the table once. Stop
    iterating to stop the chain. The run directory stays locked (lock_run)
    until the chain ends or is closed. The stage functions are resolved at
    call time, so wrappers set on this module's attributes see every call."""
    keys = check_run(cfg)     # raises on a bad config before the directory is touched
    os.makedirs(cfg.out_dir, exist_ok=True)
    with lock_run(cfg.out_dir):
        tensorio.write_json(os.path.join(cfg.out_dir, CONFIG_FILE), cfg.to_dict())
        forced = STAGES[STAGES.index(force):] if force else ()
        _drop(cfg.out_dir, sorted(unit for unit in _keys(cfg.out_dir)
                                  if unit not in keys or unit.split("/")[0] in forced))
        train_set, val_set = stage_gen_data(cfg)
        yield "gen-data", (train_set, val_set)
        model = stage_train_model(cfg, train_set)
        yield "train-model", model
        yield "gradcheck", stage_gradcheck(cfg, model, val_set)
        yield "attack", stage_attack(cfg, model, train_set, val_set)
        clean_feats, adv_feats = stage_extract_features(cfg, model, val_set)
        yield "extract-features", (clean_feats, adv_feats)
        yield "train-detector", stage_train_detectors(cfg, clean_feats, adv_feats)
        yield "evaluate", stage_evaluate(cfg, clean_feats, adv_feats)


def run_pipeline(cfg):
    """Executes every stage in order; returns the path of the report CSV."""
    for _, result in run_stages(cfg):
        pass
    return result
