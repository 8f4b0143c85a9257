"""End-to-end experiment pipeline with resumable on-disk stages.

Stage order (STAGES, chained once in run_stages): gen-data -> train-model ->
gradcheck -> attack -> extract-features -> train-detector -> evaluate. Every
stage is a pure function of its inputs, the config and the seed. Its outputs
come in units (the stage, or one attack, feature table, heatmap set or
detector of it) with keys (unit_keys) and files (unit_outputs); stages read
them back, and recompute only those whose key keys.json lacks (_unit).
"""

import hashlib
import json
import os
import re
import shutil
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass

import numpy as np

from . import attacks, detectors, metrics, synthdata, tensorio, uncertainty
from .errors import InputError
from .model import TrainConfig, grad_check, load_model, predict, save_model, train
from .model import predicted_labels  # noqa: F401 - a binding the benchmark's tracer wraps
from .synthdata import DatasetConfig
from .workers import map_items

STAGES = ("gen-data", "train-model", "gradcheck", "attack", "extract-features",
          "train-detector", "evaluate")


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
class ExperimentConfig:
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    attack_list: list = field(default_factory=default_attack_list)
    detector_list: list = field(default_factory=lambda: [
        {"kind": "entropy"}, {"kind": "lasso"}, {"kind": "ocsvm"}, {"kind": "ellipse"},
    ])
    train_attack: str = "ifgsm_ll_e2"
    folds: int = 5
    seed: int = 0
    out_dir: str = "runs/default"
    export_heatmaps: bool = False
    ssmm_train_size: int = 20

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, d):
        """Builds a config and validates its attack and detector specs and
        its fold size, so that bad config fails before any stage runs."""
        d = dict(_check_keys(_defaults(cls), d, "config"))
        if "dataset" in d:
            d["dataset"] = DatasetConfig(
                **_check_keys(_defaults(DatasetConfig), d["dataset"], "dataset"))
        if "train" in d:
            d["train"] = TrainConfig(**_check_keys(_defaults(TrainConfig), d["train"], "train"))
        cfg = cls(**d)
        if cfg.ssmm_train_size < 1:
            raise InputError("ssmm_train_size must be >= 1")
        unit_keys(cfg)
        if cfg.attack_list and cfg.detector_list and (
                cfg.folds < 2 or cfg.dataset.val_size // cfg.folds < metrics.MIN_CLEAN_SCORES):
            raise InputError(f"{cfg.folds} folds of {cfg.dataset.val_size} validation images: "
                             f"need at least 2 folds of {metrics.MIN_CLEAN_SCORES} clean scores")
        return cfg


def _defaults(cls, fixed=()):
    """{field: default} of dataclass `cls`, less the fields in `fixed`."""
    return {f.name: f.default if f.default_factory is MISSING else f.default_factory()
            for f in fields(cls) if f.name not in fixed}


# type of a default -> (the JSON types that may replace it, their name)
_ACCEPTS = {bool: (bool, "bool"), int: (int, "int"), float: ((int, float), "float"),
            str: (str, "str"), list: (list, "list"), dict: (dict, "object")}


def _check_keys(known, d, section):
    """Returns `d`; raises InputError unless its keys are keys of `known`
    ({key: default}), valued like their defaults: an int counts as a float,
    an object as a nested config."""
    unknown = set(d) - set(known)
    if unknown:
        raise InputError(f"unknown {section} key(s) {', '.join(sorted(unknown))}")
    for key, val in d.items():
        want = dict if is_dataclass(known[key]) else type(known[key])
        accepts, name = _ACCEPTS.get(want, (None, None))
        if accepts and not (isinstance(val, accepts) and (want is bool) == isinstance(val, bool)):
            raise InputError(f"{section} key {key}: expected {name}, got {type(val).__name__}")
    return d


def _spec_params(spec, section):
    """(kind, the other keys) of an attack or detector spec."""
    if not isinstance(spec, dict):
        raise InputError(f"{section} item {spec!r}: expected object, got {type(spec).__name__}")
    return spec.get("kind"), {k: v for k, v in spec.items() if k != "kind"}


def _keys(cfg):
    path = os.path.join(cfg.out_dir, "keys.json")
    return tensorio.read_json(path) if os.path.exists(path) else {}


def _write_keys(cfg, keys):
    """Replaces keys.json whole, so a crash leaves either record, never a mix."""
    path = os.path.join(cfg.out_dir, "keys.json")
    tensorio.write_json(path + ".tmp", keys)
    os.replace(path + ".tmp", path)


def unit_keys(cfg):
    """{unit: key} under `cfg`: a SHA-256 over the config the unit reads and
    the keys of the units it reads from. Raises InputError on a bad spec, or
    when two specs make one unit."""
    keys = {}

    def add(name, reads, upstream=()):
        if name in keys:
            raise InputError(f"two specs make the one unit {name}")
        blob = json.dumps([reads, [keys[unit] for unit in upstream]], sort_keys=True)
        keys[name] = hashlib.sha256(blob.encode()).hexdigest()

    model = ("gen-data", "train-model")
    add("gen-data", asdict(cfg.dataset))
    add("train-model", asdict(cfg.train), model[:1])
    add("gradcheck", cfg.seed, model)
    specs = [_attack_spec(cfg, spec)[1:] for spec in cfg.attack_list]
    for acfg, tag in specs:
        add(f"attack/{tag}", [asdict(acfg), cfg.seed, cfg.ssmm_train_size], model)
    tables = ["clean", *sorted(tag for _, tag in specs)]
    for name in tables:
        images = model + ((f"attack/{name}",) if name != "clean" else ())
        add(f"extract-features/{name}", None, images)
        if cfg.export_heatmaps:
            add(f"extract-features/heatmaps/{name}", None, images)
    for kind, hyper, adv in _detector_specs(cfg):
        add(f"train-detector/{kind}", [hyper, adv],
            [f"extract-features/{name}" for name in ["clean", *adv]])
    add("evaluate", [cfg.detector_list, cfg.train_attack, cfg.folds, cfg.seed],
        [f"extract-features/{name}" for name in tables])
    return keys


# A unit is named by its stage, or its stage and one path component (a tag,
# table or kind), so its paths stay in the run directory: "{}" stands for it in
# the paths _OUTPUTS gives its stage, or the unit. A path ending "/" is a directory.
_UNIT = re.compile(r"(gen-data|train-model|gradcheck|evaluate)"
                   r"|(attack|extract-features(?:/heatmaps)?|train-detector)/(?!\.\.?$)([^/]+)")
_OUTPUTS = {"gen-data": ["data/", "data/images/", "data/labels/"],
            "train-model": ["model.ten", "model.json"], "gradcheck": ["gradcheck.json"],
            "attack": ["attacks/{}/", "attacks/{}/images/"],
            "attack/ssmm": ["ssmm_target.ten", "ssmm_noise.ten"], "attack/patch": ["patch.ten"],
            "extract-features": ["features/{}.csv"], "extract-features/heatmaps": ["heatmaps/{}/"],
            "train-detector": ["detectors/{}.json"],
            "evaluate": ["report/report.csv", "report/report.json"]}


def unit_outputs(out_dir, name):
    """The paths unit `name` writes under out_dir, from the name alone: a stale
    unit is not in the config. Raises InputError on a name no stage makes."""
    match = _UNIT.fullmatch(name)
    if not match:
        raise InputError(f"unknown unit {name!r}")
    stage = match[1] or match[2]
    return [os.path.join(out_dir, path.format(match[3]))
            for path in _OUTPUTS[stage] + (_OUTPUTS.get(name, []) if name != stage else [])]


def _drop(cfg, units):
    """Drops the keys of `units`, then their files; an unknown name raises first."""
    paths = [path for unit in units for path in unit_outputs(cfg.out_dir, unit)]
    keys = _keys(cfg)
    if set(units) & set(keys):
        _write_keys(cfg, {unit: key for unit, key in keys.items() if unit not in units})
    for path in paths:
        if os.path.isdir(path):
            shutil.rmtree(path)
        elif os.path.lexists(path):
            os.remove(path)


def _unit(cfg, name, compute):
    """Unless keys.json records unit `name`'s key in unit_keys(cfg): drops the
    unit, makes its directories, runs compute() and records the new key."""
    key = unit_keys(cfg)[name]
    if _keys(cfg).get(name) == key:
        return
    _drop(cfg, [name])
    for path in unit_outputs(cfg.out_dir, name):
        os.makedirs(os.path.dirname(path), exist_ok=True)
    compute()
    _write_keys(cfg, {**_keys(cfg), name: key})


def stage_gen_data(cfg):
    """Draws the dataset and writes each sample as uint8 images/<id>.ten and
    int32 labels/<id>.ten, then manifest.json; returns (train, val) as read
    back by the manifest's ids."""
    data_dir, images, labels = unit_outputs(cfg.out_dir, "gen-data")
    manifest = os.path.join(data_dir, "manifest.json")

    def gen_data():
        train_set, val_set = synthdata.generate_dataset(cfg.dataset)
        for s in train_set + val_set:
            tensorio.save_tensor(os.path.join(images, f"{s.id}.ten"), s.image.astype(np.uint8))
            tensorio.save_tensor(os.path.join(labels, f"{s.id}.ten"), s.labels)
        tensorio.write_json(manifest, {"config": asdict(cfg.dataset),
                                       "train_ids": [s.id for s in train_set],
                                       "val_ids": [s.id for s in val_set]})

    def load(sid):
        return synthdata.SegSample(
            tensorio.load_tensor(os.path.join(images, f"{sid}.ten")).astype(np.float32),
            tensorio.load_tensor(os.path.join(labels, f"{sid}.ten")), sid)

    _unit(cfg, "gen-data", gen_data)
    ids = tensorio.read_json(manifest)
    return [load(sid) for sid in ids["train_ids"]], [load(sid) for sid in ids["val_ids"]]


def stage_train_model(cfg, train_set):
    paths = unit_outputs(cfg.out_dir, "train-model")
    _unit(cfg, "train-model", lambda: save_model(
        train([(s.image, s.labels) for s in train_set], cfg.train), *paths))
    return load_model(*paths)


def stage_gradcheck(cfg, model, val_set):
    """Finite-difference gradient check; raises InputError when it failed,
    also when the failure was recorded by an earlier run."""
    path, = unit_outputs(cfg.out_dir, "gradcheck")
    _unit(cfg, "gradcheck", lambda: tensorio.write_json(
        path, asdict(grad_check(model, val_set[0].image, val_set[0].labels, seed=cfg.seed))))
    doc = tensorio.read_json(path)
    if not doc["passed"]:
        raise InputError("gradient check failed; see gradcheck.json")
    return doc


def _fgsm_config(cfg, params):
    return attacks.AttackConfig(eps=params["eps"], targeted=bool(params.get("targeted")))


def _ifgsm_config(cfg, params):
    n = params["n_iter"] if "n_iter" in params else attacks.iteration_count(params["eps"])
    return attacks.AttackConfig(eps=params["eps"], alpha=params.get("alpha", 1.0), n_iter=n,
                                targeted=bool(params.get("targeted")))


def _dnnm_config(cfg, params):
    dcfg = attacks.DnnmConfig(**{"hidden_class": cfg.dataset.hidden_class, **params})
    synthdata.check_hidden_class(dcfg.hidden_class, cfg.dataset.num_classes)
    return dcfg


def sign_tag(kind, spec):
    """`<kind>_e<eps>`, or `<kind>_ll_e<eps>` when the spec targets the least likely class."""
    return f"{kind}{'_ll' if spec.get('targeted') else ''}_e{spec['eps']:g}"


def _per_image(attack):
    """The runner of attacks.<attack> (looked up per call) on one validation image."""
    return lambda cfg, model, acfg, train_set, val_set: (
        lambda s: getattr(attacks, attack)(model, s, acfg), {})


def _run_ssmm(cfg, model, scfg, train_set, val_set):
    rng = np.random.default_rng([cfg.seed, 101])
    subset = train_set[:cfg.ssmm_train_size]
    candidates = train_set[cfg.ssmm_train_size:] or train_set
    target = attacks.pick_ssmm_target(candidates, rng)
    noise = attacks.ssmm_train(model, subset, target, scfg)
    for path, array in zip(unit_outputs(cfg.out_dir, "attack/ssmm")[2:], (target, noise)):
        tensorio.save_tensor(path, array)
    return lambda s: attacks.apply_universal(s.image, noise), {}


def _run_patch(cfg, model, pcfg, train_set, val_set):
    patch = attacks.patch_attack(model, train_set[:cfg.ssmm_train_size], pcfg)
    tensorio.save_tensor(unit_outputs(cfg.out_dir, "attack/patch")[2], patch)
    rng = np.random.default_rng([cfg.seed, 202])
    windows = {s.id: [int(rng.integers(0, s.image.shape[0] - pcfg.height + 1)),
                      int(rng.integers(0, s.image.shape[1] - pcfg.width + 1))] for s in val_set}
    return lambda s: attacks.apply_patch(s.image, patch, *windows[s.id]), {"windows": windows}


# kind -> (config dataclass, config rule, runner, tag rule, config fields the
# runner sets itself; the spec keys are the other fields). The config rule
# maps (cfg, params) to the attack config with the runner's defaults filled
# in; the runner (cfg, model, attack config, train_set, val_set) to the attack
# of one validation sample (sample -> float32 image) and its extra attack.json
# entries; the tag rule (kind, params) to the output tag (none: the kind).
ATTACKS = {
    "fgsm": (attacks.AttackConfig, _fgsm_config, _per_image("fgsm"), sign_tag,
             ("alpha", "n_iter")),
    "ifgsm": (attacks.AttackConfig, _ifgsm_config, _per_image("ifgsm"), sign_tag, ()),
    "ssmm": (attacks.SsmmConfig, lambda cfg, p: attacks.SsmmConfig(**p), _run_ssmm, None, ()),
    "dnnm": (attacks.DnnmConfig, _dnnm_config, _per_image("dnnm_attack"), None, ()),
    "patch": (attacks.PatchConfig, lambda cfg, p: attacks.PatchConfig(**{"seed": cfg.seed, **p}),
              _run_patch, None, ()),
}


def _attack_spec(cfg, spec):
    """(runner, attack config, tag) of an attack spec under `cfg`; raises
    InputError on an unknown kind, an unknown or missing key or a bad value."""
    kind, params = _spec_params(spec, "attack_list")
    if kind not in ATTACKS:
        raise InputError(f"unknown attack kind {kind!r}")
    config, make, run, tag, fixed = ATTACKS[kind]
    params = _check_keys(_defaults(config, fixed), params, f"attack {kind!r}")
    try:
        return run, make(cfg, params), tag(kind, params) if tag else kind
    except KeyError as exc:
        raise InputError(f"attack {kind!r}: missing key {exc}") from None


def attack_tag(spec):
    """Directory and report tag of an attack spec."""
    return _attack_spec(ExperimentConfig(), spec)[2]


def stage_attack(cfg, model, train_set, val_set):
    """Runs each configured attack on the validation split one image at a time:
    writes it as uint8 images/<id>.ten, its l-inf norm to attack.json. Returns the tags."""
    tags = []
    for spec in cfg.attack_list:
        run, acfg, tag = _attack_spec(cfg, spec)
        adir, idir = unit_outputs(cfg.out_dir, f"attack/{tag}")[:2]

        def attack():
            attacked, extras = run(cfg, model, acfg, train_set, val_set)

            def write(s):
                image = attacked(s)
                tensorio.save_tensor(os.path.join(idir, f"{s.id}.ten"), image.astype(np.uint8))
                return s.id, float(np.abs(image - s.image).max())

            tensorio.write_json(os.path.join(adir, "attack.json"), dict(
                config=dict(asdict(acfg), kind=spec["kind"]), ids=[s.id for s in val_set],
                linf_norms=dict(map_items(write, val_set)), **extras))

        _unit(cfg, f"attack/{tag}", attack)
        tags.append(tag)
    return tags


def stage_extract_features(cfg, model, val_set, tags):
    """Each table's features, and heatmaps, from its unit's images, one at a time."""
    def extract(name, label, tag, unit):
        images = unit_outputs(cfg.out_dir, unit)[1]

        def predicted(s):   # predict casts the uint8 image to float32, exactly
            return predict(model, tensorio.load_tensor(os.path.join(images, f"{s.id}.ten")))

        def features(s):
            probs = predicted(s)
            f = uncertainty.feature_vector(probs, image_id=s.id, label=label, attack=tag)
            f.apsr = metrics.apsr(np.argmax(probs, axis=2), s.labels)
            return f

        if cfg.export_heatmaps:
            hdir, = unit_outputs(cfg.out_dir, f"extract-features/heatmaps/{name}")
            _unit(cfg, f"extract-features/heatmaps/{name}", lambda: map_items(
                lambda s: export_entropy_heatmap(predicted(s), os.path.join(hdir, f"{s.id}.pgm")),
                val_set))
        path, = unit_outputs(cfg.out_dir, f"extract-features/{name}")
        _unit(cfg, f"extract-features/{name}",
              lambda: uncertainty.write_features(path, map_items(features, val_set)))
        return uncertainty.read_features(path)

    return (extract("clean", "clean", "", "gen-data"),
            {tag: extract(tag, "adv", tag, f"attack/{tag}") for tag in sorted(tags)})


def _detector_specs(cfg):
    """(kind, hyperparameters, training attacks) of each configured detector
    whose training attacks run; its deployable and per-fold models train on
    them. Raises InputError on an unknown kind or key, a value unlike its
    trainer default, or one its trainer would refuse (the rules in
    detectors.DETECTORS)."""
    specs = [_spec_params(s, "detector_list") for s in cfg.detector_list]
    for kind, hyper in specs:
        _check_keys(detectors.hyperparameters(kind), hyper, f"detector {kind!r}")
    tags = {_attack_spec(cfg, spec)[2] for spec in cfg.attack_list}
    specs = [(kind, hyper, [cfg.train_attack] if detectors.is_supervised(kind, hyper) else [])
             for kind, hyper in specs]
    return [spec for spec in specs if set(spec[2]) <= tags]


def stage_train_detectors(cfg, clean_feats, adv_feats):
    """Full-data detector models written to detectors/<kind>.json (the
    evaluation stage refits per fold; these are the deployable models)."""
    models = {}
    for kind, hyper, adv in _detector_specs(cfg):
        path, = unit_outputs(cfg.out_dir, f"train-detector/{kind}")
        adv_train = [f for tag in adv for f in adv_feats[tag]]
        _unit(cfg, f"train-detector/{kind}", lambda: detectors.save_detector(
            detectors.train_detector(kind, clean_feats, adv_train, **hyper), path))
        models[kind] = detectors.load_detector(path)
    return models


def stage_evaluate(cfg, clean_feats, adv_feats):
    """The report, built from the feature table alone."""
    csv_path, json_path = unit_outputs(cfg.out_dir, "evaluate")

    def evaluate():
        apsr = {tag: float(np.mean([f.apsr for f in feats]))
                for tag, feats in {"clean": clean_feats, **adv_feats}.items()}
        report = metrics.EvalReport(rows=[metrics.EvalRow("-", "clean")])
        for kind, hyper, adv in _detector_specs(cfg) if adv_feats else []:
            report.rows += metrics.cross_validate(clean_feats, adv_feats, kind, hyper, adv,
                                                  cfg.folds, cfg.seed)
        for row in report.rows:
            row.apsr_mean = apsr[row.attack]
        report.write_csv(csv_path)
        report.write_json(json_path)

    _unit(cfg, "evaluate", evaluate)
    return csv_path


def run_stages(cfg, force=None):
    """Runs the stages in STAGES order, yielding (stage name, result) after
    each; the recorded units unit_keys(cfg) lacks are dropped, and the stage
    `force` names and every later one lose their keys. Stop iterating to stop
    the chain. The stage functions are resolved at call time, so wrappers set
    on this module's attributes see every call."""
    os.makedirs(cfg.out_dir, exist_ok=True)
    tensorio.write_json(os.path.join(cfg.out_dir, "config.json"), cfg.to_dict())
    _drop(cfg, sorted(_keys(cfg).keys() - unit_keys(cfg).keys()))
    if force:
        _write_keys(cfg, {unit: key for unit, key in _keys(cfg).items()
                          if STAGES.index(unit.split("/")[0]) < STAGES.index(force)})
    train_set, val_set = stage_gen_data(cfg)
    yield "gen-data", (train_set, val_set)
    model = stage_train_model(cfg, train_set)
    yield "train-model", model
    yield "gradcheck", stage_gradcheck(cfg, model, val_set)
    tags = stage_attack(cfg, model, train_set, val_set)
    yield "attack", tags
    clean_feats, adv_feats = stage_extract_features(cfg, model, val_set, tags)
    yield "extract-features", (clean_feats, adv_feats)
    yield "train-detector", stage_train_detectors(cfg, clean_feats, adv_feats)
    yield "evaluate", stage_evaluate(cfg, clean_feats, adv_feats)


def run_pipeline(cfg):
    """Executes every stage in order; returns the path of the report CSV."""
    for _, result in run_stages(cfg):
        pass
    return result
