"""End-to-end experiment pipeline with resumable on-disk stages.

Stage order (STAGES, chained once in run_stages): gen-data -> train-model ->
gradcheck -> attack -> extract-features -> train-detector -> evaluate. Every
stage is a pure function of its inputs, the config and the seed, skips itself
when its outputs already exist, and can be re-run with force=True.
"""

import os
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import attacks, detectors, metrics, synthdata, tensorio, uncertainty
from .errors import InputError
from .model import TrainConfig, grad_check, load_model, predict, save_model, train
from .model import predicted_labels  # noqa: F401 - a binding the benchmark's tracer wraps
from .synthdata import DatasetConfig

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
        return dict(asdict(self), dataset=self.dataset.to_dict())

    @classmethod
    def from_dict(cls, d):
        """Builds a config and validates its attack and detector specs and
        its fold size, so that bad config fails before any stage runs."""
        d = dict(_check_keys(_defaults(cls), d, "config"))
        if "dataset" in d:
            d["dataset"] = DatasetConfig.from_dict(
                _check_keys(_defaults(DatasetConfig), d["dataset"], "dataset"))
        if "train" in d:
            d["train"] = TrainConfig(**_check_keys(_defaults(TrainConfig), d["train"], "train"))
        cfg = cls(**d)
        for spec in cfg.attack_list:
            _attack_spec(cfg, spec)
        _detector_specs(cfg, {})
        if cfg.attack_list and cfg.detector_list and (
                cfg.folds < 2 or cfg.dataset.val_size // cfg.folds < metrics.MIN_CLEAN_SCORES):
            raise InputError(f"{cfg.folds} folds of {cfg.dataset.val_size} validation images: "
                             f"need at least 2 folds of {metrics.MIN_CLEAN_SCORES} clean scores")
        return cfg


def _defaults(cls, fixed=()):
    """{field: default} of dataclass `cls`, less the fields in `fixed`."""
    return {f.name: f.default for f in fields(cls) if f.name not in fixed}


def _check_keys(known, d, section):
    """Returns `d`; raises InputError unless its keys are keys of `known`
    ({key: default}), valued like their scalar defaults (an int counts as a float)."""
    unknown = set(d) - set(known)
    if unknown:
        raise InputError(f"unknown {section} key(s) {', '.join(sorted(unknown))}")
    for key, val in d.items():
        want = type(known[key])
        accepts = {bool: bool, int: int, float: (int, float), str: str}.get(want)
        if accepts and not (isinstance(val, accepts) and (want is bool) == isinstance(val, bool)):
            raise InputError(f"{section} key {key}: expected {want.__name__}, "
                             f"got {type(val).__name__}")
    return d


def _done(path):
    return os.path.exists(path)


def stage_gen_data(cfg, force=False):
    data_dir = os.path.join(cfg.out_dir, "data")
    if _done(os.path.join(data_dir, "manifest.json")) and not force:
        return synthdata.load_dataset(data_dir)[:2]
    os.makedirs(data_dir, exist_ok=True)
    train_set, val_set, _ = synthdata.generate_dataset(cfg.dataset, data_dir)
    return train_set, val_set


def stage_train_model(cfg, train_set, force=False):
    tpath = os.path.join(cfg.out_dir, "model.ten")
    spath = os.path.join(cfg.out_dir, "model.json")
    if _done(tpath) and _done(spath) and not force:
        return load_model(tpath, spath)
    model = train([(s.image, s.labels) for s in train_set], cfg.train)
    save_model(model, tpath, spath)
    return model


def stage_gradcheck(cfg, model, val_set, force=False):
    """Finite-difference gradient check; raises InputError when it failed,
    also when the failure was recorded by an earlier run."""
    path = os.path.join(cfg.out_dir, "gradcheck.json")
    if _done(path) and not force:
        doc = tensorio.read_json(path)
    else:
        sample = val_set[0]
        report = grad_check(model, sample.image, sample.labels, seed=cfg.seed)
        doc = {"passed": report.passed, "frac_within": report.frac_within,
               "median_rel_err": report.median_rel_err,
               "quantiles": {str(k): v for k, v in report.quantiles.items()}}
        tensorio.write_json(path, doc)
    if not doc["passed"]:
        raise InputError("gradient check failed; see gradcheck.json")
    return doc


def _fgsm_config(cfg, params):
    return attacks.AttackConfig(eps=params["eps"], targeted=bool(params.get("targeted")))


def _ifgsm_config(cfg, params):
    n = params.get("n_iter") or attacks.iteration_count(params["eps"])
    return attacks.AttackConfig(eps=params["eps"], alpha=params.get("alpha", 1.0), n_iter=n,
                                targeted=bool(params.get("targeted")))


def _run_fgsm(cfg, model, acfg, train_set, val_set):
    return [attacks.fgsm(model, s, acfg) for s in val_set]


def _run_ifgsm(cfg, model, acfg, train_set, val_set):
    return [attacks.ifgsm(model, s, acfg) for s in val_set]


def _run_ssmm(cfg, model, scfg, train_set, val_set):
    rng = np.random.default_rng([cfg.seed, 101])
    subset = train_set[:cfg.ssmm_train_size]
    candidates = train_set[cfg.ssmm_train_size:] or train_set
    target = attacks.pick_ssmm_target(candidates, rng)
    xi = attacks.ssmm_train(model, subset, [target] * len(subset), scfg)
    tensorio.save_tensor(os.path.join(cfg.out_dir, "ssmm_target.ten"), target)
    tensorio.save_tensor(os.path.join(cfg.out_dir, "ssmm_noise.ten"), xi.noise)
    return [attacks.apply_universal(s, xi) for s in val_set]


def _run_dnnm(cfg, model, dcfg, train_set, val_set):
    return [attacks.dnnm_attack(model, s, dcfg) for s in val_set]


def _run_patch(cfg, model, pcfg, train_set, val_set):
    patch = attacks.patch_attack(model, train_set[:cfg.ssmm_train_size], pcfg)
    tensorio.save_tensor(os.path.join(cfg.out_dir, "patch.ten"), patch)
    rng = np.random.default_rng([cfg.seed, 202])
    return [attacks.apply_patch(s, patch, pcfg, rng=rng) for s in val_set]


# kind -> (config dataclass, config rule, runner, tag rule, config fields the
# runner sets itself; the spec keys are the other fields). The config rule
# maps (cfg, params) to the attack config with the runner's defaults filled
# in, the runner (cfg, model, attack config, train_set, val_set) to perturbed
# samples, the tag rule (kind, params) to the output tag; without one the
# kind is the tag.
ATTACKS = {
    "fgsm": (attacks.AttackConfig, _fgsm_config, _run_fgsm, attacks.sign_tag, ("alpha", "n_iter")),
    "ifgsm": (attacks.AttackConfig, _ifgsm_config, _run_ifgsm, attacks.sign_tag, ()),
    "ssmm": (attacks.SsmmConfig, lambda cfg, p: attacks.SsmmConfig(**p), _run_ssmm, None, ()),
    "dnnm": (attacks.DnnmConfig,
             lambda cfg, p: attacks.DnnmConfig(**{"hidden_class": cfg.dataset.hidden_class, **p}),
             _run_dnnm, None, ()),
    "patch": (attacks.PatchConfig, lambda cfg, p: attacks.PatchConfig(**{"seed": cfg.seed, **p}),
              _run_patch, None, ()),
}


def _attack_spec(cfg, spec):
    """(runner, attack config, tag) of an attack spec under `cfg`; raises
    InputError on an unknown kind, an unknown or missing key or a bad value."""
    kind = spec.get("kind")
    if kind not in ATTACKS:
        raise InputError(f"unknown attack kind {kind!r}")
    config, make, run, tag, fixed = ATTACKS[kind]
    params = _check_keys(_defaults(config, fixed),
                         {k: v for k, v in spec.items() if k != "kind"}, f"attack {kind!r}")
    try:
        return run, make(cfg, params), tag(kind, params) if tag else kind
    except KeyError as exc:
        raise InputError(f"attack {kind!r}: missing key {exc}") from None


def attack_tag(spec):
    """Directory and report tag of an attack spec."""
    return _attack_spec(ExperimentConfig(), spec)[2]


def stage_attack(cfg, model, train_set, val_set, force=False):
    """Runs every configured attack over the validation split; writes each
    perturbed dataset in the synthdata layout plus attack.json."""
    results = {}
    for spec in cfg.attack_list:
        run, acfg, tag = _attack_spec(cfg, spec)
        adir = os.path.join(cfg.out_dir, "attacks", tag)
        meta_path = os.path.join(adir, "attack.json")
        if _done(meta_path) and not force:
            meta = tensorio.read_json(meta_path)
            stale = sorted(k for k, v in asdict(acfg).items() if meta["config"].get(k) != v)
            if stale:
                raise InputError(f"attack {tag!r}: recorded config differs on "
                                 f"{', '.join(stale)}; use --force or a fresh --out")
            perturbed = []
            for sid in meta["ids"]:
                img = tensorio.load_tensor(os.path.join(adir, "images", f"{sid}.ten"))
                perturbed.append(attacks.PerturbedSample(
                    image=img.astype(np.float32), clean_id=sid, attack=tag,
                    config=meta["config"]))
            results[tag] = perturbed
            continue
        perturbed = run(cfg, model, acfg, train_set, val_set)
        os.makedirs(os.path.join(adir, "images"), exist_ok=True)
        norms, windows = {}, {}
        for p, clean in zip(perturbed, val_set):
            tensorio.save_tensor(os.path.join(adir, "images", f"{p.clean_id}.ten"),
                                 p.image.astype(np.uint8))
            norms[p.clean_id] = float(np.max(np.abs(p.image - clean.image)))
            if "top" in p.config:
                windows[p.clean_id] = [p.config["top"], p.config["left"]]
        meta = {"config": perturbed[0].config, "ids": [p.clean_id for p in perturbed],
                "linf_norms": norms}
        if windows:
            meta["windows"] = windows
        tensorio.write_json(meta_path, meta)
        results[tag] = perturbed
    return results


def stage_extract_features(cfg, model, val_set, attacked, force=False):
    fdir = os.path.join(cfg.out_dir, "features")
    os.makedirs(fdir, exist_ok=True)
    hdir = os.path.join(cfg.out_dir, "heatmaps")
    if cfg.export_heatmaps:
        os.makedirs(hdir, exist_ok=True)
    labels = {s.id: s.labels for s in val_set}

    def extract(samples, label, tag, name):
        path = os.path.join(fdir, f"{name}.csv")
        if _done(path) and not force:
            return uncertainty.read_features(path)
        feats = []
        for s in samples:
            sid = s.id if hasattr(s, "id") else s.clean_id
            probs = predict(model, s.image)
            f = uncertainty.feature_vector(probs, image_id=sid, label=label, attack=tag)
            f.apsr = metrics.apsr(np.argmax(probs, axis=2), labels[sid])
            feats.append(f)
            if cfg.export_heatmaps:
                export_entropy_heatmap(probs, os.path.join(hdir, f"{name}_{sid}.pgm"))
        uncertainty.write_features(path, feats)
        return feats

    clean_feats = extract(val_set, "clean", "", "clean")
    adv_feats = {tag: extract(samples, "adv", tag, tag)
                 for tag, samples in sorted(attacked.items())}
    return clean_feats, adv_feats


def _detector_specs(cfg, adv_feats):
    """(kind, hyperparameters) of each configured detector that can train: a
    supervised kind needs its training attack's features. Raises InputError
    on an unknown kind or key, or a value unlike its trainer default."""
    specs = [(s.get("kind"), {k: v for k, v in s.items() if k != "kind"})
             for s in cfg.detector_list]
    for kind, hyper in specs:
        _check_keys(detectors.hyperparameters(kind), hyper, f"detector {kind!r}")
    return [(kind, hyper) for kind, hyper in specs
            if not detectors.is_supervised(kind, hyper) or cfg.train_attack in adv_feats]


def stage_train_detectors(cfg, clean_feats, adv_feats, force=False):
    """Full-data detector models written to detectors/<kind>.json (the
    evaluation stage refits per fold; these are the deployable models)."""
    ddir = os.path.join(cfg.out_dir, "detectors")
    os.makedirs(ddir, exist_ok=True)
    models = {}
    for kind, hyper in _detector_specs(cfg, adv_feats):
        path = os.path.join(ddir, f"{kind}.json")
        if _done(path) and not force:
            models[kind] = detectors.load_detector(path)
            continue
        models[kind] = detectors.train_detector(kind, clean_feats,
                                                adv_feats.get(cfg.train_attack), **hyper)
        detectors.save_detector(models[kind], path)
    return models


def stage_evaluate(cfg, clean_feats, adv_feats, force=False):
    """The report, built from the feature table alone."""
    rdir = os.path.join(cfg.out_dir, "report")
    csv_path = os.path.join(rdir, "report.csv")
    json_path = os.path.join(rdir, "report.json")
    if _done(csv_path) and not force:
        return csv_path
    os.makedirs(rdir, exist_ok=True)
    apsr = {tag: float(np.mean([f.apsr for f in feats]))
            for tag, feats in {"clean": clean_feats, **adv_feats}.items()}
    report = metrics.EvalReport(rows=[metrics.EvalRow("-", "clean", apsr_mean=apsr["clean"])])
    for kind, hyper in _detector_specs(cfg, adv_feats) if adv_feats else []:
        dspec = metrics.DetectorSpec(kind=kind, train_attack=cfg.train_attack,
                                     hyperparams=hyper)
        part = metrics.cross_validate(clean_feats, adv_feats, dspec, apsr_by_attack=apsr,
                                      folds=cfg.folds, seed=cfg.seed)
        report.rows.extend(part.rows)
    report.write_csv(csv_path)
    report.write_json(json_path)
    return csv_path


def run_stages(cfg, force=()):
    """Runs the stages in STAGES order, yielding (stage name, result) after
    each; `force` names the stages to recompute. Stop iterating to stop the
    chain. The stage functions are resolved at call time, so wrappers set on
    this module's attributes see every call."""
    os.makedirs(cfg.out_dir, exist_ok=True)
    tensorio.write_json(os.path.join(cfg.out_dir, "config.json"), cfg.to_dict())
    train_set, val_set = stage_gen_data(cfg, "gen-data" in force)
    yield "gen-data", (train_set, val_set)
    model = stage_train_model(cfg, train_set, "train-model" in force)
    yield "train-model", model
    yield "gradcheck", stage_gradcheck(cfg, model, val_set, "gradcheck" in force)
    attacked = stage_attack(cfg, model, train_set, val_set, "attack" in force)
    yield "attack", attacked
    clean_feats, adv_feats = stage_extract_features(cfg, model, val_set, attacked,
                                                    "extract-features" in force)
    yield "extract-features", (clean_feats, adv_feats)
    yield "train-detector", stage_train_detectors(cfg, clean_feats, adv_feats,
                                                  "train-detector" in force)
    yield "evaluate", stage_evaluate(cfg, clean_feats, adv_feats, "evaluate" in force)


def run_pipeline(cfg, force=False):
    """Executes every stage in order, recomputing all of them when `force`;
    returns the path of the report CSV."""
    for _, result in run_stages(cfg, STAGES if force else ()):
        pass
    return result
