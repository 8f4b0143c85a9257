"""End-to-end experiment pipeline with resumable on-disk stages.

Stage order: gen-data -> train-model -> gradcheck -> attack -> extract-features
-> train-detector -> evaluate. Every stage is a pure function of its inputs,
the config and the seed, skips itself when its outputs already exist, and can
be re-run with force=True.
"""

import os
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import attacks, detectors, metrics, synthdata, tensorio, uncertainty
from .errors import InputError
from .model import TrainConfig, grad_check, load_model, predict, predicted_labels, save_model, train
from .synthdata import DatasetConfig


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
        unknown = set(d) - {f.name for f in fields(cls)}
        if unknown:
            raise InputError(f"unknown config key(s) {', '.join(sorted(unknown))}")
        d = dict(d)
        if "dataset" in d:
            d["dataset"] = DatasetConfig.from_dict(d["dataset"])
        if "train" in d:
            d["train"] = TrainConfig(**d["train"])
        return cls(**d)


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


def _run_fgsm(cfg, model, params, train_set, val_set):
    acfg = attacks.AttackConfig(eps=params["eps"], targeted=bool(params.get("targeted")))
    return [attacks.fgsm(model, s, acfg) for s in val_set]


def _run_ifgsm(cfg, model, params, train_set, val_set):
    n = params.get("n_iter") or attacks.iteration_count(params["eps"])
    acfg = attacks.AttackConfig(eps=params["eps"], alpha=params.get("alpha", 1.0), n_iter=n,
                                targeted=bool(params.get("targeted")))
    return [attacks.ifgsm(model, s, acfg) for s in val_set]


def _run_ssmm(cfg, model, params, train_set, val_set):
    scfg = attacks.SsmmConfig(**params)
    rng = np.random.default_rng([cfg.seed, 101])
    subset = train_set[:cfg.ssmm_train_size]
    candidates = train_set[cfg.ssmm_train_size:] or train_set
    target = attacks.pick_ssmm_target(candidates, rng)
    xi = attacks.ssmm_train(model, subset, [target] * len(subset), scfg)
    tensorio.save_tensor(os.path.join(cfg.out_dir, "ssmm_target.ten"), target)
    tensorio.save_tensor(os.path.join(cfg.out_dir, "ssmm_noise.ten"), xi.noise)
    return [attacks.apply_universal(s, xi) for s in val_set]


def _run_dnnm(cfg, model, params, train_set, val_set):
    dcfg = attacks.DnnmConfig(**{"hidden_class": cfg.dataset.hidden_class, **params})
    return [attacks.dnnm_attack(model, s, dcfg) for s in val_set]


def _run_patch(cfg, model, params, train_set, val_set):
    pcfg = attacks.PatchConfig(**{"seed": cfg.seed, **params})
    patch = attacks.patch_attack(model, train_set[:cfg.ssmm_train_size], pcfg)
    tensorio.save_tensor(os.path.join(cfg.out_dir, "patch.ten"), patch)
    rng = np.random.default_rng([cfg.seed, 202])
    return [attacks.apply_patch(s, patch, pcfg, rng=rng) for s in val_set]


# kind -> (config dataclass, runner, tag rule, config fields the runner sets
# itself; the spec keys are the other fields). The runner maps (cfg, model,
# params, train_set, val_set) to perturbed samples, the tag rule (kind, params)
# to the output tag; without one the kind is the tag.
ATTACKS = {
    "fgsm": (attacks.AttackConfig, _run_fgsm, attacks.sign_tag, ("alpha", "n_iter")),
    "ifgsm": (attacks.AttackConfig, _run_ifgsm, attacks.sign_tag, ()),
    "ssmm": (attacks.SsmmConfig, _run_ssmm, None, ()),
    "dnnm": (attacks.DnnmConfig, _run_dnnm, None, ()),
    "patch": (attacks.PatchConfig, _run_patch, None, ()),
}


def _attack_spec(spec):
    """(runner, params, tag) of an attack spec; raises InputError on an
    unknown kind or key."""
    kind = spec["kind"]
    if kind not in ATTACKS:
        raise InputError(f"unknown attack kind {kind!r}")
    config, run, tag, fixed = ATTACKS[kind]
    params = {k: v for k, v in spec.items() if k != "kind"}
    unknown = set(params) - ({f.name for f in fields(config)} - set(fixed))
    if unknown:
        raise InputError(f"attack {kind!r}: unknown key(s) {', '.join(sorted(unknown))}")
    return run, params, tag(kind, params) if tag else kind


def attack_tag(spec):
    """Directory and report tag of an attack spec."""
    return _attack_spec(spec)[2]


def stage_attack(cfg, model, train_set, val_set, force=False):
    """Runs every configured attack over the validation split; writes each
    perturbed dataset in the synthdata layout plus attack.json."""
    results = {}
    for spec in cfg.attack_list:
        run, params, tag = _attack_spec(spec)
        adir = os.path.join(cfg.out_dir, "attacks", tag)
        meta_path = os.path.join(adir, "attack.json")
        if _done(meta_path) and not force:
            meta = tensorio.read_json(meta_path)
            perturbed = []
            for sid in meta["ids"]:
                img = tensorio.load_tensor(os.path.join(adir, "images", f"{sid}.ten"))
                perturbed.append(attacks.PerturbedSample(
                    image=img.astype(np.float32), clean_id=sid, attack=tag,
                    config=meta["config"]))
            results[tag] = perturbed
            continue
        perturbed = run(cfg, model, params, train_set, val_set)
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

    def extract(samples, label, tag, name):
        path = os.path.join(fdir, f"{name}.csv")
        if _done(path) and not force:
            return uncertainty.read_features(path)
        feats = []
        for s in samples:
            sid = s.id if hasattr(s, "id") else s.clean_id
            probs = predict(model, s.image)
            feats.append(uncertainty.feature_vector(probs, image_id=sid,
                                                    label=label, attack=tag))
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
    supervised kind needs its training attack's features."""
    specs = [(s["kind"], {k: v for k, v in s.items() if k != "kind"}) for s in cfg.detector_list]
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


def compute_apsr_by_attack(model, val_set, attacked):
    by_id = {s.id: s for s in val_set}
    out = {}
    for tag, samples in attacked.items():
        vals = [metrics.apsr(predicted_labels(model, p.image), by_id[p.clean_id].labels)
                for p in samples]
        out[tag] = float(np.mean(vals))
    return out


def stage_evaluate(cfg, model, val_set, clean_feats, adv_feats, attacked, force=False):
    rdir = os.path.join(cfg.out_dir, "report")
    csv_path = os.path.join(rdir, "report.csv")
    json_path = os.path.join(rdir, "report.json")
    if _done(csv_path) and not force:
        return csv_path
    os.makedirs(rdir, exist_ok=True)
    apsr_by_attack = compute_apsr_by_attack(model, val_set, attacked)
    nan = float("nan")
    clean_apsr = float(np.mean([
        metrics.apsr(predicted_labels(model, s.image), s.labels) for s in val_set]))
    report = metrics.EvalReport(rows=[metrics.EvalRow(
        detector="-", attack="clean", apsr_mean=clean_apsr, ada_mean=nan,
        ada_std=nan, kappa_mean=nan, auroc_mean=nan, auroc_std=nan,
        tpr_mean=nan, tpr_std=nan)])
    for kind, hyper in _detector_specs(cfg, adv_feats) if adv_feats else []:
        dspec = metrics.DetectorSpec(kind=kind, train_attack=cfg.train_attack,
                                     hyperparams=hyper)
        part = metrics.cross_validate(clean_feats, adv_feats, dspec,
                                      apsr_by_attack=apsr_by_attack,
                                      folds=cfg.folds, seed=cfg.seed)
        report.rows.extend(part.rows)
    report.write_csv(csv_path)
    report.write_json(json_path)
    return csv_path


def run_pipeline(cfg, force=False):
    """Executes every stage in order; returns the path of the report CSV."""
    os.makedirs(cfg.out_dir, exist_ok=True)
    tensorio.write_json(os.path.join(cfg.out_dir, "config.json"), cfg.to_dict())
    train_set, val_set = stage_gen_data(cfg, force)
    model = stage_train_model(cfg, train_set, force)
    stage_gradcheck(cfg, model, val_set, force)
    attacked = stage_attack(cfg, model, train_set, val_set, force)
    clean_feats, adv_feats = stage_extract_features(cfg, model, val_set, attacked, force)
    stage_train_detectors(cfg, clean_feats, adv_feats, force)
    return stage_evaluate(cfg, model, val_set, clean_feats, adv_feats, attacked, force)
