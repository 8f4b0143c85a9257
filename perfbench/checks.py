"""Output checks for one finished pipeline run, done outside the timed phase.

Each check reads the run's output directory as a user would and returns a
list of failure messages; an empty list means the run's outputs are correct.
"""

import csv
import hashlib
import json
import math
import os

import numpy as np

# dnnm and ssmm default to a budget of 0.1 on the 0-1 scale.
DEFAULT_EPS = 0.1 * 255
REPORT_FIELDS = ["apsr_mean", "ada_mean", "ada_std", "kappa_mean", "auroc_mean",
                 "auroc_std", "tpr_mean", "tpr_std"]


def attack_tag(spec):
    """Directory name the pipeline gives an attack spec. Written out here
    rather than taken from `pipeline.attack_tag`, so the checks verify the
    output layout instead of trusting the code under test."""
    if spec["kind"] in ("fgsm", "ifgsm"):
        ll = "_ll" if spec.get("targeted") else ""
        return f"{spec['kind']}{ll}_e{spec['eps']:g}"
    return spec["kind"]


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def tree_sha256(path):
    """Digest over every file below path, in sorted order."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(path):
        dirnames.sort()
        for name in sorted(filenames):
            full = os.path.join(dirpath, name)
            digest.update(os.path.relpath(full, path).encode() + b"\0")
            digest.update(sha256(full).encode())
    return digest.hexdigest()


def check_gradcheck(out_dir):
    with open(os.path.join(out_dir, "gradcheck.json")) as fh:
        doc = json.load(fh)
    return [] if doc.get("passed") is True else [f"gradcheck failed: {doc}"]


def check_attacks(out_dir, cfg, load_tensor):
    """Every attacked image keeps its l-inf budget; a patch changes nothing
    outside its recorded window."""
    with open(os.path.join(out_dir, "data", "manifest.json")) as fh:
        val_ids = json.load(fh)["val_ids"]
    clean = {sid: load_tensor(os.path.join(out_dir, "data", "images", f"{sid}.ten"))
             .astype(np.float64) for sid in val_ids}
    errors = []
    for spec in cfg["attack_list"]:
        tag = attack_tag(spec)
        adir = os.path.join(out_dir, "attacks", tag)
        with open(os.path.join(adir, "attack.json")) as fh:
            meta = json.load(fh)
        if meta["ids"] != val_ids:
            errors.append(f"{tag}: attacked ids differ from the validation ids")
            continue
        for sid in val_ids:
            adv = load_tensor(os.path.join(adir, "images", f"{sid}.ten")).astype(np.float64)
            delta = np.abs(adv - clean[sid])
            if spec["kind"] == "patch":
                top, left = meta["windows"][sid]
                h, w = meta["config"]["height"], meta["config"]["width"]
                delta[top:top + h, left:left + w] = 0.0
                if delta.max() > 0:
                    errors.append(f"{tag}/{sid}: pixels outside the patch window changed")
                continue
            eps = spec.get("eps", DEFAULT_EPS)
            if delta.max() > eps or meta["linf_norms"][sid] > eps:
                errors.append(f"{tag}/{sid}: l-inf norm {delta.max():g} exceeds eps {eps:g}")
    return errors


def check_report(out_dir, cfg, clean_apsr_max):
    """report.csv holds exactly the clean row and every (detector, attack)
    row, all values finite and in [0, 1]; the clean APSR shows the model
    learned."""
    with open(os.path.join(out_dir, "report", "report.csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    tags = [attack_tag(spec) for spec in cfg["attack_list"]]
    kinds = [d["kind"] for d in cfg["detector_list"]
             if d["kind"] != "lasso" or cfg["train_attack"] in tags]
    expected = {("-", "clean")} | {(kind, tag) for kind in kinds for tag in tags}
    found = [(r["detector"], r["attack"]) for r in rows]
    errors = []
    if sorted(found) != sorted(expected):
        errors.append(f"report rows {sorted(found)} != expected {sorted(expected)}")
    for row in rows:
        fields = ["apsr_mean"] if row["attack"] == "clean" else REPORT_FIELDS
        for f in fields:
            value = float(row[f])
            if not (math.isfinite(value) and 0.0 <= value <= 1.0):
                errors.append(f"report {row['detector']}/{row['attack']} {f}={row[f]}")
        if row["attack"] == "clean" and not float(row["apsr_mean"]) < clean_apsr_max:
            errors.append(f"clean APSR {row['apsr_mean']} not below {clean_apsr_max}")
    return errors


def check_run(out_dir, cfg, clean_apsr_max, load_tensor):
    return (check_gradcheck(out_dir) + check_attacks(out_dir, cfg, load_tensor)
            + check_report(out_dir, cfg, clean_apsr_max))
