"""Command-line front end for the experiment pipeline.

Subcommands mirror the pipeline stages; `run-all` executes everything.
The SEGDETECT_THREADS environment variable caps BLAS thread counts.
"""

import argparse
import json
import os
import sys


def _apply_thread_override():
    threads = os.environ.get("SEGDETECT_THREADS")
    if threads:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ.setdefault(var, threads)


_apply_thread_override()


def _deep_merge(base, override):
    for key, val in override.items():
        if isinstance(val, dict) and isinstance(base.get(key), dict):
            _deep_merge(base[key], val)
        else:
            base[key] = val
    return base


def load_config(args):
    from .pipeline import ExperimentConfig

    doc = {}
    if args.config:
        with open(args.config) as fh:
            doc = json.load(fh)
    if args.stage_overrides:
        _deep_merge(doc, json.loads(args.stage_overrides))
    cfg = ExperimentConfig.from_dict(doc)
    if args.out:
        cfg.out_dir = args.out
    if args.seed is not None:
        cfg.seed = args.seed
        cfg.dataset.seed = args.seed
        cfg.train.seed = args.seed
    return cfg


def _load_context(cfg, need_model=True):
    from . import pipeline

    train_set, val_set = pipeline.stage_gen_data(cfg)
    model = pipeline.stage_train_model(cfg, train_set) if need_model else None
    return train_set, val_set, model


def cmd_gen_data(cfg, args):
    from . import pipeline

    train_set, val_set = pipeline.stage_gen_data(cfg, force=args.force)
    print(f"generated {len(train_set)} train / {len(val_set)} val samples in {cfg.out_dir}/data")


def cmd_train_model(cfg, args):
    from . import pipeline

    train_set, _ = pipeline.stage_gen_data(cfg)
    pipeline.stage_train_model(cfg, train_set, force=args.force)
    print(f"model written to {cfg.out_dir}/model.ten")


def cmd_gradcheck(cfg, args):
    from . import pipeline

    train_set, val_set, model = _load_context(cfg)
    doc = pipeline.stage_gradcheck(cfg, model, val_set, force=args.force)
    print(f"gradcheck passed={doc['passed']} frac_within={doc['frac_within']:.4f} "
          f"median_rel_err={doc['median_rel_err']:.2e}")


def cmd_attack(cfg, args):
    from . import pipeline

    train_set, val_set, model = _load_context(cfg)
    attacked = pipeline.stage_attack(cfg, model, train_set, val_set, force=args.force)
    print(f"ran {len(attacked)} attacks over {len(val_set)} images")


def cmd_extract_features(cfg, args):
    from . import pipeline

    train_set, val_set, model = _load_context(cfg)
    attacked = pipeline.stage_attack(cfg, model, train_set, val_set)
    clean, adv = pipeline.stage_extract_features(cfg, model, val_set, attacked,
                                                 force=args.force)
    print(f"extracted features: clean={len(clean)}, attacks={len(adv)}")


def cmd_train_detector(cfg, args):
    from . import pipeline

    train_set, val_set, model = _load_context(cfg)
    attacked = pipeline.stage_attack(cfg, model, train_set, val_set)
    clean, adv = pipeline.stage_extract_features(cfg, model, val_set, attacked)
    models = pipeline.stage_train_detectors(cfg, clean, adv, force=args.force)
    print(f"trained detectors: {', '.join(sorted(models))}")


def cmd_detect(cfg, args):
    from . import detectors, uncertainty

    model = detectors.load_detector(args.detector)
    feats = uncertainty.read_features(args.features)
    for f, p in zip(feats, detectors.score_many(model, feats)):
        print(f"{f.image_id},{p:.6f},{detectors.classify(p, args.kappa)}")


def cmd_evaluate(cfg, args):
    from . import pipeline

    train_set, val_set, model = _load_context(cfg)
    attacked = pipeline.stage_attack(cfg, model, train_set, val_set)
    clean, adv = pipeline.stage_extract_features(cfg, model, val_set, attacked)
    path = pipeline.stage_evaluate(cfg, model, val_set, clean, adv, attacked,
                                   force=args.force)
    print(f"report written to {path}")


def cmd_report(cfg, args):
    path = os.path.join(cfg.out_dir, "report", "report.csv")
    with open(path) as fh:
        sys.stdout.write(fh.read())


def cmd_run_all(cfg, args):
    from . import pipeline

    path = pipeline.run_pipeline(cfg, force=args.force)
    print(f"report written to {path}")


COMMANDS = {
    "gen-data": cmd_gen_data,
    "train-model": cmd_train_model,
    "gradcheck": cmd_gradcheck,
    "attack": cmd_attack,
    "extract-features": cmd_extract_features,
    "train-detector": cmd_train_detector,
    "detect": cmd_detect,
    "evaluate": cmd_evaluate,
    "report": cmd_report,
    "run-all": cmd_run_all,
}


def build_parser():
    parser = argparse.ArgumentParser(prog="segdetect",
                                     description="adversarial segmentation attack workbench")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="experiment config JSON")
        p.add_argument("--seed", type=int, help="override the global seed")
        p.add_argument("--out", help="output directory")
        p.add_argument("--stage-overrides", help="JSON fragment merged into the config")
        p.add_argument("--force", action="store_true", help="re-run even if outputs exist")
        if name == "detect":
            p.add_argument("--detector", required=True, help="detector JSON file")
            p.add_argument("--features", required=True, help="feature CSV to score")
            p.add_argument("--kappa", type=float, default=0.5)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        COMMANDS[args.command](load_config(args), args)
    except Exception as exc:  # noqa: BLE001 - stage-tagged diagnostics on stderr
        print(f"segdetect: {args.command}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
