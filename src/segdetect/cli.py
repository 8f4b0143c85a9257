"""Command-line front end for the experiment pipeline.

Each stage subcommand runs the pipeline up to and including its stage;
`run-all` executes everything. Each command declares only the flags it reads.
BLAS runs one thread unless a standard BLAS variable says otherwise: training,
the attacks and the features already run one forked process per CPU.
"""

import argparse
import json
import os
import sys


def _apply_thread_override():
    """BLAS threads: 1 wherever the user set none; BLAS reads them when numpy loads."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")


_apply_thread_override()

from . import detectors, errors, pipeline, uncertainty  # noqa: E402 - after BLAS


def _deep_merge(base, override):
    for key, val in override.items():
        if isinstance(val, dict) and isinstance(base.get(key), dict):
            _deep_merge(base[key], val)
        else:
            base[key] = val
    return base


def load_config(args):
    """The config the flags give, its fields checked; run_stages, or cmd_report,
    checks the whole run before the run directory is touched."""
    doc = {}
    if args.config:
        with open(args.config) as fh:
            doc = errors.check_object(json.load(fh), "config")
    if args.stage_overrides:
        try:
            overrides = json.loads(args.stage_overrides)
        except json.JSONDecodeError as exc:
            raise errors.InputError(f"stage-overrides: {exc}") from None
        _deep_merge(doc, errors.check_object(overrides, "stage-overrides"))
    if getattr(args, "seed", None) is not None:   # before build, which checks it
        doc["seed"] = args.seed
        for section in ("dataset", "train"):
            if isinstance(doc.setdefault(section, {}), dict):
                doc[section]["seed"] = args.seed
    if args.out:
        doc["out_dir"] = args.out
    return errors.build(pipeline.ExperimentConfig, doc, "config")


# stage -> the line its command prints, from the results of the stages run
STAGE_LINES = {
    "gen-data": lambda cfg, r: "generated {} train / {} val samples in {}".format(
        *map(len, r["gen-data"]), pipeline.unit_outputs(cfg.out_dir, "gen-data")[0].rstrip(os.sep)),
    "train-model": lambda cfg, r: "model written to " + pipeline.unit_outputs(
        cfg.out_dir, "train-model")[0],
    "gradcheck": lambda cfg, r: ("gradcheck passed={passed} frac_within={frac_within:.4f} "
                                 "median_rel_err={median_rel_err:.2e}".format(**r["gradcheck"])),
    "attack": lambda cfg, r: f"ran {len(r['attack'])} attacks over {len(r['gen-data'][1])} images",
    "extract-features": lambda cfg, r: "extracted features: clean={}, attacks={}".format(
        *map(len, r["extract-features"])),
    "train-detector": lambda cfg, r: f"trained detectors: {', '.join(sorted(r['train-detector']))}",
    "evaluate": lambda cfg, r: f"report written to {r['evaluate']}",
}


def cmd_stage(args):
    """Runs the pipeline up to and including the command's stage (every stage
    for run-all); --force recomputes that stage and every later one."""
    cfg = load_config(args)
    named = pipeline.STAGES if args.command == "run-all" else (args.command,)
    results = {}
    for stage, result in pipeline.run_stages(cfg, named[0] if args.force else None):
        results[stage] = result
        if stage == named[-1]:
            break
    print(STAGE_LINES[stage](cfg, results))


def cmd_detect(args):
    model = detectors.load_detector(args.detector)
    feats = uncertainty.read_features(args.features)
    for f, p in zip(feats, detectors.score_many(model, feats)):
        print(f"{f.image_id},{p:.6f},{detectors.classify(p, args.kappa)}")


def cmd_report(args):
    cfg = load_config(args)
    pipeline.check_run(cfg)
    sys.stdout.write(pipeline.read_report(cfg.out_dir))


COMMANDS = {**dict.fromkeys(STAGE_LINES, cmd_stage), "detect": cmd_detect, "report": cmd_report,
            "run-all": cmd_stage}


def build_parser():
    parser = argparse.ArgumentParser(prog="segdetect",
                                     description="adversarial segmentation attack workbench")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        if name == "detect":
            p.add_argument("--detector", required=True, help="detector JSON file")
            p.add_argument("--features", required=True, help="feature CSV to score")
            p.add_argument("--kappa", type=float, default=0.5)
            continue
        p.add_argument("--config", help="experiment config JSON")
        p.add_argument("--out", help="output directory")
        p.add_argument("--stage-overrides", help="JSON fragment merged into the config")
        if name != "report":
            p.add_argument("--seed", type=int, help="override the global seed")
            p.add_argument("--force", action="store_true", help="recompute this and later stages")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        COMMANDS[args.command](args)
    except Exception as exc:  # noqa: BLE001 - stage-tagged diagnostics on stderr
        print(f"segdetect: {args.command}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
