"""Pipeline benchmark for segdetect.

Run from the repository root:

    python3 perfbench/run.py --workload train --seed 1 --seconds 20 --trace 0

One workload per process, closed loop, one client, BLAS pinned to one
thread. The benchmark sets the workload up through the real
`segdetect.pipeline` stages, then times `pipeline.run_pipeline` resuming
from that set-up, again and again for --seconds (at least MIN_REPS times),
each time in a fresh copy of the set-up directory. Every run's outputs are
checked after its timer stops.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are the end-to-end
ones; with --trace 1 they are the per-layer ones of a separate traced
set-up and run (see tracing.py and README.md).
"""

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".bench_work")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "SEGDETECT_THREADS")
MIN_REPS = 3          # timed runs per benchmark run, whatever --seconds says
SETUPS = 2            # set-ups per benchmark run; setup_s uses their median
IMPORTS = 5           # fresh interpreters timed for the import part of setup_s
CLEAN_APSR_MAX = 0.15  # a model that learned nothing predicts background: APSR > 0.2

WORKLOADS = {
    # Parameter-gradient backward: training and the float64 gradcheck
    # dominate the timed phase. One single-step attack feeds the four
    # detectors and 2-fold cross-validation (20 clean images per fold, the
    # least a 5% FPR allows), so the detector layers are measured too; lasso
    # trains on that attack. lr 0.2 with batches of 2 learns the scenes in 10
    # short epochs and passes the gradient check; lr 0.05 with batches of 8
    # leaves a model that predicts only background at this data size.
    "train": {
        "setup": ("gen_data",),
        "config": {
            "dataset": {"height": 64, "width": 64, "train_size": 40, "val_size": 40},
            "train": {"epochs": 10, "lr": 0.2, "batch_size": 2},
            "attack_list": [{"kind": "fgsm", "eps": 8, "targeted": False}],
            "train_attack": "fgsm_e8",
            "folds": 2,
        },
    },
    # Input-only backward on 96x96 images, with the model trained in set-up:
    # a larger conv working set, and the dense dnnm distance matrix sets peak
    # memory. 40 images keep that peak steady across seeds.
    "attack": {
        "setup": ("gen_data", "train_model", "gradcheck"),
        "config": {
            "dataset": {"height": 96, "width": 96, "train_size": 12, "val_size": 40},
            "train": {"epochs": 10, "lr": 0.2, "batch_size": 1},
            "attack_list": [
                {"kind": "ifgsm", "eps": 8, "targeted": False, "n_iter": 2},
                {"kind": "dnnm", "n_iter": 2},
                {"kind": "ssmm", "n_iter": 4},
                {"kind": "patch", "n_iter": 5, "placements": 4},
            ],
            "detector_list": [],
            "ssmm_train_size": 4,
        },
    },
}


def import_seconds(n):
    """Median wall time of n fresh interpreters that import segdetect: the
    process start and import cost a user pays before any stage runs."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")) if p))
    times = []
    for _ in range(n):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import segdetect.pipeline"], env=env, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def cpu_seconds():
    """User + system CPU of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def peak_rss_mb():
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0


def code_sha256():
    """Identity of the code under test: every .py file of src/ and perfbench/."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(f for f in filenames if f.endswith(".py")):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as fh:
                    digest.update(hashlib.sha256(fh.read()).digest())
    return digest.hexdigest()


def git_sha():
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:])) as fh:
                return fh.read().strip()
        return head
    except OSError:
        return None


def environment(np, code_hash):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    src = os.path.join(ROOT, "src", "segdetect")
    loc = 0
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as fh:
                loc += sum(1 for _ in fh)
    return {"git_sha": git_sha(), "code_sha256": code_hash, "nproc": os.cpu_count(),
            "cpus_allowed": len(os.sched_getaffinity(0)), "python": sys.version.split()[0],
            "numpy": np.__version__, "blas": blas,
            "threads": {var: os.environ[var] for var in THREAD_VARS}, "src_loc": loc}


def check_record(path, value):
    """Compare value with the one an earlier run of the same code stored at
    path, or store it. Returns an error message or None."""
    if os.path.exists(path):
        with open(path) as fh:
            old = json.load(fh)
        return None if old == value else f"differs from an earlier run ({path}): {old} != {value}"
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(value, fh, sort_keys=True)
    return None


class Bench:
    def __init__(self, name, seed, run_dir, pipeline, checks, load_tensor):
        self.name = name
        self.spec = WORKLOADS[name]
        self.seed = seed
        self.run_dir = run_dir
        self.pipeline = pipeline
        self.checks = checks
        self.load_tensor = load_tensor

    def config(self, out_dir):
        """One benchmark seed drives the dataset, training and CV seeds, as
        `segdetect --seed` does."""
        cfg = self.pipeline.ExperimentConfig.from_dict(json.loads(json.dumps(self.spec["config"])))
        cfg.seed = cfg.dataset.seed = cfg.train.seed = self.seed
        cfg.out_dir = out_dir
        return cfg

    def set_up(self, out_dir):
        """Runs the workload's set-up stages into out_dir; returns seconds."""
        t0 = time.perf_counter()
        cfg = self.config(out_dir)
        train_set, val_set = self.pipeline.stage_gen_data(cfg)
        if "train_model" in self.spec["setup"]:
            model = self.pipeline.stage_train_model(cfg, train_set)
            self.pipeline.stage_gradcheck(cfg, model, val_set)
        return time.perf_counter() - t0

    def run_once(self, setup_dir, out_dir):
        """Times run_pipeline resuming from a copy of setup_dir, then checks
        the outputs. Returns (wall s, cpu s, errors, digests)."""
        shutil.copytree(setup_dir, out_dir)
        cfg = self.config(out_dir)
        c0, t0 = cpu_seconds(), time.perf_counter()
        try:
            self.pipeline.run_pipeline(cfg)
            errors = []
        except Exception:  # noqa: BLE001 - a failed run is counted, not dropped
            errors = [traceback.format_exc()]
        wall, cpu = time.perf_counter() - t0, cpu_seconds() - c0
        digests = None
        if not errors:
            errors = self.checks.check_run(out_dir, cfg.to_dict(), CLEAN_APSR_MAX,
                                           self.load_tensor)
            digests = {"report_sha256": self.checks.sha256(
                           os.path.join(out_dir, "report", "report.csv")),
                       "attacks_sha256": self.checks.tree_sha256(os.path.join(out_dir, "attacks"))}
        shutil.rmtree(out_dir)
        return wall, cpu, errors, digests

    def measure(self, seconds, setups, record_path, log):
        """Set up `setups` times, then time runs for `seconds` (at least
        MIN_REPS). Returns (setup times, [(wall, cpu)], failures, digests)."""
        setup_times = []
        for i in range(setups):
            setup_times.append(self.set_up(os.path.join(self.run_dir, f"setup{i}")))
            log(f"setup {i + 1}/{setups}: {setup_times[-1]:.3f} s")
        reps, failed, expected = [], 0, None
        while len(reps) < MIN_REPS or sum(w for w, _ in reps) < seconds:
            wall, cpu, errors, digests = self.run_once(
                os.path.join(self.run_dir, "setup0"), os.path.join(self.run_dir, "run"))
            reps.append((wall, cpu))
            if digests is not None and not errors:
                if expected is None:
                    expected = digests
                    err = check_record(record_path, digests)
                    if err:
                        errors.append("outputs " + err)
                elif digests != expected:
                    errors.append(f"outputs differ between runs: {digests} != {expected}")
            log(f"run {len(reps)}: wall {wall:.3f} s, cpu {cpu:.3f} s, "
                + ("checks passed" if not errors else "FAILED"))
            if errors:
                failed += 1
                for e in errors:
                    print(f"perfbench: {self.name}: run {len(reps)}: {e}", file=sys.stderr)
                if digests is None:
                    break   # the pipeline raised; a deterministic rerun would too
        return setup_times, reps, failed, expected

    def traced(self, tracing, untraced_wall, expected, counts_path, log):
        """One traced set-up and run; returns (per-layer metrics, failures)."""
        tracer = tracing.Tracer()
        tracer.instrument()
        setup_dir = os.path.join(self.run_dir, "traced-setup")
        try:
            with tracer.span("bench.setup"):
                self.set_up(setup_dir)
            with tracer.span("bench.run"):
                wall, _, errors, digests = self.run_once(setup_dir, os.path.join(self.run_dir, "run"))
        finally:
            tracer.restore()
        if digests is not None and digests != expected:
            errors.append(f"tracing changed the outputs: {digests} != {expected}")
        cfg = self.spec["config"]
        steps = cfg["train"]["epochs"] * cfg["dataset"]["train_size"]
        layer = tracer.metrics(steps, wall - untraced_wall)
        if layer["autodiff.conv2d_fwd.calls"] == 0 or layer["model.predict.calls"] == 0:
            errors.append("tracing saw no forward pass: a traced binding is no longer called")
        counts = {name: layer[name] for name in tracing.EXACT}
        err = check_record(counts_path, counts)
        if err:
            errors.append("exact counts " + err)
        tracer.write(os.path.join(WORK, "traces", f"{self.name}-seed{self.seed}.jsonl"))
        log(f"traced run: wall {wall:.3f} s (untraced median {untraced_wall:.3f} s), "
            f"{len(tracer.spans)} spans, " + ("checks passed" if not errors else "FAILED"))
        for e in errors:
            print(f"perfbench: {self.name}: traced run: {e}", file=sys.stderr)
        return layer, int(bool(errors))


def summary(label, values, unit):
    return (f"{label}: median {statistics.median(values):.4f} {unit}, "
            f"max {max(values):.4f} {unit} (n={len(values)})")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "segdetect", "pipeline.py")):
        print(f"perfbench: {ROOT}/src/segdetect not found; run from a segdetect checkout",
              file=sys.stderr)
        return 2

    # BLAS reads its thread count when numpy loads.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import numpy as np
    import segdetect
    from segdetect import pipeline, tensorio
    if not os.path.abspath(segdetect.__file__).startswith(os.path.join(ROOT, "src")):
        print(f"perfbench: imported segdetect from {segdetect.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    import checks
    import tracing

    def log(msg):
        print(f"# {msg}", flush=True)

    code_hash = code_sha256()
    log(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace}")
    log("env " + json.dumps(environment(np, code_hash), sort_keys=True))
    run_dir = os.path.join(WORK, f"run-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    bench = Bench(args.workload, args.seed, run_dir, pipeline, checks, tensorio.load_tensor)
    # Records of earlier runs of the same code, for checks across processes.
    record = os.path.join(WORK, "records", f"{code_hash[:16]}-{args.workload}")
    try:
        setup_times, reps, failed, expected = bench.measure(
            args.seconds, 1 if args.trace else SETUPS, f"{record}-seed{args.seed}.json", log)
        walls = [w for w, _ in reps]
        cpus = [c for _, c in reps]
        log(summary("run_s", walls, "s"))
        log(summary("run_cpu_s", cpus, "s"))
        attempted = len(reps)
        if args.trace:
            layer, traced_failed = bench.traced(tracing, statistics.median(walls),
                                                expected, f"{record}-counts.json", log)
            attempted += 1
            failed += traced_failed
            metrics_out = {name: {"value": layer[name], "unit": unit}
                           for name, (unit, _) in tracing.METRICS.items()}
        else:
            import_s = import_seconds(IMPORTS)
            log(f"setup_s: import {import_s:.4f} s (median of {IMPORTS} fresh interpreters) "
                f"+ {summary('set-up', setup_times, 's')}")
            metrics_out = {
                "setup_s": {"value": import_s + statistics.median(setup_times), "unit": "s"},
                "run_s": {"value": statistics.median(walls), "unit": "s"},
                "run_cpu_s": {"value": statistics.median(cpus), "unit": "s"},
                "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
            }
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics_out}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
