import dataclasses
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from segdetect import cli, detectors, pipeline, synthdata
from segdetect.errors import InputError
from segdetect.model import TrainConfig


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
    assert pipeline.attack_tag({"kind": "fgsm", "eps": 8}) == "fgsm_e8"
    assert pipeline.attack_tag({"kind": "fgsm", "eps": 16, "targeted": True}) == "fgsm_ll_e16"
    assert pipeline.attack_tag({"kind": "ifgsm", "eps": 2, "targeted": True}) == "ifgsm_ll_e2"
    assert pipeline.attack_tag({"kind": "ssmm"}) == "ssmm"


def test_default_attack_list_covers_families():
    tags = [pipeline.attack_tag(s) for s in pipeline.default_attack_list()]
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
    tag = pipeline.attack_tag(spec)
    out = pipeline.stage_attack(cfg, small_model, train, val[:3])[tag]
    assert [p.clean_id for p in out] == [s.id for s in val[:3]]
    for p, clean in zip(out, val[:3]):
        assert p.attack == tag and p.config["kind"] == kind
        assert np.all(p.image == np.rint(p.image))
        assert p.image.min() >= 0 and p.image.max() <= 255
        delta = np.abs(p.image.astype(np.float64) - clean.image)
        if kind == "patch":
            top, left = p.config["top"], p.config["left"]
            delta[top:top + spec["height"], left:left + spec["width"]] = 0.0
            assert delta.max() == 0
        else:
            assert delta.max() <= p.config["eps"]
    # resuming with the same spec reuses the recorded outputs
    again = pipeline.stage_attack(cfg, small_model, train, val[:3])[tag]
    for p, q in zip(out, again):
        np.testing.assert_array_equal(p.image, q.image)


@pytest.mark.parametrize("spec,change,key", [
    ({"kind": "ifgsm", "eps": 4, "n_iter": 1}, lambda cfg: cfg.attack_list[0].update(n_iter=3),
     "n_iter"),
    # a default the runner fills in from the experiment config
    ({"kind": "patch", "height": 8, "width": 8, "n_iter": 1, "placements": 1},
     lambda cfg: setattr(cfg, "seed", 1), "seed"),
])
def test_changed_attack_config_fails_loudly(spec, change, key, small_dataset, small_model,
                                            tmp_path):
    dcfg, train, val = small_dataset
    cfg = pipeline.ExperimentConfig(dataset=dcfg, out_dir=str(tmp_path), ssmm_train_size=3,
                                    attack_list=[dict(spec)])
    tag = pipeline.attack_tag(spec)
    pipeline.stage_attack(cfg, small_model, train, val[:2])
    change(cfg)
    with pytest.raises(InputError, match=f"'{tag}'.*{key}.*--force"):
        pipeline.stage_attack(cfg, small_model, train, val[:2])
    out = pipeline.stage_attack(cfg, small_model, train, val[:2], force=True)[tag]
    meta = json.load(open(tmp_path / "attacks" / tag / "attack.json"))
    assert out[0].config[key] == meta["config"][key] != spec.get(key, 0)
    pipeline.stage_attack(cfg, small_model, train, val[:2])


def test_registered_attack_tags_unique():
    tags = [pipeline.attack_tag(dict(spec, kind=kind)) for kind, spec in SMALL_SPECS.items()]
    assert sorted(SMALL_SPECS) == sorted(pipeline.ATTACKS)
    assert len(set(tags)) == len(tags)


def test_fgsm_rejects_iteration_keys():
    for key in ("n_iter", "alpha"):
        with pytest.raises(InputError, match="fgsm"):
            pipeline.attack_tag({"kind": "fgsm", "eps": 8, key: 5})


@pytest.mark.parametrize("kind", pipeline.ATTACKS)
def test_unknown_attack_key_names_kind(kind, tmp_path):
    cfg = pipeline.ExperimentConfig(out_dir=str(tmp_path),
                                    attack_list=[{"kind": kind, "foo": 1}])
    with pytest.raises(InputError, match=f"'{kind}'.*foo"):
        pipeline.stage_attack(cfg, None, [], [])


def test_unknown_attack_kind_raises():
    with pytest.raises(InputError, match="unknown attack kind"):
        pipeline.attack_tag({"kind": "deepfool"})


def test_unknown_detector_key_names_kind(tmp_path):
    cfg = pipeline.ExperimentConfig(out_dir=str(tmp_path),
                                    detector_list=[{"kind": "entropy", "foo": 1}])
    with pytest.raises(InputError, match="'entropy'.*foo"):
        pipeline.stage_train_detectors(cfg, [], {})


def test_resumed_failed_gradcheck_raises(tmp_path):
    cfg = pipeline.ExperimentConfig(out_dir=str(tmp_path))
    (tmp_path / "gradcheck.json").write_text(json.dumps(
        {"passed": False, "frac_within": 0.5, "median_rel_err": 0.3, "quantiles": {}}))
    with pytest.raises(InputError, match="gradient check failed"):
        pipeline.stage_gradcheck(cfg, None, None)


def test_config_dict_roundtrip():
    cfg = pipeline.ExperimentConfig(seed=3, folds=2, out_dir="x")
    back = pipeline.ExperimentConfig.from_dict(cfg.to_dict())
    assert back.to_dict() == cfg.to_dict()


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
        for rel in ("config.json", "data/manifest.json", "model.ten", "model.json",
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

    def test_heatmap_export_writes_one_pgm_per_image(self, mini_run, tmp_path):
        cfg, csv_path = mini_run
        out = tmp_path / "run"
        shutil.copytree(cfg.out_dir, out)
        for rel in ("features", "detectors", "report"):
            shutil.rmtree(out / rel)
        hcfg = dataclasses.replace(cfg, out_dir=str(out), export_heatmaps=True)
        pipeline.run_pipeline(hcfg)
        ids = json.load(open(out / "data" / "manifest.json"))["val_ids"]
        names = ["clean"] + [pipeline.attack_tag(spec) for spec in cfg.attack_list]
        assert sorted(os.listdir(out / "heatmaps")) == sorted(
            f"{name}_{sid}.pgm" for name in names for sid in ids)
        assert (out / "report" / "report.csv").read_bytes() == open(csv_path, "rb").read()

    def test_gradcheck_recorded_as_passed(self, mini_run):
        cfg, _ = mini_run
        doc = json.load(open(os.path.join(cfg.out_dir, "gradcheck.json")))
        assert doc["passed"] is True
        assert (doc["h"], doc["n_samples"], doc["radius"]) == (0.1, 200, 2)

    def test_lasso_records_iterations(self, mini_run):
        cfg, _ = mini_run
        doc = json.load(open(os.path.join(cfg.out_dir, "detectors", "lasso.json")))
        assert 1 <= doc["params"]["iterations"] <= 10_000


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
        rc = cli.main(["detect", "--out", cfg.out_dir,
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
        rc = cli.main(["detect", "--out", cfg.out_dir,
                       "--detector", os.path.join(cfg.out_dir, "detectors", "lasso.json"),
                       "--features", os.path.join(cfg.out_dir, "features", "fgsm_e8.csv")])
        assert rc == 0
        assert calls == [cfg.dataset.val_size]
        assert len(capsys.readouterr().out.splitlines()) == cfg.dataset.val_size

    @pytest.mark.parametrize("content,message", [
        (None, "No such file"),
        ("{not json", "Expecting property name"),
        ('{"train": {"lr": -1}}', "learning rate"),
        ('{"folz": 2}', "unknown config key(s) folz"),
        ('{"attack_list": [{"kind": "fgsm"}]}', "attack 'fgsm': missing key 'eps'"),
        ('{"attack_list": [{"kind": "ifgsm", "eps": -2}]}', "eps"),
        ('{"detector_list": [{"kind": "svm"}]}', "unknown detector kind 'svm'"),
        ('{"dataset": {"foo": 1}}', "unknown dataset key(s) foo"),
        ('{"train": {"epochs": 2, "bar": 1}}', "unknown train key(s) bar"),
        ('{"folds": 3, "dataset": {"val_size": 40}}', "need at least 2 folds of 20 clean scores"),
        ('{"folds": 0}', "need at least 2 folds"),
        ('{"train": {"epochs": "x"}}', "train key epochs: expected int, got str"),
        ('{"dataset": {"height": "64"}}', "dataset key height: expected int, got str"),
        ('{"folds": "2"}', "config key folds: expected int, got str"),
        ('{"attack_list": [{"kind": "ifgsm", "eps": "8"}]}',
         "attack 'ifgsm' key eps: expected float, got str"),
        ('{"dataset": {"val_size": 40.5}}', "dataset key val_size: expected int, got float"),
        ('{"train": {"epochs": true}}', "train key epochs: expected int, got bool"),
        ('{"export_heatmaps": 1}', "config key export_heatmaps: expected bool, got int"),
        ('{"detector_list": [{"kind": "lasso", "lam": "x"}]}',
         "detector 'lasso' key lam: expected float, got str"),
    ])
    def test_config_errors_exit_cleanly(self, tmp_path, capsys, content, message):
        path = tmp_path / "config.json"
        if content is not None:
            path.write_text(content)
        rc = cli.main(["gen-data", "--config", str(path), "--out", str(tmp_path / "run")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("segdetect: gen-data: ") and message in err
        assert not (tmp_path / "run").exists()

    def test_detect_on_old_feature_csv_errors(self, mini_run, tmp_path, capsys):
        cfg, _ = mini_run
        path = tmp_path / "old.csv"
        path.write_text("id,label,attack,E,V,M,P0,P1,P2,P3\n"
                        "val_0000,clean,,0.1,0.05,0.06,0.7,0.1,0.1,0.1\n")
        rc = cli.main(["detect", "--out", cfg.out_dir,
                       "--detector", os.path.join(cfg.out_dir, "detectors", "entropy.json"),
                       "--features", str(path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("segdetect: detect: ") and "old.csv" in err and "--force" in err

    def test_unknown_detector_file_errors(self, tmp_path, capsys):
        rc = cli.main(["detect", "--out", str(tmp_path),
                       "--detector", str(tmp_path / "nope.json"),
                       "--features", str(tmp_path / "nope.csv")])
        assert rc == 1
        assert "segdetect: detect:" in capsys.readouterr().err

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
        # later commands read the features back from CSV; run-all keeps them in memory
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

    def test_recorded_failed_gradcheck_stops_attack(self, tiny_model_dir, tmp_path, capsys):
        out = tmp_path / "run"
        shutil.copytree(tiny_model_dir, out)
        (out / "gradcheck.json").write_text(json.dumps(
            {"passed": False, "frac_within": 0.5, "median_rel_err": 0.3, "quantiles": {}}))
        assert run_cli("attack", out) == 1
        assert "segdetect: attack: gradient check failed" in capsys.readouterr().err
        assert not (out / "attacks").exists()

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
