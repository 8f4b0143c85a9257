import json
import os

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

    def test_gradcheck_recorded_as_passed(self, mini_run):
        cfg, _ = mini_run
        doc = json.load(open(os.path.join(cfg.out_dir, "gradcheck.json")))
        assert doc["passed"] is True


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

    def test_stage_overrides_merge(self, tmp_path):
        from segdetect.cli import build_parser, load_config
        ov = json.dumps({"dataset": {"noise_std": 3.0}, "folds": 2})
        args = build_parser().parse_args(["gen-data", "--stage-overrides", ov,
                                          "--out", str(tmp_path)])
        cfg = load_config(args)
        assert cfg.dataset.noise_std == 3.0 and cfg.folds == 2
        assert cfg.dataset.height == 64   # untouched defaults survive the merge
