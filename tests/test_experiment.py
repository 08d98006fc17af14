from __future__ import annotations

import json
import multiprocessing
import os
from pathlib import Path

import numpy as np
import pytest

from fetalguard import experiment
from fetalguard.autoencoder import AeConfig, AeModel
from fetalguard.cli import main
from fetalguard.config import (
    DataConfig,
    EvalConfig,
    ExperimentConfig,
    OutputConfig,
    SynthDataConfig,
    load_config,
)
from fetalguard.datasets import SplitConfig
from fetalguard.errors import ConfigError, TestIsolationError, TrainingError
from fetalguard.experiment import (
    TestSetGuard,
    aggregate_runs,
    fit_detector,
    format_aggregate_table,
    run_experiment,
    run_single,
)
from fetalguard.ganomaly import GanomalyConfig, GanomalyModel
from fetalguard.iforest import IforestConfig
from fetalguard.ingest import ClassLabel
from fetalguard.preprocess import PreprocessConfig, FeatureVector


def _features(n_normal, n_abnormal, dim=24, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n_normal + n_abnormal):
        abnormal = i >= n_normal
        x = np.full(dim, rng.uniform(0.55, 0.65))
        if abnormal:
            start = int(rng.integers(0, dim - 8))
            x[start : start + 8] -= rng.uniform(0.15, 0.25)
        x += 0.01 * rng.normal(size=dim)
        out.append(
            FeatureVector(
                x=x,
                record_id=f"r{i:04d}",
                label=ClassLabel.ABNORMAL if abnormal else ClassLabel.NORMAL,
            )
        )
    return out


def _tiny_experiment_config(out_dir, seeds=1, models=None):
    model_sections = {
        "iforest": IforestConfig(n_trees=25),
        "ae": AeConfig(
            encoder_units=(16, 8), decoder_units=(8, 16), epochs=25, patience=25, batch_size=16
        ),
        "ganomaly": GanomalyConfig(
            encoder_units=(16, 8),
            decoder_units=(8, 16),
            discriminator_units=(16, 1),
            iterations_per_epoch=40,
            epochs=4,
            patience=4,
        ),
    }
    if models:
        model_sections = {k: v for k, v in model_sections.items() if k in models}
    return ExperimentConfig(
        data=DataConfig(synth=SynthDataConfig(n_normal=48, n_abnormal=24, seed=3)),
        preprocess=PreprocessConfig(median_window=5, feature_dim=32),
        split=SplitConfig(test_fraction=0.15, seed=0),
        models=model_sections,
        grids={},
        eval=EvalConfig(seeds=seeds),
        output=OutputConfig(dir=str(out_dir)),
    )


class TestGuard:
    def test_take_before_unlock_raises(self):
        guard = TestSetGuard([1, 2, 3])
        with pytest.raises(TestIsolationError):
            guard.take()

    def test_double_take_raises(self):
        guard = TestSetGuard([1, 2, 3])
        guard.unlock()
        assert guard.take() == [1, 2, 3]
        with pytest.raises(TestIsolationError):
            guard.take()

    def test_reads_counter(self):
        guard = TestSetGuard([1])
        assert guard.reads == 0
        guard.unlock()
        guard.take()
        assert guard.reads == 1


class TestFitDetector:
    def test_iforest_train_on_normals_mode(self):
        data = _features(40, 20, seed=1)
        fitted = fit_detector(
            "iforest", IforestConfig(n_trees=10, train_on="normals"), data, data[:10], len(data), 0
        )
        assert fitted.extras["n_fit"] == 40

    def test_ganomaly_resamples_to_pre_validation_size(self):
        data = _features(40, 20, seed=2)
        config = GanomalyConfig(
            encoder_units=(8, 4),
            decoder_units=(4, 8),
            discriminator_units=(8, 1),
            iterations_per_epoch=10,
            epochs=1,
            patience=1,
        )
        fitted = fit_detector("ganomaly", config, data, data[:10], 70, 0)
        assert fitted.extras["n_fit"] == 70
        source_ids = {fv.record_id for fv in data if fv.label is ClassLabel.NORMAL}
        assert all(fv.record_id in source_ids for fv in fitted.fit_items)

    def test_unknown_model_name(self):
        with pytest.raises(ConfigError, match="valid options: ae, ganomaly, iforest"):
            fit_detector("svm", IforestConfig(), _features(10, 5), [], 15, 0)

    def test_tau_is_recomputable_from_train_scores(self):
        data = _features(40, 20, seed=4)
        config = AeConfig(encoder_units=(8, 4), decoder_units=(4, 8), epochs=5, patience=5)
        fitted = fit_detector("ae", config, data, data[:10], len(data), 0)
        scores = fitted.train_scores
        assert fitted.tau == pytest.approx(
            scores.mean() + config.k_sigma * scores.std(), abs=1e-15
        )


class TestRunSingle:
    def test_single_run_produces_report_and_respects_guard(self):
        features = _features(60, 30, seed=5)
        result = run_single(
            "iforest",
            IforestConfig(n_trees=25),
            {},
            features,
            SplitConfig(test_fraction=0.2, seed=1),
            {"median_window": 5},
            seed=1,
        )
        assert result["guard_reads"] == 1
        assert result["sizes"]["test"] == 18
        assert 0.0 <= result["report"].f1 <= 1.0
        assert result["fitted"].model.preprocess == {"median_window": 5}

    def test_grid_search_picks_best_validation_f1(self):
        features = _features(60, 30, seed=6)
        result = run_single(
            "iforest",
            IforestConfig(n_trees=25),
            {"contamination": [0.1, 0.33, 0.5]},
            features,
            SplitConfig(test_fraction=0.2, seed=2),
            {},
            seed=2,
        )
        assert result["grid_choice"].get("contamination") in (0.1, 0.33, 0.5)
        # the winner's validation f1 is >= every other combo's (re-run to compare)
        others = []
        for c in (0.1, 0.33, 0.5):
            single = run_single(
                "iforest",
                IforestConfig(n_trees=25, contamination=c),
                {},
                features,
                SplitConfig(test_fraction=0.2, seed=2),
                {},
                seed=2,
            )
            others.append(single["validation"]["f1"])
        assert result["validation"]["f1"] == pytest.approx(max(others))


class TestRunExperiment:
    def test_full_run_writes_all_artifacts(self, tmp_path):
        config = _tiny_experiment_config(tmp_path / "out", models=["iforest", "ae"])
        aggregate = run_experiment(config)
        out = tmp_path / "out"
        assert (out / "config.resolved.json").exists()
        assert (out / "aggregate.json").exists()
        assert (out / "aggregate.txt").exists()
        for model in ("iforest", "ae"):
            run_dir = out / "seed_000" / model
            for name in (
                "model.json",
                "report.json",
                "scores_test.csv",
                "pr_curve.csv",
                "roc_curve.csv",
                "curves.svg",
                "score_distribution.json",
            ):
                assert (run_dir / name).exists(), f"{model}/{name} missing"
            assert model in aggregate
        assert (out / "seed_000" / "ae" / "trace.csv").exists()
        report = json.loads((out / "seed_000" / "iforest" / "report.json").read_text())
        assert report["model"] == "iforest"
        assert set(report["test"]) >= {"f1", "balanced_accuracy", "auc_roc", "counts"}

    def test_rerun_is_byte_identical(self, tmp_path):
        config_a = _tiny_experiment_config(tmp_path / "a", models=["iforest"])
        config_b = _tiny_experiment_config(tmp_path / "b", models=["iforest"])
        run_experiment(config_a)
        run_experiment(config_b)
        for rel in ("aggregate.json", "seed_000/iforest/report.json"):
            assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()

    def test_multiple_seeds_are_scoped_to_subdirectories(self, tmp_path):
        config = _tiny_experiment_config(tmp_path / "out", seeds=2, models=["iforest"])
        aggregate = run_experiment(config)
        assert (tmp_path / "out" / "seed_000" / "iforest").is_dir()
        assert (tmp_path / "out" / "seed_001" / "iforest").is_dir()
        assert aggregate["iforest"]["runs"] == 2
        assert aggregate["iforest"]["seeds"] == [0, 1]

    def test_score_artifacts_agree(self, tmp_path):
        # score_distribution.json, scores_test.csv and report.json of one leg
        # come from the same scores and the same tau, bit for bit
        run_experiment(_tiny_experiment_config(tmp_path / "out"))
        for model in ("iforest", "ae", "ganomaly"):
            run_dir = tmp_path / "out" / "seed_000" / model
            distribution = json.loads((run_dir / "score_distribution.json").read_text())
            report = json.loads((run_dir / "report.json").read_text())
            assert distribution["tau"] == report["tau"]
            rows = (run_dir / "scores_test.csv").read_text().splitlines()[1:]
            by_class = {"normal": [], "abnormal": []}
            for row in rows:
                _, label, score = row.split(",")
                by_class[ClassLabel(int(label)).name.lower()].append(float(score))
            test = distribution["partitions"]["test"]
            for cls, scores in by_class.items():
                assert test[cls]["scores"] == scores, f"{model} {cls}"

    def test_unconfigured_model_request_fails(self, tmp_path):
        config = _tiny_experiment_config(tmp_path / "out", models=["iforest"])
        with pytest.raises(ConfigError):
            run_experiment(config, models=["ganomaly"])


def _tree(root: Path) -> dict:
    return {str(path.relative_to(root)): path.read_bytes() for path in sorted(root.rglob("*")) if path.is_file()}


CORE_COUNTS = (1, 2, 3) if hasattr(os, "fork") else (1,)
# iforest with a 2-value grid, AE and GANomaly at tiny shapes, over 2 seeds: 8 fits in 6 legs
RUN_CONFIG = {
    "data": {"synth": {"n_normal": 30, "n_abnormal": 15, "seed": 3}},
    "preprocess": {"median_window": 5, "feature_dim": 16},
    "split": {"test_fraction": 0.15, "seed": 0},
    "model": {
        "iforest": {"n_trees": 10, "grid": {"contamination": [0.1, 0.3]}},
        "ae": {"encoder_units": [8, 4], "decoder_units": [4, 8], "epochs": 3, "patience": 3},
        "ganomaly": {
            "encoder_units": [8, 4],
            "decoder_units": [4, 8],
            "discriminator_units": [8, 1],
            "iterations_per_epoch": 5,
            "epochs": 2,
        },
    },
    "eval": {"seeds": 2},
}
RUN_LEGS = [(seed, name) for seed in (0, 1) for name in ("iforest", "ae", "ganomaly")]


@pytest.fixture
def run_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**RUN_CONFIG, "output": {"dir": str(tmp_path / "out")}}), encoding="utf-8")
    return path


class TestFitsOnEveryCore:
    def test_outputs_do_not_depend_on_the_core_count(self, run_config, tmp_path, set_cores, monkeypatch):
        config = load_config(run_config)
        assert config.grids == {"iforest": {"contamination": [0.1, 0.3]}}
        original = experiment.run_single
        calls = []

        def spy(name, *args, **kwargs):
            result = original(name, *args, **kwargs)
            calls.append((result["seed"], name, os.getpid(), len(kwargs["fits"]), result["guard_reads"]))
            return result

        monkeypatch.setattr(experiment, "run_single", spy)
        trees = {}
        for cores in CORE_COUNTS:
            set_cores(cores)
            calls.clear()
            run_experiment(config, out_dir=tmp_path / f"cores{cores}")
            trees[cores] = _tree(tmp_path / f"cores{cores}")
            # once per leg, in leg order, in this process, each with its fits and one test read
            fits = {"iforest": 2, "ae": 1, "ganomaly": 1}
            assert calls == [(seed, name, os.getpid(), fits[name], 1) for seed, name in RUN_LEGS]
        assert len(trees[1]) > 30
        for cores in CORE_COUNTS:
            assert trees[cores] == trees[1], cores

    @staticmethod
    def _fail_legs(monkeypatch, failing: set):
        """Make the AE and GANomaly fits of the (seed, name) legs in failing raise a TrainingError."""
        for cls in (AeModel, GanomalyModel):
            fit = cls.fit

            def failing_fit(cls, config, train_core, validation, pre_validation_size, seed, fit=fit):
                if (seed, cls.model_type) in failing:
                    raise TrainingError(
                        f"{cls.model_type} seed {seed}: loss is not finite", diagnostics={"seed": seed}
                    )
                return fit(config, train_core, validation, pre_validation_size, seed)

            monkeypatch.setattr(cls, "fit", classmethod(failing_fit))

    @pytest.mark.parametrize(
        "failing, first",
        [({(1, "ae")}, "ae seed 1"), ({(1, "ae"), (1, "ganomaly"), (0, "ganomaly")}, "ganomaly seed 0")],
    )
    def test_a_failing_fit_ends_the_run_as_on_one_core(
        self, failing, first, run_config, tmp_path, set_cores, monkeypatch, capsys
    ):
        self._fail_legs(monkeypatch, failing)
        for cores in CORE_COUNTS:
            set_cores(cores)
            capsys.readouterr()
            assert main(["run", "--config", str(run_config)]) == 1
            err = capsys.readouterr().err
            assert err == f"error: {first}: loss is not finite\n", (cores, err)
            assert not multiprocessing.active_children()

    def test_the_error_keeps_its_type_and_attributes(self, run_config, set_cores, monkeypatch):
        self._fail_legs(monkeypatch, {(1, "ganomaly")})
        set_cores(3)
        with pytest.raises(TrainingError) as exc:
            run_experiment(load_config(run_config))
        assert str(exc.value) == "ganomaly seed 1: loss is not finite"
        assert exc.value.diagnostics == {"seed": 1}


def test_aggregate_math_and_table_shape():
    payloads = [
        {"model": "ae", "seed": 0, "test": {m: 0.8 for m in ("f1", "balanced_accuracy", "precision", "recall", "accuracy", "auc_roc", "auc_pr")}},
        {"model": "ae", "seed": 1, "test": {m: 0.6 for m in ("f1", "balanced_accuracy", "precision", "recall", "accuracy", "auc_roc", "auc_pr")}},
    ]
    aggregate = aggregate_runs(payloads)
    assert aggregate["ae"]["f1"]["mean"] == pytest.approx(0.7)
    assert aggregate["ae"]["f1"]["std"] == pytest.approx(np.std([0.8, 0.6], ddof=1))
    table = format_aggregate_table(aggregate)
    assert "f1 = 0.700 ± 0.141" in table
