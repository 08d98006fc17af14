from __future__ import annotations

import json
import shutil

import numpy as np
import pytest

from fetalguard.cli import main
from fetalguard.config import DETECTORS, load_config
from fetalguard.experiment import fit_detector
from fetalguard.ingest import ClassLabel
from fetalguard.persistence import save_model
from fetalguard.preprocess import FeatureVector, read_features_csv, write_features_csv

TINY_MODELS = {
    "iforest": {"n_trees": 5},
    "ae": {"encoder_units": (8, 4), "decoder_units": (4, 8), "epochs": 2, "patience": 2},
    "ganomaly": {
        "encoder_units": (8, 4),
        "decoder_units": (4, 8),
        "discriminator_units": (8, 1),
        "iterations_per_epoch": 5,
        "epochs": 1,
    },
}


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    base = tmp_path_factory.mktemp("cli-data")
    assert main(["synth", "--normal", "40", "--abnormal", "20", "--seed", "7", "--out", str(base)]) == 0
    return base


@pytest.fixture(scope="module")
def config_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli-cfg") / "config.json"
    path.write_text(
        json.dumps(
            {
                "data": {"synth": {"n_normal": 40, "n_abnormal": 20, "seed": 7}},
                "preprocess": {"median_window": 5, "feature_dim": 32},
                "split": {"test_fraction": 0.15, "seed": 0},
                "model": {
                    "iforest": {"n_trees": 25},
                    "ae": {
                        "encoder_units": [16, 8],
                        "decoder_units": [8, 16],
                        "epochs": 20,
                        "patience": 20,
                    },
                },
                "eval": {"seeds": 1},
                "output": {"dir": "PLACEHOLDER"},
            },
            indent=2,
        ).replace("PLACEHOLDER", str(tmp_path_factory.mktemp("cli-out"))),
        encoding="utf-8",
    )
    return path


def test_synth_writes_ingestible_dataset(dataset, capsys):
    assert main(
        ["ingest", "--signals", str(dataset / "signals"), "--metadata", str(dataset / "metadata.csv")]
    ) == 0
    out = capsys.readouterr().out
    assert "40 normal, 20 abnormal" in out


def test_pipeline_subcommands_chain(dataset, config_file, tmp_path, capsys):
    features = tmp_path / "features.csv"
    assert main(
        [
            "preprocess",
            "--signals", str(dataset / "signals"),
            "--metadata", str(dataset / "metadata.csv"),
            "--config", str(config_file),
            "--out", str(features),
        ]
    ) == 0

    split_dir = tmp_path / "split"
    assert main(
        ["split", "--features", str(features), "--test-fraction", "0.1", "--seed", "0", "--out", str(split_dir)]
    ) == 0
    summary = json.loads((split_dir / "split.json").read_text())
    assert summary["train"]["NORMAL"] + summary["test"]["NORMAL"] == 40

    trained = tmp_path / "trained"
    assert main(
        [
            "train",
            "--model", "iforest",
            "--features", str(split_dir / "train.csv"),
            "--config", str(config_file),
            "--seed", "0",
            "--out", str(trained),
        ]
    ) == 0
    model_data = json.loads((trained / "model.json").read_text())
    assert model_data["model_type"] == "iforest"
    assert model_data["tau"] is not None

    assert main(
        [
            "calibrate",
            "--model-file", str(trained / "model.json"),
            "--features", str(split_dir / "train.csv"),
        ]
    ) == 0

    eval_dir = tmp_path / "eval"
    assert main(
        [
            "evaluate",
            "--model-file", str(trained / "model.json"),
            "--features", str(split_dir / "test.csv"),
            "--out", str(eval_dir),
        ]
    ) == 0
    report = json.loads((eval_dir / "report.json").read_text())
    assert 0.0 <= report["f1"] <= 1.0

    curves_dir = tmp_path / "curves"
    assert main(["curves", "--scores", str(eval_dir / "scores.csv"), "--out", str(curves_dir)]) == 0
    assert (curves_dir / "curves.svg").exists()

    capsys.readouterr()
    signal = sorted((dataset / "signals").glob("*.csv"))[0]
    assert main(["score", "--model-file", str(trained / "model.json"), "--signal", str(signal)]) == 0
    line = capsys.readouterr().out.strip()
    record_id, score, tau, verdict = line.split(",")
    assert record_id == signal.stem
    assert verdict in ("normal", "abnormal")
    float(score), float(tau)


def test_score_abnormal_synthetic_flags_abnormal(dataset, config_file, tmp_path, capsys):
    out_dir = tmp_path / "run"
    assert main(["run", "--config", str(config_file), "--model", "iforest", "--out", str(out_dir)]) == 0
    capsys.readouterr()
    model_file = out_dir / "seed_000" / "iforest" / "model.json"
    # syn0055 is generated abnormal (indices >= 40)
    signal = dataset / "signals" / "syn0055.csv"
    assert main(["score", "--model-file", str(model_file), "--signal", str(signal)]) == 0
    assert capsys.readouterr().out.strip().endswith("abnormal")
    signal = dataset / "signals" / "syn0000.csv"
    assert main(["score", "--model-file", str(model_file), "--signal", str(signal)]) == 0
    assert capsys.readouterr().out.strip().endswith("normal")


def test_run_emits_aggregate_table_row(config_file, tmp_path, capsys):
    out_dir = tmp_path / "run-out"
    assert main(["run", "--config", str(config_file), "--model", "ae", "--out", str(out_dir)]) == 0
    stdout = capsys.readouterr().out
    assert "f1 = " in stdout and "±" in stdout
    aggregate = json.loads((out_dir / "aggregate.json").read_text())
    assert "ae" in aggregate


def test_run_rerun_reproduces_identical_metric_json(config_file, tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["run", "--config", str(config_file), "--model", "iforest", "--out", str(out_a)]) == 0
    assert main(["run", "--config", str(config_file), "--model", "iforest", "--out", str(out_b)]) == 0
    assert (out_a / "aggregate.json").read_bytes() == (out_b / "aggregate.json").read_bytes()
    assert (out_a / "seed_000" / "iforest" / "report.json").read_bytes() == (
        out_b / "seed_000" / "iforest" / "report.json"
    ).read_bytes()


def test_unknown_model_in_config_exits_with_options(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps(
            {
                "data": {"synth": {"n_normal": 5, "n_abnormal": 5}},
                "model": {"boosted_trees": {}},
            }
        ),
        encoding="utf-8",
    )
    assert main(["run", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "boosted_trees" in err
    for name in ("ae", "ganomaly", "iforest"):
        assert name in err


def test_invalid_json_reports_line(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{\n  "data": oops\n}\n', encoding="utf-8")
    assert main(["run", "--config", str(path)]) == 2
    assert ":2:" in capsys.readouterr().err


def test_missing_model_file_is_reported(tmp_path, capsys):
    assert main(["score", "--model-file", str(tmp_path / "nope.json"), "--signal", "x.csv"]) == 2
    assert "nope.json" in capsys.readouterr().err


def test_dimension_mismatch_between_model_and_preprocess(dataset, config_file, tmp_path, capsys):
    out_dir = tmp_path / "run"
    assert main(["run", "--config", str(config_file), "--model", "iforest", "--out", str(out_dir)]) == 0
    model_file = out_dir / "seed_000" / "iforest" / "model.json"
    data = json.loads(model_file.read_text())
    data["preprocess"]["feature_dim"] = 999
    model_file.write_text(json.dumps(data), encoding="utf-8")
    capsys.readouterr()
    signal = dataset / "signals" / "syn0000.csv"
    assert main(["score", "--model-file", str(model_file), "--signal", str(signal)]) == 2
    assert "999" in capsys.readouterr().err


@pytest.fixture(scope="module")
def features_file(tmp_path_factory):
    rng = np.random.default_rng(0)
    features = [
        FeatureVector(
            x=0.5 + 0.05 * rng.normal(size=16),
            record_id=f"f{i:03d}",
            label=ClassLabel.ABNORMAL if i >= 30 else ClassLabel.NORMAL,
        )
        for i in range(45)
    ]
    path = tmp_path_factory.mktemp("features") / "features.csv"
    write_features_csv(features, path)
    return path


@pytest.fixture(scope="module")
def model_files(features_file, tmp_path_factory):
    features = read_features_csv(features_file)
    out = tmp_path_factory.mktemp("models")
    files = {}
    for name, detector in DETECTORS.items():
        config = detector.config_type(**TINY_MODELS[name])
        fitted = fit_detector(name, config, features, features[:10], len(features), 0)
        files[name] = out / f"{name}.json"
        save_model(fitted.model, files[name])
    return files


def _edited_copy(path, tmp_path, edit):
    data = json.loads(path.read_text())
    edit(data)
    out = tmp_path / path.name
    out.write_text(json.dumps(data), encoding="utf-8")
    return out


def _edited_csv(path, tmp_path, line, column, value):
    lines = path.read_text().splitlines()
    cells = lines[line - 1].split(",")
    cells[column] = value
    lines[line - 1] = ",".join(cells)
    out = tmp_path / path.name
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return out


def _one_line_error(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


MISSING_KEY = {"iforest": "subsample_size", "ae": "decoder", "ganomaly": "encoder2"}
ARTIFACT_DEFECTS = {
    "missing key": lambda name, data: data.pop(MISSING_KEY[name]),
    "unknown format_version": lambda name, data: data.update(format_version=99),
    "unknown model_type": lambda name, data: data.update(model_type="svm"),
    "feature_dim off the first layer": lambda name, data: data.update(feature_dim=17),
}


@pytest.mark.parametrize(
    "name, defect",
    [
        (name, defect)
        for name in DETECTORS
        for defect in ARTIFACT_DEFECTS
        # an isolation forest has no layer to check feature_dim against
        if not (name == "iforest" and defect.startswith("feature_dim"))
    ],
)
def test_bad_model_artifact_is_a_one_line_config_error(
    name, defect, model_files, features_file, tmp_path, capsys
):
    bad = _edited_copy(model_files[name], tmp_path, lambda data: ARTIFACT_DEFECTS[defect](name, data))
    assert main(["calibrate", "--model-file", str(bad), "--features", str(features_file)]) == 2
    assert str(bad) in _one_line_error(capsys)


def test_train_reads_its_config_once(features_file, config_file, tmp_path, monkeypatch):
    from fetalguard import cli

    reads = []

    def counting_load_config(*args, **kwargs):
        reads.append(args)
        return load_config(*args, **kwargs)

    monkeypatch.setattr(cli, "load_config", counting_load_config)
    out = tmp_path / "trained"
    assert main(
        ["train", "--model", "iforest", "--features", str(features_file),
         "--config", str(config_file), "--out", str(out)]
    ) == 0
    assert len(reads) == 1
    model_data = json.loads((out / "model.json").read_text())
    assert model_data["preprocess"] == load_config(config_file, required=()).preprocess.to_dict()
    assert len(model_data["trees"]) == 25  # the model section of the same file


def test_version_1_iforest_artifact_still_loads(model_files, features_file, tmp_path, capsys):
    def as_version_1(data):
        data["format_version"] = 1
        data["threshold"] = data.pop("tau")

    old = _edited_copy(model_files["iforest"], tmp_path, as_version_1)
    tau = json.loads(old.read_text())["threshold"]
    assert main(["calibrate", "--model-file", str(old), "--features", str(features_file)]) == 0
    assert capsys.readouterr().out.startswith(f"tau: {tau!r} -> ")
    rewritten = json.loads(old.read_text())
    assert rewritten["format_version"] == 2 and "threshold" not in rewritten


@pytest.mark.parametrize("name", ["ae", "ganomaly", "iforest"])
def test_calibrate_refuses_a_non_finite_score(name, model_files, features_file, tmp_path, capsys):
    bad_features = _edited_csv(features_file, tmp_path, line=2, column=5, value="nan")
    model_file = tmp_path / "model.json"
    shutil.copy(model_files[name], model_file)
    before = model_file.read_bytes()
    assert main(["calibrate", "--model-file", str(model_file), "--features", str(bad_features)]) == 1
    assert "non-finite" in _one_line_error(capsys)
    assert model_file.read_bytes() == before


@pytest.mark.parametrize(
    "name, flag", [("iforest", "--k"), ("ae", "--contamination"), ("ganomaly", "--contamination")]
)
def test_calibrate_rejects_an_override_that_does_not_apply(
    name, flag, model_files, features_file, tmp_path, capsys
):
    model_file = tmp_path / "model.json"
    shutil.copy(model_files[name], model_file)
    argv = ["calibrate", "--model-file", str(model_file), "--features", str(features_file)]
    assert main(argv + [flag, "0.2"]) == 2
    assert f"{flag} does not apply to a {name} model" in _one_line_error(capsys)


@pytest.mark.parametrize(
    "name, flag, field", [("iforest", "--contamination", "contamination"), ("ae", "--k", "k_sigma")]
)
def test_calibrate_applies_an_override(name, flag, field, model_files, features_file, tmp_path):
    model_file = tmp_path / "model.json"
    shutil.copy(model_files[name], model_file)
    argv = ["calibrate", "--model-file", str(model_file), "--features", str(features_file)]
    assert main(argv + [flag, "0.2"]) == 0
    assert json.loads(model_file.read_text())[field] == 0.2


@pytest.mark.parametrize(
    "column, value, message",
    [(1, "9.9", "ph 9.9 outside"), (2, "6.5", "apgar1 must be an integer"), (2, "11", "apgar1 11 outside")],
)
def test_ingest_rejects_a_bad_metadata_value_with_its_line(
    column, value, message, dataset, tmp_path, capsys
):
    bad = _edited_csv(dataset / "metadata.csv", tmp_path, line=3, column=column, value=value)
    assert main(["ingest", "--signals", str(dataset / "signals"), "--metadata", str(bad)]) == 1
    err = _one_line_error(capsys)
    assert "line 3" in err and message in err


def test_split_rejects_a_bad_label_with_its_line(features_file, tmp_path, capsys):
    bad = _edited_csv(features_file, tmp_path, line=4, column=1, value="2")
    assert main(["split", "--features", str(bad), "--out", str(tmp_path / "split")]) == 1
    err = _one_line_error(capsys)
    assert "line 4" in err and "'2'" in err


def test_curves_rejects_an_empty_label_with_its_line(tmp_path, capsys):
    scores = tmp_path / "scores.csv"
    scores.write_text("record_id,label,score\na,1,0.9\nb,,0.2\nc,0,0.1\n", encoding="utf-8")
    assert main(["curves", "--scores", str(scores), "--out", str(tmp_path / "curves")]) == 1
    err = _one_line_error(capsys)
    assert "line 3" in err and "label" in err
