from __future__ import annotations

import base64
import csv
import json
import logging
import os
import re
import shutil
import warnings

import numpy as np
import pytest

from fetalguard.cli import main
from fetalguard.config import DETECTORS, load_config
from fetalguard.experiment import fit_detector
from fetalguard.iforest import MAX_SUBSAMPLE, depth_limit
from fetalguard.ingest import ClassLabel, SignalRecord
from fetalguard.persistence import save_model
from fetalguard.preprocess import FeatureVector, read_features_csv, write_features_csv
from oracles import CURRENT_FORMAT, reference_model_to_dict, reference_seal

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


def test_a_config_that_nests_too_deeply_is_a_one_line_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_bytes(b"[" * 100_000 + b"]" * 100_000)
    assert main(["run", "--config", str(path)]) == 2
    assert f"config {path} nests too deeply" in _one_line_error(capsys)


def test_missing_model_file_is_reported(tmp_path, capsys):
    assert main(["score", "--model-file", str(tmp_path / "nope.json"), "--signal", "x.csv"]) == 2
    assert "nope.json" in capsys.readouterr().err


def test_dimension_mismatch_between_model_and_preprocess(dataset, config_file, tmp_path, capsys):
    out_dir = tmp_path / "run"
    assert main(["run", "--config", str(config_file), "--model", "iforest", "--out", str(out_dir)]) == 0
    model_file = out_dir / "seed_000" / "iforest" / "model.json"
    model_file = _edited_copy(model_file, tmp_path, lambda data: data["preprocess"].update(feature_dim=999))
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
        # and unsealed in each older format, as the reference encoder writes it, and in the current one
        for version in range(1, CURRENT_FORMAT[name] + 1):
            files[f"{name}_v{version}"] = out / f"{name}_v{version}.json"
            text = json.dumps(reference_model_to_dict(fitted.model, version), indent=2, sort_keys=True) + "\n"
            files[f"{name}_v{version}"].write_text(text, encoding="utf-8")
    return files


def _edited_copy(path, tmp_path, edit):
    """A copy of a model file as edit(its fields) leaves them, sealed again as save_model seals."""
    data = json.loads(path.read_text())
    del data["sha256"]
    edit(data)
    out = tmp_path / path.name
    out.write_text(reference_seal(json.dumps(data, indent=2, sort_keys=True) + "\n"), encoding="utf-8")
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


def _first_layer(name, data):
    return data["encoder" if name == "ae" else "encoder1"]["layers"][0]


def _edited_weights(edit):
    """A defect that rewrites the first layer's weight blob as edit(its float64 values)."""

    def apply(name, data):
        layer = _first_layer(name, data)
        values = np.frombuffer(base64.b64decode(layer["weights"]), dtype="<f8")
        layer["weights"] = base64.b64encode(edit(values).astype("<f8").tobytes()).decode("ascii")

    return apply


# the arrays of a model file's forest and the little-endian type of their values
FOREST_DTYPES = {
    "node_counts": "<i4", "feature": "<i4", "threshold": "<f8", "left": "<i4", "right": "<i4", "size": "<i4"
}


def _forest_arrays(forest) -> dict:
    return {key: np.frombuffer(base64.b64decode(blob), dtype=FOREST_DTYPES[key]).copy() for key, blob in forest.items()}


def _edited_forest(edit):
    """A defect that rewrites the forest arrays as edit(arrays) leaves them; tree 0's root is a split."""

    def apply(name, data):
        arrays = _forest_arrays(data["trees"])
        assert arrays["feature"][0] >= 0
        edit(arrays)
        data["trees"] = {
            key: base64.b64encode(values.astype(FOREST_DTYPES[key]).tobytes()).decode("ascii")
            for key, values in arrays.items()
        }

    return apply


def _set_in_forest(key, index, value):
    """A defect that sets one value of a forest array; index and value may be functions of the arrays."""

    def edit(arrays):
        at = index(arrays) if callable(index) else index
        arrays[key][at] = value(arrays) if callable(value) else value

    return _edited_forest(edit)


def _first_array_leaf(arrays):
    return int(np.flatnonzero(arrays["feature"] == -1)[0])


def _subsample_below_a_split(name, data):
    """subsample_size as large as the largest leaf, whose depth limit some split is at or beyond."""
    data["subsample_size"] = int(_forest_arrays(data["trees"])["size"].max())
    assert depth_limit(data["subsample_size"]) < depth_limit(45)  # the fitted forest's subsample


MISSING_KEY = {"iforest": "subsample_size", "ae": "decoder", "ganomaly": "encoder2"}
NUMBER_KEY = {"iforest": "subsample_size", "ae": "k_sigma", "ganomaly": "k_sigma"}
ARTIFACT_DEFECTS = {
    "missing key": lambda name, data: data.pop(MISSING_KEY[name]),
    "unknown format_version": lambda name, data: data.update(format_version=99),
    "unknown model_type": lambda name, data: data.update(model_type="svm"),
    "feature_dim off the first layer": lambda name, data: data.update(feature_dim=17),
    "tau of the wrong type": lambda name, data: data.update(tau="abc"),
    "tau not finite": lambda name, data: data.update(tau=float("inf")),
    "number of the wrong type": lambda name, data: data.update({NUMBER_KEY[name]: "256"}),
    "preprocess with an unknown key": lambda name, data: data.update(preprocess={"median_windw": 5}),
    "preprocess not an object": lambda name, data: data.update(preprocess=[5, 20.0, 16]),
    "preprocess value of the wrong type": lambda name, data: data.update(preprocess={"median_window": "5"}),
    "preprocess with an even median_window": lambda name, data: data.update(preprocess={"median_window": 4}),
    "unknown score_mode": lambda name, data: data.update(score_mode="bogus"),
    "weight blob not base64": lambda name, data: _first_layer(name, data).update(weights="not base64!"),
    "weight blob one float short": _edited_weights(lambda values: values[:-1]),
    "weight blob holding a NaN": _edited_weights(lambda values: np.concatenate([[np.nan], values[1:]])),
    "weight list where a blob belongs": lambda name, data: _first_layer(name, data).update(
        weights=np.full((16, 8), 0.5).tolist()  # the first layer's shape, as version 1 wrote it
    ),
    "in_dim off its blob": lambda name, data: _first_layer(name, data).update(in_dim=17),
    "layer alpha not finite (NaN)": lambda name, data: _first_layer(name, data).update(alpha=float("nan")),
    "layer alpha not finite (Infinity)": lambda name, data: _first_layer(name, data).update(alpha=float("inf")),
    "unknown key in a network": lambda name, data: data["decoder"].update(dropout=0.5),
    "unknown key in a layer": lambda name, data: _first_layer(name, data).update(dropout=0.5),
    "forest without an array": lambda name, data: data["trees"].pop("size"),
    "forest with an unknown array": lambda name, data: data["trees"].update(depth=data["trees"]["size"]),
    "forest array not base64": lambda name, data: data["trees"].update(  # a line break inside
        threshold=data["trees"]["threshold"][:8] + "\n" + data["trees"]["threshold"][8:]
    ),
    "forest array of a partial value": lambda name, data: data["trees"].update(
        feature=base64.b64encode(base64.b64decode(data["trees"]["feature"])[:-1]).decode("ascii")
    ),
    "forest array of the wrong length": _edited_forest(lambda a: a.update(size=a["size"][:-1])),
    "forest node counts off the arrays": _set_in_forest("node_counts", 0, lambda a: a["node_counts"][0] + 1),
    "forest tree of no nodes": _set_in_forest("node_counts", 0, 0),
    "forest split feature 999": _set_in_forest("feature", 0, 999),
    "forest split feature -2": _set_in_forest("feature", 0, -2),
    "forest split threshold not finite": _set_in_forest("threshold", 0, np.inf),
    "forest leaf larger than the subsample": _set_in_forest("size", _first_array_leaf, 10**5),
    "forest child before its parent": _set_in_forest("left", 0, 0),
    "forest child beyond its tree": _set_in_forest("right", 0, lambda a: a["node_counts"][0]),
    "forest node with two parents": _set_in_forest("right", 0, lambda a: a["left"][0]),
    "forest node with no parent": _set_in_forest("feature", 0, -1),  # the root as a leaf orphans its children
    "forest split at the depth limit": _subsample_below_a_split,
    "forest subsample_size beyond the cap": lambda name, data: data.update(subsample_size=MAX_SUBSAMPLE + 1),
}
# what the error names, for the defects that only the forest has
DEFECT_MESSAGES = {
    "preprocess with an even median_window": "median_window must be odd and positive, got 4",
    "layer alpha not finite (NaN)": "layer alpha nan is not a finite number",
    "layer alpha not finite (Infinity)": "layer alpha inf is not a finite number",
    "unknown key in a network": "decoder: unknown key 'dropout' in a network",
    "unknown key in a layer": "unknown key 'dropout' in layer 0",
    "forest without an array": "forest must be an object of the arrays",
    "forest with an unknown array": "forest must be an object of the arrays",
    "forest array not base64": "forest array threshold is not a base64 string",
    "forest array of a partial value": "forest array feature holds",
    "forest array of the wrong length": "node arrays hold",
    "forest node counts off the arrays": "node arrays hold",
    "forest tree of no nodes": "a tree has 0 nodes",
    "forest split feature 999": "node 0 of tree 0: split feature 999 outside [0, 16)",
    "forest split feature -2": "node 0 of tree 0: split feature -2 outside [0, 16)",
    "forest split threshold not finite": "node 0 of tree 0: split threshold inf is not finite",
    "forest leaf larger than the subsample": "leaf size 100000 outside [0, 45]",
    "forest child before its parent": "node 0 of tree 0: children 0 and",
    "forest child beyond its tree": "are not after the node and inside its",
    "forest node with two parents": "2 parents",
    "forest node with no parent": "node 1 of tree 0: 0 parents",
    "forest split at the depth limit": "split at depth",
    "forest subsample_size beyond the cap": "subsample_size must be in [1, 65536], got 65537",
}
# defects that only one kind of model can have; every other defect applies to all three
DEFECT_MODELS = {
    # an isolation forest has no layer to check feature_dim against
    "feature_dim off the first layer": ("ae", "ganomaly"),
    "unknown score_mode": ("ganomaly",),
    "layer alpha not finite (NaN)": ("ae", "ganomaly"),
    "layer alpha not finite (Infinity)": ("ae", "ganomaly"),
    "unknown key in a network": ("ae", "ganomaly"),
    "unknown key in a layer": ("ae", "ganomaly"),
    "weight blob not base64": ("ae", "ganomaly"),
    "weight blob one float short": ("ae", "ganomaly"),
    "weight blob holding a NaN": ("ae", "ganomaly"),
    "weight list where a blob belongs": ("ae", "ganomaly"),
    "in_dim off its blob": ("ae", "ganomaly"),
    **{defect: ("iforest",) for defect in ARTIFACT_DEFECTS if defect.startswith("forest ")},
}


@pytest.mark.parametrize(
    "name, defect",
    [
        (name, defect)
        for name in DETECTORS
        for defect in ARTIFACT_DEFECTS
        if name in DEFECT_MODELS.get(defect, DETECTORS)
    ],
)
def test_bad_model_artifact_is_a_one_line_config_error(
    name, defect, model_files, features_file, tmp_path, capsys
):
    bad = _edited_copy(model_files[name], tmp_path, lambda data: ARTIFACT_DEFECTS[defect](name, data))
    assert main(["calibrate", "--model-file", str(bad), "--features", str(features_file)]) == 2
    err = _one_line_error(capsys)
    assert str(bad) in err and DEFECT_MESSAGES.get(defect, "") in err


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
@pytest.mark.parametrize("model", list(DETECTORS))
def test_a_non_finite_feature_cell_is_a_one_line_error_before_training(model, value, features_file, tmp_path, capsys):
    lines = features_file.read_text(encoding="utf-8").splitlines(keepends=True)
    cells = lines[6].split(",")
    cells[5] = value
    lines[6] = ",".join(cells)
    bad = tmp_path / "features.csv"
    bad.write_text("".join(lines), encoding="utf-8")
    out = tmp_path / "trained"
    assert main(["train", "--model", model, "--features", str(bad), "--out", str(out)]) == 1
    assert f"line 7: {bad}: non-finite feature cell '{value}'" in _one_line_error(capsys)
    assert not out.exists()


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
    node_counts = base64.b64decode(model_data["trees"]["node_counts"])
    assert len(node_counts) == 4 * 25  # one int32 per tree, as the model section of the same file asks


UNSEALED = [(name, version) for name, current in CURRENT_FORMAT.items() for version in range(1, current + 1)]


@pytest.mark.parametrize("name, version", UNSEALED, ids=[f"{name}-{version}" for name, version in UNSEALED])
def test_an_older_or_unsealed_artifact_is_refused_with_one_line(
    name, version, model_files, features_file, tmp_path, capsys
):
    old = tmp_path / "model.json"
    shutil.copy(model_files[f"{name}_v{version}"], old)
    before = old.read_bytes()
    assert main(["calibrate", "--model-file", str(old), "--features", str(features_file)]) == 2
    assert _one_line_error(capsys) == (
        f"error: {old}: unsupported {name} format version {version} without a seal: "
        f"only sealed version {CURRENT_FORMAT[name]} files are read, so re-train the model\n"
    )
    assert old.read_bytes() == before


@pytest.fixture(scope="module")
def trained_by_cli(tmp_path_factory):
    """(model files by name, features, a signal) of `fetalguard train` on 120 normal and 60 abnormal records, seed 5."""
    base = tmp_path_factory.mktemp("trained-by-cli")
    assert main(["synth", "--normal", "120", "--abnormal", "60", "--seed", "5", "--out", str(base)]) == 0
    config = base / "config.json"
    models = {"ae": {"epochs": 20}, "ganomaly": {"epochs": 1, "iterations_per_epoch": 10}, "iforest": {}}
    config.write_text(json.dumps({"model": models}), encoding="utf-8")
    features = base / "features.csv"
    signals = ["--signals", str(base / "signals"), "--metadata", str(base / "metadata.csv")]
    assert main(["preprocess", *signals, "--config", str(config), "--out", str(features)]) == 0
    files = {}
    for name in models:
        out = base / name
        argv = ["--model", name, "--features", str(features), "--config", str(config), "--seed", "5"]
        assert main(["train", *argv, "--out", str(out)]) == 0
        files[name] = out / "model.json"
    return files, features, base / "signals" / "syn0000.csv"


# where a damaged file changes one base64 character: near the start of the array that the key
# after the network or forest name holds
DAMAGED_ARRAY = {"ae": ('"decoder": {', '"weights": "'), "ganomaly": ('"encoder1": {', '"weights": "'),
                 "iforest": ('"trees": {', '"threshold": "')}


@pytest.mark.parametrize("damage", ["one base64 character", "truncated to valid JSON", "re-indented"])
@pytest.mark.parametrize("name", list(DETECTORS))
def test_score_and_calibrate_refuse_a_damaged_model_file(name, damage, trained_by_cli, tmp_path, capsys):
    files, features, signal = trained_by_cli
    text = files[name].read_text(encoding="utf-8")
    if damage == "re-indented":
        text = json.dumps(json.loads(text), indent=4)
    elif damage == "truncated to valid JSON":  # the keys from preprocess on are lost
        text = text[: text.index(',\n  "preprocess"')] + "\n}\n"
    else:
        within, array = DAMAGED_ARRAY[name]
        i = text.index(array, text.index(within)) + len(array) + 4
        text = text[:i] + ("B" if text[i] == "A" else "A") + text[i + 1 :]
    bad = tmp_path / "model.json"
    bad.write_text(text, encoding="utf-8")
    capsys.readouterr()
    assert main(["score", "--model-file", str(files[name]), "--signal", str(signal)]) == 0
    assert capsys.readouterr().out.startswith("syn0000,")
    for command, data in (("score", ["--signal", str(signal)]), ("calibrate", ["--features", str(features)])):
        assert main([command, "--model-file", str(bad), *data]) == 2
        message = f"error: {bad}: model file is damaged: its sha256 seal does not match its contents"
        assert _one_line_error(capsys) == message + "\n"
    assert bad.read_text(encoding="utf-8") == text


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
    "command, flags, message",
    [
        ("calibrate", ["--k", "-3"], "k_sigma must be nonnegative, got -3.0"),
        ("run", ["--seeds", "0"], "seeds must be positive, got 0"),
        ("run", ["--seed", "-1"], "seed must be nonnegative, got -1"),
        ("synth", ["--seed", "-1"], "seed must be nonnegative, got -1"),
        ("split", ["--seed", "-1"], "seed must be nonnegative, got -1"),
        ("train", ["--seed", "-1"], "seed must be nonnegative, got -1"),
    ],
)
def test_a_flag_outside_its_field_bound_is_a_one_line_error(
    command, flags, message, model_files, features_file, config_file, tmp_path, capsys
):
    model_file, out = tmp_path / "model.json", tmp_path / "out"
    shutil.copy(model_files["ae"], model_file)
    inputs = {
        "calibrate": ["--model-file", str(model_file), "--features", str(features_file)],
        "run": ["--config", str(config_file), "--out", str(out)],
        "synth": ["--normal", "4", "--abnormal", "2", "--out", str(out)],
        "split": ["--features", str(features_file), "--out", str(out)],
        "train": ["--model", "iforest", "--features", str(features_file), "--out", str(out)],
    }
    before = model_file.read_bytes()
    assert main([command, *inputs[command], *flags]) == 2
    assert message in _one_line_error(capsys)
    assert not out.exists() and model_file.read_bytes() == before


def test_score_refuses_a_model_file_with_a_value_outside_its_bound(dataset, model_files, tmp_path, capsys):
    bad = _edited_copy(model_files["ae"], tmp_path, lambda data: data.update(k_sigma=-3))
    signal = dataset / "signals" / "syn0000.csv"
    assert main(["score", "--model-file", str(bad), "--signal", str(signal)]) == 2
    assert "k_sigma must be nonnegative, got -3" in _one_line_error(capsys)


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


def test_score_refuses_a_signal_that_is_not_utf8(dataset, model_files, tmp_path, capsys):
    signal = tmp_path / "bad.csv"
    signal.write_bytes((dataset / "signals" / "syn0000.csv").read_bytes() + b"1e9,\xff\n")
    assert main(["score", "--model-file", str(model_files["iforest"]), "--signal", str(signal)]) == 1
    assert f"{signal}: not UTF-8 text" in _one_line_error(capsys)


def test_curves_refuses_a_scores_file_that_is_not_utf8(tmp_path, capsys):
    scores = tmp_path / "scores.csv"
    scores.write_bytes(b"record_id,label,score\na,1,0.9\nb,0,0.\xff\n")
    assert main(["curves", "--scores", str(scores), "--out", str(tmp_path / "curves")]) == 1
    assert f"{scores}: not UTF-8 text" in _one_line_error(capsys)


def test_evaluate_scores_round_trip_through_curves(features_file, model_files, tmp_path):
    features = read_features_csv(features_file)
    for i, fv in enumerate(features):
        fv.record_id = f'rec {i}, "quoted"'
    quoted = tmp_path / "features.csv"
    write_features_csv(features, quoted)
    evaluated, curves = tmp_path / "evaluate", tmp_path / "curves"
    model = str(model_files["ae"])
    assert main(["evaluate", "--model-file", model, "--features", str(quoted), "--out", str(evaluated)]) == 0
    assert main(["curves", "--scores", str(evaluated / "scores.csv"), "--out", str(curves)]) == 0
    for name in ("pr_curve.csv", "roc_curve.csv"):
        assert (curves / name).read_bytes() == (evaluated / name).read_bytes()
    with (evaluated / "scores.csv").open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    assert [row[0] for row in rows] == [fv.record_id for fv in features]


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda data: data.update(tau=None), "model is not calibrated; run `calibrate` first"),
        (lambda data: data.pop("preprocess"), "model artifact carries no preprocessing parameters"),
    ],
    ids=["uncalibrated", "no preprocess section"],
)
def test_score_refuses_a_model_file_it_cannot_judge_with(edit, message, trained_by_cli, tmp_path, capsys):
    files, _, signal = trained_by_cli
    bad = _edited_copy(files["iforest"], tmp_path, edit)
    capsys.readouterr()
    assert main(["score", "--model-file", str(bad), "--signal", str(signal)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # no verdict
    assert captured.err == f"error: {message}\n"


def test_evaluate_refuses_features_with_an_empty_label(features_file, model_files, tmp_path, capsys):
    unlabeled = _edited_csv(features_file, tmp_path, line=3, column=1, value="")
    out = tmp_path / "evaluated"
    argv = ["evaluate", "--model-file", str(model_files["ae"]), "--features", str(unlabeled), "--out", str(out)]
    assert main(argv) == 1
    record_id = features_file.read_text().splitlines()[2].split(",")[0]
    assert _one_line_error(capsys) == (
        f"error: line 3: {unlabeled}: evaluation needs labeled features; record {record_id} has no label\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "text, code, message",
    [
        ("id,label,score\na,1,0.9\n", 2, "{path}: expected header record_id,label,score"),
        ("record_id,label,score\na,1,0.9\nb,0\n", 1, "line 3: {path}: expected 3 columns, got 2"),
        ("record_id,label,score\na,1,high\nb,0,0.1\n", 1, "line 2: {path}: non-numeric score"),
    ],
    ids=["wrong header", "two columns", "non-numeric score"],
)
def test_curves_refuses_a_malformed_scores_file(text, code, message, tmp_path, capsys):
    scores, out = tmp_path / "scores.csv", tmp_path / "curves"
    scores.write_text(text, encoding="utf-8")
    assert main(["curves", "--scores", str(scores), "--out", str(out)]) == code
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message.format(path=scores)}\n")
    assert not out.exists()


def test_run_names_a_record_too_short_to_featurize_and_completes(dataset, tmp_path, caplog):
    signals = tmp_path / "signals"
    shutil.copytree(dataset / "signals", signals)
    rows = (signals / "syn0003.csv").read_text(encoding="utf-8").splitlines()
    (signals / "syn0003.csv").write_text("\n".join(rows[:11]) + "\n", encoding="utf-8")  # 10 samples
    config, out = tmp_path / "config.json", tmp_path / "run"
    config.write_text(
        json.dumps(
            {
                "data": {"signals_dir": str(signals), "metadata_file": str(dataset / "metadata.csv")},
                "preprocess": {"feature_dim": 32},
                "model": {"iforest": {"n_trees": 5}},
            }
        ),
        encoding="utf-8",
    )
    with caplog.at_level(logging.WARNING, logger="fetalguard.experiment"):
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    rejections = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert rejections == [
        "rejected syn0003: record syn0003: segment of 10 samples is shorter than feature dimension 32"
    ]
    sizes = json.loads((out / "seed_000" / "iforest" / "report.json").read_text())["sizes"]
    assert sizes["train"] + sizes["test"] == 59


def test_ingest_out_writes_an_index_and_the_skipped_records(dataset, tmp_path, capsys):
    signals = tmp_path / "signals"
    shutil.copytree(dataset / "signals", signals)
    (signals / "orphan.csv").write_text("time_s,fhr_bpm\n0.0,140\n0.25,141\n", encoding="utf-8")
    out = tmp_path / "ingested"
    assert main(["ingest", "--signals", str(signals), "--metadata", str(dataset / "metadata.csv"),
                 "--out", str(out)]) == 0
    assert "loaded 60 records: 40 normal, 20 abnormal; 1 skipped" in capsys.readouterr().out
    with (out / "index.csv").open(newline="", encoding="utf-8") as fh:
        index = list(csv.reader(fh))
    assert index[0] == ["record_id", "label", "ph", "apgar1", "n_samples", "sample_rate_hz"]
    assert [row[0] for row in index[1:]] == [f"syn{i:04d}" for i in range(60)]
    assert index[1] == ["syn0000", "0", "7.35", "9", "4800", "4.0"]
    assert index[-1][:4] == ["syn0059", "1", "7.0", "4"]
    assert json.loads((out / "skipped.json").read_text()) == [{"record_id": "orphan", "reason": "no metadata row"}]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="without fork every file is read in this process")
def test_ingest_reads_the_recordings_in_workers_and_writes_the_same_files_on_any_core_count(
    dataset, tmp_path, capsys, set_cores, monkeypatch
):
    signals = tmp_path / "signals"
    shutil.copytree(dataset / "signals", signals)
    (signals / "orphan.csv").write_text("time_s,fhr_bpm\n0.0,140\n0.25,141\n", encoding="utf-8")
    (signals / "syn0001.csv").write_text("time_s,fhr_bpm\n0.0,x\n", encoding="utf-8")
    pids = []  # of the records made or unpickled in this process; a worker appends to its own copy
    post_init, setstate = SignalRecord.__post_init__, SignalRecord.__setstate__

    def made(record):
        pids.append(os.getpid())
        post_init(record)

    def unpickled(record, state):
        pids.append(os.getpid())
        setstate(record, state)

    monkeypatch.setattr(SignalRecord, "__post_init__", made)
    monkeypatch.setattr(SignalRecord, "__setstate__", unpickled)
    outputs = {}
    for cores in (1, 2):
        set_cores(cores)
        pids.clear()
        out = tmp_path / f"cores{cores}"
        assert main(["ingest", "--signals", str(signals), "--metadata", str(dataset / "metadata.csv"),
                     "--out", str(out)]) == 0
        stdout = capsys.readouterr().out.replace(str(out), "OUT")
        outputs[cores] = stdout, (out / "index.csv").read_bytes(), (out / "skipped.json").read_bytes()
        assert pids == ([os.getpid()] * 59 if cores == 1 else [])  # at 1 core, the patches see every record
    assert outputs[2] == outputs[1]
    assert "loaded 59 records: 39 normal, 20 abnormal; 2 skipped" in outputs[1][0]


def test_an_os_error_is_a_one_line_error_with_exit_code_1(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("not a directory\n", encoding="utf-8")
    assert main(["synth", "--normal", "4", "--abnormal", "2", "--out", str(blocker / "data")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: [Errno 20] Not a directory: ") and captured.err.count("\n") == 1
    assert str(blocker) in captured.err


@pytest.mark.parametrize("model, where", [("ae", "epoch 1"), ("ganomaly", "iteration 0")])
def test_train_on_overflowing_features_ends_in_one_line_naming_where_and_the_losses(model, where, tmp_path, capsys):
    features = [
        FeatureVector(x=np.full(16, 1e308), record_id=f"r{i}", label=ClassLabel(int(i >= 15))) for i in range(20)
    ]
    path, out = tmp_path / "features.csv", tmp_path / "trained"
    write_features_csv(features, path)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # a numpy overflow warning would be a second line
        assert main(["train", "--model", model, "--features", str(path), "--out", str(out)]) == 1
    losses = r"\(train_loss=\S+, val_loss=\S+\)" if model == "ae" else r"\(l_d=\S+, l_g=\S+\)"
    name = "autoencoder" if model == "ae" else "ganomaly"
    err = _one_line_error(capsys)
    assert re.fullmatch(rf"error: {name} training stopped at {where}: non-finite loss {losses}\n", err), err
    assert not out.exists()


@pytest.mark.parametrize("name", ["ae", "ganomaly"])
def test_scoring_rows_that_overflow_the_network_writes_no_warning(name, trained_by_cli, tmp_path, capsys):
    files, _, signal = trained_by_cli
    rows = [FeatureVector(x=np.full(480, 1e308), record_id=f"r{i}", label=ClassLabel(i % 2)) for i in range(6)]
    features = tmp_path / "overflowing.csv"
    write_features_csv(rows, features)
    # a model whose first layer overflows on any recording, for `score`, which reads a signal
    huge_weights = _edited_weights(lambda values: np.full_like(values, 1e308))
    overflowing = _edited_copy(files[name], tmp_path, lambda data: huge_weights(name, data))
    model_file = tmp_path / "calibrated.json"
    shutil.copy(files[name], model_file)
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # a numpy overflow warning would be a second line
        assert main(["calibrate", "--model-file", str(model_file), "--features", str(features)]) == 1
        assert _one_line_error(capsys) == "error: cannot calibrate on a non-finite training score\n"
        # a non-finite score is judged abnormal, so these two succeed and write nothing to stderr
        assert main(["evaluate", "--model-file", str(model_file), "--features", str(features),
                     "--out", str(tmp_path / "evaluated")]) == 0
        scores = (tmp_path / "evaluated" / "scores.csv").read_text().splitlines()[1:]
        assert [line.rsplit(",", 1)[1] for line in scores] == ["nan"] * 6
        assert capsys.readouterr().err == ""
        assert main(["score", "--model-file", str(overflowing), "--signal", str(signal)]) == 0
        captured = capsys.readouterr()
    assert captured.err == ""
    assert re.fullmatch(r"syn0000,nan,\S+,abnormal\n", captured.out), captured.out
