from __future__ import annotations

import copy
import dataclasses
import errno
import json
import os
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fetalguard.config import DETECTORS, load_config
from fetalguard.errors import ConfigError, FetalGuardError, ShapeError
from fetalguard.experiment import fit_detector
from fetalguard.files import write_json
from fetalguard.iforest import build_forest, if_scores
from fetalguard.ingest import ClassLabel
from fetalguard.nn import DenseNetwork
from fetalguard.persistence import load_model, save_model
from fetalguard.preprocess import FeatureVector, PreprocessConfig
from oracles import reference_model_file, reference_model_to_dict, reference_open, reference_seal

FEATURE_DIM = 16
TINY_MODELS = {
    "iforest": {"n_trees": 5},
    # an int k_sigma, as a config file may give it, is written back as an int
    "ae": {"encoder_units": (8, 4), "decoder_units": (4, 8), "epochs": 2, "patience": 2, "k_sigma": 2},
    "ganomaly": {
        "encoder_units": (8, 4),
        "decoder_units": (4, 8),
        "discriminator_units": (8, 1),
        "iterations_per_epoch": 5,
        "epochs": 1,
        "k_sigma": 2,
    },
}


@pytest.fixture(scope="module")
def models():
    rng = np.random.default_rng(0)
    features = [
        FeatureVector(
            x=0.5 + 0.05 * rng.normal(size=FEATURE_DIM),
            record_id=f"f{i:03d}",
            label=ClassLabel.ABNORMAL if i >= 30 else ClassLabel.NORMAL,
        )
        for i in range(45)
    ]
    fitted = {}
    for name, detector in DETECTORS.items():
        config = detector.config_type(**TINY_MODELS[name])
        model = fit_detector(name, config, features, features[:10], len(features), 0).model
        model.preprocess = PreprocessConfig(segment_minutes=20, feature_dim=FEATURE_DIM)
        fitted[name] = model
    return fitted


@pytest.fixture(scope="module")
def artifacts(models, tmp_path_factory):
    """(fields, tail) of each model's file: its unsealed fields, arrays as references into the tail."""
    out = tmp_path_factory.mktemp("artifacts")
    data = {}
    for name, model in models.items():
        save_model(model, out / f"{name}.json")
        data[name] = reference_open((out / f"{name}.json").read_bytes())
    return data


def _sealed(fields, tail: bytes) -> bytes:
    return reference_seal(json.dumps(fields, indent=2, sort_keys=True) + "\n", tail)


def _networks(model) -> dict:
    return {name: value for name, value in vars(model).items() if isinstance(value, DenseNetwork)}


@pytest.mark.parametrize("name", list(DETECTORS))
def test_save_model_writes_the_reference_format(name, models, tmp_path):
    path = tmp_path / "model.json"
    save_model(models[name], path)
    assert path.read_bytes() == reference_model_file(models[name])
    if name != "iforest":
        assert b'"k_sigma": 2,' in path.read_bytes()
    resaved = tmp_path / "resaved.json"
    save_model(load_model(path), resaved)
    assert resaved.read_bytes() == path.read_bytes()


@pytest.mark.parametrize("name", list(DETECTORS))
def test_a_change_to_any_tail_byte_is_refused_by_the_seal(name, models, tmp_path):
    path, damaged = tmp_path / "model.json", tmp_path / "damaged.json"
    save_model(models[name], path)
    raw = path.read_bytes()
    start = len(raw) - len(reference_open(raw)[1])
    for i in [*range(start, len(raw), max(1, (len(raw) - start) // 40)), len(raw) - 1]:
        damaged.unlink(missing_ok=True)
        damaged.write_bytes(raw[:i] + bytes([raw[i] ^ 0x80]) + raw[i + 1 :])
        with pytest.raises(ConfigError, match="model file is damaged: its sha256 seal does not match its contents$"):
            load_model(damaged)


def test_a_model_write_that_fails_partway_leaves_the_previous_file(models, tmp_path, monkeypatch):
    path = tmp_path / "model.json"
    save_model(models["ae"], path)
    before = path.read_bytes()
    real_open = Path.open

    class HalfWritten:
        """A file that takes half of the first thing written to it, then reports a full disk."""

        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.fh.write(data[: len(data) // 2])
            self.fh.flush()
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        def writelines(self, lines):
            for line in lines:
                self.write(line)

    def open_for_half_a_write(self, mode="r", *args, **kwargs):
        fh = real_open(self, mode, *args, **kwargs)
        return fh if "r" in mode else HalfWritten(fh)

    monkeypatch.setattr(Path, "open", open_for_half_a_write)
    with pytest.raises(OSError, match="No space left"):
        save_model(models["ganomaly"], path)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


def _assert_refused_and_left(path: Path, write) -> None:
    """write() fails with one line that exits 1 (a FetalGuardError, not a ConfigError), and path is as it was."""
    before = path.read_bytes()
    with pytest.raises(FetalGuardError) as refused:
        write()
    assert not isinstance(refused.value, ConfigError)
    assert str(refused.value).startswith(f"cannot write {path}: ") and "\n" not in str(refused.value)
    assert path.read_bytes() == before
    assert list(path.parent.iterdir()) == [path]  # no temporary file is left


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_a_non_finite_number_in_a_json_artifact_is_refused_and_the_file_left(tmp_path, bad):
    path = tmp_path / "report.json"
    write_json({"auc_roc": 0.5, "tau": 0.25}, path)
    _assert_refused_and_left(path, lambda: write_json({"auc_roc": 0.5, "tau": [0.25, bad]}, path))


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_a_non_finite_number_in_a_model_is_refused_and_the_saved_model_left(models, tmp_path, bad):
    path = tmp_path / "model.json"
    save_model(models["ae"], path)
    _assert_refused_and_left(path, lambda: save_model(dataclasses.replace(models["ae"], tau=bad), path))


def test_a_version_1_iforest_file_is_refused_and_left_as_it_is(models, tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(reference_model_to_dict(models["iforest"], 1), indent=2, sort_keys=True) + "\n")
    before = path.read_bytes()
    with pytest.raises(ConfigError) as refused:
        load_model(path)
    assert str(refused.value) == (
        f"{path}: unsupported iforest format version 1 without a seal: "
        "only sealed version 5 files are read, so re-train the model"
    )
    assert path.read_bytes() == before


@pytest.fixture(scope="module")
def forest_file(tmp_path_factory):
    return tmp_path_factory.mktemp("forests") / "model.json"


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 120),
    dim=st.integers(1, 4),
    levels=st.sampled_from([None, 2, 5]),  # a few distinct values give duplicate points
    subsample_size=st.integers(1, 128),
    n_trees=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
)
def test_a_saved_forest_loads_node_for_node(forest_file, n, dim, levels, subsample_size, n_trees, seed):
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(n, dim)) if levels is None else rng.integers(0, levels, size=(n, dim)) * 1.0
    model = build_forest(data, n_trees=n_trees, subsample_size=subsample_size, seed=seed)
    model.tau = 0.5
    queries = np.vstack([data, rng.normal(size=(10, dim)) * 3.0])
    save_model(model, forest_file)
    assert forest_file.read_bytes() == reference_model_file(model)
    loaded = load_model(forest_file)
    assert loaded.trees == model.trees
    assert list(loaded.trees) == list(model.trees)
    assert if_scores(loaded, queries).tobytes() == if_scores(model, queries).tobytes()


@pytest.mark.parametrize("name", ["ae", "ganomaly"])
def test_loaded_network_weights_are_writable(name, models, tmp_path):
    save_model(models[name], tmp_path / "model.json")
    for net in _networks(load_model(tmp_path / "model.json")).values():
        for p in net.parameters():
            assert p.flags.writeable and p.dtype == np.float64
            p += 0.0


def test_a_preprocess_config_round_trips_equal_and_byte_for_byte(models, tmp_path):
    model = copy.copy(models["iforest"])
    model.preprocess = PreprocessConfig(median_window=7, segment_minutes=10, feature_dim=FEATURE_DIM)
    save_model(model, tmp_path / "saved.json")
    loaded = load_model(tmp_path / "saved.json")
    assert loaded.preprocess == model.preprocess
    save_model(loaded, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == (tmp_path / "saved.json").read_bytes()


@pytest.mark.parametrize(
    "content",
    [b'{"model_type": "ae\xff"}', b"[" * 100_000 + b"]" * 100_000],
    ids=["not UTF-8", "nested too deeply"],
)
def test_a_file_that_is_not_utf8_or_nests_too_deeply_is_a_config_error(content, tmp_path):
    path = tmp_path / "model.json"
    path.write_bytes(content)
    for load in (load_model, load_config):
        with pytest.raises(ConfigError, match="model.json"):
            load(path)


@pytest.mark.parametrize("kind", ["model", "config"])
def test_a_value_nested_up_to_the_recursion_limit_is_a_config_error(kind, models, tmp_path):
    # parsed, but too deep to print in the message that refuses it
    path = tmp_path / "deep.json"
    if kind == "model":
        save_model(models["iforest"], path)
        fields, tail = reference_open(path.read_bytes())
        data, load = {**fields, "tau": "@"}, load_model

        def seal(text):
            return reference_seal(text, tail)
    else:
        data, load = {"data": {"synth": {}}, "model": {"ae": {}}, "eval": {"seeds": "@"}}, load_config

        def seal(text):
            return text.encode("utf-8")
    limit = sys.getrecursionlimit()
    for depth in range(limit - 150, limit + 10):
        path.unlink(missing_ok=True)  # a new file: truncating one can cost tens of ms per depth
        text = json.dumps(data, indent=2, sort_keys=True).replace('"@"', "[" * depth + "]" * depth)
        path.write_bytes(seal(text + "\n"))
        with pytest.raises(ConfigError, match="deep.json"):
            load(path)


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "model.json"


def _json_containers(inner):
    return st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner, max_size=3)


DROP = object()
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    _json_containers,
    max_leaves=6,
)


def _paths(data, prefix=()):
    """Paths to every key of every object, and to the first and last element of every array."""
    if isinstance(data, dict):
        children = list(data)
    elif isinstance(data, list):
        children = sorted({0, len(data) - 1}) if data else []
    else:
        return []
    paths = []
    for child in children:
        paths.append(prefix + (child,))
        paths.extend(_paths(data[child], prefix + (child,)))
    return paths


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_a_corrupted_artifact_is_a_config_error_or_a_model_that_scores(artifacts, fuzz_file, data):
    name = data.draw(st.sampled_from(sorted(artifacts)), label="model")
    fields, tail = artifacts[name]
    by_depth: dict = {}  # shallow keys are few, so a depth is drawn first
    for path in _paths(fields):
        by_depth.setdefault(len(path), []).append(path)
    depth = data.draw(st.sampled_from(sorted(by_depth)), label="depth")
    path = data.draw(st.sampled_from(by_depth[depth]), label="path")
    edit = data.draw(st.just(DROP) | JSON_VALUES, label="value")
    corrupted = copy.deepcopy(fields)
    parent = corrupted
    for key in path[:-1]:
        parent = parent[key]
    if edit is DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = edit
    fuzz_file.unlink(missing_ok=True)  # a new file: truncating one can cost tens of ms per example
    fuzz_file.write_bytes(_sealed(corrupted, tail))
    try:
        model = load_model(fuzz_file)
    except ConfigError:
        return
    row = np.full((1, FEATURE_DIM), 0.5)
    if model.feature_dim != FEATURE_DIM:  # `score` refuses this against the preprocess section
        with pytest.raises(ShapeError):
            model.scores(row)
    else:
        assert model.scores(row).shape == (1,)
