from __future__ import annotations

import dataclasses
import json
import re
import typing

import pytest

from fetalguard.autoencoder import AeConfig
from fetalguard.cli import main
from fetalguard.config import DETECTORS, EvalConfig, SynthDataConfig, config_to_dict, load_config, parse_config
from fetalguard.datasets import SplitConfig
from fetalguard.errors import ConfigError, field_bounds
from fetalguard.ganomaly import GanomalyConfig
from fetalguard.iforest import MAX_SUBSAMPLE, IforestConfig
from fetalguard.nn import AdamHyperparameters
from fetalguard.preprocess import PreprocessConfig

MINIMAL = {
    "data": {"synth": {"n_normal": 20, "n_abnormal": 10, "seed": 1}},
    "model": {"iforest": {"n_trees": 10}},
}


def _write(tmp_path, data):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data, indent=2), encoding="utf-8")
    return path


def test_minimal_config_parses_with_defaults(tmp_path):
    config = load_config(_write(tmp_path, MINIMAL))
    assert config.data.synth.n_normal == 20
    assert config.preprocess.feature_dim == 480
    assert config.split.test_fraction == 0.10
    assert config.eval.seeds == 1
    assert "iforest" in config.models
    assert config.models["iforest"].n_trees == 10


def test_unknown_top_level_section_names_the_key(tmp_path):
    bad = dict(MINIMAL, extra={"x": 1})
    with pytest.raises(ConfigError) as exc:
        load_config(_write(tmp_path, bad))
    assert "extra" in str(exc.value)
    assert "line" in str(exc.value)


def test_unknown_nested_key_reports_path(tmp_path):
    bad = {
        "data": MINIMAL["data"],
        "model": {"ae": {"learning_rat": 0.1}},
    }
    with pytest.raises(ConfigError) as exc:
        load_config(_write(tmp_path, bad))
    assert "model.ae.learning_rat" in str(exc.value)


def test_unknown_model_name_lists_valid_options(tmp_path):
    bad = {"data": MINIMAL["data"], "model": {"svm": {}}}
    with pytest.raises(ConfigError) as exc:
        load_config(_write(tmp_path, bad))
    message = str(exc.value)
    assert "svm" in message
    for name in ("ae", "ganomaly", "iforest"):
        assert name in message


def test_json_syntax_error_is_line_precise(tmp_path):
    path = tmp_path / "config.json"
    path.write_text('{\n  "data": {,}\n}\n', encoding="utf-8")
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    assert ":2:" in str(exc.value)


def test_a_config_that_is_not_utf8_is_a_config_error(tmp_path):
    path = tmp_path / "config.json"
    path.write_bytes(b'{"data": "\xff"}')
    with pytest.raises(ConfigError, match="UTF-8"):
        load_config(path)


def test_data_section_requires_exactly_one_source():
    with pytest.raises(ConfigError):
        parse_config({"data": {}, "model": {"iforest": {}}})
    with pytest.raises(ConfigError):
        parse_config(
            {
                "data": {
                    "synth": {"n_normal": 5, "n_abnormal": 5},
                    "signals_dir": "x",
                    "metadata_file": "y",
                },
                "model": {"iforest": {}},
            }
        )


def test_signals_dir_requires_metadata():
    with pytest.raises(ConfigError):
        parse_config({"data": {"signals_dir": "x"}, "model": {"iforest": {}}})


def test_model_units_lists_become_tuples():
    config = parse_config(
        {
            "data": MINIMAL["data"],
            "model": {"ae": {"encoder_units": [32, 16, 8], "decoder_units": [8, 16, 32]}},
        }
    )
    assert config.models["ae"].encoder_units == (32, 16, 8)


def test_grid_block_is_parsed_and_validated():
    config = parse_config(
        {
            "data": MINIMAL["data"],
            "model": {"ae": {"grid": {"k_sigma": [0.5, 1.0, 2.0]}}},
        }
    )
    assert config.grids["ae"] == {"k_sigma": [0.5, 1.0, 2.0]}
    with pytest.raises(ConfigError):
        parse_config(
            {
                "data": MINIMAL["data"],
                "model": {"ae": {"grid": {"not_a_param": [1]}}},
            }
        )
    with pytest.raises(ConfigError):
        parse_config(
            {"data": MINIMAL["data"], "model": {"ae": {"grid": {"k_sigma": []}}}}
        )


def test_missing_required_sections():
    with pytest.raises(ConfigError):
        parse_config({"model": {"iforest": {}}})
    with pytest.raises(ConfigError):
        parse_config({"data": MINIMAL["data"]})


def test_required_sections_can_be_relaxed():
    config = parse_config({"preprocess": {"feature_dim": 64}}, required=())
    assert config.preprocess.feature_dim == 64


def test_config_to_dict_roundtrips_through_parse(tmp_path):
    full = {
        "data": {"synth": {"n_normal": 12, "n_abnormal": 6, "seed": 3}},
        "preprocess": {"median_window": 3, "feature_dim": 32},
        "split": {"test_fraction": 0.2, "seed": 9},
        "model": {
            "iforest": {"n_trees": 5},
            "ae": {"epochs": 3, "grid": {"k_sigma": [1.0, 2.0]}},
        },
        "eval": {"seeds": 2},
        "output": {"dir": "somewhere"},
    }
    config = load_config(_write(tmp_path, full))
    encoded = config_to_dict(config)
    reparsed = parse_config(encoded)
    assert config_to_dict(reparsed) == encoded


def test_bad_eval_seeds_rejected():
    with pytest.raises(ConfigError):
        parse_config({**MINIMAL, "eval": {"seeds": 0}})


@pytest.mark.parametrize(
    "section, key_path",
    [
        ({"model": {"ae": {"k_sigma": "x"}}}, "model.ae.k_sigma"),
        ({"model": {"ae": {"k_sigma": True}}}, "model.ae.k_sigma"),
        ({"model": {"ae": {"k_sigma": float("nan")}}}, "model.ae.k_sigma"),
        ({"model": {"ae": {"learning_rate": 10**400}}}, "model.ae.learning_rate"),
        ({"model": {"ae": {"batch_size": 2.5}}}, "model.ae.batch_size"),
        ({"model": {"iforest": {"n_trees": 2.5}}}, "model.iforest.n_trees"),
        ({"model": {"ae": {"encoder_units": "84"}}}, "model.ae.encoder_units"),
        ({"model": {"ae": {"encoder_units": [84, "8"]}}}, "model.ae.encoder_units[1]"),
        ({"model": {"ae": {"grid": {"k_sigma": [1.0, "x"]}}}}, "model.ae.grid.k_sigma[1]"),
        ({"model": {"ganomaly": {"score_mode": 1}}}, "model.ganomaly.score_mode"),
        ({"preprocess": {"segment_minutes": "20"}}, "preprocess.segment_minutes"),
        ({"data": {"synth": {"n_normal": None}}}, "data.synth.n_normal"),
        ({"split": {"seed": 1.0}}, "split.seed"),
    ],
)
def test_a_value_of_the_wrong_type_is_a_one_line_error(section, key_path, tmp_path, capsys):
    path = _write(tmp_path, {**MINIMAL, **section})
    assert main(["run", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert f"{key_path}: expected " in err


def test_an_int_for_a_float_field_is_kept_as_an_int():
    config = parse_config({**MINIMAL, "model": {"ae": {"k_sigma": 2, "grid": {"learning_rate": [1, 0.5]}}}})
    assert type(config.models["ae"].k_sigma) is int
    assert config_to_dict(config)["model"]["ae"]["k_sigma"] == 2
    assert [type(v) for v in config.grids["ae"]["learning_rate"]] == [int, float]


@pytest.mark.parametrize("value", [0, -1, MAX_SUBSAMPLE + 1, 2**40])
def test_a_subsample_size_outside_its_bounds_is_a_one_line_error(value, tmp_path, capsys):
    path = _write(tmp_path, {**MINIMAL, "model": {"iforest": {"subsample_size": value}}})
    assert main(["run", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert f"subsample_size must be in [1, {MAX_SUBSAMPLE}], got {value}" in err


def test_the_subsample_cap_itself_is_accepted():
    config = parse_config({**MINIMAL, "model": {"iforest": {"subsample_size": MAX_SUBSAMPLE}}})
    assert config.models["iforest"].subsample_size == MAX_SUBSAMPLE


@pytest.mark.parametrize(
    "section, message",
    [
        ({"model": {"ganomaly": {"epochs": 0}}}, "epochs must be positive, got 0"),
        ({"model": {"ganomaly": {"iterations_per_epoch": -3}}}, "iterations_per_epoch must be positive, got -3"),
        ({"model": {"ganomaly": {"patience": 0}}}, "patience must be positive, got 0"),
        ({"model": {"ae": {"patience": -1}}}, "patience must be positive, got -1"),
        ({"model": {"ae": {"epochs": 0}}}, "epochs must be positive, got 0"),
        ({"preprocess": {"median_window": 4}}, "median_window must be odd and positive, got 4"),
        ({"preprocess": {"median_window": 0}}, "median_window must be odd and positive, got 0"),
        ({"preprocess": {"median_window": -3}}, "median_window must be odd and positive, got -3"),
        ({"model": {"ae": {"learning_rate": -0.01}}}, "learning_rate must be positive, got -0.01"),
        ({"model": {"ae": {"beta1": 1.0}}}, "beta1 must be in [0, 1), got 1.0"),
        ({"model": {"ae": {"k_sigma": -3}}}, "k_sigma must be nonnegative, got -3"),
        ({"model": {"ganomaly": {"discriminator_units": [8, 2]}}}, "discriminator_units must end in 1 unit, got [8, 2]"),
        ({"model": {"iforest": {"n_trees": 0}}}, "n_trees must be positive, got 0"),
        ({"model": {"iforest": {"contamination": 0.9}}}, "contamination must be in (0, 0.5], got 0.9"),
        ({"split": {"test_fraction": 1.5}}, "test_fraction must be in (0, 1), got 1.5"),
        ({"split": {"seed": -1}}, "seed must be nonnegative, got -1"),
        ({"data": {"synth": {"seed": -1}}}, "seed must be nonnegative, got -1"),
        ({"model": {"ae": {"encoder_units": [0, 8]}}}, "encoder_units must be positive in every item, got [0, 8]"),
        ({"model": {"ae": {"decoder_units": [16, -4]}}}, "decoder_units must be positive in every item, got [16, -4]"),
        (
            {"model": {"ganomaly": {"discriminator_units": [0, 1]}}},
            "discriminator_units must be positive in every item, got [0, 1]",
        ),
    ],
)
def test_a_config_that_cannot_train_or_preprocess_is_refused_at_load(section, message, tmp_path, capsys):
    path = _write(tmp_path, {**MINIMAL, **section})
    with pytest.raises(ConfigError, match=re.escape(message)):
        load_config(path)
    assert main(["run", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert message in err


@pytest.mark.parametrize(
    "section, key_path, message",
    [
        ({"model": {"ae": {"epochs": 0}}}, "model.ae.epochs", "must be positive, got 0"),
        ({"model": {"ganomaly": {"epochs": 0}}}, "model.ganomaly.epochs", "must be positive, got 0"),
        ({"split": {"seed": -1}}, "split.seed", "must be nonnegative, got -1"),
        ({"data": {"synth": {"seed": -1}}}, "data.synth.seed", "must be nonnegative, got -1"),
        ({"model": {"ae": {"encoder_units": [0, 8]}}}, "model.ae.encoder_units", "must be positive in every item"),
        (
            {"model": {"ganomaly": {"discriminator_units": [8, 2]}}},
            "model.ganomaly.discriminator_units",
            "must end in 1 unit",
        ),
        ({"model": {"ae": {"grid": {"epochs": [2, 0]}}}}, "model.ae.grid.epochs", "must be positive, got 0"),
    ],
)
def test_a_field_bound_error_names_its_key_path(section, key_path, message, tmp_path, capsys):
    path = _write(tmp_path, {**MINIMAL, **section})
    with pytest.raises(ConfigError) as error:
        load_config(path)
    assert re.search(rf"(^|\s){re.escape(key_path)} {re.escape(message)}", str(error.value)), str(error.value)
    assert main(["run", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert f" {key_path} {message}" in err


def test_a_grid_value_outside_its_bound_is_refused_before_any_fit(tmp_path, capsys):
    models = {"iforest": {"n_trees": 10}, "ae": {"epochs": 2, "grid": {"epochs": [2, 0]}}}
    path = _write(tmp_path, {**MINIMAL, "model": models})
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "epochs must be positive, got 0" in err
    assert not (out / "seed_000").exists()


CONFIG_CLASSES = (AeConfig, GanomalyConfig, IforestConfig, PreprocessConfig, SplitConfig, SynthDataConfig, EvalConfig)


@pytest.mark.parametrize("cls", CONFIG_CLASSES, ids=lambda cls: cls.__name__)
def test_every_number_and_choice_field_of_a_config_declares_its_bound(cls):
    hints = typing.get_type_hints(cls)
    fields = [f.name for f in dataclasses.fields(cls) if hints[f.name] in (int, float, str, tuple[int, ...])]
    assert [name for name in fields if name not in field_bounds(cls)] == []


@pytest.mark.parametrize("cls", [*DETECTORS.values(), AdamHyperparameters], ids=lambda cls: cls.__name__)
def test_a_model_field_that_mirrors_a_config_field_declares_the_same_bound(cls):
    config_bounds = {name: bound for config in CONFIG_CLASSES for name, bound in field_bounds(config).items()}
    mirrored = [f.name for f in dataclasses.fields(cls) if f.name in config_bounds]
    assert mirrored, cls
    assert {name: field_bounds(cls).get(name) for name in mirrored} == {name: config_bounds[name] for name in mirrored}
