from __future__ import annotations

import json

import pytest

from fetalguard.cli import main
from fetalguard.config import config_to_dict, load_config, parse_config
from fetalguard.errors import ConfigError
from fetalguard.iforest import MAX_SUBSAMPLE

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
    ],
)
def test_a_config_that_cannot_train_or_preprocess_is_refused_at_load(section, message, tmp_path, capsys):
    path = _write(tmp_path, {**MINIMAL, **section})
    with pytest.raises(ConfigError, match=message):
        load_config(path)
    assert main(["run", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert message in err
