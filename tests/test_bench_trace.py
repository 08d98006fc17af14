"""The benchmark's traced mode (bench/tracer.py) still runs against the program.

The tracer wraps the package's functions by name and reads some of its data
structures, so a change under src/ can break ``bench/run.py --trace 1`` without
any other test noticing. This runs a tiny experiment and the bedside ``score``
command under the tracer, as a traced benchmark pass does.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path
from time import perf_counter

import fetalguard
from fetalguard import cli, experiment
from fetalguard.autoencoder import AeConfig
from fetalguard.config import DataConfig, EvalConfig, ExperimentConfig, OutputConfig
from fetalguard.datasets import SplitConfig
from fetalguard.ganomaly import GanomalyConfig
from fetalguard.iforest import IforestConfig
from fetalguard.preprocess import PreprocessConfig

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_traced_run_and_score_complete_and_report_per_layer_metrics(tmp_path):
    tracing = _tracer_module()
    data = tmp_path / "data"
    assert cli.main(["synth", "--normal", "40", "--abnormal", "20", "--seed", "7", "--out", str(data)]) == 0
    config = ExperimentConfig(
        data=DataConfig(signals_dir=str(data / "signals"), metadata_file=str(data / "metadata.csv")),
        preprocess=PreprocessConfig(median_window=5, feature_dim=32),
        split=SplitConfig(test_fraction=0.15, seed=0),
        models={
            "iforest": IforestConfig(n_trees=10),
            "ae": AeConfig(encoder_units=(8, 4), decoder_units=(4, 8), epochs=3, patience=3),
            "ganomaly": GanomalyConfig(
                encoder_units=(8, 4),
                decoder_units=(4, 8),
                discriminator_units=(8, 1),
                iterations_per_epoch=5,
                epochs=2,
            ),
        },
        eval=EvalConfig(seeds=1),
        output=OutputConfig(dir=str(tmp_path / "run")),
    )
    signal = sorted((data / "signals").glob("*.csv"))[0]

    tracer = tracing.Tracer(fetalguard.__name__)
    tracer.install()
    tracer.begin_pass()
    try:
        start = perf_counter()
        experiment.run_experiment(config)
        for name in config.models:
            model_file = tmp_path / "run" / "seed_000" / name / "model.json"
            assert cli.main(["score", "--model-file", str(model_file), "--signal", str(signal)]) == 0
        wall = perf_counter() - start
    finally:
        tracer.end_pass()
        tracer.uninstall()

    metrics = tracing.per_layer_metrics(tracer, [wall], [wall])
    assert metrics["iforest.nodes"][0] > 0
    assert metrics["autoencoder.epochs"][0] == 3
    assert metrics["persistence.load_ms.ganomaly"][0] > 0
