"""Command-line interface.

Subcommands cover the full experiment (`run`) and its individual stages
(`ingest`, `synth`, `preprocess`, `split`, `train`, `calibrate`, `evaluate`,
`score`, `curves`). The FETALGUARD_LOG environment variable sets verbosity
(DEBUG, INFO, WARNING, ERROR; default INFO).
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import os
import sys
from pathlib import Path

from . import metrics, persistence
from .config import DETECTORS, SynthDataConfig, load_config
from .datasets import SplitConfig, class_counts, train_test_split, validation_split
from .errors import ConfigError, FetalGuardError
from .experiment import fit_detector, read_scores_csv, run_experiment, write_scores_csv
from .files import write_csv, write_json
from .ingest import ClassLabel, load_each, read_record_csv
from .preprocess import (
    PreprocessConfig,
    preprocess_files,
    preprocess_pipeline,
    read_features_csv,
    write_features_csv,
)
from .synth import generate_dataset, write_dataset

logger = logging.getLogger(__name__)


def _configure_logging() -> None:
    level_name = os.environ.get("FETALGUARD_LOG", "INFO").upper()
    level = getattr(logging, level_name, None)
    if not isinstance(level, int):
        level = logging.INFO
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def cmd_synth(args) -> int:
    synth = SynthDataConfig(args.normal, args.abnormal, args.seed)
    records = generate_dataset(synth.n_normal, synth.n_abnormal, seed=synth.seed)
    signals_dir, metadata_file = write_dataset(records, args.out)
    counts = class_counts(records)
    print(f"wrote {len(records)} records ({counts['NORMAL']} normal, {counts['ABNORMAL']} abnormal)")
    print(f"signals: {signals_dir}")
    print(f"metadata: {metadata_file}")
    return 0


def _index_row(item) -> tuple:
    """The index.csv row of one loaded recording; load_each makes it in the worker that reads the file."""
    record = item.record
    return (record.record_id, int(item.label), record.metadata.ph, record.metadata.apgar1,
            record.fhr.size, record.sample_rate_hz)


def cmd_ingest(args) -> int:
    rows, skipped = load_each(args.signals, args.metadata, _index_row)
    n_abnormal = sum(1 for row in rows if row[1] == ClassLabel.ABNORMAL)
    print(
        f"loaded {len(rows)} records: "
        f"{len(rows) - n_abnormal} normal, {n_abnormal} abnormal; "
        f"{len(skipped)} skipped"
    )
    if args.out:
        out = Path(args.out)
        write_csv(out / "index.csv", ["record_id", "label", "ph", "apgar1", "n_samples", "sample_rate_hz"], rows)
        write_json([{"record_id": s.record_id, "reason": s.reason} for s in skipped], out / "skipped.json")
        print(f"index: {out / 'index.csv'}")
    return 0


def _preprocess_config(args) -> PreprocessConfig:
    if args.config:
        return load_config(args.config, required=()).preprocess
    return PreprocessConfig()


def cmd_preprocess(args) -> int:
    report, _ = preprocess_files(args.signals, args.metadata, _preprocess_config(args))
    write_features_csv(report.features, args.out)
    print(f"wrote {len(report.features)} feature vectors to {args.out}")
    for record_id, reason in report.rejected:
        print(f"rejected {record_id}: {reason}", file=sys.stderr)
    return 0


def cmd_split(args) -> int:
    split = SplitConfig(test_fraction=args.test_fraction, seed=args.seed)
    features = read_features_csv(args.features)
    train, test = train_test_split(features, split.test_fraction, split.seed)
    out = Path(args.out)
    write_features_csv(train, out / "train.csv")
    write_features_csv(test, out / "test.csv")
    summary = {
        "seed": split.seed,
        "test_fraction": split.test_fraction,
        "train": class_counts(train),
        "test": class_counts(test),
    }
    write_json(summary, out / "split.json")
    print(f"train: {len(train)}  test: {len(test)}  -> {out}")
    return 0


def _model_config_from(args, name):
    """(model config, grid, split config, parsed --config or None) for `train`."""
    if args.config:
        config = load_config(args.config, required=())
        model_config = config.models.get(name, DETECTORS[name].config_type())
        return model_config, config.grids.get(name, {}), config.split, config
    return DETECTORS[name].config_type(), {}, SplitConfig(), None


def cmd_train(args) -> int:
    model_config, grid, split_config, config = _model_config_from(args, args.model)
    split_config = dataclasses.replace(split_config, seed=args.seed)
    features = read_features_csv(args.features)
    train_core, validation = validation_split(
        features, split_config.val_fraction_for(args.model), split_config.seed
    )
    if grid:
        logger.info("grid block present; `train` uses base parameters, `run` searches grids")
    fitted = fit_detector(args.model, model_config, train_core, validation, len(features), split_config.seed)
    if config is not None:
        fitted.model.preprocess = config.preprocess
    out = Path(args.out)
    persistence.save_model(fitted.model, out / "model.json")
    if fitted.trace is not None:
        fitted.trace.write_csv(out / "trace.csv")
    print(f"trained {args.model} on {fitted.extras['n_fit']} samples; tau={fitted.tau!r}")
    print(f"model: {out / 'model.json'}")
    return 0


# calibrate flag -> the model field it overrides
CALIBRATION_OVERRIDES = {"k": "k_sigma", "contamination": "contamination"}


def cmd_calibrate(args) -> int:
    model = persistence.load_model(args.model_file)
    for flag, field in CALIBRATION_OVERRIDES.items():
        value = getattr(args, flag)
        if value is None:
            continue
        if field != model.calibration_param:
            raise ConfigError(f"--{flag} does not apply to a {model.model_type} model")
        model = dataclasses.replace(model, **{field: value})
    features = read_features_csv(args.features)
    old_tau = model.tau
    new_tau = model.calibrate(model.scores(features))
    persistence.save_model(model, args.model_file)
    print(f"tau: {old_tau!r} -> {new_tau!r} ({len(features)} calibration scores)")
    return 0


def _load_calibrated(path):
    model = persistence.load_model(path)
    if model.tau is None:
        raise ConfigError("model is not calibrated; run `calibrate` first")
    return model


def cmd_evaluate(args) -> int:
    model = _load_calibrated(args.model_file)
    tau = model.tau
    features = read_features_csv(args.features, labeled=True)
    scores = model.scores(features)
    labels = [fv.label for fv in features]
    report = metrics.evaluate_scores(scores, labels, tau)
    out = Path(args.out)
    write_json({"tau": tau, **report.scalars()}, out / "report.json")
    write_scores_csv(features, scores, out / "scores.csv")
    metrics.write_curves(report.pr_points, report.roc_points, labels, out)
    print(
        f"f1={report.f1:.3f} balanced_accuracy={report.balanced_accuracy:.3f} "
        f"precision={report.precision:.3f} recall={report.recall:.3f} auc_roc={report.auc_roc:.3f}"
    )
    print(f"report: {out / 'report.json'}")
    return 0


def cmd_score(args) -> int:
    model = _load_calibrated(args.model_file)
    tau = model.tau
    record = read_record_csv(args.signal)
    config = model.preprocess
    if config is None:
        raise ConfigError("model artifact carries no preprocessing parameters")
    if config.feature_dim != model.feature_dim:
        raise ConfigError(
            f"model expects dim {model.feature_dim} but preprocessing yields {config.feature_dim}"
        )
    fv = preprocess_pipeline(record, config)
    score = float(model.scores([fv])[0])
    verdict = metrics.classify(score, tau).name.lower()
    print(f"{record.record_id},{score!r},{tau!r},{verdict}")
    return 0


def cmd_curves(args) -> int:
    scores, labels = read_scores_csv(args.scores)
    pr_points = metrics.pr_curve(scores, labels)
    roc_points, auc = metrics.roc_curve_and_auc(scores, labels)
    out = Path(args.out)
    metrics.write_curves(pr_points, roc_points, labels, out)
    print(f"auc_roc={auc:.6f} auc_pr={metrics.pr_auc(pr_points):.6f}")
    print(f"curves: {out}")
    return 0


def cmd_run(args) -> int:
    config = load_config(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, split=dataclasses.replace(config.split, seed=args.seed))
    if args.seeds is not None:
        config = dataclasses.replace(config, eval=dataclasses.replace(config.eval, seeds=args.seeds))
    models = [args.model] if args.model else None
    out_dir = args.out if args.out else None
    run_experiment(config, out_dir=out_dir, models=models)
    out = Path(out_dir if out_dir else config.output.dir)
    print((out / "aggregate.txt").read_text(), end="")
    print(f"artifacts: {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fetalguard",
        description="Semi-supervised abnormality detection for fetal heart rate recordings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic labeled dataset")
    p.add_argument("--normal", type=int, required=True)
    p.add_argument("--abnormal", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("ingest", help="load recordings and report class counts")
    p.add_argument("--signals", required=True, help="directory of per-record signal CSVs")
    p.add_argument("--metadata", required=True, help="metadata CSV")
    p.add_argument("--out", help="optional directory for index.csv and skipped.json")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("preprocess", help="clean signals and write feature vectors")
    p.add_argument("--signals", required=True)
    p.add_argument("--metadata", required=True)
    p.add_argument("--config", help="experiment config supplying the preprocess section")
    p.add_argument("--out", required=True, help="output features CSV")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("split", help="stratified train/test split of a features file")
    p.add_argument("--features", required=True)
    p.add_argument("--test-fraction", type=float, default=0.10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("train", help="train one detector on a training features file")
    p.add_argument("--model", required=True, choices=list(DETECTORS))
    p.add_argument("--features", required=True, help="training features CSV")
    p.add_argument("--config", help="experiment config supplying model/split sections")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("calibrate", help="recompute a model's threshold from features")
    p.add_argument("--model-file", required=True)
    p.add_argument("--features", required=True, help="calibration (training) features CSV")
    p.add_argument("--k", type=float, help="override k in tau = mean + k*std (ae, ganomaly)")
    p.add_argument("--contamination", type=float, help="override contamination (iforest)")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("evaluate", help="score labeled features and write a report")
    p.add_argument("--model-file", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("score", help="score one raw signal CSV with a trained model")
    p.add_argument("--model-file", required=True)
    p.add_argument("--signal", required=True, help="signal CSV (time_s,fhr_bpm)")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("curves", help="PR/ROC curves and SVG from a scores CSV")
    p.add_argument("--scores", required=True, help="CSV with record_id,label,score")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_curves)

    p = sub.add_parser("run", help="full experiment from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--model", choices=list(DETECTORS), help="restrict to one model")
    p.add_argument("--seed", type=int, help="override the base seed")
    p.add_argument("--seeds", type=int, help="number of repeated runs")
    p.add_argument("--out", help="override the output directory")
    p.set_defaults(func=cmd_run)

    return parser


def main(argv=None) -> int:
    _configure_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FetalGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
