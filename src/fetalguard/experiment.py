"""End-to-end experiment orchestration.

One run = one seed: split the features 90-10, carve a model-specific validation
set from the training side, train and calibrate on training data only, then
score the held-out test partition exactly once. A guard object enforces that
test-set discipline at runtime. Repeated runs over several seeds aggregate to
mean +/- standard deviation per metric.
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import metrics, persistence
from .config import ExperimentConfig, config_to_dict, detector, grid_candidates
from .datasets import train_test_split, validation_split
from .errors import ConfigError, ParseError, TestIsolationError
from .files import read_csv_rows, write_csv, write_json
from .ingest import ClassLabel
from .preprocess import PreprocessReport, collect_features, preprocess_files, preprocess_item
from .synth import SyntheticDataset
from .workers import fork_map

logger = logging.getLogger(__name__)

AGGREGATE_METRICS = (
    "f1",
    "balanced_accuracy",
    "precision",
    "recall",
    "accuracy",
    "auc_roc",
    "auc_pr",
)


class TestSetGuard:
    """Hands out the test partition exactly once, only after calibration completes."""

    __test__ = False  # not a pytest class despite the name

    def __init__(self, items):
        self._items = list(items)
        self._unlocked = False
        self._taken = False

    def unlock(self):
        self._unlocked = True

    def take(self):
        if not self._unlocked:
            raise TestIsolationError(
                "test set requested before training and calibration completed"
            )
        if self._taken:
            raise TestIsolationError("test set requested more than once in a run")
        self._taken = True
        return self._items

    @property
    def reads(self) -> int:
        return 1 if self._taken else 0


@dataclass
class FittedDetector:
    model: object
    tau: float
    train_scores: np.ndarray
    trace: object | None
    extras: dict
    fit_items: list  # the collection the model was fit and calibrated on


def load_features(config: ExperimentConfig) -> PreprocessReport:
    """The config's corpus, preprocessed.

    Each record is read or synthesized, and preprocessed, in one forked
    worker per available core (workers.fork_map), so only features and
    Rejecteds come back to this process, never a raw signal (about ten
    times their size). The report does not depend on the core count.
    """
    data, prep = config.data, config.preprocess
    if data.synth is None:
        return preprocess_files(data.signals_dir, data.metadata_file, prep)
    records = SyntheticDataset(data.synth.n_normal, data.synth.n_abnormal, data.synth.seed)
    return collect_features(fork_map(lambda item: preprocess_item(item, prep), records, "record-synthesizing"))


def fit_detector(name, model_config, train_core, validation, pre_validation_size, seed):
    """Train one detector on the training core and calibrate its threshold."""
    cls = detector(name)
    model, trace, fit_items = cls.fit(model_config, train_core, validation, pre_validation_size, seed)
    train_scores = model.scores(fit_items)
    tau = model.calibrate(train_scores)
    extras = {cls.calibration_param: getattr(model_config, cls.calibration_param)}
    extras["n_fit"] = len(fit_items)
    return FittedDetector(model, tau, train_scores, trace, extras, fit_items)


def _validation_f1(model, validation) -> dict:
    decisions = [metrics.classify(s, model.tau) for s in model.scores(validation)]
    labels = [fv.label for fv in validation]
    counts = metrics.confusion(labels, decisions)
    return dataclasses.asdict(metrics.scalar_metrics(counts))


def run_legs(features, legs, split_config, preprocess):
    """Yield run_single's result for each (seed, name, model_config, grid) leg, in leg order.

    Each leg's split and grid jobs are made once, here. Every job's
    fit_detector call runs in forked workers (workers.fork_map), one per
    available core, while this process tests each leg as its fits arrive,
    so the test partitions never reach a worker.
    """
    prepared = []
    for seed, name, model_config, grid in legs:
        train, test = train_test_split(features, split_config.test_fraction, seed)
        train_core, validation = validation_split(train, split_config.val_fraction_for(name), seed)
        jobs = [
            (combo, (name, candidate, train_core, validation, len(train), seed))
            for combo, candidate in grid_candidates(model_config, grid)
        ]
        prepared.append((seed, name, (train, test, train_core, validation), jobs))
    all_jobs = [job for *_, jobs in prepared for _, job in jobs]
    with contextlib.closing(fork_map(lambda job: fit_detector(*job), all_jobs, "model-fitting")) as fits:
        for seed, name, split, jobs in prepared:
            logger.info("run seed=%d model=%s", seed, name)
            yield run_single(name, split, jobs, preprocess, seed, fits=list(itertools.islice(fits, len(jobs))))


def run_single(name, split, jobs, preprocess, seed, *, fits):
    """One (seed, model) leg of run_legs: keep the grid candidate of best validation F1, test it once.

    split is the leg's (train, test, train_core, validation), jobs its (grid
    combo, fit_detector arguments) pairs in grid_candidates order, and fits
    the fit_detector result of each job, in the same order.
    Returns a dict with the fitted model, reports, traces, and score tables.
    """
    train, test, train_core, validation = split
    guard = TestSetGuard(test)

    best = None
    for (combo, _), fitted in zip(jobs, fits, strict=True):
        val_metrics = _validation_f1(fitted.model, validation)
        if best is None or val_metrics["f1"] > best["validation"]["f1"]:
            best = {
                "fitted": fitted,
                "validation": val_metrics,
                "grid_choice": combo,
            }

    fitted = best["fitted"]
    fitted.model.preprocess = preprocess

    guard.unlock()
    test_items = guard.take()
    test_scores = fitted.model.scores(test_items)
    test_labels = [fv.label for fv in test_items]
    report = metrics.evaluate_scores(test_scores, test_labels, fitted.tau)

    distribution = score_distribution_report(fitted, test_items, test_scores)
    return {
        "model_name": name,
        "seed": seed,
        "fitted": fitted,
        "report": report,
        "validation": best["validation"],
        "grid_choice": best["grid_choice"],
        "distribution": distribution,
        "test_items": test_items,
        "test_scores": test_scores,
        "sizes": {
            "train": len(train),
            "train_core": len(train_core),
            "validation": len(validation),
            "test": len(test),
        },
        "guard_reads": guard.reads,
    }


def score_distribution_report(fitted: FittedDetector, test_items, test_scores) -> dict:
    """Per-class score summaries of the fit set and the test set, with the tau line.

    Uses the score arrays the leg already computed. A class absent from a
    partition is omitted with a notice.
    """
    report: dict = {
        "tau": fitted.tau,
        "k_sigma": fitted.extras.get("k_sigma"),
        "partitions": {},
        "notices": [],
    }
    partitions = (
        ("train", fitted.fit_items, fitted.train_scores),
        ("test", test_items, test_scores),
    )
    for name, items, scores in partitions:
        labels = np.array([fv.label for fv in items])
        summary = {}
        for label in ClassLabel:
            cls = label.name.lower()
            values = scores[labels == label]
            if not values.size:
                report["notices"].append(f"no {cls} samples in {name}")
                continue
            summary[cls] = {
                "count": int(values.size),
                "mean": float(values.mean()),
                "std": float(values.std()),
                "scores": values.tolist(),
            }
        report["partitions"][name] = summary
    return report


def write_scores_csv(items, scores, path: Path) -> None:
    """record_id,label,score per item, as ``curves`` reads it; an unlabeled item has an empty label."""
    rows = (
        (fv.record_id, "" if fv.label is None else int(fv.label), repr(float(score)))
        for fv, score in zip(items, scores)
    )
    write_csv(path, ["record_id", "label", "score"], rows)


def read_scores_csv(path: str | Path) -> tuple[list[float], list[int]]:
    """(scores, labels) of a write_scores_csv file whose every row is labeled; blank rows are skipped."""
    scores: list[float] = []
    labels: list[int] = []
    rows = read_csv_rows(Path(path))
    if [cell.strip() for cell in next(rows, (0, []))[1]] != ["record_id", "label", "score"]:
        raise ConfigError(f"{path}: expected header record_id,label,score")
    for line_no, cells in rows:
        if not cells or (len(cells) == 1 and not cells[0].strip()):
            continue
        if len(cells) != 3:
            raise ParseError(f"{path}: expected 3 columns, got {len(cells)}", line=line_no)
        if cells[1] not in ("0", "1"):
            raise ParseError(f"{path}: label must be 0 or 1, got {cells[1]!r}", line=line_no)
        try:
            scores.append(float(cells[2]))
        except ValueError:
            raise ParseError(f"{path}: non-numeric score", line=line_no) from None
        labels.append(int(cells[1]))
    return scores, labels


def report_payload(result) -> dict:
    fitted = result["fitted"]
    payload = {
        "model": result["model_name"],
        "seed": result["seed"],
        "tau": fitted.tau,
        "grid_choice": result["grid_choice"],
        "validation": result["validation"],
        "test": result["report"].scalars(),
        "sizes": result["sizes"],
    }
    payload.update(fitted.extras)
    return payload


def write_run_artifacts(result, run_dir: Path) -> dict:
    """Persist every artifact for one (seed, model) leg; returns the report payload."""
    fitted = result["fitted"]
    persistence.save_model(fitted.model, run_dir / "model.json")
    payload = report_payload(result)
    write_json(payload, run_dir / "report.json")
    write_scores_csv(result["test_items"], result["test_scores"], run_dir / "scores_test.csv")
    if fitted.trace is not None:
        fitted.trace.write_csv(run_dir / "trace.csv")
    report = result["report"]
    labels = [fv.label for fv in result["test_items"]]
    metrics.write_curves(report.pr_points, report.roc_points, labels, run_dir)
    write_json(result["distribution"], run_dir / "score_distribution.json")
    return payload


def aggregate_runs(payloads: list[dict]) -> dict:
    """mean +/- std (sample std over runs) per model per metric."""
    by_model: dict[str, list[dict]] = {}
    for payload in payloads:
        by_model.setdefault(payload["model"], []).append(payload)
    aggregate: dict = {}
    for model, runs in sorted(by_model.items()):
        aggregate[model] = {"runs": len(runs), "seeds": [r["seed"] for r in runs]}
        for metric in AGGREGATE_METRICS:
            values = np.array([r["test"][metric] for r in runs], dtype=float)
            std = float(values.std(ddof=1)) if values.size > 1 else 0.0
            aggregate[model][metric] = {
                "mean": float(values.mean()),
                "std": std,
                "values": [float(v) for v in values],
            }
    return aggregate


def format_aggregate_table(aggregate: dict) -> str:
    lines = []
    for model in sorted(aggregate):
        entry = aggregate[model]
        lines.append(f"{model} ({entry['runs']} runs)")
        for metric in AGGREGATE_METRICS:
            stats = entry[metric]
            lines.append(f"  {metric} = {stats['mean']:.3f} ± {stats['std']:.3f}")
    return "\n".join(lines) + "\n"


def run_experiment(
    config: ExperimentConfig,
    out_dir: str | Path | None = None,
    models: list[str] | None = None,
) -> dict:
    """Execute the full protocol, one run per seed of config.eval, and write all artifacts under out_dir."""
    out_dir = Path(out_dir if out_dir is not None else config.output.dir)
    if models is None:
        models = list(config.models)
    for name in models:
        if name not in config.models:
            raise ConfigError(
                f"model {name!r} has no section in the config; configured: "
                f"{', '.join(sorted(config.models))}"
            )
    prep = load_features(config)
    for rejected in prep.rejected:
        logger.warning("%s", rejected)

    seeds = range(config.split.seed, config.split.seed + config.eval.seeds)
    legs = [(seed, name, config.models[name], config.grids.get(name, {})) for seed in seeds for name in models]
    payloads = []
    with contextlib.closing(run_legs(prep.features, legs, config.split, config.preprocess)) as results:
        for result in results:
            run_dir = out_dir / f"seed_{result['seed']:03d}" / result["model_name"]
            payloads.append(write_run_artifacts(result, run_dir))

    aggregate = aggregate_runs(payloads)
    write_json(aggregate, out_dir / "aggregate.json")
    (out_dir / "aggregate.txt").write_text(format_aggregate_table(aggregate), encoding="utf-8")
    # last, so that a directory that holds it is a finished run
    write_json(config_to_dict(config), out_dir / "config.resolved.json")
    return aggregate
