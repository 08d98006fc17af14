"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Heavy fixtures (the full-scale synthetic corpus and the trained detectors) are
module-scoped and shared across criteria. Criteria that need the clinical
dataset look for FETALGUARD_CTU_METADATA / FETALGUARD_CTU_SIGNALS and are
skipped when absent, with the synthetic mirror substituting where specified.
"""

from __future__ import annotations

import math
import os

import numpy as np
import pytest
from oracles import (
    brute_force_scalars,
    finite_difference_grads,
    median_oracle,
    random_safe_network,
    rank_statistic_auc,
)

from fetalguard.autoencoder import AeConfig, calibrate_threshold
from fetalguard.config import (
    DataConfig,
    EvalConfig,
    ExperimentConfig,
    OutputConfig,
    SynthDataConfig,
)
from fetalguard.datasets import SplitConfig, train_test_split
from fetalguard.errors import TestIsolationError
from fetalguard.experiment import TestSetGuard, run_experiment, run_single
from fetalguard.ganomaly import GanomalyConfig, gan_scores
from fetalguard.iforest import IforestConfig, build_forest, if_scores
from fetalguard.ingest import ClassLabel, assign_label, read_metadata_csv
from fetalguard.metrics import ConfusionCounts, roc_curve_and_auc, scalar_metrics
from fetalguard.persistence import load_model, save_model
from fetalguard.preprocess import (
    CleanSignal,
    PreprocessConfig,
    interpolate_missing,
    median_smooth,
    preprocess_collection,
)
from fetalguard.synth import generate_dataset

CTU_METADATA = os.environ.get("FETALGUARD_CTU_METADATA")
CTU_SIGNALS = os.environ.get("FETALGUARD_CTU_SIGNALS")

CORPUS_SEED = 11
RUN_SEED = 0


def _check(criterion: int, condition: bool, detail: str) -> None:
    status = "PASS" if condition else "FAIL"
    print(f"[criterion {criterion:02d}] {status}: {detail}")
    assert condition, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def corpus_features():
    records = generate_dataset(370, 182, seed=CORPUS_SEED)
    prep = preprocess_collection(records, PreprocessConfig())
    assert not prep.rejected
    return prep.features


@pytest.fixture(scope="module")
def ae_run(corpus_features):
    return run_single(
        "ae", AeConfig(), {}, corpus_features, SplitConfig(), PreprocessConfig(), seed=RUN_SEED
    )


@pytest.fixture(scope="module")
def gan_run(corpus_features):
    return run_single(
        "ganomaly",
        GanomalyConfig(),
        {},
        corpus_features,
        SplitConfig(),
        PreprocessConfig(),
        seed=RUN_SEED,
    )


class TestCriterion01Labeling:
    def test_real_ctu_metadata(self):
        if not CTU_METADATA:
            pytest.skip("FETALGUARD_CTU_METADATA not set; synthetic mirror substitutes")
        metadata = read_metadata_csv(CTU_METADATA)
        labels = [assign_label(m) for m in metadata.values()]
        n_abnormal = sum(1 for l in labels if l is ClassLabel.ABNORMAL)
        n_normal = sum(1 for l in labels if l is ClassLabel.NORMAL)
        _check(1, (n_abnormal, n_normal) == (182, 370), f"real CTU-UHB: {n_abnormal}/{n_normal}")

    def test_synthetic_mirror(self):
        records = generate_dataset(370, 182, seed=3)
        labels = [assign_label(item.record.metadata) for item in records]
        n_abnormal = sum(1 for l in labels if l is ClassLabel.ABNORMAL)
        n_normal = sum(1 for l in labels if l is ClassLabel.NORMAL)
        _check(
            1,
            (n_abnormal, n_normal) == (182, 370),
            f"labeling the synthetic mirror gives {n_abnormal} abnormal / {n_normal} normal "
            f"(expected 182/370)",
        )


def test_criterion_02_split_reproduction(corpus_features):
    train, test = train_test_split(corpus_features, 0.10, seed=RUN_SEED)
    n_abnormal = sum(1 for fv in test if fv.label is ClassLabel.ABNORMAL)
    _check(
        2,
        len(test) == 56 and n_abnormal == 19 and len(train) == 496,
        f"552 samples at fraction 0.10 -> test {len(test)} with {n_abnormal} abnormal "
        f"(expected 56/19)",
    )


def test_criterion_03_gradient_correctness():
    from fetalguard.nn import backward, forward

    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(50):
        net, x = random_safe_network(rng)
        v = rng.normal(size=net.out_dim)
        _, cache = forward(net, x)
        analytic, _ = backward(net, cache, v)
        numeric = finite_difference_grads(net, x, v, h=1e-5)
        for a, n in zip(analytic, numeric):
            denom = max(np.abs(a).max(), np.abs(n).max(), 1e-8)
            worst = max(worst, float(np.abs(a - n).max() / denom))
    _check(3, worst < 1e-4, f"50 random networks: worst relative gradient error {worst:.2e}")


def test_criterion_04_metric_oracles():
    rng = np.random.default_rng(7)
    worst_metric = 0.0
    for _ in range(1000):
        tp, fp, tn, fn = (int(v) for v in rng.integers(0, 50, size=4))
        if tp + fp + tn + fn == 0:
            tp = 1
        m = scalar_metrics(ConfusionCounts(tp=tp, fp=fp, tn=tn, fn=fn))
        expected = brute_force_scalars(tp, fp, tn, fn)
        got = (m.balanced_accuracy, m.precision, m.recall, m.f1, m.accuracy)
        worst_metric = max(worst_metric, max(abs(a - b) for a, b in zip(got, expected)))

    worst_auc = 0.0
    for _ in range(100):
        n = int(rng.integers(4, 200))
        labels = (rng.random(n) < rng.uniform(0.2, 0.8)).astype(int)
        if labels.sum() == 0:
            labels[0] = 1
        if labels.sum() == n:
            labels[0] = 0
        scores = rng.random(n)
        if rng.random() < 0.5:
            scores = np.round(scores, 1)  # force ties
        _, auc = roc_curve_and_auc(scores, labels)
        worst_auc = max(worst_auc, abs(auc - rank_statistic_auc(scores, labels)))

    _check(
        4,
        worst_metric < 1e-12 and worst_auc < 1e-9,
        f"1000 confusion matrices (worst {worst_metric:.2e} < 1e-12); "
        f"100 AUC sets (worst {worst_auc:.2e} < 1e-9)",
    )


def test_criterion_05_median_and_interpolation_oracles():
    rng = np.random.default_rng(17)
    median_ok = True
    for _ in range(200):
        n = int(rng.integers(3, 120))
        window = int(rng.choice([3, 5, 7, 9]))
        if window > n:
            window = 3 if n >= 3 else 1
        values = rng.uniform(50, 200, size=n)
        out = median_smooth(CleanSignal(values, np.zeros(n, dtype=bool)), window)
        if out.values.tolist() != median_oracle(values, window):
            median_ok = False
            break

    clean = interpolate_missing(np.array([100.0, 0.0, 120.0]), np.array([False, True, False]))
    interp_ok = clean.values.tolist() == [100.0, 110.0, 120.0]
    _check(
        5,
        median_ok and interp_ok,
        "median filter equals per-window sort oracle on 200 random signals; "
        "[100, missing, 120] -> [100, 110, 120]",
    )


def test_criterion_06_isolation_forest_sanity():
    top_hits = 0
    outlier_ok = 0
    inlier_ok = 0
    runs = 100
    for seed in range(runs):
        rng = np.random.default_rng(seed)
        data = np.vstack([rng.uniform(0, 1, size=(99, 2)), [[10.0, 10.0]]])
        model = build_forest(data, n_trees=100, seed=seed)
        scores = if_scores(model, data)
        if int(np.argmax(scores)) == 99:
            top_hits += 1
        if scores[99] > 0.6:
            outlier_ok += 1
        if scores[:99].mean() < 0.55:
            inlier_ok += 1
    _check(
        6,
        top_hits >= 95 and outlier_ok >= 95 and inlier_ok >= 95,
        f"outlier top-scored in {top_hits}/100 runs; score>0.6 in {outlier_ok}, "
        f"inlier mean<0.55 in {inlier_ok}",
    )


def test_criterion_07_synthetic_end_to_end_separability(ae_run, gan_run):
    ae_f1 = ae_run["report"].f1
    gan_f1 = gan_run["report"].f1
    _check(
        7,
        ae_f1 >= 0.80 and gan_f1 >= 0.80,
        f"370+182 synthetic corpus, default hyperparameters: "
        f"AE test F1 {ae_f1:.3f} >= 0.80, GANomaly test F1 {gan_f1:.3f} >= 0.80",
    )


@pytest.mark.skipif(
    not (CTU_METADATA and CTU_SIGNALS),
    reason="clinical dataset not present (FETALGUARD_CTU_SIGNALS/METADATA unset)",
)
def test_criterion_08_model_ordering_on_real_data():
    from fetalguard.ingest import load_each

    records, _ = load_each(CTU_SIGNALS, CTU_METADATA, lambda item: item)
    prep = preprocess_collection(records, PreprocessConfig())
    means = {}
    for name, config in (
        ("iforest", IforestConfig()),
        ("ae", AeConfig()),
        ("ganomaly", GanomalyConfig()),
    ):
        f1s = [
            run_single(name, config, {}, prep.features, SplitConfig(), PreprocessConfig(), seed=s)["report"].f1
            for s in range(5)
        ]
        means[name] = float(np.mean(f1s))
    ordered = means["ganomaly"] > means["ae"] > means["iforest"]
    in_band = 0.65 <= means["ganomaly"] <= 0.85
    _check(
        8,
        ordered and in_band,
        f"real-data mean F1 over 5 seeds: ganomaly {means['ganomaly']:.3f} > "
        f"ae {means['ae']:.3f} > iforest {means['iforest']:.3f}; ganomaly in [0.65, 0.85]",
    )


def test_criterion_09_gan_stability(gan_run):
    trace = gan_run["fitted"].trace
    l_d = np.array(trace.l_d)
    l_g = np.array(trace.l_g)
    finite = bool(np.isfinite(l_d).all() and np.isfinite(l_g).all())
    tail = l_d[int(0.9 * l_d.size) :]
    tail_mean = float(tail.mean())
    _check(
        9,
        finite and 0.7 <= tail_mean <= 2.1,
        f"L_D/L_G finite over {l_d.size} iterations; trailing-10% L_D mean "
        f"{tail_mean:.4f} in [0.7, 2.1] (2 ln 2 = {2 * math.log(2):.4f})",
    )


def test_criterion_10_threshold_semantics(gan_run, tmp_path):
    fitted = gan_run["fitted"]
    scores = fitted.train_scores
    mu, sigma = scores.mean(), scores.std()
    frac_over = float((scores > mu + 5.0 * sigma).mean())

    model_path = tmp_path / "model.json"
    save_model(fitted.model, model_path)
    restored = load_model(model_path)
    recomputed_scores = gan_scores(restored, fitted.fit_items)
    recomputed_tau = calibrate_threshold(recomputed_scores, restored.k_sigma)
    tau_drift = abs(recomputed_tau - fitted.tau)
    assert restored.preprocess == fitted.model.preprocess == PreprocessConfig()
    _check(
        10,
        frac_over <= 0.04 and frac_over <= 0.01 and tau_drift < 1e-12,
        f"training fraction above mu+5sigma = {frac_over:.4f} (<=0.01); "
        f"tau recomputed from the persisted model drifts {tau_drift:.2e} (<1e-12)",
    )


def test_criterion_11_run_determinism(tmp_path):
    def config(out):
        return ExperimentConfig(
            data=DataConfig(synth=SynthDataConfig(n_normal=60, n_abnormal=30, seed=5)),
            preprocess=PreprocessConfig(median_window=5, feature_dim=48),
            split=SplitConfig(test_fraction=0.1, seed=0),
            models={
                "iforest": IforestConfig(n_trees=50),
                "ae": AeConfig(
                    encoder_units=(32, 16, 8),
                    decoder_units=(8, 16, 32),
                    epochs=30,
                    patience=30,
                ),
                "ganomaly": GanomalyConfig(
                    encoder_units=(32, 16, 8),
                    decoder_units=(8, 16, 32),
                    discriminator_units=(32, 8, 1),
                    iterations_per_epoch=60,
                    epochs=4,
                    patience=4,
                ),
            },
            grids={},
            eval=EvalConfig(seeds=2),
            output=OutputConfig(dir=str(out)),
        )

    run_experiment(config(tmp_path / "a"))
    run_experiment(config(tmp_path / "b"))
    identical = True
    compared = 0
    for path_a in sorted((tmp_path / "a").rglob("*.json")):
        if path_a.name == "config.resolved.json":
            continue  # provenance: embeds the (differing) output directory
        path_b = tmp_path / "b" / path_a.relative_to(tmp_path / "a")
        compared += 1
        if path_a.read_bytes() != path_b.read_bytes():
            identical = False
    _check(
        11,
        identical and compared >= 8,
        f"repeated run reproduced {compared} metric/report JSON artifacts byte-identically",
    )


def test_test_set_guard_blocks_out_of_protocol_reads():
    # supporting invariant for the run protocol (not a numbered criterion)
    guard = TestSetGuard([1, 2])
    with pytest.raises(TestIsolationError):
        guard.take()
    guard.unlock()
    guard.take()
    with pytest.raises(TestIsolationError):
        guard.take()
