from __future__ import annotations

from dataclasses import astuple

import numpy as np
import pytest
from oracles import brute_force_scalars, rank_statistic_auc

from fetalguard.errors import ShapeError, SplitError
from fetalguard.ingest import ClassLabel
from fetalguard.metrics import (
    ConfusionCounts,
    classify,
    confusion,
    evaluate_scores,
    pr_auc,
    pr_curve,
    render_curves_svg,
    roc_curve_and_auc,
    scalar_metrics,
    write_pr_csv,
    write_roc_csv,
)


class TestDecisionRule:
    @pytest.mark.parametrize("score", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_score_is_abnormal(self, score):
        assert classify(score, tau=1.0) is ClassLabel.ABNORMAL

    def test_nan_tau_flags_everything(self):
        assert classify(0.0, tau=float("nan")) is ClassLabel.ABNORMAL

    def test_evaluate_scores_flags_a_nan_score(self):
        report = evaluate_scores([0.1, float("nan"), 0.9, 0.2], [0, 1, 1, 0], threshold=0.5)
        assert (report.counts.tp, report.counts.fn) == (2, 0)


    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_curves_rank_a_non_finite_score_most_anomalous(self, bad):
        report = evaluate_scores([0.1, bad, 0.9, 0.2], [0, 1, 1, 0], threshold=0.5)
        assert report.auc_roc == 1.0 and report.auc_pr == 1.0
        assert not any(np.isnan(p.threshold) for p in report.roc_points + report.pr_points)


class TestConfusion:
    def test_direct_count(self):
        labels = [1, 1, 1, 1, 0, 0, 0, 0, 0, 0]
        decisions = [1, 1, 1, 0, 1, 1, 0, 0, 0, 0]
        counts = confusion(labels, decisions)
        assert (counts.tp, counts.fn, counts.fp, counts.tn) == (3, 1, 2, 4)

    def test_all_correct(self):
        counts = confusion([0, 1, 0, 1], [0, 1, 0, 1])
        assert counts.fp == 0 and counts.fn == 0

    def test_all_normal_decisions(self):
        counts = confusion([1, 0, 1], [0, 0, 0])
        assert counts.tp == 0 and counts.fp == 0

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            confusion([1, 0], [1])


class TestScalarMetrics:
    def test_worked_example(self):
        m = scalar_metrics(ConfusionCounts(tp=3, fp=2, tn=4, fn=1))
        assert m.precision == pytest.approx(0.6)
        assert m.recall == pytest.approx(0.75)
        assert m.f1 == pytest.approx(2 * 0.6 * 0.75 / 1.35)
        assert m.balanced_accuracy == pytest.approx(0.5 * (0.75 + 4 / 6))

    def test_perfect_classifier(self):
        m = scalar_metrics(ConfusionCounts(tp=5, fp=0, tn=7, fn=0))
        assert (m.balanced_accuracy, m.precision, m.recall, m.f1, m.accuracy) == (
            1.0, 1.0, 1.0, 1.0, 1.0,
        )

    def test_always_positive_on_imbalanced_set(self):
        # 10% positive: accuracy is misleadingly low/odd while recall is 1
        m = scalar_metrics(ConfusionCounts(tp=1, fp=9, tn=0, fn=0))
        assert m.accuracy == pytest.approx(0.10)
        assert m.recall == pytest.approx(1.0)

    def test_zero_division_conventions(self):
        m = scalar_metrics(ConfusionCounts(tp=0, fp=0, tn=3, fn=0))
        assert m.precision == 0.0 and m.recall == 0.0 and m.f1 == 0.0
        assert m.balanced_accuracy == pytest.approx(0.5)

    def test_matches_brute_force_on_random_counts(self):
        rng = np.random.default_rng(19)
        for _ in range(400):
            tp, fp, tn, fn = (int(v) for v in rng.integers(0, 40, size=4))
            if tp + fp + tn + fn == 0:
                continue
            m = scalar_metrics(ConfusionCounts(tp=tp, fp=fp, tn=tn, fn=fn))
            expected = brute_force_scalars(tp, fp, tn, fn)
            got = (m.balanced_accuracy, m.precision, m.recall, m.f1, m.accuracy)
            for a, b in zip(got, expected):
                assert a == pytest.approx(b, abs=1e-12)

    def test_f1_is_between_min_and_max_of_precision_recall(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            tp, fp, tn, fn = (int(v) for v in rng.integers(0, 30, size=4))
            m = scalar_metrics(ConfusionCounts(tp=tp, fp=fp, tn=tn, fn=fn))
            if m.precision + m.recall > 0:
                assert min(m.precision, m.recall) - 1e-12 <= m.f1 <= max(m.precision, m.recall) + 1e-12


class TestPrCurve:
    def test_perfect_separation_passes_through_one_one(self):
        scores = [0.9, 0.8, 0.7, 0.2, 0.1]
        labels = [1, 1, 1, 0, 0]
        points = pr_curve(scores, labels)
        assert any(p.recall == 1.0 and p.precision == 1.0 for p in points)

    def test_identical_scores_collapse_to_single_point(self):
        points = pr_curve([0.5, 0.5, 0.5], [1, 0, 0])
        assert len(points) == 1
        assert points[0].recall == 1.0
        assert points[0].precision == pytest.approx(1 / 3)

    def test_random_scores_hover_near_positive_fraction(self):
        rng = np.random.default_rng(3)
        n = 3000
        labels = (rng.random(n) < 0.33).astype(int)
        scores = rng.random(n)
        points = pr_curve(scores, labels)
        mid = [p.precision for p in points if 0.3 < p.recall < 0.9]
        assert np.mean(mid) == pytest.approx(labels.mean(), abs=0.05)

    def test_single_class_rejected(self):
        with pytest.raises(SplitError):
            pr_curve([0.1, 0.2], [1, 1])

    def test_recall_is_monotone_in_sweep(self):
        rng = np.random.default_rng(8)
        scores = rng.random(50)
        labels = (rng.random(50) < 0.4).astype(int)
        if labels.sum() in (0, 50):
            labels[0] = 1 - labels[0]
        points = pr_curve(scores, labels)
        recalls = [p.recall for p in points]
        assert recalls == sorted(recalls)


class TestRocCurve:
    def test_perfect_separation_auc_one(self):
        _, auc = roc_curve_and_auc([0.9, 0.8, 0.1, 0.2], [1, 1, 0, 0])
        assert auc == pytest.approx(1.0)

    def test_constant_scores_auc_half(self):
        points, auc = roc_curve_and_auc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0])
        assert auc == pytest.approx(0.5)
        assert (points[0].fpr, points[0].tpr) == (0.0, 0.0)
        assert (points[-1].fpr, points[-1].tpr) == (1.0, 1.0)

    def test_inverted_separation_auc_zero(self):
        _, auc = roc_curve_and_auc([0.1, 0.2, 0.9, 0.8], [1, 1, 0, 0])
        assert auc == pytest.approx(0.0)

    def test_trapezoid_matches_rank_statistic(self):
        rng = np.random.default_rng(101)
        for _ in range(60):
            n = int(rng.integers(4, 120))
            labels = (rng.random(n) < rng.uniform(0.2, 0.8)).astype(int)
            if labels.sum() == 0:
                labels[0] = 1
            if labels.sum() == n:
                labels[0] = 0
            # quantize some score sets to force ties
            scores = rng.random(n)
            if rng.random() < 0.5:
                scores = np.round(scores, 1)
            _, auc = roc_curve_and_auc(scores, labels)
            assert auc == pytest.approx(rank_statistic_auc(scores, labels), abs=1e-9)

    def test_invariant_to_monotone_transforms(self):
        rng = np.random.default_rng(55)
        scores = rng.random(80)
        labels = (rng.random(80) < 0.3).astype(int)
        labels[0], labels[1] = 1, 0
        _, base_auc = roc_curve_and_auc(scores, labels)
        base_pr = pr_curve(scores, labels)
        for transform in (lambda s: 3 * s + 2, np.exp, lambda s: s**3):
            _, auc = roc_curve_and_auc(transform(scores), labels)
            assert auc == pytest.approx(base_auc, abs=1e-12)
            points = pr_curve(transform(scores), labels)
            assert [(p.recall, p.precision) for p in points] == [
                (p.recall, p.precision) for p in base_pr
            ]


def test_evaluate_scores_builds_full_report():
    scores = [0.9, 0.7, 0.3, 0.2, 0.8, 0.1]
    labels = [1, 1, 0, 0, 1, 0]
    report = evaluate_scores(scores, labels, threshold=0.5)
    assert report.counts.tp == 3 and report.counts.tn == 3
    assert report.f1 == 1.0
    assert report.auc_roc == 1.0
    assert 0.0 <= report.auc_pr <= 1.0
    assert report.scalars()["counts"]["tp"] == 3


def test_pr_auc_single_point_equals_positive_fraction():
    points = pr_curve([0.5, 0.5, 0.5, 0.5], [1, 0, 0, 0])
    assert pr_auc(points) == pytest.approx(0.25)


def test_curve_csv_and_svg_outputs(tmp_path):
    scores = [0.9, 0.7, 0.3, 0.2]
    labels = [1, 1, 0, 0]
    pr_points = pr_curve(scores, labels)
    roc_points, _ = roc_curve_and_auc(scores, labels)
    write_pr_csv(pr_points, tmp_path / "pr.csv")
    write_roc_csv(roc_points, tmp_path / "roc.csv")
    render_curves_svg(pr_points, roc_points, 0.5, tmp_path / "curves.svg")
    pr_text = (tmp_path / "pr.csv").read_text()
    assert pr_text.splitlines()[0] == "threshold,recall,precision"
    roc_text = (tmp_path / "roc.csv").read_text()
    assert roc_text.splitlines()[0] == "threshold,fpr,tpr"
    svg = (tmp_path / "curves.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg
    for text in (pr_text, roc_text):  # every cell a plain number
        assert all(float(cell) >= 0 for line in text.splitlines()[1:] for cell in line.split(","))
    assert all(type(value) is float for p in pr_points + roc_points for value in astuple(p))
