"""Confusion-matrix metrics for imbalanced data plus PR/ROC curves with AUC.

The abnormal class is the positive class throughout. Curve sweeps use the
distinct score values as thresholds (predict positive at score >= threshold),
so ties share a single point and the curves are exact at this data scale.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .errors import ShapeError, SplitError
from .files import write_csv
from .ingest import ClassLabel


@dataclass
class ConfusionCounts:
    tp: int
    fp: int
    tn: int
    fn: int

    def __post_init__(self):
        if min(self.tp, self.fp, self.tn, self.fn) < 0:
            raise ValueError("confusion counts must be nonnegative")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


@dataclass
class ScalarMetrics:
    balanced_accuracy: float
    precision: float
    recall: float
    f1: float
    accuracy: float


@dataclass
class PrPoint:
    threshold: float
    recall: float
    precision: float


@dataclass
class RocPoint:
    threshold: float
    fpr: float
    tpr: float


@dataclass
class EvalReport(ScalarMetrics):
    """Everything the experiment records about one scored partition: the scalars, counts, curves and AUCs."""

    counts: ConfusionCounts
    pr_points: list[PrPoint]
    roc_points: list[RocPoint]
    auc_roc: float
    auc_pr: float

    def scalars(self) -> dict:
        """Every field but the curves, as JSON-ready data."""
        return {
            f.name: asdict(self.counts) if f.name == "counts" else getattr(self, f.name)
            for f in fields(self)
            if not f.name.endswith("_points")
        }


def _as_binary(labels) -> np.ndarray:
    return np.array([int(v) for v in labels], dtype=int)


def classify(score: float, tau: float) -> ClassLabel:
    """Abnormal iff score exceeds tau strictly.

    Fails closed: a non-finite score, or a NaN tau, is abnormal.
    """
    if math.isfinite(score) and score <= tau:
        return ClassLabel.NORMAL
    return ClassLabel.ABNORMAL


def confusion(labels, decisions) -> ConfusionCounts:
    """Count tp/fp/tn/fn with ABNORMAL (1) as the positive class."""
    y = _as_binary(labels)
    d = _as_binary(decisions)
    if y.shape != d.shape:
        raise ShapeError(f"labels ({y.size}) and decisions ({d.size}) differ in length")
    if y.size == 0:
        raise ShapeError("cannot evaluate zero samples")
    return ConfusionCounts(
        tp=int(((y == 1) & (d == 1)).sum()),
        fp=int(((y == 0) & (d == 1)).sum()),
        tn=int(((y == 0) & (d == 0)).sum()),
        fn=int(((y == 1) & (d == 0)).sum()),
    )


def scalar_metrics(counts: ConfusionCounts) -> ScalarMetrics:
    """Balanced accuracy, precision, recall, F1, accuracy.

    Division-by-zero corners resolve to 0: precision when nothing was flagged,
    recall when there are no positives, F1 when precision + recall is 0, and a
    class term of balanced accuracy when that class is absent.
    """
    tp, fp, tn, fn = counts.tp, counts.fp, counts.tn, counts.fn
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    f1 = 2.0 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    tnr = tn / (tn + fp) if tn + fp > 0 else 0.0
    tpr = tp / (tp + fn) if tp + fn > 0 else 0.0
    balanced = 0.5 * (tpr + tnr)
    accuracy = (tp + tn) / counts.total
    return ScalarMetrics(
        balanced_accuracy=balanced, precision=precision, recall=recall, f1=f1, accuracy=accuracy
    )


def _curve_inputs(scores, labels):
    s = np.asarray(scores, dtype=float)
    y = _as_binary(labels)
    if s.shape != y.shape:
        raise ShapeError(f"scores ({s.size}) and labels ({y.size}) differ in length")
    n_pos = int((y == 1).sum())
    n_neg = int((y == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise SplitError("curves need at least one positive and one negative sample")
    # a non-finite score ranks as the most anomalous, as ``classify`` judges it
    s = np.where(np.isfinite(s), s, np.inf)
    order = np.argsort(-s, kind="stable")
    s = s[order]
    y = y[order]
    # cumulative tp/fp when predicting positive at score >= s[i]
    tp_cum = np.cumsum(y == 1)
    fp_cum = np.cumsum(y == 0)
    # last index of each run of tied scores
    boundary = np.nonzero(s[1:] != s[:-1])[0]
    idx = np.concatenate([boundary, [s.size - 1]])
    # as Python numbers, so that the points hold floats and not numpy scalars
    return s[idx].tolist(), tp_cum[idx].tolist(), fp_cum[idx].tolist(), n_pos, n_neg


def pr_curve(scores, labels) -> list[PrPoint]:
    """(recall, precision) points swept over the distinct scores, descending."""
    thresholds, tp, fp, n_pos, _ = _curve_inputs(scores, labels)
    return [
        PrPoint(threshold=t, recall=tp_i / n_pos, precision=tp_i / (tp_i + fp_i))
        for t, tp_i, fp_i in zip(thresholds, tp, fp)
    ]


def roc_curve_and_auc(scores, labels) -> tuple[list[RocPoint], float]:
    """(fpr, tpr) points anchored at (0,0) and (1,1), with trapezoid AUC."""
    thresholds, tp, fp, n_pos, n_neg = _curve_inputs(scores, labels)
    points = [RocPoint(threshold=float("inf"), fpr=0.0, tpr=0.0)]
    for t, tp_i, fp_i in zip(thresholds, tp, fp):
        points.append(RocPoint(threshold=t, fpr=fp_i / n_neg, tpr=tp_i / n_pos))
    auc = 0.0
    for a, b in zip(points, points[1:]):
        auc += (b.fpr - a.fpr) * (a.tpr + b.tpr) / 2.0
    return points, float(auc)


def pr_auc(points: list[PrPoint]) -> float:
    """Trapezoid area under the PR points, extended flat back to recall 0."""
    extended = [(0.0, points[0].precision)] + [(p.recall, p.precision) for p in points]
    area = 0.0
    for (r0, p0), (r1, p1) in zip(extended, extended[1:]):
        area += (r1 - r0) * (p0 + p1) / 2.0
    return float(area)


def evaluate_scores(scores, labels, threshold: float) -> EvalReport:
    """Full report for one partition: decisions at score > threshold plus curves."""
    s = np.asarray(scores, dtype=float)
    decisions = [classify(v, threshold) for v in s]
    counts = confusion(labels, decisions)
    pr_points = pr_curve(s, labels)
    roc_points, auc_roc = roc_curve_and_auc(s, labels)
    return EvalReport(
        **asdict(scalar_metrics(counts)),
        counts=counts,
        pr_points=pr_points,
        roc_points=roc_points,
        auc_roc=auc_roc,
        auc_pr=pr_auc(pr_points),
    )


def write_pr_csv(points: list[PrPoint], path: str | Path) -> None:
    rows = ((p.threshold, p.recall, p.precision) for p in points)
    write_csv(path, ["threshold", "recall", "precision"], rows)


def write_roc_csv(points: list[RocPoint], path: str | Path) -> None:
    write_csv(path, ["threshold", "fpr", "tpr"], ((p.threshold, p.fpr, p.tpr) for p in points))


def write_curves(
    pr_points: list[PrPoint], roc_points: list[RocPoint], labels, out_dir: str | Path
) -> None:
    """pr_curve.csv, roc_curve.csv and curves.svg (no-skill PR line at the positive fraction)."""
    out_dir = Path(out_dir)
    write_pr_csv(pr_points, out_dir / "pr_curve.csv")
    write_roc_csv(roc_points, out_dir / "roc_curve.csv")
    positive_fraction = sum(1 for label in labels if label == ClassLabel.ABNORMAL) / len(labels)
    render_curves_svg(pr_points, roc_points, positive_fraction, out_dir / "curves.svg")


def _svg_polyline(xs, ys, ox, oy, w, h, style) -> str:
    pts = " ".join(f"{ox + x * w:.2f},{oy + h - y * h:.2f}" for x, y in zip(xs, ys))
    return f'<polyline fill="none" {style} points="{pts}"/>'


def render_curves_svg(
    pr_points: list[PrPoint],
    roc_points: list[RocPoint],
    positive_fraction: float,
    path: str | Path,
) -> None:
    """Render both curves side by side with dashed no-skill references."""
    w, h, pad = 320, 260, 45
    total_w = 2 * (w + pad) + pad

    def panel(ox, title, xlabel, ylabel, body):
        parts = [
            f'<rect x="{ox}" y="{pad}" width="{w}" height="{h}" fill="white" stroke="black"/>',
            f'<text x="{ox + w / 2:.0f}" y="{pad - 12}" text-anchor="middle" font-size="14">{title}</text>',
            f'<text x="{ox + w / 2:.0f}" y="{pad + h + 30}" text-anchor="middle" font-size="12">{xlabel}</text>',
            f'<text x="{ox - 30}" y="{pad + h / 2:.0f}" text-anchor="middle" font-size="12" '
            f'transform="rotate(-90 {ox - 30} {pad + h / 2:.0f})">{ylabel}</text>',
        ]
        parts.extend(body)
        return parts

    solid = 'stroke="#1f6fb2" stroke-width="1.5"'
    dashed = 'stroke="#b22222" stroke-width="1" stroke-dasharray="5,4"'

    pr_body = [
        _svg_polyline([p.recall for p in pr_points], [p.precision for p in pr_points], pad, pad, w, h, solid),
        _svg_polyline([0.0, 1.0], [positive_fraction, positive_fraction], pad, pad, w, h, dashed),
    ]
    ox2 = 2 * pad + w
    roc_body = [
        _svg_polyline([p.fpr for p in roc_points], [p.tpr for p in roc_points], ox2, pad, w, h, solid),
        _svg_polyline([0.0, 1.0], [0.0, 1.0], ox2, pad, w, h, dashed),
    ]

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{total_w}" height="{h + 2 * pad}" '
        f'viewBox="0 0 {total_w} {h + 2 * pad}">',
        *panel(pad, "Precision-Recall", "recall", "precision", pr_body),
        *panel(ox2, "ROC", "false positive rate", "true positive rate", roc_body),
        "</svg>",
    ]
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
