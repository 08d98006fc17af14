"""Independent brute-force oracles shared by unit and acceptance tests.

These deliberately avoid the library's own code paths: medians via per-window
sorting, AUC via the rank statistic, metrics via direct formula transcription,
gradients via central finite differences, signal CSVs via a csv row loop,
isolation-forest scores via one tree walk per sample and tree.
"""

from __future__ import annotations

import csv
import io

import numpy as np

from fetalguard.errors import EmptyInputError, ParseError, StructureError
from fetalguard.ingest import SignalRecord
from fetalguard.nn import forward, init_network


def median_oracle(values, window):
    """Brute-force median filter: per-window sort with boundary replication."""
    pad = window // 2
    padded = [values[0]] * pad + list(values) + [values[-1]] * pad
    out = []
    for i in range(len(values)):
        win = sorted(padded[i : i + window])
        out.append(win[window // 2])
    return out


def rank_statistic_auc(scores, labels):
    """Tie-adjusted concordance probability via midranks (Mann-Whitney)."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=int)
    order = np.argsort(scores, kind="stable")
    ranks = np.empty(scores.size)
    sorted_scores = scores[order]
    i = 0
    next_rank = 1
    while i < scores.size:
        j = i
        while j < scores.size and sorted_scores[j] == sorted_scores[i]:
            j += 1
        ranks[order[i:j]] = (next_rank + next_rank + (j - i) - 1) / 2.0
        next_rank += j - i
        i = j
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    u = ranks[labels == 1].sum() - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def brute_force_scalars(tp, fp, tn, fn):
    """Direct transcription of the metric formulas with 0-conventions."""
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    pos_term = tp / (tp + fn) if tp + fn else 0.0
    neg_term = tn / (tn + fp) if tn + fp else 0.0
    balanced = 0.5 * (pos_term + neg_term)
    accuracy = (tp + tn) / (tp + fp + tn + fn)
    return balanced, precision, recall, f1, accuracy


def finite_difference_grads(net, x, v, h=1e-5):
    """Central differences of loss(net) = forward(net, x) . v for every parameter."""

    def loss():
        out, _ = forward(net, x)
        return float((out * v).sum())

    grads = []
    for p in net.parameters():
        g = np.zeros_like(p)
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + h
            up = loss()
            p[idx] = orig - h
            down = loss()
            p[idx] = orig
            g[idx] = (up - down) / (2 * h)
        grads.append(g)
    return grads


def random_safe_network(rng, kink_margin=1e-6):
    """Random small net and input whose pre-activations stay away from relu kinks."""
    activations = ["relu", "leaky_relu", "sigmoid", "identity"]
    for _ in range(100):
        n_layers = int(rng.integers(1, 4))
        dims = [int(rng.integers(1, 6)) for _ in range(n_layers + 1)]
        spec = []
        for i in range(n_layers):
            act = activations[int(rng.integers(0, len(activations)))]
            spec.append((dims[i], dims[i + 1], act, 0.2))
        net = init_network(spec, seed=int(rng.integers(0, 2**31)))
        x = rng.normal(size=dims[0])
        _, cache = forward(net, x)
        safe = True
        for layer, z in zip(net.layers, cache.pre_activations):
            if layer.activation in ("relu", "leaky_relu") and np.abs(z).min() < kink_margin:
                safe = False
                break
        if safe:
            return net, x
    raise AssertionError("could not build a kink-free network")


def reference_parse_record_csv(text: str, record_id: str) -> SignalRecord:
    """Signal CSV parser as one csv row loop with one float() per cell.

    Beyond the errors it shares with ``parse_record_csv``, it lets a csv.Error
    escape (a bare carriage return inside a row), and SignalRecord raises a bare
    ValueError when the inferred sample rate is 0 or NaN.
    """
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise EmptyInputError(f"record {record_id}: file is empty") from None
    if [c.strip().lower() for c in header] != ["time_s", "fhr_bpm"]:
        raise ParseError(f"expected header 'time_s,fhr_bpm', got '{','.join(header)}'", line=1)

    times: list[float] = []
    values: list[float] = []
    for line_no, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 2:
            raise ParseError(f"expected 2 columns, got {len(row)}", line=line_no)
        try:
            t = float(row[0])
            v = float(row[1])
        except ValueError:
            raise ParseError(f"non-numeric cell in row {row!r}", line=line_no) from None
        if times and t <= times[-1]:
            raise StructureError(
                f"record {record_id}: time not strictly increasing at line {line_no} "
                f"({times[-1]} -> {t})"
            )
        times.append(t)
        values.append(v)

    if not values:
        raise EmptyInputError(f"record {record_id}: no data rows")
    if len(values) < 2:
        raise StructureError(f"record {record_id}: need at least two samples to infer the sample rate")
    median_delta = float(np.median(np.diff(times)))
    return SignalRecord(record_id=record_id, fhr=np.array(values), sample_rate_hz=1.0 / median_delta)


def _path_correction(m: int) -> float:
    if m <= 1:
        return 0.0
    return 2.0 * float(sum(1.0 / i for i in range(1, m))) - 2.0 * (m - 1) / m


def reference_if_scores(model, x) -> np.ndarray:
    """Isolation-forest scores: per sample, a sum of path lengths over a walk of each tree.

    The harmonic sum behind each leaf's correction is recomputed at every leaf.
    """
    denom = _path_correction(model.subsample_size)
    out = []
    for row in np.atleast_2d(np.asarray(x, dtype=float)):
        if not np.isfinite(row).all():
            out.append(float("nan"))
            continue
        lengths = []
        for tree in model.trees:
            node = tree.root
            while hasattr(node, "left"):
                node = node.left if row[node.feature] < node.threshold else node.right
            lengths.append(node.depth + _path_correction(node.size))
        mean_path = sum(lengths) / len(model.trees)
        out.append(0.5 if denom == 0.0 else float(2.0 ** (-mean_path / denom)))
    return np.array(out)
