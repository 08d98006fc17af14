"""Independent brute-force oracles shared by unit and acceptance tests.

These deliberately avoid the library's own code paths: medians via per-window
sorting, AUC via the rank statistic, metrics via direct formula transcription,
gradients via central finite differences, signal CSVs via a csv row loop,
isolation forests grown by taking every column's min and max at each node,
isolation-forest scores via one tree walk per sample and tree, plateaus one
sample at a time, model
artifacts via one hand-written encoder per model type, with network and
forest arrays packed one Python number at a time, backpropagation that
computes every gradient, a signal directory loaded one file at a time in
this process, and a synthetic dataset written one file at a time in this
process.
"""

from __future__ import annotations

import base64
import csv
import dataclasses
import io
import struct
from pathlib import Path

import numpy as np

from fetalguard.errors import ConfigError, EmptyInputError, FetalGuardError, ParseError, ShapeError, StructureError
from fetalguard.iforest import InternalNode, IsolationForestModel, IsolationTree, LeafNode, depth_limit
from fetalguard.ingest import (
    LabeledRecord,
    LoadResult,
    SignalRecord,
    SkippedRecord,
    assign_label,
    read_metadata_csv,
    read_record_csv,
)
from fetalguard.nn import _activation_grad, forward, init_network
from fetalguard.preprocess import as_matrix


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


def reference_backward(net, cache, output_gradient):
    """nn.backward as it was before it could skip a gradient: every layer's weight,
    bias and input gradient, always."""
    if len(cache.inputs) != len(net.layers):
        raise ShapeError("cache does not match network")
    d = np.atleast_2d(np.asarray(output_gradient, dtype=float))
    if d.shape != cache.activations[-1].shape:
        raise ShapeError(
            f"output gradient shape {d.shape} != output shape {cache.activations[-1].shape}"
        )
    grads = [np.empty(0)] * (2 * len(net.layers))
    for i in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[i]
        dz = d * _activation_grad(layer.activation, layer.alpha, cache.pre_activations[i], cache.activations[i])
        grads[2 * i] = cache.inputs[i].T @ dz
        grads[2 * i + 1] = dz.sum(axis=0)
        d = dz @ layer.weights.T
    input_grad = d[0] if cache.squeeze else d
    return grads, input_grad


def reference_load_collection(signal_dir, metadata_file) -> LoadResult:
    """ingest.load_collection as one loop over the sorted files, in this process."""
    signal_dir = Path(signal_dir)
    metadata = read_metadata_csv(metadata_file)
    signal_files = sorted(signal_dir.glob("*.csv"))
    if not signal_files:
        raise EmptyInputError(f"no signal CSV files in {signal_dir}")
    records, skipped = [], []
    for path in signal_files:
        record_id = path.stem
        meta = metadata.get(record_id)
        if meta is None:
            skipped.append(SkippedRecord(record_id, "no metadata row"))
            continue
        try:
            record = read_record_csv(path)
            record.metadata = meta
            label = assign_label(meta)
        except (FetalGuardError, ValueError) as exc:
            skipped.append(SkippedRecord(record_id, str(exc)))
            continue
        records.append(LabeledRecord(record, label))
    if not records:
        raise EmptyInputError(f"no records loaded from {signal_dir} ({len(skipped)} skipped)")
    return LoadResult(records=records, skipped=skipped)


def reference_write_dataset(records, out_dir) -> tuple[Path, Path]:
    """synth.write_dataset as one loop over the records, in this process, by csv.writer."""

    def write(path: Path, header, rows) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)

    out_dir = Path(out_dir)
    signals = [item.record for item in records]
    for record in signals:
        rows = [(repr(i / record.sample_rate_hz), repr(v)) for i, v in enumerate(record.fhr.tolist())]
        write(out_dir / "signals" / f"{record.record_id}.csv", ["time_s", "fhr_bpm"], rows)
    rows = [(r.record_id, r.metadata.ph, r.metadata.apgar1, "", "", "") for r in signals]
    write(out_dir / "metadata.csv", ["record_id", "ph", "apgar1", "pco2", "po2", "bdecf"], rows)
    return out_dir / "signals", out_dir / "metadata.csv"


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


def _reference_grow(x: np.ndarray, depth: int, limit: int, rng: np.random.Generator):
    n = x.shape[0]
    if n <= 1 or depth >= limit:
        return LeafNode(size=n, depth=depth)
    mins = x.min(axis=0)
    maxs = x.max(axis=0)
    splittable = np.nonzero(maxs > mins)[0]
    if splittable.size == 0:  # duplicate points
        return LeafNode(size=n, depth=depth)
    feature = int(splittable[rng.integers(0, splittable.size)])
    lo, hi = mins[feature], maxs[feature]
    while True:  # open interval keeps both children non-empty
        threshold = float(rng.uniform(lo, hi))
        if lo < threshold < hi:
            break
    goes_left = x[:, feature] < threshold
    return InternalNode(
        feature=feature,
        threshold=threshold,
        left=_reference_grow(x[goes_left], depth + 1, limit, rng),
        right=_reference_grow(x[~goes_left], depth + 1, limit, rng),
    )


def reference_build_forest(
    data,
    n_trees: int = 100,
    subsample_size: int = 256,
    seed: int = 0,
    contamination: float = 0.33,
) -> IsolationForestModel:
    """An isolation forest whose every node takes the min and max of every column of its rows."""
    if n_trees <= 0:
        raise ConfigError(f"n_trees must be positive, got {n_trees}")
    if not 0.0 < contamination <= 0.5:
        raise ConfigError(f"contamination must be in (0, 0.5], got {contamination}")
    x = as_matrix(data)
    n = x.shape[0]
    psi = min(subsample_size, n)
    limit = depth_limit(psi)
    streams = np.random.SeedSequence(seed).spawn(n_trees)
    trees = []
    for stream in streams:
        rng = np.random.default_rng(stream)
        rows = rng.choice(n, size=psi, replace=False)
        trees.append(IsolationTree(root=_reference_grow(x[rows], 0, limit, rng), max_depth=limit))
    return IsolationForestModel(
        trees=trees,
        subsample_size=psi,
        contamination=contamination,
        feature_dim=x.shape[1],
        seed=seed,
    )


def reference_add_plateau(signal, start: int, length: int, depth: float, ramp: int) -> None:
    """A sustained dip with cosine ramps, subtracted in place one sample at a time."""
    end = min(signal.size, start + length)
    for i in range(start, end):
        into = i - start
        left = end - 1 - i
        scale = 1.0
        if into < ramp:
            scale = 0.5 * (1.0 - np.cos(np.pi * into / ramp))
        if left < ramp:
            scale = min(scale, 0.5 * (1.0 - np.cos(np.pi * left / ramp)))
        signal[i] -= depth * scale


def _preprocess_section(model):
    pre = model.preprocess  # a PreprocessConfig once loaded, or the dict a caller assigned
    return dataclasses.asdict(pre) if dataclasses.is_dataclass(pre) else pre


# the format version each model type writes today
CURRENT_FORMAT = {"iforest": 3, "ae": 2, "ganomaly": 2}


def reference_model_to_dict(model, version: int | None = None) -> dict:
    """The model artifact format as three hand-written encoders, one per model type.

    version selects the format, by default the current one. An isolation
    forest has three: 3 (flat arrays), 2 (one nested object per tree) and 1
    (as 2, with the threshold under ``threshold``). The AE and GANomaly have
    2 (network arrays as base64) and 1 (as nested JSON numbers).
    """
    version = CURRENT_FORMAT[model.model_type] if version is None else version
    return {
        "iforest": _reference_iforest_to_dict,
        "ae": _reference_ae_to_dict,
        "ganomaly": _reference_ganomaly_to_dict,
    }[model.model_type](model, version)


def _reference_blob(array) -> str:
    """Base64 of the array's values in row-major order as little-endian IEEE doubles."""
    values = [float(v) for row in np.atleast_2d(array) for v in row]
    return base64.b64encode(struct.pack(f"<{len(values)}d", *values)).decode("ascii")


def _reference_network(net, version: int) -> dict:
    encode_array = _reference_blob if version == 2 else lambda array: array.tolist()
    return {
        "format_version": version,
        "layers": [
            {
                "in_dim": len(layer.weights),
                "out_dim": len(layer.biases),
                "activation": layer.activation,
                "alpha": layer.alpha,
                "weights": encode_array(layer.weights),
                "biases": encode_array(layer.biases),
            }
            for layer in net.layers
        ],
    }


def _reference_ae_to_dict(model, version: int) -> dict:
    return {
        "model_type": model.model_type,
        "format_version": version,
        "feature_dim": model.feature_dim,
        "latent_dim": model.latent_dim,
        "tau": model.tau,
        "k_sigma": model.k_sigma,
        "preprocess": _preprocess_section(model),
        "optimizer": model.optimizer,
        "encoder": _reference_network(model.encoder, version),
        "decoder": _reference_network(model.decoder, version),
    }


def _reference_ganomaly_to_dict(model, version: int) -> dict:
    return {
        "model_type": model.model_type,
        "format_version": version,
        "feature_dim": model.feature_dim,
        "latent_dim": model.latent_dim,
        "lambda_c": model.lambda_c,
        "lambda_e": model.lambda_e,
        "lambda_a": model.lambda_a,
        "tau": model.tau,
        "k_sigma": model.k_sigma,
        "score_mode": model.score_mode,
        "preprocess": _preprocess_section(model),
        "optimizer": model.optimizer,
        "encoder1": _reference_network(model.encoder1, version),
        "decoder": _reference_network(model.decoder, version),
        "encoder2": _reference_network(model.encoder2, version),
        "discriminator": _reference_network(model.discriminator, version),
    }


def _reference_iforest_to_dict(model, version: int) -> dict:
    if version == 3:
        trees = _reference_forest_arrays(model.trees)
    else:
        trees = [{"max_depth": t.max_depth, "root": _reference_nested_node(t.root, 0)} for t in model.trees]
    return {
        "model_type": model.model_type,
        "format_version": version,
        "subsample_size": model.subsample_size,
        "contamination": model.contamination,
        "feature_dim": model.feature_dim,
        "seed": model.seed,
        "threshold" if version == 1 else "tau": model.tau,
        "preprocess": _preprocess_section(model),
        "trees": trees,
    }


def _reference_nested_node(node, depth: int) -> dict:
    """A node of a version-1 or version-2 file; a leaf records the depth it was reached at."""
    if not hasattr(node, "left"):
        return {"leaf": True, "size": node.size, "depth": depth}
    return {
        "leaf": False,
        "feature": node.feature,
        "threshold": node.threshold,
        "left": _reference_nested_node(node.left, depth + 1),
        "right": _reference_nested_node(node.right, depth + 1),
    }


def _reference_forest_arrays(trees) -> dict:
    """The version-3 forest: per tree its nodes in preorder, found with an explicit stack.

    Each array is packed with struct as little-endian int32 (``i``) or
    float64 (``d``); children are indices within their tree, and a leaf has
    feature -1, threshold 0.0 and children -1, a split size 0.
    """
    columns = {name: [] for name in ("node_counts", "feature", "threshold", "left", "right", "size")}
    for tree in trees:
        order, stack = [], [tree.root]
        while stack:
            node = stack.pop()
            order.append(node)
            if hasattr(node, "left"):
                stack += [node.right, node.left]  # the left subtree comes out first
        position = {id(node): i for i, node in enumerate(order)}
        columns["node_counts"].append(len(order))
        for node in order:
            split = hasattr(node, "left")
            columns["feature"].append(node.feature if split else -1)
            columns["threshold"].append(node.threshold if split else 0.0)
            columns["left"].append(position[id(node.left)] if split else -1)
            columns["right"].append(position[id(node.right)] if split else -1)
            columns["size"].append(0 if split else node.size)
    return {
        name: base64.b64encode(
            struct.pack(f"<{len(values)}{'d' if name == 'threshold' else 'i'}", *values)
        ).decode("ascii")
        for name, values in columns.items()
    }
