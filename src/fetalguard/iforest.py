"""Isolation Forest anomaly detector.

Each tree is grown on an independent subsample by recursive random splits:
uniformly random feature, uniform threshold between that feature's min and max
within the node. Samples that isolate on short paths score as anomalies.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .datasets import normals_only
from .errors import ConfigError, ShapeError, TrainingError
from .preprocess import as_matrix

DEFAULT_SUBSAMPLE = 256
FORMAT_VERSION = 2  # version 1 stored the threshold under "threshold"


@dataclass
class IforestConfig:
    n_trees: int = 100
    subsample_size: int = DEFAULT_SUBSAMPLE
    contamination: float = 0.33
    train_on: str = "all"  # "all" (fully unsupervised) or "normals"

    def __post_init__(self):
        if self.train_on not in ("all", "normals"):
            raise ConfigError(f"train_on must be 'all' or 'normals', got {self.train_on!r}")


@dataclass
class LeafNode:
    size: int
    depth: int


@dataclass
class InternalNode:
    feature: int
    threshold: float
    left: "InternalNode | LeafNode"
    right: "InternalNode | LeafNode"


@dataclass
class IsolationTree:
    root: InternalNode | LeafNode
    max_depth: int


@dataclass
class IsolationForestModel:
    """A fitted forest; scores, calibrate and to_dict form the shared detector interface."""

    model_type: ClassVar[str] = "iforest"
    config_type: ClassVar[type] = IforestConfig
    calibration_param: ClassVar[str] = "contamination"

    trees: list[IsolationTree]
    subsample_size: int
    contamination: float
    feature_dim: int
    seed: int
    tau: float | None = None
    preprocess: dict | None = None

    @classmethod
    def fit(cls, config: IforestConfig, train_core, validation, pre_validation_size: int, seed: int):
        """Grow the forest on the training core, or its normals -> (model, no trace, fit items)."""
        fit_items = train_core if config.train_on == "all" else normals_only(train_core)
        model = build_forest(
            fit_items, config.n_trees, config.subsample_size, seed, config.contamination
        )
        return model, None, fit_items

    @classmethod
    def from_dict(cls, data: dict) -> "IsolationForestModel":
        return model_from_dict(data)

    def scores(self, samples) -> np.ndarray:
        return if_scores(self, samples)

    def calibrate(self, train_scores) -> float:
        self.tau = if_threshold(train_scores, self.contamination)
        return self.tau

    def to_dict(self) -> dict:
        return model_to_dict(self)


@functools.cache
def harmonic_number(k: int) -> float:
    """Exact H(k) = sum_{i=1..k} 1/i; subsamples are small enough for direct summation."""
    return float(sum(1.0 / i for i in range(1, k + 1)))


@functools.cache  # scoring asks for it at every leaf reached; m is at most the subsample size
def average_path_correction(m: int) -> float:
    """Expected extra path length c(m) for an unresolved leaf holding m samples."""
    if m <= 1:
        return 0.0
    return 2.0 * harmonic_number(m - 1) - 2.0 * (m - 1) / m


def _grow(x: np.ndarray, depth: int, limit: int, rng: np.random.Generator):
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
        left=_grow(x[goes_left], depth + 1, limit, rng),
        right=_grow(x[~goes_left], depth + 1, limit, rng),
    )


def build_forest(
    data,
    n_trees: int = 100,
    subsample_size: int = DEFAULT_SUBSAMPLE,
    seed: int = 0,
    contamination: float = 0.33,
) -> IsolationForestModel:
    """Grow n_trees isolation trees on independent subsamples of the data.

    subsample_size is clamped to the dataset size; each tree draws from its own
    deterministic substream of the seed, so tree construction could run in
    parallel without changing the result.
    """
    if n_trees <= 0:
        raise ConfigError(f"n_trees must be positive, got {n_trees}")
    if not 0.0 < contamination <= 0.5:
        raise ConfigError(f"contamination must be in (0, 0.5], got {contamination}")
    x = as_matrix(data)
    n = x.shape[0]
    psi = min(subsample_size, n)
    limit = max(1, math.ceil(math.log2(psi))) if psi > 1 else 1
    streams = np.random.SeedSequence(seed).spawn(n_trees)
    trees = []
    for stream in streams:
        rng = np.random.default_rng(stream)
        rows = rng.choice(n, size=psi, replace=False)
        trees.append(IsolationTree(root=_grow(x[rows], 0, limit, rng), max_depth=limit))
    return IsolationForestModel(
        trees=trees,
        subsample_size=psi,
        contamination=contamination,
        feature_dim=x.shape[1],
        seed=seed,
    )


def path_length(tree: IsolationTree, x: np.ndarray) -> float:
    """Depth at which x lands, plus the unresolved-leaf correction c(leaf size)."""
    node = tree.root
    while isinstance(node, InternalNode):
        node = node.left if x[node.feature] < node.threshold else node.right
    return node.depth + average_path_correction(node.size)


def if_score(model: IsolationForestModel, x) -> float:
    """Anomaly score 2^(-mean path length / c(psi)) in (0, 1); higher = more anomalous.

    A vector with a non-finite feature scores NaN, which ``classify`` judges abnormal.
    """
    x = np.asarray(x.x if hasattr(x, "x") else x, dtype=float)
    if x.ndim != 1 or x.size != model.feature_dim:
        raise ShapeError(f"expected vector of dim {model.feature_dim}, got shape {x.shape}")
    if not model.trees:
        raise ConfigError("model has no trees")
    if not np.isfinite(x).all():  # a NaN fails every split test and would walk right
        return float("nan")
    mean_path = sum(path_length(t, x) for t in model.trees) / len(model.trees)
    denom = average_path_correction(model.subsample_size)
    if denom == 0.0:  # single-sample forest carries no isolating information
        return 0.5
    return float(2.0 ** (-mean_path / denom))


def if_scores(model: IsolationForestModel, data) -> np.ndarray:
    return np.array([if_score(model, x) for x in as_matrix(data)])


def if_threshold(training_scores, contamination: float) -> float:
    """(1 - contamination)-quantile of the training scores (linear interpolation).

    Samples scoring strictly above the threshold are flagged abnormal. Raises
    TrainingError on a non-finite training score.
    """
    if not 0.0 < contamination <= 0.5:
        raise ConfigError(f"contamination must be in (0, 0.5], got {contamination}")
    scores = np.asarray(training_scores, dtype=float)
    if scores.size == 0:
        raise ConfigError("need at least one training score")
    if not np.isfinite(scores).all():
        raise TrainingError("cannot calibrate on a non-finite training score")
    return float(np.quantile(scores, 1.0 - contamination))


def tree_to_dict(node) -> dict:
    if isinstance(node, LeafNode):
        return {"leaf": True, "size": node.size, "depth": node.depth}
    return {
        "leaf": False,
        "feature": node.feature,
        "threshold": node.threshold,
        "left": tree_to_dict(node.left),
        "right": tree_to_dict(node.right),
    }


def tree_from_dict(data: dict):
    if data["leaf"]:
        return LeafNode(size=data["size"], depth=data["depth"])
    return InternalNode(
        feature=data["feature"],
        threshold=data["threshold"],
        left=tree_from_dict(data["left"]),
        right=tree_from_dict(data["right"]),
    )


def model_to_dict(model: IsolationForestModel) -> dict:
    return {
        "model_type": model.model_type,
        "format_version": FORMAT_VERSION,
        "subsample_size": model.subsample_size,
        "contamination": model.contamination,
        "feature_dim": model.feature_dim,
        "seed": model.seed,
        "tau": model.tau,
        "preprocess": model.preprocess,
        "trees": [
            {"max_depth": t.max_depth, "root": tree_to_dict(t.root)} for t in model.trees
        ],
    }


def model_from_dict(data: dict) -> IsolationForestModel:
    version = data["format_version"]
    if version not in (1, FORMAT_VERSION):
        raise ConfigError(f"unsupported iforest format version {version!r}")
    return IsolationForestModel(
        trees=[
            IsolationTree(root=tree_from_dict(t["root"]), max_depth=t["max_depth"])
            for t in data["trees"]
        ],
        subsample_size=data["subsample_size"],
        contamination=data["contamination"],
        feature_dim=data["feature_dim"],
        seed=data["seed"],
        tau=data["tau" if version == FORMAT_VERSION else "threshold"],
        preprocess=data.get("preprocess"),
    )
