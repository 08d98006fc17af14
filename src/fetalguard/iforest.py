"""Isolation Forest anomaly detector.

Each tree is grown on an independent subsample by recursive random splits:
uniformly random feature, uniform threshold between that feature's min and max
within the node. Samples that isolate on short paths score as anomalies.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Annotated, ClassVar

import numpy as np

from .datasets import normals_only
from .errors import Bound, Checked, ConfigError, NonNegativeInt, PositiveInt, ShapeError, TrainingError
from .files import decode_array, encode_array
from .preprocess import PreprocessConfig, as_matrix

DEFAULT_SUBSAMPLE = 256
# largest subsample a forest may draw or a model file may claim: scoring sums the
# harmonic number of the subsample term by term, which takes about 4 ms at 2**16
# and grows linearly, so an unbounded value read from a file could stall `score`
MAX_SUBSAMPLE = 2**16
SubsampleSize = Annotated[int, Bound(ge=1, le=MAX_SUBSAMPLE)]
Contamination = Annotated[float, Bound(gt=0, le=0.5)]  # the share of training scores above tau


@dataclass
class IforestConfig(Checked):
    n_trees: PositiveInt = 100
    subsample_size: SubsampleSize = DEFAULT_SUBSAMPLE
    contamination: Contamination = 0.33
    train_on: Annotated[str, Bound(choices=("all", "normals"))] = "all"  # "all" is fully unsupervised


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


TreeNode = InternalNode | LeafNode


@dataclass
class IsolationTree:
    root: TreeNode
    max_depth: int


Forest = list[IsolationTree]  # model files hold it as flat arrays: see _forest_to_json


@dataclass
class IsolationForestModel(Checked):
    """A fitted forest; scores and calibrate form the shared detector interface."""

    model_type: ClassVar[str] = "iforest"
    format_version: ClassVar[int] = 5
    config_type: ClassVar[type] = IforestConfig
    calibration_param: ClassVar[str] = "contamination"

    subsample_size: SubsampleSize
    contamination: Contamination
    feature_dim: PositiveInt
    seed: NonNegativeInt
    trees: Forest  # after the fields that _forest_from_json checks the nodes against
    tau: float | None = None
    preprocess: PreprocessConfig | None = None

    def __post_init__(self):
        if not self.trees:
            raise ConfigError("model has no trees")
        super().__post_init__()

    @classmethod
    def fit(cls, config: IforestConfig, train_core, validation, pre_validation_size: int, seed: int):
        """Grow the forest on the training core, or its normals -> (model, no trace, fit items)."""
        fit_items = train_core if config.train_on == "all" else normals_only(train_core)
        model = build_forest(
            fit_items, config.n_trees, config.subsample_size, seed, config.contamination
        )
        return model, None, fit_items

    def scores(self, samples) -> np.ndarray:
        return if_scores(self, samples)

    def calibrate(self, train_scores) -> float:
        self.tau = if_threshold(train_scores, self.contamination)
        return self.tau


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


def depth_limit(psi: int) -> int:
    """Depth at which growth stops for a subsample of psi points: ceil(log2 psi), at least 1."""
    return max(1, math.ceil(math.log2(psi))) if psi > 1 else 1


def _most_tied(x: np.ndarray) -> int:
    """The most rows of x that share one value in a column; all of them if a value is not finite.

    A node of more rows than that holds two different values in every column,
    so every feature splits it, and it need not take any column's min and max.
    """
    n = x.shape[0]
    if x.size == 0 or not np.isfinite(x).all():  # no column, or one whose min or max may not split
        return n
    ordered = np.sort(x, axis=0)
    same = ordered[1:] == ordered[:-1]
    if not same.any():
        return 1
    index = np.arange(n - 1)[:, None]
    # the last i <= index where values i and i + 1 differ: a run of equal values ends at index + 1
    last_step = np.maximum.accumulate(np.where(same, -1, index), axis=0)
    return int((index - last_step).max()) + 1


def _grow(x: np.ndarray, most_tied: int, rows: np.ndarray, depth: int, limit: int, rng: np.random.Generator):
    """The subtree of x[rows]: each split draws its feature among those whose max exceeds their min."""
    n = rows.size
    if n <= 1 or depth >= limit:
        return LeafNode(size=n, depth=depth)
    if n > most_tied:  # every feature splits, so splittable is arange(d)
        feature = int(rng.integers(0, x.shape[1]))
        column = x[rows, feature]
        lo, hi = column.min(), column.max()
    else:
        values = x[rows]
        mins = values.min(axis=0)
        maxs = values.max(axis=0)
        splittable = np.nonzero(maxs > mins)[0]
        if splittable.size == 0:  # duplicate points
            return LeafNode(size=n, depth=depth)
        feature = int(splittable[rng.integers(0, splittable.size)])
        column, lo, hi = values[:, feature], mins[feature], maxs[feature]
    while True:  # open interval keeps both children non-empty
        threshold = float(rng.uniform(lo, hi))
        if lo < threshold < hi:
            break
    goes_left = column < threshold
    return InternalNode(
        feature=feature,
        threshold=threshold,
        left=_grow(x, most_tied, rows[goes_left], depth + 1, limit, rng),
        right=_grow(x, most_tied, rows[~goes_left], depth + 1, limit, rng),
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
    limit = depth_limit(psi)
    most_tied = _most_tied(x)
    streams = np.random.SeedSequence(seed).spawn(n_trees)
    trees = []
    for stream in streams:
        rng = np.random.default_rng(stream)
        rows = rng.choice(n, size=psi, replace=False)
        trees.append(IsolationTree(root=_grow(x, most_tied, rows, 0, limit, rng), max_depth=limit))
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


# A model file stores its forest as these arrays, each the bytes of
# little-endian fixed-width values: the node count of each tree, then for each
# node (tree after tree, each in preorder) its split feature (-1 at a leaf),
# threshold, left and right child as indices within its tree, and leaf size.
# A leaf writes threshold 0.0 and children -1, a split size 0; the reader
# ignores those slots. Depths follow from the structure, and max_depth from
# subsample_size, so neither is stored.
_FOREST_ARRAYS = {
    "node_counts": "<i4",
    "feature": "<i4",
    "threshold": "<f8",
    "left": "<i4",
    "right": "<i4",
    "size": "<i4",
}


def _forest_to_json(trees: Forest) -> dict:
    """The trees as the bytes of flat arrays; the inverse of _forest_from_json."""
    counts, rows = [], []
    for tree in trees:
        tree_rows: list = []
        _preorder(tree.root, tree_rows)
        counts.append(len(tree_rows))
        rows += tree_rows
    columns = [counts, *zip(*rows)]
    return {
        name: encode_array(values, dtype)
        for (name, dtype), values in zip(_FOREST_ARRAYS.items(), columns)
    }


def _preorder(node: TreeNode, rows: list) -> int:
    """Append a (feature, threshold, left, right, size) row per node in preorder -> the node's index."""
    index = len(rows)
    if isinstance(node, LeafNode):
        rows.append((-1, 0.0, -1, -1, node.size))
    else:
        rows.append(None)  # filled in once the children have their indices
        left = _preorder(node.left, rows)
        rows[index] = (node.feature, node.threshold, left, _preorder(node.right, rows), 0)
    return index


def _forest_from_json(value, feature_dim: int, subsample_size: int) -> Forest:
    """Trees from a model file; a forest that cannot belong to the model is a ConfigError.

    The file holds the arrays of _forest_to_json. They are checked in one
    vectorised pass before any node is built, and a split is refused at
    depth_limit(subsample_size), which bounds the depth of what is built.
    """
    if type(value) is not dict or value.keys() != _FOREST_ARRAYS.keys():
        raise ConfigError(f"forest must be an object of the arrays {', '.join(_FOREST_ARRAYS)}")
    counts, feature, threshold, left, right, size = (
        decode_array(value[name], f"forest array {name}", dtype) for name, dtype in _FOREST_ARRAYS.items()
    )
    if (counts < 1).any():
        raise ConfigError(f"a tree has {counts.min()} nodes")
    n = int(counts.sum())
    lengths = sorted({a.size for a in (feature, threshold, left, right, size)})
    if lengths != [n]:
        raise ConfigError(f"node counts add up to {n}, but the node arrays hold {lengths} values")
    starts = np.cumsum(counts) - counts  # the root of each tree
    tree_of = np.repeat(np.arange(counts.size), counts)
    index = np.arange(n) - starts[tree_of]  # within its tree
    end = counts[tree_of]
    leaf = feature == -1
    split = ~leaf

    def refuse(bad, message):
        if bad.any():
            i = int(np.argmax(bad))
            raise ConfigError(f"node {index[i]} of tree {tree_of[i]}: {message(i)}")

    refuse(
        split & ((feature < 0) | (feature >= feature_dim)),
        lambda i: f"split feature {feature[i]} outside [0, {feature_dim})",
    )
    refuse(split & ~np.isfinite(threshold), lambda i: f"split threshold {threshold[i]} is not finite")
    refuse(
        leaf & ((size < 0) | (size > subsample_size)),
        lambda i: f"leaf size {size[i]} outside [0, {subsample_size}]",
    )
    refuse(
        split & ((left <= index) | (right <= index) | (left >= end) | (right >= end)),
        lambda i: f"children {left[i]} and {right[i]} are not after the node and inside its {end[i]}-node tree",
    )
    left, right = left + starts[tree_of], right + starts[tree_of]  # forest-wide
    parents = np.bincount(np.concatenate([left[split], right[split]]), minlength=n)
    refuse(parents != (index > 0), lambda i: f"{parents[i]} parents, where a root has none and other nodes one")

    # now each tree is a tree, so a walk down from the roots reaches every node once
    limit = depth_limit(subsample_size)
    depth = np.full(n, -1)
    level = starts
    for d in range(limit + 1):
        if not level.size:
            break
        depth[level] = d
        inner = level[split[level]]
        level = np.concatenate([left[inner], right[inner]])
    refuse(split & (depth == limit), lambda i: f"split at depth {limit}, the limit for {subsample_size} samples")

    features, thresholds, lefts, rights = feature.tolist(), threshold.tolist(), left.tolist(), right.tolist()
    sizes, depths = size.tolist(), depth.tolist()
    nodes: list = [None] * n
    for i in reversed(range(n)):  # children come after their parents
        nodes[i] = (
            LeafNode(sizes[i], depths[i])
            if features[i] < 0
            else InternalNode(features[i], thresholds[i], nodes[lefts[i]], nodes[rights[i]])
        )
    return [IsolationTree(nodes[start], limit) for start in starts.tolist()]
