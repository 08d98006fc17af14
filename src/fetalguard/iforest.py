"""Isolation Forest anomaly detector.

Each tree is grown on an independent subsample by recursive random splits:
uniformly random feature, uniform threshold between that feature's min and max
within the node. Samples that isolate on short paths score as anomalies.

Each tree grows straight into flat preorder arrays (``Forest``), the arrays a
model file stores, so neither a build nor a load makes a node object, and
scoring walks a whole batch down every tree at once.
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


# Only Forest.__iter__ builds these, for bench/tracer.py and the test oracles; ROADMAP item 1 frees their removal.
@dataclass
class LeafNode:
    size: int
    depth: int


@dataclass
class InternalNode:
    feature: int
    threshold: float
    left: InternalNode | LeafNode
    right: InternalNode | LeafNode


@dataclass
class IsolationTree:
    root: InternalNode | LeafNode
    max_depth: int


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
    trees: Forest  # after the fields that _forest_from_json checks the arrays against
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


@functools.cache  # scoring asks for it at each leaf size a batch reaches; m is at most the subsample size
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


def _grow(
    x: np.ndarray, most_tied: int, rows: np.ndarray, depth: int, limit: int, rng: np.random.Generator, nodes: list
) -> int:
    """Append the subtree of x[rows] to nodes in preorder -> the index of its root.

    Each node is a (feature, threshold, left, right, size) row, as _FOREST_ARRAYS
    stores it; each split draws its feature among those whose max exceeds their min.
    """
    index = len(nodes)
    nodes.append((-1, 0.0, -1, -1, rows.size))  # a leaf, unless the node splits below
    if rows.size <= 1 or depth >= limit:
        return index
    if rows.size > most_tied:  # every feature splits, so splittable is arange(d)
        feature = int(rng.integers(0, x.shape[1]))
        column = x[rows, feature]
        lo, hi = column.min(), column.max()
    else:
        values = x[rows]
        mins = values.min(axis=0)
        maxs = values.max(axis=0)
        splittable = np.nonzero(maxs > mins)[0]
        if splittable.size == 0:  # duplicate points
            return index
        feature = int(splittable[rng.integers(0, splittable.size)])
        column, lo, hi = values[:, feature], mins[feature], maxs[feature]
    while True:  # open interval keeps both children non-empty
        threshold = float(rng.uniform(lo, hi))
        if lo < threshold < hi:
            break
    goes_left = column < threshold
    left = _grow(x, most_tied, rows[goes_left], depth + 1, limit, rng, nodes)
    right = _grow(x, most_tied, rows[~goes_left], depth + 1, limit, rng, nodes)
    nodes[index] = (feature, threshold, left, right, 0)
    return index


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
    counts, nodes = [], []
    for stream in streams:
        rng = np.random.default_rng(stream)
        rows = rng.choice(n, size=psi, replace=False)
        tree: list = []  # children are indices within their tree
        _grow(x, most_tied, rows, 0, limit, rng, tree)
        counts.append(len(tree))
        nodes += tree
    columns = zip(_FOREST_ARRAYS, [counts, *zip(*nodes)])
    arrays = (np.array(values, dtype=float if name == "threshold" else np.int64) for name, values in columns)
    return IsolationForestModel(
        trees=Forest(*arrays, feature_dim=x.shape[1], subsample_size=psi),
        subsample_size=psi,
        contamination=contamination,
        feature_dim=x.shape[1],
        seed=seed,
    )


def if_scores(model: IsolationForestModel, data) -> np.ndarray:
    """Anomaly scores 2^(-mean path length / c(psi)) in (0, 1); higher = more anomalous.

    A path is the depth of the leaf a row reaches plus c(leaf size). The paths
    are added tree by tree, in tree order, so a row's score does not depend on
    the batch it is in. A row with a non-finite feature scores NaN, which
    ``classify`` judges abnormal.
    """
    x = as_matrix(data)
    if x.shape[1] != model.feature_dim:
        raise ShapeError(f"expected vector of dim {model.feature_dim}, got shape {x.shape[1:]}")
    forest = model.trees
    leaves = forest.leaves(x)
    sizes = forest.size[leaves]
    correction = np.zeros(sizes.max() + 1)
    for m in np.flatnonzero(np.bincount(sizes.ravel())).tolist():  # only the sizes reached
        correction[m] = average_path_correction(m)
    paths = forest.depth[leaves] + correction[sizes]
    total = np.cumsum(paths, axis=0)[-1]  # one tree after another, as a loop adds them
    denom = average_path_correction(model.subsample_size)
    n_trees = len(forest)
    return np.array([
        float("nan") if not finite  # a NaN fails every split test and would walk right
        else 0.5 if denom == 0.0  # single-sample forest carries no isolating information
        else 2.0 ** (-(path / n_trees) / denom)
        for path, finite in zip(total.tolist(), np.isfinite(x).all(axis=1).tolist())
    ])


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


class Forest:
    """A forest as the arrays of _FOREST_ARRAYS, int64 and float64, and what scoring reads.

    That is each tree's root, as an index into the forest; every node's depth;
    and the node a walk goes to from each node when the row's value is below
    its threshold (to_left) or not (to_right), a leaf going to itself. Making
    one checks the arrays in one vectorised pass: arrays that cannot be the
    trees of a model of feature_dim features fit on subsample_size samples are
    a ConfigError naming the first bad node. A split is refused at
    depth_limit(subsample_size), max_depth, which bounds every walk.
    """

    def __init__(self, node_counts, feature, threshold, left, right, size, feature_dim: int, subsample_size: int):
        counts = node_counts  # one per tree
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
        to_left, to_right = left + starts[tree_of], right + starts[tree_of]  # forest-wide
        parents = np.bincount(np.concatenate([to_left[split], to_right[split]]), minlength=n)
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
            level = np.concatenate([to_left[inner], to_right[inner]])
        refuse(split & (depth == limit), lambda i: f"split at depth {limit}, the limit for {subsample_size} samples")

        self.node_counts, self.feature, self.threshold = node_counts, feature, threshold
        self.left, self.right, self.size = left, right, size
        self.max_depth, self.roots, self.depth = limit, starts, depth
        self.to_left = np.where(leaf, np.arange(n), to_left)
        self.to_right = np.where(leaf, np.arange(n), to_right)

    def __len__(self) -> int:
        return self.node_counts.size

    def __eq__(self, other) -> bool:
        return isinstance(other, Forest) and self.max_depth == other.max_depth and all(
            np.array_equal(getattr(self, name), getattr(other, name)) for name in _FOREST_ARRAYS
        )

    def __iter__(self):
        """Each tree as an IsolationTree of LeafNode and InternalNode objects, built on demand."""
        features, thresholds, sizes = self.feature.tolist(), self.threshold.tolist(), self.size.tolist()
        lefts, rights, depths = self.to_left.tolist(), self.to_right.tolist(), self.depth.tolist()
        nodes: list = [None] * len(features)
        for i in reversed(range(len(features))):  # children come after their parents
            nodes[i] = (
                LeafNode(sizes[i], depths[i])
                if features[i] < 0
                else InternalNode(features[i], thresholds[i], nodes[lefts[i]], nodes[rights[i]])
            )
        return (IsolationTree(nodes[start], self.max_depth) for start in self.roots.tolist())

    def leaves(self, x: np.ndarray) -> np.ndarray:
        """The leaf each row of x reaches in each tree: a (trees, rows) array of forest indices.

        The whole batch goes down every tree at once, one level a step, and a
        walk that has reached its leaf stays there, so max_depth steps end them all.
        """
        node = np.repeat(self.roots[:, None], x.shape[0], axis=1)
        row = np.arange(x.shape[0])
        for _ in range(self.max_depth):
            below = x[row, self.feature[node]] < self.threshold[node]  # a leaf's feature -1 reads a column it ignores
            node = np.where(below, self.to_left[node], self.to_right[node])
        return node


def _forest_to_json(forest: Forest) -> dict:
    """The forest's arrays as bytes; the inverse of _forest_from_json."""
    return {name: encode_array(getattr(forest, name), dtype) for name, dtype in _FOREST_ARRAYS.items()}


def _forest_from_json(value, feature_dim: int, subsample_size: int) -> Forest:
    """The Forest of a model file's arrays; Forest refuses arrays that cannot belong to the model."""
    if type(value) is not dict or value.keys() != _FOREST_ARRAYS.keys():
        raise ConfigError(f"forest must be an object of the arrays {', '.join(_FOREST_ARRAYS)}")
    arrays = (decode_array(value[name], f"forest array {name}", dtype) for name, dtype in _FOREST_ARRAYS.items())
    return Forest(*arrays, feature_dim=feature_dim, subsample_size=subsample_size)
