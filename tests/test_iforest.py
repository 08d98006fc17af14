from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fetalguard.errors import ConfigError, TrainingError
from fetalguard.iforest import (
    Forest,
    InternalNode,
    IsolationForestModel,
    LeafNode,
    _forest_to_json,
    _most_tied,
    average_path_correction,
    build_forest,
    harmonic_number,
    if_scores,
    if_threshold,
)
from fetalguard.persistence import load_model, save_model
from fetalguard.preprocess import as_matrix, preprocess_collection
from fetalguard.synth import generate_dataset
from oracles import _reference_forest_arrays, reference_build_forest, reference_if_scores

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _toy_cloud(seed, n_inliers=99, distance=10.0):
    rng = np.random.default_rng(seed)
    inliers = rng.uniform(0.0, 1.0, size=(n_inliers, 2))
    outlier = np.array([[distance, distance]])
    return np.vstack([inliers, outlier])


class TestPathCorrection:
    def test_c_of_one_is_zero(self):
        assert average_path_correction(1) == 0.0

    def test_c_of_two_is_one(self):
        # 2*H(1) - 2*(1/2)
        assert average_path_correction(2) == pytest.approx(1.0)

    def test_harmonic_is_exact_sum(self):
        assert harmonic_number(4) == pytest.approx(1 + 0.5 + 1 / 3 + 0.25)


def _leaf(size):
    return (-1, 0.0, -1, -1, size)


def _forest_model(trees, psi, dim=2):
    """A model of hand-made trees, each a list of (feature, threshold, left, right, size) rows in preorder."""
    rows = [row for tree in trees for row in tree]
    columns = [[len(tree) for tree in trees], *zip(*rows)]
    arrays = [np.array(c, dtype=float if i == 2 else np.int64) for i, c in enumerate(columns)]
    return IsolationForestModel(
        trees=Forest(*arrays, feature_dim=dim, subsample_size=psi),
        subsample_size=psi,
        contamination=0.33,
        feature_dim=dim,
        seed=0,
    )


def _mean_path(model, x) -> float:
    """The mean path length behind a row's score, 2^(-mean path / c(psi))."""
    return float(-np.log2(if_scores(model, [x])[0]) * average_path_correction(model.subsample_size))


def _right_chain(last_leaf_size):
    """A tree whose row of value 0.9 goes right at three splits, to a leaf at depth 3."""
    return [
        (0, 0.5, 1, 2, 0), _leaf(1),
        (0, 0.6, 3, 4, 0), _leaf(1),
        (0, 0.7, 5, 6, 0), _leaf(1), _leaf(last_leaf_size),
    ]


class TestPathLength:
    def test_singleton_leaf_contributes_depth_only(self):
        model = _forest_model([_right_chain(1)], psi=32)
        assert _mean_path(model, [0.9, 0.0]) == pytest.approx(3.0)

    def test_unresolved_leaf_adds_correction(self):
        model = _forest_model([_right_chain(2)], psi=32)
        assert _mean_path(model, [0.9, 0.0]) == pytest.approx(4.0)

    def test_root_only_tree(self):
        model = _forest_model([[_leaf(64)]], psi=64)
        assert _mean_path(model, [0.0, 0.0]) == pytest.approx(average_path_correction(64))

    def test_routing_follows_split(self):
        model = _forest_model([[(0, 0.5, 1, 2, 0), _leaf(1), _leaf(2)]], psi=8, dim=1)
        c = average_path_correction(8)
        assert if_scores(model, [[0.2]])[0] == 2.0 ** (-1.0 / c)  # the size-1 leaf at depth 1: path 1
        assert if_scores(model, [[0.9]])[0] == 2.0 ** (-2.0 / c)  # the size-2 leaf: path 1 + c(2) = 2


class TestScore:
    def test_mean_path_equal_to_c_gives_half(self):
        # a size-psi leaf at depth 0 has path length exactly c(psi)
        psi = 128
        model = _forest_model([[_leaf(psi)]], psi=psi)
        assert if_scores(model, [np.zeros(2)])[0] == pytest.approx(0.5)

    def test_mean_path_of_twice_c_gives_quarter(self):
        # the deepest leaf of a valid tree is shallower than c(psi) for psi above 2, so psi is 2
        psi = 2
        c = average_path_correction(psi)
        depth = int(round(c))
        model = _forest_model([[(0, 0.5, 1, 2, 0), _leaf(psi), _leaf(1)]], psi=psi)
        expected = 2.0 ** (-(depth + c) / c)
        assert if_scores(model, [np.zeros(2)])[0] == pytest.approx(expected)
        assert expected == pytest.approx(0.25, abs=0.02)

    def test_score_approaches_one_as_path_shrinks(self):
        psi = 128
        model = _forest_model([[_leaf(1)]], psi=psi)
        assert if_scores(model, [np.zeros(2)])[0] == pytest.approx(1.0)

    def test_scores_lie_in_unit_interval(self):
        data = _toy_cloud(0)
        model = build_forest(data, n_trees=25, seed=0)
        scores = if_scores(model, data)
        assert ((scores > 0.0) & (scores < 1.0)).all()


    @pytest.mark.parametrize(
        "row", [[np.nan] * 4, [np.nan, 0.5, 0.5, 0.5], [np.inf, 0.5, 0.5, 0.5]]
    )
    def test_non_finite_feature_scores_nan(self, row):
        data = np.random.default_rng(0).uniform(size=(50, 4))
        model = build_forest(data, n_trees=25, seed=0)
        assert np.isnan(if_scores(model, np.array([row]))[0])

    def test_batch_scores_equal_the_per_sample_tree_walk_bit_for_bit(self):
        rng = np.random.default_rng(3)
        data = rng.normal(size=(300, 6))
        model = build_forest(data, n_trees=40, subsample_size=128, seed=3)
        queries = np.vstack([rng.normal(size=(60, 6)) * 2.0, data[:20]])
        queries[[5, 40], [0, 3]] = [np.nan, np.inf]
        scores = if_scores(model, queries)
        expected = reference_if_scores(model, queries)
        assert np.isnan(scores[[5, 40]]).all()
        assert scores.tobytes() == expected.tobytes()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 80),
    dim=st.integers(1, 4),
    levels=st.sampled_from([None, 1, 2, 5]),  # one level: duplicate points, so single-leaf trees
    subsample_size=st.integers(1, 64),
    n_trees=st.integers(1, 8),
    n_queries=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=40, dim=3, levels=None, subsample_size=1, n_trees=4, n_queries=6, seed=0)  # psi = 1
@example(n=30, dim=2, levels=1, subsample_size=16, n_trees=3, n_queries=1, seed=1)  # one row, one leaf a tree
def test_scores_equal_the_reference_walk_bit_for_bit_in_any_batch(
    n, dim, levels, subsample_size, n_trees, n_queries, seed
):
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(n, dim)) if levels is None else rng.integers(0, levels, size=(n, dim)) * 1.0
    model = build_forest(data, n_trees=n_trees, subsample_size=subsample_size, seed=seed)
    queries = np.vstack([rng.normal(size=(n_queries, dim)) * 2.0, data[:n_queries]])
    poisoned = rng.random(queries.shape) < 0.05
    queries[poisoned] = rng.choice([np.nan, np.inf, -np.inf], size=int(poisoned.sum()))
    scores = if_scores(model, queries)
    assert scores.tobytes() == reference_if_scores(model, queries).tobytes()
    for i, row in enumerate(queries):  # as `score` scores a recording: a batch of one
        assert if_scores(model, row[None, :]).tobytes() == scores[i : i + 1].tobytes()


def _count_nodes_made(monkeypatch) -> list:
    """A list that gets one item per LeafNode or InternalNode made from now on."""
    made = []
    for cls in (LeafNode, InternalNode):

        def counted(node, *args, original=cls.__init__, **kwargs):
            made.append(type(node))
            original(node, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    return made


class TestArrays:
    """A forest is its arrays: a build, a load and a score make no node, and the node view is exact."""

    def test_load_and_score_make_no_node(self, tmp_path, monkeypatch):
        data = _toy_cloud(5)
        made = _count_nodes_made(monkeypatch)
        model = build_forest(data, n_trees=30, seed=5)
        model.tau = 0.6
        save_model(model, tmp_path / "model.json")
        loaded = load_model(tmp_path / "model.json")
        scores = if_scores(loaded, data)
        assert made == []
        assert scores.tobytes() == if_scores(model, data).tobytes()
        list(loaded.trees)  # the view does make nodes, so the count would see them
        assert len(made) == loaded.trees.node_counts.sum()

    def test_leaves_of_many_sizes_are_corrected_only_where_a_row_lands(self, tmp_path):
        """A file may claim a leaf of each size up to 2**16; c(m) is O(m), so a load must look none up."""
        psi, depth = 2**16, 8
        sizes = iter(np.random.default_rng(0).choice(np.arange(2, psi), size=3 * 2**depth, replace=False).tolist())

        def shifted(rows, by):
            return [(f, t, l + by, r + by, m) if f >= 0 else (f, t, l, r, m) for f, t, l, r, m in rows]

        def complete(levels):  # preorder rows of a complete tree of that many split levels
            if levels == 0:
                return [_leaf(next(sizes))]
            left, right = complete(levels - 1), complete(levels - 1)
            return [(0, 0.0, 1, 1 + len(left), 0), *shifted(left, 1), *shifted(right, 1 + len(left))]

        trees = [[_leaf(psi)], *(complete(depth) for _ in range(3))]  # a root leaf of the whole subsample first
        model = _forest_model(trees, psi=psi, dim=1)
        model.tau = 0.5
        save_model(model, tmp_path / "model.json")
        average_path_correction.cache_clear()  # making the model above ran the same checks: count from here
        loaded = load_model(tmp_path / "model.json")
        scores = if_scores(loaded, [[0.25]])
        assert average_path_correction.cache_info().currsize <= len(trees)
        assert np.unique(loaded.trees.size).size > 3 * 2**depth
        assert scores.tobytes() == reference_if_scores(loaded, [[0.25]]).tobytes()

    def test_the_node_view_of_a_loaded_forest_is_the_grown_forest(self, tmp_path):
        rng = np.random.default_rng(9)
        data = np.vstack([rng.normal(size=(150, 5)), np.repeat(rng.normal(size=(3, 5)), 20, axis=0)])
        model = build_forest(data, n_trees=25, subsample_size=64, seed=9)
        model.tau = 0.5
        save_model(model, tmp_path / "model.json")
        loaded = load_model(tmp_path / "model.json")
        grown = reference_build_forest(data, n_trees=25, subsample_size=64, seed=9).trees
        assert list(loaded.trees) == list(model.trees) == grown
        spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        assert tracing._forest_nodes(loaded) == loaded.trees.node_counts.sum() == model.trees.node_counts.sum()


class TestBuildForest:
    def test_tree_count_matches_request(self):
        model = build_forest(_toy_cloud(1), n_trees=100, seed=1)
        assert len(model.trees) == 100

    def test_single_point_dataset_gives_leaf_trees(self):
        model = build_forest(np.array([[1.0, 2.0]]), n_trees=5, seed=0)
        assert all(isinstance(t.root, LeafNode) for t in model.trees)
        assert if_scores(model, [np.array([1.0, 2.0])])[0] == 0.5

    def test_constant_dataset_terminates_at_duplicates(self):
        data = np.ones((32, 3))
        model = build_forest(data, n_trees=5, seed=0)
        for tree in model.trees:
            assert isinstance(tree.root, LeafNode)
            assert tree.root.size == 32

    def test_leaf_depth_bounded_by_max_depth(self):
        data = _toy_cloud(4)
        model = build_forest(data, n_trees=20, seed=4, subsample_size=64)

        def walk(node, tree):
            if isinstance(node, LeafNode):
                assert node.depth <= tree.max_depth
            else:
                walk(node.left, tree)
                walk(node.right, tree)

        for tree in model.trees:
            walk(tree.root, tree)

    def test_determinism_per_seed(self):
        data = _toy_cloud(7)
        a = build_forest(data, n_trees=10, seed=3)
        b = build_forest(data, n_trees=10, seed=3)
        x = np.array([[0.4, 0.6]])
        assert if_scores(a, x).tobytes() == if_scores(b, x).tobytes()

    def test_nonpositive_tree_count_rejected(self):
        with pytest.raises(ConfigError):
            build_forest(_toy_cloud(0), n_trees=0, seed=0)

    def test_subsample_clamped_to_dataset_size(self):
        model = build_forest(_toy_cloud(2), n_trees=5, seed=0, subsample_size=500)
        assert model.subsample_size == 100


@pytest.fixture(scope="module")
def features():
    """496 x 480 features of a synthetic corpus: the training rows of a 552-record run."""
    return as_matrix(preprocess_collection(generate_dataset(330, 166, seed=3)).features)


def _outcome(build, data, **kwargs):
    """A forest's file arrays, or the error its build ends in."""
    try:
        model = build(data, **kwargs)
    except Exception as exc:  # the oracle's errors are numpy's and the library's alike
        return type(exc), str(exc)
    trees = model.trees  # the oracle's are a list of node trees
    return _forest_to_json(trees) if isinstance(trees, Forest) else _reference_forest_arrays(trees)


class TestBuildMatchesReference:
    """A node that reads only its split column grows the tree of one that takes every column's min and max."""

    def _assert_same(self, data, **kwargs):
        expected = _outcome(reference_build_forest, data, **kwargs)
        assert _outcome(build_forest, data, **kwargs) == expected
        return expected

    def test_synthetic_features(self, features):
        assert isinstance(self._assert_same(features, seed=3), dict)

    def test_features_rounded_so_that_they_tie(self, features):
        self._assert_same(np.round(features, 1), n_trees=20, seed=1)

    def test_a_constant_column(self, features):
        data = features[:, :40].copy()
        data[:, 7] = 0.5
        self._assert_same(data, n_trees=20, seed=2)

    def test_duplicate_rows_end_in_duplicate_point_leaves(self, features):
        data = np.repeat(features[:24, :6], 12, axis=0)
        assert isinstance(self._assert_same(data, n_trees=20, seed=4), dict)
        leaves = [size for tree in build_forest(data, n_trees=20, seed=4).trees for size in _leaf_sizes(tree.root)]
        assert max(leaves) > 1

    def test_a_nan_column(self, features):
        data = features[:, :40].copy()
        data[::5, 3] = np.nan
        self._assert_same(data, n_trees=20, seed=5)

    def test_an_inf_column(self, features):
        data = features[:, :3].copy()
        data[::9, 1] = np.inf
        self._assert_same(data, n_trees=20, seed=6)

    def test_one_row(self, features):
        self._assert_same(features[:1], n_trees=5, seed=7)

    def test_a_subsample_clamped_to_the_data(self, features):
        self._assert_same(features[:100], n_trees=20, subsample_size=256, seed=8)

    def test_no_column(self):
        self._assert_same(np.empty((6, 0)), n_trees=3, seed=9)


@pytest.mark.parametrize(
    "columns, expected",
    [
        ([[3.0, 1.0, 2.0]], 1),
        ([[3.0, 1.0, 2.0, 2.0, 2.0, 4.0], [1.0, 1.0, 0.0, 5.0, 6.0, 7.0]], 3),  # the longest run is inside
        ([[0.0, -0.0, 1.0, 2.0]], 2),  # equal, though their bits differ
        ([[1.0, 2.0, 3.0], [4.0, np.nan, 5.0]], 3),  # a value that is not finite: every row
        ([[7.0]], 1),
    ],
)
def test_most_tied_is_the_most_rows_sharing_a_value_in_a_column(columns, expected):
    assert _most_tied(np.array(columns).T) == expected


def _leaf_sizes(node):
    if isinstance(node, LeafNode):
        return [node.size]
    return _leaf_sizes(node.left) + _leaf_sizes(node.right)


class TestThreshold:
    def test_identical_scores_flag_nothing(self):
        threshold = if_threshold([0.1] * 8, contamination=0.33)
        assert threshold == pytest.approx(0.1)
        assert sum(1 for s in [0.1] * 8 if s > threshold) == 0

    def test_quantile_matches_sort_oracle(self):
        rng = np.random.default_rng(6)
        scores = rng.uniform(0, 1, size=100)
        threshold = if_threshold(scores, contamination=0.33)
        flagged = (scores > threshold).sum()
        assert 30 <= flagged <= 33
        assert threshold == pytest.approx(float(np.quantile(scores, 0.67)))

    def test_out_of_range_contamination_rejected(self):
        for c in (0.0, 0.6, -0.1, 1.0):
            with pytest.raises(ConfigError):
                if_threshold([0.5, 0.6], contamination=c)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_training_score_is_refused(self, bad):
        with pytest.raises(TrainingError):
            if_threshold([0.5, bad, 0.6], contamination=0.33)


class TestOutlierToy:
    def test_far_point_gets_top_score_in_most_runs(self):
        wins = 0
        for seed in range(30):
            data = _toy_cloud(seed)
            model = build_forest(data, n_trees=100, seed=seed)
            scores = if_scores(model, data)
            if int(np.argmax(scores)) == 99:
                wins += 1
                assert scores[99] > 0.6
                assert scores[:99].mean() < 0.55
        assert wins >= 29

    def test_permuting_rows_preserves_detection(self):
        data = _toy_cloud(12)
        rng = np.random.default_rng(0)
        perm = rng.permutation(100)
        model = build_forest(data[perm], n_trees=100, seed=12)
        scores = if_scores(model, data)
        assert int(np.argmax(scores)) == 99


def test_model_roundtrip_preserves_scores(tmp_path):
    data = _toy_cloud(3)
    model = build_forest(data, n_trees=10, seed=3)
    model.tau = 0.61
    save_model(model, tmp_path / "model.json")
    restored = load_model(tmp_path / "model.json")
    x = np.array([[0.3, 0.3]])
    assert restored.tau == 0.61
    assert if_scores(restored, x).tobytes() == if_scores(model, x).tobytes()

