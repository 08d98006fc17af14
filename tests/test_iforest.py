from __future__ import annotations

import numpy as np
import pytest

from fetalguard.errors import ConfigError, TrainingError
from fetalguard.iforest import (
    InternalNode,
    IsolationTree,
    LeafNode,
    _forest_to_json,
    _most_tied,
    average_path_correction,
    build_forest,
    depth_limit,
    harmonic_number,
    if_score,
    if_scores,
    if_threshold,
    path_length,
)
from fetalguard.persistence import load_model, save_model
from fetalguard.preprocess import as_matrix, preprocess_collection
from fetalguard.synth import generate_dataset
from oracles import reference_build_forest, reference_if_scores


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


class TestPathLength:
    def test_singleton_leaf_contributes_depth_only(self):
        tree = IsolationTree(root=LeafNode(size=1, depth=3), max_depth=5)
        assert path_length(tree, np.zeros(2)) == pytest.approx(3.0)

    def test_unresolved_leaf_adds_correction(self):
        tree = IsolationTree(root=LeafNode(size=2, depth=3), max_depth=5)
        assert path_length(tree, np.zeros(2)) == pytest.approx(4.0)

    def test_root_only_tree(self):
        tree = IsolationTree(root=LeafNode(size=64, depth=0), max_depth=6)
        assert path_length(tree, np.zeros(2)) == pytest.approx(average_path_correction(64))

    def test_routing_follows_split(self):
        tree = IsolationTree(
            root=InternalNode(
                feature=0,
                threshold=0.5,
                left=LeafNode(size=1, depth=1),
                right=LeafNode(size=1, depth=1),
            ),
            max_depth=3,
        )
        assert path_length(tree, np.array([0.2])) == 1.0
        assert path_length(tree, np.array([0.9])) == 1.0


class TestScore:
    def _leaf_model(self, leaf_size, leaf_depth, psi):
        from fetalguard.iforest import IsolationForestModel

        return IsolationForestModel(
            trees=[IsolationTree(root=LeafNode(size=leaf_size, depth=leaf_depth), max_depth=depth_limit(psi))],
            subsample_size=psi,
            contamination=0.33,
            feature_dim=2,
            seed=0,
        )

    def test_mean_path_equal_to_c_gives_half(self):
        # a size-psi leaf at depth 0 has path length exactly c(psi)
        psi = 128
        model = self._leaf_model(leaf_size=psi, leaf_depth=0, psi=psi)
        assert if_score(model, np.zeros(2)) == pytest.approx(0.5)

    def test_mean_path_of_twice_c_gives_quarter(self):
        psi = 128
        c = average_path_correction(psi)
        depth = int(round(c))
        model = self._leaf_model(leaf_size=psi, leaf_depth=depth, psi=psi)
        expected = 2.0 ** (-(depth + c) / c)
        assert if_score(model, np.zeros(2)) == pytest.approx(expected)
        assert expected == pytest.approx(0.25, abs=0.02)

    def test_score_approaches_one_as_path_shrinks(self):
        psi = 128
        model = self._leaf_model(leaf_size=1, leaf_depth=0, psi=psi)
        assert if_score(model, np.zeros(2)) == pytest.approx(1.0)

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


class TestBuildForest:
    def test_tree_count_matches_request(self):
        model = build_forest(_toy_cloud(1), n_trees=100, seed=1)
        assert len(model.trees) == 100

    def test_single_point_dataset_gives_leaf_trees(self):
        model = build_forest(np.array([[1.0, 2.0]]), n_trees=5, seed=0)
        assert all(isinstance(t.root, LeafNode) for t in model.trees)
        assert if_score(model, np.array([1.0, 2.0])) == 0.5

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
        x = np.array([0.4, 0.6])
        assert if_score(a, x) == if_score(b, x)

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
        return _forest_to_json(build(data, **kwargs).trees)
    except Exception as exc:  # the oracle's errors are numpy's and the library's alike
        return type(exc), str(exc)


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
    x = np.array([0.3, 0.3])
    assert restored.tau == 0.61
    assert if_score(restored, x) == if_score(model, x)

