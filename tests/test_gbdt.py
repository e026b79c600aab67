"""Boosted trees: split identities, stump oracle, growth rules, serialization."""
from __future__ import annotations

import hashlib
import inspect
import math
import re
import struct
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ransomwatch import gbdt as gbdt_mod
from ransomwatch.gbdt import (
    BoostParams,
    BoostedForest,
    CorruptModel,
    NoValidSplit,
    SingleClass,
    WidthMismatch,
    best_split,
    fit,
    grow_tree,
)
from ransomwatch.features import BadDim

from oracles import split_sse_decomposed, split_sse_direct


def test_best_split_simple():
    X = np.array([[1.0], [2.0], [3.0], [4.0]])
    y = np.array([0.0, 0.0, 1.0, 1.0])
    split = best_split(X, y)
    assert split.feature == 0 and split.threshold == 2.5
    # brute force over all midpoints
    best = min(split_sse_direct(X[:, 0], y, t) for t in (1.5, 2.5, 3.5))
    assert split_sse_direct(X[:, 0], y, split.threshold) == pytest.approx(best)


def test_best_split_constant_labels_zero_gain():
    X = np.array([[1.0], [2.0], [3.0]])
    y = np.zeros(3)
    assert best_split(X, y).gain == pytest.approx(0.0)


def test_best_split_identical_rows_raises():
    X = np.ones((5, 3))
    y = np.array([0.0, 1.0, 0.0, 1.0, 0.0])
    with pytest.raises(NoValidSplit):
        best_split(X, y)


def test_best_split_tie_breaks_to_lower_feature_and_threshold():
    # two identical columns: same gain everywhere, lower feature index wins
    col = np.array([1.0, 2.0, 3.0, 4.0])
    X = np.stack([col, col], axis=1)
    y = np.array([0.0, 1.0, 0.0, 1.0])
    split = best_split(X, y)
    assert split.feature == 0


def test_direct_and_decomposed_objectives_agree():
    rng = np.random.default_rng(42)
    for _ in range(200):
        m = int(rng.integers(2, 60))
        values = rng.normal(size=m)
        response = rng.normal(size=m)
        order = np.sort(np.unique(values))
        if len(order) < 2:
            continue
        for threshold in (order[:-1] + order[1:]) / 2:
            direct = split_sse_direct(values, response, threshold)
            fast = split_sse_decomposed(values, response, threshold)
            assert math.isclose(direct, fast, rel_tol=0, abs_tol=1e-9)


def test_both_objectives_refuse_a_split_with_an_empty_side():
    values = np.array([1.0, 2.0, 3.0])
    response = np.array([0.0, 1.0, 1.0])
    for threshold in (0.5, 3.0, 9.0):  # every row on one side
        assert split_sse_direct(values, response, threshold) == math.inf
        assert split_sse_decomposed(values, response, threshold) == math.inf
    assert split_sse_direct(values, response, 1.5) == split_sse_decomposed(values, response, 1.5) == 0.0


def test_best_split_respects_min_leaf():
    X = np.arange(10, dtype=np.float64).reshape(-1, 1)
    y = (X[:, 0] >= 9).astype(np.float64)  # best unrestricted split isolates one row
    split = best_split(X, y, min_leaf=3)
    left = int((X[:, 0] <= split.threshold).sum())
    assert 3 <= left <= 7


def test_grow_tree_pure_labels_single_leaf():
    X = np.array([[0.0], [1.0], [2.0]])
    grad = np.full(3, -1.0)  # all residuals equal
    hess = np.ones(3)
    (features, values, lefts, rights), weights = grow_tree(X, grad, hess, BoostParams(min_leaf=1, lambda_=0.0))
    assert features.tolist() == [-1]
    assert values[0] == pytest.approx(1.0)  # mean residual
    assert weights.tolist() == [values[0]] * 3


def test_grow_tree_empty_feature_set_majority_leaf():
    X = np.array([[0.0], [1.0], [2.0]])
    grad = np.array([-1.0, -1.0, 0.0])
    hess = np.ones(3)
    (features, values, lefts, rights), weights = grow_tree(X[:, :0], grad, hess, BoostParams(min_leaf=1, lambda_=0.0))
    assert features.tolist() == [-1]
    assert values[0] == pytest.approx(2.0 / 3.0)
    assert weights.tolist() == [values[0]] * 3


def test_grow_tree_fits_xor_at_depth_two():
    X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    y = np.array([0.0, 1.0, 1.0, 0.0])
    residuals = y - 0.5
    # the root split of XOR has exactly zero gain, so gain pruning must be
    # disabled (gamma below zero) for the fit to proceed
    tree, weights = grow_tree(X, -residuals, np.ones(4), BoostParams(min_leaf=1, max_depth=2, gamma=-1.0, lambda_=0.0))
    features, values, lefts, rights = tree
    assert features[0] >= 0
    assert np.allclose(weights, residuals)
    assert sorted(values[features < 0]) == pytest.approx([-0.5, -0.5, 0.5, 0.5])


def test_grow_tree_gamma_prunes_weak_splits():
    X = np.array([[1.0], [2.0], [3.0], [4.0]])
    grad = -np.array([0.0, 0.01, 0.0, 0.01])
    (features, values, lefts, rights), _ = grow_tree(X, grad, np.ones(4), BoostParams(min_leaf=1, gamma=1.0, lambda_=0.0))
    assert features.tolist() == [-1]


def test_grow_tree_respects_max_depth():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(64, 3))
    grad = -rng.normal(size=64)
    (features, values, lefts, rights), _ = grow_tree(X, grad, np.ones(64), BoostParams(min_leaf=1, max_depth=2, lambda_=0.0))

    def depth(slot):
        return 0 if features[slot] < 0 else 1 + max(depth(lefts[slot]), depth(rights[slot]))

    assert depth(0) <= 2


def _reference_grow(X, grad, hess, params):
    """Grow a tree of nested nodes, then lay it out in preorder; also the
    weight of the leaf each row lands in.

    A leaf is (weight,) and an internal node (feature, threshold, left, right).
    This is the two-step form that grow_tree writes in one pass.
    """
    weights = [None] * X.shape[0]

    def leaf(idx):
        g, h = float(grad[idx].sum()), float(hess[idx].sum())
        weight = -g / (h + params.lambda_)
        for i in idx.tolist():
            weights[i] = weight
        return (weight,)

    def build(idx, depth):
        response = -grad[idx]
        if float(response.max()) == float(response.min()):
            return leaf(idx)
        if depth >= params.max_depth or X.shape[1] == 0:
            return leaf(idx)
        try:
            split = best_split(X[idx], response, params.min_leaf)
        except NoValidSplit:
            return leaf(idx)
        if split.gain <= params.gamma:
            return leaf(idx)
        mask = X[idx, split.feature] <= split.threshold
        return (split.feature, split.threshold, build(idx[mask], depth + 1), build(idx[~mask], depth + 1))

    rows = []  # [feature, value, left, right] per slot

    def visit(node):
        slot = len(rows)
        rows.append([-1, node[0], -1, -1] if len(node) == 1 else [node[0], node[1], -1, -1])
        if len(node) == 4:
            rows[slot][2] = visit(node[2])
            rows[slot][3] = visit(node[3])
        return slot

    visit(build(np.arange(X.shape[0]), 0))
    columns = list(zip(*rows))
    return tuple(np.asarray(c, dtype=t) for c, t in zip(columns, (np.int32, np.float64, np.int32, np.int32))), weights


def test_grow_tree_matches_node_grower_and_round_trips():
    rng = np.random.default_rng(808)
    shapes = set()
    for _ in range(200):
        m, n = int(rng.integers(1, 40)), int(rng.integers(1, 5))
        X = rng.integers(0, 4, size=(m, n)).astype(np.float64)  # few values, so ties
        X[:, rng.random(n) < 0.5] = rng.normal(size=(m, 1)).round(2)
        X[:, rng.random(n) < 0.25] = 1.5  # constant columns
        # few distinct gradients, so pure nodes and zero-gain splits occur
        grad = rng.integers(-1, 2, size=m).astype(np.float64) if rng.random() < 0.5 else rng.normal(size=m)
        hess = np.ones(m) if rng.random() < 0.5 else rng.uniform(0.05, 1.0, size=m)
        params = BoostParams(
            max_depth=int(rng.integers(1, 5)),
            min_leaf=int(rng.integers(1, 6)),
            gamma=float(rng.choice([-1.0, 0.0, 0.5])),
            lambda_=float(rng.choice([0.0, 1.0])),
        )
        subset = rng.permutation(n)[: int(rng.integers(1, n + 1))]
        X = (X, X[:, subset], X[:, :0])[int(rng.integers(0, 3))]  # every column, some, or none
        got, weights = grow_tree(X, grad, hess, params)
        want, want_weights = _reference_grow(X, grad, hess, params)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype
            assert a.tolist() == b.tolist()
        assert weights.dtype == np.float64 and weights.tolist() == want_weights
        shapes.add(len(got[0]))
        forest = BoostedForest((got,), 0.1, params.gamma, params.lambda_, base_score=0.0, n_features=X.shape[1])
        for a, b in zip(BoostedForest.from_bytes(forest.to_bytes()).trees[0], got):
            assert a.dtype == b.dtype
            assert a.tolist() == b.tolist()
    assert 1 in shapes and max(shapes) >= 7  # single leaves and trees of depth 3 or more both occur


def test_depth_one_tree_equals_brute_force_stump():
    rng = np.random.default_rng(7)
    for _ in range(100):
        m = int(rng.integers(4, 40))
        X = rng.normal(size=(m, 3)).round(2)
        y = rng.normal(size=m)
        _, weights = grow_tree(X, -y, np.ones(m), BoostParams(min_leaf=1, max_depth=1, gamma=-1.0, lambda_=0.0))
        got = float(((weights - y) ** 2).sum())
        # brute force over every (feature, midpoint) pair
        best = float(((y - y.mean()) ** 2).sum())
        for j in range(3):
            values = np.unique(X[:, j])
            for threshold in (values[:-1] + values[1:]) / 2:
                best = min(best, split_sse_direct(X[:, j], y, threshold))
        assert got == pytest.approx(best, abs=1e-9)


def _leaf_slots(tree, X):
    """The slot of the leaf that each row of X reaches, as a one-tree
    BoostedForest.predict_row walks the tree: each leaf's weight is replaced by
    minus its slot, so the probability names the leaf."""
    features, values, lefts, rights = tree
    slots = np.arange(len(features))
    marked = (features, np.where(features < 0, -slots, values), lefts, rights)
    forest = BoostedForest((marked,), eta=1.0, gamma=0.0, lambda_=0.0, base_score=0.0, n_features=X.shape[1])
    slot_of = {float(gbdt_mod._sigmoid(-slot)): slot for slot in slots[features < 0].tolist()}
    return np.array([slot_of[forest.predict_row(row)] for row in X], dtype=np.int64)


# Few distinct values, so rows tie, mixed with arbitrary ones. Between two
# adjacent floats (1.0 and the next one up, 0.0 and the least subnormal) no
# midpoint exists, so best_split takes the lower value as the threshold and
# rows equal to it must route left in the grower as in the walk.
_tied = st.sampled_from([-2.0, -0.5, 0.0, 5e-324, 1.0, math.nextafter(1.0, 2.0), 3.5]) | st.floats(-1e3, 1e3)
_boost_params = st.builds(
    BoostParams,
    max_depth=st.integers(1, 5),
    min_leaf=st.integers(1, 6),
    gamma=st.sampled_from([-1.0, 0.0, 0.5]) | st.floats(-1.0, 1.0),
    lambda_=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 2.0),
)


@settings(max_examples=200, deadline=None)
@given(st.data(), _boost_params)
def test_grow_tree_weights_are_the_leaves_predict_row_reaches(data, params):
    m, n = data.draw(st.integers(1, 30)), data.draw(st.integers(0, 4))
    X = data.draw(arrays(np.float64, (m, n), elements=_tied))
    grad = data.draw(arrays(np.float64, m, elements=st.sampled_from([-1.0, 0.0, 0.5]) | st.floats(-2.0, 2.0)))
    hess = data.draw(arrays(np.float64, m, elements=st.sampled_from([1.0]) | st.floats(0.05, 1.0)))
    tree, weights = grow_tree(X, grad, hess, params)
    assert weights.dtype == np.float64 and weights.shape == (m,)
    assert weights.tolist() == tree[1][_leaf_slots(tree, X)].tolist()


@settings(max_examples=60, deadline=None)
@given(st.data(), _boost_params, st.integers(1, 6), st.sampled_from([0.1, 1.0]) | st.floats(0.0, 1.0))
def test_fit_margins_are_base_plus_eta_times_the_leaves_predict_row_reaches(data, params, n_trees, eta):
    m, n = data.draw(st.integers(2, 30)), data.draw(st.integers(0, 4))
    X = data.draw(arrays(np.float64, (m, n), elements=_tied))
    y = np.array([0, 1] + data.draw(st.lists(st.integers(0, 1), min_size=m - 2, max_size=m - 2)))
    params = replace(params, n_trees=n_trees, eta=eta)
    scored = []  # every margin fit turns into probabilities, in order
    sigmoid = gbdt_mod._sigmoid
    with mock.patch.object(gbdt_mod, "_sigmoid", lambda z: scored.append(z.tolist()) or sigmoid(z)):
        forest = fit(X, y, params)
    margins = [np.full(m, forest.base_score)]
    for tree in forest.trees:
        margins.append(margins[-1] + eta * tree[1][_leaf_slots(tree, X)])
    # each margin but the last is scored once, for the next tree's gradients
    assert scored == [margin.tolist() for margin in margins[:-1]]


def test_fit_separable_data_perfect_training_accuracy():
    rng = np.random.default_rng(3)
    X = np.vstack([rng.normal(0, 1, size=(50, 2)), rng.normal(6, 1, size=(50, 2))])
    y = np.concatenate([np.zeros(50), np.ones(50)])
    forest = fit(X, y, BoostParams(n_trees=10, min_leaf=1))
    assert (forest.predict(X) >= 0.5).astype(float).tolist() == y.tolist()


def test_fit_eta_zero_predicts_base_rate():
    X = np.arange(20, dtype=np.float64).reshape(-1, 1)
    y = (X[:, 0] >= 15).astype(np.float64)
    forest = fit(X, y, BoostParams(n_trees=5, eta=0.0))
    assert np.allclose(forest.predict(X), 0.25)


@pytest.mark.parametrize("field,value,expected", [
    ("n_trees", 0, "n_trees must be at least 1, got 0"),
    ("max_depth", 0, "max_depth must be at least 1, got 0"),
    ("min_leaf", 0, "min_leaf must be at least 1, got 0"),
    ("eta", -1.0, "eta must be finite and at least 0, got -1.0"),
    ("eta", math.inf, "eta must be finite"),
    ("eta", math.nan, "eta must be finite"),
    ("lambda_", -0.5, "lambda_ must be at least 0, got -0.5"),
    ("lambda_", math.nan, "lambda_ must be at least 0"),
    ("gamma", math.nan, "gamma must be finite, got nan"),
    ("gamma", math.inf, "gamma must be finite, got inf"),
    ("gamma", -math.inf, "gamma must be finite, got -inf"),
    ("lambda_", math.inf, "lambda_ must be finite, got inf"),  # every leaf weight 0: a constant model
])
def test_boost_params_reject_values_that_train_no_useful_model(field, value, expected):
    with pytest.raises(ValueError, match=re.escape(expected)):
        BoostParams(**{field: value})


def test_grow_tree_takes_the_validated_boost_params():
    # the unvalidated copy of four BoostParams fields is gone, so no tree grows from params fit would refuse
    assert not hasattr(gbdt_mod, "TreeParams")
    assert inspect.signature(grow_tree).parameters["params"].default == BoostParams()


def test_fit_rejects_single_class():
    X = np.ones((4, 2))
    with pytest.raises(SingleClass):
        fit(X, np.ones(4), BoostParams(n_trees=1))


def test_fit_rejects_a_width_that_from_bytes_refuses():
    X = np.arange(8, dtype=np.float64).reshape(4, 2)
    y = np.array([0.0, 1.0, 0.0, 1.0])
    for dims in (12, 4, 0):
        with pytest.raises(BadDim, match=f"got {dims}"):
            fit(X, y, BoostParams(n_trees=2, min_leaf=1), dims=dims)
    forest = fit(X, y, BoostParams(n_trees=2, min_leaf=1), dims=16)
    assert BoostedForest.from_bytes(forest.to_bytes()).dims == 16
    # the model header stores the row width, 12 + dims, in 16 bits
    with pytest.raises(BadDim, match="dims must be at most 32768, got 65536"):
        fit(X, y, BoostParams(n_trees=2, min_leaf=1), dims=65536)
    forest = fit(X, y, BoostParams(n_trees=2, min_leaf=1), dims=32768)
    assert BoostedForest.from_bytes(forest.to_bytes()).dims == 32768


@pytest.mark.parametrize("hash_seed", [-1, 2**64])
def test_fit_rejects_a_hash_seed_that_a_model_file_cannot_hold(hash_seed):
    X = np.arange(8, dtype=np.float64).reshape(4, 2)
    y = np.array([0.0, 1.0, 0.0, 1.0])
    with pytest.raises(ValueError, match=re.escape(f"hash_seed must be in [0, 2**64), got {hash_seed}")):
        fit(X, y, BoostParams(n_trees=2, min_leaf=1), hash_seed=hash_seed)
    forest = fit(X, y, BoostParams(n_trees=2, min_leaf=1), hash_seed=2**64 - 1)
    assert BoostedForest.from_bytes(forest.to_bytes()).hash_seed == 2**64 - 1


def test_training_loss_monotone(train_corpus):
    # each tree boosts the log-loss of the forest cut before it down on the training rows
    X, y = train_corpus.X, train_corpus.y
    forest = fit(X, y, BoostParams(n_trees=40))
    losses = []
    for k in range(1, len(forest.trees) + 1):
        prob = np.clip(replace(forest, trees=forest.trees[:k]).predict(X), 1e-12, 1.0 - 1e-12)
        losses.append(float(-(y * np.log(prob) + (1.0 - y) * np.log(1.0 - prob)).mean()))
    assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


def test_fit_deterministic_bytes(train_corpus):
    a = fit(train_corpus.X, train_corpus.y, BoostParams(n_trees=15))
    b = fit(train_corpus.X.copy(), train_corpus.y.copy(), BoostParams(n_trees=15))
    assert a.to_bytes() == b.to_bytes()


def test_monotone_rescaling_preserves_partition():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(40, 3))
    y = rng.normal(size=40)
    split = best_split(X, y)
    scaled = X.copy()
    scaled[:, split.feature] = np.exp(scaled[:, split.feature] * 2.0)  # strictly monotone
    rescaled = best_split(scaled, y)
    assert rescaled.feature == split.feature
    assert rescaled.threshold != split.threshold
    left_a = X[:, split.feature] <= split.threshold
    left_b = scaled[:, rescaled.feature] <= rescaled.threshold
    assert np.array_equal(left_a, left_b)


def test_predict_empty_forest_is_base_score():
    forest = BoostedForest((), eta=0.1, gamma=0.0, lambda_=1.0, base_score=0.4, n_features=2)
    expected = 1.0 / (1.0 + math.exp(-0.4))
    assert forest.predict_row([1.0, 2.0]) == pytest.approx(expected)


def test_predict_single_constant_tree():
    leaf = (np.array([-1], np.int32), np.array([2.0]), np.array([-1], np.int32), np.array([-1], np.int32))
    forest = BoostedForest((leaf,), 0.1, 0.0, 1.0, 0.5, 2)
    expected = 1.0 / (1.0 + math.exp(-(0.5 + 0.1 * 2.0)))
    assert forest.predict_row([0.0, 0.0]) == pytest.approx(expected)


def test_batch_predict_equals_per_row(trained_forest, heldout_corpus):
    batch = trained_forest.predict(heldout_corpus.X[:50])
    rows = [trained_forest.predict_row(row) for row in heldout_corpus.X[:50]]
    assert np.allclose(batch, rows, atol=1e-12)


def _walked(forest, row):
    """sigmoid(base + eta * sum of leaves), each tree walked on its arrays:
    a value on a threshold routes left, and NaN, which compares false, right."""
    z = forest.base_score
    for features, values, lefts, rights in forest.trees:
        node = 0
        while features[node] >= 0:
            node = lefts[node] if row[features[node]] <= values[node] else rights[node]
        z += forest.eta * float(values[node])
    return float(1.0 / (1.0 + np.exp(-z)))


def test_predict_row_equals_batch_exactly(trained_forest):
    rng = np.random.default_rng(5)
    thresholds = {}
    for features, values, _, _ in trained_forest.trees:
        for feature, value in zip(features.tolist(), values.tolist()):
            if feature >= 0:
                thresholds.setdefault(feature, []).append(value)
    rows = rng.normal(size=(300, trained_forest.n_features)) * 5
    for row in rows[:200]:  # values exactly on a split threshold, which route left
        for feature, values in thresholds.items():
            if rng.random() < 0.5:
                row[feature] = values[rng.integers(len(values))]
    specials = np.array([np.inf, -np.inf, np.nan])
    edge = rng.random(rows[200:].shape) < 0.2
    rows[200:][edge] = specials[rng.integers(3, size=int(edge.sum()))]
    for row in rows:
        assert trained_forest.predict_row(row) == trained_forest.predict(row[None])[0] == _walked(trained_forest, row)
    assert trained_forest.predict_row(rows[0].tolist()) == trained_forest.predict_row(rows[0])


def test_predict_width_mismatch(trained_forest):
    with pytest.raises(WidthMismatch):
        trained_forest.predict_row(np.zeros(3))


def test_save_load_round_trip(tmp_path, trained_forest, heldout_corpus):
    path = tmp_path / "model.bin"
    trained_forest.save(path)
    loaded = BoostedForest.load(path)
    rng = np.random.default_rng(0)
    X = rng.normal(size=(1000, trained_forest.n_features)) * 20
    assert np.array_equal(trained_forest.predict(X), loaded.predict(X))
    assert loaded.dims == trained_forest.dims
    assert loaded.hash_seed == trained_forest.hash_seed


def test_truncated_model_rejected(tmp_path, trained_forest):
    blob = trained_forest.to_bytes()
    with pytest.raises(CorruptModel):
        BoostedForest.from_bytes(blob[: len(blob) // 2])
    with pytest.raises(CorruptModel):
        BoostedForest.from_bytes(blob[:-1])


def test_version_bump_rejected_with_clear_message(trained_forest):
    blob = bytearray(trained_forest.to_bytes()[:-32])
    blob[4] = 2  # version byte
    blob += hashlib.sha256(bytes(blob)).digest()
    with pytest.raises(CorruptModel, match="version 2"):
        BoostedForest.from_bytes(bytes(blob))


def test_wrong_magic_rejected(trained_forest):
    blob = b"XXXX" + trained_forest.to_bytes()[4:]
    with pytest.raises(CorruptModel, match="not a ransomwatch model"):
        BoostedForest.from_bytes(blob)


def test_default_model_size_under_64kib(trained_forest):
    assert len(trained_forest.to_bytes()) <= 64 * 1024


def test_model_bytes_unchanged(trained_forest):
    # The fixture's model file; any change to training or to the file format moves it.
    digest = "4ef27f0232cabc4a38cc4d824787a86525a9ccda8144dbeb9356512ca1bc0f9f"
    assert hashlib.sha256(trained_forest.to_bytes()).hexdigest() == digest


def test_loaded_trees_equal_fitted_trees(trained_forest):
    blob = trained_forest.to_bytes()
    loaded = BoostedForest.from_bytes(blob)
    assert loaded.to_bytes() == blob
    assert len(loaded.trees) == len(trained_forest.trees)
    for got, want in zip(loaded.trees, trained_forest.trees):
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.flags.c_contiguous and np.array_equal(a, b)


_TREES = 4 + 1 + struct.calcsize("<HHQH4d")  # offset of the first tree's node count


def _tree_offset(body: bytes, tree: int) -> int:
    """Offset of the node count of tree ``tree`` in a model file's body."""
    offset = _TREES
    for _ in range(tree):
        offset += 2 + struct.unpack_from("<H", body, offset)[0] * 15
    return offset


def _resealed(body: bytearray) -> bytes:
    return bytes(body + hashlib.sha256(bytes(body)).digest())  # the checksum holds


_WHICH_TREE = {"first": lambda n: 0, "middle": lambda n: n // 2, "last": lambda n: n - 1}


@pytest.mark.parametrize("case, which", [
    pytest.param(case, which, id=case if which == "first" else f"{case}-{which} tree")
    for which in _WHICH_TREE
    for case in ["truncated", "empty tree", "child out of range", "child is self", "feature out of range"]
])
def test_malformed_node_table_rejected(trained_forest, case, which):
    tree = _WHICH_TREE[which](len(trained_forest.trees))
    body = bytearray(trained_forest.to_bytes()[:-32])
    count = _tree_offset(body, tree)
    features = trained_forest.trees[tree][0]
    node = int(np.flatnonzero(features >= 0)[-1])  # the tree's last internal node, past its root
    at = count + 2 + node * 15
    assert node > 0 and body[at] == 0  # an internal node
    message = f"node {node} has a feature or child index out of range"
    if case == "truncated":
        del body[at:]
        message = "tree data empty or truncated"
    elif case == "empty tree":
        struct.pack_into("<H", body, count, 0)
        message = "tree data empty or truncated"
    elif case == "child out of range":
        struct.pack_into("<h", body, at + 11, len(features))
    elif case == "child is self":
        struct.pack_into("<h", body, at + 11, node)
    else:
        struct.pack_into("<H", body, at + 1, trained_forest.n_features)
    with pytest.raises(CorruptModel, match=f"^{message}$"):
        BoostedForest.from_bytes(_resealed(body))


@pytest.mark.parametrize("case", ["eta nan", "eta inf", "base score nan", "base score -inf", "leaf inf", "leaf nan"])
def test_non_finite_numbers_rejected(trained_forest, case):
    """A model that loads with a NaN base score predicts NaN for every row, and
    one with infinite leaf weights predicts 0 or 1 whatever the row: both would
    silently disable the classifier."""
    body = bytearray(trained_forest.to_bytes()[:-32])
    number = float(case.split()[-1])
    if case.startswith("leaf"):
        tree = len(trained_forest.trees) // 2
        count = _tree_offset(body, tree)
        leaves = np.flatnonzero(trained_forest.trees[tree][0] < 0).tolist()
        for node in leaves:
            struct.pack_into("<d", body, count + 2 + node * 15 + 3, number)
        message = f"^node {leaves[0]} has a leaf weight that is not finite$"
    else:
        struct.pack_into("<d", body, 19 if case.startswith("eta") else 27, number)  # eta, then the base score
        message = "must be finite"
    with pytest.raises(CorruptModel, match=message):
        BoostedForest.from_bytes(_resealed(body))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=2, max_value=60),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_from_bytes_inverts_to_bytes(n_trees, depth, rows, cols, seed):
    rng = np.random.default_rng(seed)
    X = rng.integers(-3, 4, size=(rows, cols)) * rng.choice([0.5, 1.0, 7.0])
    y = rng.integers(0, 2, size=rows)
    y[:2] = (0, 1)
    forest = fit(X, y, BoostParams(n_trees=n_trees, max_depth=depth, min_leaf=1))
    blob = forest.to_bytes()
    loaded = BoostedForest.from_bytes(blob)
    assert loaded.to_bytes() == blob
    assert len(loaded.trees) == n_trees
    for got, want in zip(loaded.trees, forest.trees):
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.flags.c_contiguous and np.array_equal(a, b)
    assert np.array_equal(loaded.predict(X), forest.predict(X))


def _reference_trees(body: bytes, n_features: int) -> list:
    """The node tables of a model body read one node at a time, tree by tree,
    raising the first fault in file order: the oracle for from_bytes' one pass."""
    trees, offset = [], _TREES
    while offset < len(body):
        (n,) = struct.unpack_from("<H", body, offset)
        nodes = [struct.unpack_from("<BHdhh", body, offset + 2 + 15 * i) for i in range(n)]
        for i, (leaf, feature, value, left, right) in enumerate(nodes):
            if leaf == 1 and not math.isfinite(value):
                raise CorruptModel(f"node {i} has a leaf weight that is not finite")
            if leaf != 1 and not (feature < n_features and i < left < n and i < right < n):
                raise CorruptModel(f"node {i} has a feature or child index out of range")
        trees.append([[-1 if leaf == 1 else feature, value, left, right] for leaf, feature, value, left, right in nodes])
        offset += 2 + 15 * n
    return trees


_FIELDS = {  # offset in the node, struct format, and values (given the feature width) that are sometimes out of range
    "leaf": (0, "<B", lambda width: st.sampled_from([0, 1, 2])),
    "feature": (1, "<H", lambda width: st.sampled_from([0, width - 1, width, width + 1, 65535])),
    "value": (3, "<d", lambda width: st.sampled_from([0.0, -2.5, math.inf, -math.inf, math.nan])),
    "left": (11, "<h", lambda width: st.integers(min_value=-2, max_value=40)),
    "right": (13, "<h", lambda width: st.integers(min_value=-2, max_value=40)),
}


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_one_corrupt_node_is_reported_as_the_per_tree_reference_reports_it(trained_forest, data):
    body = bytearray(trained_forest.to_bytes()[:-32])
    tree = data.draw(st.integers(min_value=0, max_value=len(trained_forest.trees) - 1))
    node = data.draw(st.integers(min_value=0, max_value=len(trained_forest.trees[tree][0]) - 1))
    at, fmt, values = _FIELDS[data.draw(st.sampled_from(sorted(_FIELDS)))]
    struct.pack_into(fmt, body, _tree_offset(body, tree) + 2 + 15 * node + at, data.draw(values(trained_forest.n_features)))
    try:
        want = _reference_trees(bytes(body), trained_forest.n_features)
    except CorruptModel as exc:
        with pytest.raises(CorruptModel, match=f"^{exc}$"):
            BoostedForest.from_bytes(_resealed(body))
        return
    got = BoostedForest.from_bytes(_resealed(body)).trees
    assert len(got) == len(want)
    for flat, nodes in zip(got, want):
        np.testing.assert_array_equal(np.column_stack(flat), np.array(nodes, dtype=np.float64))  # NaN equals NaN


@pytest.mark.parametrize("labels", [[0, 3], [0, 0.5], [0, -1], [0, math.nan], [1, 2]])
def test_fit_refuses_labels_other_than_0_and_1(labels):
    X = np.arange(8, dtype=np.float64).reshape(8, 1)
    with pytest.raises(ValueError, match=r"^training labels must be 0 or 1, got (3|0\.5|-1|nan|2)$"):
        fit(X, np.array(labels * 4), BoostParams(n_trees=2, min_leaf=1))


def test_fit_takes_integer_labels_as_their_floats():
    X = np.arange(8, dtype=np.float64).reshape(8, 1)
    y = np.array([0, 1, 1, 0, 1, 0, 0, 1], dtype=np.int8)  # as the benchmark's corpora pass them
    params = BoostParams(n_trees=3, min_leaf=1)
    assert fit(X, y, params).to_bytes() == fit(X, y.astype(np.float64), params).to_bytes()
