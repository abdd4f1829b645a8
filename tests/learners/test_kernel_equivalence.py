"""Golden equivalence: kernel-backed learners vs the frozen pre-kernel paths.

The vectorized kernels (:mod:`repro.learners.kernels`) are only allowed to be
fast — every fitted model and every prediction must match the historical
pure-Python implementations frozen in :mod:`repro.learners._reference`.
Equality here is ``np.array_equal`` (bit-identical probabilities, tie-breaking
included) except for LWL, whose vote accumulation order changed (bincount vs
per-class masked sums) and is pinned to allclose + identical label decisions.

Datasets cover the split-search edge cases: dense continuous features, heavy
value ties (every threshold lands on a run boundary), and a NaN-corrupted
matrix healed by mean imputation (the pipeline's pre-learner contract).
"""

import numpy as np
import pytest

from repro.learners import kernels
from repro.learners._reference import (
    ReferenceDecisionTree,
    ReferenceIBk,
    ReferenceKNeighborsRegressor,
    ReferenceKStar,
    ReferenceLWL,
    ReferenceDecisionTreeRegressor,
    ReferenceRandomForest,
)
from repro.learners.forest import ExtraTrees, RandomForest
from repro.learners.lazy import IB1, IBk, KStar, LWL
from repro.learners.regression import DecisionTreeRegressor, KNeighborsRegressor
from repro.learners.tree import (
    BFTree,
    DecisionStump,
    DecisionTreeClassifier,
    J48,
    REPTree,
    RandomTree,
    SimpleCart,
)


def _dense(seed=0, n=220, d=7, k=4):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    y = np.clip(
        (np.abs(X[:, 0]) + X[:, 1] > 0.7).astype(int) + (X[:, 2] > 0.4).astype(int),
        0,
        k - 1,
    )
    return X, y


def _ties(seed=1, n=220, d=7, k=3):
    # Quantised features: long runs of equal values, so every candidate
    # threshold sits on a run boundary and tie-breaking matters.
    rng = np.random.default_rng(seed)
    X = np.round(rng.normal(size=(n, d)) * 2.0) / 2.0
    y = np.clip((X[:, 0] + X[:, 1] > 0).astype(int) + (X[:, 2] > 0.5).astype(int), 0, k - 1)
    return X, y


def _imputed(seed=2, n=220, d=7, k=3):
    # NaN-corrupted then mean-imputed — the matrix the learners actually see
    # after the pipeline's imputation step (check_array rejects raw NaN).
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    y = np.clip((X[:, 0] - X[:, 3] > 0).astype(int) + (X[:, 1] > 0.3).astype(int), 0, k - 1)
    mask = rng.random(X.shape) < 0.15
    X[mask] = np.nan
    means = np.nanmean(X, axis=0)
    X = np.where(np.isnan(X), means, X)
    return X, y


DATASETS = {"dense": _dense, "ties": _ties, "imputed": _imputed}


def _split(maker):
    X, y = maker()
    Xq, _ = maker(seed=99, n=140)
    return X, y, Xq


def _assert_identical(live, ref, Xq):
    pa, pb = live.predict_proba(Xq), ref.predict_proba(Xq)
    assert np.array_equal(pa, pb), f"proba drift: max |Δ|={np.abs(pa - pb).max()}"
    assert np.array_equal(live.predict(Xq), ref.predict(Xq))


TREE_CASES = [
    (J48, dict(), dict(criterion="gain_ratio", min_samples_leaf=2, min_samples_split=4)),
    (SimpleCart, dict(), dict(criterion="gini", min_samples_leaf=2, min_samples_split=4)),
    (
        REPTree,
        dict(),
        dict(
            criterion="entropy",
            max_depth=8,
            min_samples_leaf=4,
            min_samples_split=8,
            min_impurity_decrease=1e-4,
        ),
    ),
    (BFTree, dict(), dict(criterion="gini", max_nodes=32, min_samples_leaf=2, min_samples_split=4)),
    (DecisionStump, dict(), dict(criterion="entropy", max_depth=1)),
    (
        DecisionTreeClassifier,
        dict(criterion="entropy", min_impurity_decrease=0.01),
        dict(criterion="entropy", min_impurity_decrease=0.01),
    ),
]


@pytest.mark.parametrize("dataset", sorted(DATASETS))
@pytest.mark.parametrize("case", TREE_CASES, ids=lambda c: c[0].__name__)
def test_tree_classifiers_bit_identical(dataset, case):
    cls, live_kwargs, ref_kwargs = case
    X, y, Xq = _split(DATASETS[dataset])
    live = cls(random_state=3, **live_kwargs).fit(X, y)
    ref = ReferenceDecisionTree(random_state=3, **ref_kwargs).fit(X, y)
    _assert_identical(live, ref, Xq)


@pytest.mark.parametrize("dataset", sorted(DATASETS))
def test_tree_structure_identical_on_ties(dataset):
    # Structural check, stronger than prediction equality: the exported node
    # layout (features, thresholds, leaf distributions) must match exactly,
    # so cross-feature and within-feature tie-breaking is pinned.
    X, y, _ = _split(DATASETS[dataset])
    live = SimpleCart(random_state=0).fit(X, y)
    ref = ReferenceDecisionTree(
        criterion="gini", min_samples_leaf=2, min_samples_split=4, random_state=0
    ).fit(X, y)
    assert live.export_params() == ref.export_params()


@pytest.mark.parametrize("dataset", sorted(DATASETS))
def test_random_tree_preserves_rng_stream(dataset):
    X, y, Xq = _split(DATASETS[dataset])
    live = RandomTree(max_features="sqrt", random_state=7).fit(X, y)
    ref = ReferenceDecisionTree(
        criterion="entropy", max_features="sqrt", min_samples_split=2, random_state=7
    ).fit(X, y)
    _assert_identical(live, ref, Xq)


@pytest.mark.parametrize("dataset", sorted(DATASETS))
def test_random_forest_bit_identical(dataset):
    # Shared base orders + bootstrap expansion must reproduce the exact
    # forest the materialise-and-refit implementation built, tree by tree.
    X, y, Xq = _split(DATASETS[dataset])
    live = RandomForest(n_estimators=12, random_state=11).fit(X, y)
    ref = ReferenceRandomForest(n_estimators=12, random_state=11).fit(X, y)
    _assert_identical(live, ref, Xq)


def test_extra_trees_bit_identical():
    X, y, Xq = _split(_dense)
    live = ExtraTrees(n_estimators=8, random_state=5).fit(X, y)
    ref = ReferenceRandomForest(n_estimators=8, bootstrap=False, random_state=5).fit(X, y)
    _assert_identical(live, ref, Xq)


def _duplicated_columns():
    # Columns 3..5 repeat columns 0..2, so every split has an equal-scoring
    # twin on another feature and only the candidate order can break the tie.
    X, y, _ = _split(_ties)
    return X[:, [0, 1, 2, 0, 1, 2]], y


def test_random_tree_cross_feature_ties_follow_candidate_order():
    X, y = _duplicated_columns()
    root_candidates = np.random.default_rng(7).choice(6, size=4, replace=False)
    assert not np.all(np.diff(root_candidates) > 0), "candidate order is ascending"
    live = RandomTree(max_features=4, random_state=7).fit(X, y)
    ref = ReferenceDecisionTree(
        criterion="entropy", max_features=4, min_samples_split=2, random_state=7
    ).fit(X, y)
    assert live.export_params() == ref.export_params()


def test_random_forest_cross_feature_ties_follow_candidate_order():
    X, y = _duplicated_columns()
    live = RandomForest(n_estimators=6, max_features=4, random_state=11).fit(X, y)
    ref = ReferenceRandomForest(n_estimators=6, max_features=4, random_state=11).fit(X, y)
    assert live.export_params() == ref.export_params()


def test_chunked_split_search_matches_single_chunk(monkeypatch):
    # Force the stacked split kernel through several candidate chunks; the
    # first maximum carried across chunks must give the single-chunk trees,
    # also when a split's equal-scoring twin column sits in a later chunk.
    X, y = _duplicated_columns()

    def structures():
        return [
            SimpleCart(random_state=0).fit(X, y).export_params(),
            RandomTree(max_features=4, random_state=7).fit(X, y).export_params(),
            RandomForest(n_estimators=4, random_state=11).fit(X, y).export_params(),
        ]

    single = structures()
    monkeypatch.setattr(kernels, "DEFAULT_CHUNK_ELEMENTS", 2 * X.shape[0] * 3)
    chunks = list(kernels.query_chunks(X.shape[1], X.shape[0] * 3))
    assert len(chunks) > 1, "budget too large to force chunking"
    assert structures() == single


@pytest.mark.parametrize("ties", [False, True], ids=["continuous", "tie-heavy"])
def test_rule_quartiles_match_scalar_percentile(ties):
    # The rule learners take their three candidate thresholds from one
    # vector percentile call; it must equal three scalar calls bit for bit.
    rng = np.random.default_rng(12)
    for _ in range(2000):
        values = rng.normal(size=int(rng.integers(1, 60))) * 10.0
        if ties:
            values = np.round(values / 5.0)
        batched = np.percentile(values, (25, 50, 75)).tolist()
        scalar = [float(np.percentile(values, q)) for q in (25, 50, 75)]
        assert batched == scalar


@pytest.mark.parametrize("dataset", sorted(DATASETS))
@pytest.mark.parametrize(
    "kwargs",
    [dict(), dict(weighting="distance"), dict(p=1, n_neighbors=3), dict(n_neighbors=1)],
    ids=["uniform", "distance", "manhattan-k3", "k1"],
)
def test_ibk_bit_identical(dataset, kwargs):
    X, y, Xq = _split(DATASETS[dataset])
    live = IBk(**kwargs).fit(X, y)
    ref = ReferenceIBk(**kwargs).fit(X, y)
    _assert_identical(live, ref, Xq)


def test_ib1_bit_identical():
    X, y, Xq = _split(_ties)
    live = IB1().fit(X, y)
    ref = ReferenceIBk(n_neighbors=1, weighting="uniform").fit(X, y)
    _assert_identical(live, ref, Xq)


@pytest.mark.parametrize("blend", [0.1, 0.2, 0.5])
def test_kstar_bit_identical(blend):
    X, y, Xq = _split(_dense)
    live = KStar(blend=blend).fit(X, y)
    ref = ReferenceKStar(blend=blend).fit(X, y)
    assert live._bandwidth == ref._bandwidth
    _assert_identical(live, ref, Xq)


@pytest.mark.parametrize("dataset", sorted(DATASETS))
def test_lwl_equivalent(dataset):
    # LWL's per-class accumulation order changed (flattened bincount vs
    # masked np.sum), so probabilities match to float tolerance and the
    # decisions match exactly.
    X, y, Xq = _split(DATASETS[dataset])
    live = LWL(n_neighbors=25).fit(X, y)
    ref = ReferenceLWL(n_neighbors=25).fit(X, y)
    assert np.allclose(live.predict_proba(Xq), ref.predict_proba(Xq), rtol=1e-9, atol=1e-12)
    assert np.array_equal(live.predict(Xq), ref.predict(Xq))


@pytest.mark.parametrize(
    "kwargs",
    [dict(), dict(max_depth=4, min_samples_leaf=3), dict(max_features="sqrt", random_state=2)],
    ids=["default", "pruned", "subsampled"],
)
def test_regression_tree_bit_identical(kwargs):
    X, _, Xq = _split(_dense)
    rng = np.random.default_rng(5)
    y = X[:, 0] * 2 + np.sin(X[:, 1]) + rng.normal(scale=0.1, size=X.shape[0])
    live = DecisionTreeRegressor(**kwargs).fit(X, y)
    ref = ReferenceDecisionTreeRegressor(**kwargs).fit(X, y)
    assert np.array_equal(live.predict(Xq), ref.predict(Xq))


def test_regression_tree_bit_identical_on_ties():
    X, _, Xq = _split(_ties)
    rng = np.random.default_rng(6)
    y = np.round(X[:, 0] + X[:, 1]) + rng.normal(scale=0.05, size=X.shape[0])
    live = DecisionTreeRegressor().fit(X, y)
    ref = ReferenceDecisionTreeRegressor().fit(X, y)
    assert np.array_equal(live.predict(Xq), ref.predict(Xq))


@pytest.mark.parametrize(
    "kwargs",
    [dict(), dict(weighting="distance"), dict(p=1)],
    ids=["uniform", "distance", "manhattan"],
)
def test_knn_regressor_bit_identical(kwargs):
    X, _, Xq = _split(_dense)
    rng = np.random.default_rng(7)
    y = X[:, 0] - 0.5 * X[:, 2] + rng.normal(scale=0.1, size=X.shape[0])
    live = KNeighborsRegressor(**kwargs).fit(X, y)
    ref = ReferenceKNeighborsRegressor(**kwargs).fit(X, y)
    assert np.array_equal(live.predict(Xq), ref.predict(Xq))


def test_chunked_distance_path_matches_single_shot(monkeypatch):
    # Force multi-chunk prediction; the elementwise-diff learners must stay
    # bit-identical, the GEMM-based ones within float tolerance with
    # identical decisions (BLAS results legitimately vary with panel shape).
    X, y, Xq = _split(_dense)
    single_knn = IBk(p=1, n_neighbors=5).fit(X, y).predict_proba(Xq)
    single_ibk = IBk(n_neighbors=5).fit(X, y).predict_proba(Xq)
    single_kstar = KStar(blend=0.2).fit(X, y).predict_proba(Xq)
    rng = np.random.default_rng(8)
    yr = X[:, 0] + rng.normal(scale=0.1, size=X.shape[0])
    single_reg = KNeighborsRegressor().fit(X, yr).predict(Xq)

    monkeypatch.setattr(kernels, "DEFAULT_CHUNK_ELEMENTS", 1500)
    chunks = list(kernels.query_chunks(Xq.shape[0], X.shape[0]))
    assert len(chunks) > 1, "budget too large to force chunking"

    assert np.array_equal(IBk(p=1, n_neighbors=5).fit(X, y).predict_proba(Xq), single_knn)
    assert np.array_equal(KNeighborsRegressor().fit(X, yr).predict(Xq), single_reg)
    chunked_ibk = IBk(n_neighbors=5).fit(X, y).predict_proba(Xq)
    chunked_kstar = KStar(blend=0.2).fit(X, y).predict_proba(Xq)
    assert np.allclose(chunked_ibk, single_ibk, rtol=1e-9, atol=1e-12)
    assert np.allclose(chunked_kstar, single_kstar, rtol=1e-9, atol=1e-12)


def test_query_chunks_cover_exactly_once():
    marks = np.zeros(103, dtype=int)
    for rows in kernels.query_chunks(103, 50, max_elements=400):
        marks[rows] += 1
    assert np.array_equal(marks, np.ones(103, dtype=int))


def test_split_orders_is_stable_subset_argsort():
    rng = np.random.default_rng(0)
    X = np.round(rng.normal(size=(60, 3)), 1)
    orders = kernels.feature_orders(X)
    keep = rng.random(60) < 0.5
    for side, rows in zip(kernels.split_orders(orders, keep), (keep, ~keep)):
        sub = X[rows]
        base_ids = np.flatnonzero(rows)
        for j in range(X.shape[1]):
            expected = base_ids[np.argsort(sub[:, j], kind="stable")]
            assert np.array_equal(side[j], expected)


def test_flat_tree_matches_recursive_walk():
    X, y, Xq = _split(_dense)
    tree = J48(random_state=0).fit(X, y)
    flat = tree._flat
    leaves = kernels.flat_predict_indices(flat, Xq)
    for row, leaf in zip(Xq, leaves):
        node = tree.tree_
        while not node.is_leaf:
            node = node.left if row[node.feature] <= node.threshold else node.right
        assert np.array_equal(flat.prediction[leaf], node.prediction)
