"""Lockstep growth: ensemble members grown together equal members grown alone.

RandomForest, ExtraTrees, Bagging, RandomSubSpace and RandomCommittee grow
their member trees together through ``tree.grow_together``: each step sends
the current node of every growing member to one batched
``kernels.best_split_stacked`` call.  Growing a member alone sends one-node
batches, which take the kernel's unpadded single-node path.  The two must
build the same trees, node for node, for any mix of node sizes, any row
chunking and any cap on the members growing at once.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.learners import ensemble, forest, kernels, tree
from repro.learners.ensemble import Bagging, RandomCommittee, RandomSubSpace
from repro.learners.forest import ExtraTrees, RandomForest
from repro.learners.tree import J48, RandomTree, SimpleCart
from test_kernel_equivalence import DATASETS, _duplicated_columns, _split

CASES = {
    "RandomForest": lambda: RandomForest(n_estimators=8, random_state=11),
    "RandomForest-log2-leaf3": lambda: RandomForest(
        n_estimators=6, max_features="log2", min_samples_leaf=3, random_state=2
    ),
    "ExtraTrees": lambda: ExtraTrees(n_estimators=6, random_state=5),
    "Bagging": lambda: Bagging(n_estimators=6, random_state=4),
    "Bagging-J48": lambda: Bagging(base_estimator=J48(), n_estimators=5, random_state=1),
    "Bagging-SimpleCart": lambda: Bagging(
        base_estimator=SimpleCart(), n_estimators=5, max_samples=0.6, random_state=8
    ),
    "RandomSubSpace": lambda: RandomSubSpace(n_estimators=6, random_state=4),
    "RandomSubSpace-RandomTree": lambda: RandomSubSpace(
        base_estimator=RandomTree(random_state=3), n_estimators=5, subspace_fraction=0.7,
        random_state=6,
    ),
    "RandomCommittee": lambda: RandomCommittee(n_estimators=6, random_state=4),
}


def _members(model) -> list:
    return [member.export_params() for member in model.estimators_]


def _one_at_a_time(monkeypatch):
    """Make every ensemble grow its members alone, one-node batches only."""
    together = tree.grow_together

    def alone(trees, X, y, orders, columns=None):
        columns = columns if columns is not None else [None] * len(trees)
        for member, member_orders, member_columns in zip(trees, orders, columns):
            together(
                [member], X, y, [member_orders],
                None if member_columns is None else [member_columns],
            )

    monkeypatch.setattr(forest, "grow_together", alone)
    monkeypatch.setattr(ensemble, "grow_together", alone)


def _batch_spy(monkeypatch) -> list:
    """Record every batch the split kernel scores as (rows, candidates) per node."""
    batches: list = []
    kernel = kernels.best_split_stacked

    def spy(X, y, requests, *args, **kwargs):
        batches.append([(request[0].shape[1], len(request[1])) for request in requests])
        return kernel(X, y, requests, *args, **kwargs)

    monkeypatch.setattr(kernels, "best_split_stacked", spy)
    return batches


@pytest.mark.parametrize("dataset", sorted(DATASETS))
@pytest.mark.parametrize("case", sorted(CASES))
def test_members_grown_together_match_members_grown_alone(case, dataset, monkeypatch):
    X, y, Xq = _split(DATASETS[dataset])
    batches = _batch_spy(monkeypatch)
    together = CASES[case]().fit(X, y)
    # The batches mixed members whose current nodes differ in size.
    assert any(len({n for n, _ in nodes}) > 1 for nodes in batches)
    _one_at_a_time(monkeypatch)
    batches.clear()
    alone = CASES[case]().fit(X, y)
    assert batches and all(len(nodes) == 1 for nodes in batches)
    assert _members(together) == _members(alone)
    assert np.array_equal(together.predict_proba(Xq), alone.predict_proba(Xq))


def _entropy(counts):
    p = counts[counts > 0] / counts.sum()
    return float(-(p * np.log2(p)).sum())


def _random_request(rng, X, y, size):
    # A bootstrap node of ``size`` rows with a random candidate subset.
    drawn = np.bincount(rng.choice(X.shape[0], size=size), minlength=X.shape[0])
    orders = kernels.expand_orders(kernels.feature_orders(X), drawn)
    counts = np.bincount(y[orders[0]], minlength=3)
    n_features = X.shape[1]
    candidates = rng.choice(n_features, size=int(rng.integers(1, n_features + 1)), replace=False)
    return orders, candidates, counts, _entropy(counts)


@pytest.mark.parametrize("criterion", ["gini", "entropy", "gain_ratio"])
@pytest.mark.parametrize("min_samples_leaf", [1, 3])
def test_batched_kernel_matches_one_node_calls(criterion, min_samples_leaf):
    # Direct kernel check: a batch of nodes from 2 to 120 rows, on
    # tie-heavy values, gives each node its one-node answer.
    rng = np.random.default_rng(21)
    X = np.round(rng.normal(size=(120, 6)) * 2.0) / 2.0
    y = rng.integers(0, 3, size=120)
    for _ in range(25):
        sizes = rng.integers(2, 121, size=int(rng.integers(2, 9)))
        requests = [_random_request(rng, X, y, int(size)) for size in sizes]
        args = (criterion, min_samples_leaf, 0.0)
        batched = kernels.best_split_stacked(X, y, requests, *args)
        alone = [kernels.best_split_stacked(X, y, [request], *args)[0] for request in requests]
        assert batched == alone


def test_batched_kernel_reads_values_through_column_maps():
    rng = np.random.default_rng(4)
    X = np.round(rng.normal(size=(80, 7)), 1)
    y = rng.integers(0, 3, size=80)
    base = kernels.feature_orders(X)
    requests, columns = [], []
    for size, subspace in ((80, [5, 2, 6]), (40, [1, 3]), (17, [0, 4, 2, 6])):
        subspace = np.array(subspace)
        keep = np.zeros(80, dtype=bool)
        keep[rng.choice(80, size=size, replace=False)] = True
        orders = kernels.split_orders(base[subspace], keep)[0]
        counts = np.bincount(y[orders[0]], minlength=3)
        candidates = np.arange(len(subspace))[::-1].copy()
        requests.append((orders, candidates, counts, _entropy(counts)))
        columns.append(subspace)
    batched = kernels.best_split_stacked(X, y, requests, "entropy", 1, 0.0, columns=columns)
    for request, subspace, split in zip(requests, columns, batched):
        # The same node on the materialised subspace matrix.
        orders, candidates, counts, impurity = request
        sub = X[:, subspace]
        alone = kernels.best_split_stacked(
            sub, y, [(orders, candidates, counts, impurity)], "entropy", 1, 0.0
        )[0]
        assert split == alone and split is not None


def test_small_budget_forces_row_chunks_and_member_groups(monkeypatch):
    # A budget of four root order matrices lets at most four members grow
    # at once, and splits a batch of their root nodes into several row
    # chunks (a node's candidates can straddle two chunks).  The trees must
    # equal the single-chunk, all-at-once run, also where equal-scoring
    # twin columns sit in different chunks.
    X, y = _duplicated_columns()

    def models():
        return [
            RandomForest(n_estimators=12, max_features=4, random_state=11).fit(X, y),
            Bagging(base_estimator=RandomTree(max_features=4, random_state=1), n_estimators=6,
                    random_state=2).fit(X, y),
            RandomSubSpace(n_estimators=6, subspace_fraction=0.8, random_state=3).fit(X, y),
            RandomCommittee(n_estimators=6, random_state=4).fit(X, y),
        ]

    single = [_members(model) for model in models()]
    monkeypatch.setattr(kernels, "DEFAULT_CHUNK_ELEMENTS", 4 * X.size)
    batches = _batch_spy(monkeypatch)
    chunked = [_members(model) for model in models()]
    assert max(len(nodes) for nodes in batches) == 4
    # Batches whose (node, candidate) rows the budget split into chunks.
    assert any(
        len(nodes) > 1
        and len(list(kernels.query_chunks(sum(k for _, k in nodes), max(nodes)[0] * 3))) > 1
        for nodes in batches
    )
    assert chunked == single


def _rare_class(seed=5, n=90, d=5):
    # Class 2 holds 4 of 90 rows, so small bootstrap samples often miss it.
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    y = (X[:, 0] + 0.5 * X[:, 1] > 0).astype(int)
    y[X[:, 2] > 1.3] = 2
    return X, y


# predict_proba digests recorded with the implementation that fitted every
# Bagging member on its materialised bootstrap sample.
RARE_CLASS_GOLDEN = {
    "default": "cd84645820491b47cebb8b9a",
    "random-tree": "3c46d1b1446ce3c92dbb235d",
}


@pytest.mark.parametrize("base", sorted(RARE_CLASS_GOLDEN))
def test_bagging_member_without_a_class_grows_alone(base, monkeypatch):
    X, y = _rare_class()
    Xq, _ = _rare_class(seed=6, n=60)
    estimator = RandomTree(random_state=2) if base == "random-tree" else None
    batches = _batch_spy(monkeypatch)
    model = Bagging(
        base_estimator=estimator, n_estimators=12, max_samples=0.15, random_state=3
    ).fit(X, y)
    n_classes = [len(member.classes_) for member in model.estimators_]
    # Both paths ran: members missing class 2 keep a local two-label
    # encoding and grow alone; the others grow together.
    assert 2 in n_classes and 3 in n_classes
    assert any(len(nodes) > 1 for nodes in batches)
    proba = np.ascontiguousarray(model.predict_proba(Xq))
    digest = hashlib.sha256(repr(proba.shape).encode() + proba.tobytes()).hexdigest()[:24]
    assert digest == RARE_CLASS_GOLDEN[base]
