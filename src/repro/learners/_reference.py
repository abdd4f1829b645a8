"""Frozen pre-kernel learner implementations — the equivalence oracle.

These classes preserve, verbatim, the pure-Python inner loops the live
learners used before the vectorized kernel layer (:mod:`repro.learners.kernels`)
replaced them: per-node ``np.argsort`` + a Python loop over every candidate
threshold in the trees, row-by-row neighbour voting in the lazy family, and
full-matrix pairwise distances.  They exist for exactly two consumers:

* ``tests/learners/test_kernel_equivalence.py`` asserts the kernel-backed
  learners produce *identical* predictions (tie-breaking included), and
* ``benchmarks/test_bench_kernels.py`` measures the kernel speedups against
  them while asserting score-identical outputs in the same run.

Do not use these in production paths and do not "fix" them — their value is
that they never change.
"""

from __future__ import annotations

import numpy as np

from .base import BaseClassifier
from .forest import RandomForest
from .lazy import IBk, KStar, LWL, _pairwise_sq_distances_exact
from .regression import DecisionTreeRegressor, KNeighborsRegressor, _RegressionNode
from .tree import DecisionTreeClassifier, _Node

__all__ = [
    "ReferenceDecisionTree",
    "ReferenceRandomForest",
    "ReferenceIBk",
    "ReferenceKStar",
    "ReferenceLWL",
    "ReferenceDecisionTreeRegressor",
    "ReferenceKNeighborsRegressor",
]


def _entropy(counts: np.ndarray) -> float:
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts[counts > 0] / total
    return float(-np.sum(p * np.log2(p)))


def _gini(counts: np.ndarray) -> float:
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts / total
    return float(1.0 - np.sum(p * p))


def _class_distribution(y: np.ndarray, n_classes: int) -> np.ndarray:
    counts = np.bincount(y, minlength=n_classes).astype(np.float64)
    total = counts.sum()
    return counts / total if total > 0 else np.full(n_classes, 1.0 / n_classes)


class ReferenceDecisionTree(DecisionTreeClassifier):
    """The pre-kernel tree: per-node stable argsort + Python threshold loop."""

    def _impurity(self, counts: np.ndarray) -> float:
        if self.criterion == "gini":
            return _gini(counts)
        return _entropy(counts)

    def _best_split(
        self, X: np.ndarray, y: np.ndarray, rng: np.random.Generator
    ) -> tuple[int, float, float] | None:
        n_samples, n_features = X.shape
        parent_counts = np.bincount(y, minlength=self._n_classes)
        parent_impurity = self._impurity(parent_counts)
        k = self._n_candidate_features(n_features)
        candidates = (
            np.arange(n_features)
            if k >= n_features
            else rng.choice(n_features, size=k, replace=False)
        )
        best: tuple[int, float, float] | None = None
        best_score = -np.inf
        for feature in candidates:
            order = np.argsort(X[:, feature], kind="stable")
            values = X[order, feature]
            labels = y[order]
            left_counts = np.zeros(self._n_classes)
            right_counts = parent_counts.astype(np.float64).copy()
            for i in range(n_samples - 1):
                label = labels[i]
                left_counts[label] += 1
                right_counts[label] -= 1
                if values[i] == values[i + 1]:
                    continue
                n_left = i + 1
                n_right = n_samples - n_left
                if n_left < self.min_samples_leaf or n_right < self.min_samples_leaf:
                    continue
                weighted = (
                    n_left * self._impurity(left_counts)
                    + n_right * self._impurity(right_counts)
                ) / n_samples
                decrease = parent_impurity - weighted
                score = decrease
                if self.criterion == "gain_ratio":
                    split_counts = np.array([n_left, n_right], dtype=np.float64)
                    split_info = _entropy(split_counts)
                    score = decrease / split_info if split_info > 0 else 0.0
                if score > best_score and decrease > self.min_impurity_decrease:
                    best_score = score
                    threshold = float((values[i] + values[i + 1]) / 2.0)
                    best = (int(feature), threshold, float(decrease))
        return best

    def _build(
        self, X: np.ndarray, y: np.ndarray, depth: int, rng: np.random.Generator
    ) -> _Node:
        distribution = _class_distribution(y, self._n_classes)
        node = _Node(
            prediction=distribution,
            n_samples=len(y),
            depth=depth,
            impurity=self._impurity(np.bincount(y, minlength=self._n_classes)),
        )
        if (
            len(np.unique(y)) <= 1
            or len(y) < self.min_samples_split
            or (self.max_depth is not None and depth >= self.max_depth)
            or (self.max_nodes is not None and self._n_internal >= self.max_nodes)
        ):
            return node
        split = self._best_split(X, y, rng)
        if split is None:
            return node
        feature, threshold, _ = split
        mask = X[:, feature] <= threshold
        if mask.all() or not mask.any():
            return node
        self._n_internal += 1
        node.feature = feature
        node.threshold = threshold
        node.left = self._build(X[mask], y[mask], depth + 1, rng)
        node.right = self._build(X[~mask], y[~mask], depth + 1, rng)
        return node

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        self._n_classes = int(len(self.classes_))
        self._n_internal = 0
        rng = np.random.default_rng(self.random_state)
        self.tree_ = self._build(X, y, depth=0, rng=rng)

    def _predict_row(self, node: _Node, row: np.ndarray) -> np.ndarray:
        while not node.is_leaf:
            node = node.left if row[node.feature] <= node.threshold else node.right
        return node.prediction

    def _predict_proba(self, X: np.ndarray) -> np.ndarray:
        return np.vstack([self._predict_row(self.tree_, row) for row in X])


class _ReferenceRandomTree(ReferenceDecisionTree):
    """RandomTree defaults on top of the reference engine (forest member)."""

    def __init__(
        self,
        max_depth: int | None = None,
        min_samples_leaf: int = 1,
        max_features: int | str | None = "sqrt",
        random_state: int | None = None,
    ) -> None:
        super().__init__(
            criterion="entropy",
            max_depth=max_depth,
            min_samples_split=2,
            min_samples_leaf=min_samples_leaf,
            max_features=max_features,
            random_state=random_state,
        )


class ReferenceRandomForest(RandomForest):
    """The pre-kernel forest: each member re-sorts every node, predicts row-wise."""

    def _make_tree(self, seed: int) -> DecisionTreeClassifier:
        return _ReferenceRandomTree(
            max_depth=self.max_depth,
            min_samples_leaf=self.min_samples_leaf,
            max_features=self.max_features,
            random_state=seed,
        )

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        if self.n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        rng = np.random.default_rng(self.random_state)
        n = X.shape[0]
        self.estimators_: list[DecisionTreeClassifier] = []
        for _ in range(int(self.n_estimators)):
            seed = int(rng.integers(0, 2**31 - 1))
            if self.bootstrap:
                idx = rng.integers(0, n, size=n)
                for label in range(len(self.classes_)):
                    if not np.any(y[idx] == label):
                        members = np.flatnonzero(y == label)
                        idx[rng.integers(0, n)] = members[rng.integers(0, len(members))]
            else:
                idx = np.arange(n)
            tree = self._make_tree(seed)
            tree.fit(X[idx], y[idx])
            self.estimators_.append(tree)


class ReferenceIBk(IBk):
    """The pre-kernel IBk: full distance matrix + per-row neighbour loop."""

    def _distances(self, X: np.ndarray) -> np.ndarray:
        Xs = (X - self._mean) / self._scale
        if self.p == 1:
            return np.abs(Xs[:, None, :] - self._X[None, :, :]).sum(axis=2)
        return np.sqrt(_pairwise_sq_distances_exact(Xs, self._X))

    def _predict_proba(self, X: np.ndarray) -> np.ndarray:
        k = min(int(self.n_neighbors), self._X.shape[0])
        distances = self._distances(X)
        n_classes = len(self.classes_)
        proba = np.zeros((X.shape[0], n_classes))
        neighbor_idx = np.argpartition(distances, kth=k - 1, axis=1)[:, :k]
        for i in range(X.shape[0]):
            idx = neighbor_idx[i]
            if self.weighting == "distance":
                weights = 1.0 / (distances[i, idx] + 1e-8)
            else:
                weights = np.ones(k)
            for j, w in zip(idx, weights):
                proba[i, self._y[j]] += w
        return proba / proba.sum(axis=1, keepdims=True)


class ReferenceKStar(KStar):
    """The pre-kernel KStar: one full query-by-train kernel matrix."""

    def _predict_proba(self, X: np.ndarray) -> np.ndarray:
        Xs = (X - self._mean) / self._scale
        distances = np.sqrt(_pairwise_sq_distances_exact(Xs, self._X))
        kernel = np.exp(-0.5 * (distances / self._bandwidth) ** 2) + 1e-12
        n_classes = len(self.classes_)
        proba = np.zeros((X.shape[0], n_classes))
        for k in range(n_classes):
            proba[:, k] = kernel[:, self._y == k].sum(axis=1)
        return proba / proba.sum(axis=1, keepdims=True)


class ReferenceLWL(LWL):
    """The pre-kernel LWL: per-query Python loop over local class weights."""

    def _predict_proba(self, X: np.ndarray) -> np.ndarray:
        Xs = (X - self._mean) / self._scale
        k = min(int(self.n_neighbors), self._X.shape[0])
        distances = np.sqrt(_pairwise_sq_distances_exact(Xs, self._X))
        n_classes = len(self.classes_)
        proba = np.zeros((X.shape[0], n_classes))
        neighbor_idx = np.argpartition(distances, kth=k - 1, axis=1)[:, :k]
        for i in range(X.shape[0]):
            idx = neighbor_idx[i]
            local_d = distances[i, idx]
            bandwidth = local_d.max() + 1e-8
            weights = np.clip(1.0 - (local_d / bandwidth) ** 2, 0.0, None) + 1e-8
            for k_label in range(n_classes):
                mask = self._y[idx] == k_label
                proba[i, k_label] = weights[mask].sum()
        proba += 1e-8
        return proba / proba.sum(axis=1, keepdims=True)


class ReferenceDecisionTreeRegressor(DecisionTreeRegressor):
    """The pre-kernel regression tree: per-node sort + Python prefix-sum loop."""

    def _best_split(
        self, X: np.ndarray, y: np.ndarray, rng: np.random.Generator
    ) -> tuple[int, float] | None:
        n, n_features = X.shape
        min_leaf = max(1, int(self.min_samples_leaf))
        k = self._n_candidate_features(n_features)
        candidates = (
            np.arange(n_features)
            if k >= n_features
            else rng.choice(n_features, size=k, replace=False)
        )
        best: tuple[int, float] | None = None
        best_sse = float(np.sum((y - y.mean()) ** 2)) - 1e-12
        for j in candidates:
            order = np.argsort(X[:, j], kind="stable")
            xs, ys = X[order, j], y[order]
            csum = np.cumsum(ys)
            csum_sq = np.cumsum(ys**2)
            total, total_sq = csum[-1], csum_sq[-1]
            for i in range(min_leaf, n - min_leaf + 1):
                if i == n or xs[i - 1] == xs[min(i, n - 1)]:
                    continue
                left_sum, left_sq = csum[i - 1], csum_sq[i - 1]
                right_sum, right_sq = total - left_sum, total_sq - left_sq
                sse = (left_sq - left_sum**2 / i) + (right_sq - right_sum**2 / (n - i))
                if sse < best_sse:
                    best_sse = sse
                    best = (int(j), float((xs[i - 1] + xs[i]) / 2.0))
        return best

    def _grow(
        self, X: np.ndarray, y: np.ndarray, depth: int, rng: np.random.Generator
    ) -> _RegressionNode:
        node = _RegressionNode(float(y.mean()))
        if (
            (self.max_depth is not None and depth >= int(self.max_depth))
            or len(y) < max(2, int(self.min_samples_split))
            or np.all(y == y[0])
        ):
            return node
        split = self._best_split(X, y, rng)
        if split is None:
            return node
        feature, threshold = split
        left_mask = X[:, feature] <= threshold
        if not left_mask.any() or left_mask.all():
            return node
        node.feature = feature
        node.threshold = threshold
        node.left = self._grow(X[left_mask], y[left_mask], depth + 1, rng)
        node.right = self._grow(X[~left_mask], y[~left_mask], depth + 1, rng)
        return node

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        rng = np.random.default_rng(self.random_state)
        self.root_ = self._grow(X, y, depth=0, rng=rng)

    def _predict(self, X: np.ndarray) -> np.ndarray:
        out = np.empty(X.shape[0])
        for i, row in enumerate(X):
            node = self.root_
            while not node.is_leaf:
                node = node.left if row[node.feature] <= node.threshold else node.right
            out[i] = node.prediction
        return out


class ReferenceKNeighborsRegressor(KNeighborsRegressor):
    """The pre-kernel kNN regressor: one distance pass per query row."""

    def _predict(self, X: np.ndarray) -> np.ndarray:
        k = min(int(self.n_neighbors), self._X.shape[0])
        out = np.empty(X.shape[0])
        for i, row in enumerate(X):
            diff = self._X - row
            if self.p == 1:
                distances = np.abs(diff).sum(axis=1)
            else:
                distances = np.sqrt((diff**2).sum(axis=1))
            neighbor_idx = np.argpartition(distances, k - 1)[:k]
            if self.weighting == "distance":
                weights = 1.0 / (distances[neighbor_idx] + 1e-9)
                out[i] = float(np.average(self._y[neighbor_idx], weights=weights))
            else:
                out[i] = float(self._y[neighbor_idx].mean())
        return out
