"""Decision-tree learners.

A single recursive tree engine (:class:`DecisionTreeClassifier`) supports the
splitting criteria, feature subsampling and depth/size controls needed to
express the Weka tree family referenced by the paper's catalogue (Table IV):
``J48`` (C4.5, gain-ratio), ``SimpleCart`` (Gini), ``REPTree`` (reduced-error
style: information gain + strong size limits), ``RandomTree`` (random feature
subsets per split), ``BFTree`` (best-first expansion approximated by a node
budget) and ``DecisionStump`` (depth 1).

The fitting and prediction inner loops run on the vectorized kernels of
:mod:`repro.learners.kernels`: per-feature stable sort orders are computed
once per fit (and shared across a whole forest) as one ``(F, n)`` matrix
instead of re-sorting at every node, every threshold of every candidate
feature of a node is scored in one stacked cumulative-count pass, and
prediction walks the flattened tree arrays for a whole matrix at a time.
Results are identical to the historical pure-Python implementation (frozen
in :mod:`repro.learners._reference` and pinned by
``tests/learners/test_kernel_equivalence.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .base import BaseClassifier, check_is_fitted, export_labels

__all__ = [
    "DecisionTreeClassifier",
    "J48",
    "SimpleCart",
    "REPTree",
    "RandomTree",
    "BFTree",
    "DecisionStump",
]


@dataclass
class _Node:
    """A node of the fitted tree; leaves carry a class distribution."""

    prediction: np.ndarray
    feature: int | None = None
    threshold: float | None = None
    left: "_Node | None" = None
    right: "_Node | None" = None
    n_samples: int = 0
    depth: int = 0
    impurity: float = 0.0
    children: list = field(default_factory=list)

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


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


class DecisionTreeClassifier(BaseClassifier):
    """CART/C4.5-style binary decision tree over numeric features.

    Parameters
    ----------
    criterion:
        ``"gini"``, ``"entropy"`` (information gain) or ``"gain_ratio"``.
    max_depth:
        Maximum tree depth; ``None`` means unbounded.
    min_samples_split / min_samples_leaf:
        Pre-pruning size thresholds.
    max_features:
        ``None`` (all), ``"sqrt"``, ``"log2"`` or an int — the number of
        candidate features examined at each split (RandomTree behaviour).
    max_nodes:
        Optional cap on the number of internal nodes (best-first style limit).
    min_impurity_decrease:
        Minimum impurity improvement required to accept a split.
    """

    def __init__(
        self,
        criterion: str = "gini",
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | str | None = None,
        max_nodes: int | None = None,
        min_impurity_decrease: float = 0.0,
        random_state: int | None = None,
    ) -> None:
        super().__init__()
        self.criterion = criterion
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.max_nodes = max_nodes
        self.min_impurity_decrease = min_impurity_decrease
        self.random_state = random_state

    # -- fitting -----------------------------------------------------------------
    def _impurity(self, counts: np.ndarray) -> float:
        if self.criterion == "gini":
            return _gini(counts)
        return _entropy(counts)

    def _n_candidate_features(self, n_features: int) -> int:
        if self.max_features is None:
            return n_features
        if self.max_features == "sqrt":
            return max(1, int(np.sqrt(n_features)))
        if self.max_features == "log2":
            return max(1, int(np.log2(n_features)) if n_features > 1 else 1)
        return max(1, min(int(self.max_features), n_features))

    def _best_split(
        self,
        X: np.ndarray,
        y: np.ndarray,
        orders: np.ndarray,
        counts: np.ndarray,
        impurity: float,
        rng: np.random.Generator,
    ) -> tuple[int, float, float] | None:
        """Return ``(feature, threshold, impurity_decrease)`` or ``None``.

        ``orders`` is the node's ``(F, n)`` matrix of sample ids (into
        ``X``/``y``) in stable per-feature sorted order; ``counts`` and
        ``impurity`` are the node's class counts and impurity.  One stacked
        kernel call scores every threshold of every candidate feature, and no
        ``argsort`` happens here.  Feature candidates are drawn with the same
        RNG calls as the historical per-node loop; ties keep the earliest
        candidate and earliest position, as before.
        """
        n_features = X.shape[1]
        k = self._n_candidate_features(n_features)
        candidates = (
            np.arange(n_features)
            if k >= n_features
            else rng.choice(n_features, size=k, replace=False)
        )
        return kernels.best_split_stacked(
            X,
            y,
            orders,
            candidates,
            counts,
            impurity,
            self.criterion,
            int(self.min_samples_leaf),
            self.min_impurity_decrease,
        )

    def _build(
        self,
        X: np.ndarray,
        y: np.ndarray,
        orders: np.ndarray,
        depth: int,
        rng: np.random.Generator,
    ) -> _Node:
        counts = np.bincount(y[orders[0]], minlength=self._n_classes)
        node = _Node(
            prediction=counts / orders.shape[1],
            n_samples=orders.shape[1],
            depth=depth,
            impurity=self._impurity(counts),
        )
        if (
            np.count_nonzero(counts) <= 1
            or orders.shape[1] < self.min_samples_split
            or (self.max_depth is not None and depth >= self.max_depth)
            or (self.max_nodes is not None and self._n_internal >= self.max_nodes)
        ):
            return node
        split = self._best_split(X, y, orders, counts, node.impurity, rng)
        if split is None:
            return node
        feature, threshold, _ = split
        # Base-level membership mask of the left child; node orders only hold
        # node members, so filtering by it partitions exactly this node.
        mask = X[:, feature] <= threshold
        node_mask = mask[orders[0]]
        if node_mask.all() or not node_mask.any():
            return node
        self._n_internal += 1
        node.feature = feature
        node.threshold = threshold
        node.left = self._build(X, y, kernels.filter_orders(orders, mask), depth + 1, rng)
        node.right = self._build(X, y, kernels.filter_orders(orders, ~mask), depth + 1, rng)
        return node

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        self._n_classes = int(len(self.classes_))
        self._n_internal = 0
        rng = np.random.default_rng(self.random_state)
        # The (F, n) per-feature stable sort-order matrix, computed once per
        # fit and filtered down the recursion — no node ever sorts again.
        orders = kernels.feature_orders(X)
        self.tree_ = self._build(X, y, orders, depth=0, rng=rng)
        self._flat = kernels.flatten_tree(self.tree_, self._n_classes)

    def _fit_from_base(
        self,
        X: np.ndarray,
        y: np.ndarray,
        counts: np.ndarray,
        base_orders: np.ndarray,
        n_classes: int,
    ) -> "DecisionTreeClassifier":
        """Forest fast path: fit on a bootstrap multiset of pre-validated rows.

        ``X``/``y`` are the forest's already-encoded training arrays;
        ``counts[i]`` is how many times base row ``i`` appears in this
        member's sample, and ``base_orders`` is the forest-wide ``(F, n)``
        sort-order matrix computed once per ensemble fit.  The forest guarantees every class
        appears in the sample, so the member's label encoding is the
        identity — exactly what refitting on ``X[idx]`` used to produce.
        """
        self.classes_ = np.arange(n_classes, dtype=np.int64)
        self.n_features_in_ = X.shape[1]
        self._n_classes = int(n_classes)
        self._n_internal = 0
        rng = np.random.default_rng(self.random_state)
        orders = kernels.expand_orders(base_orders, counts)
        self.tree_ = self._build(X, y, orders, depth=0, rng=rng)
        self._flat = kernels.flatten_tree(self.tree_, self._n_classes)
        return self

    # -- prediction ----------------------------------------------------------------
    def _predict_proba(self, X: np.ndarray) -> np.ndarray:
        leaves = kernels.flat_predict_indices(self._flat, X)
        return self._flat.prediction[leaves]

    def export_params(self) -> dict:
        check_is_fitted(self)

        def _export_node(node: _Node) -> dict:
            if node.is_leaf:
                return {"prediction": node.prediction.tolist()}
            return {
                "prediction": node.prediction.tolist(),
                "feature": int(node.feature),
                "threshold": float(node.threshold),
                "left": _export_node(node.left),
                "right": _export_node(node.right),
            }

        return {
            "kind": "tree",
            "tree": _export_node(self.tree_),
            "classes": export_labels(self.classes_),
        }

    # -- introspection ---------------------------------------------------------------
    def depth(self) -> int:
        """Return the depth of the fitted tree (0 for a single leaf)."""

        def _depth(node: _Node) -> int:
            if node.is_leaf:
                return 0
            return 1 + max(_depth(node.left), _depth(node.right))

        return _depth(self.tree_)

    def n_leaves(self) -> int:
        """Return the number of leaves of the fitted tree."""

        def _count(node: _Node) -> int:
            if node.is_leaf:
                return 1
            return _count(node.left) + _count(node.right)

        return _count(self.tree_)


class J48(DecisionTreeClassifier):
    """C4.5-style tree: gain-ratio splits with a confidence-like leaf floor."""

    def __init__(
        self,
        max_depth: int | None = None,
        min_samples_leaf: int = 2,
        min_samples_split: int = 4,
        min_impurity_decrease: float = 0.0,
        random_state: int | None = None,
    ) -> None:
        super().__init__(
            criterion="gain_ratio",
            max_depth=max_depth,
            min_samples_split=min_samples_split,
            min_samples_leaf=min_samples_leaf,
            min_impurity_decrease=min_impurity_decrease,
            random_state=random_state,
        )


class SimpleCart(DecisionTreeClassifier):
    """CART-style tree: Gini splits, moderate pre-pruning."""

    def __init__(
        self,
        max_depth: int | None = None,
        min_samples_leaf: int = 2,
        min_samples_split: int = 4,
        min_impurity_decrease: float = 0.0,
        random_state: int | None = None,
    ) -> None:
        super().__init__(
            criterion="gini",
            max_depth=max_depth,
            min_samples_split=min_samples_split,
            min_samples_leaf=min_samples_leaf,
            min_impurity_decrease=min_impurity_decrease,
            random_state=random_state,
        )


class REPTree(DecisionTreeClassifier):
    """Reduced-error-pruning style tree: aggressive size limits for low variance."""

    def __init__(
        self,
        max_depth: int | None = 8,
        min_samples_leaf: int = 4,
        min_samples_split: int = 8,
        min_impurity_decrease: float = 1e-4,
        random_state: int | None = None,
    ) -> None:
        super().__init__(
            criterion="entropy",
            max_depth=max_depth,
            min_samples_split=min_samples_split,
            min_samples_leaf=min_samples_leaf,
            min_impurity_decrease=min_impurity_decrease,
            random_state=random_state,
        )


class RandomTree(DecisionTreeClassifier):
    """Unpruned tree that examines a random feature subset at each split."""

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


class BFTree(DecisionTreeClassifier):
    """Best-first tree approximated with a cap on the number of internal nodes."""

    def __init__(
        self,
        max_nodes: int = 32,
        min_samples_leaf: int = 2,
        random_state: int | None = None,
    ) -> None:
        super().__init__(
            criterion="gini",
            max_nodes=max_nodes,
            min_samples_split=4,
            min_samples_leaf=min_samples_leaf,
            random_state=random_state,
        )


class DecisionStump(DecisionTreeClassifier):
    """Single-split decision stump (depth 1)."""

    def __init__(self, criterion: str = "entropy", random_state: int | None = None) -> None:
        super().__init__(
            criterion=criterion,
            max_depth=1,
            min_samples_split=2,
            min_samples_leaf=1,
            random_state=random_state,
        )
