"""Decision-tree learners.

A single tree grower (:class:`DecisionTreeClassifier`) supports the
splitting criteria, feature subsampling and depth/size controls needed to
express the Weka tree family referenced by the paper's catalogue (Table IV):
``J48`` (C4.5, gain-ratio), ``SimpleCart`` (Gini), ``REPTree`` (reduced-error
style: information gain + strong size limits), ``RandomTree`` (random feature
subsets per split), ``BFTree`` (best-first expansion approximated by a node
budget) and ``DecisionStump`` (depth 1).

The fitting and prediction inner loops run on the vectorized kernels of
:mod:`repro.learners.kernels`: per-feature stable sort orders are computed
once per fit (and shared across a whole ensemble) as one ``(F, n)`` matrix
instead of re-sorting at every node, every threshold of every candidate
feature of a node is scored in one stacked cumulative-count pass, and
prediction walks the flattened tree arrays for a whole matrix at a time.
The grower is a generator that yields a split request wherever a node
needs a split search; :func:`grow_together` drives many of them in
lockstep, so the member trees of an ensemble (RandomForest, ExtraTrees,
Bagging, RandomSubSpace and RandomCommittee) share one batched split-kernel
call per step.  A single fit is :func:`grow_together` with one tree.
Results are identical to the historical pure-Python implementation (frozen
in :mod:`repro.learners._reference` and pinned by
``tests/learners/test_kernel_equivalence.py``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import kernels
from .base import BaseClassifier, check_is_fitted, export_labels

__all__ = [
    "DecisionTreeClassifier",
    "grow_together",
    "as_member",
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

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


def _impurity(distribution: np.ndarray, criterion: str) -> float:
    """Gini or entropy (``entropy``/``gain_ratio``) of a class distribution."""
    if criterion == "gini":
        return float(1.0 - (distribution * distribution).sum())
    p = distribution[distribution > 0]
    return float(-(p * np.log2(p)).sum())


def grow_together(trees, X: np.ndarray, y: np.ndarray, orders, columns=None) -> None:
    """Fit ``trees`` on ``X``/``y`` by growing them in lockstep.

    The trees share their split hyperparameters (the members of one
    ensemble) and already carry ``classes_``; ``y`` holds label ids into
    them.  ``orders`` yields each tree's root ``(F, n)`` sort-order matrix
    (row ids may repeat: a bootstrap sample) and ``columns``, if given, each
    tree's map from its feature ids to columns of ``X``.  At every step each
    growing tree contributes the node it needs split, and one
    :func:`kernels.best_split_stacked` call scores them all.  Each tree keeps
    its own depth-first order and its own RNG, so it is bit-identical to the
    same tree grown alone; a single :meth:`DecisionTreeClassifier.fit` is
    this function with one tree.  The trees growing at once are capped so
    their root orders stay within :data:`kernels.DEFAULT_CHUNK_ELEMENTS`;
    ``orders`` is consumed as trees start.
    """
    if not trees:
        return
    first = trees[0]
    params = (first.criterion, int(first.min_samples_leaf), first.min_impurity_decrease)
    members = zip(trees, orders, columns if columns is not None else itertools.repeat(None))
    live = growing, growers, requests, maps = [], [], [], []
    cap = 1
    while True:
        while len(growing) < cap and (member := next(members, None)) is not None:
            tree, root_orders, tree_columns = member
            cap = max(1, kernels.DEFAULT_CHUNK_ELEMENTS // root_orders.size)
            tree._n_classes = int(len(tree.classes_))
            tree._n_internal = 0
            rng = np.random.default_rng(tree.random_state)
            growing.append(tree)
            growers.append(tree._grow(X, y, root_orders, rng, tree_columns))
            requests.append(None)
            maps.append(tree_columns)
            _advance(live, len(growing) - 1, None)
        if not growing:
            return
        splits = kernels.best_split_stacked(X, y, requests, *params, columns=maps)
        for index in range(len(splits) - 1, -1, -1):
            _advance(live, index, splits[index])


def as_member(tree: "DecisionTreeClassifier", n_classes: int, n_features: int):
    """Ready ``tree`` to grow as an ensemble member on the ensemble's encoded
    labels, every one of which occurs in its sample, and return it."""
    tree.classes_ = np.arange(n_classes, dtype=np.int64)
    tree.n_features_in_ = n_features
    return tree


def _advance(live: tuple, index: int, split) -> None:
    """Send ``split`` to growing tree ``index``; keep its next request, or
    finish the tree and drop it from the ``live`` lists."""
    try:
        live[2][index] = live[1][index].send(split)
    except StopIteration as stop:
        tree = live[0][index]
        tree.tree_ = stop.value
        tree._flat = kernels.flatten_tree(tree.tree_, tree._n_classes)
        for column in live:
            del column[index]


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
    def _n_candidate_features(self, n_features: int) -> int:
        if self.max_features is None:
            return n_features
        if self.max_features == "sqrt":
            return max(1, int(np.sqrt(n_features)))
        if self.max_features == "log2":
            return max(1, int(np.log2(n_features)) if n_features > 1 else 1)
        return max(1, min(int(self.max_features), n_features))

    def _grow(
        self,
        X: np.ndarray,
        y: np.ndarray,
        orders: np.ndarray,
        rng: np.random.Generator,
        columns: np.ndarray | None = None,
    ):
        """Grow the tree depth-first; a generator of split requests.

        ``orders`` is the root's ``(F, n)`` matrix of row ids (into
        ``X``/``y``) in stable per-feature sorted order, split down to
        each node with one vectorized op.  ``columns`` maps the tree's
        feature ids to columns of ``X`` (``None``: the identity).  Where a
        node needs a split search the generator yields the request
        ``(orders, candidates, counts, impurity)`` and receives the
        ``(feature, threshold, decrease)`` split, or ``None``, back; it
        returns the root.  Feature candidates are drawn with the same RNG
        calls, node for node, as the historical recursion.
        """
        n_features = orders.shape[0]
        k = self._n_candidate_features(n_features)
        root = None
        # Pending nodes as (orders, depth, parent, side); the left child is
        # pushed last, so it and its subtree are grown before the right one.
        stack: list = [(orders, 0, None, None)]
        while stack:
            orders, depth, parent, side = stack.pop()
            counts = np.bincount(y[orders[0]], minlength=self._n_classes)
            prediction = counts / orders.shape[1]
            node = _Node(
                prediction=prediction,
                n_samples=orders.shape[1],
                depth=depth,
                impurity=_impurity(prediction, self.criterion),
            )
            if parent is None:
                root = node
            else:
                setattr(parent, side, node)
            if (
                np.count_nonzero(counts) <= 1
                or orders.shape[1] < self.min_samples_split
                or (self.max_depth is not None and depth >= self.max_depth)
                or (self.max_nodes is not None and self._n_internal >= self.max_nodes)
            ):
                continue
            candidates = (
                np.arange(n_features)
                if k >= n_features
                else rng.choice(n_features, size=k, replace=False)
            )
            split = yield orders, candidates, counts, node.impurity
            if split is None:
                continue
            feature, threshold, _ = split
            # Base-level membership mask of the left child; node orders only
            # hold node members, so splitting by it partitions this node.
            left, right = kernels.split_orders(
                orders, X[:, feature if columns is None else columns[feature]] <= threshold
            )
            if not (left.shape[1] and right.shape[1]):
                continue
            self._n_internal += 1
            node.feature = feature
            node.threshold = threshold
            stack.append((right, depth + 1, node, "right"))
            stack.append((left, depth + 1, node, "left"))
        return root

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        grow_together([self], X, y, [kernels.feature_orders(X)])

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
