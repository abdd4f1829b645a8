"""Vectorized numpy kernels shared by the learner catalogue.

The paper's headline claim is about *trials per wall-clock second*: Auto-Model
wins under a time budget because it spends its seconds tuning one good
algorithm.  That makes the learners' inner loops the hottest code in the whole
system — every CV fold of every trial of every optimizer runs them.  This
module collects those loops as array kernels:

* **Split search** (:func:`best_split_stacked`,
  :func:`best_split_regression`) — a LightGBM-style cumulative-count scan.
  A classification node gathers the sorted labels of all ``k`` candidate
  features as one ``(k, n)`` array; one cumulative sum over its ``(k, n, C)``
  one-hot and one impurity pass score every threshold of every candidate,
  so a node costs one kernel call instead of one per feature.  The member
  trees of an ensemble grow in lockstep and send one batch per step: the
  (node, candidate) rows of every member's current node are laid end to
  end, so one call scores them all.  Regression trees scan prefix sums one
  feature at a time.
* **Sort-order reuse** (:func:`feature_orders`, :func:`split_orders`,
  :func:`expand_orders`) — per-feature stable sort orders are one ``(F, n)``
  int matrix, computed once per fit (once per *ensemble*, shared by every
  member tree) and split down the tree with one vectorized op; no node
  ever calls ``argsort`` again.  Filtering a stable full-dataset order by a
  membership mask yields exactly the stable argsort of the subset, so
  splits are bit-identical to the per-node-sort implementation.
* **Flat tree inference** (:class:`FlatTree`, :func:`flat_predict_indices`) —
  fitted trees are flattened into feature/threshold/child arrays and a whole
  matrix is walked iteratively, level by level, replacing the per-row
  ``_predict_row`` walk + ``np.vstack``.  The layout mirrors the export
  interpreter's array form (``repro.export``), which proved the approach.
* **Distance kernels** (:func:`pairwise_sq_distances`, :func:`query_chunks`,
  :func:`knn_vote`) — batched neighbour search with *chunked* pairwise
  distances so a large predict never materialises an ``O(n·m)`` float64
  intermediate at once, plus per-row class voting via one flattened
  ``bincount`` (accumulation order matches the historical per-row loop, so
  scores are identical).

Every kernel is gated on score-identical results versus the frozen pre-kernel
implementations in :mod:`repro.learners._reference` — see
``tests/learners/test_kernel_equivalence.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "feature_orders",
    "split_orders",
    "expand_orders",
    "best_split_stacked",
    "best_split_regression",
    "FlatTree",
    "flatten_tree",
    "flat_predict_indices",
    "pairwise_sq_distances",
    "query_chunks",
    "knn_vote",
    "DEFAULT_CHUNK_ELEMENTS",
]

#: Upper bound on the number of float64 elements a chunked distance or split
#: pass may materialise at once (~32 MB).  Tests shrink it to force
#: multi-chunk paths.
DEFAULT_CHUNK_ELEMENTS = 4_000_000


# ---------------------------------------------------------------------------
# Sort-order management
# ---------------------------------------------------------------------------

def feature_orders(X: np.ndarray) -> np.ndarray:
    """Stable per-feature sort orders of ``X``, computed once per fit.

    Returns an ``(F, n)`` ``int64`` matrix whose row ``j`` is the stable
    argsort of column ``j``.  Every row holds the same row ids, so filtering
    and expansion keep the matrix rectangular.
    """
    return np.ascontiguousarray(np.argsort(X, axis=0, kind="stable").T)


def split_orders(orders: np.ndarray, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Partition every feature order into the rows where ``mask`` holds and
    the rest.

    ``mask`` is indexed by the *base-row ids stored in the orders*.  Because
    the parent orders are stable, each side is exactly the stable argsort of
    its rows — equal feature values keep their original relative order.
    """
    keep = mask[orders]
    n_features = orders.shape[0]
    return orders[keep].reshape(n_features, -1), orders[~keep].reshape(n_features, -1)


def expand_orders(orders: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Expand base-row orders by bootstrap multiplicity ``counts``.

    Rows with ``counts[i] == 0`` drop out; rows drawn ``c`` times appear ``c``
    times consecutively.  Within a run of equal feature values the resulting
    permutation can differ from a stable sort of the materialised bootstrap
    matrix (base order vs draw order), but split scores only ever inspect
    cumulative label counts at run *boundaries*, which are permutation
    invariant — so the chosen splits, and therefore the fitted tree, are
    identical.
    """
    return np.repeat(orders.ravel(), counts[orders.ravel()]).reshape(orders.shape[0], -1)


# ---------------------------------------------------------------------------
# Split search
# ---------------------------------------------------------------------------

def _impurity_matrix(counts: np.ndarray, totals: np.ndarray, criterion: str) -> np.ndarray:
    """Impurity of each candidate split side; classes run along the last axis.

    ``totals`` has the shape of ``counts`` without its class axis (or
    broadcasts to it).  Replicates the scalar node impurity of
    :mod:`repro.learners.tree` operation for operation — ``gini``:
    ``1 - Σ (c/t)²``; ``entropy``: ``-Σ p·log2(p)`` over the positive entries
    (zeros contribute an exact ``0.0``).
    """
    p = counts / totals[..., None]
    if criterion == "gini":
        return 1.0 - np.sum(p * p, axis=-1)
    # log2(1) == 0, so empty classes contribute 0.0 * 0.0 — an exact 0.0.
    return -np.sum(p * np.log2(np.where(counts > 0, p, 1.0)), axis=-1)


def _score_splits(
    left: np.ndarray,
    parent: np.ndarray,
    differs: np.ndarray,
    n_node,
    n_left: np.ndarray,
    n_right: np.ndarray,
    size_ok: np.ndarray,
    parent_impurity,
    criterion: str,
    min_impurity_decrease: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Impurity decrease and masked score of candidate split positions.

    ``left`` holds the left-side class counts of every position (classes on
    the last axis) and ``parent`` the node's counts; ``differs`` marks the
    positions whose value differs from the next one, ``n_left``/``n_right``
    are the side sizes and ``size_ok`` marks the positions whose sides are
    large enough.  Invalid positions score ``-inf``.  Shapes broadcast: one
    node passes ``(k, n - 1)`` positions with scalar node values, a batch
    passes flat positions with per-position node values.
    """
    right = parent - left
    weighted = (
        n_left * _impurity_matrix(left, n_left, criterion)
        + n_right * _impurity_matrix(right, n_right, criterion)
    ) / n_node
    decrease = parent_impurity - weighted
    if criterion == "gain_ratio":
        p_left = n_left / n_node
        p_right = n_right / n_node
        split_info = -(p_left * np.log2(p_left) + p_right * np.log2(p_right))
        score = np.where(split_info > 0, decrease / split_info, 0.0)
    else:
        score = decrease
    valid = differs & size_ok
    valid &= decrease > min_impurity_decrease
    return decrease, np.where(valid, score, -np.inf)


def best_split_stacked(
    X: np.ndarray,
    y: np.ndarray,
    requests: list,
    criterion: str,
    min_samples_leaf: int,
    min_impurity_decrease: float,
    columns: list | None = None,
) -> list[tuple[int, float, float] | None]:
    """Best ``(feature, threshold, decrease)`` of every node in a batch.

    Each request is one node, ``(orders, candidates, counts, impurity)``:
    its ``(F, n)`` sort-order matrix of row ids into ``X``/``y`` (at least
    two), its candidate feature ids (rows of ``orders``), its class counts
    and its impurity.  ``columns[b]``, when given and not ``None``, maps
    request ``b``'s feature ids to columns of ``X`` (a tree grown on a
    feature subspace); the returned features stay request-local.

    Every (node, candidate) pair is one row of sorted values and labels.  A
    batch lays its rows end to end, unpadded, so each node costs only its
    own size: one cumulative sum over the ``(L, C)`` one-hot labels of all
    rows, less each row's starting prefix, gives the left-side class counts
    at every position, and one impurity pass scores them, with node size,
    parent counts and parent impurity as per-position values.  Each row's
    last position (nothing on the right) is masked.  A per-row first
    maximum, then the first maximum over each node's rows, keeps the tie
    rule of a strict ``score > best`` loop over candidates and positions:
    the earliest candidate (in ``candidates`` order), then the earliest
    position.  A one-node batch skips the layout: it scores its ``(k, n)``
    rows with scalar node values and one row-major ``argmax``, which is the
    same rule.  Rows are scored in chunks of at most
    :data:`DEFAULT_CHUNK_ELEMENTS` one-hot elements (counting every row at
    the longest node's size); a one-node batch carries its first maximum
    across chunks with the same strict ``>``, and a batch's row results do
    not depend on the chunking.
    """
    n_classes = requests[0][2].shape[0]
    one_hot_rows = np.eye(n_classes)
    if columns is None:
        columns = [None] * len(requests)
    if len(requests) == 1:
        orders, candidates, counts, impurity = requests[0]
        n = orders.shape[1]
        if n < 2:
            return [None]
        features = candidates if columns[0] is None else columns[0][candidates]
        parent = counts.astype(np.float64)
        n_left = np.arange(1, n, dtype=np.float64)
        n_right = n - n_left
        size_ok = (n_left >= min_samples_leaf) & (n_right >= min_samples_leaf)
        best: tuple[int, float, float] | None = None
        best_score = -np.inf
        for chunk in query_chunks(candidates.shape[0], n * n_classes):
            rows = orders[candidates[chunk]]
            values = X[rows, features[chunk, None]]
            # Left side of split position i holds sorted samples 0..i.
            left = np.cumsum(one_hot_rows[y[rows]], axis=1)[:, :-1]
            decrease, masked = _score_splits(
                left, parent, values[:, :-1] != values[:, 1:], n, n_left, n_right, size_ok,
                impurity, criterion, min_impurity_decrease,
            )
            r, i = divmod(int(np.argmax(masked)), n - 1)
            if masked[r, i] > best_score:
                best_score = masked[r, i]
                threshold = float((values[r, i] + values[r, i + 1]) / 2.0)
                best = (int(candidates[chunk][r]), threshold, float(decrease[r, i]))
        return [best]
    widths = [request[1].shape[0] for request in requests]
    local = np.concatenate([request[1] for request in requests])
    features = np.concatenate(
        [c if cols is None else cols[c] for (_, c, _, _), cols in zip(requests, columns)]
    )
    ids = np.concatenate([orders[c].ravel() for orders, c, _, _ in requests])
    lengths = np.repeat([request[0].shape[1] for request in requests], widths)
    starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    parent = np.repeat(np.array([request[2] for request in requests], dtype=np.float64),
                       widths, axis=0)
    parent_impurity = np.repeat([request[3] for request in requests], widths)
    row_best = np.empty(local.shape[0])
    threshold = np.empty(local.shape[0])
    decrease_at = np.empty(local.shape[0])
    for rows in query_chunks(local.shape[0], int(lengths.max()) * n_classes):
        size = lengths[rows]
        chunk_ids = ids[starts[rows.start] : starts[rows.stop - 1] + size[-1]]
        values = X[chunk_ids, np.repeat(features[rows], size)]
        # Positions run end to end over the chunk's rows; the last one (the
        # final row's last position) has no successor and is dropped.
        row_starts = starts[rows] - starts[rows.start]
        offset = np.repeat(row_starts, size)[:-1]
        prefix = np.cumsum(one_hot_rows[y[chunk_ids]], axis=0)
        left = prefix[:-1] - np.concatenate((np.zeros((1, n_classes)), prefix))[offset]
        n_node = np.repeat(size.astype(np.float64), size)[:-1]
        # A row's last position repeats its previous one so the arithmetic
        # stays finite; ``position < n_node`` masks it.
        position = np.arange(1.0, left.shape[0] + 1.0) - offset
        n_left = np.minimum(position, n_node - 1)
        n_right = n_node - n_left
        size_ok = (position < n_node) & (n_left >= min_samples_leaf)
        size_ok &= n_right >= min_samples_leaf
        decrease, masked = _score_splits(
            left, np.repeat(parent[rows], size, axis=0)[:-1], values[:-1] != values[1:],
            n_node, n_left, n_right, size_ok,
            np.repeat(parent_impurity[rows], size)[:-1], criterion, min_impurity_decrease,
        )
        row_max = np.maximum.reduceat(masked, row_starts)
        spans = size.copy()
        spans[-1] -= 1
        at = np.minimum.reduceat(
            np.where(masked == np.repeat(row_max, spans), np.arange(masked.shape[0]),
                     masked.shape[0]),
            row_starts,
        )
        row_best[rows] = row_max
        threshold[rows] = (values[at] + values[at + 1]) / 2.0
        decrease_at[rows] = decrease[at]
    node_starts = np.concatenate(([0], np.cumsum(widths)[:-1]))
    node_best = np.maximum.reduceat(row_best, node_starts)
    best_row = np.minimum.reduceat(
        np.where(row_best == np.repeat(node_best, widths), np.arange(local.shape[0]),
                 local.shape[0]),
        node_starts,
    )
    return [
        None if score == -np.inf else (int(local[r]), float(threshold[r]), float(decrease_at[r]))
        for score, r in zip(node_best.tolist(), best_row.tolist())
    ]


def best_split_regression(
    xs: np.ndarray,
    ys: np.ndarray,
    min_samples_leaf: int,
    best_sse: float,
) -> tuple[float, float] | None:
    """Best variance-reduction threshold on one feature (vectorized prefix sums).

    Returns ``(sse, threshold)`` for the first position strictly better than
    ``best_sse``, or ``None`` — the same ``sse < best`` / first-of-equals rule
    as the historical loop.
    """
    n = xs.shape[0]
    min_leaf = max(1, int(min_samples_leaf))
    if n - 2 * min_leaf < 0:
        return None
    csum = np.cumsum(ys)
    csum_sq = np.cumsum(ys**2)
    total, total_sq = csum[-1], csum_sq[-1]
    # Candidate left sizes i in [min_leaf, n - min_leaf], positions i-1 of the
    # prefix arrays; a position is splittable only across distinct values.
    i = np.arange(min_leaf, n - min_leaf + 1)
    valid = xs[i - 1] != xs[np.minimum(i, n - 1)]
    if not valid.any():
        return None
    left_sum, left_sq = csum[i - 1], csum_sq[i - 1]
    right_sum, right_sq = total - left_sum, total_sq - left_sq
    left_term = left_sum * left_sum / i
    right_term = right_sum * right_sum / (n - i)
    sse = (left_sq - left_term) + (right_sq - right_term)
    masked = np.where(valid, sse, np.inf)
    # The historical loop squared ``left_sum``/``right_sum`` as np.float64
    # *scalars*, whose ``**2`` routes through libm pow and can differ by one
    # ulp from the correctly-rounded product the array sweep uses.  After
    # cancellation that ulp can flip a near-tie, so re-score every candidate
    # within the propagated-rounding band of the sweep minimum with the
    # loop's exact scalar expression and pick the first exact minimum.
    tol = 8.0 * (
        np.spacing(np.abs(left_sq) + np.abs(left_term))
        + np.spacing(np.abs(right_sq) + np.abs(right_term))
    )
    band = masked.min() + 2.0 * float(np.where(valid, tol, 0.0).max())
    best_exact = np.inf
    best_pos = -1
    for j in np.flatnonzero(valid & (masked <= band)):
        pos = int(i[j])
        ls, lq = csum[pos - 1], csum_sq[pos - 1]
        rs, rq = total - ls, total_sq - lq
        exact = (lq - ls**2 / pos) + (rq - rs**2 / (n - pos))
        if exact < best_exact:  # strict: earliest position wins exact ties
            best_exact = float(exact)
            best_pos = pos
    if not best_exact < best_sse:
        return None
    return best_exact, float((xs[best_pos - 1] + xs[best_pos]) / 2.0)


# ---------------------------------------------------------------------------
# Flat tree inference
# ---------------------------------------------------------------------------

@dataclass
class FlatTree:
    """A fitted binary tree flattened into arrays for batch inference.

    ``feature[i] < 0`` marks node ``i`` as a leaf; ``prediction[i]`` is the
    leaf payload (a class distribution row, or a 1-vector for regression).
    The layout is the array twin of the export interpreter's node walk.
    """

    feature: np.ndarray  # int64, -1 for leaves
    threshold: np.ndarray  # float64
    left: np.ndarray  # int64 child indices
    right: np.ndarray
    prediction: np.ndarray  # (n_nodes, n_outputs) float64


def flatten_tree(root, n_outputs: int) -> FlatTree:
    """Flatten a ``_Node``-style tree (``feature``/``threshold``/``left``/
    ``right``/``prediction`` attributes) into a :class:`FlatTree`."""
    nodes: list = []
    stack = [root]
    while stack:
        node = stack.pop()
        nodes.append(node)
        if node.feature is not None:
            stack.append(node.right)
            stack.append(node.left)
    index = {id(node): i for i, node in enumerate(nodes)}
    n = len(nodes)
    feature = np.full(n, -1, dtype=np.int64)
    threshold = np.zeros(n, dtype=np.float64)
    left = np.zeros(n, dtype=np.int64)
    right = np.zeros(n, dtype=np.int64)
    prediction = np.zeros((n, n_outputs), dtype=np.float64)
    for i, node in enumerate(nodes):
        prediction[i] = node.prediction
        if node.feature is not None:
            feature[i] = node.feature
            threshold[i] = node.threshold
            left[i] = index[id(node.left)]
            right[i] = index[id(node.right)]
    return FlatTree(feature, threshold, left, right, prediction)


def flat_predict_indices(flat: FlatTree, X: np.ndarray) -> np.ndarray:
    """Leaf index reached by every row of ``X`` — an iterative batch walk.

    Each pass advances every still-internal row one level, so the loop runs
    ``depth`` times over shrinking index sets instead of ``n_rows`` times over
    the tree.  Comparisons are the same ``<=`` as the row walk, so the reached
    leaves are identical.
    """
    node = np.zeros(X.shape[0], dtype=np.int64)
    active = np.flatnonzero(flat.feature[node] >= 0)
    while active.size:
        current = node[active]
        go_left = X[active, flat.feature[current]] <= flat.threshold[current]
        node[active] = np.where(go_left, flat.left[current], flat.right[current])
        active = active[flat.feature[node[active]] >= 0]
    return node


# ---------------------------------------------------------------------------
# Distance kernels
# ---------------------------------------------------------------------------

def pairwise_sq_distances(A: np.ndarray, B: np.ndarray, b2: np.ndarray | None = None) -> np.ndarray:
    """Squared Euclidean distances between rows of ``A`` and rows of ``B``.

    ``b2`` (``Σ B²`` per row) can be precomputed once by callers that chunk
    ``A``; the per-element arithmetic is unchanged from the historical helper.
    """
    a2 = np.sum(A * A, axis=1)[:, None]
    if b2 is None:
        b2 = np.sum(B * B, axis=1)
    d2 = a2 + b2[None, :] - 2.0 * (A @ B.T)
    return np.clip(d2, 0.0, None)


def query_chunks(n_rows: int, n_cols: int, max_elements: int | None = None):
    """Yield ``slice`` objects over query rows bounding ``rows × n_cols``.

    With the default budget a 50k-row predict against a 50k-row training set
    walks ~80 chunks of ~80 rows instead of materialising a 20 GB matrix.
    Inputs that fit the budget yield one full slice, keeping small predicts
    on the exact single-shot path.
    """
    budget = DEFAULT_CHUNK_ELEMENTS if max_elements is None else int(max_elements)
    rows = max(1, budget // max(1, n_cols))
    for start in range(0, n_rows, rows):
        yield slice(start, min(start + rows, n_rows))


def knn_vote(
    labels: np.ndarray,
    weights: np.ndarray,
    n_classes: int,
) -> np.ndarray:
    """Per-row weighted class votes via one flattened ``bincount``.

    ``labels``/``weights`` are ``(n_rows, k)``; ``bincount`` accumulates in
    scan order, i.e. per row in neighbour order — the exact addition sequence
    of the historical ``proba[i, y[j]] += w`` loop, so results are
    bit-identical.
    """
    n_rows, k = labels.shape
    flat = np.arange(n_rows, dtype=np.int64)[:, None] * n_classes + labels
    votes = np.bincount(
        flat.ravel(), weights=weights.ravel(), minlength=n_rows * n_classes
    )
    return votes.reshape(n_rows, n_classes)
