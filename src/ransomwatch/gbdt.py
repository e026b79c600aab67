"""Gradient-boosted regression trees built from scratch.

Split finding minimizes the squared-error objective over candidate
(feature, threshold) pairs, evaluated through its sum-of-squares
decomposition with one sorted sweep per feature. Boosting fits each tree to
the negative gradient of the logistic loss; leaf weights take the
regularized Newton optimum -G/(H+lambda), and split gains at or below gamma
are pruned to leaves.
"""
from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from pathlib import Path
from typing import Sequence, Union

import numpy as np

from .features import DEFAULT_EMBEDDING_DIMS, DEFAULT_HASH_SEED, BadDim, check_dims, check_hash_seed

MODEL_MAGIC = b"RWF1"
MODEL_VERSION = 1


class NoValidSplit(ValueError):
    """All rows identical on every candidate feature."""


class SingleClass(ValueError):
    """Training needs both classes present."""


class WidthMismatch(ValueError):
    """Feature row width differs from the training width."""


class CorruptModel(ValueError):
    """Model file failed magic, version, checksum, embedding-width or node-table validation."""


@dataclass(frozen=True, slots=True)
class BestSplit:
    feature: int
    threshold: float
    gain: float


def best_split(X: np.ndarray, response: np.ndarray, min_leaf: int = 1) -> BestSplit:
    """Best (feature, threshold) by squared-error reduction, one sweep per feature.

    Thresholds are midpoints of adjacent sorted values; ties break toward the
    lower feature index, then the lower threshold. The gain is the parent SSE
    minus the children SSE (non-negative; zero for e.g. constant responses).
    Raises NoValidSplit when no feature separates the rows.
    """
    m, n = X.shape
    if m < 2 or n == 0 or m < 2 * min_leaf:
        raise NoValidSplit("not enough rows or features")
    order = np.argsort(X, axis=0, kind="stable")
    xs = np.take_along_axis(X, order, axis=0)
    ys = response[order]
    csum = np.cumsum(ys, axis=0)
    total = float(response.sum())
    left_counts = np.arange(1, m, dtype=np.float64)[:, None]
    right_counts = m - left_counts
    left_sums = csum[:-1, :]
    right_sums = total - left_sums
    term = left_sums**2 / left_counts + right_sums**2 / right_counts
    valid = xs[1:, :] > xs[:-1, :]
    if min_leaf > 1:
        ok = (left_counts >= min_leaf) & (right_counts >= min_leaf)
        valid = valid & ok
    term = np.where(valid, term, -np.inf)
    flat = np.ascontiguousarray(term.T).reshape(-1)
    best = int(np.argmax(flat))
    if flat[best] == -np.inf:
        raise NoValidSplit("rows are identical on all candidate features")
    col, pos = divmod(best, m - 1)
    lo, hi = float(xs[pos, col]), float(xs[pos + 1, col])
    threshold = lo + (hi - lo) / 2.0
    if not (lo <= threshold < hi):
        threshold = lo
    gain = float(flat[best]) - total * total / m
    return BestSplit(col, threshold, gain)


@dataclass(frozen=True, slots=True)
class BoostParams:
    n_trees: int = 100
    eta: float = 0.1
    max_depth: int = 4
    min_leaf: int = 5  # keeps trees off single-window hash-noise splits
    gamma: float = 0.0
    lambda_: float = 1.0

    def __post_init__(self) -> None:
        for name in ("n_trees", "max_depth", "min_leaf"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        if not (math.isfinite(self.eta) and self.eta >= 0):
            raise ValueError(f"eta must be finite and at least 0, got {self.eta}")
        if not self.lambda_ >= 0:
            raise ValueError(f"lambda_ must be at least 0, got {self.lambda_}")
        for name in ("gamma", "lambda_"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")


# A tree as parallel arrays (features, values, lefts, rights), root at slot 0.
# A leaf has feature -1 and its weight as value; an internal node has its
# threshold as value and the slots of its children in lefts and rights. Nodes
# are in preorder: each node precedes its children and the left subtree
# precedes the right one, so a left child sits in the slot after its parent.
# Internal nodes route a row left when x[feature] <= threshold.
FlatTree = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def grow_tree(
    X: np.ndarray,
    grad: np.ndarray,
    hess: np.ndarray,
    params: BoostParams = BoostParams(),
) -> tuple[FlatTree, np.ndarray]:
    """Recursive tree generation on gradient statistics, straight into a FlatTree.

    Stopping rules: identical responses (pure node), no usable feature or
    identical rows, depth/min-leaf limits, and split gain <= gamma. Leaf
    weight is the regularized optimum -G/(H+lambda); with unit hessians and
    lambda=0 that reduces to the mean residual. Of ``params`` it reads
    max_depth, min_leaf, gamma and lambda_, which BoostParams has validated.
    Returns the tree and the leaf weight of each row of X, recorded as the
    row is placed in its leaf, so boosting walks no tree it has grown.
    """
    nodes: list[list] = []  # [feature, value, left, right] per slot
    weights = np.empty(X.shape[0], dtype=np.float64)

    def build(idx: np.ndarray, depth: int) -> None:
        response = -grad[idx]
        split = None
        if float(response.max()) != float(response.min()) and depth < params.max_depth:
            try:
                split = best_split(X[idx], response, params.min_leaf)
            except NoValidSplit:
                pass
        if split is None or split.gain <= params.gamma:
            g, h = float(grad[idx].sum()), float(hess[idx].sum())
            weights[idx] = weight = -g / (h + params.lambda_)
            nodes.append([-1, weight, -1, -1])
            return
        slot = len(nodes)
        nodes.append([split.feature, split.threshold, slot + 1, -1])
        mask = X[idx, split.feature] <= split.threshold
        build(idx[mask], depth + 1)
        nodes[slot][3] = len(nodes)
        build(idx[~mask], depth + 1)

    build(np.arange(X.shape[0]), 0)
    features, values, lefts, rights = zip(*nodes)
    return (
        np.asarray(features, dtype=np.int32),
        np.asarray(values, dtype=np.float64),
        np.asarray(lefts, dtype=np.int32),
        np.asarray(rights, dtype=np.int32),
    ), weights


# One node of the model file, packed as struct "<BHdhh": leaf flag, feature,
# value, left, right. A leaf is written with feature 0 and children -1.
_NODE = np.dtype([("leaf", "u1"), ("feature", "<u2"), ("value", "<f8"), ("left", "<i2"), ("right", "<i2")])
_HEADER = struct.Struct("<HHQH4d")


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


@dataclass
class BoostedForest:
    """Trained ensemble plus the embedding contract it was fitted against.

    Prediction is sigmoid(base_score + eta * sum of tree outputs). The hash
    seed and embedding width travel with the model so feature rows built at
    inference time match the training layout.
    """

    trees: tuple[FlatTree, ...]
    eta: float
    gamma: float
    lambda_: float
    base_score: float
    n_features: int
    dims: int = DEFAULT_EMBEDDING_DIMS
    hash_seed: int = DEFAULT_HASH_SEED

    @cached_property
    def _list_trees(self):
        """``trees`` as Python lists, which predict_row indexes faster than arrays."""
        return [tuple(a.tolist() for a in flat) for flat in self.trees]

    def _check_width(self, width: int) -> None:
        if width != self.n_features:
            raise WidthMismatch(f"expected {self.n_features} features, got {width}")

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Probabilities for a batch of rows, each scored by predict_row."""
        return np.array([self.predict_row(row) for row in np.atleast_2d(X)], dtype=np.float64)

    def predict_row(self, row: Union[np.ndarray, Sequence[float]]) -> float:
        """Probability for a single row; the low-latency path and the one tree walk."""
        row = np.asarray(row, dtype=np.float64)
        self._check_width(row.shape[-1])
        x = row.tolist()
        eta = self.eta
        z = self.base_score
        for features, values, lefts, rights in self._list_trees:
            node = 0
            feature = features[0]
            while feature >= 0:
                node = lefts[node] if x[feature] <= values[node] else rights[node]
                feature = features[node]
            z += eta * values[node]
        return float(_sigmoid(z))

    # -- serialization ------------------------------------------------------

    def to_bytes(self) -> bytes:
        out = bytearray(MODEL_MAGIC)
        out += struct.pack("<B", MODEL_VERSION)
        out += _HEADER.pack(
            self.n_features,
            self.dims,
            self.hash_seed,
            len(self.trees),
            self.eta,
            self.base_score,
            self.gamma,
            self.lambda_,
        )
        for features, values, lefts, rights in self.trees:
            if len(features) > 1 << 15:
                raise ValueError(f"a tree of {len(features)} nodes does not fit the model format")
            table = np.rec.fromarrays((features < 0, np.maximum(features, 0), values, lefts, rights), dtype=_NODE)
            out += struct.pack("<H", len(table))
            out += table.tobytes()
        out += hashlib.sha256(bytes(out)).digest()
        return bytes(out)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "BoostedForest":
        if len(blob) < 4 + 1 + _HEADER.size + 32:
            raise CorruptModel("model file truncated")
        body, digest = blob[:-32], blob[-32:]
        if body[:4] != MODEL_MAGIC:
            raise CorruptModel("not a ransomwatch model file")
        version = body[4]
        if version != MODEL_VERSION:
            raise CorruptModel(f"unsupported model version {version}; this build reads version {MODEL_VERSION}")
        if hashlib.sha256(body).digest() != digest:
            raise CorruptModel("checksum mismatch; file corrupt or truncated")
        n_features, dims, hash_seed, n_trees, eta, base, gamma, lambda_ = _HEADER.unpack_from(body, 5)
        try:
            check_dims(dims)
        except BadDim as exc:
            raise CorruptModel(str(exc)) from exc
        # The tree sizes first, then every node of every tree checked at once:
        # each internal node must name a feature below n_features and two
        # children later in its own tree, as the preorder layout of grow_tree
        # places them, so every walk from the root ends at a leaf; each leaf
        # weight must be finite. The trees are slices of four forest-wide arrays.
        sizes, chunks, offset = [], [], 5 + _HEADER.size
        for _ in range(n_trees):
            n_nodes = int.from_bytes(body[offset : offset + 2], "little")
            start, offset = offset + 2, offset + 2 + n_nodes * _NODE.itemsize
            if n_nodes == 0 or offset > len(body):
                raise CorruptModel("tree data empty or truncated")
            sizes.append(n_nodes)
            chunks.append(body[start:offset])
        if offset != len(body):
            raise CorruptModel("trailing bytes after tree data")
        if not (math.isfinite(eta) and math.isfinite(base)):
            raise CorruptModel(f"eta ({eta}) and base score ({base}) must be finite")
        table = np.frombuffer(b"".join(chunks), _NODE)
        ends = list(accumulate(sizes))
        starts = [0, *ends[:-1]]
        n = np.repeat(sizes, sizes)  # the size of each node's tree
        slots = np.arange(len(table)) - np.repeat(starts, sizes)  # each node's slot in its tree
        leaf = table["leaf"] == 1
        features = table["feature"].astype(np.int32)
        features[leaf] = -1
        values = table["value"].copy()
        lefts, rights = table["left"].astype(np.int32), table["right"].astype(np.int32)
        out_of_range = (features >= n_features) | (lefts <= slots) | (rights <= slots) | (lefts >= n) | (rights >= n)
        bad = np.where(leaf, ~np.isfinite(values), out_of_range)
        if bad.any():
            first = int(bad.argmax())
            fault = "a leaf weight that is not finite" if leaf[first] else "a feature or child index out of range"
            raise CorruptModel(f"node {int(slots[first])} has {fault}")
        trees = tuple((features[a:b], values[a:b], lefts[a:b], rights[a:b]) for a, b in zip(starts, ends))
        return cls(trees, eta, gamma, lambda_, base, n_features, dims, hash_seed)

    def save(self, path: Union[str, Path]) -> None:
        Path(path).write_bytes(self.to_bytes())

    @classmethod
    def load(cls, path: Union[str, Path]) -> "BoostedForest":
        return cls.from_bytes(Path(path).read_bytes())


def fit(
    X: np.ndarray,
    y: np.ndarray,
    params: BoostParams = BoostParams(),
    dims: int = DEFAULT_EMBEDDING_DIMS,
    hash_seed: int = DEFAULT_HASH_SEED,
) -> BoostedForest:
    """Boost n_trees regression trees on logistic-loss gradient statistics.

    Deterministic given data and parameters. Raises ValueError unless every
    label is 0 or 1, SingleClass unless both occur, and BadDim or ValueError
    unless ``dims`` and ``hash_seed`` are values that a model file holds.
    """
    check_dims(dims)
    check_hash_seed(hash_seed)
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or y.shape != X.shape[:1]:
        raise ValueError("X must be 2-D with one label per row")
    other = y[(y != 0.0) & (y != 1.0)]
    if other.size:
        raise ValueError(f"training labels must be 0 or 1, got {other[0]:g}")
    pos = float(y.mean())
    if pos == 0.0 or pos == 1.0:
        raise SingleClass("training labels contain a single class")
    base = math.log(pos / (1.0 - pos))
    margin = np.full(X.shape[0], base, dtype=np.float64)
    trees: list[FlatTree] = []
    for _ in range(params.n_trees):
        prob = _sigmoid(margin)
        grad = prob - y
        hess = np.maximum(prob * (1.0 - prob), 1e-16)
        tree, weights = grow_tree(X, grad, hess, params)
        trees.append(tree)
        margin += params.eta * weights
    return BoostedForest(
        trees=tuple(trees),
        eta=params.eta,
        gamma=params.gamma,
        lambda_=params.lambda_,
        base_score=base,
        n_features=X.shape[1],
        dims=dims,
        hash_seed=hash_seed,
    )
