"""Two-layer spectral graph convolution for binary node classification.

Variants
--------
renormalized
    First-order propagation with the renormalized operator
    A^ = D~^(-1/2)(A+I)D~^(-1/2):  scores = A^ relu(A^ X W0) W1.
chebyshev
    Polynomial filters of order k over the rescaled Laplacian: each
    layer sums per-order terms sum_j T_j(L~) H W_j before the
    nonlinearity, with one weight block per order.

Training is full-batch gradient descent on cross-entropy weighted by
inverse class frequency; all gradients are analytic (the tests check
them against central finite differences). Multiple snapshot graphs are
combined block-diagonally into one disconnected graph per step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import MalformedArtefact, NonFiniteLoss
from .graph_ops import (
    EdgeOperator,
    chebyshev_basis,
    normalized_laplacian,
    renormalize_adjacency,
    scale_laplacian,
    union_matrices,
)

N_INPUT = 8
N_CLASSES = 2

VARIANT_RENORMALIZED = "renormalized"
VARIANT_CHEBYSHEV = "chebyshev"
_VARIANTS = (VARIANT_RENORMALIZED, VARIANT_CHEBYSHEV)


@dataclass
class TrainConfig:
    variant: str = VARIANT_RENORMALIZED
    k: int = 1
    hidden: int = 16
    learning_rate: float = 0.01
    epochs: int = 200
    seed: int = 0
    weighted_adjacency: bool = False

    def __post_init__(self):
        if self.variant not in _VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.variant == VARIANT_RENORMALIZED and self.k != 1:
            raise ValueError("the renormalized variant is first-order (k=1)")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.hidden < 1:
            raise ValueError(f"hidden size must be >= 1, got {self.hidden}")
        if self.epochs < 0 or self.learning_rate < 0:
            raise ValueError("epochs and learning_rate must be >= 0")


@dataclass
class GcnModel:
    variant: str
    k: int
    hidden: int
    seed: int
    w0: list[np.ndarray]  # input->hidden, one block per polynomial order
    w1: list[np.ndarray]  # hidden->output blocks

    @property
    def n_blocks(self) -> int:
        return len(self.w0)


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    scale = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-scale, scale, size=(fan_in, fan_out))


def _n_blocks(config: TrainConfig) -> int:
    """Weight blocks per layer: one, or one per polynomial order 0..k."""
    return 1 if config.variant == VARIANT_RENORMALIZED else config.k + 1


def init_model(config: TrainConfig) -> GcnModel:
    rng = np.random.default_rng(config.seed)
    blocks = _n_blocks(config)
    w0 = [_glorot(rng, N_INPUT, config.hidden) for _ in range(blocks)]
    w1 = [_glorot(rng, config.hidden, N_CLASSES) for _ in range(blocks)]
    return GcnModel(variant=config.variant, k=config.k, hidden=config.hidden,
                    seed=config.seed, w0=w0, w1=w1)


def build_operator(a: EdgeOperator, variant: str) -> EdgeOperator:
    """The propagation operator from an adjacency: A^ (renormalized) or L~ (chebyshev)."""
    if variant == VARIANT_RENORMALIZED:
        return renormalize_adjacency(a)
    return scale_laplacian(normalized_laplacian(a))


def _softmax(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _log_softmax(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def propagate(model: GcnModel, operator: EdgeOperator, x: np.ndarray) -> list[np.ndarray]:
    """One input per weight block: [A^ x], or [T_0(L~) x, ..., T_k(L~) x].

    Applied to the features, this is the first layer's input basis; it
    does not depend on the weights, so `train` computes it once.
    """
    if model.variant == VARIANT_RENORMALIZED:
        return [operator @ x]
    return chebyshev_basis(operator, x, model.k)


def _forward(model: GcnModel, operator: EdgeOperator, basis: list[np.ndarray]):
    """Per-node class scores (n x 2) from the input basis, and what backward needs."""
    z1 = sum(b @ w for b, w in zip(basis, model.w0))
    h_basis = propagate(model, operator, np.maximum(z1, 0.0))
    scores = sum(b @ w for b, w in zip(h_basis, model.w1))
    return scores, (z1, h_basis)


def forward(model: GcnModel, operator: EdgeOperator, features: np.ndarray):
    """Per-node class scores (n x 2) and softmax probabilities."""
    scores, _ = _forward(model, operator, propagate(model, operator, features))
    return scores, _softmax(scores)


def inverse_frequency_weights(labels: np.ndarray) -> tuple[float, float]:
    """n / (2 * count_c) per class; a balanced dataset gives (1, 1)."""
    counts = np.bincount(labels, minlength=N_CLASSES)
    n = len(labels)
    return tuple(n / (N_CLASSES * max(int(c), 1)) for c in counts[:N_CLASSES])


def loss_and_grads(model: GcnModel, operator: EdgeOperator, basis: list[np.ndarray],
                   labels: np.ndarray, class_weights: tuple[float, float]):
    """Class-weighted cross-entropy and analytic parameter gradients.

    `basis` is `propagate(model, operator, features)`.

    loss = sum_i w_{y_i} * (-log p_{i, y_i}) / sum_i w_{y_i}
    """
    n = len(labels)
    rows = np.arange(n)
    sample_w = np.asarray(class_weights, dtype=float)[labels]
    total_w = sample_w.sum()

    scores, (z1, h_basis) = _forward(model, operator, basis)
    log_p = _log_softmax(scores)
    loss = float(-(sample_w * log_p[rows, labels]).sum() / total_w)

    d_scores = np.exp(log_p)
    d_scores[rows, labels] -= 1.0
    d_scores *= (sample_w / total_w)[:, None]

    gw1 = [b.T @ d_scores for b in h_basis]
    # A^ and each T_j(L~) are symmetric, so the adjoint of a propagation
    # is the same propagation of the upstream gradient
    dh = sum(g @ w.T for g, w in zip(propagate(model, operator, d_scores), model.w1))
    dz1 = dh * (z1 > 0.0)
    gw0 = [b.T @ dz1 for b in basis]
    return loss, gw0, gw1


def train(graphs, config: TrainConfig):
    """Full-batch gradient descent from `init_model(config)`; returns (model, losses)."""
    if not graphs:
        raise ValueError("need at least one training graph")
    if any(g.n_nodes == 0 for g in graphs):
        raise ValueError("training graphs must be non-empty")
    a, x, y = union_matrices(graphs, weighted=config.weighted_adjacency)
    operator = build_operator(a, config.variant)
    class_weights = inverse_frequency_weights(y)
    model = init_model(config)
    basis = propagate(model, operator, x)

    losses: list[float] = []
    for epoch in range(config.epochs):
        loss, gw0, gw1 = loss_and_grads(model, operator, basis, y, class_weights)
        if not np.isfinite(loss):
            raise NonFiniteLoss(epoch)
        losses.append(loss)
        for w, g in zip(model.w0, gw0):
            w -= config.learning_rate * g
        for w, g in zip(model.w1, gw1):
            w -= config.learning_rate * g
        if not all(np.isfinite(w).all() for w in model.w0 + model.w1):
            raise NonFiniteLoss(epoch)
    return model, losses


@dataclass
class EvalMetrics:
    accuracy: float
    precision: tuple[float, float]  # per class; 0.0 when undefined
    recall: tuple[float, float]
    balanced_accuracy: float
    n_nodes: int

    def as_dict(self) -> dict[str, float]:
        return {
            "accuracy": self.accuracy,
            "precision_normal": self.precision[0],
            "precision_attack": self.precision[1],
            "recall_normal": self.recall[0],
            "recall_attack": self.recall[1],
            "balanced_accuracy": self.balanced_accuracy,
            "n_nodes": self.n_nodes,
        }


def evaluate(model: GcnModel, graphs, *, weighted: bool = False) -> EvalMetrics:
    """Metrics over the disconnected union of the given graphs.

    Balanced accuracy averages recall over the classes present in the
    labels; per-class precision/recall report 0.0 when undefined.
    """
    a, x, y = union_matrices(graphs, weighted=weighted)
    operator = build_operator(a, model.variant)
    _, probs = forward(model, operator, x)
    predicted = probs.argmax(axis=1)

    precision, recall, present_recalls = [], [], []
    for c in range(N_CLASSES):
        tp = int(np.sum((predicted == c) & (y == c)))
        fp = int(np.sum((predicted == c) & (y != c)))
        fn = int(np.sum((predicted != c) & (y == c)))
        precision.append(tp / (tp + fp) if tp + fp else 0.0)
        recall.append(tp / (tp + fn) if tp + fn else 0.0)
        if np.any(y == c):
            present_recalls.append(recall[-1])
    return EvalMetrics(
        accuracy=float(np.mean(predicted == y)) if len(y) else 0.0,
        precision=(precision[0], precision[1]),
        recall=(recall[0], recall[1]),
        balanced_accuracy=float(np.mean(present_recalls)) if present_recalls else 0.0,
        n_nodes=len(y),
    )


def save_model(path, model: GcnModel) -> None:
    """Plain-text export: header lines, then row-major weight blocks."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("gcn-model v1\n")
        fh.write(f"variant {model.variant}\n")
        fh.write(f"k {model.k}\n")
        fh.write(f"hidden {model.hidden}\n")
        fh.write(f"seed {model.seed}\n")
        fh.write(f"blocks {model.n_blocks}\n")
        for name, blocks in (("w0", model.w0), ("w1", model.w1)):
            for j, w in enumerate(blocks):
                fh.write(f"{name} {j} {w.shape[0]} {w.shape[1]}\n")
                for row in w:
                    fh.write(" ".join(repr(float(v)) for v in row) + "\n")


def load_model(path) -> GcnModel:
    """The model `save_model` wrote to `path`.

    Raises ValueError when the first line is not the model header, and
    MalformedArtefact naming `path` when the file is empty, cut short,
    or otherwise not in the layout `save_model` writes, when `TrainConfig`
    refuses its variant, k or hidden, and unless each layer has the
    blocks `init_model` makes for them: 1 (renormalized) or k + 1
    (chebyshev), of shape (8, hidden) in w0 and (hidden, 2) in w1.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    lines = text.split("\n")
    if text and lines[0] != "gcn-model v1":
        raise ValueError(f"{path}: not a model file: {lines[0]!r}")
    try:
        if not text.endswith("\n"):
            raise ValueError("no newline at end of file" if text else "empty file")
        lines.pop()
        header = dict(ln.split(" ", 1) for ln in lines[1:6])
        config = TrainConfig(variant=header["variant"], k=int(header["k"]),
                             hidden=int(header["hidden"]))
        n_blocks = int(header["blocks"])
        if n_blocks != _n_blocks(config):
            raise ValueError(f"a {config.variant} model with k {config.k} has "
                             f"{_n_blocks(config)} blocks per layer, not {n_blocks}")
        at = 6
        blocks: dict[str, list[np.ndarray]] = {"w0": [], "w1": []}
        for _ in range(2 * n_blocks):
            name, _, rows, cols = lines[at].split()
            rows, cols = int(rows), int(cols)
            data = [ln.split() for ln in lines[at + 1:at + 1 + rows]]
            blocks[name].append(np.array(data, dtype=np.float64).reshape(rows, cols))
            at += 1 + rows
        if at != len(lines):
            raise ValueError(f"line {at + 1} follows the last weight block")
        for name, shape in (("w0", (N_INPUT, config.hidden)), ("w1", (config.hidden, N_CLASSES))):
            if len(blocks[name]) != n_blocks or any(w.shape != shape for w in blocks[name]):
                raise ValueError(f"expected {n_blocks} {name} blocks of shape {shape}")
        return GcnModel(variant=config.variant, k=config.k, hidden=config.hidden,
                        seed=int(header["seed"]), w0=blocks["w0"], w1=blocks["w1"])
    except (ValueError, KeyError, IndexError) as exc:
        raise MalformedArtefact(f"{path}: not the layout save_model writes "
                                f"({type(exc).__name__}: {exc})") from None


def write_loss_trace_csv(path, losses: list[float]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("epoch,loss\n")
        for epoch, loss in enumerate(losses):
            fh.write(f"{epoch},{loss!r}\n")
