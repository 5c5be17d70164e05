"""Two-layer spectral graph convolution for binary node classification.

Variants
--------
renormalized
    First-order propagation with the renormalized operator
    A^ = D~^(-1/2)(A+I)D~^(-1/2):  scores = A^ (relu(A^ X W0) W1).
chebyshev
    Polynomial filters of order k over the rescaled Laplacian, one
    weight block per order: H = relu(sum_j T_j(L~) X W0_j), and
    scores = sum_j T_j(L~) (H W1_j), summed by Clenshaw's recurrence.

Each layer holds its weight blocks stacked in one array and applies them
in one product, and the second propagates the two columns of H W1, not
the hidden layer.

Training is EPOCHS steps of full-batch gradient descent, of size
LEARNING_RATE, on cross-entropy weighted by inverse class frequency;
all gradients are analytic (the tests check them against central
finite differences). Multiple snapshot graphs are combined
block-diagonally into one disconnected graph per step.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, fields

import numpy as np

from ..behavior_graph import N_FEATURES
from ..errors import MalformedArtefact, NonFiniteLoss, require_integers
from .graph_ops import (
    EdgeOperator,
    chebyshev_basis,
    chebyshev_series,
    normalized_laplacian,
    renormalize_adjacency,
    scale_laplacian,
    union_matrices,
)

N_CLASSES = 2
# both variants train with the settings of Kipf & Welling (ICLR 2017, arXiv 1609.02907)
HIDDEN = 16
LEARNING_RATE = 0.01
EPOCHS = 200

VARIANT_RENORMALIZED = "renormalized"
VARIANT_CHEBYSHEV = "chebyshev"
_VARIANTS = (VARIANT_RENORMALIZED, VARIANT_CHEBYSHEV)


@dataclass
class TrainConfig:
    variant: str = VARIANT_RENORMALIZED
    k: int | None = None  # None: 1 for renormalized, 3 for chebyshev
    seed: int = 0

    def __post_init__(self):
        if self.variant not in _VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.k is None:
            self.k = 1 if self.variant == VARIANT_RENORMALIZED else 3
        require_integers(self, "k", "seed")
        if self.variant == VARIANT_RENORMALIZED and self.k != 1:
            raise ValueError("the renormalized variant is first-order (k=1)")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass
class GcnModel:
    config: TrainConfig
    w0: np.ndarray  # input->hidden (blocks*8, 16): one 8-row block per polynomial order
    w1: np.ndarray  # hidden->output (16, blocks*2): one 2-column block per order


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    scale = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-scale, scale, size=(fan_in, fan_out))


def _n_blocks(config: TrainConfig) -> int:
    """Weight blocks per layer: one, or one per polynomial order 0..k."""
    return 1 if config.variant == VARIANT_RENORMALIZED else config.k + 1


def init_model(config: TrainConfig) -> GcnModel:
    rng = np.random.default_rng(config.seed)
    blocks = _n_blocks(config)
    w0 = np.concatenate([_glorot(rng, N_FEATURES, HIDDEN) for _ in range(blocks)])
    w1 = np.concatenate([_glorot(rng, HIDDEN, N_CLASSES) for _ in range(blocks)], axis=1)
    return GcnModel(config, w0, w1)


def build_operator(a: EdgeOperator, variant: str) -> EdgeOperator:
    """The propagation operator from an adjacency: A^ (renormalized) or L~ (chebyshev)."""
    if variant == VARIANT_RENORMALIZED:
        return renormalize_adjacency(a)
    return scale_laplacian(normalized_laplacian(a))


def _softmax(scores: np.ndarray) -> np.ndarray:
    shifted = scores - np.maximum(scores[:, 0], scores[:, 1])[:, None]
    e = np.exp(shifted)
    return e / (e[:, 0] + e[:, 1])[:, None]


def _log_softmax(scores: np.ndarray) -> np.ndarray:
    shifted = scores - np.maximum(scores[:, 0], scores[:, 1])[:, None]
    e = np.exp(shifted)
    return shifted - np.log(e[:, 0] + e[:, 1])[:, None]


def propagate(model: GcnModel, operator: EdgeOperator, x: np.ndarray) -> np.ndarray:
    """A^ x, or T_0(L~) x, ..., T_k(L~) x side by side: a column block per weight block.

    Applied to the features, this is the first layer's input basis; it
    does not depend on the weights, so `train` computes it once.
    """
    if model.config.variant == VARIANT_RENORMALIZED:
        return operator @ x
    return np.concatenate(chebyshev_basis(operator, x, model.config.k), axis=1)


def _class_blocks(m: np.ndarray) -> list[np.ndarray]:
    """m's columns, N_CLASSES at a time: one block per second-layer weight block."""
    return [m[:, j:j + N_CLASSES] for j in range(0, m.shape[1], N_CLASSES)]


def _forward(model: GcnModel, operator: EdgeOperator, basis: np.ndarray):
    """Per-node class scores (n x 2) from the input basis, and what backward needs."""
    z1 = basis @ model.w0
    h = np.maximum(z1, 0.0)
    if model.config.variant == VARIANT_RENORMALIZED:
        return operator @ (h @ model.w1), (z1, h)
    return chebyshev_series(operator, _class_blocks(h @ model.w1)), (z1, h)


def forward(model: GcnModel, operator: EdgeOperator, features: np.ndarray):
    """Per-node class scores (n x 2) and softmax probabilities."""
    scores, _ = _forward(model, operator, propagate(model, operator, features))
    return scores, _softmax(scores)


def inverse_frequency_weights(labels: np.ndarray) -> tuple[float, float]:
    """n / (2 * count_c) per class; a balanced dataset gives (1, 1)."""
    counts = np.bincount(labels, minlength=N_CLASSES)
    n = len(labels)
    return tuple(n / (N_CLASSES * max(int(c), 1)) for c in counts[:N_CLASSES])


def loss_and_grads(model: GcnModel, operator: EdgeOperator, basis: np.ndarray,
                   labels: np.ndarray, class_weights: tuple[float, float]):
    """Class-weighted cross-entropy and its analytic gradients, shaped as w0 and w1.

    `basis` is `propagate(model, operator, features)`.

    loss = sum_i w_{y_i} * (-log p_{i, y_i}) / sum_i w_{y_i}
    """
    n = len(labels)
    rows = np.arange(n)
    sample_w = np.asarray(class_weights, dtype=float)[labels]
    total_w = sample_w.sum()

    scores, (z1, h) = _forward(model, operator, basis)
    log_p = _log_softmax(scores)
    loss = float(-(sample_w * log_p[rows, labels]).sum() / total_w)

    d_scores = np.exp(log_p)
    d_scores[rows, labels] -= 1.0
    d_scores *= (sample_w / total_w)[:, None]

    # A^ and each T_j(L~) are symmetric, so the adjoint of a propagation
    # is the same propagation of the upstream gradient: T_j d_scores
    # gives both gw1_j = H^T (T_j d_scores) and the hidden layer's gradient
    d_basis = propagate(model, operator, d_scores)
    dz1 = (d_basis @ model.w1.T) * (z1 > 0.0)
    return loss, basis.T @ dz1, h.T @ d_basis


def train(graphs, config: TrainConfig):
    """EPOCHS steps of size LEARNING_RATE from `init_model(config)`; returns (model, losses)."""
    if any(g.n_nodes == 0 for g in graphs):
        raise ValueError("training graphs must be non-empty")
    a, x, y = union_matrices(graphs)
    operator = build_operator(a, config.variant)
    class_weights = inverse_frequency_weights(y)
    model = init_model(config)
    basis = propagate(model, operator, x)

    losses: list[float] = []
    for epoch in range(EPOCHS):
        loss, gw0, gw1 = loss_and_grads(model, operator, basis, y, class_weights)
        if not np.isfinite(loss):
            raise NonFiniteLoss(epoch)
        losses.append(loss)
        model.w0 -= LEARNING_RATE * gw0
        model.w1 -= LEARNING_RATE * gw1
        if not (np.isfinite(model.w0).all() and np.isfinite(model.w1).all()):
            raise NonFiniteLoss(epoch)
    return model, losses


@dataclass
class EvalMetrics:
    """One evaluation; its fields, in order, are the columns of metrics.csv after `snapshot`."""

    accuracy: float
    precision_normal: float
    precision_attack: float
    recall_normal: float
    recall_attack: float
    balanced_accuracy: float
    n_nodes: int


def evaluate(model: GcnModel, graphs) -> EvalMetrics:
    """Metrics over the disconnected union of the given graphs.

    Balanced accuracy averages recall over the classes present in the
    labels; per-class precision/recall report 0.0 when undefined.
    """
    a, x, y = union_matrices(graphs)
    operator = build_operator(a, model.config.variant)
    _, probs = forward(model, operator, x)
    predicted = probs.argmax(axis=1)

    table = np.bincount(N_CLASSES * y + predicted, minlength=N_CLASSES ** 2)
    table = table.reshape(N_CLASSES, N_CLASSES)  # [true class, predicted class]
    tp, labeled, called = (v.tolist() for v in (table.diagonal(), table.sum(1), table.sum(0)))
    precision = [t / c if c else 0.0 for t, c in zip(tp, called)]
    recall = [t / c if c else 0.0 for t, c in zip(tp, labeled)]
    present_recalls = [r for r, c in zip(recall, labeled) if c]
    return EvalMetrics(float(np.mean(predicted == y)) if len(y) else 0.0, *precision, *recall,
                       float(np.mean(present_recalls)) if present_recalls else 0.0, len(y))


def _render(model: GcnModel) -> str:
    """A model file's text: the header lines, then each layer's weight blocks, rows in order."""
    config, blocks = model.config, _n_blocks(model.config)
    lines = ["gcn-model v1", f"variant {config.variant}", f"k {config.k}", f"hidden {HIDDEN}",
             f"seed {config.seed}", f"blocks {blocks}"]
    for name, layer in (("w0", np.split(model.w0, blocks)),
                        ("w1", np.split(model.w1, blocks, axis=1))):
        for j, w in enumerate(layer):
            lines.append(f"{name} {j} {w.shape[0]} {w.shape[1]}")
            lines += (" ".join(repr(float(v)) for v in row) for row in w)
    return "\n".join(lines) + "\n"


def save_model(path, model: GcnModel) -> None:
    """Plain-text export: header lines, then row-major weight blocks, w0's then w1's."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_render(model))


def load_model(path) -> GcnModel:
    """The model `save_model` wrote to `path`, with the `TrainConfig` its header names.

    Raises ValueError when the first line is not the model header, and
    MalformedArtefact naming `path` when the file is empty, cut short,
    or not exactly the text `save_model` writes for the model it parses
    to (naming the first line that differs): when `TrainConfig` refuses
    the variant, k or seed (naming its line), the line count does not
    fit the 1 block (renormalized) or k + 1 (chebyshev) per layer of
    that config, a header line or a row does not parse (naming its line:
    a row must be its block's width of numbers), a number is not spelled
    as `repr` spells it, or a weight is not finite (`train` saves no
    `nan` or `inf`).
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
        settings = {}
        # hidden and blocks follow from the config; the text check below reads them
        for at, line in enumerate(lines[1:6], 2):
            try:
                name, value = line.split(" ", 1)
                if name in ("variant", "k", "seed"):  # checked as read, to name the line
                    settings[name] = value if name == "variant" else int(value)
                    TrainConfig(**settings)
            except ValueError as exc:
                raise ValueError(f"line {at}: {exc}") from None
        config = TrainConfig(**settings)
        blocks = _n_blocks(config)
        w0_end, end = 6 + blocks * (1 + N_FEATURES), 6 + blocks * (2 + N_FEATURES + HIDDEN)
        if len(lines) != end:
            raise ValueError(f"{len(lines)} lines, not the {end} of {config}")
        layers = []
        # each block is its block line, then its rows: N_FEATURES in w0, HIDDEN in w1
        for start, stop, height, width in ((6, w0_end, N_FEATURES, HIDDEN),
                                           (w0_end, end, HIDDEN, N_CLASSES)):
            rows = [(at + 1, lines[at].split()) for at in range(start, stop)
                    if (at - start) % (1 + height)]
            values = []
            for line, row in rows:
                if len(row) != width:
                    raise ValueError(f"line {line} holds {len(row)} numbers, not {width}")
                try:
                    values.append([float(v) for v in row])
                except ValueError as exc:
                    raise ValueError(f"line {line}: {exc}") from None
            layers.append(np.array(values, dtype=np.float64))
        w0, w1 = layers
        model = GcnModel(config, w0, np.concatenate(np.split(w1, blocks), axis=1))
        for at, (got, want) in enumerate(zip(lines, _render(model).split("\n"))):
            if got != want:
                raise ValueError(f"line {at + 1} reads {got!r}, where save_model writes {want!r}")
        if not (np.isfinite(model.w0).all() and np.isfinite(model.w1).all()):
            raise ValueError("a weight that is not finite")
        return model
    except (ValueError, KeyError) as exc:
        raise MalformedArtefact(f"{path}: not the layout save_model writes "
                                f"({type(exc).__name__}: {exc})") from None


def write_loss_trace_csv(path, losses: list[float]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("epoch,loss\n")
        for epoch, loss in enumerate(losses):
            fh.write(f"{epoch},{loss!r}\n")


def write_metrics_csv(path, model: GcnModel, graphs) -> None:
    """metrics.csv: a row per graph, named by its snapshot index, then a `union` row
    evaluating them together; the header line alone when `graphs` is empty."""
    rows = [(g.snapshot.index, [g]) for g in graphs]
    if graphs:
        rows.append(("union", graphs))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(("snapshot", *(f.name for f in fields(EvalMetrics)))) + "\n")
        for name, split in rows:
            fh.write(",".join((str(name), *map(repr, astuple(evaluate(model, split))))) + "\n")
