"""Spectral graph convolution for node-behaviour classification."""

from .graph_ops import (
    EdgeOperator,
    chebyshev_basis,
    lambda_max,
    normalized_laplacian,
    renormalize_adjacency,
    scale_laplacian,
    union_matrices,
)
from .model import (
    EPOCHS,
    HIDDEN,
    LEARNING_RATE,
    N_CLASSES,
    N_INPUT,
    VARIANT_CHEBYSHEV,
    VARIANT_RENORMALIZED,
    EvalMetrics,
    GcnModel,
    TrainConfig,
    build_operator,
    evaluate,
    forward,
    init_model,
    inverse_frequency_weights,
    load_model,
    loss_and_grads,
    propagate,
    save_model,
    train,
    write_loss_trace_csv,
)
