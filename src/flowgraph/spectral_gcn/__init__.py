"""Spectral graph convolution for node-behaviour classification."""

from .model import (
    VARIANT_CHEBYSHEV,
    VARIANT_RENORMALIZED,
    TrainConfig,
    evaluate,
    load_model,
    save_model,
    train,
    write_loss_trace_csv,
    write_metrics_csv,
)
