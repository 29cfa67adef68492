"""Unrolled trainable network mirroring the iterative block solver."""

from .conv import conv2d_backward, conv2d_forward, glorot_uniform
from .network import Tape, backward, forward
from .params import (
    NetConfig,
    NetParams,
    TrainConfig,
    init_params,
    load_checkpoint,
    param_count,
    save_checkpoint,
)
from .train import Adam, evaluate_mae, mae, train

__all__ = [
    "Adam",
    "NetConfig",
    "NetParams",
    "Tape",
    "TrainConfig",
    "backward",
    "conv2d_backward",
    "conv2d_forward",
    "evaluate_mae",
    "forward",
    "glorot_uniform",
    "init_params",
    "load_checkpoint",
    "mae",
    "param_count",
    "save_checkpoint",
    "train",
]
