from .autograd import Tensor, asarray, default_dtype, float64_mode
from .nn import (
    BlockLayout,
    block_cross_entropy,
    block_softmax,
    conv2d,
    gap_masked,
    linear,
    maxpool2x2,
    mse,
    relu,
)
from .optim import sgd_nesterov_step

__all__ = [
    "Tensor",
    "asarray",
    "default_dtype",
    "float64_mode",
    "BlockLayout",
    "block_cross_entropy",
    "block_softmax",
    "conv2d",
    "gap_masked",
    "linear",
    "maxpool2x2",
    "mse",
    "relu",
    "sgd_nesterov_step",
]
