"""Dense rank-4 tensor primitives with hand-written backward passes."""

from .conv import (
    Conv2dContext,
    ConvSpec,
    ShapeError,
    conv2d_backward,
    conv2d_forward,
)
from .gradcheck import grad_check, relative_error
from .layers import (
    BatchNorm,
    Conv2d,
    Parameter,
    PReLU,
    add_residual,
    concat_channels,
    split_channels,
)

__all__ = [
    "BatchNorm",
    "Conv2d",
    "Conv2dContext",
    "ConvSpec",
    "Parameter",
    "PReLU",
    "ShapeError",
    "add_residual",
    "concat_channels",
    "conv2d_backward",
    "conv2d_forward",
    "grad_check",
    "relative_error",
    "split_channels",
]
