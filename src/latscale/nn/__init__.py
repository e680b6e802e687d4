from . import autodiff
from .autodiff import Tensor
from .layers import (
    Adam,
    GateAddNorm,
    Grn,
    InterpretableAttention,
    Linear,
    LstmCell,
    ParamStore,
    causal_mask,
)

__all__ = [
    "Adam",
    "GateAddNorm",
    "Grn",
    "InterpretableAttention",
    "Linear",
    "LstmCell",
    "ParamStore",
    "Tensor",
    "autodiff",
    "causal_mask",
]
