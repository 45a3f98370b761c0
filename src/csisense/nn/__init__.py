"""Hand-written sequence-labeling layers with explicit backward passes.

Everything operates on float64 arrays shaped (T, features) or batched
(B, T, features); no autodiff framework is involved.  A layer with weights
keeps its ``params`` and ``grads`` as named views into a :class:`ParamStore`,
its model's or its own; ``backward`` consumes the upstream gradient,
accumulates parameter gradients, and returns the input gradient.  Only
``forward(x, training=True)`` keeps activations: what its ``backward`` reads
and then clears.  An inference forward keeps nothing past the call.  Layers
with weights draw them from their ``rng`` argument; without one the weights
stay at zero and nothing is drawn, for parameters that are loaded next.
"""

from .gradcheck import grad_check
from .gru import BiGru, Gru
from .layers import (
    AddPositional,
    Concat,
    Dense,
    Dropout,
    MultiHeadSelfAttention,
    ParamStore,
    WeightedSkipAdd,
    glorot_uniform,
    orthogonal,
    positional_encoding,
    relu,
    softmax,
)
from .losses import cross_entropy, cross_entropy_logit_grad
from .optim import Adam, adam_step, early_stopping, reduce_lr_on_plateau

__all__ = [
    "Adam",
    "AddPositional",
    "BiGru",
    "Concat",
    "Dense",
    "Dropout",
    "Gru",
    "MultiHeadSelfAttention",
    "ParamStore",
    "WeightedSkipAdd",
    "adam_step",
    "cross_entropy",
    "cross_entropy_logit_grad",
    "early_stopping",
    "glorot_uniform",
    "grad_check",
    "orthogonal",
    "positional_encoding",
    "reduce_lr_on_plateau",
    "relu",
    "softmax",
]
