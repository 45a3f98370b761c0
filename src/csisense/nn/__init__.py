"""Hand-written sequence-labeling layers with explicit backward passes.

The sequence layers take batches shaped (B, T, features) in the dtype of
their store: float64 to train, float32 for an inference model loaded from a
bundle.  They check neither shape nor dtype: the model's forward checks and
casts its input once (``SequenceClassifier.forward_logits``), and the
layers rely on that check and on the widths the model wires them with.  No
autodiff framework is involved.  A layer with weights keeps its ``params``
and ``grads`` as named views into a :class:`ParamStore`, its model's or its
own; ``backward`` consumes the upstream gradient, accumulates parameter
gradients, and returns the input gradient.  Only ``forward(x,
training=True)`` keeps activations: what its ``backward`` reads and then
clears.  An inference forward keeps nothing past the call.  Layers with
weights draw them from their ``rng`` argument; without one the weights stay
at zero and nothing is drawn, for parameters that are loaded next.
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
from .optim import Adam

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
    "cross_entropy",
    "cross_entropy_logit_grad",
    "glorot_uniform",
    "grad_check",
    "orthogonal",
    "positional_encoding",
    "relu",
    "softmax",
]
