"""NumPy-based neural-network substrate (autograd, layers, optimizers).

This package replaces the TensorFlow dependency of the original Pensieve
implementation with a small, dependency-free reverse-mode autodiff engine and
the layers needed both by the original actor-critic architecture and by the
architecture variants the LLM design generator produces.
"""

from .activations import (
    ACTIVATIONS,
    elu,
    get_activation,
    leaky_relu,
    linear,
    log_softmax,
    relu,
    sigmoid,
    softmax,
    softplus,
    tanh,
)
from .layers import (
    Conv1D,
    Dense,
    Dropout,
    Flatten,
    GRUCell,
    LayerNorm,
    LSTMCell,
    Module,
    Parameter,
    Recurrent,
    RNNCell,
    Sequential,
)
from .losses import (
    binary_cross_entropy,
    cross_entropy,
    entropy,
    huber_loss,
    mse_loss,
    policy_gradient_loss,
)
from . import engine
from .compile import (CompileError, CompiledPlan, CompiledSeedStack,
                      CompiledSequence, SeedParameterStack, lower_sequence,
                      plan_for)
from .engine import (EngineConfig, compilation_enabled, default_dtype,
                     get_default_dtype, set_compilation, set_default_dtype)
from .optim import (Adam, Optimizer, RMSProp, SGD, StackedAdam,
                    StackedRMSProp, StackedSGD, clip_grad_norm,
                    clip_grad_norm_stacked)
from .serialization import load_module, load_state, save_module, save_state
from .tensor import (
    Tensor,
    batched_matmul,
    concatenate,
    is_grad_enabled,
    no_grad,
    ones,
    randn,
    stack,
    tensor,
    unfold1d,
    zeros,
)

__all__ = [
    # tensor
    "Tensor", "tensor", "zeros", "ones", "randn", "batched_matmul",
    "concatenate", "stack",
    "unfold1d", "no_grad", "is_grad_enabled",
    # engine
    "engine", "EngineConfig", "set_default_dtype", "get_default_dtype",
    "default_dtype", "compilation_enabled", "set_compilation",
    # layers
    "Module", "Parameter", "Dense", "Conv1D", "GRUCell", "LSTMCell", "RNNCell",
    "Recurrent", "Flatten", "Dropout", "Sequential", "LayerNorm",
    # activations
    "relu", "leaky_relu", "elu", "tanh", "sigmoid", "softmax", "log_softmax",
    "linear", "softplus", "get_activation", "ACTIVATIONS",
    # losses
    "mse_loss", "huber_loss", "binary_cross_entropy", "cross_entropy",
    "policy_gradient_loss", "entropy",
    # optim
    "Optimizer", "SGD", "RMSProp", "Adam",
    "StackedSGD", "StackedRMSProp", "StackedAdam",
    "clip_grad_norm", "clip_grad_norm_stacked",
    # compile
    "CompileError", "CompiledPlan", "CompiledSeedStack", "CompiledSequence",
    "SeedParameterStack", "plan_for", "lower_sequence",
    # serialization
    "save_state", "load_state", "save_module", "load_module",
]
