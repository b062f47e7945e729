"""Neural-network layers built on top of :mod:`repro.nn.tensor`.

The layer set covers everything used by the original Pensieve architecture
(dense layers and 1-D convolutions) plus the architectural variations the
paper reports LLMs proposing (recurrent layers, shared trunks, alternative
activations and widths).
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from . import init as initializers
from .activations import get_activation
from .tensor import Tensor, unfold1d

__all__ = [
    "Module",
    "Parameter",
    "Dense",
    "Conv1D",
    "GRUCell",
    "LSTMCell",
    "RNNCell",
    "Recurrent",
    "Flatten",
    "Dropout",
    "Sequential",
    "LayerNorm",
]


class Parameter(Tensor):
    """A tensor that is registered as a trainable parameter of a module."""

    def __init__(self, data: np.ndarray, name: str = "") -> None:
        super().__init__(data, requires_grad=True, name=name)
        #: Bumped on every optimizer step / state load; lets inference caches
        #: (e.g. the compiler's folded Pensieve branch bank) detect weight
        #: changes cheaply.
        self.version = 0


class Module:
    """Base class for all layers and models.

    Subclasses register :class:`Parameter` instances and child modules as
    attributes; :meth:`parameters` walks the tree to collect every trainable
    tensor, which is what optimizers consume.
    """

    def __init__(self) -> None:
        self._training = True

    # -- forward ---------------------------------------------------------
    def forward(self, *inputs: Tensor) -> Tensor:  # pragma: no cover - abstract
        raise NotImplementedError

    def __call__(self, *inputs: Tensor) -> Tensor:
        return self.forward(*inputs)

    # -- parameter management -------------------------------------------
    def parameters(self) -> List[Parameter]:
        """Return all trainable parameters in this module and its children."""
        params: List[Parameter] = []
        seen: set[int] = set()
        for value in self.__dict__.values():
            self._collect(value, params, seen)
        return params

    def _collect(self, value, params: List[Parameter], seen: set) -> None:
        if isinstance(value, Parameter):
            if id(value) not in seen:
                seen.add(id(value))
                params.append(value)
        elif isinstance(value, Module):
            for p in value.parameters():
                if id(p) not in seen:
                    seen.add(id(p))
                    params.append(p)
        elif isinstance(value, (list, tuple)):
            for item in value:
                self._collect(item, params, seen)
        elif isinstance(value, dict):
            for item in value.values():
                self._collect(item, params, seen)

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    # -- train / eval ----------------------------------------------------
    def train(self) -> "Module":
        self._set_mode(True)
        return self

    def eval(self) -> "Module":
        self._set_mode(False)
        return self

    def _set_mode(self, training: bool) -> None:
        self._training = training
        for value in self.__dict__.values():
            if isinstance(value, Module):
                value._set_mode(training)
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        item._set_mode(training)

    # -- state dict ------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Return a flat mapping of parameter values keyed by path."""
        state: Dict[str, np.ndarray] = {}
        self._state_into(state, prefix="")
        return state

    def _state_into(self, state: Dict[str, np.ndarray], prefix: str) -> None:
        for key, value in self.__dict__.items():
            path = f"{prefix}{key}"
            if isinstance(value, Parameter):
                state[path] = value.data.copy()
            elif isinstance(value, Module):
                value._state_into(state, prefix=f"{path}.")
            elif isinstance(value, (list, tuple)):
                for index, item in enumerate(value):
                    if isinstance(item, Parameter):
                        state[f"{path}.{index}"] = item.data.copy()
                    elif isinstance(item, Module):
                        item._state_into(state, prefix=f"{path}.{index}.")

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Load parameter values saved by :meth:`state_dict`."""
        current = self.state_dict()
        missing = set(current) - set(state)
        if missing:
            raise KeyError(f"state dict missing keys: {sorted(missing)}")
        self._load_from(state, prefix="")

    def _load_from(self, state: Dict[str, np.ndarray], prefix: str) -> None:
        for key, value in self.__dict__.items():
            path = f"{prefix}{key}"
            if isinstance(value, Parameter):
                if path in state:
                    value.data = np.asarray(state[path], dtype=value.data.dtype).reshape(value.data.shape)
                    value.version = getattr(value, "version", 0) + 1
            elif isinstance(value, Module):
                value._load_from(state, prefix=f"{path}.")
            elif isinstance(value, (list, tuple)):
                for index, item in enumerate(value):
                    if isinstance(item, Parameter):
                        item_path = f"{path}.{index}"
                        if item_path in state:
                            item.data = np.asarray(state[item_path], dtype=item.data.dtype).reshape(item.data.shape)
                            item.version = getattr(item, "version", 0) + 1
                    elif isinstance(item, Module):
                        item._load_from(state, prefix=f"{path}.{index}.")


class Dense(Module):
    """Fully connected layer: ``y = activation(x @ W + b)``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        activation: Optional[str] = None,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(initializers.xavier_uniform((in_features, out_features), rng=rng),
                                name="dense.weight")
        self.bias = Parameter(np.zeros(out_features), name="dense.bias") if bias else None
        # "custom" marks a callable activation the kernel compiler cannot
        # lower; it keeps the network on the autograd graph path.
        self.activation_name = (activation if isinstance(activation, str) or activation is None
                                else "custom")
        self.activation = get_activation(activation)

    def forward(self, x: Tensor) -> Tensor:
        out = x.matmul(self.weight)
        if self.bias is not None:
            out = out + self.bias
        return self.activation(out)


class Conv1D(Module):
    """1-D convolution over the last axis of a ``(batch, channels, length)`` input.

    Pensieve applies 1-D convolutions over the history of throughput samples,
    download times and next-chunk sizes; this layer reproduces that behaviour.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        activation: Optional[str] = None,
        stride: int = 1,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.weight = Parameter(
            initializers.xavier_uniform((out_channels, in_channels, kernel_size), rng=rng),
            name="conv1d.weight",
        )
        self.bias = Parameter(np.zeros(out_channels), name="conv1d.bias") if bias else None
        self.activation_name = (activation if isinstance(activation, str) or activation is None
                                else "custom")
        self.activation = get_activation(activation)

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim == 2:
            # Interpret (batch, length) as a single input channel.
            x = x.reshape(x.shape[0], 1, x.shape[1])
        batch, channels, length = x.shape
        if channels != self.in_channels:
            raise ValueError(
                f"Conv1D expected {self.in_channels} channels, got {channels}"
            )
        kernel = self.kernel_size
        if length < kernel:
            raise ValueError(
                f"Conv1D input length {length} is shorter than kernel size {kernel}"
            )
        # im2col: build a (batch, positions, channels * kernel) view of the input
        # and express the convolution as a single matrix multiplication so the
        # autograd graph stays small.
        stacked = unfold1d(x, kernel, self.stride)  # (batch, positions, channels*kernel)
        flat_weight = Tensor(self.weight.data.reshape(self.out_channels, channels * kernel))
        flat_weight.requires_grad = self.weight.requires_grad

        # Re-route gradients of the reshaped weight back into the parameter.
        weight_param = self.weight

        def weight_backward(grad: np.ndarray) -> None:
            weight_param._accumulate(grad.reshape(weight_param.data.shape))

        flat_weight._parents = (weight_param,)
        flat_weight._backward = weight_backward

        out = stacked.matmul(flat_weight.transpose())  # (batch, positions, out_channels)
        out = out.transpose(0, 2, 1)  # (batch, out_channels, positions)
        if self.bias is not None:
            out = out + self.bias.reshape(1, self.out_channels, 1)
        return self.activation(out)


class RNNCell(Module):
    """Vanilla (Elman) recurrent cell with a tanh nonlinearity."""

    def __init__(self, input_size: int, hidden_size: int,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.w_ih = Parameter(initializers.xavier_uniform((input_size, hidden_size), rng=rng))
        self.w_hh = Parameter(initializers.orthogonal((hidden_size, hidden_size), rng=rng))
        self.bias = Parameter(np.zeros(hidden_size))

    def forward(self, x: Tensor, hidden: Tensor) -> Tensor:
        return (x.matmul(self.w_ih) + hidden.matmul(self.w_hh) + self.bias).tanh()

    def initial_state(self, batch: int) -> Tensor:
        return Tensor(np.zeros((batch, self.hidden_size)))


class GRUCell(Module):
    """Gated recurrent unit cell."""

    def __init__(self, input_size: int, hidden_size: int,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.w_ih = Parameter(initializers.xavier_uniform((input_size, 3 * hidden_size), rng=rng))
        self.w_hh = Parameter(initializers.orthogonal((hidden_size, 3 * hidden_size), rng=rng))
        self.bias = Parameter(np.zeros(3 * hidden_size))

    def forward(self, x: Tensor, hidden: Tensor) -> Tensor:
        h = self.hidden_size
        gates_x = x.matmul(self.w_ih) + self.bias
        gates_h = hidden.matmul(self.w_hh)
        reset = (gates_x[:, 0:h] + gates_h[:, 0:h]).sigmoid()
        update = (gates_x[:, h:2 * h] + gates_h[:, h:2 * h]).sigmoid()
        candidate = (gates_x[:, 2 * h:3 * h] + reset * gates_h[:, 2 * h:3 * h]).tanh()
        one = Tensor(np.ones_like(update.data))
        return update * hidden + (one - update) * candidate

    def initial_state(self, batch: int) -> Tensor:
        return Tensor(np.zeros((batch, self.hidden_size)))


class LSTMCell(Module):
    """Long short-term memory cell (returns the new hidden and cell states)."""

    def __init__(self, input_size: int, hidden_size: int,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.w_ih = Parameter(initializers.xavier_uniform((input_size, 4 * hidden_size), rng=rng))
        self.w_hh = Parameter(initializers.orthogonal((hidden_size, 4 * hidden_size), rng=rng))
        self.bias = Parameter(np.zeros(4 * hidden_size))

    def forward(self, x: Tensor, hidden: Tensor, cell: Tensor) -> tuple[Tensor, Tensor]:
        h = self.hidden_size
        gates = x.matmul(self.w_ih) + hidden.matmul(self.w_hh) + self.bias
        input_gate = gates[:, 0:h].sigmoid()
        forget_gate = gates[:, h:2 * h].sigmoid()
        candidate = gates[:, 2 * h:3 * h].tanh()
        output_gate = gates[:, 3 * h:4 * h].sigmoid()
        new_cell = forget_gate * cell + input_gate * candidate
        new_hidden = output_gate * new_cell.tanh()
        return new_hidden, new_cell

    def initial_state(self, batch: int) -> tuple[Tensor, Tensor]:
        zeros = np.zeros((batch, self.hidden_size))
        return Tensor(zeros.copy()), Tensor(zeros.copy())


class Recurrent(Module):
    """Runs a recurrent cell over a ``(batch, channels, length)`` sequence.

    The sequence axis is the last axis to match the layout Conv1D uses, which
    lets generated architectures swap a Conv1D for an RNN/GRU/LSTM without
    reshaping the state.  Returns the final hidden state ``(batch, hidden)``.
    """

    def __init__(self, input_size: int, hidden_size: int, cell_type: str = "lstm",
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        cell_type = cell_type.lower()
        if cell_type == "lstm":
            self.cell: Module = LSTMCell(input_size, hidden_size, rng=rng)
        elif cell_type == "gru":
            self.cell = GRUCell(input_size, hidden_size, rng=rng)
        elif cell_type in ("rnn", "simple"):
            self.cell = RNNCell(input_size, hidden_size, rng=rng)
        else:
            raise ValueError(f"unknown recurrent cell type: {cell_type!r}")
        self.cell_type = cell_type
        self.hidden_size = hidden_size

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim == 2:
            x = x.reshape(x.shape[0], 1, x.shape[1])
        batch, channels, length = x.shape
        if self.cell_type == "lstm":
            hidden, cell = self.cell.initial_state(batch)
        else:
            hidden = self.cell.initial_state(batch)
        for step in range(length):
            step_input = x[:, :, step]
            if self.cell_type == "lstm":
                hidden, cell = self.cell(step_input, hidden, cell)
            else:
                hidden = self.cell(step_input, hidden)
        return hidden


class Flatten(Module):
    """Flattens all but the batch dimension."""

    def forward(self, x: Tensor) -> Tensor:
        batch = x.shape[0]
        return x.reshape(batch, -1)


class Dropout(Module):
    """Inverted dropout; identity in evaluation mode."""

    def __init__(self, rate: float = 0.5, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise ValueError("dropout rate must be in [0, 1)")
        self.rate = rate
        self._rng = rng if rng is not None else np.random.default_rng()

    def forward(self, x: Tensor) -> Tensor:
        if not self._training or self.rate == 0.0:
            return x
        mask = (self._rng.random(x.shape) >= self.rate) / (1.0 - self.rate)
        return x * Tensor(mask)


class LayerNorm(Module):
    """Layer normalization over the last dimension."""

    def __init__(self, normalized_shape: int, eps: float = 1e-5) -> None:
        super().__init__()
        self.eps = eps
        self.gamma = Parameter(np.ones(normalized_shape))
        self.beta = Parameter(np.zeros(normalized_shape))

    def forward(self, x: Tensor) -> Tensor:
        mean = x.mean(axis=-1, keepdims=True)
        centered = x - mean
        variance = (centered * centered).mean(axis=-1, keepdims=True)
        normalized = centered / (variance + self.eps).sqrt()
        return normalized * self.gamma + self.beta


class Sequential(Module):
    """Container applying modules in order."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self.modules = list(modules)

    def append(self, module: Module) -> "Sequential":
        self.modules.append(module)
        return self

    def forward(self, x: Tensor) -> Tensor:
        for module in self.modules:
            x = module(x)
        return x

    def __iter__(self):
        return iter(self.modules)

    def __len__(self) -> int:
        return len(self.modules)
