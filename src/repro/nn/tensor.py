"""Reverse-mode automatic differentiation over NumPy arrays.

This module provides the :class:`Tensor` class, a thin wrapper around a NumPy
array that records the operations applied to it and can back-propagate
gradients through the resulting computation graph.  It supports the operations
needed by the actor-critic networks used in this reproduction (dense layers,
1-D convolutions, recurrent cells, softmax policies) as well as arbitrary
architectures produced by the LLM design generator.

The design intentionally mirrors small educational autograd engines: each
``Tensor`` stores its value, an optional gradient, the parent tensors it was
derived from and a local backward function.  Calling :meth:`Tensor.backward`
performs a topological sort of the graph and accumulates gradients.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np

from .engine import get_default_dtype

ArrayLike = Union[np.ndarray, float, int, list, tuple, "Tensor"]

__all__ = [
    "Tensor",
    "tensor",
    "zeros",
    "ones",
    "randn",
    "batched_matmul",
    "concatenate",
    "stack",
    "no_grad",
    "is_grad_enabled",
]


_GRAD_ENABLED = True


class no_grad:
    """Context manager that disables gradient tracking.

    Used during evaluation rollouts where only forward passes are needed,
    which keeps memory usage flat during long simulations.
    """

    def __enter__(self) -> "no_grad":
        global _GRAD_ENABLED
        self._previous = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._previous


def is_grad_enabled() -> bool:
    """Return whether gradient tracking is currently enabled."""
    return _GRAD_ENABLED


def _as_array(value: ArrayLike) -> np.ndarray:
    if isinstance(value, Tensor):
        return value.data
    return np.asarray(value, dtype=get_default_dtype())


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``grad`` so that it matches ``shape`` (inverse of broadcasting)."""
    if grad.shape == shape:
        return grad
    # Sum over leading dimensions that were added by broadcasting.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum over axes that were broadcast from size 1.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    """A NumPy-backed tensor with reverse-mode autodiff support."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "name")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        parents: Sequence["Tensor"] = (),
        backward: Optional[Callable[[np.ndarray], None]] = None,
        name: str = "",
    ) -> None:
        self.data = np.asarray(data, dtype=get_default_dtype())
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED
        self._parents = tuple(parents) if self.requires_grad or parents else ()
        self._backward = backward
        self.name = name

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag})"

    def item(self) -> float:
        return float(self.data)

    def numpy(self) -> np.ndarray:
        return self.data

    def detach(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------ #
    # Graph construction helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        requires = _GRAD_ENABLED and any(p.requires_grad for p in parents)
        if not requires:
            return Tensor(data)
        return Tensor(data, requires_grad=True, parents=parents, backward=backward)

    def _accumulate(self, grad: np.ndarray) -> None:
        grad = _unbroadcast(np.asarray(grad, dtype=get_default_dtype()),
                            self.data.shape)
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad = self.grad + grad

    # ------------------------------------------------------------------ #
    # Arithmetic
    # ------------------------------------------------------------------ #
    def __add__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(_as_array(other))
        out_data = self.data + other_t.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad)
            if other_t.requires_grad:
                other_t._accumulate(grad)

        return Tensor._make(out_data, (self, other_t), backward)

    def __radd__(self, other: ArrayLike) -> "Tensor":
        return self.__add__(other)

    def __neg__(self) -> "Tensor":
        out_data = -self.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(-grad)

        return Tensor._make(out_data, (self,), backward)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(_as_array(other))
        out_data = self.data - other_t.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad)
            if other_t.requires_grad:
                other_t._accumulate(-grad)

        return Tensor._make(out_data, (self, other_t), backward)

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return Tensor(_as_array(other)).__sub__(self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(_as_array(other))
        out_data = self.data * other_t.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * other_t.data)
            if other_t.requires_grad:
                other_t._accumulate(grad * self.data)

        return Tensor._make(out_data, (self, other_t), backward)

    def __rmul__(self, other: ArrayLike) -> "Tensor":
        return self.__mul__(other)

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(_as_array(other))
        out_data = self.data / other_t.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad / other_t.data)
            if other_t.requires_grad:
                other_t._accumulate(-grad * self.data / (other_t.data ** 2))

        return Tensor._make(out_data, (self, other_t), backward)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return Tensor(_as_array(other)).__truediv__(self)

    def __pow__(self, exponent: float) -> "Tensor":
        out_data = self.data ** exponent

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return Tensor._make(out_data, (self,), backward)

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        return self.matmul(other)

    def matmul(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(_as_array(other))
        out_data = self.data @ other_t.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                if other_t.data.ndim == 1:
                    self._accumulate(np.outer(grad, other_t.data)
                                     if self.data.ndim == 2 else grad * other_t.data)
                else:
                    self._accumulate(grad @ other_t.data.swapaxes(-1, -2))
            if other_t.requires_grad:
                if self.data.ndim == 1:
                    other_t._accumulate(np.outer(self.data, grad)
                                        if other_t.data.ndim == 2 else grad * self.data)
                else:
                    other_t._accumulate(self.data.swapaxes(-1, -2) @ grad)

        return Tensor._make(out_data, (self, other_t), backward)

    # ------------------------------------------------------------------ #
    # Elementwise functions
    # ------------------------------------------------------------------ #
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * out_data)

        return Tensor._make(out_data, (self,), backward)

    def log(self) -> "Tensor":
        out_data = np.log(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad / self.data)

        return Tensor._make(out_data, (self,), backward)

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * (1.0 - out_data ** 2))

        return Tensor._make(out_data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * out_data * (1.0 - out_data))

        return Tensor._make(out_data, (self,), backward)

    def relu(self) -> "Tensor":
        mask = self.data > 0
        out_data = self.data * mask

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * mask)

        return Tensor._make(out_data, (self,), backward)

    def leaky_relu(self, negative_slope: float = 0.01) -> "Tensor":
        mask = self.data > 0
        out_data = np.where(mask, self.data, negative_slope * self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * np.where(mask, 1.0, negative_slope))

        return Tensor._make(out_data, (self,), backward)

    def elu(self, alpha: float = 1.0) -> "Tensor":
        mask = self.data > 0
        exp_part = alpha * (np.exp(np.minimum(self.data, 0.0)) - 1.0)
        out_data = np.where(mask, self.data, exp_part)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * np.where(mask, 1.0, exp_part + alpha))

        return Tensor._make(out_data, (self,), backward)

    def abs(self) -> "Tensor":
        out_data = np.abs(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * np.sign(self.data))

        return Tensor._make(out_data, (self,), backward)

    def clip(self, low: float, high: float) -> "Tensor":
        out_data = np.clip(self.data, low, high)
        mask = (self.data >= low) & (self.data <= high)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * mask)

        return Tensor._make(out_data, (self,), backward)

    def sqrt(self) -> "Tensor":
        return self ** 0.5

    # ------------------------------------------------------------------ #
    # Reductions
    # ------------------------------------------------------------------ #
    def sum(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            grad = np.asarray(grad, dtype=get_default_dtype())
            if axis is None:
                self._accumulate(np.full_like(self.data, float(grad)))
            else:
                if not keepdims:
                    grad = np.expand_dims(grad, axis=axis)
                self._accumulate(np.broadcast_to(grad, self.data.shape))

        return Tensor._make(out_data, (self,), backward)

    def mean(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            count = self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            grad = np.asarray(grad, dtype=get_default_dtype())
            if axis is None:
                mask = self.data == out_data
                self._accumulate(mask * float(grad) / mask.sum())
            else:
                expanded = out_data if keepdims else np.expand_dims(out_data, axis=axis)
                g = grad if keepdims else np.expand_dims(grad, axis=axis)
                mask = self.data == expanded
                counts = mask.sum(axis=axis, keepdims=True)
                self._accumulate(mask * g / counts)

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------ #
    # Shape manipulation
    # ------------------------------------------------------------------ #
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(np.asarray(grad).reshape(self.data.shape))

        return Tensor._make(out_data, (self,), backward)

    def flatten(self) -> "Tensor":
        return self.reshape(-1)

    def transpose(self, *axes: int) -> "Tensor":
        axes_tuple = axes if axes else None
        out_data = self.data.transpose(axes_tuple)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            if axes_tuple is None:
                self._accumulate(np.asarray(grad).transpose())
            else:
                inverse = np.argsort(axes_tuple)
                self._accumulate(np.asarray(grad).transpose(inverse))

        return Tensor._make(out_data, (self,), backward)

    def __getitem__(self, index) -> "Tensor":
        out_data = self.data[index]

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                full = np.zeros_like(self.data)
                np.add.at(full, index, grad)
                self._accumulate(full)

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------ #
    # Softmax / log-softmax (stable implementations)
    # ------------------------------------------------------------------ #
    def softmax(self, axis: int = -1) -> "Tensor":
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        exp = np.exp(shifted)
        out_data = exp / exp.sum(axis=axis, keepdims=True)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            grad = np.asarray(grad, dtype=get_default_dtype())
            dot = (grad * out_data).sum(axis=axis, keepdims=True)
            self._accumulate(out_data * (grad - dot))

        return Tensor._make(out_data, (self,), backward)

    def log_softmax(self, axis: int = -1) -> "Tensor":
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        log_sum = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
        out_data = shifted - log_sum
        softmax = np.exp(out_data)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            grad = np.asarray(grad, dtype=get_default_dtype())
            self._accumulate(grad - softmax * grad.sum(axis=axis, keepdims=True))

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------ #
    # Backward pass
    # ------------------------------------------------------------------ #
    def backward(self, grad: Optional[ArrayLike] = None) -> None:
        """Back-propagate gradients from this tensor through the graph."""
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor without gradients")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar tensors")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=get_default_dtype())

        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(grad)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)


# ---------------------------------------------------------------------- #
# Constructors and free functions
# ---------------------------------------------------------------------- #
def tensor(data: ArrayLike, requires_grad: bool = False) -> Tensor:
    """Create a :class:`Tensor` from array-like data."""
    return Tensor(_as_array(data), requires_grad=requires_grad)


def zeros(shape: Union[int, tuple], requires_grad: bool = False) -> Tensor:
    return Tensor(np.zeros(shape, dtype=get_default_dtype()),
                  requires_grad=requires_grad)


def ones(shape: Union[int, tuple], requires_grad: bool = False) -> Tensor:
    return Tensor(np.ones(shape, dtype=get_default_dtype()),
                  requires_grad=requires_grad)


def randn(
    shape: Union[int, tuple],
    scale: float = 1.0,
    requires_grad: bool = False,
    rng: Optional[np.random.Generator] = None,
) -> Tensor:
    generator = rng if rng is not None else np.random.default_rng()
    return Tensor(generator.normal(0.0, scale, size=shape), requires_grad=requires_grad)


def concatenate(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis``, propagating gradients to each input."""
    tensors = [t if isinstance(t, Tensor) else Tensor(_as_array(t)) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        grad = np.asarray(grad, dtype=get_default_dtype())
        for t, start, end in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                slicer = [slice(None)] * grad.ndim
                slicer[axis] = slice(start, end)
                t._accumulate(grad[tuple(slicer)])

    return Tensor._make(out_data, tuple(tensors), backward)


def unfold1d(x: Tensor, kernel_size: int, stride: int = 1) -> Tensor:
    """Extract sliding windows from a ``(batch, channels, length)`` tensor.

    Returns a ``(batch, positions, channels * kernel_size)`` tensor whose rows
    are the flattened convolution patches, i.e. the im2col matrix.  The whole
    extraction is a single autograd node, which keeps Conv1D graphs small.
    """
    if x.ndim != 3:
        raise ValueError("unfold1d expects a (batch, channels, length) tensor")
    batch, channels, length = x.shape
    if length < kernel_size:
        raise ValueError(
            f"unfold1d input length {length} is shorter than kernel {kernel_size}")
    # (batch, channels, positions, kernel) view without copying.
    windows = np.lib.stride_tricks.sliding_window_view(
        x.data, kernel_size, axis=2)[:, :, ::stride]
    positions = windows.shape[2]
    out_data = np.ascontiguousarray(
        windows.transpose(0, 2, 1, 3)).reshape(batch, positions, channels * kernel_size)

    def backward(grad: np.ndarray) -> None:
        if not x.requires_grad:
            return
        grad = np.asarray(grad, dtype=get_default_dtype())
        patches = grad.reshape(batch, positions, channels, kernel_size)
        full = np.zeros_like(x.data)
        starts = np.arange(positions) * stride
        # Kernel sizes are small (<= history length), so scatter per tap.
        for tap in range(kernel_size):
            full[:, :, starts + tap] += patches[:, :, :, tap].transpose(0, 2, 1)
        x._accumulate(full)

    return Tensor._make(out_data, (x,), backward)


def stack(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis, propagating gradients to each input."""
    tensors = [t if isinstance(t, Tensor) else Tensor(_as_array(t)) for t in tensors]
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray) -> None:
        grad = np.asarray(grad, dtype=get_default_dtype())
        for index, t in enumerate(tensors):
            if t.requires_grad:
                t._accumulate(np.take(grad, index, axis=axis))

    return Tensor._make(out_data, tuple(tensors), backward)

def batched_matmul(a: np.ndarray, b: np.ndarray,
                   out: Optional[np.ndarray] = None) -> np.ndarray:
    """Batched GEMM over raw NumPy arrays: ``(S, m, k) @ (S, k, n) -> (S, m, n)``.

    This is the 3-D kernel behind the multi-seed lockstep trainer: the leading
    axis indexes independent training sessions whose weight matrices are
    stacked, and one call resolves every session's GEMM.  NumPy dispatches the
    2-D core of ``matmul`` to BLAS per slice, so each slice of the result is
    bit-identical to computing ``a[s] @ b[s]`` on its own (asserted by the
    seed-for-seed equivalence suite) — stacking changes dispatch overhead, not
    arithmetic.

    Raw ndarrays in, raw ndarray out: this helper exists for the analytic
    fused kernels, which deliberately bypass the autograd graph.
    """
    if a.ndim != 3 or b.ndim != 3:
        raise ValueError(
            f"batched_matmul expects 3-D stacks, got {a.ndim}-D @ {b.ndim}-D")
    if a.shape[0] != b.shape[0] or a.shape[2] != b.shape[1]:
        raise ValueError(
            f"batched_matmul shape mismatch: {a.shape} @ {b.shape}")
    return np.matmul(a, b, out=out)
