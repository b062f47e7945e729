"""Fused-kernel compiler: the one fast engine for every actor-critic network.

The repository's fast engines — the inference path behind
:meth:`~repro.abr.networks.ActorCriticNetwork.policy_probs` and the stacked
training engine behind :class:`~repro.rl.a2c.MultiSeedA2CTrainer` (one seed
or many) — run on the kernels planned here, for the original Pensieve network (its per-row Conv1D/Dense branch
bank folded into one GEMM, paper Figure 2) and for *any* network assembled
from the design-space vocabulary (``Dense``, ``Conv1D``, ``Flatten``,
``LayerNorm``, ``Dropout``, ``Recurrent`` rnn/gru/lstm cells, ``Sequential``
containers), which is what the LLM design generator emits.

The compiler is a *kernel planner*: it walks a network's module tree and
emits a :class:`CompiledPlan` of primitive ops, each of which implements

* a pure-NumPy **forward** that caches the activations the backward needs,
* an analytic **backward** that writes parameter gradients into persistent,
  preallocated ``out=`` buffers, and
* a **stacked** variant of both operating on ``(seeds, batch, ...)`` arrays
  against ``(seeds, *shape)`` stacked weights (3-D GEMMs resolve each seed
  with the same BLAS calls the serial path makes).

Every kernel mirrors the autograd engine *operation for operation* — the same
matmuls on the same operands, the same elementwise formulas, the same
reduction and accumulation order — so compiled gradients match
``loss.backward()`` to float round-off (the equivalence suite asserts
<= 1e-9 in float32 and float64), and compiled rollout decisions are identical
to the graph path's.  The one exception is Pensieve's folded branch bank:
one GEMM over the flattened state groups the per-branch products
differently, so it agrees with the graph to float round-off (<= 1e-9 in
float64, float32's own round-off scale in float32).  Architectures the
planner cannot lower (custom forward implementations, callable activations,
stochastic dropout under lockstep) degrade to the autograd graph path with a
logged reason — never an error.

:func:`~repro.nn.engine.set_compilation` / ``--no-compile`` (the
``compile`` field of :class:`~repro.nn.engine.EngineConfig`) disables
lowering entirely; every architecture, Pensieve included, then infers and
trains through the reference graph path.
"""

from __future__ import annotations

import logging
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .engine import current, get_default_dtype
from .layers import (Conv1D, Dense, Dropout, Flatten, GRUCell, LayerNorm,
                     LSTMCell, Module, Parameter, Recurrent, RNNCell,
                     Sequential)

__all__ = [
    "CompileError",
    "CompiledPlan",
    "CompiledSequence",
    "CompiledSeedStack",
    "SeedParameterStack",
    "plan_for",
    "lower_sequence",
    "lowerable_activation_names",
]

logger = logging.getLogger(__name__)

#: Reasons already logged once (avoid per-epoch log spam for one design).
_LOGGED_REASONS: set = set()


class CompileError(Exception):
    """Raised (and caught) when an architecture cannot be lowered."""


def _log_unlowered(network, reason: str) -> None:
    key = (type(network).__name__, reason)
    if key not in _LOGGED_REASONS:
        _LOGGED_REASONS.add(key)
        logger.info("not compiling %s: %s (graph fallback)",
                    type(network).__name__, reason)


# --------------------------------------------------------------------------- #
# Activation kernels.
#
# Each entry is (forward, backward).  ``forward(pre) -> (out, aux)`` computes
# the activation with exactly the NumPy expressions the autograd Tensor ops
# use; ``backward(dy, aux) -> d_pre`` mirrors the corresponding
# ``Tensor._backward`` formula, so values agree bitwise with the graph path.
# --------------------------------------------------------------------------- #
def _linear_fwd(pre):
    return pre, None


def _linear_bwd(dy, aux):
    return dy


def _relu_fwd(pre):
    mask = pre > 0
    return pre * mask, mask


def _relu_bwd(dy, mask):
    return dy * mask


def _leaky_fwd(pre):
    mask = pre > 0
    return np.where(mask, pre, 0.01 * pre), mask


def _leaky_bwd(dy, mask):
    # np.where(mask, 1.0, 0.01) has no array operand, so it is float64 and
    # the product promotes; the graph path casts back to the default dtype
    # at its next Tensor._accumulate, which this mirrors.
    return np.asarray(dy * np.where(mask, 1.0, 0.01),
                      dtype=get_default_dtype())


def _elu_fwd(pre):
    mask = pre > 0
    exp_part = 1.0 * (np.exp(np.minimum(pre, 0.0)) - 1.0)
    return np.where(mask, pre, exp_part), (mask, exp_part)


def _elu_bwd(dy, aux):
    mask, exp_part = aux
    return dy * np.where(mask, 1.0, exp_part + 1.0)


def _tanh_fwd(pre):
    out = np.tanh(pre)
    return out, out


def _tanh_bwd(dy, out):
    return dy * (1.0 - out ** 2)


def _sigmoid_fwd(pre):
    out = 1.0 / (1.0 + np.exp(-pre))
    return out, out


def _sigmoid_bwd(dy, out):
    return dy * out * (1.0 - out)


def _softplus_fwd(pre):
    # Mirrors the composite graph: relu(x) + log(exp(-|x|) + 1.0).
    mask = pre > 0
    e = np.exp(-np.abs(pre))
    s = e + 1.0
    return pre * mask + np.log(s), (mask, e, s, np.sign(pre))


def _softplus_bwd(dy, aux):
    mask, e, s, sign = aux
    t = dy / s
    t = t * e
    t = -t
    t = t * sign
    return dy * mask + t


_ACTIVATIONS: Dict[Optional[str], Tuple[Callable, Callable]] = {
    None: (_linear_fwd, _linear_bwd),
    "linear": (_linear_fwd, _linear_bwd),
    "identity": (_linear_fwd, _linear_bwd),
    "none": (_linear_fwd, _linear_bwd),
    "relu": (_relu_fwd, _relu_bwd),
    "leaky_relu": (_leaky_fwd, _leaky_bwd),
    "leakyrelu": (_leaky_fwd, _leaky_bwd),
    "elu": (_elu_fwd, _elu_bwd),
    "tanh": (_tanh_fwd, _tanh_bwd),
    "sigmoid": (_sigmoid_fwd, _sigmoid_bwd),
    "softplus": (_softplus_fwd, _softplus_bwd),
}


def lowerable_activation_names() -> frozenset:
    """Activation names that have fused kernels (lower-cased).

    The static lowerability predictor
    (:mod:`repro.analysis.staticcheck.lowerability`) checks generated
    ``build_network`` blocks against this vocabulary; tests cross-check its
    verdicts against :func:`plan_for`'s actual decisions.
    """
    return frozenset(name for name in _ACTIVATIONS if isinstance(name, str))


def _activation_kernel(name) -> Tuple[Callable, Callable]:
    if name is not None and not isinstance(name, str):
        raise CompileError("callable (custom) activation cannot be lowered")
    key = name.lower() if isinstance(name, str) else name
    if key not in _ACTIVATIONS:
        raise CompileError(f"activation {name!r} has no fused kernel")
    return _ACTIVATIONS[key]


# --------------------------------------------------------------------------- #
# Gradient sink: routes computed gradients into Parameter.grad through
# persistent, preallocated buffers (``out=`` GEMMs and reductions).  Falls
# back to allocate-and-cast — mirroring
# ``Parameter._accumulate`` — when gradients must live in a different dtype
# than the weights.
# --------------------------------------------------------------------------- #
class _GradSink:
    __slots__ = ("_params", "_dtype", "_buffers", "_seen", "_buffered")

    def __init__(self, params: Sequence[Parameter], dtype) -> None:
        self._params = list(params)
        self._dtype = np.dtype(dtype)
        self._buffers: Optional[Dict[int, np.ndarray]] = None
        self._seen: set = set()
        self._buffered = False

    def begin(self) -> None:
        """Start one backward pass (gradients overwrite, then accumulate)."""
        self._seen = set()
        self._buffered = np.dtype(get_default_dtype()) == self._dtype
        if self._buffered and self._buffers is None:
            self._buffers = {id(p): np.empty_like(p.data)
                             for p in self._params}

    def _view(self, param: Parameter, shape) -> np.ndarray:
        buffer = self._buffers[id(param)]
        param.grad = buffer
        return buffer if shape is None else buffer.reshape(shape)

    def _fallback(self, param: Parameter, value: np.ndarray) -> None:
        grad = np.asarray(value, dtype=get_default_dtype())
        grad = grad.reshape(param.data.shape)
        if id(param) in self._seen:
            param.grad = param.grad + grad
        else:
            param.grad = grad.copy() if grad.base is not None else grad

    def add(self, param: Parameter, value: np.ndarray,
            out_shape=None) -> None:
        """Assign (first write) or accumulate a fully computed gradient."""
        if not self._buffered:
            self._fallback(param, value)
            self._seen.add(id(param))
            return
        view = self._view(param, out_shape if out_shape is not None
                          else np.shape(value))
        if id(param) in self._seen:
            view += value
        else:
            np.copyto(view, value)
            self._seen.add(id(param))

    def matmul(self, param: Parameter, a: np.ndarray, b: np.ndarray,
               out_shape=None) -> None:
        """GEMM a gradient straight into the persistent buffer."""
        if not self._buffered:
            self._fallback(param, np.matmul(a, b))
            self._seen.add(id(param))
            return
        shape = out_shape if out_shape is not None else \
            (a.shape[:-1] + (b.shape[-1],))
        view = self._view(param, shape)
        if id(param) in self._seen:
            view += np.matmul(a, b)
        else:
            np.matmul(a, b, out=view)
            self._seen.add(id(param))

    def sum(self, param: Parameter, value: np.ndarray, axis) -> None:
        """Reduce a gradient straight into the persistent buffer."""
        if not self._buffered:
            self._fallback(param, value.sum(axis=axis))
            self._seen.add(id(param))
            return
        reduced_shape = tuple(s for i, s in enumerate(value.shape)
                              if i != (axis % value.ndim))
        view = self._view(param, reduced_shape)
        if id(param) in self._seen:
            view += value.sum(axis=axis)
        else:
            value.sum(axis=axis, out=view)
            self._seen.add(id(param))


# --------------------------------------------------------------------------- #
# Primitive ops.
#
# Ops hold the *serial* layer (of the network they were compiled from) and
# resolve weight arrays through a ``resolve(parameter) -> ndarray`` callable,
# so the same op list runs serially (resolve returns ``parameter.data``) and
# stacked (resolve returns the ``(seeds, *shape)`` stacked array).  The
# ``stacked`` flag tells shape-ambiguous ops (Flatten) how many leading axes
# the data carries.
# --------------------------------------------------------------------------- #
def _serial(resolve):
    return resolve is None


def _resolve(resolve, param):
    return param.data if resolve is None else resolve(param)


class _DenseOp:
    def __init__(self, layer: Dense) -> None:
        if layer.bias is None:
            raise CompileError("Dense without bias cannot be lowered")
        self.layer = layer
        self.act_fwd, self.act_bwd = _activation_kernel(layer.activation_name)

    def parameters(self) -> List[Parameter]:
        return [self.layer.weight, self.layer.bias]

    def infer(self, x, resolve, stacked):
        w = _resolve(resolve, self.layer.weight)
        b = _resolve(resolve, self.layer.bias)
        pre = np.matmul(x, w)
        pre = pre + (b[:, None, :] if stacked else b)
        out, _ = self.act_fwd(pre)
        return out

    def forward(self, x, resolve, stacked, caches):
        w = _resolve(resolve, self.layer.weight)
        b = _resolve(resolve, self.layer.bias)
        pre = np.matmul(x, w)
        pre = pre + (b[:, None, :] if stacked else b)
        out, aux = self.act_fwd(pre)
        caches.append((x, aux))
        return out

    def backward(self, dy, resolve, stacked, cache, sink, need_dx):
        x, aux = cache
        w = _resolve(resolve, self.layer.weight)
        d_pre = self.act_bwd(dy, aux)
        sink.sum(self.layer.bias, d_pre, axis=1 if stacked else 0)
        sink.matmul(self.layer.weight, x.swapaxes(-1, -2), d_pre)
        if not need_dx:
            return None
        return np.matmul(d_pre, w.swapaxes(-1, -2))


class _FlattenOp:
    def __init__(self) -> None:
        pass

    def parameters(self) -> List[Parameter]:
        return []

    def infer(self, x, resolve, stacked):
        lead = 2 if stacked else 1
        return x.reshape(x.shape[:lead] + (-1,))

    def forward(self, x, resolve, stacked, caches):
        caches.append(x.shape)
        return self.infer(x, resolve, stacked)

    def backward(self, dy, resolve, stacked, cache, sink, need_dx):
        if not need_dx:
            return None
        return dy.reshape(cache)


class _Conv1DOp:
    """1-D convolution, computed as the same im2col GEMM the graph builds.

    ``flatten_output=True`` fuses the ``(batch, out_channels, positions)``
    -> ``(batch, out_channels * positions)`` reshape that
    :class:`~repro.abr.networks.GenericActorCritic` applies to its conv
    encoder; otherwise the op emits the layout :class:`~repro.nn.layers.Conv1D`
    itself produces.
    """

    def __init__(self, layer: Conv1D, flatten_output: bool) -> None:
        if layer.bias is None:
            raise CompileError("Conv1D without bias cannot be lowered")
        self.layer = layer
        self.flatten_output = flatten_output
        self.act_fwd, self.act_bwd = _activation_kernel(layer.activation_name)

    def parameters(self) -> List[Parameter]:
        return [self.layer.weight, self.layer.bias]

    def _patches(self, x, stacked):
        kernel = self.layer.kernel_size
        axis = 3 if stacked else 2
        windows = np.lib.stride_tricks.sliding_window_view(
            x, kernel, axis=axis)[..., ::self.layer.stride, :]
        positions = windows.shape[axis]
        # (…, positions, channels, kernel) -> (…, positions, channels*kernel):
        # the same im2col matrix unfold1d builds.
        if stacked:
            patches = np.ascontiguousarray(windows.transpose(0, 1, 3, 2, 4))
            return patches.reshape(x.shape[0], x.shape[1], positions, -1), positions
        patches = np.ascontiguousarray(windows.transpose(0, 2, 1, 3))
        return patches.reshape(x.shape[0], positions, -1), positions

    def _pre(self, x, resolve, stacked):
        w = _resolve(resolve, self.layer.weight)
        b = _resolve(resolve, self.layer.bias)
        oc = self.layer.out_channels
        patches, positions = self._patches(x, stacked)
        if stacked:
            flat_w = w.reshape(w.shape[0], oc, -1)
            pre = np.matmul(patches, flat_w.swapaxes(-1, -2)[:, None])
            pre = pre + b[:, None, None, :]
        else:
            flat_w = w.reshape(oc, -1)
            pre = patches @ flat_w.T
            pre = pre + b
        return patches, pre, positions

    def _shape_output(self, out, stacked):
        # out is (…, positions, out_channels); emit the (…, oc, positions)
        # graph layout, optionally flattened.  Values are identical to
        # applying bias/activation after the transpose (elementwise).
        if stacked:
            shaped = np.ascontiguousarray(out.transpose(0, 1, 3, 2))
            if self.flatten_output:
                return shaped.reshape(shaped.shape[0], shaped.shape[1], -1)
            return shaped
        shaped = np.ascontiguousarray(out.transpose(0, 2, 1))
        if self.flatten_output:
            return shaped.reshape(shaped.shape[0], -1)
        return shaped

    def infer(self, x, resolve, stacked):
        _, pre, _ = self._pre(x, resolve, stacked)
        out, _ = self.act_fwd(pre)
        return self._shape_output(out, stacked)

    def forward(self, x, resolve, stacked, caches):
        patches, pre, positions = self._pre(x, resolve, stacked)
        out, aux = self.act_fwd(pre)
        caches.append((x.shape, patches, aux, positions))
        return self._shape_output(out, stacked)

    def backward(self, dy, resolve, stacked, cache, sink, need_dx):
        x_shape, patches, aux, positions = cache
        w = _resolve(resolve, self.layer.weight)
        oc = self.layer.out_channels
        kernel = self.layer.kernel_size
        stride = self.layer.stride
        if stacked:
            seeds, batch = x_shape[0], x_shape[1]
            if self.flatten_output:
                dy = dy.reshape(seeds, batch, oc, positions)
            d_pre = self.act_bwd(dy.transpose(0, 1, 3, 2), aux)
            # Bias: mirror the graph's unbroadcast (sum batch, then positions).
            sink.sum(self.layer.bias, d_pre.sum(axis=1), axis=1)
            d_ft = np.matmul(patches.swapaxes(-1, -2), d_pre).sum(axis=1)
            sink.add(self.layer.weight, d_ft.swapaxes(-1, -2).reshape(
                (seeds,) + self.layer.weight.data.shape))
        else:
            batch = x_shape[0]
            if self.flatten_output:
                dy = dy.reshape(batch, oc, positions)
            d_pre = self.act_bwd(dy.transpose(0, 2, 1), aux)
            sink.sum(self.layer.bias, d_pre.sum(axis=0), axis=0)
            d_ft = np.matmul(patches.swapaxes(-1, -2), d_pre).sum(axis=0)
            sink.add(self.layer.weight,
                     d_ft.T.reshape(self.layer.weight.data.shape))
        if not need_dx:
            return None
        flat_w = (w.reshape(w.shape[0], oc, -1) if stacked
                  else w.reshape(oc, -1))
        if stacked:
            d_patches = np.matmul(d_pre, flat_w[:, None])
            channels = x_shape[2]
            grids = d_patches.reshape(x_shape[0], x_shape[1], positions,
                                      channels, kernel)
            full = np.zeros(x_shape, dtype=d_patches.dtype)
            starts = np.arange(positions) * stride
            for tap in range(kernel):
                full[:, :, :, starts + tap] += \
                    grids[..., tap].transpose(0, 1, 3, 2)
            return full
        d_patches = np.matmul(d_pre, flat_w)
        channels = x_shape[1]
        grids = d_patches.reshape(batch, positions, channels, kernel)
        full = np.zeros(x_shape, dtype=d_patches.dtype)
        starts = np.arange(positions) * stride
        for tap in range(kernel):
            full[:, :, starts + tap] += grids[..., tap].transpose(0, 2, 1)
        return full


class _BranchBankOp:
    """Per-row Conv1D/Dense branches (paper Figure 2), folded into one GEMM.

    :class:`~repro.abr.networks.PensieveNetwork` runs a ``Conv1D(1, F, K)``
    over each temporal row and a ``Dense(1, H)`` over the last sample of
    each scalar row, then concatenates the feature maps.  With homogeneous
    branches sharing one activation, the whole pre-activation feature vector
    is one linear map of the flattened state: ``act(flat @ A_T + bias)``.
    The fold ``(A_T, bias)`` is cached per weight version (serial) or per
    stacked weight array and version (stacked), so it is rebuilt once per
    optimizer step, not once per decision.

    The bank is always the network's input op, so the backward writes the
    branch gradients and never returns an input gradient.
    """

    def __init__(self, network) -> None:
        convs = list(network.conv_branches)
        scalars = list(network.scalar_branches)
        if not convs and not scalars:
            raise CompileError("branch bank has no branches")
        if not all(b.in_channels == 1 and b.bias is not None
                   and b.kernel_size == convs[0].kernel_size
                   and b.stride == convs[0].stride
                   and b.out_channels == convs[0].out_channels
                   for b in convs):
            raise CompileError("conv branches are not homogeneous "
                               "Conv1D(1, F, K) layers with bias")
        if not all(b.in_features == 1 and b.bias is not None
                   and b.out_features == scalars[0].out_features
                   for b in scalars):
            raise CompileError("scalar branches are not homogeneous "
                               "Dense(1, H) layers with bias")
        if len({b.activation_name for b in convs + scalars}) != 1:
            raise CompileError("branches do not share one activation")
        self.activation_name = (convs + scalars)[0].activation_name
        self.act_fwd, self.act_bwd = _activation_kernel(self.activation_name)
        self.convs = convs
        self.scalars = scalars
        self.temporal_rows = list(network.temporal_rows)
        self.scalar_rows = list(network.scalar_rows)
        self.flat_state = len(network.state_shape) == 1
        self.rows = network.state_shape[0]
        self.history = 1 if self.flat_state else network.state_shape[1]
        self.kernel = self.stride = self.filters = self.positions = 0
        self.starts: range = range(0)
        if convs:
            self.kernel = convs[0].kernel_size
            self.stride = convs[0].stride
            self.filters = convs[0].out_channels
            self.starts = range(0, self.history - self.kernel + 1, self.stride)
            self.positions = len(self.starts)
            if self.flat_state or not self.positions:
                raise CompileError("conv branches need a (rows, history) "
                                   "state at least one kernel long")
        self.conv_span = len(convs) * self.filters * self.positions
        self.width = self.conv_span + (
            len(scalars) * scalars[0].out_features if scalars else 0)
        self._params = [p for branch in convs + scalars
                        for p in (branch.weight, branch.bias)]
        # (first weight array, version, A_T, bias), serial and stacked.
        # Arrays only, so the op stays picklable.
        self._fold = None
        self._stacked_fold = None

    def parameters(self) -> List[Parameter]:
        return list(self._params)

    def _version(self) -> int:
        return sum(p.version for p in self._params)

    def _folded(self, resolve, stacked):
        """``(A_T, bias)``: ``(D, M)``/``(M,)``, with a leading seed axis
        when stacked.

        The zero pattern of ``A_T`` is fixed by the architecture, so a
        refresh after a weight change rewrites only the branch blocks of
        the cached arrays in place.  Nothing holds a fold across calls
        (forward caches keep the input, not the fold), so the rewrite is
        safe.
        """
        weight0 = _resolve(resolve, self._params[0])
        version = self._version()
        cached = self._stacked_fold if stacked else self._fold
        if cached is not None and cached[0] is weight0:
            if cached[1] == version:
                return cached[2], cached[3]
            folded, bias = cached[2], cached[3]
        else:
            lead = weight0.shape[:1] if stacked else ()
            folded = np.zeros(lead + (self.rows * self.history, self.width),
                              dtype=weight0.dtype)
            bias = np.empty(lead + (self.width,), dtype=weight0.dtype)
        history = self.history
        filters, positions, kernel = self.filters, self.positions, self.kernel
        span = filters * positions
        offset = 0
        for branch, row in zip(self.convs, self.temporal_rows):
            weight_t = _resolve(resolve, branch.weight).reshape(
                folded.shape[:-2] + (filters, kernel)).swapaxes(-1, -2)
            for pos, start in enumerate(self.starts):
                column = row * history + start
                folded[..., column:column + kernel,
                       offset + pos:offset + span:positions] = weight_t
            bias[..., offset:offset + span] = np.repeat(
                _resolve(resolve, branch.bias), positions, axis=-1)
            offset += span
        for branch, row in zip(self.scalars, self.scalar_rows):
            width = branch.out_features
            folded[..., row * history + history - 1, offset:offset + width] = \
                _resolve(resolve, branch.weight)[..., 0, :]
            bias[..., offset:offset + width] = _resolve(resolve, branch.bias)
            offset += width
        fold = (weight0, version, folded, bias)
        if stacked:
            self._stacked_fold = fold
        else:
            self._fold = fold
        return folded, bias

    def _pre(self, x, resolve, stacked):
        folded, bias = self._folded(resolve, stacked)
        lead = 2 if stacked else 1
        pre = np.matmul(x.reshape(x.shape[:lead] + (-1,)), folded)
        pre += bias[:, None, :] if stacked else bias
        return pre

    def infer(self, x, resolve, stacked):
        out, _ = self.act_fwd(self._pre(x, resolve, stacked))
        return out

    def forward(self, x, resolve, stacked, caches):
        out, aux = self.act_fwd(self._pre(x, resolve, stacked))
        caches.append((x, aux))
        return out

    def backward(self, dy, resolve, stacked, cache, sink, need_dx):
        x, aux = cache
        d_pre = self.act_bwd(dy, aux)
        lead = x.shape[:2] if stacked else x.shape[:1]
        if self.convs:
            branches, filters, kernel = (len(self.convs), self.filters,
                                         self.kernel)
            # (…, R, P, K) windows of the temporal rows.
            rows = x[..., self.temporal_rows, :]
            windows = np.lib.stride_tricks.sliding_window_view(
                rows, kernel, axis=-1)[..., ::self.stride, :]
            d_conv = d_pre[..., :self.conv_span].reshape(
                lead + (branches, filters, self.positions))
            if stacked:
                seeds = lead[0]
                d_weights = np.einsum("sbrfp,sbrpk->srfk", d_conv, windows)
                d_biases = d_conv.sum(axis=(1, 4))
                for index, branch in enumerate(self.convs):
                    sink.add(branch.weight, d_weights[:, index],
                             out_shape=(seeds, filters, kernel))
                    sink.add(branch.bias, d_biases[:, index])
            else:
                d_weights = np.einsum("brfp,brpk->rfk", d_conv, windows)
                d_biases = d_conv.sum(axis=(0, 3))
                for index, branch in enumerate(self.convs):
                    sink.add(branch.weight, d_weights[index].reshape(
                        branch.weight.data.shape))
                    sink.add(branch.bias, d_biases[index])
        if self.scalars:
            width = self.scalars[0].out_features
            if self.flat_state:
                scalars = x[..., self.scalar_rows]
            else:
                scalars = x[..., self.scalar_rows, -1]
            d_scalar = d_pre[..., self.conv_span:].reshape(
                lead + (len(self.scalars), width))
            if stacked:
                seeds = lead[0]
                d_weights = np.einsum("sbnh,sbn->snh", d_scalar, scalars)
                d_biases = d_scalar.sum(axis=1)
                for index, branch in enumerate(self.scalars):
                    sink.add(branch.weight, d_weights[:, index],
                             out_shape=(seeds, width))
                    sink.add(branch.bias, d_biases[:, index])
            else:
                d_weights = np.einsum("bsh,bs->sh", d_scalar, scalars)
                d_biases = d_scalar.sum(axis=0)
                for index, branch in enumerate(self.scalars):
                    sink.add(branch.weight, d_weights[index][None, :])
                    sink.add(branch.bias, d_biases[index])
        return None


class _LayerNormOp:
    def __init__(self, layer: LayerNorm) -> None:
        self.layer = layer

    def parameters(self) -> List[Parameter]:
        return [self.layer.gamma, self.layer.beta]

    def _stats(self, x, resolve, stacked):
        gamma = _resolve(resolve, self.layer.gamma)
        beta = _resolve(resolve, self.layer.beta)
        n = x.shape[-1]
        # Mirror the graph: mean/variance are sum * (1/n), not np.mean.
        mean = x.sum(axis=-1, keepdims=True) * (1.0 / n)
        centered = x - mean
        var = (centered * centered).sum(axis=-1, keepdims=True) * (1.0 / n)
        p = var + self.layer.eps
        q = p ** 0.5
        normalized = centered / q
        if stacked:
            out = normalized * gamma[:, None, :] + beta[:, None, :]
        else:
            out = normalized * gamma + beta
        return out, (centered, p, q, normalized, n)

    def infer(self, x, resolve, stacked):
        out, _ = self._stats(x, resolve, stacked)
        return out

    def forward(self, x, resolve, stacked, caches):
        out, cache = self._stats(x, resolve, stacked)
        caches.append(cache)
        return out

    @staticmethod
    def _unbroadcast(value, stacked):
        keep = 2 if stacked else 1
        axis = 1 if stacked else 0
        while value.ndim > keep:
            value = value.sum(axis=axis)
        return value

    def backward(self, dy, resolve, stacked, cache, sink, need_dx):
        centered, p, q, normalized, n = cache
        gamma = _resolve(resolve, self.layer.gamma)
        sink.add(self.layer.beta, self._unbroadcast(dy, stacked))
        sink.add(self.layer.gamma,
                 self._unbroadcast(dy * normalized, stacked))
        d_norm = dy * (gamma[:, None, :] if stacked else gamma)
        d_centered = d_norm / q
        d_q = (-d_norm * centered / (q ** 2)).sum(axis=-1, keepdims=True)
        d_var = (d_q * 0.5) * p ** (-0.5)
        d_cc = np.broadcast_to(d_var * (1.0 / n), centered.shape)
        t = d_cc * centered
        d_centered = d_centered + t
        d_centered = d_centered + t
        if not need_dx:
            return None
        d_mean = (-d_centered).sum(axis=-1, keepdims=True)
        return d_centered + np.broadcast_to(d_mean * (1.0 / n),
                                            centered.shape)


class _DropoutOp:
    """Inverted dropout.  Eval mode is the identity; training mode draws the
    mask from the layer's own RNG with exactly the graph's expression, so the
    RNG stream is consumed identically.  The stacked engine refuses stochastic
    dropout (per-seed RNG streams cannot batch), which
    :meth:`CompiledSeedStack.compatible` enforces up front."""

    def __init__(self, layer: Dropout) -> None:
        self.layer = layer

    def parameters(self) -> List[Parameter]:
        return []

    def _active(self) -> bool:
        return self.layer._training and self.layer.rate > 0.0

    def infer(self, x, resolve, stacked):
        if not self._active():
            return x
        if stacked:
            raise CompileError("stochastic dropout cannot run stacked")
        mask = ((self.layer._rng.random(x.shape) >= self.layer.rate)
                / (1.0 - self.layer.rate))
        return x * mask

    def forward(self, x, resolve, stacked, caches):
        if not self._active():
            caches.append(None)
            return x
        if stacked:
            raise CompileError("stochastic dropout cannot run stacked")
        mask = ((self.layer._rng.random(x.shape) >= self.layer.rate)
                / (1.0 - self.layer.rate))
        caches.append(mask)
        return x * mask

    def backward(self, dy, resolve, stacked, cache, sink, need_dx):
        if not need_dx:
            return None
        if cache is None:
            return dy
        return dy * cache


class _RecurrentOp:
    """rnn/gru/lstm over the trailing (time) axis, final hidden state out.

    The per-step arithmetic mirrors the cell ``forward`` methods exactly, and
    the backward replays the chain in reverse time order with per-step
    gradient accumulation — the order autograd's reverse-topological walk
    uses — so gradients agree with the graph to round-off.
    """

    def __init__(self, layer: Recurrent) -> None:
        self.layer = layer
        self.kind = ("lstm" if isinstance(layer.cell, LSTMCell) else
                     "gru" if isinstance(layer.cell, GRUCell) else "rnn")

    def parameters(self) -> List[Parameter]:
        cell = self.layer.cell
        return [cell.w_ih, cell.w_hh, cell.bias]

    # -- forward -------------------------------------------------------- #
    def _weights(self, resolve):
        cell = self.layer.cell
        return (_resolve(resolve, cell.w_ih), _resolve(resolve, cell.w_hh),
                _resolve(resolve, cell.bias))

    def _run(self, x, resolve, stacked, record):
        w_ih, w_hh, bias = self._weights(resolve)
        h = self.layer.hidden_size
        length = x.shape[-1]
        if stacked:
            lead = (x.shape[0], x.shape[1])
            badd = bias[:, None, :]
        else:
            lead = (x.shape[0],)
            badd = bias
        hidden = np.zeros(lead + (h,), dtype=x.dtype)
        cell_state = np.zeros(lead + (h,), dtype=x.dtype) \
            if self.kind == "lstm" else None
        steps = [] if record is not None else None
        for t in range(length):
            xt = x[..., t]
            if self.kind == "rnn":
                z = np.matmul(xt, w_ih) + np.matmul(hidden, w_hh) + badd
                new_hidden = np.tanh(z)
                if steps is not None:
                    steps.append((xt, hidden, new_hidden))
                hidden = new_hidden
            elif self.kind == "gru":
                gx = np.matmul(xt, w_ih) + badd
                gh = np.matmul(hidden, w_hh)
                r = 1.0 / (1.0 + np.exp(-(gx[..., 0:h] + gh[..., 0:h])))
                u = 1.0 / (1.0 + np.exp(-(gx[..., h:2 * h] + gh[..., h:2 * h])))
                c = np.tanh(gx[..., 2 * h:3 * h] + r * gh[..., 2 * h:3 * h])
                new_hidden = u * hidden + (1.0 - u) * c
                if steps is not None:
                    steps.append((xt, hidden, gh[..., 2 * h:3 * h], r, u, c))
                hidden = new_hidden
            else:  # lstm
                gates = (np.matmul(xt, w_ih) + np.matmul(hidden, w_hh)) + badd
                i = 1.0 / (1.0 + np.exp(-gates[..., 0:h]))
                f = 1.0 / (1.0 + np.exp(-gates[..., h:2 * h]))
                cand = np.tanh(gates[..., 2 * h:3 * h])
                o = 1.0 / (1.0 + np.exp(-gates[..., 3 * h:4 * h]))
                new_cell = f * cell_state + i * cand
                tc = np.tanh(new_cell)
                new_hidden = o * tc
                if steps is not None:
                    steps.append((xt, hidden, cell_state, i, f, cand, o, tc))
                hidden = new_hidden
                cell_state = new_cell
        if record is not None:
            record.append((x.shape, steps))
        return hidden

    def infer(self, x, resolve, stacked):
        return self._run(x, resolve, stacked, record=None)

    def forward(self, x, resolve, stacked, caches):
        return self._run(x, resolve, stacked, record=caches)

    # -- backward ------------------------------------------------------- #
    def backward(self, dy, resolve, stacked, cache, sink, need_dx):
        x_shape, steps = cache
        w_ih, w_hh, bias = self._weights(resolve)
        cell = self.layer.cell
        h = self.layer.hidden_size
        sum_axis = 1 if stacked else 0
        dx = np.zeros(x_shape, dtype=dy.dtype) if need_dx else None
        dh = dy
        dc = None
        for t in range(len(steps) - 1, -1, -1):
            if self.kind == "rnn":
                xt, h_prev, h_new = steps[t]
                dz = dh * (1.0 - h_new ** 2)
                sink.sum(cell.bias, dz, axis=sum_axis)
                sink.matmul(cell.w_ih, xt.swapaxes(-1, -2), dz)
                sink.matmul(cell.w_hh, h_prev.swapaxes(-1, -2), dz)
                if need_dx:
                    dx[..., t] = np.matmul(dz, w_ih.swapaxes(-1, -2))
                dh = np.matmul(dz, w_hh.swapaxes(-1, -2))
            elif self.kind == "gru":
                xt, h_prev, gh2, r, u, c = steps[t]
                d_u = dh * h_prev
                d_u = d_u + (-(dh * c))
                d_h_prev = dh * u
                d_c = dh * (1.0 - u)
                d_cand_arg = d_c * (1.0 - c ** 2)
                d_r = d_cand_arg * gh2
                d_gh2 = d_cand_arg * r
                d_u_arg = d_u * u * (1.0 - u)
                d_r_arg = d_r * r * (1.0 - r)
                d_gx = np.concatenate([d_r_arg, d_u_arg, d_cand_arg], axis=-1)
                d_gh = np.concatenate([d_r_arg, d_u_arg, d_gh2], axis=-1)
                sink.sum(cell.bias, d_gx, axis=sum_axis)
                sink.matmul(cell.w_ih, xt.swapaxes(-1, -2), d_gx)
                sink.matmul(cell.w_hh, h_prev.swapaxes(-1, -2), d_gh)
                if need_dx:
                    dx[..., t] = np.matmul(d_gx, w_ih.swapaxes(-1, -2))
                dh = d_h_prev + np.matmul(d_gh, w_hh.swapaxes(-1, -2))
            else:  # lstm
                xt, h_prev, c_prev, i, f, cand, o, tc = steps[t]
                d_o = dh * tc
                d_tc = dh * o
                d_cell = d_tc * (1.0 - tc ** 2)
                if dc is not None:
                    d_cell = dc + d_cell
                d_f = d_cell * c_prev
                dc = d_cell * f
                d_i = d_cell * cand
                d_cand = d_cell * i
                d_gates = np.concatenate([
                    d_i * i * (1.0 - i),
                    d_f * f * (1.0 - f),
                    d_cand * (1.0 - cand ** 2),
                    d_o * o * (1.0 - o)], axis=-1)
                sink.sum(cell.bias, d_gates, axis=sum_axis)
                sink.matmul(cell.w_ih, xt.swapaxes(-1, -2), d_gates)
                sink.matmul(cell.w_hh, h_prev.swapaxes(-1, -2), d_gates)
                if need_dx:
                    dx[..., t] = np.matmul(d_gates, w_ih.swapaxes(-1, -2))
                dh = np.matmul(d_gates, w_hh.swapaxes(-1, -2))
        return dx


# --------------------------------------------------------------------------- #
# Lowering.
# --------------------------------------------------------------------------- #
def lower_sequence(module: Module, flatten_conv: bool = False) -> List:
    """Lower a module (or ``Sequential`` tree) into a primitive op list.

    Raises :class:`CompileError` for anything outside the design-space
    vocabulary.  ``flatten_conv`` fuses the trailing flatten a conv encoder
    needs when feeding a dense trunk.
    """
    if isinstance(module, Sequential):
        ops: List = []
        for child in module:
            ops.extend(lower_sequence(child))
        return ops
    if isinstance(module, Dense):
        return [_DenseOp(module)]
    if isinstance(module, Conv1D):
        return [_Conv1DOp(module, flatten_output=flatten_conv)]
    if isinstance(module, Flatten):
        return [_FlattenOp()]
    if isinstance(module, LayerNorm):
        return [_LayerNormOp(module)]
    if isinstance(module, Dropout):
        return [_DropoutOp(module)]
    if isinstance(module, Recurrent):
        return [_RecurrentOp(module)]
    raise CompileError(f"module {type(module).__name__} has no fused kernel")


def _run_ops(ops, x, resolve, stacked, caches):
    for op in ops:
        x = op.forward(x, resolve, stacked, caches)
    return x


def _infer_ops(ops, x, resolve, stacked):
    for op in ops:
        x = op.infer(x, resolve, stacked)
    return x


def _back_ops(ops, dy, resolve, stacked, caches, sink, need_input_grad):
    for index in range(len(ops) - 1, -1, -1):
        need = need_input_grad or index > 0
        dy = ops[index].backward(dy, resolve, stacked, caches[index], sink,
                                 need_dx=need)
    return dy


class CompiledSequence:
    """A lowered ``Sequential`` stack with fused forward/backward.

    This is the building block the property tests exercise directly; the
    actor-critic :class:`CompiledPlan` composes three of these walks
    (encoder, actor tower, critic tower).
    """

    def __init__(self, module: Module) -> None:
        self.ops = lower_sequence(module)
        self.params: List[Parameter] = []
        for op in self.ops:
            self.params.extend(op.parameters())
        dtype = self.params[0].data.dtype if self.params else \
            np.dtype(get_default_dtype())
        self._sink = _GradSink(self.params, dtype)

    def infer(self, x: np.ndarray) -> np.ndarray:
        return _infer_ops(self.ops, np.asarray(x), None, False)

    def forward(self, x: np.ndarray):
        caches: List = []
        out = _run_ops(self.ops, np.asarray(x), None, False, caches)
        return caches, out

    def backward(self, caches, dy: np.ndarray,
                 need_input_grad: bool = False) -> Optional[np.ndarray]:
        self._sink.begin()
        return _back_ops(self.ops, np.asarray(dy), None, False, caches,
                         self._sink, need_input_grad)


# --------------------------------------------------------------------------- #
# The actor-critic plan.
# --------------------------------------------------------------------------- #
class _ActorInference:
    """Inference context: the actor-only op chain (encoder + actor tower).

    Ops read parameter arrays at call time, so one context stays current
    across optimizer steps and ``load_state_dict``-style rebinding; ops that
    fold weights (the Pensieve branch bank) keep their own version-cached
    fold.
    """

    __slots__ = ("ops", "dtype", "state_ndim")

    def __init__(self, ops, dtype, state_ndim) -> None:
        self.ops = ops
        self.dtype = dtype
        self.state_ndim = state_ndim

    def probs(self, states: np.ndarray) -> np.ndarray:
        states = np.asarray(states, dtype=self.dtype)
        if states.ndim == self.state_ndim:
            states = states[None, ...]
        logits = _infer_ops(self.ops, states, None, False)
        shifted = logits - logits.max(axis=-1, keepdims=True)
        exp = np.exp(shifted)
        return exp / exp.sum(axis=-1, keepdims=True)


class CompiledPlan:
    """Fused kernels for one actor-critic network.

    The plan provides the inference ``policy_probs`` path (the cached
    context from :meth:`inference`), the stacked training kernels that
    :class:`CompiledSeedStack` runs for
    :class:`~repro.rl.a2c.MultiSeedA2CTrainer`, and the analytic serial
    ``fused_forward``/``fused_backward`` pair, the oracle the equivalence
    suite checks the stacked kernels against.
    """

    def __init__(self, network) -> None:
        encoder_ops, actor_ops, critic_ops = _lower_actor_critic(network)
        # The shape, not the network: the network caches this plan, and a
        # plan -> network reference would make every compiled network a
        # reference cycle that only the cyclic GC frees.
        self.state_shape = network.state_shape
        self.encoder_ops = encoder_ops
        self.actor_ops = actor_ops
        self.critic_ops = critic_ops
        self.params: List[Parameter] = []
        seen: set = set()
        for op in encoder_ops + actor_ops + critic_ops:
            for param in op.parameters():
                if id(param) not in seen:
                    seen.add(id(param))
                    self.params.append(param)
        if not self.params:
            raise CompileError("network has no trainable parameters")
        self.dtype = self.params[0].data.dtype
        self._sink = _GradSink(self.params, self.dtype)
        self._inference = _ActorInference(encoder_ops + actor_ops, self.dtype,
                                          len(self.state_shape))

    # -- identity -------------------------------------------------------- #
    @property
    def signature(self) -> Tuple:
        """Structural fingerprint used to match plans across seed networks."""
        def op_sig(op):
            name = type(op).__name__
            if isinstance(op, _DenseOp):
                return (name, op.layer.in_features, op.layer.out_features,
                        op.layer.activation_name)
            if isinstance(op, _Conv1DOp):
                return (name, op.layer.in_channels, op.layer.out_channels,
                        op.layer.kernel_size, op.layer.stride,
                        op.layer.activation_name, op.flatten_output)
            if isinstance(op, _RecurrentOp):
                return (name, op.kind, op.layer.hidden_size)
            if isinstance(op, _LayerNormOp):
                return (name, op.layer.gamma.data.shape)
            if isinstance(op, _BranchBankOp):
                return (name, op.rows, op.history, tuple(op.temporal_rows),
                        tuple(op.scalar_rows), op.filters, op.kernel,
                        op.stride, op.width, op.activation_name)
            return (name,)
        return tuple(tuple(op_sig(op) for op in ops)
                     for ops in (self.encoder_ops, self.actor_ops,
                                 self.critic_ops))

    def has_stochastic_dropout(self) -> bool:
        return any(isinstance(op, _DropoutOp) and op.layer.rate > 0.0
                   for op in self.encoder_ops + self.actor_ops
                   + self.critic_ops)

    def has_active_dropout(self) -> bool:
        """Whether any dropout op would draw from its RNG *right now*.

        The compiled inference chain runs only the actor tower, but the
        graph reference (``_policy_probs_graph``) runs the full forward —
        critic tower included — so with training-mode dropout the two
        would consume different RNG-stream lengths per decision.  Callers
        route such networks back to the graph path for inference; the
        fused *update* is unaffected (it runs both towers in the graph's
        forward order, drawing identically).
        """
        return any(isinstance(op, _DropoutOp) and op._active()
                   for op in self.encoder_ops + self.actor_ops
                   + self.critic_ops)

    # -- training kernels ------------------------------------------------ #
    def _cast_states(self, states: np.ndarray, stacked: bool) -> np.ndarray:
        states = np.asarray(states, dtype=self.dtype)
        expected = len(self.state_shape) + (2 if stacked else 1)
        if states.ndim == expected - 1:
            states = states[None, ...]
        return states

    def fused_forward(self, states: np.ndarray, resolve=None,
                      stacked: bool = False):
        """Forward through both towers, caching what the backward needs."""
        states = self._cast_states(states, stacked)
        caches = {"encoder": [], "actor": [], "critic": []}
        encoded = _run_ops(self.encoder_ops, states, resolve, stacked,
                           caches["encoder"])
        logits = _run_ops(self.actor_ops, encoded, resolve, stacked,
                          caches["actor"])
        values = _run_ops(self.critic_ops, encoded, resolve, stacked,
                          caches["critic"])
        values = values.reshape(values.shape[:-2] + (values.shape[-2],))
        return caches, logits, values

    def fused_backward(self, cache, dlogits: np.ndarray, dvalues: np.ndarray,
                       resolve=None, stacked: bool = False,
                       sink: Optional[_GradSink] = None) -> None:
        """Accumulate parameter gradients for a cached fused forward."""
        sink = sink if sink is not None else self._sink
        sink.begin()
        dvalues = np.asarray(dvalues)[..., None]
        d_encoded = _back_ops(self.actor_ops, np.asarray(dlogits), resolve,
                              stacked, cache["actor"], sink,
                              need_input_grad=True)
        d_encoded = d_encoded + _back_ops(self.critic_ops, dvalues, resolve,
                                          stacked, cache["critic"], sink,
                                          need_input_grad=True)
        _back_ops(self.encoder_ops, d_encoded, resolve, stacked,
                  cache["encoder"], sink, need_input_grad=False)

    # -- inference ------------------------------------------------------- #
    def inference(self) -> _ActorInference:
        """The actor-tower inference context."""
        return self._inference

    def policy_probs(self, states: np.ndarray) -> np.ndarray:
        """Action probabilities; a single state gets a batch axis."""
        return self._inference.probs(states)

    def policy_probs_batch(self, states: np.ndarray) -> np.ndarray:
        """Action probabilities for a strict ``(batch, *state_shape)`` block.

        The serving entry point: the fleet harness stacks one state per
        session needing a decision this tick and makes ONE call here, so the
        cost per decision is one GEMM row of the actor chain instead of one Python forward per player.  Every op in the chain is
        row-independent (GEMMs, elementwise activations, per-row softmax),
        so row ``i`` of the result is bit-identical to calling
        :meth:`policy_probs` on ``states[i]`` alone — which is what lets
        batched serving stay session-for-session identical to serial
        emulation.  Unlike :meth:`policy_probs` this entry refuses to guess
        about a missing batch axis: serving code that dropped the axis has a
        bug, not an implicit batch of one.
        """
        states = np.asarray(states, dtype=self.dtype)
        if states.ndim != len(self.state_shape) + 1:
            raise ValueError(
                f"expected (batch, *{self.state_shape}) states, got "
                f"shape {states.shape}")
        return self.inference().probs(states)


def _lower_actor_critic(network) -> Tuple[List, List, List]:
    """Lower a design-space actor-critic network into its three op walks."""
    # Only networks whose forward we know bit-for-bit can be lowered: a
    # custom subclass overriding forward/_encode computes something the plan
    # would silently disagree with.
    from ..abr.networks import GenericActorCritic, PensieveNetwork

    if isinstance(network, PensieveNetwork):
        if type(network).forward is not PensieveNetwork.forward:
            raise CompileError("subclass overrides forward; the planner "
                               "cannot prove kernel equivalence")
        bank = _BranchBankOp(network)
        if bank.width != network.actor_hidden.in_features:
            raise CompileError("branch bank width does not match the towers")
        return ([bank],
                [_DenseOp(network.actor_hidden), _DenseOp(network.actor_out)],
                [_DenseOp(network.critic_hidden),
                 _DenseOp(network.critic_out)])
    if not isinstance(network, GenericActorCritic):
        raise CompileError("only design-space GenericActorCritic and "
                           "PensieveNetwork networks are lowerable")
    if (type(network).forward is not GenericActorCritic.forward
            or type(network)._encode is not GenericActorCritic._encode):
        raise CompileError("subclass overrides forward/_encode; the planner "
                           "cannot prove kernel equivalence")
    kind = network.encoder_kind
    if kind == "flatten":
        encoder_ops: List = [_FlattenOp()]
    elif kind == "conv":
        encoder_ops = [_Conv1DOp(network.encoder, flatten_output=True)]
    elif kind in ("rnn", "gru", "lstm"):
        encoder_ops = [_RecurrentOp(network.encoder)]
    else:
        raise CompileError(f"unknown encoder kind {kind!r}")
    actor_ops = lower_sequence(network.actor_trunk) + \
        lower_sequence(network.actor_out)
    critic_ops = lower_sequence(network.critic_trunk) + \
        lower_sequence(network.critic_out)
    return encoder_ops, actor_ops, critic_ops


def plan_for(network) -> Optional[CompiledPlan]:
    """Compile (and cache) the fused plan for ``network``.

    Returns ``None`` — after logging the reason once — when compilation is
    disabled or the architecture cannot be lowered; callers then keep the
    autograd graph path.  The cache lives on the network instance and is
    dropped on pickling (worker processes recompile on first use).
    """
    if not current().compile:
        return None
    cached = network.__dict__.get("_compile_cache")
    if cached is not None:
        return cached if isinstance(cached, CompiledPlan) else None
    try:
        plan = CompiledPlan(network)
    except CompileError as exc:
        # Cached without its traceback, whose frames hold the network.
        network.__dict__["_compile_cache"] = exc.with_traceback(None)
        _log_unlowered(network, str(exc))
        _count_compile("compile.fallback",
                       {"network": type(network).__name__,
                        "reason": str(exc)})
        return None
    network.__dict__["_compile_cache"] = plan
    _count_compile("compile.lowered",
                   {"network": type(network).__name__})
    return plan


def _count_compile(name: str, attrs) -> None:
    # Imported lazily: ``repro.core`` imports this module transitively, so a
    # top-level import would create a cycle.  plan_for results are cached on
    # the network instance, so this only runs once per (network, outcome).
    from ..core import telemetry
    telemetry.counter(name, attrs=attrs)


# --------------------------------------------------------------------------- #
# Stacked (multi-seed) engines.
# --------------------------------------------------------------------------- #
class SeedParameterStack:
    """Stacked-weight view of several identically-shaped networks.

    Generic machinery behind :class:`CompiledSeedStack`: each parameter of
    the per-seed networks is stacked into one ``(seeds, *shape)`` array, and
    the per-seed networks' parameters are rebound as views of their slice —
    so updating the stack updates every seed network in place and
    checkpoint evaluation/serialization see current weights with no unpack
    step.
    """

    def __init__(self, networks: Sequence) -> None:
        if len(networks) < 1:
            raise ValueError("a seed stack needs at least one network")
        self.networks = list(networks)
        self.num_seeds = len(self.networks)
        net0 = self.networks[0]
        self.state_shape = net0.state_shape
        self.num_actions = net0.num_actions

        per_net = [net.parameters() for net in self.networks]
        if any(len(params) != len(per_net[0]) for params in per_net):
            raise ValueError("stacked networks have mismatched parameter lists")
        self._per_net_params = per_net
        self._params: List[Parameter] = []
        by_id: Dict[int, Parameter] = {}
        for position, reference in enumerate(per_net[0]):
            shapes = {params[position].data.shape for params in per_net}
            dtypes = {params[position].data.dtype for params in per_net}
            if len(shapes) != 1 or len(dtypes) != 1:
                raise ValueError(
                    f"parameter {position} differs across seeds: "
                    f"shapes {shapes}, dtypes {dtypes}")
            stacked = Parameter(np.empty(0), name=f"stack.{reference.name}")
            # Assign directly: Parameter's constructor coerces to the current
            # default dtype, but the stack must keep the dtype the networks
            # were built with.
            stacked.data = np.stack([params[position].data
                                     for params in per_net])
            for seed, params in enumerate(per_net):
                params[position].data = stacked.data[seed]
            self._params.append(stacked)
            by_id[id(reference)] = stacked
        self._stacked_of = by_id
        self._version = 0
        #: Persistent per-parameter gradient buffers (see ``_grad_into``).
        self._grad_buffers: Optional[Dict[int, np.ndarray]] = None

    # ------------------------------------------------------------------ #
    @staticmethod
    def _stackable(networks: Sequence) -> bool:
        """Whether parameter lists match in shape and dtype across seeds."""
        if not networks:
            return False
        net0 = networks[0]
        if any(net.state_shape != net0.state_shape
               or net.num_actions != net0.num_actions for net in networks):
            return False
        shapes0 = [p.data.shape for p in net0.parameters()]
        dtypes0 = [p.data.dtype for p in net0.parameters()]
        for net in networks[1:]:
            params = net.parameters()
            if ([p.data.shape for p in params] != shapes0
                    or [p.data.dtype for p in params] != dtypes0):
                return False
        return True

    def parameters(self) -> List[Parameter]:
        """Stacked parameters, ordered like ``networks[0].parameters()``.

        The order matters: per-seed gradient-norm clipping accumulates
        squared norms across parameters in this exact order, mirroring the
        serial ``clip_grad_norm`` call on ``network.parameters()``.
        """
        return list(self._params)

    def stacked_of(self, parameter) -> Parameter:
        """The stacked parameter holding all seeds of ``parameter``."""
        return self._stacked_of[id(parameter)]

    def mark_updated(self) -> None:
        """Invalidate caches after the stacked optimizer stepped.

        The optimizer bumps the *stacked* parameters' versions; the per-seed
        networks' parameters are views whose version counters the optimizer
        never sees, so the seed-level caches are bumped here.
        """
        self._version += 1
        for params in self._per_net_params:
            for p in params:
                p.version = getattr(p, "version", 0) + 1

    @property
    def dtype(self) -> np.dtype:
        return self._params[0].data.dtype

    # ------------------------------------------------------------------ #
    def _grad_into(self, stacked: Parameter) -> Optional[np.ndarray]:
        """Bind and return the persistent gradient buffer for ``stacked``.

        Returns None when gradients must live in a different dtype than the
        weights (mirroring ``Parameter._accumulate``'s cast to the global
        default dtype) — the backward then falls back to allocating casts.
        """
        if np.dtype(get_default_dtype()) != self.dtype:
            return None
        if self._grad_buffers is None:
            self._grad_buffers = {id(p): np.empty_like(p.data)
                                  for p in self._params}
        buffer = self._grad_buffers[id(stacked)]
        stacked.grad = buffer
        return buffer

    def _set_grad(self, stacked: Parameter, grad: np.ndarray) -> None:
        """Assign a computed gradient, casting like ``Parameter._accumulate``."""
        grad = np.asarray(grad, dtype=get_default_dtype())
        stacked.grad = grad.copy() if grad.base is not None else grad


class CompiledSeedStack(SeedParameterStack):
    """Stacked lockstep engine for every lowerable architecture.

    Gives the multi-seed trainer ``parameters``/``stacked_of``/
    ``mark_updated``, batched ``fused_forward``/``fused_backward``, and
    per-seed ``seed_policy_forward`` inference contexts for any network the
    kernel planner can lower, the original Pensieve network included.  Seed
    ``s``'s slice of every kernel equals the serial compiled kernel on
    ``networks[s]`` (batched GEMMs resolve each seed's slice with the same
    BLAS calls), which the equivalence suite pins.
    """

    def __init__(self, networks: Sequence) -> None:
        plans = [plan_for(net) for net in networks]
        if any(plan is None for plan in plans):
            raise ValueError("every stacked network must compile")
        if len({plan.signature for plan in plans}) > 1:
            raise ValueError("stacked networks have mismatched plans")
        if plans[0].has_stochastic_dropout():
            raise ValueError("stochastic dropout cannot train in lockstep")
        super().__init__(networks)
        self.plan = plans[0]
        self._seed_sink = _GradSink(self._params, self.dtype)

    # ------------------------------------------------------------------ #
    @staticmethod
    def compatible(networks: Sequence) -> bool:
        """Whether these networks can train through one compiled stack."""
        networks = list(networks)
        if not networks:
            return False
        if len({type(net) for net in networks}) != 1:
            return False
        plans = [plan_for(net) for net in networks]
        if any(plan is None for plan in plans):
            return False
        if len({plan.signature for plan in plans}) > 1:
            return False
        if plans[0].has_stochastic_dropout():
            return False
        return SeedParameterStack._stackable(networks)

    # ------------------------------------------------------------------ #
    def _resolve(self, param: Parameter) -> np.ndarray:
        return self._stacked_of[id(param)].data

    def fused_forward(self, states: np.ndarray):
        """Stacked fused forward: ``(seeds, batch, *state_shape)`` in."""
        return self.plan.fused_forward(states, resolve=self._resolve,
                                       stacked=True)

    def fused_backward(self, cache, dlogits: np.ndarray,
                       dvalues: np.ndarray) -> None:
        """Gradients land on the stacked ``(seeds, *shape)`` parameters."""
        sink = _StackedSink(self)
        self.plan.fused_backward(cache, dlogits, dvalues,
                                 resolve=self._resolve, stacked=True,
                                 sink=sink)

    def policy_probs(self, states: np.ndarray) -> np.ndarray:
        """Per-seed action probabilities for ``(seeds, batch, *state)``."""
        states = np.asarray(states, dtype=self.dtype)
        logits = _infer_ops(self.plan.encoder_ops + self.plan.actor_ops,
                            states, self._resolve, True)
        shifted = logits - logits.max(axis=-1, keepdims=True)
        exp = np.exp(shifted)
        return exp / exp.sum(axis=-1, keepdims=True)

    def seed_policy_forward(self, seed: int, batch: int) -> _ActorInference:
        """A per-seed inference context reading this seed's weight views.

        The per-seed network's parameters are views into the stacked arrays,
        so the context always reads current weights; ``mark_updated`` bumps
        their versions so folded weights are refreshed after a step.
        """
        plan = plan_for(self.networks[seed])
        return plan.inference()


class _StackedSink(_GradSink):
    """Gradient sink writing into the stack's persistent stacked buffers.

    Inherits the add/matmul/sum accumulation discipline from
    :class:`_GradSink` unchanged; only buffer residence differs — the
    persistent buffers live on the stack (keyed by the *stacked*
    parameters), and the serial parameters the ops report are translated
    through ``stacked_of``.
    """

    __slots__ = ("_stack",)

    def __init__(self, stack: CompiledSeedStack) -> None:
        super().__init__(stack.parameters(), stack.dtype)
        self._stack = stack

    def begin(self) -> None:  # buffers live on the stack, not the sink
        self._seen = set()
        self._buffered = np.dtype(get_default_dtype()) == self._dtype

    def _view(self, param: Parameter, shape) -> np.ndarray:
        stacked = self._stack.stacked_of(param)
        buffer = self._stack._grad_into(stacked)
        return buffer if shape is None else buffer.reshape(shape)

    def _fallback(self, param: Parameter, value: np.ndarray) -> None:
        stacked = self._stack.stacked_of(param)
        value = np.asarray(value).reshape(stacked.data.shape)
        if id(param) in self._seen:
            self._stack._set_grad(stacked, stacked.grad + np.asarray(
                value, dtype=get_default_dtype()))
        else:
            self._stack._set_grad(stacked, value)
