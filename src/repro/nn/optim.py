"""Gradient-based optimizers for the NumPy neural-network substrate.

Optimizers accept either a flat iterable of :class:`Parameter` objects (one
learning rate for everything) or a PyTorch-style list of *parameter groups*::

    RMSProp([{"params": actor_params, "lr": 1e-3},
             {"params": critic_params, "lr": 1e-2}])

Groups are what lets the A2C trainer honor ``A2CConfig.critic_lr`` for the
critic head while the rest of the network steps at ``actor_lr``.

All update rules are elementwise over each parameter array, so a "stacked"
parameter of shape ``(seeds, *shape)`` — as used by the multi-seed lockstep
trainer — steps exactly as ``seeds`` independent parameters would, bit for
bit.  The one non-elementwise piece, global gradient-norm clipping, has a
dedicated per-seed variant in :func:`clip_grad_norm_stacked`.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Union

import numpy as np

from .layers import Parameter

__all__ = ["Optimizer", "SGD", "RMSProp", "Adam",
           "StackedSGD", "StackedRMSProp", "StackedAdam",
           "clip_grad_norm", "clip_grad_norm_stacked"]


def clip_grad_norm(parameters: Sequence[Parameter], max_norm: float) -> float:
    """Clip gradients in place so their global L2 norm is at most ``max_norm``.

    Returns the norm before clipping, which training loops log to monitor
    stability.
    """
    grads = [p.grad for p in parameters if p.grad is not None]
    if not grads:
        return 0.0
    total = float(np.sqrt(sum(float(np.vdot(g, g).real) for g in grads)))
    if total > max_norm and total > 0.0:
        scale = max_norm / total
        for g in grads:
            g *= scale
    return total


def clip_grad_norm_stacked(parameters: Sequence[Parameter],
                           max_norm: float) -> np.ndarray:
    """Per-seed gradient clipping for stacked ``(seeds, *shape)`` parameters.

    Each parameter's leading axis indexes independent training sessions; seed
    ``s`` is clipped against the global norm of its own slices, reproducing
    :func:`clip_grad_norm` applied to each seed's unstacked parameter list.
    The per-slice ``np.vdot`` accumulation deliberately mirrors the serial
    implementation operation for operation (BLAS dot per parameter, Python
    float sum across parameters) so each seed's clipped gradients are
    bit-identical to :func:`clip_grad_norm` on its own parameters, whatever
    the stack size.

    Returns the ``(seeds,)`` array of pre-clip norms.
    """
    grads = [p.grad for p in parameters if p.grad is not None]
    if not grads:
        return np.zeros(0)
    num_seeds = grads[0].shape[0]
    norms = np.empty(num_seeds)
    for s in range(num_seeds):
        total = float(np.sqrt(sum(float(np.vdot(g[s], g[s]).real)
                                  for g in grads)))
        norms[s] = total
        if total > max_norm and total > 0.0:
            scale = max_norm / total
            for g in grads:
                g[s] *= scale
    return norms


#: One parameter group: ``{"params": [...], "lr": float}``.
ParamGroups = Union[Iterable[Parameter], Sequence[dict]]


class Optimizer:
    """Base optimizer holding parameter groups with per-group learning rates."""

    def __init__(self, parameters: ParamGroups, lr: float = 1e-3) -> None:
        groups = self._normalize_groups(parameters, lr)
        self.param_groups: List[dict] = groups
        self.parameters: List[Parameter] = [p for group in groups
                                            for p in group["params"]]
        if not self.parameters:
            raise ValueError("optimizer received no parameters")
        #: Scalar learning rate of the first group (back-compat alias; group
        #: construction can give later groups different rates).
        self.lr = groups[0]["lr"]
        self._lrs: List[float] = [group["lr"] for group in groups
                                  for _ in group["params"]]

    @staticmethod
    def _normalize_groups(parameters: ParamGroups, lr: float) -> List[dict]:
        items = list(parameters)
        if items and isinstance(items[0], dict):
            groups = [{"params": list(g["params"]), "lr": float(g.get("lr", lr))}
                      for g in items]
        else:
            groups = [{"params": items, "lr": float(lr)}]
        for group in groups:
            if group["lr"] <= 0:
                raise ValueError("learning rate must be positive")
        return [group for group in groups if group["params"]]

    def zero_grad(self) -> None:
        for p in self.parameters:
            p.zero_grad()

    def step(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum."""

    def __init__(self, parameters: ParamGroups, lr: float = 1e-2,
                 momentum: float = 0.0, weight_decay: float = 0.0) -> None:
        super().__init__(parameters, lr)
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity = [np.zeros_like(p.data) for p in self.parameters]

    def step(self) -> None:
        for p, lr, velocity in zip(self.parameters, self._lrs, self._velocity):
            if p.grad is None:
                continue
            grad = p.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            if self.momentum:
                velocity *= self.momentum
                velocity += grad
                update = velocity
            else:
                update = grad
            # In place, so external views of p.data stay aliased (the
            # multi-seed stack exposes per-seed networks as views).
            p.data -= lr * update
            p.version = getattr(p, "version", 0) + 1


class RMSProp(Optimizer):
    """RMSProp, the optimizer used by the original Pensieve implementation."""

    def __init__(self, parameters: ParamGroups, lr: float = 1e-3,
                 decay: float = 0.99, eps: float = 1e-8) -> None:
        super().__init__(parameters, lr)
        self.decay = decay
        self.eps = eps
        self._square_avg = [np.zeros_like(p.data) for p in self.parameters]
        self._scratch = [np.empty_like(p.data) for p in self.parameters]

    def step(self) -> None:
        # Fused in-place update: the step is memory-bandwidth bound on the
        # large dense weights, so every avoided temporary is wall-clock.
        for p, lr, square_avg, scratch in zip(self.parameters, self._lrs,
                                              self._square_avg, self._scratch):
            if p.grad is None:
                continue
            square_avg *= self.decay
            np.multiply(p.grad, p.grad, out=scratch)
            scratch *= (1.0 - self.decay)
            square_avg += scratch
            np.sqrt(square_avg, out=scratch)
            scratch += self.eps
            np.divide(p.grad, scratch, out=scratch)
            scratch *= lr
            p.data -= scratch
            p.version = getattr(p, "version", 0) + 1


class Adam(Optimizer):
    """Adam optimizer with bias correction."""

    def __init__(self, parameters: ParamGroups, lr: float = 1e-3,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.0) -> None:
        super().__init__(parameters, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._step_count = 0
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]
        self._scratch = [np.empty_like(p.data) for p in self.parameters]

    def step(self) -> None:
        self._step_count += 1
        bias1 = 1.0 - self.beta1 ** self._step_count
        bias2 = 1.0 - self.beta2 ** self._step_count
        for p, lr, m, v, scratch in zip(self.parameters, self._lrs, self._m,
                                        self._v, self._scratch):
            if p.grad is None:
                continue
            grad = p.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            m *= self.beta1
            np.multiply(grad, 1.0 - self.beta1, out=scratch)
            m += scratch
            v *= self.beta2
            np.multiply(grad, grad, out=scratch)
            scratch *= 1.0 - self.beta2
            v += scratch
            # denom = sqrt(v / bias2) + eps, then update = lr * (m / bias1) / denom
            np.divide(v, bias2, out=scratch)
            np.sqrt(scratch, out=scratch)
            scratch += self.eps
            scratch *= bias1
            np.divide(m, scratch, out=scratch)
            scratch *= lr
            p.data -= scratch
            p.version = getattr(p, "version", 0) + 1

# --------------------------------------------------------------------------- #
# Stacked (multi-seed) optimizers
# --------------------------------------------------------------------------- #
#: Elements per cache block for the stacked update loops: 64 Ki floats is
#: 256 KB in float32, so the four arrays a block touches (data, grad, state,
#: scratch) stay resident in a ~2 MB L2 across the whole update sequence.
STACKED_BLOCK_ELEMS = 65536


def _flat_blocks(*arrays):
    """Yield aligned cache-block views over equally-sized contiguous arrays.

    The multi-pass update rules below are elementwise, so applying every pass
    to one block before moving to the next computes bit-identical values while
    each block's working set stays in L2 instead of streaming the full
    (seeds-times-larger) stacked arrays from memory once per pass.
    """
    flats = [array.reshape(-1) for array in arrays]
    size = flats[0].size
    for start in range(0, size, STACKED_BLOCK_ELEMS):
        yield tuple(flat[start:start + STACKED_BLOCK_ELEMS] for flat in flats)


def _blockable(p: Parameter) -> bool:
    return (p.grad is not None
            and p.data.flags["C_CONTIGUOUS"] and p.grad.flags["C_CONTIGUOUS"]
            and p.grad.dtype == p.data.dtype)


class StackedSGD(SGD):
    """SGD stepping stacked ``(seeds, *shape)`` parameters in cache blocks.

    Same arithmetic as :class:`SGD` (elementwise, so stacking and blocking
    change nothing bit for bit) with the memory traffic of a multi-seed
    parameter bank kept cache-resident per block.
    """

    def step(self) -> None:
        if not all(_blockable(p) for p in self.parameters
                   if p.grad is not None):
            return super().step()
        for p, lr, velocity in zip(self.parameters, self._lrs, self._velocity):
            if p.grad is None:
                continue
            for db, gb, vb in _flat_blocks(p.data, p.grad, velocity):
                grad = gb
                if self.weight_decay:
                    grad = grad + self.weight_decay * db
                if self.momentum:
                    vb *= self.momentum
                    vb += grad
                    update = vb
                else:
                    update = grad
                db -= lr * update
            p.version = getattr(p, "version", 0) + 1


class _SharedScratch:
    """One cache-block-sized scratch array shared by every blocked update.

    A full-size per-parameter scratch would stream ``2x`` the parameter bank
    through memory per update just for temporaries; a single L2-resident
    block is written and read entirely in cache.  Scratch contents are fully
    overwritten before every use, so sharing cannot change any value.
    """

    def __init__(self) -> None:
        self._blocks: dict = {}

    def get(self, dtype, size: int) -> np.ndarray:
        block = self._blocks.get(dtype)
        if block is None:
            block = np.empty(STACKED_BLOCK_ELEMS, dtype=dtype)
            self._blocks[dtype] = block
        return block[:size]


class StackedRMSProp(RMSProp):
    """RMSProp stepping stacked parameters in cache blocks (see :class:`StackedSGD`)."""

    def __init__(self, parameters: ParamGroups, lr: float = 1e-3,
                 decay: float = 0.99, eps: float = 1e-8) -> None:
        super().__init__(parameters, lr)
        # The blocked path replaces the parent's full-bank scratch arrays
        # with one shared cache block; materialize them only if the
        # non-contiguous fallback is ever taken.
        self._scratch = None
        self._shared = _SharedScratch()

    def step(self) -> None:
        if not all(_blockable(p) for p in self.parameters
                   if p.grad is not None):
            if self._scratch is None:
                self._scratch = [np.empty_like(p.data)
                                 for p in self.parameters]
            return super().step()
        for p, lr, square_avg in zip(self.parameters, self._lrs,
                                     self._square_avg):
            if p.grad is None:
                continue
            for db, gb, sb in _flat_blocks(p.data, p.grad, square_avg):
                cb = self._shared.get(db.dtype, gb.size)
                sb *= self.decay
                np.multiply(gb, gb, out=cb)
                cb *= (1.0 - self.decay)
                sb += cb
                np.sqrt(sb, out=cb)
                cb += self.eps
                np.divide(gb, cb, out=cb)
                cb *= lr
                db -= cb
            p.version = getattr(p, "version", 0) + 1


class StackedAdam(Adam):
    """Adam stepping stacked parameters in cache blocks (see :class:`StackedSGD`)."""

    def __init__(self, parameters: ParamGroups, lr: float = 1e-3,
                 betas: tuple = (0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.0) -> None:
        super().__init__(parameters, lr, betas=betas, eps=eps,
                         weight_decay=weight_decay)
        # See StackedRMSProp: the parent's full-bank scratch is only needed
        # by the non-contiguous fallback.
        self._scratch = None
        self._shared = _SharedScratch()

    def step(self) -> None:
        if not all(_blockable(p) for p in self.parameters if p.grad is not None):
            if self._scratch is None:
                self._scratch = [np.empty_like(p.data)
                                 for p in self.parameters]
            return super().step()
        self._step_count += 1
        bias1 = 1.0 - self.beta1 ** self._step_count
        bias2 = 1.0 - self.beta2 ** self._step_count
        for p, lr, m, v in zip(self.parameters, self._lrs, self._m, self._v):
            if p.grad is None:
                continue
            for db, gb, mb, vb in _flat_blocks(p.data, p.grad, m, v):
                cb = self._shared.get(db.dtype, gb.size)
                grad = gb
                if self.weight_decay:
                    grad = grad + self.weight_decay * db
                mb *= self.beta1
                np.multiply(grad, 1.0 - self.beta1, out=cb)
                mb += cb
                vb *= self.beta2
                np.multiply(grad, grad, out=cb)
                cb *= 1.0 - self.beta2
                vb += cb
                np.divide(vb, bias2, out=cb)
                np.sqrt(cb, out=cb)
                cb += self.eps
                cb *= bias1
                np.divide(mb, cb, out=cb)
                cb *= lr
                db -= cb
            p.version = getattr(p, "version", 0) + 1
