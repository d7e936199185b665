"""AdamW with decoupled weight decay and the warmup-cosine schedule."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import ContractError
from .tensor import Tensor

# Adam moment decay rates and denominator offset.
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8
# Elements per in-place update of AdamW.step: the update's temporaries stay
# within cache and never reach the size of the whole model.
CHUNK = 1 << 16


def scaled_peak_lr(batch_size: int) -> float:
    """Peak learning rate rule: 5e-4 scaled by batch/2048."""
    return 5e-4 * batch_size / 2048


@dataclass(frozen=True)
class LrSchedule:
    peak_lr: float
    warmup_steps: int
    total_steps: int

    def lr_at(self, step: int) -> float:
        """Linear ramp 0 -> peak over warmup, then cosine decay to 0."""
        if not 0 <= step <= self.total_steps:
            raise ContractError(f"step {step} outside schedule range [0, {self.total_steps}]")
        if self.warmup_steps > 0 and step < self.warmup_steps:
            return self.peak_lr * step / self.warmup_steps
        span = self.total_steps - self.warmup_steps
        if span <= 0:
            return self.peak_lr
        progress = (step - self.warmup_steps) / span
        return self.peak_lr * 0.5 * (1.0 + math.cos(math.pi * progress))


def _decay_exempt(name: str) -> bool:
    # Norm affine and bias parameters are not decayed.
    return name.endswith((".bias", ".gamma", ".beta"))


class AdamW:
    """Decoupled weight decay first, then bias-corrected Adam.

    Building it packs the parameters, in ``params`` order, into one flat
    buffer and rebinds each ``p.data`` to a view of its slot; next to it lie
    flat gradient, first- and second-moment buffers and a decay mask.  Each
    parameter's gradient lives in its slot of the gradient buffer (see
    ``tensor._Node.slot``), a gradient already set is copied there, and
    ``m`` and ``v`` map each name to a view of its moments.  A second
    ``AdamW`` on the same parameters takes them over.  ``step`` updates the
    four buffers in place, a chunk of ``CHUNK`` elements at a time, with the
    per-tensor expressions in the per-tensor order, so it is bitwise equal to
    updating each tensor on its own.
    """

    def __init__(self, params: dict[str, Tensor], weight_decay: float = 0.05):
        dtypes = {p.dtype for p in params.values()}
        if len(dtypes) > 1:
            raise ContractError(f"AdamW packs parameters of one dtype, got "
                                f"{sorted(d.name for d in dtypes)}")
        dtype = dtypes.pop() if dtypes else np.dtype(np.float32)
        total = sum(p.size for p in params.values())
        self.params = params
        self.weight_decay = weight_decay
        self.step_count = 0
        self._data = np.empty(total, dtype)
        self._grad = np.zeros(total, dtype)
        self._m = np.zeros(total, dtype)
        self._v = np.zeros(total, dtype)
        self._decay = np.zeros(total, bool)
        self.m, self.v = {}, {}
        start = 0
        for name, p in params.items():
            node = p._require_node("optimize")
            sl = slice(start, start + p.size)
            start = sl.stop
            self._data[sl] = p.data.reshape(-1)
            grad = p.grad
            p.data = self._data[sl].reshape(p.shape)
            node.slot = self._grad[sl].reshape(p.shape)
            p.grad = grad
            self.m[name] = self._m[sl].reshape(p.shape)
            self.v[name] = self._v[sl].reshape(p.shape)
            self._decay[sl] = not _decay_exempt(name)
        self._chunks = [slice(i, i + CHUNK) for i in range(0, total, CHUNK)]

    def step(self, lr: float):
        for name, p in self.params.items():
            if p.grad is None:
                raise ContractError(f"parameter {name} has no gradient")
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - BETA1 ** t
        bc2 = 1.0 - BETA2 ** t
        for sl in self._chunks:
            p, g, m, v = self._data[sl], self._grad[sl], self._m[sl], self._v[sl]
            if self.weight_decay:
                np.subtract(p, (lr * self.weight_decay) * p, out=p, where=self._decay[sl])
            m *= BETA1
            m += (1 - BETA1) * g
            v *= BETA2
            v += (1 - BETA2) * (g * g)
            p -= lr * (m / bc1) / (np.sqrt(v / bc2) + EPS)


def clip_grad_norm(params: dict[str, Tensor], max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most max_norm.

    The squares are summed per tensor in f64 and the sums added in
    ``params`` order, which fixes the norm's bits."""
    total = 0.0
    for p in params.values():
        if p.grad is not None:
            total += float(np.sum(p.grad.astype(np.float64) ** 2))
    norm = math.sqrt(total)
    if norm > max_norm > 0:
        scale = max_norm / norm
        for p in params.values():
            g = p.grad
            if g is not None:
                g *= np.asarray(scale, dtype=g.dtype)
    return norm
