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
    """Decoupled weight decay first, then bias-corrected Adam."""

    def __init__(self, params: dict[str, Tensor], weight_decay: float = 0.05):
        self.params = params
        self.weight_decay = weight_decay
        self.step_count = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def step(self, lr: float):
        for name, p in self.params.items():
            if p.grad is None:
                raise ContractError(f"parameter {name} has no gradient")
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - BETA1 ** t
        bc2 = 1.0 - BETA2 ** t
        for name, p in self.params.items():
            g = p.grad
            if self.weight_decay and not _decay_exempt(name):
                p.data = p.data - (lr * self.weight_decay) * p.data
            self.m[name] = BETA1 * self.m[name] + (1 - BETA1) * g
            self.v[name] = BETA2 * self.v[name] + (1 - BETA2) * (g * g)
            m_hat = self.m[name] / bc1
            v_hat = self.v[name] / bc2
            p.data = p.data - lr * m_hat / (np.sqrt(v_hat) + EPS)


def clip_grad_norm(params: dict[str, Tensor], max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most max_norm."""
    total = 0.0
    for p in params.values():
        if p.grad is not None:
            total += float(np.sum(p.grad.astype(np.float64) ** 2))
    norm = math.sqrt(total)
    if norm > max_norm > 0:
        scale = max_norm / norm
        for p in params.values():
            if p.grad is not None:
                p.grad = p.grad * np.asarray(scale, dtype=p.grad.dtype)
    return norm
