"""Schedule closed forms and optimizer update rules."""

import math

import numpy as np
import pytest

from svtr import optim
from svtr.exceptions import ContractError
from svtr.optim import AdamW, LrSchedule, clip_grad_norm, scaled_peak_lr
from svtr.tensor import Tensor


def test_peak_lr_rule():
    assert scaled_peak_lr(2048) == 5e-4
    assert np.isclose(scaled_peak_lr(256), 6.25e-5, atol=1e-18)


def test_schedule_closed_form():
    peak = 6.25e-5
    sched = LrSchedule(peak_lr=peak, warmup_steps=100, total_steps=1000)
    assert sched.lr_at(0) == 0.0
    assert abs(sched.lr_at(100) - peak) < 1e-12
    mid = 100 + (1000 - 100) // 2
    assert abs(sched.lr_at(mid) - peak * 0.5) < 1e-12
    assert abs(sched.lr_at(1000)) < 1e-12


def test_schedule_ramp_is_linear():
    sched = LrSchedule(peak_lr=1.0, warmup_steps=4, total_steps=10)
    for step in range(5):
        assert abs(sched.lr_at(step) - step / 4) < 1e-12


def test_schedule_rejects_out_of_range():
    sched = LrSchedule(peak_lr=1.0, warmup_steps=2, total_steps=10)
    for step in (-1, 11):
        with pytest.raises(ContractError):
            sched.lr_at(step)


def test_adamw_zero_grad_no_decay_is_noop():
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    p.grad = np.zeros(2, dtype=np.float32)
    opt = AdamW({"w.weight": p}, weight_decay=0.0)
    before = p.data.copy()
    opt.step(lr=0.1)
    np.testing.assert_array_equal(p.data, before)


def test_adamw_first_step_magnitude():
    # bias-corrected first step with constant gradient 1 moves by about lr
    p = Tensor(np.array([0.0]), requires_grad=True)
    p.grad = np.ones(1, dtype=np.float32)
    opt = AdamW({"w.weight": p}, weight_decay=0.0)
    lr = 0.01
    opt.step(lr)
    # closed form: m_hat = 1, v_hat = 1, update = lr / (1 + eps)
    expected = -lr * 1.0 / (1.0 + optim.EPS)
    assert np.isclose(float(p.data[0]), expected, rtol=1e-6)


def test_adamw_decoupled_decay_scaling():
    p = Tensor(np.array([4.0]), requires_grad=True)
    p.grad = np.zeros(1, dtype=np.float32)
    opt = AdamW({"w.weight": p}, weight_decay=0.05)
    opt.step(lr=0.01)
    # zero gradient leaves the Adam term at zero; only the decay applies
    assert np.isclose(float(p.data[0]), 4.0 * (1 - 5e-4), rtol=1e-7)


def test_adamw_exempts_bias_and_norm_affine():
    tensors = {name: Tensor(np.array([2.0]), requires_grad=True)
               for name in ["fc.weight", "fc.bias", "norm.gamma", "norm.beta"]}
    for t in tensors.values():
        t.grad = np.zeros(1, dtype=np.float32)
    AdamW(tensors, weight_decay=0.05).step(lr=0.01)
    assert float(tensors["fc.weight"].data[0]) < 2.0
    for name in ["fc.bias", "norm.gamma", "norm.beta"]:
        assert float(tensors[name].data[0]) == 2.0


def test_adamw_missing_grad_names_parameter():
    p = Tensor(np.zeros(2), requires_grad=True)
    opt = AdamW({"stage1.block0.attn.qkv.weight": p})
    with pytest.raises(ContractError) as exc:
        opt.step(lr=0.1)
    assert "stage1.block0.attn.qkv.weight" in str(exc.value)


def test_clip_grad_norm():
    a = Tensor(np.zeros(1), requires_grad=True)
    b = Tensor(np.zeros(1), requires_grad=True)
    a.grad = np.array([3.0], dtype=np.float32)
    b.grad = np.array([4.0], dtype=np.float32)
    norm = clip_grad_norm({"a": a, "b": b}, max_norm=1.0)
    assert np.isclose(norm, 5.0)
    clipped = math.hypot(float(a.grad[0]), float(b.grad[0]))
    assert np.isclose(clipped, 1.0, rtol=1e-5)


def test_clip_grad_norm_below_threshold_untouched():
    a = Tensor(np.zeros(1), requires_grad=True)
    a.grad = np.array([0.5], dtype=np.float32)
    clip_grad_norm({"a": a}, max_norm=5.0)
    assert float(a.grad[0]) == 0.5
