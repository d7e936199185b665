"""Schedule closed forms and optimizer update rules."""

import math

import numpy as np
import pytest

from svtr import optim
from svtr import tensor as T
from svtr.config import PRESETS
from svtr.exceptions import ContractError
from svtr.model import SvtrModel
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
    opt = AdamW({"w.bias": p})
    before = p.data.copy()
    opt.step(lr=0.1)
    np.testing.assert_array_equal(p.data, before)


def test_adamw_first_step_magnitude():
    # bias-corrected first step with constant gradient 1 moves by about lr
    p = Tensor(np.array([0.0]), requires_grad=True)
    p.grad = np.ones(1, dtype=np.float32)
    opt = AdamW({"w.bias": p})
    lr = 0.01
    opt.step(lr)
    # closed form: m_hat = 1, v_hat = 1, update = lr / (1 + eps)
    expected = -lr * 1.0 / (1.0 + optim.EPS)
    assert np.isclose(float(p.data[0]), expected, rtol=1e-6)


def test_adamw_decoupled_decay_scaling():
    p = Tensor(np.array([4.0]), requires_grad=True)
    p.grad = np.zeros(1, dtype=np.float32)
    opt = AdamW({"w.weight": p})
    opt.step(lr=0.01)
    # zero gradient leaves the Adam term at zero; only the decay applies
    assert np.isclose(float(p.data[0]), 4.0 * (1 - 5e-4), rtol=1e-7)


def test_adamw_exempts_bias_and_norm_affine():
    tensors = {name: Tensor(np.array([2.0]), requires_grad=True)
               for name in ["fc.weight", "fc.bias", "norm.gamma", "norm.beta"]}
    for t in tensors.values():
        t.grad = np.zeros(1, dtype=np.float32)
    AdamW(tensors).step(lr=0.01)
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


# -- the parameter arena ----------------------------------------------------

def _micro_params(dtype):
    """svtr-micro's parameters, decayed and exempt names, as fresh leaves."""
    model = SvtrModel(PRESETS["svtr-micro"], seed=3)
    return {name: Tensor(p.data.astype(dtype), requires_grad=True)
            for name, p in model.params.items()}


def _per_tensor_adamw(data, grads, m, v, t, lr, weight_decay=0.05):
    """One AdamW step tensor by tensor, each update a fresh array: the
    reference the packed step must match bitwise."""
    bc1 = 1.0 - optim.BETA1 ** t
    bc2 = 1.0 - optim.BETA2 ** t
    for name in data:
        g = grads[name]
        if weight_decay and not optim._decay_exempt(name):
            data[name] = data[name] - (lr * weight_decay) * data[name]
        m[name] = optim.BETA1 * m[name] + (1 - optim.BETA1) * g
        v[name] = optim.BETA2 * v[name] + (1 - optim.BETA2) * (g * g)
        m_hat = m[name] / bc1
        v_hat = v[name] / bc2
        data[name] = data[name] - lr * m_hat / (np.sqrt(v_hat) + optim.EPS)


def _per_tensor_clip(grads, max_norm):
    norm = math.sqrt(sum(float(np.sum(g.astype(np.float64) ** 2)) for g in grads.values()))
    if norm > max_norm > 0:
        for name, g in grads.items():
            grads[name] = g * np.asarray(max_norm / norm, dtype=g.dtype)
    return norm


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_packed_adamw_is_bitwise_the_per_tensor_update(dtype):
    params = _micro_params(dtype)
    assert any(optim._decay_exempt(n) for n in params)
    assert not all(optim._decay_exempt(n) for n in params)
    data = {name: p.data.copy() for name, p in params.items()}
    m = {name: np.zeros_like(a) for name, a in data.items()}
    v = {name: np.zeros_like(a) for name, a in data.items()}
    opt = AdamW(params)
    rng = np.random.default_rng(21)
    # Step 2 has lr 0; step 4 follows a clip that scales.
    for t, lr in enumerate((1e-3, 0.0, 3e-2, 1e-2, 5e-4, 2e-3), start=1):
        grads = {name: rng.normal(0.0, 0.1, p.shape).astype(dtype)
                 for name, p in params.items()}
        for name, p in params.items():
            p.grad = grads[name]
        if t == 4:
            norm = clip_grad_norm(params, max_norm=1.0)
            assert norm == _per_tensor_clip(grads, max_norm=1.0) > 1.0
        opt.step(lr)
        _per_tensor_adamw(data, grads, m, v, t, lr)
        for name, p in params.items():
            assert p.data.dtype == opt.m[name].dtype == opt.v[name].dtype == dtype
            assert p.data.tobytes() == data[name].tobytes(), (t, name)
            assert opt.m[name].tobytes() == m[name].tobytes(), (t, name)
            assert opt.v[name].tobytes() == v[name].tobytes(), (t, name)


def test_grad_set_before_or_after_packing_is_the_grad_step_uses():
    rng = np.random.default_rng(22)
    params = {"a.weight": Tensor(rng.normal(size=(3, 4)).astype(np.float32), requires_grad=True),
              "b.bias": Tensor(rng.normal(size=5).astype(np.float32), requires_grad=True)}
    grads = {name: rng.normal(size=p.shape).astype(np.float32) for name, p in params.items()}
    data = {name: p.data.copy() for name, p in params.items()}
    params["a.weight"].grad = grads["a.weight"].copy()
    opt = AdamW(params)
    params["b.bias"].grad = grads["b.bias"].copy()
    opt.step(lr=1e-2)
    m = {name: np.zeros_like(a) for name, a in data.items()}
    v = {name: np.zeros_like(a) for name, a in data.items()}
    _per_tensor_adamw(data, grads, m, v, 1, 1e-2)
    for name, p in params.items():
        assert p.data.tobytes() == data[name].tobytes()


def test_backward_fills_the_slots_step_reads():
    rng = np.random.default_rng(23)
    x = Tensor(rng.normal(size=(2, 3)).astype(np.float32))
    w = Tensor(rng.normal(size=(3, 4)).astype(np.float32), requires_grad=True)
    loose = Tensor(w.data.copy(), requires_grad=True)
    opt = AdamW({"w.weight": w})
    # Two passes: the second adds in place to the first's gradient.
    for leaf in (w, loose):
        for _ in range(2):
            T.tsum(T.matmul(x, leaf)).backward()
    assert w.grad.tobytes() == loose.grad.tobytes()
    slot = w.grad
    w.grad = None
    assert w.grad is None
    T.tsum(T.matmul(x, w)).backward()
    T.tsum(T.matmul(x, w)).backward()
    assert w.grad is slot
    opt.step(lr=1e-2)
    data = {"w.weight": loose.data}
    m, v = ({"w.weight": np.zeros((3, 4), np.float32)} for _ in range(2))
    _per_tensor_adamw(data, {"w.weight": loose.grad}, m, v, 1, 1e-2)
    assert w.data.tobytes() == data["w.weight"].tobytes()


def test_packed_parameters_keep_their_arrays_and_moments_by_name():
    params = _micro_params(np.float32)
    opt = AdamW(params)
    arrays = {name: p.data for name, p in params.items()}
    for lr in (1e-3, 2e-3):
        for p in params.values():
            p.grad = np.ones(p.shape, np.float32)
        opt.step(lr)
    for name, p in params.items():
        assert p.data is arrays[name]
        assert opt.m[name].shape == opt.v[name].shape == p.shape
        assert np.all(opt.m[name] > 0) and np.all(opt.v[name] > 0)


def test_adamw_rejects_parameters_of_mixed_dtypes():
    params = {"a.weight": Tensor(np.zeros(2, np.float32), requires_grad=True),
              "b.weight": Tensor(np.zeros(2, np.float64), requires_grad=True)}
    with pytest.raises(ContractError):
        AdamW(params)


def test_a_second_adamw_takes_the_parameters_over():
    params = _micro_params(np.float32)
    first = AdamW(params)
    second = AdamW(params)
    fresh = _micro_params(np.float32)
    reference = AdamW(fresh)
    for p, q in zip(params.values(), fresh.values()):
        p.grad = q.grad = np.full(p.shape, 0.5, np.float32)
    before = {name: p.data.copy() for name, p in params.items()}
    first.step(lr=1e-2)
    for name, p in params.items():
        assert p.data.tobytes() == before[name].tobytes()
    second.step(lr=1e-2)
    reference.step(lr=1e-2)
    for name, p in params.items():
        assert p.data.tobytes() == fresh[name].data.tobytes()
