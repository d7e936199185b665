"""Central finite-difference checks for every differentiable op.

The numeric side only ever calls forward evaluations, so it stays
independent of the analytic backward rules it validates.  The suite runs
in f64 (tolerance 1e-4) and f32 (tolerance 1e-2); ``run_suite`` returns the
worst normalized error per op and backs both the CLI command and the tests.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from . import tensor as T
from .config import PRESETS, SvtrConfig
from .ctc import LabelSeq, ctc_loss
from .model import SvtrModel
from .tensor import Tensor

H_STEP = 1e-3
TOLERANCES = {np.float64: 1e-4, np.float32: 1e-2}
# check_model's coordinates per parameter tensor, seed and step.
MODEL_SAMPLES_PER_PARAM = 8
MODEL_SEED = 7
MODEL_H_STEP = 1e-5


def max_rel_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Largest absolute deviation normalized by the gradient magnitude."""
    scale = max(float(np.abs(analytic).max(initial=0.0)),
                float(np.abs(numeric).max(initial=0.0)), 1e-8)
    return float(np.abs(analytic - numeric).max(initial=0.0)) / scale


def central_difference(fn, flat: np.ndarray, i: int, h: float) -> float:
    """(fn() at flat[i] + h minus fn() at flat[i] - h) / 2h.

    ``flat[i]`` is bumped in place, so ``flat`` must be a view of the array
    ``fn`` reads; its value is restored afterwards.
    """
    orig = flat[i]
    try:
        flat[i] = orig + h
        up = fn()
        flat[i] = orig - h
        down = fn()
    finally:
        flat[i] = orig
    return (up - down) / (2 * h)


def numeric_grad(fn, arrays: list[np.ndarray], index: int) -> np.ndarray:
    """Central differences of the scalar fn wrt arrays[index], in f64."""
    arrays = [a.copy() for a in arrays]
    flat = arrays[index].reshape(-1)
    grad = [central_difference(lambda: fn(arrays), flat, i, H_STEP) for i in range(flat.size)]
    return np.array(grad, dtype=np.float64).reshape(arrays[index].shape)


def check_fn(fn, arrays: list[np.ndarray], dtype=np.float64) -> float:
    """Worst error over all inputs of a scalar-valued tensor function.

    Analytic gradients are computed at ``dtype``; the finite-difference
    oracle always evaluates in f64 (shadow evaluation) at the same point.
    """
    base = [a.astype(dtype).astype(np.float64) for a in arrays]
    tensors = [Tensor(a.astype(dtype), requires_grad=True) for a in base]
    out = fn(tensors)
    out.backward()

    def eval_at(arrs):
        return float(fn([Tensor(a) for a in arrs]).data)

    worst = 0.0
    for i, t in enumerate(tensors):
        analytic = t.grad.astype(np.float64) if t.grad is not None else np.zeros(t.shape)
        numeric = numeric_grad(eval_at, base, i)
        worst = max(worst, max_rel_error(analytic, numeric))
    return worst


def _uniform(rng, shape):
    return rng.uniform(-1.0, 1.0, size=shape)


def suite_cases() -> dict:
    """Named scalar-valued functions with their input arrays."""
    rng = np.random.default_rng(1234)
    mask = np.zeros((6, 6), dtype=bool)
    mask[np.abs(np.arange(6)[:, None] - np.arange(6)[None, :]) <= 2] = True

    cases = {
        "add": (lambda ts: (ts[0] + ts[1]).sum(),
                [_uniform(rng, (3, 4)), _uniform(rng, (4,))]),
        "mul": (lambda ts: T.mul(ts[0], ts[1]).sum(),
                [_uniform(rng, (3, 4)), _uniform(rng, (3, 4))]),
        "matmul": (lambda ts: T.matmul(ts[0], ts[1]).sum(),
                   [_uniform(rng, (3, 4)), _uniform(rng, (4, 2))]),
        "matmul_batched": (lambda ts: T.matmul(ts[0], ts[1]).sum(),
                           [_uniform(rng, (2, 2, 3, 4)), _uniform(rng, (2, 2, 4, 2))]),
        "linear": (lambda ts: T.matmul(ts[0], ts[1], ts[2]).sum(),
                   [_uniform(rng, (2, 5, 4)), _uniform(rng, (4, 3)), _uniform(rng, (3,))]),
        "conv2d": (lambda ts: T.conv2d(ts[0], ts[1], ts[2], stride=(2, 1)).sum(),
                   [_uniform(rng, (2, 2, 5, 7)), _uniform(rng, (3, 2, 3, 3)),
                    _uniform(rng, (3,))]),
        "layernorm": (lambda ts: T.layernorm(ts[0], ts[1], ts[2]).sum(),
                      [_uniform(rng, (3, 8)), _uniform(rng, (8,)), _uniform(rng, (8,))]),
        # Training mode reads no running statistic, but updates them in place.
        "batchnorm2d": (lambda ts: T.mul(T.batchnorm2d(
                            ts[0], ts[1], ts[2], np.zeros(3, np.float32),
                            np.ones(3, np.float32), True), ts[3]).sum(),
                        [_uniform(rng, (4, 3, 2, 2)), _uniform(rng, (3,)),
                         _uniform(rng, (3,)), _uniform(rng, (4, 3, 2, 2))]),
        "softmax": (lambda ts: T.mul(T.softmax(ts[0]), ts[1]).sum(),
                    [_uniform(rng, (3, 6)), _uniform(rng, (3, 6))]),
        "log_softmax": (lambda ts: T.mul(T.log_softmax(ts[0]), ts[1]).sum(),
                        [_uniform(rng, (3, 6)), _uniform(rng, (3, 6))]),
        "gelu": (lambda ts: T.mul(T.gelu(ts[0]), ts[1]).sum(),
                 [_uniform(rng, (4, 5)), _uniform(rng, (4, 5))]),
        "mean_pool_height": (lambda ts: T.mul(T.mean_pool_height(ts[0]), ts[1]).sum(),
                             [_uniform(rng, (2, 3, 4, 5)), _uniform(rng, (2, 3, 1, 5))]),
        "reshape_transpose": (
            lambda ts: T.mul(T.transpose(T.reshape(ts[0], (2, 6, 2)), (1, 0, 2)),
                             ts[1]).sum(),
            [_uniform(rng, (4, 6)), _uniform(rng, (6, 2, 2))]),
        "split": (lambda ts: T.mul(T.split(ts[0], 3, axis=-1)[1], ts[1]).sum(),
                  [_uniform(rng, (2, 9)), _uniform(rng, (2, 3))]),
        "masked_softmax": (
            lambda ts: T.mul(T.softmax(T.apply_attention_mask(ts[0], mask)), ts[1]).sum(),
            [_uniform(rng, (2, 6, 6)), _uniform(rng, (2, 6, 6))]),
        "ctc_loss": (lambda ts: ctc_loss(T.log_softmax(ts[0]), [LabelSeq((1, 2))]),
                     [_uniform(rng, (1, 5, 3))]),
    }
    return cases


def run_suite(dtype=np.float64) -> dict[str, float]:
    return {name: check_fn(fn, arrays, dtype=dtype)
            for name, (fn, arrays) in suite_cases().items()}


def micro_config() -> SvtrConfig:
    """Tiny end-to-end architecture for whole-model gradient checks: the
    svtr-micro preset at 16x32 with 5 classes and labels of at most 3 symbols."""
    return replace(PRESETS["svtr-micro"], charset_size=5, input_w=32, max_label_len=3)


def check_model(dtype=np.float64) -> dict[str, float]:
    """End-to-end check: CTC loss gradient of every parameter vs central
    differences at a deterministic sample of coordinates per tensor.

    The oracle runs on an f64 shadow model holding the same values, with a
    smaller step than the per-op checks: through the full depth the H_STEP
    truncation term already exceeds the f64 tolerance.
    """
    cfg = micro_config()
    model = SvtrModel(cfg, seed=MODEL_SEED, dtype=dtype)
    shadow = SvtrModel.from_state(cfg, {name: p.data for name, p in model.params.items()},
                                  model.buffers, dtype=np.float64)
    model.eval()   # dropout is 0 anyway; eval keeps BN stats frozen across evals
    shadow.eval()
    rng = np.random.default_rng(MODEL_SEED)
    image = rng.uniform(0.0, 1.0, size=(1, 3, cfg.input_h, cfg.input_w))
    labels = [LabelSeq((1, 3))]

    def loss_value() -> float:
        logits = shadow.forward(image)
        return float(ctc_loss(T.log_softmax(logits), labels).data)

    model.zero_grad()
    logits = model.forward(image)
    loss = ctc_loss(T.log_softmax(logits), labels)
    loss.backward()

    pick = np.random.default_rng(MODEL_SEED + 1)
    errors: dict[str, float] = {}
    for name, p in model.params.items():
        n = p.size
        coords = pick.choice(n, size=min(MODEL_SAMPLES_PER_PARAM, n), replace=False)
        analytic = p.grad.reshape(-1).astype(np.float64) if p.grad is not None \
            else np.zeros(n)
        flat = shadow.params[name].data.reshape(-1)
        numeric = [central_difference(loss_value, flat, c, MODEL_H_STEP) for c in coords]
        # Normalize per tensor, not per coordinate, so near-zero entries do
        # not blow up the relative error.
        errors[name] = max_rel_error(analytic[coords], np.asarray(numeric))
    return errors
