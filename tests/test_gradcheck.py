"""Finite-difference validation of every backward rule, per op and through a
composite chain.  The full end-to-end model check runs in the acceptance
module; here we keep the cheap per-op suite, batchnorm's eval branch and a
conv-norm-linear chain."""

import numpy as np
import pytest

from svtr import tensor as T
from svtr.gradcheck import TOLERANCES, check_fn, max_rel_error, run_suite


def test_suite_f64():
    results = run_suite(dtype=np.float64)
    tol = TOLERANCES[np.float64]
    bad = {k: v for k, v in results.items() if v >= tol}
    assert not bad, f"ops exceeding {tol}: {bad}"


def test_suite_f32():
    results = run_suite(dtype=np.float32)
    tol = TOLERANCES[np.float32]
    bad = {k: v for k, v in results.items() if v >= tol}
    assert not bad, f"ops exceeding {tol}: {bad}"


def test_composite_conv_layernorm_linear_chain_f32():
    rng = np.random.default_rng(99)

    def chain(ts):
        x = T.conv2d(ts[0], ts[1], ts[2], stride=(1, 1))
        b, c, h, w = x.shape
        x = T.transpose(T.reshape(x, (b, c, h * w)), (0, 2, 1))
        x = T.layernorm(x, ts[3], ts[4])
        return T.tsum(T.matmul(x, ts[5], ts[6]))

    arrays = [rng.uniform(-1, 1, size=(1, 2, 4, 5)),
              rng.uniform(-1, 1, size=(3, 2, 3, 3)),
              rng.uniform(-1, 1, size=(3,)),
              rng.uniform(-1, 1, size=(3,)),
              rng.uniform(-1, 1, size=(3,)),
              rng.uniform(-1, 1, size=(3, 2)),
              rng.uniform(-1, 1, size=(2,))]
    worst = check_fn(chain, arrays, dtype=np.float32)
    assert worst < TOLERANCES[np.float32]


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_batchnorm2d_eval_gradients(dtype):
    # Eval mode takes the running statistics as constants, a branch of the
    # rule that ``run_suite`` (training mode only) never reaches; it stays out
    # of the suite, whose errors the gradcheck digest hashes.
    rng = np.random.default_rng(98)
    mean = rng.uniform(-0.5, 0.5, size=3).astype(np.float32)
    var = rng.uniform(0.5, 2.0, size=3).astype(np.float32)

    def fn(ts):
        out = T.batchnorm2d(ts[0], ts[1], ts[2], mean.copy(), var.copy(), training=False)
        return T.tsum(T.mul(out, ts[3]))

    arrays = [rng.uniform(-1, 1, size=s) for s in ((4, 3, 2, 2), (3,), (3,), (4, 3, 2, 2))]
    assert check_fn(fn, arrays, dtype=dtype) < TOLERANCES[dtype]


def test_max_rel_error_normalization():
    assert max_rel_error(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 0.0
    assert np.isclose(max_rel_error(np.array([100.0]), np.array([101.0])), 1 / 101)
    # zero against zero does not divide by zero
    assert max_rel_error(np.zeros(3), np.zeros(3)) == 0.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_max_rel_error_is_inf_on_a_non_finite_side(bad):
    good = np.array([1.0, 2.0])
    worse = np.array([1.0, bad])
    assert max_rel_error(worse, good) == np.inf
    assert max_rel_error(good, worse) == np.inf


def test_check_fn_fails_a_rule_that_yields_nan():
    def nan_rule_identity(x):
        xn = x._node
        return T._make(x.data.copy(), (x,), lambda g: T._accumulate(xn, g * np.nan))

    def fn(ts):
        return T.tsum(T.mul(nan_rule_identity(ts[0]), ts[1]))

    arrays = [np.ones((2, 3)), np.full((2, 3), 2.0)]
    assert check_fn(fn, arrays) == np.inf
