"""The ops that compute in place give the bits of the plain expressions.

``gelu``, ``softmax``, the bias adds of ``matmul`` and ``conv2d`` and the
backward rules of ``layernorm`` and ``batchnorm2d`` write into fresh arrays
they own instead of allocating one per operation.  Each test here runs the
op and compares its output and gradients, bit for bit, with a test-local copy
of the allocating expressions, in f32 and f64.  The erf test pins the
identity ``gelu`` relies on: scipy's erf is exactly odd.
"""

import numpy as np
import pytest
from scipy.special import erf

from svtr import tensor as T
from svtr.model import local_attention_mask
from svtr.tensor import Tensor

DTYPES = [np.float32, np.float64]


def _wide(a):
    return a if a.dtype == np.float64 else a.astype(np.float64)


def _assert_same_bits(actual, expected):
    """Equal dtype, shape and NaN positions; every other value equal bit for
    bit, so -0.0 and 0.0 differ."""
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    nan = np.isnan(expected)
    np.testing.assert_array_equal(np.isnan(actual), nan)
    uint = np.uint32 if actual.dtype == np.float32 else np.uint64
    np.testing.assert_array_equal(actual[~nan].view(uint), expected[~nan].view(uint))


def _grads(out, g, *inputs):
    """Run backward with upstream gradient ``g`` into ``out``; the inputs'
    gradients."""
    T.tsum(T.mul(out, Tensor(g))).backward()
    return [t.grad for t in inputs]


def _leaf(a):
    return Tensor(a, requires_grad=True)


# -- gelu -------------------------------------------------------------------

def _gelu_reference(xd, g):
    e = erf(xd * T._INV_SQRT2).astype(xd.dtype)
    out = 0.5 * xd * (1.0 + e)
    d = 0.5 * (1.0 + e) + xd * np.exp(-0.5 * xd * xd) * T._INV_SQRT_2PI
    return out, g * d.astype(xd.dtype)


@pytest.mark.parametrize("dtype", DTYPES)
def test_gelu_matches_the_plain_expressions(dtype):
    tiny = np.finfo(dtype).tiny
    special = [0.0, -0.0, tiny, -tiny, tiny / 4, -tiny / 4, 1.0, -1.0, 4.0, -4.0,
               100.0, -100.0, np.inf, -np.inf, np.nan, -np.nan]
    rng = np.random.default_rng(3)
    xd = np.concatenate([np.array(special), rng.normal(scale=3.0, size=500)]).astype(dtype)
    g = rng.normal(size=xd.shape).astype(dtype)
    x = _leaf(xd.copy())
    with np.errstate(invalid="ignore"):  # inf * 0 at x = +-inf, in both
        out = T.gelu(x)
        (gx,) = _grads(out, g, x)
        ref_out, ref_gx = _gelu_reference(xd, g)
    _assert_same_bits(out.data, ref_out)
    _assert_same_bits(gx, ref_gx)
    assert np.isnan(out.data[np.isnan(xd)]).all()
    np.testing.assert_array_equal(x.data, xd)


@pytest.mark.parametrize("dtype", DTYPES)
def test_gelu_without_grad_gives_the_same_output(dtype):
    xd = np.random.default_rng(4).normal(size=(3, 7)).astype(dtype)
    _assert_same_bits(T.gelu(Tensor(xd)).data, _gelu_reference(xd, xd)[0])


def test_erf_is_exactly_odd():
    """``gelu`` takes erf of |z| and restores the sign with copysign; that is
    erf(z) bit for bit only while scipy's erf is exactly odd.  A check of
    every finite non-negative f32 value found no mismatch; this samples it."""
    rng = np.random.default_rng(20)
    sub32 = np.finfo(np.float32).smallest_subnormal
    f32 = np.concatenate([
        rng.integers(0, 2**32, size=2**20, dtype=np.uint32).view(np.float32),
        np.array([0.0, -0.0, np.inf, -np.inf, sub32, -sub32,
                  np.finfo(np.float32).tiny * (1 - 2.0**-23)], dtype=np.float32),
        (np.arange(1, 1025, dtype=np.uint32) * 8191).view(np.float32),  # subnormals
    ])
    f64 = np.concatenate([
        rng.integers(0, 2**63, size=2**16, dtype=np.uint64).view(np.float64),
        rng.normal(scale=3.0, size=2**16),
        np.array([0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324]),
    ])
    for x, uint in ((f32, np.uint32), (f64, np.uint64)):
        x = x[~np.isnan(x)]
        signed = np.concatenate([x, -x])
        restored = np.copysign(erf(np.abs(signed)), signed)
        np.testing.assert_array_equal(restored.view(uint), erf(signed).view(uint))
        assert np.isnan(erf(np.array([np.nan], dtype=x.dtype))).all()


# -- softmax ----------------------------------------------------------------

def _softmax_reference(xd, g):
    x64 = _wide(xd)
    shifted = x64 - x64.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y64 = e / e.sum(axis=-1, keepdims=True)
    g64 = _wide(g)
    gx = y64 * (g64 - (g64 * y64).sum(axis=-1, keepdims=True))
    return y64.astype(xd.dtype), gx.astype(xd.dtype)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("case", ["masked", "width1", "dense"])
def test_softmax_matches_the_plain_expressions(dtype, case):
    rng = np.random.default_rng(5)
    if case == "masked":
        # Rows holding -inf, as the local blocks' scores do.
        mask = local_attention_mask(4, 6, 3, 3)
        xd = np.where(mask, rng.normal(scale=4.0, size=(2, 3, 24, 24)), -np.inf)
    elif case == "width1":
        xd = rng.normal(size=(2, 5, 1))
    else:
        xd = rng.normal(scale=4.0, size=(2, 2, 16, 16))
    xd = xd.astype(dtype)
    g = rng.normal(size=xd.shape).astype(dtype)
    x = _leaf(xd.copy())
    out = T.softmax(x)
    (gx,) = _grads(out, g, x)
    ref_out, ref_gx = _softmax_reference(xd, g)
    _assert_same_bits(out.data, ref_out)
    _assert_same_bits(gx, ref_gx)
    np.testing.assert_array_equal(x.data, xd)


# -- normalization ----------------------------------------------------------

def _layernorm_reference(xd, gd, bd, g):
    n = xd.shape[-1]
    xc = xd.astype(np.float64)
    mu = np.add.reduce(xc, axis=-1, keepdims=True) / n
    xc -= mu
    var = np.add.reduce(xc * xc, axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + T.NORM_EPS)
    out = ((xd.astype(np.float64) - mu) * inv * _wide(gd) + _wide(bd)).astype(xd.dtype)
    xhat = (_wide(xd) - mu) * inv
    g64 = _wide(g)
    dxhat = g64 * _wide(gd)
    m1 = dxhat.mean(axis=-1, keepdims=True)
    m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
    gx = inv * (dxhat - m1 - xhat * m2)
    axes = tuple(range(g64.ndim - 1))
    return out, [a.astype(xd.dtype) for a in (gx, (g64 * xhat).sum(axis=axes), g64.sum(axis=axes))]


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("d", [1, 12])
def test_layernorm_matches_the_plain_expressions(dtype, d):
    rng = np.random.default_rng(6)
    xd, gd, bd = (rng.normal(size=s).astype(dtype) for s in ((2, 5, d), (d,), (d,)))
    g = rng.normal(size=xd.shape).astype(dtype)
    x, gamma, beta = _leaf(xd.copy()), _leaf(gd.copy()), _leaf(bd.copy())
    out = T.layernorm(x, gamma, beta)
    grads = _grads(out, g, x, gamma, beta)
    ref_out, ref_grads = _layernorm_reference(xd, gd, bd, g)
    _assert_same_bits(out.data, ref_out)
    for actual, expected in zip(grads, ref_grads):
        _assert_same_bits(actual, expected)


def _batchnorm_reference(xd, gd, bd, mean, var_run, training, g):
    c = xd.shape[1]
    n = xd.shape[0] * xd.shape[2] * xd.shape[3]
    gam, bet = _wide(gd).reshape(1, c, 1, 1), _wide(bd).reshape(1, c, 1, 1)
    if training:
        xc = xd.astype(np.float64)
        mu = np.add.reduce(xc, axis=(0, 2, 3), keepdims=True) / n
        xc -= mu
        var = np.add.reduce(xc * xc, axis=(0, 2, 3), keepdims=True) / n
    else:
        mu, var = _wide(mean).reshape(1, c, 1, 1), _wide(var_run).reshape(1, c, 1, 1)
    inv = 1.0 / np.sqrt(var + T.NORM_EPS)
    out = ((xd.astype(np.float64) - mu) * inv * gam + bet).astype(xd.dtype)
    xhat = (_wide(xd) - mu) * inv
    g64 = _wide(g)
    dxhat = g64 * gam
    axes = (0, 2, 3)
    if training:
        s1 = dxhat.sum(axis=axes, keepdims=True)
        s2 = (dxhat * xhat).sum(axis=axes, keepdims=True)
        gx = inv * (dxhat - s1 / n - xhat * s2 / n)
    else:
        gx = dxhat * inv
    return out, [a.astype(xd.dtype) for a in (gx, (g64 * xhat).sum(axis=axes), g64.sum(axis=axes))]


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("training", [True, False])
def test_batchnorm2d_matches_the_plain_expressions(dtype, training):
    rng = np.random.default_rng(7)
    xd = rng.normal(loc=0.5, size=(2, 3, 4, 5)).astype(dtype)
    gd, bd = rng.normal(size=3).astype(dtype), rng.normal(size=3).astype(dtype)
    mean = rng.normal(size=3).astype(np.float32)
    var = rng.uniform(0.5, 2.0, size=3).astype(np.float32)
    g = rng.normal(size=xd.shape).astype(dtype)
    x, gamma, beta = _leaf(xd.copy()), _leaf(gd.copy()), _leaf(bd.copy())
    ref_out, ref_grads = _batchnorm_reference(xd, gd, bd, mean, var, training, g)
    out = T.batchnorm2d(x, gamma, beta, mean.copy(), var.copy(), training)
    grads = _grads(out, g, x, gamma, beta)
    _assert_same_bits(out.data, ref_out)
    for actual, expected in zip(grads, ref_grads):
        _assert_same_bits(actual, expected)


# -- bias adds --------------------------------------------------------------

@pytest.mark.parametrize("dtype", DTYPES)
def test_matmul_bias_matches_the_plain_expression(dtype):
    rng = np.random.default_rng(8)
    ad, bd, cd = (rng.normal(size=s).astype(dtype) for s in ((2, 3, 6), (6, 4), (4,)))
    out = T.matmul(_leaf(ad), _leaf(bd), _leaf(cd))
    product = (_wide(ad.reshape(-1, 6)) @ _wide(bd)).astype(dtype)
    _assert_same_bits(out.data, (product + cd).reshape(2, 3, 4))


@pytest.mark.parametrize("dtype", DTYPES)
def test_conv2d_bias_matches_the_plain_expression(dtype):
    rng = np.random.default_rng(9)
    xd, wd, bd = (rng.normal(size=s).astype(dtype) for s in ((2, 3, 6, 8), (4, 3, 3, 3), (4,)))
    out = T.conv2d(_leaf(xd), _leaf(wd), _leaf(bd), stride=(2, 1))
    xp = np.pad(xd, ((0, 0), (0, 0), (1, 1), (1, 1)))
    cols = T._im2col(xp, 3, 3, 2, 1, 3, 8)
    product = np.matmul(_wide(wd.reshape(4, 27)), _wide(cols)).astype(dtype)
    _assert_same_bits(out.data, product.reshape(2, 4, 3, 8) + bd.reshape(1, 4, 1, 1))
