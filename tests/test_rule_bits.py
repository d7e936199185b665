"""The ops that compute in place or keep less give the bits of the plain
expressions.

``gelu``, ``softmax``, the bias adds of ``matmul`` and ``conv2d`` and the
one normalization rule of ``layernorm`` and ``batchnorm2d`` write into
fresh arrays they own instead of allocating one per operation; ``layernorm``
is checked on one feature, odd rows, a batch of one and a strided last axis.  ``softmax``, ``dropout``
and ``conv2d`` keep less than their output or their columns for backward
(the row max and sum, a packed mask, the padded input) and rebuild the rest.
Each test here runs the op and compares its output and gradients, bit for
bit, with a test-local copy of the allocating expressions or of the rule
that kept everything, in f32 and f64; the closure tests pin what each of the
three rules keeps.  The erf test pins the identity ``gelu`` relies on:
scipy's erf is exactly odd.
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
    """The rule that kept the f64 output."""
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


def _kept_arrays(out):
    """The arrays the backward rule of ``out`` closes over."""
    cells = out._node._backward_fn.__closure__
    return [c.cell_contents for c in cells if isinstance(c.cell_contents, np.ndarray)]


@pytest.mark.parametrize("dtype", DTYPES)
def test_softmax_rule_does_not_write_the_upstream_gradient(dtype):
    rng = np.random.default_rng(21)
    xd = rng.normal(size=(3, 6)).astype(dtype)
    g = rng.normal(size=xd.shape).astype(dtype)
    x = _leaf(xd.copy())
    upstream = g.copy()
    T.softmax(x)._node._backward_fn(upstream)
    np.testing.assert_array_equal(upstream, g)
    _assert_same_bits(x.grad, _softmax_reference(xd, g)[1])


@pytest.mark.parametrize("dtype", DTYPES)
def test_softmax_rule_keeps_its_input_and_two_row_statistics(dtype):
    x = _leaf(np.random.default_rng(22).normal(size=(2, 3, 5, 5)).astype(dtype))
    kept = _kept_arrays(T.softmax(x))
    assert len(kept) == 3
    assert sum(a is x.data for a in kept) == 1
    stats = [a for a in kept if a is not x.data]
    assert all(a.dtype == np.float64 and a.shape == (2, 3, 5, 1) for a in stats)


# -- dropout ----------------------------------------------------------------

def _dropout_reference(xd, rate, seed, g):
    """The rule that kept the one-byte mask."""
    keep = np.random.default_rng(seed).random(xd.shape) >= rate
    scale = xd.dtype.type(1.0 / (1.0 - rate))
    return xd * (keep.astype(xd.dtype) * scale), g * (keep.astype(xd.dtype) * scale)


# Sizes 13, 21, 30 and 210: none a multiple of 8, so the packed mask is padded.
DROPOUT_SHAPES = [(13,), (3, 7), (2, 3, 5), (2, 3, 5, 7)]


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("rate", [0.1, 0.5])
@pytest.mark.parametrize("shape", DROPOUT_SHAPES)
def test_dropout_matches_the_rule_that_kept_the_byte_mask(dtype, rate, shape):
    rng = np.random.default_rng(23)
    xd = rng.normal(size=shape).astype(dtype)
    g = rng.normal(size=shape).astype(dtype)
    x = _leaf(xd.copy())
    out = T.dropout(x, rate, np.random.default_rng(24))
    (gx,) = _grads(out, g, x)
    ref_out, ref_gx = _dropout_reference(xd, rate, 24, g)
    _assert_same_bits(out.data, ref_out)
    _assert_same_bits(gx, ref_gx)


@pytest.mark.parametrize("shape", DROPOUT_SHAPES)
def test_dropout_rule_keeps_one_bit_per_element(shape):
    x = _leaf(np.ones(shape, dtype=np.float32))
    kept = _kept_arrays(T.dropout(x, 0.5, np.random.default_rng(25)))
    assert len(kept) == 1
    assert kept[0].dtype == np.uint8 and kept[0].shape == (-(-x.size // 8),)


# -- conv2d -----------------------------------------------------------------

def _im2col_reference(xp, kh, kw, sh, sw, oh, ow):
    """Columns [b, ci*kh*kw, oh*ow] in the input's dtype, as the rule that
    kept them built them."""
    b, ci = xp.shape[:2]
    cols = np.empty((b, ci, kh, kw, oh, ow), dtype=xp.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j] = xp[:, :, i:i + sh * oh:sh, j:j + sw * ow:sw]
    return cols.reshape(b, ci * kh * kw, oh * ow)


def _conv2d_reference(xd, wd, bd, stride, g):
    """The rule that kept the im2col columns: output and the gradients of the
    input, weight and bias."""
    (b, ci, h, w), (co, _, kh, kw), (sh, sw) = xd.shape, wd.shape, stride
    oh, ow = (h - 1) // sh + 1, (w - 1) // sw + 1
    xp = np.pad(xd, ((0, 0), (0, 0), (1, 1), (1, 1)))
    cols = _im2col_reference(xp, kh, kw, sh, sw, oh, ow)
    wf = wd.reshape(co, ci * kh * kw)
    out = np.matmul(_wide(wf), _wide(cols)).astype(xd.dtype).reshape(b, co, oh, ow)
    out += bd.reshape(1, co, 1, 1)
    gf = _wide(g.reshape(b, co, oh * ow))
    gw = np.matmul(gf, _wide(cols).swapaxes(1, 2)).sum(axis=0).reshape(wd.shape)
    gcols = np.matmul(_wide(wf).T, gf).reshape(b, ci, kh, kw, oh, ow)
    gxp = np.zeros(xp.shape)
    for i in range(kh):
        for j in range(kw):
            gxp[:, :, i:i + sh * oh:sh, j:j + sw * ow:sw] += gcols[:, :, i, j]
    gx = gxp[:, :, 1:1 + h, 1:1 + w]
    return out, [a.astype(xd.dtype) for a in (gx, gw, g.sum(axis=(0, 2, 3)))]


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("stride", [(2, 2), (2, 1), (1, 1)])
@pytest.mark.parametrize("input_grad", [True, False])
def test_conv2d_matches_the_rule_that_kept_the_columns(dtype, stride, input_grad):
    rng = np.random.default_rng(26)
    xd, wd, bd = (rng.normal(size=s).astype(dtype) for s in ((2, 3, 6, 8), (4, 3, 3, 3), (4,)))
    x = Tensor(xd.copy(), requires_grad=input_grad)
    weight, bias = _leaf(wd.copy()), _leaf(bd.copy())
    out = T.conv2d(x, weight, bias, stride)
    g = rng.normal(size=out.shape).astype(dtype)
    gx, gw, gb = _grads(out, g, x, weight, bias)
    ref_out, (ref_gx, ref_gw, ref_gb) = _conv2d_reference(xd, wd, bd, stride, g)
    _assert_same_bits(out.data, ref_out)
    _assert_same_bits(gw, ref_gw)
    _assert_same_bits(gb, ref_gb)
    if input_grad:
        _assert_same_bits(gx, ref_gx)
    else:
        assert gx is None


@pytest.mark.parametrize("stride", [(2, 2), (2, 1), (1, 1)])
def test_conv2d_rule_keeps_the_padded_input_not_the_columns(stride):
    rng = np.random.default_rng(27)
    x = _leaf(rng.normal(size=(2, 3, 6, 8)).astype(np.float32))
    out = T.conv2d(x, _leaf(rng.normal(size=(4, 3, 3, 3)).astype(np.float32)),
                   _leaf(np.zeros(4, dtype=np.float32)), stride)
    cols_shape = (2, 3 * 3 * 3, out.shape[2] * out.shape[3])
    kept = _kept_arrays(out)
    assert all(a.shape != cols_shape for a in kept)
    assert (2, 3, 8, 10) in [a.shape for a in kept]
    assert all(a is not x.data for a in kept)


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


def _layernorm_input(rng, layout):
    """[2, 5, d] for an int ``layout`` d; else 7 odd rows, a batch of one, or
    the last axis strided, as a transposed patch embedding would be: each row
    is then summed element by element, not pairwise."""
    if isinstance(layout, int):
        return rng.normal(size=(2, 5, layout))
    if layout == "odd-rows":
        xd = rng.normal(size=(7, 12))
    elif layout == "batch1":
        xd = rng.normal(size=(1, 5, 12))
    else:
        xd = rng.normal(size=(3, 12, 5)).transpose(0, 2, 1)
    return xd * 3.0 + 0.5


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("layout", [1, 12, "odd-rows", "batch1", "transposed"])
def test_layernorm_matches_the_plain_expressions(dtype, layout):
    rng = np.random.default_rng(6)
    xd = _layernorm_input(rng, layout).astype(dtype)
    d = xd.shape[-1]
    gd, bd = (rng.normal(size=d).astype(dtype) for _ in range(2))
    g = rng.normal(size=xd.shape).astype(dtype)
    x, gamma, beta = _leaf(xd.copy(order="K")), _leaf(gd.copy()), _leaf(bd.copy())
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
        gx = inv * (dxhat - s1 / n - xhat * (s2 / n))
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
    cols = _im2col_reference(xp, 3, 3, 2, 1, 3, 8)
    product = np.matmul(_wide(wd.reshape(4, 27)), _wide(cols)).astype(dtype)
    _assert_same_bits(out.data, product.reshape(2, 4, 3, 8) + bd.reshape(1, 4, 1, 1))
