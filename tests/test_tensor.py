"""Semantics of the tensor ops: hand-computable cases, backward rules,
determinism, and error contracts."""

import weakref

import numpy as np
import pytest
from scipy.special import erf

from svtr import tensor as T
from svtr.ctc import LabelSeq, ctc_loss
from svtr.exceptions import ContractError, GeometryError, ShapeError
from svtr.tensor import Tensor


def test_tensor_default_dtype_is_f32():
    assert Tensor([1.0, 2.0]).dtype == np.float32
    assert Tensor(np.zeros(3, dtype=np.float64)).dtype == np.float64


def test_zero_d_f64_arithmetic_stays_f64():
    a = Tensor(np.array(2.0), requires_grad=True)
    assert (a * 3.0).dtype == np.float64
    assert (a + a).dtype == np.float64
    assert float((a + a).data) == 4.0
    assert Tensor(np.float64(2.0)).dtype == np.float64
    assert Tensor(2.0).dtype == np.float32


def test_rank_limit():
    with pytest.raises(ShapeError):
        Tensor(np.zeros((1, 1, 1, 1, 1)))


def test_matmul_identity():
    a = Tensor(np.eye(2))
    b = Tensor(np.array([[3.0, 4.0], [5.0, 6.0]]))
    out = T.matmul(a, b)
    np.testing.assert_array_equal(out.data, b.data)


def test_matmul_inner_product():
    out = T.matmul(Tensor(np.array([[1.0, 2.0]])), Tensor(np.array([[3.0], [4.0]])))
    assert out.data.shape == (1, 1)
    assert out.data[0, 0] == 11.0


def test_matmul_shape_mismatch_names_shapes():
    with pytest.raises(ShapeError) as exc:
        T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))
    assert "(2, 3)" in str(exc.value) and "(4, 2)" in str(exc.value)


def _z(*shape):
    return Tensor(np.zeros(shape))


@pytest.mark.parametrize("op, error, fragment", [
    (lambda: T.dropout(_z(2, 3), 1.0, np.random.default_rng(0)), ContractError,
     "dropout rate must be in [0, 1), got 1.0"),
    (lambda: T.transpose(_z(2, 3), (0, 0)), ShapeError, "transpose axes (0, 0) invalid for rank 2"),
    (lambda: T.split(_z(2, 5), 2), ShapeError, "cannot split axis of size 5 into 2 equal parts"),
    (lambda: T.mean_pool_height(_z(2, 3, 4)), ShapeError, "mean_pool_height expects rank 4"),
    (lambda: T.matmul(_z(3), _z(3, 2)), ShapeError, "matmul expects rank >= 2 operands"),
    (lambda: T.matmul(_z(2, 3), _z(3)), ShapeError, "matmul expects rank >= 2 operands"),
    (lambda: T.matmul(_z(2, 4, 3), _z(2, 3, 5), _z(5)), ShapeError,
     "matmul takes a bias only with a 2-D right operand, got (2, 3, 5)"),
    (lambda: T.matmul(_z(2, 4, 3), _z(3, 3, 5)), ShapeError, "batched matmul needs equal leading axes"),
    (lambda: T.conv2d(_z(1, 4, 4), _z(2, 1, 3, 3), _z(2), (1, 1)), ShapeError,
     "conv2d expects rank-4 input and weight"),
    (lambda: T.conv2d(_z(1, 2, 4, 4), _z(2, 3, 3, 3), _z(2), (1, 1)), ShapeError,
     "conv2d channel mismatch: input 2 vs weight 3"),
    (lambda: T.conv2d(_z(1, 1, 0, 4), _z(2, 1, 3, 3), _z(2), (1, 1)), GeometryError,
     "conv2d output size 0x4 non-positive"),
    (lambda: T.layernorm(_z(2, 4), _z(3), _z(4)), ShapeError, "layernorm affine shape (3,)/(4,)"),
    (lambda: T.batchnorm2d(_z(2, 3, 4), _z(3), _z(3), np.zeros(3, np.float32),
                           np.ones(3, np.float32), True), ShapeError, "batchnorm2d expects rank 4"),
    (lambda: T.batchnorm2d(_z(2, 3, 4, 4), _z(3), _z(2), np.zeros(3, np.float32),
                           np.ones(3, np.float32), True), ShapeError,
     "batchnorm2d affine shape (3,)/(2,) does not match channels 3"),
], ids=["dropout-rate", "transpose-axes", "split", "mean-pool-rank", "matmul-rank-a",
        "matmul-rank-b", "matmul-batched-bias", "matmul-leading-axes", "conv2d-rank",
        "conv2d-channels", "conv2d-empty-output", "layernorm-affine", "batchnorm-rank",
        "batchnorm-affine"])
def test_an_op_rejects_bad_operands_with_a_typed_error(op, error, fragment):
    with pytest.raises(error) as exc:
        op()
    assert type(exc.value) is error
    assert fragment in str(exc.value)


def test_matmul_grad_is_ones_times_b_transposed():
    rng = np.random.default_rng(0)
    a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    T.matmul(a, b).sum().backward()
    expected = np.ones((3, 2)) @ b.data.T
    np.testing.assert_allclose(a.grad, expected, rtol=1e-5)


def test_matmul_by_a_matrix_is_one_gemm_over_flattened_rows():
    rng = np.random.default_rng(14)
    x = rng.normal(size=(4, 32, 64)).astype(np.float32)
    w = rng.normal(size=(64, 96)).astype(np.float32)
    out = T.matmul(Tensor(x), Tensor(w))
    expected = np.matmul(x.astype(np.float64), w.astype(np.float64)).astype(np.float32)
    assert out.shape == (4, 32, 96)
    assert out.data.tobytes() == expected.tobytes()


def test_matmul_weight_grad_is_the_per_sample_sum():
    rng = np.random.default_rng(15)
    x = Tensor(rng.normal(size=(5, 12, 16)), requires_grad=True)
    w = Tensor(rng.normal(size=(16, 8)), requires_grad=True)
    g = rng.normal(size=(5, 12, 8))
    T.mul(T.matmul(x, w), Tensor(g)).sum().backward()
    expected = sum(x.data[i].T @ g[i] for i in range(5))
    assert w.grad.dtype == np.float64
    assert np.abs(w.grad - expected).max() <= 1e-12 * np.abs(expected).max()
    np.testing.assert_allclose(x.grad, g @ w.data.T, rtol=1e-12)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_linear_is_one_node_bitwise_equal_to_matmul_then_add(dtype):
    rng = np.random.default_rng(16)
    arrays = [rng.normal(size=s).astype(dtype) for s in ((3, 5, 8), (8, 6), (6,))]
    g = Tensor(rng.normal(size=(3, 5, 6)).astype(dtype))
    runs = []
    for fn in (T.matmul, lambda x, w, b: T.add(T.matmul(x, w), b)):
        x, w, b = (Tensor(a.copy(), requires_grad=True) for a in arrays)
        out = fn(x, w, b)
        runs.append(out._parents == (x._node, w._node, b._node))
        T.mul(out, g).sum().backward()
        runs.append([out.data, x.grad, w.grad, b.grad])
    one_node, got, _, want = runs
    assert one_node
    for a, e in zip(got, want):
        assert a.dtype == e.dtype == dtype
        assert a.tobytes() == e.tobytes()


def test_conv2d_ones_counting():
    x = Tensor(np.ones((1, 1, 4, 4)))
    w = Tensor(np.ones((1, 1, 3, 3)))
    b = Tensor(np.zeros(1))
    out = T.conv2d(x, w, b, stride=(1, 1))
    assert out.shape == (1, 1, 4, 4)
    # interior positions see the full 3x3 window
    assert out.data[0, 0, 1, 1] == 9.0
    assert out.data[0, 0, 2, 2] == 9.0
    # corners see a 2x2 window
    assert out.data[0, 0, 0, 0] == 4.0


def test_conv2d_stride_two_geometry():
    x = Tensor(np.zeros((2, 3, 32, 128)))
    w = Tensor(np.zeros((8, 3, 3, 3)))
    b = Tensor(np.zeros(8))
    out = T.conv2d(x, w, b, stride=(2, 2))
    assert out.shape == (2, 8, 16, 64)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_conv2d_weight_grads_do_not_depend_on_the_input_requiring_grad(dtype):
    rng = np.random.default_rng(24)
    x, g, wd, bd = (rng.normal(size=s).astype(dtype)
                    for s in ((2, 3, 8, 12), (2, 4, 4, 6), (4, 3, 3, 3), (4,)))
    grads = []
    for requires_grad in (False, True):
        w, b = Tensor(wd.copy(), requires_grad=True), Tensor(bd.copy(), requires_grad=True)
        T.mul(T.conv2d(Tensor(x, requires_grad=requires_grad), w, b, stride=(2, 2)),
              Tensor(g)).sum().backward()
        grads.append((w.grad.tobytes(), b.grad.tobytes()))
    assert grads[0] == grads[1]


def test_layernorm_constant_row_is_zero():
    x = Tensor(np.full((2, 8), 3.0))
    out = T.layernorm(x, Tensor(np.ones(8)), Tensor(np.zeros(8)))
    np.testing.assert_allclose(out.data, 0.0, atol=1e-6)


def test_layernorm_two_point_symmetry():
    x = Tensor(np.array([[1.0, 3.0]]))
    out = T.layernorm(x, Tensor(np.ones(2)), Tensor(np.zeros(2)))
    np.testing.assert_allclose(out.data, [[-1.0, 1.0]], atol=1e-3)


def _running_stats(channels):
    """Fresh BatchNorm running statistics: mean 0, variance 1, f32."""
    return np.zeros(channels, dtype=np.float32), np.ones(channels, dtype=np.float32)


def test_batchnorm_identity_on_standardized_batch():
    # channel already has mean 0 / var 1, affine identity
    x = np.zeros((4, 2, 1, 1), dtype=np.float32)
    x[:, 0, 0, 0] = [-1.0, 1.0, -1.0, 1.0]
    x[:, 1, 0, 0] = [-1.0, -1.0, 1.0, 1.0]
    out = T.batchnorm2d(Tensor(x), Tensor(np.ones(2)), Tensor(np.zeros(2)),
                        *_running_stats(2), training=True)
    np.testing.assert_allclose(out.data, x, atol=1e-3)


def test_batchnorm_two_element_symmetry():
    x = np.zeros((2, 1, 1, 1), dtype=np.float32)
    x[:, 0, 0, 0] = [0.0, 2.0]
    out = T.batchnorm2d(Tensor(x), Tensor(np.ones(1)), Tensor(np.zeros(1)),
                        *_running_stats(1), training=True)
    np.testing.assert_allclose(out.data[:, 0, 0, 0], [-1.0, 1.0], atol=1e-3)


def test_batchnorm_running_stats_update_only_in_training():
    x = Tensor(np.random.default_rng(1).normal(size=(4, 3, 2, 2)))
    gamma, beta = Tensor(np.ones(3)), Tensor(np.zeros(3))
    mean, var = _running_stats(3)
    before = mean.copy()
    T.batchnorm2d(x, gamma, beta, mean, var, training=False)
    np.testing.assert_array_equal(mean, before)
    T.batchnorm2d(x, gamma, beta, mean, var, training=True)
    assert not np.array_equal(mean, before)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_batchnorm_updates_the_running_stats_it_was_given_in_place(dtype):
    rng = np.random.default_rng(4)
    x = Tensor(rng.normal(1.0, 2.0, size=(4, 3, 2, 5)).astype(dtype))
    gamma, beta = Tensor(np.ones(3, dtype)), Tensor(np.zeros(3, dtype))
    mean = rng.normal(size=3).astype(np.float32)
    var = rng.uniform(0.5, 2.0, size=3).astype(np.float32)
    frozen = mean.copy(), var.copy()
    T.batchnorm2d(x, gamma, beta, mean, var, training=False)
    assert mean.tobytes() == frozen[0].tobytes() and var.tobytes() == frozen[1].tobytes()

    # The arrays that were passed in hold the new statistics.
    T.batchnorm2d(x, gamma, beta, mean, var, training=True)
    x64 = x.data.astype(np.float64)
    m = T.BN_MOMENTUM
    expected_mean = (m * frozen[0] + (1 - m) * x64.mean(axis=(0, 2, 3))).astype(np.float32)
    expected_var = (m * frozen[1] + (1 - m) * x64.var(axis=(0, 2, 3))).astype(np.float32)
    assert mean.dtype == var.dtype == np.float32
    assert mean.tobytes() == expected_mean.tobytes()
    assert var.tobytes() == expected_var.tobytes()


def _layernorm_keeping_xhat(x, gamma, beta, g):
    """layernorm forward and backward with x-hat saved from the forward."""
    x64 = x.astype(np.float64)
    mu = x64.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(x64.var(axis=-1, keepdims=True) + T.NORM_EPS)
    xhat = (x64 - mu) * inv
    out = xhat * gamma.astype(np.float64) + beta.astype(np.float64)
    g64 = g.astype(np.float64)
    dxhat = g64 * gamma.astype(np.float64)
    m1 = dxhat.mean(axis=-1, keepdims=True)
    m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
    axes = tuple(range(g.ndim - 1))
    return out, inv * (dxhat - m1 - xhat * m2), (g64 * xhat).sum(axis=axes), g64.sum(axis=axes)


def _batchnorm_keeping_xhat(x, gamma, beta, g, mean, var, training):
    """batchnorm2d forward and backward with x-hat saved from the forward."""
    c = x.shape[1]
    x64 = x.astype(np.float64)
    if training:
        mean, var = x64.mean(axis=(0, 2, 3)), x64.var(axis=(0, 2, 3))
    mu = mean.astype(np.float64).reshape(1, c, 1, 1)
    inv = (1.0 / np.sqrt(var.astype(np.float64) + T.NORM_EPS)).reshape(1, c, 1, 1)
    gam = gamma.astype(np.float64).reshape(1, c, 1, 1)
    xhat = (x64 - mu) * inv
    out = xhat * gam + beta.astype(np.float64).reshape(1, c, 1, 1)
    g64 = g.astype(np.float64)
    dxhat = g64 * gam
    axes = (0, 2, 3)
    n = x.shape[0] * x.shape[2] * x.shape[3]
    if training:
        s1 = dxhat.sum(axis=axes, keepdims=True)
        s2 = (dxhat * xhat).sum(axis=axes, keepdims=True)
        gx = inv * (dxhat - s1 / n - xhat * (s2 / n))
    else:
        gx = dxhat * inv
    return out, gx, (g64 * xhat).sum(axis=axes), g64.sum(axis=axes)


def _assert_norm_matches(op, reference, arrays, g):
    """The op's output and x, gamma and beta gradients are bitwise the
    reference's, once cast to the storage dtype."""
    dtype = arrays[0].dtype
    leaves = [Tensor(a, requires_grad=True) for a in arrays]
    out = op(*leaves)
    T.mul(out, Tensor(g)).sum().backward()
    want = reference(*arrays, g)
    got = [out.data] + [t.grad for t in leaves]
    for a, e in zip(got, want):
        assert a.tobytes() == e.astype(dtype).tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_layernorm_rebuilds_xhat_bitwise(dtype):
    rng = np.random.default_rng(17)
    arrays = [rng.normal(size=s).astype(dtype) for s in ((2, 5, 8), (8,), (8,))]
    g = rng.normal(size=(2, 5, 8)).astype(dtype)
    _assert_norm_matches(T.layernorm, _layernorm_keeping_xhat, arrays, g)


@pytest.mark.parametrize("training", [True, False])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_batchnorm2d_rebuilds_xhat_bitwise(dtype, training):
    rng = np.random.default_rng(18)
    arrays = [rng.normal(size=s).astype(dtype) for s in ((3, 4, 2, 5), (4,), (4,))]
    g = rng.normal(size=(3, 4, 2, 5)).astype(dtype)
    mean = rng.normal(size=4).astype(np.float32)
    var = rng.uniform(0.5, 2.0, size=4).astype(np.float32)
    running = mean.copy(), var.copy()
    _assert_norm_matches(
        lambda x, gamma, beta: T.batchnorm2d(x, gamma, beta, *running, training),
        lambda x, gamma, beta, g: _batchnorm_keeping_xhat(x, gamma, beta, g, mean, var, training),
        arrays, g)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape, axis", [((3, 1), -1), ((2, 5, 8), -1), ((4, 7, 96), -1),
                                         ((4, 3, 2, 5), (0, 2, 3)), ((2, 8, 4, 16), (0, 2, 3))])
def test_norm_moments_are_bitwise_mean_and_var(dtype, shape, axis):
    rng = np.random.default_rng(25)
    for scale in (1e-3, 1.0, 1e3):
        x = rng.normal(0.5, scale, size=shape).astype(dtype)
        before = x.copy()
        x64 = x.astype(np.float64)
        mean = x64.mean(axis=axis, keepdims=True)
        xc = np.empty_like(x, dtype=np.float64)
        mu, var = T._moments(x, axis, xc, np.empty_like(xc))
        assert mu.tobytes() == mean.tobytes()
        assert xc.tobytes() == (x64 - mean).tobytes()
        assert var.tobytes() == x64.var(axis=axis, keepdims=True).tobytes()
        assert x.tobytes() == before.tobytes() and not np.shares_memory(xc, x)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_layernorm_of_one_feature_is_bitwise_the_mean_var_form(dtype):
    rng = np.random.default_rng(26)
    arrays = [rng.normal(size=s).astype(dtype) for s in ((4, 3, 1), (1,), (1,))]
    g = rng.normal(size=(4, 3, 1)).astype(dtype)
    _assert_norm_matches(T.layernorm, _layernorm_keeping_xhat, arrays, g)


def test_softmax_uniform():
    out = T.softmax(Tensor(np.zeros((1, 3))))
    np.testing.assert_allclose(out.data, 1.0 / 3.0, atol=1e-7)


def test_softmax_rows_sum_to_one():
    x = Tensor(np.random.default_rng(2).normal(size=(4, 7)))
    out = T.softmax(x)
    np.testing.assert_allclose(out.data.sum(axis=-1), 1.0, atol=1e-6)


def test_log_softmax_matches_log_of_softmax():
    x = Tensor(np.random.default_rng(3).normal(size=(2, 5)).astype(np.float64))
    np.testing.assert_allclose(T.log_softmax(x).data,
                               np.log(T.softmax(x).data), atol=1e-7)


def test_mean_pool_height_column():
    x = np.zeros((1, 1, 4, 1))
    x[0, 0, :, 0] = [1.0, 2.0, 3.0, 4.0]
    out = T.mean_pool_height(Tensor(x))
    assert out.shape == (1, 1, 1, 1)
    assert out.data[0, 0, 0, 0] == 2.5


def test_dropout_rate_zero_is_identity():
    x = Tensor(np.random.default_rng(4).normal(size=(3, 5)))
    out = T.dropout(x, 0.0, np.random.default_rng(0))
    np.testing.assert_array_equal(out.data, x.data)


def test_dropout_training_scales_survivors():
    x = Tensor(np.ones((100, 100)))
    out = T.dropout(x, 0.5, np.random.default_rng(6))
    values = np.unique(out.data)
    np.testing.assert_allclose(values, [0.0, 2.0])


def test_dropout_backward_rebuilds_the_forward_factor():
    rng = np.random.default_rng(16)
    x = Tensor(rng.normal(size=(6, 40)).astype(np.float32), requires_grad=True)
    g = rng.normal(size=(6, 40)).astype(np.float32)
    out = T.dropout(x, 0.3, np.random.default_rng(17))
    T.mul(out, Tensor(g)).sum().backward()
    keep = np.random.default_rng(17).random((6, 40)) >= 0.3
    factor = (keep * (1.0 / (1.0 - 0.3))).astype(np.float32)
    assert out.data.tobytes() == (x.data * factor).tobytes()
    assert x.grad.tobytes() == (g * factor).tobytes()


def test_gelu_fixed_points():
    out = T.gelu(Tensor(np.array([0.0, 100.0, -100.0])))
    np.testing.assert_allclose(out.data, [0.0, 100.0, 0.0], atol=1e-5)


def test_backward_sum_gives_ones():
    x = Tensor(np.random.default_rng(7).normal(size=(3, 4)), requires_grad=True)
    x.sum().backward()
    np.testing.assert_array_equal(x.grad, np.ones((3, 4), dtype=np.float32))


def test_backward_sum_of_squares_gives_two_x():
    x = Tensor(np.random.default_rng(8).normal(size=(3, 4)), requires_grad=True)
    T.mul(x, x).sum().backward()
    np.testing.assert_allclose(x.grad, 2 * x.data, rtol=1e-5)


def test_backward_requires_scalar():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ContractError):
        (x + x).backward()


def test_reshape_transpose_roundtrip_backward():
    x = Tensor(np.random.default_rng(9).normal(size=(4, 6)), requires_grad=True)
    y = T.reshape(T.transpose(T.reshape(x, (2, 6, 2)), (1, 0, 2)), (6, 4)).sum()
    y.backward()
    np.testing.assert_array_equal(x.grad, np.ones((4, 6), dtype=np.float32))


def test_split_partitions_and_backscatters():
    x = Tensor(np.arange(12.0).reshape(2, 6), requires_grad=True)
    parts = T.split(x, 3, axis=-1)
    assert [p.shape for p in parts] == [(2, 2)] * 3
    np.testing.assert_array_equal(parts[1].data, x.data[:, 2:4])
    assert all(np.shares_memory(p.data, x.data) for p in parts)
    parts[1].sum().backward()
    expected = np.zeros((2, 6), dtype=np.float32)
    expected[:, 2:4] = 1.0
    np.testing.assert_array_equal(x.grad, expected)


def test_apply_attention_mask_blocks_entries():
    scores = Tensor(np.zeros((1, 3, 3)))
    mask = np.eye(3, dtype=bool)
    out = T.softmax(T.apply_attention_mask(scores, mask))
    np.testing.assert_allclose(out.data[0], np.eye(3), atol=1e-6)


def test_broadcast_add_backward_reduces():
    x = Tensor(np.zeros((3, 4)), requires_grad=True)
    b = Tensor(np.zeros(4), requires_grad=True)
    (x + b).sum().backward()
    np.testing.assert_array_equal(b.grad, np.full(4, 3.0, dtype=np.float32))


def test_leaf_grads_of_one_add_share_no_memory():
    rng = np.random.default_rng(18)
    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    y = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    T.add(x, y).sum().backward()
    assert not np.shares_memory(x.grad, y.grad)
    np.testing.assert_array_equal(x.grad, y.grad)


def test_backward_frees_interior_activations_and_keeps_leaf_grads():
    x = Tensor(np.random.default_rng(11).normal(size=(3, 4)), requires_grad=True)
    h = T.gelu(x)
    y = T.mul(h, h).sum()
    xd = x.data.astype(np.float64)
    dgelu = 0.5 * (1.0 + erf(xd / np.sqrt(2.0))) + xd * np.exp(-0.5 * xd * xd) / np.sqrt(2 * np.pi)
    expected = 2.0 * h.data * dgelu
    # Tensor has __slots__ without __weakref__, so watch its array instead.
    watched = weakref.ref(h.data)
    y.backward()
    del h
    assert watched() is None
    np.testing.assert_allclose(x.grad, expected, rtol=1e-5)


def test_second_backward_through_a_released_graph_raises():
    x = Tensor(np.ones((2, 3)), requires_grad=True)
    y = T.mul(x, x).sum()
    y.backward()
    with pytest.raises(ContractError):
        y.backward()


def test_backward_and_grad_need_a_tensor_that_requires_grad():
    y = T.tsum(Tensor(np.ones(3)))
    with pytest.raises(ContractError):
        y.backward()
    assert y.grad is None
    with pytest.raises(ContractError):
        Tensor(np.ones(2)).grad = np.zeros(2)


def _param(*shape):
    return Tensor(np.random.default_rng(19).normal(size=shape).astype(np.float32),
                  requires_grad=True)


# Ops whose rule holds no reference to the input's array (conv2d keeps a
# zero-padded copy) and whose output is a fresh array, on an [2, 3, 4, 4]
# input.
_INPUT_UNREAD = {
    "add": lambda x: T.add(x, _param(4)),
    "mul_by_constant": lambda x: x * 0.5,
    "dropout": lambda x: T.dropout(x, 0.5, np.random.default_rng(0)),
    "gelu": T.gelu,
    "log_softmax": T.log_softmax,
    "apply_attention_mask": lambda x: T.apply_attention_mask(x, np.eye(4, dtype=bool)),
    "conv2d": lambda x: T.conv2d(x, _param(2, 3, 3, 3), _param(2), stride=(1, 1)),
    "tsum": T.tsum,
    "tmean": T.tmean,
    "mean_pool_height": T.mean_pool_height,
}

_INPUT_READ = {
    "matmul": lambda x: T.matmul(x, _param(4, 5)),
    "layernorm": lambda x: T.layernorm(x, _param(4), _param(4)),
    "softmax": T.softmax,
}


def _watched_intermediate_and_loss(op):
    """A loss through ``op`` applied to an intermediate, and a weak
    reference to the intermediate's values once no name holds them."""
    leaf = _param(2, 3, 4, 4)
    x = T.gelu(leaf)  # gelu's rule keeps its derivative, neither its input nor its output
    watched = weakref.ref(x.data)
    loss = T.tsum(op(x))
    return leaf, watched, loss


@pytest.mark.parametrize("name", sorted(_INPUT_UNREAD))
def test_an_input_no_rule_reads_is_freed_before_backward(name):
    leaf, watched, loss = _watched_intermediate_and_loss(_INPUT_UNREAD[name])
    assert watched() is None
    loss.backward()
    assert leaf.grad is not None


@pytest.mark.parametrize("name", sorted(_INPUT_READ))
def test_an_input_a_rule_reads_lives_until_backward(name):
    leaf, watched, loss = _watched_intermediate_and_loss(_INPUT_READ[name])
    assert watched() is not None
    loss.backward()
    assert watched() is None
    assert leaf.grad is not None


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gelu_rule_keeps_one_array_shaped_like_its_input(dtype):
    x = Tensor(np.linspace(-3, 3, 24, dtype=dtype).reshape(2, 3, 4), requires_grad=True)
    rule = T.gelu(x)._node._backward_fn
    kept = [c.cell_contents for c in rule.__closure__
            if isinstance(c.cell_contents, np.ndarray)]
    assert len(kept) == 1
    assert kept[0].shape == x.shape and kept[0].dtype == x.dtype
    assert kept[0] is not x.data


def test_ctc_loss_accumulates_into_a_leaf_across_graphs():
    rng = np.random.default_rng(12)
    log_probs = Tensor(np.log(rng.dirichlet(np.ones(4), size=(1, 5))), requires_grad=True)
    labels = [LabelSeq((1, 2))]
    ctc_loss(log_probs, labels).backward()
    once = log_probs.grad.copy()
    ctc_loss(log_probs, labels).backward()
    np.testing.assert_array_equal(log_probs.grad, 2 * once)


def test_forward_determinism():
    rng = np.random.default_rng(10)
    x = rng.normal(size=(2, 8)).astype(np.float32)
    w = rng.normal(size=(8, 8)).astype(np.float32)
    runs = [T.softmax(T.matmul(Tensor(x), Tensor(w))).data for _ in range(2)]
    np.testing.assert_array_equal(runs[0], runs[1])
