"""Dense float tensors with reverse-mode automatic differentiation.

Values are stored in f32 by default (f64 is supported for shadow gradient
checks); reductions such as matmul inner products and normalization
statistics accumulate in f64 before being cast back to the storage dtype.
The computation graph is recorded implicitly: every op builds its output
through ``_make``, which attaches the parents and the backward rule, and
``backward`` replays the rules in reverse execution order (creation order),
which makes gradient accumulation deterministic.  ``backward`` frees the
graph as it goes, so each forward supports one backward.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from scipy.special import erf

from .exceptions import ContractError, GeometryError, ShapeError

_ids = itertools.count()

_INV_SQRT2 = 0.7071067811865476
_INV_SQRT_2PI = 0.3989422804014327
# Variance offset of layernorm and batchnorm2d; running-statistics momentum
# of batchnorm2d.
NORM_EPS = 1e-5
BN_MOMENTUM = 0.9


class Tensor:
    """A dense n-dimensional array (rank 0..4) with an optional gradient."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward_fn", "_id")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        # Python scalars and lists take the f32 storage dtype; float ndarrays
        # keep theirs (f64 shadow checks), and so do the numpy scalars that
        # arithmetic on 0-d arrays returns.
        if arr.dtype not in (np.float32, np.float64) or not isinstance(data, (np.ndarray, np.floating)):
            arr = arr.astype(np.float32)
        if arr.ndim > 4:
            raise ShapeError(f"rank {arr.ndim} exceeds the supported maximum of 4")
        self.data = arr
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        # Set only by ``_make``, on the output of an op.
        self._parents: tuple = ()
        self._backward_fn = None
        self._id = next(_ids)

    # -- basic properties ---------------------------------------------------

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.dtype.name}, requires_grad={self.requires_grad})"

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    # -- graph --------------------------------------------------------------

    def backward(self):
        """Populate ``grad`` on every requires_grad leaf reachable from this scalar.

        The pass consumes the graph: once an interior node's rule has run,
        the node drops its gradient, its rule (and every array the rule saved)
        and its parents, so only leaf gradients remain and activations are
        freed as the pass goes.  Backward runs once per forward; a second call
        through the released graph raises ``ContractError``.
        """
        if self.size != 1:
            raise ContractError(f"backward requires a scalar loss, got shape {self.shape}")
        # Creation ids are monotone in execution, so popping from the end
        # visits nodes in reverse execution order.
        nodes = sorted(_reachable(self), key=lambda t: t._id)
        self.grad = np.ones_like(self.data)
        while nodes:
            node = nodes.pop()
            if node._backward_fn is not None and node.grad is not None:
                node._backward_fn(node.grad)
            if node._parents:
                node.grad = None
                node._backward_fn = _released
                node._parents = ()

    # -- operator sugar -----------------------------------------------------

    def __add__(self, other):
        return add(self, _as_tensor(other, self.dtype))

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, _as_tensor(other, self.dtype))

    __rmul__ = __mul__

    def __neg__(self):
        return mul(self, _as_tensor(-1.0, self.dtype))

    def __sub__(self, other):
        return add(self, -_as_tensor(other, self.dtype))

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) > 1 else shape[0])

    def transpose(self, *axes):
        return transpose(self, axes if len(axes) > 1 else axes[0])

    def sum(self):
        return tsum(self)

    def mean(self):
        return tmean(self)


def _as_tensor(x, dtype) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=dtype))


def _reachable(root: Tensor) -> list:
    seen = set()
    out = []
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        out.append(node)
        stack.extend(node._parents)
    return out


def _released(g):
    raise ContractError("backward through a graph that an earlier backward "
                        "already released; run the forward again")


def _accumulate(t: Tensor, g: np.ndarray):
    if not t.requires_grad:
        return
    if t.grad is None:
        # C order, because the layout of a transposed gradient would change
        # the BLAS rounding of later GEMMs.  An interior node takes a fresh
        # C-ordered array as is (no rule writes into a gradient in place); a
        # leaf keeps a private copy, so no two parameters share a ``grad``.
        if t._parents:
            t.grad = np.asarray(g, dtype=t.dtype, order="C")
        else:
            t.grad = g.astype(t.dtype, order="C")
    else:
        t.grad = t.grad + g.astype(t.dtype, copy=False)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcasted gradient back down to ``shape``."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g.reshape(shape)


def _make(data, parents, backward_fn) -> Tensor:
    """The output of an op: a graph node when any parent requires grad."""
    out = Tensor(data)
    if any(t.requires_grad for t in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward_fn = backward_fn
    return out


def _wide(a: np.ndarray) -> np.ndarray:
    """f64 view for accumulation; no-op when already f64."""
    return a if a.dtype == np.float64 else a.astype(np.float64)


# -- elementwise ------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data + b.data

    def bwd(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g, b.shape))

    return _make(out_data, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data * b.data

    def bwd(g):
        # A constant operand (the attention scale) gets no gradient: it would
        # cost a full-size product and a reduction only to be dropped.
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g * a.data, b.shape))

    return _make(out_data, (a, b), bwd)


def gelu(x: Tensor) -> Tensor:
    """Exact erf formulation: 0.5 * x * (1 + erf(x / sqrt(2)))."""
    xd = x.data
    e = erf(xd * _INV_SQRT2).astype(xd.dtype)
    out_data = 0.5 * xd * (1.0 + e)

    def bwd(g):
        d = 0.5 * (1.0 + e) + xd * np.exp(-0.5 * xd * xd) * _INV_SQRT_2PI
        _accumulate(x, g * d.astype(xd.dtype))

    return _make(out_data, (x,), bwd)


def dropout(x: Tensor, rate: float, training: bool, rng: np.random.Generator) -> Tensor:
    """Inverted dropout; exact identity when rate == 0 or in eval mode."""
    if not 0.0 <= rate < 1.0:
        raise ContractError(f"dropout rate must be in [0, 1), got {rate}")
    if rate == 0.0 or not training:
        return x
    # Backward keeps the 1-byte mask and rebuilds the factor from it; the
    # product of the mask and the rounded scale is bitwise the rounded
    # product, so both passes see the same factor.
    keep = rng.random(x.shape) >= rate
    scale = x.dtype.type(1.0 / (1.0 - rate))
    out_data = x.data * (keep.astype(x.dtype) * scale)

    def bwd(g):
        _accumulate(x, g * (keep.astype(x.dtype) * scale))

    return _make(out_data, (x,), bwd)


# -- shape ops --------------------------------------------------------------

def reshape(x: Tensor, shape) -> Tensor:
    orig = x.shape
    out_data = x.data.reshape(shape)

    def bwd(g):
        _accumulate(x, g.reshape(orig))

    return _make(out_data, (x,), bwd)


def transpose(x: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    if sorted(axes) != list(range(x.data.ndim)):
        raise ShapeError(f"transpose axes {axes} invalid for rank {x.data.ndim}")
    inv = tuple(np.argsort(axes))
    out_data = x.data.transpose(axes)

    def bwd(g):
        _accumulate(x, g.transpose(inv))

    return _make(out_data, (x,), bwd)


def split(x: Tensor, parts: int, axis: int = -1) -> list:
    """Split into ``parts`` equal chunks, as views of ``x``; backward scatters
    each chunk back."""
    dim = x.shape[axis]
    if dim % parts != 0:
        raise ShapeError(f"cannot split axis of size {dim} into {parts} equal parts")
    step = dim // parts
    ax = axis % x.data.ndim
    outs = []
    for i in range(parts):
        sl = [slice(None)] * x.data.ndim
        sl[ax] = slice(i * step, (i + 1) * step)
        sl = tuple(sl)

        def bwd(g, sl=sl):
            # C order even when x is a transposed view (the qkv heads):
            # a buffer in x's layout makes the scatter and the sum slow.
            full = np.zeros(x.shape, x.dtype)
            full[sl] = g
            _accumulate(x, full)

        outs.append(_make(x.data[sl], (x,), bwd))
    return outs


# -- reductions -------------------------------------------------------------

def tsum(x: Tensor) -> Tensor:
    out_data = np.asarray(_wide(x.data).sum(), dtype=x.dtype)

    def bwd(g):
        _accumulate(x, np.broadcast_to(g, x.shape))

    return _make(out_data, (x,), bwd)


def tmean(x: Tensor) -> Tensor:
    n = x.size
    out_data = np.asarray(_wide(x.data).sum() / n, dtype=x.dtype)

    def bwd(g):
        _accumulate(x, np.broadcast_to(g / n, x.shape))

    return _make(out_data, (x,), bwd)


def mean_pool_height(x: Tensor) -> Tensor:
    """[b, c, h, w] -> [b, c, 1, w] by averaging over the height axis."""
    if x.data.ndim != 4:
        raise ShapeError(f"mean_pool_height expects rank 4, got shape {x.shape}")
    h = x.shape[2]
    out_data = (_wide(x.data).mean(axis=2, keepdims=True)).astype(x.dtype)

    def bwd(g):
        _accumulate(x, np.broadcast_to(g / h, x.shape))

    return _make(out_data, (x,), bwd)


# -- linear algebra ---------------------------------------------------------

def matmul(a: Tensor, b: Tensor, bias: Tensor | None = None) -> Tensor:
    """a @ b; a 2-D ``b`` may take a ``bias`` added to every output row."""
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError(f"matmul expects rank >= 2 operands, got {a.shape} x {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} x {b.shape}")
    if b.data.ndim == 2:
        # [..., d_in] @ [d_in, d_out] as one 2-D GEMM over the flattened
        # rows, so the weight gradient is one GEMM rather than one per
        # leading index and a sum over a [b, d_in, d_out] f64 stack.  The
        # bias is added after the narrowing cast, in the storage dtype, so
        # no pre-bias product outlives the op.
        d_in, d_out = b.shape
        out_data = (_wide(a.data.reshape(-1, d_in)) @ _wide(b.data)).astype(a.dtype)
        if bias is not None:
            out_data = out_data + bias.data
        parents = (a, b) if bias is None else (a, b, bias)

        def bwd(g):
            if bias is not None and bias.requires_grad:
                _accumulate(bias, _unbroadcast(g, bias.shape))
            g64 = _wide(g.reshape(-1, d_out))
            _accumulate(a, (g64 @ _wide(b.data).T).reshape(a.shape))
            _accumulate(b, _wide(a.data.reshape(-1, d_in)).T @ g64)

        return _make(out_data.reshape(*a.shape[:-1], d_out), parents, bwd)
    if bias is not None:
        raise ShapeError(f"matmul takes a bias only with a 2-D right operand, got {b.shape}")
    out_data = np.matmul(_wide(a.data), _wide(b.data)).astype(a.dtype)

    def bwd(g):
        g64 = _wide(g)
        ga = np.matmul(g64, _wide(b.data).swapaxes(-1, -2))
        gb = np.matmul(_wide(a.data).swapaxes(-1, -2), g64)
        _accumulate(a, _unbroadcast(ga, a.shape))
        _accumulate(b, _unbroadcast(gb, b.shape))

    return _make(out_data, (a, b), bwd)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x[..., d_in] @ w[d_in, d_out] + b, as one graph node."""
    return matmul(x, w, b)


# -- convolution ------------------------------------------------------------

def _im2col(xp: np.ndarray, kh: int, kw: int, sh: int, sw: int, oh: int, ow: int):
    b, ci = xp.shape[:2]
    cols = np.empty((b, ci, kh, kw, oh, ow), dtype=xp.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j] = xp[:, :, i:i + sh * oh:sh, j:j + sw * ow:sw]
    return cols.reshape(b, ci * kh * kw, oh * ow)


def conv2d(x: Tensor, weight: Tensor, bias: Tensor,
           stride=(1, 1), padding=(0, 0)) -> Tensor:
    """Cross-correlation with per-axis stride and zero padding."""
    if x.data.ndim != 4 or weight.data.ndim != 4:
        raise ShapeError(f"conv2d expects rank-4 input and weight, got {x.shape}, {weight.shape}")
    b, ci, h, w = x.shape
    co, ci_w, kh, kw = weight.shape
    if ci != ci_w:
        raise ShapeError(f"conv2d channel mismatch: input {ci} vs weight {ci_w}")
    sh, sw = stride
    ph, pw = padding
    oh = (h + 2 * ph - kh) // sh + 1
    ow = (w + 2 * pw - kw) // sw + 1
    if oh < 1 or ow < 1:
        raise GeometryError(
            f"conv2d output size {oh}x{ow} non-positive for input {h}x{w}, "
            f"kernel {kh}x{kw}, stride {sh}x{sw}, pad {ph}x{pw}")

    xp = np.pad(x.data, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    cols = _im2col(xp, kh, kw, sh, sw, oh, ow)                       # [b, ci*kh*kw, oh*ow]
    wf = weight.data.reshape(co, ci * kh * kw)
    out_data = np.matmul(_wide(wf), _wide(cols)).astype(x.dtype)     # [b, co, oh*ow]
    out_data = out_data.reshape(b, co, oh, ow) + bias.data.reshape(1, co, 1, 1)

    def bwd(g):
        gf = _wide(g.reshape(b, co, oh * ow))
        # b GEMMs and a sum over b: an einsum here never reaches BLAS.
        gw = np.matmul(gf, _wide(cols).swapaxes(1, 2)).sum(axis=0).reshape(weight.shape)
        _accumulate(weight, gw)
        _accumulate(bias, g.sum(axis=(0, 2, 3)))
        gcols = np.matmul(_wide(wf).T, gf)                           # [b, ci*kh*kw, oh*ow]
        gcols = gcols.reshape(b, ci, kh, kw, oh, ow)
        gxp = np.zeros(xp.shape)
        for i in range(kh):
            for j in range(kw):
                gxp[:, :, i:i + sh * oh:sh, j:j + sw * ow:sw] += gcols[:, :, i, j]
        if ph or pw:
            gxp = gxp[:, :, ph:ph + h, pw:pw + w]
        _accumulate(x, gxp)

    return _make(out_data, (x, weight, bias), bwd)


# -- normalization ----------------------------------------------------------

def layernorm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ShapeError(f"layernorm affine shape {gamma.shape}/{beta.shape} does not match last dim {d}")
    x64 = _wide(x.data)
    mu = x64.mean(axis=-1, keepdims=True)
    var = x64.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + NORM_EPS)
    out_data = ((x64 - mu) * inv * _wide(gamma.data) + _wide(beta.data)).astype(x.dtype)

    def bwd(g):
        # x-hat is rebuilt from the input and the statistics rather than
        # kept from the forward: the same f64 operations give the same bits.
        xhat = (_wide(x.data) - mu) * inv
        g64 = _wide(g)
        dxhat = g64 * _wide(gamma.data)
        m1 = dxhat.mean(axis=-1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
        _accumulate(x, inv * (dxhat - m1 - xhat * m2))
        axes = tuple(range(g64.ndim - 1))
        _accumulate(gamma, (g64 * xhat).sum(axis=axes))
        _accumulate(beta, g64.sum(axis=axes))

    return _make(out_data, (x, gamma, beta), bwd)


@dataclass
class BatchNormState:
    """Running statistics for one BatchNorm layer."""
    running_mean: np.ndarray
    running_var: np.ndarray

    @classmethod
    def create(cls, channels: int):
        return cls(np.zeros(channels, dtype=np.float32), np.ones(channels, dtype=np.float32))


def batchnorm2d(x: Tensor, gamma: Tensor, beta: Tensor,
                state: BatchNormState, training: bool) -> Tensor:
    """Per-channel normalization over (batch, h, w); updates running stats in training."""
    if x.data.ndim != 4:
        raise ShapeError(f"batchnorm2d expects rank 4, got shape {x.shape}")
    c = x.shape[1]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(f"batchnorm2d affine shape {gamma.shape}/{beta.shape} does not match channels {c}")
    x64 = _wide(x.data)
    gam = _wide(gamma.data).reshape(1, c, 1, 1)
    bet = _wide(beta.data).reshape(1, c, 1, 1)
    if training:
        mu = x64.mean(axis=(0, 2, 3))
        var = x64.var(axis=(0, 2, 3))
        m = BN_MOMENTUM
        state.running_mean = (m * state.running_mean + (1 - m) * mu).astype(np.float32)
        state.running_var = (m * state.running_var + (1 - m) * var).astype(np.float32)
    else:
        mu = _wide(state.running_mean)
        var = _wide(state.running_var)
    mu = mu.reshape(1, c, 1, 1)
    inv = (1.0 / np.sqrt(var + NORM_EPS)).reshape(1, c, 1, 1)
    out_data = ((x64 - mu) * inv * gam + bet).astype(x.dtype)
    n = x.shape[0] * x.shape[2] * x.shape[3]

    def bwd(g):
        # x-hat is rebuilt from the input and the statistics, as in layernorm.
        xhat = (_wide(x.data) - mu) * inv
        g64 = _wide(g)
        dxhat = g64 * gam
        axes = (0, 2, 3)
        _accumulate(gamma, (g64 * xhat).sum(axis=axes))
        _accumulate(beta, g64.sum(axis=axes))
        if training:
            s1 = dxhat.sum(axis=axes, keepdims=True)
            s2 = (dxhat * xhat).sum(axis=axes, keepdims=True)
            gx = inv * (dxhat - s1 / n - xhat * s2 / n)
        else:
            gx = dxhat * inv
        _accumulate(x, gx)

    return _make(out_data, (x, gamma, beta), bwd)


# -- softmax family ---------------------------------------------------------

def _check_axis(x: Tensor, axis: int) -> int:
    nd = x.data.ndim
    if not -nd <= axis < nd:
        raise ShapeError(f"axis {axis} out of range for rank {nd}")
    return axis % nd


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    ax = _check_axis(x, axis)
    x64 = _wide(x.data)
    shifted = x64 - x64.max(axis=ax, keepdims=True)
    e = np.exp(shifted)
    y64 = e / e.sum(axis=ax, keepdims=True)
    out_data = y64.astype(x.dtype)

    def bwd(g):
        g64 = _wide(g)
        _accumulate(x, y64 * (g64 - (g64 * y64).sum(axis=ax, keepdims=True)))

    return _make(out_data, (x,), bwd)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    ax = _check_axis(x, axis)
    x64 = _wide(x.data)
    shifted = x64 - x64.max(axis=ax, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=ax, keepdims=True))
    out64 = shifted - lse
    out_data = out64.astype(x.dtype)

    def bwd(g):
        g64 = _wide(g)
        _accumulate(x, g64 - np.exp(out64) * g64.sum(axis=ax, keepdims=True))

    return _make(out_data, (x,), bwd)


def apply_attention_mask(scores: Tensor, mask: np.ndarray) -> Tensor:
    """Replace disallowed score entries with -inf ahead of softmax.

    ``mask`` is a boolean [n, n] array broadcast over leading axes; allowed
    entries pass through bitwise unchanged, so an all-true mask is an exact
    identity.
    """
    if mask.shape != scores.shape[-2:]:
        raise ShapeError(f"mask shape {mask.shape} does not match scores {scores.shape}")
    out_data = np.where(mask, scores.data, np.array(-np.inf, dtype=scores.dtype))

    def bwd(g):
        _accumulate(scores, np.where(mask, g, 0.0))

    return _make(out_data, (scores,), bwd)
