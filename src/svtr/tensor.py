"""Dense float tensors with reverse-mode automatic differentiation.

Values are stored in f32 by default (f64 is supported for shadow gradient
checks); reductions such as matmul inner products and normalization
statistics accumulate in f64 before being cast back to the storage dtype.

A ``Tensor`` is a value: its ``data`` and, when it requires grad, a
``_Node``, the graph vertex, which holds the gradient, the nodes of the op's
inputs and the backward rule but no forward array.  Every op builds its
output through ``_make``, which links the new node to the nodes of the
inputs that require grad.  A rule closes over those nodes, the shapes it
needs and exactly the arrays it reads: ``matmul`` both operands, ``conv2d``
the zero-padded input and the weight, ``layernorm`` and ``batchnorm2d``
their input, ``gelu`` its derivative, ``mul`` the operand whose partner
requires grad, ``softmax`` its input and the f64 row max and row sum,
``log_softmax`` its f64 output, ``dropout`` its mask packed to one bit per
element, and every other op no input array.  ``conv2d`` and ``softmax``
rebuild the im2col columns and the probabilities in backward with the
forward's operations, so their gradients keep their bits.  So an
intermediate's values are freed as soon as their last reader is done with
them, not when backward ends.
``backward`` replays the rules in reverse execution order (node creation
order), which makes gradient accumulation deterministic, and frees the
graph as it goes, so each forward supports one backward.

A leaf's node may hold a ``slot``: a view of a flat gradient buffer that
``optim.AdamW`` allocates when it packs the parameters.  A packed leaf's
first gradient is copied into its slot, later ones are added to it in
place, and ``.grad = value`` writes into it.  Slots are disjoint views, so
no two parameters share a ``grad``.
"""

from __future__ import annotations

import itertools

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


class _Node:
    """The graph vertex of a tensor that requires grad: its gradient, the
    nodes of its op's inputs and its backward rule (none on a leaf), and on
    a packed leaf the ``slot`` its gradient lives in."""

    __slots__ = ("grad", "slot", "dtype", "_parents", "_backward_fn", "_id")

    def __init__(self, dtype, parents: tuple = (), backward_fn=None):
        self.grad: np.ndarray | None = None
        self.slot: np.ndarray | None = None
        self.dtype = dtype
        self._parents = parents
        self._backward_fn = backward_fn
        self._id = next(_ids)


class Tensor:
    """A dense n-dimensional array (rank 0..4) with an optional gradient."""

    __slots__ = ("data", "_node")

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
        # Set by ``_make`` on the output of an op whose input requires grad.
        self._node = _Node(arr.dtype) if requires_grad else None

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

    # -- graph --------------------------------------------------------------

    @property
    def requires_grad(self) -> bool:
        return self._node is not None

    @property
    def grad(self) -> np.ndarray | None:
        return None if self._node is None else self._node.grad

    @grad.setter
    def grad(self, value):
        node = self._require_node("assign .grad to")
        if value is None or node.slot is None:
            node.grad = value
        else:
            node.slot[...] = value
            node.grad = node.slot

    @property
    def _parents(self) -> tuple:
        """The nodes of the op's inputs that require grad."""
        return () if self._node is None else self._node._parents

    @property
    def _backward_fn(self):
        return None if self._node is None else self._node._backward_fn

    @_backward_fn.setter
    def _backward_fn(self, fn):
        self._require_node("set a backward rule on")._backward_fn = fn

    def _require_node(self, action: str) -> _Node:
        if self._node is None:
            raise ContractError(f"cannot {action} a tensor that does not require grad")
        return self._node

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
        root = self._require_node("run backward from")
        # Creation ids are monotone in execution, so popping from the end
        # visits nodes in reverse execution order.
        nodes = sorted(_reachable(root), key=lambda n: n._id)
        root.grad = np.ones_like(self.data)
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

    def sum(self):
        return tsum(self)


def _as_tensor(x, dtype) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=dtype))


def _reachable(root: _Node) -> list:
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


def _accumulate(node: _Node | None, g: np.ndarray):
    """Add ``g`` to the gradient of ``node``; None (no grad) ignores it."""
    if node is None:
        return
    if node.slot is not None:
        # A packed leaf: the first gradient is copied into the slot and later
        # ones are added to it in place.
        if node.grad is None:
            node.slot[...] = g
            node.grad = node.slot
        else:
            node.grad += g.astype(node.dtype, copy=False)
    elif node.grad is None:
        # C order, because the layout of a transposed gradient would change
        # the BLAS rounding of later GEMMs.  An interior node takes a fresh
        # C-ordered array as is: no rule writes into a gradient in place, and
        # two nodes may hold views of one array.  A leaf no optimizer packed
        # keeps a private copy.
        if node._parents:
            node.grad = np.asarray(g, dtype=node.dtype, order="C")
        else:
            node.grad = g.astype(node.dtype, order="C")
    else:
        node.grad = node.grad + g.astype(node.dtype, copy=False)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcasted gradient back down to ``shape``."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g.reshape(shape)


def _make(data, parents, backward_fn) -> Tensor:
    """The output of an op, with a node linked to the nodes of the parents
    that require grad, when there are any."""
    out = Tensor(data)
    nodes = tuple(t._node for t in parents if t._node is not None)
    if nodes:
        out._node = _Node(out.data.dtype, nodes, backward_fn)
    return out


def _wide(a: np.ndarray) -> np.ndarray:
    """f64 view for accumulation; no-op when already f64."""
    return a if a.dtype == np.float64 else a.astype(np.float64)


# -- elementwise ------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data + b.data
    an, bn, a_shape, b_shape = a._node, b._node, a.shape, b.shape

    def bwd(g):
        if an is not None:
            _accumulate(an, _unbroadcast(g, a_shape))
        if bn is not None:
            _accumulate(bn, _unbroadcast(g, b_shape))

    return _make(out_data, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data * b.data
    an, bn, a_shape, b_shape = a._node, b._node, a.shape, b.shape
    # Each gradient reads the other operand, so an operand is kept only when
    # its partner requires grad (not the attention scores, scaled by a
    # constant).  A constant gets no gradient: it would cost a full-size
    # product and a reduction only to be dropped.
    a_data = a.data if bn is not None else None
    b_data = b.data if an is not None else None

    def bwd(g):
        if an is not None:
            _accumulate(an, _unbroadcast(g * b_data, a_shape))
        if bn is not None:
            _accumulate(bn, _unbroadcast(g * a_data, b_shape))

    return _make(out_data, (a, b), bwd)


def gelu(x: Tensor) -> Tensor:
    """Exact erf formulation: 0.5 * x * (1 + erf(x / sqrt(2))).

    erf runs on |x / sqrt(2)|, where scipy's erf is faster, and ``copysign``
    restores the sign: scipy's erf is exactly odd, so the bits are erf's (a
    test pins this).  When the input requires grad, the derivative is
    computed here and is the one array the rule keeps.
    """
    xd = x.data
    z = xd * _INV_SQRT2
    e = np.abs(z)
    erf(e, out=e)
    np.copysign(e, z, out=e)
    e += 1.0  # 1 + erf
    out_data = 0.5 * xd
    out_data *= e
    xn = x._node
    if xn is not None:
        # d = 0.5 * (1 + erf) + x * exp(-0.5 * x * x) / sqrt(2 pi), in z's buffer.
        d = np.multiply(xd, -0.5, out=z)
        d *= xd
        np.exp(d, out=d)
        d *= xd
        d *= _INV_SQRT_2PI
        e *= 0.5
        d += e

    def bwd(g):
        _accumulate(xn, np.multiply(g, d, out=d))

    return _make(out_data, (x,), bwd)


def dropout(x: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout, always applied: the caller decides when it runs."""
    if not 0.0 <= rate < 1.0:
        raise ContractError(f"dropout rate must be in [0, 1), got {rate}")
    # Backward keeps the mask packed, one bit per element, and rebuilds the
    # factor from it; the product of the mask and the rounded scale is
    # bitwise the rounded product, so both passes see the same factor.
    keep = rng.random(x.shape) >= rate
    scale = x.dtype.type(1.0 / (1.0 - rate))
    out_data = x.data * (keep.astype(x.dtype) * scale)
    bits, shape, xn = np.packbits(keep), x.shape, x._node

    def bwd(g):
        keep = np.unpackbits(bits, count=g.size).reshape(shape)
        _accumulate(xn, g * (keep.astype(xn.dtype) * scale))

    return _make(out_data, (x,), bwd)


# -- shape ops --------------------------------------------------------------

def reshape(x: Tensor, shape) -> Tensor:
    orig, xn = x.shape, x._node
    out_data = x.data.reshape(shape)

    def bwd(g):
        _accumulate(xn, g.reshape(orig))

    return _make(out_data, (x,), bwd)


def transpose(x: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    if sorted(axes) != list(range(x.data.ndim)):
        raise ShapeError(f"transpose axes {axes} invalid for rank {x.data.ndim}")
    inv, xn = tuple(np.argsort(axes)), x._node
    out_data = x.data.transpose(axes)

    def bwd(g):
        _accumulate(xn, g.transpose(inv))

    return _make(out_data, (x,), bwd)


def split(x: Tensor, parts: int, axis: int = -1) -> list:
    """Split into ``parts`` equal chunks, as views of ``x``; backward scatters
    each chunk back."""
    dim = x.shape[axis]
    if dim % parts != 0:
        raise ShapeError(f"cannot split axis of size {dim} into {parts} equal parts")
    step = dim // parts
    ax = axis % x.data.ndim
    x_shape, xn = x.shape, x._node
    outs = []
    for i in range(parts):
        sl = [slice(None)] * x.data.ndim
        sl[ax] = slice(i * step, (i + 1) * step)
        sl = tuple(sl)

        def bwd(g, sl=sl):
            # C order even when x is a transposed view (the qkv heads):
            # a buffer in x's layout makes the scatter and the sum slow.
            full = np.zeros(x_shape, xn.dtype)
            full[sl] = g
            _accumulate(xn, full)

        outs.append(_make(x.data[sl], (x,), bwd))
    return outs


# -- reductions -------------------------------------------------------------

def tsum(x: Tensor) -> Tensor:
    out_data = np.asarray(_wide(x.data).sum(), dtype=x.dtype)
    x_shape, xn = x.shape, x._node

    def bwd(g):
        _accumulate(xn, np.broadcast_to(g, x_shape))

    return _make(out_data, (x,), bwd)


def tmean(x: Tensor) -> Tensor:
    n = x.size
    out_data = np.asarray(_wide(x.data).sum() / n, dtype=x.dtype)
    x_shape, xn = x.shape, x._node

    def bwd(g):
        _accumulate(xn, np.broadcast_to(g / n, x_shape))

    return _make(out_data, (x,), bwd)


def mean_pool_height(x: Tensor) -> Tensor:
    """[b, c, h, w] -> [b, c, 1, w] by averaging over the height axis."""
    if x.data.ndim != 4:
        raise ShapeError(f"mean_pool_height expects rank 4, got shape {x.shape}")
    h = x.shape[2]
    out_data = (_wide(x.data).mean(axis=2, keepdims=True)).astype(x.dtype)
    x_shape, xn = x.shape, x._node

    def bwd(g):
        _accumulate(xn, np.broadcast_to(g / h, x_shape))

    return _make(out_data, (x,), bwd)


# -- linear algebra ---------------------------------------------------------

def matmul(a: Tensor, b: Tensor, bias: Tensor | None = None) -> Tensor:
    """a @ b; a 2-D ``b`` may take a ``bias`` added to every output row."""
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError(f"matmul expects rank >= 2 operands, got {a.shape} x {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} x {b.shape}")
    a_data, b_data, a_shape, b_shape = a.data, b.data, a.shape, b.shape
    an, bn = a._node, b._node
    if b.data.ndim == 2:
        # [..., d_in] @ [d_in, d_out] as one 2-D GEMM over the flattened
        # rows, so the weight gradient is one GEMM rather than one per
        # leading index and a sum over a [b, d_in, d_out] f64 stack.  The
        # bias is added after the narrowing cast, in the storage dtype, so
        # no pre-bias product outlives the op.
        d_in, d_out = b.shape
        out_data = (_wide(a.data.reshape(-1, d_in)) @ _wide(b.data)).astype(a.dtype)
        if bias is not None:
            out_data += bias.data
        parents = (a, b) if bias is None else (a, b, bias)
        bias_node, bias_shape = (None, None) if bias is None else (bias._node, bias.shape)

        def bwd(g):
            if bias_node is not None:
                _accumulate(bias_node, _unbroadcast(g, bias_shape))
            g64 = _wide(g.reshape(-1, d_out))
            _accumulate(an, (g64 @ _wide(b_data).T).reshape(a_shape))
            _accumulate(bn, _wide(a_data.reshape(-1, d_in)).T @ g64)

        return _make(out_data.reshape(*a.shape[:-1], d_out), parents, bwd)
    if bias is not None:
        raise ShapeError(f"matmul takes a bias only with a 2-D right operand, got {b.shape}")
    out_data = np.matmul(_wide(a.data), _wide(b.data)).astype(a.dtype)

    def bwd(g):
        g64 = _wide(g)
        ga = np.matmul(g64, _wide(b_data).swapaxes(-1, -2))
        gb = np.matmul(_wide(a_data).swapaxes(-1, -2), g64)
        _accumulate(an, _unbroadcast(ga, a_shape))
        _accumulate(bn, _unbroadcast(gb, b_shape))

    return _make(out_data, (a, b), bwd)


# -- convolution ------------------------------------------------------------

def _im2col(xp: np.ndarray, kh: int, kw: int, sh: int, sw: int, oh: int, ow: int):
    """The f64 columns [b, ci*kh*kw, oh*ow] of the padded input; the GEMMs
    read them wide, so they are widened as they are gathered."""
    b, ci = xp.shape[:2]
    cols = np.empty((b, ci, kh, kw, oh, ow))
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j] = xp[:, :, i:i + sh * oh:sh, j:j + sw * ow:sw]
    return cols.reshape(b, ci * kh * kw, oh * ow)


def conv2d(x: Tensor, weight: Tensor, bias: Tensor, stride) -> Tensor:
    """Cross-correlation with per-axis stride, zero-padded on each side by
    half the kernel (1 for a 3x3 kernel)."""
    if x.data.ndim != 4 or weight.data.ndim != 4:
        raise ShapeError(f"conv2d expects rank-4 input and weight, got {x.shape}, {weight.shape}")
    b, ci, h, w = x.shape
    co, ci_w, kh, kw = weight.shape
    if ci != ci_w:
        raise ShapeError(f"conv2d channel mismatch: input {ci} vs weight {ci_w}")
    sh, sw = stride
    ph, pw = kh // 2, kw // 2
    oh = (h + 2 * ph - kh) // sh + 1
    ow = (w + 2 * pw - kw) // sw + 1
    if oh < 1 or ow < 1:
        raise GeometryError(
            f"conv2d output size {oh}x{ow} non-positive for input {h}x{w}, "
            f"kernel {kh}x{kw}, stride {sh}x{sw}, pad {ph}x{pw}")

    xp = np.zeros((b, ci, h + 2 * ph, w + 2 * pw), dtype=x.dtype)
    xp[:, :, ph:ph + h, pw:pw + w] = x.data
    cols = _im2col(xp, kh, kw, sh, sw, oh, ow)                       # [b, ci*kh*kw, oh*ow]
    wf = weight.data.reshape(co, ci * kh * kw)
    out_data = np.matmul(_wide(wf), cols).astype(x.dtype)            # [b, co, oh*ow]
    out_data = out_data.reshape(b, co, oh, ow)
    out_data += bias.data.reshape(1, co, 1, 1)
    # The rule keeps the padded input, not the columns, which are about
    # kh * kw / (sh * sw) times its size, and rebuilds the columns for the
    # weight gradient.
    xn, wn, bn = x._node, weight._node, bias._node

    def bwd(g):
        gf = _wide(g.reshape(b, co, oh * ow))
        cols = _im2col(xp, kh, kw, sh, sw, oh, ow)
        # b GEMMs and a sum over b: an einsum here never reaches BLAS.
        gw = np.matmul(gf, cols.swapaxes(1, 2)).sum(axis=0).reshape(co, ci, kh, kw)
        del cols
        _accumulate(wn, gw)
        _accumulate(bn, g.sum(axis=(0, 2, 3)))
        if xn is None:
            # An input that requires no grad (the image batch of the first
            # conv) gets no input-gradient work.
            return
        gcols = np.matmul(_wide(wf).T, gf)                           # [b, ci*kh*kw, oh*ow]
        gcols = gcols.reshape(b, ci, kh, kw, oh, ow)
        gxp = np.zeros(xp.shape)
        for i in range(kh):
            for j in range(kw):
                gxp[:, :, i:i + sh * oh:sh, j:j + sw * ow:sw] += gcols[:, :, i, j]
        if ph or pw:
            gxp = gxp[:, :, ph:ph + h, pw:pw + w]
        _accumulate(xn, gxp)

    return _make(out_data, (x, weight, bias), bwd)


# -- normalization ----------------------------------------------------------

def _moments(x: np.ndarray, axis, n: int):
    """Mean, centered input and biased variance over ``axis``, which holds
    ``n`` elements, all in f64; the statistics keep size-1 axes.  Bitwise
    equal to the ``mean`` and ``var`` of ``x`` in f64 (the same sums and
    divisions in the same order), with the input centered once for both.
    The centered input is a fresh array the caller may overwrite."""
    xc = x.astype(np.float64)
    mu = np.add.reduce(xc, axis=axis, keepdims=True) / n
    xc -= mu
    return mu, xc, np.add.reduce(xc * xc, axis=axis, keepdims=True) / n


def layernorm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ShapeError(f"layernorm affine shape {gamma.shape}/{beta.shape} does not match last dim {d}")
    xd, gd = x.data, gamma.data
    mu, y, var = _moments(xd, -1, d)
    inv = 1.0 / np.sqrt(var + NORM_EPS)
    # (x - mu) * inv * gamma + beta, in place.
    y *= inv
    y *= _wide(gd)
    y += _wide(beta.data)
    out_data = y.astype(x.dtype)
    xn, gn, bn = x._node, gamma._node, beta._node

    def bwd(g):
        # x-hat is rebuilt from the input and the statistics rather than
        # kept from the forward: the same f64 operations give the same bits.
        xhat = _wide(xd) - mu
        xhat *= inv
        g64 = _wide(g)
        dxhat = g64 * _wide(gd)
        m1 = dxhat.mean(axis=-1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
        # inv * (dxhat - m1 - xhat * m2), in place.
        dxhat -= m1
        dxhat -= xhat * m2
        dxhat *= inv
        _accumulate(xn, dxhat)
        axes = tuple(range(g64.ndim - 1))
        _accumulate(gn, (g64 * xhat).sum(axis=axes))
        _accumulate(bn, g64.sum(axis=axes))

    return _make(out_data, (x, gamma, beta), bwd)


def batchnorm2d(x: Tensor, gamma: Tensor, beta: Tensor, running_mean: np.ndarray,
                running_var: np.ndarray, training: bool) -> Tensor:
    """Per-channel normalization over (batch, h, w).  In training it uses the
    batch statistics and updates the f32 ``running_mean`` and ``running_var``
    in place; in eval it normalizes with them and leaves them as they are."""
    if x.data.ndim != 4:
        raise ShapeError(f"batchnorm2d expects rank 4, got shape {x.shape}")
    c = x.shape[1]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(f"batchnorm2d affine shape {gamma.shape}/{beta.shape} does not match channels {c}")
    xd = x.data
    gam = _wide(gamma.data).reshape(1, c, 1, 1)
    bet = _wide(beta.data).reshape(1, c, 1, 1)
    n = x.shape[0] * x.shape[2] * x.shape[3]
    if training:
        mu, y, var = _moments(xd, (0, 2, 3), n)
        m = BN_MOMENTUM
        running_mean[...] = m * running_mean + (1 - m) * mu.reshape(c)
        running_var[...] = m * running_var + (1 - m) * var.reshape(c)
    else:
        mu = _wide(running_mean).reshape(1, c, 1, 1)
        var = _wide(running_var).reshape(1, c, 1, 1)
        y = xd.astype(np.float64)
        y -= mu
    inv = 1.0 / np.sqrt(var + NORM_EPS)
    # (x - mu) * inv * gamma + beta, in place.
    y *= inv
    y *= gam
    y += bet
    out_data = y.astype(x.dtype)
    xn, gn, bn = x._node, gamma._node, beta._node

    def bwd(g):
        # x-hat is rebuilt from the input and the statistics, as in layernorm.
        xhat = _wide(xd) - mu
        xhat *= inv
        g64 = _wide(g)
        dxhat = g64 * gam
        axes = (0, 2, 3)
        _accumulate(gn, (g64 * xhat).sum(axis=axes))
        _accumulate(bn, g64.sum(axis=axes))
        if training:
            # inv * (dxhat - s1 / n - xhat * s2 / n), in place.
            s1 = dxhat.sum(axis=axes, keepdims=True)
            s2 = (dxhat * xhat).sum(axis=axes, keepdims=True)
            dxhat -= s1 / n
            xhat *= s2
            xhat /= n
            dxhat -= xhat
        dxhat *= inv
        _accumulate(xn, dxhat)

    return _make(out_data, (x, gamma, beta), bwd)


# -- softmax family, over the last axis -------------------------------------

def softmax(x: Tensor) -> Tensor:
    xd = x.data
    # exp(x - max) / sum in f64, in place on one fresh array; the division
    # rounds each quotient to f64 and then to the output's dtype.
    y64 = xd.astype(np.float64)
    row_max = y64.max(axis=-1, keepdims=True)
    y64 -= row_max
    np.exp(y64, out=y64)
    row_sum = y64.sum(axis=-1, keepdims=True)
    out_data = np.divide(y64, row_sum, out=np.empty_like(xd))
    xn = x._node

    def bwd(g):
        # The rule keeps the input and the f64 row max and sum, not the f64
        # output, and rebuilds the output with the forward's operations, so
        # with its bits (after FlashAttention, arXiv 2205.14135).
        y64 = xd.astype(np.float64)
        y64 -= row_max
        np.exp(y64, out=y64)
        y64 /= row_sum
        # y * (g - sum(g * y)), with g widened inside each operation (exact)
        # and not written.
        t = np.multiply(g, y64)
        np.subtract(g, t.sum(axis=-1, keepdims=True), out=t)
        _accumulate(xn, np.multiply(y64, t, out=np.empty_like(xd)))

    return _make(out_data, (x,), bwd)


def log_softmax(x: Tensor) -> Tensor:
    x64 = _wide(x.data)
    shifted = x64 - x64.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    out64 = shifted - lse
    out_data = out64.astype(x.dtype)
    xn = x._node

    def bwd(g):
        g64 = _wide(g)
        _accumulate(xn, g64 - np.exp(out64) * g64.sum(axis=-1, keepdims=True))

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
    sn = scores._node

    def bwd(g):
        _accumulate(sn, np.where(mask, g, 0.0))

    return _make(out_data, (scores,), bwd)
