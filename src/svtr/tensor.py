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
``layernorm`` and ``batchnorm2d`` are one rule, ``_normalized``, with the
input's own statistics, or in batchnorm's eval the running ones as constants.
``backward`` replays the rules in reverse execution order (node creation
order), which makes gradient accumulation deterministic, and frees the
graph as it goes, so each forward supports one backward.
``gelu``'s erf is scipy's compiled ufunc, loaded alone (``_scipy_erf``):
the ``scipy.special`` package would load ~300 modules that svtr never calls.

A leaf's node may hold a ``slot``: a view of a flat gradient buffer that
``optim.AdamW`` allocates when it packs the parameters.  A packed leaf's
first gradient is copied into its slot, later ones are added to it in
place, and ``.grad = value`` writes into it.  Slots are disjoint views, so
no two parameters share a ``grad``.

Large ops share their work with one helper thread, through ``_pair``, which
runs two independent computations at once, and ``_in_halves``, which runs
one on the two halves of the first leading axis longer than 1.  Each piece
is computed as the whole op computes it, so the bits do not depend on the
helper:

- the backward of ``matmul`` and of ``conv2d`` computes the weight
  gradient, for ``conv2d`` with the column rebuild, on the helper and the
  input gradient here: GEMMs that share no output, each still one call;
  ``_accumulate`` then runs here in the usual order;
- the forward of ``matmul`` splits the stack: numpy makes one GEMM call per
  matrix, so no matrix depends on the rest of the stack.  A 2-D right
  operand makes an empty stack, so a linear layer stays one GEMM;
- ``softmax`` and ``gelu`` split the rows of both passes: a row's
  reductions and elementwise operations read only that row, with the same
  operations, order and layout;
- nothing else splits.  A 2-D GEMM split by rows could take another OpenBLAS
  kernel and round differently, and a split reduction over leading axes
  would sum in another order.  Dropout's draw, AdamW and clipping stay
  whole.

Four rules hold for the helper:

1. A task writes only into arrays this thread allocated (``out=``,
   ``np.copyto``).  glibc gives the helper a malloc arena of its own, which
   keeps what the helper frees: when the weight-gradient tasks allocated
   their own outputs, svtr-t training peaked at 354 MB instead of 333 MB.
2. A task runs under a copy of the caller's context, where numpy 2 keeps
   ``errstate``; a fresh thread starts without it.
3. A task never calls an op function: those are the module-level names a
   tracer may wrap, and a tracer keeps one span stack.
4. Below ``_HALF_ELEMENTS`` elements or ``_PAIR_MACS`` multiply-adds, an op
   runs whole on the calling thread and submits no task.  Every svtr-micro
   op, and every forward op of svtr-t at batch 1, stays below.  The pool is
   made at import; its thread starts with the first op large enough to use
   it, and a forked child makes a pool of its own.

The helper is the second core of a two-core host; run with
``OPENBLAS_NUM_THREADS=1``, or OpenBLAS threads compete with it.
"""

from __future__ import annotations

import contextvars
import importlib.machinery
import importlib.util
import itertools
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .exceptions import ContractError, GeometryError, ShapeError


def _scipy_erf():
    """scipy's compiled ``erf`` ufunc, loaded from its extension module alone.

    The extension enters itself in ``sys.modules`` as it starts.  The entry is
    dropped, so a later ``import scipy.special`` binds the module as usual,
    with this very ``erf``.  On another scipy layout, the package import."""
    name = "scipy.special._special_ufuncs"
    if name in sys.modules:
        return sys.modules[name].erf
    scipy_spec = importlib.util.find_spec("scipy")
    for root in scipy_spec.submodule_search_locations if scipy_spec else ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, "special", "_special_ufuncs" + suffix)
            if os.path.isfile(path):
                module = importlib.util.module_from_spec(
                    importlib.util.spec_from_file_location(name, path))
                sys.modules.pop(name, None)
                return module.erf
    from scipy.special import erf
    return erf


erf = _scipy_erf()
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


# -- the helper thread --------------------------------------------------------

# Below these sizes an op runs whole on the calling thread.  They come from
# whole-model timings on a 2-vCPU host: splitting the ~0.3 ms ops of one
# svtr-t image (its 2^17-element softmax, its 2^21- and 2^22-MAC attention
# GEMMs) made a batch-1 forward up to 15% slower, though each op alone got
# faster, while a batch-8 svtr-t forward and backward took the same 0.46 s
# (0.58 s whole) with these bounds as with 2^17 and 2^21.  The largest
# svtr-micro ops at batch 16 (2^16 softmax elements, 2^19.2 GEMM MACs) sit
# far below.
_HALF_ELEMENTS = 2**18
_PAIR_MACS = 2**23
# The executor starts its one thread at the first submit, not here.
_pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix="svtr-helper")


def _forget_helper():
    # A forked child holds a copy of the pool that counts the parent's
    # thread, which did not survive the fork: tasks would wait forever.
    global _pool
    _pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix="svtr-helper")


os.register_at_fork(after_in_child=_forget_helper)


def _both(first, second):
    """``(first(), second())``, with ``second`` on the helper under a copy of
    the caller's context (numpy's ``errstate`` is a context variable), and
    ``first`` here.  Returns, or raises, once both are done."""
    task = _pool.submit(contextvars.copy_context().run, second)
    try:
        result = first()
    finally:
        other = task.result()
    return result, other


def _pair(f, g, macs: int, *shapes):
    """``(f(), g(*buffers))`` for two independent computations of ``macs``
    multiply-adds each, ``g`` writing into f64 buffers of ``shapes`` made
    here.  From ``_PAIR_MACS`` on, ``g`` runs on the helper; below, first, so
    that ``f`` reuses the buffers ``g`` drops (``conv2d``'s columns): held
    through ``f``, they cost a 2-vCPU svtr-micro train step about 4%."""
    if macs < _PAIR_MACS:
        other = g(*(np.empty(shape) for shape in shapes))
        return f(), other
    buffers = [np.empty(shape) for shape in shapes]
    return _both(f, lambda: g(*buffers))


def _in_halves(part, arrays: tuple, lead: tuple, size: int, least: int | None = None):
    """``part(*arrays)``; once ``size`` reaches ``least`` (``_HALF_ELEMENTS``
    if None), ``part`` on the two halves of the arrays instead, the second on
    the helper.  The halves cut the first axis of ``lead``, the leading axes
    every array shares, that is longer than 1; seven rows split 3/4."""
    if size >= (_HALF_ELEMENTS if least is None else least):
        for axis, n in enumerate(lead):
            if n > 1:
                head = (slice(None),) * axis
                first = [a[head + (slice(None, n // 2),)] for a in arrays]
                second = [a[head + (slice(n // 2, None),)] for a in arrays]
                _both(lambda: part(*first), lambda: part(*second))
                return
    part(*arrays)


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

    erf, scipy's compiled ufunc without its package, runs on |x / sqrt(2)|,
    where it is faster, and ``copysign`` restores the sign: scipy's erf is
    exactly odd, so the bits are erf's (a test pins this).  When the input
    requires grad, the derivative is computed here and is the one array the
    rule keeps.
    """
    xd, xn = x.data, x._node
    z, e, out_data = np.empty_like(xd), np.empty_like(xd), np.empty_like(xd)

    def part(xi, zi, ei, oi):
        np.multiply(xi, _INV_SQRT2, out=zi)
        np.abs(zi, out=ei)
        erf(ei, out=ei)
        np.copysign(ei, zi, out=ei)
        ei += 1.0  # 1 + erf
        np.multiply(xi, 0.5, out=oi)
        oi *= ei
        if xn is not None:
            # d = 0.5 * (1 + erf) + x * exp(-0.5 * x * x) / sqrt(2 pi), in z's buffer.
            np.multiply(xi, -0.5, out=zi)
            zi *= xi
            np.exp(zi, out=zi)
            zi *= xi
            zi *= _INV_SQRT_2PI
            ei *= 0.5
            zi += ei

    _in_halves(part, (xd, z, e, out_data), xd.shape, xd.size)
    d = z

    def bwd(g):
        _in_halves(np.multiply, (g, d, d), d.shape, d.size)  # g * d, into d
        _accumulate(xn, d)

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
    """a @ b; a 2-D ``b`` may take a ``bias`` added to every output row.  A
    batched product takes operands with equal leading axes."""
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError(f"matmul expects rank >= 2 operands, got {a.shape} x {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} x {b.shape}")
    if b.data.ndim == 2:
        # [..., d_in] @ [d_in, d_out] over the flattened rows, an empty stack:
        # one 2-D GEMM, and one weight-gradient GEMM rather than a stack sum.
        a_data, lead = a.data.reshape(-1, b.shape[0]), ()
    elif bias is not None:
        raise ShapeError(f"matmul takes a bias only with a 2-D right operand, got {b.shape}")
    elif b.shape[:-2] != a.shape[:-2]:
        raise ShapeError(f"batched matmul needs equal leading axes, got {a.shape} x {b.shape}")
    else:
        a_data, lead = a.data, a.shape[:-2]
    b_data, a_shape, b_shape, an, bn = b.data, a.shape, b.shape, a._node, b._node
    macs = a.size * b_shape[-1]
    # numpy makes one GEMM call per matrix of the stack, so each half of the
    # stack gets the bits it gets in one call.
    out_shape = (*a_data.shape[:-1], b_shape[-1])
    out_data, out64 = np.empty(out_shape, a.dtype), np.empty(out_shape)

    def part(a64, b64, o64, o):
        np.copyto(o, np.matmul(a64, b64, out=o64))

    _in_halves(part, (_wide(a_data), _wide(b_data), out64, out_data), lead, macs, _PAIR_MACS)
    # The bias is added after the narrowing cast, in the storage dtype.
    if bias is not None:
        out_data += bias.data
    parents = (a, b) if bias is None else (a, b, bias)
    bias_node, bias_shape = (None, None) if bias is None else (bias._node, bias.shape)

    def bwd(g):
        if bias_node is not None:
            _accumulate(bias_node, _unbroadcast(g, bias_shape))
        g64, a64 = _wide(g.reshape(out_shape)), _wide(a_data)
        ga, gb = _pair(lambda: np.matmul(g64, _wide(b_data).swapaxes(-1, -2)),
                       lambda out: np.matmul(a64.swapaxes(-1, -2), g64, out=out), macs, b_shape)
        _accumulate(an, ga.reshape(a_shape))
        _accumulate(bn, gb)

    return _make(out_data.reshape(*a_shape[:-1], b_shape[-1]), parents, bwd)


# -- convolution ------------------------------------------------------------

def _im2col(xp: np.ndarray, kh: int, kw: int, sh: int, sw: int, oh: int, ow: int, cols: np.ndarray):
    """The f64 columns [b, ci*kh*kw, oh*ow] of the padded input, gathered
    into ``cols`` [b, ci, kh, kw, oh, ow]; the GEMMs read them wide, so they
    are widened as they are gathered."""
    b, ci = xp.shape[:2]
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
    cols = _im2col(xp, kh, kw, sh, sw, oh, ow, np.empty((b, ci, kh, kw, oh, ow)))
    wf = weight.data.reshape(co, ci * kh * kw)
    out_data = np.matmul(_wide(wf), cols).astype(x.dtype)            # [b, co, oh*ow]
    out_data = out_data.reshape(b, co, oh, ow)
    out_data += bias.data.reshape(1, co, 1, 1)
    # The rule keeps the padded input, not the columns, which are about
    # kh * kw / (sh * sw) times its size, and rebuilds the columns for the
    # weight gradient.
    xn, wn, bn = x._node, weight._node, bias._node
    # An input that requires no grad (the image batch of the first conv) gets
    # no input-gradient work, so nothing to pair the weight gradient with.
    macs = b * co * ci * kh * kw * oh * ow if xn is not None else 0

    def bwd(g):
        gf = _wide(g.reshape(b, co, oh * ow))

        def weight_grad(cols, gw):
            # b GEMMs and a sum over b: an einsum here never reaches BLAS.
            cols = _im2col(xp, kh, kw, sh, sw, oh, ow, cols)
            return np.matmul(gf, cols.swapaxes(1, 2), out=gw)

        def input_grad():
            if xn is None:
                return None
            gcols = np.matmul(_wide(wf).T, gf)                       # [b, ci*kh*kw, oh*ow]
            gcols = gcols.reshape(b, ci, kh, kw, oh, ow)
            gxp = np.zeros(xp.shape)
            for i in range(kh):
                for j in range(kw):
                    gxp[:, :, i:i + sh * oh:sh, j:j + sw * ow:sw] += gcols[:, :, i, j]
            return gxp[:, :, ph:ph + h, pw:pw + w] if ph or pw else gxp

        gx, gw = _pair(input_grad, weight_grad, macs, (b, ci, kh, kw, oh, ow), (b, co, ci * kh * kw))
        _accumulate(wn, gw.sum(axis=0).reshape(co, ci, kh, kw))
        _accumulate(bn, g.sum(axis=(0, 2, 3)))
        _accumulate(xn, gx)

    return _make(out_data, (x, weight, bias), bwd)


# -- normalization ----------------------------------------------------------

def _normalized(x: Tensor, gamma: Tensor, beta: Tensor, axis: int, axes, stats=None):
    """``(x - mu) * inv * gamma + beta`` in f64, ``inv = 1 / sqrt(var + eps)``,
    with ``gamma`` and ``beta`` along ``axis``: the one rule of ``layernorm``
    and ``batchnorm2d``.  ``mu`` and ``var`` are the mean and biased variance
    of ``x`` over ``axes``, which the gradient flows through, or the
    constant pair ``stats``.  Returns the output, ``mu`` and ``var``."""
    xd, own = x.data, stats is None
    # The affine axes are every axis but ``axis``, which may have size 1 (a
    # layernorm of one feature).
    axis %= xd.ndim
    along = tuple(n if a == axis else 1 for a, n in enumerate(xd.shape))
    rest = tuple(a for a in range(xd.ndim) if a != axis)
    gam, bet = _wide(gamma.data).reshape(along), _wide(beta.data).reshape(along)
    # The centered input, its square's scratch and the output, in this order
    # before any work: the order decides svtr-t inference's peak RSS.
    y = np.empty_like(xd, dtype=np.float64)
    sq = np.empty_like(y) if own else None
    out_data = np.empty_like(xd)
    np.copyto(y, xd)
    if own:
        # The f64 mean and biased variance, bitwise those of ``mean`` and
        # ``var`` (the same sums and divisions in the same order), with the
        # input centered once for both.
        mu = np.add.reduce(y, axis=axes, keepdims=True)
        n = xd.size // mu.size
        mu /= n
        y -= mu
        var = np.add.reduce(np.multiply(y, y, out=sq), axis=axes, keepdims=True)
        var /= n
    else:
        mu, var = stats
        y -= mu
    inv = 1.0 / np.sqrt(var + NORM_EPS)
    y *= inv
    y *= gam
    y += bet
    np.copyto(out_data, y)
    xn, gn, bn = x._node, gamma._node, beta._node

    def bwd(g):
        # x-hat is rebuilt from the input and the statistics rather than
        # kept from the forward: the same f64 operations give the same bits.
        xhat, g64 = np.empty_like(xd, dtype=np.float64), _wide(g)
        dx, t = np.empty_like(g64), np.empty_like(g64)
        np.copyto(xhat, xd)
        xhat -= mu
        xhat *= inv
        np.multiply(g64, gam, out=dx)
        if own:
            # inv * (dxhat - m1 - xhat * m2), in place, with the means of
            # dxhat and dxhat * xhat as ``mean`` takes them.
            m1 = np.add.reduce(dx, axis=axes, keepdims=True)
            m1 /= n
            m2 = np.add.reduce(np.multiply(dx, xhat, out=t), axis=axes, keepdims=True)
            m2 /= n
            dx -= m1
            dx -= np.multiply(xhat, m2, out=t)
        dx *= inv
        _accumulate(xn, dx)
        _accumulate(gn, np.add.reduce(np.multiply(g64, xhat, out=t), axis=rest))
        _accumulate(bn, np.add.reduce(g64, axis=rest))

    return _make(out_data, (x, gamma, beta), bwd), mu, var


def layernorm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Over the last axis."""
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ShapeError(f"layernorm affine shape {gamma.shape}/{beta.shape} does not match last dim {d}")
    return _normalized(x, gamma, beta, -1, -1)[0]


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
    if not training:
        frozen = (_wide(running_mean).reshape(1, c, 1, 1), _wide(running_var).reshape(1, c, 1, 1))
        return _normalized(x, gamma, beta, 1, (0, 2, 3), frozen)[0]
    out, mu, var = _normalized(x, gamma, beta, 1, (0, 2, 3))
    m = BN_MOMENTUM
    running_mean[...] = m * running_mean + (1 - m) * mu.reshape(c)
    running_var[...] = m * running_var + (1 - m) * var.reshape(c)
    return out


# -- softmax family, over the last axis -------------------------------------

def softmax(x: Tensor) -> Tensor:
    """Over the last axis.  A large input runs each pass in two halves of the
    rows."""
    xd, xn = x.data, x._node
    stats = x.shape[:-1] + (1,)
    y64, out_data = np.empty_like(xd, dtype=np.float64), np.empty_like(xd)
    row_max, row_sum = np.empty(stats), np.empty(stats)

    def part(xi, y, m, s, out):
        # exp(x - max) / sum in f64, in place on an f64 copy; the division
        # rounds each quotient to f64 and then to the output's dtype.
        np.copyto(y, xi)
        y -= np.maximum.reduce(y, axis=-1, keepdims=True, out=m)
        np.exp(y, out=y)
        np.divide(y, np.add.reduce(y, axis=-1, keepdims=True, out=s), out=out)

    _in_halves(part, (xd, y64, row_max, row_sum, out_data), stats[:-1], x.size)

    def bwd(g):
        # The rule keeps the input and the f64 row max and sum, not the f64
        # output, and rebuilds the output with the forward's operations, so
        # with its bits (after FlashAttention, arXiv 2205.14135).
        y64, t = np.empty_like(xd, dtype=np.float64), np.empty_like(g, dtype=np.float64)
        gx = np.empty_like(xd)

        def part(xi, gi, y, t, t_sum, m, s, out):
            np.copyto(y, xi)
            y -= m
            np.exp(y, out=y)
            y /= s
            # y * (g - sum(g * y)), with g widened inside each operation
            # (exact) and not written.
            np.multiply(gi, y, out=t)
            np.subtract(gi, np.add.reduce(t, axis=-1, keepdims=True, out=t_sum), out=t)
            np.multiply(y, t, out=out)

        _in_halves(part, (xd, g, y64, t, np.empty(stats), row_max, row_sum, gx), stats[:-1], g.size)
        _accumulate(xn, gx)

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
