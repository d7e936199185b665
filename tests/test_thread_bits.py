"""The ops that share their work with the helper thread give the bits of
the single-threaded expressions.

``matmul`` and ``conv2d`` compute their weight gradient on the helper
(``_pair``); the batched ``matmul`` forward, ``softmax`` and ``gelu`` run on
two halves of their leading axis (``_in_halves``).
Each test lowers the thresholds to the size of its input, so that the op
hands work to the helper ("above"), or to one more than that, so that it
runs whole ("below"), and compares the output and every gradient, bit for
bit, with a test-local copy of the single-threaded expressions, in f32 and
f64.  Leading lengths of 7 split 3/4, and the svtr-t batch-1 attention
shapes split on the heads axis.  The other tests pin the helper's contract:
numpy's ``errstate`` holds on it, a forked child gets a working pool of its
own, importing ``svtr`` starts no thread, svtr-micro never submits a task,
``layernorm`` and ``batchnorm2d`` run whole with both thresholds at one
element, an svtr-t batch-8 train step and evaluation reach every function
that can hand work to the helper, and a whole svtr-t train step gives the
same bits with the helper, without it and with no split at all.
"""

import ast
import os
import signal
import subprocess
import sys
import time
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest
from scipy.special import erf

from svtr import tensor as T
from svtr.cli import main
from svtr.config import PRESETS
from svtr.ctc import Charset, ctc_loss
from svtr.data import gen_dataset
from svtr.exceptions import ShapeError
from svtr.model import SvtrModel
from svtr.tensor import Tensor
from svtr.train import evaluate

DTYPES = [np.float32, np.float64]
SIDES = ["above", "below"]


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
    T.tsum(T.mul(out, Tensor(g))).backward()
    return [t.grad for t in inputs]


def _leaf(a, requires_grad=True):
    return Tensor(a.copy(), requires_grad=requires_grad)


@pytest.fixture
def handoffs(monkeypatch):
    """The number of tasks handed to the helper and the qualified names of
    the functions that handed them (the callers of ``_pair`` and
    ``_in_halves``), as a two-item list."""
    count = [0, set()]
    both = T._both

    def counted(first, second):
        count[0] += 1
        count[1].add(sys._getframe(2).f_code.co_qualname)
        return both(first, second)

    monkeypatch.setattr(T, "_both", counted)
    return count


def _threshold(monkeypatch, name, size, side):
    monkeypatch.setattr(T, name, size if side == "above" else size + 1)


# -- matmul -------------------------------------------------------------------

def _linear_reference(ad, wd, bd, g):
    d_in, d_out = wd.shape
    out = (_wide(ad.reshape(-1, d_in)) @ _wide(wd)).astype(ad.dtype) + bd
    g64 = _wide(g.reshape(-1, d_out))
    ga = (g64 @ _wide(wd).T).reshape(ad.shape).astype(ad.dtype)
    gw = (_wide(ad.reshape(-1, d_in)).T @ g64).astype(ad.dtype)
    return out.reshape(*ad.shape[:-1], d_out), [ga, gw, g.sum(axis=0).sum(axis=0)]


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("side", SIDES)
def test_linear_pairs_its_gemms_bitwise(monkeypatch, handoffs, dtype, side):
    rng = np.random.default_rng(40)
    ad, wd, bd = (rng.normal(size=s).astype(dtype) for s in ((7, 3, 8), (8, 5), (5,)))
    g = rng.normal(size=(7, 3, 5)).astype(dtype)
    _threshold(monkeypatch, "_PAIR_MACS", ad.size * 5, side)
    a, w, b = _leaf(ad), _leaf(wd), _leaf(bd)
    out = T.matmul(a, w, b)
    grads = _grads(out, g, a, w, b)
    ref_out, ref_grads = _linear_reference(ad, wd, bd, g)
    _assert_same_bits(out.data, ref_out)
    for actual, expected in zip(grads, ref_grads):
        _assert_same_bits(actual, expected)
    assert handoffs[0] == (side == "above")


def _bmm_reference(ad, bd, g):
    out = np.matmul(_wide(ad), _wide(bd)).astype(ad.dtype)
    g64 = _wide(g)
    ga = np.matmul(g64, _wide(bd).swapaxes(-1, -2)).astype(ad.dtype)
    gb = np.matmul(_wide(ad).swapaxes(-1, -2), g64).astype(ad.dtype)
    return out, [ga, gb]


def _attention_operands(rng, dtype, b, heads, n, dh):
    """q and k-transposed as the model makes them: views of one transposed
    qkv array, with its strides."""
    qkv = rng.normal(size=(b, n, 3 * heads, dh)).astype(dtype).transpose(0, 2, 1, 3)
    return qkv[:, :heads], qkv[:, heads:2 * heads].transpose(0, 1, 3, 2)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("side", SIDES)
@pytest.mark.parametrize("case", ["odd-stack", "t-batch1-heads"])
def test_batched_matmul_splits_its_stack_bitwise(monkeypatch, handoffs, dtype, side, case):
    rng = np.random.default_rng(41)
    if case == "odd-stack":
        ad, bd = (rng.normal(size=s).astype(dtype) for s in ((7, 2, 4, 3), (7, 2, 3, 5)))
    else:
        ad, bd = _attention_operands(rng, dtype, 1, 2, 256, 32)
    g = rng.normal(size=(*ad.shape[:-1], bd.shape[-1])).astype(dtype)
    _threshold(monkeypatch, "_PAIR_MACS", ad.size * bd.shape[-1], side)
    a, b = Tensor(ad, requires_grad=True), Tensor(bd, requires_grad=True)
    out = T.matmul(a, b)
    grads = _grads(out, g, a, b)
    ref_out, ref_grads = _bmm_reference(ad, bd, g)
    _assert_same_bits(out.data, ref_out)
    for actual, expected in zip(grads, ref_grads):
        _assert_same_bits(actual, expected)
    # Above: the forward's halves and the backward's pair.
    assert handoffs[0] == (2 if side == "above" else 0)


def test_batched_matmul_needs_equal_leading_axes():
    with pytest.raises(ShapeError, match="equal leading axes"):
        T.matmul(Tensor(np.ones((2, 3, 4))), Tensor(np.ones((1, 4, 5))))


# -- conv2d -------------------------------------------------------------------

def _conv2d_reference(xd, wd, bd, stride, g):
    (b, ci, h, w), (co, _, kh, kw), (sh, sw) = xd.shape, wd.shape, stride
    oh, ow = (h - 1) // sh + 1, (w - 1) // sw + 1
    xp = np.pad(xd, ((0, 0), (0, 0), (1, 1), (1, 1)))
    cols = np.empty((b, ci, kh, kw, oh, ow))
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j] = xp[:, :, i:i + sh * oh:sh, j:j + sw * ow:sw]
    cols = cols.reshape(b, ci * kh * kw, oh * ow)
    wf = wd.reshape(co, ci * kh * kw)
    out = np.matmul(_wide(wf), cols).astype(xd.dtype).reshape(b, co, oh, ow)
    out += bd.reshape(1, co, 1, 1)
    gf = _wide(g.reshape(b, co, oh * ow))
    gw = np.matmul(gf, cols.swapaxes(1, 2)).sum(axis=0).reshape(wd.shape)
    gcols = np.matmul(_wide(wf).T, gf).reshape(b, ci, kh, kw, oh, ow)
    gxp = np.zeros(xp.shape)
    for i in range(kh):
        for j in range(kw):
            gxp[:, :, i:i + sh * oh:sh, j:j + sw * ow:sw] += gcols[:, :, i, j]
    gx = gxp[:, :, 1:1 + h, 1:1 + w]
    return out, [a.astype(xd.dtype) for a in (gx, gw, g.sum(axis=(0, 2, 3)))]


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("side", SIDES)
@pytest.mark.parametrize("stride", [(2, 2), (2, 1)])
@pytest.mark.parametrize("input_grad", [True, False])
def test_conv2d_pairs_its_gradients_bitwise(monkeypatch, handoffs, dtype, side, stride,
                                            input_grad):
    rng = np.random.default_rng(42)
    xd, wd, bd = (rng.normal(size=s).astype(dtype) for s in ((3, 2, 6, 8), (4, 2, 3, 3), (4,)))
    x, w, b = _leaf(xd, input_grad), _leaf(wd), _leaf(bd)
    oh, ow = (6 - 1) // stride[0] + 1, (8 - 1) // stride[1] + 1
    _threshold(monkeypatch, "_PAIR_MACS", 3 * 4 * 2 * 9 * oh * ow, side)
    out = T.conv2d(x, w, b, stride)
    g = rng.normal(size=out.shape).astype(dtype)
    gx, gw, gb = _grads(out, g, x, w, b)
    ref_out, (ref_gx, ref_gw, ref_gb) = _conv2d_reference(xd, wd, bd, stride, g)
    _assert_same_bits(out.data, ref_out)
    _assert_same_bits(gw, ref_gw)
    _assert_same_bits(gb, ref_gb)
    if input_grad:
        _assert_same_bits(gx, ref_gx)
    else:
        assert gx is None
    # An input that requires no grad leaves the weight gradient nothing to
    # pair with.
    assert handoffs[0] == (side == "above" and input_grad)


# -- row ops ------------------------------------------------------------------

def _softmax_reference(xd, g):
    x64 = _wide(xd)
    e = np.exp(x64 - x64.max(axis=-1, keepdims=True))
    y64 = e / e.sum(axis=-1, keepdims=True)
    g64 = _wide(g)
    return y64.astype(xd.dtype), (y64 * (g64 - (g64 * y64).sum(axis=-1, keepdims=True))).astype(xd.dtype)


def _rows(rng, dtype, case):
    if case == "odd-rows":
        return rng.normal(scale=4.0, size=(7, 6)).astype(dtype)
    if case == "masked":
        x = rng.normal(scale=4.0, size=(2, 3, 5, 5))
        x[:, :, np.arange(5) % 2 == 0, 1:] = -np.inf
        return x.astype(dtype)
    return rng.normal(scale=4.0, size=(1, 2, 256, 256)).astype(dtype)  # t-batch1-heads


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("side", SIDES)
@pytest.mark.parametrize("case", ["odd-rows", "masked", "t-batch1-heads"])
def test_softmax_splits_its_rows_bitwise(monkeypatch, handoffs, dtype, side, case):
    rng = np.random.default_rng(43)
    xd = _rows(rng, dtype, case)
    g = rng.normal(size=xd.shape).astype(dtype)
    _threshold(monkeypatch, "_HALF_ELEMENTS", xd.size, side)
    x = _leaf(xd)
    out = T.softmax(x)
    (gx,) = _grads(out, g, x)
    ref_out, ref_gx = _softmax_reference(xd, g)
    _assert_same_bits(out.data, ref_out)
    _assert_same_bits(gx, ref_gx)
    assert handoffs[0] == (2 if side == "above" else 0)


def _gelu_reference(xd, g):
    e = erf(xd * T._INV_SQRT2).astype(xd.dtype)
    out = 0.5 * xd * (1.0 + e)
    d = 0.5 * (1.0 + e) + xd * np.exp(-0.5 * xd * xd) * T._INV_SQRT_2PI
    return out, g * d.astype(xd.dtype)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("side", SIDES)
@pytest.mark.parametrize("shape", [(7, 5), (1, 3, 4, 6)])
def test_gelu_splits_its_rows_bitwise(monkeypatch, handoffs, dtype, side, shape):
    rng = np.random.default_rng(44)
    xd = rng.normal(scale=3.0, size=shape).astype(dtype)
    g = rng.normal(size=shape).astype(dtype)
    _threshold(monkeypatch, "_HALF_ELEMENTS", xd.size, side)
    x = _leaf(xd)
    out = T.gelu(x)
    (gx,) = _grads(out, g, x)
    ref_out, ref_gx = _gelu_reference(xd, g)
    _assert_same_bits(out.data, ref_out)
    _assert_same_bits(gx, ref_gx)
    assert handoffs[0] == (2 if side == "above" else 0)


# -- normalization --------------------------------------------------------------

def _normalize(op, xd, gd, bd, g, training):
    x, gamma, beta = _leaf(xd), _leaf(gd), _leaf(bd)
    if op == "layernorm":
        out, running = T.layernorm(x, gamma, beta), []
    else:
        running = [np.full(xd.shape[1], 0.25, xd.dtype), np.full(xd.shape[1], 2.0, xd.dtype)]
        out = T.batchnorm2d(x, gamma, beta, *running, training=training)
    return [out.data, *_grads(out, g, x, gamma, beta), *running]


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("op,training", [("layernorm", True), ("batchnorm2d", True),
                                         ("batchnorm2d", False)])
def test_normalization_runs_whole_above_the_split_sizes(monkeypatch, handoffs, dtype, op, training):
    # The one normalization rule hands no work to the helper: with both
    # thresholds at one element, its output, gradients and running
    # statistics keep the bits of a run at the default thresholds.
    rng = np.random.default_rng(46)
    shape = (7, 5, 12) if op == "layernorm" else (3, 4, 5, 6)
    d = shape[-1] if op == "layernorm" else shape[1]
    xd = (rng.normal(size=shape) * 3.0 + 0.5).astype(dtype)
    gd, bd = (rng.normal(size=d).astype(dtype) for _ in range(2))
    g = rng.normal(size=shape).astype(dtype)
    expected = _normalize(op, xd, gd, bd, g, training)
    monkeypatch.setattr(T, "_HALF_ELEMENTS", 1)
    monkeypatch.setattr(T, "_PAIR_MACS", 1)
    for actual, want in zip(_normalize(op, xd, gd, bd, g, training), expected, strict=True):
        _assert_same_bits(actual, want)
    assert handoffs[0] == 0


# -- a whole train step ---------------------------------------------------------

class _InlinePool:
    """A pool that runs each task as it is submitted, on the calling thread."""

    def submit(self, fn, *args):
        done = Future()
        done.set_result(fn(*args))
        return done


def _t_step(images, labels):
    """Loss, logits and every parameter gradient of one svtr-t train step."""
    model = SvtrModel(PRESETS["svtr-t"], seed=11)
    model.seed_dropout(5)
    with np.errstate(all="ignore"):
        logits = model.forward(images)
        loss = ctc_loss(T.log_softmax(logits), labels)
    loss.backward()
    return [loss.data, logits.data, *(p.grad for p in model.params.values())]


def test_svtr_t_train_step_is_the_same_with_and_without_the_helper(monkeypatch, handoffs):
    cfg = PRESETS["svtr-t"]
    corpus = gen_dataset(2, Charset(), (1, 16), cfg.input_h, cfg.input_w, seed=11)
    images, labels = np.stack([s.image for s in corpus]), [s.label for s in corpus]
    # Thresholds low enough that every op that can split does, at batch 2.
    monkeypatch.setattr(T, "_HALF_ELEMENTS", 2**10)
    monkeypatch.setattr(T, "_PAIR_MACS", 2**14)
    helper = _t_step(images, labels)
    assert handoffs[0] > 100
    with monkeypatch.context() as inline:
        inline.setattr(T, "_pool", _InlinePool())
        without = _t_step(images, labels)
    monkeypatch.setattr(T, "_HALF_ELEMENTS", 2**62)
    monkeypatch.setattr(T, "_PAIR_MACS", 2**62)
    handoffs[0] = 0
    whole = _t_step(images, labels)
    assert handoffs[0] == 0
    for a, b, c in zip(helper, without, whole):
        _assert_same_bits(a, c)
        _assert_same_bits(b, c)


def test_svtr_micro_never_reaches_the_helper(handoffs):
    cfg = PRESETS["svtr-micro"]
    corpus = gen_dataset(16, Charset(), (1, 5), cfg.input_h, cfg.input_w, seed=12)
    model = SvtrModel(cfg, seed=12)
    loss = ctc_loss(T.log_softmax(model.forward(np.stack([s.image for s in corpus]))),
                    [s.label for s in corpus])
    loss.backward()
    evaluate(model, corpus, batch_size=16)
    assert handoffs[0] == 0


def _split_sites():
    """The qualified names of the functions in ``svtr.tensor`` whose own body
    (not a nested function's) calls ``_pair`` or ``_in_halves``."""
    sites = set()

    def visit(fn, name):
        stack = list(fn.body)
        while stack:
            node = stack.pop()
            if isinstance(node, ast.FunctionDef):
                visit(node, f"{name}.<locals>.{node.name}")
                continue
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("_pair", "_in_halves"):
                sites.add(name)
            stack.extend(ast.iter_child_nodes(node))

    for fn in ast.parse(Path(T.__file__).read_text(encoding="utf-8")).body:
        if isinstance(fn, ast.FunctionDef):
            visit(fn, fn.name)
    return sites


def test_svtr_t_batch8_step_reaches_the_helper(handoffs):
    # Every function that can hand work to the helper does so in a batch-8
    # train step or evaluation: a split that no workload reaches is code no
    # timing ever chose.
    cfg = PRESETS["svtr-t"]
    corpus = gen_dataset(8, Charset(), (1, 16), cfg.input_h, cfg.input_w, seed=13)
    images = np.stack([s.image for s in corpus])
    model = SvtrModel(cfg, seed=13)
    with np.errstate(all="ignore"):
        loss = ctc_loss(T.log_softmax(model.forward(images)), [s.label for s in corpus])
    loss.backward()
    model.eval_logits(images)
    assert handoffs[0] > 0
    assert handoffs[1] == _split_sites()


# -- errstate on the helper -------------------------------------------------------

def _overflowing_ops():
    """An op whose work reaches the helper at the default thresholds and
    whose halves both overflow (or take inf - inf), per op."""
    rows = np.full((4, 2**16), -np.inf, dtype=np.float32)  # 2^18 elements
    big = np.full((4, 2**16), 3e38, dtype=np.float32)
    a = np.full((2, 256, 128), 1e200)  # 2^23 multiply-adds in all
    b = np.full((2, 128, 128), 1e200)
    return {
        "softmax": lambda: T.softmax(Tensor(rows)),
        "gelu": lambda: T.gelu(Tensor(big, requires_grad=True)),
        "matmul": lambda: T.matmul(Tensor(a), Tensor(b)),
    }


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("op", ["softmax", "gelu", "matmul"])
def test_errstate_holds_on_the_helper(handoffs, op):
    run = _overflowing_ops()[op]
    with pytest.raises(RuntimeWarning):
        run()
    with np.errstate(all="ignore"):
        run()
    assert handoffs[0] == 2


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_diverging_svtr_t_train_is_one_error_line(capsys, tmp_path, monkeypatch):
    # svtr-t at batch 8 hands work to the helper; its divergence is one
    # error line, as svtr-micro's is, and training stops at the step that
    # diverged: each step seeds dropout once, so steps 0 and 1 of the four
    # in two epochs are all it ran.
    steps = []
    seed_dropout = SvtrModel.seed_dropout
    monkeypatch.setattr(SvtrModel, "seed_dropout",
                        lambda self, seed: steps.append(seed) or seed_dropout(self, seed))
    code = main(["train", "--config", "svtr-t", "--synth", "16", "--batch-size", "8",
                 "--epochs", "2", "--lr", "1e30", "--warmup-epochs", "0",
                 "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 1 and not captured.out
    assert captured.err.splitlines() == [captured.err.strip()]
    assert captured.err.startswith("error: training diverged: non-finite loss nan at step 1")
    assert len(steps) == 2


# -- the pool's life ------------------------------------------------------------

def test_forked_child_gets_a_pool_of_its_own():
    x = Tensor(np.ones((4, 2**16), dtype=np.float32))
    T.softmax(x)  # starts the helper here
    parent_pool = T._pool
    pid = os.fork()
    if pid == 0:  # the child: exit 0 only if a split op ran on a new pool
        signal.alarm(10)
        code = 3
        try:
            if T._pool is not parent_pool:
                T.softmax(x)
                code = 0
        finally:
            os._exit(code)
    deadline = time.monotonic() + 30
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child hung")
        time.sleep(0.01)
    assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0, status


def test_import_starts_no_thread():
    src = str(Path(T.__file__).resolve().parents[1])
    code = ("import threading, svtr, svtr.tensor as T, svtr.cli; "
            "assert threading.active_count() == 1")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
