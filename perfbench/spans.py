"""Outside-in tracing of the svtr layers.

The tracer wraps the program's public functions from the outside: the op
functions on ``svtr.tensor`` (which ``svtr.model`` looks up as ``T.<op>`` at
call time), the layer methods of ``SvtrModel``, and the names ``svtr.train``
bound at import.  Every wrapped call records a span (name, start, end,
parent).  Each op also wraps the backward rule on the tensor it returns, so
the rule's time is a span of its own, charged to the model layer that was
active when the op ran.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

import numpy as np

# svtr.tensor function -> op group reported as tensor.<group>.
OP_GROUPS = {
    "matmul": "matmul", "conv2d": "conv2d", "softmax": "softmax",
    "log_softmax": "log_softmax", "apply_attention_mask": "apply_attention_mask",
    "layernorm": "layernorm", "batchnorm2d": "batchnorm2d", "gelu": "gelu",
    "dropout": "dropout", "split": "split", "add": "add", "mul": "mul",
    "reshape": "shape", "transpose": "shape",
    "tsum": "other", "tmean": "other", "mean_pool_height": "other",
}
OPS = sorted(set(OP_GROUPS.values()))
MODEL_LAYERS = ("embed", "stage1", "stage2", "stage3", "merge1", "merge2", "combine", "head")
LAYER_SPANS = {"model." + sec for sec in MODEL_LAYERS if sec != "head"}


class Tracer:
    """Spans in parallel lists; a span's parent is the span open when it began."""

    def __init__(self):
        self.name: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.layer: list[int] = []       # for backward rules: layer span of the op
        self.attrs: dict[int, dict] = {}
        self._stack: list[int] = []
        self._layers: list[int] = []     # open model-layer spans
        self._step = -1
        self.graph_nodes: list[int] = []
        self.eval_graph_nodes: list[int] = []

    def open(self, name: str, layer: int = -1) -> int:
        i = len(self.name)
        self.name.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.layer.append(layer)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int):
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def open_layer(self, name: str, **attrs) -> int:
        i = self.open(name)
        if attrs:
            self.attrs[i] = attrs
        self._layers.append(i)
        return i

    def close_layer(self, i: int):
        self.close(i)
        self._layers.pop()

    def current_layer(self) -> int:
        return self._layers[-1] if self._layers else -1

    def begin_step(self):
        self._step = self.open("train.step")

    def end_step(self):
        if self._step >= 0 and self._stack and self._stack[-1] == self._step:
            self.close(self._step)
        self._step = -1

    def save(self, path):
        np.savez(path, name=np.array(self.name), start=np.array(self.start),
                 end=np.array(self.end), parent=np.array(self.parent, dtype=np.int64),
                 layer=np.array(self.layer, dtype=np.int64))


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._saved = []

    def set(self, obj, attr: str, value):
        self._saved.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def undo(self):
        while self._saved:
            obj, attr, old = self._saved.pop()
            setattr(obj, attr, old)


def recorded_nodes(root) -> int:
    """Graph nodes reachable from ``root`` that carry a backward rule."""
    seen = set()
    stack = [root]
    count = 0
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        count += node._backward_fn is not None
        stack.extend(node._parents)
    return count


def _timed(tracer: Tracer, fn, name: str):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        i = tracer.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(i)
    return wrapper


def _timed_rule(tracer: Tracer, rule, name: str, layer: int):
    def timed_rule(g):
        i = tracer.open(name, layer)
        try:
            rule(g)
        finally:
            tracer.close(i)
    return timed_rule


def _wrap_rules(tracer: Tracer, out, args, name: str):
    layer = tracer.current_layer()
    for t in (out if isinstance(out, list) else (out,)):
        # An op that returns its input unchanged (dropout in eval mode) adds no rule.
        if t._backward_fn is not None and not any(t is a for a in args):
            t._backward_fn = _timed_rule(tracer, t._backward_fn, name, layer)


def _op(tracer: Tracer, fn, group: str):
    name = "tensor." + group
    rule_name = name + ".bwd"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        i = tracer.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(i)
        _wrap_rules(tracer, out, args, rule_name)
        return out
    return wrapper


def _layer(tracer: Tracer, fn, name_of):
    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        name, attrs = name_of(self, args, kwargs)
        i = tracer.open_layer(name, **attrs)
        try:
            return fn(self, *args, **kwargs)
        finally:
            tracer.close_layer(i)
    return wrapper


def install(tracer: Tracer) -> Patches:
    """Wrap every traced entry point of the svtr modules; undo() restores them."""
    T = importlib.import_module("svtr.tensor")
    model_mod = importlib.import_module("svtr.model")
    train_mod = importlib.import_module("svtr.train")
    ctc_mod = importlib.import_module("svtr.ctc")
    ckpt_mod = importlib.import_module("svtr.checkpoint")
    data_mod = importlib.import_module("svtr.data")
    patches = Patches()

    for fname, group in OP_GROUPS.items():
        patches.set(T, fname, _op(tracer, getattr(T, fname), group))

    backward = T.Tensor.backward

    def traced_backward(self):
        tracer.graph_nodes.append(recorded_nodes(self))
        i = tracer.open("tensor.backward")
        try:
            backward(self)
        finally:
            tracer.close(i)
    patches.set(T.Tensor, "backward", traced_backward)

    M = model_mod.SvtrModel
    patches.set(M, "patch_embed", _layer(tracer, M.patch_embed, lambda s, a, k: ("model.embed", {})))
    patches.set(M, "mixing_block", _layer(tracer, M.mixing_block, lambda s, a, k: (
        "model." + a[1].split(".")[0],
        {"kind": "local" if (a[3] if len(a) > 3 else k.get("mask")) is not None else "global"})))
    patches.set(M, "merging", _layer(tracer, M.merging, lambda s, a, k: (f"model.merge{a[1]}", {})))
    patches.set(M, "combining", _layer(tracer, M.combining, lambda s, a, k: ("model.combine", {})))

    forward = M.forward

    def traced_forward(self, images, *args, **kwargs):
        i = tracer.open_layer("model.forward", batch=int(np.shape(getattr(images, "data", images))[0]))
        try:
            out = forward(self, images, *args, **kwargs)
        finally:
            tracer.close_layer(i)
        if not self.training:
            tracer.eval_graph_nodes.append(recorded_nodes(out))
        return out
    patches.set(M, "forward", traced_forward)
    patches.set(M, "__init__", _timed(tracer, M.__init__, "model.init"))

    seed_dropout = M.seed_dropout

    def traced_seed_dropout(self, seed):
        tracer.end_step()
        tracer.begin_step()
        return seed_dropout(self, seed)
    patches.set(M, "seed_dropout", traced_seed_dropout)

    base_adamw = train_mod.AdamW

    class TracedAdamW(base_adamw):
        def step(self, lr):
            i = tracer.open("optim.step")
            try:
                super().step(lr)
            finally:
                tracer.close(i)
                tracer.end_step()
    patches.set(train_mod, "AdamW", TracedAdamW)

    ctc_loss = train_mod.ctc_loss

    def traced_ctc_loss(log_probs, labels):
        i = tracer.open("ctc.loss")
        try:
            out = ctc_loss(log_probs, labels)
        finally:
            tracer.close(i)
        _wrap_rules(tracer, out, (log_probs,), "ctc.loss.bwd")
        return out
    patches.set(train_mod, "ctc_loss", traced_ctc_loss)

    for mod, attr, name in (
            (train_mod, "evaluate", "train.evaluate"),
            (train_mod, "clip_grad_norm", "optim.clip"),
            (train_mod, "save_checkpoint", "checkpoint.save"),
            (train_mod, "greedy_decode", "ctc.decode"),
            (train_mod, "edit_accuracy", "ctc.edit_accuracy"),
            (ctc_mod, "greedy_decode", "ctc.decode"),
            (ckpt_mod, "save_checkpoint", "checkpoint.save"),
            (ckpt_mod, "load_checkpoint", "checkpoint.load"),
            (ckpt_mod, "restore_model", "checkpoint.restore"),
            (data_mod, "gen_dataset", "data.gen"),
            (data_mod, "load_dataset", "data.load")):
        patches.set(mod, attr, _timed(tracer, getattr(mod, attr), name))
    return patches


# -- arithmetic over recorded spans -----------------------------------------

def covered_length(lo: float, hi: float, intervals) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for s, e in sorted(intervals):
        s, e = max(s, reach), min(e, hi)
        if e > s:
            total += e - s
            reach = e
    return total


def self_times(start, end, parent) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children = defaultdict(list)
    for i, p in enumerate(parent):
        if p >= 0:
            children[p].append((start[i], end[i]))
    return [end[i] - start[i] - covered_length(start[i], end[i], children.get(i, ()))
            for i in range(len(start))]


def _section(name: str) -> str:
    return name.split(".", 1)[0]


def summarize(tracer: Tracer, unit: str, macs_per_image: dict[str, int]) -> tuple[dict, dict]:
    """Per-layer metrics and trace coverage ratios.

    ``unit`` names the spans the per-step figures average over: "train.step"
    on the training workloads, or "eval.forward" for the model forwards made
    inside ``evaluate``.  Returns (metrics, coverage).
    """
    names, start, end, parent, layer = (tracer.name, tracer.start, tracer.end,
                                        tracer.parent, tracer.layer)
    n = len(names)
    dur = [end[i] - start[i] for i in range(n)]
    own = self_times(start, end, parent)

    # Index of the unit span each span falls in (parents precede children).
    unit_of = [-1] * n
    for i in range(n):
        p = parent[i]
        if unit == "train.step":
            is_unit = names[i] == "train.step"
        else:
            is_unit = names[i] == "model.forward" and p >= 0 and names[p] == "train.evaluate"
        unit_of[i] = i if is_unit else (unit_of[p] if p >= 0 else -1)
    units = [i for i in range(n) if unit_of[i] == i]
    n_units = max(len(units), 1)

    tot = defaultdict(float)
    calls = defaultdict(int)
    images = 0
    for i in range(n):
        name = names[i]
        calls[name] += 1
        tot["all:" + name] += dur[i]
        if unit_of[i] < 0:
            continue
        p = parent[i]
        if name == "model.forward":
            tot["forward"] += dur[i]
            tot["model.self"] += own[i]
            images += tracer.attrs[i]["batch"]
        elif name in LAYER_SPANS:
            sec = name[len("model."):]
            tot[f"layer.{sec}.fwd"] += dur[i]
            tot["layers"] += dur[i]
            tot["model.self"] += own[i]
            kind = tracer.attrs.get(i, {}).get("kind")
            if kind:
                tot[f"{kind}_blocks.fwd"] += dur[i]
        elif name.endswith(".bwd"):
            tot["bwd_ops"] += own[i]
            if name.startswith("tensor."):
                tot[name[:-len(".bwd")] + ".bwd"] += own[i]
            li = layer[i]
            if li >= 0:
                sec = "head" if names[li] == "model.forward" else names[li][len("model."):]
                tot[f"layer.{sec}.bwd"] += dur[i]
                kind = tracer.attrs.get(li, {}).get("kind")
                if kind:
                    tot[f"{kind}_blocks.bwd"] += dur[i]
        elif name.startswith("tensor.") and name != "tensor.backward":
            if p >= 0 and names[p] == "model.forward":
                tot["layer.head.fwd"] += dur[i]
                tot["layers"] += dur[i]
            if p >= 0 and names[p] == "train.step" and name == "tensor.log_softmax":
                tot["loss"] += dur[i]
            else:
                tot["fwd_ops"] += own[i]
            tot[name + ".fwd"] += own[i]
        elif name == "tensor.backward":
            tot["backward"] += dur[i]
        elif name == "ctc.loss":
            tot["loss"] += dur[i]
        if name == "train.step":
            tot["step"] += dur[i]
        elif p >= 0 and names[p] == "train.step" and name in ("optim.clip", "optim.step"):
            tot[name] += dur[i]

    def per_call(name):
        return tot["all:" + name] / calls[name] if calls[name] else 0.0

    evals = calls["train.evaluate"]
    decode = sum(dur[i] for i in range(n)
                 if names[i] in ("ctc.decode", "ctc.edit_accuracy")
                 and parent[i] >= 0 and names[parent[i]] == "train.evaluate")
    m = {
        "model.forward_s": tot["forward"] / n_units,
        "tensor.backward_s": tot["backward"] / n_units,
        "ctc.loss_s": tot["loss"] / n_units,
        "optim.clip_s": tot["optim.clip"] / n_units,
        "optim.step_s": tot["optim.step"] / n_units,
        "train.evaluate_s": per_call("train.evaluate"),
        "ctc.decode_s": decode / evals if evals else 0.0,
        "checkpoint.save_s": per_call("checkpoint.save"),
        "checkpoint.load_s": per_call("checkpoint.load"),
        "checkpoint.restore_s": per_call("checkpoint.restore"),
        "data.gen_s": per_call("data.gen"),
        "data.load_s": per_call("data.load"),
        "model.init_s": per_call("model.init"),
        "model.self_s": tot["model.self"] / n_units,
        "tensor.graph_nodes": float(np.mean(tracer.graph_nodes)) if tracer.graph_nodes else 0.0,
        "tensor.eval_graph_nodes": (float(np.mean(tracer.eval_graph_nodes))
                                    if tracer.eval_graph_nodes else 0.0),
    }
    for op in OPS:
        m[f"tensor.{op}.fwd_s"] = tot[f"tensor.{op}.fwd"] / n_units
        m[f"tensor.{op}.bwd_s"] = tot[f"tensor.{op}.bwd"] / n_units
    for sec in MODEL_LAYERS:
        fwd = tot[f"layer.{sec}.fwd"]
        m[f"model.{sec}.fwd_s"] = fwd / n_units
        m[f"model.{sec}.bwd_s"] = tot[f"layer.{sec}.bwd"] / n_units
        macs = macs_per_image.get(sec, 0) * images
        m[f"model.{sec}.gmac_per_s"] = macs / fwd / 1e9 if fwd > 0 else 0.0
    for kind in ("local", "global"):
        m[f"model.{kind}_blocks.fwd_s"] = tot[f"{kind}_blocks.fwd"] / n_units
        m[f"model.{kind}_blocks.bwd_s"] = tot[f"{kind}_blocks.bwd"] / n_units

    phases = tot["forward"] + tot["loss"] + tot["backward"] + tot["optim.clip"] + tot["optim.step"]
    coverage = {
        "trace.step_coverage": phases / tot["step"] if tot["step"] else None,
        "trace.fwd_op_coverage": tot["fwd_ops"] / tot["forward"] if tot["forward"] else None,
        "trace.bwd_op_coverage": tot["bwd_ops"] / tot["backward"] if tot["backward"] else None,
        "trace.layer_coverage": tot["layers"] / tot["forward"] if tot["forward"] else None,
    }
    return m, coverage
