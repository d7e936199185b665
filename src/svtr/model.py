"""The three-stage backbone: patch embedding, mixing blocks, merging,
combining, and the linear classifier head.

The parameter set is fully determined by the config: ``parameter_spec``
enumerates every learnable tensor (name, shape, init rule) in construction
order, and both the model constructor and the parameter audit walk the same
list.  Names use dotted paths (``stage2.block0.attn.qkv.weight``); the
classifier lives under ``head.`` so audits can exclude it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .config import SvtrConfig, LOCAL
from .exceptions import ContractError, GeometryError, ShapeError
from .tensor import Tensor


def local_attention_mask(h: int, w: int, wh: int, ww: int) -> np.ndarray:
    """Boolean [h*w, h*w] mask for window-limited attention on an h x w grid.

    Query q may attend key k iff their grid positions differ by at most
    (wh-1)/2 rows and (ww-1)/2 cols; windows are clipped at the boundary,
    never padded or wrapped.
    """
    if wh % 2 == 0 or ww % 2 == 0:
        raise ContractError(f"window {wh}x{ww} must have odd sides")
    if h < 1 or w < 1 or wh < 1 or ww < 1:
        raise ContractError(f"grid {h}x{w} and window {wh}x{ww} must be positive")
    # Tokens are row-major, so the mask is the Kronecker product of a row
    # band and a column band.
    rows, cols = np.arange(h), np.arange(w)
    return np.kron(np.abs(rows[:, None] - rows) <= (wh - 1) // 2,
                   np.abs(cols[:, None] - cols) <= (ww - 1) // 2)


@dataclass(frozen=True)
class ParamSpec:
    name: str
    shape: tuple
    init: str  # trunc_normal | zeros | ones


def _affine(prefix: str, dim: int) -> list:
    return [ParamSpec(prefix + ".gamma", (dim,), "ones"),
            ParamSpec(prefix + ".beta", (dim,), "zeros")]


def parameter_spec(config: SvtrConfig) -> list[ParamSpec]:
    """Every learnable tensor of the model, in construction order."""
    d0, d1, d2 = config.embed_dims
    specs: list[ParamSpec] = [
        ParamSpec("embed.conv1.weight", (d0 // 2, 3, 3, 3), "trunc_normal"),
        ParamSpec("embed.conv1.bias", (d0 // 2,), "zeros"),
        *_affine("embed.bn1", d0 // 2),
        ParamSpec("embed.conv2.weight", (d0, d0 // 2, 3, 3), "trunc_normal"),
        ParamSpec("embed.conv2.bias", (d0,), "zeros"),
        *_affine("embed.bn2", d0),
        ParamSpec("embed.pos", ((config.input_h // 4) * (config.input_w // 4), d0),
                  "trunc_normal"),
    ]
    for stage, dim in enumerate(config.embed_dims):
        hidden = config.mlp_dims[stage]
        for block in range(config.depths[stage]):
            p = f"stage{stage + 1}.block{block}."
            specs += _affine(p + "norm1", dim)
            specs += [
                ParamSpec(p + "attn.qkv.weight", (dim, 3 * dim), "trunc_normal"),
                ParamSpec(p + "attn.qkv.bias", (3 * dim,), "zeros"),
                ParamSpec(p + "attn.proj.weight", (dim, dim), "trunc_normal"),
                ParamSpec(p + "attn.proj.bias", (dim,), "zeros"),
            ]
            specs += _affine(p + "norm2", dim)
            specs += [
                ParamSpec(p + "mlp.fc1.weight", (dim, hidden), "trunc_normal"),
                ParamSpec(p + "mlp.fc1.bias", (hidden,), "zeros"),
                ParamSpec(p + "mlp.fc2.weight", (hidden, dim), "trunc_normal"),
                ParamSpec(p + "mlp.fc2.bias", (dim,), "zeros"),
            ]
        if stage < 2:
            nxt = config.embed_dims[stage + 1]
            p = f"merge{stage + 1}."
            specs += [
                ParamSpec(p + "conv.weight", (nxt, dim, 3, 3), "trunc_normal"),
                ParamSpec(p + "conv.bias", (nxt,), "zeros"),
                *_affine(p + "norm", nxt),
            ]
    specs += [
        ParamSpec("combine.fc.weight", (d2, config.combined_dim), "trunc_normal"),
        ParamSpec("combine.fc.bias", (config.combined_dim,), "zeros"),
        ParamSpec("head.weight", (config.combined_dim, config.charset_size), "trunc_normal"),
        ParamSpec("head.bias", (config.charset_size,), "zeros"),
    ]
    return specs


INIT_STD = 0.02
DEFAULT_SEED = 42


def _trunc_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """Normal(0, INIT_STD) with redraws outside +-2 INIT_STD, as float32.

    The bits depend on the draws and their order: one call for
    ``prod(shape)`` standard normals, then rounds of one call each, for as
    many normals as values are still outside the bound, written to those
    values in flat C order.  Only the new draws of a round are tested again.
    """
    x = rng.standard_normal(shape)
    x *= INIT_STD
    flat = x.reshape(-1)
    bad = np.flatnonzero(np.abs(flat) > 2 * INIT_STD)
    while bad.size:
        redraw = rng.standard_normal(bad.size) * INIT_STD
        flat[bad] = redraw
        bad = bad[np.abs(redraw) > 2 * INIT_STD]
    return x.astype(np.float32)


_INITS = {
    "trunc_normal": _trunc_normal,
    "zeros": lambda rng, shape: np.zeros(shape, dtype=np.float32),
    "ones": lambda rng, shape: np.ones(shape, dtype=np.float32),
}


def _state_entry(state: dict[str, np.ndarray], name: str, shape: tuple) -> np.ndarray:
    if name not in state:
        raise ContractError(f"missing tensor in state: {name}")
    if tuple(state[name].shape) != tuple(shape):
        raise ShapeError(f"tensor {name}: state shape {state[name].shape} "
                         f"!= model shape {tuple(shape)}")
    return state[name]


class SvtrModel:
    """Parameterized backbone plus classifier; owns all learnable tensors."""

    def __init__(self, config: SvtrConfig, seed: int = DEFAULT_SEED, dtype=np.float32):
        rng = np.random.default_rng(seed)
        # The initializers return fresh f32 arrays; an f32 model takes them as is.
        self._build(config, seed, dtype,
                    lambda spec: _INITS[spec.init](rng, spec.shape).astype(dtype, copy=False))

    @classmethod
    def from_state(cls, config: SvtrConfig, params: dict[str, np.ndarray],
                   buffers: dict[str, np.ndarray], dtype=np.float32) -> "SvtrModel":
        """A model holding the given parameters and BatchNorm buffers, built
        without drawing a random initialization; the dropout stream is the
        one ``SvtrModel(config)`` starts with.  Every array is copied, so the
        model shares no memory with the state it was given and can write
        its buffers even when the state's arrays are read-only."""
        model = cls.__new__(cls)
        model._build(config, DEFAULT_SEED, dtype,
                     lambda spec: _state_entry(params, spec.name, spec.shape).astype(dtype))
        model.buffers = {name: _state_entry(buffers, name, buf.shape).astype(np.float32)
                         for name, buf in model.buffers.items()}
        return model

    def _build(self, config: SvtrConfig, seed: int, dtype, init):
        """``init(spec)`` gives each parameter's array, in ``dtype`` and owned
        by the model."""
        self.config = config
        self.dtype = np.dtype(dtype)
        self.params: dict[str, Tensor] = {
            spec.name: Tensor(init(spec), requires_grad=True)
            for spec in parameter_spec(config)}
        # BatchNorm running statistics under their checkpoint names; training
        # forwards update these f32 arrays in place.
        d0 = config.embed_dims[0]
        self.buffers: dict[str, np.ndarray] = {}
        for name, channels in (("embed.bn1", d0 // 2), ("embed.bn2", d0)):
            self.buffers[name + ".running_mean"] = np.zeros(channels, dtype=np.float32)
            self.buffers[name + ".running_var"] = np.ones(channels, dtype=np.float32)
        self.training = True
        self._masks = [local_attention_mask(h, w, *config.window)
                       for h, w, _ in config.stage_geometry()]
        self._dropout_seed = seed
        self._dropout_calls = 0

    # -- mode and rng -------------------------------------------------------

    def train(self):
        self.training = True
        return self

    def eval(self):
        self.training = False
        return self

    def seed_dropout(self, seed: int):
        """Pin the dropout stream; each dropout site then draws from a
        counter-derived generator so replays are bit-identical."""
        self._dropout_seed = seed
        self._dropout_calls = 0

    def _dropout_rng(self) -> np.random.Generator:
        rng = np.random.default_rng((self._dropout_seed, self._dropout_calls))
        self._dropout_calls += 1
        return rng

    def _drop(self, x: Tensor, rate: float) -> Tensor:
        if rate == 0.0 or not self.training:
            return x
        return T.dropout(x, rate, self._dropout_rng())

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None

    # -- forward pieces -----------------------------------------------------

    def patch_embed(self, images: Tensor) -> Tensor:
        p, buf = self.params, self.buffers
        x = images
        for i in (1, 2):
            x = T.conv2d(x, p[f"embed.conv{i}.weight"], p[f"embed.conv{i}.bias"],
                         stride=(2, 2))
            x = T.batchnorm2d(x, p[f"embed.bn{i}.gamma"], p[f"embed.bn{i}.beta"],
                              buf[f"embed.bn{i}.running_mean"],
                              buf[f"embed.bn{i}.running_var"], self.training)
            x = T.gelu(x)
        b, d0, h, w = x.shape
        x = T.transpose(T.reshape(x, (b, d0, h * w)), (0, 2, 1))
        x = T.add(x, p["embed.pos"])
        return self._drop(x, self.config.dropout_rate)

    def mixing_block(self, x: Tensor, prefix: str, heads: int,
                     mask: np.ndarray | None, attention: dict | None = None) -> Tensor:
        p = self.params
        cfg = self.config
        b, n, d = x.shape
        dh = d // heads

        h = T.layernorm(x, p[prefix + "norm1.gamma"], p[prefix + "norm1.beta"])
        qkv = T.matmul(h, p[prefix + "attn.qkv.weight"], p[prefix + "attn.qkv.bias"])
        # q, k and v are the three column blocks of qkv; head i of each is
        # columns i*dh:(i+1)*dh of its block.
        qkv = T.transpose(T.reshape(qkv, (b, n, 3 * heads, dh)), (0, 2, 1, 3))
        q, k, v = T.split(qkv, 3, axis=1)                         # [b, heads, n, dh] each
        scores = T.mul(T.matmul(q, T.transpose(k, (0, 1, 3, 2))),
                       Tensor(np.asarray(1.0 / np.sqrt(dh), dtype=self.dtype)))
        if mask is not None:
            scores = T.apply_attention_mask(scores, mask)
        attn = T.softmax(scores)
        if attention is not None:
            attention[prefix] = attn.data.copy()
        attn = self._drop(attn, cfg.attn_dropout_rate)
        out = T.matmul(attn, v)                                   # [b, heads, n, dh]
        out = T.reshape(T.transpose(out, (0, 2, 1, 3)), (b, n, d))
        out = T.matmul(out, p[prefix + "attn.proj.weight"], p[prefix + "attn.proj.bias"])
        x = T.add(x, out)

        h = T.layernorm(x, p[prefix + "norm2.gamma"], p[prefix + "norm2.beta"])
        m = T.matmul(h, p[prefix + "mlp.fc1.weight"], p[prefix + "mlp.fc1.bias"])
        m = self._drop(T.gelu(m), cfg.dropout_rate)
        m = T.matmul(m, p[prefix + "mlp.fc2.weight"], p[prefix + "mlp.fc2.bias"])
        m = self._drop(m, cfg.dropout_rate)
        return T.add(x, m)

    def merging(self, x: Tensor, index: int, h: int, w: int) -> Tensor:
        if h % 2 != 0:
            raise GeometryError(f"merging requires even height, got {h}")
        p = self.params
        b = x.shape[0]
        d_in = x.shape[-1]
        prefix = f"merge{index}."
        d_out = p[prefix + "conv.weight"].shape[0]
        x = T.transpose(T.reshape(x, (b, h, w, d_in)), (0, 3, 1, 2))
        x = T.conv2d(x, p[prefix + "conv.weight"], p[prefix + "conv.bias"],
                     stride=(2, 1))
        x = T.reshape(T.transpose(x, (0, 2, 3, 1)), (b, (h // 2) * w, d_out))
        return T.layernorm(x, p[prefix + "norm.gamma"], p[prefix + "norm.beta"])

    def combining(self, x: Tensor, h: int, w: int) -> Tensor:
        p = self.params
        b = x.shape[0]
        d = x.shape[-1]
        if x.shape[1] != h * w:
            raise ShapeError(f"combining sequence length {x.shape[1]} != {h}x{w}")
        # Tokens are row-major over h x w, so as [b, 1, h, w*d] height is axis 2.
        x = T.mean_pool_height(T.reshape(x, (b, 1, h, w * d)))  # [b, 1, 1, w*d]
        x = T.reshape(x, (b, w, d))
        x = T.matmul(x, p["combine.fc.weight"], p["combine.fc.bias"])
        x = T.gelu(x)
        return self._drop(x, self.config.dropout_rate)

    # -- full forward -------------------------------------------------------

    def forward(self, images, attention: dict | None = None) -> Tensor:
        """images, an array [b, 3, H, W] converted to the model's dtype ->
        logits [b, W/4, charset_size].

        Given an ``attention`` dict, each mixing block stores a copy of its
        post-softmax attention, [b, heads, n, n], under its parameter prefix
        (``"stage2.block0."``); the model itself keeps none of it.
        """
        cfg = self.config
        images = np.asarray(images, dtype=self.dtype)
        if images.ndim != 4 or images.shape[1] != 3 or \
                images.shape[2] != cfg.input_h or images.shape[3] != cfg.input_w:
            raise GeometryError(
                f"expected input [b, 3, {cfg.input_h}, {cfg.input_w}], got {images.shape}")
        if not np.isfinite(images).all():
            raise ContractError(f"input batch {images.shape} holds NaN or infinite values")

        x = self.patch_embed(Tensor(images))
        geometry = cfg.stage_geometry()
        for stage in range(3):
            h, w, _ = geometry[stage]
            kinds = cfg.stage_permutation(stage)
            for block, kind in enumerate(kinds):
                mask = self._masks[stage] if kind == LOCAL else None
                x = self.mixing_block(x, f"stage{stage + 1}.block{block}.",
                                      cfg.heads[stage], mask, attention)
            if stage < 2:
                x = self.merging(x, stage + 1, h, w)
        h, w, _ = geometry[2]
        x = self.combining(x, h, w)
        return T.matmul(x, self.params["head.weight"], self.params["head.bias"])

    def eval_logits(self, images, attention: dict | None = None) -> np.ndarray:
        """The one eval-mode forward: ``forward`` with dropout off and
        BatchNorm stats frozen, the previous mode restored afterwards.

        Returns the logits array, so no graph outlives the call.  Logits that
        hold NaN or infinite values (a blown-up model) raise ``ContractError``.
        """
        was_training = self.training
        self.training = False
        try:
            # A blown-up model overflows on its way to non-finite logits; the
            # check below is its one report, not numpy's warnings.
            with np.errstate(all="ignore"):
                logits = self.forward(images, attention).data
        finally:
            self.training = was_training
        if not np.isfinite(logits).all():
            raise ContractError(f"logits {logits.shape} hold NaN or infinite values: "
                                "the model's weights have blown up")
        return logits


def export_attention(model: SvtrModel, image, stage: int, block: int):
    """One block's post-softmax attention and the logits, from one
    ``eval_logits`` forward of a batch of one image [1, 3, H, W].

    Returns ``(maps, logits)``: ``maps[head, query]`` is that query's row
    over the stage grid, [heads, h*w, h, w], and ``logits`` the forward's
    [1, W/4, charset_size] array.
    """
    cfg = model.config
    if not 1 <= stage <= 3:
        raise ContractError(f"stage {stage} out of range 1..3")
    if not 0 <= block < cfg.depths[stage - 1]:
        raise ContractError(f"block {block} out of range for stage {stage}")
    if np.shape(image)[:1] != (1,):
        raise ContractError(f"export_attention takes a batch of one image, "
                            f"got shape {np.shape(image)}")
    h, w, _ = cfg.stage_geometry()[stage - 1]

    attention: dict[str, np.ndarray] = {}
    logits = model.eval_logits(image, attention)
    maps = attention[f"stage{stage}.block{block}."][0]
    return maps.reshape(-1, h * w, h, w), logits
