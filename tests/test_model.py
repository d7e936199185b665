"""Backbone behavior: shape contracts, parameter enumeration oracles,
residual identities, local/global saturation, and attention export."""

import dataclasses
import re

import numpy as np
import pytest

from svtr import tensor as T
from svtr.config import PRESETS, SvtrConfig
from svtr.ctc import Charset
from svtr.data import gen_dataset
from svtr.exceptions import ContractError, GeometryError, ShapeError
from svtr.gradcheck import micro_config
from svtr.model import SvtrModel, export_attention, local_attention_mask, parameter_spec
from svtr.tensor import Tensor


def micro_model(seed=0):
    return SvtrModel(micro_config(), seed=seed).eval()


def test_forward_shape_contract():
    config = PRESETS["svtr-t"]
    model = SvtrModel(config, seed=0).eval()
    logits = model.forward(np.zeros((1, 3, 32, 128), dtype=np.float32))
    assert logits.shape == (1, 32, 37)


def test_stage_token_counts():
    geo = PRESETS["svtr-t"].stage_geometry()
    assert [h * w for h, w, _ in geo] == [256, 128, 64]
    assert [d for _, _, d in geo] == [64, 128, 256]


def test_wrong_input_geometry_rejected():
    model = micro_model()
    with pytest.raises(GeometryError):
        model.forward(np.zeros((1, 3, 32, 128), dtype=np.float32))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_input_rejected(bad):
    model = micro_model()
    cfg = model.config
    images = np.zeros((2, 3, cfg.input_h, cfg.input_w), dtype=np.float32)
    images[1, 2, 3, 4] = bad
    with pytest.raises(ContractError, match=re.escape(str(images.shape))):
        model.forward(images)


def test_construction_is_deterministic():
    a = SvtrModel(micro_config(), seed=3)
    b = SvtrModel(micro_config(), seed=3)
    for name in a.params:
        np.testing.assert_array_equal(a.params[name].data, b.params[name].data)
    c = SvtrModel(micro_config(), seed=4)
    assert any(not np.array_equal(a.params[n].data, c.params[n].data) for n in a.params)


def test_f64_initial_values_are_the_f32_ones_widened():
    narrow = SvtrModel(PRESETS["svtr-micro"], seed=3)
    wide = SvtrModel(PRESETS["svtr-micro"], seed=3, dtype=np.float64)
    for name, p in narrow.params.items():
        assert p.dtype == np.float32 and wide.params[name].dtype == np.float64
        np.testing.assert_array_equal(wide.params[name].data, p.data.astype(np.float64))


def _train_graph_rules(config, batch):
    """The backward rules of one seeded train forward, and the element count
    of each stage's attention scores [b, heads, n, n]."""
    model = SvtrModel(config, seed=0).train()
    images = np.random.default_rng(0).uniform(size=(batch, 3, config.input_h, config.input_w))
    logits = model.forward(images)
    assert logits.requires_grad
    rules = [node._backward_fn for node in T._reachable(logits._node)
             if node._backward_fn is not None]
    scores = [batch * heads * (h * w) ** 2
              for heads, (h, w, _) in zip(config.heads, config.stage_geometry())]
    return rules, scores


def _kept_arrays(rule):
    return [c.cell_contents for c in rule.__closure__ or ()
            if isinstance(c.cell_contents, np.ndarray)]


def test_train_forward_keeps_no_scaled_attention_scores():
    config = PRESETS["svtr-micro"]
    rules, _ = _train_graph_rules(config, 2)
    muls = [r for r in rules if r.__qualname__ == "mul.<locals>.bwd"]
    # One scale per mixing block, whose rule keeps only the 0-d constant.
    assert len(muls) == sum(config.depths)
    assert all(a.ndim == 0 for r in muls for a in _kept_arrays(r))


@pytest.mark.parametrize("name", ["svtr-micro", "svtr-t"])
def test_train_forward_keeps_no_f64_array_the_size_of_attention_scores(name):
    rules, scores = _train_graph_rules(PRESETS[name], 2)
    kept = [(r.__qualname__, a.shape) for r in rules for a in _kept_arrays(r)
            if a.dtype == np.float64 and a.size >= min(scores)]
    assert kept == []


def test_eval_forward_deterministic():
    model = micro_model()
    x = np.random.default_rng(0).uniform(size=(2, 3, 16, 32)).astype(np.float32)
    np.testing.assert_array_equal(model.forward(x).data, model.forward(x).data)


def _eval_logits_in_batches(model, images, batch):
    return np.concatenate([model.forward(images[i:i + batch]).data
                           for i in range(0, len(images), batch)])


@pytest.mark.parametrize("name, n, seed, len_range, batches", [
    ("svtr-micro", 64, 123, (1, 5), (16, 1)),  # c08's corpus and model
    ("svtr-t", 8, 7, (1, 16), (1,)),
])
def test_eval_logits_do_not_depend_on_the_batch_size(name, n, seed, len_range, batches):
    config = PRESETS[name]
    dataset = gen_dataset(n, Charset(), len_range, config.input_h, config.input_w, seed=seed)
    images = np.stack([s.image for s in dataset])
    model = SvtrModel(config, seed=42).eval()
    whole = model.forward(images).data
    for batch in batches:
        assert _eval_logits_in_batches(model, images, batch).tobytes() == whole.tobytes(), batch


def test_embed_stack_param_count_oracle():
    # walk the enumerated parameters independently for the first embed dim 64
    config = PRESETS["svtr-t"]
    embed = [s for s in parameter_spec(config) if s.name.startswith("embed.")]
    total = sum(int(np.prod(s.shape)) for s in embed if s.name != "embed.pos")
    conv1 = 3 * 32 * 9 + 32
    bn1 = 2 * 32
    conv2 = 32 * 64 * 9 + 64
    bn2 = 2 * 64
    assert conv1 + conv2 == 19392
    assert total == conv1 + bn1 + conv2 + bn2 == 19584
    pos = next(s for s in embed if s.name == "embed.pos")
    assert pos.shape == (8 * 32, 64)


def test_merge_param_count_oracle():
    config = PRESETS["svtr-t"]
    merge = [s for s in parameter_spec(config) if s.name.startswith("merge1.")]
    total = sum(int(np.prod(s.shape)) for s in merge)
    assert total == 64 * 128 * 9 + 128 + 2 * 128


def test_spec_matches_constructed_model():
    config = micro_config()
    model = SvtrModel(config)
    specs = parameter_spec(config)
    assert [s.name for s in specs] == list(model.params)
    for s in specs:
        assert model.params[s.name].shape == s.shape


def _zero_block(model, prefix):
    # attention and MLP weights to zero, layernorm affine to identity
    for name, p in model.params.items():
        if not name.startswith(prefix):
            continue
        if name.endswith(".gamma"):
            p.data = np.ones_like(p.data)
        else:
            p.data = np.zeros_like(p.data)


def test_zeroed_block_is_residual_identity():
    model = micro_model()
    _zero_block(model, "stage1.block0.")
    x = Tensor(np.random.default_rng(1).normal(size=(2, 12, 8)).astype(np.float32))
    out = model.mixing_block(x, "stage1.block0.", heads=1, mask=None)
    np.testing.assert_array_equal(out.data, x.data)


def test_block_output_shape_matches_input():
    model = micro_model()
    for shape in [(1, 12, 8), (3, 12, 8)]:
        x = Tensor(np.random.default_rng(2).normal(size=shape).astype(np.float32))
        assert model.mixing_block(x, "stage1.block0.", heads=1, mask=None).shape == shape


def test_full_true_mask_matches_global_bitwise():
    model = micro_model()
    x = Tensor(np.random.default_rng(3).normal(size=(2, 12, 8)).astype(np.float32))
    full = np.ones((12, 12), dtype=bool)
    local = model.mixing_block(x, "stage1.block0.", heads=1, mask=full)
    glob = model.mixing_block(x, "stage1.block0.", heads=1, mask=None)
    np.testing.assert_array_equal(local.data, glob.data)


def test_local_mask_of_the_wrong_shape_is_a_shape_error():
    model = micro_model()
    x = Tensor(np.random.default_rng(3).normal(size=(2, 12, 8)).astype(np.float32))
    with pytest.raises(ShapeError, match="mask shape"):
        model.mixing_block(x, "stage1.block0.", heads=1, mask=np.ones((6, 6), dtype=bool))


def test_eval_forward_with_dropout_on_never_calls_dropout(monkeypatch):
    config = dataclasses.replace(micro_config(), dropout_rate=0.1, attn_dropout_rate=0.1)
    model = SvtrModel(config, seed=0)
    calls = []
    dropout = T.dropout

    def counting_dropout(*args):
        calls.append(args[1])
        return dropout(*args)

    monkeypatch.setattr(T, "dropout", counting_dropout)
    images = np.random.default_rng(12).uniform(size=(2, 3, config.input_h, config.input_w))
    model.eval().forward(images)
    assert calls == []
    model.train().forward(images)
    # embed, then attention, MLP hidden and MLP output per block, then combine.
    assert len(calls) == 2 + 3 * sum(config.depths)


def test_zeroed_merge_outputs_zero():
    model = micro_model()
    _zero_block(model, "merge1.")
    x = Tensor(np.random.default_rng(4).normal(size=(1, 4 * 16, 8)).astype(np.float32))
    out = model.merging(x, 1, 4, 16)
    np.testing.assert_array_equal(out.data, np.zeros_like(out.data))
    assert out.shape == (1, 2 * 16, 16)


def test_merging_requires_even_height():
    model = micro_model()
    x = Tensor(np.zeros((1, 3 * 16, 8), dtype=np.float32))
    with pytest.raises(GeometryError):
        model.merging(x, 1, 3, 16)


def test_combining_a_sequence_that_is_not_the_grid_is_a_shape_error():
    model = micro_model()
    x = Tensor(np.zeros((1, 2 * 16 + 1, 24), dtype=np.float32))
    with pytest.raises(ShapeError) as exc:
        model.combining(x, 2, 16)
    assert type(exc.value) is ShapeError
    assert "combining sequence length 33 != 2x16" in str(exc.value)


def test_combining_height_one_is_projection():
    import svtr.tensor as T
    model = micro_model()
    x = Tensor(np.random.default_rng(5).normal(size=(1, 16, 24)).astype(np.float32))
    out = model.combining(x, 1, 16)
    direct = T.gelu(T.matmul(x, model.params["combine.fc.weight"],
                             model.params["combine.fc.bias"]))
    np.testing.assert_array_equal(out.data, direct.data)


def test_combining_constant_columns_pool_to_constant():
    model = micro_model()
    col = np.random.default_rng(6).normal(size=(1, 1, 16, 24)).astype(np.float32)
    x4 = np.broadcast_to(col, (1, 4, 16, 24)).reshape(1, 64, 24)
    out4 = model.combining(Tensor(np.ascontiguousarray(x4)), 4, 16)
    out1 = model.combining(Tensor(col.reshape(1, 16, 24)), 1, 16)
    np.testing.assert_allclose(out4.data, out1.data, atol=1e-6)


def test_zero_image_zero_convs_yields_positional_embedding():
    model = micro_model()
    for name in ["embed.conv1.weight", "embed.conv1.bias",
                 "embed.conv2.weight", "embed.conv2.bias",
                 "embed.bn1.beta", "embed.bn2.beta"]:
        model.params[name].data = np.zeros_like(model.params[name].data)
    images = Tensor(np.zeros((1, 3, 16, 32), dtype=np.float32))
    out = model.patch_embed(images)
    np.testing.assert_array_equal(out.data[0], model.params["embed.pos"].data)


def test_permutation_order_does_not_change_shape():
    base = PRESETS["svtr-t"]
    for perm in ["L" * 6 + "G" * 6, "G" * 6 + "L" * 6, "LG" * 6, "L" * 12, "G" * 12]:
        config = SvtrConfig(permutation=tuple(perm))
        model = SvtrModel(config, seed=0).eval()
        out = model.forward(np.zeros((1, 3, 32, 128), dtype=np.float32))
        assert out.shape == (1, 32, base.charset_size)


def test_exported_attention_is_a_distribution():
    model = micro_model()
    image = np.random.default_rng(7).uniform(size=(1, 3, 16, 32)).astype(np.float32)
    maps, logits = export_attention(model, image, stage=2, block=0)
    assert maps.shape == (2, 16, 2, 8)
    assert logits.shape == (1, 8, model.config.charset_size)
    np.testing.assert_allclose(maps.sum(axis=(2, 3)), 1.0, atol=1e-5)


def test_exported_logits_are_the_eval_forward_logits():
    model = micro_model().train()
    image = np.random.default_rng(7).uniform(size=(1, 3, 16, 32)).astype(np.float32)
    _, logits = export_attention(model, image, stage=1, block=0)
    assert model.training
    np.testing.assert_array_equal(logits, model.eval().forward(image).data)


def test_eval_logits_are_the_eval_forward_logits():
    model = micro_model().train()
    images = np.random.default_rng(7).uniform(size=(3, 3, 16, 32)).astype(np.float32)
    logits = model.eval_logits(images)
    assert model.training
    assert isinstance(logits, np.ndarray)
    np.testing.assert_array_equal(logits, model.eval().forward(images).data)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("where", ["image", "weights"])
def test_eval_logits_restore_the_mode_when_they_raise(where):
    # A NaN image is refused by the forward itself; an infinite weight by
    # the check on the logits, with numpy's warnings silenced on the way.
    model = micro_model().train()
    images = np.zeros((1, 3, 16, 32), dtype=np.float32)
    if where == "image":
        images[0, 0, 0, 0] = np.nan
    else:
        model.params["embed.conv1.weight"].data[0] = np.inf
    with pytest.raises(ContractError, match="NaN or infinite values"):
        model.eval_logits(images)
    assert model.training


@pytest.mark.parametrize("batch", [0, 2])
def test_export_attention_takes_a_batch_of_one_image(batch):
    model = micro_model()
    images = np.random.default_rng(7).uniform(size=(batch, 3, 16, 32)).astype(np.float32)
    with pytest.raises(ContractError, match="one image"):
        export_attention(model, images, stage=2, block=0)


def test_a_read_leaves_no_state_on_the_model():
    model = micro_model()
    image = np.random.default_rng(7).uniform(size=(1, 3, 16, 32)).astype(np.float32)
    keys = set(vars(model))
    buffers = dict(model.buffers)

    def assert_state_unchanged():
        assert set(vars(model)) == keys
        assert list(model.buffers) == list(buffers)
        assert all(model.buffers[name] is buf for name, buf in buffers.items())

    export_attention(model, image, stage=2, block=0)
    assert_state_unchanged()
    attention = {}
    model.train().forward(image, attention)
    assert_state_unchanged()
    assert list(attention) == ["stage1.block0.", "stage2.block0.", "stage3.block0."]
    assert [a.shape for a in attention.values()] == [(1, 1, 32, 32), (1, 2, 16, 16),
                                                    (1, 2, 8, 8)]


def test_exported_local_attention_zero_outside_window():
    config = micro_config()
    model = SvtrModel(config, seed=0).eval()
    h, w, _ = config.stage_geometry()[0]
    query = 0
    maps, _ = export_attention(model, np.random.default_rng(8)
                               .uniform(size=(1, 3, 16, 32)).astype(np.float32),
                               stage=1, block=0)
    grid = maps[0, query]
    mask = local_attention_mask(h, w, *config.window)[query].reshape(h, w)
    assert (grid[~mask] == 0).all()
    assert (grid[mask] > 0).all()


def test_zero_qk_weights_give_uniform_attention():
    config = micro_config()
    model = SvtrModel(config, seed=0).eval()
    d = config.embed_dims[1]
    qkv = model.params["stage2.block0.attn.qkv.weight"]
    data = qkv.data.copy()
    data[:, :2 * d] = 0.0  # zero the query and key projections
    qkv.data = data
    model.params["stage2.block0.attn.qkv.bias"].data = \
        np.zeros_like(model.params["stage2.block0.attn.qkv.bias"].data)
    image = np.random.default_rng(9).uniform(size=(1, 3, 16, 32)).astype(np.float32)
    maps, _ = export_attention(model, image, stage=2, block=0)
    grid = maps[0, 3]
    np.testing.assert_allclose(grid, 1.0 / grid.size, atol=1e-6)


def test_exported_attention_matches_numpy_heads_of_qkv_column_blocks():
    # q, k and v are the three column blocks of attn.qkv.weight and head i is
    # columns i*dh:(i+1)*dh of each block.  Weights far larger than the init
    # make the heads' attention rows differ, so a split that mixes heads fails.
    model = micro_model()
    config = model.config
    prefix = "stage2.block0."
    assert config.stage_permutation(1) == ("G",)
    rng = np.random.default_rng(10)
    for name in ("norm1.gamma", "norm1.beta", "attn.qkv.weight", "attn.qkv.bias"):
        p = model.params[prefix + name]
        p.data = rng.normal(0.0, 0.5, p.shape).astype(np.float32)
    seen = {}
    block = model.mixing_block

    def record_input(x, block_prefix, *args, **kwargs):
        if block_prefix == prefix:
            seen["x"] = x.data[0].astype(np.float64)
        return block(x, block_prefix, *args, **kwargs)

    model.mixing_block = record_input
    image = np.random.default_rng(11).uniform(size=(1, 3, 16, 32)).astype(np.float32)
    model.forward(image)

    p = {name: model.params[prefix + name].data.astype(np.float64)
         for name in ("norm1.gamma", "norm1.beta", "attn.qkv.weight", "attn.qkv.bias")}
    x = seen["x"]                                                  # [n, d]
    xhat = (x - x.mean(-1, keepdims=True)) / np.sqrt(x.var(-1, keepdims=True) + 1e-5)
    qkv = (xhat * p["norm1.gamma"] + p["norm1.beta"]) @ p["attn.qkv.weight"] \
        + p["attn.qkv.bias"]
    h, w, d = config.stage_geometry()[1]
    heads = config.heads[1]
    dh = d // heads
    assert heads == 2
    maps, _ = export_attention(model, image, stage=2, block=0)
    for head in range(heads):
        q = qkv[:, head * dh:(head + 1) * dh]
        k = qkv[:, d + head * dh:d + (head + 1) * dh]
        scores = q @ k.T / np.sqrt(dh)
        attn = np.exp(scores - scores.max(-1, keepdims=True))
        attn /= attn.sum(-1, keepdims=True)
        for query in range(h * w):
            np.testing.assert_allclose(maps[head, query], attn[query].reshape(h, w),
                                       rtol=0, atol=1e-5)


def test_out_of_range_export_indices():
    model = micro_model()
    image = np.zeros((1, 3, 16, 32), dtype=np.float32)
    for kwargs in [dict(stage=4, block=0), dict(stage=1, block=1)]:
        with pytest.raises(ContractError):
            export_attention(model, image, **kwargs)
