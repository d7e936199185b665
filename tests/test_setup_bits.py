"""The set-up path gives the bits of the plain code it replaced.

``_trunc_normal`` redraws only the values still out of bounds,
``render_text`` draws all its jitters in one call and keeps its scaled glyph
masks in a cache, and ``read_pnm`` decodes 8-bit levels with one table
lookup.  Each test here compares the output bit for bit, and where a
generator is involved its state afterwards, with a test-local copy of the
code before the change: a whole-array redraw loop, one ``np.kron`` and two
scalar draws per glyph, and a float32 division of every byte.
"""

import numpy as np
import pytest

from svtr import data, font
from svtr.config import PRESETS
from svtr.ctc import DEFAULT_SYMBOLS
from svtr.model import INIT_STD, _trunc_normal, parameter_spec

BG, INK = 0.9, 0.1      # noise-free background and ink levels of render_text


def _assert_same_bits(actual, expected):
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    uint = {4: np.uint32, 8: np.uint64}[actual.dtype.itemsize]
    np.testing.assert_array_equal(actual.view(uint), expected.view(uint))


def _assert_same_stream(a: np.random.Generator, b: np.random.Generator):
    assert a.bit_generator.state == b.bit_generator.state
    assert a.standard_normal() == b.standard_normal()


# -- _trunc_normal ------------------------------------------------------------

def _trunc_normal_reference(rng, shape):
    """The redraw loop that rescans the whole array each round; also returns
    the number of redraw rounds."""
    x = rng.standard_normal(shape) * INIT_STD
    bad = np.abs(x) > 2 * INIT_STD
    rounds = 0
    while bad.any():
        x[bad] = rng.standard_normal(int(bad.sum())) * INIT_STD
        bad = np.abs(x) > 2 * INIT_STD
        rounds += 1
    return x.astype(np.float32), rounds


@pytest.mark.parametrize("seed", [0, 42, 123])
def test_trunc_normal_matches_the_rescanning_loop_on_every_micro_shape(seed):
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    shapes = [s.shape for s in parameter_spec(PRESETS["svtr-micro"]) if s.init == "trunc_normal"]
    assert any(len(shape) > 1 for shape in shapes)
    for shape in shapes:
        _assert_same_bits(_trunc_normal(rng, shape), _trunc_normal_reference(ref_rng, shape)[0])
    _assert_same_stream(rng, ref_rng)


@pytest.mark.parametrize("seed", [1, 7])
def test_trunc_normal_matches_the_rescanning_loop_over_several_rounds(seed):
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    x = _trunc_normal(rng, (200_000,))
    expected, rounds = _trunc_normal_reference(ref_rng, (200_000,))
    assert rounds >= 3
    _assert_same_bits(x, expected)
    _assert_same_stream(rng, ref_rng)
    assert np.abs(x).max() <= np.float32(2 * INIT_STD)


# -- render_text --------------------------------------------------------------

def _render_reference(text, h, w, noise_sigma, seed):
    rng = np.random.default_rng(seed)
    canvas = np.full((h, w), BG, dtype=np.float64)
    if text:
        scale = data.GLYPH_SCALE
        while scale > 1 and (data._row_width(len(text), scale) > w
                             or font.GLYPH_H * scale > h):
            scale -= 1
        x = max(0, (w - data._row_width(len(text), scale)) // 2)
        y_base = (h - font.GLYPH_H * scale) // 2
        for ch in text:
            mask = np.kron(font.glyph(ch), np.ones((scale, scale), dtype=bool))
            jx = int(rng.integers(-data.JITTER, data.JITTER + 1))
            jy = int(rng.integers(-data.JITTER, data.JITTER + 1))
            gx = int(np.clip(x + jx, 0, w - mask.shape[1]))
            gy = int(np.clip(y_base + jy, 0, h - mask.shape[0]))
            region = canvas[gy:gy + mask.shape[0], gx:gx + mask.shape[1]]
            region[mask] = INK
            x += data._advance(scale)
    if noise_sigma > 0:
        canvas = canvas + rng.normal(0.0, noise_sigma, size=canvas.shape)
    canvas = np.clip(canvas, 0.0, 1.0).astype(np.float32)
    return np.repeat(canvas[None, :, :], 3, axis=0)


def _ink_rows(image):
    return int((image[0] < 0.5).any(axis=1).sum())


def _chunks(text, n):
    return [text[i:i + n] for i in range(0, len(text), n)]


# At 32x128 ten glyphs or fewer fit at scale 2; 11 to 21 only at scale 1.
_SCALE2 = _chunks(DEFAULT_SYMBOLS, 9) + ["AbC", "z"]
_SCALE1 = _chunks(DEFAULT_SYMBOLS, 18) + ["0a" * 10 + "Z"]


@pytest.mark.parametrize("noise_sigma", [0.0, data.NOISE_SIGMA, 0.3])
@pytest.mark.parametrize("scale,texts", [(2, _SCALE2), (1, _SCALE1)])
def test_render_text_matches_the_per_glyph_code_over_every_symbol(scale, texts, noise_sigma):
    for i, text in enumerate(texts):
        for seed in (i, 1000 + i):
            image = data.render_text(text, 32, 128, noise_sigma, seed=seed)
            _assert_same_bits(image, _render_reference(text, 32, 128, noise_sigma, seed))
            if noise_sigma == 0.0:    # the glyphs are 7 * scale rows high, +-1 of jitter
                assert 7 * scale <= _ink_rows(image) <= 7 * scale + 2


def _edge_seed(n):
    """A seed whose first glyph jitters left and up and last glyph right
    and down."""
    for seed in range(1000):
        jitter = np.random.default_rng(seed).integers(-1, 2, size=(n, 2))
        if tuple(jitter[0]) == (-1, -1) and tuple(jitter[-1]) == (1, 1):
            return seed
    raise AssertionError("no seed jitters to all four edges")


@pytest.mark.parametrize("noise_sigma", [0.0, data.NOISE_SIGMA])
@pytest.mark.parametrize("slack", [0, 1])
@pytest.mark.parametrize("scale", [2, 1])
def test_render_text_clips_glyphs_at_the_image_edges_as_before(scale, slack, noise_sigma):
    """The row starts at the top-left corner, so the jitter pushes the first
    glyph past the left and top edges.  With no slack the row fills the
    image and the last glyph is pushed past the right and bottom edges too;
    with one pixel of slack the lower clip bounds are not hidden by the
    upper ones."""
    text = "m0w8kq1x"
    h = font.GLYPH_H * scale + slack
    w = data._row_width(len(text), scale) + slack
    seed = _edge_seed(len(text))
    image = data.render_text(text, h, w, noise_sigma, seed=seed)
    _assert_same_bits(image, _render_reference(text, h, w, noise_sigma, seed))


# -- read_pnm and load_image --------------------------------------------------

def _decode_reference(path, h, w, channels):
    """The payload after a ``write_pnm`` header, each byte divided by 255.0 in
    float32."""
    raw = path.read_bytes()
    header = len(raw) - h * w * channels
    img = np.frombuffer(raw[header:], dtype=np.uint8).astype(np.float32) / 255.0
    img = img.reshape(h, w) if channels == 1 else img.reshape(h, w, 3).transpose(2, 0, 1)
    return img


def _load_reference(path, h, w, channels, out_h, out_w):
    """``load_image``'s gray repeat, nearest-neighbour resize at every size
    and trailing ``astype``."""
    image = _decode_reference(path, h, w, channels)
    if image.ndim == 2:
        image = np.repeat(image[None], 3, axis=0)
    ri = np.arange(out_h) * h // out_h
    ci = np.arange(out_w) * w // out_w
    return image[..., ri[:, None], ci[None, :]].astype(np.float32)


def _every_level(shape, seed):
    """uint8 pixels holding each of the 256 levels, the rest at random."""
    size = int(np.prod(shape))
    levels = np.random.default_rng(seed).integers(0, 256, size=size).astype(np.uint8)
    levels[:256] = np.arange(256)
    return levels.reshape(shape)


@pytest.mark.parametrize("channels", [1, 3])
def test_read_pnm_gives_the_float32_division_of_every_level(tmp_path, channels):
    h, w = 16, 64
    pixels = _every_level((h, w) if channels == 1 else (3, h, w), seed=channels)
    path = tmp_path / ("x.pgm" if channels == 1 else "x.ppm")
    data.write_pnm(path, pixels)
    _assert_same_bits(data.read_pnm(path), _decode_reference(path, h, w, channels))


@pytest.mark.parametrize("out_hw", [(16, 64), (32, 128), (9, 50)])
@pytest.mark.parametrize("channels", [1, 3])
def test_load_image_matches_the_decode_resize_and_cast(tmp_path, channels, out_hw):
    h, w = 16, 64
    pixels = _every_level((h, w) if channels == 1 else (3, h, w), seed=10 + channels)
    path = tmp_path / ("x.pgm" if channels == 1 else "x.ppm")
    data.write_pnm(path, pixels)
    image = data.load_image(path, *out_hw)
    _assert_same_bits(image, _load_reference(path, h, w, channels, *out_hw))
    assert image.flags.writeable
