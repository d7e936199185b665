"""Deterministic synthetic text-image generation and dataset I/O.

Rendered corpora and external data share one on-disk layout: a directory
with ``labels.tsv`` (``image-path<TAB>text`` per line, paths relative to the
directory) and 8-bit binary PGM/PPM images.

A corpus's bits depend on which random draws are made and in what order.
``gen_dataset`` draws, per sample from its seeded generator: the label
length, then all its symbol indices in one call, then the render seed.
``render_text`` draws from a generator seeded with that render seed: two
integers per glyph, the x jitter then the y jitter, glyph by glyph, and
then, with noise on, one normal per pixel of the [h, w] canvas.  All the
jitters come from one call; each bounded integer takes its own 32-bit
output of the bit generator, so that call draws what one scalar call per
jitter would.

The scaled glyph masks are built once per process, on first use, and kept:
at most 36 symbols x 2 glyph scales for text over the default charset.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass

import numpy as np

from . import font
from .ctc import Charset, LabelSeq
from .exceptions import ContractError, DatasetError, RenderError

GLYPH_SCALE = 2     # preferred integer glyph scale; shrunk to fit
CONTRAST = 0.8      # ink/background separation in [0, 1]
JITTER = 1          # each glyph moves by up to this many pixels along each axis
NOISE_SIGMA = 0.02  # standard deviation of the additive Gaussian pixel noise


@dataclass(frozen=True)
class LabeledSample:
    image: np.ndarray       # [3, H, W] float32 in [0, 1]
    label: LabelSeq
    id: str


def _advance(scale: int) -> int:
    return (font.GLYPH_W + 1) * scale


def _row_width(n_glyphs: int, scale: int) -> int:
    return n_glyphs * _advance(scale) - scale


@functools.lru_cache(maxsize=None)
def _glyph_mask(ch: str, scale: int) -> np.ndarray:
    """``font.glyph(ch)`` with each pixel a ``scale`` x ``scale`` block;
    read-only, since every call with the same arguments returns it."""
    mask = np.kron(font.glyph(ch), np.ones((scale, scale), dtype=bool))
    mask.flags.writeable = False
    return mask


def render_text(text: str, h: int, w: int, noise_sigma: float = NOISE_SIGMA,
                seed: int = 0) -> np.ndarray:
    """Render dark glyphs on a light background, plus Gaussian noise of
    standard deviation ``noise_sigma`` (finite and >= 0, else
    ``ContractError``); pure in (text, noise_sigma, seed)."""
    if not 0.0 <= noise_sigma < np.inf:
        raise ContractError(f"noise_sigma must be finite and >= 0, got {noise_sigma}")
    rng = np.random.default_rng(seed)
    bg = 0.5 + CONTRAST / 2
    ink = 0.5 - CONTRAST / 2
    canvas = np.full((h, w), bg, dtype=np.float64)

    if text:
        scale = GLYPH_SCALE
        while scale > 1 and (_row_width(len(text), scale) > w or font.GLYPH_H * scale > h):
            scale -= 1
        if _row_width(len(text), scale) > w or font.GLYPH_H * scale > h:
            raise RenderError(
                f"text of length {len(text)} does not fit a {h}x{w} image at minimum scale")
        x = max(0, (w - _row_width(len(text), scale)) // 2)
        y_base = (h - font.GLYPH_H * scale) // 2
        jitters = rng.integers(-JITTER, JITTER + 1, size=(len(text), 2)).tolist()
        for ch, (jx, jy) in zip(text, jitters):
            mask = _glyph_mask(ch, scale)
            mh, mw = mask.shape
            gx = min(max(x + jx, 0), w - mw)
            gy = min(max(y_base + jy, 0), h - mh)
            canvas[gy:gy + mh, gx:gx + mw][mask] = ink
            x += _advance(scale)

    if noise_sigma > 0:
        canvas += rng.normal(0.0, noise_sigma, size=canvas.shape)
    np.clip(canvas, 0.0, 1.0, out=canvas)
    return np.repeat(canvas.astype(np.float32)[None, :, :], 3, axis=0)


def gen_dataset(n: int, charset: Charset, len_range: tuple[int, int],
                h: int, w: int, seed: int = 42,
                noise_sigma: float = NOISE_SIGMA) -> list[LabeledSample]:
    """n reproducible samples with uniform label lengths and symbols."""
    lo, hi = len_range
    if lo < 1 or hi < lo:
        raise DatasetError(f"invalid length range {len_range}")
    fit = (w + 1) // _advance(1) if font.GLYPH_H <= h else 0    # at glyph scale 1
    if hi > fit:
        raise RenderError(f"length {hi} does not fit {h}x{w}; the longest that fits is {fit}")
    rng = np.random.default_rng(seed)
    samples = []
    for i in range(n):
        length = int(rng.integers(lo, hi + 1))
        indices = tuple(int(v) for v in rng.integers(1, charset.size, size=length))
        label = LabelSeq(indices)
        render_seed = int(rng.integers(0, 2**31))
        image = render_text(charset.decode(label), h, w, noise_sigma, seed=render_seed)
        samples.append(LabeledSample(image, label, f"synth-{i:05d}"))
    return samples


# -- PGM/PPM ----------------------------------------------------------------

def write_pnm(path, image: np.ndarray):
    """Write a [h, w] array as binary PGM or a [3, h, w] array as binary PPM.

    Float inputs are taken as [0, 1] and quantized to 8 bits.
    """
    arr = np.asarray(image)
    if arr.dtype != np.uint8:
        arr = np.clip(np.round(arr * 255.0), 0, 255).astype(np.uint8)
    if arr.ndim == 2:
        magic, payload = b"P5", arr.tobytes()
        h, w = arr.shape
    elif arr.ndim == 3 and arr.shape[0] == 3:
        magic, payload = b"P6", arr.transpose(1, 2, 0).tobytes()
        h, w = arr.shape[1:]
    else:
        raise DatasetError(f"cannot encode image of shape {arr.shape} as PGM/PPM")
    with open(path, "wb") as fh:
        fh.write(magic + b"\n" + f"{w} {h}\n255\n".encode())
        fh.write(payload)


# The float32 value of each 8-bit level: the division ``level / 255.0`` in f32.
_LEVELS = np.arange(256).astype(np.float32) / 255.0


def read_pnm(path) -> np.ndarray:
    """Read binary 8-bit PGM ([h, w]) or PPM ([3, h, w]) as float32 in [0, 1]."""
    with open(path, "rb") as fh:
        data = fh.read()
    fields = []
    pos = 0
    while len(fields) < 4:
        while pos < len(data) and data[pos:pos + 1].isspace():
            pos += 1
        if pos == len(data):
            raise DatasetError(f"{path}: truncated PNM header")
        if data[pos:pos + 1] == b"#":
            pos = data.find(b"\n", pos) + 1
            if pos == 0:
                raise DatasetError(f"{path}: unterminated comment in PNM header")
            continue
        start = pos
        while pos < len(data) and not data[pos:pos + 1].isspace():
            pos += 1
        fields.append(data[start:pos])
    magic = fields[0]
    if magic not in (b"P5", b"P6"):
        raise DatasetError(f"{path}: unsupported PNM magic {magic!r}")
    if not all(f.isdigit() for f in fields[1:]):
        raise DatasetError(f"{path}: PNM width, height and maxval must be decimal integers, "
                           f"got {b' '.join(fields[1:])!r}")
    w, h, maxval = (int(f) for f in fields[1:])
    if w < 1 or h < 1:
        raise DatasetError(f"{path}: empty {w}x{h} image")
    if maxval != 255:
        raise DatasetError(f"{path}: only 8-bit images supported, maxval={maxval}")
    pos += 1  # single whitespace after maxval
    channels = 3 if magic == b"P6" else 1
    expected = w * h * channels
    payload = data[pos:pos + expected]
    if len(payload) != expected:
        raise DatasetError(f"{path}: truncated payload")
    levels = np.frombuffer(payload, dtype=np.uint8)
    if channels == 1:
        return _LEVELS[levels.reshape(h, w)]
    return _LEVELS[levels.reshape(h, w, 3).transpose(2, 0, 1)]


def _resize_nearest(image: np.ndarray, h: int, w: int) -> np.ndarray:
    ih, iw = image.shape[-2:]
    ri = (np.arange(h) * ih // h)
    ci = (np.arange(w) * iw // w)
    return image[..., ri[:, None], ci[None, :]]


def load_image(path, h: int, w: int) -> np.ndarray:
    """Read a PGM/PPM file as a [3, h, w] float32 image: gray is repeated
    over three channels, then nearest-neighbour resized to h x w."""
    image = read_pnm(path)
    if image.ndim == 2:
        image = np.repeat(image[None], 3, axis=0)
    if image.shape[1:] != (h, w):
        image = _resize_nearest(image, h, w)
    return image


# -- directory layout -------------------------------------------------------

def save_dataset(samples: list[LabeledSample], directory, charset: Charset):
    """Write images/<id>.ppm plus labels.tsv (and the charset for reference)."""
    os.makedirs(os.path.join(directory, "images"), exist_ok=True)
    lines = []
    for sample in samples:
        rel = os.path.join("images", sample.id + ".ppm")
        write_pnm(os.path.join(directory, rel), sample.image)
        lines.append(f"{rel}\t{charset.decode(sample.label)}\n")
    with open(os.path.join(directory, "labels.tsv"), "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    charset.to_file(os.path.join(directory, "charset.txt"))


def load_dataset(directory, h: int, w: int, charset: Charset,
                 max_label_len: int) -> list[LabeledSample]:
    """Load a labels.tsv corpus, resizing images to h x w; a label longer
    than ``max_label_len`` raises ``DatasetError``."""
    labels_path = os.path.join(directory, "labels.tsv")
    if not os.path.isfile(labels_path):
        raise DatasetError(f"missing labels file: {labels_path}")
    try:
        with open(labels_path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise DatasetError(f"{labels_path}: not UTF-8 text ({exc})") from None
    samples = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n")
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise DatasetError(f"{labels_path}:{lineno}: expected 'path<TAB>text'")
        rel, text = parts
        try:
            label = charset.encode(text)
        except DatasetError as exc:
            raise DatasetError(f"{labels_path}:{lineno}: label {exc}") from None
        if len(label) > max_label_len:
            raise DatasetError(
                f"{labels_path}:{lineno}: label of length {len(label)} exceeds "
                f"maximum {max_label_len}")
        img_path = os.path.join(directory, rel)
        if not os.path.isfile(img_path):
            raise DatasetError(f"{labels_path}:{lineno}: missing image {img_path}")
        image = load_image(img_path, h, w)
        sample_id = os.path.splitext(os.path.basename(rel))[0]
        samples.append(LabeledSample(image, label, sample_id))
    return samples
