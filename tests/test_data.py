"""Synthetic rendering, the bundled font, PNM I/O, and dataset layout."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from svtr import font
from svtr.ctc import DEFAULT_SYMBOLS, Charset
from svtr.data import (LabeledSample, gen_dataset, load_dataset, load_image,
                       read_pnm, render_text, save_dataset, write_pnm)
from svtr.exceptions import ContractError, DatasetError, RenderError, SvtrError

QUIET = 0.0     # noise_sigma of a noise-free rendering


def test_font_covers_charset():
    assert set(DEFAULT_SYMBOLS) == set("0123456789abcdefghijklmnopqrstuvwxyz")
    for ch in DEFAULT_SYMBOLS:
        g = font.glyph(ch)
        assert g.shape == (font.GLYPH_H, font.GLYPH_W)
        assert g.any()


def test_font_glyphs_pairwise_distinct():
    glyphs = {ch: font.glyph(ch).tobytes() for ch in DEFAULT_SYMBOLS}
    assert len(set(glyphs.values())) == len(glyphs)


def test_empty_text_renders_background():
    img = render_text("", 16, 64, QUIET, seed=0)
    assert img.shape == (3, 16, 64)
    np.testing.assert_allclose(img, 0.9, atol=1e-6)


def test_render_determinism():
    a = render_text("abc", 16, 64, seed=5)
    b = render_text("abc", 16, 64, seed=5)
    np.testing.assert_array_equal(a, b)
    c = render_text("abc", 16, 64, seed=6)
    assert not np.array_equal(a, c)


def test_ink_count_iii_less_than_mmm():
    iii = render_text("iii", 16, 64, QUIET, seed=0)
    mmm = render_text("mmm", 16, 64, QUIET, seed=0)
    assert (iii < 0.5).sum() < (mmm < 0.5).sum()


def test_overlong_text_raises():
    with pytest.raises(RenderError):
        render_text("a" * 30, 16, 64, QUIET, seed=0)


def test_gen_dataset_empty():
    assert gen_dataset(0, Charset(), (1, 5), 16, 64) == []


def test_gen_dataset_determinism():
    cs = Charset()
    a = gen_dataset(5, cs, (1, 5), 16, 64, seed=11)
    b = gen_dataset(5, cs, (1, 5), 16, 64, seed=11)
    for x, y in zip(a, b):
        assert x.label == y.label and x.id == y.id
        np.testing.assert_array_equal(x.image, y.image)
    c = gen_dataset(5, cs, (1, 5), 16, 64, seed=12)
    assert any(x.label != y.label or not np.array_equal(x.image, y.image)
               for x, y in zip(a, c))


def test_gen_dataset_symbol_coverage():
    cs = Charset()
    samples = gen_dataset(1000, cs, (1, 5), 16, 64, seed=42)
    seen = {i for s in samples for i in s.label.indices}
    assert seen == set(range(1, cs.size))


def test_gen_dataset_length_range():
    samples = gen_dataset(200, Charset(), (2, 4), 16, 64, seed=0)
    lengths = {len(s.label) for s in samples}
    assert lengths == {2, 3, 4}


@pytest.mark.parametrize("seed", range(10))
def test_gen_dataset_refuses_unreachable_length_up_front(seed):
    with pytest.raises(RenderError, match="longest that fits is 21"):
        gen_dataset(1, Charset(), (1, 22), 32, 128, seed=seed)


def test_gen_dataset_renders_the_longest_length_that_fits():
    samples = gen_dataset(3, Charset(), (21, 21), 32, 128, seed=0)
    assert [len(s.label) for s in samples] == [21, 21, 21]


@pytest.mark.parametrize("sigma", [float("nan"), float("inf"), -1.0])
def test_render_style_rejects_bad_noise_sigma(sigma):
    with pytest.raises(ContractError, match="noise_sigma"):
        render_text("abc", 16, 64, noise_sigma=sigma)


def test_pnm_roundtrip_gray(tmp_path):
    img = (np.random.default_rng(0).uniform(size=(7, 9)) * 255).astype(np.uint8)
    path = tmp_path / "img.pgm"
    write_pnm(path, img)
    back = read_pnm(path)
    np.testing.assert_array_equal((back * 255).round().astype(np.uint8), img)


def test_pnm_roundtrip_color(tmp_path):
    img = (np.random.default_rng(1).uniform(size=(3, 5, 6)) * 255).astype(np.uint8)
    path = tmp_path / "img.ppm"
    write_pnm(path, img)
    back = read_pnm(path)
    np.testing.assert_array_equal((back * 255).round().astype(np.uint8), img)


def test_pnm_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P2\n2 2\n255\n0 0 0 0\n")
    with pytest.raises(DatasetError):
        read_pnm(path)


@pytest.mark.parametrize("data", [
    b"", b"P6\n", b"P6\nabc 4\n255\n", b"P6\n4 4\n255", b"P5\n# no newline",
    b"P5\n4 4\n255\n", b"P5\n0 4\n255\n", b"P5\n2 2\n65535\n" + bytes(8)])
def test_pnm_malformed_header_is_a_dataset_error(tmp_path, data):
    path = tmp_path / "bad.pgm"
    path.write_bytes(data)
    with pytest.raises(DatasetError):
        read_pnm(path)


_PNM_TOKENS = st.one_of(
    st.sampled_from([b"P5", b"P6", b"255", b"#", b"# c\n", b"\n"]),
    st.integers(-2, 9).map(lambda v: str(v).encode()),
    st.binary(max_size=6))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.one_of(st.binary(max_size=64),
                      st.lists(_PNM_TOKENS, max_size=10).map(b" ".join)))
def test_pnm_any_bytes_give_an_image_or_a_typed_error(tmp_path, data):
    path = tmp_path / "any.pnm"
    path.write_bytes(data)
    try:
        image = read_pnm(path)
    except SvtrError:
        return
    assert image.dtype == np.float32 and image.ndim in (2, 3)


def test_dataset_roundtrip(tmp_path):
    cs = Charset()
    samples = gen_dataset(4, cs, (1, 3), 16, 64, seed=7)
    save_dataset(samples, tmp_path, cs)
    loaded = load_dataset(tmp_path, 16, 64, cs, max_label_len=5)
    assert len(loaded) == 4
    for orig, back in zip(samples, loaded):
        assert back.label == orig.label
        assert back.id == orig.id
        # same geometry: only 8-bit quantization between the two
        assert np.abs(back.image - orig.image).max() <= 1 / 255 + 1e-6


def test_empty_labels_file(tmp_path):
    (tmp_path / "labels.tsv").write_text("")
    assert load_dataset(tmp_path, 16, 64, Charset(), max_label_len=5) == []


def test_missing_labels_file(tmp_path):
    with pytest.raises(DatasetError):
        load_dataset(tmp_path, 16, 64, Charset(), max_label_len=5)


def test_labels_file_not_utf8_is_a_dataset_error(tmp_path):
    (tmp_path / "labels.tsv").write_bytes(b"x.ppm\tab\xff\n")
    with pytest.raises(DatasetError) as exc:
        load_dataset(tmp_path, 16, 64, Charset(), max_label_len=5)
    assert "labels.tsv" in str(exc.value)


_LABEL_TOKENS = st.one_of(
    st.sampled_from([b"x.ppm", b"missing.ppm", b"labels.tsv", b"\t", b"\n", b"\r\n",
                     b"abc", b"\xc3\xa9", b"\xff"]),
    st.binary(max_size=6))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.one_of(st.binary(max_size=64),
                      st.lists(_LABEL_TOKENS, max_size=10).map(b"".join)))
def test_labels_file_any_bytes_give_samples_or_a_typed_error(tmp_path, data):
    write_pnm(tmp_path / "x.ppm", np.zeros((3, 16, 64)))
    (tmp_path / "labels.tsv").write_bytes(data)
    try:
        samples = load_dataset(tmp_path, 16, 64, Charset(), max_label_len=5)
    except SvtrError:
        return
    assert all(s.image.shape == (3, 16, 64) and len(s.label) <= 5 for s in samples)


def test_out_of_charset_label_names_character(tmp_path):
    write_pnm(tmp_path / "x.ppm", np.zeros((3, 16, 64)))
    (tmp_path / "labels.tsv").write_text("x.ppm\tabc\nx.ppm\théllo!\n")
    with pytest.raises(DatasetError) as exc:
        load_dataset(tmp_path, 16, 64, Charset(), max_label_len=5)
    assert str(exc.value).startswith(f"{tmp_path / 'labels.tsv'}:2: ")
    assert "'é'" in str(exc.value) and "'!'" in str(exc.value)


def test_oversize_label_rejected(tmp_path):
    write_pnm(tmp_path / "x.ppm", np.zeros((3, 16, 64)))
    (tmp_path / "labels.tsv").write_text("x.ppm\tabcdef\n")
    with pytest.raises(DatasetError):
        load_dataset(tmp_path, 16, 64, Charset(), max_label_len=5)


def test_gray_image_loads_as_three_equal_channels(tmp_path):
    gray = (np.random.default_rng(2).uniform(size=(16, 64)) * 255).astype(np.uint8)
    path = tmp_path / "gray.pgm"
    write_pnm(path, gray)
    image = load_image(path, 16, 64)
    assert image.shape == (3, 16, 64) and image.dtype == np.float32
    for channel in image:
        np.testing.assert_array_equal(channel, read_pnm(path))


def test_load_resizes_to_requested_geometry(tmp_path):
    cs = Charset()
    samples = gen_dataset(1, cs, (1, 2), 32, 128, seed=3)
    save_dataset(samples, tmp_path, cs)
    loaded = load_dataset(tmp_path, 16, 64, cs, max_label_len=5)
    assert loaded[0].image.shape == (3, 16, 64)
