"""SHA-256 digests of seeded training runs, to check that a change keeps
training bit-identical.

    python3 scripts/train_digest.py

prints five lines, ``<run> <sha256>``:

- ``c08``: the svtr-micro overfit recipe of acceptance criterion c08
  (corpus seed 123, model and train seed 42, lr 0.03, 300 epochs), over
  every epoch's loss, accuracy and lr, the final parameters and the
  BatchNorm buffers;
- ``t-train``: one svtr-t round of the benchmark's t-train workload at
  seed 7 (2 epochs, batch 8, dropout on, 8 of 64 samples held out), over
  the same values;
- ``gradcheck``: every error of ``run_suite`` and ``check_model`` in f64
  and f32;
- ``t-infer``: the svtr-t eval logits of 8 seed-7 images, at batch 8 and
  each image alone at batch 1, from a model restored from the checkpoint of
  ``SvtrModel(svtr-t, seed=7)``;
- ``data``: the images, labels and ids that ``load_dataset`` reads back
  after ``save_dataset``, for the svtr-micro corpus of seed 123 at 16x64
  and the svtr-t corpus of seed 7 at 32x128, plus the svtr-t corpus loaded
  at 16x64 (a nearest-neighbour resize) and one gray PGM image loaded at
  both sizes.

BLAS is pinned to one thread before numpy loads, because a threaded GEMM
may sum in another order.  The script imports ``svtr`` from the ``src``
directory of the checkout it sits in; to compare two commits, run a copy of
it in each checkout and compare the lines.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import hashlib  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from svtr import gradcheck  # noqa: E402
from svtr.checkpoint import restore_model, save_checkpoint  # noqa: E402
from svtr.config import PRESETS  # noqa: E402
from svtr.ctc import Charset  # noqa: E402
from svtr.data import gen_dataset, load_dataset, load_image, save_dataset, write_pnm  # noqa: E402
from svtr.model import SvtrModel  # noqa: E402
from svtr.train import train  # noqa: E402


def _digest(history, model: SvtrModel) -> str:
    h = hashlib.sha256()
    for m in history:
        h.update(np.array([m.loss, m.accuracy, m.lr], dtype=np.float64).tobytes())
    for name, arr in [*((n, p.data) for n, p in model.params.items()),
                      *model.buffers.items()]:
        h.update(name.encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def c08() -> str:
    cfg = PRESETS["svtr-micro"]
    corpus = gen_dataset(64, Charset(), (1, 5), cfg.input_h, cfg.input_w, seed=123)
    model = SvtrModel(cfg, seed=42)
    history = train(model, corpus, epochs=300, batch_size=16, seed=42, peak_lr=0.03)
    return _digest(history, model)


def t_train() -> str:
    cfg = PRESETS["svtr-t"]
    corpus = gen_dataset(64, Charset(), (1, 16), cfg.input_h, cfg.input_w, seed=7)
    model = SvtrModel(cfg, seed=7)
    history = train(model, corpus, epochs=2, batch_size=8, seed=7, val_fraction=0.125)
    return _digest(history, model)


def gradcheck_errors() -> str:
    h = hashlib.sha256()
    for dtype in (np.float64, np.float32):
        for errors in (gradcheck.run_suite(dtype=dtype), gradcheck.check_model(dtype=dtype)):
            for name, err in errors.items():
                h.update(name.encode())
                h.update(np.float64(err).tobytes())
    return h.hexdigest()


def t_infer() -> str:
    cfg = PRESETS["svtr-t"]
    images = np.stack([s.image for s in
                       gen_dataset(8, Charset(), (1, 16), cfg.input_h, cfg.input_w, seed=7)])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.ckpt"
        save_checkpoint(path, SvtrModel(cfg, seed=7))
        model, _ = restore_model(path, expected_config=cfg)
    model.eval()
    h = hashlib.sha256()
    for batch in (images, *(images[i:i + 1] for i in range(len(images)))):
        h.update(model.forward(batch).data.tobytes())
    return h.hexdigest()


def _update_image(h, image: np.ndarray):
    h.update(f"{image.dtype} {image.shape}".encode())
    h.update(image.tobytes())


def data_bytes() -> str:
    h = hashlib.sha256()
    charset = Charset()
    micro, t = PRESETS["svtr-micro"], PRESETS["svtr-t"]
    with tempfile.TemporaryDirectory() as tmp:
        loads = []
        for name, cfg, seed, max_len in (("micro", micro, 123, 5), ("t", t, 7, 16)):
            corpus = gen_dataset(64, charset, (1, max_len), cfg.input_h, cfg.input_w, seed=seed)
            save_dataset(corpus, Path(tmp) / name, charset)
            loads.append((name, cfg.input_h, cfg.input_w, cfg.max_label_len))
        loads.append(("t", micro.input_h, micro.input_w, t.max_label_len))
        for name, height, width, max_label_len in loads:
            for sample in load_dataset(Path(tmp) / name, height, width, charset, max_label_len):
                h.update(f"{sample.id} {sample.label.indices}".encode())
                _update_image(h, sample.image)
        gray = Path(tmp) / "gray.pgm"
        write_pnm(gray, (np.arange(16 * 64).reshape(16, 64) * 7 % 256).astype(np.uint8))
        for cfg in (micro, t):
            _update_image(h, load_image(gray, cfg.input_h, cfg.input_w))
    return h.hexdigest()


def main() -> int:
    for name, fn in (("c08", c08), ("t-train", t_train), ("gradcheck", gradcheck_errors),
                     ("t-infer", t_infer), ("data", data_bytes)):
        print(name, fn(), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
