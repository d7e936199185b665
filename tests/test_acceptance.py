"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line (bypassing capture) and enforces its own
runtime budget.  The heavyweight case is the small-model overfit run, which
trains twice to also establish bit-for-bit reproducibility of the loss curve.
It runs the two trainings side by side in two worker processes: run as a
script, this file performs one of them and prints its result as JSON.
"""

import functools
import itertools
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import conftest

from svtr import tensor as T
from svtr.audit import count_flops, count_params, param_breakdown
from svtr.checkpoint import load_checkpoint, restore_model, save_checkpoint
from svtr.cli import PARAM_REFS
from svtr.config import PRESETS, SvtrConfig
from svtr.ctc import Charset, LabelSeq, collapse, ctc_loss, greedy_decode, min_timesteps
from svtr.data import gen_dataset
from svtr.exceptions import CheckpointError
from svtr.gradcheck import TOLERANCES, check_model, run_suite
from svtr.model import SvtrModel, local_attention_mask
from svtr.optim import AdamW, LrSchedule, scaled_peak_lr
from svtr.tensor import Tensor
from svtr.train import evaluate, train


def _reported(label, budget_s):
    """Run the wrapped check, record one PASS/FAIL line, enforce the budget."""
    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            start = time.time()
            try:
                detail = fn(*args, **kwargs)
            except BaseException:
                conftest.record_line(f"{label}: FAIL")
                raise
            elapsed = time.time() - start
            suffix = f" ({detail})" if detail else ""
            conftest.record_line(f"{label}: PASS [{elapsed:.1f}s]{suffix}")
            assert elapsed < budget_s, f"{label} took {elapsed:.1f}s, budget {budget_s}s"
        return inner
    return wrap


@_reported("criterion 01 parameter audit", 5)
def test_c01_parameter_audit():
    deltas = {}
    for name, ref in PARAM_REFS.items():
        config = PRESETS[name]
        total = count_params(config, include_classifier=False)
        deltas[name] = (total - ref) / ref
        assert abs(deltas[name]) < 0.10, f"{name}: {total} vs reference {ref:.0f}"
        breakdown = param_breakdown(config)
        assert sum(breakdown.values()) == count_params(config, include_classifier=True)
    return ", ".join(f"{k} {v:+.2%}" for k, v in deltas.items())


@_reported("criterion 02 flop audit", 5)
def test_c02_flop_audit():
    report = count_flops(PRESETS["svtr-t"], input_h=32, input_w=100)
    macs = report.total_macs
    flops = report.total_flops
    assert 0.23e9 <= macs <= 0.35e9, macs
    assert 0.46e9 <= flops <= 0.70e9, flops
    return f"svtr-t {macs / 1e9:.3f} G (1-MAC) / {flops / 1e9:.3f} G (2-FLOP) at 32x100"


@_reported("criterion 03 shape contract", 30)
def test_c03_shape_contract():
    config = PRESETS["svtr-t"]
    geo = config.stage_geometry()
    assert [h * w for h, w, _ in geo] == [256, 128, 64]
    model = SvtrModel(config, seed=0).eval()
    logits = model.forward(np.zeros((1, 3, 32, 128), dtype=np.float32))
    assert logits.shape == (1, 32, 37), logits.shape
    return "logits [1, 32, 37], tokens 256/128/64"


@_reported("criterion 04 gradient suite", 120)
def test_c04_gradient_suite():
    worsts = {}
    for dtype in (np.float64, np.float32):
        tol = TOLERANCES[dtype]
        suite = run_suite(dtype=dtype)
        model_errors = check_model(dtype=dtype)
        worst = max(max(suite.values()), max(model_errors.values()))
        worsts[np.dtype(dtype).name] = worst
        bad = {k: v for k, v in {**suite, **model_errors}.items() if v >= tol}
        assert not bad, f"{np.dtype(dtype).name}: {bad}"
    return ", ".join(f"{k} worst {v:.2e}" for k, v in worsts.items())


def _brute_force_nll(lp, label):
    t_, n = lp.shape
    total = -math.inf
    for path in itertools.product(range(n), repeat=t_):
        if collapse(path) == label:
            total = np.logaddexp(total, sum(lp[t, c] for t, c in enumerate(path)))
    return -total


@_reported("criterion 05 ctc oracle", 60)
def test_c05_ctc_oracle():
    rng = np.random.default_rng(17)
    cases = 0
    for t in range(1, 7):
        for n in range(2, 5):
            for length in range(0, 4):
                for _ in range(4):
                    logits = rng.normal(size=(t, n))
                    lp = logits - np.log(np.exp(logits).sum(-1, keepdims=True))
                    label = LabelSeq(tuple(int(v) for v in
                                           rng.integers(1, n, size=length)))
                    if min_timesteps(label) > t:
                        continue
                    got = math.exp(-float(ctc_loss(Tensor(lp[None]), [label]).data))
                    want = math.exp(-_brute_force_nll(lp, label.indices))
                    assert abs(got - want) <= 1e-6, (t, n, label.indices, got, want)
                    cases += 1
    assert cases >= 200, cases

    decode_logits = rng.normal(size=(1000, 5, 4))
    for row, got in zip(decode_logits, greedy_decode(decode_logits)):
        path = np.argmax(row, axis=-1)
        ref = []
        for cls in path:
            if not ref or ref[-1] != cls:
                ref.append(int(cls))
        assert got.indices == tuple(c for c in ref if c != 0)
    return f"{cases} enumeration cases, 1000 decode cases"


@_reported("criterion 06 local mask oracle", 10)
def test_c06_local_mask_oracle():
    for h, w in [(8, 32), (4, 32), (2, 32)]:
        mask = local_attention_mask(h, w, 7, 11)
        for q in range(h * w):
            for k in range(h * w):
                qr, qc = divmod(q, w)
                kr, kc = divmod(k, w)
                want = abs(qr - kr) <= 3 and abs(qc - kc) <= 5
                assert mask[q, k] == want, (h, w, q, k)
    mask = local_attention_mask(8, 32, 7, 11)
    assert mask[4 * 32 + 16].sum() == 77
    assert mask[0].sum() == 24
    return "grids 8x32/4x32/2x32, degrees 77/24"


@_reported("criterion 07 local/global saturation", 10)
def test_c07_local_global_saturation():
    config = SvtrConfig(embed_dims=(8, 16, 24), depths=(1, 1, 1), heads=(1, 2, 2),
                        combined_dim=16, permutation=tuple("LGL"),
                        charset_size=5, input_h=16, input_w=32, max_label_len=3,
                        dropout_rate=0.0, attn_dropout_rate=0.0)
    model = SvtrModel(config, seed=0).eval()
    x = Tensor(np.random.default_rng(0).normal(size=(2, 32, 8)).astype(np.float32))
    full = np.ones((32, 32), dtype=bool)
    local = model.mixing_block(x, "stage1.block0.", heads=1, mask=full)
    glob = model.mixing_block(x, "stage1.block0.", heads=1, mask=None)
    assert np.array_equal(local.data, glob.data)
    return "bitwise identical under full-true mask"


def _c08_run() -> dict:
    """One run of the c08 recipe: its loss curve as exact ``float.hex``
    strings and its best train accuracy."""
    config = PRESETS["svtr-micro"]
    dataset = gen_dataset(64, Charset(), (1, 5), config.input_h, config.input_w,
                          seed=123)
    model = SvtrModel(config, seed=42)
    history = train(model, dataset, epochs=300, batch_size=16, seed=42,
                    peak_lr=0.03)
    return {"curve": [float(m.loss).hex() for m in history],
            "best": max(m.accuracy for m in history)}


@_reported("criterion 08 overfit", 600)
def test_c08_overfit():
    # The two identical runs train side by side in two worker processes, each
    # on one BLAS thread (set in its environment, so before numpy loads): two
    # threaded GEMMs would oversubscribe the cores.  Equal curves across
    # processes also show that no process-global state reaches the numbers.
    src = str(Path(T.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    workers = [subprocess.Popen([sys.executable, __file__], env=env,
                                stdout=subprocess.PIPE, text=True)
               for _ in range(2)]
    outputs = [worker.communicate()[0] for worker in workers]
    assert [w.returncode for w in workers] == [0, 0], "a c08 worker failed"
    runs = [json.loads(out.splitlines()[-1]) for out in outputs]
    curves = [run["curve"] for run in runs]
    best = max(run["best"] for run in runs)
    assert best >= 0.95, best
    assert curves[0] == curves[1], "loss curves differ between identical runs"
    return f"best train accuracy {best:.3f}, curves bit-identical"


@_reported("criterion 09 permutation axes", 300)
def test_c09_permutation_axes():
    charset = Charset()
    dataset = gen_dataset(2, charset, (1, 3), 32, 128, seed=5)
    images = np.stack([s.image for s in dataset])
    labels = [s.label for s in dataset]
    shapes = set()
    for perm in ["L" * 6 + "G" * 6, "G" * 6 + "L" * 6, "LG" * 6,
                 "G" * 12, "L" * 12]:
        model = SvtrModel(SvtrConfig(permutation=tuple(perm)), seed=0)
        model.zero_grad()
        logits = model.forward(images)
        loss = ctc_loss(T.log_softmax(logits), labels)
        loss.backward()
        AdamW(model.params).step(lr=1e-4)
        assert np.isfinite(float(loss.data))
        shapes.add(logits.shape)
    assert shapes == {(2, 32, 37)}, shapes
    return "5 block orderings trained one step, shapes identical"


@_reported("criterion 10 checkpoint round-trip", 60)
def test_c10_checkpoint_roundtrip(tmp_path):
    config = PRESETS["svtr-micro"]
    charset = Charset()
    dataset = gen_dataset(8, charset, (1, 3), config.input_h, config.input_w, seed=9)
    model = SvtrModel(config, seed=1)
    train(model, dataset, epochs=1, batch_size=8, peak_lr=1e-3)
    before = evaluate(model, dataset)

    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model, step=1)
    restored, _ = restore_model(path, expected_config=config)
    after = evaluate(restored, dataset)
    assert after.word_accuracy == before.word_accuracy
    assert after.norm_edit_sim == before.norm_edit_sim
    assert [r.pred for r in after.records] == [r.pred for r in before.records]

    blob = bytearray(path.read_bytes())
    blob[-3] ^= 0x01
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)
    return "metrics identical, single-byte corruption detected"


@_reported("criterion 11 scheduler", 5)
def test_c11_scheduler():
    peak = scaled_peak_lr(256)
    assert abs(peak - 6.25e-5) < 1e-18
    warmup, total = 120, 1200
    sched = LrSchedule(peak_lr=peak, warmup_steps=warmup, total_steps=total)
    mid = warmup + (total - warmup) // 2
    closed = {0: 0.0, warmup: peak, mid: peak * 0.5, total: 0.0}
    for step, want in closed.items():
        assert abs(sched.lr_at(step) - want) < 1e-12, step
    return "ramp/cosine closed form to 1e-12, peak 6.25e-5 at batch 256"


if __name__ == "__main__":
    print(json.dumps(_c08_run()))
