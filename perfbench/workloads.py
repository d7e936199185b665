"""One benchmark workload, run in a process of its own.

``run.py`` starts this file with the BLAS thread count already pinned in the
environment, so numpy reads it when it loads.  The workload builds its
inputs from ``--seed``, hands the program only those inputs, times it
through the public functions of the svtr modules, checks the outputs
outside the timed intervals, writes a results file, and prints its result
as the last line of standard output.

With ``--trace 0`` the run reports the end-to-end metrics.  With
``--trace 1`` it first repeats the start of the workload untraced, then
runs it again under the span tracer of ``spans.py``, and reports the
per-layer metrics, the trace coverage and the tracing overhead.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

import reference  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402

model_mod = importlib.import_module("svtr.model")
train_mod = importlib.import_module("svtr.train")
ctc_mod = importlib.import_module("svtr.ctc")
ckpt_mod = importlib.import_module("svtr.checkpoint")
data_mod = importlib.import_module("svtr.data")
config_mod = importlib.import_module("svtr.config")
audit_mod = importlib.import_module("svtr.audit")
SvtrError = importlib.import_module("svtr.exceptions").SvtrError

WORKLOADS = ("micro-overfit", "t-train", "t-infer")
# Set-up is timed 15 times per run.  An untraced run times the first half
# before it measures and the rest after, so that the median spans the host's
# load over the whole run, not over its first second.
SETUP_REPEATS = 15
SETUP_AFTER = SETUP_REPEATS // 2
CTC_RTOL = 1e-6
LOGIT_ATOL_SHARE = 1e-4
# The c08 overfit recipe.
MICRO_RECIPE = dict(epochs=300, batch_size=16, seed=42, peak_lr=0.03)
MICRO_MODEL_SEED = 42
MICRO_STEPS_PER_EPOCH = 4
MICRO_TRACE_EPOCHS = 40
# svtr-t: 64 samples, 8 held out so each epoch's eval is one batch.
T_CORPUS = 64
T_MAX_LEN = 16
T_BATCH = 8
T_EPOCHS = 2
T_VAL_FRACTION = 0.125
ADAMW_STEP = 3
ADAMW_NAMES = ("embed.conv1.weight", "stage2.block0.attn.qkv.weight",
               "stage3.block2.norm1.gamma", "head.bias")


class StopRun(Exception):
    """Ends a train() call at the start of an epoch."""


class Probe:
    """Always-on hooks: a step clock, loss and decode capture, eval timing.

    They copy only small or sampled arrays, so the untraced timings carry
    a few clock reads per step and nothing more.
    """

    def __init__(self, sample_every: int = 1, adamw_step: int | None = None,
                 stop_after_evals: int | None = None, deadline: float | None = None):
        self.sample_every = sample_every
        self.adamw_step = adamw_step
        # train() stops at the first step after an epoch's eval once either holds.
        self.stop_after_evals = stop_after_evals
        self.deadline = deadline
        self._epoch_done = False
        self.step_start: list[float] = []
        self.step_end: list[float] = []
        self.losses: list[float] = []
        self.samples = 0
        self.loss_samples: list[tuple] = []
        self.decode_samples: list[tuple] = []
        self.evals: list[tuple] = []
        # (seconds, images) per batch inside evaluate: from the end of the
        # previous batch's decode (or the call) to the end of this one's.
        self.eval_batches: list[tuple[float, int]] = []
        self._batch_mark: float | None = None
        self.adamw: dict | None = None
        self._decodes = 0

    def step_times(self) -> list[float]:
        return [e - s for s, e in zip(self.step_start, self.step_end)]

    def _stop_now(self) -> bool:
        if not self._epoch_done:
            return False
        self._epoch_done = False
        return ((self.stop_after_evals is not None and len(self.evals) >= self.stop_after_evals)
                or (self.deadline is not None and time.perf_counter() >= self.deadline))

    def install(self) -> spans.Patches:
        probe = self
        patches = spans.Patches()
        M = model_mod.SvtrModel
        seed_dropout = M.seed_dropout

        def clocked_seed_dropout(model, seed):
            if probe._stop_now():
                raise StopRun
            probe.step_start.append(time.perf_counter())
            return seed_dropout(model, seed)
        patches.set(M, "seed_dropout", clocked_seed_dropout)

        ctc_loss = train_mod.ctc_loss

        def captured_ctc_loss(log_probs, labels):
            out = ctc_loss(log_probs, labels)
            value = float(out.data)
            if len(probe.losses) % probe.sample_every == 0:
                probe.loss_samples.append((log_probs.data.copy(),
                                           [lab.indices for lab in labels], value))
            probe.losses.append(value)
            probe.samples += len(labels)
            return out
        patches.set(train_mod, "ctc_loss", captured_ctc_loss)

        greedy_decode = train_mod.greedy_decode

        def captured_greedy_decode(logits):
            out = greedy_decode(logits)
            if probe._batch_mark is not None:
                probe.eval_batches.append((time.perf_counter() - probe._batch_mark, len(out)))
            if probe._decodes % probe.sample_every == 0:
                probe.decode_samples.append((np.array(logits.data), [p.indices for p in out]))
            probe._decodes += 1
            if probe._batch_mark is not None:
                probe._batch_mark = time.perf_counter()
            return out
        patches.set(train_mod, "greedy_decode", captured_greedy_decode)

        evaluate = train_mod.evaluate

        def timed_evaluate(model, samples, batch_size=64):
            t0 = probe._batch_mark = time.perf_counter()
            try:
                report = evaluate(model, samples, batch_size=batch_size)
            finally:
                probe._batch_mark = None
            probe.evals.append((t0, time.perf_counter(), len(samples), report.word_accuracy))
            probe._epoch_done = True
            return report
        patches.set(train_mod, "evaluate", timed_evaluate)

        class ClockedAdamW(train_mod.AdamW):
            def step(self, lr):
                capture = probe.adamw is None and self.step_count + 1 == probe.adamw_step
                if capture:
                    probe.adamw = {"lr": lr, "t": self.step_count + 1, "before": {
                        name: (self.params[name].data.copy(), self.params[name].grad.copy(),
                               self.m[name].copy(), self.v[name].copy())
                        for name in ADAMW_NAMES}}
                super().step(lr)
                if capture:
                    probe.adamw["after"] = {name: (self.params[name].data.copy(),
                                                   self.m[name].copy(), self.v[name].copy())
                                            for name in ADAMW_NAMES}
                probe.step_end.append(time.perf_counter())
        patches.set(train_mod, "AdamW", ClockedAdamW)
        return patches


class Run:
    """What one workload run measures, checks and reports."""

    def __init__(self, args):
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.work = Path(args.work)
        self.setup_times: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.metrics: dict[str, tuple[float, str]] = {}
        self.info: dict = {}
        self.checks: list[dict] = []
        self.tracer = spans.Tracer() if self.trace else None

    def check(self, name: str, ok: bool, detail: str = ""):
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})

    def attempt(self, fn, *args, weight: int = 1, **kwargs):
        """Call fn; if it raises one of the program's own errors, count
        ``weight`` failed operations, keep the message and return None."""
        try:
            return fn(*args, **kwargs)
        except SvtrError as err:
            self.failed += weight
            self.errors.append(f"{fn.__name__}: {type(err).__name__}: {err}")
            return None

    def setup(self, fn, repeats: int = 1):
        out = None
        for _ in range(repeats):
            t0 = time.perf_counter()
            out = fn()
            self.setup_times.append(time.perf_counter() - t0)
        return out

    def traced(self, fn):
        """Run fn with the span tracer installed."""
        patches = spans.install(self.tracer)
        try:
            return fn()
        finally:
            patches.undo()

    def record_steps(self, samples: list[float]):
        """The fastest step as the metric; the median and tail as info.

        On a shared host the median of a 30 s run follows the host's load
        over that half minute; the fastest step follows the program's cost.
        """
        self.metrics["step_s_min"] = (min(samples), "s")
        self.info["step_s_p50"] = statistics.median(samples)
        tail = stats.tail_percentile(len(samples))
        if tail is not None:
            self.info[f"step_s_p{tail:g}"] = stats.percentile(samples, tail)


# -- checks shared by the workloads ------------------------------------------

def check_losses(run: Run, probe: Probe, name: str):
    worst = 0.0
    finite = True
    for log_probs, labels, value in probe.loss_samples:
        finite &= math.isfinite(value)
        ref = reference.ctc_mean_nll(log_probs, labels)
        worst = max(worst, abs(value - ref) / max(abs(ref), 1e-30))
    run.check(name, finite and worst <= CTC_RTOL and probe.loss_samples,
              f"{len(probe.loss_samples)} batches, worst relative error {worst:.2e}")


def check_decodes(run: Run, samples, name: str):
    bad = sum(reference.greedy_decode(logits) != preds for logits, preds in samples)
    run.check(name, samples and bad == 0, f"{len(samples)} batches, {bad} differ")


def check_adamw(run: Run, probe: Probe):
    cap = probe.adamw
    if cap is None or "after" not in cap:
        run.check("adamw_closed_form", False, "no optimizer step captured")
        return
    worst = 0.0
    for name in ADAMW_NAMES:
        p0, g, m0, v0 = cap["before"][name]
        p1, m1, v1 = cap["after"][name]
        want, want_m, want_v = reference.adamw_update(p0, g, m0, v0, cap["t"], cap["lr"],
                                                      reference.decayed(name))
        # f32 storage: a few ulps of the parameter plus 1e-4 of an Adam step
        # (about lr per element); moments to 1e-6 of the terms they sum.
        eps32 = np.finfo(np.float32).eps
        tol_p = 4 * eps32 * np.abs(p0) + 1e-4 * cap["lr"] + 1e-30
        tol_m = 1e-6 * (0.9 * np.abs(m0) + 0.1 * np.abs(g)) + 1e-30
        tol_v = 1e-6 * (0.999 * v0 + 0.001 * g * g) + 1e-30
        for got, ref, t in ((p1, want, tol_p), (m1, want_m, tol_m), (v1, want_v, tol_v)):
            worst = max(worst, float(np.max(np.abs(got - ref) / t)))
    run.check("adamw_closed_form", worst <= 1.0,
              f"step {cap['t']}, lr {cap['lr']:.3e}, worst error {worst:.2f} of tolerance")


def more_rounds(start: float, rounds: list[float], seconds: float) -> bool:
    """Start another whole round if at least half of it fits in the run."""
    return time.perf_counter() - start + 0.5 * sum(rounds) / len(rounds) <= seconds


def record_eval(run: Run, probes: list[Probe]):
    """Throughput of the fastest evaluate batch and of whole evaluate calls,
    as info only: over ten runs the fastest svtr-t batch spread 19-26% of
    its median, too close to or past any bound a regression check can use."""
    batches = [b for p in probes for b in p.eval_batches]
    run.info["eval_images_per_s"] = max(n / t for t, n in batches)
    evals = [e for p in probes for e in p.evals]
    run.info["eval_images_per_s_whole_calls"] = (sum(n for _, _, n, _ in evals)
                                                 / sum(t1 - t0 for t0, t1, _, _ in evals))


def record_overhead(run: Run, untraced: list[float], traced_times: list[float]):
    run.info["trace_overhead"] = statistics.median(traced_times) / statistics.median(untraced)


# -- workloads ---------------------------------------------------------------

def micro_overfit(run: Run):
    """The c08 recipe: svtr-micro overfits 64 seeded 16x64 samples."""
    cfg = config_mod.PRESETS["svtr-micro"]
    charset = ctc_mod.Charset()

    def setup():
        corpus = data_mod.gen_dataset(64, charset, (1, 5), cfg.input_h, cfg.input_w,
                                      seed=run.seed)
        return corpus, model_mod.SvtrModel(cfg, seed=MICRO_MODEL_SEED)

    def recipe(model, probe, ckpt_dir):
        patches = probe.install()
        try:
            run.attempt(train_mod.train, model, corpus, checkpoint_dir=ckpt_dir, **MICRO_RECIPE)
        except StopRun:
            pass
        finally:
            patches.undo()

    if run.trace:
        corpus, model = run.traced(lambda: run.setup(setup, SETUP_REPEATS))
        plain = Probe(sample_every=25, stop_after_evals=MICRO_TRACE_EPOCHS)
        recipe(model, plain, run.work / "plain")
        probe = Probe(sample_every=25, stop_after_evals=MICRO_TRACE_EPOCHS)
        run.traced(lambda: recipe(model_mod.SvtrModel(cfg, seed=MICRO_MODEL_SEED),
                                   probe, run.work / "traced"))
        run.attempted = len(plain.losses) + len(probe.losses) + run.failed
        run.check("traced_loss_curve_bit_identical", plain.losses == probe.losses,
                  f"{len(probe.losses)} steps")
        record_overhead(run, plain.step_times(), probe.step_times())
        check_losses(run, probe, "ctc_loss_matches_reference")
        check_decodes(run, probe.decode_samples, "greedy_decode_matches_reference")
        return "train.step", cfg

    corpus, model = run.setup(setup, SETUP_REPEATS - SETUP_AFTER)
    ckpt_dir = run.work / "ckpt"
    t0 = time.perf_counter()
    probe = Probe(sample_every=25, deadline=t0 + run.seconds)
    recipe(model, probe, ckpt_dir)
    run.setup(setup, SETUP_AFTER)
    wall = (probe.evals[-1][1] if probe.evals else time.perf_counter()) - t0
    steps = probe.step_times()
    run.attempted = len(steps) + run.failed

    run.info["samples_per_s"] = probe.samples / wall
    run.record_steps(steps)
    record_eval(run, [probe])
    run.info["steps"] = len(steps)
    run.info["epochs"] = len(probe.evals)
    accs = [acc for _, _, _, acc in probe.evals]
    hit = next((k for k, acc in enumerate(accs) if acc >= 0.95), None)
    run.info["best_word_accuracy"] = max(accs)
    run.info["epoch_to_acc95"] = hit
    run.info["time_to_acc95_s"] = None if hit is None else probe.evals[hit][1] - t0

    check_losses(run, probe, "ctc_loss_matches_reference")
    check_decodes(run, probe.decode_samples, "greedy_decode_matches_reference")
    first = float(np.mean(probe.losses[:MICRO_STEPS_PER_EPOCH]))
    last = float(np.mean(probe.losses[-MICRO_STEPS_PER_EPOCH:]))
    run.check("training_loss_falls", last < first, f"first epoch {first:.4f} -> last {last:.4f}")
    if run.failed:      # the failed call may have left best.ckpt behind the evals
        return
    restored, data = ckpt_mod.restore_model(ckpt_dir / "best.ckpt", expected_config=cfg)
    again = train_mod.evaluate(restored, corpus, batch_size=MICRO_RECIPE["batch_size"])
    run.check("best_ckpt_reevaluates_to_recorded_accuracy",
              again.word_accuracy == data.metrics["accuracy"] == max(accs),
              f"recorded {data.metrics['accuracy']:.4f}, re-evaluated {again.word_accuracy:.4f}")


def t_train(run: Run):
    """svtr-t at 32x128, batch 8, dropout on, through train() in whole rounds."""
    cfg = config_mod.PRESETS["svtr-t"]
    charset = ctc_mod.Charset()

    def setup():
        corpus = data_mod.gen_dataset(T_CORPUS, charset, (1, T_MAX_LEN), cfg.input_h,
                                      cfg.input_w, seed=run.seed)
        return corpus, model_mod.SvtrModel(cfg, seed=run.seed)

    def one_round(corpus, model, probe):
        patches = probe.install()
        try:
            t0 = time.perf_counter()
            run.attempt(train_mod.train, model, corpus, epochs=T_EPOCHS, batch_size=T_BATCH,
                        seed=run.seed, val_fraction=T_VAL_FRACTION)
            return time.perf_counter() - t0
        finally:
            patches.undo()

    if run.trace:
        corpus, model = run.traced(lambda: run.setup(setup, SETUP_REPEATS))
        plain = Probe(adamw_step=ADAMW_STEP)
        one_round(corpus, model, plain)
        probe = Probe(adamw_step=ADAMW_STEP)
        run.traced(lambda: one_round(corpus, model_mod.SvtrModel(cfg, seed=run.seed), probe))
        run.attempted = len(plain.losses) + len(probe.losses) + run.failed
        run.check("traced_loss_curve_bit_identical", plain.losses == probe.losses,
                  f"{len(probe.losses)} steps")
        record_overhead(run, plain.step_times(), probe.step_times())
        check_losses(run, probe, "ctc_loss_matches_reference")
        check_adamw(run, probe)
        return "train.step", cfg

    corpus, model = run.setup(setup, SETUP_REPEATS - SETUP_AFTER)
    probes, walls = [], []
    start = time.perf_counter()
    while not walls or more_rounds(start, walls, run.seconds):
        if walls:
            corpus, model = run.setup(setup)
        probe = Probe(adamw_step=ADAMW_STEP)
        walls.append(one_round(corpus, model, probe))
        probes.append(probe)
    run.setup(setup, SETUP_AFTER)
    steps = [s for p in probes for s in p.step_times()]
    run.attempted = len(steps) + run.failed
    run.info["samples_per_s"] = sum(p.samples for p in probes) / sum(walls)
    run.record_steps(steps)
    record_eval(run, probes)
    run.info["rounds"] = len(walls)
    run.info["steps"] = len(steps)

    first = probes[0]
    run.check("loss_finite_every_step", all(math.isfinite(v) for p in probes for v in p.losses),
              f"{len(steps)} steps")
    check_losses(run, first, "ctc_loss_matches_reference")
    check_adamw(run, first)
    run.check("rounds_bit_identical", all(p.losses == first.losses for p in probes),
              f"{len(probes)} rounds from the same seed")


def t_infer(run: Run):
    """svtr-t on the eval/infer path: restore, load, evaluate at 8, decode at 1."""
    cfg = config_mod.PRESETS["svtr-t"]
    charset = ctc_mod.Charset()
    # Before the clock: a seeded checkpoint and a PPM corpus, as `svtr train
    # --out` and `svtr gen-data` would leave them.
    rendered = data_mod.gen_dataset(T_CORPUS, charset, (1, T_MAX_LEN), cfg.input_h,
                                    cfg.input_w, seed=run.seed)
    corpus_dir = run.work / "corpus"
    data_mod.save_dataset(rendered, corpus_dir, charset)
    writer = model_mod.SvtrModel(cfg, seed=run.seed)
    ckpt_path = run.work / "model.ckpt"
    ckpt_mod.save_checkpoint(ckpt_path, writer, step=0)

    def setup():
        dataset = data_mod.load_dataset(corpus_dir, cfg.input_h, cfg.input_w, charset,
                                        cfg.max_label_len)
        model, _ = ckpt_mod.restore_model(ckpt_path, expected_config=cfg)
        return dataset, model

    def infer_one(model, image):
        out = model.forward(image[None])
        return out.data[0], ctc_mod.greedy_decode(out)[0].indices

    def one_round(dataset, model, probe):
        """(wall, batch-1 latencies, {image index: (logits, decoded indices)}).

        A failed evaluate counts every image of it; a failed batch-1 image
        counts one and is left out of the latencies and the checks.
        """
        patches = probe.install()
        try:
            t0 = time.perf_counter()
            run.attempt(train_mod.evaluate, model, dataset, batch_size=T_BATCH,
                        weight=len(dataset))
            model.eval()
            latency, decoded = [], {}
            for i, sample in enumerate(dataset):
                t = time.perf_counter()
                got = run.attempt(infer_one, model, sample.image)
                if got is not None:
                    latency.append(time.perf_counter() - t)
                    decoded[i] = got
            return time.perf_counter() - t0, latency, decoded
        finally:
            patches.undo()

    if run.trace:
        dataset, model = run.traced(lambda: run.setup(setup, SETUP_REPEATS))
        plain = Probe()
        _, lat_plain, plain_out = one_round(dataset, model, plain)
        probe = Probe()
        _, lat_traced, traced_out = run.traced(lambda: one_round(dataset, model, probe))
        run.attempted = 4 * len(dataset)
        same = plain_out.keys() == traced_out.keys() and all(
            np.array_equal(plain_out[i][0], traced_out[i][0]) for i in plain_out) and all(
            np.array_equal(a, b) for (a, _), (b, _) in zip(plain.decode_samples,
                                                          probe.decode_samples))
        run.check("traced_logits_bit_identical", same, f"{len(dataset)} images at batch 8 and 1")
        record_overhead(run, lat_plain, lat_traced)
        check_decodes(run, probe.decode_samples, "greedy_decode_matches_reference")
        return "eval.forward", cfg

    dataset, model = run.setup(setup, SETUP_REPEATS - SETUP_AFTER)
    rounds = []
    start = time.perf_counter()
    while not rounds or more_rounds(start, [r[1] for r in rounds], run.seconds):
        probe = Probe()
        rounds.append((probe, *one_round(dataset, model, probe)))
    run.setup(setup, SETUP_AFTER)
    latency = [t for r in rounds for t in r[2]]
    run.attempted = 2 * len(dataset) * len(rounds)
    recognized = run.attempted - run.failed
    run.info["samples_per_s"] = recognized / sum(r[1] for r in rounds)
    run.record_steps(latency)
    record_eval(run, [r[0] for r in rounds])
    run.info["rounds"] = len(rounds)

    probe, _, _, decoded = rounds[0]
    logits1 = np.stack([logits for logits, _ in decoded.values()])
    preds1 = [pred for _, pred in decoded.values()]
    if probe.decode_samples:
        logits8 = np.concatenate([logits for logits, _ in probe.decode_samples])
        both = [i for i in decoded if i < len(logits8)]
        scale = float(np.max(np.abs(logits1)))
        gap = float(np.max(np.abs(logits8[both] - np.stack([decoded[i][0] for i in both]))))
        run.check("batch8_logits_match_batch1", gap <= LOGIT_ATOL_SHARE * scale,
                  f"max gap {gap:.3e} at logit scale {scale:.3e} over {len(both)} images")
        writer.eval()
        first = writer.forward(np.stack([s.image for s in dataset[:T_BATCH]]))
        run.check("restored_logits_bitwise_equal_writer",
                  np.array_equal(first.data, probe.decode_samples[0][0]),
                  f"first batch of {T_BATCH}")
    worst = max(float(np.max(np.abs(a.image - b.image))) for a, b in zip(dataset, rendered))
    run.check("images_read_back_within_1_of_255", worst <= 1.0 / 255 + 1e-7,
              f"worst pixel error {worst * 255:.3f}/255")
    check_decodes(run, probe.decode_samples, "greedy_decode_matches_reference")
    check_decodes(run, [(logits1, preds1)], "batch1_decode_matches_reference")
    run.check("labels_read_back", [s.label for s in dataset] == [s.label for s in rendered],
              f"{len(dataset)} labels")


# -- reporting ---------------------------------------------------------------

def git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown"
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment() -> dict:
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        openblas = "unknown"
    src = ROOT / "src" / "svtr"
    lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in src.glob("*.py"))
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(ROOT),
        "src_svtr_lines": lines,
    }


def per_layer(run: Run, unit: str, cfg) -> dict[str, tuple[float, str]]:
    report = audit_mod.count_flops(cfg, include_classifier=True)
    macs: dict[str, int] = {}
    for entry in report.entries:
        sec = entry.name.split(".", 1)[0]
        macs[sec] = macs.get(sec, 0) + entry.macs
    values, coverage = spans.summarize(run.tracer, unit, macs)
    out = {}
    for name, value in values.items():
        unit_name = ("count" if name.endswith("nodes") else
                     "GMAC/s" if name.endswith("gmac_per_s") else "s")
        out[name] = (value, unit_name)
    for name, ratio in coverage.items():
        if ratio is not None:
            run.check(name + "_within_10pct", ratio >= 0.9, f"{ratio:.3f}")
        out[name] = (ratio if ratio is not None else 0.0, "ratio")
    out["trace.overhead"] = (run.info["trace_overhead"], "ratio")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True, help="scratch directory, removed at the end")
    parser.add_argument("--results", required=True, help="directory for the results file")
    args = parser.parse_args(argv)

    env = environment()
    load_start = os.getloadavg()
    run = Run(args)
    run.work.mkdir(parents=True, exist_ok=True)
    try:
        traced_unit = {"micro-overfit": micro_overfit, "t-train": t_train,
                       "t-infer": t_infer}[args.workload](run)
    except Exception:
        for line in run.errors:
            print(f"failed operation: {line}", file=sys.stderr)
        raise
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    env["loadavg_start"] = list(load_start)
    env["loadavg_end"] = list(os.getloadavg())

    results = Path(args.results)
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-s{args.seed}-t{args.trace}"
    if run.trace:
        metrics = per_layer(run, *traced_unit)
        run.tracer.save(results / f"{stem}-spans.npz")
    else:
        metrics = dict(run.metrics)
        metrics["setup_s"] = (statistics.median(run.setup_times), "s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    run.info["setup_samples"] = len(run.setup_times)
    if run.errors:
        run.info["errors"] = run.errors[:10]

    correct = all(c["ok"] for c in run.checks)
    result = {"correct": correct, "attempted": run.attempted, "failed": run.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())}}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, **result, "info": run.info, "checks": run.checks,
              "environment": env}
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"# {args.workload} seed {args.seed} trace {args.trace}")
    for c in run.checks:
        print(f"check {'ok  ' if c['ok'] else 'FAIL'} {c['name']}: {c['detail']}")
    for k, v in sorted(run.info.items()):
        print(f"info {k} = {v}")
    for k, (v, u) in sorted(metrics.items()):
        print(f"metric {k} = {v:.6g} {u}")
    print("env " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
