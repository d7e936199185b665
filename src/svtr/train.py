"""Training and evaluation loops.

One step is: stack batch -> forward -> log-softmax -> CTC loss -> backward
-> optional global-norm clip -> AdamW -> schedule advance.  All randomness
(shuffling, dropout) derives from the run seed, so two runs with the same
seed produce bit-identical loss curves.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .checkpoint import save_checkpoint
from .ctc import LabelSeq, ctc_loss, edit_accuracy, greedy_decode, min_timesteps
from .data import LabeledSample
from .exceptions import ContractError, FeasibilityError
from .model import SvtrModel
from .optim import AdamW, LrSchedule, clip_grad_norm, scaled_peak_lr

METRICS_HEADER = "# step\tlr\tloss\taccuracy\n"
WARMUP_EPOCHS = 2
CLIP_NORM = 5.0


@dataclass
class EpochMetrics:
    epoch: int
    step: int          # global step after this epoch
    lr: float
    loss: float        # mean training loss over the epoch
    accuracy: float    # word accuracy on the held-out (or training) split


@dataclass
class EvalReport:
    word_accuracy: float
    norm_edit_sim: float
    preds: list[LabelSeq] = field(default_factory=list)
    warning: str | None = None


def evaluate(model: SvtrModel, samples: list[LabeledSample],
             batch_size: int = 64) -> EvalReport:
    """Greedy-decode every sample in eval mode; deterministic.  A model
    whose logits hold NaN or infinite values raises ``ContractError``."""
    if batch_size < 1:
        raise ContractError(f"batch_size must be at least 1, got {batch_size}")
    if not samples:
        return EvalReport(0.0, 0.0, [], warning="empty evaluation dataset")
    preds, exact, sim = [], 0, 0
    for start in range(0, len(samples), batch_size):
        chunk = samples[start:start + batch_size]
        logits = model.eval_logits(np.stack([s.image for s in chunk]))
        for sample, pred in zip(chunk, greedy_decode(logits)):
            acc = edit_accuracy(pred, sample.label)
            exact += acc.exact
            sim += acc.norm_edit_sim
            preds.append(pred)
    n = len(preds)
    return EvalReport(exact / n, sim / n, preds)


def _check_feasible(samples: list[LabeledSample], seq_len: int):
    for sample in samples:
        if min_timesteps(sample.label) > seq_len:
            raise FeasibilityError(
                f"sample {sample.id}: label of length {len(sample.label)} is not "
                f"CTC-feasible for {seq_len} output positions")


def train(model: SvtrModel, dataset: list[LabeledSample], epochs: int,
          batch_size: int, seed: int = 42, peak_lr: float | None = None,
          warmup_epochs: int = WARMUP_EPOCHS,
          val_fraction: float = 0.0, clip_norm: float | None = CLIP_NORM,
          checkpoint_dir=None, log_path=None) -> list[EpochMetrics]:
    """Run the full recipe; returns per-epoch metrics (also written to log_path).

    With val_fraction == 0 the held-out split is the training set itself,
    which is the desk-scale overfit setting.
    """
    if not dataset:
        raise ContractError("training dataset is empty")
    if epochs < 1:
        raise ContractError(f"epochs must be at least 1, got {epochs}")
    if batch_size < 1:
        raise ContractError(f"batch_size must be at least 1, got {batch_size}")
    if peak_lr is not None and not 0.0 <= peak_lr < math.inf:
        raise ContractError(f"peak_lr must be finite and non-negative, got {peak_lr}")
    if warmup_epochs < 0:
        raise ContractError(f"warmup_epochs must be non-negative, got {warmup_epochs}")
    if not 0.0 <= val_fraction < 1.0:
        raise ContractError(f"val_fraction must be in [0, 1), got {val_fraction}")
    seq_len = model.config.seq_len
    _check_feasible(dataset, seq_len)

    split_rng = np.random.default_rng((seed, 0))
    order = split_rng.permutation(len(dataset))
    n_val = int(round(val_fraction * len(dataset)))
    val_set = [dataset[i] for i in order[:n_val]]
    train_set = [dataset[i] for i in order[n_val:]]
    if not train_set:
        raise ContractError("validation split consumed the whole dataset")
    eval_set = val_set if val_set else train_set

    steps_per_epoch = math.ceil(len(train_set) / batch_size)
    schedule = LrSchedule(
        peak_lr=peak_lr if peak_lr is not None else scaled_peak_lr(batch_size),
        warmup_steps=warmup_epochs * steps_per_epoch,
        total_steps=epochs * steps_per_epoch,
    )
    optimizer = AdamW(model.params)

    if checkpoint_dir is not None:
        os.makedirs(checkpoint_dir, exist_ok=True)

    history: list[EpochMetrics] = []
    best_accuracy = -1.0
    global_step = 0
    log_fh = None
    try:
        if log_path is not None:
            log_fh = open(log_path, "w", encoding="utf-8")
            log_fh.write(METRICS_HEADER)
        for epoch in range(epochs):
            model.train()
            epoch_rng = np.random.default_rng((seed, 1, epoch))
            order = epoch_rng.permutation(len(train_set))
            losses = []
            for start in range(0, len(train_set), batch_size):
                batch = [train_set[i] for i in order[start:start + batch_size]]
                images = np.stack([s.image for s in batch])
                labels = [s.label for s in batch]

                model.seed_dropout(seed * 1_000_003 + global_step)
                model.zero_grad()
                # A diverging step overflows on its way to a non-finite
                # loss; the check below is its one report, not numpy's
                # warnings.
                with np.errstate(all="ignore"):
                    logits = model.forward(images)
                    loss = ctc_loss(T.log_softmax(logits), labels)
                value = float(loss.data)
                if not math.isfinite(value):
                    raise ContractError(
                        f"training diverged: non-finite loss {value} at step {global_step} "
                        f"(epoch {epoch}, lr {schedule.lr_at(global_step):.3e})")
                loss.backward()
                if clip_norm is not None:
                    clip_grad_norm(model.params, clip_norm)
                optimizer.step(schedule.lr_at(global_step))
                losses.append(value)
                global_step += 1

            report = evaluate(model, eval_set, batch_size=batch_size)
            lr_now = schedule.lr_at(global_step)
            metrics = EpochMetrics(epoch, global_step, lr_now,
                                   float(np.mean(losses)), report.word_accuracy)
            history.append(metrics)
            if log_fh is not None:
                log_fh.write(f"{metrics.step}\t{metrics.lr:.8e}\t"
                             f"{metrics.loss:.6f}\t{metrics.accuracy:.6f}\n")
                log_fh.flush()
            if checkpoint_dir is not None:
                info = {"loss": metrics.loss, "accuracy": metrics.accuracy,
                        "epoch": epoch}
                save_checkpoint(os.path.join(checkpoint_dir, "last.ckpt"),
                                model, step=global_step, metrics=info)
                if metrics.accuracy > best_accuracy:
                    best_accuracy = metrics.accuracy
                    save_checkpoint(os.path.join(checkpoint_dir, "best.ckpt"),
                                    model, step=global_step, metrics=info)
    finally:
        if log_fh is not None:
            log_fh.close()
    return history
