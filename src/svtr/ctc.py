"""CTC loss, greedy decoding, charset handling, and accuracy metrics.

Class index 0 is the blank; the default English charset is blank + digits +
lowercase letters (37 classes).  The loss runs the log-space forward/backward
recursion in f64 and exposes its gradient through the autodiff graph via the
alpha-beta posterior.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import ContractError, DatasetError, FeasibilityError
from .tensor import Tensor, _accumulate, _make

BLANK = 0

DEFAULT_SYMBOLS = "0123456789abcdefghijklmnopqrstuvwxyz"


class Charset:
    """Ordered symbol table; index 0 is the implicit blank."""

    def __init__(self, symbols: str = DEFAULT_SYMBOLS):
        if len(set(symbols)) != len(symbols):
            raise ContractError("charset symbols must be unique")
        if not symbols:
            raise ContractError("charset needs at least one non-blank symbol")
        self.symbols = symbols
        self._index = {ch: i + 1 for i, ch in enumerate(symbols)}

    @property
    def size(self) -> int:
        return len(self.symbols) + 1

    def encode(self, text: str) -> "LabelSeq":
        indices = []
        for ch in text.lower():
            if ch not in self._index:
                raise DatasetError(f"character {ch!r} not in charset")
            indices.append(self._index[ch])
        return LabelSeq(tuple(indices))

    def decode(self, label: "LabelSeq") -> str:
        return "".join(self.symbols[i - 1] for i in label.indices)

    def to_file(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for ch in self.symbols:
                fh.write(ch + "\n")

    @classmethod
    def from_file(cls, path) -> "Charset":
        """One symbol per line of UTF-8 text; blank lines are skipped."""
        try:
            with open(path, "r", encoding="utf-8") as fh:
                lines = fh.read().split("\n")
        except UnicodeDecodeError as exc:
            raise ContractError(f"{path}: not UTF-8 text ({exc})") from None
        for lineno, symbol in enumerate(lines, start=1):
            if len(symbol) > 1:
                raise ContractError(
                    f"{path}:{lineno}: a charset line holds one symbol, got {symbol!r}")
        return cls("".join(lines))


@dataclass(frozen=True)
class LabelSeq:
    """Ground-truth or decoded character indices; never contains blank."""

    indices: tuple[int, ...]

    def __post_init__(self):
        if any(i == BLANK for i in self.indices):
            raise ContractError("label sequences must not contain the blank index")
        if any(i < 0 for i in self.indices):
            raise ContractError("label indices must be non-negative")

    def __len__(self) -> int:
        return len(self.indices)


def collapse(path) -> tuple[int, ...]:
    """CTC de-duplication: merge consecutive repeats, then strip blanks."""
    out = []
    prev = None
    for cls in path:
        if cls != prev:
            out.append(int(cls))
        prev = cls
    return tuple(c for c in out if c != BLANK)


def greedy_decode(logits) -> list[LabelSeq]:
    """Per-timestep argmax (ties to the lower class index) followed by collapse."""
    data = logits.data if isinstance(logits, Tensor) else np.asarray(logits)
    if data.ndim != 3:
        raise ContractError(f"greedy_decode expects [b, T, N] logits, got {data.shape}")
    paths = np.argmax(data, axis=-1)
    return [LabelSeq(collapse(row)) for row in paths]


def min_timesteps(label: LabelSeq) -> int:
    """Shortest path length that collapses to the label: one step per symbol
    plus a separating blank between each adjacent repeat."""
    repeats = sum(a == b for a, b in zip(label.indices, label.indices[1:]))
    return len(label) + repeats


def _forward_backward(lp: np.ndarray, labels: list[LabelSeq]):
    """Log-space alpha/beta over the blank-interleaved labels, batched.

    lp: [b, T, N] log probabilities (f64).  Returns (per-sample -log P [b],
    grad wrt lp [b, T, N]).  Beta is the alpha of the time-reversed problem,
    so one recursion runs over the samples and then their reversals (time and
    labels reversed), making the logaddexp calls a beta recursion would make.
    Extended labels are padded with blanks to the longest; padded states emit
    -inf, and since logaddexp(x, -inf) == x exactly, every valid state gets
    the same bits as a lone recursion.
    """
    b, T_, N = lp.shape
    ninf = -np.inf
    lengths = np.array([2 * len(label) + 1 for label in labels] * 2)    # S_i
    S = int(lengths.max())
    ext = np.zeros((2 * b, S), dtype=np.int64)
    for i, label in enumerate(labels):
        ext[i, 1:2 * len(label):2] = label.indices
        ext[b + i, 1:2 * len(label):2] = label.indices[::-1]
    state = np.arange(S)
    valid = state < lengths[:, None]                                     # [2b, S]
    can_skip = np.zeros((2 * b, S), dtype=bool)
    can_skip[:, 2:] = (ext[:, 2:] != BLANK) & (ext[:, 2:] != ext[:, :-2]) & valid[:, 2:]

    # Emissions per extended state, time-major: [T, 2b, S].
    lp = np.concatenate([lp, lp[:, ::-1]])
    lpe = np.take_along_axis(lp, np.broadcast_to(ext[:, None, :], (2 * b, T_, S)), axis=2)
    lpe = np.where(valid[:, None, :], lpe, ninf).transpose(1, 0, 2)

    # alpha carries two -inf columns on the left, so the one- and two-state
    # shifts read -inf before a label's first state.
    alpha = np.full((T_, 2 * b, S + 2), ninf)
    alpha[0, :, 2:4] = lpe[0, :, :2]
    for t in range(1, T_):
        prev = alpha[t - 1]
        cand = np.logaddexp(prev[:, 2:], prev[:, 1:-1])
        cand = np.where(can_skip, np.logaddexp(cand, prev[:, :-2]), cand)
        alpha[t, :, 2:] = cand + lpe[t]

    rows = np.arange(b)
    lengths = lengths[:b]
    log_p = np.logaddexp(alpha[-1, rows, lengths + 1], alpha[-1, rows, lengths])
    # State s is state S_i - 1 - s of the reversal; padded states stay put.
    mirror = np.where(valid[:b], lengths[:, None] - 1 - state, state)
    beta = alpha[::-1, b:, 2:][:, rows[:, None], mirror]

    # Posterior over extended states; alpha and beta both include the emission
    # at t, so divide it out once.
    with np.errstate(invalid="ignore"):
        occupancy = np.exp(alpha[:, :b, 2:] + beta - lpe[:, :b] - log_p[:, None])
    occupancy = np.nan_to_num(occupancy, nan=0.0, posinf=0.0)             # [T, b, S]
    # Flat index of (sample, t, class) per state; bincount adds in input
    # order, so each cell sums its states in ascending order.
    cell = (rows[None, :, None] * T_ + np.arange(T_)[:, None, None]) * N + ext[None, :b]
    grad = np.bincount(cell.reshape(-1), weights=-occupancy.reshape(-1), minlength=b * T_ * N)
    return -log_p, grad.reshape(b, T_, N)


def ctc_loss(log_probs: Tensor, labels: list[LabelSeq]) -> Tensor:
    """Mean negative log-likelihood over the batch, differentiable wrt log_probs."""
    if log_probs.data.ndim != 3:
        raise ContractError(f"ctc_loss expects [b, T, N] log probs, got {log_probs.shape}")
    b, T_, N = log_probs.shape
    if b == 0:
        raise ContractError("ctc_loss needs at least one sample")
    if len(labels) != b:
        raise ContractError(f"batch size {b} != number of labels {len(labels)}")
    for i, label in enumerate(labels):
        if any(idx >= N for idx in label.indices):
            raise ContractError(f"sample {i}: label index out of range for {N} classes")
        need = min_timesteps(label)
        if need > T_:
            raise FeasibilityError(
                f"sample {i}: label of length {len(label)} needs "
                f"{need} timesteps but only {T_} are available")

    losses, grads = _forward_backward(log_probs.data.astype(np.float64), labels)
    # Summed left to right in Python floats: np.sum's pairwise order, or the
    # compensated built-in sum of Python 3.12+, could change the last bit.
    total = 0.0
    for loss_i in losses.tolist():
        total += loss_i
    mean_loss = np.asarray(total / b, dtype=log_probs.dtype)
    node = log_probs._node

    def bwd(g):
        _accumulate(node, float(g.reshape(-1)[0]) / b * grads)

    return _make(mean_loss, (log_probs,), bwd)


@dataclass(frozen=True)
class EditAccuracy:
    exact: bool
    norm_edit_sim: float


def _levenshtein(a: tuple, b: tuple) -> int:
    if len(a) < len(b):
        a, b = b, a
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i]
        for j, cb in enumerate(b, start=1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def edit_accuracy(pred: LabelSeq, truth: LabelSeq) -> EditAccuracy:
    """Exact-match flag plus 1 - levenshtein/max(len); two empties score 1."""
    exact = pred.indices == truth.indices
    longest = max(len(pred), len(truth))
    if longest == 0:
        return EditAccuracy(True, 1.0)
    dist = _levenshtein(pred.indices, truth.indices)
    return EditAccuracy(exact, 1.0 - dist / longest)
