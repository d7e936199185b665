"""Reference computations the benchmark checks the program against.

They are written apart from ``svtr.ctc`` and ``svtr.optim`` and share no code
with them: the CTC likelihood runs the alpha recursion state by state on
Python floats, the decoder is argmax plus collapse, and AdamW is the closed
form of one update with decoupled weight decay (Loshchilov & Hutter, 2019).
"""

from __future__ import annotations

import itertools
import math

import numpy as np

BLANK = 0


def _logsumexp(values) -> float:
    top = max(values)
    if top == -math.inf:
        return -math.inf
    return top + math.log(sum(math.exp(v - top) for v in values))


def ctc_nll(log_probs, label) -> float:
    """-log P(label | log_probs) for one sample; log_probs is [T, N]."""
    lp = np.asarray(log_probs, dtype=np.float64).tolist()
    states = [BLANK]
    for symbol in label:
        states += [int(symbol), BLANK]
    alpha = [-math.inf] * len(states)
    alpha[0] = lp[0][BLANK]
    if len(states) > 1:
        alpha[1] = lp[0][states[1]]
    for row in lp[1:]:
        nxt = []
        for s, symbol in enumerate(states):
            terms = [alpha[s]]
            if s >= 1:
                terms.append(alpha[s - 1])
            if s >= 2 and symbol != BLANK and symbol != states[s - 2]:
                terms.append(alpha[s - 2])
            nxt.append(_logsumexp(terms) + row[symbol])
        alpha = nxt
    return -_logsumexp(alpha[-2:])


def ctc_mean_nll(log_probs, labels) -> float:
    """Batch mean of ``ctc_nll``; log_probs is [b, T, N]."""
    return sum(ctc_nll(lp, label) for lp, label in zip(log_probs, labels)) / len(labels)


def collapse(path) -> tuple:
    """Merge runs of the same class, then drop blanks."""
    out = []
    prev = None
    for k in path:
        k = int(k)
        if k != prev and k != BLANK:
            out.append(k)
        prev = k
    return tuple(out)


def ctc_nll_brute(log_probs, label) -> float:
    """-log of the summed probability of every path that collapses to label."""
    lp = np.asarray(log_probs, dtype=np.float64)
    steps, classes = lp.shape
    total = -math.inf
    for path in itertools.product(range(classes), repeat=steps):
        if collapse(path) == tuple(label):
            total = np.logaddexp(total, sum(lp[t, k] for t, k in enumerate(path)))
    return -float(total)


def greedy_decode(logits) -> list:
    """[b, T, N] logits -> one collapsed argmax path per sample."""
    return [collapse(row) for row in np.argmax(np.asarray(logits), axis=-1)]


def decayed(name: str) -> bool:
    """Weight matrices, kernels and the position table decay; biases and
    normalization affines do not."""
    return not name.endswith(("bias", "gamma", "beta"))


def adamw_update(p, g, m, v, step: int, lr: float, decay: bool,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8,
                 weight_decay: float = 0.05):
    """One AdamW step in f64: returns (new parameter, new m, new v).

    ``step`` counts from 1; m and v are the moments before the step.
    """
    p, g, m, v = (np.asarray(a, dtype=np.float64) for a in (p, g, m, v))
    m = beta1 * m + (1.0 - beta1) * g
    v = beta2 * v + (1.0 - beta2) * g * g
    m_hat = m / (1.0 - beta1 ** step)
    v_hat = v / (1.0 - beta2 ** step)
    shrunk = p * (1.0 - lr * weight_decay) if decay else p
    return shrunk - lr * m_hat / (np.sqrt(v_hat) + eps), m, v
