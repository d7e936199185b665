"""CTC loss against brute-force path enumeration, decoding against an
independent collapse implementation, and the metric helpers."""

import itertools
import math

import numpy as np
import pytest

from svtr import tensor as T
from svtr.ctc import (BLANK, Charset, LabelSeq, _forward_backward, collapse, ctc_loss,
                      edit_accuracy, greedy_decode, min_timesteps)
from svtr.exceptions import ContractError, DatasetError, FeasibilityError
from svtr.tensor import Tensor


def brute_force_nll(log_probs, label):
    """-log sum over all length-T class paths that collapse to the label."""
    T_, N = log_probs.shape
    total = -math.inf
    for path in itertools.product(range(N), repeat=T_):
        if collapse(path) == label:
            total = np.logaddexp(total, sum(log_probs[t, c] for t, c in enumerate(path)))
    return -total


def independent_collapse(path):
    out = []
    for cls in path:
        if not out or out[-1] != cls:
            out.append(int(cls))
    return tuple(c for c in out if c != BLANK)


def random_log_probs(rng, t, n):
    logits = rng.normal(size=(t, n))
    return logits - np.log(np.exp(logits).sum(axis=-1, keepdims=True))


# -- charset and labels ------------------------------------------------------

def test_charset_roundtrip():
    cs = Charset()
    assert cs.size == 37
    label = cs.encode("Hello7")
    assert cs.decode(label) == "hello7"


def test_charset_rejects_unknown():
    with pytest.raises(DatasetError):
        Charset().encode("héllo")


def test_charset_file_roundtrip(tmp_path):
    cs = Charset("abc123")
    path = tmp_path / "charset.txt"
    cs.to_file(path)
    assert Charset.from_file(path).symbols == "abc123"


def test_charset_file_line_with_two_symbols_is_rejected(tmp_path):
    path = tmp_path / "charset.txt"
    symbols = "0123456789abcdefghijklmnopqrstuv"
    path.write_text("\n".join([*symbols, "wx", "yz"]) + "\n", encoding="utf-8")
    with pytest.raises(ContractError, match=r"charset\.txt:33: .*'wx'"):
        Charset.from_file(path)


def test_charset_file_that_is_not_utf8_is_rejected(tmp_path):
    path = tmp_path / "charset.txt"
    path.write_bytes(b"a\n\xff\n")
    with pytest.raises(ContractError, match="not UTF-8"):
        Charset.from_file(path)


def test_label_rejects_blank():
    with pytest.raises(ContractError):
        LabelSeq((1, 0, 2))


# -- decoding ----------------------------------------------------------------

def test_collapse_all_blank():
    assert collapse([BLANK, BLANK, BLANK]) == ()


def test_collapse_dedup_then_strip():
    # a=1, b=2
    assert collapse([1, 1, BLANK, 1, 2, 2]) == (1, 1, 2)


def test_collapse_random_paths_match_reference():
    rng = np.random.default_rng(0)
    for _ in range(200):
        path = tuple(int(v) for v in rng.integers(0, 4, size=rng.integers(0, 8)))
        out = collapse(path)
        assert out == independent_collapse(path)
        assert BLANK not in out


def test_greedy_decode_matches_independent_collapse():
    rng = np.random.default_rng(7)
    logits = rng.normal(size=(1000, 5, 4))
    decoded = greedy_decode(logits)
    for row, got in zip(logits, decoded):
        assert got.indices == independent_collapse(np.argmax(row, axis=-1))


def test_greedy_decode_ties_to_lower_index():
    logits = np.zeros((1, 3, 4))
    assert greedy_decode(logits)[0].indices == ()


# -- loss --------------------------------------------------------------------

def test_single_timestep_single_alignment():
    lp = random_log_probs(np.random.default_rng(1), 1, 2)
    loss = ctc_loss(Tensor(lp[None]), [LabelSeq((1,))])
    assert np.isclose(float(loss.data), -lp[0, 1], atol=1e-9)


def test_two_timestep_three_alignments():
    lp = random_log_probs(np.random.default_rng(2), 2, 2)
    loss = ctc_loss(Tensor(lp[None]), [LabelSeq((1,))])
    # alignments: (a,a), (blank,a), (a,blank)
    p = (math.exp(lp[0, 1] + lp[1, 1]) + math.exp(lp[0, 0] + lp[1, 1])
         + math.exp(lp[0, 1] + lp[1, 0]))
    assert np.isclose(float(loss.data), -math.log(p), atol=1e-9)


def test_loss_matches_path_enumeration():
    rng = np.random.default_rng(3)
    cases = 0
    for t in range(1, 7):
        for n in range(2, 5):
            for length in range(0, 4):
                for _ in range(4):
                    lp = random_log_probs(rng, t, n)
                    label = LabelSeq(tuple(int(v) for v in
                                           rng.integers(1, n, size=length)))
                    if min_timesteps(label) > t:
                        continue
                    got = float(ctc_loss(Tensor(lp[None]), [label]).data)
                    want = brute_force_nll(lp, label.indices)
                    assert np.isclose(got, want, atol=1e-6), (t, n, label.indices)
                    cases += 1
    assert cases >= 200


def test_batch_loss_is_mean():
    rng = np.random.default_rng(4)
    lps = [random_log_probs(rng, 5, 3) for _ in range(3)]
    labels = [LabelSeq((1,)), LabelSeq((2, 1)), LabelSeq(())]
    singles = [float(ctc_loss(Tensor(lp[None]), [lab]).data)
               for lp, lab in zip(lps, labels)]
    batched = float(ctc_loss(Tensor(np.stack(lps)), labels).data)
    assert np.isclose(batched, np.mean(singles), atol=1e-6)


def test_batch_gradient_rows_equal_single_sample_gradients():
    # One batched recursion over labels of different lengths: padded states
    # must leave every sample's gradient bitwise what it is alone.
    rng = np.random.default_rng(9)
    t, n = 6, 4
    labels = [LabelSeq(()), LabelSeq((2,)), LabelSeq((1, 1, 3)),
              LabelSeq((1, 1, 2, 2))]            # the last needs exactly t steps
    assert min_timesteps(labels[-1]) == t
    lps = np.stack([random_log_probs(rng, t, n) for _ in labels]).astype(np.float32)
    b = len(labels)

    batch = Tensor(lps.copy(), requires_grad=True)
    loss = ctc_loss(batch, labels)
    loss.backward()
    batch_loss = float(loss.data)
    singles = []
    for i, label in enumerate(labels):
        one = Tensor(lps[i:i + 1].copy(), requires_grad=True)
        loss = ctc_loss(one, [label])
        loss.backward()
        singles.append(float(loss.data))
        np.testing.assert_array_equal(batch.grad[i], one.grad[0] * (1.0 / b))
    assert np.isclose(batch_loss, np.mean(singles), rtol=1e-6, atol=0.0)


def lone_forward_backward(lp, label):
    """Reference for one sample: separate alpha and beta recursions over the
    blank-interleaved label, in the log-space form of the batched one."""
    ninf = -np.inf
    ext = [BLANK]
    for c in label.indices:
        ext += [c, BLANK]
    S = len(ext)
    skip = np.array([s >= 2 and ext[s] != BLANK and ext[s] != ext[s - 2] for s in range(S)])
    e = lp[:, ext]                                                   # [T, S]
    alpha = np.full(e.shape, ninf)
    beta = np.full(e.shape, ninf)
    alpha[0, :2] = e[0, :2]
    beta[-1, max(S - 2, 0):] = e[-1, max(S - 2, 0):]
    for t in range(1, len(e)):
        prev = np.concatenate([[ninf, ninf], alpha[t - 1]])
        cand = np.logaddexp(prev[2:], prev[1:-1])
        alpha[t] = np.where(skip, np.logaddexp(cand, prev[:-2]), cand) + e[t]
    skip_next = np.concatenate([skip, [False, False]])[2:]
    for t in range(len(e) - 2, -1, -1):
        nxt = np.concatenate([beta[t + 1], [ninf, ninf]])
        cand = np.logaddexp(nxt[:-2], nxt[1:-1])
        beta[t] = np.where(skip_next, np.logaddexp(cand, nxt[2:]), cand) + e[t]
    log_p = np.logaddexp(alpha[-1, S - 1], alpha[-1, S - 2] if S > 1 else ninf)
    with np.errstate(invalid="ignore"):
        occupancy = np.exp(alpha + beta - e - log_p)
    occupancy = np.nan_to_num(occupancy, nan=0.0, posinf=0.0)
    grad = np.zeros(lp.shape)
    for s in range(S):
        grad[:, ext[s]] -= occupancy[:, s]
    return -log_p, grad


def test_single_recursion_matches_separate_alpha_beta_bitwise():
    # Beta read back from the time-reversed half of the batch must carry the
    # bits of a beta recursion: empty labels, repeats, -inf log-probs and
    # infeasible labels included.
    rng = np.random.default_rng(2006)
    for _ in range(300):
        b, t, n = int(rng.integers(1, 7)), int(rng.integers(1, 11)), int(rng.integers(2, 6))
        lps = np.stack([random_log_probs(rng, t, n) for _ in range(b)])
        lps = lps.astype(np.float32).astype(np.float64)
        lps[rng.random(lps.shape) < 0.05] = -np.inf
        labels = [LabelSeq(tuple(int(c) for c in rng.integers(1, min(n, 3), size=length)))
                  for length in rng.integers(0, t // 2 + 2, size=b)]
        with np.errstate(divide="ignore", invalid="ignore"):
            nll, grad = _forward_backward(lps, labels)
            for i, label in enumerate(labels):
                want_nll, want_grad = lone_forward_backward(lps[i], label)
                assert nll[i].tobytes() == np.float64(want_nll).tobytes()
                assert grad[i].tobytes() == want_grad.tobytes()


@pytest.mark.parametrize("make, fragment", [
    (lambda: Charset("abca"), "charset symbols must be unique"),
    (lambda: Charset(""), "charset needs at least one non-blank symbol"),
    (lambda: LabelSeq((1, -2)), "label indices must be non-negative"),
    (lambda: greedy_decode(np.zeros((4, 3))), "greedy_decode expects [b, T, N] logits, got (4, 3)"),
    (lambda: greedy_decode(np.array([[[0.0, np.nan]]])), "hold NaN or infinite values"),
    (lambda: ctc_loss(Tensor(np.zeros((4, 3))), []), "ctc_loss expects [b, T, N] log probs"),
    (lambda: ctc_loss(Tensor(np.zeros((2, 4, 3))), [LabelSeq((1,))]),
     "batch size 2 != number of labels 1"),
    (lambda: ctc_loss(Tensor(np.zeros((1, 4, 3))), [LabelSeq((3,))]),
     "sample 0: label index out of range for 3 classes"),
], ids=["charset-duplicate", "charset-empty", "label-negative", "decode-rank",
        "decode-non-finite", "loss-rank", "loss-label-count", "loss-label-index"])
def test_bad_ctc_input_is_a_contract_error(make, fragment):
    with pytest.raises(ContractError) as exc:
        make()
    assert type(exc.value) is ContractError
    assert fragment in str(exc.value)


def test_empty_batch_raises():
    with pytest.raises(ContractError):
        ctc_loss(Tensor(np.zeros((0, 4, 3))), [])


def test_infeasible_label_raises():
    # a repeated symbol needs a separating blank, so (1, 1) cannot fit in T=2
    lp = Tensor(np.zeros((1, 2, 3)))
    with pytest.raises(FeasibilityError) as exc:
        ctc_loss(lp, [LabelSeq((1, 1))])
    assert "3 timesteps" in str(exc.value)


def test_min_timesteps_counts_repeats():
    assert min_timesteps(LabelSeq(())) == 0
    assert min_timesteps(LabelSeq((1, 2, 3))) == 3
    assert min_timesteps(LabelSeq((1, 1, 1))) == 5


def test_loss_gradient_vs_finite_differences():
    rng = np.random.default_rng(5)
    base = random_log_probs(rng, 4, 3)
    label = LabelSeq((1, 2))

    x = Tensor(base[None].copy(), requires_grad=True)
    ctc_loss(x, [label]).backward()

    h = 1e-6
    numeric = np.zeros_like(base)
    for t in range(4):
        for k in range(3):
            plus, minus = base.copy(), base.copy()
            plus[t, k] += h
            minus[t, k] -= h
            numeric[t, k] = (float(ctc_loss(Tensor(plus[None]), [label]).data)
                             - float(ctc_loss(Tensor(minus[None]), [label]).data)) / (2 * h)
    np.testing.assert_allclose(x.grad[0], numeric, atol=1e-5)


def test_gradient_through_log_softmax_sums_to_zero():
    # chain rule through the normalization makes each row's gradient sum zero
    rng = np.random.default_rng(6)
    logits = Tensor(rng.normal(size=(2, 6, 4)), requires_grad=True)
    ctc_loss(T.log_softmax(logits), [LabelSeq((1, 2)), LabelSeq((3,))]).backward()
    np.testing.assert_allclose(logits.grad.sum(axis=-1), 0.0, atol=1e-5)


def test_loss_invariant_under_class_permutation():
    # relabeling non-blank classes consistently leaves the loss unchanged
    rng = np.random.default_rng(8)
    lp = random_log_probs(rng, 6, 4)
    perm = np.array([0, 3, 1, 2])  # blank fixed
    permuted = np.full_like(lp, -np.inf)
    permuted[:, perm] = lp
    a = float(ctc_loss(Tensor(lp[None]), [LabelSeq((1, 2))]).data)
    b = float(ctc_loss(Tensor(permuted[None]), [LabelSeq((int(perm[1]), int(perm[2])))]).data)
    assert np.isclose(a, b, atol=1e-9)


# -- metrics -----------------------------------------------------------------

def test_edit_accuracy_identical():
    acc = edit_accuracy(LabelSeq((1, 2, 3)), LabelSeq((1, 2, 3)))
    assert acc.exact and acc.norm_edit_sim == 1.0


def test_edit_accuracy_one_substitution():
    acc = edit_accuracy(LabelSeq((1, 2, 3)), LabelSeq((1, 2, 4)))
    assert not acc.exact
    assert np.isclose(acc.norm_edit_sim, 2 / 3)


def test_edit_accuracy_both_empty():
    acc = edit_accuracy(LabelSeq(()), LabelSeq(()))
    assert acc.exact and acc.norm_edit_sim == 1.0
