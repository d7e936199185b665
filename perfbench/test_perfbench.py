"""The benchmark's own tests: span arithmetic, percentile choice, the
reference computations, the compare verdicts, and the tracer on one
svtr-micro step.  They run in a few seconds:

    python3 -m pytest -q perfbench
"""

import itertools
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402


# -- span self time ----------------------------------------------------------

def test_self_time_subtracts_children():
    # parent [0, 10]; children [1, 3] and [5, 6]; grandchild [1.5, 2.5].
    start = [0.0, 1.0, 5.0, 1.5]
    end = [10.0, 3.0, 6.0, 2.5]
    parent = [-1, 0, 0, 1]
    assert spans.self_times(start, end, parent) == pytest.approx([7.0, 1.0, 1.0, 1.0])


def test_covered_length_takes_union_clipped_to_parent():
    assert spans.covered_length(0, 10, [(1, 4), (3, 5), (9, 12), (-2, -1)]) == pytest.approx(5.0)
    assert spans.covered_length(0, 10, []) == 0.0
    assert spans.covered_length(2, 3, [(0, 10)]) == pytest.approx(1.0)


# -- percentile choice -------------------------------------------------------

@pytest.mark.parametrize("n, want", [
    (1, None), (39, None), (40, 75.0), (99, 75.0), (100, 90.0), (199, 90.0),
    (200, 95.0), (999, 95.0), (1000, 99.0), (9999, 99.0), (10000, 99.9)])
def test_tail_percentile_keeps_ten_samples_beyond(n, want):
    assert stats.tail_percentile(n) == want


def test_percentile_is_nearest_rank():
    values = list(range(100, 0, -1))       # 1..100, unsorted
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 99) == 99
    assert stats.percentile(values, 100) == 100
    assert stats.percentile([7.0], 90) == 7.0


# -- reference computations --------------------------------------------------

def _log_probs(rng, t, n):
    logits = rng.normal(size=(t, n))
    return logits - np.log(np.exp(logits).sum(axis=-1, keepdims=True))


@pytest.mark.parametrize("label", [(1,), (2, 1), (1, 1), (2, 2, 1), (1, 2, 1)])
def test_reference_ctc_matches_brute_force(label):
    rng = np.random.default_rng(len(label))
    for steps in range(max(2, len(label) + 1), 6):
        lp = _log_probs(rng, steps, 3)
        assert reference.ctc_nll(lp, label) == pytest.approx(
            reference.ctc_nll_brute(lp, label), rel=1e-10)


def test_reference_ctc_infeasible_label_has_infinite_loss():
    lp = _log_probs(np.random.default_rng(0), 2, 3)
    assert reference.ctc_nll(lp, (1, 1)) == np.inf    # needs 3 steps


def test_reference_greedy_decode_collapses_runs_then_blanks():
    path = [0, 1, 1, 0, 1, 2, 2, 0]
    logits = np.eye(3)[path][None]
    assert reference.greedy_decode(logits) == [(1, 1, 2)]
    assert all(reference.collapse(p) == () for p in itertools.product([0], repeat=3))


def test_reference_adamw_first_step_is_sign_step_plus_decay():
    p = np.array([0.5, -0.25])
    g = np.array([0.1, -3.0])
    lr, wd = 1e-2, 0.05
    new, m, v = reference.adamw_update(p, g, np.zeros(2), np.zeros(2), 1, lr, decay=True,
                                       weight_decay=wd)
    # Step 1: m_hat = g and v_hat = g^2, so the Adam part is lr * sign(g).
    assert new == pytest.approx(p * (1 - lr * wd) - lr * np.sign(g), rel=1e-6)
    # A constant gradient keeps m_hat = g and v_hat = g^2 at step 2 as well.
    kept, _, _ = reference.adamw_update(p, g, m, v, 2, lr, decay=False)
    assert kept == pytest.approx(p - lr * g / (np.abs(g) + 1e-8), rel=1e-6)
    assert reference.decayed("stage1.block0.mlp.fc1.weight")
    assert not reference.decayed("stage1.block0.norm1.gamma")


# -- compare verdicts --------------------------------------------------------

def test_verdict_gain_needs_nine_tenths_and_a_gap_beyond_the_spread():
    parent = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]
    faster = [x * 0.8 for x in parent]
    assert compare.verdict(parent, faster, "lower", 0.1) == ("gain", 1.0)
    assert compare.verdict(parent, parent, "lower", 0.1)[0] == "no regression"
    slower = [x * 1.2 for x in parent]
    assert compare.verdict(parent, slower, "lower", 0.1) == ("REGRESSION", 0.0)
    assert compare.verdict(parent, slower, "higher", 0.1) == ("gain", 1.0)


def test_verdict_wide_parent_spread_is_unresolved():
    parent = [1.0, 2.0, 1.0, 2.0]
    change = [1.5, 1.5, 1.5, 1.5]
    assert compare.verdict(parent, change, "lower", 0.1)[0] == "unresolved"


def test_compare_voids_a_gain_where_more_operations_fail(tmp_path, capsys):
    import json

    spec = {"end_to_end": [{"name": "step_s_min", "better": "lower", "bound": 0.1}],
            "per_layer": []}
    for side, scale, failed in (("parent", 1.0, 0), ("change", 0.5, 1)):
        (tmp_path / side).mkdir()
        for seed in range(10):
            record = {"workload": "t-train", "trace": 0, "seed": seed, "attempted": 14,
                      "failed": failed,
                      "metrics": {"step_s_min": {"value": scale * (1 + seed / 100), "unit": "s"}}}
            (tmp_path / side / f"t-train-s{seed}-t0.json").write_text(json.dumps(record))
    assert compare.compare(tmp_path / "parent", tmp_path / "change", spec) == 0
    out = capsys.readouterr().out
    assert "no gain (more failed)" in out and "gains: none" in out


# -- failure counting --------------------------------------------------------

def test_attempt_counts_the_programs_own_errors_and_lets_others_through():
    import argparse
    import workloads

    run = workloads.Run(argparse.Namespace(seed=1, seconds=1.0, trace=0, work="unused"))

    def render():
        raise workloads.SvtrError("too wide")

    assert run.attempt(render, weight=8) is None
    assert run.attempt(int, "17", base=8) == 15
    assert run.failed == 8
    assert run.errors == ["render: SvtrError: too wide"]
    with pytest.raises(ZeroDivisionError):
        run.attempt(divmod, 1, 0)


# -- the tracer on svtr-micro ------------------------------------------------

def test_tracer_covers_one_micro_step_and_restores_the_program():
    T = pytest.importorskip("svtr.tensor")
    import importlib
    from svtr.config import PRESETS
    from svtr.ctc import Charset
    from svtr.data import gen_dataset
    from svtr.model import SvtrModel
    from svtr.train import train

    train_mod = importlib.import_module("svtr.train")
    original_evaluate = train_mod.evaluate
    cfg = PRESETS["svtr-micro"]
    corpus = gen_dataset(16, Charset(), (1, 3), cfg.input_h, cfg.input_w, seed=0)
    original_matmul = T.matmul
    tracer = spans.Tracer()
    patches = spans.install(tracer)
    try:
        train(SvtrModel(cfg, seed=0), corpus, epochs=1, batch_size=16, seed=0)
    finally:
        patches.undo()
    assert T.matmul is original_matmul
    assert train_mod.evaluate is original_evaluate

    flops = {"embed": 1, "stage1": 1, "head": 1}
    metrics, coverage = spans.summarize(tracer, "train.step", flops)
    assert tracer.name.count("train.step") == 1
    assert metrics["model.forward_s"] > 0 and metrics["tensor.backward_s"] > 0
    assert metrics["tensor.graph_nodes"] > 0 and metrics["tensor.eval_graph_nodes"] > 0
    assert metrics["model.stage1.bwd_s"] > 0 and metrics["model.head.fwd_s"] > 0
    for name, ratio in coverage.items():
        assert 0.5 < ratio <= 1.0, name
