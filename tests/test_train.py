"""Training-loop contracts: determinism, no-op steps, early descent, and the
evaluation helper."""

import types

import numpy as np
import pytest

from conftest import run_python
from svtr.ctc import Charset
from svtr.data import gen_dataset
from svtr.exceptions import ContractError, FeasibilityError
from svtr.gradcheck import micro_config
from svtr.model import SvtrModel
from svtr.train import METRICS_HEADER, evaluate, train

# four symbols + blank, matching the micro architecture's five classes
TINY_CHARSET = Charset("abcd")


def tiny_dataset(n=8, seed=0):
    cfg = micro_config()
    return gen_dataset(n, TINY_CHARSET, (1, 3), cfg.input_h, cfg.input_w, seed=seed)


def test_lr_zero_is_noop_on_parameters():
    model = SvtrModel(micro_config(), seed=0)
    before = {k: p.data.copy() for k, p in model.params.items()}
    history = train(model, tiny_dataset(), epochs=1, batch_size=8, peak_lr=0.0)
    assert np.isfinite(history[0].loss)
    for name, p in model.params.items():
        np.testing.assert_array_equal(p.data, before[name])


def test_same_seed_gives_identical_curves():
    runs = []
    for _ in range(2):
        model = SvtrModel(micro_config(), seed=5)
        runs.append(train(model, tiny_dataset(), epochs=3, batch_size=4,
                          seed=5, peak_lr=1e-3))
    assert [m.loss for m in runs[0]] == [m.loss for m in runs[1]]
    assert [m.accuracy for m in runs[0]] == [m.accuracy for m in runs[1]]


def test_loss_trend_decreases_over_first_steps():
    # single fixed batch so per-epoch loss is the per-step loss
    model = SvtrModel(micro_config(), seed=1)
    data = tiny_dataset(4, seed=1)
    history = train(model, data, epochs=10, batch_size=4, seed=1,
                    peak_lr=5e-3, warmup_epochs=1)
    losses = [m.loss for m in history]
    violations = sum(b >= a for a, b in zip(losses, losses[1:]))
    assert violations <= 2, losses


def test_empty_dataset_rejected():
    model = SvtrModel(micro_config(), seed=0)
    with pytest.raises(ContractError):
        train(model, [], epochs=1, batch_size=4)


@pytest.mark.parametrize("kwargs", [
    {"peak_lr": float("nan")}, {"peak_lr": float("inf")}, {"peak_lr": -1e-3},
    {"warmup_epochs": -1},
    {"epochs": 0}, {"epochs": -1}, {"batch_size": 0}, {"batch_size": -8}])
def test_bad_schedule_rejected(kwargs):
    model = SvtrModel(micro_config(), seed=0)
    with pytest.raises(ContractError):
        train(model, tiny_dataset(), **{"epochs": 1, "batch_size": 8, **kwargs})


@pytest.mark.parametrize("batch_size", [0, -1])
def test_evaluate_bad_batch_size_rejected(batch_size):
    model = SvtrModel(micro_config(), seed=0)
    with pytest.raises(ContractError, match="batch_size must be at least 1"):
        evaluate(model, tiny_dataset(2), batch_size=batch_size)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_non_finite_weight_stops_training_at_step_zero():
    model = SvtrModel(micro_config(), seed=0)
    model.params["head.bias"].data[0] = np.nan
    with pytest.raises(ContractError, match="training diverged: non-finite loss nan at step 0"):
        train(model, tiny_dataset(), epochs=1, batch_size=8)


def test_infeasible_label_rejected_before_training():
    from svtr.ctc import LabelSeq
    from svtr.data import LabeledSample
    cfg = micro_config()  # 8 output positions
    model = SvtrModel(cfg, seed=0)
    image = np.zeros((3, cfg.input_h, cfg.input_w), dtype=np.float32)
    bad = [LabeledSample(image, LabelSeq((1, 2) * 5), "too-long")]
    with pytest.raises(FeasibilityError):
        train(model, bad, epochs=1, batch_size=1)


def test_checkpoints_and_log_written(tmp_path):
    model = SvtrModel(micro_config(), seed=2)
    log = tmp_path / "metrics.tsv"
    train(model, tiny_dataset(), epochs=2, batch_size=8, peak_lr=1e-3,
          checkpoint_dir=tmp_path / "ckpt", log_path=log)
    assert (tmp_path / "ckpt" / "last.ckpt").exists()
    assert (tmp_path / "ckpt" / "best.ckpt").exists()
    lines = log.read_text().splitlines()
    assert lines[0] + "\n" == METRICS_HEADER
    assert len(lines) == 3  # header plus one row per epoch


def test_bn_stats_move_during_training_not_eval():
    model = SvtrModel(micro_config(), seed=3)
    x = np.random.default_rng(0).uniform(size=(2, 3, 16, 32)).astype(np.float32)
    running_mean = model.buffers["embed.bn1.running_mean"]
    frozen = running_mean.copy()
    model.eval()
    model.forward(x)
    np.testing.assert_array_equal(running_mean, frozen)
    model.train()
    model.forward(x)
    assert not np.array_equal(running_mean, frozen)


def test_evaluate_empty_dataset():
    model = SvtrModel(micro_config(), seed=0)
    report = evaluate(model, [])
    assert report.word_accuracy == 0.0
    assert report.warning == "empty evaluation dataset"


def test_evaluate_deterministic_and_restores_mode():
    model = SvtrModel(micro_config(), seed=4).train()
    data = tiny_dataset(6, seed=2)
    a = evaluate(model, data)
    b = evaluate(model, data)
    assert model.training  # mode restored
    assert a.word_accuracy == b.word_accuracy
    assert a.preds == b.preds


def test_evaluate_perfect_predictions_score_one():
    model = SvtrModel(micro_config(), seed=5).eval()
    data = tiny_dataset(4, seed=3)
    from svtr.ctc import greedy_decode
    from svtr.data import LabeledSample
    logits = model.forward(np.stack([s.image for s in data]))
    decoded = greedy_decode(logits)
    relabeled = [LabeledSample(s.image, pred, s.id)
                 for s, pred in zip(data, decoded)]
    report = evaluate(model, relabeled)
    assert report.word_accuracy == 1.0
    assert report.norm_edit_sim == 1.0


def test_validation_split_holds_out_samples():
    model = SvtrModel(micro_config(), seed=6)
    history = train(model, tiny_dataset(8, seed=4), epochs=1, batch_size=4,
                    peak_lr=1e-3, val_fraction=0.25)
    assert 0.0 <= history[0].accuracy <= 1.0


def test_package_does_not_shadow_the_train_module():
    import svtr.train as module
    assert isinstance(module, types.ModuleType)
    assert module.train is train


def test_a_validation_split_of_every_sample_is_rejected():
    model = SvtrModel(micro_config(), seed=0)
    with pytest.raises(ContractError) as exc:
        train(model, tiny_dataset(1), epochs=1, batch_size=8, val_fraction=0.6)
    assert type(exc.value) is ContractError
    assert "validation split consumed the whole dataset" in str(exc.value)


@pytest.mark.parametrize("val_fraction", [float("nan"), float("inf"), -0.5, 1.0])
def test_bad_val_fraction_rejected(val_fraction):
    model = SvtrModel(micro_config(), seed=0)
    with pytest.raises(ContractError, match="val_fraction"):
        train(model, tiny_dataset(), epochs=1, batch_size=8, val_fraction=val_fraction)


def test_training_and_eval_leave_no_reference_cycles():
    # With the collector off, the graph must die by reference counting alone:
    # afterwards only the parameters' leaf nodes are alive, and a collection
    # finds nothing.  A rule that captured its own output would fail both.
    run_python("""
        import gc
        import numpy as np
        from svtr import tensor as T
        from svtr.config import PRESETS
        from svtr.ctc import Charset
        from svtr.data import gen_dataset
        from svtr.model import SvtrModel
        from svtr.train import train

        cfg = PRESETS["svtr-micro"]
        data = gen_dataset(32, Charset(), (1, 5), cfg.input_h, cfg.input_w, seed=123)
        model = SvtrModel(cfg, seed=42)
        gc.collect()
        gc.disable()
        train(model, data, epochs=2, batch_size=16, peak_lr=0.03)
        model.eval_logits(np.stack([s.image for s in data[:4]]))
        leaves = sorted(id(p._node) for p in model.params.values())
        alive = sorted(id(o) for o in gc.get_objects() if type(o) is T._Node)
        assert alive == leaves, f"{len(alive)} nodes alive, {len(leaves)} parameters"
        unreachable = gc.collect()
        assert unreachable == 0, f"{unreachable} unreachable objects"
        """)
