"""Command-line behavior: outputs, exit codes, and end-to-end flows."""

import argparse

import numpy as np
import pytest

import svtr.cli
import svtr.data
from svtr.checkpoint import restore_model, save_checkpoint
from svtr.cli import main
from svtr.config import PRESETS
from svtr.ctc import Charset, LabelSeq, greedy_decode
from svtr.data import load_image, read_pnm
from svtr.model import SvtrModel


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_params_reports_totals(capsys):
    code, out, err = run(capsys, "params", "--config", "svtr-t")
    assert code == 0 and not err
    assert "4.15 M" in out
    assert "embed" in out and "stage1" in out and "head" in out


def test_params_breakdown_sums(capsys):
    code, out, _ = run(capsys, "params", "--config", "svtr-micro")
    rows = {}
    total_incl = None
    for line in out.splitlines():
        parts = line.split()
        if len(parts) >= 2 and parts[1].replace(",", "").isdigit():
            if parts[0] == "total":
                if "incl." in line:
                    total_incl = int(parts[1].replace(",", ""))
            else:
                rows[parts[0]] = int(parts[1].replace(",", ""))
    assert total_incl == sum(rows.values())


def test_flops_prints_both_conventions(capsys):
    code, out, err = run(capsys, "flops", "--config", "svtr-t")
    assert code == 0 and not err
    assert "1-MAC convention" in out
    assert "2-FLOP convention" in out
    assert "quadratic" in out


@pytest.mark.parametrize("height", ["0", "-16", "18"])
def test_flops_invalid_height_is_one_error_line(capsys, height):
    code, out, err = run(capsys, "flops", "--config", "svtr-t", "--input-h", height)
    assert code == 1 and not out
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_unknown_config_fails_cleanly(capsys):
    code, out, err = run(capsys, "params", "--config", "svtr-xxl")
    assert code == 1
    assert err.startswith("error:")
    assert "total" not in out


def test_missing_checkpoint_fails_cleanly(capsys, tmp_path):
    code, _, err = run(capsys, "infer", "--config", "svtr-micro",
                       "--checkpoint", str(tmp_path / "nope.ckpt"),
                       "--image", str(tmp_path / "nope.ppm"))
    assert code == 1
    assert err.startswith("error:")


def test_gen_data_layout(capsys, tmp_path):
    out_dir = tmp_path / "corpus"
    code, out, _ = run(capsys, "gen-data", "--out", str(out_dir), "--n", "5",
                       "--height", "16", "--width", "64")
    assert code == 0
    assert "wrote 5 samples" in out
    assert (out_dir / "labels.tsv").exists()
    assert len(list((out_dir / "images").glob("*.ppm"))) == 5


@pytest.mark.parametrize("argv", [
    ("train", "--config", "svtr-micro", "--epochs", "1", "--batch-size", "0"),
    ("train", "--config", "svtr-micro", "--epochs", "0"),
    ("train", "--config", "svtr-micro", "--epochs", "1", "--synth", "-3"),
    ("gen-data", "--out", "unused", "--n", "-1"),
], ids=["batch-size", "epochs", "synth", "n"])
def test_non_positive_count_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert err.startswith("usage:")
    assert f"error: argument {argv[-2]}: must be a positive integer" in err


@pytest.mark.parametrize("argv", [
    ("train", "--config", "svtr-micro", "--epochs", "1", "--lr", "nan"),
    ("train", "--config", "svtr-micro", "--epochs", "1", "--warmup-epochs", "-3"),
], ids=["lr", "warmup-epochs"])
def test_bad_schedule_value_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert f"error: argument {argv[-2]}: must be a " in err


@pytest.mark.parametrize("argv", [
    ("train", "--config", "svtr-micro", "--epochs", "1", "--val-fraction", "nan"),
    ("train", "--config", "svtr-micro", "--epochs", "1", "--val-fraction", "-0.5"),
    ("train", "--config", "svtr-micro", "--epochs", "1", "--val-fraction", "1"),
    ("gen-data", "--out", "unused", "--n", "1", "--noise-sigma", "nan"),
    ("gen-data", "--out", "unused", "--n", "1", "--noise-sigma", "-1"),
], ids=["val-fraction-nan", "val-fraction-negative", "val-fraction-one",
        "noise-sigma-nan", "noise-sigma-negative"])
def test_out_of_range_float_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert f"error: argument {argv[-2]}: must be a " in err


def test_train_without_data_fits_a_synthetic_corpus(capsys, tmp_path):
    code, out, err = run(capsys, "train", "--config", "svtr-micro", "--synth", "4",
                         "--epochs", "1", "--batch-size", "4", "--out", str(tmp_path))
    assert code == 0 and not err
    assert out.startswith("epoch 0: loss ")
    assert (tmp_path / "last.ckpt").exists()


def test_train_into_an_unmakeable_out_dir_writes_no_log(capsys, tmp_path):
    # The checkpoint directory is made before the log is opened, so a
    # failure to make it leaves no log file and no open handle behind.
    blocker = tmp_path / "file"
    blocker.write_text("")
    log = tmp_path / "m.tsv"
    code, out, err = run(capsys, "train", "--config", "svtr-micro", "--synth", "4",
                         "--epochs", "1", "--batch-size", "4",
                         "--out", str(blocker / "ckpt"), "--log", str(log))
    assert code == 1 and not out
    assert err.splitlines() == [err.strip()]
    assert not log.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_diverging_train_is_one_error_line(capsys, tmp_path):
    # Two steps an epoch: step 0's update blows the model up, and step 1's
    # loss reports it before the epoch's evaluation would.
    code, out, err = run(capsys, "train", "--config", "svtr-micro", "--synth", "8",
                         "--epochs", "3", "--batch-size", "4", "--lr", "1e30",
                         "--warmup-epochs", "0", "--out", str(tmp_path))
    assert code == 1 and not out
    assert err.splitlines() == [err.strip()]
    assert err.startswith("error: training diverged: non-finite loss nan at step 1")


@pytest.mark.filterwarnings("error")
def test_last_step_blowing_up_the_model_is_one_error_line(capsys, tmp_path):
    # The only step's update blows the model up, so no later loss is there
    # to go non-finite; the epoch's evaluation reports it.
    code, out, err = run(capsys, "train", "--config", "svtr-micro", "--synth", "4",
                         "--epochs", "1", "--batch-size", "4", "--lr", "1e30",
                         "--warmup-epochs", "0", "--out", str(tmp_path))
    assert code == 1 and not out
    assert err.splitlines() == [err.strip()]
    assert err.startswith("error: logits (4, 16, 37) hold NaN or infinite values")
    assert not list(tmp_path.glob("*.ckpt"))


@pytest.mark.parametrize("argv", [("gen-data", "--out", "unused", "--n", "1"),
                                  ("train", "--config", "svtr-micro", "--epochs", "1")],
                         ids=["gen-data", "train"])
def test_negative_seed_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(["--seed", "-1", *argv])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert err.startswith("usage:")
    assert "error: argument --seed: must be a non-negative integer" in err


def test_charset_of_another_size_is_one_error_line(capsys, tmp_path):
    charset = tmp_path / "charset.txt"
    charset.write_text("a\nb\nc\n", encoding="utf-8")
    code, out, err = run(capsys, "train", "--config", "svtr-micro", "--epochs", "1",
                         "--charset", str(charset))
    assert code == 1 and not out
    assert err == "error: charset has 4 classes but config expects 37\n"


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """One short CLI training run shared by the downstream command tests."""
    root = tmp_path_factory.mktemp("cli-flow")
    data_dir = root / "data"
    ckpt_dir = root / "ckpt"
    assert main(["gen-data", "--out", str(data_dir), "--n", "8",
                 "--height", "16", "--width", "64"]) == 0
    assert main(["train", "--config", "svtr-micro", "--data", str(data_dir),
                 "--epochs", "2", "--batch-size", "8", "--lr", "1e-3",
                 "--out", str(ckpt_dir), "--log", str(root / "metrics.tsv")]) == 0
    return root


def test_train_writes_checkpoints_and_log(trained):
    assert (trained / "ckpt" / "last.ckpt").exists()
    assert (trained / "ckpt" / "best.ckpt").exists()
    lines = (trained / "metrics.tsv").read_text().splitlines()
    assert lines[0].startswith("#") and len(lines) == 3


def test_eval_prints_metrics(capsys, trained):
    code, out, _ = run(capsys, "eval", "--config", "svtr-micro",
                       "--checkpoint", str(trained / "ckpt" / "last.ckpt"),
                       "--data", str(trained / "data"))
    assert code == 0
    assert "word_accuracy" in out and "norm_edit_sim" in out


def test_eval_on_an_empty_corpus_prints_a_warning(capsys, trained, tmp_path):
    (tmp_path / "labels.tsv").write_text("")
    code, out, _ = run(capsys, "eval", "--config", "svtr-micro",
                       "--checkpoint", str(trained / "ckpt" / "last.ckpt"),
                       "--data", str(tmp_path))
    assert code == 0
    assert out.splitlines()[0] == "warning: empty evaluation dataset"
    assert "word_accuracy\t0.000000" in out


def test_infer_outputs_one_line_per_image(capsys, trained):
    images = sorted((trained / "data" / "images").glob("*.ppm"))[:2]
    code, out, _ = run(capsys, "infer", "--config", "svtr-micro",
                       "--checkpoint", str(trained / "ckpt" / "last.ckpt"),
                       "--image", *[str(p) for p in images])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    for line, path in zip(lines, images):
        assert line.startswith(str(path) + "\t")


def test_infer_rejects_non_finite_image(capsys, trained, monkeypatch):
    image = sorted((trained / "data" / "images").glob("*.ppm"))[0]
    monkeypatch.setattr(svtr.data, "read_pnm", lambda path: np.full((3, 16, 64), np.nan,
                                                                    dtype=np.float32))
    code, out, err = run(capsys, "infer", "--config", "svtr-micro",
                         "--checkpoint", str(trained / "ckpt" / "last.ckpt"),
                         "--image", str(image))
    assert code == 1 and not out
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "NaN" in err


def test_infer_deterministic(capsys, trained):
    image = sorted((trained / "data" / "images").glob("*.ppm"))[0]
    outputs = []
    for _ in range(2):
        code, out, _ = run(capsys, "infer", "--config", "svtr-micro",
                           "--checkpoint", str(trained / "ckpt" / "last.ckpt"),
                           "--image", str(image))
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_infer_dump_logits_holds_one_array_per_image_that_decodes_to_the_printed_text(
        capsys, trained, tmp_path):
    images = [str(p) for p in sorted((trained / "data" / "images").glob("*.ppm"))[:2]]
    dump = tmp_path / "logits.npz"
    code, out, _ = run(capsys, "infer", "--config", "svtr-micro",
                       "--checkpoint", str(trained / "ckpt" / "last.ckpt"),
                       "--image", *images, "--dump-logits", str(dump))
    assert code == 0
    printed = dict(line.split("\t") for line in out.splitlines())
    config = PRESETS["svtr-micro"]
    with np.load(dump) as arrays:
        assert sorted(arrays.files) == images
        for path in images:
            logits = arrays[path]
            assert logits.shape == (config.seq_len, config.charset_size)
            assert Charset().decode(greedy_decode(logits[None])[0]) == printed[path]


def test_infer_dump_logits_writes_the_file_it_names(capsys, trained, tmp_path):
    image = str(sorted((trained / "data" / "images").glob("*.ppm"))[0])
    dump = tmp_path / "out.bin"
    code, _, _ = run(capsys, "infer", "--config", "svtr-micro",
                     "--checkpoint", str(trained / "ckpt" / "last.ckpt"),
                     "--image", image, "--dump-logits", str(dump))
    assert code == 0
    assert not (tmp_path / "out.bin.npz").exists()
    with np.load(dump) as arrays:
        assert arrays.files == [image]


def test_infer_dump_logits_rejects_a_repeated_image(capsys, trained, tmp_path):
    image = str(sorted((trained / "data" / "images").glob("*.ppm"))[0])
    dump = tmp_path / "logits.npz"
    code, out, err = run(capsys, "infer", "--config", "svtr-micro",
                         "--checkpoint", str(trained / "ckpt" / "last.ckpt"),
                         "--image", image, image, "--dump-logits", str(dump))
    assert code == 1 and not out
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert not dump.exists()


def _predicted_char(trained):
    """The first image, the character the trained model predicts in its last
    column, and the first column predicting that character."""
    image = sorted((trained / "data" / "images").glob("*.ppm"))[0]
    config = PRESETS["svtr-micro"]
    model, _ = restore_model(trained / "ckpt" / "last.ckpt", expected_config=config)
    model.eval()
    logits = model.forward(load_image(image, config.input_h, config.input_w)[None])
    path = np.argmax(logits.data[0], axis=-1)
    target = int(path[-1])
    assert target != 0, "the last column must predict a character"
    column = int(np.nonzero(path == target)[0][0])
    return image, Charset().decode(LabelSeq((target,))), column


def test_attn_dump_char_queries_the_centre_row_of_the_first_column_predicting_it(
        capsys, trained, tmp_path):
    image, char, column = _predicted_char(trained)
    h, w, _ = PRESETS["svtr-micro"].stage_geometry()[1]
    code, out, _ = run(capsys, "attn-dump", "--config", "svtr-micro",
                       "--checkpoint", str(trained / "ckpt" / "last.ckpt"),
                       "--image", str(image),
                       "--stage", "2", "--block", "0", "--head", "0", "--char", char,
                       "--out", str(tmp_path))
    assert code == 0
    assert out.strip() == str(tmp_path / f"attn_s2_b0_h0_q{(h // 2) * w + column}.pgm")


@pytest.mark.parametrize("stage", ["0", "4", "5"])
def test_attn_dump_stage_out_of_range_is_a_usage_error(capsys, trained, stage):
    with pytest.raises(SystemExit) as exc:
        main(["attn-dump", "--config", "svtr-micro",
              "--checkpoint", str(trained / "ckpt" / "last.ckpt"),
              "--image", "unused.ppm", "--stage", stage, "--block", "0", "--query", "0"])
    assert exc.value.code == 2
    assert "error: argument --stage: invalid choice" in capsys.readouterr().err


@pytest.mark.parametrize("extra", [("--block", "1", "--query", "0"),
                                   ("--block", "0", "--head", "2", "--query", "0"),
                                   ("--block", "0", "--query", "32"),
                                   ("--block", "0", "--query", "-1"),
                                   ("--block", "0", "--char", "")],
                         ids=["block", "head", "query", "negative-query", "empty-char"])
def test_attn_dump_range_error_is_one_error_line(capsys, trained, extra):
    image = sorted((trained / "data" / "images").glob("*.ppm"))[0]
    code, out, err = run(capsys, "attn-dump", "--config", "svtr-micro",
                         "--checkpoint", str(trained / "ckpt" / "last.ckpt"),
                         "--image", str(image), "--stage", "2", *extra)
    assert code == 1 and not out
    assert err.startswith("error:") and len(err.splitlines()) == 1


@pytest.mark.parametrize("query", [("--query", "3", "--char", "a"), ()], ids=["both", "neither"])
def test_attn_dump_takes_exactly_one_of_query_and_char(capsys, trained, query):
    image = sorted((trained / "data" / "images").glob("*.ppm"))[0]
    with pytest.raises(SystemExit) as exc:
        main(["attn-dump", "--config", "svtr-micro",
              "--checkpoint", str(trained / "ckpt" / "last.ckpt"),
              "--image", str(image), "--stage", "1", "--block", "0", *query])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and "--query" in err.splitlines()[-1]


def test_a_programming_error_is_not_caught(monkeypatch):
    def broken(args):
        raise IndexError("list index out of range")

    monkeypatch.setattr(svtr.cli, "cmd_params", broken)
    with pytest.raises(IndexError):
        main(["params", "--config", "svtr-t"])


def test_attn_dump_writes_one_file_per_head(capsys, trained, tmp_path):
    image = sorted((trained / "data" / "images").glob("*.ppm"))[0]
    code, out, _ = run(capsys, "attn-dump", "--config", "svtr-micro",
                       "--checkpoint", str(trained / "ckpt" / "last.ckpt"),
                       "--image", str(image), "--stage", "2", "--block", "0",
                       "--query", "3", "--out", str(tmp_path))
    assert code == 0
    files = sorted(tmp_path.glob("attn_s2_b0_h*_q3.pgm"))
    assert len(files) == 2  # both heads of stage 2
    for path in files:
        heatmap = read_pnm(path)
        assert heatmap.shape == (2, 16)
        assert heatmap.max() <= 1.0


@pytest.mark.parametrize("query", ["query", "char"])
def test_attn_dump_exports_every_head_from_one_forward(capsys, trained, tmp_path,
                                                     monkeypatch, query):
    image, char, _ = _predicted_char(trained)
    query_args = ("--query", "0") if query == "query" else ("--char", char)
    calls = []
    forward = SvtrModel.forward

    def counted(self, *args, **kwargs):
        calls.append(1)
        return forward(self, *args, **kwargs)

    monkeypatch.setattr(SvtrModel, "forward", counted)
    code, out, _ = run(capsys, "attn-dump", "--config", "svtr-micro",
                       "--checkpoint", str(trained / "ckpt" / "last.ckpt"),
                       "--image", str(image), "--stage", "2", "--block", "0",
                       *query_args, "--out", str(tmp_path))
    assert code == 0 and len(out.splitlines()) == 2
    assert len(calls) == 1


def test_attn_dump_local_stage_zero_outside_window(capsys, trained, tmp_path):
    image = sorted((trained / "data" / "images").glob("*.ppm"))[0]
    code, _, _ = run(capsys, "attn-dump", "--config", "svtr-micro",
                     "--checkpoint", str(trained / "ckpt" / "last.ckpt"),
                     "--image", str(image), "--stage", "1", "--block", "0",
                     "--head", "0", "--query", "0", "--out", str(tmp_path))
    assert code == 0
    heatmap = read_pnm(tmp_path / "attn_s1_b0_h0_q0.pgm")
    # query (0,0) with a 7x11 window reaches rows 0..3 and cols 0..5
    assert heatmap.shape == (4, 16)
    assert np.all(heatmap[:, 6:] == 0)


def test_gradcheck_command_passes(capsys):
    code, out, _ = run(capsys, "gradcheck", "--dtype", "f64")
    assert code == 0
    assert "FAIL" not in out


@pytest.fixture(scope="module")
def blown_up(trained):
    """The trained checkpoint with every weight scaled by 1e30, as a last
    diverging update leaves it: finite weights, non-finite logits."""
    model, _ = restore_model(trained / "ckpt" / "last.ckpt",
                             expected_config=PRESETS["svtr-micro"])
    for p in model.params.values():
        p.data *= np.float32(1e30)
    path = trained / "blown-up.ckpt"
    save_checkpoint(path, model)
    return path


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["infer", "eval", "attn-dump"])
def test_blown_up_checkpoint_is_one_error_line(capsys, trained, blown_up, tmp_path, command):
    image = str(sorted((trained / "data" / "images").glob("*.ppm"))[0])
    extra = {"infer": ("--image", image),
             "eval": ("--data", str(trained / "data")),
             "attn-dump": ("--image", image, "--stage", "2", "--block", "0",
                           "--query", "0", "--out", str(tmp_path))}[command]
    code, out, err = run(capsys, command, "--config", "svtr-micro",
                         "--checkpoint", str(blown_up), *extra)
    assert code == 1 and not out
    assert err.splitlines() == [err.strip()]
    assert "hold NaN or infinite values" in err
    assert not list(tmp_path.iterdir())


# -- the numeric-argument contract ------------------------------------------

def _numeric_options():
    """(subcommand or None for the global options, option) for every option
    of the parser that converts its text to a number."""
    parser = svtr.cli.build_parser()
    found = [(None, a.option_strings[-1]) for a in parser._actions
             if a.type is not None and a.option_strings]
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for command, subparser in sub.choices.items():
        found += [(command, a.option_strings[-1]) for a in subparser._actions
                  if a.type is not None and a.option_strings]
    return found


NUMERIC_OPTIONS = _numeric_options()


def _base_argv(command, trained, out):
    """A valid, fast invocation of ``command`` as an option -> value dict."""
    ckpt = str(trained / "ckpt" / "last.ckpt")
    image = str(sorted((trained / "data" / "images").glob("*.ppm"))[0])
    return {
        "flops": {"--config": "svtr-micro"},
        "gen-data": {"--out": str(out), "--n": "1"},
        "train": {"--config": "svtr-micro", "--synth": "2", "--epochs": "1"},
        "attn-dump": {"--config": "svtr-micro", "--checkpoint": ckpt, "--image": image,
                      "--stage": "2", "--block": "0", "--query": "0", "--out": str(out)},
    }[command]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value", ["nan", "inf", "-1", "0", "1e400"])
@pytest.mark.parametrize("command,option", NUMERIC_OPTIONS,
                         ids=[f"{c or 'svtr'}{o}" for c, o in NUMERIC_OPTIONS])
def test_a_numeric_argument_exits_0_or_prints_one_error_or_a_usage_line(
        capsys, trained, tmp_path, command, option, value):
    """README's contract for any value of a numeric option: exit 0, or exit 1
    with one ``error:`` line, or exit 2 with a usage line; never a traceback
    (an uncaught exception fails the test) nor a warning (raised here)."""
    if command is None:     # a global option, given before gen-data
        prog, argv = "svtr", [option, value, "gen-data"]
        options = _base_argv("gen-data", trained, tmp_path)
    else:
        prog, argv = f"svtr {command}", [command]
        options = {**_base_argv(command, trained, tmp_path), option: value}
    for name, text in options.items():
        argv += [name, text]
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    if code == 0:
        assert not err
    elif code == 1:
        assert not out
        assert err.startswith("error: ") and err.splitlines() == [err.strip()]
    else:
        assert code == 2 and not out
        assert err.startswith("usage:")
        assert err.splitlines()[-1].startswith(f"{prog}: error: argument {option}")
