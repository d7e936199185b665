"""Command-line surface: train / eval / infer / gen-data / params / flops /
attn-dump / gradcheck.

Every command validates its config before touching data, funnels all
randomness through --seed, exits 0 on success, and prints a single
``error: ...`` line on stderr otherwise.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import gradcheck as gc
from .audit import count_flops, count_params, param_breakdown
from .checkpoint import restore_model
from .config import PRESETS, load_config
from .ctc import Charset, greedy_decode
from .data import NOISE_SIGMA, gen_dataset, load_dataset, load_image, save_dataset, write_pnm
from .exceptions import ContractError, SvtrError
from .model import SvtrModel, export_attention
from .train import CLIP_NORM, WARMUP_EPOCHS, evaluate, train

# Published reference figures for the four variants (excluding classifier).
PARAM_REFS = {"svtr-t": 4.15e6, "svtr-s": 8.45e6, "svtr-b": 22.66e6, "svtr-l": 38.81e6}
FLOP_REFS_G = {"svtr-t": 0.29, "svtr-s": 0.63, "svtr-b": 3.55, "svtr-l": 6.07}
# Geometry the published FLOP figures correspond to (W/4 = max predict length).
REFERENCE_FLOP_GEOMETRY = (32, 100)


def _number(convert, in_range, kind: str):
    """An argparse type: ``convert`` the text, then require ``in_range``
    (NaN fails any bound written as a comparison)."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {convert.__name__} value: {text!r}") from None
        if not in_range(value):
            raise argparse.ArgumentTypeError(f"must be {kind}, got {text}")
        return value
    return parse


_positive_int = _number(int, lambda v: v >= 1, "a positive integer")
_non_negative_int = _number(int, lambda v: v >= 0, "a non-negative integer")
_positive_finite_float = _number(float, lambda v: 0.0 < v < math.inf, "a positive finite number")
_non_negative_float = _number(float, lambda v: 0.0 <= v < math.inf, "a finite number >= 0")
_fraction = _number(float, lambda v: 0.0 <= v < 1.0, "a number in [0, 1)")


def _add_config_arg(p):
    p.add_argument("--config", required=True,
                   help="preset name (%s) or config file path" % ", ".join(PRESETS))


def _charset_for(config, args) -> Charset:
    if args.charset:
        cs = Charset.from_file(args.charset)
    else:
        cs = Charset()
    if cs.size != config.charset_size:
        raise SvtrError(f"charset has {cs.size} classes but config expects "
                        f"{config.charset_size}")
    return cs


def cmd_params(args):
    config = load_config(args.config)
    breakdown = param_breakdown(config)
    total_excl = count_params(config, include_classifier=False)
    total_incl = count_params(config, include_classifier=True)
    print(f"{'module':<12} {'params':>12}")
    for section, count in breakdown.items():
        print(f"{section:<12} {count:>12,}")
    print(f"{'total':<12} {total_incl:>12,}  (incl. classifier)")
    print(f"{'total':<12} {total_excl:>12,}  (excl. classifier)")
    if args.config in PARAM_REFS:
        ref = PARAM_REFS[args.config]
        delta = 100.0 * (total_excl - ref) / ref
        print(f"reference {ref / 1e6:.2f} M, delta {delta:+.2f}%")
    return 0


def cmd_flops(args):
    config = load_config(args.config)
    report = count_flops(config, input_h=args.input_h, input_w=args.input_w)
    print(f"input geometry {report.input_h}x{report.input_w}")
    print(f"{'component':<20} {'MACs':>14}  quadratic-in-n")
    for entry in report.entries:
        print(f"{entry.name:<20} {entry.macs:>14,}  {'yes' if entry.quadratic else 'no'}")
    print(f"total {report.total_macs / 1e9:.4f} G (1-MAC convention)")
    print(f"total {report.total_flops / 1e9:.4f} G (2-FLOP convention)")
    if args.config in FLOP_REFS_G:
        rh, rw = REFERENCE_FLOP_GEOMETRY
        ref_report = count_flops(config, input_h=rh, input_w=rw)
        print(f"reference {FLOP_REFS_G[args.config]:.2f} G at {rh}x{rw}: "
              f"this model {ref_report.total_macs / 1e9:.4f} G (1-MAC) / "
              f"{ref_report.total_flops / 1e9:.4f} G (2-FLOP)")
    return 0


def cmd_gen_data(args):
    charset = Charset()
    samples = gen_dataset(args.n, charset, (args.min_len, args.max_len),
                          args.height, args.width, seed=args.seed,
                          noise_sigma=args.noise_sigma)
    save_dataset(samples, args.out, charset)
    print(f"wrote {len(samples)} samples to {args.out}")
    return 0


def cmd_train(args):
    config = load_config(args.config)
    charset = _charset_for(config, args)
    if args.data:
        dataset = load_dataset(args.data, config.input_h, config.input_w,
                               charset, config.max_label_len)
    else:
        dataset = gen_dataset(args.synth, charset, (args.min_len, args.max_len),
                              config.input_h, config.input_w, seed=args.seed)
    model = SvtrModel(config, seed=args.seed)
    history = train(model, dataset, epochs=args.epochs, batch_size=args.batch_size,
                    seed=args.seed, peak_lr=args.lr, val_fraction=args.val_fraction,
                    warmup_epochs=args.warmup_epochs,
                    clip_norm=None if args.no_clip else CLIP_NORM,
                    checkpoint_dir=args.out, log_path=args.log)
    for m in history[-5:]:
        print(f"epoch {m.epoch}: loss {m.loss:.4f} accuracy {m.accuracy:.4f}")
    return 0


def cmd_eval(args):
    config = load_config(args.config)
    charset = _charset_for(config, args)
    model, _ = restore_model(args.checkpoint, expected_config=config)
    dataset = load_dataset(args.data, config.input_h, config.input_w,
                           charset, config.max_label_len)
    report = evaluate(model, dataset)
    if report.warning:
        print(f"warning: {report.warning}")
    print(f"word_accuracy\t{report.word_accuracy:.6f}")
    print(f"norm_edit_sim\t{report.norm_edit_sim:.6f}")
    return 0


def cmd_infer(args):
    config = load_config(args.config)
    charset = _charset_for(config, args)
    if args.dump_logits and len(set(args.image)) != len(args.image):
        raise ContractError("--dump-logits keys the logits by image path, "
                            "so no --image path may be given twice")
    model, _ = restore_model(args.checkpoint, expected_config=config)
    dumped = {}
    for path in args.image:
        logits = model.eval_logits(load_image(path, config.input_h, config.input_w)[None])
        label = greedy_decode(logits)[0]
        print(f"{path}\t{charset.decode(label)}")
        if args.dump_logits:
            dumped[path] = logits[0]
    if args.dump_logits:
        # Through a handle, so that np.savez appends no ".npz" to the name.
        with open(args.dump_logits, "wb") as fh:
            np.savez(fh, **dumped)
    return 0


def _query_for_char(logits, charset, char: str, h: int, w: int) -> int:
    """Map a character to a query index on an h x w stage grid: the cell at
    the centre row in the column where greedy decoding of ``logits``
    [1, W/4, charset_size] first emits that character."""
    path = np.argmax(logits[0], axis=-1)
    target = charset.encode(char).indices[0]
    cols = np.nonzero(path == target)[0]
    if cols.size == 0:
        raise SvtrError(f"character {char!r} is not predicted for this image")
    return (h // 2) * w + int(cols[0])


def cmd_attn_dump(args):
    config = load_config(args.config)
    n_heads = config.heads[args.stage - 1]
    if args.head is not None and not 0 <= args.head < n_heads:
        raise ContractError(f"head {args.head} out of range for stage {args.stage}")
    h, w, _ = config.stage_geometry()[args.stage - 1]
    if args.query is not None and not 0 <= args.query < h * w:
        raise ContractError(f"query {args.query} out of range for {h}x{w} grid")
    if args.char is not None and len(args.char) != 1:
        raise ContractError(f"--char takes one character, got {args.char!r}")
    model, _ = restore_model(args.checkpoint, expected_config=config)
    image = load_image(args.image, config.input_h, config.input_w)
    maps, logits = export_attention(model, image[None], args.stage, args.block)
    if args.char is not None:
        query = _query_for_char(logits, _charset_for(config, args), args.char, h, w)
    else:
        query = args.query
    heads = [args.head] if args.head is not None else range(n_heads)
    for head in heads:
        heatmap = maps[head, query]
        peak = heatmap.max()
        scaled = heatmap / peak if peak > 0 else heatmap
        name = f"attn_s{args.stage}_b{args.block}_h{head}_q{query}.pgm"
        out_path = f"{args.out.rstrip('/')}/{name}" if args.out else name
        write_pnm(out_path, scaled)
        print(out_path)
    return 0


def cmd_gradcheck(args):
    dtype = np.float64 if args.dtype == "f64" else np.float32
    tol = gc.TOLERANCES[dtype]
    failed = False
    print(f"{'op':<22} {'worst rel err':>14}")
    for name, err in gc.run_suite(dtype=dtype).items():
        flag = "" if err < tol else "  FAIL"
        failed |= err >= tol
        print(f"{name:<22} {err:>14.3e}{flag}")
    worst_model = max(gc.check_model(dtype=dtype).values())
    flag = "" if worst_model < tol else "  FAIL"
    failed |= worst_model >= tol
    print(f"{'model (end-to-end)':<22} {worst_model:>14.3e}{flag}")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="svtr",
                                     description="Scene text recognition toolkit")
    parser.add_argument("--seed", type=_non_negative_int, default=42,
                        help="global random seed")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("params", help="parameter count audit")
    _add_config_arg(p)
    p.set_defaults(fn=cmd_params)

    p = sub.add_parser("flops", help="multiply-accumulate audit")
    _add_config_arg(p)
    p.add_argument("--input-h", type=int, help="override input height")
    p.add_argument("--input-w", type=int, help="override input width")
    p.set_defaults(fn=cmd_flops)

    p = sub.add_parser("gen-data", help="generate a synthetic corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--min-len", type=int, default=1)
    p.add_argument("--max-len", type=int, default=5)
    p.add_argument("--height", type=int, default=32)
    p.add_argument("--width", type=int, default=128)
    p.add_argument("--noise-sigma", type=_non_negative_float, default=NOISE_SIGMA)
    p.set_defaults(fn=cmd_gen_data)

    p = sub.add_parser("train", help="train a model")
    _add_config_arg(p)
    p.add_argument("--data", help="dataset directory (labels.tsv layout)")
    p.add_argument("--synth", type=_positive_int, default=64,
                   help="generate this many synthetic samples when --data is absent")
    p.add_argument("--min-len", type=int, default=1)
    p.add_argument("--max-len", type=int, default=5)
    p.add_argument("--epochs", type=_positive_int, required=True)
    p.add_argument("--batch-size", type=_positive_int, default=16)
    p.add_argument("--lr", type=_positive_finite_float,
                   help="peak learning rate (default: 5e-4*batch/2048)")
    p.add_argument("--warmup-epochs", type=_non_negative_int, default=WARMUP_EPOCHS)
    p.add_argument("--val-fraction", type=_fraction, default=0.0)
    p.add_argument("--no-clip", action="store_true", help="disable gradient clipping")
    p.add_argument("--out", help="checkpoint directory")
    p.add_argument("--log", help="metrics log path")
    p.add_argument("--charset", help="charset file (one symbol per line)")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    _add_config_arg(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--charset")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("infer", help="decode text from images")
    _add_config_arg(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--image", nargs="+", required=True)
    p.add_argument("--dump-logits", help="write raw logits to this file (.npz format)")
    p.add_argument("--charset")
    p.set_defaults(fn=cmd_infer)

    p = sub.add_parser("attn-dump", help="export attention heatmaps as PGM")
    _add_config_arg(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--image", required=True)
    p.add_argument("--stage", type=int, choices=(1, 2, 3), required=True)
    p.add_argument("--block", type=int, required=True)
    p.add_argument("--head", type=int, help="default: all heads of the stage")
    query = p.add_mutually_exclusive_group(required=True)
    query.add_argument("--query", type=int)
    query.add_argument("--char", help="pick the query from the column predicting this character")
    p.add_argument("--out", help="output directory (default: cwd)")
    p.add_argument("--charset")
    p.set_defaults(fn=cmd_attn_dump)

    p = sub.add_parser("gradcheck", help="finite-difference gradient audit")
    p.add_argument("--dtype", choices=["f32", "f64"], default="f64")
    p.set_defaults(fn=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (SvtrError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
