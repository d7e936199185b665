"""Single-visual-model scene text recognition on a from-scratch autodiff core."""

from .audit import count_flops, count_params, param_breakdown
from .checkpoint import load_checkpoint, restore_model, save_checkpoint
from .config import PRESETS, SvtrConfig, load_config
from .ctc import Charset, LabelSeq, ctc_loss, edit_accuracy, greedy_decode
from .data import LabeledSample, gen_dataset, load_dataset, render_text, save_dataset
from .model import SvtrModel, export_attention, local_attention_mask
from .optim import AdamW, LrSchedule, scaled_peak_lr
from .tensor import Tensor
from .train import evaluate

__version__ = "0.1.0"

__all__ = [
    "AdamW", "Charset", "LabelSeq", "LabeledSample", "LrSchedule", "PRESETS",
    "SvtrConfig", "SvtrModel", "Tensor", "count_flops",
    "count_params", "ctc_loss", "edit_accuracy", "evaluate", "export_attention",
    "gen_dataset", "greedy_decode", "load_checkpoint", "load_config",
    "load_dataset", "local_attention_mask", "scaled_peak_lr", "param_breakdown",
    "render_text", "restore_model", "save_checkpoint", "save_dataset",
]
