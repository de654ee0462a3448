"""Loss functions for sound matching.

Three differentiable pieces — a parameter-space loss, a spectral loss
against the target's ``chain_features``, and their weighted combination —
plus the non-differentiable log-spectral distance used only for evaluation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .audio import RenderConfig, Signal
from .autodiff import DiffValue, absolute, bsum, sqrt
from .chains import ChainSpec, ParameterAssignment, RenderTrace
from .modules import CategoricalParam, resolve_range
from .spectral import PROCESSINGS, WINDOW_SIZES, mel_spectrogram, process, stft_magnitude

__all__ = [
    "CATEGORICAL_SMOOTHING",
    "LossConfig",
    "LossConfigError",
    "chain_features",
    "combined_loss",
    "feature_distance",
    "log_spectral_distance",
    "parameter_loss",
    "signal_chain_loss",
    "spectral_features",
]

# Hard categorical predictions enter cross-entropy as an indicator
# smoothed by this amount, keeping -ln(q) finite on mismatches.
CATEGORICAL_SMOOTHING = 1e-6


class LossConfigError(ValueError):
    """Loss configuration inconsistent with the chain or catalog."""


@dataclass(frozen=True)
class LossConfig:
    """Which cells, windows, and processings the spectral loss sums over.

    ``cells`` is "all" (every non-empty cell) or "output" (final mix
    only).  The spectral term's weight in :func:`combined_loss` is the
    optimizer's ``beta_schedule``.
    """

    cells: str = "all"
    windows: tuple[int, ...] = (512, 1024)
    processings: tuple[str, ...] = ("identity",)
    norm_p: int = 1
    transform: str = "spectrogram"
    regression_kind: str = "L1"
    cumsum_normalize: bool = False
    n_mels: int = 128

    def __post_init__(self) -> None:
        if self.cells not in ("all", "output"):
            raise LossConfigError(f"cell selector must be 'all' or 'output', got {self.cells!r}")
        if len(self.windows) == 0:
            raise LossConfigError("window set must be non-empty")
        for w in self.windows:
            if w not in WINDOW_SIZES:
                raise LossConfigError(f"unsupported window size {w}")
        if len(self.processings) == 0:
            raise LossConfigError("processing set must be non-empty")
        for k in self.processings:
            if k not in PROCESSINGS:
                raise LossConfigError(f"unknown processing {k!r}")
        if self.norm_p not in (1, 2):
            raise LossConfigError(f"norm_p must be 1 or 2, got {self.norm_p}")
        if self.transform not in ("spectrogram", "mel"):
            raise LossConfigError(f"unknown transform {self.transform!r}")
        if self.regression_kind not in ("L1", "L2"):
            raise LossConfigError(
                f"regression_kind must be 'L1' or 'L2', got {self.regression_kind!r}"
            )
        if self.n_mels < 1:
            raise LossConfigError(f"n_mels must be >= 1, got {self.n_mels}")


def parameter_loss(
    chain: ChainSpec,
    predicted: ParameterAssignment,
    target: ParameterAssignment,
    regression_kind: str = "L1",
    render_config: RenderConfig = RenderConfig(),
) -> DiffValue:
    """Range-normalized regression loss plus categorical cross-entropy.

    Continuous parameters are mapped to [0, 1] by their catalog range
    before differencing so Hz-scaled and unit-scaled parameters weigh
    comparably. Categorical predictions are hard labels; the matching
    indicator is smoothed by ``CATEGORICAL_SMOOTHING``.  Both assignments
    must cover the chain's parameter table; its order is the order of the sum.
    """
    if regression_kind not in ("L1", "L2"):
        raise LossConfigError(f"regression_kind must be 'L1' or 'L2', got {regression_kind!r}")
    chain.check_assignment(predicted)
    chain.check_assignment(target)

    total = DiffValue(0.0)
    for key, param in chain.params.items():
        pred = predicted.params[key]
        targ = target.params[key]
        if isinstance(param, CategoricalParam):
            q = 1.0 - CATEGORICAL_SMOOTHING if pred == targ else CATEGORICAL_SMOOTHING
            total = total + (-math.log(q))
            continue
        low, high = resolve_range(param, render_config)
        span = high - low
        diff = (pred - low) / span - (float(targ) - low) / span
        if regression_kind == "L1":
            total = total + absolute(diff)
        else:
            total = total + diff * diff
    return total


def spectral_features(signal: Signal, cfg: LossConfig) -> tuple[DiffValue, ...]:
    """The processed spectra the spectral loss compares, for one signal.

    One entry per window x processing, window-major, in the order of
    ``cfg.windows`` and ``cfg.processings``; one STFT per window.
    """
    features = []
    for window in cfg.windows:
        spec = stft_magnitude(signal, window)
        if cfg.transform == "mel":
            spec = mel_spectrogram(spec, signal.sample_rate, cfg.n_mels)
        for kind in cfg.processings:
            features.append(process(spec, kind, normalize=cfg.cumsum_normalize))
    return tuple(features)


def feature_distance(
    a: Sequence[DiffValue], b: Sequence[DiffValue], cfg: LossConfig
) -> DiffValue:
    """Sum of the entrywise p-norms of ``a[i] - b[i]``; p = 2 is the Frobenius norm."""
    total = DiffValue(0.0)
    for fa, fb in zip(a, b, strict=True):
        diff = fa - fb
        if cfg.norm_p == 1:
            total = total + bsum(absolute(diff))
        else:
            total = total + sqrt(bsum(diff * diff))
    return total


def chain_features(trace: RenderTrace, cfg: LossConfig) -> dict:
    """The ``spectral_features`` of every signal the spectral loss compares.

    With ``cells="all"``, one entry per non-empty cell in address order;
    with ``cells="output"``, one ``"output"`` entry for the final mix.
    """
    if cfg.cells == "output":
        return {"output": spectral_features(trace.output, cfg)}
    return {a: spectral_features(trace.cell_outputs[a], cfg) for a in sorted(trace.cell_outputs)}


def signal_chain_loss(trace: RenderTrace, target: Mapping, cfg: LossConfig) -> DiffValue:
    """Spectral distance summed over cells x windows x processings.

    ``target`` is the target's :func:`chain_features` under the same
    ``cfg``, taken once however many predictions are scored against it.
    Each compared cell adds the ``feature_distance`` of the prediction's
    features and the target's, in address order.
    """
    predicted = chain_features(trace, cfg)
    if predicted.keys() != target.keys():
        raise LossConfigError(
            f"the prediction compares cells {', '.join(map(str, predicted))} but the "
            f"target's features cover {', '.join(map(str, target))}"
        )
    distances = [feature_distance(f, target[key], cfg) for key, f in predicted.items()]
    # summed from the first distance, so no constant 0.0 joins the tape
    return sum(distances[1:], distances[0]) if distances else DiffValue(0.0)


def combined_loss(param_part: DiffValue, chain_part: DiffValue, beta: float) -> DiffValue:
    """Total loss: parameter part plus beta-weighted spectral part."""
    if beta < 0:
        raise LossConfigError(f"beta must be >= 0, got {beta}")
    return param_part + beta * chain_part


def log_spectral_distance(x: Signal, x_hat: Signal, window: int = 1024) -> float:
    """Frobenius norm of the log-spectrogram difference (floor 1e-5).

    Both signals must have the same length and sample rate.  Evaluation
    metric only: computed on raw magnitude arrays, outside the tape.
    """
    if len(x) != len(x_hat):
        raise ValueError(f"signal lengths differ: {len(x)} vs {len(x_hat)}")
    if x.sample_rate != x_hat.sample_rate:
        raise ValueError("sample rates differ")
    a = stft_magnitude(x, window).value
    b = stft_magnitude(x_hat, window).value
    diff = np.log(np.maximum(a, 1e-5)) - np.log(np.maximum(b, 1e-5))
    return float(np.sqrt(np.sum(diff * diff)))
