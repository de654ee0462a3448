"""Loss-surface sweeps and the gradient-direction perturbation benchmark.

Two study harnesses over the spectral losses, both exporting CSV:

* :func:`loss_surface_sweep` grids one continuous parameter while every
  other parameter stays at its ground-truth value, recording the loss
  against the ground-truth render — a 1-D slice of the loss surface
  whose strict local minima are counted.
* :func:`perturbation_trials` asks, for random target tones, whether
  a prediction placed closer to the target also scores a lower loss
  than a farther perturbation; :func:`benchmark_table` averages that
  over many trials, which measures how often the loss orders points
  correctly, i.e. how often its gradient points the right way at
  benchmark scale.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass, replace
from typing import Sequence, Union

import numpy as np

from .audio import RenderConfig, fan_out
from .chains import ChainSpec, ParameterAssignment, generate_signal
from .losses import LossConfig, chain_features, signal_chain_loss
from .modules import ContinuousParam, from_unit, render_oscillator
from .spectral import mel_spectrogram, process, stft_magnitude

__all__ = [
    "BENCHMARK_RENDER",
    "BENCHMARK_VARIANTS",
    "BenchmarkResult",
    "PerturbTrial",
    "SweepResult",
    "benchmark_table",
    "export_csv",
    "loss_surface_sweep",
    "perturbation_trials",
    "swept_spec",
]

# Benchmark protocol constants. Duration 0.25 s keeps the render cheap
# while leaving enough frames for the time-cumsum variant to see the
# windowing transients it feeds on.
BENCHMARK_RENDER = RenderConfig(duration=0.25)
BENCHMARK_WINDOW = 1024
BENCHMARK_N_MELS = 128
# target tones: ±600 cents and low harmonics stay inside Nyquist
BENCHMARK_FREQ = ContinuousParam("freq", 80.0, 2000.0, log=True)
EPSILON_CENTS = 1.0

BENCHMARK_WAVEFORMS = ("square", "saw")
BENCHMARK_PROCESSINGS = ("identity", "cumsum_time", "cumsum_freq")
BENCHMARK_VARIANTS = tuple(
    (transform, processing)
    for transform in ("spectrogram", "mel")
    for processing in BENCHMARK_PROCESSINGS
)
BENCHMARK_DISTANCES = ("epsilon", 300.0, 600.0)


@dataclass(frozen=True)
class SweepResult:
    """Loss along a 1-D grid of one parameter, others at ground truth."""

    grid: tuple
    losses: tuple
    local_minima: int

    def __post_init__(self):
        if len(self.grid) != len(self.losses):
            raise ValueError("grid and losses must have equal length")
        if any(b <= a for a, b in zip(self.grid, self.grid[1:])):
            raise ValueError("grid must be strictly increasing")


@dataclass(frozen=True)
class PerturbTrial:
    """One benchmark draw; success means the closer point scored lower."""

    target_freq: float
    predicted_freq: float
    perturbed_freq: float
    predicted_loss: float
    perturbed_loss: float
    success: int


@dataclass(frozen=True)
class BenchmarkResult:
    """One (waveform, loss variant, distance) accuracy row."""

    waveform: str
    transform: str
    processing: str
    distance: str
    trials: int
    accuracy: float


def _count_strict_local_minima(losses: Sequence[float]) -> int:
    count = 0
    for i in range(1, len(losses) - 1):
        if losses[i] < losses[i - 1] and losses[i] < losses[i + 1]:
            count += 1
    return count


def swept_spec(chain: ChainSpec, swept_param: tuple) -> ContinuousParam:
    """The catalog entry of the parameter a sweep walks: ``swept_param``,
    ``(cell address, parameter name)``, must name a continuous parameter
    in the chain's parameter table."""
    spec = chain.params.get(tuple(swept_param))
    if not isinstance(spec, ContinuousParam):
        address, name = swept_param
        raise ValueError(
            f"{address}.{name} is not a continuous parameter of chain {chain.name!r}"
        )
    return spec


def loss_surface_sweep(
    chain: ChainSpec,
    target_assignment: ParameterAssignment,
    swept_param: tuple,
    grid: Sequence[float],
    loss_cfg: LossConfig,
    render_config: RenderConfig = RenderConfig(),
) -> SweepResult:
    """Loss against the ground-truth render while one parameter walks a grid.

    ``swept_param`` is ``(cell address, parameter name)``; it must name a
    continuous parameter of the chain (:func:`swept_spec`).  All other
    parameters are pinned to ``target_assignment``.  Local minima are
    counted on interior grid triples (strict on both sides).
    """
    swept_spec(chain, swept_param)
    grid = tuple(float(g) for g in grid)
    target = chain_features(generate_signal(chain, target_assignment, render_config), loss_cfg)
    losses = []
    for value in grid:
        params = {**target_assignment.params, tuple(swept_param): value}
        assignment = replace(target_assignment, params=params)
        trace = generate_signal(chain, assignment, render_config)
        losses.append(float(signal_chain_loss(trace, target, loss_cfg).value))
    return SweepResult(grid, tuple(losses), _count_strict_local_minima(losses))


def _check_variants(variants) -> tuple:
    variants = tuple(variants)
    for variant in variants:
        if variant not in BENCHMARK_VARIANTS:
            raise ValueError(
                f"unknown loss variant {variant!r}; expected one of {BENCHMARK_VARIANTS}"
            )
    return variants


def _distance_cents(distance: Union[str, float]) -> float:
    if distance == "epsilon":
        return EPSILON_CENTS
    cents = float(distance)
    if not (math.isfinite(cents) and cents >= 0):
        raise ValueError(f"perturbation distance must be finite and >= 0, got {distance!r}")
    # cents = 0 degenerates to prediction = perturbation = target; every
    # trial ties, ties count as failures, accuracy is 0
    return cents


def _trial_block(
    trials: range, *, waveform: str, distance: Union[str, float], variants: tuple, seed: int
) -> list:
    """One block of trials for every requested variant, renders and STFTs shared."""
    cents = _distance_cents(distance)
    out = []
    for trial in trials:
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(trial,)))
        f = float(from_unit(BENCHMARK_FREQ, rng.random(), BENCHMARK_RENDER))
        s_pert = 1 if rng.integers(2) else -1
        s_pred = 1 if rng.integers(2) else -1
        if distance == "epsilon":
            # equidistant on opposite sides: probes only the loss's local
            # left/right ordering, so chance level is the null outcome
            pred = f * 2.0 ** (s_pred * cents / 1200.0)
            pert = f * 2.0 ** (-s_pred * cents / 1200.0)
        else:
            pred = f * 2.0 ** (s_pred * (cents / 2.0) / 1200.0)
            pert = f * 2.0 ** (s_pert * cents / 1200.0)
        signals = {
            freq: render_oscillator(
                {"amp": 1.0, "freq": freq, "waveform": waveform, "active": "on"},
                BENCHMARK_RENDER,
            )
            for freq in (f, pred, pert)
        }
        # one STFT per signal; every variant is derived from it
        stfts = {freq: stft_magnitude(x, BENCHMARK_WINDOW) for freq, x in signals.items()}
        specs = {"spectrogram": stfts}
        if any(transform == "mel" for transform, _ in variants):
            # Mel magnitudes are log-compressed before any cumulative sum;
            # raw mel energies are dominated by the strongest partial and
            # order tones by level rather than position, which is not what
            # the mel rows probe.
            specs["mel"] = {
                freq: process(
                    mel_spectrogram(spec, BENCHMARK_RENDER.sample_rate, BENCHMARK_N_MELS), "log"
                )
                for freq, spec in stfts.items()
            }
        row = {}
        for transform, processing in variants:
            feats = {freq: process(spec, processing).value for freq, spec in specs[transform].items()}
            loss_pred = float(np.abs(feats[pred] - feats[f]).sum())
            loss_pert = float(np.abs(feats[pert] - feats[f]).sum())
            row[(transform, processing)] = PerturbTrial(
                target_freq=f,
                predicted_freq=pred,
                perturbed_freq=pert,
                predicted_loss=loss_pred,
                perturbed_loss=loss_pert,
                success=int(loss_pred < loss_pert),  # ties count as failures
            )
        out.append(row)
    return out


def perturbation_trials(
    waveform: str,
    distance: Union[str, float],
    variants=BENCHMARK_VARIANTS,
    trials: int = 1000,
    seed: int = 0,
    jobs: int = 1,
) -> dict:
    """Run the benchmark once per trial for every variant, sharing renders.

    Per-trial generators come from a counter-based seed split, so the
    result is independent of block size and of ``jobs``.
    """
    if waveform not in BENCHMARK_WAVEFORMS:
        raise ValueError(f"waveform must be one of {BENCHMARK_WAVEFORMS}, got {waveform!r}")
    variants = _check_variants(variants)
    _distance_cents(distance)
    if trials <= 0:
        raise ValueError(f"trials must be positive, got {trials}")
    if jobs < 1:
        raise ValueError(f"jobs must be positive, got {jobs}")
    block = math.ceil(trials / jobs)
    blocks = [range(start, min(start + block, trials)) for start in range(0, trials, block)]
    run_block = functools.partial(
        _trial_block, waveform=waveform, distance=distance, variants=variants, seed=seed
    )
    rows = [row for part in fan_out(run_block, blocks, jobs) for row in part]
    return {variant: [row[variant] for row in rows] for variant in variants}


def _format_distance(distance: Union[str, float]) -> str:
    if distance == "epsilon":
        return "epsilon"
    cents = float(distance)
    return str(int(cents)) if cents == int(cents) else repr(cents)


def benchmark_table(
    waveforms=BENCHMARK_WAVEFORMS,
    distances=BENCHMARK_DISTANCES,
    variants=BENCHMARK_VARIANTS,
    trials: int = 1000,
    seed: int = 0,
    jobs: int = 1,
) -> list:
    """Accuracy grid over waveforms x distances x variants.

    All variants of one (waveform, distance) pair share the same trial
    draws and renders, so rows are directly comparable.
    """
    results = []
    for waveform in waveforms:
        for distance in distances:
            per_variant = perturbation_trials(
                waveform, distance, variants, trials, seed, jobs
            )
            for transform, processing in variants:
                outcomes = per_variant[(transform, processing)]
                results.append(
                    BenchmarkResult(
                        waveform=waveform,
                        transform=transform,
                        processing=processing,
                        distance=_format_distance(distance),
                        trials=trials,
                        accuracy=sum(t.success for t in outcomes) / trials,
                    )
                )
    return results


def export_csv(result, path) -> None:
    """Write a sweep (param_value, loss) or benchmark rows to CSV.

    Deterministic: re-exporting the same result is byte-identical.
    """
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        if isinstance(result, SweepResult):
            writer.writerow(["param_value", "loss"])
            for value, loss in zip(result.grid, result.losses):
                writer.writerow([repr(value), repr(loss)])
            return
        rows = [result] if isinstance(result, BenchmarkResult) else list(result)
        if not all(isinstance(r, BenchmarkResult) for r in rows):
            raise TypeError("export_csv expects a SweepResult or BenchmarkResult rows")
        writer.writerow(
            ["waveform", "transform", "processing", "distance", "trials", "accuracy"]
        )
        for row in rows:
            writer.writerow(
                [row.waveform, row.transform, row.processing, row.distance, row.trials, repr(row.accuracy)]
            )
