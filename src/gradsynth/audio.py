"""Audio buffer type, WAV I/O, the shared sampling grid, and the process
fan-out of batch renders.

Sample index k corresponds to time t = k / sample_rate exactly.  All
signals inside one render share one sample rate and one length; the
rendering code enforces this by building every signal from the same
:class:`RenderConfig`.
"""

from __future__ import annotations

import logging
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np
from scipy.io import wavfile

from gradsynth.autodiff import DiffValue

__all__ = ["AudioIOError", "RenderConfig", "Signal", "fan_out", "read_wav", "write_wav", "zeros"]

log = logging.getLogger(__name__)


class AudioIOError(Exception):
    """WAV file could not be read or written as mono audio."""


@dataclass(frozen=True)
class RenderConfig:
    """Length and rate of the sampling grid for one render."""

    sample_rate: int = 16000
    duration: float = 1.0

    def __post_init__(self):
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        if not (math.isfinite(self.duration) and self.duration > 0):
            raise ValueError(f"duration must be finite and positive, got {self.duration}")
        if self.num_samples == 0:
            raise ValueError(
                f"duration {self.duration} s at {self.sample_rate} Hz rounds to 0 samples"
            )

    @property
    def num_samples(self) -> int:
        return int(round(self.sample_rate * self.duration))

    def times(self) -> np.ndarray:
        """The sample-time grid t_k = k / sample_rate, cached and read-only."""
        return _time_grid(self.num_samples, self.sample_rate)


@lru_cache
def _time_grid(n: int, sample_rate: int) -> np.ndarray:
    grid = np.arange(n, dtype=np.float64) / sample_rate
    grid.flags.writeable = False  # shared by every caller
    return grid


@dataclass(frozen=True)
class Signal:
    """A mono buffer of amplitudes (nominal range [-1, 1]) at a fixed rate.

    Immutable after construction; the sample buffer may be a tracked
    :class:`DiffValue` so downstream losses stay differentiable.
    """

    samples: DiffValue
    sample_rate: int

    @classmethod
    def from_values(cls, values, sample_rate: int) -> "Signal":
        return cls(DiffValue(values), sample_rate)

    @property
    def values(self) -> np.ndarray:
        return self.samples.value

    def __len__(self) -> int:
        return len(self.samples)


def fan_out(fn, items: Sequence, jobs: int) -> list:
    """``[fn(item) for item in items]``, over ``min(jobs, len(items))``
    worker processes when that is at least two, else in this process."""
    workers = min(jobs, len(items))
    if workers < 2:
        return [fn(item) for item in items]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def zeros(config: RenderConfig) -> Signal:
    """The zero signal on the configured grid (empty-cell output)."""
    return Signal.from_values(np.zeros(config.num_samples), config.sample_rate)


def write_wav(signal: Signal, path) -> int:
    """Write a mono 32-bit float WAV, clipping to [-1, 1] with a warning;
    returns how many samples were clipped."""
    values = np.asarray(signal.values, dtype=np.float64)
    if not np.all(np.isfinite(values)):
        raise AudioIOError(f"refusing to write non-finite samples to {path}")
    n_clipped = int(np.sum((values < -1.0) | (values > 1.0)))
    if n_clipped:
        log.warning("clipping %d samples outside [-1, 1] in %s", n_clipped, path)
        values = np.clip(values, -1.0, 1.0)
    wavfile.write(path, signal.sample_rate, values.astype(np.float32))
    return n_clipped


def read_wav(path) -> Signal:
    """Read a finite mono WAV (32-bit float or 16-bit PCM) as a constant signal."""
    try:
        rate, data = wavfile.read(path)
    except FileNotFoundError:
        raise
    except Exception as exc:
        raise AudioIOError(f"unreadable WAV file {path}: {exc}") from exc
    if data.ndim != 1:
        raise AudioIOError(
            f"{path}: expected mono audio, found {data.shape[1]} channels"
        )
    if data.dtype == np.float32 or data.dtype == np.float64:
        values = data.astype(np.float64)
    elif data.dtype == np.int16:
        values = data.astype(np.float64) / 32768.0
    else:
        raise AudioIOError(
            f"{path}: unsupported sample format {data.dtype}; "
            "expected 32-bit float or 16-bit PCM"
        )
    if not np.all(np.isfinite(values)):
        raise AudioIOError(f"{path}: non-finite samples (NaN or inf)")
    return Signal.from_values(values, int(rate))
