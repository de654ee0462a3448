"""Spectrogram / mel-spectrogram transforms and the processing family
applied before spectral distances (identity, log, cumulative sums).

Every spectrum is a (freq bins x time frames) :class:`DiffValue`, taped
or constant like the signal it was taken from.  Frames are Hann-windowed
with hop = window/4 and reflect center padding.  The padding is realized
as an index map into the original buffer, so framing, windowing and the
FFT magnitudes are one tape node.  A mel spectrogram is a pooling of an
STFT already taken, never a second STFT.  It pools through a sparse copy
of the filterbank rather than a dense BLAS product, whose threads would
contend for the cores of parallel workers.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy import sparse

from gradsynth import autodiff as ad
from gradsynth.autodiff import DiffValue
from gradsynth.audio import Signal

__all__ = [
    "PROCESSINGS",
    "WINDOW_SIZES",
    "SpectralConfigError",
    "mel_filterbank",
    "mel_spectrogram",
    "process",
    "stft_magnitude",
]

WINDOW_SIZES = (256, 512, 1024, 2048)

PROCESSINGS = ("identity", "log", "cumsum_time", "cumsum_freq")

LOG_OFFSET = 1e-5


class SpectralConfigError(ValueError):
    """Window/signal geometry or processing kind is unusable."""


def _read_only(arr: np.ndarray) -> np.ndarray:
    """Cached arrays are shared by every caller, so none may write to them."""
    arr.flags.writeable = False
    return arr


@lru_cache
def _frame_indices(n: int, window: int, hop: int) -> np.ndarray:
    """(frames x window) indices into the raw buffer, center padding folded in."""
    pad = window // 2
    padded = np.pad(np.arange(n), pad, mode="reflect")
    n_frames = (len(padded) - window) // hop + 1
    starts = np.arange(n_frames) * hop
    return _read_only(padded[starts[:, None] + np.arange(window)[None, :]])


@lru_cache
def _hann_periodic(window: int) -> np.ndarray:
    return _read_only(0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(window) / window))


def stft_magnitude(signal: Signal, window_size: int) -> DiffValue:
    """Hann-windowed, reflect-center-padded magnitude STFT, hop window/4,
    as (window/2 + 1 bins x frames)."""
    if window_size not in WINDOW_SIZES:
        raise SpectralConfigError(
            f"window_size {window_size} not in {WINDOW_SIZES}"
        )
    hop = window_size // 4
    n = len(signal)
    if window_size > n:
        raise SpectralConfigError(
            f"window_size {window_size} longer than signal ({n} samples)"
        )
    return ad.rfft_magnitude(
        signal.samples, _hann_periodic(window_size), _frame_indices(n, window_size, hop)
    )


def _hz_to_mel(f):
    """Slaney scale: linear below 1 kHz, logarithmic above."""
    f = np.asarray(f, dtype=np.float64)
    log_step = math.log(6.4) / 27.0
    return np.where(f < 1000.0, 3.0 * f / 200.0, 15.0 + np.log(np.maximum(f, 1000.0) / 1000.0) / log_step)


def _mel_to_hz(m):
    m = np.asarray(m, dtype=np.float64)
    log_step = math.log(6.4) / 27.0
    return np.where(m < 15.0, 200.0 * m / 3.0, 1000.0 * np.exp(log_step * (m - 15.0)))


@lru_cache
def mel_filterbank(sample_rate: int, window_size: int, n_mels: int) -> np.ndarray:
    """(n_mels x bins) triangular filters, 0 Hz to Nyquist, area-normalized."""
    n_bins = window_size // 2 + 1
    if n_mels >= n_bins:
        raise SpectralConfigError(
            f"n_mels = {n_mels} must be below the {n_bins} FFT bins"
        )
    nyquist = sample_rate / 2.0
    mel_points = np.linspace(_hz_to_mel(0.0), _hz_to_mel(nyquist), n_mels + 2)
    hz_points = _mel_to_hz(mel_points)
    bin_freqs = np.arange(n_bins) * (sample_rate / window_size)
    fb = np.zeros((n_mels, n_bins))
    for m in range(n_mels):
        left, center, right = hz_points[m], hz_points[m + 1], hz_points[m + 2]
        up = (bin_freqs - left) / (center - left)
        down = (right - bin_freqs) / (right - center)
        tri = np.maximum(0.0, np.minimum(up, down))
        fb[m] = tri * (2.0 / (right - left))
    return _read_only(fb)


@lru_cache
def _mel_pooling(sample_rate: int, window_size: int, n_mels: int) -> sparse.csr_array:
    """``mel_filterbank`` in CSR form; about 1.5 % of its entries are non-zero."""
    pooling = sparse.csr_array(mel_filterbank(sample_rate, window_size, n_mels))
    for part in (pooling.data, pooling.indices, pooling.indptr):
        _read_only(part)
    return pooling


def mel_spectrogram(spec: DiffValue, sample_rate: int, n_mels: int = 128) -> DiffValue:
    """Pool a linear magnitude STFT into ``n_mels`` Slaney mel bands; its
    window is 2 * (bins - 1)."""
    fb = _mel_pooling(sample_rate, 2 * (spec.shape[0] - 1), n_mels)
    return ad.const_matmul(fb, spec)


def _mass_normalized(mag, axis: int):
    total = ad.sum_axis(mag, axis=axis)
    return mag / (total + LOG_OFFSET)


def process(spec: DiffValue, kind: str, normalize: bool = False) -> DiffValue:
    """Apply one F_k: identity, ln(m + 1e-5), or a cumulative sum along
    time (axis 1) or frequency (axis 0).

    ``normalize`` rescales to unit mass along the cumsum axis first,
    turning the cumulative difference into a transport-style distance.
    """
    if kind == "identity":
        return spec
    if kind == "log":
        return ad.ln(spec + LOG_OFFSET)
    if kind in ("cumsum_time", "cumsum_freq"):
        axis = 1 if kind == "cumsum_time" else 0
        return ad.cumsum(_mass_normalized(spec, axis) if normalize else spec, axis=axis)
    raise SpectralConfigError(f"unknown processing kind {kind!r}; expected {PROCESSINGS}")
