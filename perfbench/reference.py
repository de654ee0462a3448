"""Independent reference computations the benchmark checks gradsynth against.

Written from the documented definitions with numpy and scipy only; nothing
here imports gradsynth, so a fault in the program cannot be copied into
the value it is checked against.  ``test_reference.py`` pins each function
to closed forms.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.fft
import scipy.signal

LOG_FLOOR = 1e-5  # floor of the log-spectral distance
LOG_OFFSET = 1e-5  # offset of the "log" processing
LOWPASS_TAPS = 101
# A sample after t = 0 whose sine (square wave) or cycle count (saw) lies
# this close to a discontinuity may take either side under float64
# rounding; at t = 0 the phase is exactly 0 in any implementation.
AMBIGUITY = 1e-9


def stft_magnitude(x: np.ndarray, window: int) -> np.ndarray:
    """(bins x frames) magnitude STFT: periodic Hann, hop window/4,
    reflect padding of window/2 on both sides."""
    x = np.asarray(x, dtype=np.float64)
    n = np.arange(window)
    hann = 0.5 * (1.0 - np.cos(2.0 * math.pi * n / window))
    padded = np.pad(x, window // 2, mode="reflect")
    frames = np.lib.stride_tricks.sliding_window_view(padded, window)[:: window // 4]
    return np.abs(scipy.fft.rfft(frames * hann, axis=1)).T


def hz_to_mel(f):
    """Slaney scale: 3f/200 below 1 kHz, log steps of ln(6.4)/27 above."""
    f = np.asarray(f, dtype=np.float64)
    linear = 3.0 * f / 200.0
    logarithmic = 15.0 + np.log(np.maximum(f, 1e-300) / 1000.0) * 27.0 / math.log(6.4)
    return np.where(f < 1000.0, linear, logarithmic)


def mel_to_hz(m):
    m = np.asarray(m, dtype=np.float64)
    linear = 200.0 * m / 3.0
    logarithmic = 1000.0 * np.exp((m - 15.0) * math.log(6.4) / 27.0)
    return np.where(m < 15.0, linear, logarithmic)


def mel_filterbank(sample_rate: int, window: int, n_mels: int) -> np.ndarray:
    """(n_mels x bins) triangles on n_mels + 2 points equally spaced in mel
    from 0 Hz to Nyquist, each scaled to unit area 2 / (right - left)."""
    edges = mel_to_hz(np.linspace(0.0, hz_to_mel(sample_rate / 2.0), n_mels + 2))
    freqs = np.fft.rfftfreq(window, 1.0 / sample_rate)
    left, centre, right = edges[:-2, None], edges[1:-1, None], edges[2:, None]
    rising = (freqs[None, :] - left) / (centre - left)
    falling = (right - freqs[None, :]) / (right - centre)
    return np.clip(np.minimum(rising, falling), 0.0, None) * (2.0 / (right - left))


def log_spectral_distance(x: np.ndarray, y: np.ndarray, window: int) -> float:
    """Frobenius norm of the difference of floored log magnitude STFTs."""
    a = np.log(np.maximum(stft_magnitude(x, window), LOG_FLOOR))
    b = np.log(np.maximum(stft_magnitude(y, window), LOG_FLOOR))
    return float(np.linalg.norm(a - b))


def stft_l1_loss(x: np.ndarray, y: np.ndarray, windows) -> float:
    """Sum over windows of the entrywise L1 distance of magnitude STFTs."""
    return float(
        sum(np.abs(stft_magnitude(x, w) - stft_magnitude(y, w)).sum() for w in windows)
    )


def perturbation_features(x, transform: str, processing: str, sample_rate: int,
                          window: int = 1024, n_mels: int = 128) -> np.ndarray:
    """Features of one loss variant of the perturbation protocol: the
    magnitude STFT, or the log (offset 1e-5) of its mel pooling, then an
    optional cumulative sum along time or frequency."""
    feats = stft_magnitude(x, window)
    if transform == "mel":
        feats = np.log(mel_filterbank(sample_rate, window, n_mels) @ feats + LOG_OFFSET)
    if processing == "cumsum_time":
        feats = np.cumsum(feats, axis=1)
    elif processing == "cumsum_freq":
        feats = np.cumsum(feats, axis=0)
    return feats


# -- basic.chain renderer ---------------------------------------------------


def oscillator(waveform: str, amp: float, freq: float, n: int, sample_rate: int):
    """Samples and a mask of samples within rounding of a discontinuity."""
    t = np.arange(n) / sample_rate
    after_start = t > 0
    if waveform == "sine":
        return amp * np.sin(2.0 * math.pi * freq * t), np.zeros(n, dtype=bool)
    if waveform == "square":
        s = np.sin(2.0 * math.pi * freq * t)
        return amp * np.sign(s), after_start & (np.abs(s) < AMBIGUITY)
    if waveform == "saw":
        cycles = freq * t
        frac = cycles - np.floor(cycles)
        return amp * (2.0 * frac - 1.0), after_start & (np.abs(cycles - np.round(cycles)) < AMBIGUITY)
    raise ValueError(f"unknown waveform {waveform!r}")


def adsr_envelope(attack, decay, sustain, release, n: int, sample_rate: int):
    """Linear rise over ``attack``, fall to ``sustain`` over ``decay``, and a
    linear fade that reaches 0 at the end of the render over ``release``."""
    t = np.arange(n) / sample_rate
    duration = n / sample_rate
    rise = np.clip(t / attack, 0.0, 1.0) if attack > 0 else np.ones(n)
    fall = np.clip((t - attack) / decay, 0.0, 1.0) if decay > 0 else (t >= attack) * 1.0
    fade = np.clip((duration - t) / release, 0.0, 1.0) if release > 0 else np.ones(n)
    return rise * (1.0 - (1.0 - sustain) * fall) * fade


def lowpass_taps(cutoff: float, sample_rate: int) -> np.ndarray:
    """101-tap Hamming-windowed ideal low-pass, scaled to unit DC gain."""
    k = np.arange(LOWPASS_TAPS) - (LOWPASS_TAPS - 1) // 2
    fc = cutoff / sample_rate
    ideal = 2.0 * fc * np.sinc(2.0 * fc * k)
    hamming = 0.54 - 0.46 * np.cos(2.0 * math.pi * np.arange(LOWPASS_TAPS) / (LOWPASS_TAPS - 1))
    taps = ideal * hamming
    return taps / taps.sum()


def lowpass(x: np.ndarray, cutoff: float, sample_rate: int) -> np.ndarray:
    """Zero-padded 'same' convolution with :func:`lowpass_taps`."""
    return scipy.signal.convolve(x, lowpass_taps(cutoff, sample_rate), mode="same", method="direct")


def render_basic(params: dict, n: int, sample_rate: int):
    """Render ``chains/basic.chain``: two oscillators averaged, then ADSR,
    then the low-pass.

    ``params`` maps "osc0", "osc1", "adsr" and "lowpass" to parameter
    dicts.  A switched-off oscillator contributes zeros to the mean; with
    both off, the envelope and filter are skipped and the output is
    silent.  Returns the float64 output and a per-sample bound on how far
    it may move when samples within rounding of a waveform discontinuity
    fall on the other side.
    """
    voices, slack = [], np.zeros(n)
    for name in ("osc0", "osc1"):
        p = params[name]
        if p["active"] == "on":
            wave, ambiguous = oscillator(p["waveform"], p["amp"], p["freq"], n, sample_rate)
            # the other side is at most 2 * amp away, halved by the mean
            slack += ambiguous * abs(p["amp"])
        else:
            wave = np.zeros(n)
        voices.append(wave)
    if all(params[name]["active"] == "off" for name in ("osc0", "osc1")):
        return np.zeros(n), np.zeros(n)
    mixed = (voices[0] + voices[1]) / 2.0
    a = params["adsr"]
    env = adsr_envelope(a["attack"], a["decay"], a["sustain"], a["release"], n, sample_rate)
    cutoff = params["lowpass"]["cutoff"]
    bound = scipy.signal.convolve(
        slack * env, np.abs(lowpass_taps(cutoff, sample_rate)), mode="same", method="direct"
    )
    return lowpass(mixed * env, cutoff, sample_rate), bound


def as_wav_samples(x: np.ndarray) -> np.ndarray:
    """What a mono float32 WAV of ``x`` holds: clipped to [-1, 1], then
    rounded to float32."""
    return np.clip(x, -1.0, 1.0).astype(np.float32)
