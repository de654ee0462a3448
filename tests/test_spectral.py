"""Spectrogram transforms: DFT oracles, filterbank structure, gradients."""

from __future__ import annotations

import numpy as np
import pytest

from gradsynth import autodiff as ad
from gradsynth.audio import RenderConfig, Signal, zeros
from gradsynth.modules import render_oscillator
from gradsynth.spectral import (
    LOG_OFFSET,
    SpectralConfigError,
    _frame_indices,
    _hz_to_mel,
    _mel_to_hz,
    mel_filterbank,
    mel_spectrogram,
    process,
    stft_magnitude,
)

CFG = RenderConfig()
NYQUIST_MEL = float(_hz_to_mel(8000.0))


def sine(freq, amp=1.0, config=CFG):
    t = config.times()
    return Signal.from_values(amp * np.sin(2 * np.pi * freq * t), config.sample_rate)


def test_zeros_give_zero_spectrogram():
    spec = stft_magnitude(zeros(CFG), 1024)
    assert not spec.value.any()
    mel = mel_spectrogram(spec, 16000)
    assert not mel.value.any()


def test_frame_count_and_orientation():
    spec = stft_magnitude(zeros(CFG), 1024)
    bins, frames = spec.shape
    assert bins == 513
    assert frames == (16000 + 1024 - 1024) // 256 + 1


def test_pure_tone_argmax_bin():
    spec = stft_magnitude(sine(1000.0), 1024)
    argmax = np.argmax(spec.value, axis=0)
    target = round(1000 * 1024 / 16000)
    # reflect padding even-symmetrizes the sine at the edges, smearing the
    # two outermost frames by up to one bin
    assert np.all(argmax[1:-1] == target)
    assert np.all(np.abs(argmax - target) <= 1)


def test_frame_energy_matches_windowed_signal_energy():
    # Parseval per frame: sum |X|^2 over the full FFT = N * sum x^2.
    # rfft keeps bins 0..N/2; interior bins count twice.
    s = sine(997.3, amp=0.6)
    w = 512
    spec = stft_magnitude(s, w)
    mags = spec.value.T  # (frames, bins)
    full_sq = mags**2
    full_sq[:, 1:-1] *= 2.0
    spectral_energy = full_sq.sum(axis=1) / w

    pad = w // 2
    padded = np.pad(s.values, pad, mode="reflect")
    window = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(w) / w)
    starts = np.arange(mags.shape[0]) * (w // 4)
    frame_energy = np.array(
        [np.sum((padded[st : st + w] * window) ** 2) for st in starts]
    )
    np.testing.assert_allclose(spectral_energy, frame_energy, rtol=1e-10)


def test_window_size_validation():
    with pytest.raises(SpectralConfigError):
        stft_magnitude(zeros(CFG), 1000)
    short = Signal.from_values(np.zeros(100), 16000)
    with pytest.raises(SpectralConfigError):
        stft_magnitude(short, 256)


def test_mel_filterbank_structure():
    fb = mel_filterbank(16000, 1024, 128)
    assert fb.shape == (128, 513)
    assert np.all(fb >= 0)
    # each filter carries weight; interior bins are covered
    assert np.all(fb.sum(axis=1) > 0)
    coverage = fb.sum(axis=0)
    assert np.all(coverage[1:-1] > 0)


def test_slaney_scale_closed_form():
    # 3 mels per 200 Hz up to 1 kHz, then 27 mels per factor 6.4
    assert _hz_to_mel(0.0) == 0.0
    assert _hz_to_mel(500.0) == pytest.approx(7.5, abs=1e-12)
    assert _hz_to_mel(1000.0) == 15.0
    assert _hz_to_mel(6400.0) == pytest.approx(42.0, abs=1e-12)
    assert _mel_to_hz(15.0) == pytest.approx(1000.0, abs=1e-9)
    assert _mel_to_hz(42.0) == pytest.approx(6400.0, abs=1e-9)


def test_mel_to_hz_inverts_hz_to_mel():
    hz = np.linspace(0.0, 8000.0, 801)
    np.testing.assert_allclose(_mel_to_hz(_hz_to_mel(hz)), hz, rtol=1e-12, atol=1e-9)
    mel = np.linspace(0.0, NYQUIST_MEL, 801)
    np.testing.assert_allclose(_hz_to_mel(_mel_to_hz(mel)), mel, rtol=1e-12, atol=1e-12)


def test_mel_filter_centres_sit_on_equally_spaced_mel_points():
    # A fine FFT grid locates each triangle's peak to within one bin.
    window = 16384
    fb = mel_filterbank(16000, window, 128)
    bin_hz = 16000 / window
    peaks = np.argmax(fb, axis=1) * bin_hz
    centres = _mel_to_hz(np.linspace(0.0, NYQUIST_MEL, 130))[1:-1]
    assert np.all(np.abs(peaks - centres) <= bin_hz)


def test_mel_filters_below_1khz_are_47hz_wide():
    # Adjacent triangles overlap into a partition of unity, and each is
    # scaled by 2 / width; where every covering filter lies in the linear
    # part of the scale the column sums therefore read 2 / width directly.
    fb = mel_filterbank(16000, 1024, 128)
    bin_freqs = np.arange(513) * (16000 / 1024)
    linear = (bin_freqs >= 31.25) & (bin_freqs <= 900.0)
    widths = 2.0 / fb.sum(axis=0)[linear]
    expected = 2.0 * (200.0 / 3.0) * NYQUIST_MEL / 129
    assert 46.0 < expected < 48.0
    np.testing.assert_allclose(widths, expected, rtol=1e-9)


def test_wide_mel_filters_have_unit_area():
    # Sampling a triangle n bins wide misses its area by at most ~2 / n**2.
    fb = mel_filterbank(16000, 1024, 128)
    wide = (fb > 0).sum(axis=1) >= 20
    assert wide.sum() >= 5
    areas = fb[wide].sum(axis=1) * (16000 / 1024)
    np.testing.assert_allclose(areas, 1.0, atol=0.01)


def test_mel_rejects_too_many_bands():
    with pytest.raises(SpectralConfigError):
        mel_filterbank(16000, 256, 129)


def test_stft_takes_a_quarter_window_hop():
    x = Signal.from_values(np.zeros(4000), 8000)
    spec = stft_magnitude(x, 512)
    assert isinstance(spec, ad.DiffValue)
    assert spec.shape == (257, 4000 // 128 + 1)
    # the hop is always window/4; there is no argument to set it
    for call in (lambda: stft_magnitude(x, 512, 256), lambda: stft_magnitude(x, 512, hop=256)):
        with pytest.raises(TypeError):
            call()


def test_mel_pools_the_given_stft():
    spec = stft_magnitude(sine(440.0), 1024)
    mel = mel_spectrogram(spec, 16000, n_mels=64)
    assert mel.shape == (64, 63)
    # pooled through a sparse copy of the filterbank, so the sums run in
    # another order than the dense product's
    dense = mel_filterbank(16000, 1024, 64) @ spec.value
    np.testing.assert_allclose(mel.value, dense, rtol=1e-15, atol=1e-15 * np.abs(dense).max())


def test_cached_arrays_are_read_only():
    spec = stft_magnitude(sine(440.0), 1024)
    total = mel_spectrogram(spec, 16000).value.sum()
    fb = mel_filterbank(16000, 1024, 128)
    with pytest.raises(ValueError):
        fb *= 0
    idx = _frame_indices(16000, 1024, 256)
    with pytest.raises(ValueError):
        idx[0, 0] = 5
    assert mel_spectrogram(stft_magnitude(sine(440.0), 1024), 16000).value.sum() == total


def test_mel_argmax_moves_up_with_frequency():
    lo = mel_spectrogram(stft_magnitude(sine(400.0), 1024), 16000)
    hi = mel_spectrogram(stft_magnitude(sine(500.0), 1024), 16000)
    band_lo = np.argmax(lo.value.mean(axis=1))
    band_hi = np.argmax(hi.value.mean(axis=1))
    assert band_hi > band_lo


def test_process_identity_is_identity():
    spec = stft_magnitude(sine(440.0), 512)
    assert process(spec, "identity") is spec


def test_process_log_floor_on_zeros():
    spec = stft_magnitude(zeros(CFG), 512)
    logged = process(spec, "log")
    np.testing.assert_allclose(logged.value, np.log(LOG_OFFSET), atol=1e-12)


def test_process_cumsum_final_column_is_row_sum():
    spec = stft_magnitude(sine(440.0), 512)
    ct = process(spec, "cumsum_time")
    np.testing.assert_allclose(ct.value[:, -1], spec.value.sum(axis=1), rtol=1e-12)
    cf = process(spec, "cumsum_freq")
    np.testing.assert_allclose(cf.value[-1, :], spec.value.sum(axis=0), rtol=1e-12)


def test_process_rejects_unknown_kind():
    spec = stft_magnitude(sine(440.0), 512)
    with pytest.raises(SpectralConfigError):
        process(spec, "sqrt")


def test_cumsum_commutes_with_scaling():
    spec = stft_magnitude(sine(440.0), 512)
    scaled = spec * 3.0
    for kind in ("cumsum_time", "cumsum_freq"):
        a = process(scaled, kind).value
        b = process(spec, kind).value * 3.0
        np.testing.assert_allclose(a, b, rtol=1e-12)


def test_normalized_cumsum_is_scale_invariant():
    spec = stft_magnitude(sine(440.0), 512)
    scaled = spec * 5.0
    a = process(spec, "cumsum_freq", normalize=True).value
    b = process(scaled, "cumsum_freq", normalize=True).value
    np.testing.assert_allclose(a, b, rtol=1e-6, atol=1e-9)


@pytest.mark.parametrize("kind", ["identity", "log", "cumsum_time", "cumsum_freq"])
@pytest.mark.parametrize("transform", ["spectrogram", "mel"])
def test_processed_spectrogram_gradients_match_fd(kind, transform):
    cfg = RenderConfig(duration=0.25)

    def f(p):
        out = render_oscillator(
            {"amp": p["amp"], "freq": 440.0, "waveform": "sine", "active": "on"},
            cfg,
        )
        spec = stft_magnitude(out, 512)
        if transform == "mel":
            spec = mel_spectrogram(spec, cfg.sample_rate)
        proc = process(spec, kind)
        return ad.bsum(proc * proc)

    err = ad.finite_difference_check(f, {"amp": 0.73}, step=1e-6)["amp"]
    assert err < 1e-3


def test_stft_deterministic():
    a = stft_magnitude(sine(313.0), 512).value
    b = stft_magnitude(sine(313.0), 512).value
    np.testing.assert_array_equal(a, b)
