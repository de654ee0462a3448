"""Pins the benchmark's reference computations to closed forms.

Run with ``python3 -m pytest perfbench``.  A reference that drifts from
these values would let a fault in the program pass as agreement.
"""

import math

import numpy as np
import pytest

import reference as ref

SR = 16000


@pytest.mark.parametrize("window", [512, 1024])
def test_bin_centred_sine_peaks_at_its_bin_with_amplitude_n_over_4(window):
    k, amp = 37, 0.6
    x = amp * np.sin(2 * math.pi * (k * SR / window) * np.arange(SR) / SR)
    mag = ref.stft_magnitude(x, window)
    assert mag.shape == (window // 2 + 1, 1 + SR // (window // 4))
    interior = mag[:, 4:-4]
    assert np.all(np.argmax(interior, axis=0) == k)
    # periodic Hann sums to window/2; a sine's bin holds half its amplitude
    np.testing.assert_allclose(interior[k], amp * window / 4, rtol=1e-9)


def test_stft_pads_by_reflection():
    x = np.random.default_rng(0).standard_normal(4096)
    mag = ref.stft_magnitude(x, 512)
    first = np.concatenate([x[256:0:-1], x[:256]])
    hann = 0.5 - 0.5 * np.cos(2 * math.pi * np.arange(512) / 512)
    np.testing.assert_allclose(mag[:, 0], np.abs(np.fft.rfft(first * hann)), rtol=1e-12, atol=1e-12)


def test_slaney_scale_closed_form_points():
    assert ref.hz_to_mel(1000.0) == pytest.approx(15.0, abs=1e-12)
    assert ref.hz_to_mel(6400.0) == pytest.approx(42.0, abs=1e-12)
    assert ref.hz_to_mel(200.0) == pytest.approx(3.0, abs=1e-12)
    f = np.array([0.0, 50.0, 999.0, 1000.0, 3000.0, 8000.0])
    np.testing.assert_allclose(ref.mel_to_hz(ref.hz_to_mel(f)), f, rtol=1e-12, atol=1e-9)


def test_mel_filters_are_area_normalised_triangles():
    fb = ref.mel_filterbank(SR, 1024, 128)
    assert fb.shape == (128, 513)
    assert np.all(fb >= 0.0)
    df = SR / 1024
    edges = ref.mel_to_hz(np.linspace(0.0, ref.hz_to_mel(SR / 2), 130))
    wide = (edges[2:] - edges[:-2]) >= 20 * df
    assert wide.sum() >= 8
    np.testing.assert_allclose(fb[wide].sum(axis=1) * df, 1.0, rtol=0.01)
    # below 1 kHz the filters are equally spaced in Hz
    low = np.diff(edges[edges < 1000.0])
    np.testing.assert_allclose(low, low[0], rtol=1e-9)


def test_log_spectral_distance_closed_forms():
    x = np.random.default_rng(1).standard_normal(SR)
    assert ref.log_spectral_distance(x, x, 1024) == 0.0
    entries = ref.stft_magnitude(x, 1024).size
    assert ref.log_spectral_distance(x, 2 * x, 1024) == pytest.approx(
        math.log(2) * math.sqrt(entries), rel=1e-9
    )


def test_stft_l1_loss_against_silence_is_total_magnitude():
    x = np.random.default_rng(2).standard_normal(SR)
    expected = sum(ref.stft_magnitude(x, w).sum() for w in (512, 1024))
    assert ref.stft_l1_loss(x, np.zeros(SR), (512, 1024)) == pytest.approx(expected, rel=1e-12)


def test_oscillator_waveforms_at_closed_form_times():
    freq, n = 250.0, 64  # 64 samples per cycle at 16 kHz
    saw, _ = ref.oscillator("saw", 0.5, freq, n, SR)
    np.testing.assert_allclose(saw, 0.5 * (2 * np.arange(n) / n - 1), atol=1e-12)
    square, ambiguous = ref.oscillator("square", 0.5, freq, n, SR)
    assert ambiguous[32] and ambiguous.sum() == 1
    assert np.all(square[1:32] == 0.5) and np.all(square[33:] == -0.5)
    sine, _ = ref.oscillator("sine", 1.0, freq, n, SR)
    assert sine[16] == pytest.approx(1.0)


def test_adsr_envelope_breakpoints():
    n = SR  # 1 s
    env = ref.adsr_envelope(0.1, 0.2, 0.5, 0.25, n, SR)
    at = lambda seconds: env[int(round(seconds * SR))]
    assert at(0.0) == 0.0
    assert at(0.05) == pytest.approx(0.5)
    assert at(0.1) == pytest.approx(1.0)
    assert at(0.2) == pytest.approx(0.75)
    assert at(0.3) == pytest.approx(0.5)
    assert at(0.75) == pytest.approx(0.5)
    assert at(0.875) == pytest.approx(0.25)


@pytest.mark.parametrize("cutoff", [50.0, 1000.0, 7900.0])
def test_lowpass_passes_dc_unchanged(cutoff):
    taps = ref.lowpass_taps(cutoff, SR)
    assert taps.shape == (101,)
    assert taps.sum() == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(taps, taps[::-1], atol=1e-15)
    out = ref.lowpass(np.ones(1000), cutoff, SR)
    np.testing.assert_allclose(out[50:-50], 1.0, atol=1e-12)


def test_lowpass_attenuates_above_cutoff():
    t = np.arange(SR) / SR
    out = ref.lowpass(np.sin(2 * math.pi * 4000 * t), 1000.0, SR)
    assert np.max(np.abs(out[200:-200])) < 1e-3


def test_basic_chain_render_mixes_envelopes_and_filters():
    params = {
        "osc0": {"amp": 0.8, "freq": 250.0, "waveform": "sine", "active": "on"},
        "osc1": {"amp": 0.3, "freq": 500.0, "waveform": "saw", "active": "off"},
        "adsr": {"attack": 0.0, "decay": 0.0, "sustain": 1.0, "release": 0.0},
        "lowpass": {"cutoff": 7999.0},
    }
    out, bound = ref.render_basic(params, SR, SR)
    assert np.all(bound == 0.0)
    # an off oscillator still counts in the mean, and the filter leaves a
    # tone far below its cutoff almost untouched
    expected = 0.4 * np.sin(2 * math.pi * 250.0 * np.arange(SR) / SR)
    np.testing.assert_allclose(out[100:-100], expected[100:-100], atol=5e-4)
    params["osc0"]["active"] = "off"
    silent, _ = ref.render_basic(params, SR, SR)
    assert not silent.any()


def test_wav_samples_are_clipped_float32():
    got = ref.as_wav_samples(np.array([-2.0, 0.1, 1.5]))
    assert got.dtype == np.float32
    np.testing.assert_array_equal(got, np.array([-1.0, 0.1, 1.0], dtype=np.float32))


def test_perturbation_features_closed_forms():
    x = np.random.default_rng(3).standard_normal(4000)
    mag = ref.stft_magnitude(x, 1024)
    np.testing.assert_array_equal(ref.perturbation_features(x, "spectrogram", "identity", SR), mag)
    np.testing.assert_allclose(
        ref.perturbation_features(x, "spectrogram", "cumsum_time", SR)[:, -1], mag.sum(axis=1), rtol=1e-12
    )
    np.testing.assert_allclose(
        ref.perturbation_features(x, "spectrogram", "cumsum_freq", SR)[-1], mag.sum(axis=0), rtol=1e-12
    )
    silent = ref.perturbation_features(np.zeros(4000), "mel", "identity", SR)
    assert silent.shape == (128, mag.shape[1])
    np.testing.assert_allclose(silent, math.log(1e-5), rtol=1e-12)
