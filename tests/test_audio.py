"""Signal type, sampling grid, and WAV round-trips."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.io import wavfile

from gradsynth.audio import (
    AudioIOError,
    RenderConfig,
    Signal,
    read_wav,
    write_wav,
    zeros,
)


def test_default_grid():
    cfg = RenderConfig()
    assert cfg.sample_rate == 16000
    assert cfg.duration == 1.0
    assert cfg.num_samples == 16000


def test_time_grid_is_index_over_rate():
    cfg = RenderConfig(sample_rate=4, duration=1.0)
    np.testing.assert_array_equal(cfg.times(), [0.0, 0.25, 0.5, 0.75])


def test_time_grid_is_shared_and_read_only():
    grid = RenderConfig(sample_rate=4, duration=1.0).times()
    assert RenderConfig(sample_rate=4, duration=1.0).times() is grid
    with pytest.raises(ValueError):
        grid[0] = 1.0
    np.testing.assert_array_equal(grid, [0.0, 0.25, 0.5, 0.75])


def test_zeros_signal():
    cfg = RenderConfig()
    s = zeros(cfg)
    assert len(s) == 16000
    assert s.sample_rate == 16000
    assert not s.values.any()


@pytest.mark.parametrize("bad", [dict(sample_rate=0), dict(duration=-1.0)])
def test_config_rejects_nonpositive(bad):
    with pytest.raises(ValueError):
        RenderConfig(**bad)


def test_float_roundtrip(tmp_path):
    cfg = RenderConfig(duration=0.1)
    t = cfg.times()
    s = Signal.from_values(0.8 * np.sin(2 * np.pi * 440 * t), cfg.sample_rate)
    path = tmp_path / "sine.wav"
    write_wav(s, path)
    back = read_wav(path)
    assert back.sample_rate == 16000
    assert np.max(np.abs(back.values - s.values)) < 1e-6


def test_pcm16_roundtrip(tmp_path):
    cfg = RenderConfig(duration=0.05)
    t = cfg.times()
    values = 0.5 * np.sin(2 * np.pi * 200 * t)
    path = tmp_path / "pcm.wav"
    wavfile.write(path, cfg.sample_rate, np.round(values * 32768).astype(np.int16))
    back = read_wav(path)
    assert np.max(np.abs(back.values - values)) <= 1.0 / 32768


def test_write_clips_and_warns(tmp_path, caplog):
    s = Signal.from_values([0.0, 2.0, -3.0], 16000)
    path = tmp_path / "hot.wav"
    with caplog.at_level("WARNING", logger="gradsynth.audio"):
        write_wav(s, path)
    assert any("clipping" in r.message for r in caplog.records)
    back = read_wav(path)
    np.testing.assert_allclose(back.values, [0.0, 1.0, -1.0], atol=1e-7)


def test_write_rejects_nonfinite(tmp_path):
    s = Signal.from_values([0.0, np.nan], 16000)
    with pytest.raises(AudioIOError):
        write_wav(s, tmp_path / "bad.wav")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_read_rejects_nonfinite(tmp_path, bad):
    path = tmp_path / "bad.wav"
    samples = np.zeros(100, dtype=np.float32)
    samples[37] = bad
    wavfile.write(path, 16000, samples)
    with pytest.raises(AudioIOError, match="bad.wav: non-finite"):
        read_wav(path)


def test_read_rejects_stereo(tmp_path):
    path = tmp_path / "stereo.wav"
    wavfile.write(path, 16000, np.zeros((100, 2), dtype=np.float32))
    with pytest.raises(AudioIOError, match="channels"):
        read_wav(path)


def test_read_rejects_unsupported_format(tmp_path):
    path = tmp_path / "wide.wav"
    wavfile.write(path, 16000, np.zeros(100, dtype=np.int32))
    with pytest.raises(AudioIOError, match="format"):
        read_wav(path)


def test_read_rejects_garbage(tmp_path):
    path = tmp_path / "noise.bin"
    path.write_bytes(b"this is not audio")
    with pytest.raises(AudioIOError, match="unreadable"):
        read_wav(path)
