"""Signal type, sampling grid, and WAV round-trips."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.io import wavfile

from gradsynth import audio
from gradsynth.audio import (
    AudioIOError,
    RenderConfig,
    Signal,
    fan_out,
    read_wav,
    write_wav,
    zeros,
)
from gradsynth.chains import CellAddress, parse_chain_file
from gradsynth.datasets import generate_dataset
from gradsynth.experiments import perturbation_trials
from gradsynth.losses import LossConfig
from gradsynth.matching import OptimizerConfig, match


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


@pytest.mark.parametrize("bad", [dict(sample_rate=0), dict(duration=-1.0), dict(duration=1e-5)])
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
        assert write_wav(s, path) == 2
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


# -- process fan-out ------------------------------------------------------------


@pytest.fixture
def pools(monkeypatch):
    """The ``max_workers`` of every pool fan_out opens; each one maps in this process."""
    opened = []

    class SerialPool:
        def __init__(self, max_workers):
            opened.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(audio, "ProcessPoolExecutor", SerialPool)
    return opened


def test_fan_out_opens_a_pool_of_min_jobs_items_when_that_is_two_or_more(pools):
    assert fan_out(abs, [], 8) == []
    assert fan_out(abs, [-1], 8) == [1]
    assert fan_out(abs, [-1, -2, -3], 1) == [1, 2, 3]
    assert pools == []
    assert fan_out(abs, [-1, -2, -3], 8) == [1, 2, 3]
    assert fan_out(abs, [-1, -2, -3], 2) == [1, 2, 3]
    assert pools == [3, 2]


def test_every_pool_opens_no_more_workers_than_items(tmp_path, pools):
    cfg = RenderConfig(duration=0.125)
    chain = parse_chain_file("chain o\ncell 0 0 osc\n")
    generate_dataset(chain, 1, seed=0, out_dir=tmp_path / "one", render_config=cfg, jobs=8)
    generate_dataset(chain, 3, seed=0, out_dir=tmp_path / "three", render_config=cfg, jobs=8)
    assert pools == [3]

    pools.clear()
    perturbation_trials("saw", 300.0, (("spectrogram", "identity"),), trials=1, jobs=8)
    perturbation_trials("saw", 300.0, (("spectrogram", "identity"),), trials=3, jobs=8)
    assert pools == [3]

    pools.clear()
    target = zeros(cfg)
    loss = LossConfig(cells="output", windows=(256,))
    one_combo = {(CellAddress(0, 0), "waveform"): "sine", (CellAddress(0, 0), "active"): "on"}
    for restarts in (1, 2):
        opt = OptimizerConfig(steps=1, restarts=restarts, jobs=8)
        match(target, chain, loss, opt, fixed_params=one_combo, render_config=cfg)
    assert pools == [2]
