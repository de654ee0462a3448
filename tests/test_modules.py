"""Per-module oracles: closed forms, DFT structure, finite differences."""

from __future__ import annotations

import math

import numpy as np
import pytest

from gradsynth import autodiff as ad
from gradsynth.audio import RenderConfig, Signal
from gradsynth.modules import (
    CATALOG,
    MissingInputError,
    ParameterRangeError,
    _lowpass_kernel,
    apply_adsr,
    apply_lowpass,
    apply_tremolo,
    from_unit,
    mix,
    render_fm_oscillator,
    render_lfo,
    render_oscillator,
    resolve_range,
)

CFG = RenderConfig()


def osc_params(**over):
    base = {"amp": 1.0, "freq": 440.0, "waveform": "sine", "active": "on"}
    base.update(over)
    return base


def fm_params(**over):
    base = {
        "amp_c": 1.0,
        "freq_c": 440.0,
        "mod_index": 0.0,
        "waveform": "sine",
        "fm_active": "off",
    }
    base.update(over)
    return base


def adsr_params(**over):
    base = {"attack": 0.0, "decay": 0.0, "sustain": 1.0, "release": 0.0}
    base.update(over)
    return base


def sine_signal(freq=440.0, amp=1.0, config=CFG):
    t = config.times()
    return Signal.from_values(amp * np.sin(2 * np.pi * freq * t), config.sample_rate)


# -- oscillator -------------------------------------------------------------


def test_saw_closed_form_at_low_rate():
    cfg = RenderConfig(sample_rate=4, duration=1.0)
    out = render_oscillator(osc_params(waveform="saw", freq=1.0, amp=1.0), cfg)
    np.testing.assert_allclose(out.values, [-1.0, -0.5, 0.0, 0.5], atol=1e-15)


def test_sine_per_sample_oracle():
    out = render_oscillator(osc_params(), CFG)
    expected = np.sin(2 * np.pi * 440.0 * np.arange(16000) / 16000)
    assert np.max(np.abs(out.values - expected)) < 1e-12


def test_square_is_sign_of_sine():
    out = render_oscillator(osc_params(waveform="square", freq=100.0, amp=0.7), CFG)
    inner = np.sin(2 * np.pi * 100.0 * CFG.times())
    # half-period samples land on sign ties that depend on rounding order
    settled = np.abs(inner) > 1e-9
    np.testing.assert_array_equal(out.values[settled], 0.7 * np.sign(inner)[settled])
    assert np.all(np.isin(out.values, [-0.7, 0.0, 0.7]))


def test_zero_amplitude_is_silent():
    for waveform in ("sine", "square", "saw"):
        out = render_oscillator(osc_params(amp=0.0, waveform=waveform), CFG)
        assert not out.values.any()


def test_inactive_oscillator_is_silent():
    out = render_oscillator(osc_params(active="off"), CFG)
    assert not out.values.any()


def test_amplitude_bounds_output():
    for waveform in ("sine", "square", "saw"):
        out = render_oscillator(osc_params(amp=0.35, waveform=waveform, freq=777.7), CFG)
        assert np.max(np.abs(out.values)) <= 0.35 + 1e-12


@pytest.mark.parametrize("freq", [-5.0, 0.0, 30000.0])
def test_oscillator_frequency_range(freq):
    with pytest.raises(ParameterRangeError):
        render_oscillator(osc_params(freq=freq), CFG)


def test_sub_catalog_frequency_still_renders():
    out = render_oscillator(osc_params(freq=1.0, waveform="saw"), CFG)
    assert len(out) == CFG.num_samples


def test_oscillator_rejects_unknown_waveform():
    with pytest.raises(ParameterRangeError):
        render_oscillator(osc_params(waveform="triangle"), CFG)


def test_render_is_deterministic():
    a = render_oscillator(osc_params(waveform="saw", freq=313.3), CFG)
    b = render_oscillator(osc_params(waveform="saw", freq=313.3), CFG)
    np.testing.assert_array_equal(a.values, b.values)


# -- LFO --------------------------------------------------------------------


def test_lfo_quarter_period_peak():
    out = render_lfo({"freq": 1.0, "active": "on"}, CFG)
    assert out.values[4000] == pytest.approx(1.0, abs=1e-12)


def test_lfo_off_is_silent():
    out = render_lfo({"freq": 5.0, "active": "off"}, CFG)
    assert not out.values.any()


def test_lfo_zero_mean_over_integer_periods():
    out = render_lfo({"freq": 4.0, "active": "on"}, CFG)
    assert abs(np.mean(out.values)) < 1e-9


def test_lfo_range_enforced():
    with pytest.raises(ParameterRangeError):
        render_lfo({"freq": 40.0, "active": "on"}, CFG)


# -- FM oscillator ----------------------------------------------------------


def test_fm_zero_index_equals_plain_oscillator():
    modulator = sine_signal(5.0)
    out = render_fm_oscillator(
        fm_params(mod_index=0.0, fm_active="on"), modulator, CFG
    )
    plain = render_oscillator(osc_params(), CFG)
    np.testing.assert_allclose(out.values, plain.values, atol=1e-12)


def test_fm_bypass_ignores_modulator():
    modulator = sine_signal(5.0)
    out = render_fm_oscillator(fm_params(fm_active="off", mod_index=50.0), modulator, CFG)
    plain = render_oscillator(osc_params(), CFG)
    np.testing.assert_array_equal(out.values, plain.values)


def test_fm_active_requires_modulator():
    with pytest.raises(MissingInputError):
        render_fm_oscillator(fm_params(fm_active="on", mod_index=1.0), None, CFG)


def test_fm_matches_discrete_phase_formula():
    modulator = sine_signal(5.0)
    out = render_fm_oscillator(
        fm_params(fm_active="on", mod_index=10.0), modulator, CFG
    )
    t = CFG.times()
    phase = 2 * np.pi * 440.0 * t + (
        2 * np.pi * 10.0 / CFG.sample_rate
    ) * np.cumsum(np.sin(2 * np.pi * 5.0 * t))
    np.testing.assert_allclose(out.values, np.sin(phase), atol=1e-10)


def test_fm_sidebands_at_carrier_plus_minus_modulator_harmonics():
    modulator = sine_signal(5.0)
    out = render_fm_oscillator(
        fm_params(fm_active="on", mod_index=10.0), modulator, CFG
    )
    mag = np.abs(np.fft.rfft(out.values))
    # 1 Hz bin spacing: phase deviation index ~2 puts strong first/second
    # sidebands at 440±5 and 440±10 while draining the carrier
    assert mag[435] > 1000 and mag[445] > 1000
    assert mag[430] > 500 and mag[450] > 500
    assert mag[440] < 0.5 * max(mag[435], mag[445])


# -- ADSR -------------------------------------------------------------------


def test_adsr_identity_envelope():
    src = sine_signal()
    out = apply_adsr(src, adsr_params(), CFG)
    np.testing.assert_array_equal(out.values, src.values)


def test_adsr_attack_midpoint():
    ones = Signal.from_values(np.ones(CFG.num_samples), CFG.sample_rate)
    out = apply_adsr(ones, adsr_params(attack=0.4), CFG)
    k = int(0.2 * CFG.sample_rate)
    assert out.values[k] == pytest.approx(0.5, abs=1e-9)


def test_adsr_envelope_shape():
    ones = Signal.from_values(np.ones(CFG.num_samples), CFG.sample_rate)
    out = apply_adsr(
        ones, adsr_params(attack=0.1, decay=0.2, sustain=0.6, release=0.3), CFG
    )
    env = out.values
    t = CFG.times()
    assert np.all((env >= -1e-12) & (env <= 1.0 + 1e-12))
    # sustain plateau between decay end and release start
    plateau = env[(t > 0.31) & (t < 0.69)]
    np.testing.assert_allclose(plateau, 0.6, atol=1e-9)
    assert env[-1] == pytest.approx(0.0, abs=1e-3)
    k_attack = int(0.05 * CFG.sample_rate)
    assert env[k_attack] == pytest.approx(0.5, abs=1e-9)


def test_adsr_instant_decay_drops_to_sustain():
    ones = Signal.from_values(np.ones(CFG.num_samples), CFG.sample_rate)
    out = apply_adsr(ones, adsr_params(attack=0.25, decay=0.0, sustain=0.4), CFG)
    t = CFG.times()
    after = out.values[t >= 0.25]
    np.testing.assert_allclose(after, 0.4 * np.ones_like(after), atol=1e-9)


def test_adsr_segment_sum_enforced():
    src = sine_signal()
    with pytest.raises(ParameterRangeError):
        apply_adsr(src, adsr_params(attack=0.5, decay=0.4, release=0.2), CFG)


def test_adsr_sustain_gradient_matches_fd():
    src_values = np.sin(2 * np.pi * 110.0 * CFG.times())

    def f(p):
        src = Signal(ad.DiffValue(src_values), CFG.sample_rate)
        out = apply_adsr(
            src,
            {"attack": 0.1, "decay": 0.3, "sustain": p["sustain"], "release": 0.2},
            CFG,
        )
        return ad.bsum(out.samples * out.samples)

    err = ad.finite_difference_check(f, {"sustain": 0.55}, step=1e-6)["sustain"]
    assert err < 1e-4


def test_adsr_segment_gradients_match_fd():
    src_values = np.sin(2 * np.pi * 110.0 * CFG.times())

    def f(p):
        src = Signal(ad.DiffValue(src_values), CFG.sample_rate)
        out = apply_adsr(
            src,
            {
                "attack": p["attack"],
                "decay": p["decay"],
                "sustain": 0.4,
                "release": p["release"],
            },
            CFG,
        )
        return ad.bsum(out.samples * out.samples)

    # segment ends off the sample grid, away from the clamp kinks
    err = max(ad.finite_difference_check(
        f, {"attack": 0.13037, "decay": 0.21411, "release": 0.17253}, step=1e-6
    ).values())
    assert err < 1e-3


# -- lowpass ----------------------------------------------------------------


def test_lowpass_kernel_unit_dc_gain():
    kernel = _lowpass_kernel(ad.DiffValue(1234.5), 16000)
    assert np.sum(kernel.value) == pytest.approx(1.0, abs=1e-12)


def test_lowpass_passband_preserves_rms():
    src = sine_signal(100.0)
    out = apply_lowpass(src, {"cutoff": 4000.0}, CFG)
    rms_in = np.sqrt(np.mean(src.values**2))
    rms_out = np.sqrt(np.mean(out.values**2))
    assert abs(rms_out - rms_in) / rms_in < 0.01


def test_lowpass_stopband_attenuates():
    src = sine_signal(6000.0)
    out = apply_lowpass(src, {"cutoff": 500.0}, CFG)
    rms_in = np.sqrt(np.mean(src.values**2))
    rms_out = np.sqrt(np.mean(out.values**2))
    assert rms_out < 0.05 * rms_in


def test_lowpass_cutoff_gradient_matches_fd():
    cfg = RenderConfig(duration=0.25)
    src_values = np.sin(2 * np.pi * 220.0 * cfg.times()) + 0.3 * np.sin(
        2 * np.pi * 3000.0 * cfg.times()
    )

    def f(p):
        src = Signal(ad.DiffValue(src_values), cfg.sample_rate)
        out = apply_lowpass(src, {"cutoff": p["cutoff"]}, cfg)
        return ad.bsum(out.samples * out.samples)

    err = ad.finite_difference_check(f, {"cutoff": 1500.0}, step=1e-4)["cutoff"]
    assert err < 1e-3


def test_lowpass_range_and_nyquist():
    src = sine_signal()
    with pytest.raises(ParameterRangeError):
        apply_lowpass(src, {"cutoff": 10.0}, CFG)
    # above Nyquist the filter is open: the kernel at Nyquist, no gradient
    cfg = RenderConfig(sample_rate=12000, duration=0.1)
    noise = np.random.default_rng(0).standard_normal(cfg.num_samples)
    at_nyquist = apply_lowpass(Signal.from_values(noise, cfg.sample_rate), {"cutoff": 6000.0}, cfg)
    tape = ad.Tape()
    gain, cutoff = tape.parameter(1.0, "gain"), tape.parameter(7000.0, "cutoff")
    src = Signal(ad.DiffValue(noise) * gain, cfg.sample_rate)
    out = apply_lowpass(src, {"cutoff": cutoff}, cfg)
    np.testing.assert_array_equal(out.values, at_nyquist.values)
    grads = tape.backward(ad.bsum(out.samples * out.samples))
    assert grads["cutoff"] == 0.0 and grads["gain"] != 0.0


# -- mix and tremolo ---------------------------------------------------------


def test_mix_identities():
    s = sine_signal(330.0, amp=0.5)
    np.testing.assert_array_equal(mix([s]).values, s.values)
    np.testing.assert_allclose(mix([s, s]).values, s.values, atol=1e-15)
    neg = Signal.from_values(-s.values, s.sample_rate)
    assert np.max(np.abs(mix([s, neg]).values)) < 1e-15


def test_mix_requires_inputs():
    with pytest.raises(MissingInputError):
        mix([])


def test_tremolo_identities():
    src = sine_signal(220.0)
    lfo_high = Signal.from_values(np.ones(CFG.num_samples), CFG.sample_rate)
    lfo_low = Signal.from_values(-np.ones(CFG.num_samples), CFG.sample_rate)
    out0 = apply_tremolo(src, lfo_low, {"depth": 0.0})
    np.testing.assert_allclose(out0.values, src.values, atol=1e-15)
    out_cut = apply_tremolo(src, lfo_low, {"depth": 1.0})
    assert np.max(np.abs(out_cut.values)) < 1e-15
    out_pass = apply_tremolo(src, lfo_high, {"depth": 1.0})
    np.testing.assert_allclose(out_pass.values, src.values, atol=1e-15)


def test_tremolo_gain_band():
    src = Signal.from_values(np.ones(CFG.num_samples), CFG.sample_rate)
    lfo = render_lfo({"freq": 3.0, "active": "on"}, CFG)
    out = apply_tremolo(src, lfo, {"depth": 0.8})
    assert np.all(out.values <= 1.0 + 1e-12)
    assert np.all(out.values >= 0.2 - 1e-12)


def test_tremolo_requires_lfo():
    with pytest.raises(MissingInputError):
        apply_tremolo(sine_signal(), None, {"depth": 0.5})


@pytest.mark.parametrize("depth", [-0.1, 1.5, float("nan")])
def test_tremolo_depth_range_enforced(depth):
    with pytest.raises(ParameterRangeError, match=r"tremolo\.depth = .* outside \[0\.0, 1\.0\]"):
        apply_tremolo(sine_signal(), sine_signal(3.0), {"depth": depth})


# -- the parameter rule: a module that renders checks every catalog parameter --


def test_bypassed_fm_oscillator_still_checks_its_mod_index():
    with pytest.raises(ParameterRangeError, match=r"fm_osc\.mod_index = 150\.0 outside"):
        render_fm_oscillator(fm_params(fm_active="off", mod_index=150.0), None, CFG)


@pytest.mark.parametrize(
    "render, params, message",
    [
        (render_oscillator, osc_params(freq=-5.0, amp="loud"), "osc.amp = 'loud' is not a number"),
        (render_oscillator, osc_params(freq=-5.0), "osc.freq = -5.0 outside (0, 20000.0]"),
        (render_lfo, {"freq": 400.0}, "lfo.freq = 400.0 outside (0, 20.0]"),
    ],
    ids=["osc-amp", "osc-freq", "lfo-freq"],
)
def test_switched_off_generators_check_their_parameters_as_on_ones_do(render, params, message):
    for active in ("on", "off"):
        with pytest.raises(ParameterRangeError) as err:
            render({**params, "active": active}, CFG)
        assert str(err.value) == message


def test_valid_switched_off_generators_render_silence():
    for out in (
        render_oscillator(osc_params(active="off"), CFG),
        render_lfo({"freq": 4.0, "active": "off"}, CFG),
    ):
        assert len(out) == CFG.num_samples and not out.values.any()


def test_an_unknown_switch_label_is_rejected():
    with pytest.raises(ParameterRangeError, match=r"osc\.active = 'maybe' not in"):
        render_oscillator(osc_params(active="maybe"), CFG)
    with pytest.raises(ParameterRangeError, match=r"fm_osc\.fm_active = 'maybe' not in"):
        render_fm_oscillator(fm_params(fm_active="maybe"), None, CFG)


@pytest.mark.parametrize(
    "value",
    [None, [0.5], "abc", "0.5", True, False, 10**400],
    ids=["None", "list", "str", "numeric-str", "true", "false", "huge"],
)
def test_a_parameter_that_is_not_a_number_is_named(value):
    with pytest.raises(ParameterRangeError, match=r"osc\.amp = .* is not a number"):
        render_oscillator(osc_params(amp=value), CFG)
    lfo = sine_signal(3.0)
    with pytest.raises(ParameterRangeError, match=r"tremolo\.depth = .* is not a number"):
        apply_tremolo(sine_signal(), lfo, {"depth": value})


def test_numpy_scalars_read_as_their_numbers():
    np.testing.assert_array_equal(
        render_oscillator(osc_params(amp=np.float32(0.5), freq=np.int64(440)), CFG).values,
        render_oscillator(osc_params(amp=0.5, freq=440.0), CFG).values,
    )


def test_tremolo_depth_gradient_matches_fd():
    src_values = np.sin(2 * np.pi * 220.0 * CFG.times())
    lfo_values = np.sin(2 * np.pi * 3.0 * CFG.times())

    def f(p):
        src = Signal(ad.DiffValue(src_values), CFG.sample_rate)
        lfo = Signal(ad.DiffValue(lfo_values), CFG.sample_rate)
        out = apply_tremolo(src, lfo, {"depth": p["depth"]})
        return ad.bsum(out.samples * out.samples)

    err = ad.finite_difference_check(f, {"depth": 0.37}, step=1e-6)["depth"]
    assert err < 1e-6


# -- frequency gradients (smooth waveforms) ----------------------------------


@pytest.mark.parametrize("waveform", ["sine", "saw"])
def test_oscillator_gradients_match_fd(waveform):
    cfg = RenderConfig(duration=0.25)

    def f(p):
        out = render_oscillator(
            {"amp": p["amp"], "freq": p["freq"], "waveform": waveform, "active": "on"},
            cfg,
        )
        return ad.bsum(out.samples * out.samples)

    err = max(ad.finite_difference_check(
        f, {"amp": 0.8, "freq": 440.37}, step={"amp": 1e-6, "freq": 1e-6}
    ).values())
    assert err < 1e-3


def test_fm_parameter_gradients_match_fd():
    cfg = RenderConfig(duration=0.25)
    mod_values = np.sin(2 * np.pi * 7.0 * cfg.times())

    def f(p):
        modulator = Signal(ad.DiffValue(mod_values), cfg.sample_rate)
        out = render_fm_oscillator(
            {
                "amp_c": p["amp_c"],
                "freq_c": p["freq_c"],
                "mod_index": p["mod_index"],
                "waveform": "sine",
                "fm_active": "on",
            },
            modulator,
            cfg,
        )
        return ad.bsum(out.samples * out.samples)

    err = max(ad.finite_difference_check(
        f,
        {"amp_c": 0.9, "freq_c": 523.7, "mod_index": 12.0},
        step={"amp_c": 1e-6, "freq_c": 1e-6, "mod_index": 1e-6},
    ).values())
    assert err < 1e-3


# -- the unit-to-value map ------------------------------------------------------


def _every_continuous_param():
    """Every catalog parameter; ADSR times at two render durations."""
    for kind, catalog in CATALOG.items():
        for p in catalog.continuous:
            for cfg in (CFG, RenderConfig(duration=0.25)) if p.high is None else (CFG,):
                yield pytest.param(p, cfg, id=f"{kind}.{p.name}@{cfg.duration}")


def test_log_scale_marks_the_hz_parameters():
    logged = {(kind, p.name) for kind, c in CATALOG.items() for p in c.continuous if p.log}
    assert logged == {("osc", "freq"), ("lfo", "freq"), ("fm_osc", "freq_c"), ("lowpass", "cutoff")}


@pytest.mark.parametrize("param, cfg", list(_every_continuous_param()))
def test_from_unit_spans_the_range_in_order(param, cfg):
    low, high = resolve_range(param, cfg)
    assert from_unit(param, 0.0, cfg) == low
    top = from_unit(param, 1.0, cfg)
    assert low < top <= high
    grid = from_unit(param, np.linspace(0.0, 1.0, 1001), cfg)
    assert grid[0] == low and grid[-1] == top
    assert np.all((grid >= low) & (grid <= high))
    assert np.all(np.diff(grid) > 0)


def test_from_unit_midpoint_on_each_scale():
    amp, freq = CATALOG["osc"].continuous
    assert from_unit(amp, 0.5, CFG) == 0.5
    assert from_unit(freq, 0.5, CFG) == pytest.approx(math.sqrt(20.0 * 20000.0), rel=1e-12)
