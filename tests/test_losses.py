import gc
import math
import re
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradsynth.audio import RenderConfig, Signal
from gradsynth.autodiff import Tape, finite_difference_check
from gradsynth.chains import (
    AssignmentError,
    Cell,
    CellAddress,
    ChainSpec,
    ChainValidationError,
    Connection,
    ParameterAssignment,
    generate_signal,
    parse_chain_file,
)
from gradsynth.datasets import sample_assignment
from gradsynth.losses import (
    CATEGORICAL_SMOOTHING,
    LossConfig,
    LossConfigError,
    chain_features,
    combined_loss,
    feature_distance,
    log_spectral_distance,
    parameter_loss,
    signal_chain_loss,
    spectral_features,
)
from gradsynth.spectral import PROCESSINGS, mel_spectrogram, stft_magnitude
from assignments import from_cells

CFG = RenderConfig(duration=0.25)

OSC_CHAIN = ChainSpec("single", (Cell(CellAddress(0, 0), "osc"),), ())

MIX_CHAIN = ChainSpec(
    "pair",
    (
        Cell(CellAddress(0, 0), "osc"),
        Cell(CellAddress(1, 0), "osc"),
        Cell(CellAddress(0, 1), "mix"),
    ),
    (
        Connection(CellAddress(0, 0), CellAddress(0, 1)),
        Connection(CellAddress(1, 0), CellAddress(0, 1)),
    ),
)


def osc_assignment(amp, freq, waveform="sine"):
    return from_cells(
        {CellAddress(0, 0): {"amp": amp, "freq": freq, "waveform": waveform, "active": "on"}}
    )


def mix_assignment(freq0, freq1):
    assignment = from_cells(
        {
            CellAddress(0, 0): {
                "amp": 0.6,
                "freq": freq0,
                "waveform": "sine",
                "active": "on",
            },
            CellAddress(1, 0): {
                "amp": 0.4,
                "freq": freq1,
                "waveform": "saw",
                "active": "on",
            },
            CellAddress(0, 1): {},
        }
    )
    return MIX_CHAIN, assignment


# -- parameter loss --------------------------------------------------------


def test_parameter_loss_self_is_smoothing_only():
    a = osc_assignment(0.5, 440.0)
    loss = parameter_loss(OSC_CHAIN, a, a, "L1", CFG)
    # two categorical params (waveform, active), each -ln(1 - eps)
    assert loss.value == pytest.approx(2 * -math.log(1 - CATEGORICAL_SMOOTHING), abs=1e-12)


def test_a_warp_chain_never_reaches_parameter_loss():
    a = osc_assignment(0.5, 440.0)
    with pytest.raises(ChainValidationError, match="unknown kind 'warp'"):
        parameter_loss(ChainSpec("w", (Cell(CellAddress(0, 0), "warp"),), ()), a, a, "L1", CFG)


def test_parameter_loss_l1_single_param():
    # amp range is [0, 1] so normalized values equal raw values
    pred = osc_assignment(0.2, 440.0)
    targ = osc_assignment(0.5, 440.0)
    loss = parameter_loss(OSC_CHAIN, pred, targ, "L1", CFG)
    expected = 0.3 + 2 * -math.log(1 - CATEGORICAL_SMOOTHING)
    assert loss.value == pytest.approx(expected, abs=1e-9)


def test_parameter_loss_l2_two_params():
    # normalized diffs: amp 0.1, freq 0.2 of the [20, 20000] range
    span = 20000.0 - 20.0
    pred = osc_assignment(0.3, 20.0 + 0.1 * span)
    targ = osc_assignment(0.4, 20.0 + 0.3 * span)
    loss = parameter_loss(OSC_CHAIN, pred, targ, "L2", CFG)
    expected = 0.01 + 0.04 + 2 * -math.log(1 - CATEGORICAL_SMOOTHING)
    assert loss.value == pytest.approx(expected, rel=1e-9)


def test_parameter_loss_categorical_mismatch():
    pred = osc_assignment(0.5, 440.0, "saw")
    targ = osc_assignment(0.5, 440.0, "sine")
    loss = parameter_loss(OSC_CHAIN, pred, targ, "L1", CFG)
    expected = -math.log(CATEGORICAL_SMOOTHING) + -math.log(1 - CATEGORICAL_SMOOTHING)
    assert loss.value == pytest.approx(expected, rel=1e-12)


def test_parameter_loss_shape_mismatch():
    pred = osc_assignment(0.5, 440.0)
    bad = from_cells({CellAddress(1, 1): {}})
    with pytest.raises(AssignmentError):
        parameter_loss(OSC_CHAIN, pred, bad, "L1", CFG)


def test_parameter_loss_unknown_cell():
    bad = from_cells(
        {CellAddress(3, 3): {"amp": 0.5, "freq": 440.0, "waveform": "sine", "active": "on"}}
    )
    with pytest.raises(AssignmentError):
        parameter_loss(OSC_CHAIN, bad, bad, "L1", CFG)


def test_parameter_loss_rejects_a_cell_both_assignments_leave_out():
    chain = parse_chain_file((Path(__file__).parents[1] / "chains" / "basic.chain").read_text())

    def without_first_oscillator(seed):
        params = sample_assignment(chain, np.random.default_rng(seed)).params
        return ParameterAssignment({k: v for k, v in params.items() if k[0] != CellAddress(0, 0)})

    pred, targ = without_first_oscillator(0), without_first_oscillator(1)
    names = ", ".join(f"(0,0).{n}" for n in ("active", "amp", "freq", "waveform"))
    with pytest.raises(AssignmentError, match=re.escape(f"missing parameter(s) {names}") + "$"):
        parameter_loss(chain, pred, targ, "L1", CFG)


def test_parameter_loss_rejects_bad_kind():
    a = osc_assignment(0.5, 440.0)
    with pytest.raises(LossConfigError):
        parameter_loss(OSC_CHAIN, a, a, "huber", CFG)


def test_parameter_loss_differentiable():
    targ = osc_assignment(0.5, 440.0)
    tape = Tape()
    amp = tape.parameter(0.2, "amp")
    pred = from_cells(
        {CellAddress(0, 0): {"amp": amp, "freq": 440.0, "waveform": "sine", "active": "on"}}
    )
    loss = parameter_loss(OSC_CHAIN, pred, targ, "L1", CFG)
    grads = tape.backward(loss)
    assert grads["amp"] == pytest.approx(-1.0)  # d|0.2 - 0.5|/damp on unit range


@given(
    a=st.floats(0.0, 1.0, allow_nan=False),
    b=st.floats(0.0, 1.0, allow_nan=False),
)
@settings(max_examples=40, deadline=None)
def test_parameter_loss_symmetric_nonnegative(a, b):
    pa = osc_assignment(a, 440.0)
    pb = osc_assignment(b, 440.0)
    fwd = parameter_loss(OSC_CHAIN, pa, pb, "L1", CFG).value
    rev = parameter_loss(OSC_CHAIN, pb, pa, "L1", CFG).value
    assert fwd == pytest.approx(rev, abs=1e-12)
    assert fwd >= 0.0


# -- signal-chain loss -----------------------------------------------------


def test_chain_loss_identical_traces_zero():
    trace = generate_signal(OSC_CHAIN, osc_assignment(0.5, 440.0), CFG)
    cfg = LossConfig(windows=(512, 1024), processings=("identity", "log"))
    assert signal_chain_loss(trace, chain_features(trace, cfg), cfg).value == 0.0


def test_chain_loss_output_only_reduces_to_plain_distance():
    ta = generate_signal(OSC_CHAIN, osc_assignment(0.5, 440.0), CFG)
    tb = generate_signal(OSC_CHAIN, osc_assignment(0.5, 523.0), CFG)
    cfg = LossConfig(cells="output", windows=(1024,), processings=("identity",), norm_p=1)
    loss = signal_chain_loss(ta, chain_features(tb, cfg), cfg)
    plain = np.abs(
        stft_magnitude(ta.output, 1024).value - stft_magnitude(tb.output, 1024).value
    ).sum()
    assert loss.value == pytest.approx(plain, rel=1e-9)


def test_chain_loss_more_cells_never_decreases():
    chain, assignment = mix_assignment(440.0, 660.0)
    _, other = mix_assignment(330.0, 550.0)
    ta = generate_signal(chain, assignment, CFG)
    tb = generate_signal(chain, other, CFG)
    only_out = LossConfig(cells="output", windows=(1024,))
    all_cells = LossConfig(cells="all", windows=(1024,))
    assert (
        signal_chain_loss(ta, chain_features(tb, all_cells), all_cells).value
        >= signal_chain_loss(ta, chain_features(tb, only_out), only_out).value - 1e-12
    )


def test_chain_loss_symmetric():
    ta = generate_signal(OSC_CHAIN, osc_assignment(0.5, 440.0), CFG)
    tb = generate_signal(OSC_CHAIN, osc_assignment(0.7, 555.0), CFG)
    cfg = LossConfig(windows=(512,), processings=("identity", "cumsum_freq"))
    assert signal_chain_loss(ta, chain_features(tb, cfg), cfg).value == pytest.approx(
        signal_chain_loss(tb, chain_features(ta, cfg), cfg).value, rel=1e-12
    )


@pytest.mark.parametrize("processing", ["cumsum_time", "cumsum_freq"])
def test_cumsum_normalize_removes_overall_level(processing):
    # amp scales the output exactly, so tb's output is 2x ta's
    ta = generate_signal(OSC_CHAIN, osc_assignment(0.25, 440.0), CFG)
    tb = generate_signal(OSC_CHAIN, osc_assignment(0.5, 440.0), CFG)
    np.testing.assert_array_equal(tb.output.values, 2.0 * ta.output.values)

    def loss(normalize):
        cfg = LossConfig(
            cells="output", windows=(1024,), processings=(processing,), cumsum_normalize=normalize
        )
        return signal_chain_loss(ta, chain_features(tb, cfg), cfg).value

    assert loss(False) > 1.0
    assert loss(True) < 1e-3 * loss(False)


def test_chain_loss_missing_cell_rejected():
    # the target comes from a chain without the mix chain's cells (1,0) and (0,1)
    trace = generate_signal(*mix_assignment(440.0, 660.0), CFG)
    target = generate_signal(OSC_CHAIN, osc_assignment(0.5, 440.0), CFG)
    cfg = LossConfig(cells="all", windows=(1024,))
    with pytest.raises(
        LossConfigError,
        match=r"cells \(0,0\), \(0,1\), \(1,0\) but the target's features cover \(0,0\)$",
    ):
        signal_chain_loss(trace, chain_features(target, cfg), cfg)


def test_chain_loss_p2_is_frobenius():
    ta = generate_signal(OSC_CHAIN, osc_assignment(0.5, 440.0), CFG)
    tb = generate_signal(OSC_CHAIN, osc_assignment(0.5, 550.0), CFG)
    cfg = LossConfig(cells="output", windows=(1024,), norm_p=2)
    loss = signal_chain_loss(ta, chain_features(tb, cfg), cfg)
    diff = stft_magnitude(ta.output, 1024).value - stft_magnitude(tb.output, 1024).value
    assert loss.value == pytest.approx(np.sqrt((diff**2).sum()), rel=1e-9)


def test_chain_loss_mel_transform_runs():
    ta = generate_signal(OSC_CHAIN, osc_assignment(0.5, 440.0), CFG)
    tb = generate_signal(OSC_CHAIN, osc_assignment(0.5, 550.0), CFG)
    cfg = LossConfig(cells="output", windows=(1024,), transform="mel", n_mels=64)
    assert signal_chain_loss(ta, chain_features(tb, cfg), cfg).value > 0.0


@pytest.mark.parametrize("n_mels", [32, 64])
def test_chain_loss_n_mels_sets_the_filter_count(n_mels):
    one_second = RenderConfig(duration=1.0)
    ta = generate_signal(OSC_CHAIN, osc_assignment(0.5, 440.0), one_second)
    tb = generate_signal(OSC_CHAIN, osc_assignment(0.5, 470.0), one_second)
    cfg = LossConfig(cells="output", windows=(1024,), transform="mel", n_mels=n_mels)
    mel_a, mel_b = (
        mel_spectrogram(stft_magnitude(t.output, 1024), 16000, n_mels).value for t in (ta, tb)
    )
    assert mel_a.shape == (n_mels, 63)
    assert signal_chain_loss(ta, chain_features(tb, cfg), cfg).value == pytest.approx(
        np.abs(mel_a - mel_b).sum(), rel=1e-12
    )


@pytest.mark.parametrize("cells", ["all", "output"])
@pytest.mark.parametrize("cumsum_normalize", [False, True])
@pytest.mark.parametrize("norm_p", [1, 2])
@pytest.mark.parametrize("processing", PROCESSINGS)
@pytest.mark.parametrize("transform", ["spectrogram", "mel"])
def test_chain_loss_is_feature_distance_of_spectral_features(
    transform, processing, norm_p, cumsum_normalize, cells
):
    chain, assignment = mix_assignment(440.0, 660.0)
    _, other = mix_assignment(330.0, 550.0)
    ta = generate_signal(chain, assignment, CFG)
    tb = generate_signal(chain, other, CFG)
    cfg = LossConfig(
        cells=cells,
        windows=(512, 1024),
        processings=(processing,),
        norm_p=norm_p,
        transform=transform,
        cumsum_normalize=cumsum_normalize,
        n_mels=64,
    )
    pairs = (
        [(ta.output, tb.output)]
        if cells == "output"
        else [(ta.cell_outputs[a], tb.cell_outputs[a]) for a in sorted(ta.cell_outputs)]
    )
    want = 0.0
    for pa, pb in pairs:
        want += feature_distance(spectral_features(pa, cfg), spectral_features(pb, cfg), cfg).value
    assert len(spectral_features(ta.output, cfg)) == 2
    assert signal_chain_loss(ta, chain_features(tb, cfg), cfg).value == want
    if cells == "output":
        target_features = {"output": spectral_features(tb.output, cfg)}
        assert signal_chain_loss(ta, target_features, cfg).value == want


def test_chain_loss_gradient_matches_fd():
    targ = generate_signal(OSC_CHAIN, osc_assignment(0.5, 440.0), CFG)
    cfg = LossConfig(cells="output", windows=(512,), processings=("identity",))

    def build(vals):
        pred = from_cells(
            {
                CellAddress(0, 0): {
                    "amp": vals["amp"],
                    "freq": vals["freq"],
                    "waveform": "sine",
                    "active": "on",
                }
            }
        )
        trace = generate_signal(OSC_CHAIN, pred, CFG)
        return signal_chain_loss(trace, chain_features(targ, cfg), cfg)

    err = max(finite_difference_check(build, {"freq": 445.3, "amp": 0.62}, step=1e-3).values())
    assert err < 1e-3


@pytest.mark.parametrize("processing", ["cumsum_time", "cumsum_freq"])
@pytest.mark.parametrize("transform", ["spectrogram", "mel"])
def test_normalized_cumsum_gradient_matches_fd(transform, processing):
    # the unit-mass division broadcasts a (bins x 1) or (1 x frames) total,
    # so its adjoint is summed back down to that shape
    targ = generate_signal(OSC_CHAIN, osc_assignment(0.5, 440.0), CFG)
    cfg = LossConfig(
        cells="output", windows=(512,), processings=(processing,), transform=transform,
        cumsum_normalize=True,
    )

    def build(vals):
        trace = generate_signal(OSC_CHAIN, osc_assignment(vals["amp"], 445.3), CFG)
        return signal_chain_loss(trace, chain_features(targ, cfg), cfg)

    err = finite_difference_check(build, {"amp": 0.62}, step=1e-5)["amp"]
    assert err < 1e-4


def test_combined_loss_gradient_matches_fd():
    targ_assign = osc_assignment(0.5, 440.0)
    targ = generate_signal(OSC_CHAIN, targ_assign, CFG)
    cfg = LossConfig(cells="output", windows=(512,), processings=("log",))

    def build(vals):
        pred = from_cells(
            {
                CellAddress(0, 0): {
                    "amp": vals["amp"],
                    "freq": 440.0,
                    "waveform": "sine",
                    "active": "on",
                }
            }
        )
        trace = generate_signal(OSC_CHAIN, pred, CFG)
        spectral = signal_chain_loss(trace, chain_features(targ, cfg), cfg)
        params = parameter_loss(OSC_CHAIN, pred, targ_assign, "L2", CFG)
        return combined_loss(params, spectral, beta=0.5)

    err = finite_difference_check(build, {"amp": 0.31}, step=1e-4)["amp"]
    assert err < 1e-3


def test_chain_loss_continuous_in_frequency():
    cfg_render = RenderConfig(duration=0.125)
    targ = generate_signal(OSC_CHAIN, osc_assignment(0.5, 440.0), cfg_render)
    cfg = LossConfig(cells="output", windows=(256,))
    values = []
    for f in np.linspace(60.0, 4000.0, 1000):
        trace = generate_signal(OSC_CHAIN, osc_assignment(0.5, float(f)), cfg_render)
        values.append(signal_chain_loss(trace, chain_features(targ, cfg), cfg).value)
    assert np.all(np.isfinite(values))


# -- combined loss ---------------------------------------------------------


def test_combined_beta_zero_is_parameter_loss():
    assert combined_loss(1.25, 99.0, 0.0) == pytest.approx(1.25)


def test_combined_beta_one_zero_params():
    assert combined_loss(0.0, 3.5, 1.0) == pytest.approx(3.5)


def test_combined_affine_in_beta():
    lp, lsc = 0.7, 2.2
    base = combined_loss(lp, lsc, 0.0)
    one = combined_loss(lp, lsc, 0.9)
    two = combined_loss(lp, lsc, 1.8)
    assert two - base == pytest.approx(2 * (one - base), rel=1e-12)


def test_combined_rejects_negative_beta():
    with pytest.raises(LossConfigError):
        combined_loss(1.0, 1.0, -0.1)


def _one_taped_step(chain, target, cfg, prediction):
    """Loss and backward of one match step; returns a weak reference to its tape."""
    tape = Tape()
    params = {
        key: tape.parameter(v, key) if isinstance(v, float) else v
        for key, v in prediction.params.items()
    }
    params.update((key, "on") for key in params if key[1] == "active")
    trace = generate_signal(chain, ParameterAssignment(params), CFG)
    grads = tape.backward(signal_chain_loss(trace, target, cfg))
    assert any(g != 0.0 for g in grads.values())
    return weakref.ref(tape)


def test_taped_chain_loss_is_freed_by_reference_counting_alone():
    # a match runs hundreds of taped steps; with no reference cycle, each
    # step's tape and buffers go as soon as the step's names do
    chain = parse_chain_file((Path(__file__).parents[1] / "chains" / "basic.chain").read_text())
    cfg = LossConfig(cells="output", windows=(512, 1024), processings=("identity",))
    rng = np.random.default_rng(0)
    target = chain_features(generate_signal(chain, sample_assignment(chain, rng, CFG), CFG), cfg)
    prediction = sample_assignment(chain, rng, CFG)
    gc.disable()
    try:
        assert _one_taped_step(chain, target, cfg, prediction)() is None
    finally:
        gc.enable()


# -- log-spectral distance -------------------------------------------------


def _sine_signal(amp, freq, config):
    t = config.times()
    return Signal.from_values(amp * np.sin(2 * np.pi * freq * t), config.sample_rate)


def test_lsd_self_zero():
    x = _sine_signal(1000.0, 441.3, RenderConfig())
    assert log_spectral_distance(x, x) == 0.0


def test_lsd_symmetric():
    x = _sine_signal(1000.0, 441.3, RenderConfig())
    y = _sine_signal(800.0, 600.0, RenderConfig())
    assert log_spectral_distance(x, y) == pytest.approx(log_spectral_distance(y, x))


def test_lsd_scaling_closed_form():
    # amp large enough that no spectrogram entry falls below the floor
    config = RenderConfig()
    x = _sine_signal(1000.0, 441.3, config)
    y = _sine_signal(2000.0, 441.3, config)
    mags = stft_magnitude(x, 1024).value
    assert mags.min() > 1e-5
    bins, frames = mags.shape
    expected = math.log(2.0) * math.sqrt(bins * frames)
    assert log_spectral_distance(x, y) == pytest.approx(expected, rel=1e-9)


def test_lsd_rejects_length_mismatch():
    x = _sine_signal(1.0, 440.0, RenderConfig(duration=1.0))
    y = _sine_signal(1.0, 440.0, RenderConfig(duration=0.5))
    with pytest.raises(ValueError):
        log_spectral_distance(x, y)


def test_lsd_rejects_sample_rate_mismatch():
    # the same 4000 samples at two rates: equal lengths, different signals
    x = _sine_signal(1.0, 440.0, RenderConfig(duration=0.25))
    y = Signal(x.samples, 8000)
    with pytest.raises(ValueError, match="sample rates differ"):
        log_spectral_distance(x, y)


# -- config validation -----------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        {"cells": "everything"},
        {"cells": ()},
        {"cells": (CellAddress(0, 0),)},
        {"windows": ()},
        {"windows": (333,)},
        {"processings": ()},
        {"processings": ("fourier",)},
        {"norm_p": 3},
        {"transform": "cqt"},
        {"regression_kind": "L3"},
        {"transform": "mel", "n_mels": 0},
        {"n_mels": -3},
    ],
)
def test_loss_config_rejects(kwargs):
    with pytest.raises(LossConfigError):
        LossConfig(**kwargs)
