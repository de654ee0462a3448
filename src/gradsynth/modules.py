"""Sound generators and processors: each a pure differentiable function
from parameters (plus optional input signals) to one signal.

Continuous parameters accept floats or tracked scalar :class:`DiffValue`
values; categorical parameters (the on/off switches among them) are plain
string labels and are never differentiated.  Each module reads and checks
every parameter its catalog entry lists, in one pass.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from gradsynth import autodiff as ad
from gradsynth.autodiff import DiffValue
from gradsynth.audio import RenderConfig, Signal, zeros

__all__ = [
    "CATALOG",
    "CategoricalParam",
    "ContinuousParam",
    "MissingInputError",
    "ModuleCatalog",
    "ParameterRangeError",
    "SHARED_DURATION",
    "apply_adsr",
    "apply_lowpass",
    "apply_tremolo",
    "check_lowpass_length",
    "duration_left",
    "duration_used",
    "from_unit",
    "mix",
    "render_fm_oscillator",
    "render_lfo",
    "render_oscillator",
    "resolve_range",
    "unit_scale",
]

TWO_PI = 2.0 * math.pi

LOWPASS_TAPS = 101


class ParameterRangeError(ValueError):
    """A parameter value is not a number, or lies outside its catalog range."""


class MissingInputError(ValueError):
    """A module was invoked without a required input signal."""


@dataclass(frozen=True)
class ContinuousParam:
    """Range of one differentiable parameter; high=None means the render
    duration T, which such parameters share (``SHARED_DURATION``);
    log=True puts it on a log scale."""

    name: str
    low: float
    high: Optional[float]
    log: bool = False


@dataclass(frozen=True)
class CategoricalParam:
    name: str
    choices: tuple


@dataclass(frozen=True)
class ModuleCatalog:
    """Declared interface of one module kind (its ``CATALOG`` key)."""

    continuous: tuple
    categorical: tuple
    min_inputs: int
    max_inputs: Optional[int]  # None = unbounded


CATALOG: dict = {
    "osc": ModuleCatalog(
        continuous=(
            ContinuousParam("amp", 0.0, 1.0),
            ContinuousParam("freq", 20.0, 20000.0, log=True),
        ),
        categorical=(
            CategoricalParam("waveform", ("sine", "square", "saw")),
            CategoricalParam("active", ("on", "off")),
        ),
        min_inputs=0,
        max_inputs=0,
    ),
    "lfo": ModuleCatalog(
        continuous=(ContinuousParam("freq", 0.5, 20.0, log=True),),
        categorical=(CategoricalParam("active", ("on", "off")),),
        min_inputs=0,
        max_inputs=0,
    ),
    "fm_osc": ModuleCatalog(
        continuous=(
            ContinuousParam("amp_c", 0.0, 1.0),
            ContinuousParam("freq_c", 20.0, 20000.0, log=True),
            ContinuousParam("mod_index", 0.0, 100.0),
        ),
        categorical=(
            CategoricalParam("waveform", ("sine", "square", "saw")),
            CategoricalParam("fm_active", ("on", "off")),
        ),
        min_inputs=0,
        max_inputs=1,
    ),
    "lowpass": ModuleCatalog(
        continuous=(ContinuousParam("cutoff", 20.0, 8000.0, log=True),),
        categorical=(),
        min_inputs=1,
        max_inputs=1,
    ),
    "adsr": ModuleCatalog(
        continuous=(
            ContinuousParam("attack", 0.0, None),
            ContinuousParam("decay", 0.0, None),
            ContinuousParam("sustain", 0.0, 1.0),
            ContinuousParam("release", 0.0, None),
        ),
        categorical=(),
        min_inputs=1,
        max_inputs=1,
    ),
    "mix": ModuleCatalog(
        continuous=(),
        categorical=(),
        min_inputs=1,
        max_inputs=None,
    ),
    "tremolo": ModuleCatalog(
        continuous=(ContinuousParam("depth", 0.0, 1.0),),
        categorical=(),
        min_inputs=2,
        max_inputs=2,
    ),
}


# kind -> its continuous parameters whose range ends at the render duration
# (high=None: the ADSR attack, decay and release), in catalog order; their
# values together must fit in it
SHARED_DURATION = {
    kind: tuple(p.name for p in catalog.continuous if p.high is None)
    for kind, catalog in CATALOG.items()
}


def duration_used(values) -> float:
    """Sum of some shared-duration values, in the order given."""
    return sum(float(v) for v in values)


def duration_left(values, config: RenderConfig) -> float:
    """What the render duration leaves after some shared-duration values;
    below 0 when they overrun it."""
    return config.duration - duration_used(values)


def resolve_range(param: ContinuousParam, config: RenderConfig) -> tuple:
    """Concrete (low, high), substituting the render duration for None."""
    high = config.duration if param.high is None else param.high
    return param.low, high


def unit_scale(param: ContinuousParam, config: RenderConfig) -> tuple:
    """``(offset, span, clip)`` mapping a fraction u of the range to a
    value: ``offset + span*u``, or on a log scale its ``exp`` clamped to
    ``clip``.  These are :func:`autodiff.sigmoid_gate`'s arguments."""
    low, high = resolve_range(param, config)
    if param.log:
        if low <= 0:
            raise ValueError(f"{param.name} is log-scaled; need low > 0, got {low}")
        # exp(log(20.0)) rounds below 20.0, so the log scale needs the clamp
        log_low = math.log(low)
        return log_low, math.log(high) - log_low, (low, high)
    return low, high - low, None


def from_unit(param: ContinuousParam, u, config: RenderConfig):
    """The value at fraction ``u`` (a float or an array) of the range, on
    the parameter's scale, clamped into the range."""
    offset, span, _ = unit_scale(param, config)
    low, high = resolve_range(param, config)
    value = np.exp(offset + span * u) if param.log else offset + span * u
    if isinstance(value, np.ndarray):
        return np.clip(value, low, high)
    return min(max(value, low), high)  # several times cheaper than np.clip on one draw


def _read(kind: str, params: Mapping, config: Optional[RenderConfig]) -> dict:
    """Every catalog parameter of ``kind`` from ``params``, checked:
    continuous ones as scalar DiffValues inside their range (any other
    value must be a real number, not a bool), categorical ones as labels
    among their choices.  ``config`` may be None for a kind with no
    shared-duration parameter."""
    catalog = CATALOG[kind]
    read = {}
    for param in catalog.continuous:
        scalar = params[param.name]
        if not isinstance(scalar, DiffValue):
            try:
                if isinstance(scalar, bool) or not isinstance(scalar, numbers.Real):
                    raise TypeError
                scalar = DiffValue(float(scalar))
            except (TypeError, OverflowError):
                raise ParameterRangeError(
                    f"{kind}.{param.name} = {scalar!r} is not a number"
                ) from None
        low, high = resolve_range(param, config)
        # Generator frequencies render at any positive value below the catalog
        # ceiling (the low bound constrains sampling and matching, not the
        # sampling grid itself); every other parameter is held to its range.
        if param.name in ("freq", "freq_c"):
            if not (0.0 < scalar.value <= high):
                raise ParameterRangeError(
                    f"{kind}.{param.name} = {scalar.value} outside (0, {high}]"
                )
        elif not (low <= scalar.value <= high):
            raise ParameterRangeError(
                f"{kind}.{param.name} = {scalar.value} outside [{low}, {high}]"
            )
        read[param.name] = scalar
    for param in catalog.categorical:
        label = params[param.name]
        if label not in param.choices:
            raise ParameterRangeError(f"{kind}.{param.name} = {label!r} not in {param.choices}")
        read[param.name] = label
    return read


def _wave_from_cycles(waveform: str, cycles, amp) -> DiffValue:
    """Waveform value at a running cycle count (phase / 2π); ``waveform``
    is one of the catalog's choices, as :func:`_read` checks."""
    if waveform == "sine":
        return ad.sin(cycles * TWO_PI) * amp
    if waveform == "saw":
        return (ad.frac(cycles) * 2.0 - 1.0) * amp
    return ad.sign_surrogate(ad.sin(cycles * TWO_PI)) * amp  # square


def render_oscillator(params: Mapping, config: RenderConfig) -> Signal:
    """sine: amp*sin(2*pi*f*t); saw: amp*(2*frac(f*t)-1); square:
    amp*sgn(sin(2*pi*f*t)) with a tanh surrogate on the backward pass."""
    p = _read("osc", params, config)
    if p["active"] == "off":
        return zeros(config)
    cycles = DiffValue(config.times()) * p["freq"]
    return Signal(_wave_from_cycles(p["waveform"], cycles, p["amp"]), config.sample_rate)


def render_lfo(params: Mapping, config: RenderConfig) -> Signal:
    """Sub-audible sine control signal in [-1, 1]."""
    p = _read("lfo", params, config)
    if p["active"] == "off":
        return zeros(config)
    phase = DiffValue(config.times()) * p["freq"] * TWO_PI
    return Signal(ad.sin(phase), config.sample_rate)


def render_fm_oscillator(
    params: Mapping, modulator: Optional[Signal], config: RenderConfig
) -> Signal:
    """Phase modulation: cycles_k = f_c*t_k + (mod_index/sr)*cumsum(m)_k.

    fm_active=off bypasses modulation and renders the plain carrier; its
    mod_index is still checked.
    """
    p = _read("fm_osc", params, config)
    cycles = DiffValue(config.times()) * p["freq_c"]
    if p["fm_active"] == "on":
        if modulator is None:
            raise MissingInputError("fm_osc: fm_active=on requires a modulator input")
        integral = ad.cumsum(modulator.samples) * (1.0 / config.sample_rate)
        cycles = cycles + integral * p["mod_index"]
    return Signal(_wave_from_cycles(p["waveform"], cycles, p["amp_c"]), config.sample_rate)


def apply_adsr(input_signal: Signal, params: Mapping, config: RenderConfig) -> Signal:
    """Multiply by the piecewise-linear attack/decay/sustain/release envelope."""
    p = _read("adsr", params, config)
    attack, decay, sustain, release = p["attack"], p["decay"], p["sustain"], p["release"]
    total = duration_used((attack.value, decay.value, release.value))
    if total > config.duration + 1e-12:
        raise ParameterRangeError(
            f"adsr: attack+decay+release = {total} exceeds duration {config.duration}"
        )
    t = DiffValue(config.times())
    duration = config.duration

    if attack.value > 0.0:
        env = ad.clamp(t / attack, 0.0, 1.0)
    else:
        env = DiffValue(np.ones(config.num_samples))
    if decay.value > 0.0:
        ramp = ad.clamp((t - attack) / decay, 0.0, 1.0)
    else:
        # instant drop to sustain once the attack completes
        ramp = DiffValue((config.times() >= attack.value) * 1.0)
    env = env * (ramp * (sustain - 1.0) + 1.0)
    if release.value > 0.0:
        env = env * ad.clamp((duration - t) / release, 0.0, 1.0)
    return Signal(input_signal.samples * env, config.sample_rate)


def _lowpass_kernel(cutoff: DiffValue, sample_rate: int):
    """Hamming-windowed sinc taps, closed-form in the cutoff frequency,
    normalized to unit DC gain."""
    half = (LOWPASS_TAPS - 1) // 2
    offsets = np.arange(LOWPASS_TAPS, dtype=np.float64) - half
    center = offsets == 0.0
    safe = np.where(center, 1.0, offsets)
    omega = cutoff * (TWO_PI / sample_rate)
    off_taps = ad.sin(omega * DiffValue(safe)) / DiffValue(np.pi * safe)
    carved = off_taps * DiffValue(np.where(center, 0.0, 1.0))
    peak = (omega * (1.0 / np.pi)) * DiffValue(center * 1.0)
    window = np.hamming(LOWPASS_TAPS)
    taps = (carved + peak) * DiffValue(window)
    return taps / ad.bsum(taps)


def check_lowpass_length(num_samples: int) -> None:
    """Reject a render too short for the low-pass kernel."""
    if num_samples < LOWPASS_TAPS:
        raise ParameterRangeError(
            f"lowpass: a {num_samples}-sample render is shorter than the "
            f"{LOWPASS_TAPS}-tap kernel; render at least {LOWPASS_TAPS} samples"
        )


def apply_lowpass(input_signal: Signal, params: Mapping, config: RenderConfig) -> Signal:
    """Zero-padded 'same' convolution with a 101-tap windowed-sinc kernel.

    A cutoff above Nyquist passes every frequency the render holds, so it
    renders as the open filter: the kernel at Nyquist, with no gradient.
    """
    cutoff = _read("lowpass", params, config)["cutoff"]
    if cutoff.value > config.sample_rate / 2:
        cutoff = DiffValue(config.sample_rate / 2)
    check_lowpass_length(len(input_signal))
    kernel = _lowpass_kernel(cutoff, config.sample_rate)
    return Signal(ad.convolve_same(input_signal.samples, kernel), config.sample_rate)


def mix(inputs: Sequence[Signal]) -> Signal:
    """Elementwise arithmetic mean of the inputs."""
    if not inputs:
        raise MissingInputError("mix: requires at least one input")
    rates = {s.sample_rate for s in inputs}
    lengths = {len(s) for s in inputs}
    if len(rates) != 1 or len(lengths) != 1:
        raise MissingInputError("mix: inputs disagree on rate or length")
    acc = inputs[0].samples
    for s in inputs[1:]:
        acc = acc + s.samples
    return Signal(acc * (1.0 / len(inputs)), inputs[0].sample_rate)


def apply_tremolo(input_signal: Signal, lfo: Optional[Signal], params: Mapping) -> Signal:
    """Amplitude pulse: out = in * ((1-depth) + depth*(lfo+1)/2)."""
    if lfo is None:
        raise MissingInputError("tremolo: requires an LFO input")
    depth = _read("tremolo", params, None)["depth"]
    gain = (lfo.samples + 1.0) * 0.5 * depth + (1.0 - depth)
    return Signal(input_signal.samples * gain, input_signal.sample_rate)
