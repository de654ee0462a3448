"""Tape autodiff: finite-difference oracles and convention checks."""

from __future__ import annotations

import gc
import math
import os
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.signal import fftconvolve

import gradsynth
from gradsynth import autodiff as ad
from gradsynth.autodiff import DiffValue, Tape
from gradsynth.spectral import WINDOW_SIZES


def _cos(v):
    return ad.sin(v + np.pi / 2)


def _tanh(u):
    # 1 - 2 / (exp(2u) + 1) works on buffers too, which sigmoid does not
    # take; past |2u| = 60 tanh is already +-1 in float64, so clamping
    # there changes nothing but keeps exp from overflowing
    return 1.0 - 2.0 / (ad.exp(ad.clamp(u * 2.0, -60.0, 60.0)) + 1.0)


def test_product_gradient():
    tape = Tape()
    p = tape.parameter(3.0, "p")
    grads = tape.backward(p * p)
    assert grads == {"p": 6.0}


def test_sin_gradient_at_zero():
    tape = Tape()
    p = tape.parameter(0.0, "p")
    grads = tape.backward(ad.sin(p))
    assert grads["p"] == 1.0


def _gate_chain(x, low, high, log):
    """The range gate as the separate ops ``sigmoid_gate`` replaces."""
    gate = ad.sigmoid(x)
    if log:
        log_low, log_high = math.log(low), math.log(high)
        return ad.clamp(ad.exp(log_low + gate * (log_high - log_low)), low, high)
    return low + gate * (high - low)


def _gate_args(low, high, log):
    if log:
        return math.log(low), math.log(high) - math.log(low), (low, high)
    return low, high - low


GATE_RANGES = [
    (0.0, 1.0, False),
    (0.0, 100.0, False),
    (-3.0, 7.5, False),
    (20.0, 20000.0, True),
    (20.0, 8000.0, True),
    (0.5, 20.0, True),
]
GATE_THETAS = sorted(
    {0.0, 1e-3, -1e-3, 0.5, -2.0, 2.0, 36.0, -37.0, -40.0, 40.0, 745.0, -800.0, 800.0}
    | set(np.linspace(-30.0, 30.0, 41).tolist())
)


@pytest.mark.parametrize("low, high, log", GATE_RANGES)
def test_sigmoid_gate_is_bitwise_the_op_chain(low, high, log):
    clamped = []
    for theta in GATE_THETAS:
        results = []
        for fused in (True, False):
            tape = Tape()
            t = tape.parameter(theta, "t")
            value = ad.sigmoid_gate(t, *_gate_args(low, high, log)) if fused else _gate_chain(
                t, low, high, log
            )
            # two consumers, so the gate's adjoint is not a plain 1.0
            loss = value * 1.7 + ad.sin(value)
            results.append((value.value, tape.backward(loss)["t"], len(tape)))
        (got, got_grad, fused_nodes), (want, want_grad, chain_nodes) = results
        assert (got, got_grad) == (want, want_grad), theta
        assert math.copysign(1.0, got_grad) == math.copysign(1.0, want_grad)
        assert fused_nodes == chain_nodes - (4 if log else 2)
        assert low <= got <= high
        if log:
            log_low, log_span, _ = _gate_args(low, high, log)
            unclamped = ad.exp(log_low + ad.sigmoid(theta) * log_span).value
            if not low <= unclamped <= high:
                clamped.append(theta)
    if (low, high) == (20.0, 8000.0):
        # sigmoid(-40) rounds the cutoff to exp(log(20.0)) = 19.999999999999996,
        # which the clamp returns to 20 with a zero gradient
        assert -40.0 in clamped and -800.0 in clamped


def test_sigmoid_gate_constant_input_records_nothing():
    assert ad.sigmoid_gate(0.25, 0.0, 1.0).node is None
    assert ad.sigmoid_gate(DiffValue(-40.0), *_gate_args(20.0, 8000.0, True)).value == 20.0
    with pytest.raises(ad.NumericDomainError):
        ad.sigmoid_gate(DiffValue(np.zeros(3)), 0.0, 1.0)


def test_sigmoid_takes_scalars_only():
    assert ad.sigmoid(0.0).value == 0.5
    assert ad.sigmoid(-800.0).value == 0.0 and ad.sigmoid(800.0).value == 1.0
    with pytest.raises(ad.NumericDomainError):
        ad.sigmoid(DiffValue(np.zeros(3)))


@pytest.mark.parametrize("low, high, log", GATE_RANGES)
@pytest.mark.parametrize("theta", [-2.0, 0.3, 2.5])
def test_sigmoid_gate_matches_fd(low, high, log, theta):
    def f(p):
        return ad.sigmoid_gate(p["t"], *_gate_args(low, high, log))

    assert ad.finite_difference_check(f, {"t": theta}, step=1e-6)["t"] < 1e-6


def test_clamp_flat_outside_band():
    tape = Tape()
    p = tape.parameter(2.0, "p")
    grads = tape.backward(ad.clamp(p, 0.0, 1.0))
    assert grads["p"] == 0.0


def test_clamp_band_edges_inclusive():
    for edge in (0.0, 1.0):
        tape = Tape()
        p = tape.parameter(edge, "p")
        assert tape.backward(ad.clamp(p, 0.0, 1.0))["p"] == 1.0


def test_frac_gradient_one_away_from_wrap_zero_at_wrap():
    tape = Tape()
    p = tape.parameter(2.5, "p")
    assert tape.backward(ad.frac(p))["p"] == 1.0
    tape = Tape()
    p = tape.parameter(3.0, "p")
    assert tape.backward(ad.frac(p))["p"] == 0.0


def test_frac_is_bitwise_np_mod_one():
    rng = np.random.default_rng(16)
    edges = [0.0, -0.0, -1e-18, 1e-18, 1.0, -1.0, 3.0, -3.0, 0.5, -0.5, 1e4, -1e4,
             np.nextafter(1.0, 0.0), -np.nextafter(1.0, 0.0), np.inf, -np.inf, np.nan]
    x = np.concatenate([rng.uniform(-1e4, 1e4, size=100_000), edges])
    with np.errstate(invalid="ignore"):  # inf - inf at the infinities
        want = np.mod(x, 1.0)
        got = ad.frac(DiffValue(x)).value
    # same bits, so the signs of zeros and the NaNs agree too
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    tape = Tape()
    s = tape.parameter(1.0, "s")
    out = ad.frac(DiffValue(x[:-3]) * s)
    adj = rng.normal(size=out.shape)
    np.testing.assert_array_equal(out.node.vjps[0](adj), adj * ((want[:-3] != 0.0) * 1.0))


def test_clamp_and_frac_adjoints_are_the_float_mask_products():
    rng = np.random.default_rng(30)
    ends = [-1.0, 1.0, np.nextafter(-1.0, -2.0), np.nextafter(1.0, 2.0), -3.0, -2.0, 0.0, 2.0, 3.0,
            np.nextafter(2.0, 0.0), np.nextafter(-2.0, 0.0)]
    x = np.concatenate([rng.uniform(-3.0, 3.0, size=10_000), ends])
    adj = rng.normal(size=x.shape)
    adj[:4] = [np.inf, -np.inf, np.nan, -0.0]
    adj[-len(ends):] *= -1.0  # negative adjoints give -0.0 against a 0 mask entry
    tape = Tape()
    s = tape.parameter(1.0, "s")
    band = ad.clamp(DiffValue(x) * s, -1.0, 1.0)
    wrapped = ad.frac(DiffValue(x) * s)
    with np.errstate(invalid="ignore"):  # inf * 0 in both products
        got = [band.node.vjps[0](adj), wrapped.node.vjps[0](adj)]
        want = [adj * (((x >= -1.0) & (x <= 1.0)) * 1.0), adj * ((wrapped.value != 0.0) * 1.0)]
    for g, w in zip(got, want):
        assert g.dtype == np.float64
        assert np.array_equal(g.view(np.int64), w.view(np.int64))
    assert np.count_nonzero(wrapped.value == 0.0) >= 5


def test_abs_and_sqrt_subgradients_at_kink():
    tape = Tape()
    p = tape.parameter(0.0, "p")
    assert tape.backward(ad.absolute(p))["p"] == 0.0
    tape = Tape()
    p = tape.parameter(0.0, "p")
    assert tape.backward(ad.sqrt(p))["p"] == 0.0


@pytest.mark.parametrize("x", [-0.7, 2.5])
def test_negation_and_abs_operators_on_a_taped_scalar(x):
    tape = Tape()
    p = tape.parameter(x, "p")
    neg = -p
    assert neg.value == -x
    assert tape.backward(neg)["p"] == -1.0
    tape = Tape()
    p = tape.parameter(x, "p")
    magnitude = abs(p)
    assert magnitude.value == abs(x)
    assert tape.backward(magnitude)["p"] == np.sign(x)


def test_diffvalue_repr_names_value_or_shape_and_node():
    assert repr(DiffValue(0.5)) == "DiffValue(0.5, const)"
    assert repr(DiffValue(np.zeros((3, 2)))) == "DiffValue(shape=(3, 2), const)"
    tape = Tape()
    p = tape.parameter(1.5, "p")
    assert repr(p) == f"DiffValue(1.5, node {p.node.index})"
    buffer = p * DiffValue(np.ones(4))
    assert repr(buffer) == f"DiffValue(shape=(4,), node {buffer.node.index})"
    assert buffer.node.index != p.node.index


def test_sign_surrogate_forward_and_backward():
    tape = Tape()
    p = tape.parameter(-0.3, "p")
    out = ad.sign_surrogate(p)
    assert out.value == -1.0
    expected = 100.0 * (1.0 - np.tanh(100.0 * -0.3) ** 2)
    assert tape.backward(out)["p"] == pytest.approx(expected, rel=1e-12)


def test_composite_matches_finite_differences():
    def f(p):
        return ad.exp(ad.sin(p["x"]) * p["x"])

    err = ad.finite_difference_check(f, {"x": 0.7}, step=1e-6)["x"]
    assert err < 1e-6


def test_smooth_ops_match_finite_differences_at_random_points():
    rng = np.random.default_rng(41)

    def f(p):
        x, y = p["x"], p["y"]
        t = ad.sin(x * 3.0) + _cos(y) * _tanh(x * y)
        t = t + ad.sigmoid(x - y) + ad.ln(ad.exp(x) + 1.5)
        return t * t + ad.sqrt(x * x + y * y + 0.1)

    for _ in range(100):
        x, y = rng.uniform(-2.0, 2.0, size=2)
        err = max(ad.finite_difference_check(f, {"x": x, "y": y}, step=1e-6).values())
        assert err < 1e-5


def test_gradient_map_has_entry_per_parameter_even_unused():
    tape = Tape()
    a = tape.parameter(1.0, "a")
    tape.parameter(2.0, "b")
    grads = tape.backward(a * 3.0)
    assert grads == {"a": 3.0, "b": 0.0}


def test_repeated_backward_is_identical():
    tape = Tape()
    a = tape.parameter(0.3, "a")
    b = tape.parameter(-1.2, "b")
    loss = ad.exp(a * b) + ad.sin(a) / (b * b + 1.0)
    first = tape.backward(loss)
    for _ in range(3):
        assert tape.backward(loss) == first


def test_constants_record_nothing():
    tape = Tape()
    tape.parameter(1.0, "p")
    before = len(tape)
    out = ad.sin(DiffValue(2.0)) * DiffValue(3.0) + 1.0
    assert out.node is None and out.tape is None
    assert len(tape) == before


def test_duplicate_parameter_rejected():
    tape = Tape()
    tape.parameter(1.0, "p")
    with pytest.raises(ad.DuplicateParameterError):
        tape.parameter(2.0, "p")


def test_nonfinite_parameter_rejected():
    tape = Tape()
    with pytest.raises(ad.NumericDomainError):
        tape.parameter(float("nan"), "p")


def test_foreign_and_constant_losses_rejected():
    tape_a, tape_b = Tape(), Tape()
    pa = tape_a.parameter(1.0, "p")
    tape_b.parameter(1.0, "q")
    with pytest.raises(ad.TapeError):
        tape_b.backward(pa * 2.0)
    with pytest.raises(ad.TapeError):
        tape_a.backward(DiffValue(1.0))
    with pytest.raises(ad.TapeError):
        tape_a.backward(DiffValue(np.ones(3)) * pa)


def test_used_tape_is_freed_without_the_cycle_collector():
    gc.disable()
    try:
        tape = Tape()
        p = tape.parameter(0.5, "p")
        loss = ad.bsum(ad.sin(DiffValue(np.arange(4.0)) * p))
        tape.backward(loss)
        alive = weakref.ref(tape)
        del tape, p, loss
        assert alive() is None
    finally:
        gc.enable()


def test_backward_frees_each_adjoint_once_passed_on():
    n = 100_000
    tape = Tape()
    x = DiffValue(np.ones(n)) * tape.parameter(1.0, "p")
    scale = DiffValue(np.full(n, 1.01))
    for _ in range(20):
        x = x * scale
    loss = ad.bsum(x)
    del x
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        grads = tape.backward(loss)
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert grads["p"] == pytest.approx(n * 1.01**20)
    # the adjoint in hand and the one it hands on: 2 buffers; keeping every
    # adjoint to the end of the sweep would reach 21
    assert peak <= 4 * 8 * n


def test_mixing_tapes_in_one_op_rejected():
    tape_a, tape_b = Tape(), Tape()
    pa = tape_a.parameter(1.0, "p")
    qb = tape_b.parameter(1.0, "q")
    with pytest.raises(ad.TapeError):
        pa * qb


@pytest.mark.parametrize(
    "call",
    [
        lambda p: ad.ln(p - 2.0),
        lambda p: ad.sqrt(p - 2.0),
        lambda p: p / 0.0,
    ],
)
def test_domain_errors(call):
    tape = Tape()
    p = tape.parameter(1.0, "p")
    with pytest.raises(ad.NumericDomainError):
        call(p)


# -- buffer operations -----------------------------------------------------


def _directional_check(build, value=1.0, step=1e-6, tol=1e-6):
    """FD-check d/ds of a scalar loss built from buffer ops scaled by s."""

    def f(p):
        return build(p["s"])

    err = ad.finite_difference_check(f, {"s": value}, step=step)["s"]
    assert err < tol


def test_buffer_broadcast_scalar_gradient():
    x = np.array([1.0, -2.0, 3.0])
    tape = Tape()
    s = tape.parameter(2.0, "s")
    loss = ad.bsum(DiffValue(x) * s)
    assert tape.backward(loss)["s"] == pytest.approx(x.sum())


def test_elementwise_buffer_ops_match_fd():
    rng = np.random.default_rng(7)
    x = rng.normal(size=50)
    w = rng.normal(size=50)

    def build(s):
        b = DiffValue(x) * s
        out = ad.sin(b) + _tanh(b * 0.5) - ad.absolute(b) * 0.1
        return ad.bsum(out * DiffValue(w))

    _directional_check(build)


def test_cumsum_vjp_matches_fd():
    rng = np.random.default_rng(8)
    x = rng.normal(size=40)
    w = rng.normal(size=40)
    _directional_check(lambda s: ad.bsum(ad.cumsum(DiffValue(x) * s) * DiffValue(w)))


def test_cumsum_2d_axis_vjp_matches_fd():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(6, 11))
    w = rng.normal(size=(6, 11))
    _directional_check(
        lambda s: ad.bsum(ad.cumsum(DiffValue(x) * s, axis=0) * DiffValue(w))
    )
    _directional_check(
        lambda s: ad.bsum(ad.cumsum(DiffValue(x) * s, axis=1) * DiffValue(w))
    )


def test_sum_axis_vjp_matches_fd():
    rng = np.random.default_rng(21)
    x = rng.normal(size=(5, 7))
    w0 = rng.normal(size=(1, 7))
    w1 = rng.normal(size=(5, 1))
    _directional_check(
        lambda s: ad.bsum(ad.sum_axis(DiffValue(x) * s, axis=0) * DiffValue(w0))
    )
    _directional_check(
        lambda s: ad.bsum(ad.sum_axis(DiffValue(x) * s, axis=1) * DiffValue(w1))
    )


@pytest.mark.parametrize("sparse_form", [False, True])
def test_const_matmul_vjp_matches_fd(sparse_form):
    rng = np.random.default_rng(11)
    mat = rng.normal(size=(5, 8)) * (rng.uniform(size=(5, 8)) < 0.3)
    if sparse_form:
        mat = sparse.csr_array(mat)
    x = rng.normal(size=(8, 3))
    w = rng.normal(size=(5, 3))
    out = ad.const_matmul(mat, DiffValue(x))
    assert isinstance(out.value, np.ndarray)
    _directional_check(
        lambda s: ad.bsum(ad.const_matmul(mat, DiffValue(x) * s) * DiffValue(w))
    )


def _frame_index(n, width, hop):
    """Reflect-padded frame starts every ``hop`` samples, as the STFT frames."""
    padded = np.pad(np.arange(n), width // 2, mode="reflect")
    starts = np.arange((len(padded) - width) // hop + 1) * hop
    return padded[starts[:, None] + np.arange(width)[None, :]]


def _unfused_stft(x, window, index, adj):
    """The STFT magnitude and its adjoint as the separate ops they replace:
    gather, window product, rfft magnitude (irfft adjoint) and transpose,
    each adjoint applied in reverse.  The magnitude adjoint is the earlier
    formula: interior bins of the complex product halved, then the irfft
    output multiplied by the width, each in a pass of its own."""
    width = index.shape[1]
    frames = x[index]
    windowed = frames * window
    spectrum = np.fft.rfft(windowed, axis=1)
    mag = np.abs(spectrum)
    out = mag.T
    grad_mag = np.asarray(adj).T
    safe = np.where(mag > 0.0, mag, 1.0)
    u = np.where(mag > 0.0, grad_mag / safe, 0.0) * spectrum
    u[:, 1 : (width + 1) // 2] *= 0.5
    grad_windowed = np.fft.irfft(u, n=width, axis=1) * width
    grad_frames = grad_windowed * window
    grad_x = np.bincount(index.ravel(), weights=grad_frames.ravel(), minlength=len(x))
    return out, grad_x


def _complex_ifft_stft_adjoint(x, window, index, adj):
    """The STFT adjoint with the magnitude step as Re(N * ifft(u zero-padded to N))."""
    spectrum = np.fft.rfft(x[index] * window, axis=1)
    mag = np.abs(spectrum)
    safe = np.where(mag > 0.0, mag, 1.0)
    u = np.where(mag > 0.0, np.asarray(adj).T / safe, 0.0) * spectrum
    full = np.zeros(index.shape, dtype=np.complex128)
    full[:, : u.shape[1]] = u
    grad_frames = np.real(np.fft.ifft(full, axis=1)) * index.shape[1] * window
    return np.bincount(index.ravel(), weights=grad_frames.ravel(), minlength=len(x))


@pytest.mark.parametrize("width", WINDOW_SIZES)
def test_rfft_magnitude_equals_unfused_stft(width):
    rng = np.random.default_rng(width)
    n = 6000
    x = rng.normal(size=n)
    x[2000:2000 + 2 * width] = 0.0  # several frames of exact zeros
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(width) / width)
    index = _frame_index(n, width, width // 4)
    tape = Tape()
    s = tape.parameter(1.0, "s")
    out = ad.rfft_magnitude(DiffValue(x) * s, window, index)
    assert np.any(np.all(out.value == 0.0, axis=0))
    adj = rng.normal(size=out.shape)
    want_mag, want_grad = _unfused_stft(x, window, index, adj)
    got_grad = out.node.vjps[0](adj)
    # the same arithmetic in the same order, up to scaling by powers of
    # two, which is exact: the same bits, and the same memory layout,
    # since downstream reductions sum in memory order
    assert np.array_equal(out.value, want_mag)
    assert out.value.strides == want_mag.strides
    assert np.array_equal(ad.rfft_magnitude(DiffValue(x), window, index).value, want_mag)
    assert np.array_equal(got_grad, want_grad)
    oracle = _complex_ifft_stft_adjoint(x, window, index, adj)
    assert np.max(np.abs(got_grad - oracle)) <= 1e-12 * np.max(np.abs(oracle))


@pytest.mark.parametrize("width", [33, 100])
def test_rfft_magnitude_adjoint_off_powers_of_two(width):
    # a per-bin scale of width / 2 is no longer a power of two, so the
    # adjoint rounds differently from the earlier formula, by a few ulps
    rng = np.random.default_rng(width)
    x = rng.normal(size=600)
    x[200:200 + 2 * width] = 0.0
    window = rng.uniform(0.5, 1.0, size=width)
    index = _frame_index(600, width, width // 4)
    tape = Tape()
    s = tape.parameter(1.0, "s")
    out = ad.rfft_magnitude(DiffValue(x) * s, window, index)
    adj = rng.normal(size=out.shape)
    want = _unfused_stft(x, window, index, adj)[1]
    got = out.node.vjps[0](adj)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("width", [32, 33, 100])
def test_rfft_magnitude_vjp_matches_fd(width):
    rng = np.random.default_rng(12 + width)
    x = rng.normal(size=200)
    window = rng.uniform(0.5, 1.0, size=width)
    index = _frame_index(200, width, 8)
    w = rng.normal(size=(width // 2 + 1, index.shape[0]))
    _directional_check(
        lambda s: ad.bsum(ad.rfft_magnitude(DiffValue(x) * s, window, index) * DiffValue(w)),
        tol=1e-5,
    )


def test_rfft_magnitude_zero_bin_subgradient_is_zero():
    tape = Tape()
    s = tape.parameter(0.0, "s")
    x = DiffValue(np.ones(8)) * s
    index = np.arange(8)[None, :]
    grads = tape.backward(ad.bsum(ad.rfft_magnitude(x, np.ones(8), index)))
    assert np.isfinite(grads["s"]) and grads["s"] == 0.0


def test_rfft_magnitude_tape_does_not_keep_its_output():
    rng = np.random.default_rng(30)
    tape = Tape()
    s = tape.parameter(1.0, "s")
    x = DiffValue(rng.normal(size=600)) * s
    out = ad.rfft_magnitude(x, np.hanning(32), _frame_index(600, 32, 8))
    mag = weakref.ref(out.value.base)
    loss = ad.bsum(out)
    del out
    assert mag() is None
    assert tape.backward(loss)["s"] == pytest.approx(loss.value)


def test_rfft_magnitude_rejects_mismatched_window():
    index = np.arange(8)[None, :]
    with pytest.raises(ad.NumericDomainError):
        ad.rfft_magnitude(DiffValue(np.ones(8)), np.ones(7), index)


def test_convolve_same_signal_vjp_matches_fd():
    rng = np.random.default_rng(13)
    x = rng.normal(size=64)
    k = rng.normal(size=9)
    w = rng.normal(size=64)
    _directional_check(
        lambda s: ad.bsum(ad.convolve_same(DiffValue(x) * s, DiffValue(k)) * DiffValue(w)),
        tol=1e-5,
    )


@pytest.mark.parametrize("klen", [1, 4, 9, 10])
def test_convolve_same_kernel_vjp_matches_fd(klen):
    rng = np.random.default_rng(klen)
    x = rng.normal(size=57)
    k = rng.normal(size=klen)
    w = rng.normal(size=57)
    _directional_check(
        lambda s: ad.bsum(ad.convolve_same(DiffValue(x), DiffValue(k) * s) * DiffValue(w)),
        tol=1e-5,
    )


def test_convolve_same_matches_numpy_forward():
    rng = np.random.default_rng(14)
    x = rng.normal(size=33)
    k = rng.normal(size=7)
    out = ad.convolve_same(DiffValue(x), DiffValue(k)).value
    np.testing.assert_allclose(out, np.convolve(x, k, mode="same"), atol=1e-12)


@pytest.mark.parametrize("klen", [1, 4, 9, 10, 101])
def test_convolve_same_equals_fftconvolve_formulas(klen):
    rng = np.random.default_rng(100 + klen)
    n = 16000
    x = rng.normal(size=n)
    k = rng.normal(size=klen)
    adj = rng.normal(size=n)
    tape = Tape()
    s = tape.parameter(1.0, "s")
    out = ad.convolve_same(DiffValue(x) * s, DiffValue(k) * s)
    signal_vjp, kernel_vjp = out.node.vjps
    lead = n - 1 - (klen - 1) // 2
    pairs = [
        (out.value, fftconvolve(x, k, mode="same")),
        (signal_vjp(adj), fftconvolve(adj, k[::-1], mode="same")),
        (kernel_vjp(adj), fftconvolve(adj, x[::-1], mode="full")[lead : lead + klen]),
    ]
    for got, want in pairs:
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


KERNEL_ADJOINT_SCRIPT = """
import hashlib
import numpy as np
from gradsynth import autodiff as ad

for n in (16000, 22050, 44100):
    rng = np.random.default_rng(n)
    x, adj = rng.normal(size=n), rng.normal(size=n)
    s = ad.Tape().parameter(1.0, "s")
    out = ad.convolve_same(ad.DiffValue(x), ad.DiffValue(rng.normal(size=101)) * s)
    (kernel_vjp,) = out.node.vjps
    print(n, hashlib.sha256(kernel_vjp(adj).tobytes()).hexdigest())
"""


def test_convolve_same_kernel_adjoint_bytes_do_not_follow_blas_threads():
    # A BLAS dot over more than 10,000 elements is split across OpenBLAS's
    # threads, and the partial sums' order follows the thread count.  On a
    # one-core machine OpenBLAS runs one thread whatever is asked, so there
    # this test passes even with a single long dot.
    src = Path(gradsynth.__file__).resolve().parent.parent
    printed = []
    for threads in ("1", "2"):
        done = subprocess.run(
            [sys.executable, "-c", KERNEL_ADJOINT_SCRIPT],
            env={**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": threads},
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        printed.append(done.stdout)
    assert printed[0].count("\n") == 3
    assert printed[0] == printed[1]


def test_buffer_node_count_is_per_operation():
    tape = Tape()
    s = tape.parameter(1.0, "s")
    x = DiffValue(np.zeros(16000)) * s
    n0 = len(tape)
    y = ad.sin(x)
    y = ad.cumsum(y)
    ad.bsum(y)
    assert len(tape) - n0 == 3


# -- hypothesis properties -------------------------------------------------


@given(
    a=st.floats(-3.0, 3.0),
    b=st.floats(-3.0, 3.0),
    ca=st.floats(-2.0, 2.0),
    cb=st.floats(-2.0, 2.0),
)
@settings(max_examples=60, deadline=None)
def test_backward_is_linear_in_the_loss(a, b, ca, cb):
    def grads_of(combine):
        tape = Tape()
        x = tape.parameter(a, "x")
        y = tape.parameter(b, "y")
        l1 = ad.sin(x) * y + _tanh(x * y)
        l2 = ad.exp(ad.clamp(x - y, -2.0, 2.0))
        return tape.backward(combine(l1, l2))

    combined = grads_of(lambda l1, l2: l1 * ca + l2 * cb)
    g1 = grads_of(lambda l1, l2: l1)
    g2 = grads_of(lambda l1, l2: l2)
    for name in ("x", "y"):
        assert combined[name] == pytest.approx(
            ca * g1[name] + cb * g2[name], rel=1e-9, abs=1e-9
        )


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_random_smooth_expressions_match_fd(data):
    n_ops = data.draw(st.integers(1, 8))
    seed = data.draw(st.integers(0, 2**31 - 1))
    x0 = data.draw(st.floats(-1.5, 1.5))
    y0 = data.draw(st.floats(-1.5, 1.5))
    rng = np.random.default_rng(seed)
    picks = rng.integers(0, 6, size=n_ops)
    consts = rng.uniform(-1.5, 1.5, size=n_ops)
    # operand choices drawn once so f is deterministic across calls
    lefts = rng.integers(0, 100, size=n_ops)
    rights = rng.integers(0, 100, size=n_ops)

    def f(p):
        vals = [p["x"], p["y"], DiffValue(1.0)]
        for op, c, li, ri in zip(picks, consts, lefts, rights):
            u = vals[int(li) % len(vals)]
            v = vals[int(ri) % len(vals)]
            if op == 0:
                vals.append(u + v)
            elif op == 1:
                vals.append(u * v)
            elif op == 2:
                vals.append(ad.sin(u) + _cos(v))
            elif op == 3:
                vals.append(_tanh(u * c))
            elif op == 4:
                vals.append(ad.sigmoid(u - v))
            else:
                vals.append(ad.exp(_tanh(u)) * c)
        out = vals[-1]
        return out * out + p["x"] * 0.5 + p["y"] * 0.25

    err = max(ad.finite_difference_check(f, {"x": x0, "y": y0}, step=1e-6).values())
    assert err < 1e-4


def test_fd_check_reads_zero_gradient_rounding_as_no_error():
    # dy of sigmoid(x - y)**2 + 0.5 x + 0.25 y is exactly 0 at x = y; the
    # central difference returns ~1e-10 of rounding there, which a bare
    # |fd - g| / (|g| + 1e-8) reads as a relative error of ~0.01.
    def f(p):
        s = ad.sigmoid(p["x"] - p["y"])
        return s * s + p["x"] * 0.5 + p["y"] * 0.25

    assert max(ad.finite_difference_check(f, {"x": 1.5, "y": 1.5}, step=1e-6).values()) < 1e-4


def test_fd_check_still_sees_a_slightly_wrong_vjp():
    def wrong_sin(x):
        return ad._unary(x, np.sin, lambda v: 1.001 * np.cos(v))

    def f(p):
        return wrong_sin(p["x"]) * p["y"]

    assert max(ad.finite_difference_check(f, {"x": 0.7, "y": 1.3}, step=1e-6).values()) > 1e-4


def test_fd_check_reads_non_finite_gradients_as_infinite_error():
    # At x = 400 exp(2x) overflows: f is 1.0 on both sides, so the central
    # difference is 0, but the div adjoint multiplies 0 by inf into a NaN.
    def overflowing_tanh(p):
        return 1.0 - 2.0 / (ad.exp(p["x"] * 2.0) + 1.0)

    # exp(709 + 1) overflows, so the central difference is inf.
    def exp(p):
        return ad.exp(p["x"])

    with np.errstate(over="ignore", invalid="ignore"):
        assert ad.finite_difference_check(overflowing_tanh, {"x": 400.0}, step=1e-6) == {
            "x": math.inf
        }
        assert ad.finite_difference_check(exp, {"x": 709.0}, step=1.0) == {"x": math.inf}


def test_fd_check_searches_steps_and_reports_each_parameter():
    # the central difference of x**3 is 3x**2 + h**2, so at x = 1 a step
    # of 1e-1 reads a relative error of 3.3e-3 and a step of 1e-4 none
    def wrong_sin(x):
        return ad._unary(x, np.sin, lambda v: 1.001 * np.cos(v))

    def f(p):
        return p["x"] * p["x"] * p["x"] + wrong_sin(p["y"])

    params = {"x": 1.0, "y": 0.7}
    coarse = ad.finite_difference_check(f, params, step=1e-1)
    fine = ad.finite_difference_check(f, params, step=1e-4)
    assert coarse["x"] > 1e-3 > 1e-6 > fine["x"]
    for steps in [(1e-1, 1e-4), (1e-4, 1e-1)]:
        errors = ad.finite_difference_check(f, params, step={"x": steps, "y": 1e-6})
        assert list(errors) == ["x", "y"]
        assert errors["x"] == fine["x"]
        # the wrong vjp shows on y alone
        assert errors["y"] > 1e-4
    # a loss with nothing to check reports nothing
    assert ad.finite_difference_check(f, {}, step=1e-6) == {}


def test_fd_check_reads_a_non_finite_gradient_as_infinite_at_every_step():
    def f(p):
        return 1.0 - 2.0 / (ad.exp(p["x"] * 2.0) + 1.0) + p["y"] * p["y"]

    with np.errstate(over="ignore", invalid="ignore"):
        errors = ad.finite_difference_check(
            f, {"x": 400.0, "y": 0.5}, step={"x": (1e-6, 1e-3, 1.0), "y": (1e-6, 1e-3)}
        )
    assert errors["x"] == math.inf
    assert errors["y"] < 1e-6


@pytest.mark.parametrize("steps", [(1e-6, 0.0), (-1e-6, 1e-6), (1e-6, 1e-3, -1.0)])
def test_fd_check_rejects_a_non_positive_step_anywhere(steps):
    def f(p):
        return p["x"] * p["x"]

    with pytest.raises(ValueError, match="step must be positive"):
        ad.finite_difference_check(f, {"x": 0.5}, step={"x": steps})
