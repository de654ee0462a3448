"""Reverse-mode automatic differentiation over scalars and sample buffers.

A :class:`Tape` records elementary operations as they execute.  Scalar
parameters are registered by name and retrieved from the gradient map
after :meth:`Tape.backward`.  Buffer-valued operations (the framed FFT
magnitudes of an STFT, convolution, cumulative sums) record a single node
with an adjoint closure instead of one node per sample, so a one-second
16 kHz buffer costs one tape entry per operation, not 16000.

Adjoints are shared, not copied: an operation whose partial is +1 or -1
hands its output adjoint on unchanged (or negated), so no adjoint closure
may write to the array it is given.

Every tracked or constant operand is a :class:`DiffValue` holding a
python float (a scalar) or a float64 ndarray (a buffer); gradients
accumulate in float64 throughout.  Constants (no tape attached) flow
through every operation without recording anything, which doubles as
the fast inference path.
"""

from __future__ import annotations

from typing import Callable, Hashable, Mapping, Optional, Sequence, Union

import numpy as np

__all__ = [
    "AutodiffError",
    "DiffValue",
    "DuplicateParameterError",
    "NumericDomainError",
    "Tape",
    "TapeError",
    "absolute",
    "add",
    "clamp",
    "const_matmul",
    "convolve_same",
    "cumsum",
    "div",
    "exp",
    "finite_difference_check",
    "frac",
    "ln",
    "mul",
    "neg",
    "rfft_magnitude",
    "sigmoid",
    "sigmoid_gate",
    "sign_surrogate",
    "sin",
    "sqrt",
    "sub",
    "sum_axis",
    "bsum",
]


class AutodiffError(Exception):
    """Base class for autodiff failures."""


class TapeError(AutodiffError):
    """Value is not recorded on the expected tape."""


class DuplicateParameterError(AutodiffError):
    """A parameter name was registered twice on one tape."""


class NumericDomainError(AutodiffError):
    """An elementary operation was evaluated outside its domain."""

    def __init__(self, op: str, detail: str):
        super().__init__(f"{op}: {detail}")
        self.op = op


class _Node:
    """One recorded operation: parent links plus adjoint closures."""

    __slots__ = ("index", "parents", "vjps")

    def __init__(self, index: int, parents: tuple, vjps: tuple):
        self.index = index
        self.parents = parents
        self.vjps = vjps


class Tape:
    """Recording context for one differentiable computation.

    Append order is a topological order by construction (an operation's
    parents are recorded before it), so backward is a single reverse
    sweep that visits each node at most once.
    """

    def __init__(self):
        self._nodes: list[_Node] = []
        # nodes, not values: a value points at its tape, so holding values
        # here would make every tape a reference cycle
        self._params: dict[Hashable, _Node] = {}

    def __len__(self) -> int:
        return len(self._nodes)

    def parameter(self, value: float, name: Hashable) -> "DiffValue":
        """Register a trainable scalar under ``name``, any hashable value."""
        value = float(value)
        if not np.isfinite(value):
            raise NumericDomainError("parameter", f"{name!r} initialized to {value}")
        if name in self._params:
            raise DuplicateParameterError(f"parameter {name!r} already registered")
        node = self._record((), ())
        self._params[name] = node
        return DiffValue(value, self, node)

    def _record(self, parents: tuple, vjps: tuple) -> _Node:
        node = _Node(len(self._nodes), parents, vjps)
        self._nodes.append(node)
        return node

    def backward(self, loss: "DiffValue") -> dict:
        """Return d(loss)/d(p) for every registered parameter.

        Repeated calls recompute from scratch; nothing accumulates
        across calls.
        """
        if not isinstance(loss, DiffValue) or loss.shape != ():
            raise TapeError("backward expects a scalar loss")
        if loss.node is None or loss.tape is not self:
            raise TapeError("loss is not recorded on this tape")
        adjoints: dict[int, Union[float, np.ndarray]] = {loss.node.index: 1.0}
        for node in reversed(self._nodes[: loss.node.index + 1]):
            # final once reached (consumers come later); parameters keep theirs
            adj = adjoints.pop(node.index, None) if node.parents else None
            if adj is None:
                continue
            for parent, vjp in zip(node.parents, node.vjps):
                contrib = vjp(adj)
                prev = adjoints.get(parent.index)
                adjoints[parent.index] = contrib if prev is None else prev + contrib
        return {
            name: float(adjoints.get(node.index, 0.0))
            for name, node in self._params.items()
        }


_FLOAT64 = np.dtype(np.float64)


class DiffValue:
    """A scalar or a float64 array (1-D or 2-D) in gradient computation.

    ``value`` is a python float for a scalar and an ndarray otherwise;
    an array is tracked as a single tape node.  ``DiffValue(x)`` with no
    tape is a constant and contributes zero gradient everywhere.
    """

    __slots__ = ("value", "tape", "node")

    def __init__(self, value, tape: Tape = None, node: _Node = None):
        if type(value) is not float and not (
            type(value) is np.ndarray and value.dtype is _FLOAT64 and value.ndim
        ):
            value = np.asarray(value, dtype=np.float64)
            value = value if value.ndim else float(value)
        self.value = value
        self.tape = tape
        self.node = node

    @property
    def shape(self) -> tuple:
        return np.shape(self.value)

    def __len__(self):
        return len(self.value)

    def __repr__(self):
        tag = "const" if self.node is None else f"node {self.node.index}"
        if self.shape:
            return f"DiffValue(shape={self.shape}, {tag})"
        return f"DiffValue({self.value!r}, {tag})"

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)

    def __abs__(self):
        return absolute(self)


Operand = "Union[DiffValue, float, int, np.ndarray]"


def _unwrap(x: Operand):
    """Return (raw value, node, tape) for any operand."""
    if not isinstance(x, DiffValue):
        x = DiffValue(x)
    return x.value, x.node, x.tape


def _join_tape(ta: Tape, tb: Tape) -> Tape:
    if ta is not None and tb is not None and ta is not tb:
        raise TapeError("operands recorded on different tapes")
    return ta if ta is not None else tb


def _reduce_to(grad, shape) -> Union[float, np.ndarray]:
    """Sum a broadcasted adjoint back down to an operand's shape."""
    if shape == ():
        return grad if type(grad) is float else float(np.sum(grad))
    if np.shape(grad) == shape:
        return grad
    grad = np.asarray(grad, dtype=np.float64)
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def _shape_of(value):
    return value.shape if isinstance(value, np.ndarray) else ()


def _record_op(tape: Tape, out_value, parent_specs: list):
    """parent_specs: (node, vjp) pairs, one per tracked operand."""
    if not parent_specs:
        return DiffValue(out_value)
    parents, vjps = zip(*parent_specs)
    return DiffValue(out_value, tape, tape._record(parents, vjps))


def _scaled_vjp(p, shape):
    """The adjoint closure adj -> adj * p, summed down to ``shape``.

    A partial of exactly +1 or -1 passes the adjoint through, negated for
    -1: the same bits as the product, without a new buffer per operation.
    """
    if type(p) is float and p == 1.0:
        return lambda adj: _reduce_to(adj, shape)
    if type(p) is float and p == -1.0:
        return lambda adj: _reduce_to(-adj, shape)
    return lambda adj: _reduce_to(adj * p, shape)


def _binary(a: Operand, b: Operand, forward, partial_a, partial_b):
    va, na, ta = _unwrap(a)
    vb, nb, tb = _unwrap(b)
    out = forward(va, vb)
    if na is None and nb is None:
        return DiffValue(out)
    tape = _join_tape(ta, tb)
    specs = []
    if na is not None:
        specs.append((na, _scaled_vjp(partial_a(va, vb), _shape_of(va))))
    if nb is not None:
        specs.append((nb, _scaled_vjp(partial_b(va, vb), _shape_of(vb))))
    return _record_op(tape, out, specs)


def _unary(x: Operand, forward, partial):
    v, n, tape = _unwrap(x)
    out = forward(v)
    if n is None:
        return DiffValue(out)
    return _record_op(tape, out, [(n, _scaled_vjp(partial(v), _shape_of(v)))])


# -- elementary arithmetic ------------------------------------------------


def add(a, b):
    return _binary(a, b, lambda x, y: x + y, lambda x, y: 1.0, lambda x, y: 1.0)


def sub(a, b):
    return _binary(a, b, lambda x, y: x - y, lambda x, y: 1.0, lambda x, y: -1.0)


def mul(a, b):
    return _binary(a, b, lambda x, y: x * y, lambda x, y: y, lambda x, y: x)


def div(a, b):
    vb = _unwrap(b)[0]
    if np.any(vb == 0.0):
        raise NumericDomainError("div", "division by zero")
    return _binary(
        a, b,
        lambda x, y: x / y,
        lambda x, y: 1.0 / y,
        lambda x, y: -x / (y * y),
    )


def neg(x):
    return _unary(x, lambda v: -v, lambda v: -1.0)


def absolute(x):
    # subgradient 0 at the kink
    return _unary(x, np.abs, np.sign)


def sin(x):
    return _unary(x, np.sin, np.cos)


def exp(x):
    return _unary(x, np.exp, np.exp)


def ln(x):
    v = _unwrap(x)[0]
    if np.any(v <= 0.0):
        raise NumericDomainError("ln", "input must be positive")
    return _unary(x, np.log, lambda v: 1.0 / v)


def sqrt(x):
    v = _unwrap(x)[0]
    if np.any(v < 0.0):
        raise NumericDomainError("sqrt", "input must be nonnegative")
    # subgradient 0 at exactly 0 (avoids inf on silent buffers)
    return _unary(
        x,
        np.sqrt,
        lambda v: np.where(v > 0.0, 0.5 / np.sqrt(np.where(v > 0.0, v, 1.0)), 0.0),
    )


def _sigmoid_value(v: float) -> float:
    # exp of a nonpositive argument only, so large |v| cannot overflow
    z = float(np.exp(-abs(v)))
    return 1.0 / (1.0 + z) if v >= 0 else z / (1.0 + z)


def sigmoid(x):
    """1 / (1 + exp(-x)) for a scalar x."""
    v, n, tape = _unwrap(x)
    if type(v) is not float:
        raise NumericDomainError("sigmoid", "expected a scalar")
    out = _sigmoid_value(v)
    if n is None:
        return DiffValue(out)
    # the partial from the output, rather than two more forward passes
    return _record_op(tape, out, [(n, _scaled_vjp(out * (1.0 - out), ()))])


def sigmoid_gate(x, low: float, span: float, clip: Optional[tuple] = None) -> DiffValue:
    """low + sigmoid(x) * span for a scalar x, recorded as one node.

    With ``clip = (lo, hi)``, exp of that clamped to [lo, hi]: a log-scaled
    range, whose ends exp can round past.  Value and adjoint are bit for bit
    those of the sigmoid, mul, add (exp, clamp) chain this replaces: the
    adjoint applies that chain's partials one at a time, in its order.
    """
    v, n, tape = _unwrap(x)
    if type(v) is not float:
        raise NumericDomainError("sigmoid_gate", "expected a scalar")
    gate = _sigmoid_value(v)
    out = gate * span + low
    partials = (span, gate * (1.0 - gate))
    if clip is not None:
        grown = float(np.exp(out))
        out = min(max(grown, clip[0]), clip[1])
        partials = (1.0 if clip[0] <= grown <= clip[1] else 0.0, grown) + partials
    if n is None:
        return DiffValue(out)

    def vjp(adj):
        for p in partials:
            adj = adj * p
        return adj

    return _record_op(tape, out, [(n, vjp)])


def clamp(x, lo: float, hi: float):
    """Clip to [lo, hi]; derivative 1 inside the band (ends inclusive)."""
    lo, hi = float(lo), float(hi)
    return _unary(
        x,
        lambda v: np.clip(v, lo, hi),
        lambda v: (v >= lo) & (v <= hi),
    )


def frac(x):
    """Fractional part x - floor(x), in [0, 1).  d/dx is 1 away from wraps
    and 0 at a wrap sample.  Bit for bit np.mod(x, 1.0), at a fraction of
    its cost."""
    v, n, tape = _unwrap(x)
    out = v - np.floor(v)
    if n is None:
        return DiffValue(out)
    return _record_op(tape, out, [(n, _scaled_vjp(out != 0.0, _shape_of(v)))])


# slope of the tanh surrogate behind sign_surrogate's backward pass
SIGN_STEEPNESS = 100.0


def sign_surrogate(x):
    """Forward sign(x); backward the tanh(SIGN_STEEPNESS*x) slope.

    Used for square waveforms: the true derivative is zero almost
    everywhere, which would freeze every parameter feeding the sign.
    """
    s = SIGN_STEEPNESS
    return _unary(x, np.sign, lambda v: s * (1.0 - np.tanh(s * v) ** 2))


# -- buffer reductions and transforms -------------------------------------


def bsum(x) -> DiffValue:
    """Sum all entries into a scalar."""
    v, n, tape = _unwrap(x)
    out = float(np.sum(v))
    if n is None:
        return DiffValue(out)
    shape = v.shape
    return _record_op(tape, out, [(n, lambda adj: np.broadcast_to(adj, shape))])


def cumsum(x, axis: int = -1) -> DiffValue:
    """Running sum along an axis; adjoint is the reversed running sum."""
    v, n, tape = _unwrap(x)
    out = np.cumsum(v, axis=axis)
    if n is None:
        return DiffValue(out)

    def vjp(adj, axis=axis):
        adj = np.asarray(adj, dtype=np.float64)
        return np.flip(np.cumsum(np.flip(adj, axis=axis), axis=axis), axis=axis)

    return _record_op(tape, out, [(n, vjp)])


def sum_axis(x, axis: int) -> DiffValue:
    """Sum along one axis, kept with length 1; the adjoint broadcasts back."""
    v, n, tape = _unwrap(x)
    out = np.sum(v, axis=axis, keepdims=True)
    if n is None:
        return DiffValue(out)
    shape = v.shape

    def vjp(adj):
        return np.broadcast_to(np.asarray(adj, dtype=np.float64), shape)

    return _record_op(tape, out, [(n, vjp)])


def const_matmul(matrix, x) -> DiffValue:
    """matrix @ x with a constant left factor: a float64 ndarray or a
    scipy sparse matrix, used as given (a sparse one is never densified)."""
    v, n, tape = _unwrap(x)
    out = matrix @ v
    if n is None:
        return DiffValue(out)
    return _record_op(tape, out, [(n, lambda adj: matrix.T @ np.asarray(adj))])


def rfft_magnitude(x, window: np.ndarray, index: np.ndarray) -> DiffValue:
    """Magnitude STFT of a 1-D buffer, recorded as one node.

    ``index`` is a (frames x N) map into ``x`` with any padding folded in,
    and ``window`` holds N taps; the result is |rfft(x[index] * window)|
    as (bins x frames), a transposed view of the frame-major magnitudes.

    The adjoint routes d(loss)/d|X| back through the FFT analytically.
    With u = adj * X/|X| (zero where |X| = 0, since X is zero there too),
    each frame's adjoint is Re(N * ifft(u zero-padded to N)); the inverse
    real FFT of u with its interior bins halved gives the same rows
    without the complex transform, since irfft counts each interior bin
    twice.  Both factors, N and the halving, are one real per-bin scale
    on adj/|X|, exact for a power-of-two N.  The frames are then windowed
    and scatter-added back through ``index``.
    """
    v, n, tape = _unwrap(x)
    if v.ndim != 1 or index.ndim != 2 or window.shape != index.shape[1:]:
        raise NumericDomainError(
            "rfft_magnitude", "expected a 1-D buffer, a 2-D frame index and one tap per column"
        )
    frames = v[index]
    frames *= window
    spectrum = np.fft.rfft(frames, axis=1)
    del frames
    mag = np.abs(spectrum)
    if n is None:
        return DiffValue(mag.T)
    size = index.shape[1]
    length = v.shape[0]
    flat_index = index.ravel()
    safe = np.where(mag > 0.0, mag, 1.0)
    scale = np.full(mag.shape[1], float(size))
    scale[1 : (size + 1) // 2] *= 0.5

    def vjp(adj):
        u = np.divide(adj.T, safe, out=np.empty_like(safe))
        u *= scale
        u = u * spectrum
        u = np.fft.irfft(u, n=size, axis=1)
        u *= window
        return np.bincount(flat_index, weights=u.ravel(), minlength=length)

    return _record_op(tape, mag.T, [(n, vjp)])


# The longest dot product convolve_same's kernel adjoint hands to BLAS.  OpenBLAS
# splits a longer one (over 10,000 elements on x86-64) across its threads, and
# the bits of the sum would follow the thread count.
DOT_CHUNK = 8192


def convolve_same(x, kernel) -> DiffValue:
    """'Same' zero-padded convolution of a 1-D buffer with a short kernel.

    Differentiable with respect to both the signal and the kernel taps.
    Direct convolution: for the 101-tap low-pass on a second of audio it
    is cheaper than an FFT of the whole buffer.  The signal adjoint
    convolves with the reversed kernel; the kernel adjoint correlates the
    zero-padded signal with the output adjoint, in equal chunks of at most
    DOT_CHUNK samples added left to right.  Odd and even kernels share
    numpy's 'same' alignment (offset (m - 1) // 2).
    """
    vx, nx, tx = _unwrap(x)
    vk, nk, tk = _unwrap(kernel)
    tape = _join_tape(tx, tk)
    if vx.ndim != 1 or vk.ndim != 1:
        raise NumericDomainError("convolve_same", "expected 1-D operands")
    if vk.shape[0] > vx.shape[0]:
        raise NumericDomainError("convolve_same", "kernel longer than signal")
    out = np.convolve(vx, vk, "same")
    specs = []
    if nx is not None:
        specs.append((nx, lambda adj: np.convolve(np.asarray(adj), vk[::-1], "same")))
    if nk is not None:
        m = vk.shape[0]

        def vjp_kernel(adj):
            padded, adj = np.pad(vx, (m // 2, (m - 1) // 2)), np.asarray(adj)
            n = adj.shape[0]
            chunks = -(-n // DOT_CHUNK)
            edges = [n * i // chunks for i in range(chunks + 1)]
            out = np.correlate(padded[: edges[1] + m - 1], adj[: edges[1]], "valid")
            for lo, hi in zip(edges[1:], edges[2:]):
                out += np.correlate(padded[lo : hi + m - 1], adj[lo:hi], "valid")
            return out[::-1]

        specs.append((nk, vjp_kernel))
    return _record_op(tape, out, specs)


# -- verification ---------------------------------------------------------


def finite_difference_check(
    f: Callable[[Mapping[Hashable, DiffValue]], DiffValue],
    params: Mapping[Hashable, float],
    step: Union[float, Mapping[Hashable, Union[float, Sequence[float]]]],
) -> dict[Hashable, float]:
    """Relative error between autodiff and central differences, per parameter.

    ``f`` maps a dict of scalars, named by any hashable keys, to a scalar
    loss and must be deterministic; one taped evaluation gives every
    gradient.  ``step`` is one positive step for every parameter or a
    mapping from each name to its step or sequence of steps; each
    parameter reports its smallest error over its steps.  Relative error
    is the part of |fd - grad| above the central difference's rounding
    bound eps * (|f(x+h)| + |f(x-h)|) / (2h), divided by |grad| + 1e-8;
    the bound keeps the rounding of fd from reading as error where the
    gradient is 0.  A non-finite gradient or central difference reads
    as an infinite error.
    """
    if not params:
        return {}
    tape = Tape()
    tracked = {k: tape.parameter(v, k) for k, v in params.items()}
    grads = tape.backward(f(tracked))

    def eval_at(name: Hashable, value: float) -> float:
        values = {**params, name: value}
        return f({k: DiffValue(v) for k, v in values.items()}).value

    errors = dict.fromkeys(params, np.inf)
    for name, value in params.items():
        steps = step[name] if isinstance(step, Mapping) else float(step)
        for h in steps if isinstance(steps, Sequence) else (steps,):
            if h <= 0:
                raise ValueError("finite-difference step must be positive")
            f_hi, f_lo = eval_at(name, value + h), eval_at(name, value - h)
            fd = (f_hi - f_lo) / (2.0 * h)
            if not (np.isfinite(fd) and np.isfinite(grads[name])):
                continue  # the error stays inf; min() would pass over a NaN
            rounding = np.finfo(float).eps * (abs(f_hi) + abs(f_lo)) / (2.0 * h)
            rel = max(abs(fd - grads[name]) - rounding, 0.0) / (abs(grads[name]) + 1e-8)
            errors[name] = min(errors[name], rel)
    return errors
