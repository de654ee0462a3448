"""Spans around gradsynth's public functions, recorded from outside the program.

While a :class:`Tracer` is installed, each function in :data:`TRACED` is
replaced by a wrapper that records a span (name, start, end, parent) in
memory.  Modules import these functions by name (``losses`` and
``experiments`` both hold their own ``stft_magnitude``), so installation
rebinds every name in every loaded gradsynth module that refers to the
original, and removal puts each one back.  Self time is a span's duration
minus the time its direct child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import statistics
import sys
import time
from collections import defaultdict

# (module, attribute) of every traced function, and what the wrapper
# notes beside the span: tape nodes at backward, bytes of a WAV, and the
# work an operation completed.
TRACED = (
    ("autodiff", "Tape.backward"),
    ("autodiff", "rfft_magnitude"),
    ("modules", "render_oscillator"),
    ("modules", "apply_adsr"),
    ("modules", "apply_lowpass"),
    ("modules", "mix"),
    ("chains", "generate_signal"),
    ("spectral", "stft_magnitude"),
    ("spectral", "mel_spectrogram"),
    ("spectral", "process"),
    ("losses", "signal_chain_loss"),
    ("losses", "log_spectral_distance"),
    ("matching", "match"),
    ("experiments", "perturbation_trials"),
    ("datasets", "generate_dataset"),
    ("datasets", "sample_record"),
    ("audio", "write_wav"),
)


def _note(name, args, kwargs, result):
    if name == "autodiff.Tape.backward":
        return len(args[0])
    if name == "audio.write_wav":
        return os.path.getsize(args[1])
    if name == "matching.match":
        return sum(len(b.trajectory) for b in result.branches)
    if name == "experiments.perturbation_trials":
        return len(next(iter(result.values())))
    if name == "datasets.generate_dataset":
        return len(result)
    return None


class Tracer:
    """In-memory span list: (name, start, end, parent index, note).

    A span's slot is taken when its call starts, so a parent's index is
    known to its children; the finished span is stored as a tuple of
    atoms, which the cyclic garbage collector stops tracking.
    """

    def __init__(self):
        self.spans: list = []
        self._open: list = []

    def wrap(self, name: str, fn):
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = open_[-1] if open_ else None
            spans.append(None)
            open_.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                open_.pop()
                spans[index] = (name, start, end, parent, None)
            spans[index] = (name, start, end, parent, _note(name, args, kwargs, result))
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every function in TRACED for the duration of the block."""
        loaded = [m for n, m in sys.modules.items() if n == "gradsynth" or n.startswith("gradsynth.")]
        undo = []
        try:
            for module, attr in TRACED:
                owner = sys.modules[f"gradsynth.{module}"]
                if "." in attr:  # a method: rebind it on its class
                    cls_name, method = attr.split(".")
                    cls = getattr(owner, cls_name)
                    original = cls.__dict__[method]
                    setattr(cls, method, self.wrap(f"{module}.{attr}", original))
                    undo.append((cls, method, original))
                    continue
                original = getattr(owner, attr)
                wrapper = self.wrap(f"{module}.{attr}", original)
                for holder in loaded:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, key, wrapper)
                            undo.append((holder, key, original))
            yield self
        finally:
            for holder, key, original in reversed(undo):
                setattr(holder, key, original)

    def write(self, path, **header) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {**header, "fields": ["name", "start_s", "end_s", "parent", "note"], "spans": self.spans},
                handle,
            )


# The operation each kind of workload times, and what its work is counted in.
ROOTS = {
    "matching.match": ("match", "step"),
    "experiments.perturbation_trials": ("perturb", "trial"),
    "datasets.generate_dataset": ("dataset", "record"),
}

# Per-layer metrics of each kind of operation: (layer function, statistic).
# "ms" is the median duration of one call, "self_ms" the median of the
# same minus its wrapped children; each also gets its calls per unit of
# work.  The operation's own self time is reported per unit of work.
LAYERS = {
    "match": (
        ("autodiff.Tape.backward", "ms"),
        ("autodiff.rfft_magnitude", "ms"),
        ("chains.generate_signal", "ms"),
        ("modules.render_oscillator", "ms"),
        ("modules.apply_adsr", "ms"),
        ("modules.apply_lowpass", "ms"),
        ("modules.mix", "ms"),
        ("spectral.stft_magnitude", "self_ms"),
        ("spectral.process", "ms"),
        ("losses.signal_chain_loss", "self_ms"),
        ("losses.log_spectral_distance", "ms"),
    ),
    "perturb": (
        ("autodiff.rfft_magnitude", "ms"),
        ("modules.render_oscillator", "ms"),
        ("spectral.stft_magnitude", "self_ms"),
        ("spectral.mel_spectrogram", "self_ms"),
        ("spectral.process", "ms"),
    ),
    "dataset": (
        ("chains.generate_signal", "ms"),
        ("modules.render_oscillator", "ms"),
        ("modules.apply_adsr", "ms"),
        ("modules.apply_lowpass", "ms"),
        ("modules.mix", "ms"),
        ("datasets.sample_record", "ms"),
        ("audio.write_wav", "ms"),
    ),
}


def metric_units() -> dict:
    """Name -> unit of every per-layer metric, in a fixed order."""
    units = {}
    for root, (kind, unit) in ROOTS.items():
        for layer, stat in LAYERS[kind]:
            units[f"{kind}.{layer}.{stat}"] = "ms"
            units[f"{kind}.{layer}.calls"] = f"calls/{unit}"
        units[f"{kind}.{root.split('.')[0]}.self_ms_per_{unit}"] = f"ms/{unit}"
    units["match.autodiff.tape_nodes"] = "nodes/step"
    units["dataset.audio.write_wav.bytes"] = "bytes"
    return units


def layer_metrics(spans: list) -> dict:
    """Per-layer metrics from a span list; see :func:`metric_units`."""
    child_s = [0.0] * len(spans)
    root_of = [None] * len(spans)
    for i, (name, start, end, parent, _) in enumerate(spans):
        if parent is None:
            root_of[i] = i
        else:
            child_s[parent] += end - start
            root_of[i] = root_of[parent]
    durations = defaultdict(list)  # (kind, name) -> [(total s, self s, note)]
    work = defaultdict(int)
    for i, (name, start, end, parent, note) in enumerate(spans):
        kind = ROOTS.get(spans[root_of[i]][0], (None,))[0]
        if kind is None:
            continue
        durations[kind, name].append((end - start, end - start - child_s[i], note))
        if parent is None:
            work[kind] += note

    values = {}
    for root, (kind, unit) in ROOTS.items():
        for layer, stat in LAYERS[kind]:
            calls = durations[kind, layer]
            column = 1 if stat == "self_ms" else 0
            values[f"{kind}.{layer}.{stat}"] = 1e3 * statistics.median(c[column] for c in calls)
            values[f"{kind}.{layer}.calls"] = len(calls) / work[kind]
        own = sum(c[1] for c in durations[kind, root])
        values[f"{kind}.{root.split('.')[0]}.self_ms_per_{unit}"] = 1e3 * own / work[kind]
    values["match.autodiff.tape_nodes"] = statistics.median(
        c[2] for c in durations["match", "autodiff.Tape.backward"]
    )
    values["dataset.audio.write_wav.bytes"] = statistics.median(
        c[2] for c in durations["dataset", "audio.write_wav"]
    )
    return values
