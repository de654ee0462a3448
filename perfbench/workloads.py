"""The benchmark's three kinds of operation: their seeded inputs, the calls
into gradsynth's public API, and the checks on what comes back.

Each kind runs in rounds.  A round repeats the same operations on the same
inputs, so every run attempts whole rounds and a metric taken from one
round's outputs (such as the match quality) does not depend on how many
rounds fit into the run.  Only the program calls are timed; input
generation and checks are not.
"""

from __future__ import annotations

import gc
import itertools
import json
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.io import wavfile

import reference as ref

SAMPLE_RATE = 16000
DURATION = 1.0
N_SAMPLES = int(SAMPLE_RATE * DURATION)
WAVEFORMS = ("sine", "square", "saw")
OSC_CELLS = ((0, 0), (1, 0))  # the two oscillators of chains/basic.chain
ADSR_CELL, LOWPASS_CELL = (0, 2), (0, 3)

# match: a fixed evaluation set of targets, one per (waveform, waveform)
# pair, and a fixed optimizer seed.  The median final_lsd of 9 or 18 fits
# drawn from a seed moves by a quarter or more from seed to seed, which
# would hide any regression in fit quality; the fixed set makes it a
# deterministic function of the program.  Each call runs 4 active-switch
# combinations x 2 restarts = 8 branches.
MATCH_TARGET_SEED = 20240
MATCH_STEPS = 12
MATCH_RESTARTS = 2
MATCH_WINDOWS = (512, 1024)
# perturb: trials per (waveform, distance) cell, and how many of them are
# recomputed with the reference.
PERTURB_WAVEFORMS = ("square", "saw")
PERTURB_DISTANCES = ("epsilon", 300.0, 600.0)
PERTURB_VARIANTS = tuple(
    (t, p) for t in ("spectrogram", "mel") for p in ("identity", "cumsum_time", "cumsum_freq")
)
PERTURB_TRIALS = 20
PERTURB_CHECKED = 2
PERTURB_RENDER_S = 0.25
PERTURB_FREQ_RANGE = (80.0, 2000.0)
EPSILON_CENTS = 1.0
# dataset: generate_dataset calls per round, records per call, and how
# many records of each call are regenerated alone and rendered with the
# reference.
DATASET_CALLS = 4
DATASET_RECORDS = 100
DATASET_CHECKED = 2

RTOL = 1e-6  # program vs reference, both float64 from the same definitions
# The program's low-pass convolves through an FFT, whose rounding error is
# absolute, about 1e-12 of full scale, so it shows as a relative error on
# samples near zero (1.4e-12 at samples of 1e-9 in one record); 1e-9 is
# still 60 times below one float32 step at full scale.
CONVOLUTION_ATOL = 1e-9
RANGES = {
    "amp": (0.0, 1.0),
    "freq": (20.0, 20000.0),
    "attack": (0.0, DURATION),
    "decay": (0.0, DURATION),
    "sustain": (0.0, 1.0),
    "release": (0.0, DURATION),
    "cutoff": (20.0, 8000.0),
}


# The host's speed drifts by up to 1.7x over tens of seconds (other
# tenants on shared cores), far beyond any regression bound, and it slows
# the program and a fixed numpy/Python kernel alike.  Every timed interval
# is therefore bracketed by two runs of the kernel and rescaled to a host
# on which the kernel takes CALIBRATION_NOMINAL_S; over 12 s windows this
# cut the quartile spread of perturb throughput from 0.14 to 0.05.
CALIBRATION_NOMINAL_S = 0.004
_NOISE = np.random.default_rng(0).standard_normal(N_SAMPLES)


def calibration_s() -> float:
    """Wall time of the fixed kernel: reference STFTs and low-pass of 1 s of
    noise, and a short Python loop."""
    started = time.perf_counter()
    ref.stft_magnitude(_NOISE, 1024)
    ref.stft_magnitude(_NOISE, 512)
    ref.lowpass(_NOISE, 1000.0, SAMPLE_RATE)
    counts = {}
    for i in range(4000):
        counts[i % 7] = counts.get(i % 7, 0) + i
    return time.perf_counter() - started


def timed(call):
    """``call()``'s result and its duration rescaled to the nominal host."""
    before = calibration_s()
    started = time.perf_counter()
    result = call()
    seconds = time.perf_counter() - started
    return result, seconds * CALIBRATION_NOMINAL_S * 2.0 / (before + calibration_s())


@dataclass
class Tally:
    """What the rounds of one kind did."""

    attempted: int = 0  # operations: match calls, trials or records
    failed: int = 0  # operations whose call raised
    call_seconds: list = field(default_factory=list)  # rescaled time of each program call
    rates: list = field(default_factory=list)  # work per rescaled second of each call
    errors: list = field(default_factory=list)  # failed checks
    failures: list = field(default_factory=list)  # exceptions the calls raised
    quality: list = field(default_factory=list)  # per-target final_lsd of one round

    def time_call(self, label: str, ops: int, call, work_of):
        """Time one program call covering ``ops`` operations and return its
        result, or None when it raised; ``work_of(result)`` is the work done."""
        self.attempted += ops
        gc.collect()  # each timed call starts with no garbage left by the last
        try:
            result, seconds = timed(call)
        except Exception as exc:  # a failed operation is counted, not fatal
            self.failed += ops
            self.failures.append(f"{label}: {type(exc).__name__}: {exc}")
            return None
        self.call_seconds.append(seconds)
        self.rates.append(work_of(result) / seconds)
        return result


def _close(got: float, want: float) -> bool:
    return math.isclose(got, want, rel_tol=RTOL, abs_tol=1e-9)


def _reference_params(values: dict) -> dict:
    """basic.chain parameters keyed by (channel, layer) -> reference layout."""
    cells = OSC_CELLS + (ADSR_CELL, LOWPASS_CELL)
    return {name: dict(values[cell]) for name, cell in zip(("osc0", "osc1", "adsr", "lowpass"), cells)}


def _range_errors(params: dict, where: str) -> list:
    errors = []
    for name, cell in params.items():
        for key, value in cell.items():
            if key in RANGES and not RANGES[key][0] <= float(value) <= RANGES[key][1]:
                errors.append(f"{where}: {name}.{key} = {value} outside {RANGES[key]}")
    a = params["adsr"]
    if a["attack"] + a["decay"] + a["release"] > DURATION + 1e-12:
        errors.append(f"{where}: attack + decay + release exceeds {DURATION} s")
    return errors


class Match:
    """Gradient sound matching on basic.chain against a fixed target set."""

    name = "match"

    def __init__(self, gs, chain):
        rng = np.random.default_rng(MATCH_TARGET_SEED)
        self.gs, self.chain = gs, chain
        self.render = gs.audio.RenderConfig(SAMPLE_RATE, DURATION)
        self.loss_cfg = gs.losses.LossConfig(
            cells="output", windows=MATCH_WINDOWS, processings=("identity",),
            norm_p=1, transform="spectrogram",
        )
        self.opt_cfg = gs.matching.OptimizerConfig(
            steps=MATCH_STEPS, learning_rate=0.05, restarts=MATCH_RESTARTS,
            seed=int(rng.integers(2**31)), jobs=1,
        )
        self.targets = []
        for pair in itertools.product(WAVEFORMS, repeat=2):
            params = self._draw(rng, pair)
            audio, _ = ref.render_basic(params, N_SAMPLES, SAMPLE_RATE)
            fixed = {
                (gs.chains.CellAddress(*cell), "waveform"): wave
                for cell, wave in zip(OSC_CELLS, pair)
            }
            self.targets.append((audio, gs.audio.Signal.from_values(audio, SAMPLE_RATE), fixed))

    @staticmethod
    def _draw(rng, pair) -> dict:
        params = {
            f"osc{i}": {
                "amp": float(rng.uniform(0.3, 1.0)),
                "freq": float(np.exp(rng.uniform(math.log(100.0), math.log(1000.0)))),
                "waveform": wave,
                "active": "on",
            }
            for i, wave in enumerate(pair)
        }
        attack, decay, release = (float(v) for v in rng.uniform(0.0, 0.3, size=3))
        params["adsr"] = {
            "attack": attack, "decay": decay, "release": release,
            "sustain": float(rng.uniform(0.3, 1.0)),
        }
        params["lowpass"] = {"cutoff": float(np.exp(rng.uniform(math.log(500.0), math.log(6000.0))))}
        return params

    def _match(self, target, opt_cfg):
        _, signal, fixed = target
        return self.gs.matching.match(
            signal, self.chain, self.loss_cfg, opt_cfg,
            fixed_params=fixed, render_config=self.render,
        )

    def warm_up(self) -> None:
        self._match(self.targets[0], self.gs.matching.OptimizerConfig(steps=1, restarts=1, jobs=1))

    def round(self, tally: Tally):
        """One call per target, yielding after each."""
        lsds = []
        for index, target in enumerate(self.targets):
            result = tally.time_call(
                f"match target {index}", 1, lambda: self._match(target, self.opt_cfg),
                lambda r: sum(len(b.trajectory) for b in r.branches),
            )
            if result is not None:
                tally.errors.extend(self.check(index, target, result))
                lsds.append(result.final_lsd)
            yield
        if not tally.quality:
            tally.quality = lsds
        elif lsds != tally.quality:
            tally.errors.append("match: a repeated round gave different final_lsd values")

    def check(self, index: int, target, result) -> list:
        where = f"match target {index}"
        errors = []
        audio, _, fixed = target
        best = {tuple(a): dict(p) for a, p in result.best.values.items()}
        params = _reference_params(best)
        errors += _range_errors(params, where)
        for (address, _), wave in fixed.items():
            if best[address]["waveform"] != wave:
                errors.append(f"{where}: fixed waveform at {address} not kept")
        rendered, slack = ref.render_basic(params, N_SAMPLES, SAMPLE_RATE)
        if not slack.any():  # else the re-render is ambiguous at some sample
            spectral = ref.stft_l1_loss(rendered, audio, MATCH_WINDOWS)
            if not _close(result.final_spectral, spectral):
                errors.append(f"{where}: final_spectral {result.final_spectral} != reference {spectral}")
            lsd = ref.log_spectral_distance(rendered, audio, max(MATCH_WINDOWS))
            if not _close(result.final_lsd, lsd):
                errors.append(f"{where}: final_lsd {result.final_lsd} != reference {lsd}")
        finished = [b for b in result.branches if not b.diverged]
        if not finished or result.final_loss != min(b.final_loss for b in finished):
            errors.append(f"{where}: final_loss is not the minimum over non-diverged branches")
        # Adam on this loss does not descend monotonically, and the silent
        # combination cannot move at all, so the branch that ends best may
        # have started lower still; some branch must have descended.
        if not any(b.final_loss < b.trajectory[0] for b in finished):
            errors.append(f"{where}: no branch ended below its first-step loss")
        return errors


class Perturb:
    """The frequency-perturbation experiment over every loss variant."""

    name = "perturb"

    def __init__(self, gs, rng: np.random.Generator):
        self.gs = gs
        self.cells = [
            (wave, dist, int(rng.integers(2**31)),
             sorted(int(i) for i in rng.choice(PERTURB_TRIALS, PERTURB_CHECKED, replace=False)))
            for wave in PERTURB_WAVEFORMS
            for dist in PERTURB_DISTANCES
        ]

    def warm_up(self) -> None:
        self.gs.experiments.perturbation_trials("square", "epsilon", trials=1, seed=0, jobs=1)

    def round(self, tally: Tally):
        """One call per (waveform, distance) cell, yielding after each."""
        for wave, dist, seed, checked in self.cells:
            result = tally.time_call(
                f"perturb {wave}/{dist}", PERTURB_TRIALS,
                lambda: self.gs.experiments.perturbation_trials(
                    wave, dist, trials=PERTURB_TRIALS, seed=seed, jobs=1
                ),
                lambda r: PERTURB_TRIALS,
            )
            if result is not None:
                tally.errors.extend(self.check(wave, dist, checked, result))
            yield

    def check(self, wave, dist, checked, result) -> list:
        where = f"perturb {wave}/{dist}"
        if set(result) != set(PERTURB_VARIANTS):
            return [f"{where}: variants {sorted(result)} != {sorted(PERTURB_VARIANTS)}"]
        if any(len(trials) != PERTURB_TRIALS for trials in result.values()):
            return [f"{where}: wrong number of trials"]
        errors = []
        offset = EPSILON_CENTS if dist == "epsilon" else float(dist)
        for i in range(PERTURB_TRIALS):
            first = result[PERTURB_VARIANTS[0]][i]
            f, pred, pert = first.target_freq, first.predicted_freq, first.perturbed_freq
            if any((t.target_freq, t.predicted_freq, t.perturbed_freq) != (f, pred, pert)
                   for t in (result[v][i] for v in PERTURB_VARIANTS)):
                errors.append(f"{where} trial {i}: variants disagree on the frequencies")
            low, high = PERTURB_FREQ_RANGE
            if not low <= f <= high:
                errors.append(f"{where} trial {i}: target {f} Hz outside [{low}, {high}]")
            c_pred, c_pert = (1200.0 * math.log2(x / f) for x in (pred, pert))
            if dist == "epsilon":
                ok = abs(abs(c_pred) - offset) < 1e-6 and abs(c_pred + c_pert) < 1e-6
            else:
                ok = abs(abs(c_pred) - offset / 2) < 1e-6 and abs(abs(c_pert) - offset) < 1e-6
            if not ok:
                errors.append(f"{where} trial {i}: offsets {c_pred:+.6f} / {c_pert:+.6f} cents")
            for variant in PERTURB_VARIANTS:
                t = result[variant][i]
                if t.success != int(t.predicted_loss < t.perturbed_loss):
                    errors.append(f"{where} trial {i} {variant}: success is not the loss ordering")
        for i in checked:
            errors += self._check_reference(where, wave, i, result)
        return errors

    def _check_reference(self, where, wave, i, result) -> list:
        first = result[PERTURB_VARIANTS[0]][i]
        n = int(round(SAMPLE_RATE * PERTURB_RENDER_S))
        signals = {}
        for freq in (first.target_freq, first.predicted_freq, first.perturbed_freq):
            signals[freq], ambiguous = ref.oscillator(wave, 1.0, freq, n, SAMPLE_RATE)
            if ambiguous.any():
                return []  # a sample within rounding of a jump: not comparable
        errors = []
        for variant in PERTURB_VARIANTS:
            feats = {
                freq: ref.perturbation_features(x, *variant, SAMPLE_RATE) for freq, x in signals.items()
            }
            want_pred = float(np.abs(feats[first.predicted_freq] - feats[first.target_freq]).sum())
            want_pert = float(np.abs(feats[first.perturbed_freq] - feats[first.target_freq]).sum())
            t = result[variant][i]
            if not (_close(t.predicted_loss, want_pred) and _close(t.perturbed_loss, want_pert)):
                errors.append(
                    f"{where} trial {i} {variant}: losses {t.predicted_loss}/{t.perturbed_loss}"
                    f" != reference {want_pred}/{want_pert}"
                )
            elif abs(want_pred - want_pert) > RTOL * max(want_pred, want_pert):
                if t.success != int(want_pred < want_pert):
                    errors.append(f"{where} trial {i} {variant}: success flag disagrees with reference")
        return errors


class Dataset:
    """Seeded dataset generation for basic.chain into scratch directories."""

    name = "dataset"

    def __init__(self, gs, chain, rng: np.random.Generator, workdir: Path):
        self.gs, self.chain = gs, chain
        self.render = gs.audio.RenderConfig(SAMPLE_RATE, DURATION)
        self.calls = [
            (int(rng.integers(2**31)),
             sorted(int(i) for i in rng.choice(DATASET_RECORDS, DATASET_CHECKED, replace=False)))
            for _ in range(DATASET_CALLS)
        ]
        self.out = workdir / "dataset"

    def _generate(self, n: int, seed: int) -> list:
        return self.gs.datasets.generate_dataset(self.chain, n, seed, self.out, self.render, jobs=1)

    def warm_up(self) -> None:
        self._generate(1, 0)
        shutil.rmtree(self.out)

    def round(self, tally: Tally):
        """DATASET_CALLS calls, each into a fresh directory, yielding after each."""
        for seed, checked in self.calls:
            try:
                records = tally.time_call(
                    f"dataset seed {seed}", DATASET_RECORDS,
                    lambda: self._generate(DATASET_RECORDS, seed), len,
                )
                if records is not None:
                    tally.errors.extend(self.check(seed, checked, records))
            finally:
                shutil.rmtree(self.out, ignore_errors=True)
            yield

    def check(self, seed: int, checked, records) -> list:
        errors = []
        lines = (self.out / "metadata.jsonl").read_text(encoding="utf-8").splitlines()
        if len(lines) != DATASET_RECORDS or len(records) != DATASET_RECORDS:
            return [f"dataset seed {seed}: {len(lines)} metadata lines, {len(records)} records"]
        payloads = [json.loads(line) for line in lines]
        wavs, params_of = {}, {}
        for i, payload in enumerate(payloads):
            where = f"dataset seed {seed} record {i}"
            if payload["index"] != i or records[i].index != i or payload["seed"] != seed:
                errors.append(f"{where}: metadata out of index order or wrong seed")
                continue
            rate, data = wavfile.read(self.out / payload["wav"])
            if rate != SAMPLE_RATE or data.dtype != np.float32 or data.shape != (N_SAMPLES,):
                errors.append(f"{where}: WAV is {data.dtype} {data.shape} at {rate} Hz")
                continue
            wavs[i] = data
            params = _reference_params(
                {tuple(int(v) for v in key.split(",")): p for key, p in payload["params"].items()}
            )
            errors += _range_errors(params, where)
            for osc in ("osc0", "osc1"):
                if params[osc]["waveform"] not in WAVEFORMS or params[osc]["active"] not in ("on", "off"):
                    errors.append(f"{where}: bad {osc} labels {params[osc]}")
            params_of[i] = params
        for i in checked:
            if i not in wavs:
                continue
            where = f"dataset seed {seed} record {i}"
            alone = self.gs.datasets.sample_record(self.chain, seed, i, self.render)
            got = self.gs.datasets.assignment_payload(self.chain, alone.assignment)["params"]
            if got != payloads[i]["params"]:
                errors.append(f"{where}: regenerated alone, the assignment differs")
            audio = self.gs.datasets.render_record(self.chain, alone, self.render).values
            if not np.array_equal(ref.as_wav_samples(audio), wavs[i]):
                errors.append(f"{where}: regenerated alone, the audio differs")
            want, slack = ref.render_basic(params_of[i], N_SAMPLES, SAMPLE_RATE)
            want32 = ref.as_wav_samples(want)
            tol = np.spacing(np.abs(want32)) + slack + CONVOLUTION_ATOL
            if np.any(np.abs(wavs[i].astype(np.float64) - want32) > tol):
                errors.append(f"{where}: WAV differs from the reference render")
        return errors


KINDS = (Match, Perturb, Dataset)


