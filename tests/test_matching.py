import json
import math
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradsynth import losses, matching
from gradsynth.audio import RenderConfig
from gradsynth.autodiff import DiffValue, Tape, sigmoid_gate
from gradsynth.chains import (
    Cell,
    CellAddress,
    ChainSpec,
    ChainValidationError,
    Connection,
    ParameterAssignment,
    RenderTrace,
    generate_signal,
    parse_chain_file,
)
from gradsynth.datasets import record_rng, sample_assignment
from gradsynth.losses import LossConfig, chain_features, signal_chain_loss
from gradsynth.matching import (
    MatcherConfigError,
    OptimizerConfig,
    beta_at,
    match,
)
from gradsynth.modules import (
    CATALOG,
    SHARED_DURATION,
    ContinuousParam,
    resolve_range,
    unit_scale,
)
from assignments import from_cells

CFG = RenderConfig(duration=0.25)

OSC_CHAIN = ChainSpec("single", (Cell(CellAddress(0, 0), "osc"),), ())

A00 = CellAddress(0, 0)
A10 = CellAddress(1, 0)

# saw + square into a mix, shaped by ADSR, then lowpassed
FULL_CHAIN = ChainSpec(
    "full",
    (
        Cell(CellAddress(0, 0), "osc"),
        Cell(CellAddress(1, 0), "osc"),
        Cell(CellAddress(0, 1), "mix"),
        Cell(CellAddress(0, 2), "adsr"),
        Cell(CellAddress(0, 3), "lowpass"),
    ),
    (
        Connection(CellAddress(0, 0), CellAddress(0, 1)),
        Connection(CellAddress(1, 0), CellAddress(0, 1)),
        Connection(CellAddress(0, 1), CellAddress(0, 2)),
        Connection(CellAddress(0, 2), CellAddress(0, 3)),
    ),
)

FULL_TARGET = from_cells(
    {
        CellAddress(0, 0): {"amp": 0.74, "freq": 330.0, "waveform": "saw", "active": "on"},
        CellAddress(1, 0): {"amp": 0.41, "freq": 552.0, "waveform": "square", "active": "on"},
        CellAddress(0, 1): {},
        CellAddress(0, 2): {"attack": 0.05, "decay": 0.06, "sustain": 0.6, "release": 0.04},
        CellAddress(0, 3): {"cutoff": 1800.0},
    }
)

FULL_CATEGORICALS = {
    (CellAddress(0, 0), "waveform"): "saw",
    (CellAddress(0, 0), "active"): "on",
    (CellAddress(1, 0), "waveform"): "square",
    (CellAddress(1, 0), "active"): "on",
}


def test_search_space_frees_the_tables_unfixed_continuous_keys():
    fixed = {(A00, "freq"): 440.0, (A00, "waveform"): "sine"}
    free, combos = matching._search_space(FULL_CHAIN, fixed)
    assert free == [
        key
        for key, param in FULL_CHAIN.params.items()
        if isinstance(param, ContinuousParam) and key not in fixed
    ]
    assert free == [
        (A00, "amp"),
        (CellAddress(0, 2), "attack"),
        (CellAddress(0, 2), "decay"),
        (CellAddress(0, 2), "sustain"),
        (CellAddress(0, 2), "release"),
        (CellAddress(0, 3), "cutoff"),
        (A10, "amp"),
        (A10, "freq"),
    ]
    # the fixed waveform has one choice: 2 x 3 x 2 combinations remain
    assert len(combos) == 12
    assert all(dict(combo)[A00, "waveform"] == "sine" for combo in combos)


def sine_target(amp=0.63, freq=440.0):
    assignment = from_cells(
        {A00: {"amp": amp, "freq": freq, "waveform": "sine", "active": "on"}}
    )
    return generate_signal(OSC_CHAIN, assignment, CFG).output


AMP_FIXED = {
    (A00, "freq"): 440.0,
    (A00, "waveform"): "sine",
    (A00, "active"): "on",
}

SPECTRAL_L2 = LossConfig(cells="output", windows=(1024,), norm_p=2)


# -- beta schedule ----------------------------------------------------------


def test_beta_at_breakpoint():
    assert beta_at(((2000, 0.0), (6000, 1.0)), 2000) == 0.0


def test_beta_at_midpoint():
    assert beta_at(((2000, 0.0), (6000, 1.0)), 4000) == 0.5


def test_beta_at_clamps():
    schedule = ((2000, 0.0), (6000, 1.0))
    assert beta_at(schedule, 10000) == 1.0
    assert beta_at(schedule, 0) == 0.0


def test_beta_at_rejects_negative_step():
    with pytest.raises(MatcherConfigError):
        beta_at(((0, 1.0),), -1)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"steps": 0},
        {"learning_rate": 0.0},
        {"algorithm": "lbfgs"},
        {"restarts": 0},
        {"jobs": 0},
        {"beta_schedule": ()},
        {"beta_schedule": ((5, 1.0), (3, 0.0))},
        {"beta_schedule": ((3, 1.0), (3, 0.0))},
        {"beta_schedule": ((0, -1.0),)},
        {"learning_rate": math.nan},
        {"learning_rate": math.inf},
        {"beta_schedule": ((0, math.nan),)},
        {"beta_schedule": ((0, 0.0), (10, math.inf))},
    ],
)
def test_optimizer_config_rejects(kwargs):
    with pytest.raises(MatcherConfigError):
        OptimizerConfig(**kwargs)


# -- reparameterization -----------------------------------------------------


def _theta(chain, fill):
    """Every continuous parameter of ``chain`` at ``fill``."""
    return {
        key: DiffValue(fill) for key, p in chain.params.items() if isinstance(p, ContinuousParam)
    }


def _first_choices(chain):
    """Every categorical parameter of ``chain`` at its first choice."""
    return {
        key: p.choices[0] for key, p in chain.params.items() if not isinstance(p, ContinuousParam)
    }


def _mapped(chain, theta, fixed=None, cfg=CFG):
    """``matching._assignment``'s parameters, each categorical at its first choice."""
    return matching._assignment(chain, theta, _first_choices(chain), fixed or {}, cfg).params


def test_reparam_stays_inside_ranges():
    rng = np.random.default_rng(7)
    for _ in range(50):
        theta = {}
        for cell in FULL_CHAIN.cells:
            if cell.kind == "empty":
                continue
            for p in CATALOG[cell.kind].continuous:
                theta[(cell.address, p.name)] = DiffValue(rng.uniform(-30.0, 30.0))
        params = _mapped(FULL_CHAIN, theta)
        for cell in FULL_CHAIN.cells:
            for p in CATALOG[cell.kind].continuous:
                low, high = resolve_range(p, CFG)
                v = params[cell.address, p.name].value
                assert low < v < high, f"{cell.kind}.{p.name} = {v} not in ({low},{high})"
        total = sum(params[CellAddress(0, 2), n].value for n in ("attack", "decay", "release"))
        assert total <= CFG.duration + 1e-12


FM_CHAIN = parse_chain_file((Path(__file__).parents[1] / "chains" / "fm.chain").read_text())

TREMOLO_CHAIN = parse_chain_file(
    "chain tremolo\ncell 0 0 osc\ncell 1 0 lfo\ncell 0 1 tremolo\n"
    "connect 0,0 -> 0,1\nconnect 1,0 -> 0,1\n"
)


@pytest.mark.parametrize("cfg", [RenderConfig(8000, 0.25), RenderConfig(44100, 1.0)])
def test_assignment_gates_every_parameter_at_the_render_in_use(cfg):
    rng = np.random.default_rng(11)
    kinds = set()
    for chain in (FULL_CHAIN, FM_CHAIN, TREMOLO_CHAIN):
        kinds.update(chain.module_cells.values())
        for _ in range(20):
            theta = {key: DiffValue(rng.uniform(-30.0, 30.0)) for key in _theta(chain, 0.0)}
            params = _mapped(chain, theta, cfg=cfg)
            for (address, name), p in chain.params.items():
                if isinstance(p, ContinuousParam) and p.high is not None:
                    expected = sigmoid_gate(theta[address, name], *unit_scale(p, cfg)).value
                    assert params[address, name].value == expected, f"{address}.{name}"
            for address, kind in chain.module_cells.items():
                if SHARED_DURATION[kind]:
                    segments = [params[address, n].value for n in SHARED_DURATION[kind]]
                    assert all(s >= 0.0 for s in segments)
                    # a saturated gate may round one ulp past the duration
                    assert sum(segments) <= cfg.duration + 1e-12, segments
    assert kinds == set(CATALOG)


def test_assignment_values_pass_the_chains_assignment_check():
    chain = parse_chain_file(
        "chain holes\ncell 0 0 osc\ncell 1 0 osc\ncell 2 0 empty\ncell 0 1 mix\n"
        "cell 0 2 adsr\nconnect 0,0 -> 0,1\nconnect 1,0 -> 0,1\nconnect 0,1 -> 0,2\n"
    )
    adsr = CellAddress(0, 2)
    fixed = {(adsr, "decay"): 0.125}
    theta = {key: DiffValue(1.5) for key in _theta(chain, 0.0) if key not in fixed}
    params = _mapped(chain, theta, fixed)
    chain.check_assignment(ParameterAssignment(params))
    # one value per key of the table, in its order; the mix cell has none
    assert list(params) == list(chain.params)
    assert params[adsr, "decay"] == 0.125
    left = sum(params[adsr, n].value for n in ("attack", "release"))
    assert left <= CFG.duration - 0.125


def test_reparam_respects_fixed_time_budget():
    fixed = {(CellAddress(0, 2), "attack"): 0.2}
    theta = _theta(FULL_CHAIN, 30.0)
    del theta[(CellAddress(0, 2), "attack")]
    adsr = CellAddress(0, 2)
    params = _mapped(FULL_CHAIN, theta, fixed)
    assert params[adsr, "attack"] == 0.2
    assert params[adsr, "decay"].value + params[adsr, "release"].value <= CFG.duration - 0.2 + 1e-12


def test_log_scale_params_span_range():
    lo = _mapped(OSC_CHAIN, _theta(OSC_CHAIN, -30.0))
    hi = _mapped(OSC_CHAIN, _theta(OSC_CHAIN, 30.0))
    assert lo[A00, "freq"].value == pytest.approx(20.0, rel=1e-6)
    assert hi[A00, "freq"].value == pytest.approx(20000.0, rel=1e-6)


def test_saturated_log_scale_gate_stays_in_range():
    # sigmoid(-40) is under half an ulp of log(20), and exp(log(20.0)) rounds
    # to 19.999999999999996, which the low-pass rejects
    theta = _theta(FULL_CHAIN, 0.0)
    theta[(CellAddress(0, 3), "cutoff")] = theta[(A00, "freq")] = DiffValue(-40.0)
    params = _mapped(FULL_CHAIN, theta)
    assert params[CellAddress(0, 3), "cutoff"].value == 20.0
    assert params[A00, "freq"].value == 20.0


# -- matching behavior ------------------------------------------------------


def test_amplitude_recovery_within_one_percent():
    target = sine_target(amp=0.63)
    opt = OptimizerConfig(steps=300, learning_rate=0.1, restarts=2, seed=5)
    res = match(target, OSC_CHAIN, SPECTRAL_L2, opt, fixed_params=AMP_FIXED, render_config=CFG)
    amp = res.best.params[A00, "amp"]
    assert abs(amp - 0.63) < 0.01  # amp range is [0, 1]


def test_trajectories_cover_all_steps():
    target = sine_target()
    opt = OptimizerConfig(steps=40, learning_rate=0.1, restarts=3, seed=1)
    res = match(target, OSC_CHAIN, SPECTRAL_L2, opt, fixed_params=AMP_FIXED, render_config=CFG)
    assert len(res.branches) == 3
    assert all(len(b.trajectory) == 40 for b in res.branches)
    assert res.diverged_branches == ()
    assert res.wall_time > 0


def test_determinism_bit_identical():
    target = sine_target()
    opt = OptimizerConfig(steps=25, learning_rate=0.1, restarts=2, seed=9)
    a = match(target, OSC_CHAIN, SPECTRAL_L2, opt, fixed_params=AMP_FIXED, render_config=CFG)
    b = match(target, OSC_CHAIN, SPECTRAL_L2, opt, fixed_params=AMP_FIXED, render_config=CFG)
    assert [x.trajectory for x in a.branches] == [x.trajectory for x in b.branches]
    assert a.best.params[A00, "amp"] == b.best.params[A00, "amp"]


def test_zero_learning_rate_limit_freezes_parameters():
    target = sine_target()
    short = OptimizerConfig(steps=1, learning_rate=1e-12, restarts=1, seed=4)
    long = OptimizerConfig(steps=6, learning_rate=1e-12, restarts=1, seed=4)
    a = match(target, OSC_CHAIN, SPECTRAL_L2, short, fixed_params=AMP_FIXED, render_config=CFG)
    b = match(target, OSC_CHAIN, SPECTRAL_L2, long, fixed_params=AMP_FIXED, render_config=CFG)
    # amp range is [0, 1], so the raw difference is the range fraction
    assert abs(a.best.params[A00, "amp"] - b.best.params[A00, "amp"]) < 1e-8


def test_loss_decreases_on_amplitude_problem():
    decreased = 0
    for seed in range(10):
        target = sine_target()
        opt = OptimizerConfig(steps=200, learning_rate=0.1, restarts=1, seed=seed)
        res = match(
            target, OSC_CHAIN, SPECTRAL_L2, opt, fixed_params=AMP_FIXED, render_config=CFG
        )
        traj = res.branches[0].trajectory
        decreased += traj[199] < traj[0]
    assert decreased >= 9


def test_parameter_loss_only_recovers_full_chain():
    opt = OptimizerConfig(
        steps=500, learning_rate=0.1, beta_schedule=((0, 0.0),), restarts=1, seed=2
    )
    loss_cfg = LossConfig(cells="output", windows=(1024,), regression_kind="L2")
    target = generate_signal(FULL_CHAIN, FULL_TARGET, CFG).output
    res = match(
        target,
        FULL_CHAIN,
        loss_cfg,
        opt,
        target_params=FULL_TARGET,
        fixed_params=FULL_CATEGORICALS,
        render_config=CFG,
    )
    for (address, name), p in FULL_CHAIN.params.items():
        if isinstance(p, ContinuousParam):
            low, high = resolve_range(p, CFG)
            got = res.best.params[address, name]
            want = FULL_TARGET.params[address, name]
            assert abs(got - want) / (high - low) < 0.01, f"{address}.{name}"


def test_match_keeps_an_optional_connection_on():
    optional = Connection(A00, CellAddress(0, 1), optional=True)
    chain = ChainSpec(
        "filtered", (Cell(A00, "osc"), Cell(CellAddress(0, 1), "lowpass")), (optional,)
    )
    opt = OptimizerConfig(steps=2, learning_rate=0.1, restarts=1, seed=0)
    res = match(sine_target(), chain, SPECTRAL_L2, opt, fixed_params=AMP_FIXED, render_config=CFG)
    assert res.best.connections_on is None
    assert res.best.connection_on(optional)
    # the osc is on, so the fitted render reaches the output through it
    assert generate_signal(chain, res.best, CFG).output.values.any()


def test_categorical_enumeration_picks_right_waveform():
    assignment = from_cells(
        {A00: {"amp": 0.8, "freq": 300.0, "waveform": "saw", "active": "on"}}
    )
    target = generate_signal(OSC_CHAIN, assignment, CFG).output
    fixed = {(A00, "amp"): 0.8, (A00, "freq"): 300.0, (A00, "active"): "on"}
    opt = OptimizerConfig(steps=5, learning_rate=0.1, restarts=1, seed=0)
    res = match(target, OSC_CHAIN, SPECTRAL_L2, opt, fixed_params=fixed, render_config=CFG)
    assert res.best.params[A00, "waveform"] == "saw"
    assert len(res.branches) == 3  # sine, square, saw


def test_parallel_jobs_match_sequential():
    target = sine_target()
    seq = OptimizerConfig(steps=10, learning_rate=0.1, restarts=2, seed=6, jobs=1)
    par = OptimizerConfig(steps=10, learning_rate=0.1, restarts=2, seed=6, jobs=2)
    a = match(target, OSC_CHAIN, SPECTRAL_L2, seq, fixed_params=AMP_FIXED, render_config=CFG)
    b = match(target, OSC_CHAIN, SPECTRAL_L2, par, fixed_params=AMP_FIXED, render_config=CFG)
    assert [x.trajectory for x in a.branches] == [x.trajectory for x in b.branches]


@pytest.mark.parametrize("steps", [2, 5])
def test_target_spectra_computed_once_per_match(monkeypatch, steps):
    target = sine_target()
    original = losses.stft_magnitude
    target_calls = []

    def counting(signal, window_size, **kwargs):
        if np.array_equal(signal.values, target.values):
            target_calls.append(window_size)
        return original(signal, window_size, **kwargs)

    monkeypatch.setattr(losses, "stft_magnitude", counting)
    loss_cfg = LossConfig(cells="output", windows=(512, 1024))
    opt = OptimizerConfig(steps=steps, learning_rate=0.1, restarts=2, seed=1)
    match(target, OSC_CHAIN, loss_cfg, opt, fixed_params=AMP_FIXED, render_config=CFG)
    # one per window for the loss features, plus the final log-spectral
    # distance's own at the largest window; none per step or branch
    assert sorted(target_calls) == [512, 1024, 1024]


def test_a_step_tape_is_freed_before_the_next_step_records(monkeypatch):
    tapes = []

    class Watched(Tape):
        def __init__(self):
            # every earlier step's tape is gone before this step records
            assert [ref() for ref in tapes] == [None] * len(tapes)
            super().__init__()
            tapes.append(weakref.ref(self))

    monkeypatch.setattr(matching, "Tape", Watched)
    opt = OptimizerConfig(steps=4, learning_rate=0.1, restarts=2, seed=1)
    match(sine_target(), OSC_CHAIN, SPECTRAL_L2, opt, fixed_params=AMP_FIXED, render_config=CFG)
    assert len(tapes) == 8


def _count_renders(monkeypatch):
    calls = []
    original = matching.generate_signal

    def counting(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(matching, "generate_signal", counting)
    return calls


SILENT = {(A00, "waveform"): "sine", (A00, "active"): "off"}


# a constant beta, as one breakpoint or as several of the same value
@pytest.mark.parametrize("beta_schedule", [((0, 1.0),), ((0, 1.0), (3, 1.0))])
def test_silent_branch_renders_once(monkeypatch, beta_schedule):
    calls = _count_renders(monkeypatch)
    opt = OptimizerConfig(
        steps=5, learning_rate=0.1, restarts=1, seed=0, beta_schedule=beta_schedule
    )
    res = match(sine_target(), OSC_CHAIN, SPECTRAL_L2, opt, fixed_params=SILENT, render_config=CFG)
    # the first step, then the best assignment's final spectra; the loss
    # of a silent output has no tape node, so theta cannot move
    assert len(calls) == 2
    (branch,) = res.branches
    assert branch.trajectory == (branch.trajectory[0],) * 5
    assert branch.final_loss == branch.trajectory[0] > 0.0


def test_silent_branch_under_beta_schedule_renders_once(monkeypatch):
    calls = _count_renders(monkeypatch)
    opt = OptimizerConfig(
        steps=5, learning_rate=0.1, restarts=1, seed=0, beta_schedule=((0, 1.0), (4, 2.0))
    )
    res = match(sine_target(), OSC_CHAIN, SPECTRAL_L2, opt, fixed_params=SILENT, render_config=CFG)
    # the first step, then the best assignment's final spectra: each step's
    # loss is the same spectral part at that step's beta
    assert len(calls) == 1 + 1
    trajectory = res.branches[0].trajectory
    betas = [beta_at(opt.beta_schedule, s) for s in range(5)]
    assert betas == [1.0, 1.25, 1.5, 1.75, 2.0]
    assert list(trajectory) == [b * trajectory[0] for b in betas]
    assert res.branches[0].final_loss == trajectory[-1]


def test_frozen_branch_renders_its_spectral_part_when_a_later_beta_is_positive(monkeypatch):
    # every parameter fixed, and beta 0 at step 0: the parameter part alone
    # has no tape node, and the later steps still need the spectral part
    calls = _count_renders(monkeypatch)
    params = {"amp": 0.5, "freq": 300.0, "waveform": "sine", "active": "on"}
    fixed = {(A00, name): value for name, value in params.items()}
    target_params = from_cells({A00: params})
    opt = OptimizerConfig(
        steps=3, learning_rate=0.1, restarts=1, seed=0, beta_schedule=((0, 0.0), (2, 1.0))
    )
    res = match(
        sine_target(), OSC_CHAIN, SPECTRAL_L2, opt,
        target_params=target_params, fixed_params=fixed, render_config=CFG,
    )
    # step 0 makes no render, so the freeze makes one; then the final spectra
    assert len(calls) == 1 + 1
    (branch,) = res.branches
    spectral = signal_chain_loss(
        generate_signal(OSC_CHAIN, target_params, CFG),
        chain_features(RenderTrace({}, sine_target()), SPECTRAL_L2),
        SPECTRAL_L2,
    ).value
    param = branch.trajectory[0]  # the categorical smoothing's floor
    assert branch.trajectory == (param, param + 0.5 * spectral, param + 1.0 * spectral)
    assert branch.final_loss == branch.trajectory[-1]


@pytest.mark.parametrize("algorithm", ["adam", "sgd"])
def test_optimizer_algorithm_sets_the_first_step(algorithm):
    target = sine_target()
    lr = 0.05
    fixed = {(A00, "waveform"): "sine", (A00, "active"): "on"}
    opt = OptimizerConfig(steps=1, learning_rate=lr, algorithm=algorithm, restarts=1, seed=3)
    res = match(target, OSC_CHAIN, SPECTRAL_L2, opt, fixed_params=fixed, render_config=CFG)
    theta1 = dict(res.branches[0].theta)

    # theta_0 as the branch draws it: combination 0, restart 0
    rng = np.random.default_rng(np.random.SeedSequence(3, spawn_key=(0, 0)))
    theta0 = {(A00, p.name): float(rng.uniform(-2.0, 2.0)) for p in CATALOG["osc"].continuous}
    tape = Tape()
    tracked = {key: tape.parameter(value, key[1]) for key, value in theta0.items()}
    predicted = matching._assignment(OSC_CHAIN, tracked, fixed, fixed, CFG)
    trace = generate_signal(OSC_CHAIN, predicted, CFG)
    target_features = chain_features(RenderTrace({}, target), SPECTRAL_L2)
    grads = tape.backward(signal_chain_loss(trace, target_features, SPECTRAL_L2))

    assert set(theta1) == set(theta0)
    for key, start in theta0.items():
        g = grads[key[1]]
        step = lr * g / (abs(g) + 1e-8) if algorithm == "adam" else lr * g
        assert start - theta1[key] == pytest.approx(step, rel=1e-9, abs=1e-15)


def test_seed_sets_theta0_per_combination_and_restart():
    # a silent output has no tape node, so every branch keeps its theta_0
    fixed = {(A00, "active"): "off"}
    target = sine_target()

    def initial_thetas(seed):
        opt = OptimizerConfig(steps=2, learning_rate=0.1, restarts=2, seed=seed)
        res = match(target, OSC_CHAIN, SPECTRAL_L2, opt, fixed_params=fixed, render_config=CFG)
        return [dict(b.theta) for b in res.branches]

    thetas = initial_thetas(7)
    assert len(thetas) == len(CATALOG["osc"].categorical[0].choices) * 2
    for index, theta in enumerate(thetas):
        combo_index, restart = divmod(index, 2)
        rng = np.random.default_rng(np.random.SeedSequence(7, spawn_key=(combo_index, restart)))
        expected = {(A00, p.name): float(rng.uniform(-2.0, 2.0)) for p in CATALOG["osc"].continuous}
        assert theta == expected
    assert initial_thetas(8) != thetas


@pytest.mark.parametrize("beta_schedule", [((0, 1.0),), ((0, 1.0), (3, 1.0))])
def test_all_parameters_fixed_returns_the_fixed_assignment(beta_schedule):
    fixed = {**AMP_FIXED, (A00, "amp"): 0.5}
    opt = OptimizerConfig(
        steps=4, learning_rate=0.1, restarts=3, seed=0, beta_schedule=beta_schedule
    )
    res = match(sine_target(), OSC_CHAIN, SPECTRAL_L2, opt, fixed_params=fixed, render_config=CFG)
    assert [b.restart for b in res.branches] == [0, 1, 2]
    for branch in res.branches:
        assert branch.theta == ()
        assert branch.trajectory == (branch.trajectory[0],) * 4
        assert branch.final_loss == branch.trajectory[0]
    assert res.best.values == {A00: {"amp": 0.5, "freq": 440.0, "waveform": "sine", "active": "on"}}


BASIC_CHAIN = parse_chain_file((Path(__file__).parents[1] / "chains" / "basic.chain").read_text())

SHORT = RenderConfig(duration=0.02)  # 320 samples, above the 101-tap low-pass

WAVEFORMS = st.sampled_from(
    next(p for p in CATALOG["osc"].categorical if p.name == "waveform").choices
)


@given(
    target_index=st.integers(0, 10_000),
    seed=st.integers(0, 2**31 - 1),
    learning_rate=st.floats(1e-3, 50.0),
    waveforms=st.tuples(WAVEFORMS, WAVEFORMS),
)
@settings(max_examples=20, deadline=None)
def test_match_returns_parameters_inside_their_ranges(target_index, seed, learning_rate, waveforms):
    target = generate_signal(
        BASIC_CHAIN, sample_assignment(BASIC_CHAIN, record_rng(0, target_index), SHORT), SHORT
    ).output
    fixed = {(address, "waveform"): w for address, w in zip((A00, A10), waveforms)}
    opt = OptimizerConfig(steps=2, learning_rate=learning_rate, restarts=1, seed=seed)
    loss_cfg = LossConfig(cells="output", windows=(256,))
    res = match(target, BASIC_CHAIN, loss_cfg, opt, fixed_params=fixed, render_config=SHORT)
    for (address, name), p in BASIC_CHAIN.params.items():
        if isinstance(p, ContinuousParam):
            low, high = resolve_range(p, SHORT)
            assert low <= res.best.params[address, name] <= high, f"{address}.{name}"
    (adsr,) = [a for a, kind in BASIC_CHAIN.module_cells.items() if kind == "adsr"]
    # a saturated gate can round the sum one ulp past the duration, which
    # the envelope's own 1e-12 budget check accepts
    segments = [res.best.params[adsr, n] for n in ("attack", "decay", "release")]
    assert sum(segments) <= SHORT.duration + 1e-12


# -- configuration errors ---------------------------------------------------


def test_unsupervised_requires_positive_beta():
    target = sine_target()
    opt = OptimizerConfig(
        steps=10, learning_rate=0.1, beta_schedule=((0, 0.0),), restarts=1, seed=0
    )
    cfg = LossConfig(cells="output", windows=(1024,))
    with pytest.raises(MatcherConfigError):
        match(target, OSC_CHAIN, cfg, opt, fixed_params=AMP_FIXED, render_config=CFG)


def test_unsupervised_rejects_schedule_touching_zero():
    target = sine_target()
    opt = OptimizerConfig(
        steps=10, learning_rate=0.1, restarts=1, seed=0, beta_schedule=((0, 0.0), (5, 1.0))
    )
    with pytest.raises(MatcherConfigError):
        match(target, OSC_CHAIN, SPECTRAL_L2, opt, fixed_params=AMP_FIXED, render_config=CFG)


def test_match_requires_output_cells():
    target = sine_target()
    opt = OptimizerConfig(steps=10, learning_rate=0.1, restarts=1, seed=0)
    cfg = LossConfig(cells="all", windows=(1024,))
    with pytest.raises(MatcherConfigError):
        match(target, OSC_CHAIN, cfg, opt, fixed_params=AMP_FIXED, render_config=CFG)


def test_an_invalid_chain_never_reaches_match(monkeypatch):
    calls = _count_renders(monkeypatch)
    opt = OptimizerConfig(steps=2, learning_rate=0.1, restarts=1, seed=0)
    with pytest.raises(ChainValidationError, match="adsr"):
        # an envelope needs one input
        match(sine_target(), ChainSpec("bad", (Cell(A00, "adsr"),), ()), SPECTRAL_L2, opt,
              render_config=CFG)
    assert calls == []


def test_match_names_every_fixed_param_that_names_no_parameter(monkeypatch):
    # a cell the chain does not have, and a misspelt parameter name
    calls = _count_renders(monkeypatch)
    opt = OptimizerConfig(steps=2, learning_rate=0.1, restarts=1, seed=0)
    fixed = {**AMP_FIXED, (CellAddress(5, 5), "freq"): 100.0, (A00, "frequency"): 100.0}
    with pytest.raises(MatcherConfigError) as err:
        match(sine_target(), OSC_CHAIN, SPECTRAL_L2, opt, fixed_params=fixed, render_config=CFG)
    assert str(err.value) == (
        "fixed_params name no parameter of chain 'single': (0,0).frequency, (5,5).freq"
    )
    assert calls == []


def test_match_rejects_length_mismatch():
    target = sine_target()
    opt = OptimizerConfig(steps=10, learning_rate=0.1, restarts=1, seed=0)
    with pytest.raises(MatcherConfigError):
        match(
            target,
            OSC_CHAIN,
            SPECTRAL_L2,
            opt,
            fixed_params=AMP_FIXED,
            render_config=RenderConfig(duration=0.5),
        )


def test_match_rejects_sample_rate_mismatch():
    # 4000 samples: 0.25 s at 16 kHz, 0.5 s at 8 kHz
    target = sine_target()
    opt = OptimizerConfig(steps=10, learning_rate=0.1, restarts=1, seed=0)
    with pytest.raises(MatcherConfigError, match="target sample rate 16000 != render rate 8000"):
        match(
            target,
            OSC_CHAIN,
            SPECTRAL_L2,
            opt,
            fixed_params=AMP_FIXED,
            render_config=RenderConfig(sample_rate=8000, duration=0.5),
        )


@pytest.mark.parametrize("algorithm", ["adam", "sgd"])
def test_an_overflowing_update_marks_the_branch_diverged(algorithm):
    # lr = 1e308 sends theta past the float range on the first update; the
    # silent combinations record no tape node, so their theta never moves
    cfg = RenderConfig(duration=0.05)
    target = generate_signal(
        OSC_CHAIN,
        from_cells({A00: {"amp": 0.63, "freq": 440.0, "waveform": "sine", "active": "on"}}),
        cfg,
    ).output
    opt = OptimizerConfig(steps=4, learning_rate=1e308, restarts=1, seed=0, algorithm=algorithm)
    loss_cfg = LossConfig(cells="output", windows=(256, 512))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the overflow itself is not reported
        res = match(target, OSC_CHAIN, loss_cfg, opt, render_config=cfg)
    assert res.diverged_branches == (0, 2, 4)
    for i, branch in enumerate(res.branches):
        active = dict(branch.combo)[(A00, "active")]
        assert active == ("on" if i in (0, 2, 4) else "off")
        if branch.diverged:
            assert len(branch.trajectory) == 1 and math.isnan(branch.final_loss)
        else:
            assert branch.trajectory == (branch.final_loss,) * 4
    assert res.best.params[A00, "active"] == "off"
    assert res.final_loss == res.branches[1].final_loss


def test_all_branches_diverging_raises():
    target = sine_target()
    bad_target_params = from_cells(
        {A00: {"amp": float("nan"), "freq": 440.0, "waveform": "sine", "active": "on"}}
    )
    opt = OptimizerConfig(
        steps=10, learning_rate=0.1, beta_schedule=((0, 0.0),), restarts=2, seed=0
    )
    cfg = LossConfig(cells="output", windows=(1024,))
    with pytest.raises(MatcherConfigError, match="diverged"):
        match(
            target,
            OSC_CHAIN,
            cfg,
            opt,
            target_params=bad_target_params,
            fixed_params=AMP_FIXED,
            render_config=CFG,
        )


# -- recorded trajectories --------------------------------------------------
#
# Every branch of two small matches, recorded from the implementation that
# framed the STFT with a separate gather, window product and transpose,
# wrapped the saw phase with np.mod, and rendered every step of a branch
# whose loss could not move.  Adam amplifies a change in the last bit of a
# gradient to O(1) within a few steps, so an optimisation of the taped step
# that is not bit-identical fails here.

MATCH_GOLDEN = Path(__file__).parent / "data" / "match_golden.json"


def _key_text(key):
    address, name = key
    return f"{address.channel},{address.layer}:{name}"


def _golden_cases():
    target = generate_signal(FULL_CHAIN, FULL_TARGET, CFG).output
    # both active switches free: four combinations, one of them silent
    waveforms_fixed = {(A00, "waveform"): "saw", (A10, "waveform"): "square"}
    unsupervised = match(
        target,
        FULL_CHAIN,
        LossConfig(cells="output", windows=(512, 1024)),
        OptimizerConfig(steps=6, learning_rate=0.05, restarts=2, seed=11),
        fixed_params=waveforms_fixed,
        render_config=CFG,
    )
    supervised = match(
        target,
        FULL_CHAIN,
        LossConfig(cells="output", windows=(512, 1024), norm_p=2, regression_kind="L2"),
        OptimizerConfig(
            steps=6, learning_rate=0.05, restarts=2, seed=12, beta_schedule=((1, 0.0), (4, 0.5))
        ),
        target_params=FULL_TARGET,
        fixed_params=FULL_CATEGORICALS,
        render_config=CFG,
    )
    return {"unsupervised": unsupervised, "supervised": supervised}


def _golden_record(result):
    return {
        "branches": [
            {
                "combo": [[_key_text(k), label] for k, label in b.combo],
                "restart": b.restart,
                "trajectory": list(b.trajectory),
                "final_loss": b.final_loss,
                "diverged": b.diverged,
                "theta": [[_key_text(k), value] for k, value in b.theta],
            }
            for b in result.branches
        ],
        "final_spectral": result.final_spectral,
        "final_lsd": result.final_lsd,
    }


def test_match_branches_equal_recorded_values():
    recorded = json.loads(MATCH_GOLDEN.read_text())
    got = {name: _golden_record(r) for name, r in _golden_cases().items()}
    assert set(got) == set(recorded)
    for name, want in recorded.items():
        assert len(got[name]["branches"]) == len(want["branches"])
        for i, (g, w) in enumerate(zip(got[name]["branches"], want["branches"])):
            assert g == w, f"{name} branch {i}"
        assert got[name]["final_spectral"] == want["final_spectral"], name
        assert got[name]["final_lsd"] == want["final_lsd"], name
