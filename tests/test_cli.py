import importlib
import json
import logging
import pkgutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from typing import Optional

import numpy as np
import pytest
from scipy.io import wavfile

import gradsynth
from gradsynth.audio import AudioIOError, RenderConfig, read_wav
from gradsynth.autodiff import AutodiffError, Tape
from gradsynth.chains import CellAddress, generate_signal, parse_chain_file
from gradsynth import chains, cli, losses
from gradsynth.cli import (
    CONFIG_FIELDS,
    GRADCHECK_REL_STEPS,
    SINGLE_WINDOW_LOSS,
    ConfigError,
    RunConfig,
    _gradcheck_assignment,
    _parser_for,
    load_run_config,
    main,
)
from gradsynth.datasets import assignment_payload, sample_assignment
from gradsynth.experiments import export_csv, loss_surface_sweep
from gradsynth.losses import LossConfig
from gradsynth.matching import match
from gradsynth.modules import CATALOG, apply_lowpass, from_unit
from assignments import from_cells

REPO = Path(__file__).resolve().parents[1]

BASIC = """chain basic
cell 0 0 osc
cell 1 0 osc
cell 0 1 mix
cell 0 2 adsr
cell 0 3 lowpass
connect 0,0 -> 0,1
connect 1,0 -> 0,1
connect 0,1 -> 0,2
connect 0,2 -> 0,3
"""

OSC = "chain o\ncell 0 0 osc\n"


@pytest.fixture
def basic_chain(tmp_path):
    path = tmp_path / "basic.chain"
    path.write_text(BASIC)
    return path


@pytest.fixture
def osc_chain(tmp_path):
    path = tmp_path / "osc.chain"
    path.write_text(OSC)
    return path


# -- config files ---------------------------------------------------------------


# every config key set to a value other than its default
NON_DEFAULT_CONFIG = {
    "loss.cells": ("output", "output"),
    "loss.windows": ("256, 2048", (256, 2048)),
    "loss.processings": ("identity,cumsum_freq", ("identity", "cumsum_freq")),
    "loss.norm_p": ("2", 2),
    "loss.transform": ("mel", "mel"),
    "loss.regression_kind": ("L2", "L2"),
    "loss.cumsum_normalize": ("true", True),
    "loss.n_mels": ("64", 64),
    "optimizer.steps": ("42", 42),
    "optimizer.learning_rate": ("0.01", 0.01),
    "optimizer.algorithm": ("sgd", "sgd"),
    "optimizer.beta_schedule": ("0:0.0,20:1.0", ((0, 0.0), (20, 1.0))),
    "optimizer.restarts": ("3", 3),
    "optimizer.seed": ("11", 11),
    "optimizer.jobs": ("2", 2),
    "paths.out_dir": ("results", "results"),
}


def _field(run, key):
    section, name = key.split(".")
    return getattr(getattr(run, section), name)


def test_config_round_trip(tmp_path):
    assert set(NON_DEFAULT_CONFIG) == set(CONFIG_FIELDS)
    path = tmp_path / "run.cfg"
    lines = [f"{key} = {text}" for key, (text, _) in NON_DEFAULT_CONFIG.items()]
    path.write_text("# full config\n" + "\n".join(lines) + "\n")
    run = load_run_config(path)
    for key, (_, expected) in NON_DEFAULT_CONFIG.items():
        assert _field(run, key) == expected, key
        assert _field(run, key) != _field(RunConfig(), key), key
    assert run.paths.out_dir == "results"


@pytest.mark.parametrize("hint", [Optional[int], dict[str, int], tuple[int, str]])
def test_config_field_type_without_parser_is_rejected(hint):
    with pytest.raises(TypeError, match="no config-file parser"):
        _parser_for(hint)


def _readme_config_block() -> str:
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Run configuration files", 1)[1]
    return section.split("```", 2)[1]


def test_readme_config_block_names_every_key_once_and_loads(tmp_path):
    block = _readme_config_block()
    keys = [
        line.split("#", 1)[0].split("=", 1)[0].strip()
        for line in block.splitlines()
        if line.split("#", 1)[0].strip()
    ]
    assert sorted(keys) == sorted(CONFIG_FIELDS)
    path = tmp_path / "readme.cfg"
    path.write_text(block)
    assert load_run_config(path) != RunConfig()


def test_shipped_match_config_loads():
    run = load_run_config(REPO / "configs" / "match.cfg")
    assert run.loss.cells == "output"
    assert run.paths.out_dir == "results"


def test_config_defaults_when_empty(tmp_path):
    path = tmp_path / "empty.cfg"
    path.write_text("# nothing here\n")
    assert load_run_config(path) == RunConfig()


@pytest.mark.parametrize(
    "line, fragment",
    [
        ("loss.window = 1024", "unknown config key"),
        ("norm_p = 1", "unknown config key"),
        ("loss.norm_p = three", "loss.norm_p"),
        ("loss.cells = 0,0", "'all' or 'output'"),
        ("loss.cumsum_normalize = maybe", "true or false"),
        ("optimizer.beta_schedule = 5", "step:beta"),
        ("just some words", "key = value"),
    ],
)
def test_config_parse_errors_name_the_line(tmp_path, line, fragment):
    path = tmp_path / "bad.cfg"
    path.write_text("optimizer.beta_schedule = 0:1.0\n" + line + "\n")
    with pytest.raises(ConfigError, match="line 2") as err:
        load_run_config(path)
    assert fragment in str(err.value)


def test_config_field_validation_errors(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("optimizer.steps = -5\n")
    with pytest.raises(ConfigError, match="steps"):
        load_run_config(path)
    path.write_text("loss.norm_p = 3\n")
    with pytest.raises(ConfigError, match="norm_p"):
        load_run_config(path)
    for line in [
        "optimizer.learning_rate = nan",
        "optimizer.learning_rate = inf",
        "optimizer.beta_schedule = 0:nan",
        "optimizer.beta_schedule = 0:inf",
        "optimizer.beta_schedule = 0:0.0,10:nan",
        "paths.scratch = tmp",
    ]:
        key = line.split(" = ")[0]
        path.write_text("# a range error names its line and key\n" + line + "\n")
        with pytest.raises(ConfigError, match=f"line 2: .*{key}"):
            load_run_config(path)


# -- render ---------------------------------------------------------------------


def test_render_random_seed_deterministic(tmp_path, basic_chain):
    argv = ["-q", "render", str(basic_chain), "--random", "--seed", "7", "--duration", "0.25"]
    assert main(argv + ["--out", str(tmp_path / "a.wav")]) == 0
    assert main(argv + ["--out", str(tmp_path / "b.wav")]) == 0
    assert (tmp_path / "a.wav").read_bytes() == (tmp_path / "b.wav").read_bytes()


def test_render_non_finite_duration_exits_2(tmp_path, osc_chain, caplog):
    for duration in ["inf", "nan"]:
        argv = ["render", str(osc_chain), "--random", "--duration", duration,
                "--out", str(tmp_path / "x.wav")]
        assert main(argv) == 2
        assert "duration must be finite" in caplog.text
    assert not (tmp_path / "x.wav").exists()


def test_render_shorter_than_lowpass_kernel_exits_2(tmp_path, basic_chain, caplog):
    # 1 ms at 16 kHz is 16 samples, under the 101-tap low-pass kernel
    argv = ["render", str(basic_chain), "--random", "--duration", "1e-3",
            "--out", str(tmp_path / "x.wav")]
    assert main(argv) == 2
    (record,) = [r for r in caplog.records if r.levelno >= logging.ERROR]
    message = record.getMessage()
    assert "\n" not in message
    assert "16-sample" in message and "101-tap" in message
    assert not (tmp_path / "x.wav").exists()


def test_render_from_params_file(tmp_path, osc_chain):
    params = {"params": {"0,0": {"amp": 0.5, "freq": 330.0, "waveform": "saw", "active": "on"}}}
    (tmp_path / "p.json").write_text(json.dumps(params))
    out = tmp_path / "out.wav"
    assert main(
        ["-q", "render", str(osc_chain), "--params", str(tmp_path / "p.json"),
         "--out", str(out), "--duration", "0.25"]
    ) == 0
    expected = generate_signal(
        parse_chain_file(OSC),
        from_cells({CellAddress(0, 0): params["params"]["0,0"]}),
        RenderConfig(duration=0.25),
    ).output
    written = read_wav(out)
    assert np.array_equal(written.values, expected.values.astype(np.float32))


def test_render_trace_writes_cell_wavs(tmp_path, basic_chain):
    assert main(
        ["-q", "render", str(basic_chain), "--random", "--seed", "1", "--trace",
         "--out", str(tmp_path / "mix.wav"), "--duration", "0.125"]
    ) == 0
    names = sorted(p.name for p in tmp_path.glob("cell_*.wav"))
    assert names == [
        "cell_0_0.wav", "cell_0_1.wav", "cell_0_2.wav", "cell_0_3.wav", "cell_1_0.wav"
    ]


def test_invalid_chain_exits_2_with_line_number(tmp_path, caplog):
    bad = tmp_path / "bad.chain"
    bad.write_text("chain x\ncell 0 0 osc\ncell 0 0 osc\n")
    with caplog.at_level(logging.ERROR):
        code = main(["render", str(bad), "--random", "--out", str(tmp_path / "x.wav")])
    assert code == 2
    assert any("line 3" in record.message for record in caplog.records)


def test_structurally_invalid_chain_exits_2(tmp_path, caplog):
    bad = tmp_path / "bad.chain"
    bad.write_text("chain a\ncell 0 0 lowpass\n")
    out = tmp_path / "x.wav"
    assert main(["render", str(bad), "--random", "--out", str(out)]) == 2
    assert "lowpass cell (0,0) requires exactly 1 input(s), got 0" in caplog.text
    assert not out.exists()


def test_missing_chain_file_exits_2(tmp_path):
    assert main(["-q", "render", str(tmp_path / "nope.chain"), "--random",
                 "--out", str(tmp_path / "x.wav")]) == 2


# -- dataset --------------------------------------------------------------------


def test_dataset_command(tmp_path, basic_chain):
    out = tmp_path / "ds"
    assert main(
        ["-q", "dataset", str(basic_chain), "--n", "4", "--seed", "5",
         "--out", str(out), "--duration", "0.125"]
    ) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "000000.wav", "000001.wav", "000002.wav", "000003.wav", "chain.txt", "metadata.jsonl"
    ]
    record = json.loads((out / "metadata.jsonl").read_text().splitlines()[2])
    assert record["wav"] == "000002.wav"


def test_dataset_metadata_line_works_as_params_file(tmp_path, basic_chain):
    out = tmp_path / "ds"
    assert main(
        ["-q", "dataset", str(basic_chain), "--n", "2", "--seed", "9",
         "--out", str(out), "--duration", "0.125"]
    ) == 0
    line = (out / "metadata.jsonl").read_text().splitlines()[1]
    (tmp_path / "p.json").write_text(line)
    assert main(
        ["-q", "render", str(basic_chain), "--params", str(tmp_path / "p.json"),
         "--out", str(tmp_path / "re.wav"), "--duration", "0.125"]
    ) == 0
    assert (tmp_path / "re.wav").read_bytes() == (out / "000001.wav").read_bytes()


@pytest.mark.parametrize("n", ["2", "8"])
def test_dataset_shorter_than_lowpass_kernel_exits_2_before_writing(tmp_path, caplog, n):
    # 1 ms at 16 kHz is 16 samples; records whose oscillators are both off
    # never reach the low-pass, so only a check before the first record
    # makes the outcome independent of the draw
    out = tmp_path / "ds"
    argv = ["dataset", str(REPO / "chains" / "basic.chain"), "--n", n, "--seed", "0",
            "--duration", "0.001", "--out", str(out)]
    assert main(argv) == 2
    assert "16-sample" in caplog.text and "101-tap" in caplog.text
    assert not out.exists()


def test_dataset_nonpositive_jobs_exit_2(tmp_path, basic_chain):
    out = tmp_path / "ds"
    assert main(
        ["-q", "dataset", str(basic_chain), "--n", "2", "--seed", "9",
         "--out", str(out), "--duration", "0.125", "--jobs", "0"]
    ) == 2
    assert not out.exists()


# -- sweep ----------------------------------------------------------------------


def test_sweep_command_writes_csv(tmp_path, osc_chain):
    out = tmp_path / "sweep.csv"
    argv = ["-q", "sweep", str(osc_chain), "--param", "0,0.amp", "--points", "11",
            "--random", "--seed", "3", "--out", str(out), "--duration", "0.25"]
    assert main(argv) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 12
    assert lines[0] == "param_value,loss"
    assert main(argv) == 0  # determinism: same bytes on re-run
    assert out.read_text().splitlines() == lines


FILTERED = OSC + "cell 0 1 lowpass\nconnect 0,0 -> 0,1\n"


def test_sweep_takes_its_loss_from_config(tmp_path):
    chain_path = tmp_path / "filtered.chain"
    chain_path.write_text(FILTERED)
    params = {"0,0": {"amp": 0.7, "freq": 440.0, "waveform": "saw", "active": "on"},
              "0,1": {"cutoff": 1000.0}}
    (tmp_path / "p.json").write_text(json.dumps({"params": params}))
    sweep = ["-q", "sweep", str(chain_path), "--param", "0,0.freq", "--points", "5",
             "--params", str(tmp_path / "p.json"), "--duration", "0.25"]
    csv = {}
    for cells in ("all", "output"):
        cfg = tmp_path / f"{cells}.cfg"
        cfg.write_text(f"loss.cells = {cells}\nloss.windows = 256\n")
        csv[cells] = tmp_path / f"{cells}.csv"
        assert main(sweep + ["--config", str(cfg), "--out", str(csv[cells])]) == 0

    chain = parse_chain_file(FILTERED)
    render_config = RenderConfig(duration=0.25)
    target = from_cells(
        {CellAddress(0, 0): params["0,0"], CellAddress(0, 1): params["0,1"]}
    )
    spec = next(p for p in CATALOG["osc"].continuous if p.name == "freq")
    grid = from_unit(spec, np.linspace(0.0, 1.0, 5), render_config)
    expected = loss_surface_sweep(
        chain, target, (CellAddress(0, 0), "freq"), grid,
        LossConfig(cells="all", windows=(256,)), render_config,
    )
    assert max(expected.losses) > 0.0
    export_csv(expected, tmp_path / "expected.csv")
    assert csv["all"].read_bytes() == (tmp_path / "expected.csv").read_bytes()
    assert csv["all"].read_bytes() != csv["output"].read_bytes()


def test_sweep_log_scale_for_frequency(tmp_path, osc_chain):
    out = tmp_path / "sweep.csv"
    assert main(
        ["-q", "sweep", str(osc_chain), "--param", "0,0.freq", "--points", "5",
         "--low", "100", "--high", "1600", "--random", "--seed", "3",
         "--out", str(out), "--duration", "0.25"]
    ) == 0
    values = [float(line.split(",")[0]) for line in out.read_text().splitlines()[1:]]
    ratios = [b / a for a, b in zip(values, values[1:])]
    assert all(r == pytest.approx(2.0) for r in ratios)


@pytest.mark.parametrize("param, high", [("0,0.freq", 20000.0), ("0,3.cutoff", 8000.0)])
def test_sweep_log_grid_stays_in_the_catalog_range(tmp_path, basic_chain, param, high):
    # exp(log(20.0)) is 19.999999999999996: an unclamped grid starts
    # below the range, which the low-pass rejects
    out = tmp_path / "sweep.csv"
    assert main(
        ["-q", "sweep", str(basic_chain), "--param", param, "--points", "2",
         "--random", "--out", str(out), "--duration", "0.25"]
    ) == 0
    first, last = (line.split(",")[0] for line in out.read_text().splitlines()[1:])
    assert first == "20.0"
    assert high * 0.999 < float(last) <= high


SWEEP_ATTACK = ["-q", "sweep", str(REPO / "chains" / "basic.chain"), "--param", "0,2.attack",
                "--points", "7", "--random", "--seed", "3", "--duration", "0.25"]


def test_sweep_of_an_envelope_segment_ends_at_the_remaining_budget(tmp_path):
    # the target's decay and release take their share of the 0.25 s first
    target = sample_assignment(
        parse_chain_file((REPO / "chains" / "basic.chain").read_text()),
        np.random.default_rng(3),
        RenderConfig(duration=0.25),
    )
    adsr = CellAddress(0, 2)
    budget = 0.25 - (target.params[adsr, "decay"] + target.params[adsr, "release"])
    assert 0.0 < budget < 0.25
    out = tmp_path / "sweep.csv"
    assert main(SWEEP_ATTACK + ["--out", str(out)]) == 0
    values = [float(line.split(",")[0]) for line in out.read_text().splitlines()[1:]]
    assert len(values) == 7
    assert values[0] == 0.0 and values[-1] == budget


def test_sweep_rejects_a_high_past_the_remaining_budget(tmp_path, caplog):
    target = sample_assignment(
        parse_chain_file((REPO / "chains" / "basic.chain").read_text()),
        np.random.default_rng(3),
        RenderConfig(duration=0.25),
    )
    adsr = CellAddress(0, 2)
    budget = 0.25 - (target.params[adsr, "decay"] + target.params[adsr, "release"])
    assert budget < 0.25
    out = tmp_path / "sweep.csv"
    assert main(SWEEP_ATTACK + ["--high", "0.25", "--out", str(out)]) == 2
    assert f"--high 0.25 exceeds the {budget} s" in caplog.text
    assert "decay+release leave of the 0.25 s duration" in caplog.text
    assert not out.exists()


@pytest.mark.parametrize("points", ["0", "-1"])
def test_sweep_rejects_fewer_than_one_point(tmp_path, osc_chain, caplog, points):
    out = tmp_path / "s.csv"
    assert main(
        ["-q", "sweep", str(osc_chain), "--param", "0,0.amp", "--points", points,
         "--random", "--out", str(out)]
    ) == 2
    assert f"--points must be >= 1, got {points}" in caplog.text
    assert not out.exists()


def test_sweep_log_scale_needs_a_positive_low(tmp_path, osc_chain, caplog):
    out = tmp_path / "s.csv"
    assert main(
        ["-q", "sweep", str(osc_chain), "--param", "0,0.freq", "--points", "3",
         "--low", "0", "--random", "--out", str(out)]
    ) == 2
    assert "freq is log-scaled; need low > 0, got 0.0" in caplog.text
    assert not out.exists()


@pytest.mark.parametrize(
    "param",
    ["0,0.zzz", "garbage", "9,9.amp", "0,0.waveform"],
)
def test_sweep_rejects_bad_param(tmp_path, osc_chain, param):
    assert main(
        ["-q", "sweep", str(osc_chain), "--param", param, "--points", "3",
         "--random", "--out", str(tmp_path / "s.csv")]
    ) == 2


@pytest.mark.parametrize(
    "param, message",
    [
        ("a,0.freq", "malformed address 'a,0'; channel and layer must be integers"),
        ("0,0,1.freq", "malformed address '0,0,1'; expected <ch>,<ly>"),
        ("0.freq", "malformed address '0'; expected <ch>,<ly>"),
        ("0,-1.freq", "malformed address '0,-1'; indices must be >= 0"),
    ],
)
def test_sweep_reports_a_malformed_param_address_as_the_chain_grammar_does(
    tmp_path, osc_chain, caplog, param, message
):
    assert main(
        ["-q", "sweep", str(osc_chain), "--param", param, "--points", "3",
         "--random", "--out", str(tmp_path / "s.csv")]
    ) == 2
    assert message in caplog.text


def test_sweep_reports_a_malformed_params_key_as_the_chain_grammar_does(
    tmp_path, osc_chain, caplog
):
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"params": {"0;0": {}}}))
    assert main(
        ["-q", "sweep", str(osc_chain), "--param", "0,0.freq", "--points", "3",
         "--params", str(params), "--out", str(tmp_path / "s.csv")]
    ) == 2
    assert "malformed address '0;0'; expected <ch>,<ly>" in caplog.text


def test_sweep_rejects_an_empty_cell(tmp_path, caplog):
    chain = tmp_path / "gap.chain"
    chain.write_text(OSC + "cell 1 0 empty\n")
    assert main(
        ["-q", "sweep", str(chain), "--param", "1,0.freq", "--points", "3",
         "--random", "--out", str(tmp_path / "s.csv")]
    ) == 2
    assert "(1,0).freq is not a continuous parameter" in caplog.text
    assert not (tmp_path / "s.csv").exists()


# -- bench ----------------------------------------------------------------------


def test_bench_command_single_row(tmp_path):
    out = tmp_path / "bench.csv"
    assert main(
        ["-q", "bench", "--waveform", "square", "--distance", "300",
         "--processing", "cumsum-time", "--trials", "12", "--seed", "1",
         "--out", str(out)]
    ) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 2
    assert lines[0] == "waveform,transform,processing,distance,trials,accuracy"
    waveform, transform, processing, distance, trials, accuracy = lines[1].split(",")
    assert (waveform, transform, processing, distance, trials) == (
        "square", "spectrogram", "cumsum_time", "300", "12"
    )
    assert 0.0 <= float(accuracy) <= 1.0


def test_bench_epsilon_distance(tmp_path):
    out = tmp_path / "bench.csv"
    assert main(
        ["-q", "bench", "--waveform", "saw", "--distance", "epsilon",
         "--transform", "mel", "--processing", "identity", "--trials", "8",
         "--out", str(out)]
    ) == 0
    assert out.read_text().splitlines()[1].startswith("saw,mel,identity,epsilon,8,")


def test_bench_bad_inputs_exit_2(tmp_path):
    assert main(["-q", "bench", "--waveform", "square", "--distance", "wide",
                 "--processing", "identity", "--out", str(tmp_path / "b.csv")]) == 2
    assert main(["-q", "bench", "--waveform", "square", "--distance", "300",
                 "--processing", "mystery", "--out", str(tmp_path / "b.csv")]) == 2
    assert main(["-q", "bench", "--waveform", "square", "--distance", "300",
                 "--processing", "identity", "--jobs", "-2",
                 "--out", str(tmp_path / "b.csv")]) == 2
    for distance in ("nan", "inf"):
        assert main(["-q", "bench", "--waveform", "square", "--distance", distance,
                     "--processing", "identity", "--out", str(tmp_path / "b.csv")]) == 2
    assert not (tmp_path / "b.csv").exists()


# -- gradcheck ------------------------------------------------------------------


def test_gradcheck_passes_and_prints_table(tmp_path, basic_chain, capsys):
    code = main(["-q", "gradcheck", "--chain", str(basic_chain), "--seed", "0",
                 "--duration", "0.25"])
    out = capsys.readouterr().out
    assert code == 0
    for key in ["0,0.amp", "0,0.freq", "0,2.attack", "0,2.sustain", "0,3.cutoff"]:
        assert key in out
    assert "worst:" in out


def test_gradcheck_passes_at_a_sharply_curved_carrier(capsys):
    # a step of 1e-6 of the 18.3 kHz carrier's value reads 1.03e-2 here;
    # the smaller steps GRADCHECK_REL_STEPS adds find the slope
    code = main(["-q", "gradcheck", "--chain", str(REPO / "chains" / "basic.chain"),
                 "--seed", "7", "--duration", "0.25"])
    out = capsys.readouterr().out
    assert "18317.3" in next(line for line in out.splitlines() if line.startswith("0,0.freq"))
    assert code == 0


def test_gradcheck_takes_the_target_spectra_once(monkeypatch, basic_chain):
    render_config = RenderConfig(duration=0.25)
    chain = parse_chain_file(BASIC)
    target = generate_signal(chain, _gradcheck_assignment(chain, 0, render_config), render_config)
    original = losses.stft_magnitude
    target_calls = []

    def counting(signal, window_size, **kwargs):
        if np.array_equal(signal.values, target.output.values):
            target_calls.append(window_size)
        return original(signal, window_size, **kwargs)

    monkeypatch.setattr(losses, "stft_magnitude", counting)
    assert main(["-q", "gradcheck", "--chain", str(basic_chain), "--seed", "0",
                 "--duration", "0.25"]) == 0
    # one per window of the check's loss, however many parameters and steps
    assert target_calls == list(SINGLE_WINDOW_LOSS.windows)


def test_gradcheck_tiny_tolerance_fails(tmp_path, basic_chain):
    assert main(["-q", "gradcheck", "--chain", str(basic_chain), "--seed", "0",
                 "--duration", "0.25", "--tolerance", "1e-14"]) == 1


@pytest.mark.parametrize("tolerance", ["nan", "inf", "-1"])
def test_gradcheck_rejects_a_tolerance_that_cannot_fail(basic_chain, tolerance, caplog, capsys):
    # no gradient error exceeds nan or inf, and none is below -1
    assert main(["-q", "gradcheck", "--chain", str(basic_chain), "--seed", "0",
                 "--duration", "0.25", "--tolerance", tolerance]) == 2
    assert "--tolerance" in caplog.text
    assert "worst:" not in capsys.readouterr().out


def test_gradcheck_makes_one_taped_pass(monkeypatch):
    original = Tape.backward
    calls = []

    def counting(self, loss):
        calls.append(loss)
        return original(self, loss)

    monkeypatch.setattr(Tape, "backward", counting)
    assert main(["-q", "gradcheck", "--chain", str(REPO / "chains" / "basic.chain"),
                 "--seed", "0", "--duration", "0.25"]) == 0
    # one taped evaluation gives every parameter's gradient, whatever the steps
    assert len(calls) == 1


def test_gradcheck_rescales_envelope_segments_that_fill_the_duration(monkeypatch, capsys):
    # about 1 sampled envelope in 11,000 sums to within the slack of the
    # duration; the rescale keeps the finite-difference steps inside
    # apply_adsr's check
    render_config = RenderConfig(duration=0.25)
    adsr = CellAddress(0, 2)
    segments = {(adsr, "attack"): 0.125, (adsr, "decay"): 0.0625, (adsr, "release"): 0.0625}

    def filling(chain, rng, config):  # segments that sum to exactly 0.25
        assignment = sample_assignment(chain, rng, config)
        return replace(assignment, params={**assignment.params, **segments})

    monkeypatch.setattr(cli, "sample_assignment", filling)
    chain = parse_chain_file(BASIC)
    margined = _gradcheck_assignment(chain, 0, render_config).params
    slack = 10 * GRADCHECK_REL_STEPS[0] * render_config.duration * len(segments)
    assert 0.25 - 2 * slack < sum(margined[key] for key in segments) <= 0.25 - slack
    code = main(["-q", "gradcheck", "--chain", str(REPO / "chains" / "basic.chain"),
                 "--seed", "0", "--duration", "0.25"])
    assert code != 2, "a finite-difference step left apply_adsr's range"
    assert "0,2.release" in capsys.readouterr().out


# fm.chain's table recorded before finite_difference_check took the step search
# over from cmd_gradcheck; basic.chain's since the sampler draws the envelope once
GRADCHECK_GOLDEN = json.loads((REPO / "tests" / "data" / "gradcheck_golden.json").read_text())


@pytest.mark.parametrize("args", sorted(GRADCHECK_GOLDEN))
def test_gradcheck_table_matches_golden(args, capsys):
    chain, *rest = args.split()
    assert main(["-q", "gradcheck", "--chain", str(REPO / chain), *rest]) == 0
    assert capsys.readouterr().out == GRADCHECK_GOLDEN[args]


# -- match ----------------------------------------------------------------------


def test_match_command_writes_results(tmp_path, osc_chain):
    params = {"params": {"0,0": {"amp": 0.7, "freq": 440.0, "waveform": "sine", "active": "on"}}}
    (tmp_path / "t.json").write_text(json.dumps(params))
    assert main(["-q", "render", str(osc_chain), "--params", str(tmp_path / "t.json"),
                 "--out", str(tmp_path / "target.wav"), "--duration", "0.25"]) == 0
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "loss.cells = output\nloss.windows = 1024\noptimizer.steps = 40\n"
        "optimizer.restarts = 1\noptimizer.seed = 2\n"
    )
    out_dir = tmp_path / "res"
    assert main(["-q", "match", str(tmp_path / "target.wav"), str(osc_chain),
                 "--config", str(cfg), "--out-dir", str(out_dir)]) == 0
    report = json.loads((out_dir / "result.json").read_text())
    assert set(report) >= {"best", "final_loss", "final_lsd", "wall_time", "branches"}
    assert (out_dir / "match.wav").exists()
    rendered = read_wav(out_dir / "match.wav")
    assert len(rendered) == 4000


def test_match_out_dir_from_config_unless_flag_given(tmp_path, osc_chain):
    params = {"params": {"0,0": {"amp": 0.7, "freq": 440.0, "waveform": "sine", "active": "on"}}}
    (tmp_path / "t.json").write_text(json.dumps(params))
    assert main(["-q", "render", str(osc_chain), "--params", str(tmp_path / "t.json"),
                 "--out", str(tmp_path / "target.wav"), "--duration", "0.25"]) == 0
    from_config, from_flag = tmp_path / "from_config", tmp_path / "from_flag"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "loss.cells = output\nloss.windows = 1024\noptimizer.steps = 3\n"
        f"optimizer.restarts = 1\npaths.out_dir = {from_config}\n"
    )
    match = ["-q", "match", str(tmp_path / "target.wav"), str(osc_chain), "--config", str(cfg)]
    assert main(match + ["--out-dir", str(from_flag)]) == 0
    assert (from_flag / "result.json").exists() and (from_flag / "match.wav").exists()
    assert not from_config.exists()
    assert main(match) == 0
    assert (from_config / "result.json").exists() and (from_config / "match.wav").exists()


def test_match_report_gives_the_clipped_count_only_when_match_wav_clipped(
    tmp_path, osc_chain, monkeypatch
):
    params = {"params": {"0,0": {"amp": 0.7, "freq": 440.0, "waveform": "sine", "active": "on"}}}
    (tmp_path / "t.json").write_text(json.dumps(params))
    assert main(["-q", "render", str(osc_chain), "--params", str(tmp_path / "t.json"),
                 "--out", str(tmp_path / "target.wav"), "--duration", "0.25"]) == 0
    cfg = tmp_path / "run.cfg"
    cfg.write_text("loss.cells = output\nloss.windows = 1024\noptimizer.steps = 3\n"
                   "optimizer.restarts = 1\n")
    match = ["-q", "match", str(tmp_path / "target.wav"), str(osc_chain), "--config", str(cfg)]
    assert main(match + ["--out-dir", str(tmp_path / "unclipped")]) == 0
    unclipped = json.loads((tmp_path / "unclipped" / "result.json").read_text())
    assert "clipped" not in unclipped
    write_wav = cli.write_wav
    monkeypatch.setattr(cli, "write_wav", lambda signal, path: write_wav(signal, path) or 7)
    assert main(match + ["--out-dir", str(tmp_path / "clipped")]) == 0
    clipped = json.loads((tmp_path / "clipped" / "result.json").read_text())
    assert clipped.pop("clipped") == 7
    for report in (clipped, unclipped):
        del report["wall_time"]
    assert clipped == unclipped


def test_match_all_branches_diverged_exits_2(tmp_path, caplog):
    # fm_active = off bypasses the modulator, so every fm combination
    # sounds and a huge learning rate overflows theta in each of them; a
    # silent combination (basic.chain has one) would freeze instead
    fm = str(REPO / "chains" / "fm.chain")
    assert main(["-q", "render", fm, "--random", "--duration", "0.1",
                 "--out", str(tmp_path / "target.wav")]) == 0
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "loss.windows = 512\noptimizer.learning_rate = 1e308\n"
        "optimizer.steps = 3\noptimizer.restarts = 1\n"
    )
    out_dir = tmp_path / "res"
    assert main(["-q", "match", str(tmp_path / "target.wav"), fm,
                 "--config", str(cfg), "--out-dir", str(out_dir)]) == 2
    assert "all optimization branches diverged" in caplog.text
    assert not out_dir.exists()


def test_match_nonfinite_target_exits_1_before_any_branch(tmp_path, osc_chain, caplog):
    samples = np.zeros(4000, dtype=np.float32)
    samples[1234] = np.nan
    wavfile.write(tmp_path / "target.wav", 16000, samples)
    out_dir = tmp_path / "res"
    assert main(["-q", "match", str(tmp_path / "target.wav"), str(osc_chain),
                 "--out-dir", str(out_dir)]) == 1
    assert "target.wav: non-finite samples" in caplog.text
    assert "diverged" not in caplog.text
    assert not (out_dir / "result.json").exists()


def test_match_keeps_every_config_field_but_cells_and_jobs(tmp_path, osc_chain, monkeypatch):
    # ... and renders on the target's grid, which no config key sets
    params = {"params": {"0,0": {"amp": 0.7, "freq": 440.0, "waveform": "sine", "active": "on"}}}
    (tmp_path / "t.json").write_text(json.dumps(params))
    assert main(["-q", "render", str(osc_chain), "--params", str(tmp_path / "t.json"),
                 "--out", str(tmp_path / "target.wav"), "--duration", "0.25",
                 "--sample-rate", "8000"]) == 0
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "loss.cells = all\nloss.n_mels = 64\nloss.cumsum_normalize = true\n"
        "loss.transform = mel\noptimizer.steps = 7\noptimizer.seed = 5\n"
    )
    captured = {}

    class Captured(Exception):
        pass

    def fake_match(target, chain, loss_cfg, opt_cfg, render_config):
        captured.update(loss=loss_cfg, optimizer=opt_cfg, render=render_config)
        raise Captured

    monkeypatch.setattr("gradsynth.cli.match", fake_match)
    with pytest.raises(Captured):
        main(["-q", "match", str(tmp_path / "target.wav"), str(osc_chain),
              "--config", str(cfg), "--jobs", "2"])
    run = load_run_config(cfg)
    assert captured["render"] == RenderConfig(sample_rate=8000, duration=0.25)
    assert captured["loss"] == replace(run.loss, cells="output")
    assert captured["optimizer"] == replace(run.optimizer, jobs=2)
    assert (captured["loss"].n_mels, captured["loss"].cumsum_normalize) == (64, True)


def test_beta_schedule_scales_the_first_loss(tmp_path):
    # β is optimizer.beta_schedule alone; one breakpoint is a constant
    assert RunConfig().optimizer.beta_schedule == ((0, 1.0),)
    chain = parse_chain_file(OSC)
    target = generate_signal(
        chain,
        from_cells(
            {CellAddress(0, 0): {"amp": 0.7, "freq": 440.0, "waveform": "sine", "active": "on"}}
        ),
        RenderConfig(duration=0.25),
    ).output
    first = {}
    for name, extra in (("default", ""), ("quarter", "optimizer.beta_schedule = 0:0.25\n")):
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(
            "loss.cells = output\nloss.windows = 1024\noptimizer.steps = 1\n"
            "optimizer.restarts = 1\n" + extra
        )
        run = load_run_config(cfg)
        result = match(target, chain, run.loss, run.optimizer,
                       render_config=RenderConfig(duration=0.25))
        first[name] = [b.trajectory[0] for b in result.branches]
    assert all(v > 0.0 for v in first["default"])
    assert first["quarter"] == [0.25 * v for v in first["default"]]


def test_match_config_with_loss_beta_exits_2(tmp_path, osc_chain, caplog):
    # the spectral weight moved to optimizer.beta_schedule
    assert main(["-q", "render", str(osc_chain), "--random", "--duration", "0.25",
                 "--out", str(tmp_path / "target.wav")]) == 0
    cfg = tmp_path / "run.cfg"
    cfg.write_text("optimizer.steps = 3\nloss.beta = 0.25\n")
    out_dir = tmp_path / "res"
    assert main(["-q", "match", str(tmp_path / "target.wav"), str(osc_chain),
                 "--config", str(cfg), "--out-dir", str(out_dir)]) == 2
    assert "line 2: unknown config key 'loss.beta'" in caplog.text
    assert not out_dir.exists()


# -- exit codes -----------------------------------------------------------------


def _defined_errors() -> list:
    """Every exception class that a gradsynth module defines."""
    found = []
    for info in pkgutil.iter_modules(gradsynth.__path__):
        module = importlib.import_module(f"gradsynth.{info.name}")
        found += [
            obj
            for obj in vars(module).values()
            if isinstance(obj, type)
            and issubclass(obj, BaseException)
            and obj.__module__ == module.__name__
        ]
    return sorted(found, key=lambda cls: cls.__name__)


DEFINED_ERRORS = _defined_errors()


def test_the_error_walk_finds_the_known_errors():
    names = {cls.__name__ for cls in DEFINED_ERRORS}
    assert {
        "AssignmentError", "AudioIOError", "AutodiffError", "ChainParseError",
        "ChainValidationError", "ConfigError", "DatasetFormatError", "LossConfigError",
        "MatcherConfigError", "MissingInputError", "NumericDomainError",
        "ParameterRangeError", "SpectralConfigError",
    } <= names


@pytest.mark.parametrize("cls", DEFINED_ERRORS, ids=lambda cls: cls.__name__)
def test_every_input_error_is_a_value_error_and_exits_2(tmp_path, osc_chain, monkeypatch, cls):
    # An unreadable WAV is a runtime failure (exit 1) and an autodiff error
    # is a bug (a traceback); every other gradsynth error is about the input.
    def fail(*args, **kwargs):
        raise cls.__new__(cls, f"{cls.__name__} raised")  # whatever cls.__init__ takes

    monkeypatch.setattr(cli, "generate_signal", fail)
    argv = ["-q", "render", str(osc_chain), "--random", "--out", str(tmp_path / "x.wav")]
    if issubclass(cls, AutodiffError):
        assert not issubclass(cls, ValueError)
        with pytest.raises(cls):
            main(argv)
    elif cls is AudioIOError:
        assert not issubclass(cls, ValueError)
        assert main(argv) == 1
    else:
        assert issubclass(cls, ValueError)
        assert main(argv) == 2


def _edited_params(path, edit) -> Path:
    """A parameter file for basic.chain, changed by ``edit(payload)``."""
    chain = parse_chain_file(BASIC)
    assignment = sample_assignment(chain, np.random.default_rng(0), RenderConfig(duration=0.25))
    payload = assignment_payload(chain, assignment)
    edit(payload)
    path.write_text(json.dumps(payload))
    return path


@pytest.mark.parametrize(
    "edit, fragment",
    [
        (lambda p: p["params"]["0,0"].update(amp=None), "osc.amp = None is not a number"),
        (lambda p: p["params"]["0,0"].update(amp=[0.5]), "osc.amp = [0.5] is not a number"),
        (lambda p: p["params"]["0,0"].update(amp="0.5"), "osc.amp = '0.5' is not a number"),
        (lambda p: p["params"]["0,0"].update(amp=True), "osc.amp = True is not a number"),
        (lambda p: p["params"].update({"5,5": {"cutoff": 1000.0}}), "assigned to (5,5)"),
        (lambda p: p["connections"][0].update(on="false"), "'on' must be true or false"),
        (lambda p: p["params"]["0,0"].update(amp="loud", active="off"),
         "osc.amp = 'loud' is not a number"),
        (lambda p: p["connections"][0].update(on=False),
         "connection (0,0) -> (0,1) is not optional; it cannot be switched off"),
        (lambda p: p["params"].pop("0,1"), "cell (0,1) (mix): no parameters assigned"),
        (lambda p: p["connections"].pop(), "connection (0,2) -> (0,3) not listed"),
    ],
    ids=["null", "list", "numeric-string", "bool", "extra-cell", "string-on", "switched-off-osc",
         "required-off", "no-mix-cell", "unlisted-connection"],
)
def test_render_rejects_a_malformed_params_file(tmp_path, basic_chain, caplog, edit, fragment):
    params = _edited_params(tmp_path / "p.json", edit)
    out = tmp_path / "x.wav"
    argv = ["render", str(basic_chain), "--params", str(params), "--duration", "0.25"]
    assert main(argv + ["--out", str(out)]) == 2
    assert fragment in caplog.text
    assert not out.exists()


def test_sweep_rejects_a_params_file_without_the_swept_cell(tmp_path, basic_chain, caplog):
    params = _edited_params(tmp_path / "p.json", lambda p: p["params"].pop("0,2"))
    out = tmp_path / "s.csv"
    argv = ["sweep", str(basic_chain), "--param", "0,2.attack", "--points", "3",
            "--params", str(params), "--duration", "0.25", "--out", str(out)]
    assert main(argv) == 2
    assert "cell (0,2) (adsr): no parameters assigned" in caplog.text
    assert not out.exists()


@pytest.fixture
def lowpass_cutoffs(monkeypatch):
    """The cutoff of every low-pass render, as a float."""
    seen = []

    def spy(signal, params, config):
        seen.append(getattr(params["cutoff"], "value", params["cutoff"]))
        return apply_lowpass(signal, params, config)

    monkeypatch.setattr(chains, "apply_lowpass", spy)
    return seen


def test_commands_at_8khz_render_a_cutoff_above_nyquist(tmp_path, lowpass_cutoffs):
    # the catalog's cutoff range reaches 8 kHz at every rate, so sampling
    # and matching at 8 kHz reach past its 4 kHz Nyquist limit
    basic = str(REPO / "chains" / "basic.chain")
    at_8k = ["--sample-rate", "8000"]
    # render --random draws the first seed whose sampled cutoff is above 4 kHz
    chain = parse_chain_file(Path(basic).read_text())
    seed = next(
        s for s in range(100)
        if sample_assignment(chain, np.random.default_rng(s), RenderConfig(sample_rate=8000))
        .params[CellAddress(0, 3), "cutoff"] > 4000.0
    )
    target = str(tmp_path / "t8.wav")
    assert main(["-q", "render", basic, "--random", "--seed", "3", *at_8k, "--duration", "0.25",
                 "--out", target]) == 0
    cfg = tmp_path / "m.cfg"
    cfg.write_text(
        "loss.cells = output\noptimizer.steps = 5\noptimizer.restarts = 2\n"
        "optimizer.learning_rate = 0.2\n"
    )
    for argv in [
        ["render", basic, "--random", "--seed", str(seed), *at_8k,
         "--out", str(tmp_path / "o.wav")],
        ["dataset", basic, "--n", "20", *at_8k, "--out", str(tmp_path / "ds")],
        ["match", target, basic, "--config", str(cfg), "--out-dir", str(tmp_path / "res")],
    ]:
        lowpass_cutoffs.clear()
        assert main(["-q", *argv]) == 0
        assert max(lowpass_cutoffs) > 4000.0


# -- plumbing -------------------------------------------------------------------


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exit_info:
        main(["--help"])
    assert exit_info.value.code == 0
    for command in ["render", "dataset", "match", "sweep", "bench", "gradcheck"]:
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--help"])
        assert exit_info.value.code == 0


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "gradsynth.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "render" in proc.stdout and "gradcheck" in proc.stdout
