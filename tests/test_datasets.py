import json
import math
import pickle
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradsynth.audio import RenderConfig, read_wav
from gradsynth.chains import (
    Cell,
    CellAddress,
    ChainSpec,
    ChainValidationError,
    Connection,
    format_chain,
    generate_signal,
    parse_chain_file,
)
from gradsynth import datasets
from gradsynth.datasets import (
    DatasetFormatError,
    DatasetRecord,
    assignment_payload,
    generate_dataset,
    load_records,
    parse_assignment,
    record_rng,
    render_record,
    sample_assignment,
    sample_record,
)
from gradsynth.losses import LossConfig, chain_features, signal_chain_loss
from gradsynth.modules import ContinuousParam, resolve_range

CFG = RenderConfig(duration=0.125)

A00 = CellAddress(0, 0)
OSC_CHAIN = ChainSpec("single", (Cell(A00, "osc"),), ())

MIX_CHAIN = parse_chain_file(
    """chain pair
cell 0 0 osc
cell 1 0 osc
cell 0 1 mix
cell 0 2 adsr
connect 0,0 -> 0,1
connect 1,0 -> 0,1
connect 0,1 -> 0,2
"""
)

# every parameter-bearing kind, plus an optional FM modulator routing
KITCHEN_CHAIN = parse_chain_file(
    """chain kitchen
cell 0 0 lfo
cell 1 0 osc
cell 0 1 fm_osc
cell 0 2 tremolo
cell 0 3 mix
cell 0 4 lowpass
cell 0 5 adsr
connect 0,0 -> 0,1 optional
connect 0,0 -> 0,2
connect 1,0 -> 0,2
connect 0,1 -> 0,3 optional
connect 0,2 -> 0,3
connect 0,3 -> 0,4
connect 0,4 -> 0,5
"""
)


def all_values(chain, n, seed, pick):
    out = []
    for index in range(n):
        assignment = sample_assignment(chain, record_rng(seed, index), CFG)
        out.append(pick(assignment))
    return out


def test_sampled_values_within_ranges():
    for index in range(300):
        assignment = sample_assignment(KITCHEN_CHAIN, record_rng(5, index), CFG)
        assert assignment.params.keys() == KITCHEN_CHAIN.params.keys()
        for key, spec in KITCHEN_CHAIN.params.items():
            if isinstance(spec, ContinuousParam):
                low, high = resolve_range(spec, CFG)
                assert low <= assignment.params[key] <= high
            else:
                assert assignment.params[key] in spec.choices


def test_log_uniform_freq_below_geometric_midpoint():
    midpoint = math.sqrt(20.0 * 20000.0)  # 632.455 Hz
    freqs = all_values(
        OSC_CHAIN, 10_000, 11, lambda a: a.params[A00, "freq"]
    )
    fraction = np.mean(np.asarray(freqs) < midpoint)
    assert 0.47 <= fraction <= 0.53
    # uniform-in-Hz sampling would put ~97% of draws above the midpoint
    assert np.mean(np.asarray(freqs) < 2000.0) > 0.5


def test_uniform_params_stay_uniform():
    amps = np.asarray(
        all_values(OSC_CHAIN, 4_000, 13, lambda a: a.params[A00, "amp"])
    )
    assert 0.45 <= np.mean(amps < 0.5) <= 0.55


def test_fixed_seed_identical_assignment():
    first = sample_assignment(OSC_CHAIN, record_rng(99, 3), CFG)
    second = sample_assignment(OSC_CHAIN, record_rng(99, 3), CFG)
    assert first == second


SAMPLE_GOLDEN = Path(__file__).parent / "data" / "sample_golden.json"
CHAINS = Path(__file__).resolve().parents[1] / "chains"


def test_sampled_assignments_equal_recorded_values():
    # first records of two shipped chains at 1 s; a change to sampling
    # (the draw order or the unit-to-value map) moves these bits
    recorded = json.loads(SAMPLE_GOLDEN.read_text())
    got = {}
    for name in ("basic", "fm"):
        chain = parse_chain_file((CHAINS / f"{name}.chain").read_text())
        for seed in (0, 1):
            got[f"{name}.chain seed {seed}"] = [
                assignment_payload(chain, sample_record(chain, seed, i).assignment)["params"]
                for i in range(3)
            ]
    assert got == recorded


def test_categorical_draws_cover_choices():
    waveforms = set(
        all_values(
            OSC_CHAIN, 200, 17, lambda a: a.params[A00, "waveform"]
        )
    )
    assert waveforms == {"sine", "square", "saw"}


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_adsr_triple_fits_duration(index):
    assignment = sample_assignment(MIX_CHAIN, record_rng(23, index), CFG)
    params = assignment.params
    adsr = CellAddress(0, 2)
    assert params[adsr, "attack"] + params[adsr, "decay"] + params[adsr, "release"] <= CFG.duration


BASIC_CHAIN = parse_chain_file((CHAINS / "basic.chain").read_text())
ONE_SECOND = RenderConfig(duration=1.0)
SEGMENTS = ("attack", "decay", "release")


@pytest.fixture(scope="module")
def envelope_draws():
    """(attack, decay, release) of basic.chain's first 20,000 records at T = 1 s."""
    records = (sample_record(BASIC_CHAIN, 0, i, ONE_SECOND) for i in range(20_000))
    adsr = CellAddress(0, 2)
    return np.array([[r.assignment.params[adsr, name] for name in SEGMENTS] for r in records])


def test_envelope_segments_fit_the_duration_on_every_draw(envelope_draws):
    assert np.all(envelope_draws >= 0.0)
    assert np.all(envelope_draws.sum(axis=1) <= ONE_SECOND.duration)


def test_envelope_draw_is_uniform_over_the_segments_that_fit(envelope_draws):
    # uniform on {a, d, r >= 0, a + d + r <= T}: each mean T/4,
    # P(sum > 0.9 T) = 1 - 0.9**3 and corr(a, d) = -1/3
    np.testing.assert_allclose(envelope_draws.mean(axis=0), 0.25, atol=0.01)
    assert abs(np.mean(envelope_draws.sum(axis=1) > 0.9) - (1 - 0.9**3)) <= 0.015
    assert abs(np.corrcoef(envelope_draws[:, 0], envelope_draws[:, 1])[0, 1] + 1 / 3) <= 0.03


class CountingRng:
    """Forwards ``random`` and ``integers`` to a generator, recording each call."""

    def __init__(self, rng):
        self.rng, self.calls = rng, []

    def random(self, size=None):
        self.calls.append(("random", size))
        return self.rng.random(size)

    def integers(self, *args):
        self.calls.append(("integers", args))
        return self.rng.integers(*args)


def test_every_record_makes_the_same_draws():
    # no retry: one rng.random(3) for the envelope, whatever it draws
    calls = set()
    for index in range(500):
        rng = CountingRng(record_rng(0, index))
        sample_assignment(BASIC_CHAIN, rng, ONE_SECOND)
        calls.add(tuple(rng.calls))
    (only,) = calls
    assert only.count(("random", 3)) == 1


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_sampled_assignment_renders(index):
    assignment = sample_assignment(KITCHEN_CHAIN, record_rng(31, index), CFG)
    trace = generate_signal(KITCHEN_CHAIN, assignment, CFG)
    assert np.all(np.isfinite(trace.output.values))
    # and the loss of every cell against a second draw is finite
    second = sample_assignment(KITCHEN_CHAIN, record_rng(37, index), CFG)
    other = generate_signal(KITCHEN_CHAIN, second, CFG)
    cfg = LossConfig(cells="all")
    assert math.isfinite(signal_chain_loss(trace, chain_features(other, cfg), cfg).value)


def test_dropped_modulator_forces_fm_bypass():
    modulator = Connection(CellAddress(0, 0), CellAddress(0, 1), optional=True)
    seen = {True: 0, False: 0}
    for index in range(60):
        assignment = sample_assignment(KITCHEN_CHAIN, record_rng(41, index), CFG)
        on = assignment.connection_on(modulator)
        seen[on] += 1
        if not on:
            assert assignment.params[CellAddress(0, 1), "fm_active"] == "off"
    assert seen[True] > 0 and seen[False] > 0


def test_generate_dataset_file_layout(tmp_path):
    records = generate_dataset(MIX_CHAIN, 10, seed=7, out_dir=tmp_path, render_config=CFG)
    assert [r.index for r in records] == list(range(10))
    wavs = sorted(p.name for p in tmp_path.glob("*.wav"))
    assert wavs == [f"{i:06d}.wav" for i in range(10)]
    lines = (tmp_path / "metadata.jsonl").read_text().splitlines()
    assert len(lines) == 10
    assert json.loads(lines[3])["wav"] == "000003.wav"
    assert parse_chain_file((tmp_path / "chain.txt").read_text()) == MIX_CHAIN


def test_generate_dataset_deterministic_bytes(tmp_path):
    generate_dataset(MIX_CHAIN, 5, seed=19, out_dir=tmp_path / "a", render_config=CFG)
    generate_dataset(MIX_CHAIN, 5, seed=19, out_dir=tmp_path / "b", render_config=CFG)
    for name in ["metadata.jsonl", "chain.txt"] + [f"{i:06d}.wav" for i in range(5)]:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_record_seven_regenerates_alone(tmp_path):
    records = generate_dataset(MIX_CHAIN, 10, seed=29, out_dir=tmp_path, render_config=CFG)
    solo = sample_record(MIX_CHAIN, records[7].seed, 7, CFG)
    assert solo == records[7]
    stored = read_wav(tmp_path / "000007.wav")
    regenerated = render_record(MIX_CHAIN, solo, CFG)
    assert np.array_equal(stored.values, regenerated.values.astype(np.float32))


def test_records_exchangeable_across_batch_sizes():
    large = [sample_record(KITCHEN_CHAIN, 37, i, CFG) for i in range(100)]
    small = [sample_record(KITCHEN_CHAIN, 37, i, CFG) for i in range(10)]
    assert large[:10] == small


def test_metadata_roundtrip_rerenders_stored_audio(tmp_path):
    generate_dataset(MIX_CHAIN, 6, seed=43, out_dir=tmp_path, render_config=CFG)
    loaded = load_records(MIX_CHAIN, tmp_path / "metadata.jsonl")
    assert len(loaded) == 6
    for record in loaded:
        stored = read_wav(tmp_path / record.wav_name)
        again = render_record(MIX_CHAIN, record, CFG)
        assert stored.sample_rate == again.sample_rate
        assert np.array_equal(stored.values, again.values.astype(np.float32))


def test_loaded_records_equal_returned_records(tmp_path):
    records = generate_dataset(KITCHEN_CHAIN, 4, seed=53, out_dir=tmp_path, render_config=CFG)
    assert load_records(KITCHEN_CHAIN, tmp_path / "metadata.jsonl") == records


def test_a_clipped_record_says_so_on_its_metadata_line(tmp_path):
    # basic.chain's low-pass rings past 1: record 1256 of seed 0 peaks at
    # 1.0013 at 1 s, and its WAV clips one sample; record 0 clips none
    made = {
        i: datasets._make_record(
            i, chain=BASIC_CHAIN, seed=0, render_config=ONE_SECOND, out_dir=str(tmp_path)
        )
        for i in (0, 1256)
    }
    lines = [datasets._record_to_json(BASIC_CHAIN, made[i]) for i in (0, 1256)]
    assert made[1256].clipped == 1 and json.loads(lines[1])["clipped"] == 1
    assert made[0].clipped == 0 and "clipped" not in json.loads(lines[0])
    (tmp_path / "metadata.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert load_records(BASIC_CHAIN, tmp_path / "metadata.jsonl") == [made[0], made[1256]]


def test_parallel_jobs_match_sequential(tmp_path):
    sequential = generate_dataset(
        MIX_CHAIN, 6, seed=61, out_dir=tmp_path / "seq", render_config=CFG, jobs=1
    )
    parallel = generate_dataset(
        MIX_CHAIN, 6, seed=61, out_dir=tmp_path / "par", render_config=CFG, jobs=2
    )
    assert sequential == parallel
    assert (tmp_path / "seq" / "metadata.jsonl").read_bytes() == (
        tmp_path / "par" / "metadata.jsonl"
    ).read_bytes()
    for i in range(6):
        name = f"{i:06d}.wav"
        assert (tmp_path / "seq" / name).read_bytes() == (
            tmp_path / "par" / name
        ).read_bytes()


def test_an_invalid_chain_never_reaches_generate_dataset(tmp_path):
    out = tmp_path / "ds"
    with pytest.raises(ChainValidationError, match="lowpass cell"):
        generate_dataset(
            ChainSpec("bad", (Cell(CellAddress(0, 0), "lowpass"),), ()),  # no input
            3, seed=1, out_dir=out, render_config=CFG,
        )
    assert not out.exists()


def test_an_invalid_chain_never_reaches_sample_assignment():
    rng = np.random.default_rng(0)
    with pytest.raises(ChainValidationError, match="unknown kind 'warp'"):
        sample_assignment(ChainSpec("w", (Cell(CellAddress(0, 0), "warp"),), ()), rng, CFG)
    cells = (Cell(CellAddress(0, 0), "lowpass"), Cell(CellAddress(0, 1), "osc"))
    backward = (Connection(CellAddress(0, 1), CellAddress(0, 0)),)
    with pytest.raises(ChainValidationError, match="does not advance layers"):
        sample_assignment(ChainSpec("b", cells, backward), rng, CFG)


def test_negative_count_rejected(tmp_path):
    with pytest.raises(ValueError):
        generate_dataset(MIX_CHAIN, -1, seed=1, out_dir=tmp_path, render_config=CFG)
    with pytest.raises(ValueError, match="jobs"):
        generate_dataset(MIX_CHAIN, 2, seed=1, out_dir=tmp_path / "ds", render_config=CFG, jobs=0)
    assert not (tmp_path / "ds").exists()


def test_load_records_rejects_bad_json(tmp_path):
    path = tmp_path / "metadata.jsonl"
    path.write_text('{"index": 0\n')
    with pytest.raises(DatasetFormatError, match="line 1"):
        load_records(MIX_CHAIN, path)


def test_load_records_rejects_unknown_connection(tmp_path):
    records = generate_dataset(MIX_CHAIN, 1, seed=3, out_dir=tmp_path, render_config=CFG)
    line = json.loads((tmp_path / "metadata.jsonl").read_text())
    line["connections"][0]["source"] = [5, 5]
    path = tmp_path / "edited.jsonl"
    path.write_text(json.dumps(line) + "\n")
    with pytest.raises(DatasetFormatError, match="not declared"):
        load_records(MIX_CHAIN, path)
    assert records  # original batch unaffected


@pytest.mark.parametrize(
    "key, detail",
    [("0;0", "expected <ch>,<ly>"), ("a,0", "channel and layer must be integers"),
     ("0,-1", "indices must be >= 0")],
)
def test_parse_assignment_reports_a_malformed_cell_key_as_the_chain_grammar_does(key, detail):
    with pytest.raises(DatasetFormatError) as err:
        parse_assignment(MIX_CHAIN, {"params": {key: {}}})
    assert str(err.value) == f"malformed assignment payload: malformed address {key!r}; {detail}"


@pytest.mark.parametrize("on", ["false", 0])
def test_parse_assignment_takes_only_a_json_boolean_for_on(tmp_path, on):
    chain = parse_chain_file(format_chain(MIX_CHAIN).replace("1,0 -> 0,1", "1,0 -> 0,1 optional"))
    (optional,) = [c for c in chain.connections if c.optional]
    record = sample_record(chain, 3, 0, CFG)
    payload = assignment_payload(chain, record.assignment)
    (entry,) = [e for e in payload["connections"] if e["optional"]]
    entry["on"] = False
    assert parse_assignment(chain, payload).connection_on(optional) is False
    entry["on"] = on
    with pytest.raises(DatasetFormatError, match="'on' must be true or false"):
        parse_assignment(chain, payload)
    payload.update(index=0, seed=3, wav=record.wav_name)
    (tmp_path / "metadata.jsonl").write_text(json.dumps(payload) + "\n")
    with pytest.raises(DatasetFormatError, match="line 1: .*'on' must be true or false"):
        load_records(chain, tmp_path / "metadata.jsonl")


def test_parse_assignment_rejects_switching_off_a_required_connection():
    # the tremolo's LFO input: off, it would end in MissingInputError at render
    payload = assignment_payload(KITCHEN_CHAIN, sample_record(KITCHEN_CHAIN, 3, 0, CFG).assignment)
    (entry,) = [e for e in payload["connections"] if e["dest"] == [0, 2] and e["source"] == [0, 0]]
    entry["on"] = False
    with pytest.raises(DatasetFormatError) as err:
        parse_assignment(KITCHEN_CHAIN, payload)
    assert str(err.value) == "connection (0,0) -> (0,2) is not optional; it cannot be switched off"


def test_optional_connections_switched_off_load_and_render():
    payload = assignment_payload(KITCHEN_CHAIN, sample_record(KITCHEN_CHAIN, 3, 0, CFG).assignment)
    for entry in payload["connections"]:
        entry["on"] = not entry["optional"]
    payload["params"]["0,1"]["fm_active"] = "off"  # its modulator is off
    assignment = parse_assignment(KITCHEN_CHAIN, payload)
    assert [assignment.connection_on(c) for c in KITCHEN_CHAIN.connections] == [
        not c.optional for c in KITCHEN_CHAIN.connections
    ]
    assert np.all(np.isfinite(generate_signal(KITCHEN_CHAIN, assignment, CFG).output.values))


def test_a_rendered_record_pickles_to_the_same_bytes():
    # a worker returns its records pickled; rendering one adds nothing to it
    config = RenderConfig(duration=0.25)
    record = sample_record(BASIC_CHAIN, 5, 0, config)
    before = pickle.dumps(record)
    render_record(BASIC_CHAIN, record, config)
    assert pickle.dumps(record) == before


def test_parse_assignment_rejects_two_keys_for_one_cell(tmp_path):
    record = sample_record(BASIC_CHAIN, 3, 0, CFG)
    payload = assignment_payload(BASIC_CHAIN, record.assignment)
    payload["params"]["00,0"] = dict(payload["params"]["0,0"], amp=0.999)
    with pytest.raises(DatasetFormatError) as err:
        parse_assignment(BASIC_CHAIN, payload)
    assert str(err.value) == "params keys '0,0' and '00,0' name the same cell"
    payload.update(index=0, seed=3, wav=record.wav_name)
    (tmp_path / "metadata.jsonl").write_text(json.dumps(payload) + "\n")
    with pytest.raises(DatasetFormatError, match="^metadata line 1: params keys '0,0' and '00,0'"):
        load_records(BASIC_CHAIN, tmp_path / "metadata.jsonl")


def test_record_connections_on_exposed():
    record = sample_record(KITCHEN_CHAIN, 71, 0, CFG)
    assert isinstance(record.assignment.connections_on, dict)
    assert isinstance(record, DatasetRecord)


def _kitchen_payload():
    return assignment_payload(KITCHEN_CHAIN, sample_record(KITCHEN_CHAIN, 3, 0, CFG).assignment)


@pytest.mark.parametrize("keep", [lambda e: e["source"] != [0, 0] or e["dest"] != [0, 1],
                                  lambda e: False], ids=["one-left-out", "empty-list"])
def test_parse_assignment_rejects_a_connections_list_that_leaves_one_out(keep):
    # left out, the optional modulator connection would silently read as off
    payload = _kitchen_payload()
    payload["connections"] = [e for e in payload["connections"] if keep(e)]
    with pytest.raises(DatasetFormatError) as err:
        parse_assignment(KITCHEN_CHAIN, payload)
    assert str(err.value) == "connection (0,0) -> (0,1) not listed"


def test_parse_assignment_rejects_a_connection_listed_twice():
    payload = _kitchen_payload()
    (entry,) = [e for e in payload["connections"] if e["source"] == [0, 1]]
    payload["connections"].append(dict(entry, on=not entry["on"]))
    with pytest.raises(DatasetFormatError) as err:
        parse_assignment(KITCHEN_CHAIN, payload)
    assert str(err.value) == "connection (0,1) -> (0,3) listed twice"


def _drop_attack(params):
    del params["0,2"]["attack"]


@pytest.mark.parametrize(
    "edit, message",
    [
        (_drop_attack, "chain 'basic': missing parameter(s) (0,2).attack"),
        (lambda params: params.update({"9,9": {"amp": 0.5}}),
         "parameters assigned to (9,9), where the chain has no module cell"),
        (lambda params: params["0,3"].update(q=0.7), "chain 'basic': unknown parameter(s) (0,3).q"),
    ],
    ids=["missing-key", "extra-cell", "unknown-key"],
)
def test_load_records_rejects_a_line_that_does_not_cover_the_chain(tmp_path, edit, message):
    generate_dataset(BASIC_CHAIN, 2, seed=5, out_dir=tmp_path, render_config=CFG)
    path = tmp_path / "metadata.jsonl"
    first, second = path.read_text().splitlines()
    payload = json.loads(second)
    edit(payload["params"])
    path.write_text(first + "\n" + json.dumps(payload) + "\n")
    with pytest.raises(DatasetFormatError) as err:
        load_records(BASIC_CHAIN, path)
    assert str(err.value) == f"metadata line 2: {message}"
