"""Chain parsing, validation, resolution, and layer-ordered generation."""

from __future__ import annotations

import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradsynth import autodiff as ad
from gradsynth.audio import RenderConfig
from gradsynth.chains import (
    CELL_KINDS,
    AssignmentError,
    Cell,
    CellAddress,
    ChainParseError,
    ChainSpec,
    ChainValidationError,
    Connection,
    ParameterAssignment,
    generate_signal,
    format_chain,
    parse_chain_file,
    resolve_optional,
)
from gradsynth.modules import CATALOG, MissingInputError, render_oscillator
from assignments import from_cells

CFG = RenderConfig()

BASIC_CHAIN = """\
# two oscillators mixed, shaped, and filtered
chain basic
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

OSC = {"amp": 0.8, "freq": 440.0, "waveform": "saw", "active": "on"}
OSC2 = {"amp": 0.6, "freq": 660.0, "waveform": "square", "active": "on"}
ADSR_ID = {"attack": 0.0, "decay": 0.0, "sustain": 1.0, "release": 0.0}


def addr(ch, ly):
    return CellAddress(ch, ly)


def basic_assignment(**over):
    values = {
        addr(0, 0): dict(OSC),
        addr(1, 0): dict(OSC2),
        addr(0, 1): {},
        addr(0, 2): dict(ADSR_ID),
        addr(0, 3): {"cutoff": 7999.0},
    }
    values.update(over)
    return from_cells(values)


# -- parsing ------------------------------------------------------------------


def test_parse_basic_chain():
    chain = parse_chain_file(BASIC_CHAIN)
    assert chain.name == "basic"
    assert len(chain.cells) == 5
    assert len(chain.connections) == 4
    assert all(not c.optional for c in chain.connections)
    assert chain.module_cells[addr(0, 1)] == "mix"


def test_parse_optional_connection():
    text = "chain c\ncell 0 0 lfo\ncell 0 1 fm_osc\nconnect 0,0 -> 0,1 optional\n"
    chain = parse_chain_file(text)
    assert chain.connections[0].optional


def test_parse_comments_and_blank_lines():
    text = "\n# header\nchain c  # trailing\n\ncell 0 0 osc # the source\n"
    chain = parse_chain_file(text)
    assert chain.name == "c"
    assert chain.cells[0].kind == "osc"


def test_format_chain_round_trips():
    chain = parse_chain_file(BASIC_CHAIN)
    assert parse_chain_file(format_chain(chain)) == chain
    optional = parse_chain_file(
        "chain o\ncell 0 0 osc\ncell 0 1 lowpass\nconnect 0,0 -> 0,1 optional\n"
    )
    assert "optional" in format_chain(optional)
    assert parse_chain_file(format_chain(optional)) == optional


def _chain_text(name, cells, connections) -> str:
    """The line grammar of a chain's parts, which need not make a valid chain."""
    lines = [f"chain {name}"]
    lines += [f"cell {c.address.channel} {c.address.layer} {c.kind}" for c in cells]
    lines += [
        f"connect {c.source.channel},{c.source.layer} -> {c.dest.channel},{c.dest.layer}"
        + (" optional" if c.optional else "")
        for c in connections
    ]
    return "\n".join(lines) + "\n"


@st.composite
def chains(draw):
    """The parts of any parseable chain: unique addresses, connections
    between declared cells; the chain they make may be invalid."""
    name = draw(st.text("abcxyz019_-.", min_size=1, max_size=8))
    addresses = draw(
        st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=8, unique=True)
    )
    cells = tuple(
        Cell(CellAddress(*address), draw(st.sampled_from(CELL_KINDS))) for address in addresses
    )
    connections = ()
    if cells:
        ends = st.sampled_from([cell.address for cell in cells])
        connections = tuple(
            draw(st.lists(st.builds(Connection, ends, ends, st.booleans()), max_size=6))
        )
    return name, cells, connections


def _build(make):
    """``(chain, None)`` if ``make()`` builds one, else ``(None, violations)``."""
    try:
        return make(), None
    except ChainValidationError as exc:
        return None, exc.violations


@given(parts=chains())
@settings(max_examples=60, deadline=None)
def test_format_chain_round_trips_generated_chains(parts):
    built, built_violations = _build(lambda: ChainSpec(*parts))
    parsed, parsed_violations = _build(lambda: parse_chain_file(_chain_text(*parts)))
    assert parsed == built
    assert parsed_violations == built_violations
    if built is not None:
        assert format_chain(built) == _chain_text(*parts)
        assert parse_chain_file(format_chain(built)) == built


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("", "no chain declared"),
        ("# only comments\n", "no chain declared"),
        ("cell 0 0 osc\n", "before chain"),
        ("connect 0,0 -> 0,1\n", "before chain"),
        ("chain a\nchain b\n", "already declared"),
        ("chain\n", "expected: chain"),
        ("chain c\ncell 0 osc\n", "expected: cell"),
        ("chain c\ncell 0 0 reverb\n", "unknown module kind"),
        ("chain c\ncell x 0 osc\n", "malformed address"),
        ("chain c\ncell -1 0 osc\n", "malformed address"),
        ("chain c\ncell 0 0 osc\ncell 0 0 mix\n", "duplicate cell"),
        ("chain c\ncell 0 0 osc\nconnect 0,0 0,1\n", "expected: connect"),
        ("chain c\ncell 0 0 osc\nconnect 0,0 -> 01\n", "malformed address"),
        ("chain c\ncell 0 0 osc\nconnect 0,0 -> 0,1 maybe\n", "expected 'optional'"),
        ("chain c\ncell 0 0 osc\nconnect 0,0 -> 0,1\n", "dangling"),
        ("chain c\ncell 0 1 mix\nconnect 0,0 -> 0,1\n", "dangling"),
        ("chain c\nroute 0,0 -> 0,1\n", "unknown directive"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(ChainParseError) as err:
        parse_chain_file(text)
    assert fragment in str(err.value)


MALFORMED_ADDRESSES = [
    ("0,0,1", "malformed address '0,0,1'; expected <ch>,<ly>"),
    ("0;0", "malformed address '0;0'; expected <ch>,<ly>"),
    ("a,0", "malformed address 'a,0'; channel and layer must be integers"),
    ("0,-1", "malformed address '0,-1'; indices must be >= 0"),
]


def test_cell_address_parse_reads_channel_then_layer():
    assert CellAddress.parse("2,3") == CellAddress(2, 3)


@pytest.mark.parametrize("text, message", MALFORMED_ADDRESSES)
def test_chain_file_reports_the_address_readers_message_on_its_line(text, message):
    with pytest.raises(ValueError) as err:
        CellAddress.parse(text)
    assert str(err.value) == message
    with pytest.raises(ChainParseError) as err:
        parse_chain_file(f"chain c\ncell 0 0 osc\nconnect 0,0 -> {text}\n")
    assert str(err.value) == f"line 3: {message}"


def test_parse_error_carries_line_number():
    text = "chain c\ncell 0 0 osc\ncell 0 1 warp\n"
    with pytest.raises(ChainParseError) as err:
        parse_chain_file(text)
    assert err.value.line == 3
    assert "line 3" in str(err.value)


# -- validation ----------------------------------------------------------------


def _single(kind="osc"):
    return (Cell(addr(0, 0), kind),)


def _violations(cells, connections=()) -> list:
    """The violations that building a chain of these parts raises."""
    with pytest.raises(ChainValidationError) as err:
        ChainSpec("c", cells, connections)
    assert str(err.value) == "; ".join(v.message for v in err.value.violations)
    return list(err.value.violations)


def test_validate_flags_backward_connection():
    violations = _violations(
        (Cell(addr(0, 1), "mix"), Cell(addr(0, 2), "osc")),
        (Connection(addr(0, 2), addr(0, 1)),),
    )
    assert "backward_connection" in [v.code for v in violations]


def test_validate_flags_same_layer_connection():
    violations = _violations(
        (Cell(addr(0, 0), "osc"), Cell(addr(1, 0), "mix")),
        (Connection(addr(0, 0), addr(1, 0)),),
    )
    assert "backward_connection" in [v.code for v in violations]


def test_validate_flags_occupied_cell():
    codes = [v.code for v in _violations((Cell(addr(0, 0), "osc"), Cell(addr(0, 0), "lfo")))]
    assert "cell_occupied" in codes


def test_validate_flags_unknown_kind():
    codes = [v.code for v in _violations((Cell(addr(0, 0), "warp"),))]
    assert "unknown_kind" in codes


def test_validate_flags_dangling_connection():
    codes = [v.code for v in _violations(_single(), (Connection(addr(0, 0), addr(0, 1)),))]
    assert "dangling_connection" in codes


def test_validate_flags_duplicate_connection():
    violations = _violations(
        (Cell(addr(0, 0), "osc"), Cell(addr(0, 1), "mix")),
        (Connection(addr(0, 0), addr(0, 1)), Connection(addr(0, 0), addr(0, 1))),
    )
    assert "duplicate_connection" in [v.code for v in violations]


def test_validate_flags_no_cells():
    assert [v.code for v in _violations(())] == ["no_cells"]


def test_validate_arity_source_with_input():
    violations = _violations(
        (Cell(addr(0, 0), "osc"), Cell(addr(0, 1), "osc")),
        (Connection(addr(0, 0), addr(0, 1)),),
    )
    messages = [v.message for v in violations if v.code == "arity"]
    assert messages and "accepts no inputs" in messages[0]


def test_validate_arity_processor_without_input():
    for kind in ("lowpass", "adsr", "mix"):
        codes = [v.code for v in _violations((Cell(addr(0, 1), kind),))]
        assert "arity" in codes, kind


def test_validate_tremolo_requires_lfo_input():
    violations = _violations(
        (
            Cell(addr(0, 0), "osc"),
            Cell(addr(1, 0), "osc"),
            Cell(addr(0, 1), "tremolo"),
        ),
        (Connection(addr(0, 0), addr(0, 1)), Connection(addr(1, 0), addr(0, 1))),
    )
    assert "missing_required_input" in [v.code for v in violations]


def test_validate_tremolo_with_lfo_ok():
    chain = ChainSpec(
        "c",
        (
            Cell(addr(0, 0), "osc"),
            Cell(addr(1, 0), "lfo"),
            Cell(addr(0, 1), "tremolo"),
        ),
        (Connection(addr(0, 0), addr(0, 1)), Connection(addr(1, 0), addr(0, 1))),
    )
    assert chain.module_cells[addr(0, 1)] == "tremolo"


def test_validate_never_throws_on_garbage():
    violations = _violations(
        (Cell(CellAddress(-1, -2), "warp"), Cell(CellAddress(-1, -2), "warp")),
        (Connection(CellAddress(5, 5), CellAddress(4, 4)),),
    )
    assert violations and all(isinstance(v.message, str) for v in violations)


# -- generation ----------------------------------------------------------------


def test_single_cell_output_is_module_output():
    chain = ChainSpec("c", _single(), ())
    trace = generate_signal(chain, from_cells({addr(0, 0): dict(OSC)}), CFG)
    direct = render_oscillator(OSC, CFG)
    np.testing.assert_array_equal(trace.output.values, direct.values)
    assert set(trace.cell_outputs) == {addr(0, 0)}


def test_final_layer_average_includes_silent_channel():
    chain = ChainSpec("c", (Cell(addr(0, 0), "osc"), Cell(addr(1, 0), "osc")), ())
    silent = dict(OSC, active="off")
    trace = generate_signal(
        chain,
        from_cells({addr(0, 0): dict(OSC), addr(1, 0): silent}),
        CFG,
    )
    direct = render_oscillator(OSC, CFG)
    np.testing.assert_allclose(trace.output.values, direct.values / 2, atol=1e-15)


def test_mix_averages_inactive_input_as_zeros():
    chain = ChainSpec(
        "c",
        (Cell(addr(0, 0), "osc"), Cell(addr(1, 0), "osc"), Cell(addr(0, 1), "mix")),
        (Connection(addr(0, 0), addr(0, 1)), Connection(addr(1, 0), addr(0, 1))),
    )
    silent = dict(OSC2, active="off")
    assignment = from_cells(
        {addr(0, 0): dict(OSC), addr(1, 0): silent, addr(0, 1): {}}
    )
    trace = generate_signal(chain, assignment, CFG)
    direct = render_oscillator(OSC, CFG)
    np.testing.assert_allclose(trace.output.values, direct.values / 2, atol=1e-15)


def test_basic_chain_trace_complete():
    chain = parse_chain_file(BASIC_CHAIN)
    trace = generate_signal(chain, basic_assignment(), CFG)
    assert set(trace.cell_outputs) == {
        addr(0, 0),
        addr(1, 0),
        addr(0, 1),
        addr(0, 2),
        addr(0, 3),
    }
    assert len(trace.output) == CFG.num_samples


def test_basic_chain_bypass_approximation():
    # identity envelope + wide-open filter: output ~ mix of the oscillators
    chain = parse_chain_file(BASIC_CHAIN)
    assignment = basic_assignment()
    trace = generate_signal(chain, assignment, CFG)
    mix_signal = trace.cell_outputs[addr(0, 1)]
    rms_mix = np.sqrt(np.mean(mix_signal.values**2))
    rms_out = np.sqrt(np.mean(trace.output.values**2))
    assert abs(rms_out - rms_mix) / rms_mix < 0.02


def test_empty_cells_render_as_zeros_and_stay_out_of_trace():
    chain = ChainSpec(
        "c",
        (Cell(addr(0, 0), "osc"), Cell(addr(1, 0), "empty")),
        (),
    )
    trace = generate_signal(chain, from_cells({addr(0, 0): dict(OSC)}), CFG)
    assert set(trace.cell_outputs) == {addr(0, 0)}
    direct = render_oscillator(OSC, CFG)
    np.testing.assert_allclose(trace.output.values, direct.values / 2, atol=1e-15)


# processor kind -> its parameters; every input but the tremolo's LFO is off
SILENT_PROCESSORS = {
    "mix": {},
    "lowpass": {"cutoff": 1000.0},
    "adsr": {"attack": 0.1, "decay": 0.1, "sustain": 0.5, "release": 0.1},
    "tremolo": {"depth": 0.5},
}


@pytest.mark.parametrize("kind", sorted(SILENT_PROCESSORS))
def test_processor_with_all_inactive_inputs_outputs_zeros(kind):
    # A silent processor emits constant zeros, so nothing it holds joins
    # the tape; a silent match branch freezes only because of this.
    cells = [Cell(addr(0, 0), "osc"), Cell(addr(0, 1), kind)]
    connections = [Connection(addr(0, 0), addr(0, 1))]
    values = {addr(0, 0): dict(OSC, active="off")}
    if kind == "tremolo":
        cells.append(Cell(addr(1, 0), "lfo"))
        connections.append(Connection(addr(1, 0), addr(0, 1)))
        values[addr(1, 0)] = {"freq": 5.0, "active": "on"}
    chain = ChainSpec("c", tuple(cells), tuple(connections))
    tape = ad.Tape()
    values[addr(0, 1)] = {
        name: tape.parameter(value, name) for name, value in SILENT_PROCESSORS[kind].items()
    }
    trace = generate_signal(chain, from_cells(values), CFG)
    for signal in (trace.cell_outputs[addr(0, 1)], trace.output):
        assert not signal.values.any()
        assert signal.samples.node is None


def test_duplicated_final_cell_preserves_output():
    base = ChainSpec(
        "c",
        (Cell(addr(0, 0), "osc"), Cell(addr(0, 1), "lowpass")),
        (Connection(addr(0, 0), addr(0, 1)),),
    )
    doubled = ChainSpec(
        "c",
        base.cells + (Cell(addr(1, 1), "lowpass"),),
        base.connections + (Connection(addr(0, 0), addr(1, 1)),),
    )
    values = {addr(0, 0): dict(OSC), addr(0, 1): {"cutoff": 2000.0}}
    out_a = generate_signal(base, from_cells(values), CFG).output
    values2 = dict(values)
    values2[addr(1, 1)] = {"cutoff": 2000.0}
    out_b = generate_signal(doubled, from_cells(values2), CFG).output
    np.testing.assert_allclose(out_a.values, out_b.values, atol=1e-15)


def test_an_invalid_chain_never_reaches_generate_signal():
    with pytest.raises(ChainValidationError, match="mix cell"):
        generate_signal(
            ChainSpec("c", (Cell(addr(0, 1), "mix"),), ()),
            from_cells({addr(0, 1): {}}),
            CFG,
        )


def test_generate_rejects_incomplete_assignment():
    chain = ChainSpec("c", _single(), ())
    cases = [
        ({(addr(0, 0), "amp"): 1.0},
         "missing parameter(s) (0,0).active, (0,0).freq, (0,0).waveform"),
        ({**from_cells({addr(0, 0): OSC}).params, (addr(0, 0), "phase"): 0.0},
         "unknown parameter(s) (0,0).phase"),
        ({}, "missing parameter(s) (0,0).active, (0,0).amp, (0,0).freq, (0,0).waveform"),
    ]
    for params, message in cases:
        with pytest.raises(AssignmentError, match=re.escape(f"chain 'c': {message}")):
            generate_signal(chain, ParameterAssignment(params), CFG)


def test_generate_rejects_parameters_for_a_cell_the_chain_lacks():
    chain = ChainSpec("c", (Cell(addr(0, 0), "osc"), Cell(addr(1, 0), "empty")), ())
    for extra in (addr(5, 5), addr(1, 0)):
        values = {addr(0, 0): dict(OSC), extra: dict(OSC)}
        names = ", ".join(f"{extra}.{n}" for n in ("active", "amp", "freq", "waveform"))
        with pytest.raises(AssignmentError, match=re.escape(f"unknown parameter(s) {names}")):
            generate_signal(chain, from_cells(values), CFG)


def test_generate_names_missing_and_unknown_parameters_together():
    params = dict(basic_assignment().params)
    params[addr(0, 1), "level"] = 1.0  # the mix cell has no parameters
    del params[addr(0, 2), "attack"]
    with pytest.raises(AssignmentError, match=re.escape(
        "chain 'basic': missing parameter(s) (0,2).attack; unknown parameter(s) (0,1).level"
    )):
        generate_signal(parse_chain_file(BASIC_CHAIN), ParameterAssignment(params), CFG)


# cells declared out of address order, with an empty cell and a mix cell
TABLE_CHAIN = ChainSpec(
    "table",
    (
        Cell(addr(1, 0), "lfo"),
        Cell(addr(2, 0), "empty"),
        Cell(addr(0, 2), "mix"),
        Cell(addr(0, 1), "tremolo"),
        Cell(addr(0, 0), "osc"),
    ),
    (
        Connection(addr(0, 0), addr(0, 1)),
        Connection(addr(1, 0), addr(0, 1)),
        Connection(addr(0, 1), addr(0, 2)),
    ),
)


def test_params_table_lists_each_parameter_once_in_address_order():
    # neither the empty nor the mix cell adds a key; within a cell the
    # continuous parameters come first, each group in catalog order
    assert list(TABLE_CHAIN.params) == [
        (addr(0, 0), "amp"),
        (addr(0, 0), "freq"),
        (addr(0, 0), "waveform"),
        (addr(0, 0), "active"),
        (addr(0, 1), "depth"),
        (addr(1, 0), "freq"),
        (addr(1, 0), "active"),
    ]
    kinds = TABLE_CHAIN.module_cells
    for (address, name), param in TABLE_CHAIN.params.items():
        catalog = CATALOG[kinds[address]]
        assert param in catalog.continuous + catalog.categorical
        assert param.name == name
    assert TABLE_CHAIN.params is TABLE_CHAIN.params  # built once per chain


def test_params_table_travels_with_a_pickled_chain():
    chain = parse_chain_file(BASIC_CHAIN)
    table = chain.params
    copy = pickle.loads(pickle.dumps(chain))
    assert copy == chain
    assert vars(copy)["params"] == table


# declared out of render order, with an empty cell in the last layer
SHUFFLED_CHAIN = """chain shuffled
cell 1 2 empty
cell 0 2 mix
cell 0 1 mix
cell 1 0 osc
cell 0 0 osc
connect 1,0 -> 0,1
connect 0,0 -> 0,1
connect 0,1 -> 0,2
connect 1,0 -> 0,2
"""


def test_inputs_list_cells_and_their_sources_in_layer_then_channel_order():
    chain = parse_chain_file(SHUFFLED_CHAIN)
    assert list(chain.inputs) == [addr(0, 0), addr(1, 0), addr(0, 1), addr(0, 2), addr(1, 2)]
    sources = {a: [c.source for c in conns] for a, conns in chain.inputs.items()}
    assert sources[addr(0, 1)] == [addr(0, 0), addr(1, 0)]
    assert sources[addr(0, 2)] == [addr(1, 0), addr(0, 1)]
    assert sources[addr(0, 0)] == sources[addr(1, 0)] == sources[addr(1, 2)] == []
    assert chain.inputs is chain.inputs  # built once per chain
    cells = {addr(0, 0): dict(OSC), addr(1, 0): dict(OSC2), addr(0, 1): {}, addr(0, 2): {}}
    trace = generate_signal(chain, from_cells(cells), CFG)
    assert set(trace.cell_outputs) == set(cells)
    # the final layer's empty cell is averaged in as silence
    mixed = trace.cell_outputs[addr(0, 2)].values
    np.testing.assert_array_equal(trace.output.values, mixed * 0.5)
    assert np.abs(mixed).max() > 0.1


def test_per_cell_values_are_a_read_only_view_of_params():
    assignment = basic_assignment()
    view = assignment.values
    with pytest.raises(TypeError):
        view[addr(0, 0)]["amp"] = 0.0
    with pytest.raises(TypeError):
        view[addr(0, 0)] = {}
    assert view[addr(0, 0)]["amp"] == assignment.params[addr(0, 0), "amp"]
    assert dict(view[addr(0, 0)]) == {
        name: v for (a, name), v in assignment.params.items() if a == addr(0, 0)
    }


def test_fm_chain_with_lfo_modulator():
    chain = ChainSpec(
        "c",
        (Cell(addr(0, 0), "lfo"), Cell(addr(0, 1), "fm_osc")),
        (Connection(addr(0, 0), addr(0, 1)),),
    )
    assignment = from_cells(
        {
            addr(0, 0): {"freq": 5.0, "active": "on"},
            addr(0, 1): {
                "amp_c": 1.0,
                "freq_c": 440.0,
                "mod_index": 10.0,
                "waveform": "sine",
                "fm_active": "on",
            },
        }
    )
    trace = generate_signal(chain, assignment, CFG)
    t = CFG.times()
    phase = 2 * np.pi * 440.0 * t + (
        2 * np.pi * 10.0 / CFG.sample_rate
    ) * np.cumsum(np.sin(2 * np.pi * 5.0 * t))
    np.testing.assert_allclose(trace.output.values, np.sin(phase), atol=1e-10)


def test_tremolo_chain_routes_lfo_and_audio():
    chain = ChainSpec(
        "c",
        (
            Cell(addr(0, 0), "osc"),
            Cell(addr(1, 0), "lfo"),
            Cell(addr(0, 1), "tremolo"),
        ),
        (Connection(addr(0, 0), addr(0, 1)), Connection(addr(1, 0), addr(0, 1))),
    )
    assignment = from_cells(
        {
            addr(0, 0): dict(OSC),
            addr(1, 0): {"freq": 4.0, "active": "on"},
            addr(0, 1): {"depth": 0.7},
        }
    )
    trace = generate_signal(chain, assignment, CFG)
    carrier = render_oscillator(OSC, CFG).values
    lfo = np.sin(2 * np.pi * 4.0 * CFG.times())
    expected = carrier * ((1 - 0.7) + 0.7 * (lfo + 1) / 2)
    np.testing.assert_allclose(trace.output.values, expected, atol=1e-12)


def test_generation_deterministic():
    chain = parse_chain_file(BASIC_CHAIN)
    a = generate_signal(chain, basic_assignment(), CFG).output.values
    b = generate_signal(chain, basic_assignment(), CFG).output.values
    np.testing.assert_array_equal(a, b)


def test_chain_end_to_end_gradients_match_fd():
    chain = parse_chain_file(BASIC_CHAIN)
    cfg = RenderConfig(duration=0.25)

    def f(p):
        values = {
            addr(0, 0): {
                "amp": p["amp0"],
                "freq": p["freq0"],
                "waveform": "saw",
                "active": "on",
            },
            addr(1, 0): {
                "amp": p["amp1"],
                "freq": 660.0,
                "waveform": "sine",
                "active": "on",
            },
            addr(0, 1): {},
            addr(0, 2): {
                "attack": p["attack"],
                "decay": 0.05211,
                "sustain": p["sustain"],
                "release": 0.04733,
            },
            addr(0, 3): {"cutoff": p["cutoff"]},
        }
        trace = generate_signal(chain, from_cells(values), cfg)
        return ad.bsum(trace.output.samples * trace.output.samples)

    errors = ad.finite_difference_check(
        f,
        {
            "amp0": 0.7,
            "freq0": 441.3,
            "amp1": 0.5,
            "attack": 0.08137,
            "sustain": 0.6,
            "cutoff": 2000.0,
        },
        step={
            "amp0": 1e-6,
            "freq0": 1e-6,
            "amp1": 1e-6,
            "attack": 1e-6,
            "sustain": 1e-6,
            "cutoff": 1e-4,
        },
    )
    assert max(errors.values()) < 1e-3


# -- optional resolution ---------------------------------------------------------


def _optional_fm_chain():
    return ChainSpec(
        "c",
        (Cell(addr(0, 0), "lfo"), Cell(addr(0, 1), "fm_osc")),
        (Connection(addr(0, 0), addr(0, 1), optional=True),),
    )


def test_resolve_without_optional_is_identity():
    chain = parse_chain_file(BASIC_CHAIN)
    connections_on, forced = resolve_optional(chain, np.random.default_rng(0))
    assert all(connections_on.values())
    assert forced == {}


def test_resolve_deterministic_per_seed():
    chain = _optional_fm_chain()
    a = resolve_optional(chain, np.random.default_rng(7))
    b = resolve_optional(chain, np.random.default_rng(7))
    assert a == b


def test_resolve_probability_near_half():
    chain = _optional_fm_chain()
    conn = chain.connections[0]
    on = sum(
        resolve_optional(chain, np.random.default_rng(i))[0][conn]
        for i in range(1000)
    )
    assert 450 <= on <= 550


def test_resolve_forces_fm_bypass_when_modulator_dropped():
    chain = _optional_fm_chain()
    conn = chain.connections[0]
    saw_off = False
    for i in range(50):
        connections_on, forced = resolve_optional(chain, np.random.default_rng(i))
        if not connections_on[conn]:
            saw_off = True
            assert forced == {(addr(0, 1), "fm_active"): "off"}
        else:
            assert forced == {}
    assert saw_off


def test_resolve_keeps_arity_critical_connection():
    chain = ChainSpec(
        "c",
        (Cell(addr(0, 0), "osc"), Cell(addr(0, 1), "lowpass")),
        (Connection(addr(0, 0), addr(0, 1), optional=True),),
    )
    conn = chain.connections[0]
    for i in range(30):
        connections_on, _ = resolve_optional(chain, np.random.default_rng(i))
        assert connections_on[conn]


def test_resolve_turns_both_optional_tremolo_inputs_on():
    # a valid tremolo has exactly two inputs, so the arity repair alone
    # restores its LFO
    chain = ChainSpec(
        "c",
        (Cell(addr(0, 0), "lfo"), Cell(addr(1, 0), "osc"), Cell(addr(0, 1), "tremolo")),
        (
            Connection(addr(0, 0), addr(0, 1), optional=True),
            Connection(addr(1, 0), addr(0, 1), optional=True),
        ),
    )
    values = {
        addr(0, 0): {"freq": 5.0, "active": "on"},
        addr(1, 0): {"amp": 1.0, "freq": 440.0, "waveform": "sine", "active": "on"},
        addr(0, 1): {"depth": 0.5},
    }
    for i in range(50):
        connections_on, forced = resolve_optional(chain, np.random.default_rng(i))
        assert all(connections_on[c] for c in chain.connections)
        assert forced == {}
    trace = generate_signal(chain, from_cells(values, connections_on), CFG)
    assert np.abs(trace.output.values).max() > 0.1


def test_resolved_off_connection_drops_input():
    chain = _optional_fm_chain()
    conn = chain.connections[0]
    values = {
        addr(0, 0): {"freq": 5.0, "active": "on"},
        addr(0, 1): {
            "amp_c": 1.0,
            "freq_c": 440.0,
            "mod_index": 10.0,
            "waveform": "sine",
            "fm_active": "off",
        },
    }
    off = from_cells(values, {conn: False})
    trace = generate_signal(chain, off, CFG)
    plain = np.sin(2 * np.pi * 440.0 * CFG.times())
    np.testing.assert_allclose(trace.output.values, plain, atol=1e-12)
