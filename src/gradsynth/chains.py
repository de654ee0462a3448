"""Cell-matrix chain definitions: parsing, validation, and layer-ordered
sound generation.

A chain is a 2-D matrix of cells addressed by (channel, layer).  Cells
host at most one module; connections only run from lower to strictly
higher layers.  A :class:`ChainSpec` checks this when it is built, so
every chain that exists is valid, and lists its parameters once, in
:attr:`ChainSpec.params`, and its render order once, in
:attr:`ChainSpec.inputs`; an assignment covers exactly the table.
Generation walks cells in that (layer, channel) order and averages the
final layer's cell outputs across channels.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, NamedTuple, Optional, Sequence

import numpy as np

from gradsynth.audio import RenderConfig, Signal, zeros
from gradsynth.modules import (
    CATALOG,
    MissingInputError,
    apply_adsr,
    apply_lowpass,
    apply_tremolo,
    mix,
    render_fm_oscillator,
    render_lfo,
    render_oscillator,
)

__all__ = [
    "AssignmentError",
    "Cell",
    "CellAddress",
    "ChainParseError",
    "ChainSpec",
    "ChainValidationError",
    "Connection",
    "ParameterAssignment",
    "RenderTrace",
    "Violation",
    "format_chain",
    "generate_signal",
    "parse_chain_file",
    "resolve_optional",
]

CELL_KINDS = tuple(CATALOG) + ("empty",)


class ChainParseError(ValueError):
    """Chain file text violates the grammar; carries the offending line."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class ChainValidationError(ValueError):
    """A :class:`ChainSpec` was built from structurally invalid parts."""

    def __init__(self, violations: Sequence["Violation"]):
        super().__init__("; ".join(v.message for v in violations))
        self.violations = tuple(violations)


class AssignmentError(ValueError):
    """An assignment's keys are not exactly the chain's parameter table."""


class CellAddress(NamedTuple):
    channel: int
    layer: int

    def __str__(self):
        return f"({self.channel},{self.layer})"

    @classmethod
    def parse(cls, text: str) -> "CellAddress":
        """``'<ch>,<ly>'`` -> the address; a ValueError says what is malformed."""
        parts = text.split(",")
        if len(parts) != 2:
            raise ValueError(f"malformed address {text!r}; expected <ch>,<ly>")
        try:
            channel, layer = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(
                f"malformed address {text!r}; channel and layer must be integers"
            ) from None
        if channel < 0 or layer < 0:
            raise ValueError(f"malformed address {text!r}; indices must be >= 0")
        return cls(channel, layer)


@dataclass(frozen=True)
class Connection:
    source: CellAddress
    dest: CellAddress
    optional: bool = False


@dataclass(frozen=True)
class Cell:
    address: CellAddress
    kind: str


@dataclass(frozen=True)
class ChainSpec:
    """A structurally valid chain; building an invalid one raises
    :class:`ChainValidationError` with every violation found."""

    name: str
    cells: tuple
    connections: tuple

    def __post_init__(self) -> None:
        violations = _validate(self)
        if violations:
            raise ChainValidationError(violations)

    @functools.cached_property
    def module_cells(self) -> dict:
        """``CellAddress`` -> kind of every module (not ``empty``) cell, in
        address order, which every per-cell listing follows.  Read-only."""
        return dict(sorted((c.address, c.kind) for c in self.cells if c.kind != "empty"))

    @functools.cached_property
    def params(self) -> dict:
        """``(CellAddress, name)`` -> catalog entry of every parameter of
        the chain: cells in address order, each cell's continuous then its
        categorical parameters, in catalog order.  Read-only; a plain dict,
        so it travels with the chain to worker processes."""
        return {
            (address, param.name): param
            for address, kind in self.module_cells.items()
            for param in CATALOG[kind].continuous + CATALOG[kind].categorical
        }

    def check_assignment(self, assignment: ParameterAssignment) -> None:
        """Raise :class:`AssignmentError` unless the keys of
        ``assignment.params`` are exactly those of ``params``."""
        table, given = self.params.keys(), assignment.params.keys()
        if given == table:
            return
        wrong = [
            f"{what} parameter(s) {', '.join(sorted(f'{a}.{n}' for a, n in keys))}"
            for keys, what in ((table - given, "missing"), (given - table, "unknown"))
            if keys
        ]
        raise AssignmentError(f"chain {self.name!r}: {'; '.join(wrong)}")

    @functools.cached_property
    def inputs(self) -> dict:
        """``CellAddress`` -> tuple of the connections into it, for every
        cell; the cells, and each cell's sources, in (layer, channel)
        order, the render order.  Read-only, like ``params``."""

        def order(address: CellAddress) -> tuple:
            return address.layer, address.channel

        inputs: dict = {a: [] for a in sorted((c.address for c in self.cells), key=order)}
        for conn in sorted(self.connections, key=lambda c: order(c.source)):
            if conn.dest in inputs:
                inputs[conn.dest].append(conn)
        return {a: tuple(conns) for a, conns in inputs.items()}


@dataclass(frozen=True)
class Violation:
    code: str
    message: str


@dataclass(frozen=True)
class ParameterAssignment:
    """One row of a chain's parameter table plus resolved optional-connection
    states.

    ``params`` maps ``(CellAddress, name)`` -> value, with exactly the keys
    of :attr:`ChainSpec.params`.  ``connections_on`` maps every declared
    Connection -> bool; None keeps every connection on (the all-fixed
    interpretation).
    """

    params: Mapping
    connections_on: Optional[Mapping] = None

    @property
    def values(self) -> Mapping:
        """``CellAddress`` -> read-only ``{name: value}`` of every cell that
        has parameters, for the module renderers; built on each read."""
        cells: dict = {}
        for (address, name), value in self.params.items():
            cells.setdefault(address, {})[name] = value
        return MappingProxyType({a: MappingProxyType(p) for a, p in cells.items()})

    def connection_on(self, conn: Connection) -> bool:
        return self.connections_on is None or self.connections_on[conn]


@dataclass(frozen=True)
class RenderTrace:
    """Output of every non-empty cell, in address order, and the final mix."""

    cell_outputs: Mapping
    output: Signal


def _parse_address(token: str, line: int) -> CellAddress:
    try:
        return CellAddress.parse(token)
    except ValueError as exc:
        raise ChainParseError(line, str(exc)) from None


def parse_chain_file(text: str) -> ChainSpec:
    """Parse the line-oriented chain grammar.

    Statements: ``chain <name>``, ``cell <ch> <ly> <kind>``,
    ``connect <ch>,<ly> -> <ch>,<ly> [optional]``.  '#' starts a comment.
    Grammar errors raise :class:`ChainParseError` with their line; a
    chain that parses but is structurally invalid raises
    :class:`ChainValidationError` as it is built.
    """
    name = None
    cells: list = []
    seen: dict = {}
    connections: list = []
    connection_lines: list = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stmt = raw.split("#", 1)[0].strip()
        if not stmt:
            continue
        tokens = stmt.split()
        head = tokens[0]
        if head == "chain":
            if name is not None:
                raise ChainParseError(lineno, "chain already declared")
            if len(tokens) != 2:
                raise ChainParseError(lineno, "expected: chain <name>")
            name = tokens[1]
        elif head == "cell":
            if name is None:
                raise ChainParseError(lineno, "cell before chain declaration")
            if len(tokens) != 4:
                raise ChainParseError(lineno, "expected: cell <channel> <layer> <kind>")
            address = _parse_address(f"{tokens[1]},{tokens[2]}", lineno)
            kind = tokens[3]
            if kind not in CELL_KINDS:
                raise ChainParseError(
                    lineno,
                    f"unknown module kind {kind!r}; expected one of {', '.join(CELL_KINDS)}",
                )
            if address in seen:
                raise ChainParseError(
                    lineno, f"duplicate cell {address} (first declared on line {seen[address]})"
                )
            seen[address] = lineno
            cells.append(Cell(address, kind))
        elif head == "connect":
            if name is None:
                raise ChainParseError(lineno, "connect before chain declaration")
            if len(tokens) not in (4, 5) or tokens[2] != "->":
                raise ChainParseError(
                    lineno, "expected: connect <ch>,<ly> -> <ch>,<ly> [optional]"
                )
            optional = False
            if len(tokens) == 5:
                if tokens[4] != "optional":
                    raise ChainParseError(
                        lineno, f"unexpected token {tokens[4]!r}; expected 'optional'"
                    )
                optional = True
            source = _parse_address(tokens[1], lineno)
            dest = _parse_address(tokens[3], lineno)
            connections.append(Connection(source, dest, optional))
            connection_lines.append(lineno)
        else:
            raise ChainParseError(
                lineno, f"unknown directive {head!r}; expected chain, cell, or connect"
            )
    if name is None:
        raise ChainParseError(0, "no chain declared")
    declared = set(seen)
    for conn, lineno in zip(connections, connection_lines):
        for end, label in ((conn.source, "source"), (conn.dest, "destination")):
            if end not in declared:
                raise ChainParseError(
                    lineno, f"dangling connection: {label} cell {end} not declared"
                )
    return ChainSpec(name, tuple(cells), tuple(connections))


def format_chain(chain: ChainSpec) -> str:
    """Render a chain back to the line grammar. parse(format(c)) == c."""
    lines = [f"chain {chain.name}"]
    for cell in chain.cells:
        lines.append(f"cell {cell.address.channel} {cell.address.layer} {cell.kind}")
    for conn in chain.connections:
        suffix = " optional" if conn.optional else ""
        lines.append(
            f"connect {conn.source.channel},{conn.source.layer}"
            f" -> {conn.dest.channel},{conn.dest.layer}{suffix}"
        )
    return "\n".join(lines) + "\n"


def _validate(chain: ChainSpec) -> list:
    """Collect structural violations; an empty list means the chain is valid."""
    violations: list = []

    def flag(code: str, message: str) -> None:
        violations.append(Violation(code, message))

    if not chain.cells:
        flag("no_cells", "chain declares no cells")
        return violations
    cmap: dict = {}
    for cell in chain.cells:
        addr = cell.address
        if addr.channel < 0 or addr.layer < 0:
            flag("bad_address", f"cell {addr} has negative indices")
        if addr in cmap:
            flag("cell_occupied", f"cell {addr} hosts more than one module")
        if cell.kind not in CELL_KINDS:
            flag("unknown_kind", f"cell {addr} has unknown kind {cell.kind!r}")
        cmap.setdefault(addr, cell.kind)
    seen_conns: set = set()
    for conn in chain.connections:
        where = f"connection {conn.source}->{conn.dest}"
        dangling = False
        for end, label in ((conn.source, "source"), (conn.dest, "destination")):
            if end not in cmap:
                flag("dangling_connection", f"{where}: {label} {end} not declared")
                dangling = True
        if not dangling and conn.source.layer >= conn.dest.layer:
            flag("backward_connection", f"{where} does not advance layers")
        key = (conn.source, conn.dest)
        if key in seen_conns:
            flag("duplicate_connection", f"{where} declared twice")
        seen_conns.add(key)
    for address, incoming in chain.inputs.items():
        kind = cmap[address]
        if kind not in CATALOG:  # empty, or an unknown kind flagged above
            continue
        cat = CATALOG[kind]
        sources = [c.source for c in incoming if c.source in cmap]
        count = len(sources)
        if count < cat.min_inputs or (cat.max_inputs is not None and count > cat.max_inputs):
            if cat.max_inputs == 0:
                detail = "accepts no inputs"
            elif cat.max_inputs is None:
                detail = f"requires at least {cat.min_inputs} input(s)"
            elif cat.min_inputs == cat.max_inputs:
                detail = f"requires exactly {cat.min_inputs} input(s)"
            else:
                detail = f"requires {cat.min_inputs}..{cat.max_inputs} input(s)"
            flag("arity", f"{kind} cell {address} {detail}, got {count}")
        if kind == "tremolo" and count == 2:
            lfo_inputs = sum(1 for s in sources if cmap.get(s) == "lfo")
            if lfo_inputs != 1:
                flag(
                    "missing_required_input",
                    f"tremolo cell {address} requires exactly one LFO input "
                    f"and one audio input, got {lfo_inputs} LFO input(s)",
                )
    return violations


def resolve_optional(chain: ChainSpec, rng: np.random.Generator) -> tuple:
    """Draw optional connections on/off (p = 0.5 each) and force consistent
    activation states: ``(connections_on, forced)``, every connection's
    state and the ``(CellAddress, name)`` -> label overrides.

    Draws that would strand a cell below its minimum input arity are
    repaired by re-enabling the dropped optional connections in source
    order, so the resolved chain always renders (a valid tremolo has
    exactly its two inputs, so both come back on, its LFO among them).
    A generator whose modulator connection resolved off is forced to
    bypass (fm_active = "off").
    """
    states = {c: not c.optional or bool(rng.random() < 0.5) for c in chain.connections}
    kinds, forced = chain.module_cells, {}
    for address, incoming in chain.inputs.items():
        kind = kinds.get(address)
        if kind is None:  # an empty cell
            continue
        for conn in incoming:
            if sum(states[c] for c in incoming) >= CATALOG[kind].min_inputs:
                break
            states[conn] = True
        if kind == "fm_osc" and not any(states[c] for c in incoming):
            forced[(address, "fm_active")] = "off"
    return states, forced


def generate_signal(
    chain: ChainSpec, assignment: ParameterAssignment, config: RenderConfig
) -> RenderTrace:
    """Evaluate cells in ascending layer order and average the final layer.

    Inactive sources (switched-off generators, empty cells) emit the zero
    signal.  A processor (a kind that takes at least one input) whose
    audio inputs are all inactive is not rendered and likewise emits
    zeros.  Its audio inputs are its live inputs, except a tremolo's LFO,
    which is a control input.  ``assignment`` must cover the chain's
    parameter table (:meth:`ChainSpec.check_assignment`).
    """
    chain.check_assignment(assignment)
    kinds = chain.module_cells
    values = assignment.values
    outputs: dict = {}
    active: dict = {}
    for addr, incoming in chain.inputs.items():
        kind = kinds.get(addr)
        if kind is None:  # an empty cell
            outputs[addr], active[addr] = zeros(config), False
            continue
        params = values.get(addr, {})
        live = [c.source for c in incoming if assignment.connection_on(c)]
        audio = live
        if kind == "tremolo":
            audio = [s for s in live if kinds.get(s) != "lfo"]
            if len(live) != 2 or len(audio) != 1:
                raise MissingInputError(
                    f"tremolo cell {addr}: needs one live LFO and one audio input"
                )
        if CATALOG[kind].min_inputs and not any(active[s] for s in audio):
            outputs[addr], active[addr] = zeros(config), False
            continue
        in_sigs = [outputs[s] for s in audio]
        if kind == "osc":
            out = render_oscillator(params, config)
        elif kind == "lfo":
            out = render_lfo(params, config)
        elif kind == "fm_osc":
            out = render_fm_oscillator(params, in_sigs[0] if in_sigs else None, config)
        elif kind == "mix":
            out = mix(in_sigs)
        elif kind == "tremolo":
            lfo = next(s for s in live if kinds.get(s) == "lfo")
            out = apply_tremolo(in_sigs[0], outputs[lfo], params)
        elif kind == "lowpass":
            out = apply_lowpass(in_sigs[0], params, config)
        else:
            out = apply_adsr(in_sigs[0], params, config)
        outputs[addr] = out
        # only osc and lfo carry an on/off switch
        active[addr] = params.get("active", "on") == "on"
    last = next(reversed(outputs)).layer  # the walk ends in the final layer
    final = mix([outputs[a] for a in outputs if a.layer == last])
    return RenderTrace({a: outputs[a] for a in kinds}, final)
