"""Random dataset generation: sampled assignments, rendered WAVs, metadata.

A generated dataset directory looks like::

    out_dir/
      chain.txt        # the chain in its line grammar
      metadata.jsonl   # one JSON record per line, in index order
      000000.wav ...   # one mono float32 WAV per record

Every record derives its own generator from the master seed with a
counter-based split (``SeedSequence(seed, spawn_key=(index,))``), so
record k comes out the same whether generated alone, as part of a batch
of 10, or a batch of 10,000 — and batches can render records in
parallel without changing the result.
"""

from __future__ import annotations

import functools
import json
import logging
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Mapping

import numpy as np

from .audio import RenderConfig, Signal, fan_out, write_wav
from .chains import (
    CellAddress,
    ChainSpec,
    ParameterAssignment,
    format_chain,
    generate_signal,
    resolve_optional,
)
from .modules import SHARED_DURATION, ContinuousParam, check_lowpass_length, from_unit

__all__ = [
    "DatasetFormatError",
    "DatasetRecord",
    "assignment_payload",
    "generate_dataset",
    "load_records",
    "parse_assignment",
    "record_rng",
    "render_record",
    "sample_assignment",
    "sample_record",
]

log = logging.getLogger(__name__)

METADATA_NAME = "metadata.jsonl"
CHAIN_NAME = "chain.txt"


class DatasetFormatError(ValueError):
    """metadata.jsonl contents do not match the chain or the schema."""


@dataclass(frozen=True)
class DatasetRecord:
    """Ground truth for one rendered sound.

    ``(seed, index)`` replays the record exactly: they rebuild the
    per-record generator, which redraws the same connections and values.
    ``clipped`` counts the samples its WAV clipped to [-1, 1].
    """

    index: int
    seed: int
    assignment: ParameterAssignment
    wav_name: str
    clipped: int = 0


def record_rng(seed: int, index: int) -> np.random.Generator:
    """Per-record generator, independent of batch size and render order."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))


def sample_assignment(
    chain: ChainSpec,
    rng: np.random.Generator,
    render_config: RenderConfig = RenderConfig(),
) -> ParameterAssignment:
    """Draw one full random assignment for ``chain``: optional connections
    first, then one walk of its parameter table, in table order.

    Categorical labels are uniform.  Continuous parameters are uniform over
    their catalog range on its scale (:func:`modules.from_unit`), so
    log-scaled ones give every octave equal mass.  The parameters that
    share the render duration (``modules.SHARED_DURATION``: the ADSR attack,
    decay and release) are drawn together when the walk reaches their
    cell's first, as the spacings of that many sorted uniform draws over
    the duration: one draw, uniform over every set of times that fits it.
    Forced activation states override the sampled labels.
    """
    connections_on, forced = resolve_optional(chain, rng)
    kinds = chain.module_cells
    params: dict = {}
    for key, spec in chain.params.items():
        address, name = key
        shared = SHARED_DURATION[kinds[address]]
        if key in params:  # a segment drawn with its cell's first
            continue
        if not isinstance(spec, ContinuousParam):
            params[key] = spec.choices[int(rng.integers(len(spec.choices)))]
        elif name in shared:
            cuts = np.sort(rng.random(len(shared))) * render_config.duration
            segments = np.diff(cuts, prepend=0.0).tolist()
            params.update(((address, n), t) for n, t in zip(shared, segments))
        else:
            params[key] = float(from_unit(spec, rng.random(), render_config))
    params.update(forced)
    return ParameterAssignment(params, connections_on)


def sample_record(
    chain: ChainSpec,
    seed: int,
    index: int,
    render_config: RenderConfig = RenderConfig(),
) -> DatasetRecord:
    """Record ``index`` of the dataset keyed by ``seed``."""
    assignment = sample_assignment(chain, record_rng(seed, index), render_config)
    return DatasetRecord(index, seed, assignment, f"{index:06d}.wav")


def render_record(
    chain: ChainSpec,
    record: DatasetRecord,
    render_config: RenderConfig = RenderConfig(),
) -> Signal:
    return generate_signal(chain, record.assignment, render_config).output


def assignment_payload(chain: ChainSpec, assignment: ParameterAssignment) -> dict:
    """JSON-ready dict with ``connections`` and ``params`` keys."""
    connections = [
        {
            "source": [c.source.channel, c.source.layer],
            "dest": [c.dest.channel, c.dest.layer],
            "optional": c.optional,
            "on": assignment.connection_on(c),
        }
        for c in chain.connections
    ]
    params = {f"{a.channel},{a.layer}": {} for a in sorted(chain.module_cells)}
    for (address, name), value in sorted(assignment.params.items()):
        params[f"{address.channel},{address.layer}"][name] = value
    return {"connections": connections, "params": params}


def parse_assignment(chain: ChainSpec, payload: Mapping) -> ParameterAssignment:
    """Inverse of :func:`assignment_payload`.

    ``params`` names every module cell of the chain and no other cell, and
    its values must cover the chain's parameter table
    (:meth:`ChainSpec.check_assignment`).  ``connections`` may be absent,
    which keeps every connection on; a list names every declared
    connection exactly once, and only an optional one may be off.
    """
    try:
        keys: dict = {}
        for key in payload["params"]:
            if (first := keys.setdefault(CellAddress.parse(key), key)) != key:
                raise DatasetFormatError(f"params keys {first!r} and {key!r} name the same cell")
        cells = {a: dict(payload["params"][k]) for a, k in keys.items()}
        kinds = chain.module_cells
        extra = cells.keys() - kinds.keys()
        if extra:
            raise DatasetFormatError(
                f"parameters assigned to {', '.join(sorted(map(str, extra)))}, "
                "where the chain has no module cell"
            )
        missing = sorted(kinds.keys() - cells.keys())
        if missing:
            where = ", ".join(f"cell {a} ({kinds[a]})" for a in missing)
            raise DatasetFormatError(f"{where}: no parameters assigned")
        params = {(a, name): value for a, p in cells.items() for name, value in p.items()}
        connections_on = None
        if "connections" in payload:
            lookup = {(c.source, c.dest): c for c in chain.connections}
            connections_on = {}
            for entry in payload["connections"]:
                ends = (CellAddress(*entry["source"]), CellAddress(*entry["dest"]))
                where, conn = f"connection {ends[0]} -> {ends[1]}", lookup.get(ends)
                if conn is None:
                    raise DatasetFormatError(f"{where} not declared by the chain")
                if conn in connections_on:
                    raise DatasetFormatError(f"{where} listed twice")
                on = entry["on"]
                if not isinstance(on, bool):
                    raise DatasetFormatError(f"{where}: 'on' must be true or false, got {on!r}")
                if not (on or conn.optional):
                    raise DatasetFormatError(f"{where} is not optional; it cannot be switched off")
                connections_on[conn] = on
            for c in chain.connections:
                if c not in connections_on:
                    raise DatasetFormatError(f"connection {c.source} -> {c.dest} not listed")
    except DatasetFormatError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise DatasetFormatError(f"malformed assignment payload: {exc}") from exc
    assignment = ParameterAssignment(params, connections_on)
    chain.check_assignment(assignment)
    return assignment


def _record_to_json(chain: ChainSpec, record: DatasetRecord) -> str:
    payload = assignment_payload(chain, record.assignment)
    payload.update(index=record.index, seed=record.seed, wav=record.wav_name)
    if record.clipped:
        payload["clipped"] = record.clipped
    return json.dumps(payload, sort_keys=True)


def _record_from_json(chain: ChainSpec, line: str, lineno: int) -> DatasetRecord:
    try:
        payload = json.loads(line)
        return DatasetRecord(
            int(payload["index"]),
            int(payload["seed"]),
            parse_assignment(chain, payload),
            str(payload["wav"]),
            int(payload.get("clipped", 0)),
        )
    except (KeyError, TypeError, ValueError) as exc:  # DatasetFormatError among them
        raise DatasetFormatError(f"metadata line {lineno}: {exc}") from exc


def load_records(chain: ChainSpec, path) -> list:
    """Parse a metadata.jsonl written by generate_dataset."""
    records = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            if line.strip():
                records.append(_record_from_json(chain, line, lineno))
    return records


def _make_record(
    index: int, *, chain: ChainSpec, seed: int, render_config: RenderConfig, out_dir: str
) -> DatasetRecord:
    record = sample_record(chain, seed, index, render_config)
    audio = render_record(chain, record, render_config)
    clipped = write_wav(audio, Path(out_dir) / record.wav_name)
    return replace(record, clipped=clipped) if clipped else record


def generate_dataset(
    chain: ChainSpec,
    n: int,
    seed: int,
    out_dir,
    render_config: RenderConfig = RenderConfig(),
    jobs: int = 1,
) -> list:
    """Sample and render ``n`` records into ``out_dir``.

    Writes ``chain.txt``, one WAV per record, and ``metadata.jsonl`` (in
    index order); the line of a record whose WAV clipped gives the count
    as ``clipped``.  Failures partway through leave the files already
    written; the warning log line says which directory to clean up.
    """
    if any(cell.kind == "lowpass" for cell in chain.cells):
        # a record whose sources are all off skips the low-pass, so check
        # before any record is written rather than by the draw
        check_lowpass_length(render_config.num_samples)
    if n < 0:
        raise ValueError(f"record count must be >= 0, got {n}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    out = Path(out_dir)
    make_record = functools.partial(
        _make_record, chain=chain, seed=seed, render_config=render_config, out_dir=str(out)
    )
    try:
        out.mkdir(parents=True, exist_ok=True)
        (out / CHAIN_NAME).write_text(format_chain(chain), encoding="utf-8")
        records = fan_out(make_record, range(n), jobs)
        with open(out / METADATA_NAME, "w", encoding="utf-8") as handle:
            for record in records:
                handle.write(_record_to_json(chain, record) + "\n")
    except OSError as exc:
        log.warning("dataset generation aborted, partial output left in %s: %s", out, exc)
        raise
    return records
