"""Command-line entry point: render, dataset, match, sweep, bench, gradcheck.

Exit codes: 0 success; 2 bad input, which is any ValueError (every
gradsynth error about bad input is one) or a missing file; 1 a runtime
failure: an I/O error, an unreadable WAV or out of memory.  Any other
exception is a bug and ends in a traceback.  Logs go to stderr;
machine-readable outputs (WAV/CSV/JSON) go only to the named output
files.

Run configuration is a flat ``key = value`` text file; '#' starts a
comment.  Keys are dotted ``section.field`` names derived from the
fields of :class:`RunConfig`'s sections; README.md, *Run configuration
files*, lists them.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Optional, get_args, get_origin, get_type_hints

import numpy as np

from .audio import AudioIOError, RenderConfig, read_wav, write_wav
from .autodiff import finite_difference_check
from .chains import (
    CellAddress,
    ChainParseError,
    ChainSpec,
    ParameterAssignment,
    generate_signal,
    parse_chain_file,
)
from .datasets import (
    assignment_payload,
    generate_dataset,
    parse_assignment,
    sample_assignment,
)
from .experiments import benchmark_table, export_csv, loss_surface_sweep, swept_spec
from .losses import LossConfig, chain_features, signal_chain_loss
from .matching import OptimizerConfig, match
from .modules import (
    SHARED_DURATION,
    ContinuousParam,
    duration_left,
    duration_used,
    from_unit,
    resolve_range,
)

__all__ = ["ConfigError", "PathsConfig", "RunConfig", "load_run_config", "main"]

log = logging.getLogger("gradsynth")

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2


class ConfigError(ValueError):
    """Run-configuration file is malformed; message names file and key."""


@dataclass(frozen=True)
class PathsConfig:
    """Where a run writes its outputs."""

    out_dir: str = "."


@dataclass(frozen=True)
class RunConfig:
    """Everything a run needs besides its render grid: loss, optimizer
    settings and paths."""

    loss: LossConfig = LossConfig()
    optimizer: OptimizerConfig = OptimizerConfig()
    paths: PathsConfig = PathsConfig()


def _parse_bool(raw: str) -> bool:
    lowered = raw.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    raise ValueError(f"expected true or false, got {raw!r}")


def _parse_schedule(raw: str):
    pairs = []
    for piece in raw.split(","):
        step_text, _, beta_text = piece.partition(":")
        if not _:
            raise ValueError(f"schedule entries are step:beta, got {piece!r}")
        pairs.append((int(step_text), float(beta_text)))
    return tuple(pairs)


# field type -> parser; parsers raise ValueError on bad input
_PARSERS = {
    int: int,
    float: float,
    str: str,
    bool: _parse_bool,
    tuple[tuple[int, float], ...]: _parse_schedule,
}


def _parser_for(hint):
    if hint in _PARSERS:
        return _PARSERS[hint]
    args = get_args(hint)
    if get_origin(hint) is tuple and len(args) == 2 and args[1] is Ellipsis:
        element = _parser_for(args[0])
        return lambda raw: tuple(element(piece.strip()) for piece in raw.split(","))
    raise TypeError(f"no config-file parser for field type {hint!r}")


# dotted key -> parser, one per field of each RunConfig section
CONFIG_FIELDS = {
    f"{section}.{f.name}": _parser_for(get_type_hints(section_type)[f.name])
    for section, section_type in get_type_hints(RunConfig).items()
    for f in fields(section_type)
}


def load_run_config(path) -> RunConfig:
    """Parse a run-config file.

    Raises :class:`ConfigError` naming the offending line and key for
    unknown keys, unparsable values, and out-of-range fields.
    """
    run = RunConfig()
    text = Path(path).read_text(encoding="utf-8")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stmt = raw.split("#", 1)[0].strip()
        if not stmt:
            continue
        key, eq, value = (piece.strip() for piece in stmt.partition("="))
        if not eq or not key:
            raise ConfigError(f"{path} line {lineno}: expected 'key = value', got {stmt!r}")
        parser = CONFIG_FIELDS.get(key)
        if parser is None:
            raise ConfigError(f"{path} line {lineno}: unknown config key {key!r}")
        section, name = key.split(".")
        try:
            updated = replace(getattr(run, section), **{name: parser(value)})
        except ValueError as exc:
            raise ConfigError(f"{path} line {lineno}: {key}: {exc}") from exc
        run = replace(run, **{section: updated})
    return run


# -- shared helpers -------------------------------------------------------------


def _load_chain(path) -> ChainSpec:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise ChainParseError(0, f"{path} is not a text file") from None
    return parse_chain_file(text)


def _load_or_sample_assignment(chain, args, render_config) -> ParameterAssignment:
    if args.params is not None:
        payload = json.loads(Path(args.params).read_text(encoding="utf-8"))
        return parse_assignment(chain, payload)
    rng = np.random.default_rng(args.seed)
    return sample_assignment(chain, rng, render_config)


def _parse_param_key(raw: str) -> tuple:
    """'ch,ly.name' -> (CellAddress, name)."""
    address_text, dot, name = raw.partition(".")
    if not dot or not name:
        raise ValueError(f"expected 'channel,layer.param', got {raw!r}")
    return CellAddress.parse(address_text), name


def _render_flags(parser) -> None:
    defaults = RenderConfig()
    parser.add_argument(
        "--sample-rate", type=int, default=defaults.sample_rate, help="render sample rate (Hz)"
    )
    parser.add_argument(
        "--duration", type=float, default=defaults.duration, help="render length (seconds)"
    )


def _target_flags(parser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--params", help="JSON parameter file (dataset metadata schema)")
    group.add_argument("--random", action="store_true", help="sample parameters randomly")
    parser.add_argument("--seed", type=int, default=0, help="seed for --random")


# -- commands -------------------------------------------------------------------


# The loss of sweep (without --config) and gradcheck: the final output's
# linear spectrogram at one window.
SINGLE_WINDOW_LOSS = LossConfig(cells="output", windows=(1024,), processings=("identity",))


def cmd_render(args) -> int:
    chain = _load_chain(args.chain)
    render_config = RenderConfig(sample_rate=args.sample_rate, duration=args.duration)
    assignment = _load_or_sample_assignment(chain, args, render_config)
    trace = generate_signal(chain, assignment, render_config)
    out = Path(args.out)
    write_wav(trace.output, out)
    log.info("wrote %s (%d samples at %d Hz)", out, len(trace.output), render_config.sample_rate)
    if args.trace:
        for address, signal in sorted(trace.cell_outputs.items()):
            cell_path = out.parent / f"cell_{address.channel}_{address.layer}.wav"
            write_wav(signal, cell_path)
            log.info("wrote %s", cell_path)
    return EXIT_OK


def cmd_dataset(args) -> int:
    chain = _load_chain(args.chain)
    render_config = RenderConfig(sample_rate=args.sample_rate, duration=args.duration)
    records = generate_dataset(
        chain, args.n, args.seed, args.out, render_config=render_config, jobs=args.jobs
    )
    log.info("wrote %d records to %s", len(records), args.out)
    return EXIT_OK


def cmd_match(args) -> int:
    chain = _load_chain(args.chain)
    if args.config is not None:
        run = load_run_config(args.config)
    else:
        run = RunConfig(loss=LossConfig(cells="output"))
    target = read_wav(args.target)
    # the fit renders on the target's own grid
    render_config = RenderConfig(target.sample_rate, len(target) / target.sample_rate)

    loss_cfg = run.loss
    if loss_cfg.cells != "output":
        # a bare WAV exposes only the final signal
        loss_cfg = replace(loss_cfg, cells="output")
        log.info("loss cells forced to 'output' for WAV matching")
    opt_cfg = run.optimizer
    if args.jobs is not None:
        opt_cfg = replace(opt_cfg, jobs=args.jobs)

    result = match(target, chain, loss_cfg, opt_cfg, render_config=render_config)

    out_dir = Path(args.out_dir if args.out_dir is not None else run.paths.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    matched = generate_signal(chain, result.best, render_config)
    write_wav(matched.output, out_dir / "match.wav")
    report = {
        "best": assignment_payload(chain, result.best),
        "final_loss": result.final_loss,
        "final_spectral": result.final_spectral,
        "final_lsd": result.final_lsd,
        "wall_time": result.wall_time,
        "branches": len(result.branches),
        "diverged_branches": list(result.diverged_branches),
    }
    (out_dir / "result.json").write_text(
        json.dumps(report, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    log.info(
        "match done: loss %.6g, lsd %.6g, %.1f s; results in %s",
        result.final_loss,
        result.final_lsd,
        result.wall_time,
        out_dir,
    )
    return EXIT_OK


def cmd_sweep(args) -> int:
    if args.points < 1:
        raise ValueError(f"--points must be >= 1, got {args.points}")
    chain = _load_chain(args.chain)
    render_config = RenderConfig(sample_rate=args.sample_rate, duration=args.duration)
    address, name = _parse_param_key(args.param)
    spec = swept_spec(chain, (address, name))
    target = _load_or_sample_assignment(chain, args, render_config)
    bounds = {"low": args.low, "high": args.high}
    shared = SHARED_DURATION[chain.module_cells[address]]
    if name in shared:
        # an envelope segment shares the duration with the target's other segments
        others = [n for n in shared if n != name]
        budget = duration_left((target.params[(address, n)] for n in others), render_config)
        if bounds["high"] is None:
            bounds["high"] = budget
        elif bounds["high"] > budget:
            raise ValueError(
                f"--high {args.high} exceeds the {budget} s that the target's "
                f"{'+'.join(others)} leave of the {render_config.duration} s duration"
            )
    spec = replace(spec, **{k: v for k, v in bounds.items() if v is not None})
    low, high = resolve_range(spec, render_config)
    if not low < high:
        raise ValueError(f"need low < high, got {low} >= {high}")
    grid = from_unit(spec, np.linspace(0.0, 1.0, args.points), render_config)
    if args.config is not None:
        loss_cfg = load_run_config(args.config).loss
    else:
        loss_cfg = SINGLE_WINDOW_LOSS
    sweep = loss_surface_sweep(chain, target, (address, name), grid, loss_cfg, render_config)
    export_csv(sweep, args.out)
    log.info(
        "swept %s over %d points: %d local minima; wrote %s",
        args.param,
        args.points,
        sweep.local_minima,
        args.out,
    )
    return EXIT_OK


def cmd_bench(args) -> int:
    processing = args.processing.replace("-", "_")
    distance = "epsilon" if args.distance == "epsilon" else float(args.distance)
    rows = benchmark_table(
        (args.waveform,),
        (distance,),
        ((args.transform, processing),),
        trials=args.trials,
        seed=args.seed,
        jobs=args.jobs,
    )
    export_csv(rows, args.out)
    log.info(
        "%s %s+%s at %s: accuracy %.4f over %d trials; wrote %s",
        args.waveform,
        args.transform,
        processing,
        args.distance,
        rows[0].accuracy,
        args.trials,
        args.out,
    )
    return EXIT_OK


# Relative finite-difference steps (fractions of each parameter's scale);
# finite_difference_check applies them all, and each parameter reports its
# smallest error over them.  One fixed step is too coarse where the loss
# curves sharply: for the 14.2 kHz carrier of chains/fm.chain at seed 0
# the error is 7.4e-2, 6.2e-4 and 2.1e-6 at these three steps.
GRADCHECK_REL_STEPS = (1e-6, 1e-7, 1e-8)


def _gradcheck_assignment(chain, seed, render_config) -> ParameterAssignment:
    """Random interior assignment with every code path live and smooth.

    Square and saw render through jump discontinuities, so central
    differences there measure the jumps, not the surrogate gradients the
    optimizer actually uses; sine exercises every smooth path.  All on/off
    switches are pinned on and all connections kept, otherwise
    switched-off cells would leave their parameters without gradients to
    check.
    """
    rng = np.random.default_rng(seed)
    params = dict(sample_assignment(chain, rng, render_config).params)
    kinds = chain.module_cells
    for key, spec in chain.params.items():
        address, name = key
        if isinstance(spec, ContinuousParam):
            low, high = resolve_range(spec, render_config)
            margin = max((high - low) * GRADCHECK_REL_STEPS[0] * 10, 1e-12)
            params[key] = min(max(params[key], low + margin), high - margin)
        elif name == "waveform":
            params[key] = "sine"
        elif spec.choices == ("on", "off"):
            params[key] = "on"
        shared = SHARED_DURATION[kinds[address]]
        if shared and name == shared[-1]:  # the cell's last segment: all are clamped
            # keep the finite-difference steps inside apply_adsr's check
            segments = [(address, n) for n in shared]
            slack = 10 * GRADCHECK_REL_STEPS[0] * render_config.duration * len(segments)
            total = duration_used(params[k] for k in segments)
            limit = render_config.duration - slack
            if total > limit:
                scale = limit / total
                for k in segments:
                    params[k] *= scale
    return ParameterAssignment(params)


def cmd_gradcheck(args) -> int:
    if not (math.isfinite(args.tolerance) and args.tolerance >= 0):
        raise ValueError(f"--tolerance must be finite and >= 0, got {args.tolerance}")
    chain = _load_chain(args.chain)
    render_config = RenderConfig(sample_rate=args.sample_rate, duration=args.duration)
    target = _gradcheck_assignment(chain, args.seed, render_config)
    prediction = _gradcheck_assignment(chain, args.seed + 1, render_config)
    target_trace = generate_signal(chain, target, render_config)
    target_features = chain_features(target_trace, SINGLE_WINDOW_LOSS)

    fields, bases, steps = {}, {}, {}
    for (address, name), spec in chain.params.items():
        if not isinstance(spec, ContinuousParam):
            continue
        key = f"{address.channel},{address.layer}.{name}"
        fields[key] = (address, name)
        bases[key] = prediction.params[(address, name)]
        low, high = resolve_range(spec, render_config)
        # Log-scaled parameters get a step relative to the value: the
        # loss wiggles on a cents scale, so a span-relative step is
        # far too coarse at high frequencies.
        scale = bases[key] if spec.log else high - low
        steps[key] = tuple(max(scale * rel, 1e-12) for rel in GRADCHECK_REL_STEPS)

    def loss(tracked):
        changes = {fields[key]: value for key, value in tracked.items()}
        assignment = replace(prediction, params={**prediction.params, **changes})
        trace = generate_signal(chain, assignment, render_config)
        return signal_chain_loss(trace, target_features, SINGLE_WINDOW_LOSS)

    errors = finite_difference_check(loss, bases, steps)
    worst = max(errors.values(), default=0.0)
    width = max(map(len, errors), default=9)
    print(f"{'parameter':<{width}}  {'value':>12}  {'max rel err':>12}")
    for key, error in errors.items():
        print(f"{key:<{width}}  {bases[key]:>12.6g}  {error:>12.3e}")
    print(f"worst: {worst:.3e} (tolerance {args.tolerance:g})")
    if worst > args.tolerance:
        log.error("gradient check failed: %.3e > %g", worst, args.tolerance)
        return EXIT_RUNTIME
    return EXIT_OK


# -- argument parsing -----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gradsynth",
        description="Differentiable modular synthesizer: render, datasets, "
        "sound matching, loss-surface studies.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    parser.add_argument("-q", "--quiet", action="store_true", help="warnings only")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("render", help="render a chain to WAV")
    p.add_argument("chain", help="chain definition file")
    p.add_argument("--out", required=True, help="output WAV path")
    _target_flags(p)
    _render_flags(p)
    p.add_argument("--trace", action="store_true", help="also write per-cell WAVs")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("dataset", help="generate a random dataset")
    p.add_argument("chain", help="chain definition file")
    p.add_argument("--n", type=int, required=True, help="number of records")
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument("--out", required=True, help="output directory")
    _render_flags(p)
    p.add_argument("--jobs", type=int, default=1, help="parallel render workers")
    p.set_defaults(func=cmd_dataset)

    p = sub.add_parser("match", help="fit chain parameters to a target WAV")
    p.add_argument("target", help="target WAV file")
    p.add_argument("chain", help="chain definition file")
    p.add_argument("--config", help="run configuration file")
    p.add_argument("--out-dir", help="where to write result.json and match.wav")
    p.add_argument("--jobs", type=int, help="parallel branch workers")
    p.set_defaults(func=cmd_match)

    p = sub.add_parser("sweep", help="1-D loss surface along one parameter")
    p.add_argument("chain", help="chain definition file")
    p.add_argument("--param", required=True, help="parameter as 'channel,layer.name'")
    p.add_argument("--points", type=int, default=500, help="grid size")
    p.add_argument("--low", type=float, help="grid start (default: catalog range)")
    p.add_argument("--high", type=float, help="grid end (default: catalog range or ADSR budget)")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--config", help="run configuration file (loss section)")
    _target_flags(p)
    _render_flags(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("bench", help="gradient-direction perturbation benchmark")
    p.add_argument("--waveform", choices=("square", "saw"), required=True)
    p.add_argument("--distance", required=True, help="'epsilon' or cents, e.g. 300")
    p.add_argument("--transform", choices=("spectrogram", "mel"), default="spectrogram")
    p.add_argument(
        "--processing",
        required=True,
        help="identity, cumsum-time, or cumsum-freq",
    )
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1, help="parallel trial workers")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("gradcheck", help="finite-difference check of every parameter")
    p.add_argument("--chain", required=True, help="chain definition file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tolerance", type=float, default=1e-3, help="max relative error")
    _render_flags(p)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    level = logging.DEBUG if args.verbose else logging.WARNING if args.quiet else logging.INFO
    logging.basicConfig(stream=sys.stderr, level=level, format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError) as exc:
        log.error("%s", exc)
        return EXIT_USAGE
    except (AudioIOError, OSError) as exc:
        log.error("%s", exc)
        return EXIT_RUNTIME
    except MemoryError:
        log.error("out of memory")
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
