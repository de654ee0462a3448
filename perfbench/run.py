"""gradsynth benchmark: seeded match, perturb and dataset workloads.

    python3 perfbench/run.py --workload match --seed 1 --seconds 30 --trace 0

Run from the root of a gradsynth checkout; the program is imported from
its ``src/``.  Every run first sets up (imports, chain parse, inputs from
the seed, one warm-up operation of each kind) several times, then runs one
round of each kind of operation and further rounds of the named workload
until ``--seconds`` have passed.  Each round's outputs are checked against
the independent references in ``reference.py``.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics
of a run with spans recorded around gradsynth's public functions, and the
spans are written to ``.perfbench/``.  See README.md.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads, so runs do not contend for cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
import types
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUPS = 7  # set-up repeats; setup_s is their median
COMPANION_S = 3.0  # timed calls of each kind other than the named workload
MODULES = ("audio", "autodiff", "chains", "datasets", "experiments", "losses", "matching", "modules", "spectral")
WORK_DIR = ROOT / ".perfbench"


class SetupError(Exception):
    """The checkout does not hold a gradsynth that the benchmark can run."""


def load_program() -> types.SimpleNamespace:
    """Import gradsynth afresh from the checkout's src/, emptying its caches."""
    for name in [n for n in sys.modules if n == "gradsynth" or n.startswith("gradsynth.")]:
        del sys.modules[name]
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    try:
        gs = types.SimpleNamespace(**{m: importlib.import_module(f"gradsynth.{m}") for m in MODULES})
    except ImportError as exc:
        raise SetupError(f"cannot import gradsynth from {src}: {exc}") from exc
    if Path(gs.audio.__file__).resolve().parent.parent != src:
        raise SetupError(f"gradsynth was imported from {gs.audio.__file__}, not from {src}")
    return gs


def set_up(seed: int, work_dir: Path) -> list:
    """Program, chain and inputs of every kind, each kind warmed up once."""
    gs = load_program()
    chain_file = ROOT / "chains" / "basic.chain"
    try:
        chain = gs.chains.parse_chain_file(chain_file.read_text(encoding="utf-8"))
    except OSError as exc:
        raise SetupError(f"cannot read {chain_file}: {exc}") from exc
    perturb_rng, dataset_rng = (np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(2))
    kinds = [
        workloads.Match(gs, chain),
        workloads.Perturb(gs, perturb_rng),
        workloads.Dataset(gs, chain, dataset_rng, work_dir),
    ]
    for kind in kinds:
        kind.warm_up()
    return kinds


def run_rounds(kinds, workload: str, seconds: float, tallies: dict) -> None:
    """Whole rounds of every kind.  The named workload starts another round
    while at least half of its last round's time remains of ``seconds``;
    every other kind starts rounds until it has COMPANION_S of timed calls.
    The next call always goes to the kind with the least timed seconds so
    far, so every kind is sampled across the whole run."""
    started = time.perf_counter()
    rounds = {k.name: (k, k.round(tallies[k.name]), started) for k in kinds}
    while rounds:
        name = min(rounds, key=lambda n: sum(tallies[n].call_seconds))
        kind, calls, round_started = rounds[name]
        try:
            next(calls)
        except StopIteration:
            now = time.perf_counter()
            if name == workload:
                running = now - started + (now - round_started) / 2 <= seconds
            else:
                running = sum(tallies[name].call_seconds) < COMPANION_S
            if running:
                rounds[name] = (kind, kind.round(tallies[name]), now)
            else:
                del rounds[name]


def run_round(kind, tally) -> None:
    """One whole round of ``kind`` on its own."""
    for _ in kind.round(tally):
        pass


def end_to_end(tallies: dict, setup_times: list) -> dict:
    t = tallies
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "match.steps_per_s": (statistics.median(t["match"].rates), "steps/s"),
        "match.target_s": (statistics.median(t["match"].call_seconds), "s"),
        "match.lsd": (statistics.median(t["match"].quality), "lsd"),
        "perturb.trials_per_s": (statistics.median(t["perturb"].rates), "trials/s"),
        "dataset.records_per_s": (statistics.median(t["dataset"].rates), "records/s"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[k.name for k in workloads.KINDS])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    WORK_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=WORK_DIR))
    try:
        setup_times = []
        for _ in range(SETUPS):
            kinds, seconds = workloads.timed(lambda: set_up(args.seed, scratch))
            setup_times.append(seconds)
        tallies = {k.name: workloads.Tally() for k in kinds}
        plain = {k.name: workloads.Tally() for k in kinds}
        if args.trace:
            for kind in kinds:
                run_round(kind, plain[kind.name])
            tracer = tracing.Tracer()
            with tracer.installed():
                run_rounds(kinds, args.workload, args.seconds, tallies)
            for kind in kinds:  # the first round of each kind repeats the untraced one
                traced = tallies[kind.name].call_seconds[: len(plain[kind.name].call_seconds)]
                overhead = 100.0 * (sum(traced) / sum(plain[kind.name].call_seconds) - 1.0)
                print(f"tracing overhead on {kind.name}: {overhead:+.1f}% of time in program calls")
            trace_file = WORK_DIR / f"trace-{args.workload}-seed{args.seed}.json"
            tracer.write(trace_file, workload=args.workload, seed=args.seed)
            print(f"spans: {len(tracer.spans)} written to {trace_file}")
            units = tracing.metric_units()
            metrics = {n: (v, units[n]) for n, v in tracing.layer_metrics(tracer.spans).items()}
        else:
            run_rounds(kinds, args.workload, args.seconds, tallies)
            metrics = end_to_end(tallies, setup_times)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    errors = [e for t in (*tallies.values(), *plain.values()) for e in t.errors]
    for message in errors[:20]:
        print(f"check failed: {message}", file=sys.stderr)
    for message in [f for t in (*tallies.values(), *plain.values()) for f in t.failures][:20]:
        print(f"operation failed: {message}", file=sys.stderr)
    attempted = {n: tallies[n].attempted + plain[n].attempted for n in tallies}
    failed = {n: tallies[n].failed + plain[n].failed for n in tallies}
    for name in tallies:
        print(f"{name}: attempted {attempted[name]}, failed {failed[name]}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not errors,
        "attempted": sum(attempted.values()),
        "failed": sum(failed.values()),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
