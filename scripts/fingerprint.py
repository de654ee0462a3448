#!/usr/bin/env python3
"""Print one sha256 digest per output area of gradsynth, as one JSON object.

A change that claims to keep every output's bits shows it by printing the
same digests before and after it; a change that moves an area names it.

  match      repr of every BranchResult, with final_spectral and final_lsd,
             of perfbench's match targets (read from perfbench/workloads.py)
  render     every cell of basic.chain, fm.chain and a tremolo chain with an
             optional connection, over sampled seeds
  dataset    the bytes of every file generate_dataset writes for basic.chain
             and fm.chain
  sweep      the CSVs of `gradsynth sweep` over each envelope segment of
             basic.chain, and one run with an in-budget --high
  gradcheck  the stdout and exit code of `gradsynth gradcheck` on both chains
  perturb    repr of perturbation_trials over both waveforms and all three
             distances

Usage, from anywhere:

    python scripts/fingerprint.py [--quick] [--jobs N]

``--quick`` runs every area at a reduced size (its digests differ from the
full run's).  ``--jobs`` sets the worker processes of match, dataset and
perturb; the digests do not depend on it.  One line on stderr names the
machine that made them: its CPU count, any ``*_NUM_THREADS`` setting, and
the BLAS library numpy reports.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import types
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))  # workloads imports its sibling `reference`

import numpy as np  # noqa: E402

from gradsynth import audio, chains, cli, datasets, experiments, losses, matching  # noqa: E402

RENDER = audio.RenderConfig(duration=0.25)
CHAIN_FILES = {name: ROOT / "chains" / f"{name}.chain" for name in ("basic", "fm")}
TREMOLO_CHAIN = """chain tremolo
cell 0 0 osc
cell 1 0 lfo
cell 2 0 osc
cell 0 1 tremolo
cell 0 2 mix
connect 0,0 -> 0,1
connect 1,0 -> 0,1
connect 0,1 -> 0,2
connect 2,0 -> 0,2 optional
"""
SEGMENTS = ("attack", "decay", "release")

# size of each area: full, quick
SIZES = {
    "match_targets": (9, 1),
    "render_seeds": (50, 5),
    "dataset_records": (20, 3),
    "sweep_seeds": (10, 1),
    "gradcheck_seeds": (30, 1),
    "perturb_trials": (20, 3),
}


def _chain(name: str):
    return chains.parse_chain_file(CHAIN_FILES[name].read_text(encoding="utf-8"))


def _main_stdout(argv: list) -> str:
    """``gradsynth`` run in-process: its stdout, then its exit code."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["-q", *argv])
    return f"{out.getvalue()}exit {code}\n"


def match_area(digest, size: int, jobs: int) -> None:
    import workloads

    gs = types.SimpleNamespace(audio=audio, chains=chains, losses=losses, matching=matching)
    bench = workloads.Match(gs, _chain("basic"))
    opt_cfg = replace(bench.opt_cfg, jobs=jobs)
    for _, target, fixed in bench.targets[:size]:
        result = matching.match(
            target, bench.chain, bench.loss_cfg, opt_cfg,
            fixed_params=fixed, render_config=bench.render,
        )
        for branch in result.branches:
            digest.update(repr(branch).encode())
        digest.update(f"{result.final_spectral!r} {result.final_lsd!r}".encode())


def render_area(digest, size: int, jobs: int) -> None:
    named = {name: _chain(name) for name in CHAIN_FILES}
    named["tremolo"] = chains.parse_chain_file(TREMOLO_CHAIN)
    for name, chain in named.items():
        for seed in range(size):
            assignment = datasets.sample_assignment(chain, np.random.default_rng(seed), RENDER)
            payload = datasets.assignment_payload(chain, assignment)
            digest.update(json.dumps(payload, sort_keys=True).encode())
            trace = chains.generate_signal(chain, assignment, RENDER)
            for address, signal in sorted(trace.cell_outputs.items()):
                digest.update(repr(address).encode() + signal.values.tobytes())
            digest.update(trace.output.values.tobytes())


def dataset_area(digest, size: int, jobs: int) -> None:
    for name in CHAIN_FILES:
        with tempfile.TemporaryDirectory() as out:
            datasets.generate_dataset(_chain(name), size, 3, out, RENDER, jobs=jobs)
            for path in sorted(Path(out).iterdir()):
                digest.update(path.name.encode() + path.read_bytes())


def sweep_area(digest, size: int, jobs: int) -> None:
    basic = str(CHAIN_FILES["basic"])
    runs = [
        ["--param", f"0,2.{segment}", "--random", "--seed", str(seed)]
        for seed in range(size)
        for segment in SEGMENTS
    ]
    # seed 0's decay and release leave 0.026 s of the 0.25 s for the attack
    runs.append(["--param", "0,2.attack", "--random", "--seed", "0", "--high", "0.02"])
    with tempfile.TemporaryDirectory() as out:
        csv = Path(out) / "sweep.csv"
        for run in runs:
            csv.unlink(missing_ok=True)
            argv = ["sweep", basic, *run, "--duration", "0.25", "--points", "9", "--out", str(csv)]
            digest.update(_main_stdout(argv).encode())
            digest.update(csv.read_bytes() if csv.exists() else b"")


def gradcheck_area(digest, size: int, jobs: int) -> None:
    for path in CHAIN_FILES.values():
        for seed in range(size):
            argv = ["gradcheck", "--chain", str(path), "--seed", str(seed), "--duration", "0.25"]
            digest.update(_main_stdout(argv).encode())


def perturb_area(digest, size: int, jobs: int) -> None:
    for waveform in experiments.BENCHMARK_WAVEFORMS:
        for distance in experiments.BENCHMARK_DISTANCES:
            trials = experiments.perturbation_trials(
                waveform, distance, trials=size, seed=0, jobs=jobs
            )
            digest.update(repr(trials).encode())


AREAS = {
    "match": (match_area, "match_targets"),
    "render": (render_area, "render_seeds"),
    "dataset": (dataset_area, "dataset_records"),
    "sweep": (sweep_area, "sweep_seeds"),
    "gradcheck": (gradcheck_area, "gradcheck_seeds"),
    "perturb": (perturb_area, "perturb_trials"),
}


def machine() -> dict:
    """What besides the code decides a run's bytes: the CPU count, any
    ``*_NUM_THREADS`` setting and the BLAS library numpy reports."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "num_threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "blas": f"{blas['name']} {blas['version']}",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--quick", action="store_true", help="reduced size of every area")
    parser.add_argument("--jobs", type=int, default=1, help="worker processes")
    args = parser.parse_args(argv)
    print(json.dumps(machine()), file=sys.stderr)
    digests = {}
    for area, (run, size_key) in AREAS.items():
        digest = hashlib.sha256()
        run(digest, SIZES[size_key][args.quick], args.jobs)
        digests[area] = digest.hexdigest()
    print(json.dumps(digests, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
