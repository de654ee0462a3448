"""perfbench's own result checks on one call each of ``match`` and
``generate_dataset``: a change to what gradsynth returns that the benchmark
can no longer read fails here, and not only when the benchmark runs."""

import sys
import types
from pathlib import Path

import numpy as np
import pytest

from gradsynth import audio, chains, datasets, losses, matching

ROOT = Path(__file__).resolve().parents[1]
GS = types.SimpleNamespace(
    audio=audio, chains=chains, datasets=datasets, losses=losses, matching=matching
)


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(ROOT / "perfbench"))  # workloads imports its sibling `reference`
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    return workloads


@pytest.fixture(scope="module")
def basic_chain():
    return chains.parse_chain_file((ROOT / "chains" / "basic.chain").read_text(encoding="utf-8"))


def test_a_match_call_passes_perfbench_check(workloads, basic_chain):
    bench = workloads.Match(GS, basic_chain)
    target = bench.targets[0]
    assert bench.check(0, target, bench._match(target, bench.opt_cfg)) == []


def test_a_generate_dataset_call_passes_perfbench_check(workloads, basic_chain, tmp_path):
    bench = workloads.Dataset(GS, basic_chain, np.random.default_rng(0), tmp_path)
    seed, checked = bench.calls[0]
    records = bench._generate(workloads.DATASET_RECORDS, seed)
    assert bench.check(seed, checked, records) == []
