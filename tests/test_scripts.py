"""Smoke tests: the reproduction scripts write their CSVs, and the
fingerprint script prints the same digests run after run."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _run(tmp_path, name, *args):
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def _lines(path):
    return len(path.read_text().splitlines())


def test_run_sweeps_writes_both_surfaces(tmp_path):
    stdout = _run(tmp_path, "run_sweeps.py", "--out-dir", str(tmp_path))
    assert _lines(tmp_path / "fm_carrier.csv") == 501
    assert _lines(tmp_path / "osc_amplitude.csv") == 102
    # the module docstring calls the amplitude surface unimodal
    assert "amplitude sweep: 1 local minimum" in stdout


def test_run_benchmark_writes_every_cell(tmp_path):
    out = tmp_path / "b.csv"
    stdout = _run(tmp_path, "run_benchmark.py", "--trials", "2", "--out", str(out))
    assert _lines(out) == 37
    assert "36 cells x 2 trials" in stdout
    # the process pool writes the same bytes as the serial run
    pooled = tmp_path / "b2.csv"
    _run(tmp_path, "run_benchmark.py", "--trials", "2", "--jobs", "2", "--out", str(pooled))
    assert pooled.read_bytes() == out.read_bytes()


def test_fingerprint_prints_the_same_digests_with_one_or_two_workers(tmp_path):
    serial = json.loads(_run(tmp_path, "fingerprint.py", "--quick"))
    assert list(serial) == ["match", "render", "dataset", "sweep", "gradcheck", "perturb"]
    assert all(len(digest) == 64 and int(digest, 16) >= 0 for digest in serial.values())
    # a second run, its match, dataset and perturb areas in process pools
    assert json.loads(_run(tmp_path, "fingerprint.py", "--quick", "--jobs", "2")) == serial
