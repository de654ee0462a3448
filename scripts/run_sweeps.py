#!/usr/bin/env python3
"""Trace one-dimensional loss surfaces for two reference problems.

FM carrier frequency: a 220 Hz sine modulating a 700 Hz carrier, with
the carrier swept over two octaves on a 500-point log grid.  The
spectrogram L1 surface is riddled with local minima - the standard
illustration of why sound matching needs restarts.

Oscillator amplitude: the same sweep idea on a parameter where the L2
surface is unimodal.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from gradsynth.audio import RenderConfig
from gradsynth.chains import CellAddress, ParameterAssignment, parse_chain_file
from gradsynth.experiments import export_csv, loss_surface_sweep
from gradsynth.losses import LossConfig

CFG = RenderConfig(duration=0.25)
CHAIN_DIR = Path(__file__).resolve().parent.parent / "chains"


def fm_sweep(out: Path) -> None:
    chain = parse_chain_file((CHAIN_DIR / "fm.chain").read_text())
    osc, fm = CellAddress(0, 0), CellAddress(0, 1)
    target = ParameterAssignment(
        {
            (osc, "amp"): 0.5,
            (osc, "freq"): 220.0,
            (osc, "waveform"): "sine",
            (osc, "active"): "on",
            (fm, "amp_c"): 0.9,
            (fm, "freq_c"): 700.0,
            (fm, "mod_index"): 40.0,
            (fm, "waveform"): "sine",
            (fm, "fm_active"): "on",
        }
    )
    loss = LossConfig(cells="output", windows=(1024,), processings=("identity",), norm_p=1)
    ratio = 2.0 ** (1.0 / 250.0)
    grid = [700.0 * ratio ** (k - 249) for k in range(500)]
    sweep = loss_surface_sweep(chain, target, (fm, "freq_c"), grid, loss, CFG)
    export_csv(sweep, out)
    print(f"FM carrier sweep: {sweep.local_minima} local minima -> {out}")


def amp_sweep(out: Path) -> None:
    chain = parse_chain_file("chain osc\ncell 0 0 osc\n")
    osc = CellAddress(0, 0)
    target = ParameterAssignment(
        {(osc, "amp"): 0.55, (osc, "freq"): 440.0, (osc, "waveform"): "sine", (osc, "active"): "on"}
    )
    loss = LossConfig(cells="output", windows=(1024,), processings=("identity",), norm_p=2)
    grid = [k / 100.0 for k in range(101)]
    sweep = loss_surface_sweep(chain, target, (osc, "amp"), grid, loss, CFG)
    export_csv(sweep, out)
    print(f"amplitude sweep: {sweep.local_minima} local minimum -> {out}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", type=Path, default=Path("sweeps"))
    args = parser.parse_args()
    args.out_dir.mkdir(parents=True, exist_ok=True)
    t0 = time.time()
    fm_sweep(args.out_dir / "fm_carrier.csv")
    amp_sweep(args.out_dir / "osc_amplitude.csv")
    print(f"done in {time.time() - t0:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
