"""Regenerate perfbench/expected.json, the pinned values the cell-dc and
mc-mismatch oracles compare against.

    python3 perfbench/pin_expected.py

Pins the hold and read SNM (both lobes) at every lattice supply and grid the
workloads can draw, the closed-form DRV, and a 0.1 mV bracket around the
bisected DRV threshold.  Re-pin only when a change is meant to move these
numbers by more than the stated tolerance, and say so where the change is
recorded.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import sramlab  # noqa: E402

from workloads import EXPECTED_FILE, GRIDS, MC_GRID, V_DD_LATTICE, snm_key  # noqa: E402

# 100x the largest batched-against-sequential SNM difference measured for
# lane-batched Newton (1.1e-7 V), and far below any sweep grid: a solver
# change that keeps Newton-level agreement passes, a wrong curve does not.
SNM_TOLERANCE_V = 1e-5
DRV_BRACKET_V = 1e-4


def main() -> None:
    cell = sramlab.build_6t_cell()
    grids = sorted(set(GRIDS["full"]) | set(GRIDS["tiny"]) | set(MC_GRID.values()))
    snm = {}
    for mode in ("hold", "read"):
        for v_dd in V_DD_LATTICE:
            for grid in grids:
                data = sramlab.butterfly(cell, mode=mode, v_dd=v_dd, grid=grid)
                snm[snm_key(mode, v_dd, grid)] = [data.snm_high, data.snm_low]
    closed = sramlab.drv_closed_form(sramlab.drv_inputs_from_cell(cell))
    hi = sramlab.drv_bruteforce(cell, resolution=DRV_BRACKET_V, v_max=0.5)
    pinned = {
        "snm_tolerance_v": SNM_TOLERANCE_V,
        "snm": snm,
        "drv": {"closed_form_v": closed, "bruteforce_bracket_v": [hi - DRV_BRACKET_V, hi]},
    }
    EXPECTED_FILE.write_text(json.dumps(pinned, indent=1) + "\n")


if __name__ == "__main__":
    main()
