"""The three perfbench workloads: seeded inputs, the public sramlab calls
each operation makes, and the oracle that checks each result.

Every workload is closed loop with one client: the next operation starts
when the previous one returns.  Operations come in rounds of fixed
composition, and a run measures a fixed number of whole rounds, so the mix
of operation kinds is the same in every run whatever the seed or the host
speed; the seed changes the inputs, not how much of each kind of work a run
does.

Calls go through the ``sramlab`` package namespace, looked up at call
time, so that the traced run sees the wrappers ``spans.Tracer`` installs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np

import sramlab
from sramlab.netlist import GROUND, Node, SourceElement

HERE = Path(__file__).resolve().parent
CORPUS = HERE.parent / "src" / "sramlab" / "corpus"
EXPECTED_FILE = HERE / "expected.json"

# Supply points for the butterfly analyses: half to full nominal supply of
# the 0.18 um-class card (1.8 V).  Over this range the access devices sit at
# least 0.5 V above V_th0 = 0.4 V, so reads and writes are driven; the range
# below it is retention territory, which the drv operation covers.  A 50 mV
# lattice lets every drawn point have a pinned SNM in expected.json.
V_DD_LATTICE = tuple(round(0.90 + 0.05 * k, 2) for k in range(19))
# Each round draws one supply from every stratum and spreads the grids
# evenly over them, so every round does about the same work whatever the
# seed, and every run covers the whole range in the same proportions.
V_DD_STRATA = {
    "full": tuple(tuple(float(v) for v in s) for s in np.array_split(V_DD_LATTICE, 8)),
    "tiny": (V_DD_LATTICE,),
}
GRIDS = {"full": (0.010, 0.0125, 0.015), "tiny": (0.02,)}
DRV_RESOLUTION = {"full": 2e-3, "tiny": 5e-2}
DRV_V_MAX = (0.25, 0.5)  # V; every draw lies above the pinned retention bracket
WRITE_MARGIN_RESOLUTION = 1e-3  # sramlab's default
# write_margin raises ConvergenceError (source stepping stalls inside the
# bisection) at these lattice supplies; a 5 mV scan of the current solver
# fails at 1.28-1.305, 1.345-1.365 and 1.385-1.395 V.  They are left out of
# the draws until the held-state solve is fixed, and
# test_perfbench.py::test_write_margin_converges_at_excluded_supplies is a
# strict xfail that fails once they converge, so they can be put back.
WRITE_MARGIN_EXCLUDED = (1.30, 1.35)

MC_A_VTH = 3e-9  # V*m, sramlab's default mismatch coefficient
MC_SAMPLES = {"full": 4, "tiny": 2}
MC_GRID = {"full": 1e-2, "tiny": 2e-2}  # the criterion-9 grid at full size
MC_V_DD = 1.8
MC_MEAN_WINDOW = 5e-3  # V; the mean of a few samples stays this close to nominal

# 8x16 cells, 338 unknowns: large enough that the dense solve outweighs the
# device kernel on a 2-CPU host (at 8x8 the two are about even).
ARRAY_SHAPE = {"full": (8, 16), "tiny": (2, 2)}
ARRAY_DT = {"full": 2e-10, "tiny": 5e-10}  # s; at least two steps per 1 ns edge
ARRAY_T_STOP = 60e-9  # s, end of the corpus stimulus (write at 5 ns, read at 35 ns)


class SetupError(Exception):
    """Generated inputs failed their own structural checks."""


@dataclass
class Op:
    """One public analysis call and its oracle.

    ``check(output, expect)`` returns a failure reason or None; ``work``
    counts the workload's unit of work in an output (sweep points, samples,
    time steps).
    """

    kind: str
    label: str
    run: Callable[[], Any]
    check: Callable[[Any, Any], str | None]
    expect: Any
    work: Callable[[Any], float]


def load_expected() -> dict:
    return json.loads(EXPECTED_FILE.read_text())


def snm_key(mode: str, v_dd: float, grid: float) -> str:
    return f"{mode} {v_dd:.2f} {grid:g}"


def load_validated(net: sramlab.Netlist) -> sramlab.Netlist:
    """Print and re-parse a generated netlist, the way the CLI loads a file,
    and refuse it if the structural audit flags anything."""
    parsed = sramlab.parse_netlist(sramlab.print_netlist(net))
    report = sramlab.validate(parsed)
    bad = [e.name for e in report.entries if e.verdict == "fail"]
    for name in ("degenerate_elements", "placeholder_nodes", "floating_nodes"):
        if report.get(name).value:
            bad.append(name)
    if bad:
        raise SetupError(f"generated netlist failed validation: {', '.join(bad)}")
    return parsed


# ---------------------------------------------------------------------
# cell-dc


class CellDc:
    """Single-cell DC analyses on the generated 6T cell: butterfly hold and
    read SNM, write margin, and retention voltage by bisection and in
    closed form.  Each system has six devices and about eleven unknowns, so
    the per-call cost of the device kernel dominates; warm-started SNM
    sweeps sit beside cold held-state solves inside a bisection."""

    name = "cell-dc"
    work_name = "dc_points"
    round_ref_s = 5.7  # one round at reference host speed (see run.CAL_REF_S)

    def __init__(self, seed: int, size: str):
        self.seed = seed
        self.grids = GRIDS[size]
        self.strata = V_DD_STRATA[size]
        self.drv_res = DRV_RESOLUTION[size]
        self.expected = load_expected()
        self.cell = load_validated(sramlab.build_6t_cell())

    def warm_up_op(self) -> Op:
        return self._butterfly("hold", V_DD_LATTICE[-1], self.grids[0])

    def rounds(self) -> Iterator[list[Op]]:
        rng = np.random.default_rng(self.seed)
        while True:
            ops = []
            for mode in ("hold", "read"):
                grids = rng.permutation(np.resize(self.grids, len(self.strata)))
                for stratum, grid in zip(self.strata, grids):
                    ops.append(self._butterfly(mode, float(rng.choice(stratum)), float(grid)))
            for stratum in self.strata:
                v_dd = rng.choice([v for v in stratum if v not in WRITE_MARGIN_EXCLUDED])
                ops.append(self._write_margin(float(v_dd)))
            ops.append(self._drv(float(rng.uniform(*DRV_V_MAX))))
            yield [ops[i] for i in rng.permutation(len(ops))]

    def _butterfly(self, mode: str, v_dd: float, grid: float) -> Op:
        tol = self.expected["snm_tolerance_v"]

        def check(out, want):
            got = (out.snm_high, out.snm_low)
            if max(abs(g - w) for g, w in zip(got, want)) > tol:
                return f"SNM {got} V against pinned {tuple(want)} V"
            return None

        return Op(
            "snm",
            f"butterfly {mode} v_dd={v_dd} grid={grid}",
            lambda: sramlab.butterfly(self.cell, mode=mode, v_dd=v_dd, grid=grid),
            check,
            tuple(self.expected["snm"][snm_key(mode, v_dd, grid)]),
            lambda out: out.lobe_a.v_in.size + out.lobe_b.v_in.size,
        )

    def _write_margin(self, v_dd: float) -> Op:
        # Only the range is checked: the held-state solve behind the value
        # is known to land on the metastable point, so the value itself is
        # not pinned.
        def check(out, want):
            lo, hi = want
            return None if lo <= out <= hi else f"write margin {out} V outside [{lo}, {hi}] V"

        def work(out):
            # DC solves of the scalar bisection that produced this value.
            if out == v_dd:
                return 2
            return 2 + math.ceil(math.log2(v_dd / WRITE_MARGIN_RESOLUTION))

        return Op(
            "write_margin",
            f"write_margin v_dd={v_dd}",
            lambda: sramlab.write_margin(self.cell, v_dd=v_dd),
            check,
            (0.0, v_dd),
            work,
        )

    def _drv(self, v_max: float) -> Op:
        res = self.drv_res

        def run():
            closed = sramlab.drv_closed_form(sramlab.drv_inputs_from_cell(self.cell))
            brute = sramlab.drv_bruteforce(self.cell, resolution=res, v_max=v_max)
            return closed, brute

        def check(out, want):
            closed, brute = out
            if abs(closed - want["closed_form_v"]) > 1e-9 * want["closed_form_v"]:
                return f"closed-form DRV {closed} V against pinned {want['closed_form_v']} V"
            # Bisection stops holding at most `res` above the true threshold,
            # which lies inside the pinned bracket.
            lo, hi = want["bruteforce_bracket_v"]
            if not lo <= brute <= hi + res:
                return f"bisected DRV {brute} V outside [{lo}, {hi + res}] V"
            return None

        # Each bisection step is a hold butterfly of two 201-point sweeps.
        steps = 1 + math.ceil(math.log2(v_max / res))
        label = f"drv v_max={v_max} resolution={res}"
        return Op("drv", label, run, check, self.expected["drv"], lambda out: steps * 2 * 201)


# ---------------------------------------------------------------------
# mc-mismatch


class McMismatch:
    """Threshold-mismatch Monte Carlo of the hold SNM with the workload seed
    as the VariationModel seed.  Same kernel-bound path as cell-dc, but the
    work scales with the sample count and the MNA system is rebuilt twice
    per sample, so batching across samples shows here."""

    name = "mc-mismatch"
    work_name = "mc_samples"
    round_ref_s = 1.0

    def __init__(self, seed: int, size: str):
        self.seed = seed
        self.n = MC_SAMPLES[size]
        self.grid = MC_GRID[size]
        self.nominal = load_expected()["snm"][snm_key("hold", MC_V_DD, self.grid)][0]
        self.cell = load_validated(sramlab.build_6t_cell())
        self.first: np.ndarray | None = None

    def warm_up_op(self) -> Op:
        return self._mc()

    def rounds(self) -> Iterator[list[Op]]:
        while True:
            yield [self._mc()]

    def _mc(self) -> Op:
        def run():
            vm = sramlab.VariationModel(a_vth=MC_A_VTH, n_samples=self.n, seed=self.seed)
            return sramlab.monte_carlo_snm(
                self.cell, vm=vm, mode="hold", v_dd=MC_V_DD, grid=self.grid
            )

        def check(out, want):
            if out.samples.size != want or out.failures:
                return f"{out.samples.size} samples with {out.failures} failures, wanted {want} clean"
            if not np.all((out.samples > 0) & (out.samples <= MC_V_DD / 2)):
                return f"sample SNM outside (0, {MC_V_DD / 2}] V: {out.samples}"
            if abs(out.mean - self.nominal) > MC_MEAN_WINDOW:
                return f"mean SNM {out.mean} V more than {MC_MEAN_WINDOW} V from nominal {self.nominal} V"
            # Same seed, same draws: every call must repeat the first bit for bit.
            if self.first is None:
                self.first = out.samples.copy()
            elif not np.array_equal(out.samples, self.first):
                return "samples differ between calls with the same seed"
            return None

        label = f"monte_carlo_snm seed={self.seed} n={self.n}"
        return Op("mc", label, run, check, self.n, lambda out: out.samples.size)

    def reference_check(self, tol: float) -> str | None:
        """Recompute the first call's samples one butterfly at a time from
        the documented draw order and compare."""
        mos = [m for m in self.cell.mos_elements if not m.degenerate]
        sig = np.array([sramlab.sigma_vth(MC_A_VTH, m.w, m.l) for m in mos])
        draws = np.random.default_rng(self.seed).standard_normal((self.n, len(mos)))
        ref = np.array(
            [
                sramlab.butterfly(
                    self.cell,
                    mode="hold",
                    v_dd=MC_V_DD,
                    grid=self.grid,
                    vth_shift={m.id: float(d * s) for m, d, s in zip(mos, row, sig)},
                ).snm
                for row in draws
            ]
        )
        if self.first is None:
            return "no Monte Carlo output to compare"
        worst = float(np.max(np.abs(ref - self.first)))
        if worst > tol or abs(ref.mean() - self.first.mean()) > tol:
            return f"Monte Carlo samples differ from the sequential reference by {worst} V"
        return None


# ---------------------------------------------------------------------
# array-tran


class ArrayTran:
    """Write-then-read transient on a build_array tile: the corpus
    cell_write_read.sp stimulus at array scale.  With hundreds of unknowns
    the dense linear solve dominates and the device kernel does little,
    the reverse of the cell workloads; set-up exercises the generate,
    print, parse and validate path."""

    name = "array-tran"
    work_name = "tran_steps"
    round_ref_s = 1.0

    def __init__(self, seed: int, size: str):
        self.seed = seed
        self.rows, self.cols = ARRAY_SHAPE[size]
        self.dt = ARRAY_DT[size]
        stimulus = sramlab.parse_netlist((CORPUS / "cell_write_read.sp").read_text())
        self.drive = {e.id: e for e in stimulus.elements if isinstance(e, SourceElement)}
        self.v_dd = self.drive["VDD"].params[0]
        self.tile = load_validated(sramlab.build_array(self.rows, self.cols))

    def warm_up_op(self) -> Op:
        return next(self.rounds())[0]

    def rounds(self) -> Iterator[list[Op]]:
        rng = np.random.default_rng(self.seed)
        while True:
            bits = rng.integers(0, 2, (self.rows, self.cols))
            target = (int(rng.integers(self.rows)), int(rng.integers(self.cols)))
            yield [self._cycle(bits, target)]

    def _sources(self, new_bit: int, target: tuple[int, int]) -> list[SourceElement]:
        """VDD, one word line per row (the stimulus pulse on the target row,
        grounded elsewhere) and a bit-line pair per column (held at VDD,
        except that the target column pulls the side that writes new_bit
        low with the stimulus bit-line waveform)."""
        gnd = Node(GROUND)
        off = SourceElement("VOFF", gnd, gnd, "DC", (0.0,))

        def like(node: str, proto: SourceElement) -> SourceElement:
            return SourceElement(f"V{node}", Node(node), gnd, proto.kind, proto.params)

        out = [like("VDD", self.drive["VDD"])]
        for r in range(self.rows):
            out.append(like(f"WL{r}", self.drive["VWL"] if r == target[0] else off))
        low_side = "BL" if new_bit == 0 else "BLB"
        for c in range(self.cols):
            for side in ("BL", "BLB"):
                pulled = c == target[1] and side == low_side
                out.append(like(f"{side}{c}", self.drive["VBL" if pulled else "VBLB"]))
        return out

    def _cycle(self, bits: np.ndarray, target: tuple[int, int]) -> Op:
        new_bit = 1 - int(bits[target])
        net = sramlab.with_elements(self.tile, self._sources(new_bit, target))
        ics = {}
        for (r, c), b in np.ndenumerate(bits):
            ics[f"Q_{r}_{c}"] = self.v_dd * b
            ics[f"QBAR_{r}_{c}"] = self.v_dd * (1 - b)
        want = bits.copy()
        want[target] = new_bit

        def check(out, want):
            got = np.array(
                [
                    [out.node(f"Q_{r}_{c}")[-1] > out.node(f"QBAR_{r}_{c}")[-1] for c in range(self.cols)]
                    for r in range(self.rows)
                ],
                dtype=int,
            )
            wrong = [(int(r), int(c)) for r, c in zip(*np.nonzero(got != want))]
            if wrong:
                return f"cells {wrong} end in the wrong state"
            return None

        return Op(
            "tran",
            f"transient {self.rows}x{self.cols} target={target} bit={new_bit}",
            lambda: sramlab.transient(net, ARRAY_T_STOP, self.dt, ics=ics),
            check,
            want,
            lambda out: out.time.size - 1,
        )


WORKLOADS = {w.name: w for w in (CellDc, McMismatch, ArrayTran)}
