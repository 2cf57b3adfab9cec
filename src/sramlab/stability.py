"""Storage-cell stability analyses: butterfly curves with inscribed-square
noise margins, retention-voltage estimates (closed form and bisection),
write margin, and threshold-variation Monte Carlo.

Cells are located by their role annotations (Q, QBAR, BL, BLB, WL, VDD);
bias and drive sources are appended to a copy of the netlist, never to the
caller's object.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .config import ConfigError
from .devices import TechnologyParams, derive_tech_params, leakage_current
from .engine import MAX_LANES, ConvergenceError, EngineError, FloatingNodeError, MnaSystem, sweep_grid
from .netlist import GROUND, Netlist, Node, SourceElement, instantiate, with_elements
from .report import write_columns

SQRT2 = math.sqrt(2.0)
# Most lanes, one per grid point of a sample carrying both lobes, that one
# batch of butterfly samples queues.  A batch's states are held at once, so
# this bounds a long Monte Carlo run's memory; the Newton pool holds MAX_LANES.
BATCH_LANES = 8 * MAX_LANES
# Points of each grid over Q that write_margin and read_current solve.
Q_POINTS = 33


class NonWritableError(EngineError):
    pass


@dataclass(frozen=True)
class TransferCurve:
    """One inverter's DC transfer curve in its own frame."""

    v_in: np.ndarray
    v_out: np.ndarray


@dataclass(frozen=True)
class SnmResult:
    snm_high: float
    snm_low: float
    # Diagonal corner points of each inscribed square, as (V1, V2) pairs on
    # curve A and mirrored curve B; None when the lobes do not close.
    anchors_high: tuple[tuple[float, float], tuple[float, float]] | None
    anchors_low: tuple[tuple[float, float], tuple[float, float]] | None

    @property
    def snm(self) -> float:
        return min(self.snm_high, self.snm_low)


@dataclass(frozen=True)
class ButterflyData(SnmResult):
    lobe_a: TransferCurve  # input V1 = V(Q), output V2 = V(QBAR)
    lobe_b: TransferCurve  # input V2 = V(QBAR), output V1 = V(Q)
    mode: str
    v_dd: float
    grid: float


def _first_of_runs(u: np.ndarray) -> np.ndarray:
    """Mask of the first entry of each run of equal values in sorted u."""
    return np.concatenate(([True], np.diff(u) > 0))


def _rotated(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """45-degree frame: abscissa u along the falling diagonal, ordinate w."""
    u = (x - y) / SQRT2
    w = (x + y) / SQRT2
    order = np.argsort(u, kind="stable")
    u, w = u[order], w[order]
    keep = _first_of_runs(u)
    return u[keep], w[keep]


def inscribed_square_snm(curve_a: TransferCurve, curve_b: TransferCurve) -> SnmResult:
    """Side of the largest square inscribed in each butterfly lobe.

    Curve A is taken as V2 = f_A(V1); curve B (given in its own frame,
    V1 = f_B(V2)) is mirrored across the V1 = V2 diagonal.  In coordinates
    rotated 45 degrees both branches are single-valued over the shared
    abscissa, vertical separation equals the square's diagonal, and linear
    interpolation is exact for any segment of either polyline.

    The cell is bistable only when the separation changes sign from
    positive to negative along the abscissa; then each extreme of the
    separation, divided by sqrt(2), is one lobe's margin.  Otherwise both
    margins are zero.
    """
    ua, wa = _rotated(np.asarray(curve_a.v_in, float), np.asarray(curve_a.v_out, float))
    ub, wb = _rotated(np.asarray(curve_b.v_out, float), np.asarray(curve_b.v_in, float))
    lo = max(ua[0], ub[0])
    hi = min(ua[-1], ub[-1])
    grid_u = np.sort(np.concatenate((ua, ub)))
    grid_u = grid_u[_first_of_runs(grid_u)]
    grid_u = grid_u[(grid_u >= lo) & (grid_u <= hi)]
    if grid_u.size == 0:
        return SnmResult(0.0, 0.0, None, None)

    wa_i = np.interp(grid_u, ua, wa)
    wb_i = np.interp(grid_u, ub, wb)
    gap = wa_i - wb_i
    imax = int(np.argmax(gap))
    imin = int(np.argmin(gap))
    if not (gap[imax] > 0.0 > gap[imin]) or imax >= imin:
        return SnmResult(0.0, 0.0, None, None)

    def anchors(i: int):
        u = grid_u[i]
        pa = ((wa_i[i] + u) / SQRT2, (wa_i[i] - u) / SQRT2)
        pb = ((wb_i[i] + u) / SQRT2, (wb_i[i] - u) / SQRT2)
        return (
            (float(pa[0]), float(pa[1])),
            (float(pb[0]), float(pb[1])),
        )

    return SnmResult(
        snm_high=float(gap[imax] / SQRT2),
        snm_low=float(-gap[imin] / SQRT2),
        anchors_high=anchors(imax),
        anchors_low=anchors(imin),
    )


def _cell_ports(cell: Netlist) -> dict[str, str]:
    return {role: cell.role_node(role) for role in ("Q", "QBAR", "BL", "BLB", "WL", "VDD")}


def _bias_sources(ports: dict[str, str], v_dd: float, wl: float, drive_node: str) -> list[SourceElement]:
    gnd = Node(GROUND)
    return [
        SourceElement("VSNMVDD", Node(ports["VDD"]), gnd, "DC", (v_dd,)),
        SourceElement("VSNMWL", Node(ports["WL"]), gnd, "DC", (wl,)),
        SourceElement("VSNMBL", Node(ports["BL"]), gnd, "DC", (v_dd,)),
        SourceElement("VSNMBLB", Node(ports["BLB"]), gnd, "DC", (v_dd,)),
        SourceElement("VSNMIN", Node(drive_node), gnd, "DC", (0.0,)),
    ]


def butterfly(
    cell: Netlist,
    tech: TechnologyParams | None = None,
    mode: str = "hold",
    v_dd: float = 1.8,
    grid: float = 1e-3,
    vth_shift: dict[str, float] | None = None,
) -> ButterflyData:
    """Open-loop transfer curves of both cell inverters and their noise
    margins.  Hold mode turns the access devices off; read mode drives the
    wordline at v_dd.  Both bitlines stay clamped at v_dd (precharged); both
    curves are solved on one lobe-pair system (see _butterflies)."""
    (data,) = _butterflies(cell, tech, mode, v_dd, grid, [vth_shift or {}])
    if isinstance(data, EngineError):
        raise data
    return data


def _butterflies(
    cell: Netlist,
    tech: TechnologyParams | None,
    mode: str,
    v_dd: float,
    grid: float,
    shifts: Iterable[dict[str, float]],
) -> Iterator[ButterflyData | EngineError]:
    """Butterfly data of one cell under each map of V_th0 shifts, in order;
    a sample that fails to solve gives its EngineError instead.

    Both lobes are solved on one system, a lobe pair: two disjoint copies
    of the biased cell, every node suffixed (_A, _B), rails included, each
    with its own sources.  A's VSNMIN drives Q, B's drives QBAR, and a
    sample's shifts apply to both copies.  The pair is first solved once
    for the unshifted cell, and a sample whose shifts are all zero takes
    that result, error included.  Each grid point is a lane of one
    MnaSystem.sweep call carrying both lobes, both drives in lockstep: the
    nominal pair's lanes from sweep's default start, then every shifted
    sample's, at most BATCH_LANES a batch, one parameter set per sample,
    each started at the nominal pair's state.  With one storage node
    driven, a 6T cell's other node is its copy's only free unknown, with
    one solution at each input: the pair is decoupled, every lane is
    solved at once, the nominal lanes cold-started (drives set, free nodes
    at zero), and a lane that plain Newton fails walks the gmin ladder,
    which cannot leave a decoupled lane's one solution.  A pair with
    coupled free unknowns may be bistable, and each sample's lanes are
    walked in order instead, each point warm-started from the last, the
    first from zero for the nominal pair and from the nominal pair's
    state for a sample.  A failed lane fails only its own sample (a failed
    nominal lane starts the samples from the state it was left in); an
    error not tied to a lane fails its whole batch.
    """
    if mode not in ("hold", "read"):
        raise ValueError(f"unknown butterfly mode {mode!r}")
    if not grid > 0:
        raise ValueError("grid must be positive")
    if not v_dd > 0:
        raise ValueError("v_dd must be positive")
    ports = _cell_ports(cell)
    wl = v_dd if mode == "read" else 0.0
    v_in = sweep_grid(0.0, v_dd, grid)
    sides = {"_A": ports["Q"], "_B": ports["QBAR"]}  # each instance's suffix and driven node
    lobes = [with_elements(cell, _bias_sources(ports, v_dd, wl, drive)) for drive in sides.values()]
    pair = Netlist(entries=[e for side, lobe in zip(sides, lobes) for e in instantiate(lobe, side, {})])
    probes = (ports["QBAR"] + "_A", ports["Q"] + "_B")

    def solve(batch: list, start: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray | None, dict]:
        # Both lobes' probes along the grid under each map of batch,
        # (samples, 2, points), each sample's sweep started at `start`,
        # (points, n); the lanes' states (None after a singular step); and
        # the error of each sample that failed.
        points = v_in.size  # lane k is point k % points of sample k // points
        paired = [{m + side: v for m, v in shift.items() for side in sides} for shift in batch]
        sys = MnaSystem(pair, tech, paired)
        b = np.tile(sys.rhs(drive={"VSNMIN" + side: v_in for side in sides}), (len(batch), 1))
        x0 = None if start is None else np.tile(start, (len(batch), 1))
        try:
            x, failed = sys.sweep(b, x0, np.repeat(np.arange(len(batch)), points))
        except FloatingNodeError as exc:
            # Not tied to one lane, so every sample of the batch fails with it.
            error = FloatingNodeError(f"{exc} (sweeping VSNMIN)")
            return np.empty((len(batch), 2, points)), None, dict.fromkeys(range(len(batch)), error)
        x = x.reshape(len(batch), points, sys.size)
        errors: dict[int, EngineError] = {}
        for lane in sorted(failed):
            msg = f"{failed[lane]} (sweeping VSNMIN={v_in[lane % points]:g})"
            errors.setdefault(lane // points, ConvergenceError(msg))
        return x[:, :, [sys.node_index[p] for p in probes]].swapaxes(1, 2), x, errors

    nominal, states, errors = solve([{}])
    nominal_error, start = errors.get(0), None if states is None else states[0]

    shifts = iter(shifts)
    while batch := list(itertools.islice(shifts, max(1, BATCH_LANES // v_in.size))):
        shifted = [i for i, shift in enumerate(batch) if any(shift.values())]
        v_out = np.repeat(nominal, len(batch), axis=0)
        unshifted = set(range(len(batch))) - set(shifted)
        errors = {} if nominal_error is None else dict.fromkeys(unshifted, nominal_error)
        if shifted:
            v_out[shifted], _, failed = solve([batch[i] for i in shifted], start)
            errors.update((shifted[j], exc) for j, exc in failed.items())
        for i in range(len(batch)):
            if i in errors:
                yield errors[i]
                continue
            lobe_a = TransferCurve(v_in, v_out[i, 0])
            lobe_b = TransferCurve(v_in, v_out[i, 1])
            result = inscribed_square_snm(lobe_a, lobe_b)
            yield ButterflyData(**vars(result), lobe_a=lobe_a, lobe_b=lobe_b, mode=mode, v_dd=v_dd, grid=grid)


def butterfly_to_csv(data: ButterflyData, dest) -> None:
    """Columns V1, Vout_A, Vout_B_mirrored share the input grid; plot the
    third column with its axes exchanged to draw the second lobe.  The
    summary follows the data as `# name=value` notes (see
    report.write_columns)."""
    write_columns(
        dest,
        ["V1", "Vout_A", "Vout_B_mirrored"],
        [data.lobe_a.v_in, data.lobe_a.v_out, data.lobe_b.v_out],
        [
            f"snm_high={data.snm_high!r}",
            f"snm_low={data.snm_low!r}",
            f"snm={data.snm!r}",
            f"mode={data.mode} v_dd={data.v_dd!r} grid={data.grid!r}",
        ],
    )


def snm_macro(v_dd: float, drv: float, n: float) -> float:
    """Linear margin model 2/(3+n)*(v_dd - drv); valid only at or above the
    retention voltage."""
    if v_dd < drv:
        raise ValueError("supply below retention voltage")
    return 2.0 / (3.0 + n) * (v_dd - drv)


# ---------------------------------------------------------------------
# Retention voltage


# The retention expressions index the six cell transistors 1..6.  The cell
# is assumed to hold Q low: 1, 2 = left pull-down/pull-up (the inverter
# driving Q), 3, 4 = right pull-down/pull-up, 5, 6 = access devices on the
# Q and QBAR sides.  Permute here if a different hold state is wanted.
TRANSISTOR_INDEX_MAP: dict[int, str] = {
    1: "MPDL",
    2: "MPUL",
    3: "MPDR",
    4: "MPUR",
    5: "MPGL",
    6: "MPGR",
}


@dataclass(frozen=True)
class DrvInputs:
    """Per-transistor zero-bias leakages and subthreshold factors, indexed
    1..6 as in TRANSISTOR_INDEX_MAP, plus the thermal voltage."""

    i_off: tuple[float, float, float, float, float, float]
    n: tuple[float, float, float, float, float, float]
    v_t: float

    def __post_init__(self):
        if len(self.i_off) != 6 or len(self.n) != 6:
            raise ValueError("six leakage and six slope values required")
        if any(i <= 0 for i in self.i_off):
            raise ValueError("leakage currents must be positive")
        if any(n < 1 for n in self.n):
            raise ValueError("subthreshold factors must be at least 1")
        if self.v_t <= 0:
            raise ValueError("thermal voltage must be positive")


def drv_ideal(v_t: float, n: float = 1.0) -> float:
    """Retention floor of a matched ideal technology: 2*v_T*ln(1+n)."""
    return 2.0 * v_t * math.log(1.0 + n)


def _is_ideal(d: DrvInputs) -> bool:
    if any(n != 1.0 for n in d.n):
        return False
    lo, hi = min(d.i_off), max(d.i_off)
    return hi / lo - 1.0 < 1e-9


def drv_closed_form(d: DrvInputs) -> float:
    """Data-retention voltage from per-transistor leakage ratios.

    The general expression stack (_drv_general) does not collapse to the
    matched-technology floor 2*v_T*ln(1+n) when every n_i is 1 and the
    leakages are equal; that documented limit is returned directly for the
    exactly matched case.
    """
    if _is_ideal(d):
        return drv_ideal(d.v_t, 1.0)
    return _drv_general(d)


def _drv_general(d: DrvInputs) -> float:
    """The general retention expressions, whatever the inputs: a
    zeroth-order balance plus two first-order corrections, weighted by n2."""
    i1, i2, i3, i4, i5, _ = d.i_off
    n1, n2, n3, n4, _, _ = d.n
    vt = d.v_t
    try:
        # i2 * i3 can underflow to zero for denormal-range leakages.
        arg = (1.0 / n3 + 1.0 / n4) * (i4 / (i2 * i3)) * (
            i5 / n2 + i1 * (1.0 / n1 + 1.0 / n2)
        )
    except ZeroDivisionError:
        arg = math.inf
    if not math.isfinite(arg) or arg <= 0.0:
        raise ValueError(f"log argument of the zeroth-order term is {arg!r}")
    drv0 = vt / (1.0 / n2 + 1.0 / n3) * math.log(arg)
    v1 = vt * (i1 + i5) / i2 * math.exp(-drv0 / (n2 * vt))
    v2 = drv0 - vt * (i4 / i3) * math.exp(-drv0 / (n3 * vt))
    return drv0 + v1 / 2.0 + (drv0 - v2) * n2 / 2.0


def drv_inputs_from_cell(
    cell: Netlist, tech: TechnologyParams | None = None
) -> DrvInputs:
    """Extract DrvInputs from a role-annotated cell at a technology point."""
    tech = derive_tech_params(tech if tech is not None else TechnologyParams.default())
    v_t = tech.v_t
    i_off, n = [], []
    for index in sorted(TRANSISTOR_INDEX_MAP):
        element_id = TRANSISTOR_INDEX_MAP[index]
        try:
            m = cell.element(element_id)
        except KeyError:
            raise ConfigError(
                f"cell lacks transistor {element_id} (index {index})"
            ) from None
        dev = tech.device(m.polarity)
        i_off.append(leakage_current(dev, m.w, m.l, v_t))
        n.append(dev.n)
    return DrvInputs(tuple(i_off), tuple(n), v_t)


def drv_bruteforce(
    cell: Netlist,
    tech: TechnologyParams | None = None,
    resolution: float = 1e-3,
    v_max: float = 1.8,
) -> float:
    """Smallest supply (to `resolution`, or to adjacent floats where that is
    finer) at which the hold-mode butterfly still closes with positive
    margin; a bisection whose every probe is one hold butterfly, both
    lobes solved on one lobe-pair system."""

    def holds(v_dd: float) -> bool:
        grid = max(v_dd / 200.0, 1e-4)
        return butterfly(cell, tech, "hold", v_dd, grid).snm > 0.0

    if not resolution > 0:
        raise ValueError("resolution must be positive")
    if not v_max > 0:
        raise ValueError("v_max must be positive")
    if not holds(v_max):
        raise EngineError(f"cell is not bistable even at v_dd={v_max} V")
    lo, hi = 0.0, v_max
    while hi - lo > resolution and lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (lo, mid) if holds(mid) else (mid, hi)
    return hi


# ---------------------------------------------------------------------
# Write margin and read current


def _lanes(sys: MnaSystem, q: np.ndarray, **drive: np.ndarray | float) -> np.ndarray:
    """States of sys, Q driven by VSNMIN, at each q and drive, as solve_lanes gives them (see
    add_inert_currents); a failed lane raises ConvergenceError."""
    x, _, _, failed = sys.solve_lanes(sys.rhs(drive={"VSNMIN": q, **drive}))
    if failed:
        raise ConvergenceError(failed[min(failed)])
    return x


def _narrow(q: np.ndarray, values: np.ndarray, solve, index, tol: float) -> np.ndarray:
    """values[index(values)], values = solve(q), on grids of Q_POINTS points,
    each spanning the last one's pick and its neighbours, to tol or rounding."""
    while True:
        i = int(index(values))
        lo, hi = q[max(i - 1, 0)], q[min(i + 1, q.size - 1)]
        if not (hi - lo > tol and lo < 0.5 * (lo + hi) < hi):
            return values[i]
        q = np.linspace(lo, hi, Q_POINTS)
        values = solve(q)


def write_margin(
    cell: Netlist,
    tech: TechnologyParams | None = None,
    v_dd: float = 1.8,
    wl_voltage: float | None = None,
) -> float:
    """Highest BL voltage that flips a cell holding Q high, with BLB held at
    v_dd and the wordline driven (default v_dd): the fold below which the
    held state is gone (Grossar et al., IEEE JSSC 41(11), 2006), its Q
    narrowed to 1e-6*v_dd; v_dd if there is none.

    Q = q is a state at one BL voltage, bl(q).  With Q driven, lanes at BL
    = 0 and v_dd bracket it, and a q bracketed in [0, v_dd] is solved with
    BL free, drawn by ISNMBL in VSNMBL's place at the Q source's current at
    BL = q: QBAR and BL are then blocks of their own.  The fold is the least
    bl(q), the grid over [0, v_dd] refined around it, on the held branch:
    the last run of q with bl(q) up to v_dd that has a q beyond v_dd below.
    """
    if not v_dd > 0:
        raise ValueError("v_dd must be positive")
    wl = v_dd if wl_voltage is None else wl_voltage
    bias = _bias_sources(_cell_ports(cell), v_dd, wl, cell.role_node("Q"))
    draw = [SourceElement("ISNMBL", *s.nodes, "DC", (0.0,)) if s.id == "VSNMBL" else s for s in bias]
    driven, drawn = (MnaSystem(with_elements(cell, extra), tech) for extra in (bias, draw))
    k, free_bl = driven.branch_index["VSNMIN"], drawn.node_index[cell.role_node("BL")]

    def bl(q: np.ndarray) -> np.ndarray:  # -inf below 0, +inf beyond v_dd
        bls = np.concatenate((q, np.repeat([0.0, v_dd], q.size)))
        x = driven.add_inert_currents(_lanes(driven, np.tile(q, 3), VSNMBL=bls))
        i = x[:, k].reshape(3, -1)  # the Q source's current at BL = q, 0 and v_dd
        out = np.where(i[1] > 0, -np.inf, np.where(i[2] < 0, np.inf, np.nan))
        inside = np.isnan(out)
        out[inside] = _lanes(drawn, q[inside], ISNMBL=i[0, inside])[:, free_bl]
        return out

    q = sweep_grid(0.0, v_dd, v_dd / (Q_POINTS - 1))
    b = bl(q)
    end = q.size - int(np.argmax(b[::-1] <= v_dd))  # below the top run beyond v_dd, if any
    start = end - int(np.argmax(b[:end][::-1] > v_dd))  # above the last q beyond v_dd below that
    held = slice(start - 1, end + 1)  # with the q beyond v_dd on either side, where the fold may lie
    fold = _narrow(q[held], b[held], bl, np.argmin, 1e-6 * v_dd) if start < end else np.inf
    if not fold > 0:
        raise NonWritableError(
            f"state does not flip even at BL=0 V (WL={wl:g} V); cell is not writable under these drives"
        )
    return float(min(fold, v_dd))


def read_current(
    cell: Netlist, tech: TechnologyParams | None = None, v_dd: float = 1.8
) -> float:
    """Cell current pulled from the BL clamp during a read of a stored 0
    (Q low); this is the discharge current a bitline capacitance sees.

    With Q driven and BL at v_dd, the Q source carries no current at each
    state of the cell (Seevinck, List & Lohstroh, IEEE JSSC SC-22(5), 1987).
    The stored 0 is its first sign change up from Q = 0, narrowed to
    rounding; the read current is VSNMBL's branch current there."""
    if not v_dd > 0:
        raise ValueError("v_dd must be positive")
    driven = MnaSystem(with_elements(cell, _bias_sources(_cell_ports(cell), v_dd, v_dd, cell.role_node("Q"))), tech)
    i_q, i_bl = driven.branch_index["VSNMIN"], driven.branch_index["VSNMBL"]
    solve = lambda q: driven.add_inert_currents(_lanes(driven, q, VSNMBL=v_dd))
    q = sweep_grid(0.0, v_dd, v_dd / (Q_POINTS - 1))
    return abs(_narrow(q, solve(q), solve, lambda x: np.argmax(x[:, i_q] <= 0), 0.0)[i_bl])


# ---------------------------------------------------------------------
# Threshold variation


def sigma_vth(a_vth: float, w: float, l: float) -> float:
    """Pelgrom-style threshold spread A_Vth/sqrt(W*L)."""
    if w * l <= 0:
        raise ValueError("device area must be positive")
    return a_vth * math.sqrt(1.0 / (w * l))


@dataclass(frozen=True)
class VariationModel:
    """Mismatch coefficient plus sampling plan; per-device W and L are read
    from the cell netlist when sampling.  a_vth=None takes each device's
    coefficient from the a_vth of its polarity's technology card."""

    a_vth: float | None
    n_samples: int
    seed: int

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError("need at least one sample")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.a_vth is not None and self.a_vth < 0:
            raise ValueError("a_vth must be nonnegative")


@dataclass
class McSummary:
    samples: np.ndarray  # per-sample SNM in draw order; NaN where failed
    mean: float
    stddev: float
    minimum: float
    failures: int


def monte_carlo_snm(
    cell: Netlist,
    tech: TechnologyParams | None = None,
    vm: VariationModel | None = None,
    mode: str = "hold",
    v_dd: float = 1.8,
    grid: float = 1e-2,
) -> McSummary:
    """Butterfly SNM under independent per-device V_th0 perturbations.

    All draws come from one seeded generator up front.  Each sample is one
    device parameter set, and the samples' butterflies are solved together
    as lanes of one lobe-pair system per batch, one lane per grid point
    carrying both lobes, each started at the nominal pair's state at its
    point; every sample equals its own
    butterfly(..., vth_shift=...) bit for bit, so results are
    byte-identical for a given (seed, N, cell, grid) however the lanes are
    scheduled.  A sample that fails to solve is NaN and counts toward
    `failures`, which are fatal only beyond 10% of N.
    """
    if vm is None:
        raise ValueError("a VariationModel is required")
    mos = [m for m in cell.mos_elements if not m.degenerate]
    if not mos:
        raise ConfigError("cell has no transistors to perturb")
    card = tech if tech is not None else TechnologyParams.default()
    if vm.a_vth is None and min(card.nmos.a_vth, card.pmos.a_vth) < 0:
        raise ConfigError("a_vth must be nonnegative")
    a_vth = [card.device(m.polarity).a_vth if vm.a_vth is None else vm.a_vth for m in mos]
    sig = np.array([sigma_vth(a, m.w, m.l) for a, m in zip(a_vth, mos)])
    rng = np.random.default_rng(vm.seed)
    draws = rng.standard_normal((vm.n_samples, len(mos)))

    samples = np.full(vm.n_samples, np.nan)
    failures = 0
    shifts = (
        {m.id: float(draws[k, j] * sig[j]) for j, m in enumerate(mos)}
        for k in range(vm.n_samples)
    )
    for k, data in enumerate(_butterflies(cell, tech, mode, v_dd, grid, shifts)):
        if isinstance(data, EngineError):
            failures += 1
        else:
            samples[k] = data.snm
    if failures > 0.1 * vm.n_samples:
        raise EngineError(
            f"{failures} of {vm.n_samples} Monte Carlo samples failed to solve"
        )
    clean = samples[np.isfinite(samples)]
    return McSummary(
        samples=samples,
        mean=float(clean.mean()),
        stddev=float(clean.std()),
        minimum=float(clean.min()),
        failures=failures,
    )
