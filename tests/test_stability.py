import ast
import contextlib
import io
import itertools
import math
import signal
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sramlab import engine, stability
from sramlab.config import ConfigError
from sramlab.devices import (
    TechnologyParams,
    derive_tech_params,
    leakage_current,
)
from sramlab.engine import (
    ConvergenceError,
    EngineError,
    FloatingNodeError,
    MnaSystem,
    sweep_grid,
)
from sramlab.genlib import CellGeometry, DeviceSize, build_6t_cell
from sramlab.kernels import COL_VTH0
from sramlab.netlist import (
    GROUND,
    MosElement,
    NetlistError,
    Node,
    ResElement,
    SourceElement,
    parse_netlist,
    print_netlist,
    with_elements,
)
from sramlab.report import read_columns
from sramlab.stability import (
    DrvInputs,
    NonWritableError,
    TransferCurve,
    VariationModel,
    butterfly,
    butterfly_to_csv,
    drv_bruteforce,
    drv_closed_form,
    drv_ideal,
    drv_inputs_from_cell,
    inscribed_square_snm,
    monte_carlo_snm,
    read_current,
    sigma_vth,
    snm_macro,
    write_margin,
)

mp.mp.dps = 50

TECH = derive_tech_params(TechnologyParams.default())
VT = TECH.v_t


# ---------------------------------------------------------------------
# Inscribed-square geometry


def step_inverter(v_dd):
    """Ideal infinitely steep transfer curve as a 4-point polyline."""
    half = v_dd / 2.0
    return TransferCurve(
        v_in=np.array([0.0, half, half, v_dd]),
        v_out=np.array([v_dd, v_dd, 0.0, 0.0]),
    )


def smooth_inverter(v_dd, steepness, offset, n=201):
    v = np.linspace(0.0, v_dd, n)
    out = v_dd / 2.0 * (1.0 - np.tanh(steepness * (v - v_dd / 2.0 - offset)))
    return TransferCurve(v, out)


def pair_oracle(curve_a, curve_b, n_fine=2000):
    """Largest axis-parallel square between the curves, by brute force.

    Both boundaries decrease, so a square spanning [a, b] horizontally has
    its tightest vertical room at upper(b) - lower(a); maximizing
    min(b - a, room) over all pairs on a dense grid bounds each lobe's
    margin to within one fine-grid spacing.
    """
    fa_x = np.asarray(curve_a.v_in, float)
    fa_y = np.asarray(curve_a.v_out, float)
    order = np.argsort(curve_b.v_out, kind="stable")
    gb_x = np.asarray(curve_b.v_out, float)[order]
    gb_y = np.asarray(curve_b.v_in, float)[order]

    lo = max(fa_x.min(), gb_x.min())
    hi = min(fa_x.max(), gb_x.max())
    xs = np.linspace(lo, hi, n_fine + 1)
    fa = np.interp(xs, fa_x, fa_y)
    gb = np.interp(xs, gb_x, gb_y)

    dx = xs[None, :] - xs[:, None]  # extent of the pair (a=row, b=col)
    upper = np.where(dx > 0, np.minimum(dx, fa[None, :] - gb[:, None]), -np.inf)
    lower = np.where(dx > 0, np.minimum(dx, gb[None, :] - fa[:, None]), -np.inf)
    return max(upper.max(), 0.0), max(lower.max(), 0.0), (hi - lo) / n_fine


def test_ideal_step_inverters_give_half_vdd():
    for v_dd in (1.0, 1.8):
        r = inscribed_square_snm(step_inverter(v_dd), step_inverter(v_dd))
        assert math.isclose(r.snm_high, v_dd / 2.0, rel_tol=1e-12)
        assert math.isclose(r.snm_low, v_dd / 2.0, rel_tol=1e-12)
        assert r.snm == min(r.snm_high, r.snm_low)
        assert r.anchors_high is not None and r.anchors_low is not None


def test_inscribed_square_matches_pair_oracle():
    # Deliberately asymmetric pair so the two lobes differ.
    a = smooth_inverter(1.8, 6.0, 0.12)
    b = smooth_inverter(1.8, 9.0, -0.07)
    r = inscribed_square_snm(a, b)
    oracle_high, oracle_low, spacing = pair_oracle(a, b)
    assert abs(r.snm_high - oracle_high) <= 2.0 * spacing
    assert abs(r.snm_low - oracle_low) <= 2.0 * spacing
    assert r.snm_high != pytest.approx(r.snm_low, rel=1e-3)


def test_swapping_curves_exchanges_lobes():
    a = smooth_inverter(1.8, 6.0, 0.12)
    b = smooth_inverter(1.8, 9.0, -0.07)
    fwd = inscribed_square_snm(a, b)
    rev = inscribed_square_snm(b, a)
    assert math.isclose(fwd.snm_high, rev.snm_low, rel_tol=1e-9)
    assert math.isclose(fwd.snm_low, rev.snm_high, rel_tol=1e-9)


def test_coincident_anti_diagonals_are_not_bistable():
    line = TransferCurve(np.array([0.0, 1.8]), np.array([1.8, 0.0]))
    r = inscribed_square_snm(line, line)
    assert r.snm_high == 0.0 and r.snm_low == 0.0
    assert r.anchors_high is None and r.anchors_low is None


def test_separated_curves_are_not_bistable():
    a = TransferCurve(np.array([0.0, 1.8]), np.array([1.8, 0.0]))
    b = TransferCurve(np.array([0.0, 1.9]), np.array([1.9, 0.0]))
    r = inscribed_square_snm(a, b)
    assert r.snm_high == 0.0 and r.snm_low == 0.0


def test_anchor_points_lie_on_the_gap_extremes():
    a = smooth_inverter(1.8, 6.0, 0.0)
    r = inscribed_square_snm(a, a)
    (pa, pb) = r.anchors_high
    # Anchor pairs share a falling diagonal: V1 + V2 differs, V1 - V2 equal.
    assert math.isclose(pa[0] - pa[1], pb[0] - pb[1], abs_tol=1e-9)
    diag = math.hypot(pa[0] - pb[0], pa[1] - pb[1])
    assert math.isclose(diag, r.snm_high * math.sqrt(2.0), rel_tol=1e-9)


# ---------------------------------------------------------------------
# Cell butterfly


@pytest.fixture(scope="module")
def cell():
    return build_6t_cell()


def test_hold_butterfly_symmetric_lobes(cell):
    data = butterfly(cell, mode="hold", v_dd=1.8, grid=0.01)
    assert data.snm > 0.3
    # The cell is mirror symmetric, so the lobes must match exactly.
    assert math.isclose(data.snm_high, data.snm_low, rel_tol=1e-9)
    assert data.mode == "hold" and data.v_dd == 1.8


def test_read_margin_below_hold_margin(cell):
    hold = butterfly(cell, mode="hold", v_dd=1.8, grid=0.01).snm
    read = butterfly(cell, mode="read", v_dd=1.8, grid=0.01).snm
    assert 0.0 < read < hold


def test_butterfly_lobe_curves_are_inverters(cell):
    data = butterfly(cell, mode="hold", v_dd=1.8, grid=0.01)
    out = data.lobe_a.v_out
    assert out[0] > 1.7 and out[-1] < 0.1
    assert all(b <= a + 1e-9 for a, b in zip(out, out[1:]))


def test_butterfly_validation(cell):
    with pytest.raises(ValueError, match="mode"):
        butterfly(cell, mode="write")
    with pytest.raises(ValueError, match="grid"):
        butterfly(cell, grid=0.0)
    bare = parse_netlist("* no roles\nR1 a 0 1k\n.END")
    with pytest.raises(NetlistError, match="no 'Q' role"):
        butterfly(bare)


def test_butterfly_rejects_bias_id_collision(cell):
    taken = with_elements(
        cell, [SourceElement("VSNMBL", Node("QBAR"), Node(GROUND), "DC", (0.0,))]
    )
    with pytest.raises(NetlistError, match="VSNMBL"):
        butterfly(taken)


def test_butterfly_leaves_cell_untouched(cell):
    before = print_netlist(cell)
    butterfly(cell, mode="hold", v_dd=1.8, grid=0.05)
    assert print_netlist(cell) == before


def test_butterfly_csv(cell):
    data = butterfly(cell, mode="hold", v_dd=1.8, grid=0.05)
    buf = io.StringIO()
    butterfly_to_csv(data, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "V1,Vout_A,Vout_B_mirrored"
    body = [l for l in lines[1:] if not l.startswith("#")]
    tail = [l for l in lines[1:] if l.startswith("#")]
    assert len(body) == data.lobe_a.v_in.size
    assert any(l.startswith("# snm_high=") for l in tail)
    assert any(l.startswith("# snm=") for l in tail)
    assert any("mode=hold" in l for l in tail)


def test_butterfly_csv_reads_back(cell, tmp_path):
    # report.read_columns reads back a file write_columns wrote with notes:
    # the header, every column bit for bit, and the notes in order.
    data = butterfly(cell, mode="hold", v_dd=1.8, grid=0.05)
    path = tmp_path / "snm.csv"
    butterfly_to_csv(data, path)
    header, columns, notes = read_columns(path)
    assert header == ["V1", "Vout_A", "Vout_B_mirrored"]
    for j, col in enumerate((data.lobe_a.v_in, data.lobe_a.v_out, data.lobe_b.v_out)):
        assert columns[:, j].tobytes() == np.asarray(col, float).tobytes()
    assert notes == [
        f"snm_high={data.snm_high!r}",
        f"snm_low={data.snm_low!r}",
        f"snm={data.snm!r}",
        "mode=hold v_dd=1.8 grid=0.05",
    ]


def test_butterfly_csv_ends_every_line_in_crlf(cell, tmp_path):
    data = butterfly(cell, mode="hold", v_dd=1.8, grid=0.05)
    path = tmp_path / "snm.csv"
    butterfly_to_csv(data, path)
    with open(path, newline="") as fh:
        lines = fh.readlines()  # split at any of \n, \r and \r\n, each kept
    assert len(lines) == 1 + data.lobe_a.v_in.size + 4
    assert all(line.endswith("\r\n") for line in lines)


def biased_lobe(cell, mode, v_dd, drive):
    """The cell biased as butterfly biases it, with `drive` (Q or QBAR)
    pinned by the source VIN."""
    gnd = Node(GROUND)
    wl = v_dd if mode == "read" else 0.0
    drives = {"VDD": v_dd, "WL": wl, "BL": v_dd, "BLB": v_dd, drive: 0.0}
    return with_elements(
        cell,
        [
            SourceElement("VIN" if role == drive else f"VB{role}", Node(cell.role_node(role)), gnd, "DC", (v,))
            for role, v in drives.items()
        ],
    )


def biased_write(cell, bl_v, v_dd=1.8, wl=1.8):
    """The cell biased for a write: supply, wordline and BLB driven, and BL
    at bl_v by the source VWBL."""
    gnd = Node(GROUND)
    drives = {"VDD": v_dd, "WL": wl, "BL": bl_v, "BLB": v_dd}
    return with_elements(
        cell,
        [SourceElement(f"VW{role}", Node(cell.role_node(role)), gnd, "DC", (v,)) for role, v in drives.items()],
    )


def state_at(sys, volts):
    """A state of sys with the named nodes at volts, every other unknown at zero."""
    x = np.zeros(sys.size)
    for name, v in volts.items():
        x[sys.node_index[name]] = v
    return x


def write_probe_lanes(cell, v_dd, values, vth_shift=None):
    """One lane per BL value of a write at v_dd (wordline at v_dd), each
    started at the held state, Q at v_dd: the system, starts and
    right-hand sides.  Q and QBAR are coupled free unknowns here."""
    lobe = MnaSystem(biased_write(cell, 0.0, v_dd, v_dd), vth_shift=vth_shift)
    held = state_at(lobe, {cell.role_node("Q"): v_dd})
    b = lobe.rhs(drive={"VWBL": values})
    return lobe, np.repeat(held[None], len(values), axis=0), b


def one_lane(lobe, x0, b, g):
    """_newton_lanes on the one lane x0 against b and linear Jacobian g:
    its state and iteration count, or ConvergenceError naming its worst
    node."""
    (x,), (its,), failed = lobe._newton_lanes(x0[None], b[None], g)
    if failed:
        raise ConvergenceError(failed[0])
    return x, int(its)


def refuse_newton(monkeypatch, refuse):
    """Make _newton_lanes fail, naming the node "refused", every lane j
    for which refuse(system, x0, b, g, sets)[j] holds; such a lane
    returns its start, as a failed lane does."""
    real = MnaSystem._newton_lanes

    def refusing(self, x0, b, g, sets=None):
        x, its, failed = real(self, x0, b, g, sets)
        sets = np.zeros(len(x0), dtype=np.int64) if sets is None else sets
        for j in np.flatnonzero(refuse(self, x0, b, g, sets)).tolist():
            x[j], its[j], failed[j] = x0[j], engine.MAX_ITER, "refused"
        return x, its, failed

    monkeypatch.setattr(MnaSystem, "_newton_lanes", refusing)


def sequential_lobes(cell, mode, v_dd, grid, vth_shift=None):
    """Both lobes by warm-started sweeps, one point at a time, the first
    from zero, as dc_sweep runs them, on a system under vth_shift."""
    values = sweep_grid(0.0, v_dd, grid)
    lobes = []
    for drive, probe in (("Q", "QBAR"), ("QBAR", "Q")):
        lobe = MnaSystem(biased_lobe(cell, mode, v_dd, drive), vth_shift=[vth_shift or {}])
        x, v_out = np.zeros(lobe.size), np.empty(values.size)
        for i, b in enumerate(lobe.rhs(drive={"VIN": values})):
            (x,), _, _, failed = lobe.solve_lanes(b[None], x)
            if failed:
                raise ConvergenceError(failed[0])
            v_out[i] = x[lobe.node_index[cell.role_node(probe)]]
        lobes.append(TransferCurve(values, v_out))
    return lobes


def assert_matches_sequential(data, cell, vth_shift=None, tol=1e-5):
    seq = sequential_lobes(cell, data.mode, data.v_dd, data.grid, vth_shift)
    for lobe, ref in zip((data.lobe_a, data.lobe_b), seq):
        assert np.array_equal(lobe.v_in, ref.v_in)
        assert np.abs(lobe.v_out - ref.v_out).max() <= tol
    ref = inscribed_square_snm(*seq)
    assert abs(data.snm_high - ref.snm_high) <= tol
    assert abs(data.snm_low - ref.snm_low) <= tol


CELL_MOS = ("MPDL", "MPUL", "MPDR", "MPUR", "MPGL", "MPGR")


@settings(max_examples=8, deadline=None)
@given(
    mode=st.sampled_from(["hold", "read"]),
    v_dd=st.sampled_from([round(0.90 + 0.05 * k, 2) for k in range(19)]),
    grid=st.sampled_from([0.010, 0.0125, 0.015]),
    shifts=st.lists(st.floats(-0.02, 0.02), min_size=6, max_size=6),
)
def test_batched_butterfly_matches_sequential_sweeps(cell, mode, v_dd, grid, shifts):
    # Every lobe point is a lane of one batched Newton, started at the
    # nominal lobe's state; the oracle sweeps the same biasing one point at
    # a time, warm-started.
    shift = dict(zip(CELL_MOS, shifts))
    data = butterfly(cell, mode=mode, v_dd=v_dd, grid=grid, vth_shift=shift)
    assert_matches_sequential(data, cell, shift)


def cold_at(v_in, source="VIN"):
    """A refuse() for refuse_newton: the lanes started cold (every free
    unknown, each lobe's probe, at 0 V) with `source` driven at v_in, on
    plain Newton and on every rung of the gmin ladder."""

    def refuse(lobe, x0, b, g, sets):
        cold = (x0[:, lobe._free] == 0).all(axis=1)
        return cold & np.isclose(-b[:, lobe.branch_index[source]], v_in)

    return refuse


def test_stuck_decoupled_lane_fails_its_butterfly(cell, monkeypatch):
    # Made to refuse the cold lane at v_in = 0.5 V of the read lobe pair at
    # 0.95 V, which carries both lobes' points there, on plain Newton and
    # on the gmin ladder it then walks, that lane fails the butterfly with
    # the ladder's message, the node its refusals name, and its own drive.
    refuse_newton(monkeypatch, cold_at(0.5, "VSNMIN_A"))
    entered = spy_fallbacks(monkeypatch)
    with pytest.raises(ConvergenceError) as failed:
        butterfly(cell, mode="read", v_dd=0.95, grid=0.0125)
    assert str(failed.value) == (
        "gmin stepping stalled below the minimum step; worst residual at node refused (sweeping VSNMIN=0.5)"
    )
    assert entered == ["_gmin_stepping"]


def test_refused_lobe_lane_is_landed_by_the_ladder(cell, monkeypatch):
    # Plain Newton alone refuses the cold lane at v_in = 0.5 V of the read
    # lobe pair at 0.95 V: the gmin ladder lands it, both lobes' points
    # within the Newton stop tolerance of the solve plain Newton passed,
    # and leaves every other point as it was.
    want = butterfly(cell, mode="read", v_dd=0.95, grid=0.0125)
    cold = cold_at(0.5, "VSNMIN_A")
    refuse_newton(monkeypatch, lambda lobe, x0, b, g, sets: cold(lobe, x0, b, g, sets) & (g is lobe.g_static))
    entered = spy_fallbacks(monkeypatch)
    data = butterfly(cell, mode="read", v_dd=0.95, grid=0.0125)
    assert entered == ["_gmin_stepping"]
    i = np.flatnonzero(np.isclose(want.lobe_a.v_in, 0.5))[0]
    for got, ref in ((data.lobe_a, want.lobe_a), (data.lobe_b, want.lobe_b)):
        assert abs(got.v_out[i] - ref.v_out[i]) <= engine.RELTOL * abs(ref.v_out[i]) + engine.VNTOL
        assert np.array_equal(np.delete(got.v_out, i), np.delete(ref.v_out, i))


def spy_fallbacks(monkeypatch):
    """Names of the fallback stages the engine enters, in order: the gmin
    ladder is the only one."""
    entered = []
    real = MnaSystem._gmin_stepping

    def spy(self, *args):
        entered.append("_gmin_stepping")
        return real(self, *args)

    monkeypatch.setattr(MnaSystem, "_gmin_stepping", spy)
    return entered


def kcl_bisection(cell, mode, v_dd, v_in, node="QBAR", vth_shift=None):
    """Root of `node`'s KCL residual in the Q-driven lobe with every drive
    fixed (Q at v_in), by plain bisection on [0, v_dd]; the residual is
    increasing in the node's voltage."""
    lobe = MnaSystem(biased_lobe(cell, mode, v_dd, "Q"), vth_shift=[vth_shift or {}])
    wl = v_dd if mode == "read" else 0.0
    roles = {"VDD": v_dd, "WL": wl, "BL": v_dd, "BLB": v_dd, "Q": v_in}
    x = state_at(lobe, {cell.role_node(r): v for r, v in roles.items()})
    row, b = lobe.node_index[cell.role_node(node)], lobe.rhs(drive={"VIN": v_in})

    def kcl(v):
        x[row] = v
        return lobe.residual(x, b)[row]

    lo, hi = 0.0, v_dd
    assert kcl(lo) < 0.0 < kcl(hi)
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if kcl(mid) < 0.0 else (lo, mid)
    return lo


@pytest.mark.parametrize("v_dd, grid, v_in", [(0.95, 0.0125, 0.5), (1.0, 0.01, 0.51)])
def test_bracketed_lane_is_the_kcl_root(cell, monkeypatch, v_dd, grid, v_in):
    # Read lanes that plain Newton once 2-cycled on: inside the pool, the
    # bracket on QBAR turns them into converged lanes, and QBAR is the root
    # an independent bisection of its KCL finds, to the Newton stop
    # tolerance.  So it is from an all-zero start, where the drives take
    # several clipped steps before the bracket may form.
    entered = spy_fallbacks(monkeypatch)
    data = butterfly(cell, mode="read", v_dd=v_dd, grid=grid)
    assert entered == []
    i = np.flatnonzero(np.isclose(data.lobe_a.v_in, v_in))[0]
    want = kcl_bisection(cell, "read", v_dd, data.lobe_a.v_in[i])
    tol = engine.RELTOL * abs(want) + engine.VNTOL
    assert abs(data.lobe_a.v_out[i] - want) <= tol
    lobe = MnaSystem(biased_lobe(cell, "read", v_dd, "Q"))
    x, _ = one_lane(lobe, np.zeros(lobe.size), lobe.rhs(drive={"VIN": data.lobe_a.v_in[i]}), lobe.g_static)
    assert abs(x[lobe.node_index[cell.role_node("QBAR")]] - want) <= tol


def test_recorded_draw_lobe_is_the_kcl_root(cell):
    # A draw that once failed the batched-versus-swept oracle: read at
    # 0.95 V on the 15 mV grid with three devices shifted.  At v_in = 0.48 V
    # QBAR's KCL has a slope of only 8.2e-7 S, so a residual inside ABSTOL
    # can still be microvolts off; the batched lobe A must lie within
    # 1e-5 V of the root an independent bisection finds.
    shift = {"MPDR": 0.02, "MPUR": 0.0162010861473456, "MPGR": -0.00390625}
    data = butterfly(cell, mode="read", v_dd=0.95, grid=0.015, vth_shift=shift)
    i = np.flatnonzero(np.isclose(data.lobe_a.v_in, 0.48))[0]
    want = kcl_bisection(cell, "read", 0.95, data.lobe_a.v_in[i], vth_shift=shift)
    assert abs(data.lobe_a.v_out[i] - want) <= 1e-5


def test_decoupled_lanes_never_fail_plain_newton(cell, monkeypatch):
    # Decoupled lanes reach the gmin ladder only when plain Newton fails
    # them, and on real workloads no lane of a decoupled system fails
    # _newton_lanes.  Checked on hold and read
    # butterflies over every other lattice supply of 0.90-1.80 V on each
    # perfbench grid, on low supplies and the DRV bisection, and on seeded
    # Monte Carlo runs of random geometries (every W scaled by e^U(-1,1))
    # at random supplies of 0.05-2.0 V and mismatch up to 30 mV*um.  Each
    # free unknown of a lane is one lobe point: a lobe pair's lane carries
    # two.
    points, failures = [], []
    real = MnaSystem._newton_lanes

    def spy(self, x0, *args):
        x, its, failed = real(self, x0, *args)
        if self.decoupled:
            points.append(len(x0) * self._free.size)
            failures.extend(failed.values())
        return x, its, failed

    monkeypatch.setattr(MnaSystem, "_newton_lanes", spy)
    entered = spy_fallbacks(monkeypatch)
    for mode, grid in itertools.product(("hold", "read"), (0.010, 0.0125, 0.015)):
        for v_dd in (round(0.90 + 0.10 * k, 2) for k in range(10)):
            butterfly(cell, mode=mode, v_dd=v_dd, grid=grid)
    for mode, v_dd in itertools.product(("hold", "read"), (0.1, 0.2, 0.3, 0.5, 0.7)):
        butterfly(cell, mode=mode, v_dd=v_dd, grid=v_dd / 50)
    for v_max in (0.25, 0.6, 1.8):
        drv_bruteforce(cell, v_max=v_max)
    rng = np.random.default_rng(14)
    for k in range(16):
        scales = iter(np.exp(rng.uniform(-1.0, 1.0, 6)))
        entries = [replace(e, w=e.w * next(scales)) if isinstance(e, MosElement) else e for e in cell.entries]
        sized = replace(cell, entries=entries)
        v_dd = rng.uniform(0.05, 2.0)
        vm = VariationModel(rng.uniform(0.0, 3e-8), 8, k)
        monte_carlo_snm(sized, vm=vm, mode=("hold", "read")[k % 2], v_dd=v_dd, grid=v_dd / 40)
    assert failures == [] and entered == []
    assert sum(points) > 30_000


def stamp_counter(monkeypatch):
    """Lane count of every stamp the engine makes, in order."""
    lanes = []
    real = engine.mos_stamp

    def spy(x_ext, *args):
        lanes.append(x_ext.shape[0] if x_ext.ndim == 2 else 1)
        return real(x_ext, *args)

    monkeypatch.setattr(engine, "mos_stamp", spy)
    return lanes


def test_cycling_lane_fails_before_max_iter(cell, monkeypatch):
    # A write probe at 1.2 V with BL = 0.2 V, Q and QBAR coupled, 2-cycles
    # from the held state: it repeats its state exactly long before
    # iteration MAX_ITER, and fails as soon as it does, naming Q as its
    # worst node.
    lobe, x0, b = write_probe_lanes(cell, 1.2, [0.2])
    assert not lobe.decoupled
    lanes = stamp_counter(monkeypatch)
    with pytest.raises(ConvergenceError, match="^Q$"):
        one_lane(lobe, x0[0], b[0], lobe.g_static)
    assert len(lanes) < engine.MAX_ITER


def test_refilled_pool_matches_one_lane_solves(cell, monkeypatch):
    # Two queues of lanes for a pool of 16, which lanes leave at different
    # iterations, so the queue refills it.  First, write probes at 1.2 V
    # under three parameter sets, BL every 25 mV from the held state, Q
    # and QBAR coupled: the probes below about 0.1 V and above about
    # 0.35 V converge, most between 2-cycle.  Then the 77 cold lanes of
    # the read lobe pair at 0.95 V on the 12.5 mV grid, a decoupled system
    # whose lanes keep brackets: the lane at v_in = 0.5 V enters by refill
    # and takes its bracket's midpoint in place of a Newton target
    # (checked once by instrumenting the pool).  Every lane must end as it
    # does alone, in state, iteration count and failed node, and the pool
    # must share its stamps among many lanes.
    rng = np.random.default_rng(5)
    shifts = [dict(zip(CELL_MOS, rng.normal(0.0, 0.02, 6))) for _ in range(3)]
    grid = sweep_grid(0.0, 1.2, 0.025)
    probes = (*write_probe_lanes(cell, 1.2, np.tile(grid, 3), shifts), np.repeat(np.arange(3), grid.size))
    entered = []
    real = MnaSystem._newton_lanes

    def spy(self, x0, b, g, sets=None):
        entered.append((self, x0, b, sets))
        return real(self, x0, b, g, sets)

    monkeypatch.setattr(MnaSystem, "_newton_lanes", spy)
    butterfly(cell, mode="read", v_dd=0.95, grid=0.0125)
    monkeypatch.undo()
    pair = entered[0]  # plain Newton on the nominal pair's cold lanes
    assert pair[0].decoupled and len(pair[1]) == 77
    monkeypatch.setattr(engine, "MAX_LANES", 16)
    lanes = stamp_counter(monkeypatch)
    for (lobe, x0, b, sets), some_fail in ((probes, True), (pair, False)):
        lanes.clear()
        x, its, failed = lobe._newton_lanes(x0, b, lobe.g_static, sets)
        pooled = len(lanes)
        assert max(lanes) == 16
        assert 0 < len(failed) < len(x0) if some_fail else failed == {}
        assert set(failed.values()) <= set(lobe.node_index)
        for i in range(len(x0)):
            x_1, its_1, failed_1 = lobe._newton_lanes(x0[i : i + 1], b[i : i + 1], lobe.g_static, sets[i : i + 1])
            assert np.array_equal(x[i], x_1[0])
            assert its[i] == its_1[0]
            assert failed.get(i) == failed_1.get(0)
        assert 8 * pooled < len(lanes) - pooled


def one_lane_chain(lobe, x0, b):
    """solve_lanes one lane at a time, kept as the oracle of the batched
    stage: plain Newton, one one-lane _newton_lanes per lane, and then, for
    a lane it fails, the adaptive gmin ladder from that lane's own start,
    one one-lane solve per rung.  Returns the states, the iteration
    counts, the fallback mask, the message of each lane that stalls on
    the ladder, and the shunts each rescued lane's rungs tried, in order."""
    rungs: dict[int, list[float]] = {}

    def gmin_stepping(lane, x, b_l):
        # A decade down from 1e-3 S per accepted rung; a failed rung is
        # retried from the accepted state with half the step, which then
        # regrows by half per rung up to a decade; no shunt once the next
        # would not exceed 1e-12 S, and a failed unshunted rung is not
        # retried while half the step still gives no shunt.
        total, shunt, step = 0, 1e-2, 1.0
        while True:
            gmin = shunt * 10.0**-step
            gmin = gmin if gmin > 1e-12 else 0.0
            rungs.setdefault(lane, []).append(gmin)
            g = lobe.g_static.copy()
            g[lobe._node_diag] += gmin
            try:
                x, its = one_lane(lobe, x, b_l, g)
            except ConvergenceError:
                step *= 0.5
                if step < 0.01 or shunt * 10.0**-step <= 1e-12:
                    raise ConvergenceError("gmin stepping stalled below the minimum step") from None
                continue
            total += its
            if not gmin:
                return x, total
            shunt, step = gmin, min(1.0, 1.5 * step)

    x, its = x0.copy(), np.zeros(len(x0), dtype=np.int64)
    fallback, left = np.zeros(len(x0), dtype=bool), {}
    for lane in range(len(x0)):
        x_1, its_1, stuck = lobe._newton_lanes(x0[lane : lane + 1], b[lane : lane + 1], lobe.g_static)
        x[lane], its[lane], fallback[lane] = x_1[0], its_1[0], bool(stuck)
        if stuck:
            try:
                x[lane], its[lane] = gmin_stepping(lane, x0[lane], b[lane])
            except ConvergenceError as exc:
                left[lane] = str(exc)
    return x, its, fallback, left, rungs


def test_batched_fallbacks_match_the_one_lane_chain(cell, monkeypatch):
    # Coupled write probes at 1.2 V, each from the held state, BL every
    # 10 mV over 0.10-0.45 V and every 2.5 mV over 0.37-0.43 V.  Plain
    # Newton 2-cycles at BL 0.11-0.33 V, where the fixed decade ladder
    # converges, and fails again across 0.374-0.420 V, where the fixed
    # ladder failed too and only a halved step gets through.  Every probe
    # must be rescued.  Batched, in one gmin stage, every lane must end as
    # the one-lane chain leaves it: the same fallback mask and messages,
    # and the same state and iteration count wherever a lane converges.
    # The stage makes one _newton_lanes call per round, in which every lane
    # still walking tries the rung the chain tries at that round, so the
    # halved steps put the lanes of one call on different rungs.
    values = np.concatenate((sweep_grid(0.10, 0.45, 0.01), np.arange(0.37, 0.43, 0.0025)))
    lobe, x0, b = write_probe_lanes(cell, 1.2, values)
    want_x, want_its, want_fallback, want_left, want_rungs = one_lane_chain(lobe, x0, b)
    stages = spy_fallbacks(monkeypatch)
    rounds = []  # per ladder call: the shunt of each of its lanes
    real = MnaSystem._newton_lanes

    def spy(self, x0, b, g, sets=None):
        if stages:
            d = self._node_diag[0]
            rounds.append(np.broadcast_to(g, (len(x0), g.shape[-1]))[:, d] - self.g_static[d])
        return real(self, x0, b, g, sets)

    monkeypatch.setattr(MnaSystem, "_newton_lanes", spy)
    x, its, fallback, left = lobe.solve_lanes(b, x0)
    monkeypatch.undo()

    assert stages == ["_gmin_stepping"]
    walks = [want_rungs[lane] for lane in sorted(want_rungs)]
    assert len(rounds) == max(map(len, walks))
    for k, shunts in enumerate(rounds):
        assert shunts == pytest.approx([walk[k] for walk in walks if len(walk) > k], rel=1e-6, abs=0)
    assert any(np.unique(shunts).size > 2 for shunts in rounds)
    assert want_fallback[(0.11 <= values) & (values <= 0.33)].all()
    assert want_fallback[(0.374 <= values) & (values <= 0.420)].all()
    assert want_left == {}
    assert np.array_equal(fallback, want_fallback)
    assert left == want_left
    ok = ~np.isin(np.arange(values.size), list(left))
    assert np.array_equal(x[ok], want_x[ok]) and np.array_equal(its[ok], want_its[ok])


def test_coupled_lobe_is_swept_not_batched(cell, monkeypatch):
    # A node X hanging off QBAR through a divider is a second free unknown
    # coupled to QBAR when Q is driven, so that lobe, and the lobe pair
    # holding it, is no longer decoupled: its points could have two
    # solutions, and cold lanes must not be used, so the pair is swept,
    # both drives in lockstep.
    gnd, qbar, x = Node(GROUND), Node(cell.role_node("QBAR")), Node("X")
    coupled = with_elements(cell, [ResElement("RX1", qbar, x, 1e6), ResElement("RX2", x, gnd, 1e6)])
    assert not MnaSystem(biased_lobe(coupled, "hold", 1.8, "Q")).decoupled
    assert MnaSystem(biased_lobe(coupled, "hold", 1.8, "QBAR")).decoupled
    assert MnaSystem(biased_lobe(cell, "hold", 1.8, "Q")).decoupled

    swept = []
    real = MnaSystem.sweep
    values = sweep_grid(0.0, 1.8, 0.02)

    def spy(self, b, *args):
        drives = [-b[:, self.branch_index[f"VSNMIN_{side}"]] for side in "AB"]
        swept.append((self.decoupled, all(np.array_equal(d, values) for d in drives)))
        return real(self, b, *args)

    monkeypatch.setattr(MnaSystem, "sweep", spy)
    butterfly(cell, mode="hold", v_dd=1.8, grid=0.02)
    assert swept == [(True, True)]
    swept.clear()
    data = butterfly(coupled, mode="hold", v_dd=1.8, grid=0.02)
    monkeypatch.undo()
    assert swept == [(False, True)]
    assert_matches_sequential(data, coupled)


def test_singular_lobe_fails_every_sample_with_its_sweep(cell):
    # A node X that only a gate touches has no conductive path to ground,
    # so the decoupled lobe's Newton step is singular.  The error belongs
    # to no lane: it names the swept source without a drive value, and it
    # fails every sample of the batch, shifted or not.
    gnd = Node(GROUND)
    gated = with_elements(cell, [MosElement("MX", gnd, Node("X"), gnd, gnd, "NMOS", l=1e-6, w=1e-6)])
    assert MnaSystem(biased_lobe(gated, "hold", 1.8, "Q")).decoupled
    message = "singular system matrix; some node has no conductive path to ground (sweeping VSNMIN)"
    with pytest.raises(FloatingNodeError) as singular:
        butterfly(gated, mode="hold", v_dd=1.8, grid=0.05)
    assert str(singular.value) == message
    shifts = [{}, dict.fromkeys(CELL_MOS, 0.01), {"MPDL": -0.01}]
    out = list(stability._butterflies(gated, None, "read", 1.8, 0.05, shifts))
    assert [(type(e), str(e)) for e in out] == [(FloatingNodeError, message)] * len(shifts)
    with pytest.raises(EngineError, match="^8 of 8 Monte Carlo samples failed to solve$"):
        monte_carlo_snm(gated, vm=VariationModel(None, 8, 1), mode="hold", v_dd=1.8, grid=0.05)


def test_parameter_sets_ride_the_gmin_ladder(cell):
    # Write probes at 1.2 V from the held state over BL 0.11-0.33 V, where
    # plain Newton 2-cycles and the gmin ladder runs, under two parameter
    # sets: nominal, and both pull-downs' V_th0 raised 10 mV.  Each lane,
    # ladder lanes included, must end bit for bit as the same lane solved
    # on a system of its own set alone.
    shifts = [{}, {"MPDL": 0.01, "MPDR": 0.01}]
    values = sweep_grid(0.11, 0.33, 0.02)
    lobe, x0, b = write_probe_lanes(cell, 1.2, np.tile(values, 2), shifts)
    sets = np.repeat(np.arange(2), values.size)
    assert not lobe.decoupled
    x, its, ladder, failed = lobe.solve_lanes(b, x0[0], sets)
    assert ladder[sets == 0].all() and ladder[sets == 1].all()
    assert not np.array_equal(x[sets == 0], x[sets == 1])
    for i, k in enumerate(sets):
        alone = MnaSystem(lobe.net, vth_shift=[shifts[k]])
        x_1, its_1, ladder_1, failed_1 = alone.solve_lanes(b[i : i + 1], x0[i])
        assert np.array_equal(x[i], x_1[0]) and its[i] == its_1[0] and ladder[i] == ladder_1[0]
        assert failed.get(i) == failed_1.get(0)


def test_snm_grows_with_supply(cell):
    margins = [
        butterfly(cell, mode="hold", v_dd=v, grid=0.01).snm for v in (0.9, 1.35, 1.8)
    ]
    assert margins[0] < margins[1] < margins[2]


def test_snm_macro_values():
    assert math.isclose(snm_macro(1.8, 0.036, 1.0), 2.0 / 4.0 * 1.764, rel_tol=1e-12)
    assert snm_macro(0.5, 0.5, 1.0) == 0.0
    with pytest.raises(ValueError):
        snm_macro(0.4, 0.5, 1.0)


# ---------------------------------------------------------------------
# Retention voltage


def oracle_drv_general(i_off, n, v_t):
    i1, i2, i3, i4, i5, _ = map(mp.mpf, i_off)
    n1, n2, n3, n4, _, _ = map(mp.mpf, n)
    vt = mp.mpf(v_t)
    arg = (1 / n3 + 1 / n4) * (i4 / (i2 * i3)) * (i5 / n2 + i1 * (1 / n1 + 1 / n2))
    drv0 = vt / (1 / n2 + 1 / n3) * mp.log(arg)
    v1 = vt * (i1 + i5) / i2 * mp.e ** (-drv0 / (n2 * vt))
    v2 = drv0 - vt * (i4 / i3) * mp.e ** (-drv0 / (n3 * vt))
    return drv0 + v1 / 2 + (drv0 - v2) * n2 / 2


def ideal_inputs(v_t=0.026, i=1e-12):
    return DrvInputs((i,) * 6, (1.0,) * 6, v_t)


def test_drv_ideal_value():
    assert drv_ideal(0.026, 1.0) == 2.0 * 0.026 * math.log(2.0)
    assert abs(drv_ideal(0.026) - 0.036) < 1e-4


def test_matched_inputs_take_the_ideal_floor():
    d = ideal_inputs()
    assert drv_closed_form(d) == drv_ideal(0.026, 1.0)
    # The general stack lands elsewhere (near 39 mV), which is exactly why
    # the matched case dispatches to the floor.
    general = stability._drv_general(d)
    expected = float(oracle_drv_general(d.i_off, d.n, d.v_t))
    assert math.isclose(general, expected, rel_tol=1e-12)
    assert 0.038 < general < 0.041
    assert general != drv_closed_form(d)


def test_general_expression_against_oracle():
    d = DrvInputs(
        i_off=(2e-12, 1e-12, 2.5e-12, 1.2e-12, 3e-12, 3e-12),
        n=(1.3, 1.25, 1.3, 1.25, 1.4, 1.4),
        v_t=0.0259,
    )
    got = drv_closed_form(d)
    assert math.isclose(got, float(oracle_drv_general(d.i_off, d.n, d.v_t)), rel_tol=1e-12)
    # Not matched, so drv_closed_form is the general stack itself.
    assert got == stability._drv_general(d)


def test_drv_inputs_validation():
    with pytest.raises(ValueError):
        DrvInputs((1e-12,) * 5, (1.0,) * 6, 0.026)
    with pytest.raises(ValueError):
        DrvInputs((1e-12,) * 5 + (0.0,), (1.0,) * 6, 0.026)
    with pytest.raises(ValueError):
        DrvInputs((1e-12,) * 6, (1.0,) * 5 + (0.9,), 0.026)
    with pytest.raises(ValueError):
        DrvInputs((1e-12,) * 6, (1.0,) * 6, 0.0)


def test_overflowing_leakage_ratio_rejected():
    d = DrvInputs((1e-308,) * 6, (1.25,) * 6, 0.026)
    with pytest.raises(ValueError, match="log argument"):
        drv_closed_form(d)


def test_drv_inputs_from_cell(cell):
    d = drv_inputs_from_cell(cell)
    assert d.v_t == VT
    assert d.n == (1.25,) * 6
    assert d.i_off[0] == leakage_current(TECH.nmos, 6e-6, 2e-6, VT)  # MPDL
    assert d.i_off[1] == leakage_current(TECH.pmos, 10.5e-6, 2e-6, VT)  # MPUL
    assert d.i_off[4] == leakage_current(TECH.nmos, 10.5e-6, 2.5e-6, VT)  # MPGL


def test_drv_inputs_require_all_six(cell):
    text = "\n".join(
        line for line in print_netlist(cell).splitlines() if not line.startswith("MPGR")
    )
    with pytest.raises(ConfigError, match="MPGR"):
        drv_inputs_from_cell(parse_netlist(text))


def test_bruteforce_drv_sits_on_the_bistability_edge(cell):
    resolution = 4e-3
    drv = drv_bruteforce(cell, resolution=resolution)

    def holds(v_dd):
        grid = max(v_dd / 200.0, 1e-4)
        return butterfly(cell, mode="hold", v_dd=v_dd, grid=grid).snm > 0.0

    assert 0.0 < drv < 0.2
    assert holds(drv)
    assert not holds(drv - 1.5 * resolution)


# ---------------------------------------------------------------------
# Write margin


def probe_write(cell, bl_v, v_dd=1.8, wl=1.8):
    """Independent write probe: bias the cell directly and ask which way
    the latch settled from the held state."""
    q, qbar = cell.role_node("Q"), cell.role_node("QBAR")
    sys = MnaSystem(biased_write(cell, bl_v, v_dd, wl))
    (x,), _, _, failed = sys.solve_lanes(sys.rhs()[None], state_at(sys, {q: v_dd, qbar: 0.0}))
    if failed:
        raise ConvergenceError(failed[0])
    return x[sys.node_index[q]] < x[sys.node_index[qbar]]


def test_write_margin_matches_independent_probe(cell):
    # The margin is the held state's fold: just below it the state is gone
    # and the probe flips; just above it the state is held.  (At the fold
    # itself the held state sits at its tangent, and a probe there holds.)
    wm = write_margin(cell)
    assert 0.0 < wm < 1.8
    assert probe_write(cell, wm - 1e-3)
    assert not probe_write(cell, wm + 1e-3)


def test_write_margin_single_transition(cell):
    wm = write_margin(cell)
    flips = [probe_write(cell, bl) for bl in np.linspace(0.0, 1.8, 19)]
    k = sum(flips)
    assert flips == [True] * k + [False] * (19 - k)
    # wm must fall between the last flipping and first holding coarse probe.
    assert np.linspace(0.0, 1.8, 19)[k - 1] <= wm <= np.linspace(0.0, 1.8, 19)[k]


def sequential_write_margin(cell, v_dd, resolution=1e-3):
    """write_margin's bisection one probe at a time, each probe its own
    solve from the held state."""

    def flips(bl_v):
        return probe_write(cell, bl_v, v_dd, v_dd)

    assert flips(0.0)
    if flips(v_dd):
        return v_dd
    lo, hi = 0.0, v_dd
    while hi - lo > resolution:
        mid = 0.5 * (lo + hi)
        if flips(mid):
            lo = mid
        else:
            hi = mid
    return lo


@pytest.mark.parametrize("v_dd", [1.0, 1.2, 1.30, 1.35, 1.4, 1.8])
def test_write_margin_is_the_sequential_bisection(cell, v_dd):
    # Where the held probes keep their basin, the fold found on decoupled
    # lanes lies in the last bracket of a bisection whose probes solve one
    # by one from the held state.  (At 0.9 V those probes lose it and flip
    # even at BL = v_dd; see test_write_margin_fixes_at_low_supply.)
    seq = sequential_write_margin(cell, v_dd)
    assert seq <= write_margin(cell, v_dd=v_dd) <= seq + 1e-3


def q_driven_write(cell, bl_v, v_dd):
    """The write-biased cell at BL = bl_v with Q driven too, by VWQ: a
    decoupled system."""
    gnd = Node(GROUND)
    net = with_elements(biased_write(cell, bl_v, v_dd, v_dd), [SourceElement("VWQ", Node(cell.role_node("Q")), gnd, "DC", (0.0,))])
    sys = MnaSystem(net)
    assert sys.decoupled
    return sys


def q_roots(cell, bl_v, v_dd, grid=1e-3):
    """Brackets (lo, hi) on a grid of Q in which VWQ's current in
    q_driven_write changes sign: each holds one DC state of the cell."""
    sys = q_driven_write(cell, bl_v, v_dd)
    q = sweep_grid(0.0, v_dd, grid)
    x, _, _, failed = sys.solve_lanes(sys.rhs(drive={"VWQ": q}))
    assert not failed
    i = np.sign(sys.add_inert_currents(x)[:, sys.branch_index["VWQ"]])
    return [(q[j], q[j + 1]) for j in np.flatnonzero(i[:-1] * i[1:] <= 0)]


def cell_state(cell, bl_v, v_dd, bracket):
    """The DC state of the write-biased cell at BL = bl_v within a bracket
    of q_roots, bisected on single Q-driven lanes to adjacent floats, as a
    state of the coupled cell (no coupled solve), with that system."""
    sys = q_driven_write(cell, bl_v, v_dd)
    k = sys.branch_index["VWQ"]

    def at(q):
        x, _, _, failed = sys.solve_lanes(sys.rhs(drive={"VWQ": np.array([q])}))
        assert not failed
        return sys.add_inert_currents(x)[0]

    lo, hi = bracket
    sign_lo = np.sign(at(lo)[k])
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (mid, hi) if np.sign(at(mid)[k]) == sign_lo else (lo, mid)
    x = at(lo)
    coupled = MnaSystem(biased_write(cell, bl_v, v_dd, v_dd))
    state = np.zeros(coupled.size)
    for names, own in ((coupled.node_index, sys.node_index), (coupled.branch_index, sys.branch_index)):
        for name, j in names.items():
            state[j] = x[own[name]]
    return coupled, state


@pytest.mark.parametrize("v_dd", [0.9, 1.2, 1.8])
def test_write_margin_and_read_states_hold_the_coupled_kcl(cell, v_dd):
    # An oracle on the lobe map with no coupled solve: just above the
    # margin the held state is there, one of three states, and its node
    # rows satisfy the coupled cell's KCL within ABSTOL; just below the
    # margin it is gone.  The read state, the stored 0 at BL = v_dd,
    # satisfies it too, and its BL current is read_current.
    res = 1e-3
    wm = write_margin(cell, v_dd=v_dd)
    assert len(q_roots(cell, wm - res, v_dd)) == 1
    roots = q_roots(cell, wm + res, v_dd)
    assert len(roots) == 3
    read_roots = q_roots(cell, v_dd, v_dd)
    assert len(read_roots) == 3
    q, qbar = cell.role_node("Q"), cell.role_node("QBAR")
    for bl_v, bracket, held in ((wm + res, roots[-1], True), (v_dd, read_roots[0], False)):
        coupled, x = cell_state(cell, bl_v, v_dd, bracket)
        res_kcl = coupled.residual(x, coupled.rhs())[: coupled.n_nodes]
        assert np.abs(res_kcl).max() <= engine.ABSTOL
        assert (x[coupled.node_index[q]] > x[coupled.node_index[qbar]]) == held
    current = abs(x[coupled.branch_index["VWBL"]])
    assert math.isclose(read_current(cell, v_dd=v_dd), current, rel_tol=1e-9)


@pytest.mark.parametrize("v_dd", [0.9, 1.8])
def test_write_margin_and_read_current_states_hold_full_kcl(cell, v_dd, monkeypatch):
    # With Q driven, the Q-side devices of a write or read probe are inert,
    # and the branch currents both read count them: every state corrected
    # for branch currents solves KCL at every node over every device.  The
    # write margin's drawn system, BL drawn by ISNMBL, is read at its free
    # BL node alone, so it is solved but never corrected.  A system with
    # no current source has no drive in its node rows, so its card
    # right-hand side gives every state's node residuals.
    solved, worst = [], []
    real_lanes, real_add = MnaSystem.solve_lanes, MnaSystem.add_inert_currents

    def lanes(self, b, *args):
        solved.append(self)
        return real_lanes(self, b, *args)

    def add(self, x):
        x = real_add(self, x)
        assert not self.isources  # never the drawn system
        b = self.rhs()
        res = [np.abs(self.residual(lane, b)[: self.n_nodes]).max() for lane in x]
        worst.append((self._inert.size, max(res)))
        return x

    monkeypatch.setattr(MnaSystem, "solve_lanes", lanes)
    monkeypatch.setattr(MnaSystem, "add_inert_currents", add)
    read_current(cell, v_dd=v_dd)
    read = len(worst)
    write_margin(cell, v_dd=v_dd)
    assert 0 < read < len(worst)
    assert all(inert > 0 and res < engine.ABSTOL for inert, res in worst)
    assert any(sys.isources for sys in solved)


def test_write_margin_rises_with_supply(cell):
    supplies = sweep_grid(0.9, 1.8, 0.025)
    margins = [write_margin(cell, v_dd=float(v)) for v in supplies]
    assert all(a < b for a, b in zip(margins, margins[1:]))
    assert all(0.0 < m < v for m, v in zip(margins, supplies))


def test_write_margin_fixes_at_low_supply(cell):
    # Solves from the held state lost its basin here: the write margin read
    # v_dd, and the read current 2e-12 to 8e-9 A, where the read state
    # carries tens of microamps.
    assert write_margin(cell, v_dd=0.9) < 0.9
    for v_dd, want in ((0.90, 2.071e-5), (0.95, 2.510e-5), (1.00, 2.991e-5), (1.05, 3.516e-5)):
        assert math.isclose(read_current(cell, v_dd=v_dd), want, rel_tol=5e-3)


def test_write_margin_and_read_current_solve_only_decoupled_systems(cell, monkeypatch):
    # Every system the two build is decoupled, and no lane walks the gmin
    # ladder: a lane whose bracket puts BL outside [0, v_dd] is never solved.
    built, laddered = [], []
    real_init, real_ladder = MnaSystem.__init__, MnaSystem._gmin_stepping

    def init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        built.append(self)

    def ladder(self, x0, b, sets):
        laddered.append(len(x0))
        return real_ladder(self, x0, b, sets)

    monkeypatch.setattr(MnaSystem, "__init__", init)
    monkeypatch.setattr(MnaSystem, "_gmin_stepping", ladder)
    for v_dd in (0.9, 1.2, 1.8):
        write_margin(cell, v_dd=v_dd)
        read_current(cell, v_dd=v_dd)
    with pytest.raises(NonWritableError):
        write_margin(cell, wl_voltage=0.0)
    assert len(built) == 3 * 3 + 2
    assert all(sys.decoupled for sys in built)
    assert laddered == []


def test_write_margin_and_read_current_fail_with_a_lane_that_fails(cell, monkeypatch):
    # A lane that neither plain Newton nor the gmin ladder solves fails the
    # analysis with the ladder's message, naming the node the refusals
    # name: here every lane of the system with BL free (write margin) or
    # of every system (read current).
    refuse_newton(monkeypatch, lambda lobe, x0, b, g, sets: np.full(len(x0), bool(lobe.isources)))
    stalled = "^gmin stepping stalled below the minimum step; worst residual at node refused$"
    with pytest.raises(ConvergenceError, match=stalled):
        write_margin(cell, v_dd=1.2)
    monkeypatch.undo()
    refuse_newton(monkeypatch, lambda lobe, x0, b, g, sets: np.full(len(x0), True))
    with pytest.raises(ConvergenceError, match=stalled):
        read_current(cell, v_dd=1.2)


def test_stability_starts_no_solve_from_a_stored_state():
    # Every cell state in stability.py comes from decoupled lanes: no call
    # there makes a single solve (solve_dc, or solve_dc_vector from a
    # stored state).
    tree = ast.parse(Path(stability.__file__).read_text())
    breaches = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)
            if name in ("solve_dc", "solve_dc_vector"):
                breaches.append((node.lineno, name))
    assert breaches == []


@pytest.mark.parametrize("resolution", [0.0, -1e-3, float("nan")])
def test_nonpositive_resolution_is_rejected_before_any_solve(cell, resolution, monkeypatch):
    # No bisection can shrink to such a resolution.
    lanes = stamp_counter(monkeypatch)
    with pytest.raises(ValueError, match="resolution must be positive"):
        drv_bruteforce(cell, resolution=resolution)
    assert lanes == []


@pytest.mark.parametrize("supply", [0.0, -1.0, float("nan")])
def test_nonpositive_supply_is_rejected_before_any_solve(cell, supply, monkeypatch):
    lanes = stamp_counter(monkeypatch)
    for analysis in (butterfly, write_margin, read_current):
        with pytest.raises(ValueError, match="^v_dd must be positive$"):
            analysis(cell, v_dd=supply)
    with pytest.raises(ValueError, match="^v_max must be positive$"):
        drv_bruteforce(cell, v_max=supply)
    assert lanes == []


@contextlib.contextmanager
def alarm_after(seconds):
    """Raise TimeoutError in the test if its body runs longer than seconds."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_sub_ulp_resolution_drv_bruteforce_returns(cell, monkeypatch):
    # Below the float spacing near the answer, the bisection stops once lo
    # and hi are adjacent floats instead of halving the same interval
    # forever.  A threshold stub in place of the sweeps: the cell holds
    # above 0.123 V.
    threshold = 0.123
    monkeypatch.setattr(
        stability,
        "butterfly",
        lambda cell, tech, mode, v_dd, grid: SimpleNamespace(snm=v_dd - threshold),
    )
    with alarm_after(60):
        drv = drv_bruteforce(cell, resolution=1e-18)
    assert threshold < drv <= threshold + 1e-15


def test_wordline_off_is_not_writable(cell):
    with pytest.raises(NonWritableError, match="not writable"):
        write_margin(cell, wl_voltage=0.0)


def test_wider_access_device_eases_writes(cell):
    strong = build_6t_cell(
        CellGeometry(pg=DeviceSize(21e-6, 2.5e-6)), parasitics={}
    )
    assert write_margin(strong) >= write_margin(cell)


# ---------------------------------------------------------------------
# Threshold variation


def test_sigma_vth_values():
    assert sigma_vth(3e-9, 1.0, 1.0) == 3e-9
    assert sigma_vth(3e-9, 2.0, 2.0) == sigma_vth(3e-9, 1.0, 1.0) / 2.0
    # 3 mV*um on a 1 um^2 device is 3 mV.
    assert math.isclose(sigma_vth(3e-9, 1e-6, 1e-6), 3e-3, rel_tol=1e-12)
    # Sixteenfold area quarters the spread, exactly.
    assert sigma_vth(3e-9, 4e-6, 8e-6) == sigma_vth(3e-9, 1e-6, 2e-6) / 4.0
    with pytest.raises(ValueError):
        sigma_vth(3e-9, 0.0, 1e-6)


def test_variation_model_validation():
    with pytest.raises(ValueError):
        VariationModel(a_vth=3e-9, n_samples=0, seed=1)
    with pytest.raises(ValueError):
        VariationModel(a_vth=-1e-9, n_samples=10, seed=1)
    with pytest.raises(ValueError, match="seed"):
        VariationModel(a_vth=3e-9, n_samples=10, seed=-1)
    with pytest.raises(ValueError):
        monte_carlo_snm(build_6t_cell(), vm=None)


def test_monte_carlo_is_seed_deterministic(cell):
    vm = VariationModel(a_vth=3e-9, n_samples=6, seed=123)
    a = monte_carlo_snm(cell, vm=vm, grid=0.05)
    b = monte_carlo_snm(cell, vm=vm, grid=0.05)
    assert np.array_equal(a.samples, b.samples)
    assert a.mean == b.mean and a.stddev == b.stddev
    c = monte_carlo_snm(cell, vm=VariationModel(3e-9, 6, 124), grid=0.05)
    assert not np.array_equal(a.samples, c.samples)


def test_monte_carlo_zero_mismatch_is_nominal(cell):
    vm = VariationModel(a_vth=0.0, n_samples=4, seed=9)
    mc = monte_carlo_snm(cell, vm=vm, grid=0.05)
    nominal = butterfly(cell, mode="hold", v_dd=1.8, grid=0.05).snm
    assert np.all(mc.samples == nominal)
    assert mc.stddev == 0.0
    assert mc.failures == 0


def test_monte_carlo_reads_a_vth_from_each_card(cell):
    # With no coefficient given, each device takes the a_vth of its own
    # polarity's card; the default card holds the old 3e-9 V*m.
    def mc(tech, a_vth=None):
        return monte_carlo_snm(cell, tech, VariationModel(a_vth, 4, 9), grid=0.05).samples

    base = mc(None)
    assert np.array_equal(base, mc(None, 3e-9))
    quiet = TechnologyParams.default()
    quiet.nmos.a_vth = quiet.pmos.a_vth = 0.0
    nominal = butterfly(cell, mode="hold", v_dd=1.8, grid=0.05).snm
    assert np.all(mc(quiet) == nominal)
    quiet.pmos.a_vth = 3e-9
    pmos_only = mc(quiet)
    assert not np.array_equal(pmos_only, base)
    assert not np.all(pmos_only == nominal)
    quiet.pmos.a_vth = -1e-9
    with pytest.raises(ConfigError, match="a_vth must be nonnegative"):
        mc(quiet)


def sample_shifts(cell, vm):
    """monte_carlo_snm's shift maps, from its documented draw order."""
    mos = [m for m in cell.mos_elements if not m.degenerate]
    sig = [sigma_vth(vm.a_vth, m.w, m.l) for m in mos]
    draws = np.random.default_rng(vm.seed).standard_normal((vm.n_samples, len(mos)))
    return [{m.id: float(draws[k, j] * sig[j]) for j, m in enumerate(mos)} for k in range(vm.n_samples)]


def per_sample_snm(cell, vm, mode, v_dd, grid):
    """monte_carlo_snm's samples one butterfly at a time; NaN where a
    butterfly fails."""
    out = np.full(vm.n_samples, np.nan)
    for k, shift in enumerate(sample_shifts(cell, vm)):
        try:
            out[k] = butterfly(cell, mode=mode, v_dd=v_dd, grid=grid, vth_shift=shift).snm
        except EngineError:
            pass
    return out


@settings(max_examples=6, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    mode=st.sampled_from(["hold", "read"]),
    v_dd=st.sampled_from([round(0.90 + 0.05 * k, 2) for k in range(19)]),
    grid=st.sampled_from([0.010, 0.0125, 0.015]),
    a_vth=st.floats(0.0, 8e-9),
    n=st.integers(2, 6),
    batch_lanes=st.sampled_from([1, 200, stability.BATCH_LANES]),
)
@example(seed=3, mode="read", v_dd=0.95, grid=0.0125, a_vth=8e-9, n=5, batch_lanes=stability.BATCH_LANES)
def test_monte_carlo_samples_are_per_sample_butterflies(cell, seed, mode, v_dd, grid, a_vth, n, batch_lanes):
    # The samples' lobes are lanes of one system per batch (a batch of one
    # sample when batch_lanes is below the lobe's point count); each sample
    # must still be its own butterfly, bit for bit.
    vm = VariationModel(a_vth, n, seed)
    want = per_sample_snm(cell, vm, mode, v_dd, grid)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(stability, "BATCH_LANES", batch_lanes)
        if np.isnan(want).sum() > 0.1 * n:
            with pytest.raises(EngineError, match="Monte Carlo samples failed"):
                monte_carlo_snm(cell, vm=vm, mode=mode, v_dd=v_dd, grid=grid)
            return
        mc = monte_carlo_snm(cell, vm=vm, mode=mode, v_dd=v_dd, grid=grid)
    assert np.array_equal(mc.samples, want, equal_nan=True)
    assert mc.failures == np.isnan(want).sum()


def poison_sample(monkeypatch, cell, vm, k):
    """Make every stamp of sample k of monte_carlo_snm(cell, vm=vm) return
    a non-finite residual.  Its lanes are those whose stamped rows all hold
    that sample's shifted V_th0 values, whichever devices are stamped."""
    doomed = MnaSystem(cell, vth_shift=[sample_shifts(cell, vm)[k]]).mos_par[:, COL_VTH0]
    real = engine.mos_stamp

    def poisoned(x_ext, mos_idx, par, vt, jac, res, at):
        real(x_ext, mos_idx, par, vt, jac, res, at)
        res[np.isin(par[..., COL_VTH0], doomed).all(axis=-1)] = np.nan

    monkeypatch.setattr(engine, "mos_stamp", poisoned)


def test_failed_sample_is_nan_at_its_index_only(cell, monkeypatch):
    # Every stamp of the third sample's devices returns a non-finite
    # residual, so each of its lanes fails plain Newton; that sample alone
    # fails.
    vm = VariationModel(3e-9, 10, 1)
    poison_sample(monkeypatch, cell, vm, 2)
    monkeypatch.setattr(stability, "BATCH_LANES", 10**6)  # one batch, sets = samples
    mc = monte_carlo_snm(cell, vm=vm, mode="hold", v_dd=1.8, grid=0.02)
    monkeypatch.undo()
    assert mc.failures == 1
    assert np.array_equal(np.flatnonzero(np.isnan(mc.samples)), [2])
    want = per_sample_snm(cell, vm, "hold", 1.8, 0.02)
    assert np.array_equal(np.delete(mc.samples, 2), np.delete(want, 2))


def test_failed_coupled_sample_is_nan_at_its_index_only(cell, monkeypatch):
    # A coupled lobe pair's samples are swept as one batch, each sample's
    # points walked in turn.  Poisoned as above, the third sample's walk
    # fails at its first point, plain Newton and the gmin ladder alike, and
    # stops there; that sample alone is NaN.
    gnd, qbar, x = Node(GROUND), Node(cell.role_node("QBAR")), Node("X")
    coupled = with_elements(cell, [ResElement("RX1", qbar, x, 1e6), ResElement("RX2", x, gnd, 1e6)])
    vm = VariationModel(3e-9, 10, 1)
    poison_sample(monkeypatch, coupled, vm, 2)
    swept = []
    real_sweep = MnaSystem.sweep

    def sweep_spy(self, *args):
        swept.append(self.decoupled)
        return real_sweep(self, *args)

    monkeypatch.setattr(MnaSystem, "sweep", sweep_spy)
    entered = spy_fallbacks(monkeypatch)
    mc = monte_carlo_snm(coupled, vm=vm, mode="hold", v_dd=1.8, grid=0.05)
    monkeypatch.undo()
    assert swept == [False] * 2  # the nominal pair, then the samples' batch
    assert entered == ["_gmin_stepping"]  # the failed sample's first point only
    assert mc.failures == 1
    assert np.array_equal(np.flatnonzero(np.isnan(mc.samples)), [2])
    want = per_sample_snm(coupled, vm, "hold", 1.8, 0.05)
    assert np.array_equal(np.delete(mc.samples, 2), np.delete(want, 2))


def test_coupled_monte_carlo_builds_one_system_per_batch(cell, monkeypatch):
    # A coupled batch rides its samples' parameter sets, as a decoupled one
    # does: one lobe-pair system for the nominal pair and one per batch,
    # here of four samples, and every sample still equals its own
    # butterfly bit for bit.
    gnd, qbar, x = Node(GROUND), Node(cell.role_node("QBAR")), Node("X")
    coupled = with_elements(cell, [ResElement("RX1", qbar, x, 1e6), ResElement("RX2", x, gnd, 1e6)])
    vm = VariationModel(3e-9, 10, 1)
    built = []
    real_init = MnaSystem.__init__

    def init_spy(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        built.append(self.decoupled)

    monkeypatch.setattr(MnaSystem, "__init__", init_spy)
    monkeypatch.setattr(stability, "BATCH_LANES", 4 * sweep_grid(0.0, 1.8, 0.05).size)
    mc = monte_carlo_snm(coupled, vm=vm, mode="hold", v_dd=1.8, grid=0.05)
    monkeypatch.undo()
    assert built == [False] * 4  # the nominal pair, then batches of 4, 4 and 2 samples
    assert mc.failures == 0
    assert np.array_equal(mc.samples, per_sample_snm(coupled, vm, "hold", 1.8, 0.05))


def test_failed_nominal_lane_fails_no_shifted_sample(cell, monkeypatch):
    # Read at 0.95 V, 12.5 mV: plain Newton and the gmin ladder are refused
    # the nominal lobe pair's cold lane at v_in = 0.5 V.  That lane hands
    # the samples its cold start, QBAR of the Q-driven lobe and Q of the
    # QBAR-driven one at 0 V; the shifted samples still solve, and the
    # unshifted ones fail as butterfly() does.
    nominal_par = np.tile(MnaSystem(cell).mos_par, (2, 1))  # both lobes
    starts = []
    real_lanes = MnaSystem.solve_lanes

    def lanes_spy(self, b, x0=None, sets=None):
        starts.append((self, x0))
        return real_lanes(self, b, x0, sets)

    cold = cold_at(0.5, "VSNMIN_A")

    def refuse(lobe, x0, b, g, sets):
        return cold(lobe, x0, b, g, sets) & (lobe.par_sets[sets] == nominal_par).all(axis=(1, 2))

    refuse_newton(monkeypatch, refuse)
    monkeypatch.setattr(MnaSystem, "solve_lanes", lanes_spy)
    stalled = r"stalled below the minimum step; worst residual at node refused \(sweeping VSNMIN=0\.5\)$"
    with pytest.raises(ConvergenceError, match=stalled) as nominal:
        butterfly(cell, mode="read", v_dd=0.95, grid=0.0125)
    shift = dict(zip(CELL_MOS, (0.004, -0.003, 0.002, 0.001, -0.002, 0.003)))
    shifts = [{}, shift, dict.fromkeys(CELL_MOS, 0.0), {k: -v for k, v in shift.items()}]
    starts.clear()
    out = list(stability._butterflies(cell, None, "read", 0.95, 0.0125, shifts))
    monkeypatch.undo()
    v_in = sweep_grid(0.0, 0.95, 0.0125)
    assert [x is None for _, x in starts] == [True, False]
    pair, x0 = starts[1]
    i = np.flatnonzero(np.isclose(v_in, 0.5))[0]
    for probe in ("QBAR_A", "Q_B"):
        assert x0[i, pair.node_index[probe]] == 0.0 and x0[i - 1, pair.node_index[probe]] > 0.0
    for k in (0, 2):
        assert isinstance(out[k], ConvergenceError) and str(out[k]) == str(nominal.value)
    for k in (1, 3):
        assert_matches_sequential(out[k], cell, shifts[k])


def test_unshifted_butterfly_is_one_cold_solve_per_lobe(cell, monkeypatch):
    # The nominal lobes are the cold lanes of one lobe-pair system, one
    # solve_lanes call, stamp for stamp the lanes of each lobe solved on
    # its own: 10 stamps at hold 1.8 V on a 10 mV grid.
    built, starts = [], []
    real_init, real_lanes = MnaSystem.__init__, MnaSystem.solve_lanes

    def init_spy(self, *args, **kwargs):
        built.append(1)
        real_init(self, *args, **kwargs)

    def lanes_spy(self, b, x0=None, sets=None):
        starts.append(x0)
        return real_lanes(self, b, x0, sets)

    monkeypatch.setattr(MnaSystem, "__init__", init_spy)
    monkeypatch.setattr(MnaSystem, "solve_lanes", lanes_spy)
    lanes = stamp_counter(monkeypatch)
    butterfly(cell, mode="hold", v_dd=1.8, grid=0.01)
    assert len(built) == 1 and starts == [None]
    assert len(lanes) == 10
    for drive in ("Q", "QBAR"):
        got = lanes.copy()
        lanes.clear()
        lobe = MnaSystem(biased_lobe(cell, "hold", 1.8, drive))
        real_lanes(lobe, lobe.rhs(drive={"VIN": sweep_grid(0.0, 1.8, 0.01)}))
        assert got == lanes


@pytest.mark.parametrize("mode", ["hold", "read"])
def test_lobe_pair_leaves_each_driven_sides_devices_out_of_newton(cell, monkeypatch, mode):
    # With Q driven, copy A's left inverter and left access device have
    # drain and source on ground, a rail or Q alone, so they cannot move
    # its free QBAR; with QBAR driven, copy B's right-hand three likewise.
    # Newton stamps the other six.
    pairs = []
    real = MnaSystem.sweep

    def spy(self, *args):
        pairs.append(self)
        return real(self, *args)

    monkeypatch.setattr(MnaSystem, "sweep", spy)
    butterfly(cell, mode=mode, v_dd=1.8, grid=0.1)
    (pair,) = pairs
    names = [m.id for m in pair.net.mos_elements]
    assert {names[k] for k in pair._inert} == {"MPDL_A", "MPUL_A", "MPGL_A", "MPDR_B", "MPUR_B", "MPGR_B"}
    active = np.delete(np.arange(len(names)), pair._inert)
    assert np.array_equal(pair._active_idx, pair.mos_idx[active])
    assert np.array_equal(pair._active_par, pair.par_sets[:, active])


def test_monte_carlo_kernel_calls_stay_within_the_pool(cell, monkeypatch):
    # 200 samples queue far more lanes than the Newton pool holds.  Each
    # stamp evaluates at most MAX_LANES lanes, which bounds the run's
    # memory.  A butterfly reads node voltages alone, so the inert devices'
    # currents are never evaluated.
    stamped, evaluated = [], []
    real_stamp, real_eval = engine.mos_stamp, engine.mos_eval

    def stamp(x_ext, *args):
        stamped.append(x_ext.shape[0])
        return real_stamp(x_ext, *args)

    def inert_eval(par, vgs, *args):
        evaluated.append(vgs.shape[0])
        return real_eval(par, vgs, *args)

    monkeypatch.setattr(engine, "mos_stamp", stamp)
    monkeypatch.setattr(engine, "mos_eval", inert_eval)
    vm = VariationModel(3e-9, 200, 3)
    mc = monte_carlo_snm(cell, vm=vm, mode="hold", v_dd=1.8, grid=0.01)
    assert mc.failures == 0
    assert max(stamped) == engine.MAX_LANES
    assert evaluated == []


LATTICE = [round(0.90 + 0.05 * k, 2) for k in range(19)]


def lone_lobes(cell, mode, v_dd, grid, shifts=None):
    """Each lobe, Q-driven then QBAR-driven, solved alone on a system of
    its own: the nominal lobe's cold lanes, and then, under each map of
    `shifts`, every grid point as a lane of one system started at the
    nominal lobe's state there.  The probes, (samples, 2, points), one
    sample when `shifts` is None."""
    v_in = sweep_grid(0.0, v_dd, grid)
    out = []
    for drive, probe in (("Q", "QBAR"), ("QBAR", "Q")):
        lobe = MnaSystem(biased_lobe(cell, mode, v_dd, drive))
        b = lobe.rhs(drive={"VIN": v_in})
        x, _, _, failed = lobe.solve_lanes(b)
        if shifts:
            lobe = MnaSystem(lobe.net, vth_shift=shifts)
            sets = np.repeat(np.arange(len(shifts)), v_in.size)
            x, _, _, failed = lobe.solve_lanes(np.tile(b, (len(shifts), 1)), np.tile(x, (len(shifts), 1)), sets)
        assert failed == {}
        out.append(x[:, lobe.node_index[cell.role_node(probe)]].reshape(-1, v_in.size))
    return np.stack(out, axis=1)


@pytest.mark.parametrize("mode", ["hold", "read"])
def test_lobe_pair_is_each_lobe_solved_alone(cell, mode):
    # The lobe pair's instances share no node, rail or source, so each lobe
    # meets the arithmetic it meets alone, and a lane stops when both of
    # its lobes pass.  The bundled cell is mirror symmetric, so its lobes
    # pass on the same iteration at every point: each lobe of every lattice
    # butterfly is its lone solve, bit for bit.
    for v_dd, grid in itertools.product(LATTICE, (0.010, 0.0125, 0.015, 0.001)):
        data = butterfly(cell, mode=mode, v_dd=v_dd, grid=grid)
        (want,) = lone_lobes(cell, mode, v_dd, grid)
        assert np.array_equal(data.lobe_a.v_out, want[0]), (v_dd, grid)
        assert np.array_equal(data.lobe_b.v_out, want[1]), (v_dd, grid)


@pytest.mark.parametrize("mode, v_dd, seed", [("read", 1.0, 3), ("read", 1.8, 3), ("hold", 1.8, 7)])
def test_shifted_pair_lobes_are_lone_lobe_solves(cell, mode, v_dd, seed):
    # A shifted sample's lobes need not pass on the same iteration, and the
    # one that passed first takes the other's remaining Newton steps: each
    # lobe point of 200 Monte Carlo samples stays within the stop tolerance
    # of its lone solve, and each sample's margins within 1e-8 V.
    shifts = sample_shifts(cell, VariationModel(3e-9, 200, seed))
    data = list(stability._butterflies(cell, None, mode, v_dd, 0.01, shifts))
    got = np.array([(d.lobe_a.v_out, d.lobe_b.v_out) for d in data])
    want = lone_lobes(cell, mode, v_dd, 0.01, shifts)
    assert (np.abs(got - want) <= engine.RELTOL * np.abs(want) + engine.VNTOL).all()
    v_in = data[0].lobe_a.v_in
    for d, (a, b) in zip(data, want):
        ref = inscribed_square_snm(TransferCurve(v_in, a), TransferCurve(v_in, b))
        assert abs(d.snm_high - ref.snm_high) <= 1e-8 and abs(d.snm_low - ref.snm_low) <= 1e-8


def test_cold_lanes_start_at_their_drives(cell, monkeypatch):
    # A decoupled system has one solution, so a cold lane may start
    # anywhere: it starts with every driven node at its drive, which its
    # KCL then sees exactly from the first stamp, and the free node at 0 V.
    lobe = MnaSystem(biased_lobe(cell, "hold", 1.8, "Q"))
    v_in = sweep_grid(0.0, 1.8, 0.1)
    first = []
    real = engine.mos_stamp

    def spy(x_ext, *args):
        first.append(x_ext[:, : lobe.n_nodes].copy())
        return real(x_ext, *args)

    monkeypatch.setattr(engine, "mos_stamp", spy)
    lobe.solve_lanes(lobe.rhs(drive={"VIN": v_in}))
    start = {name: first[0][:, i] for i, name in enumerate(lobe.nodes)}
    drives = {"Q": v_in, "VDD": 1.8, "WL": 0.0, "BL": 1.8, "BLB": 1.8, "QBAR": 0.0}
    for role, v in drives.items():
        assert np.array_equal(start[cell.role_node(role)], np.broadcast_to(v, v_in.shape)), role


def test_seeded_monte_carlo_lane_stamps(cell, monkeypatch):
    # A sample's lanes, one per grid point carrying both lobes, start at
    # the nominal lobe pair's state and take few Newton iterations: at most
    # 4 lane-stamps each, on top of the nominal pair's cold ones.
    lanes = stamp_counter(monkeypatch)
    butterfly(cell, mode="hold", v_dd=1.8, grid=0.01)
    cold = sum(lanes)
    lanes.clear()
    mc = monte_carlo_snm(cell, vm=VariationModel(None, 8, 1), mode="hold", v_dd=1.8, grid=0.01)
    assert mc.failures == 0
    assert sum(lanes) <= cold + 4 * 8 * sweep_grid(0.0, 1.8, 0.01).size


def test_monte_carlo_summary_shape(cell):
    vm = VariationModel(a_vth=3e-9, n_samples=8, seed=5)
    mc = monte_carlo_snm(cell, vm=vm, grid=0.05)
    assert np.isfinite(mc.samples).sum() == 8 - mc.failures
    assert mc.minimum <= mc.mean
    assert mc.samples.size == 8


def test_read_current_positive_and_grows_with_supply(cell):
    lo = read_current(cell, v_dd=1.2)
    hi = read_current(cell, v_dd=1.8)
    assert 0.0 < lo < hi
