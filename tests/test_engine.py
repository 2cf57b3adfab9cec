import io
import math
import os
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import sramlab
from sramlab import engine
from sramlab.cli import main
from sramlab.devices import (
    BiasPoint,
    TechnologyParams,
    derive_tech_params,
    mos_operating_point,
)
from sramlab.engine import (
    ABSTOL,
    ConvergenceError,
    EngineError,
    FloatingNodeError,
    MnaSystem,
    dc_sweep,
    solve_dc,
    sweep_grid,
    sweep_to_csv,
    transient,
    waveform_from_csv,
    waveform_to_csv,
)
from sramlab.genlib import build_6t_cell
from sramlab.kernels import mos_stamp
from sramlab.netlist import GROUND, Node, ResElement, SourceElement, parse_netlist, with_elements

DIVIDER = """* resistive divider
V1 in 0 DC 1.8
R1 in mid 1k
R2 mid 0 1k
.END
"""

DIODE = """* diode-connected pulldown under a resistor
V1 in 0 DC 1.8
R1 in d 10k
M1 d d 0 0 NMOS W=10.5u L=2u
.END
"""

INVERTER = """* static inverter
V1 vdd 0 DC 1.8
VIN in 0 DC 0
MP out in vdd vdd PMOS W=10.5u L=2u
MN out in 0 0 NMOS W=6u L=2u
.END
"""

LATCH = """* cross-coupled pair with resistor loads
V1 vdd 0 DC 1.8
R1 vdd q 10k
R2 vdd qb 10k
M1 q qb 0 0 NMOS W=10.5u L=2u
M2 qb q 0 0 NMOS W=10.5u L=2u
.END
"""

RC = """* rc lowpass
V1 in 0 DC 1
R1 in out 1k
C1 out 0 1u
.END
"""


# ---------------------------------------------------------------------
# DC operating point


def test_resistor_divider():
    sol = solve_dc(parse_netlist(DIVIDER))
    assert math.isclose(sol.voltage("mid"), 0.9, rel_tol=1e-12)
    assert math.isclose(sol.voltage("in"), 1.8, rel_tol=1e-12)
    assert sol.voltage("0") == 0.0
    # Branch current flows into the + terminal: sourcing means negative.
    assert math.isclose(sol.branch_currents["V1"], -0.9e-3, rel_tol=1e-9)
    assert not sol.gmin_ladder
    assert sol.max_residual < engine.ABSTOL
    assert sol.iterations >= 1


def test_caps_open_in_dc():
    with_cap = DIVIDER.replace(".END", "C1 mid 0 10p\n.END")
    a = solve_dc(parse_netlist(DIVIDER))
    b = solve_dc(parse_netlist(with_cap))
    assert math.isclose(a.voltage("mid"), b.voltage("mid"), rel_tol=1e-12)


def test_current_source_into_resistor():
    net = parse_netlist("* src\nI1 0 n DC 1m\nR1 n 0 1k\n.END")
    sol = solve_dc(net)
    assert math.isclose(sol.voltage("n"), 1.0, rel_tol=1e-12)


def test_diode_connected_matches_bisection():
    sol = solve_dc(parse_netlist(DIODE))
    dev = derive_tech_params(TechnologyParams.default()).nmos

    def imbalance(v):
        bias = BiasPoint(v, v, 0.0, 10.5e-6, 2e-6)
        return (1.8 - v) / 1e4 - mos_operating_point(dev, bias).i_d

    lo, hi = 0.0, 1.8
    assert imbalance(lo) > 0 > imbalance(hi)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if imbalance(mid) > 0:
            lo = mid
        else:
            hi = mid
    assert abs(sol.voltage("d") - lo) < 1e-5


def test_vth_shift_raises_diode_node():
    base = solve_dc(parse_netlist(DIODE))
    shifted = solve_dc(parse_netlist(DIODE), vth_shift={"M1": 0.05})
    assert shifted.voltage("d") > base.voltage("d")


def test_bistable_latch_follows_initial_guess():
    net = parse_netlist(LATCH)
    up = solve_dc(net, initial={"q": 1.8, "qb": 0.0})
    dn = solve_dc(net, initial={"q": 0.0, "qb": 1.8})
    assert up.voltage("q") > 1.0 > up.voltage("qb")
    assert dn.voltage("qb") > 1.0 > dn.voltage("q")


def test_degenerate_elements_left_unstamped():
    stub = DIVIDER.replace(".END", "M9 mid ? 0 0 NMOS L=0 W=0\n.END")
    sol = solve_dc(parse_netlist(stub))
    assert math.isclose(sol.voltage("mid"), 0.9, rel_tol=1e-12)


def test_floating_node_raises():
    net = parse_netlist("* floating\nV1 in 0 DC 1\nC1 in adrift 1p\n.END")
    with pytest.raises(FloatingNodeError, match="no conductive path"):
        solve_dc(net)


@pytest.mark.parametrize(
    "text, block",
    [
        # adrift hangs off a driven node by a capacitor only: a 1x1 block.
        ("* floating\nV1 in 0 DC 1\nC1 in adrift 1p\n.END", 1),
        # The capacitor joins adrift to a resistive node: a 2x2 block.
        ("* floating\nV1 in 0 DC 1\nR1 in a 1k\nR2 a 0 1k\nC1 a adrift 1p\n.END", 2),
    ],
)
def test_floating_node_raises_in_any_block(text, block):
    net = parse_netlist(text)
    assert [m for m, *_ in MnaSystem(net)._blocks] == [block]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatingNodeError, match="no conductive path"):
            solve_dc(net)


def test_node_driven_twice_raises_on_both_paths():
    # Two grounded sources on one node form a source loop: neither is
    # eliminated and their block is singular, as the dense matrix is.
    sys = MnaSystem(parse_netlist("* twice\nV1 a 0 DC 1\nV2 a 0 DC 1\nR1 a 0 1k\n.END"))
    assert sys._drv_node.size == 0
    jac, res = assembled(sys, np.zeros(sys.size), sys.rhs())
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(dense(sys, jac)[: sys.size, : sys.size], -res[: sys.size])
    with pytest.raises(FloatingNodeError):
        sys.newton_step(jac, res)


def test_singular_extract_keeps_exit_code_and_message(capsys):
    corpus = Path(sramlab.__file__).parent / "corpus"
    code = main(["tran", str(corpus / "array_extract.sp"), "--tstop", "20n", "--dt", "0.2n"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == (
        "error: singular system matrix; some node has no conductive path to ground\n"
    )


def test_newton_failure_names_worst_node(monkeypatch):
    sys = MnaSystem(parse_netlist(DIODE))
    monkeypatch.setattr(engine, "MAX_ITER", 2)
    with pytest.raises(ConvergenceError, match="worst residual at node"):
        sys._newton(np.zeros(sys.size), sys.rhs(), sys.g_static)


def write_bias(v_dd, v_bl):
    """The cell holding Q high, word line on, BLB at v_dd and BL at v_bl:
    one probe of write_margin's bisection, with its held initial state."""
    cell = build_6t_cell()
    drives = {"VDD": v_dd, "WL": v_dd, "BL": v_bl, "BLB": v_dd}
    net = with_elements(
        cell,
        [
            SourceElement(f"VX{role}", Node(cell.role_node(role)), Node(GROUND), "DC", (v,))
            for role, v in drives.items()
        ],
    )
    return net, {cell.role_node("Q"): v_dd, cell.role_node("QBAR"): 0.0}


@pytest.fixture
def fallbacks(monkeypatch):
    """Each entry to the gmin ladder, the one DC fallback, in order, as its
    name and the number of lanes in its stack (the last argument holds
    each lane's right-hand side); it still runs."""
    entered = []
    real = MnaSystem._gmin_stepping

    def spy(self, *args):
        entered.append(("_gmin_stepping", len(args[-1])))
        return real(self, *args)

    monkeypatch.setattr(MnaSystem, "_gmin_stepping", spy)
    return entered


def test_gmin_stepping_rescues_a_write_probe(fallbacks):
    # Plain Newton from the held state fails across BL = 0.105-0.255 V at
    # 1.1 V; the gmin ladder converges there.
    net, held = write_bias(1.1, 0.18)
    sol = solve_dc(net, initial=held)
    assert fallbacks == [("_gmin_stepping", 1)]
    assert sol.gmin_ladder
    assert sol.max_residual < ABSTOL


def test_halved_gmin_step_rescues_a_write_probe(fallbacks, monkeypatch):
    # At 1.2 V, BL = 0.40 V, plain Newton from the held state fails, and so
    # does the rung at 1e-5 S of the fixed decade ladder.  The lane retries
    # half a decade up from the 1e-4 S state it last accepted, walks on,
    # and lands in the flipped basin: Q pulled down to about 0.19 V.
    rungs = []
    real = MnaSystem._newton_lanes

    def spy(self, x0, b, g_dyn, sets=None):
        x, its, failed = real(self, x0, b, g_dyn, sets)
        d = self._node_diag[0]
        rungs.append((g_dyn[d] - self.g_static[d], bool(failed)))
        return x, its, failed

    monkeypatch.setattr(MnaSystem, "_newton_lanes", spy)
    net, held = write_bias(1.2, 0.40)
    sol = solve_dc(net, initial=held)
    assert fallbacks == [("_gmin_stepping", 1)]
    shunts, failed = zip(*rungs)
    assert shunts[:5] == pytest.approx([0.0, 1e-3, 1e-4, 1e-5, 10**-4.5])
    assert failed[:5] == (True, False, False, True, False)
    assert shunts[-1] == 0.0 and not failed[-1]
    assert sol.gmin_ladder
    assert sol.max_residual < ABSTOL
    assert sol.voltage("Q") == pytest.approx(0.194, abs=1e-3)
    assert sol.voltage("QBAR") == pytest.approx(1.2, abs=1e-6)


def test_failed_unshunted_rung_is_not_repeated(monkeypatch):
    # Random circuit 808 passes every shunted rung of the ladder and fails
    # the unshunted one.  Half its step would still give no shunt, so the
    # lane fails there, keeping the state the last shunted rung accepted:
    # two failed unshunted solves, plain Newton's and the ladder's, where
    # retrying the same solve until the step fell under 0.01 decade took
    # eight.
    rng = np.random.default_rng(0)
    text = [random_circuit_text(rng, i) for i in range(809)][808]
    sys = MnaSystem(parse_netlist(text))
    unshunted = []
    real = MnaSystem._newton_lanes

    def spy(self, x0, b, g_dyn, sets=None):
        x, its, failed = real(self, x0, b, g_dyn, sets)
        if np.array_equal(g_dyn, self.g_static):
            unshunted.append((x0.copy(), bool(failed)))
        return x, its, failed

    monkeypatch.setattr(MnaSystem, "_newton_lanes", spy)
    start = np.zeros((1, sys.size))
    x, _, fallback, left = sys._solve_lanes(start, sys.rhs()[None])
    assert fallback[0] and left == {0: "gmin stepping stalled below the minimum step"}
    assert [failed for _, failed in unshunted] == [True, True]
    assert np.array_equal(unshunted[0][0], start)
    assert np.array_equal(x, unshunted[1][0])


def test_bad_resistor_value():
    net = parse_netlist("* bad\nV1 a 0 DC 1\nR1 a 0 0\n.END")
    with pytest.raises(EngineError, match="positive value"):
        solve_dc(net)


def test_unknown_initial_node():
    with pytest.raises(EngineError, match="unknown node"):
        solve_dc(parse_netlist(DIVIDER), initial={"nope": 1.0})


def test_set_source_unknown():
    sys = MnaSystem(parse_netlist(DIVIDER))
    with pytest.raises(EngineError, match="no stamped source"):
        sys.set_source("V9", 1.0)


# ---------------------------------------------------------------------
# Jacobian correctness, checked by finite differences


def pick(rng, seq):
    return seq[int(rng.integers(0, len(seq)))]


def random_circuit_text(rng, idx):
    nodes = ["a", "b", "c", "d"]
    lines = [f"* random circuit {idx}"]
    lines.append(f"V1 a 0 DC {rng.uniform(0.5, 1.8):.6f}")
    if rng.random() < 0.5:
        lines.append(f"I1 0 {pick(rng, nodes)} DC {rng.uniform(0.0, 1e-4):.6e}")
    for k in range(int(rng.integers(2, 5))):
        n1, n2 = nodes[:2] if rng.random() < 0.2 else (pick(rng, nodes), pick(rng, nodes + ["0"]))
        if n1 == n2:
            n2 = "0"
        lines.append(f"R{k + 1} {n1} {n2} {rng.uniform(0.5, 50.0):.4f}k")
    for k in range(int(rng.integers(2, 6))):
        d, g, s, bk = (pick(rng, nodes + ["0"]) for _ in range(4))
        pol = "PMOS" if rng.random() < 0.4 else "NMOS"
        lines.append(
            f"M{k + 1} {d} {g} {s} {bk} {pol} "
            f"W={rng.uniform(2.0, 20.0):.3f}u L={rng.uniform(1.0, 4.0):.3f}u"
        )
    lines.append(".END")
    return "\n".join(lines)


def dense(sys, vals):
    """The extended (n+1)-square matrix whose planned entries are vals; the
    sink, where stamps on ground land, is dropped."""
    out = np.zeros((sys.size + 1, sys.size + 1))
    out[np.divmod(sys._keys, sys.size + 1)] = vals[:-1]
    return out


def assembled(sys, x, b, g=None):
    """Jacobian values and extended residual at x against b, stamped on g
    (default g_static); the linear part of the residual is a dense product."""
    g = sys.g_static if g is None else g
    x_ext = np.append(x, 0.0)
    jac, res = g.copy(), dense(sys, g) @ x_ext + b
    mos_stamp(x_ext, sys.mos_idx, sys.mos_par, sys.vt, jac, res, sys._stamp_at)
    return jac, res


def assembled_jacobian(sys, x, b):
    return dense(sys, assembled(sys, x, b)[0])[: sys.size, : sys.size]


# ---------------------------------------------------------------------
# Reduced Newton step against the dense solve

STEP_NODES = ["a", "b", "c", "d", "e", "f"]
node_or_ground = st.sampled_from(STEP_NODES + ["0"])


@st.composite
def reduction_cases(draw):
    """A random small netlist, a state, and a gmin shunt per node.

    Voltage sources are kept only while they form no loop through the
    nodes and ground, which would make the system singular.  Sources may
    still share a node: a grounded one with any number of floating ones.
    """
    lines = ["* reduction case"]
    parent = {n: n for n in STEP_NODES + ["0"]}

    def root(n):
        while parent[n] != n:
            n = parent[n]
        return n

    value = st.floats(-2.0, 2.0)
    pairs = st.tuples(node_or_ground, node_or_ground)
    for k, (n1, n2) in enumerate(draw(st.lists(pairs, max_size=6))):
        if root(n1) != root(n2):
            parent[root(n1)] = root(n2)
            lines.append(f"V{k} {n1} {n2} DC {draw(value)!r}")
    for k, (n1, n2) in enumerate(draw(st.lists(pairs, max_size=6))):
        if n1 != n2:
            lines.append(f"R{k} {n1} {n2} {10 ** draw(st.floats(0.0, 5.0))!r}")
    for k, (n1, n2) in enumerate(draw(st.lists(pairs, max_size=2))):
        if n1 != n2:
            lines.append(f"C{k} {n1} {n2} 1p")
    if draw(st.booleans()):
        lines.append(f"I0 0 {draw(st.sampled_from(STEP_NODES))} DC {draw(st.floats(0.0, 1e-4))!r}")
    terminals = st.tuples(*[node_or_ground] * 4)
    for k, (d, g, s, b) in enumerate(draw(st.lists(terminals, max_size=4))):
        pol = draw(st.sampled_from(["NMOS", "PMOS"]))
        lines.append(f"M{k} {d} {g} {s} {b} {pol} W={draw(st.floats(1.0, 20.0)):.3f}u L=2u")
    lines.append(".END")
    net = parse_netlist("\n".join(lines))
    sys = MnaSystem(net)
    x = np.array(draw(st.lists(st.floats(-0.5, 2.0), min_size=sys.size, max_size=sys.size)))
    exponents = st.lists(st.floats(-12.0, 0.0), min_size=sys.n_nodes, max_size=sys.n_nodes)
    gmin = 10 ** np.array(draw(exponents))
    return sys, x, gmin


def subnormal_step_case():
    """A 5e-324 V source: the whole step is a few subnormal ulps, and the
    dense solve is itself one ulp off the source value."""
    sys = MnaSystem(parse_netlist("* subnormal step\nV0 a 0 DC 5e-324\nR0 a b 1.0\n.END"))
    return sys, np.zeros(sys.size), np.ones(sys.n_nodes)


@settings(max_examples=300, deadline=None)
@given(reduction_cases())
@example(subnormal_step_case())
def test_reduced_step_matches_dense_solve(case):
    sys, x, gmin = case
    assume(sys.size > 0)
    g = sys.g_static.copy()
    g[sys._node_diag] += gmin
    jac, res = assembled(sys, x, sys.rhs(), g)
    # The compact step against a dense solve of the same matrix scattered
    # back to (n+1)-square form.
    a = dense(sys, jac)[: sys.size, : sys.size]
    want = np.linalg.solve(a, -res[: sys.size])
    # Each solve is exact to rounding: within a few n·κ·eps of the true
    # step, normwise, where κ is the condition number.  MNA mixes volts and
    # amps, so κ is large unless the conductances are near 1 S; where it is
    # small the two steps must agree to 1e-12.  Below the normal range
    # rounding is absolute, up to one subnormal ulp per operation, which
    # the solve magnifies by up to about ‖A⁻¹‖.
    tol = max(1e-12, 10 * sys.size * np.linalg.cond(a) * np.finfo(float).eps)
    ulps = 10 * sys.size * np.linalg.norm(np.linalg.inv(a), 2)
    atol = tol * np.abs(want).max() + ulps * np.finfo(float).smallest_subnormal
    step = sys.newton_step(jac, res)
    np.testing.assert_allclose(step, want, rtol=0, atol=atol)


def test_reduction_plan_on_an_array_tile():
    # Grounded drives on every rail: what is left is one 2x2 block per
    # cell (its two storage nodes).
    rows, cols = 2, 3
    gnd = Node(GROUND)
    rails = ["VDD"] + [f"WL{r}" for r in range(rows)]
    rails += [f"{side}{c}" for c in range(cols) for side in ("BL", "BLB")]
    drives = [SourceElement(f"V{n}", Node(n), gnd, "DC", (1.8,)) for n in rails]
    sys = MnaSystem(with_elements(sramlab.build_array(rows, cols), drives))
    assert [(m, idx.shape[0]) for m, _, idx, _ in sys._blocks] == [(2, rows * cols)]
    assert sys._drv_node.size == len(rails)


def reference_matrix(sys, gmin=0.0, cap_factor=0.0):
    """The linear part of the extended Jacobian, (n+1)-square, assembled
    element by element: resistors, voltage sources, capacitor companions
    of conductance cap_factor * C, and a shunt from every node to ground."""
    g = np.zeros((sys.size + 1, sys.size + 1))
    for r in sys.net.elements:
        if isinstance(r, ResElement) and not r.degenerate:
            a, b, gg = sys._slot(r.n1), sys._slot(r.n2), 1.0 / r.value
            g[a, a] += gg
            g[a, b] -= gg
            g[b, b] += gg
            g[b, a] -= gg
    for e in sys.vsources:
        a, b, k = sys._slot(e.n_plus), sys._slot(e.n_minus), sys.branch_index[e.id]
        g[a, k] += 1.0
        g[b, k] -= 1.0
        g[k, a] += 1.0
        g[k, b] -= 1.0
    for c in sys.caps:
        a, b, geq = sys._slot(c.n1), sys._slot(c.n2), cap_factor * c.value
        g[a, a] += geq
        g[a, b] -= geq
        g[b, b] += geq
        g[b, a] -= geq
    d = np.arange(sys.n_nodes)
    g[d, d] += gmin
    return g


def test_every_linear_matrix_lies_in_the_plan(monkeypatch):
    # Every matrix the engine hands the Newton loop (static, each gmin
    # rung, the backward-Euler and trapezoidal companions) is, entry for
    # entry, the element-by-element dense assembly gathered at the plan,
    # and that assembly has no nonzero off the plan.
    handed = []
    real = MnaSystem._newton_lanes

    def spy(self, x0, b, g_dyn, sets=None):
        handed.append((self, g_dyn.copy()))
        return real(self, x0, b, g_dyn, sets)

    monkeypatch.setattr(MnaSystem, "_newton_lanes", spy)
    net, held = write_bias(1.2, 0.40)
    solve_dc(net, initial=held)
    ladder = len(handed)
    stimulus = parse_netlist((Path(sramlab.__file__).parent / "corpus" / "cell_write_read.sp").read_text())
    bridged = parse_netlist(RC.replace(".END", "C2 in out 2p\nR2 out 0 2k\n.END"))
    dt = 0.1e-9
    for method in ("be", "trap"):
        transient(stimulus, t_stop=3 * dt, dt=dt, method=method, ics={"Q": 1.8, "QBAR": 0.0})
        transient(bridged, t_stop=3 * dt, dt=dt, method=method)
    shunts = set()
    for i, (sys, g) in enumerate(handed):
        planned = np.zeros((sys.size,) * 2, dtype=bool)
        planned[np.divmod(sys._keys, sys.size + 1)] = True
        d = sys._node_diag[0]
        shunt = g[d] - sys.g_static[d] if i < ladder else 0.0
        shunts.add(shunt)
        refs = [reference_matrix(sys, gmin=shunt, cap_factor=f)[: sys.size, : sys.size] for f in (0.0, 1 / dt, 2 / dt)]
        got = dense(sys, g)[: sys.size, : sys.size]
        assert any(np.array_equal(got, ref) for ref in refs), i
        assert not any(ref[~planned].any() for ref in refs)
    assert len(shunts) > 4 and any(sys.caps for sys, _ in handed)


def test_be_steps_on_a_large_tile_stay_below_one_dense_matrix():
    # A 16x32 tile has 1105 nodes.  Building its system, the pinned t = 0
    # solve and a few backward-Euler steps must together allocate less
    # than one (nodes+1)-square float64 matrix, so that no step resets or
    # multiplies a dense Jacobian.
    rows, cols = 16, 32
    gnd = Node(GROUND)
    rails = {"VDD": 1.8, **{f"WL{r}": 0.0 for r in range(rows)}}
    rails.update({f"{side}{c}": 1.8 for c in range(cols) for side in ("BL", "BLB")})
    drives = [SourceElement(f"V{n}", Node(n), gnd, "DC", (v,)) for n, v in rails.items()]
    net = with_elements(sramlab.build_array(rows, cols), drives)
    bits = {(r, c): (r + c) % 2 for r in range(rows) for c in range(cols)}  # a checkerboard
    ics = {f"Q_{r}_{c}": 1.8 * b for (r, c), b in bits.items()}
    ics.update({f"QBAR_{r}_{c}": 1.8 * (1 - b) for (r, c), b in bits.items()})
    tracemalloc.start()
    try:
        tr = transient(net, t_stop=3e-10, dt=1e-10, ics=ics)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(tr.nodes) == 1105
    assert peak < (len(tr.nodes) + 1) ** 2 * 8


def test_fd_jacobian_on_random_circuits():
    rng = np.random.default_rng(77)
    for idx in range(20):
        net = parse_netlist(random_circuit_text(rng, idx))
        sys = MnaSystem(net)
        x = rng.uniform(-0.5, 1.8, sys.size)
        b = sys.rhs()
        jac = assembled_jacobian(sys, x, b)
        h = 1e-7
        fd = np.zeros_like(jac)
        for j in range(sys.size):
            xp = x.copy()
            xp[j] += h
            xm = x.copy()
            xm[j] -= h
            fd[:, j] = (
                sys.residual(xp, b)[: sys.size] - sys.residual(xm, b)[: sys.size]
            ) / (2 * h)
        np.testing.assert_allclose(fd, jac, rtol=1e-5, atol=1e-9)


# ---------------------------------------------------------------------
# Sweeps


def test_sweep_grid_endpoints():
    grid = sweep_grid(0.0, 1.0, 0.1)
    assert grid.size == 11
    assert grid[0] == 0.0
    assert grid[-1] == 1.0
    with pytest.raises(ValueError):
        sweep_grid(0.0, 1.0, 0.0)
    # A sweep from a value to itself is that one point; a span shorter
    # than half a step still keeps both ends.
    np.testing.assert_array_equal(sweep_grid(1.0, 1.0, 0.1), [1.0])
    np.testing.assert_array_equal(sweep_grid(0.0, 0.01, 0.02), [0.0, 0.01])


def test_sweep_grid_descending():
    grid = sweep_grid(1.0, 0.0, 0.25)
    np.testing.assert_array_equal(grid, [1.0, 0.75, 0.5, 0.25, 0.0])
    grid = sweep_grid(1.8, 0.0, 0.05)
    assert grid.size == 37
    assert grid[0] == 1.8 and grid[-1] == 0.0
    assert np.all(np.diff(grid) < 0)


def test_dc_sweep_inverter_transfer():
    res = dc_sweep(parse_netlist(INVERTER), "VIN", 0.0, 1.8, 0.05)
    out = res.node("out")
    assert res.values[0] == 0.0 and res.values[-1] == 1.8
    assert out[0] > 1.7
    assert out[-1] < 0.1
    assert all(b <= a + 1e-9 for a, b in zip(out, out[1:]))
    assert np.all(res.node("0") == 0.0)


def test_dc_sweep_annotates_failures():
    net = parse_netlist("* floating\nV1 in 0 DC 1\nC1 in adrift 1p\n.END")
    with pytest.raises(FloatingNodeError, match=r"sweeping V1=0\.5"):
        dc_sweep(net, "V1", 0.5, 1.0, 0.5)


def test_sweep_csv_round_trip():
    res = dc_sweep(parse_netlist(DIVIDER), "V1", 0.0, 1.0, 0.5)
    buf = io.StringIO()
    sweep_to_csv(res, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0].split(",") == ["V1", "V(in)", "V(mid)", "I(V1)"]
    assert len(lines) == 1 + res.values.size
    back = [float(line.split(",")[2]) for line in lines[1:]]
    np.testing.assert_array_equal(back, res.nodes["mid"])


# ---------------------------------------------------------------------
# Transient


def test_rc_step_accuracy_be_and_trap():
    net = parse_netlist(RC)
    rc = 1e-3
    be = transient(net, t_stop=rc, dt=rc / 1000, ics={"out": 0.0})
    exact = 1.0 - math.exp(-be.time[-1] / rc)
    err_be = abs(be.node("out")[-1] - exact) / exact
    assert err_be < 0.01
    tr = transient(net, t_stop=rc, dt=rc / 1000, method="trap", ics={"out": 0.0})
    err_tr = abs(tr.node("out")[-1] - exact) / exact
    assert err_tr < err_be


def test_transient_initial_condition_pins_first_point():
    net = parse_netlist(RC)
    tr = transient(net, t_stop=1e-5, dt=1e-6, ics={"out": 0.25})
    assert abs(tr.node("out")[0] - 0.25) < 1e-9
    assert abs(tr.node("in")[0] - 1.0) < 1e-9
    assert np.all(tr.drives["V1"] == 1.0)


def test_transient_without_ics_starts_at_dc():
    net = parse_netlist(RC)
    tr = transient(net, t_stop=1e-5, dt=1e-6)
    # DC has the cap charged already; nothing should move.
    np.testing.assert_allclose(tr.node("out"), 1.0, rtol=0, atol=1e-9)


def test_transient_tracks_pwl_drive():
    net = parse_netlist(
        "* tracker\nV1 in 0 PWL(0 0 1u 1)\nR1 in out 1k\nR2 out 0 1k\n.END"
    )
    tr = transient(net, t_stop=1e-6, dt=1e-7)
    np.testing.assert_allclose(tr.node("out"), 0.5 * tr.drives["V1"], atol=1e-9)


def test_transient_drive_table_is_rhs_per_step():
    # No capacitors, so each step is a DC solve warm-started from the last:
    # the steps built from the drive table must equal solves against
    # rhs(t), bit for bit, and the table must be each source's waveform.
    net = parse_netlist(
        "* drives\nV1 a 0 PWL(0 0 1u 1)\nV2 b 0 DC 0.3\nR1 a c 1k\nR2 c b 2k\n"
        "I1 0 c PULSE(0 1m 0.2u 0.1u 0.1u 0.3u 1u)\nI2 c a DC 0.2m\n.END"
    )
    tr = transient(net, t_stop=1e-6, dt=5e-8)
    sys = MnaSystem(net)
    x, _, _ = sys.solve_dc_vector()
    for k, t in enumerate(tr.time):
        if k:
            x, _ = sys._newton(x, sys.rhs(t), sys.g_static)
        assert all(tr.node(name)[k] == x[i] for name, i in sys.node_index.items())
    for e in sys.vsources + sys.isources:
        assert np.array_equal(tr.drives[e.id], [e.value_at(t) for t in tr.time])


def test_pulse_under_resolution_warns():
    net = parse_netlist(
        "* fast edges\nV1 in 0 PULSE(0 1 0 1n 1n 1u 2u)\nR1 in 0 1k\n.END"
    )
    with pytest.warns(UserWarning, match="under-resolved"):
        transient(net, t_stop=1e-6, dt=1e-7)


def test_transient_argument_validation():
    net = parse_netlist(RC)
    with pytest.raises(ValueError):
        transient(net, t_stop=0.0, dt=1e-6)
    with pytest.raises(ValueError):
        transient(net, t_stop=1e-3, dt=-1.0)
    with pytest.raises(ValueError):
        transient(net, t_stop=1e-3, dt=1e-6, method="rk4")
    with pytest.raises(ValueError, match="zero steps"):
        transient(net, t_stop=1e-9, dt=5e-9)
    with pytest.raises(ValueError, match="unknown node 'outt'"):
        transient(net, t_stop=1e-3, dt=1e-4, ics={"outt": 0.0})


def test_transient_refuses_more_steps_than_memory_holds(monkeypatch):
    # With 1 MiB of physical memory, as the engine reads it, 100 000 steps
    # of the RC circuit's three unknowns do not fit; the refusal names the
    # step count and comes before any table is allocated.
    monkeypatch.setattr(os, "sysconf", {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 256}.get)
    with pytest.raises(ValueError, match="^100000 steps of 1e-06 s need"):
        transient(parse_netlist(RC), t_stop=0.1, dt=1e-6)
    tr = transient(parse_netlist(RC), t_stop=1e-3, dt=1e-6)
    assert tr.time.size == 1001


def test_waveform_csv_round_trip():
    net = parse_netlist(RC)
    tr = transient(net, t_stop=1e-5, dt=1e-6, ics={"out": 0.0})
    buf = io.StringIO()
    waveform_to_csv(tr, buf)
    back = waveform_from_csv(io.StringIO(buf.getvalue()))
    np.testing.assert_array_equal(back.time, tr.time)
    np.testing.assert_array_equal(back.node("out"), tr.node("out"))
    np.testing.assert_array_equal(back.branch_currents["V1"], tr.branch_currents["V1"])


# ---------------------------------------------------------------------
# Source waveform evaluation


def test_pulse_waveform_evaluation():
    net = parse_netlist("* p\nV1 a 0 PULSE(0 1.8 1n 2n 2n 5n 20n)\nR1 a 0 1k\n.END")
    v1 = net.element("V1")
    assert v1.value_at(0.0) == 0.0
    assert v1.value_at(2e-9) == pytest.approx(0.9)  # halfway up the edge
    assert v1.value_at(4e-9) == 1.8
    assert v1.value_at(9e-9) == pytest.approx(0.9)  # halfway down
    assert v1.value_at(15e-9) == 0.0
    assert v1.value_at(24e-9) == 1.8  # second period


def test_pwl_waveform_evaluation():
    net = parse_netlist("* p\nV1 a 0 PWL(0 0 1u 1 2u 0.5)\nR1 a 0 1k\n.END")
    v1 = net.element("V1")
    assert v1.value_at(-1.0) == 0.0
    assert v1.value_at(5e-7) == pytest.approx(0.5)
    assert v1.value_at(1.5e-6) == pytest.approx(0.75)
    assert v1.value_at(9.0) == 0.5  # flat extrapolation
