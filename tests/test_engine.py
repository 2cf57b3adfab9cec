import ast
import io
import math
import os
import tracemalloc
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import sramlab
from sramlab import engine
from sramlab.cli import main
from sramlab.devices import TechnologyParams, derive_tech_params
from sramlab.engine import (
    ABSTOL,
    RELTOL,
    VNTOL,
    ConvergenceError,
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
from sramlab.genlib import build_6t_cell, build_array
from sramlab.kernels import mos_eval, mos_stamp, pack_device
from sramlab.netlist import (
    GROUND,
    CapElement,
    MosElement,
    Node,
    ResElement,
    SourceElement,
    parse_netlist,
    with_elements,
)

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
    tech = derive_tech_params(TechnologyParams.default())
    par = pack_device(tech.nmos, "NMOS", 10.5e-6, 2e-6, tech.v_t)[None, :]

    def imbalance(v):
        i_d = mos_eval(par, np.array([v]), np.array([v]), np.array([0.0]), tech.v_t)[0]
        return (1.8 - v) / 1e4 - float(i_d[0])

    lo, hi = 0.0, 1.8
    assert imbalance(lo) > 0 > imbalance(hi)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if imbalance(mid) > 0:
            lo = mid
        else:
            hi = mid
    assert abs(sol.voltage("d") - lo) < 1e-5


def held_solve(net, volts):
    """The DC solution of net started from the named nodes at volts, every
    other unknown at zero: its system, state, iteration count and whether
    it took the gmin ladder."""
    sys = MnaSystem(net)
    x0 = np.zeros(sys.size)
    for name, v in volts.items():
        x0[sys.node_index[name]] = v
    x, its, ladder, failed = sys.solve_lanes(sys.rhs()[None], x0)
    if failed:
        raise ConvergenceError(failed[0])
    return sys, x[0], int(its[0]), bool(ladder[0])


def max_node_residual(sys, x, b=None):
    """Worst node KCL residual over every device of state x against b,
    by default every source at its card value."""
    return np.abs(sys.residual(x, sys.rhs() if b is None else b)[: sys.n_nodes]).max()


def test_vth_shift_raises_diode_node():
    base = solve_dc(parse_netlist(DIODE))
    sys = MnaSystem(parse_netlist(DIODE))
    (x,), _, _, failed = sys.solve_lanes(sys.rhs()[None], np.zeros(sys.size), np.array([[0.05]]))
    assert not failed
    assert x[sys.node_index["d"]] > base.voltage("d")


def test_bistable_latch_follows_initial_guess():
    net = parse_netlist(LATCH)
    up, x_up, _, _ = held_solve(net, {"q": 1.8, "qb": 0.0})
    dn, x_dn, _, _ = held_solve(net, {"q": 0.0, "qb": 1.8})
    assert x_up[up.node_index["q"]] > 1.0 > x_up[up.node_index["qb"]]
    assert x_dn[dn.node_index["qb"]] > 1.0 > x_dn[dn.node_index["q"]]


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
        sys.newton_step(jac[None], res[None])


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
    x0 = np.zeros((1, sys.size))
    x, _, failed = sys._newton_lanes(x0, sys.rhs()[None], sys.g_static, np.zeros((1, len(sys.mos_par))))
    assert failed == {0: "d"}
    assert np.array_equal(x, x0)


def biased_cell(drives):
    """The default cell with a DC source on each role that drives names."""
    cell = build_6t_cell()
    return with_elements(
        cell,
        [
            SourceElement(f"VX{role}", Node(cell.role_node(role)), Node(GROUND), "DC", (v,))
            for role, v in drives.items()
        ],
    )


def write_bias(v_dd, v_bl):
    """The cell holding Q high, word line on, BLB at v_dd and BL at v_bl:
    one probe of write_margin's bisection, with its held initial state."""
    net = biased_cell({"VDD": v_dd, "WL": v_dd, "BL": v_bl, "BLB": v_dd})
    return net, {net.role_node("Q"): v_dd, net.role_node("QBAR"): 0.0}


def write_read_stimulus_text():
    """The corpus write/read stimulus of a single cell, as netlist text."""
    return (Path(sramlab.__file__).parent / "corpus" / "cell_write_read.sp").read_text()


def write_read_stimulus():
    """The corpus write/read stimulus of a single cell."""
    return parse_netlist(write_read_stimulus_text())


@pytest.fixture
def fallbacks(monkeypatch):
    """Each entry to the gmin ladder, the one DC fallback, in order, as its
    name and the number of lanes in its stack (the last argument holds
    each lane's row of V_th0 shifts); it still runs."""
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
    sys, x, _, ladder = held_solve(net, held)
    assert fallbacks == [("_gmin_stepping", 1)]
    assert ladder
    assert max_node_residual(sys, x) < ABSTOL


def test_benchmark_tracer_records_dc_solves():
    # The benchmark's traced run wraps MnaSystem.solve_dc_vector by name and
    # notes from its return whether each solve took the gmin ladder; a
    # change to that method that breaks the wrapper shows here, not only in
    # a traced benchmark run.  spans.py is read, not imported, so nothing
    # is written beside it.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spans = types.ModuleType("spans")
    exec(compile(path.read_text(), str(path), "exec"), vars(spans))
    real = MnaSystem.solve_dc_vector
    tracer = spans.Tracer()
    tracer.install()
    try:
        sramlab.solve_dc(parse_netlist(DIVIDER))
        # Decoupled, but 100 V from its cold start: it takes the ladder.
        sramlab.solve_dc(parse_netlist("* far\nI1 0 n DC 1m\nR1 n 0 100k\n.END"))
    finally:
        tracer.uninstall()
    notes = [note for name, *_, note in tracer.spans if name == "engine.solve_dc_vector"]
    assert notes == [False, True] and all(type(note) is bool for note in notes)
    assert MnaSystem.solve_dc_vector is real and engine.np is np


def test_halved_gmin_step_rescues_a_write_probe(fallbacks, monkeypatch):
    # At 1.2 V, BL = 0.40 V, plain Newton from the held state fails, and so
    # does the rung at 1e-5 S of the fixed decade ladder.  The lane retries
    # half a decade up from the 1e-4 S state it last accepted, walks on,
    # and lands in the flipped basin: Q pulled down to about 0.19 V.
    rungs = []
    real = MnaSystem._newton_lanes

    def spy(self, x0, b, g, vth, shunt=None):
        x, its, failed = real(self, x0, b, g, vth, shunt)
        (rung,) = np.zeros(1) if shunt is None else shunt  # one lane
        rungs.append((rung, bool(failed)))
        return x, its, failed

    monkeypatch.setattr(MnaSystem, "_newton_lanes", spy)
    net, held = write_bias(1.2, 0.40)
    sys, x, _, ladder = held_solve(net, held)
    assert fallbacks == [("_gmin_stepping", 1)]
    shunts, failed = zip(*rungs)
    assert shunts[:5] == pytest.approx([0.0, 1e-3, 1e-4, 1e-5, 10**-4.5])
    assert failed[:5] == (True, False, False, True, False)
    assert shunts[-1] == 0.0 and not failed[-1]
    assert ladder
    assert max_node_residual(sys, x) < ABSTOL
    assert x[sys.node_index["Q"]] == pytest.approx(0.194, abs=1e-3)
    assert x[sys.node_index["QBAR"]] == pytest.approx(1.2, abs=1e-6)


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

    def spy(self, x0, b, g, vth, shunt=None):
        x, its, failed = real(self, x0, b, g, vth, shunt)
        if g is self.g_static and (shunt is None or not shunt.any()):  # one lane
            unshunted.append((x0.copy(), bool(failed)))
        return x, its, failed

    monkeypatch.setattr(MnaSystem, "_newton_lanes", spy)
    start = np.zeros((1, sys.size))
    x, _, fallback, left = sys.solve_lanes(sys.rhs()[None], start)
    assert fallback[0] and left == {0: "gmin stepping stalled below the minimum step; worst residual at node c"}
    assert [failed for _, failed in unshunted] == [True, True]
    assert np.array_equal(unshunted[0][0], start)
    assert np.array_equal(x, unshunted[1][0])


def test_decoupled_lane_far_from_its_start_takes_the_ladder(fallbacks):
    # 1 mA into 100 kOhm is decoupled, with its one solution at 100 V.
    # Plain Newton moves at most MAX_STEP a step for MAX_ITER steps, 30 V
    # from its start, so it fails; the gmin ladder, each rung with its own
    # iterations, still carries the lane there, in a solve and in a sweep's
    # first point.
    net = parse_netlist("* far\nI1 0 n DC 1m\nR1 n 0 100k\n.END")
    assert MnaSystem(net).decoupled
    sol = solve_dc(net)
    assert sol.gmin_ladder and math.isclose(sol.voltages["n"], 100.0, rel_tol=1e-9)
    assert fallbacks == [("_gmin_stepping", 1)]
    sweep = dc_sweep(net, "I1", 1e-3, 1e-3, 1.0)
    assert np.allclose(sweep.nodes["n"], [100.0], rtol=1e-9, atol=0.0)


@pytest.mark.parametrize("start, stop, step", [(0.5e-3, 1e-3, 0.5e-3), (1e-3, 0.5e-3, 0.5e-3), (0.0, 1e-3, 0.1e-3)])
def test_decoupled_sweep_reaches_far_points_both_ways(start, stop, step):
    # 1 mA into 100 kOhm, in steps of 0.5 mA: each point lies 50 V from the
    # one before, beyond what plain Newton's clipped steps cover.  A
    # decoupled system has one solution at each drive, so the ladder walks
    # from the cold start, not from the warm start 50 V off.  Steps of
    # 0.1 mA up from zero pass too.
    net = parse_netlist("* far\nI1 0 n DC 1m\nR1 n 0 100k\n.END")
    sweep = dc_sweep(net, "I1", start, stop, step)
    assert np.allclose(sweep.nodes["n"], sweep.values * 1e5, rtol=1e-9, atol=0.0)


def test_only_the_ladder_and_the_driver_call_newton():
    # solve_lanes is the one way into Newton, and _gmin_stepping its one
    # fallback: every other solve, a transient step included, goes through
    # solve_lanes, and so takes the same ladder and failure message.
    refs, callers = 0, {}
    for path in sorted(Path(sramlab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        refs += sum(isinstance(node, ast.Attribute) and node.attr == "_newton_lanes" for node in ast.walk(tree))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(fn):
                    if isinstance(node, ast.Attribute) and node.attr == "_newton_lanes":
                        callers[node] = (path.name, fn.name)  # outer functions come first: the innermost wins
    assert len(callers) == refs
    assert sorted(set(callers.values())) == [("engine.py", "_gmin_stepping"), ("engine.py", "solve_lanes")]
    # The ladder alone passes a shunt, the fifth argument.
    arity = {}
    for fn in ast.walk(ast.parse(Path(engine.__file__).read_text())):
        if isinstance(fn, ast.FunctionDef):
            for node in ast.walk(fn):
                if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "_newton_lanes":
                    arity[node] = (fn.name, len(node.args) + len(node.keywords))  # the innermost wins
    assert sorted(arity.values()) == [("_gmin_stepping", 5), ("solve_lanes", 4)]


def test_only_the_stamp_and_the_currents_pass_evaluate_the_model():
    # Newton evaluates the devices through mos_stamp alone; the inert
    # devices' currents are evaluated only by add_inert_currents, which a
    # caller that reads branch currents calls, never the driver itself.
    names, callers = 0, {}
    for path in sorted(Path(sramlab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        names += sum(isinstance(node, ast.Name) and node.id == "mos_eval" for node in ast.walk(tree))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(fn):
                    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "mos_eval":
                        callers[node] = (path.name, fn.name)  # outer functions come first: the innermost wins
    assert len(callers) == names  # every use of the name is a call
    assert sorted(set(callers.values())) == [("engine.py", "add_inert_currents"), ("kernels.py", "mos_stamp")]


def test_only_the_engine_reads_private_members_of_mna_system():
    # Every other module solves through MnaSystem's public driver, so the
    # lane pool, the ladder and the step plan can change behind one door.
    private = {n for n in dir(MnaSystem(parse_netlist(DIVIDER))) if n.startswith("_") and not n.startswith("__")}
    assert {"_newton_lanes", "_gmin_stepping", "_drv_node"} <= private
    reads = [
        (path.name, node.attr)
        for path in sorted(Path(sramlab.__file__).parent.glob("*.py"))
        if path.name != "engine.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr in private
    ]
    assert reads == []


def test_no_module_imports_a_private_name_of_another():
    # A single-underscore name belongs to its own module: other modules
    # reach its behaviour through public names, so it can change in one
    # place.
    imported = [
        (path.name, alias.name)
        for path in sorted(Path(sramlab.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.startswith("__")
    ]
    assert imported == []


def test_only_the_netlist_reads_terminal_fields():
    # An element's terminals are declared once, in its type's TERMINALS;
    # every other module reads them through `nodes`.  `source` is left out:
    # cli reads the parsed option args.source.
    fields = {f for t in (MosElement, CapElement, ResElement, SourceElement) for f in t.TERMINALS} - {"source"}
    reads = [
        (path.name, node.lineno, node.attr)
        for path in sorted(Path(sramlab.__file__).parent.glob("*.py"))
        if path.name != "netlist.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr in fields
    ]
    assert reads == []


def test_bad_resistor_value():
    net = parse_netlist("* bad\nV1 a 0 DC 1\nR1 a 0 0\n.END")
    with pytest.raises(ValueError, match="positive value"):
        solve_dc(net)


def test_drive_of_unknown_source():
    net = parse_netlist(DIVIDER)
    with pytest.raises(ValueError, match="^no stamped source named 'V9'$"):
        MnaSystem(net).rhs(drive={"V1": 1.0, "V9": 1.0})
    with pytest.raises(ValueError, match="^no stamped source named 'V9'$"):
        dc_sweep(net, "V9", 0.0, 1.0, 0.5)


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


def assembled(sys, x, b, g=None, active=False):
    """Jacobian values and extended residual at x against b, stamped on g
    (default g_static) with every device, or with the active ones alone,
    those Newton stamps; the linear part of the residual is a dense
    product."""
    g = sys.g_static if g is None else g
    x_ext = np.append(x, 0.0)
    jac, res = g.copy(), dense(sys, g) @ x_ext + b
    if active:
        idx, par, at = sys._active_idx, sys._active_par, sys._active_at
    else:
        idx, par, at = sys.mos_idx, sys.mos_par, sys._stamp_at
    mos_stamp(x_ext, idx, par, sys.vt, jac, res, at)
    return jac, res


def lane_jacobians(sys, g, lanes, shunt=None):
    """Each lane's linear Jacobian values in a _newton_lanes call: g, plus
    the lane's shunt on every node diagonal where one is passed."""
    rows = np.repeat(g[None], lanes, axis=0)
    if shunt is not None:
        rows[:, sys._node_diag] += shunt[:, None]
    return rows


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
    step = sys.newton_step(jac[None], res[None])[0]
    np.testing.assert_allclose(step, want, rtol=0, atol=atol)


def driven_tile(rows, cols):
    """An array tile with a grounded 1.8 V drive on every rail, and the
    rails' names."""
    gnd = Node(GROUND)
    rails = ["VDD"] + [f"WL{r}" for r in range(rows)]
    rails += [f"{side}{c}" for c in range(cols) for side in ("BL", "BLB")]
    drives = [SourceElement(f"V{n}", Node(n), gnd, "DC", (1.8,)) for n in rails]
    return with_elements(sramlab.build_array(rows, cols), drives), rails


def test_reduction_plan_on_an_array_tile():
    # Grounded drives on every rail: what is left is one 2x2 block per
    # cell (its two storage nodes).
    rows, cols = 2, 3
    net, rails = driven_tile(rows, cols)
    sys = MnaSystem(net)
    assert [(m, idx.shape[0]) for m, _, idx, _ in sys._blocks] == [(2, rows * cols)]
    assert sys._drv_node.size == len(rails)


def test_driven_array_tile_has_no_inert_device():
    # Every device of a driven tile has its drain or source on a storage
    # node, a free unknown, so Newton stamps the full arrays themselves.
    sys = MnaSystem(driven_tile(2, 3)[0])
    assert sys._inert.size == 0
    assert sys._active_idx is sys.mos_idx
    assert sys._active_par is sys.mos_par
    assert sys._active_at is sys._stamp_at


def test_converged_random_circuits_hold_full_kcl():
    # Newton leaves out the devices whose drain and source both sit on
    # ground or a driven node; solve_dc has add_inert_currents add their
    # currents to the driven nodes' sources afterwards.  Every converged
    # solution then holds KCL over every device, the inert ones included,
    # at every node; 123 of the solutions have an inert device.
    rng = np.random.default_rng(0)
    inert = 0
    for idx in range(400):
        net = parse_netlist(random_circuit_text(rng, idx))
        try:
            sol = solve_dc(net)
        except (FloatingNodeError, ConvergenceError):
            continue
        assert sol.max_residual < ABSTOL
        inert += MnaSystem(net)._inert.size > 0
    assert inert == 123


INERT_EXTRAS = {
    # A coupled latch: an NMOS from VDD to ground and a PMOS from BLB to
    # VDD, each gated by a storage node.
    "latch": "MX1 VDD Q 0 0 NMOS L=2u W=6u\nMX2 BLB QBAR VDD VDD PMOS L=2u W=3u",
    # A decoupled cell: Q driven, which leaves MPUL, MPDL and MPGL inert.
    "q-driven": "VQ Q 0 DC 0.4",
}


def columns(result):
    """A sweep's or waveform's states, one column per point: nodes, then
    branch currents, in the order of the system's unknowns."""
    return np.stack([*result.nodes.values(), *result.branch_currents.values()])


@pytest.mark.parametrize("extra", INERT_EXTRAS.values(), ids=INERT_EXTRAS.keys())
def test_states_read_for_currents_hold_full_kcl_with_inert_devices(extra):
    # Newton stamps no inert device, so every caller that gives branch
    # currents adds theirs: its states solve KCL at every node over every
    # device, driven nodes included.  A transient step's residual adds
    # each capacitor's companion current.
    text = write_read_stimulus_text().replace(".END", extra + "\n.END")
    net = parse_netlist(text)
    sys = MnaSystem(net)
    assert sys._inert.size >= 2
    assert solve_dc(net).max_residual < ABSTOL
    for source in ("VBL", "VDD"):
        sweep = dc_sweep(net, source, 0.0, 1.8, 0.05)
        for v, x in zip(sweep.values, columns(sweep).T):
            assert max_node_residual(sys, x, sys.rhs(drive={source: v})) < ABSTOL, (source, v)
    a, b = sys._cap_slots.T
    caps = np.array([c.value for c in sys.caps])
    for method, ics in (("be", {"QBAR": 0.0}), ("trap", None)):
        tran = transient(net, 60e-9, 0.2e-9, method=method, ics=ics)
        dt = tran.time[1]
        xs = columns(tran)
        x_ext = np.vstack((xs, np.zeros(xs.shape[1])))
        u = x_ext[a] - x_ext[b]
        i_cap = np.zeros(caps.size)  # open at t = 0
        for k, x in enumerate(xs.T):
            if k:
                du = u[:, k] - u[:, k - 1]
                i_cap = caps * du / dt if method == "be" or k == 1 else 2.0 * caps * du / dt - i_cap
            elif ics:
                continue  # the t = 0 state solves the pinned system
            res = sys.residual(x, sys.rhs(drive={sid: w[k] for sid, w in tran.drives.items()}))
            np.add.at(res, a, i_cap)
            np.add.at(res, b, -i_cap)
            assert np.abs(res[: sys.n_nodes]).max() < ABSTOL, (method, tran.time[k])


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

    def spy(self, x0, b, g, vth, shunt=None):
        handed.extend((self, row) for row in lane_jacobians(self, g, len(x0), shunt))
        return real(self, x0, b, g, vth, shunt)

    monkeypatch.setattr(MnaSystem, "_newton_lanes", spy)
    net, held = write_bias(1.2, 0.40)
    held_solve(net, held)
    ladder = len(handed)
    stimulus = write_read_stimulus()
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
# The stop rule, checked from outside the Newton loop


@pytest.fixture
def fresh_stop(monkeypatch):
    """For each lane that _newton_lanes returns as converged, its fresh
    Newton step there over the stop tolerance (worst unknown) and its worst
    KCL residual, both formed with `assembled`, not by the loop, over the
    devices the loop stamps: the inert ones' currents join the branch
    currents only after it (see test_converged_random_circuits_hold_full_kcl)."""
    checked = []
    real = MnaSystem._newton_lanes

    def spy(self, x0, b, g, vth, shunt=None):
        x, its, failed = real(self, x0, b, g, vth, shunt)
        assert vth is None or not vth.any()  # assembled stamps the unshifted devices
        rows = lane_jacobians(self, g, len(x0), shunt)
        for lane in sorted(set(range(len(x))) - set(failed)):
            jac, res = assembled(self, x[lane], b[lane], rows[lane], active=True)
            step = self.newton_step(jac[None], res[None])[0]
            tol = RELTOL * np.maximum(np.abs(x[lane] + step), np.abs(x[lane])) + VNTOL
            checked.append((np.max(np.abs(step) / tol), np.abs(res[: self.n_nodes]).max(initial=0.0)))
        return x, its, failed

    monkeypatch.setattr(MnaSystem, "_newton_lanes", spy)
    return checked


@pytest.fixture
def latent_steps(monkeypatch):
    """How often each run's latency rule held, in run order; reference(...)
    runs transient with the rule off, every step solved."""
    runs = []
    real = engine._latent

    def spy(v):
        latent = real(v)
        runs[-1] += latent
        return latent

    def run(*args, **kwargs):
        runs.append(0)
        return transient(*args, **kwargs)

    def reference(*args, **kwargs):
        with monkeypatch.context() as m:
            m.setattr(engine, "_latent", lambda v: False)
            return transient(*args, **kwargs)

    monkeypatch.setattr(engine, "_latent", spy)
    return types.SimpleNamespace(runs=runs, run=run, reference=reference)


def assert_converged(checked, at_least):
    assert len(checked) >= at_least
    ratio, res = np.array(checked).T
    assert ratio.max() <= 4.0
    assert res.max() < ABSTOL


def test_random_circuits_converge_by_a_fresh_stop_test(fresh_stop):
    # Plain Newton from zero; the ladder's rungs are checked on the write
    # probe below, since the circuits that stall on it take a second each.
    rng = np.random.default_rng(0)
    for idx in range(500):
        sys = MnaSystem(parse_netlist(random_circuit_text(rng, idx)))
        try:
            sys._newton_lanes(np.zeros((1, sys.size)), sys.rhs()[None], sys.g_static, np.zeros((1, len(sys.mos_par))))
        except FloatingNodeError:
            pass
    assert_converged(fresh_stop, 380)


def test_be_steps_converge_by_a_fresh_stop_test(fresh_stop, latent_steps):
    # Solved steps pass the fresh stop test in the spy.  A latent step keeps
    # the state of the step before; that state must pass the same test
    # against the latent step's own backward-Euler equation, built here from
    # rhs and the capacitors, not by transient.
    stimulus = write_read_stimulus()
    dt = 0.1e-9
    tr = latent_steps.run(stimulus, t_stop=60e-9, dt=dt, ics={"Q": 1.8, "QBAR": 0.0})
    (latent,) = latent_steps.runs
    # The first checked lane is the pinned t = 0 solve.
    solved = len(fresh_stop) - 1
    assert solved + latent == 600
    assert_converged(fresh_stop, 1 + solved)

    sys = MnaSystem(stimulus)
    xs = np.array([tr.node(n) for n in sys.nodes] + [tr.branch_currents[s] for s in sys.branch_index])
    kept = [k for k in range(1, 601) if np.array_equal(xs[:, k], xs[:, k - 1])]
    assert len(kept) == latent > 0
    linear = reference_matrix(sys, cap_factor=1 / dt)
    caps = linear - reference_matrix(sys)
    g = np.append(linear.reshape(-1)[sys._keys], 0.0)
    checked = []
    for k in kept:
        x = xs[:, k]
        drive = {e.id: e.value_at(tr.time[k]) for e in sys.vsources + sys.isources}
        b = sys.rhs(drive=drive) - caps @ np.append(xs[:, k - 1], 0.0)
        jac, res = assembled(sys, x, b, g)
        step = sys.newton_step(jac[None], res[None])[0]
        tol = RELTOL * np.maximum(np.abs(x + step), np.abs(x)) + VNTOL
        checked.append((np.max(np.abs(step) / tol), np.abs(res[: sys.n_nodes]).max()))
    assert_converged(checked, len(kept))


def test_write_probe_converges_by_a_fresh_stop_test(fresh_stop):
    net, held = write_bias(1.2, 0.40)
    held_solve(net, held)
    assert_converged(fresh_stop, 5)


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


def test_coupled_sweep_restarts_where_the_shift_rows_change(monkeypatch):
    # A coupled sweep walks its lanes in order, each from the state of the
    # lane before while both have the same row of V_th0 shifts, and from
    # its own row of x0 wherever the row changes, a return to an earlier
    # row included.  The starts alternate between the latch's two held
    # states, so a walk that carried on where it should restart would
    # start from the other basin.
    sys = MnaSystem(parse_netlist(LATCH))
    assert not sys.decoupled
    vth = np.array([[0.0, 0.0], [0.0, 0.0], [0.02, 0.0], [0.02, 0.0], [0.02, 0.0], [0.0, 0.0], [0.0, -0.01]])
    restart = [True, False, True, False, False, True, True]
    q, qb = sys.node_index["q"], sys.node_index["qb"]
    x0 = np.zeros((len(vth), sys.size))
    x0[1::2, q] = x0[::2, qb] = 1.8
    starts = []
    real = MnaSystem.solve_lanes

    def spy(self, b, x0=None, vth=None, g=None):
        starts.append(np.array(x0))
        return real(self, b, x0, vth, g)

    monkeypatch.setattr(MnaSystem, "solve_lanes", spy)
    x, failed = sys.sweep(np.repeat(sys.rhs()[None], len(vth), axis=0), x0, vth)
    assert failed == {} and len(starts) == len(vth)
    for i, fresh in enumerate(restart):
        assert np.array_equal(starts[i], x0[i] if fresh else x[i - 1]), i
        assert not np.array_equal(x0[i], x[i - 1]) or i == 0


def test_dc_sweep_annotates_failures():
    net = parse_netlist("* floating\nV1 in 0 DC 1\nC1 in adrift 1p\n.END")
    with pytest.raises(FloatingNodeError, match=r"sweeping V1\)"):
        dc_sweep(net, "V1", 0.5, 1.0, 0.5)


def test_decoupled_dc_sweep_is_one_batch_of_lanes(monkeypatch):
    # An inverter with its input driven has one free unknown, so each
    # point of its transfer curve has one solution: the sweep is one
    # solve_lanes call of every point, each landing within VNTOL of the
    # root of out's KCL, found by bisection on the drain currents.
    net = parse_netlist(INVERTER)
    calls = []
    real = MnaSystem.solve_lanes

    def spy(self, b, *args, **kwargs):
        calls.append(len(b))
        return real(self, b, *args, **kwargs)

    monkeypatch.setattr(MnaSystem, "solve_lanes", spy)
    res = dc_sweep(net, "VIN", 0.0, 1.8, 1e-3)
    monkeypatch.undo()
    assert MnaSystem(net).decoupled and calls == [1801]
    tech = derive_tech_params(TechnologyParams.default())
    par_n = pack_device(tech.nmos, "NMOS", 6e-6, 2e-6, tech.v_t)[None, :]
    par_p = pack_device(tech.pmos, "PMOS", 10.5e-6, 2e-6, tech.v_t)[None, :]
    vin, zero = res.values[:, None], np.zeros((res.values.size, 1))

    def leaving(v):  # the current out of node out at V(out) = v, increasing in v
        i_n = mos_eval(par_n, vin, v, zero, tech.v_t)[0]
        i_p = mos_eval(par_p, vin - 1.8, v - 1.8, zero, tech.v_t)[0]
        return (i_n + i_p)[:, 0]

    lo, hi = np.zeros((res.values.size, 1)), np.full((res.values.size, 1), 1.8)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        up = (leaving(mid) > 0)[:, None]
        lo, hi = np.where(up, lo, mid), np.where(up, mid, hi)
    assert np.abs(res.node("out") - 0.5 * (lo + hi)[:, 0]).max() <= VNTOL


def test_dc_sweep_of_a_current_source():
    # I1 drives 2 mA at most into a through R1 alone: V(a) = I * R at every
    # point, and the other node, behind its own source, does not move.
    net = parse_netlist("* current\nI1 0 a DC 0\nR1 a 0 2k\nV1 b 0 DC 0.5\nR2 b 0 1k\n.END")
    res = dc_sweep(net, "I1", 0.0, 2e-3, 2.5e-4)
    assert res.values.size == 9
    np.testing.assert_allclose(res.node("a"), 2e3 * res.values, rtol=1e-12, atol=1e-15)
    assert np.all(res.node("b") == 0.5)


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
    assert np.array_equal(tr.node("0"), np.zeros(tr.time.size))


@pytest.mark.parametrize("method", ["be", "trap"])
def test_initial_condition_first_point_is_the_pinned_solve(method):
    # The t = 0 column is the leading slice of the pinned system's state,
    # which holds only while the pins come after every element of the net
    # and so every node and every source of the net keeps its index.  Pins
    # given in reverse node order must not move any of them: every node
    # voltage and every branch current of the net's own sources equals,
    # bit for bit, a DC solve of the net with the pins appended.
    net = write_read_stimulus()
    assert MnaSystem(net).nodes[:2] == ["Q", "QBAR"]
    ics = {"QBAR": 0.0, "Q": 1.8}
    pins = [SourceElement(f"VPIN{name}", Node(name), Node(GROUND), "DC", (v,)) for name, v in ics.items()]
    want = solve_dc(with_elements(net, pins))
    tr = transient(net, t_stop=2e-10, dt=1e-10, method=method, ics=ics)
    assert tr.nodes.keys() == want.voltages.keys()
    assert all(tr.nodes[n][0] == v for n, v in want.voltages.items())
    assert tr.branch_currents.keys() == {"VDD", "VWL", "VBL", "VBLB"}
    assert all(tr.branch_currents[s][0] == want.branch_currents[s] for s in tr.branch_currents)


def test_source_free_transient_decays_from_its_initial_condition():
    # No source at all: each step's right-hand side is the capacitor's
    # history alone, and backward Euler divides the voltage by 1 + dt/RC
    # per step.
    net = parse_netlist("* discharge\nR1 a 0 1k\nC1 a 0 1n\n.END")
    tr = transient(net, t_stop=5e-6, dt=1e-7, ics={"a": 1.0})
    assert tr.drives == {} and tr.branch_currents == {}
    np.testing.assert_allclose(tr.node("a"), 1.1 ** -np.arange(51.0), rtol=1e-12)


def test_transient_without_ics_starts_at_dc():
    net = parse_netlist(RC)
    tr = transient(net, t_stop=1e-5, dt=1e-6)
    # DC has the cap charged already; nothing should move.
    np.testing.assert_allclose(tr.node("out"), 1.0, rtol=0, atol=1e-9)


def test_quiet_be_steps_take_one_stamp_each(monkeypatch):
    # A held cell that starts settled, every drive constant: each backward-
    # Euler step's residual is already within tolerance at its start, so
    # its first Newton step is small and passes.  Counted at the device
    # kernel, not from the loop's own iteration count.
    net = biased_cell({"VDD": 1.8, "WL": 0.0, "BL": 1.8, "BLB": 1.8})
    q, qbar = net.role_node("Q"), net.role_node("QBAR")
    sys, x, _, _ = held_solve(net, {q: 1.8, qbar: 0.0})
    stamps, calls = [], []
    real_stamp, real_lanes = engine.mos_stamp, MnaSystem._newton_lanes

    def stamp(*args):
        stamps.append(1)
        return real_stamp(*args)

    def lanes(self, *args):
        before = len(stamps)
        out = real_lanes(self, *args)
        calls.append((self, len(stamps) - before))
        return out

    monkeypatch.setattr(engine, "mos_stamp", stamp)
    monkeypatch.setattr(MnaSystem, "_newton_lanes", lanes)
    tr = transient(net, t_stop=2e-9, dt=1e-10, ics={q: x[sys.node_index[q]], qbar: x[sys.node_index[qbar]]})
    # The pinned t = 0 solve runs on a system of its own; the steps on the
    # last one.
    per_step = [n for sys, n in calls if sys is calls[-1][0]]
    assert per_step == [1] * 20
    assert tr.node(q)[-1] == pytest.approx(1.8, abs=1e-6)


# Latent steps.  Each test names the mutation of the latency rule (drive
# check, contraction and tail bound, backward Euler only) that it catches.


def array_write_read(bits, target):
    """A tile of bits.shape cells holding bits, under the stimulus of
    cell_write_read.sp at array scale: the word-line pulse on the target's
    row, the other rows grounded, every bit line held at VDD but the
    target column's side that writes the flipped bit, which the BL
    waveform pulls low.  Returns the netlist, its initial condition and
    the bits it should end in."""
    stim = {e.id: e for e in write_read_stimulus().elements if isinstance(e, SourceElement)}
    gnd = Node(GROUND)
    off = SourceElement("VOFF", gnd, gnd, "DC", (0.0,))

    def source(node, proto):
        return SourceElement(f"V{node}", Node(node), gnd, proto.kind, proto.params)

    rows, cols = bits.shape
    want = bits.copy()
    want[target] = 1 - bits[target]
    low = "BL" if want[target] == 0 else "BLB"
    sources = [source("VDD", stim["VDD"])]
    sources += [source(f"WL{r}", stim["VWL"] if r == target[0] else off) for r in range(rows)]
    sources += [
        source(f"{side}{c}", stim["VBL"] if (c, side) == (target[1], low) else stim["VBLB"])
        for c in range(cols)
        for side in ("BL", "BLB")
    ]
    ics = {}
    for (r, c), b in np.ndenumerate(bits):
        ics[f"Q_{r}_{c}"], ics[f"QBAR_{r}_{c}"] = 1.8 * b, 1.8 * (1 - b)
    return with_elements(build_array(rows, cols), sources), ics, want


def assert_within_vntol(got, ref):
    for name in ref.nodes:
        np.testing.assert_allclose(got.node(name), ref.node(name), rtol=0, atol=VNTOL, err_msg=name)


@pytest.mark.parametrize("ics", [{"Q": 1.8, "QBAR": 0.0}, None])
def test_latent_be_steps_track_the_full_run(latent_steps, ics):
    # Catches a tail bound loosened tenfold.
    net = write_read_stimulus()
    got = latent_steps.run(net, t_stop=60e-9, dt=0.1e-9, ics=ics)
    ref = latent_steps.reference(net, t_stop=60e-9, dt=0.1e-9, ics=ics)
    assert latent_steps.runs[-1] > 300
    assert_within_vntol(got, ref)
    assert (got.node("Q")[-1] > got.node("QBAR")[-1]) == (ref.node("Q")[-1] > ref.node("QBAR")[-1])


@pytest.mark.parametrize(
    "bits, target",
    [
        (np.zeros((4, 4), dtype=int), (1, 2)),
        (np.ones((4, 4), dtype=int), (2, 1)),
        (np.indices((4, 4)).sum(axis=0) % 2, (3, 0)),
    ],
)
def test_latent_be_steps_track_the_full_run_on_a_tile(latent_steps, bits, target):
    # Catches a tail bound taken over the largest move alone, which leaves
    # a node that relaxes more slowly than that move too far from its end.
    net, ics, want = array_write_read(bits, target)
    got = latent_steps.run(net, t_stop=60e-9, dt=2e-10, ics=ics)
    ref = latent_steps.reference(net, t_stop=60e-9, dt=2e-10, ics=ics)
    assert latent_steps.runs[-1] > 100
    assert_within_vntol(got, ref)
    for out in (got, ref):
        ends = [[out.node(f"Q_{r}_{c}")[-1] > out.node(f"QBAR_{r}_{c}")[-1] for c in range(4)] for r in range(4)]
        assert np.array_equal(ends, want)


def test_latency_never_freezes_a_drift(latent_steps):
    # A constant current charges the capacitor by 1e-7 V a step, well
    # inside VNTOL: no step may go latent.  Catches a rule without the
    # contraction test.
    net = parse_netlist("* charging\nI1 0 a DC 1n\nC1 a 0 1p\n.END")
    got = latent_steps.run(net, t_stop=1e-8, dt=1e-10, ics={"a": 0.0})
    ref = latent_steps.reference(net, t_stop=1e-8, dt=1e-10, ics={"a": 0.0})
    assert latent_steps.runs == [0]
    assert np.array_equal(got.node("a"), ref.node("a"))
    np.testing.assert_allclose(np.diff(got.node("a")), 1e-7, rtol=1e-6)


def test_latency_never_skips_an_edge(latent_steps):
    # A long settled span, then a pulse: the driven node equals its drive
    # on every step, so the first step of each edge was solved.  Catches a
    # rule without the drive check.
    net = parse_netlist("* edge\nV1 in 0 PULSE(0 1 50n 1n 1n 20n 100n)\nR1 in out 1k\nC1 out 0 1p\n.END")
    tr = latent_steps.run(net, t_stop=100e-9, dt=0.1e-9)
    assert latent_steps.runs[-1] > 400
    assert np.array_equal(tr.node("in"), tr.drives["V1"])
    assert_within_vntol(tr, latent_steps.reference(net, t_stop=100e-9, dt=0.1e-9))


def test_trap_steps_are_never_latent(latent_steps):
    # Catches the rule applied to the trapezoidal method.
    net = write_read_stimulus()
    for ics in ({"Q": 1.8, "QBAR": 0.0}, None):
        got = latent_steps.run(net, t_stop=60e-9, dt=0.1e-9, method="trap", ics=ics)
        ref = latent_steps.reference(net, t_stop=60e-9, dt=0.1e-9, method="trap", ics=ics)
        for name in ref.nodes:
            assert np.array_equal(got.node(name), ref.node(name)), name
        for name in ref.branch_currents:
            assert np.array_equal(got.branch_currents[name], ref.branch_currents[name]), name
    assert latent_steps.runs == [0, 0]


def test_settled_be_span_costs_no_stamps(monkeypatch):
    # After the write the cell settles and every drive holds until BL
    # rises at 25 ns: the steps from 20 to 24 ns stamp nothing.  The two
    # runs share their first 200 steps.  Catches a rule that never holds.
    stamps = []
    real = engine.mos_stamp

    def stamp(*args):
        stamps.append(1)
        return real(*args)

    monkeypatch.setattr(engine, "mos_stamp", stamp)
    net = write_read_stimulus()
    counts = []
    for t_stop in (20e-9, 24e-9):
        stamps.clear()
        transient(net, t_stop=t_stop, dt=0.1e-9, ics={"Q": 1.8, "QBAR": 0.0})
        counts.append(len(stamps))
    assert counts[0] > 0 and counts[1] == counts[0]


def test_transient_tracks_pwl_drive():
    net = parse_netlist(
        "* tracker\nV1 in 0 PWL(0 0 1u 1)\nR1 in out 1k\nR2 out 0 1k\n.END"
    )
    tr = transient(net, t_stop=1e-6, dt=1e-7)
    np.testing.assert_allclose(tr.node("out"), 0.5 * tr.drives["V1"], atol=1e-9)


def test_transient_drive_table_is_rhs_per_step():
    # No capacitors, so each step is a DC solve warm-started from the last:
    # the steps built from the drive table must equal solves against
    # rhs of every source's value at t, bit for bit, and the table must be
    # each source's waveform.
    net = parse_netlist(
        "* drives\nV1 a 0 PWL(0 0 1u 1)\nV2 b 0 DC 0.3\nR1 a c 1k\nR2 c b 2k\n"
        "I1 0 c PULSE(0 1m 0.2u 0.1u 0.1u 0.3u 1u)\nI2 c a DC 0.2m\n.END"
    )
    tr = transient(net, t_stop=1e-6, dt=5e-8)
    sys = MnaSystem(net)
    x, _, _ = sys.solve_dc_vector()
    for k, t in enumerate(tr.time):
        if k:
            b = sys.rhs(drive={e.id: e.value_at(t) for e in sys.vsources + sys.isources})
            (x,), _, failed = sys._newton_lanes(x[None], b[None], sys.g_static, np.zeros((1, len(sys.mos_par))))
            assert not failed
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
