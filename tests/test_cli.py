import ast
import csv
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import sramlab
from sramlab import cli, engine
from sramlab.cli import main
from sramlab.engine import MnaSystem
from sramlab.genlib import build_6t_cell
from sramlab.netlist import parse_netlist, print_netlist
from sramlab.report import AnalysisReport

CORPUS = Path(sramlab.__file__).parent / "corpus"

DIVIDER = """\
* resistor divider
V1 in 0 DC 1.8
R1 in mid 1k
R2 mid 0 1k
.END
"""

RC = """\
* charging RC
V1 in 0 DC 1.0
R1 in out 1k
C1 out 0 1u
.END
"""


@pytest.fixture
def run(capsys):
    def go(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return go


@pytest.fixture(scope="module")
def cell_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cells") / "cell.sp"
    path.write_text(print_netlist(build_6t_cell()))
    return str(path)


def lines_of(out):
    return out.strip().splitlines()


def body_of(out):
    return [l for l in lines_of(out) if not l.startswith("#")]


# ---------------------------------------------------------------------
# Reports and formatting


def test_power_report_line(run):
    code, out, err = run("power", "--cl", "35f", "--vdd", "1.8", "--fsw", "100meg")
    assert code == 0 and err == ""
    assert "dynamic_power 1.134e-05 W" in body_of(out)
    assert lines_of(out)[0] == "# temperature = 300.15"


def test_reports_are_byte_identical_across_runs(run, cell_file):
    first = run("snm", "--netlist", cell_file, "--grid", "0.05")
    second = run("snm", "--netlist", cell_file, "--grid", "0.05")
    assert first == second
    assert first[0] == 0


def test_config_header_echo(run, tmp_path):
    cfg = tmp_path / "hot.tech"
    cfg.write_text("temperature = 350\n")
    code, out, _ = run("power", "--config", str(cfg), "--cl", "1f", "--vdd", "1", "--fsw", "1meg")
    assert code == 0
    assert lines_of(out)[0] == "# temperature = 350"


def test_config_errors_exit_2(run, tmp_path):
    cfg = tmp_path / "bad.tech"
    cfg.write_text("mobility = 400\n")
    code, out, err = run("power", "--config", str(cfg), "--cl", "1f", "--vdd", "1", "--fsw", "1meg")
    assert code == 2
    assert "unknown key" in err


def test_config_derivation_inputs_take_effect(run, cell_file, tmp_path):
    # A physical input clears the card value derived from it, so the
    # derivation runs: short of an input it is bad input, and with all of
    # them the margins move.
    cfg = tmp_path / "oxide.tech"
    cfg.write_text("t_ox = 10n\n")
    code, out, err = run("snm", "--netlist", cell_file, "--grid", "0.05", "--config", str(cfg))
    assert code == 2 and out == ""
    assert err == "error: gamma derivation needs n_a\n"
    cfg.write_text("t_ox = 20n\nn_a = 1e22\nq_b0 = 0\nq_ox = 0\nq_i = 0\nnmos.phi_ms = -0.25\npmos.phi_ms = 1.15\n")
    code, derived, _ = run("snm", "--netlist", cell_file, "--grid", "0.05", "--config", str(cfg))
    assert code == 0
    assert "gamma=0.329" in derived and "vth0=0.45" in derived
    _, nominal, _ = run("snm", "--netlist", cell_file, "--grid", "0.05")
    assert body_of(derived) != body_of(nominal)


def python_dash_m(cwd, *argv):
    """`python -m sramlab argv` in a fresh interpreter, from a checkout,
    with the source tree on the path and no install, under Python's default
    warning filters."""
    path = [str(Path(sramlab.__file__).parent.parent), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    env.pop("PYTHONWARNINGS", None)
    return subprocess.run(
        [sys.executable, "-m", "sramlab", *argv], capture_output=True, text=True, env=env, cwd=cwd
    )


def test_python_dash_m_runs_the_cli(tmp_path):
    done = python_dash_m(tmp_path, "power", "--cl", "35f", "--vdd", "1.8", "--fsw", "100meg")
    assert done.returncode == 0 and done.stderr == ""
    assert "dynamic_power 1.134e-05 W" in body_of(done.stdout)


# Random circuit 930 of tests/test_engine.py (rng seed 0): plain Newton and
# the gmin ladder both fail it, and some of its steps come out non-finite.
STALLS_WITH_NON_FINITE_STEPS = """\
* random circuit 930
V1 a 0 DC 0.733638
I1 0 d DC 4.153253e-05
R1 c a 11.7913k
R2 c 0 26.8955k
R3 a b 21.8988k
M1 d b c 0 NMOS W=2.712u L=2.633u
M2 0 d c 0 PMOS W=7.598u L=3.339u
M3 b c a b PMOS W=14.524u L=3.703u
M4 b d a 0 NMOS W=14.134u L=2.090u
M5 0 a a c NMOS W=17.126u L=3.418u
.END
"""


def test_dc_failure_prints_only_its_error_line(tmp_path):
    # A non-finite Newton step fails its lane; numpy's warning about
    # forming it must not reach stderr beside the error.
    f = tmp_path / "c930.sp"
    f.write_text(STALLS_WITH_NON_FINITE_STEPS)
    done = python_dash_m(tmp_path, "dc", str(f))
    assert done.returncode == 1 and done.stdout == ""
    assert done.stderr == "error: gmin stepping stalled below the minimum step; worst residual at node d\n"


@pytest.mark.parametrize(
    "argv, where",
    [(("dc",), ""), (("sweep", "--source", "V1", "--from", "0.733638", "--to", "0.733638", "--step", "1"), " (sweeping V1=0.733638)")],
    ids=["dc", "sweep"],
)
def test_failed_solve_names_its_worst_node(run, tmp_path, argv, where):
    # The ladder's one failure message names the node of the worst
    # residual, in a DC solve and in a sweep point alike.
    f = tmp_path / "c930.sp"
    f.write_text(STALLS_WITH_NON_FINITE_STEPS)
    code, out, err = run(argv[0], str(f), *argv[1:])
    assert code == 1 and out == ""
    assert err == f"error: gmin stepping stalled below the minimum step; worst residual at node d{where}\n"


def test_zero_drive_prints_as_zero_after_a_cold_ladder(run, tmp_path):
    # Plain Newton cannot reach V(n) = 100 V from zero, and the decoupled
    # lane walks the ladder from its cold start, each driven node at its
    # drive: +0.0 for the 0 V source, so V(m) prints 0, not -0.
    f = tmp_path / "far.sp"
    f.write_text("* far\nI1 0 n DC 1m\nR1 n 0 100k\nV2 m 0 DC 0\nR2 m 0 1k\n.END\n")
    code, out, err = run("dc", str(f))
    assert code == 0 and err == ""
    assert body_of(out)[:3] == ["V(m) 0 V", "V(n) 100 V", "I(V2) 0 A"]


def test_power_negative_input_exits_2(run):
    code, out, err = run("power", "--cl", "-1", "--vdd", "1.8", "--fsw", "100meg")
    assert code == 2 and out == ""
    assert err == "error: capacitance, supply, and frequency must be nonnegative\n"


def test_snm_zero_grid_exits_2(run, cell_file):
    code, out, err = run("snm", "--netlist", cell_file, "--grid", "0")
    assert code == 2 and out == ""
    assert err == "error: grid must be positive\n"


def assert_bad_supply(run, flag, name, *argv):
    # A supply that is not positive is bad input, refused by the library
    # function that takes it as `name`: exit 2, nothing on stdout.
    for value in ("0", "-1"):
        code, out, err = run(*argv, f"--{flag}={value}")
        assert code == 2 and out == "", (argv, value)
        assert err == f"error: {name} must be positive\n"


def test_snm_nonpositive_vdd_exits_2(run, cell_file):
    assert_bad_supply(run, "vdd", "v_dd", "snm", "--netlist", cell_file)


def test_montecarlo_nonpositive_vdd_exits_2(run, cell_file):
    assert_bad_supply(run, "vdd", "v_dd", "montecarlo", "--netlist", cell_file)


def test_delay_nonpositive_vdd_exits_2(run, cell_file):
    assert_bad_supply(run, "vdd", "v_dd", "delay", "--netlist", cell_file, "--cbit", "1e-13")


def test_write_margin_nonpositive_vdd_exits_2(run, cell_file):
    assert_bad_supply(run, "vdd", "v_dd", "write-margin", "--netlist", cell_file)


def test_drv_nonpositive_vmax_exits_2(run, cell_file):
    assert_bad_supply(run, "vmax", "v_max", "drv", "--netlist", cell_file)


def test_delay_waveform_nonpositive_vdd_exits_2(run, tmp_path):
    # The waveform's thresholds sit between 0 V and --vdd.
    path = tmp_path / "wave.csv"
    path.write_text("time,V(WL),V(Q)\n0,0,1.8\n1e-9,1.8,0\n")
    for value in ("0", "-1"):
        argv = ("delay", "--waveform", str(path), "--node", "Q", "--input", "WL", f"--vdd={value}")
        assert_bad_input(run, "v_high must exceed v_low", *argv)


@pytest.mark.parametrize(
    "argv",
    [
        ("snm", "--netlist", "CELL"),
        ("dc", "DIVIDER"),
        ("sweep", "DIVIDER", "--source", "V1", "--from", "0", "--to", "1", "--step", "0.5"),
        ("tran", "DIVIDER", "--tstop", "1n", "--dt", "0.5n"),
        ("write-margin", "--netlist", "CELL"),
        ("drv", "--netlist", "CELL"),
        ("montecarlo", "--netlist", "CELL", "--samples", "2"),
        ("delay", "--cbit", "100f", "--netlist", "CELL"),
    ],
    ids=lambda argv: argv[0],
)
def test_zero_temperature_card_exits_2_from_every_analysis(run, cell_file, tmp_path, argv):
    # One bad card is bad input whichever analysis first reads it.
    cfg = tmp_path / "frozen.tech"
    cfg.write_text("temperature = 0\n")
    divider = tmp_path / "div.sp"
    divider.write_text(DIVIDER)
    argv = [{"CELL": cell_file, "DIVIDER": str(divider)}.get(a, a) for a in argv]
    assert_bad_input(run, "temperature must be positive", *argv, "--config", str(cfg))


def test_montecarlo_negative_seed_exits_2(run, cell_file):
    assert_bad_input(run, "seed must be nonnegative", "montecarlo", "--netlist", cell_file, "--seed", "-1")


def test_drv_closed_form_zero_leakage_exits_2(run, cell_file, tmp_path):
    cfg = tmp_path / "tight.tech"
    cfg.write_text("i0 = 0\n")
    argv = ("drv", "--netlist", cell_file, "--method", "closed-form", "--config", str(cfg))
    assert_bad_input(run, "leakage currents must be positive", *argv)


def test_montecarlo_without_transistors_exits_2(run, tmp_path):
    f = tmp_path / "div.sp"
    f.write_text(DIVIDER)
    assert_bad_input(run, "cell has no transistors to perturb", "montecarlo", "--netlist", str(f))


@pytest.mark.parametrize("resolution", ["0", "-1m"])
def test_drv_nonpositive_resolution_exits_2(run, cell_file, resolution):
    # The bisection could never shrink to such a resolution.
    code, out, err = run("drv", "--netlist", cell_file, "--resolution", resolution)
    assert code == 2 and out == ""
    assert err == "error: resolution must be positive\n"


def test_sweep_unknown_source_exits_2(run, tmp_path):
    f = tmp_path / "div.sp"
    f.write_text(DIVIDER)
    code, out, err = run(
        "sweep", str(f), "--source", "VX", "--from", "0", "--to", "1", "--step", "0.1"
    )
    assert code == 2 and out == ""
    assert err == "error: no stamped source named 'VX'\n"


def assert_bad_input(run, message, *argv):
    # Bad input exits 2 with its message, before anything is printed.
    code, out, err = run(*argv)
    assert code == 2 and out == "", argv
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("step", ["0", "-0.1"])
def test_sweep_nonpositive_step_exits_2(run, tmp_path, step):
    f = tmp_path / "div.sp"
    f.write_text(DIVIDER)
    argv = ("sweep", str(f), "--source", "V1", "--from", "0", "--to", "1", "--step", step)
    assert_bad_input(run, "sweep step must be positive", *argv)


@pytest.mark.parametrize(
    "argv",
    [
        ("sweep", "--from", "0", "--to", "1e400", "--step", "1"),
        ("sweep", "--from", "0", "--to", "1", "--step", "1e-9"),
        ("sweep", "--from", "0", "--to", "1", "--step", "1e-12"),
        ("sweep", "--from", "0", "--to", "1", "--step", "1e-300"),
        ("snm", "--vdd", "1e300", "--grid", "1e-300"),
        ("snm", "--grid", "1e-300"),
        ("montecarlo", "--grid", "1e-300"),
    ],
)
def test_impossible_sweep_grid_exits_2(run, tmp_path, cell_file, monkeypatch, argv):
    # A grid of no finite number of points, or whose tables need more than
    # physical memory, is bad input, refused before it is allocated.  The
    # host is taken to have 8 GiB: a 1e-9 step's grid alone (7.45 GiB)
    # would fit, but not the sweep's right-hand side and state tables.
    real = os.sysconf
    pages = 8 * 2**30 // real("SC_PAGE_SIZE")
    monkeypatch.setattr(os, "sysconf", lambda name: pages if name == "SC_PHYS_PAGES" else real(name))
    command, *flags = argv
    f = tmp_path / "div.sp"
    f.write_text(DIVIDER)
    target = [str(f), "--source", "V1"] if command == "sweep" else ["--netlist", cell_file]
    code, out, err = run(command, *target, *flags)
    assert code == 2 and out == ""
    endless = r"a sweep from \S+ to \S+ in steps of \S+ has no finite number of points"
    too_big = r"\S+ sweep points need \S+ GiB for the grid[a-z ,-]*, more than the 8 GiB of physical memory"
    assert re.fullmatch(rf"error: ({endless}|{too_big})\n", err)


def test_montecarlo_nonpositive_grid_exits_2(run, cell_file):
    assert_bad_input(run, "grid must be positive", "montecarlo", "--netlist", cell_file, "--grid", "0")


@pytest.mark.parametrize("size", [("--rows", "0"), ("--cols", "-1")])
def test_generate_empty_array_exits_2(run, size):
    message = "array needs at least one row and one column"
    assert_bad_input(run, message, "generate", "--kind", "array", *size)


def test_area_negative_side_exits_2(run):
    assert_bad_input(run, "rectangle sides must be nonnegative", "area", "--rect", "-1", "2")


def test_ratios_nonpositive_size_exits_2(run):
    assert_bad_input(run, "pull-down needs positive W and L", "ratios", "--pd", "0", "1")


@pytest.mark.parametrize(
    "flags, name",
    [
        (("--cbit", "-1e-13", "--icell", "1e-6"), "cbit"),
        (("--cbit", "0", "--icell", "1e-6"), "cbit"),
        (("--cbit", "1e-13", "--dv", "0", "--icell", "1e-6"), "dv"),
        (("--cbit", "1e-13", "--icell", "0"), "icell"),
    ],
)
def test_delay_nonpositive_bitline_input_exits_2(run, flags, name):
    # Each would give a delay of zero, a negative one or none at all;
    # bitline_delay names the quantity the flag gives.
    quantity = {"cbit": "bitline capacitance", "dv": "sense swing", "icell": "cell current"}[name]
    assert_bad_input(run, f"{quantity} must be positive", "delay", *flags)


def test_only_main_maps_exceptions_to_exit_codes():
    # One rule sets every exit code and one place writes stdout: main()
    # maps a command's exception to 1 or 2, and prints the report the
    # handler filled.  Elsewhere an except clause only re-raises
    # ConfigError with a message of its own (argparse's ArgumentTypeError
    # in _spice), and no subcommand handler opens a with block, writes
    # stdout or returns a value, except _cmd_generate's netlist text.
    tree = ast.parse(Path(cli.__file__).read_text())
    functions = [f for f in tree.body if isinstance(f, ast.FunctionDef)]
    assert {"main", "_cmd_snm", "_spice"} <= {f.name for f in functions}
    breaches = []
    for f in functions:
        if f.name == "main":
            continue
        allowed = "argparse.ArgumentTypeError" if f.name == "_spice" else "ConfigError"
        for node in ast.walk(f):
            if isinstance(node, ast.ExceptHandler):
                (stmt, *rest) = node.body
                exc = stmt.exc if isinstance(stmt, ast.Raise) else None
                if rest or not isinstance(exc, ast.Call) or ast.unparse(exc.func) != allowed:
                    breaches.append((f.name, node.lineno, "except"))
                elif allowed == "ConfigError" and not isinstance(exc.args[0], ast.JoinedStr):
                    breaches.append((f.name, node.lineno, "message"))
            if not f.name.startswith("_cmd_"):
                continue
            if isinstance(node, ast.With):
                breaches.append((f.name, node.lineno, "with"))
            if isinstance(node, ast.Call) and ast.unparse(node.func) in ("print", "sys.stdout.write"):
                breaches.append((f.name, node.lineno, "stdout"))
            if isinstance(node, ast.Return) and node.value is not None and (
                (f.name, ast.unparse(node.value)) != ("_cmd_generate", "text")
            ):
                breaches.append((f.name, node.lineno, "return"))
    assert breaches == []


def test_only_report_imports_csv():
    # report.py owns the column file format: no other module reads or
    # writes CSV itself.
    importers = []
    for path in sorted(Path(sramlab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            else:
                modules = [node.module] if isinstance(node, ast.ImportFrom) else []
            importers += [path.name for m in modules if m == "csv"]
    assert importers == ["report.py"]


# The only parameters of package functions that no package call binds, and
# why each stays.
UNBOUND_PARAMETERS = {
    ("main", "argv"): "the tests' entry point: they run commands in process through main(argv)",
    ("butterfly", "vth_shift"): (
        "the per-sample reference that the Monte Carlo bit-for-bit test and "
        "perfbench's reference_check compare monte_carlo_snm against"
    ),
}


def test_every_parameter_of_a_called_function_is_bound():
    # Every parameter of a function defined in the package and called from
    # package code is bound, by position or by keyword, by some call outside
    # the function itself: a parameter no caller passes is a knob that does
    # nothing.  Calls are matched to functions by name; a method's first
    # parameter is its receiver.
    trees = [ast.parse(path.read_text()) for path in sorted(Path(sramlab.__file__).parent.glob("*.py"))]
    defs: list[tuple[str, list[str], list[str]]] = []  # name, positional and keyword-only parameters
    own: set[tuple[str, int]] = set()  # (name, call) for each call inside a function so named
    for tree in trees:
        methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body}
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                positional = [a.arg for a in fn.args.posonlyargs + fn.args.args]
                static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
                if id(fn) in methods and not static:
                    positional = positional[1:]
                defs.append((fn.name, positional, [a.arg for a in fn.args.kwonlyargs]))
                own |= {(fn.name, id(node)) for node in ast.walk(fn)}
    names = {name for name, _, _ in defs}
    called, positions, keywords = set(), set(), set()  # names; (name, index); (name, keyword or None for **)
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)
            if name not in names or (name, id(node)) in own:
                continue
            called.add(name)
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            positions |= {(name, i) for i in range(len(node.args))} | ({(name, "*")} if starred else set())
            keywords |= {(name, kw.arg) for kw in node.keywords}
    unbound = set()
    for name, positional, keyword_only in defs:
        if name not in called or (name, None) in keywords:
            continue
        for i, p in enumerate(positional + keyword_only):
            by_position = i < len(positional) and ({(name, i), (name, "*")} & positions)
            if not by_position and (name, p) not in keywords:
                unbound.add((name, p))
    assert unbound == set(UNBOUND_PARAMETERS)


def test_sweep_of_one_point(run, tmp_path):
    f = tmp_path / "div.sp"
    f.write_text(DIVIDER)
    dest = tmp_path / "sweep.csv"
    code, out, _ = run(
        "sweep", str(f), "--source", "V1", "--from", "1", "--to", "1", "--step", "0.1", "--out", str(dest)
    )
    assert code == 0
    assert "points 1" in body_of(out)
    with open(dest, newline="") as fh:
        assert len(list(csv.reader(fh))) == 2


def test_negative_values_after_a_space(run, tmp_path):
    # A SPICE number such as -100m is a value, not an unknown option.
    f = tmp_path / "div.sp"
    f.write_text(DIVIDER)
    code, out, err = run(
        "sweep", str(f), "--source", "V1", "--from", "-100m", "--to", "0.2", "--step", "0.1"
    )
    assert code == 0 and err == ""
    assert "points 4" in body_of(out) and "start -0.1 V" in body_of(out)


# ---------------------------------------------------------------------
# Netlist plumbing


def test_parse_reports_corpus_counts(run):
    code, out, err = run("parse", str(CORPUS / "cell_extract.sp"))
    assert code == 0 and err == ""
    body = body_of(out)
    assert "nodes 6" in body
    assert "elements 10" in body
    assert "declared_nodes 6" in body
    assert "declared_elements 10" in body


def test_validate_flags_array_stubs(run):
    code, out, _ = run("validate", str(CORPUS / "array_extract.sp"))
    assert code == 0
    body = body_of(out)
    assert "declared_elements_match 79 pass" in body
    assert "declared_nodes_match 25 pass" in body
    # The extractor left 31 '?'-stubbed devices behind in this capture.
    assert "degenerate_elements 31" in body
    assert "placeholder_nodes 62" in body
    assert "floating_nodes 3" in body


def test_stimulus_corpus_write_survives_read(run, tmp_path):
    csv_path = tmp_path / "cycle.csv"
    code, out, err = run(
        "tran", str(CORPUS / "cell_write_read.sp"),
        "--tstop", "60n", "--dt", "0.1n",
        "--ic", "Q=1.8", "--ic", "QBAR=0",
        "--out", str(csv_path),
    )
    assert code == 0 and err == ""
    assert "points 601" in body_of(out)
    with csv_path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    q = float(rows[-1][rows[0].index("V(Q)")])
    qbar = float(rows[-1][rows[0].index("V(QBAR)")])
    # The word-line pulse at 5 ns writes a zero; the read pulse at 35 ns
    # disturbs Q but must not flip the cell back.
    assert q < 0.05 and qbar > 1.75


@pytest.mark.parametrize(
    "argv, at", [(("--dt", "2n"), "6e-09"), (("--dt", "5n", "--method", "trap"), "1e-08")], ids=["be-2n", "trap-5n"]
)
def test_coarse_write_steps_take_the_gmin_ladder(run, tmp_path, argv, at):
    # Steps this coarse fail plain Newton at the write edge (t = 6 ns on
    # BE at 2 ns, 10 ns on trap at 5 ns); each walks the gmin ladder, as a
    # DC lane does, and says so once, and the write still flips the cell by
    # t = 20 ns.
    csv_path = tmp_path / "coarse.csv"
    code, _, err = run(
        "tran", str(CORPUS / "cell_write_read.sp"), "--tstop", "20n", *argv,
        "--ic", "Q=1.8", "--ic", "QBAR=0", "--out", str(csv_path),
    )
    assert code == 0 and err.startswith("warning: time step ")
    assert err.endswith(f"\nwarning: 1 solve(s) needed the gmin ladder, the first at t={at} s\n")
    with csv_path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    assert float(rows[-1][0]) == pytest.approx(20e-9)
    assert float(rows[-1][rows[0].index("V(Q)")]) < 0.1
    assert float(rows[-1][rows[0].index("V(QBAR)")]) > 1.7


def test_library_warning_prints_as_one_line(tmp_path):
    # A fresh process under Python's default filters: the warning is one
    # `warning:` line on stderr, with no source location or echoed code,
    # and stdout is the report alone.
    done = python_dash_m(
        tmp_path, "tran", str(CORPUS / "cell_write_read.sp"), "--tstop", "20n", "--dt", "2n",
        "--ic", "Q=1.8", "--ic", "QBAR=0",
    )
    assert done.returncode == 0
    assert done.stderr == (
        "warning: time step 2e-09 s exceeds a rise/fall time of source VWL; edges will be under-resolved\n"
        "warning: 1 solve(s) needed the gmin ladder, the first at t=6e-09 s\n"
    )
    assert body_of(done.stdout) == ["points 11", "t_stop 2e-08 s"]


@pytest.mark.parametrize("method", ["be", "trap"])
def test_fine_write_steps_print_no_warning(run, method):
    # At 0.1 ns every edge is resolved and plain Newton solves every step,
    # the t=0 solve included, so neither warning prints.
    code, out, err = run(
        "tran", str(CORPUS / "cell_write_read.sp"), "--tstop", "60n", "--dt", "0.1n", "--method", method,
        "--ic", "Q=1.8", "--ic", "QBAR=0",
    )
    assert code == 0 and err == ""
    assert body_of(out) == ["points 601", "t_stop 6e-08 s"]


def test_parse_reports_the_title_line(run, tmp_path):
    f = tmp_path / "div.sp"
    f.write_text(DIVIDER)
    code, out, err = run("parse", str(f))
    assert code == 0 and err == ""
    assert body_of(out) == ["title resistor divider", "nodes 2", "elements 3"]


def test_missing_netlist_exits_2(run):
    code, out, err = run("snm", "--netlist", "no_such_cell.sp")
    assert code == 2 and out == ""
    assert "no_such_cell.sp" in err


def test_unparseable_netlist_exits_2(run, tmp_path):
    bad = tmp_path / "bad.sp"
    bad.write_text("M1 a b\n.END\n")
    code, _, err = run("dc", str(bad))
    assert code == 2
    assert "line 1" in err


def test_bad_number_flag_exits_2_naming_the_token(run, capsys):
    # A flag's number goes through parse_spice_number, whose message, not
    # argparse's generic one, names the token.
    with pytest.raises(SystemExit) as exc:
        main(["write-margin", "--netlist", "cell.sp", "--vdd", "1.2.3"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith("error: argument --vdd: not a number: '1.2.3'\n")


def test_tran_ic_without_a_node_exits_2(run, tmp_path):
    f = tmp_path / "rc.sp"
    f.write_text(RC)
    argv = ("tran", str(f), "--tstop", "1m", "--dt", "0.1m", "--ic", "=0.5")
    assert_bad_input(run, "bad --ic '=0.5'; expected NODE=VOLTS", *argv)


def test_report_get_of_a_missing_name_raises_key_error():
    rep = AnalysisReport()
    rep.add("points", 3)
    assert rep.get("points").value == 3
    with pytest.raises(KeyError):
        rep.get("t_stop")


def test_usage_errors_exit_2(run):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["snm"])  # --netlist is required
    assert exc.value.code == 2


# ---------------------------------------------------------------------
# Generation


def test_generate_into_missing_directory_exits_2(run, tmp_path):
    dest = tmp_path / "no_such_dir" / "cell.sp"
    code, out, err = run("generate", "--out", str(dest))
    assert code == 2 and out == ""
    assert err == f"error: cannot access {dest}: No such file or directory\n"


def test_generate_cell_to_stdout_round_trips(run):
    code, out, _ = run("generate", "--kind", "cell")
    assert code == 0
    net = parse_netlist(out)
    assert net.element_count == 10
    assert net.role_node("Q") == "Q"


def test_generate_to_file_reports_counts(run, tmp_path):
    dest = tmp_path / "gen.sp"
    code, out, _ = run("generate", "--kind", "cell", "--out", str(dest))
    assert code == 0
    assert "elements 10" in body_of(out)
    assert parse_netlist(dest.read_text()).node_count == 6


def test_generate_respects_size_flags(run, tmp_path):
    dest = tmp_path / "fat.sp"
    code, _, _ = run(
        "generate", "--kind", "cell", "--pu", "12u", "2u", "--out", str(dest)
    )
    assert code == 0
    net = parse_netlist(dest.read_text())
    assert net.element("MPUL").w == 12e-6
    assert net.element("MPDL").w == 6e-6


def test_generate_array_and_periphery(run):
    code, out, _ = run("generate", "--kind", "array", "--rows", "2", "--cols", "2")
    assert code == 0
    assert len(parse_netlist(out).mos_elements) == 24
    code, out, _ = run("generate", "--kind", "decoder")
    assert code == 0
    assert len(parse_netlist(out).mos_elements) == 28
    code, out, _ = run("generate", "--kind", "cell", "--no-parasitics")
    assert code == 0
    assert parse_netlist(out).element_count == 6


def test_generate_no_parasitics_drops_array_caps_and_rejects_periphery(run):
    code, out, _ = run("generate", "--kind", "array", "--rows", "2", "--cols", "2")
    assert code == 0 and parse_netlist(out).element_count > 24
    code, out, _ = run("generate", "--kind", "array", "--rows", "2", "--cols", "2", "--no-parasitics")
    assert code == 0
    assert parse_netlist(out).element_count == 24
    for kind in ("sense-amp", "precharge", "write-driver", "decoder"):
        code, out, err = run("generate", "--kind", kind, "--no-parasitics")
        assert code == 2 and out == "", kind
        assert err.startswith("error: --no-parasitics"), kind


# ---------------------------------------------------------------------
# Analyses


def test_dc_operating_point(run, tmp_path):
    f = tmp_path / "div.sp"
    f.write_text(DIVIDER)
    code, out, _ = run("dc", str(f))
    assert code == 0
    body = body_of(out)
    assert "V(mid) 0.9 V" in body
    assert "I(V1) -0.0009 A" in body


def test_sweep_writes_csv(run, tmp_path):
    f = tmp_path / "div.sp"
    f.write_text(DIVIDER)
    dest = tmp_path / "sweep.csv"
    code, out, _ = run(
        "sweep", str(f), "--source", "V1", "--from", "0", "--to", "1", "--step", "0.1",
        "--out", str(dest),
    )
    assert code == 0
    assert "points 11" in body_of(out)
    with open(dest, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "V1"
    assert len(rows) == 12


def test_sweep_of_a_current_source(run, tmp_path):
    f = tmp_path / "isrc.sp"
    f.write_text("* current\nI1 0 a DC 0\nR1 a 0 2k\n.END\n")
    dest = tmp_path / "sweep.csv"
    code, out, err = run(
        "sweep", str(f), "--source", "I1", "--from", "0", "--to", "1m", "--step", "0.25m", "--out", str(dest)
    )
    assert code == 0 and err == ""
    body = body_of(out)
    assert "points 5" in body
    assert "start 0 A" in body and "stop 0.001 A" in body
    with open(dest, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["I1", "V(a)"]
    assert [float(r[1]) for r in rows[1:]] == pytest.approx([0.0, 0.5, 1.0, 1.5, 2.0], abs=1e-12)


def test_sweep_runs_downward(run, tmp_path):
    f = tmp_path / "div.sp"
    f.write_text(DIVIDER)
    code, out, _ = run("sweep", str(f), "--source", "V1", "--from", "1", "--to", "0", "--step", "0.25")
    assert code == 0
    body = body_of(out)
    assert "points 5" in body
    assert "start 1 V" in body and "stop 0 V" in body


def test_tran_reports_and_writes(run, tmp_path):
    f = tmp_path / "rc.sp"
    f.write_text(RC)
    dest = tmp_path / "wave.csv"
    code, out, _ = run(
        "tran", str(f), "--tstop", "1m", "--dt", "0.1m", "--ic", "out=0",
        "--method", "trap", "--out", str(dest),
    )
    assert code == 0
    body = body_of(out)
    assert "points 11" in body
    assert "t_stop 0.001 s" in body
    assert dest.exists()


def test_tran_bad_ic_exits_2(run, tmp_path):
    f = tmp_path / "rc.sp"
    f.write_text(RC)
    cases = [
        (f, ["--ic", "out"], "NODE=VOLTS"),
        (f, ["--ic", "out=abc"], "NODE=VOLTS"),
        (f, ["--ic", "outt=0"], "unknown node 'outt'"),
        (f, ["--dt", "0"], "must be positive"),
        (f, ["--tstop", "0.04m"], "zero steps"),
        (f, ["--tstop", "1e300", "--dt", "1e-300"], "not a finite number of steps"),
    ]
    for path, extra, message in cases:
        code, out, err = run("tran", str(path), "--tstop", "1m", "--dt", "0.1m", *extra)
        assert code == 2 and out == "", extra
        assert message in err


def test_tran_ic_pins_take_ids_the_netlist_leaves_free(run, tmp_path):
    # The netlist's own VIC0 (any case) is the id the first pin would take.
    clash = tmp_path / "clash.sp"
    clash.write_text("* clash\nvic0 in 0 DC 1\nR1 in out 1k\nC1 out 0 1n\n.END\n")
    dest = tmp_path / "wave.csv"
    code, out, err = run("tran", str(clash), "--tstop", "1u", "--dt", "0.1u", "--ic", "out=0.5", "--out", str(dest))
    assert code == 0 and err == ""
    assert "points 11" in body_of(out)
    with open(dest, newline="") as fh:
        header, first = list(csv.reader(fh))[:2]
    assert header == ["time", "V(in)", "V(out)", "I(vic0)"]
    assert float(first[header.index("V(out)")]) == 0.5


@pytest.mark.parametrize(
    "argv",
    [
        ("dc",),
        ("sweep", "--source", "V1", "--from", "0", "--to", "1", "--step", "0.5"),
        ("tran", "--tstop", "1n", "--dt", "0.5n"),
    ],
    ids=lambda argv: argv[0],
)
def test_zero_ohm_resistor_exits_2(run, tmp_path, argv):
    # The engine refuses the value when it builds the system: bad input.
    f = tmp_path / "short.sp"
    f.write_text(DIVIDER.replace("R2 mid 0 1k", "R2 mid 0 0"))
    assert_bad_input(run, "resistor R2 needs a positive value", argv[0], str(f), *argv[1:])


def test_tran_failed_step_exits_1(run, tmp_path, monkeypatch):
    # Every time step is refused its Newton solve, on plain Newton and on
    # each rung of the gmin ladder (the t=0 solve, on the static Jacobian,
    # is not): an analysis failure with the ladder's message, naming the
    # node the refusals name, and named by its time.
    f = tmp_path / "rc.sp"
    f.write_text(RC)
    real = MnaSystem._newton_lanes

    def refusing(self, x0, b, g, vth, shunt=None):
        x, its, failed = real(self, x0, b, g, vth, shunt)
        return x, its, failed if g is self.g_static else {0: "refused"}

    monkeypatch.setattr(MnaSystem, "_newton_lanes", refusing)
    code, out, err = run("tran", str(f), "--tstop", "1m", "--dt", "0.1m")
    assert code == 1 and out == ""
    assert err == (
        "error: gmin stepping stalled below the minimum step; worst residual at node refused (at t=0.0001 s)\n"
    )


def test_tran_larger_than_memory_exits_2(run, tmp_path, monkeypatch):
    # 1 MiB of physical memory, as the engine reads it: 100 000 steps do not
    # fit, and tran says so instead of dying in the allocation.
    f = tmp_path / "rc.sp"
    f.write_text(RC)
    monkeypatch.setattr(os, "sysconf", {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 256}.get)
    code, out, err = run("tran", str(f), "--tstop", "100m", "--dt", "1u")
    assert code == 2 and out == ""
    assert err.startswith("error: 100000 steps of 1e-06 s need ")


def test_snm_report_and_csv(run, cell_file, tmp_path):
    dest = tmp_path / "butterfly.csv"
    code, out, _ = run(
        "snm", "--netlist", cell_file, "--grid", "0.05", "--out", str(dest)
    )
    assert code == 0
    body = body_of(out)
    snm_lines = [l for l in body if l.startswith("snm ")]
    assert len(snm_lines) == 1 and snm_lines[0].endswith(" V pass")
    assert any(l.startswith("snm_high ") for l in body)
    assert dest.read_text().startswith("V1,Vout_A,Vout_B_mirrored")


def test_drv_closed_form_subcommand(run, cell_file):
    code, out, _ = run("drv", "--netlist", cell_file, "--method", "closed-form")
    assert code == 0
    line = next(l for l in body_of(out) if l.startswith("drv_closed_form "))
    assert line.endswith(" V")
    assert 0.03 < float(line.split()[1]) < 0.06


def test_drv_both_methods_report(run, cell_file):
    # The only CLI run of the brute-force bisection.
    code, out, err = run("drv", "--netlist", cell_file, "--method", "both")
    assert code == 0 and err == ""
    assert body_of(out) == [
        "drv_closed_form 0.0458362424 V",
        "drv_bruteforce 0.0624023437 V",
        "drv_delta 0.0165661014 V",
    ]


def test_drv_not_bistable_at_vmax_exits_1(run, cell_file):
    code, out, err = run("drv", "--netlist", cell_file, "--method", "bruteforce", "--vmax", "0.03")
    assert code == 1 and out == ""
    assert err == "error: cell is not bistable even at v_dd=0.03 V\n"


def quick_start():
    """The README quick start's commands, each with the report lines the
    README shows after it."""
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = readme.split("## Quick start\n\n```sh\n", 1)[1].split("```", 1)[0]
    runs = []
    for line in block.splitlines():
        if line.startswith("$ sramlab "):
            runs.append((line[len("$ sramlab ") :], []))
        elif line:
            runs[-1][1].append(line)
    return runs


def test_readme_quick_start_prints_what_it_shows(run, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    runs = quick_start()
    assert any(argv.startswith("write-margin ") for argv, _ in runs)
    for argv, shown in runs:
        code, out, _ = run(*argv.split())
        assert code == 0, argv
        assert body_of(out) == shown, argv


def test_write_margin_subcommand(run, cell_file):
    code, out, _ = run("write-margin", "--netlist", cell_file)
    assert code == 0
    line = next(l for l in body_of(out) if l.startswith("write_margin "))
    assert 0.6 < float(line.split()[1]) < 1.0


def test_unwritable_cell_exits_1(run, cell_file):
    code, out, err = run("write-margin", "--netlist", cell_file, "--wl", "0")
    assert code == 1 and out == ""
    assert "not writable" in err


def test_delay_direct_mode(run):
    code, out, _ = run("delay", "--tplh", "12.01n", "--tphl", "12.15n")
    assert code == 0
    assert "t_p 1.208e-08 s" in body_of(out)
    code, out, _ = run("delay", "--tplh", "11.89n", "--tphl", "12.09n")
    assert "t_p 1.199e-08 s" in body_of(out)


def test_delay_direct_mode_needs_both_edges(run):
    code, _, err = run("delay", "--tplh", "12n")
    assert code == 2
    assert "together" in err


def test_delay_bad_waveform_exits_2(run, tmp_path):
    cases = {"empty.csv": "", "text.csv": "time,V(out)\n0,high\n"}
    for name, text in cases.items():
        (tmp_path / name).write_text(text)
    for name in [*cases, "missing.csv"]:
        path = str(tmp_path / name)
        code, out, err = run("delay", "--waveform", path, "--node", "out")
        assert code == 2 and out == "", name
        assert err.startswith("error: cannot read waveform" if name == "missing.csv" else "error: bad waveform")


def test_delay_waveform_needs_known_node_and_input(run, tmp_path):
    path = tmp_path / "wave.csv"
    rows = ["time,V(WL),V(Q)", "0,0,1.8", "1e-9,1.8,1.8", "2e-9,1.8,0", "3e-9,0,0", "4e-9,0,1.8"]
    path.write_text("\n".join(rows) + "\n")
    code, out, _ = run("delay", "--waveform", str(path), "--node", "Q", "--input", "WL")
    assert code == 0
    assert any(l.startswith("t_phl ") for l in body_of(out))
    cases = {
        ("--node", "NOPE", "--input", "WL"): "--node NOPE",
        ("--node", "Q", "--input", "NOPE"): "--input NOPE",
        ("--input", "WL"): "needs --node",
        ("--node", "Q"): "needs --input",
    }
    for flags, message in cases.items():
        code, out, err = run("delay", "--waveform", str(path), *flags)
        assert code == 2 and out == "", flags
        assert err.startswith("error: ") and message in err, flags


def test_delay_waveform_without_output_crossing_exits_1(run, tmp_path):
    # A MeasurementError is an EngineError: an analysis failure.
    path = tmp_path / "wave.csv"
    path.write_text("time,V(IN),V(OUT)\n0,0,1.8\n1e-9,1.8,1.8\n2e-9,1.8,0\n")
    code, out, err = run("delay", "--waveform", str(path), "--node", "OUT", "--input", "IN")
    assert code == 1 and out == ""
    assert err == "error: node OUT: no rising output transition found\n"


def test_delay_reads_a_butterfly_file(run, cell_file, tmp_path):
    # The notes that close an snm --out file are not data rows: the file
    # reads as a waveform, with V1 as its first column.  One butterfly
    # lobe falls once and never rises.
    dest = tmp_path / "snm.csv"
    code, _, _ = run("snm", "--netlist", cell_file, "--grid", "0.05", "--out", str(dest))
    assert code == 0
    code, out, err = run("delay", "--waveform", str(dest), "--node", "Vout_A", "--input", "Vout_B_mirrored")
    assert code == 1 and out == ""
    assert err == "error: node Vout_A: no rising output transition found\n"


def test_delay_bitline_mode(run):
    code, out, _ = run("delay", "--cbit", "100f", "--dv", "0.1", "--icell", "10u")
    assert code == 0
    assert "bitline_delay 1e-09 s" in body_of(out)


def test_delay_bitline_mode_from_netlist(run, cell_file):
    code, out, _ = run("delay", "--cbit", "100f", "--netlist", cell_file)
    assert code == 0
    body = body_of(out)
    assert any(l.startswith("i_cell ") for l in body)
    assert any(l.startswith("bitline_delay ") for l in body)


@pytest.mark.parametrize("flags, quantity", [(("--cbit", "0"), "bitline capacitance"), (("--cbit", "1p", "--dv", "-0.1"), "sense swing")])
def test_delay_bad_bitline_input_exits_2_before_any_solve(run, cell_file, flags, quantity, monkeypatch):
    # bitline_delay checks --cbit and --dv before it asks for the cell's
    # read current, so a bad one costs no device evaluation.
    stamps = []
    real = engine.mos_stamp

    def spy(*args):
        stamps.append(1)
        return real(*args)

    monkeypatch.setattr(engine, "mos_stamp", spy)
    assert_bad_input(run, f"{quantity} must be positive", "delay", "--netlist", cell_file, *flags)
    assert stamps == []


def test_delay_bitline_mode_needs_a_current(run):
    assert_bad_input(run, "bitline mode needs --icell or --netlist", "delay", "--cbit", "1p")


def test_delay_without_any_mode_exits_2(run):
    code, _, err = run("delay")
    assert code == 2
    assert "needs" in err


def test_ratios_default_geometry(run):
    code, out, _ = run("ratios")
    assert code == 0
    body = body_of(out)
    assert "cr_left 0.714285714" in body
    assert "pr_left 1.25" in body
    assert "read_stable false fail" in body
    assert "write_stable false fail" in body


def test_ratios_with_resized_pulldown(run):
    code, out, _ = run("ratios", "--pd", "12u", "2u")
    assert code == 0
    body = body_of(out)
    assert "read_stable true pass" in body
    assert "write_stable false fail" in body


def test_area_default_regions(run):
    code, out, _ = run("area")
    assert code == 0
    body = body_of(out)
    assert "area_0 2497.5 lambda^2" in body
    assert "area_1 1836.25 lambda^2" in body
    assert "total 4333.75 lambda^2" in body
    assert "quoted_total 4446.75 lambda^2" in body


def test_area_explicit_rects(run):
    code, out, _ = run("area", "--rect", "2", "3", "--rect", "4", "5")
    assert code == 0
    body = body_of(out)
    assert "total 26 lambda^2" in body
    assert not any(l.startswith("quoted_total") for l in body)


def test_montecarlo_subcommand(run, cell_file, tmp_path):
    dest = tmp_path / "mc.csv"
    args = (
        "montecarlo", "--netlist", cell_file, "--samples", "3", "--seed", "7",
        "--grid", "0.05", "--out", str(dest),
    )
    code, out, _ = run(*args)
    assert code == 0
    body = body_of(out)
    assert "samples 3" in body
    assert "failures 0" in body
    with open(dest, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["sample", "snm"]
    assert len(rows) == 4
    again_code, again_out, _ = run(*args)
    assert again_out == out


def test_montecarlo_rejects_bad_sampling_plan(run, cell_file):
    # A bad sampling plan is bad input: exit 2, not an analysis failure.
    code, _, err = run("montecarlo", "--netlist", cell_file, "--samples", "0")
    assert code == 2
    assert "sample" in err
    for a_vth in (["--a-vth=-1n"], ["--a-vth", "-1n"]):
        code, out, err = run("montecarlo", "--netlist", cell_file, *a_vth)
        assert code == 2 and out == ""
        assert err == "error: a_vth must be nonnegative\n"


def test_montecarlo_a_vth_from_config_and_flag(run, cell_file, tmp_path):
    # The config's a_vth feeds the spread; --a-vth overrides it when given.
    cfg = tmp_path / "wide.tech"
    cfg.write_text("a_vth = 30n\n")
    args = ("montecarlo", "--netlist", cell_file, "--samples", "5", "--grid", "0.05")
    _, plain, _ = run(*args)
    code, wide, _ = run(*args, "--config", str(cfg))
    assert code == 0
    assert "a_vth=3e-08" in wide
    spread = [l for l in body_of(wide) if l.startswith("snm_stddev")]
    assert spread and spread[0] not in body_of(plain)
    code, flagged, _ = run(*args, "--config", str(cfg), "--a-vth", "3n")
    assert code == 0
    # Header included: it echoes the coefficient the run used (3e-09).
    assert flagged == plain
