import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sramlab
from sramlab.cli import main
from sramlab.genlib import build_6t_cell
from sramlab.netlist import parse_netlist, print_netlist

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


def test_python_dash_m_runs_the_cli(tmp_path):
    # From a checkout, with the source tree on the path and no install.
    path = [str(Path(sramlab.__file__).parent.parent), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    argv = ["power", "--cl", "35f", "--vdd", "1.8", "--fsw", "100meg"]
    done = subprocess.run(
        [sys.executable, "-m", "sramlab", *argv], capture_output=True, text=True, env=env, cwd=tmp_path
    )
    assert done.returncode == 0 and done.stderr == ""
    assert "dynamic_power 1.134e-05 W" in body_of(done.stdout)


def test_power_negative_input_exits_2(run):
    code, out, err = run("power", "--cl", "-1", "--vdd", "1.8", "--fsw", "100meg")
    assert code == 2 and out == ""
    assert err == "error: capacitance, supply, and frequency must be nonnegative\n"


def test_snm_zero_grid_exits_2(run, cell_file):
    code, out, err = run("snm", "--netlist", cell_file, "--grid", "0")
    assert code == 2 and out == ""
    assert err == "error: grid must be positive\n"


def assert_bad_supply(run, name, *argv):
    # A supply that is not positive is bad input, rejected before any
    # analysis runs: exit 2, nothing on stdout.
    for value in ("0", "-1"):
        code, out, err = run(*argv, f"--{name}={value}")
        assert code == 2 and out == "", (argv, value)
        assert err == f"error: {name} must be positive\n"


def test_snm_nonpositive_vdd_exits_2(run, cell_file):
    assert_bad_supply(run, "vdd", "snm", "--netlist", cell_file)


def test_montecarlo_nonpositive_vdd_exits_2(run, cell_file):
    assert_bad_supply(run, "vdd", "montecarlo", "--netlist", cell_file)


def test_delay_nonpositive_vdd_exits_2(run, cell_file):
    assert_bad_supply(run, "vdd", "delay", "--netlist", cell_file, "--cbit", "1e-13")


def test_write_margin_nonpositive_vdd_exits_2(run, cell_file):
    assert_bad_supply(run, "vdd", "write-margin", "--netlist", cell_file)


def test_drv_nonpositive_vmax_exits_2(run, cell_file):
    assert_bad_supply(run, "vmax", "drv", "--netlist", cell_file)


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
    # Each would give a delay of zero, a negative one or none at all.
    assert_bad_input(run, f"{name} must be positive", "delay", *flags)


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


def test_usage_errors_exit_2(run):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["snm"])  # --netlist is required
    assert exc.value.code == 2


# ---------------------------------------------------------------------
# Generation


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
    clash = tmp_path / "clash.sp"
    clash.write_text(RC.replace("V1 in", "VIC0 in"))  # the id of the first --ic pin
    cases = [
        (f, ["--ic", "out"], "NODE=VOLTS"),
        (f, ["--ic", "out=abc"], "NODE=VOLTS"),
        (f, ["--ic", "outt=0"], "unknown node 'outt'"),
        (clash, ["--ic", "out=0"], "element named VIC0"),
        (f, ["--dt", "0"], "must be positive"),
        (f, ["--tstop", "0.04m"], "zero steps"),
        (f, ["--tstop", "1e300", "--dt", "1e-300"], "not a finite number of steps"),
    ]
    for path, extra, message in cases:
        code, out, err = run("tran", str(path), "--tstop", "1m", "--dt", "0.1m", *extra)
        assert code == 2 and out == "", extra
        assert message in err


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
